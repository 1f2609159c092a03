//! The one BinPAC++ analyzer driver: a grammar plus its event declarations.
//!
//! In the paper an analyzer is a `.pac2` grammar and a small `.evt` file
//! next to it (Figure 7b: `on SSH::Banner -> event ssh_banner(self.version,
//! self.software)`); the host glue is derived from those lines (§4, §6.4).
//! Here a [`Protocol`] is that pair: a grammar, a [`Mode`], a table of
//! [`EventDecl`]s and the few [`HostHook`]s that answer the parser with a
//! value. [`BinpacAnalyzer`] is the only code that drives one:
//!
//! * **Stream mode** ([`Mode::Stream`]) keeps one pair of incremental
//!   sessions per connection — the originator's unit and the responder's —
//!   fed delivery by delivery with [`BinpacAnalyzer::feed_chunk`] and ended
//!   by [`BinpacAnalyzer::finish_conn`] (HTTP).
//! * **Datagram mode** ([`Mode::Datagram`]) parses each payload whole with
//!   [`BinpacAnalyzer::datagram_chunk`]. Only `Hilti::ResourceExhausted`
//!   (a governance limit) escapes as an error; any other failure means the
//!   payload is not this protocol and comes back as `Ok(false)` (DNS).
//!
//! Each declaration names a unit hook and the `(unit, field)` pairs its
//! builder reads. [`BinpacAnalyzer::from_ir`] resolves every pair to its
//! struct slot once, against the compiled program's struct layouts, so a
//! misspelt field fails construction instead of the first packet. When
//! the hook fires, the builder gets the unit value and the resolved
//! [`Slot`]s, in declaration order, and pushes [`Event`]s through [`Emit`].
//! The driver records a `Parse` span per feed and a `Glue` span per event
//! hook, and owns the sessions, the per-connection [`AllocBudget`], the
//! delivery deadline, telemetry and per-delivery fault injection.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti::vm::TierMix;
use hilti_rt::bytestring::FeedChunk;
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::limits::AllocBudget;
use hilti_rt::telemetry::Telemetry;
use hilti_rt::time::Time;
use hilti_rt::trace::{self, SharedRecorder, Stage};
use netpkt::events::{ConnId, Event};

use crate::grammar::Grammar;
use crate::parser::{slot, BinpacParser, DatagramUnit, ParserIr, Session};

/// How the driver feeds its grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Per-connection sessions: `orig` parses the originator's stream and
    /// `resp` the responder's.
    Stream {
        orig: &'static str,
        resp: &'static str,
    },
    /// One whole parse of `unit` per datagram.
    Datagram { unit: &'static str },
}

/// `on <hook> -> build(<reads>)`: one event declaration.
pub struct EventDecl {
    /// The unit hook (a grammar unit's `on_done` name) that fires it.
    pub hook: &'static str,
    /// The fields `build` reads, by unit, in the order of its slots.
    pub reads: &'static [(&'static str, &'static [&'static str])],
    /// Makes the events from the hook's unit value and the resolved reads.
    pub build: fn(&mut Emit<'_>, &Value, &[Slot]) -> RtResult<()>,
}

/// A hook the grammar calls for a value (`call.c`) rather than an event.
pub type HostHook = (&'static str, fn(&mut Emit<'_>) -> Value);

/// A protocol analyzer: everything the driver needs to know about it.
pub struct Protocol {
    pub grammar: fn() -> Grammar,
    pub mode: Mode,
    pub events: &'static [EventDecl],
    pub host_hooks: &'static [HostHook],
}

/// A unit field resolved to its struct slot.
#[derive(Clone, Copy, Debug)]
pub struct Slot(usize);

impl Slot {
    /// The field's value in `unit`.
    pub fn get(self, unit: &Value) -> RtResult<Value> {
        slot(unit, self.0)
    }

    /// The field rendered as text (bytes → lossy UTF-8).
    pub fn text(self, unit: &Value) -> RtResult<String> {
        Ok(self.get(unit)?.render())
    }

    pub fn int(self, unit: &Value) -> RtResult<i64> {
        self.get(unit)?.as_int()
    }

    /// The field's bytes; an unset field is empty.
    pub fn bytes(self, unit: &Value) -> RtResult<Vec<u8>> {
        match self.get(unit)? {
            Value::Bytes(b) => Ok(b.to_vec()),
            Value::Null => Ok(Vec::new()),
            other => Err(RtError::type_error(format!(
                "expected bytes slot, got {}",
                other.type_name()
            ))),
        }
    }
}

/// A builder's slots as an array, for destructuring into named reads.
pub fn reads<const N: usize>(slots: &[Slot]) -> RtResult<[Slot; N]> {
    slots.try_into().map_err(|_| {
        RtError::runtime(format!(
            "event builder takes {N} reads, its declaration has {}",
            slots.len()
        ))
    })
}

#[derive(Clone)]
struct Cur {
    /// Interned connection uid: one `Arc<str>` per connection, shared by
    /// the session map, span recorder and events.
    uid: Arc<str>,
    id: ConnId,
    ts: Time,
}

/// The state hooks share with the driver.
#[derive(Default)]
struct Shared {
    current: Option<Cur>,
    /// The current connection's notes (see [`Emit::push_note`]).
    notes: VecDeque<bool>,
    events: Vec<Event>,
}

/// What a builder or host hook sees: the delivery being parsed, the event
/// buffer and the connection's notes.
pub struct Emit<'a> {
    pub uid: Arc<str>,
    pub id: ConnId,
    pub ts: Time,
    shared: &'a mut Shared,
}

impl Emit<'_> {
    fn with<T>(shared: &RefCell<Shared>, f: impl FnOnce(&mut Emit<'_>) -> T) -> RtResult<T> {
        let mut sh = shared.borrow_mut();
        let cur = sh
            .current
            .clone()
            .ok_or_else(|| RtError::runtime("BinPAC++ hook fired with no active delivery"))?;
        Ok(f(&mut Emit {
            uid: cur.uid,
            id: cur.id,
            ts: cur.ts,
            shared: &mut sh,
        }))
    }

    pub fn event(&mut self, ev: Event) {
        self.shared.events.push(ev);
    }

    /// Queues a flag for a later host hook on the same connection (HTTP:
    /// whether each outstanding request is a `HEAD`). The queue lives and
    /// dies with the connection's sessions.
    pub fn push_note(&mut self, note: bool) {
        self.shared.notes.push_back(note);
    }

    /// The connection's oldest queued note, if any.
    pub fn pop_note(&mut self) -> Option<bool> {
        self.shared.notes.pop_front()
    }
}

/// The `Send` front end of an analyzer: the grammar's optimized IR plus its
/// protocol, built once and materialized per thread by
/// [`BinpacAnalyzer::from_ir`].
#[derive(Clone)]
pub struct AnalyzerIr {
    ir: ParserIr,
    proto: &'static Protocol,
}

/// One connection's stream state. Both directions share one
/// [`AllocBudget`] when a per-connection limit is configured.
struct Conn {
    orig: Session,
    resp: Session,
    budget: Option<AllocBudget>,
    notes: VecDeque<bool>,
}

/// A generated parser wired to Bro-style events. See the module docs.
pub struct BinpacAnalyzer {
    parser: BinpacParser,
    mode: Mode,
    /// The unit every datagram parses, resolved at construction
    /// ([`Mode::Datagram`] only).
    datagram: Option<DatagramUnit>,
    shared: Rc<RefCell<Shared>>,
    sessions: HashMap<Arc<str>, Conn>,
    /// Per-connection byte budget applied to newly created sessions.
    session_budget: Option<u64>,
    /// High-water mark of buffered bytes across all budgeted connections.
    peak_session_bytes: u64,
    /// Wall-clock watchdog re-armed at the start of every delivery.
    deadline_ms: Option<u64>,
    /// Flight recorder for parse and glue spans (labelled with its current
    /// delivery); `None` unless the host pipeline traces.
    rec: Option<SharedRecorder>,
}

impl BinpacAnalyzer {
    /// Grammar codegen and IR optimization, no bytecode; stream units get
    /// their `drive_*` loops. Fails on a declaration whose hook no unit of
    /// the grammar fires.
    pub fn front_end(proto: &'static Protocol, opt: OptLevel) -> RtResult<AnalyzerIr> {
        let grammar = (proto.grammar)();
        for hook in proto.events.iter().map(|d| d.hook) {
            if !grammar
                .units
                .iter()
                .any(|u| u.done_hook.as_deref() == Some(hook))
            {
                let m = &grammar.module;
                let msg = format!("event declaration: no unit of {m} fires hook {hook}");
                return Err(RtError::value(msg));
            }
        }
        let streams = match proto.mode {
            Mode::Stream { orig, resp } => vec![orig, resp],
            Mode::Datagram { .. } => Vec::new(),
        };
        let ir = BinpacParser::front_end(&grammar, &streams, opt)?;
        Ok(AnalyzerIr { ir, proto })
    }

    /// Per-thread construction: bytecode lowering, then every declaration
    /// resolved by field name and registered as a hook.
    pub fn from_ir(ir: &AnalyzerIr, rec: Option<SharedRecorder>) -> RtResult<BinpacAnalyzer> {
        let mut parser = BinpacParser::from_ir(&ir.ir)?;
        let shared = Rc::new(RefCell::new(Shared::default()));
        for decl in ir.proto.events {
            let layouts = &parser.program().compiled().struct_layouts;
            let mut slots = Vec::with_capacity(decl.reads.iter().map(|(_, f)| f.len()).sum());
            for &(unit, fields) in decl.reads {
                for &field in fields {
                    let idx = layouts.get(unit).and_then(|l| l.index_of(field));
                    slots.push(Slot(idx.ok_or_else(|| {
                        RtError::value(format!(
                            "event declaration on {}: unit {unit} has no field {field}",
                            decl.hook
                        ))
                    })?));
                }
            }
            let (s, hook_rec, build) = (shared.clone(), rec.clone(), decl.build);
            parser.register_hook(decl.hook, move |args| {
                trace::span(hook_rec.as_ref(), Stage::Glue, || {
                    Emit::with(&s, |e| build(e, args[0], &slots))??;
                    Ok(Value::Null)
                })
            });
        }
        for &(hook, f) in ir.proto.host_hooks {
            let s = shared.clone();
            parser.register_hook(hook, move |_| Emit::with(&s, f));
        }
        let datagram = match ir.proto.mode {
            Mode::Datagram { unit } => Some(parser.datagram_unit(unit)?),
            Mode::Stream { .. } => None,
        };
        Ok(BinpacAnalyzer {
            parser,
            mode: ir.proto.mode,
            datagram,
            shared,
            sessions: HashMap::new(),
            session_budget: None,
            peak_session_bytes: 0,
            deadline_ms: None,
            rec,
        })
    }

    pub fn is_stream(&self) -> bool {
        matches!(self.mode, Mode::Stream { .. })
    }

    /// Arms a per-delivery wall-clock watchdog: every feed, finish and
    /// datagram must complete within `ms` milliseconds or the parser VM
    /// trips `Hilti::ResourceExhausted` (see `ResourceLimits::deadline_ms`).
    pub fn set_delivery_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms;
        if ms.is_none() {
            self.context().arm_deadline_after_ms(None);
        }
    }

    /// Caps buffered stream state per connection. Feeding a connection
    /// past its budget raises `Hilti::ResourceExhausted` from
    /// [`BinpacAnalyzer::feed_chunk`]; existing connections keep their old
    /// budget.
    pub fn set_session_budget(&mut self, bytes: u64) {
        self.session_budget = Some(bytes);
    }

    /// High-water mark of buffered bytes over all budgeted connections.
    pub fn peak_session_bytes(&self) -> u64 {
        self.peak_session_bytes
    }

    /// Attaches telemetry to the parser VM: retired-instruction counters
    /// flushed per parse step, plus fiber suspend/resume and
    /// resource-limit events on the sink.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.context().set_telemetry(telemetry);
    }

    /// Runs one delivery's `parse` with the parser VM armed to raise
    /// `injected chaos fault` after `after` charged steps (see
    /// `Context::inject_fault_after`), disarmed again after it; `None`
    /// runs it unarmed. Armed per delivery rather than for the VM's
    /// lifetime, the fault hits the same delivery whichever VM parses it.
    pub fn inject_fault_after<T>(
        &mut self,
        after: Option<u64>,
        parse: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let Some(steps) = after else {
            return parse(self);
        };
        let fault = RtError::runtime("injected chaos fault");
        self.context().inject_fault_after(steps, fault);
        let r = parse(self);
        self.context().disarm_fault();
        r
    }

    fn context(&mut self) -> &mut hilti::vm::Context {
        self.parser.program_mut().context_mut()
    }

    /// Whether a live session exists for `uid`.
    pub fn has_conn(&self, uid: &str) -> bool {
        self.sessions.contains_key(uid)
    }

    /// UIDs of all live connections, sorted (deterministic teardown order).
    pub fn live_uids(&self) -> Vec<Arc<str>> {
        let mut uids: Vec<Arc<str>> = self.sessions.keys().cloned().collect();
        uids.sort();
        uids
    }

    /// Number of live connection sessions.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Starts a delivery: re-arms the deadline and sets the current flow.
    fn begin(&mut self, uid: &Arc<str>, id: ConnId, ts: Time) {
        if let Some(ms) = self.deadline_ms {
            self.context().arm_deadline_after_ms(Some(ms));
        }
        self.shared.borrow_mut().current = Some(Cur {
            uid: uid.clone(),
            id,
            ts,
        });
    }

    /// Feeds one delivery for one direction of a connection (stream mode).
    /// The uid is the caller's interned handle (cloned, never
    /// re-allocated); a borrowed chunk lands in the session's byte string
    /// without copying.
    pub fn feed_chunk(
        &mut self,
        uid: &Arc<str>,
        id: ConnId,
        is_orig: bool,
        ts: Time,
        data: FeedChunk<'_>,
    ) -> RtResult<()> {
        let Mode::Stream { orig, resp } = self.mode else {
            return Err(RtError::runtime("feed_chunk on a datagram analyzer"));
        };
        let rec = self.rec.clone();
        trace::span(rec.as_ref(), Stage::Parse, || {
            self.begin(uid, id, ts);
            let (parser, limit) = (&self.parser, self.session_budget);
            let conn = self.sessions.entry(uid.clone()).or_insert_with(|| {
                let (orig, resp) = (parser.session(orig), parser.session(resp));
                // One budget per connection, shared by both directions.
                let budget = limit.map(AllocBudget::with_limit);
                if let Some(b) = &budget {
                    orig.set_budget(b.clone());
                    resp.set_budget(b.clone());
                }
                Conn {
                    orig,
                    resp,
                    budget,
                    notes: VecDeque::new(),
                }
            });
            let session = if is_orig {
                &mut conn.orig
            } else {
                &mut conn.resp
            };
            std::mem::swap(&mut self.shared.borrow_mut().notes, &mut conn.notes);
            let r = self.parser.feed_chunk(session, data);
            std::mem::swap(&mut self.shared.borrow_mut().notes, &mut conn.notes);
            if let Some(b) = &conn.budget {
                self.peak_session_bytes = self.peak_session_bytes.max(b.peak());
            }
            r
        })
    }

    /// Ends a connection: freezes both directions (flushing read-to-close
    /// bodies) and drops its state.
    pub fn finish_conn(&mut self, uid: &str, id: ConnId, ts: Time) -> RtResult<()> {
        let rec = self.rec.clone();
        trace::span(rec.as_ref(), Stage::Parse, || {
            let Some((uid, mut conn)) = self.sessions.remove_entry(uid) else {
                return Ok(());
            };
            self.begin(&uid, id, ts);
            std::mem::swap(&mut self.shared.borrow_mut().notes, &mut conn.notes);
            let r = self.parser.finish(&mut conn.resp);
            let r = r.and_then(|()| self.parser.finish(&mut conn.orig));
            self.shared.borrow_mut().notes.clear();
            r
        })
    }

    /// Quarantine teardown: discards a connection's parser state without
    /// running the finish path (which could re-raise out of a poisoned
    /// session). Pending events for other flows are untouched.
    pub fn drop_conn(&mut self, uid: &str) {
        if let Some(b) = self.sessions.remove(uid).and_then(|c| c.budget) {
            self.peak_session_bytes = self.peak_session_bytes.max(b.peak());
        }
    }

    /// Parses one datagram (datagram mode); a borrowed chunk reaches the
    /// parser without a payload copy. `Ok(false)`: not parseable as this
    /// protocol. Governance faults (deadline, fuel, heap) escape as `Err`.
    pub fn datagram_chunk(
        &mut self,
        uid: &Arc<str>,
        id: ConnId,
        ts: Time,
        payload: FeedChunk<'_>,
    ) -> RtResult<bool> {
        let Some(unit) = self.datagram.clone() else {
            return Err(RtError::runtime("datagram_chunk on a stream analyzer"));
        };
        let rec = self.rec.clone();
        trace::span(rec.as_ref(), Stage::Parse, || {
            self.begin(uid, id, ts);
            match self.parser.parse_datagram_chunk(&unit, payload) {
                Ok(_) => Ok(true),
                Err(e) if e.kind == ExceptionKind::ResourceExhausted => Err(e),
                Err(_) => Ok(false),
            }
        })
    }

    /// Moves the accumulated events into `out`, keeping the internal
    /// buffer's capacity (no per-delivery allocation).
    pub fn drain_events_into(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.shared.borrow_mut().events);
    }

    /// Instructions the parser program has retired, by VM tier.
    pub fn tier_mix(&self) -> TierMix {
        self.parser.program().context().tier_mix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{dns_grammar, DNS};
    use crate::http::HTTP;

    #[test]
    fn every_http_and_dns_declaration_resolves_against_its_grammar() {
        for proto in [&HTTP, &DNS] {
            let ir = BinpacAnalyzer::front_end(proto, OptLevel::Full).unwrap();
            let a = BinpacAnalyzer::from_ir(&ir, None).unwrap();
            let layouts = &a.parser.program().compiled().struct_layouts;
            for (unit, fields) in proto.events.iter().flat_map(|d| d.reads) {
                for field in *fields {
                    assert!(layouts[*unit].index_of(field).is_some(), "{unit}.{field}");
                }
            }
        }
    }

    #[test]
    fn misspelt_field_fails_construction_naming_unit_and_field() {
        static MISSPELT: Protocol = Protocol {
            grammar: dns_grammar,
            mode: Mode::Datagram { unit: "Message" },
            events: &[EventDecl {
                hook: "Dns::on_message",
                reads: &[("Message", &["id"]), ("RR", &["rdata_txt"])],
                build: |_, _, _| Ok(()),
            }],
            host_hooks: &[],
        };
        let ir = BinpacAnalyzer::front_end(&MISSPELT, OptLevel::Full).unwrap();
        let Err(e) = BinpacAnalyzer::from_ir(&ir, None) else {
            panic!("a misspelt field must fail construction");
        };
        let msg = e.to_string();
        assert!(msg.contains("unit RR has no field rdata_txt"), "{msg}");
    }

    #[test]
    fn unknown_datagram_unit_fails_construction() {
        static MISSPELT: Protocol = Protocol {
            grammar: dns_grammar,
            mode: Mode::Datagram { unit: "Mesage" },
            events: &[],
            host_hooks: &[],
        };
        let ir = BinpacAnalyzer::front_end(&MISSPELT, OptLevel::Full).unwrap();
        let Err(e) = BinpacAnalyzer::from_ir(&ir, None) else {
            panic!("an unknown datagram unit must fail construction");
        };
        assert_eq!(e.message, "unknown function Dns::parse_Mesage");
    }

    #[test]
    fn misspelt_hook_fails_the_front_end() {
        static MISSPELT: Protocol = Protocol {
            grammar: dns_grammar,
            mode: Mode::Datagram { unit: "Message" },
            events: &[EventDecl {
                hook: "Dns::on_mesage",
                reads: &[],
                build: |_, _, _| Ok(()),
            }],
            host_hooks: &[],
        };
        let Err(e) = BinpacAnalyzer::front_end(&MISSPELT, OptLevel::Full) else {
            panic!("a hook no unit fires must fail the front end");
        };
        assert!(e.to_string().contains("Dns::on_mesage"), "{e}");
    }
}
