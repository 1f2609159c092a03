//! The host-side driver for generated parsers.
//!
//! [`BinpacParser`] owns the compiled HILTI program for a grammar; it can
//! parse complete PDUs (datagrams) directly, or run stream [`Session`]s —
//! fibers executing the generated `drive_<Unit>` loop, fed chunk by chunk
//! exactly like the paper's host applications feed payload "as it arrives"
//! (§3.2). Host hooks registered by name are what the `.evt` layer's event
//! declarations attach to (Figure 7; see [`crate::analyzer`]).

use std::collections::HashMap;
use std::rc::Rc;

use hilti::fiber::{Fiber, FiberState, Step};
use hilti::host::Program;
use hilti::passes::OptLevel;
use hilti::value::{StructLayout, Value};
use hilti::vm::FuncId;
use hilti_rt::bytestring::{Bytes, FeedChunk};
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::limits::AllocBudget;

use crate::codegen::{generate, generate_driver};
use crate::grammar::Grammar;

/// The `Send` front-end half of a compiled grammar: generated, linked and
/// optimized IR waiting for per-thread bytecode lowering. Build it once
/// with [`BinpacParser::front_end`], then materialize one thread-private
/// parser per worker with [`BinpacParser::from_ir`] — this skips the
/// expensive codegen/link/optimize phases on every shard.
#[derive(Clone)]
pub struct ParserIr {
    ir: hilti::host::ProgramIr,
    module: String,
}

/// A grammar compiled into an executable HILTI parser.
pub struct BinpacParser {
    program: Program,
    module: String,
    /// Unit name → its generated entry points, resolved when the program
    /// is lowered so that a parse per packet looks nothing up by name.
    units: HashMap<String, UnitEntry>,
}

struct UnitEntry {
    parse: FuncId,
    /// Present for stream units (those compiled with a `drive_*` loop).
    drive: Option<(Rc<str>, FuncId)>,
}

/// A unit resolved for whole-PDU parses: its `parse_*` function and its
/// struct layout, looked up once rather than per datagram.
#[derive(Clone)]
pub struct DatagramUnit {
    parse: FuncId,
    layout: Rc<StructLayout>,
}

impl BinpacParser {
    /// Compiles `grammar`; `stream_units` get `drive_*` loop functions for
    /// session-style use.
    pub fn compile(
        grammar: &Grammar,
        stream_units: &[&str],
        opt: OptLevel,
    ) -> RtResult<BinpacParser> {
        Self::from_ir(&Self::front_end(grammar, stream_units, opt)?)
    }

    /// The front half of [`BinpacParser::compile`]: grammar codegen plus
    /// the HILTI front end (parse/link/check/optimize). The result is
    /// `Clone + Send`.
    pub fn front_end(
        grammar: &Grammar,
        stream_units: &[&str],
        opt: OptLevel,
    ) -> RtResult<ParserIr> {
        let mut src = generate(grammar)?;
        for u in stream_units {
            src.push_str(&generate_driver(u));
        }
        let ir = Program::front_end(&[&src], opt, Default::default())?;
        Ok(ParserIr {
            ir,
            module: grammar.module.clone(),
        })
    }

    /// The per-thread half of [`BinpacParser::compile`]: bytecode lowering
    /// and a fresh execution context from a shared front end.
    pub fn from_ir(ir: &ParserIr) -> RtResult<BinpacParser> {
        let program = Program::from_ir(ir.ir.clone())?;
        let prefix = format!("{}::parse_", ir.module);
        let mut units = HashMap::new();
        for func in program.compiled().func_index.keys() {
            let Some(unit) = func.strip_prefix(&prefix) else {
                continue;
            };
            let drive = format!("{}::drive_{unit}", ir.module);
            let entry = UnitEntry {
                parse: program.func_id(func)?,
                drive: program.func_id(&drive).ok().map(|id| (drive.into(), id)),
            };
            units.insert(unit.to_owned(), entry);
        }
        Ok(BinpacParser {
            program,
            module: ir.module.clone(),
            units,
        })
    }

    /// Registers a host hook (field / unit-done callback).
    pub fn register_hook(
        &mut self,
        name: &str,
        f: impl FnMut(&[&Value]) -> RtResult<Value> + 'static,
    ) {
        self.program.register_host_fn(name, f);
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn program_mut(&mut self) -> &mut Program {
        &mut self.program
    }

    /// Resolves `unit` for [`BinpacParser::parse_datagram_chunk`]; fails
    /// when the grammar has no such unit.
    pub fn datagram_unit(&self, unit: &str) -> RtResult<DatagramUnit> {
        let layout = self.program.compiled().struct_layouts.get(unit);
        let (Some(entry), Some(layout)) = (self.units.get(unit), layout) else {
            return Err(RtError::value(format!(
                "unknown function {}::parse_{unit}",
                self.module
            )));
        };
        Ok(DatagramUnit {
            parse: entry.parse,
            layout: Rc::new(layout.clone()),
        })
    }

    /// Parses one complete PDU with unit `unit`; returns the struct value.
    pub fn parse_datagram(&mut self, unit: &str, payload: &[u8]) -> RtResult<Value> {
        let unit = self.datagram_unit(unit)?;
        self.run_datagram(&unit, Bytes::frozen_from_slice(payload))
    }

    /// Like [`BinpacParser::parse_datagram`], for a unit resolved once,
    /// and the PDU arrives as a [`FeedChunk`]: a borrowed arena chunk is
    /// parsed in place, without copying the payload into the parser's
    /// byte string.
    pub fn parse_datagram_chunk(
        &mut self,
        unit: &DatagramUnit,
        payload: FeedChunk<'_>,
    ) -> RtResult<Value> {
        let data = Bytes::new();
        data.append_chunk(payload)
            .expect("fresh Bytes cannot be frozen");
        data.freeze();
        self.run_datagram(unit, data)
    }

    fn run_datagram(&mut self, unit: &DatagramUnit, data: Bytes) -> RtResult<Value> {
        // parse_* fills in the unit it is handed and returns the iterator.
        let value = unit.layout.instantiate();
        self.program.run_id(
            unit.parse,
            &[
                value.clone(),
                Value::Bytes(data.clone()),
                Value::BytesIter(data.begin()),
            ],
        )?;
        Ok(value)
    }

    /// Starts a stream session over `drive_<unit>`.
    pub fn session(&self, unit: &str) -> Session {
        let data = Bytes::new();
        let args = vec![Value::Bytes(data.clone())];
        let fiber = match self.units.get(unit).and_then(|e| e.drive.as_ref()) {
            Some((name, id)) => Fiber::resolved(name, *id, args),
            // Not a stream unit: the first resume reports the missing loop.
            None => Fiber::new(&format!("{}::drive_{unit}", self.module), args),
        };
        Session {
            data,
            fiber,
            failed: false,
        }
    }

    /// Appends payload to a session and resumes its parse fiber.
    pub fn feed(&mut self, session: &mut Session, chunk: &[u8]) -> RtResult<()> {
        self.feed_chunk(session, FeedChunk::Copy(chunk))
    }

    /// Appends one delivery to a session and resumes its parse fiber. A
    /// borrowed chunk goes into the session's byte string without a copy —
    /// the zero-copy path from capture arena to parser.
    pub fn feed_chunk(&mut self, session: &mut Session, chunk: FeedChunk<'_>) -> RtResult<()> {
        if session.failed {
            return Ok(()); // abandoned stream: ignore further data
        }
        if let Err(e) = session.data.append_chunk(chunk) {
            // Heap budget exceeded (or frozen): the stream stops
            // accumulating state, and the caller decides whether to tear
            // the whole flow down.
            session.failed = true;
            return Err(e);
        }
        self.pump(session)
    }

    /// Declares end of stream: freezes the input and lets the parser
    /// consume the remainder.
    pub fn finish(&mut self, session: &mut Session) -> RtResult<()> {
        if session.failed {
            return Ok(());
        }
        session.data.freeze();
        self.pump(session)
    }

    fn pump(&mut self, session: &mut Session) -> RtResult<()> {
        if matches!(session.fiber.state(), FiberState::Done | FiberState::Failed) {
            return Ok(());
        }
        match self.program.resume(&mut session.fiber) {
            Ok(Step::Finished(_)) | Ok(Step::Suspended) => Ok(()),
            Err(e) => {
                // Uncaught errors abandon the session; the drive loop
                // already swallows parse errors, so anything surfacing here
                // is unexpected and reported.
                session.failed = true;
                Err(e)
            }
        }
    }

    /// Takes accumulated program output (debug prints).
    pub fn take_output(&mut self) -> Vec<String> {
        self.program.take_output()
    }

    /// Reads a named field out of a unit struct value, using the program's
    /// type tables.
    pub fn field(&self, value: &Value, name: &str) -> RtResult<Value> {
        let Value::Struct(s) = value else {
            return Err(RtError::type_error(format!(
                "expected unit struct, got {}",
                value.type_name()
            )));
        };
        let s = s.borrow();
        let idx = self
            .program
            .compiled()
            .struct_layouts
            .get(&*s.type_name)
            .ok_or_else(|| RtError::type_error(format!("unknown unit type {}", s.type_name)))?
            .index_of(name)
            .ok_or_else(|| RtError::index(format!("unit {} has no field {name}", s.type_name)))?;
        Ok(s.fields[idx].clone())
    }
}

/// Positional slot access on a unit struct, for hooks that know the
/// grammar's fixed layout.
pub(crate) fn slot(value: &Value, idx: usize) -> RtResult<Value> {
    let Value::Struct(s) = value else {
        return Err(RtError::type_error(format!(
            "expected unit struct, got {}",
            value.type_name()
        )));
    };
    let s = s.borrow();
    s.fields
        .get(idx)
        .cloned()
        .ok_or_else(|| RtError::index(format!("unit {} has no slot {idx}", s.type_name)))
}

/// A unit slot by position, rendered as text (bytes → lossy UTF-8).
pub fn field_text_from(value: &Value, idx: usize) -> RtResult<String> {
    Ok(slot(value, idx)?.render())
}

/// One in-flight stream parse.
pub struct Session {
    data: Bytes,
    fiber: Fiber,
    failed: bool,
}

impl Session {
    /// True once the drive loop returned (stream fully handled).
    pub fn done(&self) -> bool {
        self.fiber.state() == FiberState::Done
    }

    /// True if the session died on an unexpected error.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The underlying input buffer (for inspection).
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Attaches a heap budget to the session's input buffer. Further
    /// appends charge the budget and fail with
    /// `Hilti::ResourceExhausted` once it is exceeded, which surfaces
    /// through [`BinpacParser::feed`].
    pub fn set_budget(&self, budget: AllocBudget) {
        self.data.set_budget(budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{ssh_banner_grammar, Field, FieldKind, Grammar, Repeat, Unit};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn figure7_ssh_banner_datagram() {
        let mut p = BinpacParser::compile(&ssh_banner_grammar(), &[], OptLevel::Full).unwrap();
        let v = p
            .parse_datagram("Banner", b"SSH-1.99-OpenSSH_3.9p1\r\n")
            .unwrap();
        assert_eq!(p.field(&v, "version").unwrap().render(), "1.99");
        assert_eq!(p.field(&v, "software").unwrap().render(), "OpenSSH_3.9p1");
    }

    #[test]
    fn figure7_event_hook_fires() {
        // The .evt layer: on SSH::Banner -> event ssh_banner(version, software).
        let mut g = ssh_banner_grammar();
        g.units[0].done_hook = Some("ssh_banner".into());
        let mut p = BinpacParser::compile(&g, &[], OptLevel::Full).unwrap();
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        p.register_hook("ssh_banner", move |args| {
            sink.borrow_mut().push(args[0].render());
            Ok(Value::Null)
        });
        p.parse_datagram("Banner", b"SSH-2.0-OpenSSH_3.8.1p1\r\n")
            .unwrap();
        assert_eq!(seen.borrow().len(), 1);
        assert!(seen.borrow()[0].contains("OpenSSH_3.8.1p1"));
    }

    fn length_value_grammar() -> Grammar {
        // A tiny TLV protocol: 2-byte big-endian length, then that many
        // bytes of value.
        Grammar::new("TLV").unit(
            Unit::new("Record")
                .field(Field::named("len", FieldKind::UInt(2)))
                .field(Field::named("value", FieldKind::BytesVar("len".into()))),
        )
    }

    #[test]
    fn binary_length_value() {
        let mut p = BinpacParser::compile(&length_value_grammar(), &[], OptLevel::Full).unwrap();
        let v = p.parse_datagram("Record", b"\x00\x05hello").unwrap();
        assert_eq!(p.field(&v, "len").unwrap().render(), "5");
        assert_eq!(p.field(&v, "value").unwrap().render(), "hello");
    }

    #[test]
    fn incremental_stream_suspends_and_resumes() {
        // The paper's core property: drip-feed a session byte by byte; the
        // parser suspends mid-token/mid-length and resumes transparently.
        let records: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let mut g = length_value_grammar();
        g.units[0].done_hook = Some("on_record".into());
        let mut p = BinpacParser::compile(&g, &["Record"], OptLevel::Full).unwrap();
        let sink = records.clone();
        let prog_fields = Rc::new(RefCell::new(Vec::<String>::new()));
        let _ = prog_fields;
        p.register_hook("on_record", move |args| {
            // args[0] is the Record struct; render captures both fields.
            sink.borrow_mut().push(args[0].render());
            Ok(Value::Null)
        });
        let mut s = p.session("Record");
        let wire = b"\x00\x03abc\x00\x02xy";
        for b in wire {
            p.feed(&mut s, &[*b]).unwrap();
        }
        assert_eq!(records.borrow().len(), 2, "{:?}", records.borrow());
        assert!(records.borrow()[0].contains("abc"));
        assert!(records.borrow()[1].contains("xy"));
        assert!(!s.done());
        p.finish(&mut s).unwrap();
        assert!(s.done());
    }

    #[test]
    fn stream_abandons_on_garbage() {
        let mut g = ssh_banner_grammar();
        g.units[0].done_hook = Some("on_banner".into());
        let mut p = BinpacParser::compile(&g, &["Banner"], OptLevel::Full).unwrap();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        p.register_hook("on_banner", move |_| {
            *c.borrow_mut() += 1;
            Ok(Value::Null)
        });
        let mut s = p.session("Banner");
        p.feed(&mut s, b"NOT-SSH garbage here\r\n").unwrap();
        p.finish(&mut s).unwrap();
        assert!(s.done());
        assert_eq!(*count.borrow(), 0);
    }

    #[test]
    fn counted_list() {
        let g = Grammar::new("L")
            .unit(Unit::new("Item").field(Field::named("v", FieldKind::UInt(1))))
            .unit(
                Unit::new("Packet")
                    .field(Field::named("n", FieldKind::UInt(1)))
                    .field(Field::named(
                        "items",
                        FieldKind::List("Item".into(), Repeat::CountVar("n".into())),
                    )),
            );
        let mut p = BinpacParser::compile(&g, &[], OptLevel::Full).unwrap();
        let v = p.parse_datagram("Packet", &[3, 10, 20, 30]).unwrap();
        let items = p.field(&v, "items").unwrap();
        if let Value::Vector(vec) = items {
            assert_eq!(vec.borrow().len(), 3);
        } else {
            panic!("expected vector, got {items:?}");
        }
    }

    #[test]
    fn truncated_datagram_errors() {
        let mut p = BinpacParser::compile(&length_value_grammar(), &[], OptLevel::Full).unwrap();
        // Claims 5 bytes, provides 2 — frozen input, so a hard error
        // rather than a suspension.
        assert!(p.parse_datagram("Record", b"\x00\x05he").is_err());
    }

    #[test]
    fn switch_on_kind() {
        let g = Grammar::new("S").unit(
            Unit::new("Msg")
                .field(Field::named("kind", FieldKind::UInt(1)))
                .field(Field::named(
                    "body",
                    FieldKind::SwitchInt {
                        on: "kind".into(),
                        cases: vec![
                            (1, Box::new(Field::named("body", FieldKind::UInt(2)))),
                            (2, Box::new(Field::named("body", FieldKind::BytesConst(3)))),
                        ],
                        default: Some(Box::new(Field::named("body", FieldKind::Eod))),
                    },
                )),
        );
        let mut p = BinpacParser::compile(&g, &[], OptLevel::Full).unwrap();
        let v = p.parse_datagram("Msg", &[1, 0x12, 0x34]).unwrap();
        assert_eq!(p.field(&v, "body").unwrap().render(), "4660");
        let v = p.parse_datagram("Msg", b"\x02abcrest").unwrap();
        assert_eq!(p.field(&v, "body").unwrap().render(), "abc");
        let v = p.parse_datagram("Msg", b"\x09tail").unwrap();
        assert_eq!(p.field(&v, "body").unwrap().render(), "tail");
    }

    #[test]
    fn many_interleaved_sessions() {
        let mut g = length_value_grammar();
        g.units[0].done_hook = Some("on_rec".into());
        let mut p = BinpacParser::compile(&g, &["Record"], OptLevel::Full).unwrap();
        let total = Rc::new(RefCell::new(0u32));
        let t = total.clone();
        p.register_hook("on_rec", move |_| {
            *t.borrow_mut() += 1;
            Ok(Value::Null)
        });
        let n = 20;
        let mut sessions: Vec<Session> = (0..n).map(|_| p.session("Record")).collect();
        // Interleave feeding: each session gets its bytes one at a time,
        // round-robin.
        let wire = b"\x00\x04wxyz";
        for &b in wire.iter() {
            for s in sessions.iter_mut() {
                p.feed(s, &[b]).unwrap();
            }
        }
        assert_eq!(*total.borrow(), n);
        for mut s in sessions {
            p.finish(&mut s).unwrap();
            assert!(s.done());
        }
    }
}

#[cfg(test)]
mod field_hook_tests {
    use super::*;
    use crate::grammar::{Field, FieldKind, Grammar, Unit};
    use hilti::passes::OptLevel;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn field_hooks_fire_as_fields_finish() {
        // §4: "When the parser finishes with a field, it executes any
        // callbacks (hooks) that the host application specifies for that
        // field." Hook order must follow parse order.
        let g = Grammar::new("T").unit(
            Unit::new("Line")
                .field(Field::token("method", "[A-Z]+").with_hook("on_method"))
                .field(Field::anon(FieldKind::Token(vec![" ".into()])))
                .field(Field::token("uri", "[^ \\r\\n]+").with_hook("on_uri"))
                .field(Field::anon(FieldKind::Token(vec!["\\r?\\n".into()]))),
        );
        let mut p = BinpacParser::compile(&g, &[], OptLevel::Full).unwrap();
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        for hook in ["on_method", "on_uri"] {
            let s = seen.clone();
            let name = hook.to_owned();
            p.register_hook(hook, move |args| {
                // args = (unit struct, field value).
                s.borrow_mut().push(format!("{name}={}", args[1].render()));
                Ok(Value::Null)
            });
        }
        p.parse_datagram("Line", b"GET /index.html\r\n").unwrap();
        assert_eq!(*seen.borrow(), vec!["on_method=GET", "on_uri=/index.html"]);
    }

    #[test]
    fn field_hook_sees_partial_unit_state() {
        // At field-hook time, earlier fields are already set on the unit
        // struct; later ones are not.
        let g = Grammar::new("T").unit(
            Unit::new("Pair")
                .field(Field::named("a", FieldKind::UInt(1)))
                .field(Field::named("b", FieldKind::UInt(1)).with_hook("on_b")),
        );
        let mut p = BinpacParser::compile(&g, &[], OptLevel::Full).unwrap();
        let captured: Rc<RefCell<Vec<(String, String)>>> = Rc::new(RefCell::new(Vec::new()));
        let c = captured.clone();
        p.register_hook("on_b", move |args| {
            let a = field_text_from(args[0], 0)?;
            let bval = args[1].render();
            c.borrow_mut().push((a, bval));
            Ok(Value::Null)
        });
        p.parse_datagram("Pair", &[7, 9]).unwrap();
        assert_eq!(*captured.borrow(), vec![("7".to_string(), "9".to_string())]);
    }

    #[test]
    fn field_hooks_in_stream_sessions_fire_incrementally() {
        let g = Grammar::new("T").unit(
            Unit::new("Rec")
                .field(Field::named("len", FieldKind::UInt(1)).with_hook("on_len"))
                .field(
                    Field::named("body", FieldKind::BytesVar("len".into())).with_hook("on_body"),
                ),
        );
        let mut p = BinpacParser::compile(&g, &["Rec"], OptLevel::Full).unwrap();
        let order: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        for hook in ["on_len", "on_body"] {
            let o = order.clone();
            let n = hook.to_owned();
            p.register_hook(hook, move |_| {
                o.borrow_mut().push(n.clone());
                Ok(Value::Null)
            });
        }
        let mut s = p.session("Rec");
        p.feed(&mut s, &[3]).unwrap();
        // Length hook already fired, before the body even exists.
        assert_eq!(*order.borrow(), vec!["on_len"]);
        p.feed(&mut s, b"ab").unwrap();
        assert_eq!(*order.borrow(), vec!["on_len"]);
        p.feed(&mut s, b"c").unwrap();
        assert_eq!(*order.borrow(), vec!["on_len", "on_body"]);
    }
}

#[cfg(test)]
mod memory_bound_tests {
    use super::*;
    use crate::grammar::{Field, FieldKind, Grammar, Unit};
    use hilti::passes::OptLevel;

    #[test]
    fn stream_sessions_trim_consumed_input() {
        // The drive loop trims parsed data, bounding memory on long-lived
        // connections (§3.2's incremental model is only useful if state
        // stays proportional to the *unparsed* remainder).
        let g = Grammar::new("T").unit(
            Unit::new("Rec")
                .field(Field::named("len", FieldKind::UInt(1)))
                .field(Field::named("body", FieldKind::BytesVar("len".into()))),
        );
        let mut p = BinpacParser::compile(&g, &["Rec"], OptLevel::Full).unwrap();
        let mut s = p.session("Rec");
        // Feed 500 records of 21 bytes each (~10.5 KB total).
        for i in 0..500u32 {
            let mut rec = vec![20u8];
            rec.extend_from_slice(&[(i % 251) as u8; 20]);
            p.feed(&mut s, &rec).unwrap();
        }
        // Retained buffer must be tiny — only the unparsed tail.
        assert!(
            s.data().len() < 64,
            "retained {} bytes; trim is not working",
            s.data().len()
        );
        // Logical offsets keep growing even though memory is released.
        assert_eq!(s.data().end_offset(), 500 * 21);
        p.finish(&mut s).unwrap();
        assert!(s.done());
    }
}
