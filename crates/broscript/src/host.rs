//! The event-dispatch layer (Bro's event engine) and the builtin library.
//!
//! [`ScriptHost`] owns one script running on one engine — the tree-walking
//! interpreter or the HILTI compiled program — and feeds it
//! [`netpkt::events::Event`]s. For the compiled engine, the conversion of
//! host event values into HILTI values is the "HILTI-to-Bro glue" that §6
//! measures separately: with a flight recorder attached it is recorded as
//! a [`Stage::Glue`] span, nested in the pipeline's `Script` span and
//! charged to glue only.
//!
//! The builtin functions ([`BUILTINS`]) are shared verbatim by both engines
//! — one function per builtin, looked up by name by the interpreter and
//! registered as the host function (`call.c`) of that name for the compiled
//! program — so outputs are comparable byte for byte.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hilti::value::Value;
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::sha1::Sha1;
use hilti_rt::text::{self, StrBuf};
use hilti_rt::time::Time;
use hilti_rt::trace::{self, SharedRecorder, Stage};

use netpkt::events::{dns_rcodes, dns_types, Event};

use crate::ast::{STy, Script};
use crate::compile::compile_script;
use crate::interp::Interp;
use crate::parse::parse_script;

/// Shared script-runtime state: network time and log streams. One instance
/// backs both engines so behaviour is identical.
#[derive(Default)]
pub struct BroRt {
    pub net_time: Time,
    pub logs: HashMap<String, LogFile>,
}

impl BroRt {
    pub fn advance(&mut self, t: Time) {
        if t > self.net_time {
            self.net_time = t;
        }
    }

    /// The named log stream, opened on first use.
    pub fn log(&mut self, name: &str) -> LogFile {
        if let Some(log) = self.logs.get(name) {
            return log.clone();
        }
        let log = LogFile::in_memory(name);
        self.logs.insert(name.to_owned(), log.clone());
        log
    }

    pub fn log_lines(&self, name: &str) -> Vec<String> {
        self.logs.get(name).map(|l| l.lines()).unwrap_or_default()
    }
}

/// A builtin function: borrowed arguments plus the shared script runtime.
pub type Builtin = fn(&[&Value], &RefCell<BroRt>) -> RtResult<Value>;

/// Every builtin: name, result type (for the compiler's type table) and
/// implementation.
pub const BUILTINS: &[(&str, STy, Builtin)] = &[
    ("cat", STy::Str, cat),
    ("sha1", STy::Str, sha1),
    ("mime_type", STy::Str, mime_type),
    ("qtype_name", STy::Str, qtype_name),
    ("rcode_name", STy::Str, rcode_name),
    ("join", STy::Str, join),
    ("to_lower", STy::Str, to_lower),
    ("starts_with", STy::Bool, starts_with),
    ("sub_str", STy::Str, sub_str),
    ("to_count", STy::Count, to_count),
    ("network_time", STy::Time, network_time),
    ("log_write", STy::Void, log_write),
];

/// Invokes a builtin by name; `None` if the name is not a builtin.
pub fn call_builtin(name: &str, args: &[&Value], rt: &RefCell<BroRt>) -> Option<RtResult<Value>> {
    let (_, _, builtin) = BUILTINS.iter().find(|(n, _, _)| *n == name)?;
    Some(builtin(args, rt))
}

/// The text of an argument: a string as it is, anything else rendered;
/// empty for a missing argument.
fn text<'a>(args: &[&'a Value], i: usize) -> Cow<'a, str> {
    match args.get(i) {
        Some(Value::String(s)) => Cow::Borrowed(s),
        Some(other) => Cow::Owned(other.render()),
        None => Cow::Borrowed(""),
    }
}

fn first<'a>(args: &[&'a Value], builtin: &str) -> RtResult<&'a Value> {
    args.first()
        .copied()
        .ok_or_else(|| RtError::type_error(format!("{builtin} needs one argument")))
}

// A builtin's string result is built with one allocation, through
// `hilti_rt::text` as the VM's string instructions build theirs.

fn cat(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    let mut out = StrBuf::with_capacity(Value::joined_len(args, ""));
    for v in args {
        v.render_into(&mut out);
    }
    Ok(Value::String(out.finish()))
}

fn sha1(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    first(args, "sha1")?;
    let mut h = Sha1::new();
    h.update(text(args, 0).as_bytes());
    let mut out = StrBuf::new();
    h.write_hex(&mut out);
    Ok(Value::String(out.finish()))
}

/// (body_prefix, declared_content_type) — "-" means undeclared.
fn mime_type(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    let declared = text(args, 1);
    let declared = (!declared.is_empty() && declared != "-").then_some(&*declared);
    let sniffed = netpkt::http::sniff_mime(text(args, 0).as_bytes(), declared);
    Ok(Value::str(sniffed.unwrap_or("-")))
}

fn qtype_name(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    let t = first(args, "qtype_name")?.as_int()?;
    Ok(Value::str(&dns_types::name(t as u16)))
}

fn rcode_name(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    let r = first(args, "rcode_name")?.as_int()?;
    Ok(Value::str(&dns_rcodes::name(r as u16)))
}

fn join(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    match args.first() {
        Some(Value::Vector(v)) => {
            let sep = text(args, 1);
            let mut out = StrBuf::new();
            for (i, item) in v.borrow().iter().enumerate() {
                if i > 0 {
                    out.push_str(&sep);
                }
                item.render_into(&mut out);
            }
            Ok(Value::String(out.finish()))
        }
        other => Err(RtError::type_error(format!(
            "join needs a vector, got {other:?}"
        ))),
    }
}

fn to_lower(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    let v = first(args, "to_lower")?;
    Ok(Value::String(match v {
        // The common case — an ASCII header name or host — needs at most
        // one copy, and none when it is lower case already.
        Value::String(s) if s.is_ascii() => {
            let mut lowered = Rc::clone(s);
            if s.bytes().any(|b| b.is_ascii_uppercase()) {
                lowered = Rc::from(&**s);
                Rc::get_mut(&mut lowered)
                    .expect("just allocated")
                    .make_ascii_lowercase();
            }
            lowered
        }
        other => text::to_lower(&text(&[other], 0)),
    }))
}

fn starts_with(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    Ok(Value::Bool(text(args, 0).starts_with(&*text(args, 1))))
}

fn sub_str(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    let index = |i: usize| {
        args.get(i)
            .and_then(|v| v.as_int().ok())
            .unwrap_or(0)
            .max(0) as usize
    };
    let whole = text(args, 0);
    Ok(Value::str(text::substr(&whole, index(1), index(2))))
}

fn to_count(args: &[&Value], _rt: &RefCell<BroRt>) -> RtResult<Value> {
    Ok(Value::Int(text(args, 0).trim().parse().unwrap_or(0)))
}

fn network_time(_args: &[&Value], rt: &RefCell<BroRt>) -> RtResult<Value> {
    Ok(Value::Time(rt.borrow().net_time))
}

fn log_write(args: &[&Value], rt: &RefCell<BroRt>) -> RtResult<Value> {
    let log = rt.borrow_mut().log(&text(args, 0));
    log.write_line(&text(args, 1)).map(|_| Value::Null)
}

/// Which engine executes the script.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Tree-walking AST interpreter (Bro's standard interpreter role).
    Interpreted,
    /// Compiled to HILTI, executed on the bytecode VM.
    Compiled,
}

/// The `Send` front-end half of a [`ScriptHost`] build: the merged script
/// AST plus (for the compiled engine) optimized HILTI IR. Produced once
/// by [`ScriptHost::blueprint`], consumed per worker thread by
/// [`ScriptHost::from_blueprint`].
#[derive(Clone)]
pub struct HostBlueprint {
    script: Script,
    engine: Engine,
    ir: Option<hilti::host::ProgramIr>,
}

/// One script running on one engine, fed by the event dispatcher.
pub struct ScriptHost {
    engine: Engine,
    script: Rc<Script>,
    interp: Option<Interp>,
    compiled: Option<CompiledScript>,
    rt: Rc<RefCell<BroRt>>,
    /// Flight recorder for glue spans, labelled with its current delivery.
    rec: Option<SharedRecorder>,
}

/// The compiled engine's program, with the entry points every event goes
/// through resolved when the program is lowered rather than per dispatch.
struct CompiledScript {
    program: hilti::Program,
    set_time: hilti::vm::FuncId,
    /// Event name → its `Bro::event_<name>` hook, for the events the
    /// script handles.
    events: HashMap<String, hilti::vm::HookId>,
}

impl HostBlueprint {
    /// The front end over an already-merged script: builtin-record
    /// injection and — for the compiled engine — Bro-to-HILTI compilation
    /// plus the HILTI IR front end (link/check/optimize).
    fn of(script: Script, engine: Engine) -> RtResult<HostBlueprint> {
        let script = script.with_builtin_records();
        let ir = match engine {
            Engine::Interpreted => None,
            Engine::Compiled => {
                let src = compile_script(&script)?;
                Some(hilti::Program::front_end(
                    &[&src],
                    hilti::passes::OptLevel::Full,
                    hilti::host::BuildOptions::default(),
                )?)
            }
        };
        Ok(HostBlueprint { script, engine, ir })
    }

    /// The per-thread half of every host build, consuming the blueprint
    /// (so a single-host build never clones the IR): the compiled engine
    /// lowers the optimized IR to bytecode, registers the builtin library
    /// as host functions and runs `Bro::init_globals`; the interpreter
    /// just instantiates over the AST.
    pub(crate) fn into_host(self, rec: Option<SharedRecorder>) -> RtResult<ScriptHost> {
        let script = Rc::new(self.script);
        let rt: Rc<RefCell<BroRt>> = Rc::new(RefCell::new(BroRt::default()));
        let (interp, compiled) = match self.ir {
            None => (Some(Interp::new(script.clone(), rt.clone())?), None),
            Some(ir) => {
                let mut program = hilti::Program::from_ir(ir)?;
                for &(name, _, builtin) in BUILTINS {
                    let rt = rt.clone();
                    program.register_host_fn(name, move |args| builtin(args, &rt));
                }
                program.run_void("Bro::init_globals", &[])?;
                let set_time = program.func_id("Bro::set_time")?;
                let events = program
                    .compiled()
                    .hook_index
                    .keys()
                    .filter_map(|hook| {
                        let event = hook.strip_prefix("Bro::event_")?;
                        Some((event.to_owned(), program.hook_id(hook)?))
                    })
                    .collect();
                let compiled = CompiledScript {
                    program,
                    set_time,
                    events,
                };
                (None, Some(compiled))
            }
        };
        Ok(ScriptHost {
            engine: self.engine,
            script,
            interp,
            compiled,
            rt,
            rec,
        })
    }
}

impl ScriptHost {
    /// Parses and loads `sources` (merged, like loading several .bro files)
    /// onto the chosen engine. With a recorder, the compiled engine's event
    /// conversion is recorded as `Glue` spans.
    pub fn new(sources: &[&str], engine: Engine, rec: Option<SharedRecorder>) -> RtResult<Self> {
        Self::blueprint(sources, engine, None)?.into_host(rec)
    }

    pub fn from_script(
        script: Script,
        engine: Engine,
        rec: Option<SharedRecorder>,
    ) -> RtResult<Self> {
        HostBlueprint::of(script, engine)?.into_host(rec)
    }

    /// Runs the shareable front end of a host build **once**: script
    /// parsing, builtin-record injection and — for the compiled engine —
    /// Bro-to-HILTI compilation plus the HILTI IR front end
    /// (link/check/optimize). The blueprint is `Clone + Send`, so a
    /// parallel dispatcher builds it on one thread and every shard
    /// materializes a private host from it with
    /// [`ScriptHost::from_blueprint`], paying only bytecode lowering and
    /// globals init instead of a full compile.
    ///
    /// The third parameter is vestigial (it selected a tiering mode) and
    /// can only be `None`; it stays until `benchmark/src/staged.rs`, which
    /// passes it, may change.
    pub fn blueprint(
        sources: &[&str],
        engine: Engine,
        _vestigial: Option<std::convert::Infallible>,
    ) -> RtResult<HostBlueprint> {
        let mut script = Script::default();
        for s in sources {
            script = script.merge(parse_script(s)?);
        }
        HostBlueprint::of(script, engine)
    }

    /// Per-thread construction from a shared [`HostBlueprint`] (cloned, so
    /// the blueprint stays available to other threads and to respawns).
    pub fn from_blueprint(bp: &HostBlueprint, rec: Option<SharedRecorder>) -> RtResult<Self> {
        bp.clone().into_host(rec)
    }

    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The compiled engine's HILTI program; `None` on the interpreter.
    pub fn program(&self) -> Option<&hilti::Program> {
        self.compiled.as_ref().map(|c| &c.program)
    }

    fn program_mut(&mut self) -> &mut hilti::Program {
        &mut self.compiled.as_mut().expect("engine").program
    }

    /// Applies resource limits (fuel, heap, call depth) to whichever
    /// engine runs the script. Re-applying resets the meters, so callers
    /// can use this as a per-dispatch budget.
    pub fn set_limits(&mut self, limits: hilti_rt::limits::ResourceLimits) {
        match self.engine {
            Engine::Interpreted => self.interp.as_mut().expect("engine").set_limits(limits),
            Engine::Compiled => self.program_mut().set_limits(limits),
        }
    }

    /// Attaches a telemetry bundle to the script engine. The compiled
    /// engine reports retired instructions per dispatch and emits
    /// resource-limit events to the sink; the reference interpreter has no
    /// instruction counter and only the pipeline-level metrics apply.
    pub fn set_telemetry(&mut self, telemetry: &hilti_rt::telemetry::Telemetry) {
        if self.engine == Engine::Compiled {
            self.program_mut().context_mut().set_telemetry(telemetry);
        }
    }

    /// Advances script network time (drives container expiration).
    ///
    /// Network time only moves forward and expiry is a function of it, so
    /// an event at the time already reached — every event of a packet after
    /// its first — has nothing to advance and does not enter the engine.
    pub fn advance_time(&mut self, t: Time) -> RtResult<()> {
        if t <= self.rt.borrow().net_time {
            return Ok(());
        }
        match self.engine {
            Engine::Interpreted => {
                self.interp.as_mut().expect("engine").advance_time(t);
                Ok(())
            }
            Engine::Compiled => {
                self.rt.borrow_mut().advance(t);
                let c = self.compiled.as_mut().expect("engine");
                c.program.run_id(c.set_time, &[Value::Time(t)]).map(|_| ())
            }
        }
    }

    /// Whether the script has a handler for `event`.
    fn handles(&self, event: &str) -> bool {
        match &self.compiled {
            Some(c) => c.events.contains_key(event),
            None => self.script.handlers.iter().any(|h| h.event == event),
        }
    }

    /// Dispatches one protocol event to the script's handlers.
    pub fn dispatch_event(&mut self, ev: &Event) -> RtResult<()> {
        self.advance_time(ev.ts())?;
        // An event nobody handles costs no argument conversion.
        if !self.handles(ev.name()) {
            return Ok(());
        }
        // Conversion of host event data into script values: free-standing
        // for the interpreter, but the measured *glue* for HILTI.
        let rec = self
            .rec
            .as_ref()
            .filter(|_| self.engine == Engine::Compiled);
        let args = trace::span(rec, Stage::Glue, || {
            // Figure 8 compatibility: if the script declares
            // `event connection_established(c: connection)`, hand it the
            // record form instead of the flat argument list.
            match ev {
                Event::ConnectionEstablished { uid, id, .. }
                    if self
                        .script
                        .handlers_for("connection_established")
                        .first()
                        .is_some_and(|h| h.params.len() == 1) =>
                {
                    vec![connection_value(uid, id)]
                }
                _ => event_args(ev),
            }
        });
        self.dispatch(ev.name(), &args)
    }

    /// Dispatches a raw event by name.
    pub fn dispatch(&mut self, event: &str, args: &[Value]) -> RtResult<()> {
        match self.engine {
            Engine::Interpreted => self.interp.as_mut().expect("engine").dispatch(event, args),
            Engine::Compiled => {
                let c = self.compiled.as_mut().expect("engine");
                match c.events.get(event) {
                    Some(&hook) => c.program.run_hook_id(hook, args),
                    None => Ok(()), // the script has no handler for it
                }
            }
        }
    }

    /// Signals end of input (`bro_done`).
    pub fn done(&mut self) -> RtResult<()> {
        self.dispatch("bro_done", &[])
    }

    /// Runs the script's `connection_state_remove(uid)` handler, if it has
    /// one: the connection ended — closed, or expired idle — and whatever
    /// the script keeps under its uid may go.
    ///
    /// Unlike [`dispatch_event`](Self::dispatch_event) this leaves network
    /// time alone. A removal comes with a packet that usually carries no
    /// event (a bare FIN, or whichever packet expired the flow), and
    /// network time is the time of the last event: moving it here would
    /// restamp every later log line wherever trace time steps backwards.
    pub fn remove_connection(&mut self, uid: &str) -> RtResult<()> {
        const REMOVE: &str = "connection_state_remove";
        if !self.handles(REMOVE) {
            return Ok(());
        }
        self.dispatch(REMOVE, &[Value::str(uid)])
    }

    /// Entries held in the script's global tables and sets.
    pub fn global_entries(&self) -> u64 {
        let entries = |v: &Value| match v {
            Value::Map(m) => m.borrow().len() as u64,
            Value::Set(s) => s.borrow().len() as u64,
            _ => 0,
        };
        match &self.compiled {
            Some(c) => c.program.context().globals.iter().map(entries).sum(),
            None => self
                .interp
                .as_ref()
                .expect("engine")
                .globals()
                .map(entries)
                .sum(),
        }
    }

    /// Calls a script function (used by the Fibonacci benchmark).
    pub fn call(&mut self, func: &str, args: &[Value]) -> RtResult<Value> {
        match self.engine {
            Engine::Interpreted => self.interp.as_mut().expect("engine").call(func, args),
            Engine::Compiled => self.program_mut().run(&format!("Bro::{func}"), args),
        }
    }

    /// Takes accumulated `print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        match self.engine {
            Engine::Interpreted => std::mem::take(&mut self.interp.as_mut().expect("engine").out),
            Engine::Compiled => self.program_mut().take_output(),
        }
    }

    /// Lines of a named log stream.
    pub fn log_lines(&self, name: &str) -> Vec<String> {
        self.rt.borrow().log_lines(name)
    }

    /// Number of lines written to a named log stream so far.
    pub fn log_len(&self, name: &str) -> usize {
        self.rt.borrow().logs.get(name).map_or(0, |l| l.len())
    }

    /// Lines of a named log stream from index `start` on. Incremental
    /// readers (the sharded pipeline attributing lines to packets) pair
    /// this with [`ScriptHost::log_len`].
    pub fn log_lines_from(&self, name: &str, start: usize) -> Vec<String> {
        self.rt
            .borrow()
            .logs
            .get(name)
            .map(|l| l.lines_from(start))
            .unwrap_or_default()
    }
}

/// Builds the Bro `connection` record value (nested `conn_id`) for
/// record-style handlers — Figure 8's `c: connection` parameter.
pub fn connection_value(uid: &str, id: &netpkt::events::ConnId) -> Value {
    use hilti::value::StructVal;
    let conn_id = Value::Struct(Rc::new(RefCell::new(StructVal {
        type_name: Rc::from("conn_id"),
        fields: vec![
            Value::Addr(id.orig_h),
            Value::Port(id.orig_p),
            Value::Addr(id.resp_h),
            Value::Port(id.resp_p),
        ],
    })));
    Value::Struct(Rc::new(RefCell::new(StructVal {
        type_name: Rc::from("connection"),
        fields: vec![Value::str(uid), conn_id],
    })))
}

/// Converts a host event into its script argument values — the canonical
/// signature scripts write `event <Event::name>` handlers against.
pub fn event_args(ev: &Event) -> Vec<Value> {
    match ev {
        Event::ConnectionEstablished { uid, id, .. } => vec![
            Value::str(uid),
            Value::Addr(id.orig_h),
            Value::Port(id.orig_p),
            Value::Addr(id.resp_h),
            Value::Port(id.resp_p),
        ],
        Event::HttpRequest {
            uid,
            id,
            method,
            uri,
            version,
            ..
        } => vec![
            Value::str(uid),
            Value::Addr(id.orig_h),
            Value::Addr(id.resp_h),
            Value::str(method),
            Value::str(uri),
            Value::str(version),
        ],
        Event::HttpReply {
            uid,
            id,
            status,
            reason,
            version,
            ..
        } => vec![
            Value::str(uid),
            Value::Addr(id.orig_h),
            Value::Addr(id.resp_h),
            Value::Int(i64::from(*status)),
            Value::str(reason),
            Value::str(version),
        ],
        Event::HttpHeader {
            uid,
            is_orig,
            name,
            value,
            ..
        } => vec![
            Value::str(uid),
            Value::Bool(*is_orig),
            Value::str(name),
            Value::str(value),
        ],
        Event::HttpBodyData {
            uid, is_orig, data, ..
        } => vec![
            Value::str(uid),
            Value::Bool(*is_orig),
            // Byte-to-char (latin-1 style) mapping: bijective, so the
            // script-level body is independent of how the parser
            // chunked it (the standard stack delivers per-packet
            // chunks, BinPAC++ one blob; hashes must still agree).
            Value::str(&data.iter().map(|&b| b as char).collect::<String>()),
        ],
        Event::HttpMessageDone {
            uid,
            is_orig,
            body_len,
            ..
        } => vec![
            Value::str(uid),
            Value::Bool(*is_orig),
            Value::Int(*body_len as i64),
        ],
        Event::DnsRequest {
            uid,
            id,
            trans_id,
            query,
            qtype,
            ..
        } => vec![
            Value::str(uid),
            Value::Addr(id.orig_h),
            Value::Addr(id.resp_h),
            Value::Int(i64::from(*trans_id)),
            Value::str(query),
            Value::Int(i64::from(*qtype)),
        ],
        Event::DnsReply {
            uid,
            id,
            trans_id,
            rcode,
            answers,
            ..
        } => {
            let rdata: Vec<Value> = answers.iter().map(|a| Value::str(&a.rdata)).collect();
            let ttls: Vec<Value> = answers
                .iter()
                .map(|a| Value::Int(i64::from(a.ttl)))
                .collect();
            vec![
                Value::str(uid),
                Value::Addr(id.orig_h),
                Value::Addr(id.resp_h),
                Value::Int(i64::from(*trans_id)),
                Value::Int(i64::from(*rcode)),
                Value::Vector(Rc::new(RefCell::new(rdata))),
                Value::Vector(Rc::new(RefCell::new(ttls))),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_shared_semantics() {
        let rt = RefCell::new(BroRt::default());
        let v = call_builtin("cat", &[&Value::str("a"), &Value::Int(1)], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "a1");
        let v = call_builtin("sha1", &[&Value::str("abc")], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "a9993e364706816aba3e25717850c26c9cd0d89d");
        let v = call_builtin("qtype_name", &[&Value::Int(1)], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "A");
        let v = call_builtin("to_count", &[&Value::str("42")], &rt)
            .unwrap()
            .unwrap();
        assert!(v.equals(&Value::Int(42)));
        assert!(call_builtin("not_a_builtin", &[], &rt).is_none());
    }

    #[test]
    fn log_write_accumulates() {
        let rt = RefCell::new(BroRt::default());
        call_builtin(
            "log_write",
            &[&Value::str("x.log"), &Value::str("line1")],
            &rt,
        )
        .unwrap()
        .unwrap();
        assert_eq!(rt.borrow().log_lines("x.log"), vec!["line1"]);
    }

    #[test]
    fn mime_builtin_magic_and_fallback() {
        let rt = RefCell::new(BroRt::default());
        let v = call_builtin(
            "mime_type",
            &[&Value::str("GIF89a..."), &Value::str("-")],
            &rt,
        )
        .unwrap()
        .unwrap();
        assert_eq!(v.render(), "image/gif");
        let v = call_builtin(
            "mime_type",
            &[&Value::str("opaque"), &Value::str("text/css")],
            &rt,
        )
        .unwrap()
        .unwrap();
        assert_eq!(v.render(), "text/css");
        let v = call_builtin("mime_type", &[&Value::str("opaque"), &Value::str("-")], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "-");
    }

    /// The engine counters cover script execution: one dispatch moves
    /// `engine.instructions_retired` by exactly the fuel the handler (and
    /// nothing else) spent, and an event without a handler runs nothing.
    #[test]
    fn dispatch_credits_the_handler_to_engine_telemetry() {
        use hilti_rt::telemetry::Telemetry;

        let script = r#"
global hits: count = 0;
event ping(n: count) {
    hits = hits + n;
    print hits;
}
"#;
        let mut host = ScriptHost::new(&[script], Engine::Compiled, None).unwrap();
        let tel = Telemetry::new();
        host.set_telemetry(&tel);
        let fuel = |h: &ScriptHost| h.compiled.as_ref().unwrap().program.context().fuel_spent();
        let retired = || tel.snapshot().counter("engine.instructions_retired");

        let (fuel0, retired0) = (fuel(&host), retired());
        host.dispatch("ping", &[Value::Int(2)]).unwrap();
        let spent = fuel(&host) - fuel0;
        assert!(spent > 2, "a handler is more than its terminator: {spent}");
        assert_eq!(retired() - retired0, spent);
        assert_eq!(tel.snapshot().counter("engine.runs"), 1);

        host.dispatch("no_such_event", &[]).unwrap();
        assert_eq!(fuel(&host) - fuel0, spent);
        assert_eq!(tel.snapshot().counter("engine.runs"), 1);
        assert_eq!(host.take_output(), vec!["2"]);
    }

    /// A script without `connection_state_remove` pays nothing for a
    /// removal: no engine run, no instruction.
    #[test]
    fn removal_without_a_handler_runs_nothing() {
        use hilti_rt::telemetry::Telemetry;

        let mut host = ScriptHost::new(&[crate::scripts::DNS_BRO], Engine::Compiled, None).unwrap();
        let tel = Telemetry::new();
        host.set_telemetry(&tel);
        host.remove_connection("C1").unwrap();
        assert_eq!(tel.snapshot().counter("engine.runs"), 0);
        let mut host =
            ScriptHost::new(&[crate::scripts::HTTP_BRO], Engine::Compiled, None).unwrap();
        host.set_telemetry(&tel);
        host.remove_connection("C1").unwrap();
        assert_eq!(tel.snapshot().counter("engine.runs"), 1);
    }

    #[test]
    fn event_conversion_shapes() {
        use hilti_rt::addr::Port;
        let id = netpkt::events::ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(40000),
            resp_h: "1.2.3.4".parse().unwrap(),
            resp_p: Port::tcp(80),
        };
        let args = event_args(&Event::HttpRequest {
            ts: Time::from_secs(1),
            uid: "C1".into(),
            id,
            method: "GET".into(),
            uri: "/".into(),
            version: "1.1".into(),
        });
        assert_eq!(args.len(), 6);
        assert_eq!(args[3].render(), "GET");
    }
}
