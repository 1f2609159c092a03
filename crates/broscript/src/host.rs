//! The event-dispatch layer (Bro's event engine) and the builtin library.
//!
//! [`ScriptHost`] owns one script running on one engine — the tree-walking
//! interpreter or the HILTI compiled program — and feeds it
//! [`netpkt::events::Event`]s. For the compiled engine, the conversion of
//! host event values into HILTI values is the "HILTI-to-Bro glue" that §6
//! measures separately (charged to [`Component::Glue`] when a profiler is
//! attached); script handler execution itself is charged to
//! [`Component::ScriptExecution`].
//!
//! The builtin functions ([`call_builtin`]) are shared verbatim by both
//! engines — one implementation, invoked directly by the interpreter and
//! registered as host functions (`call.c`) for the compiled program — so
//! outputs are comparable byte for byte.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hilti::value::Value;
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::profile::{Component, Profiler};
use hilti_rt::sha1::sha1_hex;
use hilti_rt::time::Time;

use netpkt::events::{dns_rcodes, dns_types, Event};

use crate::ast::Script;
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

    pub fn log(&mut self, name: &str) -> LogFile {
        self.logs
            .entry(name.to_owned())
            .or_insert_with(|| LogFile::in_memory(name))
            .clone()
    }

    pub fn log_lines(&self, name: &str) -> Vec<String> {
        self.logs.get(name).map(|l| l.lines()).unwrap_or_default()
    }
}

/// Invokes a builtin; `None` if the name is not a builtin.
pub fn call_builtin(
    name: &str,
    args: &[Value],
    rt: &Rc<RefCell<BroRt>>,
) -> Option<RtResult<Value>> {
    let result = match name {
        "cat" => Ok(Value::str(
            &args.iter().map(Value::render).collect::<Vec<_>>().join(""),
        )),
        "sha1" => args
            .first()
            .ok_or_else(|| RtError::type_error("sha1 needs one argument"))
            .map(|v| Value::str(&sha1_hex(v.render().as_bytes()))),
        "mime_type" => {
            // (body_prefix, declared_content_type) — "-" means undeclared.
            let body = args.first().map(Value::render).unwrap_or_default();
            let declared = args.get(1).map(Value::render).unwrap_or_default();
            let declared_opt = if declared.is_empty() || declared == "-" {
                None
            } else {
                Some(declared.as_str())
            };
            Ok(Value::str(
                &netpkt::http::sniff_mime(body.as_bytes(), declared_opt)
                    .unwrap_or_else(|| "-".into()),
            ))
        }
        "qtype_name" => args
            .first()
            .ok_or_else(|| RtError::type_error("qtype_name needs one argument"))
            .and_then(Value::as_int)
            .map(|t| Value::str(&dns_types::name(t as u16))),
        "rcode_name" => args
            .first()
            .ok_or_else(|| RtError::type_error("rcode_name needs one argument"))
            .and_then(Value::as_int)
            .map(|r| Value::str(&dns_rcodes::name(r as u16))),
        "join" => {
            let sep = args.get(1).map(Value::render).unwrap_or_default();
            match args.first() {
                Some(Value::Vector(v)) => Ok(Value::str(
                    &v.borrow()
                        .iter()
                        .map(Value::render)
                        .collect::<Vec<_>>()
                        .join(&sep),
                )),
                other => Err(RtError::type_error(format!(
                    "join needs a vector, got {other:?}"
                ))),
            }
        }
        "to_lower" => args
            .first()
            .ok_or_else(|| RtError::type_error("to_lower needs one argument"))
            .map(|v| Value::str(&v.render().to_lowercase())),
        "starts_with" => {
            let s = args.first().map(Value::render).unwrap_or_default();
            let p = args.get(1).map(Value::render).unwrap_or_default();
            Ok(Value::Bool(s.starts_with(&p)))
        }
        "sub_str" => {
            let s = args.first().map(Value::render).unwrap_or_default();
            let start = args
                .get(1)
                .and_then(|v| v.as_int().ok())
                .unwrap_or(0)
                .max(0) as usize;
            let len = args
                .get(2)
                .and_then(|v| v.as_int().ok())
                .unwrap_or(0)
                .max(0) as usize;
            Ok(Value::str(
                &s.chars().skip(start).take(len).collect::<String>(),
            ))
        }
        "to_count" => {
            let s = args.first().map(Value::render).unwrap_or_default();
            Ok(Value::Int(s.trim().parse().unwrap_or(0)))
        }
        "network_time" => Ok(Value::Time(rt.borrow().net_time)),
        "log_write" => {
            let stream = args.first().map(Value::render).unwrap_or_default();
            let line = args.get(1).map(Value::render).unwrap_or_default();
            let log = rt.borrow_mut().log(&stream);
            log.write_line(&line).map(|_| Value::Null)
        }
        _ => return None,
    };
    Some(result)
}

/// Names of all builtins (used by the compiler's type table).
pub const BUILTINS: &[(&str, crate::ast::STy)] = &[
    ("cat", crate::ast::STy::Str),
    ("sha1", crate::ast::STy::Str),
    ("mime_type", crate::ast::STy::Str),
    ("qtype_name", crate::ast::STy::Str),
    ("rcode_name", crate::ast::STy::Str),
    ("join", crate::ast::STy::Str),
    ("to_lower", crate::ast::STy::Str),
    ("starts_with", crate::ast::STy::Bool),
    ("sub_str", crate::ast::STy::Str),
    ("to_count", crate::ast::STy::Count),
    ("network_time", crate::ast::STy::Time),
    ("log_write", crate::ast::STy::Void),
];

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
    profiler: Option<Profiler>,
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
    pub(crate) fn into_host(self, profiler: Option<Profiler>) -> RtResult<ScriptHost> {
        let script = Rc::new(self.script);
        let rt: Rc<RefCell<BroRt>> = Rc::new(RefCell::new(BroRt::default()));
        let (interp, compiled) = match self.ir {
            None => (Some(Interp::new(script.clone(), rt.clone())?), None),
            Some(ir) => {
                let mut program = hilti::Program::from_ir(ir)?;
                for (name, _) in BUILTINS {
                    let rt2 = rt.clone();
                    let name2 = name.to_string();
                    program.register_host_fn(name, move |args| {
                        call_builtin(&name2, args, &rt2)
                            .unwrap_or_else(|| Err(RtError::value("missing builtin")))
                    });
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
            profiler,
        })
    }
}

impl ScriptHost {
    /// Parses and loads `sources` (merged, like loading several .bro files)
    /// onto the chosen engine.
    pub fn new(sources: &[&str], engine: Engine, profiler: Option<Profiler>) -> RtResult<Self> {
        Self::blueprint(sources, engine, None)?.into_host(profiler)
    }

    pub fn from_script(
        script: Script,
        engine: Engine,
        profiler: Option<Profiler>,
    ) -> RtResult<Self> {
        HostBlueprint::of(script, engine)?.into_host(profiler)
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
    pub fn from_blueprint(bp: &HostBlueprint, profiler: Option<Profiler>) -> RtResult<Self> {
        bp.clone().into_host(profiler)
    }

    pub fn engine(&self) -> Engine {
        self.engine
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
    pub fn advance_time(&mut self, t: Time) -> RtResult<()> {
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

    /// Dispatches one protocol event to the script's handlers.
    pub fn dispatch_event(&mut self, ev: &Event) -> RtResult<()> {
        self.advance_time(ev.ts())?;
        // Conversion of host event data into script values: free-standing
        // for the interpreter, but the measured *glue* for HILTI.
        let (name, args) = {
            let _g = (self.engine == Engine::Compiled)
                .then(|| self.profiler.as_ref().map(|p| p.enter(Component::Glue)))
                .flatten();
            // Figure 8 compatibility: if the script declares
            // `event connection_established(c: connection)`, hand it the
            // record form instead of the flat argument list.
            if let Event::ConnectionEstablished { uid, id, .. } = ev {
                let record_style = self
                    .script
                    .handlers_for("connection_established")
                    .first()
                    .map(|h| h.params.len() == 1)
                    .unwrap_or(false);
                if record_style {
                    ("connection_established", vec![connection_value(uid, id)])
                } else {
                    event_args(ev)
                }
            } else {
                event_args(ev)
            }
        };
        self.dispatch(name, &args)
    }

    /// Dispatches a raw event by name.
    pub fn dispatch(&mut self, event: &str, args: &[Value]) -> RtResult<()> {
        let _s = self
            .profiler
            .as_ref()
            .map(|p| p.enter(Component::ScriptExecution));
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

    /// Calls a script function (used by the Fibonacci benchmark).
    pub fn call(&mut self, func: &str, args: &[Value]) -> RtResult<Value> {
        let _s = self
            .profiler
            .as_ref()
            .map(|p| p.enter(Component::ScriptExecution));
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

/// Converts a host event into (event name, script argument values) — the
/// canonical event signatures scripts are written against.
pub fn event_args(ev: &Event) -> (&'static str, Vec<Value>) {
    match ev {
        Event::ConnectionEstablished { uid, id, .. } => (
            "connection_established",
            vec![
                Value::str(uid),
                Value::Addr(id.orig_h),
                Value::Port(id.orig_p),
                Value::Addr(id.resp_h),
                Value::Port(id.resp_p),
            ],
        ),
        Event::ConnectionFinished { uid, .. } => ("connection_finished", vec![Value::str(uid)]),
        Event::HttpRequest {
            uid,
            id,
            method,
            uri,
            version,
            ..
        } => (
            "http_request",
            vec![
                Value::str(uid),
                Value::Addr(id.orig_h),
                Value::Addr(id.resp_h),
                Value::str(method),
                Value::str(uri),
                Value::str(version),
            ],
        ),
        Event::HttpReply {
            uid,
            id,
            status,
            reason,
            version,
            ..
        } => (
            "http_reply",
            vec![
                Value::str(uid),
                Value::Addr(id.orig_h),
                Value::Addr(id.resp_h),
                Value::Int(i64::from(*status)),
                Value::str(reason),
                Value::str(version),
            ],
        ),
        Event::HttpHeader {
            uid,
            is_orig,
            name,
            value,
            ..
        } => (
            "http_header",
            vec![
                Value::str(uid),
                Value::Bool(*is_orig),
                Value::str(name),
                Value::str(value),
            ],
        ),
        Event::HttpBodyData {
            uid, is_orig, data, ..
        } => (
            "http_body_data",
            vec![
                Value::str(uid),
                Value::Bool(*is_orig),
                // Byte-to-char (latin-1 style) mapping: bijective, so the
                // script-level body is independent of how the parser
                // chunked it (the standard stack delivers per-packet
                // chunks, BinPAC++ one blob; hashes must still agree).
                Value::str(&data.iter().map(|&b| b as char).collect::<String>()),
            ],
        ),
        Event::HttpMessageDone {
            uid,
            is_orig,
            body_len,
            ..
        } => (
            "http_message_done",
            vec![
                Value::str(uid),
                Value::Bool(*is_orig),
                Value::Int(*body_len as i64),
            ],
        ),
        Event::DnsRequest {
            uid,
            id,
            trans_id,
            query,
            qtype,
            ..
        } => (
            "dns_request",
            vec![
                Value::str(uid),
                Value::Addr(id.orig_h),
                Value::Addr(id.resp_h),
                Value::Int(i64::from(*trans_id)),
                Value::str(query),
                Value::Int(i64::from(*qtype)),
            ],
        ),
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
            (
                "dns_reply",
                vec![
                    Value::str(uid),
                    Value::Addr(id.orig_h),
                    Value::Addr(id.resp_h),
                    Value::Int(i64::from(*trans_id)),
                    Value::Int(i64::from(*rcode)),
                    Value::Vector(Rc::new(RefCell::new(rdata))),
                    Value::Vector(Rc::new(RefCell::new(ttls))),
                ],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_shared_semantics() {
        let rt = Rc::new(RefCell::new(BroRt::default()));
        let v = call_builtin("cat", &[Value::str("a"), Value::Int(1)], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "a1");
        let v = call_builtin("sha1", &[Value::str("abc")], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "a9993e364706816aba3e25717850c26c9cd0d89d");
        let v = call_builtin("qtype_name", &[Value::Int(1)], &rt)
            .unwrap()
            .unwrap();
        assert_eq!(v.render(), "A");
        let v = call_builtin("to_count", &[Value::str("42")], &rt)
            .unwrap()
            .unwrap();
        assert!(v.equals(&Value::Int(42)));
        assert!(call_builtin("not_a_builtin", &[], &rt).is_none());
    }

    #[test]
    fn log_write_accumulates() {
        let rt = Rc::new(RefCell::new(BroRt::default()));
        call_builtin(
            "log_write",
            &[Value::str("x.log"), Value::str("line1")],
            &rt,
        )
        .unwrap()
        .unwrap();
        assert_eq!(rt.borrow().log_lines("x.log"), vec!["line1"]);
    }

    #[test]
    fn mime_builtin_magic_and_fallback() {
        let rt = Rc::new(RefCell::new(BroRt::default()));
        let v = call_builtin(
            "mime_type",
            &[Value::str("GIF89a..."), Value::str("-")],
            &rt,
        )
        .unwrap()
        .unwrap();
        assert_eq!(v.render(), "image/gif");
        let v = call_builtin(
            "mime_type",
            &[Value::str("opaque"), Value::str("text/css")],
            &rt,
        )
        .unwrap()
        .unwrap();
        assert_eq!(v.render(), "text/css");
        let v = call_builtin("mime_type", &[Value::str("opaque"), Value::str("-")], &rt)
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

    #[test]
    fn event_conversion_shapes() {
        use hilti_rt::addr::Port;
        let id = netpkt::events::ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(40000),
            resp_h: "1.2.3.4".parse().unwrap(),
            resp_p: Port::tcp(80),
        };
        let (name, args) = event_args(&Event::HttpRequest {
            ts: Time::from_secs(1),
            uid: "C1".into(),
            id,
            method: "GET".into(),
            uri: "/".into(),
            version: "1.1".into(),
        });
        assert_eq!(name, "http_request");
        assert_eq!(args.len(), 6);
        assert_eq!(args[3].render(), "GET");
    }
}
