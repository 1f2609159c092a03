//! The BinPAC++ HTTP grammar and its Bro-style event adapter.
//!
//! This is the HTTP case study of §6.4: a grammar-generated parser meant to
//! "mimic Bro's standard parsers as closely as possible". The grammar
//! covers request/status lines, headers, `Content-Length` bodies, chunked
//! transfer-coding with trailers, `HEAD`/`204`/`304` body suppression, and
//! read-to-close bodies — with the framing decisions expressed as the
//! grammar's embedded semantic constructs (§4: BinPAC++ "extends the
//! grammar language with semantic constructs for annotating, controlling,
//! and interfacing to the parsing process").
//!
//! [`BinpacHttp`] drives per-connection sessions through the generated
//! incremental parser and converts unit hooks into the same
//! [`netpkt::events::Event`] vocabulary the standard parser emits — the
//! host-side *glue* whose cost Figure 9 charges separately.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti_rt::bytestring::FeedChunk;
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::limits::AllocBudget;
use hilti_rt::time::Time;
use hilti_rt::trace::{self, SharedRecorder, Stage};

use netpkt::events::{ConnId, Event};

use crate::grammar::{Field, FieldKind, Grammar, Repeat, Unit};
use crate::parser::{BinpacParser, ParserIr, Session};

/// Builds the HTTP grammar (`http.pac2`).
pub fn http_grammar() -> Grammar {
    let request_line = Unit::new("RequestLine")
        .field(Field::token("method", "[A-Z]+"))
        .field(Field::anon(FieldKind::Token(vec!["[ \\t]+".into()])))
        .field(Field::token("uri", "[^ \\t\\r\\n]+"))
        .field(Field::anon(FieldKind::Token(vec!["[ \\t]+".into()])))
        .field(Field::anon(FieldKind::Token(vec!["HTTP\\/".into()])))
        .field(Field::token("version", "[0-9]+\\.[0-9]+"))
        .field(Field::anon(FieldKind::Token(vec!["\\r?\\n".into()])))
        .on_done("Http::on_request_line");

    let status_line = Unit::new("StatusLine")
        .field(Field::anon(FieldKind::Token(vec!["HTTP\\/".into()])))
        .field(Field::token("version", "[0-9]+\\.[0-9]+"))
        .field(Field::anon(FieldKind::Token(vec!["[ \\t]+".into()])))
        .field(Field::token("status", "[0-9]+"))
        .field(Field::anon(FieldKind::Token(vec!["[ \\t]*".into()])))
        .field(Field::token("reason", "[^\\r\\n]*"))
        .field(Field::anon(FieldKind::Token(vec!["\\r?\\n".into()])))
        .on_done("Http::on_reply_line");

    let req_header = header_unit("ReqHeader", "Http::on_req_header");
    let resp_header = header_unit("RespHeader", "Http::on_resp_header");

    // Header scan shared by both directions: sets `blen` (or -1) and
    // `chunked` from the parsed header vector.
    let scan = |prefix: &str, default_len: i64| -> Vec<String> {
        let p = prefix;
        vec![
            format!("blen = assign {default_len}"),
            "chunked = assign False".into(),
            "local any __hdrs".into(),
            "__hdrs = struct.get self headers".into(),
            "n = vector.length __hdrs".into(),
            "i = assign 0".into(),
            format!("{p}_scan:"),
            "local bool __more".into(),
            "__more = int.lt i n".into(),
            format!("if.else __more {p}_one {p}_done"),
            format!("{p}_one:"),
            "local any __h".into(),
            "__h = vector.get __hdrs i".into(),
            "local any __hn".into(),
            "__hn = struct.get __h name".into(),
            "local string __hns".into(),
            "__hns = bytes.to_string __hn".into(),
            "__hns = string.lower __hns".into(),
            "local bool __is_cl".into(),
            "__is_cl = equal __hns \"content-length\"".into(),
            format!("if.else __is_cl {p}_cl {p}_te"),
            format!("{p}_cl:"),
            "local any __hv".into(),
            "__hv = struct.get __h value".into(),
            "try {".into(),
            "    blen = bytes.to_int __hv 10".into(),
            "} catch ( exception e ) {".into(),
            format!("    blen = assign {default_len}"),
            "}".into(),
            format!("jump {p}_next"),
            format!("{p}_te:"),
            "local bool __is_te".into(),
            "__is_te = equal __hns \"transfer-encoding\"".into(),
            format!("if.else __is_te {p}_te2 {p}_next"),
            format!("{p}_te2:"),
            "local any __hv2".into(),
            "__hv2 = struct.get __h value".into(),
            "local string __hvs".into(),
            "__hvs = bytes.to_string __hv2".into(),
            "__hvs = string.lower __hvs".into(),
            "chunked = equal __hvs \"chunked\"".into(),
            format!("jump {p}_next"),
            format!("{p}_next:"),
            "i = int.add i 1".into(),
            format!("jump {p}_scan"),
            format!("{p}_done:"),
        ]
    };

    let request = Unit::new("Request")
        .var("blen", "int<64>")
        .var("chunked", "bool")
        .var("has_body", "bool")
        .var("i", "int<64>")
        .var("n", "int<64>")
        .field(Field::named(
            "request_line",
            FieldKind::SubUnit("RequestLine".into()),
        ))
        .field(Field::named(
            "headers",
            FieldKind::List(
                "ReqHeader".into(),
                Repeat::UntilToken(vec!["\\r?\\n".into()]),
            ),
        ))
        .field(Field::anon(FieldKind::Embedded({
            let mut v = scan("rq", 0);
            v.push("has_body = int.gt blen 0".into());
            v
        })))
        .field(Field::named(
            "body",
            FieldKind::IfVar(
                "has_body".into(),
                Box::new(Field::named("body", FieldKind::BytesVar("blen".into()))),
            ),
        ))
        .on_done("Http::on_request_done");

    // Chunked-body loop, written as embedded semantic code (the paper's
    // grammars embed code for exactly this kind of framing logic). Each
    // token match unpacks its own tuple right away into the typed `__ctid`
    // and `__cnit` or `it` (a miss leaves `it` in place), the shape
    // `binpac::codegen` emits, so the VM runs it as one `MatchToken`.
    let chunked_code: Vec<String> = r#"
local regexp __reH
__reH = regexp.new /[0-9a-fA-F]+/
local regexp __reEL
__reEL = regexp.new /[^\r\n]*\r?\n/
local regexp __reNL
__reNL = regexp.new /\r?\n/
local any __body
__body = new bytes
local any __ctr_size
local any __ctr_ext
local any __ctr_data
local any __ctr_end
local any __ctr_trailer
local int<64> __ctid
local iterator<bytes> __cnit
local bool __cok
local any __szb
local iterator<bytes> __dend
local any __dchunk
rpc_loop:
__ctr_size = regexp.match_token __reH it
__ctid = tuple.get __ctr_size 0
__cnit = tuple.get __ctr_size 1
__cok = int.geq __ctid 0
if.else __cok rpc_size rpc_fail
rpc_fail:
exception.throw Hilti::ValueError "Reply: bad chunk size"
rpc_size:
__szb = bytes.sub it __cnit
it = assign __cnit
csize = bytes.to_int __szb 16
__ctr_ext = regexp.match_token __reEL it
__ctid = tuple.get __ctr_ext 0
it = tuple.get __ctr_ext 1
__cok = int.geq __ctid 0
if.else __cok rpc_ext rpc_fail
rpc_ext:
local bool __last
__last = int.eq csize 0
if.else __last rpc_trailers rpc_data
rpc_data:
__dend = iterator.incr it csize
__dchunk = bytes.sub it __dend
bytes.append __body __dchunk
it = assign __dend
__ctr_data = regexp.match_token __reNL it
__ctid = tuple.get __ctr_data 0
it = tuple.get __ctr_data 1
__cok = int.geq __ctid 0
if.else __cok rpc_loop rpc_fail
rpc_trailers:
__ctr_end = regexp.match_token __reNL it
__ctid = tuple.get __ctr_end 0
it = tuple.get __ctr_end 1
__cok = int.geq __ctid 0
if.else __cok rpc_finish rpc_one_trailer
rpc_one_trailer:
__ctr_trailer = regexp.match_token __reEL it
__ctid = tuple.get __ctr_trailer 0
it = tuple.get __ctr_trailer 1
__cok = int.geq __ctid 0
if.else __cok rpc_trailers rpc_fail
rpc_finish:
bytes.freeze __body
struct.set self body __body
"#
    .lines()
    .map(str::trim)
    .filter(|l| !l.is_empty())
    .map(str::to_owned)
    .collect();

    let reply = Unit::new("Reply")
        .var("blen", "int<64>")
        .var("chunked", "bool")
        .var("status", "int<64>")
        .var("bmode", "int<64>")
        .var("csize", "int<64>")
        .var("i", "int<64>")
        .var("n", "int<64>")
        .field(Field::named(
            "status_line",
            FieldKind::SubUnit("StatusLine".into()),
        ))
        .field(Field::named(
            "headers",
            FieldKind::List(
                "RespHeader".into(),
                Repeat::UntilToken(vec!["\\r?\\n".into()]),
            ),
        ))
        .field(Field::anon(FieldKind::Embedded({
            let mut v = vec![
                "local any __sl".into(),
                "__sl = struct.get self status_line".into(),
                "local any __stb".into(),
                "__stb = struct.get __sl status".into(),
                "status = bytes.to_int __stb 10".into(),
            ];
            v.extend(scan("rp", -1));
            v.extend(
                [
                    "local bool __supp",
                    "__supp = call.c Http::suppress_reply_body ()",
                    "bmode = assign 3",
                    "local bool __t1",
                    "__t1 = int.geq blen 0",
                    "if.else __t1 rp_m1 rp_m2",
                    "rp_m1:",
                    "bmode = assign 1",
                    "rp_m2:",
                    "if.else chunked rp_m3 rp_m4",
                    "rp_m3:",
                    "bmode = assign 2",
                    "rp_m4:",
                    "local bool __s1",
                    "__s1 = int.eq status 204",
                    "local bool __s2",
                    "__s2 = int.eq status 304",
                    "__s1 = or __s1 __s2",
                    "__s1 = or __s1 __supp",
                    "if.else __s1 rp_m5 rp_m6",
                    "rp_m5:",
                    "bmode = assign 0",
                    "rp_m6:",
                ]
                .iter()
                .map(|s| s.to_string()),
            );
            v
        })))
        .field(Field::named(
            "body",
            FieldKind::SwitchInt {
                on: "bmode".into(),
                cases: vec![
                    (
                        0,
                        Box::new(Field::anon(FieldKind::Embedded(vec![
                            "local any __eb".into(),
                            "__eb = new bytes".into(),
                            "bytes.freeze __eb".into(),
                            "struct.set self body __eb".into(),
                        ]))),
                    ),
                    (
                        1,
                        Box::new(Field::named("body", FieldKind::BytesVar("blen".into()))),
                    ),
                    (2, Box::new(Field::anon(FieldKind::Embedded(chunked_code)))),
                ],
                default: Some(Box::new(Field::named("body", FieldKind::Eod))),
            },
        ))
        .on_done("Http::on_reply_done");

    Grammar::new("Http")
        .unit(request_line)
        .unit(status_line)
        .unit(req_header)
        .unit(resp_header)
        .unit(request)
        .unit(reply)
}

fn header_unit(name: &str, hook: &str) -> Unit {
    Unit::new(name)
        .field(Field::token("name", "[^:\\r\\n]+"))
        .field(Field::anon(FieldKind::Token(vec![":[ \\t]*".into()])))
        .field(Field::token("value", "[^\\r\\n]*"))
        .field(Field::anon(FieldKind::Token(vec!["\\r?\\n".into()])))
        .on_done(hook)
}

// ---------------------------------------------------------------------------
// Event adapter

#[derive(Clone)]
struct Cur {
    /// Interned connection uid: one `Arc<str>` per connection, shared by
    /// the session map, span recorder, and event glue.
    uid: Arc<str>,
    id: ConnId,
    ts: Time,
}

#[derive(Default)]
struct Shared {
    current: Option<Cur>,
    /// uid → outstanding request methods (for HEAD suppression).
    outstanding: HashMap<Arc<str>, VecDeque<String>>,
    events: Vec<Event>,
}

impl Shared {
    fn cur(&self) -> RtResult<&Cur> {
        self.current
            .as_ref()
            .ok_or_else(|| RtError::runtime("HTTP hook fired with no active session"))
    }
}

/// Per-connection session pair (client + server streams). Both directions
/// share one [`AllocBudget`] when a per-connection limit is configured.
struct ConnSessions {
    client: Session,
    server: Session,
    budget: Option<AllocBudget>,
}

/// The generated HTTP parser wired to Bro-style events.
pub struct BinpacHttp {
    parser: BinpacParser,
    shared: Rc<RefCell<Shared>>,
    sessions: HashMap<Arc<str>, ConnSessions>,
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

/// Reads field `idx` from a unit struct value.
fn slot(v: &Value, idx: usize) -> RtResult<Value> {
    match v {
        Value::Struct(s) => s
            .borrow()
            .fields
            .get(idx)
            .cloned()
            .ok_or_else(|| RtError::index("missing struct slot")),
        other => Err(RtError::type_error(format!(
            "expected unit struct, got {}",
            other.type_name()
        ))),
    }
}

fn slot_text(v: &Value, idx: usize) -> RtResult<String> {
    Ok(slot(v, idx)?.render())
}

fn slot_bytes(v: &Value, idx: usize) -> RtResult<Vec<u8>> {
    match slot(v, idx)? {
        Value::Bytes(b) => Ok(b.to_vec()),
        Value::Null => Ok(Vec::new()),
        other => Err(RtError::type_error(format!(
            "expected bytes slot, got {}",
            other.type_name()
        ))),
    }
}

/// Registers an event hook: `body` turns the unit value into events for
/// the active session — the HILTI-to-Bro glue, recorded as a `Glue` span.
fn on_event(
    parser: &mut BinpacParser,
    hook: &str,
    shared: &Rc<RefCell<Shared>>,
    rec: &Option<SharedRecorder>,
    body: impl Fn(&mut Shared, Cur, &Value) -> RtResult<()> + 'static,
) {
    let (s, rec) = (shared.clone(), rec.clone());
    parser.register_hook(hook, move |args| {
        trace::span(rec.as_ref(), Stage::Glue, || {
            let mut sh = s.borrow_mut();
            let cur = sh.cur()?.clone();
            body(&mut sh, cur, args[0])?;
            Ok(Value::Null)
        })
    });
}

impl BinpacHttp {
    /// Compiles the HTTP grammar and wires the event hooks. With a
    /// recorder, every feed records a `Parse` span and every event hook a
    /// `Glue` span into it.
    pub fn new(opt: OptLevel, rec: Option<SharedRecorder>) -> RtResult<BinpacHttp> {
        Self::wire(
            BinpacParser::compile(&http_grammar(), &["Request", "Reply"], opt)?,
            rec,
        )
    }

    /// The shareable front end of [`BinpacHttp::new`]: grammar codegen and
    /// IR optimization, no bytecode. Build once, then materialize one
    /// parser per worker thread with [`BinpacHttp::from_ir`].
    pub fn front_end(opt: OptLevel) -> RtResult<ParserIr> {
        BinpacParser::front_end(&http_grammar(), &["Request", "Reply"], opt)
    }

    /// Per-thread construction from a shared front end: bytecode lowering
    /// plus event-hook wiring only.
    pub fn from_ir(ir: &ParserIr, rec: Option<SharedRecorder>) -> RtResult<BinpacHttp> {
        Self::wire(BinpacParser::from_ir(ir)?, rec)
    }

    fn wire(mut parser: BinpacParser, rec: Option<SharedRecorder>) -> RtResult<BinpacHttp> {
        let shared: Rc<RefCell<Shared>> = Rc::new(RefCell::new(Shared::default()));

        // Slot layouts (grammar is fixed; indices are stable).
        // RequestLine: [method, uri, version]
        // StatusLine:  [version, status, reason]
        // Headers:     [name, value]
        // Request:     [request_line, headers, body]
        // Reply:       [status_line, headers, body]
        on_event(
            &mut parser,
            "Http::on_request_line",
            &shared,
            &rec,
            |sh, cur, line| {
                let method = slot_text(line, 0)?;
                let uri = slot_text(line, 1)?;
                let version = slot_text(line, 2)?;
                sh.outstanding
                    .entry(cur.uid.clone())
                    .or_default()
                    .push_back(method.clone());
                sh.events.push(Event::HttpRequest {
                    ts: cur.ts,
                    uid: cur.uid,
                    id: cur.id,
                    method,
                    uri,
                    version,
                });
                Ok(())
            },
        );

        on_event(
            &mut parser,
            "Http::on_reply_line",
            &shared,
            &rec,
            |sh, cur, line| {
                let version = slot_text(line, 0)?;
                let status: u32 = slot_text(line, 1)?
                    .parse()
                    .map_err(|_| RtError::value("bad status"))?;
                let reason = slot_text(line, 2)?;
                sh.events.push(Event::HttpReply {
                    ts: cur.ts,
                    uid: cur.uid,
                    id: cur.id,
                    status,
                    reason,
                    version,
                });
                Ok(())
            },
        );

        for (hook, orig) in [
            ("Http::on_req_header", true),
            ("Http::on_resp_header", false),
        ] {
            on_event(&mut parser, hook, &shared, &rec, move |sh, cur, header| {
                let name = slot_text(header, 0)?;
                let value = slot_text(header, 1)?;
                sh.events.push(Event::HttpHeader {
                    ts: cur.ts,
                    uid: cur.uid,
                    is_orig: orig,
                    name,
                    value,
                });
                Ok(())
            });
        }

        let s = shared.clone();
        parser.register_hook("Http::suppress_reply_body", move |_args| {
            let mut sh = s.borrow_mut();
            let cur = sh.cur()?.clone();
            let method = sh.outstanding.get_mut(&cur.uid).and_then(|q| q.pop_front());
            Ok(Value::Bool(method.as_deref() == Some("HEAD")))
        });

        for (hook, orig, body_idx) in [
            ("Http::on_request_done", true, 2usize),
            ("Http::on_reply_done", false, 2usize),
        ] {
            on_event(&mut parser, hook, &shared, &rec, move |sh, cur, msg| {
                let body = slot_bytes(msg, body_idx)?;
                let len = body.len() as u64;
                if !body.is_empty() {
                    sh.events.push(Event::HttpBodyData {
                        ts: cur.ts,
                        uid: cur.uid.clone(),
                        is_orig: orig,
                        data: body,
                    });
                }
                sh.events.push(Event::HttpMessageDone {
                    ts: cur.ts,
                    uid: cur.uid,
                    is_orig: orig,
                    body_len: len,
                });
                Ok(())
            });
        }

        Ok(BinpacHttp {
            parser,
            shared,
            sessions: HashMap::new(),
            session_budget: None,
            peak_session_bytes: 0,
            deadline_ms: None,
            rec,
        })
    }

    /// The interned uid for a connection: the live session key when one
    /// exists, otherwise a fresh `Arc` (one allocation per connection).
    fn intern_uid(&self, uid: &str) -> Arc<str> {
        match self.sessions.get_key_value(uid) {
            Some((k, _)) => k.clone(),
            None => Arc::from(uid),
        }
    }

    /// Arms a per-delivery wall-clock watchdog: every `feed`/`finish_conn`
    /// must complete within `ms` milliseconds or the parser VM trips
    /// `Hilti::ResourceExhausted` (see `ResourceLimits::deadline_ms`).
    pub fn set_delivery_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms;
        if ms.is_none() {
            self.parser
                .program_mut()
                .context_mut()
                .arm_deadline_after_ms(None);
        }
    }

    /// Caps buffered stream state per connection. Feeding a connection
    /// past its budget raises `Hilti::ResourceExhausted` from
    /// [`BinpacHttp::feed`]; existing connections keep their old budget.
    pub fn set_session_budget(&mut self, bytes: u64) {
        self.session_budget = Some(bytes);
    }

    /// High-water mark of buffered bytes over all budgeted connections.
    pub fn peak_session_bytes(&self) -> u64 {
        self.peak_session_bytes
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

    /// Attaches telemetry to the parser VM: retired-instruction counters
    /// flushed per parse step, plus fiber suspend/resume and
    /// resource-limit events on the sink.
    pub fn set_telemetry(&mut self, telemetry: &hilti_rt::telemetry::Telemetry) {
        self.parser
            .program_mut()
            .context_mut()
            .set_telemetry(telemetry);
    }

    /// Chaos hook: arms the parser VM to fail with `error` after `steps`
    /// charged execution steps (see `Context::inject_fault_after`). The
    /// fault surfaces from whichever flow's fiber is running at that
    /// point — deterministic for a fixed trace.
    pub fn inject_fault_after(&mut self, steps: u64, error: RtError) {
        self.parser
            .program_mut()
            .context_mut()
            .inject_fault_after(steps, error);
    }

    fn set_current(&self, uid: &Arc<str>, id: ConnId, ts: Time) {
        self.shared.borrow_mut().current = Some(Cur {
            uid: uid.clone(),
            id,
            ts,
        });
    }

    /// Feeds reassembled payload for one direction of a connection.
    pub fn feed(
        &mut self,
        uid: &str,
        id: ConnId,
        is_orig: bool,
        ts: Time,
        data: &[u8],
    ) -> RtResult<()> {
        let uid = self.intern_uid(uid);
        self.feed_chunk(&uid, id, is_orig, ts, FeedChunk::Copy(data))
    }

    /// Feeds one delivery for one direction of a connection. The uid is the
    /// caller's interned handle (cloned, never re-allocated); a borrowed
    /// chunk lands in the session's byte string without copying.
    pub fn feed_chunk(
        &mut self,
        uid: &Arc<str>,
        id: ConnId,
        is_orig: bool,
        ts: Time,
        data: FeedChunk<'_>,
    ) -> RtResult<()> {
        let rec = self.rec.clone();
        trace::span(rec.as_ref(), Stage::Parse, || {
            self.feed_session(uid, id, is_orig, ts, data)
        })
    }

    fn feed_session(
        &mut self,
        uid: &Arc<str>,
        id: ConnId,
        is_orig: bool,
        ts: Time,
        data: FeedChunk<'_>,
    ) -> RtResult<()> {
        if let Some(ms) = self.deadline_ms {
            self.parser
                .program_mut()
                .context_mut()
                .arm_deadline_after_ms(Some(ms));
        }
        self.set_current(uid, id, ts);
        let limit = self.session_budget;
        let parser = &self.parser;
        let sessions = self.sessions.entry(uid.clone()).or_insert_with(|| {
            let client = parser.session("Request");
            let server = parser.session("Reply");
            // One budget per connection, shared by both directions.
            let budget = limit.map(AllocBudget::with_limit);
            if let Some(b) = &budget {
                client.set_budget(b.clone());
                server.set_budget(b.clone());
            }
            ConnSessions {
                client,
                server,
                budget,
            }
        });
        let budget = sessions.budget.clone();
        let session = if is_orig {
            &mut sessions.client
        } else {
            &mut sessions.server
        };
        let r = self.parser.feed_chunk(session, data);
        if let Some(b) = budget {
            self.peak_session_bytes = self.peak_session_bytes.max(b.peak());
        }
        r
    }

    /// Ends a connection: freezes both directions (flushing read-to-close
    /// bodies) and drops its state.
    pub fn finish_conn(&mut self, uid: &str, id: ConnId, ts: Time) -> RtResult<()> {
        let rec = self.rec.clone();
        trace::span(rec.as_ref(), Stage::Parse, || {
            self.finish_sessions(uid, id, ts)
        })
    }

    fn finish_sessions(&mut self, uid: &str, id: ConnId, ts: Time) -> RtResult<()> {
        if let Some(ms) = self.deadline_ms {
            self.parser
                .program_mut()
                .context_mut()
                .arm_deadline_after_ms(Some(ms));
        }
        let uid = &self.intern_uid(uid);
        if let Some(mut sessions) = self.sessions.remove(uid.as_ref()) {
            self.set_current(uid, id, ts);
            self.parser.finish(&mut sessions.server)?;
            self.set_current(uid, id, ts);
            self.parser.finish(&mut sessions.client)?;
        }
        self.shared.borrow_mut().outstanding.remove(uid.as_ref());
        Ok(())
    }

    /// Quarantine teardown: discards a connection's parser state without
    /// running the finish path (which could re-raise out of a poisoned
    /// session). Pending events for other flows are untouched.
    pub fn drop_conn(&mut self, uid: &str) {
        if let Some(sessions) = self.sessions.remove(uid) {
            if let Some(b) = &sessions.budget {
                self.peak_session_bytes = self.peak_session_bytes.max(b.peak());
            }
        }
        self.shared.borrow_mut().outstanding.remove(uid);
    }

    /// Takes the accumulated events.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.shared.borrow_mut().events)
    }

    /// Moves the accumulated events into `out`, keeping the internal
    /// buffer's capacity (no per-delivery allocation, unlike
    /// [`take_events`](Self::take_events)).
    pub fn drain_events_into(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.shared.borrow_mut().events);
    }

    /// Number of live connection sessions.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilti_rt::addr::Port;

    fn conn_id() -> ConnId {
        ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(40000),
            resp_h: "93.184.216.34".parse().unwrap(),
            resp_p: Port::tcp(80),
        }
    }

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    fn names(evs: &[Event]) -> Vec<&'static str> {
        evs.iter().map(|e| e.name()).collect()
    }

    #[test]
    fn simple_get_exchange() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            true,
            t(1),
            b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n",
        )
        .unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/html\r\n\r\nhello",
        )
        .unwrap();
        let evs = h.take_events();
        assert_eq!(
            names(&evs),
            vec![
                "http_request",
                "http_header",
                "http_message_done",
                "http_reply",
                "http_header",
                "http_header",
                "http_body_data",
                "http_message_done",
            ],
            "{evs:#?}"
        );
        match &evs[0] {
            Event::HttpRequest {
                method,
                uri,
                version,
                ..
            } => {
                assert_eq!(method, "GET");
                assert_eq!(uri, "/index.html");
                assert_eq!(version, "1.1");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &evs[3] {
            Event::HttpReply { status, reason, .. } => {
                assert_eq!(*status, 200);
                assert_eq!(reason, "OK");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_at_a_time_suspends_transparently() {
        let wire_c = b"POST /submit HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        for b in wire_c {
            h.feed("C1", conn_id(), true, t(1), &[*b]).unwrap();
        }
        let evs = h.take_events();
        assert_eq!(
            names(&evs),
            vec![
                "http_request",
                "http_header",
                "http_body_data",
                "http_message_done"
            ],
            "{evs:#?}"
        );
        match &evs[2] {
            Event::HttpBodyData { data, .. } => assert_eq!(data, b"abc"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chunked_reply_with_trailers() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-T: v\r\n\r\n",
        )
        .unwrap();
        let evs = h.take_events();
        let body: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                Event::HttpBodyData { data, .. } => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(body, b"hello world");
        let done = evs.iter().rev().find_map(|e| match e {
            Event::HttpMessageDone { body_len, .. } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(11));
    }

    #[test]
    fn head_suppresses_reply_body() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed("C1", conn_id(), true, t(1), b"HEAD /big HTTP/1.1\r\n\r\n")
            .unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 200 OK\r\nContent-Length: 10000\r\n\r\n",
        )
        .unwrap();
        let evs = h.take_events();
        let done = evs.iter().find_map(|e| match e {
            Event::HttpMessageDone {
                body_len,
                is_orig: false,
                ..
            } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(0), "{evs:#?}");
    }

    #[test]
    fn until_close_body_flushes_on_finish() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.0 200 OK\r\nServer: x\r\n\r\nunending body",
        )
        .unwrap();
        assert!(h
            .take_events()
            .iter()
            .all(|e| e.name() != "http_message_done"));
        h.finish_conn("C1", conn_id(), t(9)).unwrap();
        let evs = h.take_events();
        let done = evs.iter().find_map(|e| match e {
            Event::HttpMessageDone { body_len, .. } => Some(*body_len),
            _ => None,
        });
        assert_eq!(done, Some(13), "{evs:#?}");
    }

    #[test]
    fn pipelined_requests() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            true,
            t(1),
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        let evs = h.take_events();
        let uris: Vec<&String> = evs
            .iter()
            .filter_map(|e| match e {
                Event::HttpRequest { uri, .. } => Some(uri),
                _ => None,
            })
            .collect();
        assert_eq!(uris, ["/a", "/b"]);
    }

    #[test]
    fn garbage_abandons_stream() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed("C1", conn_id(), true, t(1), b"\x00\x01 binary crud\r\n\r\n")
            .unwrap();
        h.finish_conn("C1", conn_id(), t(2)).unwrap();
        assert!(h.take_events().is_empty());
    }

    #[test]
    fn agrees_with_standard_parser_on_simple_exchange() {
        // Differential check against the handwritten baseline.
        let wire_c: &[u8] = b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n";
        let wire_s: &[u8] =
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\nContent-Type: text/plain\r\n\r\nnot found";

        let mut bp = BinpacHttp::new(OptLevel::Full, None).unwrap();
        bp.feed("C1", conn_id(), true, t(1), wire_c).unwrap();
        bp.feed("C1", conn_id(), false, t(1), wire_s).unwrap();
        let bp_events = bp.take_events();

        let mut std_parser = netpkt::http::HttpConnParser::new("C1".into(), conn_id());
        let mut std_events = Vec::new();
        std_parser.feed(true, wire_c, t(1), &mut std_events);
        std_parser.feed(false, wire_s, t(1), &mut std_events);

        // Same event kinds in the same order; body data squashed.
        let squash = |evs: &[Event]| -> (Vec<&'static str>, Vec<u8>) {
            let mut body = Vec::new();
            let mut kinds = Vec::new();
            for e in evs {
                if let Event::HttpBodyData { data, .. } = e {
                    body.extend_from_slice(data);
                } else {
                    kinds.push(e.name());
                }
            }
            (kinds, body)
        };
        assert_eq!(squash(&bp_events), squash(&std_events));
    }
}

#[cfg(test)]
mod more_http_tests {
    use super::*;
    use hilti_rt::addr::Port;

    fn conn_id() -> ConnId {
        ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(40000),
            resp_h: "93.184.216.34".parse().unwrap(),
            resp_p: Port::tcp(80),
        }
    }

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn partial_content_206_carries_body() {
        // The Table 2 "Partial Content" case: a 206 with Content-Range
        // still frames by Content-Length.
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            true,
            t(1),
            b"GET /big HTTP/1.1\r\nRange: bytes=0-4\r\n\r\n",
        )
        .unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-4/100\r\nContent-Length: 5\r\n\r\nHELLO",
        )
        .unwrap();
        let evs = h.take_events();
        let body: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                Event::HttpBodyData { data, .. } => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(body, b"HELLO");
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::HttpReply { status: 206, .. })));
    }

    #[test]
    fn mixed_head_get_pipeline_suppresses_correctly() {
        // HEAD, then GET on the same connection: only the HEAD reply's
        // body is suppressed; the GET reply's is parsed.
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            true,
            t(1),
            b"HEAD /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(2),
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nBODY",
        )
        .unwrap();
        let evs = h.take_events();
        let dones: Vec<u64> = evs
            .iter()
            .filter_map(|e| match e {
                Event::HttpMessageDone {
                    is_orig: false,
                    body_len,
                    ..
                } => Some(*body_len),
                _ => None,
            })
            .collect();
        assert_eq!(dones, vec![0, 4], "{evs:#?}");
    }

    #[test]
    fn reply_without_preceding_request_parses() {
        // Mid-stream capture: a reply with no recorded request must not
        // wedge (suppress lookup finds an empty queue).
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        )
        .unwrap();
        let evs = h.take_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, Event::HttpMessageDone { body_len: 2, .. })));
    }

    #[test]
    fn many_connections_isolated_state() {
        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        // Interleave two connections; bodies must not bleed across.
        h.feed(
            "C1",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n",
        )
        .unwrap();
        h.feed(
            "C2",
            conn_id(),
            false,
            t(1),
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nBBB",
        )
        .unwrap();
        h.feed("C1", conn_id(), false, t(2), b"AAA").unwrap();
        let evs = h.take_events();
        let bodies: Vec<(String, Vec<u8>)> = evs
            .iter()
            .filter_map(|e| match e {
                Event::HttpBodyData { uid, data, .. } => Some((uid.to_string(), data.clone())),
                _ => None,
            })
            .collect();
        assert!(bodies.contains(&("C1".to_string(), b"AAA".to_vec())));
        assert!(bodies.contains(&("C2".to_string(), b"BBB".to_vec())));
        assert_eq!(h.live_sessions(), 2);
        // End-of-trace flush: one `finish_conn` per live uid, in sorted order.
        for uid in h.live_uids() {
            h.finish_conn(&uid, conn_id(), t(3)).unwrap();
        }
        assert_eq!(h.live_sessions(), 0);
    }

    #[test]
    fn session_budget_trips_and_drop_conn_quarantines_one_flow() {
        use hilti_rt::error::ExceptionKind;

        let mut h = BinpacHttp::new(OptLevel::Full, None).unwrap();
        h.set_session_budget(1024);
        // A request claiming a huge body that never completes: buffered
        // state grows until the per-connection budget trips.
        h.feed(
            "C1",
            conn_id(),
            true,
            t(1),
            b"POST /upload HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
        )
        .unwrap();
        let mut tripped = None;
        for _ in 0..100 {
            if let Err(e) = h.feed("C1", conn_id(), true, t(2), &[b'x'; 256]) {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("per-connection budget never tripped");
        assert_eq!(e.kind, ExceptionKind::ResourceExhausted, "{e}");
        // Peak stays near the limit: the budget refused further growth.
        assert!(
            h.peak_session_bytes() <= 1024,
            "peak {}",
            h.peak_session_bytes()
        );
        // Tearing down only the poisoned flow leaves the parser usable.
        h.drop_conn("C1");
        assert_eq!(h.live_sessions(), 0);
        h.feed(
            "C2",
            conn_id(),
            true,
            t(3),
            b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
        assert!(h
            .take_events()
            .iter()
            .any(|e| matches!(e, Event::HttpRequest { .. })));
    }
}
