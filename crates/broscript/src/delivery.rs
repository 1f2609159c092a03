//! The delivery core: the one copy of the per-packet analysis path.
//!
//! Two halves, shared by every pipeline flavor:
//!
//! * [`FlowFrontEnd`] — the *global* half. Decodes frames, runs the flow
//!   table (uid assignment, TCP reassembly), keeps the per-flow
//!   bookkeeping (owning shard, whether parser state is live, first-seen
//!   order), detects `flow_open`/`flow_close`, sweeps idle flows, and
//!   fixes the end-of-trace flush order. Its decisions depend on the whole
//!   trace, so there is exactly one front end per run.
//! * [`Analyzer`] — the *per-flow* half. Owns the script host, the parser
//!   stack ([`ParserState`]), the quarantine set and one reused event
//!   buffer; `parse`, `dispatch`, `evict`, `finish_flow` and `done` each
//!   return `RtResult` and append quarantined failures to a caller-supplied
//!   ledger. All state a snapshot or a flow migration would have to move
//!   lives behind this type.
//!
//! A *driver* connects them. [`crate::pipeline`] drives one `Analyzer`
//! inline and propagates errors with `?`; [`crate::parallel`] ships the
//! front end's deliveries over SPSC rings to one supervised `Analyzer` per
//! shard and merges their sealed effects. A BinPAC++ protocol is a
//! [`binpac::Protocol`] run by the one [`ParserState::Binpac`] driver;
//! the analyzer branches on the driver's stream or datagram mode, never on
//! the protocol.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use binpac::analyzer::{AnalyzerIr, BinpacAnalyzer};
use hilti::passes::OptLevel;
use hilti::vm::DEADLINE_EXCEEDED;
use hilti_rt::bytestring::FeedChunk;
use hilti_rt::error::RtResult;
use hilti_rt::limits::ResourceLimits;
use hilti_rt::telemetry::{Counter, Event as TelemetryEvent, FieldValue, Histogram, Telemetry};
use hilti_rt::time::{Interval, Time};
use hilti_rt::trace::{
    self, monotonic_ns, FlightRecorder, PostmortemDump, RecorderPart, SharedRecorder, Stage,
};
use netpkt::decode::decode_frame;
use netpkt::events::{ConnId, Event};
use netpkt::flow::{shard_hash_frame, FlowTable};
use netpkt::http::HttpConnParser;
use netpkt::{PayloadRef, TraceBuffer};

use crate::host::{Engine, HostBlueprint, ScriptHost};
use crate::pipeline::{Fault, FlowError, Governance, HeldState, ParserStack};
use crate::scripts;

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proto {
    Http,
    Dns,
}

/// One reassembled segment (or datagram) of one flow, as the front end
/// hands it to a driver. Fixed-size: the uid is the flow table's interned
/// `Arc<str>` and the payload an `(offset, len)` slice of the shared trace
/// arena (owned bytes only when reassembly had to stitch segments).
pub(crate) struct Delivery {
    /// Packet slot: the frame's index in the trace.
    pub slot: u64,
    /// Owning shard (`shard_hash % workers`; 0 for a single worker).
    pub shard: usize,
    pub uid: Arc<str>,
    pub id: ConnId,
    pub is_orig: bool,
    pub ts: Time,
    pub payload: PayloadRef,
    /// The first FIN or RST of the flow: its parsers finish.
    pub finished: bool,
    /// The connection closed with this segment (both FINs in, nothing
    /// missing): once its events are dispatched, its state is released.
    pub closed: bool,
    /// The connection closed with an earlier segment: this one (its last
    /// ACK, a retransmitted FIN) reaches no parser, and any payload was
    /// dropped by the front end.
    pub after_close: bool,
    /// Where end-to-end delivery latency starts ([`monotonic_ns`]): decode
    /// begin, or ring enqueue once a dispatcher restamps it. 0 when
    /// tracing is off.
    pub begin_ns: u64,
}

/// The `uid` + `ts_ns` field pair every per-flow telemetry event carries.
pub(crate) fn flow_fields(uid: &str, ts: Time) -> Vec<(&'static str, FieldValue)> {
    vec![("uid", uid.into()), ("ts_ns", ts.nanos().into())]
}

/// Counts one quarantined flow into `telemetry`'s ledger counters.
pub(crate) fn count_quarantine(telemetry: &Telemetry, kind: &str) {
    telemetry.counter("pipeline.flows_quarantined").inc();
    telemetry
        .counter(&format!("pipeline.flow_errors.{kind}"))
        .inc();
}

/// The `quarantine` event for one ledger entry. Every pipeline flavor
/// emits these after all other events, in ledger order.
pub(crate) fn quarantine_event(fe: &FlowError) -> TelemetryEvent {
    TelemetryEvent {
        kind: "quarantine",
        fields: vec![
            ("uid", fe.uid.as_str().into()),
            ("kind", fe.kind.as_str().into()),
            ("ts_ns", fe.ts.nanos().into()),
        ],
    }
}

/// Cap on postmortem dumps per recorder: a panic storm should not turn
/// the trace side-channel into an unbounded allocation.
pub(crate) const MAX_POSTMORTEMS: usize = 8;

/// Freezes a recorder into its `Send` part. The binpac parsers may still
/// hold `Rc` clones, so the recorder is swapped out rather than unwrapped
/// (their clones point at a dead 1-slot stub from here on). A watchdog
/// trip among `flow_errors` dumps the recorder tail too.
pub(crate) fn freeze_recorder(
    rec: &SharedRecorder,
    flow_errors: &[FlowError],
    postmortems: &mut Vec<PostmortemDump>,
) -> RecorderPart {
    let part =
        std::mem::replace(&mut *rec.borrow_mut(), FlightRecorder::with_capacity(0, 1)).finish();
    if postmortems.len() < MAX_POSTMORTEMS
        && flow_errors
            .iter()
            .any(|fe| fe.detail.ends_with(DEADLINE_EXCEEDED))
    {
        postmortems.push(part.postmortem("ResourceExhausted (delivery watchdog)"));
    }
    part
}

/// Per-flow front-end bookkeeping. Dropped when the flow is evicted — a
/// uid is never reused, so nothing can refer to it again.
struct FlowMeta {
    /// `u32`, so the entry stays at 16 bytes: there is one per live flow.
    shard: u32,
    /// Whether the owning analyzer still holds parser state for the flow
    /// (the end-of-trace flush only targets live flows).
    live: bool,
    /// The connection closed, and its owner released its state then: an
    /// idle eviction later has nothing left to remove.
    closed: bool,
    /// First-seen rank: the standard stack's flush order.
    seq: u64,
}

/// When the front end sweeps idle flows: after a packet that carries trace
/// time past some earlier packet's `ts + idle_timeout`. Deadlines only,
/// and a clock that never runs backwards, like the `TimerMgr` it replaces.
#[derive(Default)]
struct IdleClock {
    now: Time,
    pending: BinaryHeap<Reverse<Time>>,
}

impl IdleClock {
    /// Adds a packet at `ts` with deadline `deadline`; true when some
    /// pending deadline (this one included) has passed.
    fn passed(&mut self, ts: Time, deadline: Time) -> bool {
        self.now = self.now.max(ts);
        self.pending.push(Reverse(deadline));
        let mut passed = false;
        while self.pending.peek().is_some_and(|Reverse(d)| *d <= self.now) {
            self.pending.pop();
            passed = true;
        }
        passed
    }
}

/// Front-end metric handles (the shared-decision counters).
struct FrontMetrics {
    telemetry: Telemetry,
    packets: Counter,
    flows_opened: Counter,
    flows_closed: Counter,
    flows_expired: Counter,
}

/// The global half of the delivery path. See the module docs.
pub(crate) struct FlowFrontEnd {
    trace: Arc<TraceBuffer>,
    proto: Proto,
    stack: ParserStack,
    workers: usize,
    idle_timeout_ms: Option<u64>,
    flows: FlowTable,
    idle: IdleClock,
    meta: HashMap<Arc<str>, FlowMeta>,
    next_seq: u64,
    metrics: Option<FrontMetrics>,
    rec: Option<SharedRecorder>,
    pub packets: u64,
    pub flows_expired: u64,
    pub last_ts: Time,
}

impl FlowFrontEnd {
    pub(crate) fn new(
        trace: Arc<TraceBuffer>,
        proto: Proto,
        stack: ParserStack,
        workers: usize,
        gov: &Governance,
        telemetry: Option<&Telemetry>,
        rec: Option<SharedRecorder>,
    ) -> FlowFrontEnd {
        FlowFrontEnd {
            trace,
            proto,
            stack,
            workers,
            idle_timeout_ms: gov.idle_timeout_ms,
            flows: FlowTable::new(),
            idle: IdleClock::default(),
            meta: HashMap::new(),
            next_seq: 0,
            metrics: telemetry.map(|t| FrontMetrics {
                telemetry: t.clone(),
                packets: t.counter("pipeline.packets"),
                flows_opened: t.counter("pipeline.flows_opened"),
                flows_closed: t.counter("pipeline.flows_closed"),
                flows_expired: t.counter("pipeline.flows_expired"),
            }),
            rec,
            packets: 0,
            flows_expired: 0,
            last_ts: Time::ZERO,
        }
    }

    /// Decodes frame `slot` and runs it through the flow table. `emit`
    /// receives `flow_open` / `flow_close` (only when telemetry is on).
    /// `None` for an undecodable frame, which is counted and skipped.
    pub(crate) fn ingest(
        &mut self,
        slot: usize,
        emit: &mut dyn FnMut(&'static str, &str, Time),
    ) -> Option<Delivery> {
        let (frame_data, ts) = self.trace.frame(slot);
        self.packets += 1;
        self.last_ts = ts;
        if let Some(m) = &self.metrics {
            m.packets.inc();
        }
        let begin_ns = if self.rec.is_some() {
            monotonic_ns()
        } else {
            0
        };
        let f = decode_frame(frame_data, ts).ok()?;
        let shard = match self.workers {
            1 => 0,
            n => (shard_hash_frame(&f) % n as u64) as usize,
        };
        let delivery = self
            .flows
            .process_shared(&f, frame_data, self.trace.frame_offset(slot));
        let uid = delivery.flow.uid.clone();
        let after_close = delivery.flow.closed() && !delivery.closed_now;
        let mut payload = delivery.payload;
        if after_close && !payload.is_empty() {
            // Data past both FINs: TCP says there is none, so it is
            // dropped here and counted (registered on first use, so runs
            // without any keep their snapshot).
            if let Some(m) = &self.metrics {
                let dropped = m.telemetry.counter("pipeline.bytes_after_close");
                dropped.add(payload.len() as u64);
            }
            payload = PayloadRef::Empty;
        }
        let d = Delivery {
            slot: slot as u64,
            shard,
            id: delivery.flow.id,
            is_orig: delivery.is_orig,
            ts,
            finished: delivery.finished_now,
            closed: delivery.closed_now,
            after_close,
            payload,
            begin_ns,
            uid,
        };
        if let Some(r) = &self.rec {
            r.borrow_mut()
                .record(Stage::Decode, d.slot, Some(&d.uid), begin_ns);
        }
        let (seq, mut opened) = (self.next_seq, false);
        let m = self.meta.entry(d.uid.clone()).or_insert_with(|| {
            opened = true;
            let shard = shard as u32;
            FlowMeta {
                shard,
                live: false,
                closed: false,
                seq,
            }
        });
        // Whether the owning analyzer holds parser state after this
        // delivery. None once the connection closed; before that, the
        // standard HTTP parser is created on any delivery (its `finish` is
        // idempotent), a BinPAC++ session exists iff payload arrived since
        // the last finish/teardown, and DNS keeps none. Quarantined flows
        // stay "live" here — the analyzer's presence check makes their
        // flush a no-op.
        m.closed = d.closed || d.after_close;
        m.live = !m.closed
            && match (self.proto, self.stack) {
                (Proto::Dns, _) => false,
                (Proto::Http, ParserStack::Standard) => true,
                (Proto::Http, ParserStack::Binpac) => {
                    (m.live || !d.payload.is_empty()) && !d.finished
                }
            };
        if opened {
            self.next_seq += 1;
            if let Some(m) = &self.metrics {
                m.flows_opened.inc();
                emit("flow_open", &d.uid, ts);
            }
        }
        if d.finished {
            if let Some(m) = &self.metrics {
                m.flows_closed.inc();
                emit("flow_close", &d.uid, ts);
            }
        }
        Some(d)
    }

    /// Idle-flow expiry on trace time, after delivery `d`: once some
    /// packet's deadline passes, the flow table evicts the flows idle for
    /// longer than the timeout, examining only those. Returns the `(shard,
    /// uid)` of every evicted flow that had not closed — the owning
    /// analyzer must remove it — and hands `emit` one `timer_expiry` per
    /// evicted flow. A *global* decision: shard-local sweeps would fire at
    /// different packet positions for different worker counts.
    pub(crate) fn expire(
        &mut self,
        d: &Delivery,
        emit: &mut dyn FnMut(&'static str, &str, Time),
    ) -> Vec<(usize, Arc<str>)> {
        let Some(ms) = self.idle_timeout_ms else {
            return Vec::new();
        };
        if !self
            .idle
            .passed(d.ts, d.ts + Interval::from_millis(ms as i64))
        {
            return Vec::new();
        }
        let cutoff = Time::from_nanos(d.ts.nanos().saturating_sub(ms.saturating_mul(1_000_000)));
        let mut evicted = Vec::new();
        for dead in self.flows.expire_idle_uids(cutoff) {
            if let Some(m) = &self.metrics {
                m.flows_expired.inc();
                emit("timer_expiry", &dead, d.ts);
            }
            self.flows_expired += 1;
            match self.meta.remove(&dead) {
                Some(m) if !m.closed => evicted.push((m.shard as usize, dead)),
                _ => {}
            }
        }
        evicted
    }

    /// End-of-trace flush order over the still-live flows, as `(shard,
    /// uid)`: first-seen for the standard stack, sorted uid for BinPAC++
    /// (its own teardown order). Closed and expired flows dropped their
    /// parser state already and are not candidates.
    pub(crate) fn finish_candidates(&self) -> Vec<(usize, Arc<str>)> {
        let mut cands: Vec<(&Arc<str>, &FlowMeta)> =
            self.meta.iter().filter(|(_, m)| m.live).collect();
        match self.stack {
            ParserStack::Standard => cands.sort_by_key(|(_, m)| m.seq),
            ParserStack::Binpac => cands.sort_by_key(|(uid, _)| *uid),
        }
        cands
            .into_iter()
            .map(|(uid, m)| (m.shard as usize, uid.clone()))
            .collect()
    }

    /// Every flow still tracked, as `(shard, uid)` in first-seen order.
    pub(crate) fn tracked(&self) -> Vec<(usize, Arc<str>)> {
        let mut all: Vec<(&Arc<str>, &FlowMeta)> = self.meta.iter().collect();
        all.sort_by_key(|(_, m)| m.seq);
        all.into_iter()
            .map(|(uid, m)| (m.shard as usize, uid.clone()))
            .collect()
    }

    /// `(bookkeeping entries, flows in the flow table)`: the first must
    /// not outgrow the second.
    pub(crate) fn bookkeeping(&self) -> (usize, usize) {
        (self.meta.len(), self.flows.len())
    }
}

/// The parser stack's front-end artifacts: `Send`, built once.
pub(crate) struct ParserBlueprint {
    proto: Proto,
    /// The generated analyzer's optimized IR (BinPAC++ stack only).
    ir: Option<AnalyzerIr>,
}

/// Front-end build artifacts of one analysis engine: the script host
/// blueprint plus the parser stack's. Built once per run — each
/// [`Analyzer`] built from it pays only bytecode lowering.
pub(crate) struct Blueprint {
    pub host: HostBlueprint,
    pub parsers: ParserBlueprint,
}

impl Blueprint {
    pub(crate) fn build(proto: Proto, stack: ParserStack, engine: Engine) -> RtResult<Blueprint> {
        let script = match proto {
            Proto::Http => scripts::HTTP_BRO,
            Proto::Dns => scripts::DNS_BRO,
        };
        let host = ScriptHost::blueprint(&[script], engine, None)?;
        let ir = match (stack, proto) {
            (ParserStack::Standard, _) => None,
            (ParserStack::Binpac, Proto::Http) => Some(&binpac::http::HTTP),
            (ParserStack::Binpac, Proto::Dns) => Some(&binpac::dns::DNS),
        };
        let ir = ir
            .map(|p| BinpacAnalyzer::front_end(p, OptLevel::Full))
            .transpose()?;
        let parsers = ParserBlueprint { proto, ir };
        Ok(Blueprint { host, parsers })
    }
}

/// All per-flow parser state of one analyzer: a standard parser, or the
/// BinPAC++ driver for either protocol.
enum ParserState {
    StdHttp(HashMap<Arc<str>, HttpConnParser>),
    StdDns,
    Binpac(Box<BinpacAnalyzer>),
}

impl ParserState {
    /// Whether flows are streams (sessions per connection) rather than
    /// independent datagrams.
    fn is_stream(&self) -> bool {
        match self {
            ParserState::StdHttp(_) => true,
            ParserState::StdDns => false,
            ParserState::Binpac(b) => b.is_stream(),
        }
    }
}

/// What an engine reports into: shared by the host, the parser stack and
/// the analyzer's own accounting.
pub(crate) struct Wiring {
    pub telemetry: Option<Telemetry>,
    /// Flight recorder: thread-local, shared (same-thread `Rc`) with the
    /// script host and the binpac parsers, which record their glue and
    /// parse spans into it under the delivery the analyzer labelled.
    pub rec: Option<SharedRecorder>,
}

/// The only place a parser stack is constructed and wired — for first
/// builds, sequential runs and post-panic respawns alike.
fn build_engine(
    mut host: ScriptHost,
    bp: &ParserBlueprint,
    gov: &Governance,
    w: &Wiring,
) -> RtResult<(ScriptHost, ParserState)> {
    if let Some(t) = &w.telemetry {
        host.set_telemetry(t);
    }
    let parsers = match (&bp.ir, bp.proto) {
        (None, Proto::Http) => ParserState::StdHttp(HashMap::new()),
        (None, Proto::Dns) => ParserState::StdDns,
        (Some(ir), _) => {
            let mut b = BinpacAnalyzer::from_ir(ir, w.rec.clone())?;
            if let Some(n) = gov.per_flow_heap {
                b.set_session_budget(n);
            }
            if let Some(t) = &w.telemetry {
                b.set_telemetry(t);
            }
            b.set_delivery_deadline_ms(gov.delivery_deadline_ms);
            ParserState::Binpac(Box::new(b))
        }
    };
    Ok((host, parsers))
}

/// Analyzer-side metric handles (summed across shards by the merge).
struct AnalyzerMetrics {
    bytes_parsed: Counter,
    bytes_copied: Counter,
    bytes_borrowed: Counter,
    parse_failures: Counter,
    payload_bytes: Histogram,
    connections_removed: Counter,
}

/// Builds standard-parser DNS events for one datagram (the handwritten
/// counterpart of `binpac::dns::DNS`). `false` if it is not DNS.
pub(crate) fn standard_dns_events(
    uid: &Arc<str>,
    id: ConnId,
    ts: Time,
    payload: &[u8],
    sink: &mut Vec<Event>,
) -> bool {
    let Ok(msg) = netpkt::dns::parse_message(payload) else {
        return false;
    };
    if msg.is_response {
        sink.push(Event::DnsReply {
            ts,
            uid: uid.clone(),
            id,
            trans_id: msg.id,
            rcode: msg.rcode,
            answers: msg.answers,
        });
    } else if let Some(q) = msg.questions.into_iter().next() {
        sink.push(Event::DnsRequest {
            ts,
            uid: uid.clone(),
            id,
            trans_id: msg.id,
            query: q.name,
            qtype: q.qtype,
        });
    }
    true
}

/// Placeholder ConnId for flushing connections whose close was never seen.
fn placeholder_id() -> ConnId {
    ConnId {
        orig_h: hilti_rt::addr::Addr::v4(0, 0, 0, 0),
        orig_p: hilti_rt::addr::Port::tcp(0),
        resp_h: hilti_rt::addr::Addr::v4(0, 0, 0, 0),
        resp_p: hilti_rt::addr::Port::tcp(0),
    }
}

/// The per-flow half of the delivery path. See the module docs.
///
/// Under [`Governance::quarantine`] a parser or script failure is charged
/// to its flow — appended to the caller's ledger — and the method returns
/// `Ok`; without it the first failure comes back as `Err` and the driver
/// decides what that means (sequential: abort the run; shard: record it as
/// fatal at the current merge key).
pub(crate) struct Analyzer {
    pub gov: Governance,
    trace: Arc<TraceBuffer>,
    pub host: ScriptHost,
    parsers: ParserState,
    quarantined: HashSet<Arc<str>>,
    /// Parsed-but-not-yet-dispatched events: filled by `parse` /
    /// `finish_flow`, drained by `dispatch`. One buffer, reused.
    events: Vec<Event>,
    pub wiring: Wiring,
    metrics: Option<AnalyzerMetrics>,
    pub n_events: u64,
    pub parse_failures: u64,
}

impl Analyzer {
    /// Builds an analyzer around `host` (which the caller materialized
    /// from the same blueprint, with `wiring.rec` attached).
    pub(crate) fn new(
        host: ScriptHost,
        bp: &ParserBlueprint,
        gov: Governance,
        trace: Arc<TraceBuffer>,
        wiring: Wiring,
    ) -> RtResult<Analyzer> {
        let (host, parsers) = build_engine(host, bp, &gov, &wiring)?;
        Ok(Analyzer {
            gov,
            trace,
            host,
            parsers,
            quarantined: HashSet::new(),
            events: Vec::new(),
            metrics: wiring.telemetry.as_ref().map(|t| AnalyzerMetrics {
                bytes_parsed: t.counter("pipeline.bytes_parsed"),
                bytes_copied: t.counter("pipeline.bytes_copied"),
                bytes_borrowed: t.counter("pipeline.bytes_borrowed"),
                parse_failures: t.counter("pipeline.parse_failures"),
                payload_bytes: t.histogram("pipeline.payload_bytes"),
                connections_removed: t.counter("pipeline.connections_removed"),
            }),
            wiring,
            n_events: 0,
            parse_failures: 0,
        })
    }

    /// Replaces the engine pieces — script host and parser stack — with
    /// fresh ones (post-panic recovery); the quarantine set, counters and
    /// wiring carry over. The new host starts with empty logs.
    pub(crate) fn respawn(&mut self, host: ScriptHost, bp: &ParserBlueprint) -> RtResult<()> {
        let (host, parsers) = build_engine(host, bp, &self.gov, &self.wiring)?;
        self.host = host;
        self.parsers = parsers;
        self.events.clear();
        Ok(())
    }

    pub(crate) fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Uids of every flow this analyzer holds parser state for, unordered.
    pub(crate) fn live_uids(&self) -> Vec<Arc<str>> {
        match &self.parsers {
            ParserState::StdHttp(map) => map.keys().cloned().collect(),
            ParserState::StdDns => Vec::new(),
            ParserState::Binpac(b) => b.live_uids(),
        }
    }

    /// High-water mark of budgeted per-flow parser state.
    pub(crate) fn peak_flow_bytes(&self) -> u64 {
        match &self.parsers {
            ParserState::Binpac(b) => b.peak_session_bytes(),
            _ => 0,
        }
    }

    /// Marks a flow as lost (shard-panic ledger). `false` if it already was.
    pub(crate) fn quarantine(&mut self, uid: &Arc<str>) -> bool {
        self.quarantined.insert(uid.clone())
    }

    /// Labels the spans recorded from here on — the analyzer's own, the
    /// parser stack's and the host's — with the delivery `(slot, uid)`.
    fn label(&self, slot: u64, uid: Option<&Arc<str>>) {
        if let Some(r) = &self.wiring.rec {
            r.borrow_mut().set_current(slot, uid);
        }
    }

    /// Feeds one delivery to the flow's parser, appending the resulting
    /// events to the pending buffer.
    pub(crate) fn parse(&mut self, d: &Delivery, errors: &mut Vec<FlowError>) -> RtResult<()> {
        // A stream sees every segment of a flow that is neither closed nor
        // quarantined (an empty one may still finish it); a datagram
        // parser sees payload only, and a bad datagram never condemns its
        // flow.
        let skip = if self.parsers.is_stream() {
            d.after_close || self.quarantined.contains(&*d.uid)
        } else {
            d.payload.is_empty()
        };
        if skip {
            return Ok(());
        }
        self.label(d.slot, Some(&d.uid));
        let (forced_copy, parse_fault) = match self.gov.faults.get(&d.slot) {
            Some(Fault::Copy) => (true, None),
            Some(Fault::Parse { after }) => (false, Some(*after)),
            _ => (false, None),
        };
        if let Some(m) = self.metrics.as_ref().filter(|_| !d.payload.is_empty()) {
            let len = d.payload.len() as u64;
            m.bytes_parsed.add(len);
            m.payload_bytes.observe(len);
            // Borrowed from the trace arena (zero-copy) or materialized
            // into parser-owned memory (out-of-order reassembly output, or
            // a `Fault::Copy`).
            match &d.payload {
                PayloadRef::Shared { .. } if !forced_copy => m.bytes_borrowed.add(len),
                _ => m.bytes_copied.add(len),
            }
        }
        let rec = self.wiring.rec.as_ref();
        let bytes = || d.payload.resolve(&self.trace);
        let chunk = || {
            if forced_copy {
                FeedChunk::Copy(bytes())
            } else {
                d.payload.feed_chunk(&self.trace)
            }
        };
        // `Ok(false)`: the payload is not a message of this protocol.
        // The first FIN or RST finishes a stream's parsers, and so does the
        // close: data may have followed the first FIN.
        let finish = d.finished || d.closed;
        let outcome: RtResult<bool> = match &mut self.parsers {
            ParserState::StdHttp(map) => trace::span(rec, Stage::Parse, || {
                let parser = map
                    .entry(d.uid.clone())
                    .or_insert_with(|| HttpConnParser::new(d.uid.to_string(), d.id));
                if !d.payload.is_empty() {
                    parser.feed(d.is_orig, bytes(), d.ts, &mut self.events);
                }
                if finish {
                    parser.finish(d.ts, &mut self.events);
                }
                Ok(true)
            }),
            ParserState::StdDns => trace::span(rec, Stage::Parse, || {
                Ok(standard_dns_events(
                    &d.uid,
                    d.id,
                    d.ts,
                    bytes(),
                    &mut self.events,
                ))
            }),
            // (The driver records its own parse spans through the shared
            // recorder — see `build_engine`.)
            ParserState::Binpac(b) => {
                let r = b.inject_fault_after(parse_fault, |b| {
                    if !b.is_stream() {
                        return b.datagram_chunk(&d.uid, d.id, d.ts, chunk());
                    }
                    let mut r = Ok(());
                    if !d.payload.is_empty() {
                        r = b.feed_chunk(&d.uid, d.id, d.is_orig, d.ts, chunk());
                    }
                    if r.is_ok() && finish {
                        r = b.finish_conn(&d.uid, d.id, d.ts);
                    }
                    r.map(|()| true)
                });
                // Events emitted before a fault still count.
                b.drain_events_into(&mut self.events);
                r
            }
        };
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                self.parse_failures += 1;
                if let (Some(m), Some(t)) = (&self.metrics, &self.wiring.telemetry) {
                    m.parse_failures.inc();
                    t.emit("parser_error", flow_fields(&d.uid, d.ts));
                }
            }
            Err(e) => {
                if !self.gov.quarantine {
                    return Err(e);
                }
                // A faulted stream is torn down and stays quarantined
                // until evicted; a faulted datagram costs only itself.
                if let ParserState::Binpac(b) = &mut self.parsers {
                    if b.is_stream() {
                        b.drop_conn(&d.uid);
                        self.quarantined.insert(d.uid.clone());
                    }
                }
                errors.push(FlowError::new(&d.uid, &e, d.ts));
            }
        }
        Ok(())
    }

    /// Dispatches the pending events to the script: the fuel budget is
    /// re-armed per event, and a failure is charged to the event's flow.
    /// `slot`/`uid` label the script span.
    pub(crate) fn dispatch(
        &mut self,
        slot: u64,
        uid: Option<&Arc<str>>,
        errors: &mut Vec<FlowError>,
    ) -> RtResult<()> {
        if self.events.is_empty() {
            return Ok(());
        }
        self.label(slot, uid);
        trace::span(self.wiring.rec.as_ref(), Stage::Script, || {
            let mut result = Ok(());
            for ev in &self.events {
                self.n_events += 1;
                arm_script_limits(&mut self.host, &self.gov);
                if let Err(e) = self.host.dispatch_event(ev) {
                    if !self.gov.quarantine {
                        result = Err(e);
                        break;
                    }
                    errors.push(FlowError::new(ev.uid(), &e, ev.ts()));
                }
            }
            self.events.clear();
            result
        })
    }

    /// End-to-end latency of a delivery that began at `begin_ns` — the
    /// tail-latency signal the report's p99 and top-K table summarize.
    pub(crate) fn observe_delivery(&self, begin_ns: u64) {
        if let Some(r) = &self.wiring.rec {
            r.borrow_mut()
                .observe_delivery(monotonic_ns().saturating_sub(begin_ns));
        }
    }

    /// The connection ended — it closed with the delivery just
    /// dispatched, or the front end expired it idle: drop its parser
    /// state, lift its quarantine, and run the script's removal handler
    /// under the per-event limits, a failure charged to the flow like an
    /// event's. `slot` labels the script span.
    pub(crate) fn remove_connection(
        &mut self,
        uid: &Arc<str>,
        slot: u64,
        ts: Time,
        errors: &mut Vec<FlowError>,
    ) -> RtResult<()> {
        match &mut self.parsers {
            ParserState::StdHttp(map) => {
                map.remove(uid);
            }
            ParserState::StdDns => {}
            ParserState::Binpac(b) => b.drop_conn(uid),
        }
        self.quarantined.remove(uid);
        if let Some(m) = &self.metrics {
            m.connections_removed.inc();
        }
        self.label(slot, Some(uid));
        arm_script_limits(&mut self.host, &self.gov);
        let removed = trace::span(self.wiring.rec.as_ref(), Stage::Script, || {
            self.host.remove_connection(uid)
        });
        if let Err(e) = removed {
            if !self.gov.quarantine {
                return Err(e);
            }
            errors.push(FlowError::new(uid, &e, ts));
        }
        Ok(())
    }

    /// Per-connection state held right now: see [`HeldState`].
    pub(crate) fn held(&self) -> HeldState {
        let parsers = match &self.parsers {
            ParserState::StdHttp(map) => map.len(),
            ParserState::StdDns => 0,
            ParserState::Binpac(b) => b.live_sessions(),
        };
        HeldState {
            parsers: parsers as u64,
            script_entries: self.host.global_entries(),
        }
    }

    /// End-of-trace flush of one still-open flow; its events join the
    /// pending buffer. A flow whose parser state is already gone (closed,
    /// quarantined, never fed) is a no-op. `slot` labels the parse span.
    pub(crate) fn finish_flow(
        &mut self,
        uid: &Arc<str>,
        ts: Time,
        slot: u64,
        errors: &mut Vec<FlowError>,
    ) -> RtResult<()> {
        self.label(slot, Some(uid));
        match &mut self.parsers {
            ParserState::StdHttp(map) => {
                if let Some(mut parser) = map.remove(uid) {
                    trace::span(self.wiring.rec.as_ref(), Stage::Parse, || {
                        parser.finish(ts, &mut self.events)
                    });
                }
            }
            ParserState::Binpac(b) if b.has_conn(uid) => {
                let r = b.finish_conn(uid, placeholder_id(), ts);
                b.drain_events_into(&mut self.events);
                if let Err(e) = r {
                    if !self.gov.quarantine {
                        return Err(e);
                    }
                    b.drop_conn(uid);
                    errors.push(FlowError::new(uid, &e, ts));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// End of run: re-arms the script limits and fires `bro_done`.
    pub(crate) fn done(&mut self, ts: Time, errors: &mut Vec<FlowError>) -> RtResult<()> {
        arm_script_limits(&mut self.host, &self.gov);
        if let Err(e) = self.host.done() {
            if !self.gov.quarantine {
                return Err(e);
            }
            errors.push(FlowError::new("-", &e, ts));
        }
        Ok(())
    }

    /// Exports the end-of-run metrics: dispatched-event count, the peak
    /// per-flow heap gauge, and the quarantine counters for `ledger` (the
    /// entries this analyzer is accountable for).
    pub(crate) fn finish_metrics(&self, ledger: &[FlowError]) {
        let Some(t) = &self.wiring.telemetry else {
            return;
        };
        t.counter("pipeline.events_dispatched").add(self.n_events);
        t.gauge("pipeline.peak_flow_heap_bytes")
            .set_max(self.peak_flow_bytes());
        for fe in ledger {
            count_quarantine(t, &fe.kind);
        }
    }
}

/// Re-arms the script engine's per-event limits — the fuel budget and the
/// delivery deadline — when either is configured. A no-op otherwise, so
/// ungoverned runs pay nothing.
fn arm_script_limits(host: &mut ScriptHost, gov: &Governance) {
    if gov.script_fuel.is_some() || gov.delivery_deadline_ms.is_some() {
        host.set_limits(ResourceLimits {
            fuel: gov.script_fuel,
            deadline_ms: gov.delivery_deadline_ms,
            ..ResourceLimits::default()
        });
    }
}
