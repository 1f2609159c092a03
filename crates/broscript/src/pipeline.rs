//! End-to-end analysis pipelines: trace → parser stack → script engine →
//! logs.
//!
//! This is the experiment driver behind Tables 2/3 and Figures 9/10: it
//! replays a packet trace through either the *standard* handwritten parsers
//! or the *BinPAC++* generated ones, feeds the resulting events into either
//! script engine, and collects logs. With [`Governance::tracing`] on, the
//! run's [`TraceReport`] carries the time per stage — decode, parse, glue,
//! script — from which the figures' component breakdown is derived.

use std::collections::BTreeMap;

use hilti_rt::error::{RtError, RtResult};
use hilti_rt::telemetry::{Telemetry, TelemetrySnapshot};
use hilti_rt::time::Time;
use hilti_rt::trace::{FlightRecorder, TraceReport};

use netpkt::pcap::RawPacket;
use netpkt::TraceBuffer;

use crate::delivery::{
    flow_fields, freeze_recorder, quarantine_event, Analyzer, Blueprint, FlowFrontEnd, Proto,
    Wiring,
};
use crate::host::Engine;

/// Which protocol parsers produce the events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParserStack {
    /// Handwritten parsers (Bro's standard analyzers).
    Standard,
    /// BinPAC++-generated parsers on the HILTI VM.
    Binpac,
}

/// Result of one analysis run.
pub struct AnalysisResult {
    pub http_log: Vec<String>,
    pub files_log: Vec<String>,
    pub dns_log: Vec<String>,
    pub events: u64,
    pub packets: u64,
    pub output: Vec<String>,
    /// Flows torn down by the fault quarantine, with the error that
    /// killed each one (empty unless [`Governance::quarantine`] is set).
    pub flow_errors: Vec<FlowError>,
    /// Flows evicted by the idle-timeout policy.
    pub flows_expired: u64,
    /// High-water mark of budgeted per-flow parser state (BinPAC++
    /// stack with [`Governance::per_flow_heap`] set; 0 otherwise).
    pub peak_flow_bytes: u64,
    /// Datagrams that failed protocol parsing (DNS runs).
    pub parse_failures: u64,
    /// Per-connection state still held after the last packet, before the
    /// end-of-trace flush: what a trace that never ended would go on
    /// holding. Summed over shards, so equal for any worker count.
    pub held_at_end: HeldState,
    /// Frozen per-run metrics and structured events, populated when
    /// [`Governance::telemetry`] is set (empty otherwise). The metric and
    /// event names are a stable interface — see DESIGN.md
    /// ("Observability"). Contains no wall-time fields: equal traces
    /// yield byte-identical snapshots.
    pub telemetry: TelemetrySnapshot,
    /// Dispatch-plane metrics from the parallel pipeline (batch counts,
    /// batch-fill histogram, per-shard queue depths). Kept separate from
    /// [`telemetry`](Self::telemetry) because batch boundaries depend on
    /// the worker count: the merged snapshot stays byte-identical for any
    /// `N`, while this one is deterministic only for a fixed `(trace, N,
    /// batch)` configuration. Empty for sequential runs or when
    /// [`Governance::telemetry`] is off.
    pub dispatch_telemetry: TelemetrySnapshot,
    /// Shard workers that panicked or failed to join during a parallel
    /// run. The supervisor contains each fault to its shard: the shard's
    /// live flows are quarantined as `ShardPanic` in
    /// [`flow_errors`](Self::flow_errors) and the run completes. Always
    /// empty for sequential runs.
    pub shard_faults: Vec<ShardFault>,
    /// Delivery packets dropped at the dispatcher under
    /// `OverloadPolicy::Shed` (saturated shard ring). Always 0 under
    /// `Block` and for sequential runs.
    pub shed_packets: u64,
    /// Flight-recorder side-channel, populated when
    /// [`Governance::tracing`] is set: per-stage latency attribution,
    /// retained spans, and fault-triggered postmortem dumps. Carries
    /// wall-clock data, so — like
    /// [`dispatch_telemetry`](Self::dispatch_telemetry) — it lives next
    /// to the deterministic outputs, never inside them.
    pub trace: Option<TraceReport>,
}

/// Per-connection analysis state at one point of a run. A connection's
/// state goes when it closes or expires idle, so on a trace that never
/// ends these stay bounded by the connections still open.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeldState {
    /// Connections with parser state: standard HTTP parsers or BinPAC++
    /// sessions.
    pub parsers: u64,
    /// Entries in the script's global tables and sets.
    pub script_entries: u64,
}

/// Resource-governance policy for an analysis run. The default governs
/// nothing: no limits, no expiration, and the first error aborts the whole
/// run.
#[derive(Clone, Default)]
pub struct Governance {
    /// Evict flows — and their parser state — idle for longer than this
    /// many milliseconds of trace time. Checked after each packet against
    /// a heap of per-packet deadlines; only flows past the cutoff are
    /// examined.
    pub idle_timeout_ms: Option<u64>,
    /// Byte budget for each connection's buffered parser state
    /// (BinPAC++ stream sessions). Exceeding it raises
    /// `Hilti::ResourceExhausted` on that flow.
    pub per_flow_heap: Option<u64>,
    /// Execution-fuel budget applied to the script engine before every
    /// event dispatch.
    pub script_fuel: Option<u64>,
    /// Per-flow fault isolation: a parser or script error tears down only
    /// the offending flow (recorded in [`AnalysisResult::flow_errors`])
    /// and the run continues. Without it, errors abort the run.
    pub quarantine: bool,
    /// Collect per-flow and per-stage metrics plus structured events into
    /// [`AnalysisResult::telemetry`]. Off by default; the cost when on is
    /// a handful of relaxed atomic increments per packet.
    pub telemetry: bool,
    /// Wall-clock watchdog per delivery: every parser feed and script
    /// event dispatch must finish within this many milliseconds or it
    /// trips `Hilti::ResourceExhausted` on that flow (quarantined like
    /// any other flow fault). Bounds *time* where fuel bounds *work* —
    /// a wedged parser trips the deadline instead of stalling its shard
    /// ring. `None` (default) adds no checks at all. Deadline trips
    /// depend on wall-clock speed, so runs armed with this are not
    /// bit-deterministic under adversarial timing — use fuel where
    /// reproducibility matters.
    pub delivery_deadline_ms: Option<u64>,
    /// Flight-recorder tracing: record per-stage spans (dispatch, queue
    /// wait, decode, parse, glue, script, merge) into bounded per-shard
    /// rings and surface them as [`AnalysisResult::trace`]. The program's
    /// only wall-clock attribution, Figures 9/10's included. Off by
    /// default; the off path is a single branch per would-be span and
    /// reads no clock, and the on path never touches deterministic outputs.
    pub tracing: bool,
    /// Faults to inject, by packet slot (empty by default). Deliveries are
    /// numbered the same way by every driver, so a plan hits the same
    /// deliveries for every worker count.
    pub faults: Faults,
}

/// One injected fault. See [`Faults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The BinPAC++ parser VM raises `injected chaos fault` after `after`
    /// charged steps of this delivery (stream mode: the flow is
    /// quarantined; datagram mode: the datagram fails to parse). BinPAC++
    /// stack only.
    Parse { after: u64 },
    /// The shard that owns the delivery panics before processing it.
    /// Parallel runs only.
    Panic,
    /// The shard that owns the delivery sleeps `ms` milliseconds before
    /// processing it, and dumps its flight recorder as `injected stall`
    /// when tracing. Parallel runs only.
    Stall { ms: u64 },
    /// The delivery's payload is copied into the parser's buffer instead
    /// of borrowed from the trace arena. Outputs must not change; only the
    /// `pipeline.bytes_copied`/`bytes_borrowed` pair may.
    Copy,
}

/// A fault plan: at most one [`Fault`] per packet slot (the frame's index
/// in the trace). A fault at a slot that yields no delivery (an
/// undecodable frame), at a delivery no parser sees, or a `Parse` fault
/// whose delivery finishes within `after` steps never fires. A plan the
/// run cannot honour is the run's `Err` before the first packet.
pub type Faults = BTreeMap<u64, Fault>;

impl Governance {
    /// Rejects a `Parse` fault off the BinPAC++ stack, and a `Panic` or
    /// `Stall` without shards.
    pub(crate) fn check_faults(&self, stack: ParserStack, sharded: bool) -> RtResult<()> {
        for (slot, fault) in &self.faults {
            let honoured = match fault {
                Fault::Parse { .. } => stack == ParserStack::Binpac,
                Fault::Panic | Fault::Stall { .. } => sharded,
                Fault::Copy => true,
            };
            if !honoured {
                let run = if sharded { "parallel" } else { "sequential" };
                return Err(RtError::value(format!(
                    "fault plan: {fault:?} at slot {slot} cannot fire in a {run} {stack:?} run"
                )));
            }
        }
        Ok(())
    }
}

/// One flow the quarantine tore down.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowError {
    pub uid: String,
    /// Exception type name, e.g. `Hilti::ResourceExhausted`.
    pub kind: String,
    pub detail: String,
    pub ts: Time,
}

impl FlowError {
    pub(crate) fn new(uid: &str, e: &RtError, ts: Time) -> Self {
        FlowError {
            uid: uid.to_owned(),
            kind: e.kind.name().to_owned(),
            detail: e.to_string(),
            ts,
        }
    }

    /// The error kind recorded for flows lost to a shard fault. Not a
    /// HILTI exception: the failure domain is the worker thread, not the
    /// flow's own execution.
    pub const SHARD_PANIC: &'static str = "ShardPanic";

    pub(crate) fn shard_panic(uid: &str, ts: Time) -> Self {
        FlowError {
            uid: uid.to_owned(),
            kind: FlowError::SHARD_PANIC.to_owned(),
            detail: "owning shard worker panicked".to_owned(),
            ts,
        }
    }
}

/// One shard-worker failure a parallel run survived: a panic caught at
/// the supervision boundary, or a worker thread that could not be joined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFault {
    /// Index of the faulted shard (0-based).
    pub shard: usize,
    /// Panic payload or join-failure description.
    pub detail: String,
}

/// Loud `EventSink` overflow: a truncated event stream must not read as a
/// quiet run. One line on stderr, emitted by every pipeline flavor and by
/// `hiltic run`.
pub(crate) fn warn_event_drops(snapshot: &TelemetrySnapshot, context: &str) {
    if snapshot.events_dropped > 0 {
        eprintln!(
            "{context}: warning: telemetry event sink overflowed, {} event(s) dropped \
             (buffered stream is truncated)",
            snapshot.events_dropped
        );
    }
}

/// Replays an HTTP trace through the chosen parser stack and script engine.
pub fn run_http_analysis(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
) -> RtResult<AnalysisResult> {
    run_http_analysis_governed(packets, stack, engine, &Governance::default())
}

/// [`run_http_analysis`] under an explicit [`Governance`] policy.
pub fn run_http_analysis_governed(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
) -> RtResult<AnalysisResult> {
    run_sequential(packets, Proto::Http, stack, engine, gov).map(|(r, _)| r)
}

/// Replays a DNS trace through the chosen parser stack and script engine.
pub fn run_dns_analysis(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
) -> RtResult<AnalysisResult> {
    run_dns_analysis_governed(packets, stack, engine, &Governance::default())
}

/// [`run_dns_analysis`] under an explicit [`Governance`] policy.
pub fn run_dns_analysis_governed(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
) -> RtResult<AnalysisResult> {
    run_sequential(packets, Proto::Dns, stack, engine, gov).map(|(r, _)| r)
}

/// The inline driver of the delivery core ([`crate::delivery`]): the front
/// end feeds one [`Analyzer`] on the calling thread. Errors propagate with
/// `?` and effects are read straight off the host at the end — no effect
/// blocks, no merge. Also returns [`FlowFrontEnd::bookkeeping`].
pub(crate) fn run_sequential(
    packets: &[RawPacket],
    proto: Proto,
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
) -> RtResult<(AnalysisResult, (usize, usize))> {
    gov.check_faults(stack, false)?;
    let tel = gov.telemetry.then(Telemetry::new);
    let rec = gov.tracing.then(|| FlightRecorder::new(0).shared());
    let Blueprint { host, parsers } = Blueprint::build(proto, stack, engine)?;
    // One shared arena for the whole trace; deliveries borrow from it.
    let trace = TraceBuffer::from_packets(packets);
    let wiring = Wiring {
        telemetry: tel.clone(),
        rec: rec.clone(),
    };
    let host = host.into_host(rec.clone())?;
    let mut analyzer = Analyzer::new(host, &parsers, gov.clone(), trace.clone(), wiring)?;
    let mut front = FlowFrontEnd::new(
        trace.clone(),
        proto,
        stack,
        1,
        gov,
        tel.as_ref(),
        rec.clone(),
    );
    let mut flow_errors: Vec<FlowError> = Vec::new();
    // Front-end events go straight to the run's one sink, in program order.
    let mut emit = |kind, uid: &str, ts| {
        if let Some(t) = &tel {
            t.emit(kind, flow_fields(uid, ts));
        }
    };

    for slot in 0..trace.len() {
        let Some(d) = front.ingest(slot, &mut emit) else {
            continue;
        };
        analyzer.parse(&d, &mut flow_errors)?;
        let expired = front.expire(&d, &mut emit);
        analyzer.dispatch(d.slot, Some(&d.uid), &mut flow_errors)?;
        // Connections that ended go after the packet's events: first the
        // one this packet closed, then those it expired.
        if d.closed {
            analyzer.remove_connection(&d.uid, d.slot, d.ts, &mut flow_errors)?;
        }
        for (_, dead) in expired {
            analyzer.remove_connection(&dead, d.slot, d.ts, &mut flow_errors)?;
        }
        analyzer.observe_delivery(d.begin_ns);
    }

    // End of trace: flush all still-open connections, then dispatch what
    // the flush produced, then `bro_done`. Nothing is removed: the host
    // goes with the run.
    let held_at_end = analyzer.held();
    let (end, last_ts) = (front.packets, front.last_ts);
    for (_, uid) in front.finish_candidates() {
        analyzer.finish_flow(&uid, last_ts, end, &mut flow_errors)?;
    }
    analyzer.dispatch(end, None, &mut flow_errors)?;
    analyzer.done(last_ts, &mut flow_errors)?;

    analyzer.finish_metrics(&flow_errors);
    let telemetry = match &tel {
        Some(t) => {
            for ev in flow_errors.iter().map(quarantine_event) {
                t.emit(ev.kind, ev.fields);
            }
            t.snapshot()
        }
        None => TelemetrySnapshot::default(),
    };
    warn_event_drops(&telemetry, "pipeline");
    let trace_report = rec.map(|r| {
        let mut postmortems = Vec::new();
        let part = freeze_recorder(&r, &flow_errors, &mut postmortems);
        TraceReport::from_parts(vec![part], postmortems)
    });
    let result = AnalysisResult {
        http_log: analyzer.host.log_lines("http.log"),
        files_log: analyzer.host.log_lines("files.log"),
        dns_log: analyzer.host.log_lines("dns.log"),
        output: analyzer.host.take_output(),
        events: analyzer.n_events,
        packets: front.packets,
        flows_expired: front.flows_expired,
        peak_flow_bytes: analyzer.peak_flow_bytes(),
        parse_failures: analyzer.parse_failures,
        held_at_end,
        flow_errors,
        telemetry,
        dispatch_telemetry: TelemetrySnapshot::default(),
        shard_faults: Vec::new(),
        shed_packets: 0,
        trace: trace_report,
    };
    Ok((result, front.bookkeeping()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::logs::agreement;
    use netpkt::synth::{dns_trace, http_trace, SynthConfig};

    #[test]
    fn http_standard_stack_produces_logs() {
        let trace = http_trace(&SynthConfig::new(42, 15));
        let r = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        assert!(r.http_log.len() >= 10, "http.log: {}", r.http_log.len());
        assert!(!r.files_log.is_empty());
        assert!(r.events > 50);
        // Every line has the full column count.
        for l in &r.http_log {
            assert_eq!(l.matches('\t').count(), 12, "{l}");
        }
    }

    #[test]
    fn http_engines_agree_table3_shape() {
        // Table 3, HTTP rows: same parser stack, interpreter vs compiled.
        let trace = http_trace(&SynthConfig::new(7, 12));
        let a = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_http_analysis(&trace, ParserStack::Standard, Engine::Compiled).unwrap();
        let ag = agreement(&a.http_log, &b.http_log);
        assert_eq!(ag.percent(), 100.0, "http.log {ag:?}");
        let ag = agreement(&a.files_log, &b.files_log);
        assert_eq!(ag.percent(), 100.0, "files.log {ag:?}");
    }

    #[test]
    fn http_parser_stacks_agree_table2_shape() {
        // Table 2, HTTP rows: standard vs BinPAC++ parsers, same engine.
        let trace = http_trace(&SynthConfig::new(11, 12));
        let a = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_http_analysis(&trace, ParserStack::Binpac, Engine::Interpreted).unwrap();
        let ag = agreement(&a.http_log, &b.http_log);
        assert!(ag.percent() > 90.0, "http.log agreement {ag:?}");
        assert!(a.http_log.len() > 5);
        assert!(b.http_log.len() > 5);
    }

    #[test]
    fn dns_engines_agree() {
        let trace = dns_trace(&SynthConfig::new(3, 80));
        let a = run_dns_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_dns_analysis(&trace, ParserStack::Standard, Engine::Compiled).unwrap();
        assert!(a.dns_log.len() > 40);
        let ag = agreement(&a.dns_log, &b.dns_log);
        assert_eq!(ag.percent(), 100.0, "dns.log {ag:?}");
    }

    #[test]
    fn dns_parser_stacks_agree_except_txt() {
        let trace = dns_trace(&SynthConfig::new(13, 100));
        let a = run_dns_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
        let b = run_dns_analysis(&trace, ParserStack::Binpac, Engine::Interpreted).unwrap();
        assert_eq!(a.dns_log.len(), b.dns_log.len());
        let ag = agreement(&a.dns_log, &b.dns_log);
        // High but not perfect: multi-string TXT answers differ by design.
        assert!(ag.percent() > 80.0, "{ag:?}");
    }

    /// The figures' breakdown comes from the recorder's exclusive stage
    /// sums: glue shows up exactly where HILTI meets Bro (the BinPAC++
    /// event hooks, the compiled engine's argument conversion), and taking
    /// nested glue out of parse and script loses no time.
    #[test]
    fn recorder_attributes_components() {
        use hilti_rt::trace::Stage;
        let trace = http_trace(&SynthConfig::new(21, 6));
        let gov = Governance {
            tracing: true,
            ..Governance::default()
        };
        for stack in [ParserStack::Standard, ParserStack::Binpac] {
            for engine in [Engine::Interpreted, Engine::Compiled] {
                let what = format!("{stack:?} + {engine:?}");
                let r = run_http_analysis_governed(&trace, stack, engine, &gov).unwrap();
                let report = r.trace.expect("tracing is on");
                let total = |st: Stage| {
                    let s = report.latency.stages.iter().find(|s| s.stage == st);
                    s.map_or(0, |s| s.total_ns)
                };
                assert!(total(Stage::Parse) > 0, "{what}: parse");
                assert!(total(Stage::Script) > 0, "{what}: script");
                let meets = stack == ParserStack::Binpac || engine == Engine::Compiled;
                assert_eq!(total(Stage::Glue) > 0, meets, "{what}: glue");
                // Decode, parse, glue and script partition the time of the
                // spans that enclose the rest.
                assert_eq!(report.spans_dropped, 0, "{what}");
                let components: u64 = [Stage::Decode, Stage::Parse, Stage::Glue, Stage::Script]
                    .map(total)
                    .iter()
                    .sum();
                let stages: u64 = report.latency.stages.iter().map(|s| s.total_ns).sum();
                let outer: u64 = report
                    .spans
                    .iter()
                    .filter(|s| s.stage != Stage::Glue)
                    .map(|s| s.duration_ns())
                    .sum();
                assert_eq!((components, stages), (outer, outer), "{what}");
            }
        }
    }
}
