//! Connection state ends with the connection: after the last packet, no
//! parser, BinPAC++ session or `HTTP_BRO` table entry is left for a
//! connection that closed or expired idle, on either parser stack, either
//! script engine, sequentially and sharded. `pipeline.connections_removed`
//! counts each ended connection once.

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_http_analysis_governed, AnalysisResult, Governance, HeldState, ParserStack,
};
use netpkt::decode::{decode_ethernet, Transport};
use netpkt::flow::FlowTable;
use netpkt::pcap::RawPacket;
use netpkt::synth::throughput_trace;

/// Per-uid tables in `HTTP_BRO`: the most one connection can hold.
const TABLES: u64 = 11;

/// Connections the flow table closes on `trace`: the oracle for the
/// removal counter.
fn closed_connections(trace: &[RawPacket]) -> u64 {
    let mut flows = FlowTable::new();
    let closing = trace.iter().filter(|p| {
        let pkt = decode_ethernet(p).expect("synthetic frames decode");
        flows.process(&pkt).closed_now
    });
    closing.count() as u64
}

/// `trace` without its FINs: no connection ever closes.
fn without_fins(trace: &[RawPacket]) -> Vec<RawPacket> {
    let fin = |p: &RawPacket| {
        let pkt = decode_ethernet(p).expect("synthetic frames decode");
        matches!(pkt.transport, Transport::Tcp(t) if t.fin())
    };
    trace.iter().filter(|p| !fin(p)).cloned().collect()
}

/// The sequential run and the 2-worker run, which must agree.
fn runs(
    trace: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    gov: Governance,
) -> AnalysisResult {
    let seq = run_http_analysis_governed(trace, stack, engine, &gov).expect("sequential run");
    let opts = PipelineOptions {
        workers: 2,
        governance: gov,
        ..Default::default()
    };
    let par = run_http_analysis_parallel(trace, stack, engine, &opts).expect("2-worker run");
    assert_eq!(
        seq.held_at_end, par.held_at_end,
        "held state, x2 vs sequential"
    );
    assert_eq!(
        seq.telemetry.counter("pipeline.connections_removed"),
        par.telemetry.counter("pipeline.connections_removed"),
        "removals, x2 vs sequential"
    );
    seq
}

fn matrix(mut check: impl FnMut(&str, ParserStack, Engine)) {
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        for engine in [Engine::Interpreted, Engine::Compiled] {
            check(&format!("{stack:?} {engine:?}"), stack, engine);
        }
    }
}

fn governance(idle_timeout_ms: Option<u64>) -> Governance {
    Governance {
        idle_timeout_ms,
        quarantine: true,
        telemetry: true,
        ..Governance::default()
    }
}

#[test]
fn closed_connections_leave_no_state() {
    // With an idle timeout, closed flows expire later: nothing is removed
    // twice.
    for (flows, idles) in [(1_000, &[None, Some(10)][..]), (4_000, &[None])] {
        let trace = throughput_trace(5, flows);
        let closed = closed_connections(&trace);
        assert_eq!(closed, flows as u64, "every synthetic session closes");
        for &idle in idles {
            matrix(|what, stack, engine| {
                let r = runs(&trace, stack, engine, governance(idle));
                let what = format!("{flows} flows, idle {idle:?}, {what}");
                assert_eq!(r.held_at_end, HeldState::default(), "{what}");
                assert_eq!(
                    r.telemetry.counter("pipeline.connections_removed"),
                    closed,
                    "{what}"
                );
                assert!(r.flow_errors.is_empty(), "{what}: {:?}", r.flow_errors);
            });
        }
    }
}

#[test]
fn expired_connections_leave_no_state() {
    let trace = without_fins(&throughput_trace(5, 1_000));
    assert_eq!(closed_connections(&trace), 0);
    matrix(|what, stack, engine| {
        let r = runs(&trace, stack, engine, governance(Some(10)));
        let t = &r.telemetry;
        let removed = t.counter("pipeline.connections_removed");
        assert_eq!(
            removed, r.flows_expired,
            "{what}: only expiry ends a connection"
        );
        assert!(r.flows_expired > 900, "{what}: {} expired", r.flows_expired);
        // Whatever is held belongs to the connections still open.
        let open = t.counter("pipeline.flows_opened") - removed;
        let held = r.held_at_end;
        assert!(held.parsers <= open, "{what}: {held:?} for {open} open");
        assert!(
            held.script_entries <= TABLES * open,
            "{what}: {held:?} for {open} open"
        );
        assert!(
            held.script_entries > 0,
            "{what}: open connections keep their state"
        );
    });
}

/// A removal leaves network time where the last event put it. On
/// `throughput_trace` time steps backwards at every 64-flow chunk, and
/// a closing FIN carries no event: had its removal moved network time,
/// the next chunk's log lines would carry the FIN's time. So the log
/// must not change when no connection closes.
#[test]
fn removal_leaves_network_time_alone() {
    let trace = throughput_trace(11, 800);
    let open = without_fins(&trace);
    for engine in [Engine::Interpreted, Engine::Compiled] {
        let gov = governance(None);
        let run = |t: &[RawPacket]| {
            run_http_analysis_governed(t, ParserStack::Standard, engine, &gov).expect("run")
        };
        let (closing, never_closing) = (run(&trace), run(&open));
        assert_eq!(
            closing.telemetry.counter("pipeline.connections_removed"),
            800
        );
        assert_eq!(closing.http_log, never_closing.http_log, "{engine:?}");
    }
}
