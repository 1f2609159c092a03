//! Differential tests for the zero-copy delivery path: a run whose
//! deliveries are *borrowed* from the trace arena (chunked `Bytes`
//! representation) must be byte-identical to one whose deliveries are
//! force-copied into flat parser buffers (a [`Fault::Copy`] at every
//! packet slot) —
//! logs, events, quarantine ledger, and telemetry, over adversarial chaos
//! traces, sequentially and for N∈{1,2,4} workers. The only permitted
//! difference is the `pipeline.bytes_copied`/`bytes_borrowed` counter
//! pair, which records the routing itself.

use broscript::host::Engine;
use broscript::parallel::{run_dns_analysis_parallel, run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Fault, Faults,
    Governance, ParserStack,
};
use hilti_rt::telemetry::TelemetrySnapshot;
use netpkt::pcap::RawPacket;
use netpkt::synth::{
    chaos_dns_trace, chaos_http_trace, http_trace, throughput_trace, ChaosConfig, SynthConfig,
};

/// The chaos profile; `copied` plans a `Fault::Copy` at every slot of
/// `trace`.
fn gov(trace: &[RawPacket], copied: bool) -> Governance {
    let every_slot = 0..trace.len() as u64;
    Governance {
        idle_timeout_ms: Some(10),
        per_flow_heap: Some(8 * 1024),
        script_fuel: Some(500_000),
        quarantine: true,
        telemetry: true,
        faults: if copied {
            every_slot.map(|s| (s, Fault::Copy)).collect()
        } else {
            Faults::new()
        },
        ..Governance::default()
    }
}

fn opts(trace: &[RawPacket], workers: usize, copied: bool) -> PipelineOptions {
    PipelineOptions {
        workers,
        governance: gov(trace, copied),
        ..Default::default()
    }
}

/// The routing counters are the one legitimate difference between a
/// borrowed and a force-copied run; everything else in the snapshot must
/// match exactly.
fn strip_routing(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    let mut s = snap.clone();
    s.counters
        .retain(|(name, _)| name != "pipeline.bytes_copied" && name != "pipeline.bytes_borrowed");
    s
}

fn counter(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Everything observable except the routing counters must be identical.
fn assert_equivalent(borrowed: &AnalysisResult, copied: &AnalysisResult, what: &str) {
    assert_eq!(borrowed.http_log, copied.http_log, "{what}: http.log");
    assert_eq!(borrowed.files_log, copied.files_log, "{what}: files.log");
    assert_eq!(borrowed.dns_log, copied.dns_log, "{what}: dns.log");
    assert_eq!(borrowed.output, copied.output, "{what}: printed output");
    assert_eq!(
        borrowed.flow_errors, copied.flow_errors,
        "{what}: flow-error ledger"
    );
    assert_eq!(borrowed.events, copied.events, "{what}: dispatched events");
    assert_eq!(borrowed.packets, copied.packets, "{what}: packets");
    assert_eq!(
        borrowed.flows_expired, copied.flows_expired,
        "{what}: flows_expired"
    );
    assert_eq!(
        borrowed.peak_flow_bytes, copied.peak_flow_bytes,
        "{what}: peak_flow_bytes (budget accounting must be representation-independent)"
    );
    assert_eq!(
        borrowed.parse_failures, copied.parse_failures,
        "{what}: parse_failures"
    );
    assert_eq!(
        strip_routing(&borrowed.telemetry),
        strip_routing(&copied.telemetry),
        "{what}: telemetry snapshot (minus routing counters)"
    );
    // Both runs saw the same payload bytes; only the route differs.
    let total = |r: &AnalysisResult| {
        counter(&r.telemetry, "pipeline.bytes_copied")
            + counter(&r.telemetry, "pipeline.bytes_borrowed")
    };
    assert_eq!(total(borrowed), total(copied), "{what}: routed byte total");
}

#[test]
fn http_chaos_borrowed_matches_flat_sequential_and_parallel() {
    let trace = chaos_http_trace(&ChaosConfig::new(0xBEEF));
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        let borrowed =
            run_http_analysis_governed(&trace, stack, Engine::Interpreted, &gov(&trace, false))
                .unwrap_or_else(|e| panic!("{stack:?} borrowed seq: {e}"));
        let copied =
            run_http_analysis_governed(&trace, stack, Engine::Interpreted, &gov(&trace, true))
                .unwrap_or_else(|e| panic!("{stack:?} copied seq: {e}"));
        assert!(borrowed.packets > 0 && !borrowed.http_log.is_empty());
        assert_equivalent(&borrowed, &copied, &format!("http {stack:?} seq"));
        for n in [1, 2, 4] {
            let b = run_http_analysis_parallel(
                &trace,
                stack,
                Engine::Interpreted,
                &opts(&trace, n, false),
            )
            .unwrap_or_else(|e| panic!("{stack:?} borrowed x{n}: {e}"));
            let c = run_http_analysis_parallel(
                &trace,
                stack,
                Engine::Interpreted,
                &opts(&trace, n, true),
            )
            .unwrap_or_else(|e| panic!("{stack:?} copied x{n}: {e}"));
            assert_equivalent(&b, &c, &format!("http {stack:?} x{n}"));
            // The parallel borrowed run must also match the sequential one.
            assert_equivalent(&borrowed, &b, &format!("http {stack:?} seq vs x{n}"));
        }
    }
}

#[test]
fn dns_chaos_borrowed_matches_flat_sequential_and_parallel() {
    let trace = chaos_dns_trace(29, 20, 5);
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        let borrowed =
            run_dns_analysis_governed(&trace, stack, Engine::Interpreted, &gov(&trace, false))
                .unwrap_or_else(|e| panic!("{stack:?} borrowed seq: {e}"));
        let copied =
            run_dns_analysis_governed(&trace, stack, Engine::Interpreted, &gov(&trace, true))
                .unwrap_or_else(|e| panic!("{stack:?} copied seq: {e}"));
        assert!(borrowed.packets > 0 && !borrowed.dns_log.is_empty());
        assert_equivalent(&borrowed, &copied, &format!("dns {stack:?} seq"));
        for n in [1, 2, 4] {
            let b = run_dns_analysis_parallel(
                &trace,
                stack,
                Engine::Interpreted,
                &opts(&trace, n, false),
            )
            .unwrap_or_else(|e| panic!("{stack:?} borrowed x{n}: {e}"));
            let c = run_dns_analysis_parallel(
                &trace,
                stack,
                Engine::Interpreted,
                &opts(&trace, n, true),
            )
            .unwrap_or_else(|e| panic!("{stack:?} copied x{n}: {e}"));
            assert_equivalent(&b, &c, &format!("dns {stack:?} x{n}"));
            assert_equivalent(&borrowed, &b, &format!("dns {stack:?} seq vs x{n}"));
        }
    }
}

#[test]
fn in_order_trace_is_fully_borrowed() {
    // An in-order synthetic trace must reach the parser without a single
    // payload memcpy: everything routes through the arena.
    let traces = [
        ("http", http_trace(&SynthConfig::new(42, 20))),
        ("throughput", throughput_trace(0x7487, 500)),
    ];
    for (name, trace) in &traces {
        for stack in [ParserStack::Standard, ParserStack::Binpac] {
            for engine in [Engine::Interpreted, Engine::Compiled] {
                let what = format!("{name} {stack:?} {engine:?}");
                let r = run_http_analysis_governed(trace, stack, engine, &gov(trace, false))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(
                    counter(&r.telemetry, "pipeline.bytes_copied"),
                    0,
                    "{what}: in-order deliveries must not copy"
                );
                assert!(
                    counter(&r.telemetry, "pipeline.bytes_borrowed") > 0,
                    "{what}: deliveries must be arena-borrowed"
                );
            }
        }
    }
}

#[test]
fn copy_at_every_slot_routes_everything_through_copies() {
    let trace = http_trace(&SynthConfig::new(42, 10));
    let r = run_http_analysis_governed(
        &trace,
        ParserStack::Binpac,
        Engine::Interpreted,
        &gov(&trace, true),
    )
    .unwrap();
    assert_eq!(counter(&r.telemetry, "pipeline.bytes_borrowed"), 0);
    assert!(counter(&r.telemetry, "pipeline.bytes_copied") > 0);
}
