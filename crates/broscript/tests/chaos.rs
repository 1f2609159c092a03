//! Chaos harness: deterministic adversarial traces through the governed
//! analysis pipeline.
//!
//! Each trace mixes well-formed sessions with protocol malformations that
//! attack analyzer robustness — truncated handshakes, mid-body cuts,
//! header bombs, never-ending chunked bodies, DNS compression loops. The
//! governed pipeline must survive all of them: no panic, bounded per-flow
//! memory, idle state evicted, and faults quarantined to the flow that
//! raised them while every healthy session still produces its logs.

use broscript::host::Engine;
use broscript::parallel::{run_dns_analysis_parallel, run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, Fault, Faults, Governance, ParserStack,
};
use netpkt::synth::{
    chaos_dns_trace, chaos_http_trace, dns_trace, http_trace, ChaosConfig, SynthConfig,
};

const PER_FLOW_HEAP: u64 = 8 * 1024;

fn chaos_gov() -> Governance {
    Governance {
        idle_timeout_ms: Some(10),
        per_flow_heap: Some(PER_FLOW_HEAP),
        script_fuel: Some(500_000),
        quarantine: true,
        telemetry: true,
        delivery_deadline_ms: None,
        tracing: false,
        faults: Faults::new(),
    }
}

#[test]
fn http_chaos_survives_with_bounded_memory() {
    let cfg = ChaosConfig::new(0xC0FFEE);
    let trace = chaos_http_trace(&cfg);
    let r = run_http_analysis_governed(
        &trace,
        ParserStack::Binpac,
        Engine::Interpreted,
        &chaos_gov(),
    )
    .expect("governed pipeline must survive the chaos trace");

    assert_eq!(r.packets, trace.len() as u64);
    // Every well-formed session still shows up in the log.
    assert!(
        r.http_log.len() >= cfg.normal,
        "http.log lost healthy sessions: {} < {}",
        r.http_log.len(),
        cfg.normal
    );
    // Buffered per-flow parser state never exceeded its budget.
    assert!(
        r.peak_flow_bytes <= PER_FLOW_HEAP,
        "peak {} exceeds budget",
        r.peak_flow_bytes
    );
    // Quarantined flows died of resource exhaustion, nothing else.
    for fe in &r.flow_errors {
        assert_eq!(fe.kind, "Hilti::ResourceExhausted", "{fe:?}");
    }
    // Golden counts: header bombs and never-ending chunk streams overrun
    // the per-flow budget (mid-body cuts stay bounded at their 2 KiB
    // prefix and go idle instead); truncated handshakes and gone-silent
    // flows are reclaimed by the idle timeout.
    assert_eq!(
        r.flow_errors.len(),
        cfg.header_bombs + cfg.infinite_chunks,
        "{:?}",
        r.flow_errors
    );
    assert!(
        r.flows_expired >= cfg.truncated_handshakes as u64,
        "expired only {} flows",
        r.flows_expired
    );
    // The telemetry snapshot mirrors the governance ledger exactly.
    let t = &r.telemetry;
    assert_eq!(t.counter("pipeline.packets"), r.packets);
    assert_eq!(t.counter("pipeline.flows_expired"), r.flows_expired);
    assert_eq!(
        t.counter("pipeline.flows_quarantined"),
        r.flow_errors.len() as u64
    );
    assert_eq!(
        t.counter("pipeline.flow_errors.Hilti::ResourceExhausted"),
        (cfg.header_bombs + cfg.infinite_chunks) as u64
    );
    assert_eq!(t.gauge("pipeline.peak_flow_heap_bytes"), r.peak_flow_bytes);
    assert_eq!(t.counter("pipeline.events_dispatched"), r.events);
    assert_eq!(
        t.events_of_kind("quarantine"),
        r.flow_errors.len(),
        "one quarantine event per torn-down flow"
    );
}

#[test]
fn http_chaos_is_deterministic() {
    let cfg = ChaosConfig::new(7);
    let trace = chaos_http_trace(&cfg);
    let gov = chaos_gov();
    let a =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov).unwrap();
    let b =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov).unwrap();
    assert_eq!(a.http_log, b.http_log);
    assert_eq!(a.flows_expired, b.flows_expired);
    assert_eq!(a.peak_flow_bytes, b.peak_flow_bytes);
    let key = |r: &broscript::pipeline::AnalysisResult| -> Vec<(String, String)> {
        r.flow_errors
            .iter()
            .map(|f| (f.uid.clone(), f.kind.clone()))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
    // The full telemetry snapshot — counters, gauges, histograms and the
    // event stream — is deterministic down to the rendered bytes.
    assert_eq!(a.telemetry, b.telemetry);
    assert_eq!(a.telemetry.to_json(), b.telemetry.to_json());
}

#[test]
fn http_chaos_standard_stack_survives_too() {
    // The handwritten parsers don't raise, so the quarantine stays empty —
    // but idle expiration still reclaims the stale flows.
    let cfg = ChaosConfig::new(99);
    let trace = chaos_http_trace(&cfg);
    let r = run_http_analysis_governed(
        &trace,
        ParserStack::Standard,
        Engine::Interpreted,
        &chaos_gov(),
    )
    .unwrap();
    assert!(r.http_log.len() >= cfg.normal);
    assert!(r.flows_expired >= cfg.truncated_handshakes as u64);
}

#[test]
fn governance_with_generous_limits_changes_nothing() {
    // Sanity: on a clean trace, governed and ungoverned runs agree.
    let trace = http_trace(&SynthConfig::new(42, 10));
    let generous = Governance {
        idle_timeout_ms: Some(60_000),
        per_flow_heap: Some(64 * 1024 * 1024),
        script_fuel: Some(1_000_000_000),
        quarantine: true,
        telemetry: false,
        delivery_deadline_ms: None,
        tracing: false,
        faults: Faults::new(),
    };
    let a = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &generous)
        .unwrap();
    let b =
        broscript::pipeline::run_http_analysis(&trace, ParserStack::Binpac, Engine::Interpreted)
            .unwrap();
    assert_eq!(a.http_log, b.http_log);
    assert_eq!(a.files_log, b.files_log);
    assert!(a.flow_errors.is_empty(), "{:?}", a.flow_errors);
}

#[test]
fn injected_fault_quarantines_exactly_one_flow() {
    // Fail the parser mid-delivery at one packet slot: exactly one flow
    // dies, the run completes, and every driver — sequential and 1, 2
    // and 4 workers — kills the same flow and logs the same lines.
    let trace = http_trace(&SynthConfig::new(5, 8));
    let gov = Governance {
        quarantine: true,
        // Slot 3 is the first request of the trace.
        faults: Faults::from([(3, Fault::Parse { after: 50 })]),
        ..Governance::default()
    };
    let a =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov).unwrap();
    let b =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov).unwrap();
    assert_eq!(a.flow_errors.len(), 1, "{:?}", a.flow_errors);
    assert_eq!(a.flow_errors[0].kind, "Hilti::RuntimeError");
    assert!(a.flow_errors[0].detail.contains("injected chaos fault"));
    assert_eq!(a.flow_errors[0].uid, b.flow_errors[0].uid);
    // The other flows' results survive the casualty.
    assert!(a.http_log.len() >= 5, "{:?}", a.http_log);
    for workers in [1, 2, 4] {
        let opts = PipelineOptions {
            workers,
            governance: gov.clone(),
            ..PipelineOptions::default()
        };
        let par =
            run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts)
                .unwrap();
        assert_eq!(par.flow_errors, a.flow_errors, "x{workers}");
        assert_eq!(par.http_log, a.http_log, "x{workers}");
        assert_eq!(par.files_log, a.files_log, "x{workers}");
    }

    // The same plan reaches the BinPAC++ DNS driver. Datagram mode lets
    // only `ResourceExhausted` escape, so the faulted datagram counts as
    // unparseable: nothing is quarantined and exactly one more datagram
    // fails than in the unfaulted run, for every worker count.
    let trace = dns_trace(&SynthConfig::new(5, 20));
    let clean = Governance {
        faults: Faults::new(),
        ..gov.clone()
    };
    let run = |gov: &Governance| {
        run_dns_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, gov).unwrap()
    };
    let (base, faulted) = (run(&clean), run(&gov));
    assert_eq!(faulted.packets, trace.len() as u64);
    assert!(faulted.flow_errors.is_empty(), "{:?}", faulted.flow_errors);
    assert_eq!(faulted.parse_failures, base.parse_failures + 1);
    assert_eq!(run(&gov).dns_log, faulted.dns_log);
    for workers in [1, 2, 4] {
        let opts = PipelineOptions {
            workers,
            governance: gov.clone(),
            ..PipelineOptions::default()
        };
        let par =
            run_dns_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts)
                .unwrap();
        assert!(
            par.flow_errors.is_empty(),
            "x{workers}: {:?}",
            par.flow_errors
        );
        assert_eq!(par.parse_failures, base.parse_failures + 1, "x{workers}");
        assert_eq!(par.dns_log, faulted.dns_log, "x{workers}");
    }
}

#[test]
fn fault_plan_the_run_cannot_honour_is_rejected() {
    // A plan is checked before the first packet: shard faults need
    // shards, and a parser fault needs the BinPAC++ parser VM.
    let trace = http_trace(&SynthConfig::new(5, 2));
    let plan = |slot, fault| Governance {
        quarantine: true,
        faults: Faults::from([(slot, fault)]),
        ..Governance::default()
    };
    let rejected = |r: Result<_, hilti_rt::error::RtError>, what: &str| {
        let Err(e) = r else {
            panic!("{what}: the run must be rejected")
        };
        assert!(e.to_string().contains("fault plan"), "{what}: {e}");
    };
    for fault in [Fault::Panic, Fault::Stall { ms: 1 }] {
        let seq =
            |stack| run_http_analysis_governed(&trace, stack, Engine::Interpreted, &plan(3, fault));
        rejected(seq(ParserStack::Binpac), &format!("sequential {fault:?}"));
        rejected(seq(ParserStack::Standard), &format!("sequential {fault:?}"));
    }
    let parse = plan(3, Fault::Parse { after: 0 });
    rejected(
        run_http_analysis_governed(&trace, ParserStack::Standard, Engine::Interpreted, &parse),
        "sequential Standard Parse",
    );
    let opts = PipelineOptions {
        workers: 2,
        governance: parse,
        ..PipelineOptions::default()
    };
    rejected(
        run_http_analysis_parallel(&trace, ParserStack::Standard, Engine::Interpreted, &opts),
        "parallel Standard Parse",
    );
    // What the run can honour passes the check.
    for fault in [Fault::Panic, Fault::Stall { ms: 1 }, Fault::Copy] {
        let opts = PipelineOptions {
            workers: 2,
            governance: plan(3, fault),
            ..PipelineOptions::default()
        };
        run_http_analysis_parallel(&trace, ParserStack::Standard, Engine::Interpreted, &opts)
            .unwrap_or_else(|e| panic!("parallel {fault:?}: {e}"));
    }
}

#[test]
fn script_fuel_quarantines_event_handlers() {
    // Starve the script engine: handlers die of ResourceExhausted, but the
    // pipeline itself finishes the trace.
    let trace = http_trace(&SynthConfig::new(3, 4));
    let gov = Governance {
        script_fuel: Some(25),
        quarantine: true,
        ..Governance::default()
    };
    let r =
        run_http_analysis_governed(&trace, ParserStack::Standard, Engine::Compiled, &gov).unwrap();
    assert!(!r.flow_errors.is_empty());
    // Starvation surfaces directly (fuel exhausted mid-handler) and as
    // follow-on failures in later handlers on the same flow whose state
    // never got written (map lookups miss); both are quarantined per event.
    assert!(
        r.flow_errors
            .iter()
            .any(|fe| fe.kind == "Hilti::ResourceExhausted"),
        "{:?}",
        r.flow_errors
    );
    for fe in &r.flow_errors {
        assert!(
            fe.kind == "Hilti::ResourceExhausted" || fe.kind == "Hilti::IndexError",
            "{fe:?}"
        );
    }
    assert_eq!(r.packets, trace.len() as u64);
}

#[test]
fn dns_chaos_compression_loops_are_counted_and_survived() {
    let (normal, loops) = (20, 5);
    let trace = chaos_dns_trace(11, normal, loops);
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        let r = run_dns_analysis_governed(&trace, stack, Engine::Interpreted, &chaos_gov())
            .unwrap_or_else(|e| panic!("{stack:?}: {e}"));
        // Golden count: each compression-loop message fails to parse; the
        // pointer-chase guard turns the classic loop attack into a clean
        // per-datagram failure.
        assert_eq!(r.parse_failures, loops as u64, "{stack:?}");
        assert_eq!(
            r.telemetry.counter("pipeline.parse_failures"),
            loops as u64,
            "{stack:?}"
        );
        assert_eq!(
            r.telemetry.events_of_kind("parser_error"),
            loops,
            "{stack:?}"
        );
        assert!(r.dns_log.len() >= normal, "{stack:?}: {}", r.dns_log.len());
        assert!(r.flow_errors.is_empty(), "{stack:?}: {:?}", r.flow_errors);
    }
}
