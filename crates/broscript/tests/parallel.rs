//! Differential determinism tests for the flow-sharded parallel pipeline:
//! for every worker count N, the N-worker run must be **byte-identical**
//! to the 1-worker run — and the 1-worker run identical to the sequential
//! pipeline — over adversarial chaos traces, with telemetry on. Sharding
//! may only change throughput, never output.

use broscript::host::Engine;
use broscript::parallel::{run_dns_analysis_parallel, run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Fault, Faults,
    Governance, ParserStack,
};
use hilti_rt::error::RtResult;
use netpkt::pcap::RawPacket;
use netpkt::synth::{chaos_dns_trace, chaos_http_trace, ChaosConfig};

fn chaos_gov() -> Governance {
    Governance {
        idle_timeout_ms: Some(10),
        per_flow_heap: Some(8 * 1024),
        script_fuel: Some(500_000),
        quarantine: true,
        telemetry: true,
        delivery_deadline_ms: None,
        tracing: false,
        faults: Faults::new(),
    }
}

fn opts(workers: usize) -> PipelineOptions {
    PipelineOptions {
        workers,
        governance: chaos_gov(),
        ..Default::default()
    }
}

/// Asserts every externally observable field of two runs is identical,
/// including the byte-rendered telemetry snapshot.
fn assert_identical(a: &AnalysisResult, b: &AnalysisResult, what: &str) {
    assert_eq!(a.http_log, b.http_log, "{what}: http.log");
    assert_eq!(a.files_log, b.files_log, "{what}: files.log");
    assert_eq!(a.dns_log, b.dns_log, "{what}: dns.log");
    assert_eq!(a.output, b.output, "{what}: printed output");
    assert_eq!(a.flow_errors, b.flow_errors, "{what}: flow-error ledger");
    assert_eq!(a.events, b.events, "{what}: dispatched events");
    assert_eq!(a.packets, b.packets, "{what}: packets");
    assert_eq!(a.flows_expired, b.flows_expired, "{what}: flows_expired");
    assert_eq!(
        a.peak_flow_bytes, b.peak_flow_bytes,
        "{what}: peak_flow_bytes"
    );
    assert_eq!(a.parse_failures, b.parse_failures, "{what}: parse_failures");
    assert_eq!(a.shard_faults, b.shard_faults, "{what}: shard faults");
    assert_eq!(a.shed_packets, b.shed_packets, "{what}: shed packets");
    assert_eq!(a.telemetry, b.telemetry, "{what}: telemetry snapshot");
    assert_eq!(
        a.telemetry.to_json(),
        b.telemetry.to_json(),
        "{what}: telemetry JSON bytes"
    );
}

const WORKER_COUNTS: [usize; 3] = [2, 4, 7];

#[test]
fn http_chaos_output_independent_of_worker_count() {
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        let base = run_http_analysis_parallel(&trace, stack, Engine::Interpreted, &opts(1))
            .unwrap_or_else(|e| panic!("{stack:?} x1: {e}"));
        assert!(base.packets > 0 && !base.http_log.is_empty());
        for n in WORKER_COUNTS {
            let r = run_http_analysis_parallel(&trace, stack, Engine::Interpreted, &opts(n))
                .unwrap_or_else(|e| panic!("{stack:?} x{n}: {e}"));
            assert_identical(&base, &r, &format!("http {stack:?} x{n} vs x1"));
        }
    }
}

#[test]
fn dns_chaos_output_independent_of_worker_count() {
    let trace = chaos_dns_trace(11, 20, 5);
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        let base = run_dns_analysis_parallel(&trace, stack, Engine::Interpreted, &opts(1))
            .unwrap_or_else(|e| panic!("{stack:?} x1: {e}"));
        assert!(base.packets > 0 && !base.dns_log.is_empty());
        for n in WORKER_COUNTS {
            let r = run_dns_analysis_parallel(&trace, stack, Engine::Interpreted, &opts(n))
                .unwrap_or_else(|e| panic!("{stack:?} x{n}: {e}"));
            assert_identical(&base, &r, &format!("dns {stack:?} x{n} vs x1"));
        }
    }
}

/// The sequential pipeline and the parallel one are two drivers of one
/// delivery core, so every combination must agree, not just the ones
/// somebody thought to write a test for: protocol × parser stack × script
/// engine × governance × worker count over the chaos traces. Governed
/// rows (idle expiry, quarantine, telemetry, tracing) compare every output
/// field; ungoverned rows — no quarantine, and a 1 KiB per-flow budget
/// that the BinPAC++ HTTP sessions blow — compare them too where the run
/// survives, and the fatal error where the chaos trace aborts it. Planned
/// rows add a fault plan to the governed ones: payload copies at every
/// third slot, and on the BinPAC++ stack parser faults at a few delivering
/// slots, which must fire.
#[test]
fn equivalence_matrix_parallel_matches_sequential() {
    let http = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let dns = chaos_dns_trace(11, 20, 5);
    let governed = Governance {
        tracing: true,
        ..chaos_gov()
    };
    let ungoverned = Governance {
        per_flow_heap: Some(1024),
        ..Governance::default()
    };
    let planned = |trace: &[RawPacket], stack, parse: &[u64]| {
        let every_third = (0..trace.len() as u64).step_by(3);
        let mut faults: Faults = every_third.map(|s| (s, Fault::Copy)).collect();
        if stack == ParserStack::Binpac {
            faults.extend(parse.iter().map(|&s| (s, Fault::Parse { after: 50 })));
        }
        Governance {
            faults,
            ..governed.clone()
        }
    };
    type Seq = fn(&[RawPacket], ParserStack, Engine, &Governance) -> RtResult<AnalysisResult>;
    type Par = fn(&[RawPacket], ParserStack, Engine, &PipelineOptions) -> RtResult<AnalysisResult>;
    let protos: [(&str, &[RawPacket], Seq, Par); 2] = [
        (
            "http",
            &http,
            run_http_analysis_governed,
            run_http_analysis_parallel,
        ),
        (
            "dns",
            &dns,
            run_dns_analysis_governed,
            run_dns_analysis_parallel,
        ),
    ];
    for (proto, trace, run_seq, run_par) in protos {
        // The parser faults: at requests (HTTP) or queries (DNS).
        let parse: &[u64] = match proto {
            "http" => &[29, 41, 58, 66, 104],
            _ => &[2, 10, 30],
        };
        for stack in [ParserStack::Standard, ParserStack::Binpac] {
            for engine in [Engine::Interpreted, Engine::Compiled] {
                let govs = [
                    ("ungoverned", ungoverned.clone()),
                    ("chaos", governed.clone()),
                    ("planned", planned(trace, stack, parse)),
                ];
                let mut unplanned_failures = 0;
                for (gname, gov) in govs {
                    let seq = run_seq(trace, stack, engine, &gov);
                    let what = format!("{proto} {stack:?} {engine:?} {gname}");
                    // A parser fault quarantines its stream (HTTP) or fails
                    // its datagram (DNS).
                    match (gname, &seq) {
                        ("chaos", Ok(s)) => unplanned_failures = s.parse_failures,
                        ("planned", Ok(s)) if stack == ParserStack::Binpac => {
                            let errors = s.flow_errors.iter();
                            let quarantined = errors
                                .filter(|e| e.detail.contains("injected chaos fault"))
                                .count() as u64;
                            let fired = quarantined + s.parse_failures - unplanned_failures;
                            assert!(fired >= 3, "{what}: {fired} parser faults fired");
                        }
                        _ => {}
                    }
                    for workers in [1, 2, 4] {
                        let o = PipelineOptions {
                            workers,
                            governance: gov.clone(),
                            ..Default::default()
                        };
                        let par = run_par(trace, stack, engine, &o);
                        let what = format!("{what} x{workers}");
                        match (&seq, &par) {
                            (Ok(s), Ok(p)) => assert_identical(s, p, &what),
                            (Err(s), Err(p)) => assert_eq!(s, p, "{what}: fatal error"),
                            _ => panic!(
                                "{what}: sequential ok={}, parallel ok={}",
                                seq.is_ok(),
                                par.is_ok()
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn ungoverned_fatal_error_matches_sequential() {
    // Without quarantine, an injected parser fault must abort the whole
    // run — and the parallel pipeline must surface the *same first* error
    // the sequential one does, regardless of worker count.
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let gov = Governance {
        quarantine: false,
        per_flow_heap: Some(1024),
        telemetry: false,
        ..Governance::default()
    };
    let Err(seq) =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov)
    else {
        panic!("budget of 1 KiB must blow up on the chaos trace")
    };
    for n in [1, 2, 4] {
        let Err(par) = run_http_analysis_parallel(
            &trace,
            ParserStack::Binpac,
            Engine::Interpreted,
            &PipelineOptions {
                workers: n,
                governance: gov.clone(),
                ..Default::default()
            },
        ) else {
            panic!("parallel run x{n} must abort too")
        };
        assert_eq!(seq, par, "fatal error x{n}");
    }
}

#[test]
fn batch_size_never_changes_output() {
    // The dispatch batch size is pure transport: from single-item
    // submissions to batches larger than the whole trace, every worker
    // count must produce byte-identical analysis output.
    let trace = chaos_http_trace(&ChaosConfig::new(0xBA7C4));
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        let base = run_http_analysis_parallel(&trace, stack, Engine::Interpreted, &opts(1))
            .unwrap_or_else(|e| panic!("{stack:?} base: {e}"));
        for n in [1, 2, 4, 7] {
            for batch in [1, 3, 64, 100_000] {
                let o = PipelineOptions {
                    workers: n,
                    batch,
                    governance: chaos_gov(),
                    ..Default::default()
                };
                let r = run_http_analysis_parallel(&trace, stack, Engine::Interpreted, &o)
                    .unwrap_or_else(|e| panic!("{stack:?} x{n} batch {batch}: {e}"));
                assert_identical(&base, &r, &format!("http {stack:?} x{n} batch {batch}"));
            }
        }
    }
}
