//! Flight-recorder tracing tests: recording must never perturb the
//! deterministic analysis output (on/off byte-identity for every worker
//! count), the trace side-channel must cover the full delivery path, and
//! supervision faults must produce structurally deterministic postmortem
//! dumps containing the faulting flow's spans.

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Fault, Faults,
    Governance, ParserStack,
};
use hilti_rt::telemetry::json;
use hilti_rt::trace::Stage;
use netpkt::synth::{chaos_http_trace, dns_trace, http_trace, ChaosConfig, SynthConfig};

fn gov(tracing: bool) -> Governance {
    Governance {
        idle_timeout_ms: Some(10),
        per_flow_heap: Some(8 * 1024),
        script_fuel: Some(500_000),
        quarantine: true,
        telemetry: true,
        delivery_deadline_ms: None,
        tracing,
        faults: Faults::new(),
    }
}

fn opts(workers: usize, tracing: bool) -> PipelineOptions {
    PipelineOptions {
        workers,
        governance: gov(tracing),
        ..Default::default()
    }
}

/// [`opts`] with `fault` planned at packet `slot`.
fn faulted(workers: usize, tracing: bool, slot: u64, fault: Fault) -> PipelineOptions {
    let mut o = opts(workers, tracing);
    o.governance.faults.insert(slot, fault);
    o
}

/// Byte-level equality across every deterministic result field. The
/// `trace` side-channel is deliberately excluded: it carries wall-clock
/// data and may only differ in being present or absent.
fn assert_identical(a: &AnalysisResult, b: &AnalysisResult, what: &str) {
    assert_eq!(a.http_log, b.http_log, "{what}: http.log");
    assert_eq!(a.files_log, b.files_log, "{what}: files.log");
    assert_eq!(a.dns_log, b.dns_log, "{what}: dns.log");
    assert_eq!(a.output, b.output, "{what}: printed output");
    assert_eq!(a.flow_errors, b.flow_errors, "{what}: flow-error ledger");
    assert_eq!(a.events, b.events, "{what}: dispatched events");
    assert_eq!(a.packets, b.packets, "{what}: packets");
    assert_eq!(a.shard_faults, b.shard_faults, "{what}: shard faults");
    assert_eq!(a.telemetry, b.telemetry, "{what}: telemetry snapshot");
    assert_eq!(
        a.telemetry.to_json(),
        b.telemetry.to_json(),
        "{what}: telemetry JSON bytes"
    );
}

#[test]
fn recording_on_off_outputs_are_byte_identical_sequential() {
    let trace = http_trace(&SynthConfig::new(11, 8));
    let off =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov(false))
            .unwrap();
    let on = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov(true))
        .unwrap();
    assert_identical(&off, &on, "sequential http binpac");
    assert!(off.trace.is_none(), "tracing off must not build a report");
    let report = on.trace.expect("tracing on must yield a report");
    assert!(!report.spans.is_empty());
    // Sequential pipeline covers decode, parse, and script.
    for st in [Stage::Decode, Stage::Parse, Stage::Script] {
        assert!(
            report.latency.stages.iter().any(|s| s.stage == st),
            "missing sequential stage {}",
            st.name()
        );
    }
}

#[test]
fn recording_on_off_outputs_are_byte_identical_for_worker_counts() {
    let trace = http_trace(&SynthConfig::new(23, 12));
    let seq =
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov(false))
            .unwrap();
    for workers in [1, 2, 4] {
        let off = run_http_analysis_parallel(
            &trace,
            ParserStack::Binpac,
            Engine::Compiled,
            &opts(workers, false),
        )
        .unwrap();
        let on = run_http_analysis_parallel(
            &trace,
            ParserStack::Binpac,
            Engine::Compiled,
            &opts(workers, true),
        )
        .unwrap();
        assert_identical(&off, &on, &format!("parallel N={workers} off vs on"));
        assert_identical(&seq, &on, &format!("sequential vs parallel N={workers} on"));
        assert!(off.trace.is_none());
        assert!(on.trace.is_some());
    }
}

#[test]
fn parallel_trace_covers_all_six_stages_and_exports_valid_chrome_json() {
    let trace = http_trace(&SynthConfig::new(7, 10));
    let r = run_http_analysis_parallel(
        &trace,
        ParserStack::Binpac,
        Engine::Compiled,
        &opts(2, true),
    )
    .unwrap();
    let report = r.trace.expect("trace report");
    for st in Stage::ALL {
        assert!(
            report.latency.stages.iter().any(|s| s.stage == st),
            "stage {} missing from the parallel latency report",
            st.name()
        );
    }
    assert!(
        report.latency.delivery_count > 0,
        "delivery histogram empty"
    );
    assert!(
        !report.latency.slowest.is_empty(),
        "top-K slowest table empty"
    );
    let doc = report.to_chrome_json();
    json::validate(&doc).expect("chrome trace must be valid JSON");
    assert!(doc.contains("\"schema\":\"hilti.trace.v1\""));
    for st in Stage::ALL {
        assert!(
            doc.contains(&format!("\"name\":\"{}\"", st.name())),
            "chrome export missing stage {}",
            st.name()
        );
    }
    // The latency summary renders without panicking and names the stages.
    let rendered = report.latency.render();
    assert!(rendered.contains("queue_wait") && rendered.contains("script"));
}

#[test]
fn dns_trace_report_covers_parse_and_script() {
    let trace = dns_trace(&SynthConfig::new(5, 6));
    let r = run_dns_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov(true))
        .unwrap();
    let report = r.trace.expect("trace report");
    for st in [Stage::Decode, Stage::Parse, Stage::Script] {
        assert!(
            report.latency.stages.iter().any(|s| s.stage == st),
            "missing dns stage {}",
            st.name()
        );
    }
}

#[test]
fn injected_panic_produces_postmortem_with_faulting_flow() {
    let trace = http_trace(&SynthConfig::new(9, 10));
    let run = || {
        run_http_analysis_parallel(
            &trace,
            ParserStack::Binpac,
            Engine::Compiled,
            // Slot 13 is the third delivery of shard 0.
            &faulted(2, true, 13, Fault::Panic),
        )
        .unwrap()
    };
    let a = run();
    let report = a.trace.expect("trace report");
    let dump = report
        .postmortems
        .iter()
        .find(|d| d.reason.starts_with("ShardPanic"))
        .expect("panic must trigger a postmortem dump");
    assert_eq!(dump.shard, 0, "dump comes from the faulting shard");
    assert!(!dump.records.is_empty(), "dump carries recorder spans");
    // The faulting delivery's queue-wait span is recorded before the
    // planned panic fires, so the dump must name a quarantined flow.
    let lost: Vec<&str> = a.flow_errors.iter().map(|fe| fe.uid.as_str()).collect();
    assert!(
        dump.records
            .iter()
            .filter_map(|r| r.uid.as_deref())
            .any(|u| lost.contains(&u)),
        "postmortem must contain spans of a flow the panic quarantined"
    );
    // JSONL rendering: every line is valid JSON, header first.
    let jsonl = dump.to_jsonl();
    let mut lines = jsonl.lines();
    let header = lines.next().unwrap();
    json::validate(header).unwrap();
    assert!(header.contains("\"kind\":\"postmortem\""));
    for l in lines {
        json::validate(l).unwrap();
    }
    // Structure (stage, packet, uid) is deterministic modulo timestamps.
    let b = run();
    let dump_b = b
        .trace
        .expect("trace report")
        .postmortems
        .iter()
        .find(|d| d.reason.starts_with("ShardPanic"))
        .expect("second run dumps too")
        .clone();
    assert_eq!(
        dump.structure(),
        dump_b.structure(),
        "postmortem structure must be deterministic across runs"
    );
}

#[test]
fn injected_stall_produces_postmortem_dump() {
    let trace = chaos_http_trace(&ChaosConfig::new(0xABCD));
    let r = run_http_analysis_parallel(
        &trace,
        ParserStack::Binpac,
        Engine::Compiled,
        // Slot 55 is the first delivery of shard 1.
        &faulted(2, true, 55, Fault::Stall { ms: 20 }),
    )
    .unwrap();
    let report = r.trace.expect("trace report");
    let dump = report
        .postmortems
        .iter()
        .find(|d| d.reason == "injected stall")
        .expect("stall injection must trigger a postmortem dump");
    assert_eq!(dump.shard, 1, "dump comes from the stalled shard");
    assert!(
        dump.records.iter().any(|r| r.packet == 55),
        "the dump shows the stalled delivery's queue wait"
    );
}

/// The watchdog dump is for deadline trips only. A 1 KiB per-flow budget
/// kills ten chaos flows with `ResourceExhausted` ("heap budget
/// exceeded") while a 60 s deadline never trips: no watchdog dump, for
/// any worker count. A 0 ms deadline trips on every delivery and dumps.
#[test]
fn watchdog_dump_only_for_deadline_trips() {
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let watchdog_dumps = |deadline_ms, workers| {
        let governance = Governance {
            per_flow_heap: Some(1024),
            delivery_deadline_ms: Some(deadline_ms),
            ..gov(true)
        };
        let r = match workers {
            None => run_http_analysis_governed(
                &trace,
                ParserStack::Binpac,
                Engine::Interpreted,
                &governance,
            ),
            Some(workers) => run_http_analysis_parallel(
                &trace,
                ParserStack::Binpac,
                Engine::Interpreted,
                &PipelineOptions {
                    workers,
                    governance,
                    ..Default::default()
                },
            ),
        }
        .unwrap();
        let what = format!("deadline {deadline_ms} ms, workers {workers:?}");
        assert!(!r.flow_errors.is_empty(), "{what}");
        let report = r.trace.expect("trace report");
        let dumps = report.postmortems.iter();
        dumps.filter(|d| d.reason.contains("watchdog")).count()
    };
    for workers in [None, Some(2)] {
        assert_eq!(watchdog_dumps(60_000, workers), 0, "{workers:?}");
        assert!(watchdog_dumps(0, workers) > 0, "{workers:?}");
    }
}
