//! Shard supervision and overload-control tests: injected worker panics
//! must be contained to the owning shard with a deterministic loss
//! ledger, stalled shards must never change output under the `Block`
//! policy, the `Shed` policy must drop traffic only at the dispatcher
//! with full accounting, and the per-delivery watchdog deadline must
//! quarantine wedged flows without perturbing healthy runs.

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, OverloadPolicy, PipelineOptions};
use broscript::pipeline::{
    run_http_analysis_governed, AnalysisResult, Fault, Faults, FlowError, Governance, ParserStack,
};
use netpkt::decode::decode_frame;
use netpkt::flow::shard_hash_frame;
use netpkt::pcap::RawPacket;
use netpkt::synth::{chaos_http_trace, http_trace, ChaosConfig, SynthConfig};

fn gov() -> Governance {
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
        governance: gov(),
        ..Default::default()
    }
}

/// [`opts`] with `fault` planned at packet `slot`.
fn faulted(workers: usize, slot: u64, fault: Fault) -> PipelineOptions {
    let mut o = opts(workers);
    o.governance.faults.insert(slot, fault);
    o
}

/// The shard the front end places packet `slot` on when `workers` run.
fn owner(trace: &[RawPacket], slot: u64, workers: usize) -> usize {
    let p = &trace[slot as usize];
    let frame = decode_frame(&p.data, p.ts).expect("a decodable frame");
    (shard_hash_frame(&frame) % workers as u64) as usize
}

/// Byte-level equality across every externally observable field.
fn assert_identical(a: &AnalysisResult, b: &AnalysisResult, what: &str) {
    assert_eq!(a.http_log, b.http_log, "{what}: http.log");
    assert_eq!(a.files_log, b.files_log, "{what}: files.log");
    assert_eq!(a.output, b.output, "{what}: printed output");
    assert_eq!(a.flow_errors, b.flow_errors, "{what}: flow-error ledger");
    assert_eq!(a.events, b.events, "{what}: dispatched events");
    assert_eq!(a.packets, b.packets, "{what}: packets");
    assert_eq!(a.shard_faults, b.shard_faults, "{what}: shard faults");
    assert_eq!(a.shed_packets, b.shed_packets, "{what}: shed packets");
    assert_eq!(a.telemetry, b.telemetry, "{what}: telemetry snapshot");
    assert_eq!(
        a.telemetry.to_json(),
        b.telemetry.to_json(),
        "{what}: telemetry JSON bytes"
    );
}

/// Multiset subset: every line of `small` appears in `big` at least as
/// often.
fn is_sublog(small: &[String], big: &[String]) -> bool {
    use std::collections::HashMap;
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for l in big {
        *counts.entry(l.as_str()).or_default() += 1;
    }
    small.iter().all(|l| {
        let c = counts.entry(l.as_str()).or_default();
        *c -= 1;
        *c >= 0
    })
}

/// A log's lines grouped by flow (the uid is the second column).
fn by_flow(log: &[String]) -> std::collections::HashMap<&str, Vec<&str>> {
    let mut flows: std::collections::HashMap<&str, Vec<&str>> = Default::default();
    for line in log {
        let uid = line.split('\t').nth(1).expect("uid column");
        flows.entry(uid).or_default().push(line);
    }
    flows
}

#[test]
fn injected_shard_panic_is_contained_and_accounted() {
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let clean =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(4))
            .expect("unfaulted run");
    assert!(clean.shard_faults.is_empty());
    assert_eq!(clean.telemetry.counter("pipeline.shard_faults"), 0);

    // Slot 29 is a request mid-trace, on a different shard for each
    // worker count.
    let slot = 29;
    for workers in [1, 2, 4] {
        let o = faulted(workers, slot, Fault::Panic);
        let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
            .unwrap_or_else(|e| panic!("x{workers}: faulted run must still complete: {e}"));

        // Exactly one fault, charged to the shard that owns the slot.
        assert_eq!(r.shard_faults.len(), 1, "x{workers}: {:?}", r.shard_faults);
        assert_eq!(r.shard_faults[0].shard, owner(&trace, slot, workers));
        assert!(
            r.shard_faults[0].detail.contains("injected shard panic"),
            "x{workers}: {:?}",
            r.shard_faults
        );
        assert_eq!(r.telemetry.counter("pipeline.shard_faults"), 1);

        // The panicked shard's live flows died as `ShardPanic`; the loss
        // ledger is mirrored into telemetry.
        let lost: Vec<&FlowError> = r
            .flow_errors
            .iter()
            .filter(|f| f.kind == FlowError::SHARD_PANIC)
            .collect();
        assert!(!lost.is_empty(), "x{workers}: no ShardPanic quarantines");
        assert_eq!(
            r.telemetry.counter("pipeline.flow_errors.ShardPanic"),
            lost.len() as u64,
            "x{workers}"
        );

        // Every packet was still decoded and accounted for, and nothing
        // the surviving shards produced diverges from the clean run:
        // the faulted log is a strict sub-multiset of the unfaulted one.
        assert_eq!(r.packets, trace.len() as u64, "x{workers}");
        assert!(
            is_sublog(&r.http_log, &clean.http_log),
            "x{workers}: faulted run logged lines the clean run never produced"
        );
    }
}

#[test]
fn shard_panic_losses_are_deterministic() {
    // Same trace, same injection point: the loss ledger, the surviving
    // logs, and the rendered telemetry must be byte-identical on rerun.
    let trace = chaos_http_trace(&ChaosConfig::new(7));
    let o = faulted(4, 84, Fault::Panic);
    let a = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("first faulted run");
    let b = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("second faulted run");
    assert_eq!(a.shard_faults.len(), 1);
    assert_identical(&a, &b, "faulted rerun");
}

#[test]
fn compiled_engine_survives_a_shard_panic_too() {
    // The respawn path rebuilds the compiled script engine from the
    // shared blueprint; the run still completes with one fault.
    let trace = chaos_http_trace(&ChaosConfig::new(11));
    let o = faulted(2, 2, Fault::Panic);
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Compiled, &o)
        .expect("compiled faulted run");
    assert_eq!(r.shard_faults.len(), 1);
    assert_eq!(r.shard_faults[0].shard, owner(&trace, 2, 2));
    assert!(r
        .flow_errors
        .iter()
        .any(|f| f.kind == FlowError::SHARD_PANIC));
}

#[test]
fn ungoverned_shard_panic_aborts_the_run() {
    // Without quarantine the all-or-nothing contract holds: a worker
    // panic surfaces as the run's error instead of a loss ledger.
    let trace = http_trace(&SynthConfig::new(42, 10));
    let o = PipelineOptions {
        workers: 2,
        governance: Governance {
            quarantine: false,
            telemetry: false,
            faults: Faults::from([(0, Fault::Panic)]),
            ..Governance::default()
        },
        ..Default::default()
    };
    let Err(err) = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
    else {
        panic!("ungoverned panic must abort")
    };
    assert!(
        err.to_string().contains("shard panicked"),
        "unexpected error: {err}"
    );
}

#[test]
fn stalled_shard_under_block_changes_nothing() {
    // `Block` is lossless by construction: a shard that sleeps at its
    // first delivery only slows the run down. Output, ledger and
    // telemetry stay byte-identical, and nothing is shed.
    let trace = chaos_http_trace(&ChaosConfig::new(0xBA7C4));
    let base =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(2))
            .expect("unstalled run");
    assert_eq!(base.shed_packets, 0);
    let slot = (0..trace.len() as u64)
        .find(|&s| owner(&trace, s, 2) == 1)
        .expect("shard 1 gets a packet");
    let o = faulted(2, slot, Fault::Stall { ms: 100 });
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("stalled run");
    assert_eq!(r.shed_packets, 0, "Block must never shed");
    assert_identical(&base, &r, "stalled Block run");
}

#[test]
fn shed_policy_drops_batches_at_the_dispatcher_with_accounting() {
    // A tiny ring plus a consumer stalled at the first packet forces the
    // dispatcher to shed: the run completes, every decoded packet is
    // still counted, and the drops show up both in the result field and
    // the dispatch-plane telemetry.
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    assert_eq!(owner(&trace, 0, 2), 0);
    let o = PipelineOptions {
        workers: 2,
        batch: 4,
        overload: OverloadPolicy::Shed { max_queue_depth: 4 },
        ..faulted(2, 0, Fault::Stall { ms: 200 })
    };
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("shedding run must complete");
    assert!(
        r.shed_packets > 0,
        "stalled shard with a 4-deep ring must shed"
    );
    assert_eq!(
        r.packets,
        trace.len() as u64,
        "decode-side count is loss-free"
    );
    // The stalled shard must shed; a 4-deep ring may back the other
    // shard up too, so the per-shard counters only need to *sum* to the
    // result field.
    let d = &r.dispatch_telemetry;
    assert!(d.counter("pipeline.shed_packets.shard0") > 0);
    assert!(d.counter("pipeline.shed_batches.shard0") > 0);
    assert_eq!(
        d.counter("pipeline.shed_packets.shard0") + d.counter("pipeline.shed_packets.shard1"),
        r.shed_packets
    );
    // Control traffic is never shed, so the run still tears down cleanly.
    // A flow that lost no packet logs exactly the lossless run's lines; one
    // that lost a batch mid-flow may log fewer lines or *different* ones (a
    // shorter body), so the log as a whole is not a sub-log. What must hold
    // is the accounting: no flow is invented, and every flow whose lines
    // differ is paid for by at least one shed packet.
    let base =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(2))
            .expect("lossless run");
    let (shed, lossless) = (by_flow(&r.http_log), by_flow(&base.http_log));
    assert!(shed.keys().all(|uid| lossless.contains_key(uid)));
    let differing = lossless
        .iter()
        .filter(|(uid, lines)| shed.get(*uid) != Some(*lines))
        .count();
    assert!(
        differing as u64 <= r.shed_packets,
        "{differing} flows differ from the lossless run, {} packets shed",
        r.shed_packets
    );
}

#[test]
fn shed_without_pressure_is_lossless() {
    // A generous ring under `Shed` never triggers: the run is
    // byte-identical to `Block` (the counters stay unregistered, so even
    // the telemetry snapshot matches).
    let trace = chaos_http_trace(&ChaosConfig::new(99));
    let base =
        run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(4))
            .expect("Block run");
    let o = PipelineOptions {
        workers: 4,
        governance: gov(),
        overload: OverloadPolicy::Shed {
            max_queue_depth: 1 << 16,
        },
        ..Default::default()
    };
    let r = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &o)
        .expect("Shed run");
    assert_eq!(r.shed_packets, 0);
    assert_identical(&base, &r, "unpressured Shed vs Block");
}

#[test]
fn zero_delivery_deadline_quarantines_every_delivery() {
    // A 0 ms watchdog deadline trips on the first fuel charge of every
    // delivery: all parser work dies as ResourceExhausted, but the
    // pipeline itself completes the trace.
    let trace = http_trace(&SynthConfig::new(5, 6));
    let g = Governance {
        delivery_deadline_ms: Some(0),
        ..gov()
    };
    let r = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &g)
        .expect("deadline-starved run must still complete");
    assert_eq!(r.packets, trace.len() as u64);
    assert!(!r.flow_errors.is_empty());
    for fe in &r.flow_errors {
        assert_eq!(fe.kind, "Hilti::ResourceExhausted", "{fe:?}");
        assert!(fe.detail.contains("deadline"), "{fe:?}");
    }
    assert!(r.http_log.is_empty(), "{:?}", r.http_log);
}

#[test]
fn generous_deadline_does_not_perturb_the_pipeline() {
    // With a deadline far beyond the run's wall time, governed output is
    // identical to the no-deadline run — sequentially and in parallel.
    let trace = chaos_http_trace(&ChaosConfig::new(0xC0FFEE));
    let relaxed = Governance {
        delivery_deadline_ms: Some(600_000),
        ..gov()
    };
    let a = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &gov())
        .expect("no-deadline run");
    let b = run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Interpreted, &relaxed)
        .expect("deadline run");
    assert_identical(&a, &b, "sequential deadline vs none");
    let pa = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts(4))
        .expect("parallel no-deadline");
    let po = PipelineOptions {
        workers: 4,
        governance: relaxed,
        ..Default::default()
    };
    let pb = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &po)
        .expect("parallel deadline");
    assert_identical(&pa, &pb, "parallel deadline vs none");
}
