//! The traced pass (`--trace 1`): per-layer metrics, measured from outside.
//!
//! Never gated and never mixed with the end-to-end pass: spans cost time,
//! so this pass runs on its own and reports what it cost
//! (`trace.overhead_pct`). Every workload prints every metric of
//! [`PER_LAYER`]; a layer the workload bypasses reads 0, which is itself the
//! evidence that it is bypassed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use broscript::host::Engine;
use hilti::passes::OptLevel;
use hilti_firewall::HiltiFirewall;
use hilti_rt::telemetry::json;
use netpkt::pcap::RawPacket;

use crate::alloc;
use crate::firewall::Class;
use crate::spans::{aggregate, Aggregate, Layer, Tracer, LAYERS, NONE};
use crate::staged::{self, StagedRun};
use crate::util::{cpu_seconds, median};
use crate::workloads::{
    check_firewall, firewall_input, firewall_verdicts, governance, pipeline_input, run_batch,
    run_parallel, run_sequential, Logs, Metric, Opts, Outcome, Workload, WORKERS,
};

/// Every per-layer metric with its unit, in print order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("netpkt.load_ns_per_pkt", "ns/pkt"),
    ("netpkt.decode_ns_per_pkt", "ns/pkt"),
    ("netpkt.flow_ns_per_pkt", "ns/pkt"),
    ("netpkt.copied_byte_share", "ratio"),
    ("netpkt.flows_peak", "count"),
    ("netpkt.http_parse_ns_per_byte", "ns/B"),
    ("binpac.parse_ns_per_byte", "ns/B"),
    ("binpac.parse_ns_per_pkt", "ns/pkt"),
    ("binpac.events_per_pkt", "1/pkt"),
    ("broscript.script_ns_per_event", "ns/event"),
    ("broscript.events", "count"),
    ("broscript.glue_ns_per_pkt", "ns/pkt"),
    ("hilti.compile_ms", "ms"),
    ("parallel.shard_imbalance", "ratio"),
    ("parallel.batch_fill_mean", "count"),
    ("parallel.queue_depth_peak", "count"),
    ("parallel.cpu_overhead", "ratio"),
    ("parallel.wall_speedup", "ratio"),
    ("hilti-firewall.state_hit_ns", "ns"),
    ("hilti-firewall.rule_hit_ns", "ns"),
    ("hilti-firewall.miss_ns", "ns"),
    ("hilti-firewall.compile_ms", "ms"),
    ("netpkt.flow.allocs_per_pkt", "1/pkt"),
    ("netpkt.http_parse.allocs_per_pkt", "1/pkt"),
    ("binpac.parse.allocs_per_pkt", "1/pkt"),
    ("broscript.script.allocs_per_pkt", "1/pkt"),
    ("hilti-firewall.match.allocs_per_pkt", "1/pkt"),
    ("trace.span_coverage", "ratio"),
    ("trace.delivery_p50_ns", "ns"),
    ("trace.delivery_p99_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.staged_vs_batch_pct", "%"),
    ("trace.spans", "count"),
];

/// Metric values of one traced repetition, by name.
type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-metric median over the repetitions; a metric no repetition
/// measured reads 0.
fn to_metrics(reps: &[Values], once: &Values) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples: Vec<f64> = reps.iter().filter_map(|v| v.get(name).copied()).collect();
            let value = match once.get(name) {
                Some(v) => *v,
                None if samples.is_empty() => 0.0,
                None => median(&samples),
            };
            Metric { name, value, unit }
        })
        .collect()
}

pub fn per_layer(w: Workload, o: &Opts) -> Result<Outcome, String> {
    match w {
        Workload::Firewall4k => firewall_layers(o),
        _ => pipeline_layers(w, o),
    }
}

fn staged_run(w: Workload, packets: &[RawPacket], tr: &mut Tracer) -> Result<StagedRun, String> {
    match w {
        Workload::DnsBinpacSeq => staged::dns_binpac(packets, tr),
        _ => staged::http(packets, w.stack(), tr),
    }
    .map_err(|e| e.to_string())
}

fn pipeline_values(run: &StagedRun, agg: &Aggregate, spans: usize) -> Values {
    let pkts = run.packets as f64;
    let ns = |l: Layer| agg.of(l).ns as f64;
    let bytes = run.payload_bytes as f64;
    Values::from([
        ("netpkt.load_ns_per_pkt", ratio(ns(Layer::Load), pkts)),
        ("netpkt.decode_ns_per_pkt", ratio(ns(Layer::Decode), pkts)),
        ("netpkt.flow_ns_per_pkt", ratio(ns(Layer::Flow), pkts)),
        (
            "netpkt.copied_byte_share",
            ratio(run.copied_bytes as f64, bytes),
        ),
        ("netpkt.flows_peak", run.flows_peak as f64),
        (
            "netpkt.http_parse_ns_per_byte",
            ratio(ns(Layer::HttpParse), bytes),
        ),
        (
            "binpac.parse_ns_per_byte",
            ratio(ns(Layer::BinpacParse), bytes),
        ),
        (
            "binpac.parse_ns_per_pkt",
            ratio(ns(Layer::BinpacParse), pkts),
        ),
        (
            "binpac.events_per_pkt",
            ratio(run.binpac_events as f64, pkts),
        ),
        (
            "broscript.script_ns_per_event",
            ratio(ns(Layer::Script), run.events as f64),
        ),
        ("broscript.events", run.events as f64),
        (
            "broscript.glue_ns_per_pkt",
            ratio(agg.delivery_self_ns as f64, pkts),
        ),
        ("hilti.compile_ms", ns(Layer::Compile) / 1e6),
        ("trace.span_coverage", agg.coverage),
        ("trace.delivery_p50_ns", agg.delivery_p50_ns as f64),
        ("trace.delivery_p99_ns", agg.delivery_p99_ns as f64),
        ("trace.spans", spans as f64),
    ])
}

fn alloc_values(tr: &Tracer, packets: f64) -> Values {
    let per_pkt = |l: Layer| ratio(tr.allocs[l as usize] as f64, packets);
    Values::from([
        ("netpkt.flow.allocs_per_pkt", per_pkt(Layer::Flow)),
        (
            "netpkt.http_parse.allocs_per_pkt",
            per_pkt(Layer::HttpParse),
        ),
        ("binpac.parse.allocs_per_pkt", per_pkt(Layer::BinpacParse)),
        ("broscript.script.allocs_per_pkt", per_pkt(Layer::Script)),
        (
            "hilti-firewall.match.allocs_per_pkt",
            ratio(
                [Layer::FwStateHit, Layer::FwRuleHit, Layer::FwMiss]
                    .iter()
                    .map(|l| tr.allocs[*l as usize] as f64)
                    .sum(),
                packets,
            ),
        ),
    ])
}

/// `a` relative to `b`, in percent.
fn pct_over(a: f64, b: f64) -> f64 {
    (ratio(a, b) - 1.0) * 100.0
}

fn pipeline_layers(w: Workload, o: &Opts) -> Result<Outcome, String> {
    let (packets, input) = pipeline_input(w, o);
    let mut notes = Vec::new();
    // The parallel workload also measures dispatch, so its staged replay
    // gets half the window.
    let staged_seconds = if w == Workload::HttpSkewPar {
        o.seconds / 2.0
    } else {
        o.seconds
    };

    // The staged driver replays the sequential entry point; for the
    // parallel workload that is the sequential run of the same trace.
    let mut batch_secs = Vec::new();
    let mut batch_logs = Logs::default();
    for _ in 0..2 {
        let t = Instant::now();
        let r = run_sequential(w, &packets, w.stack(), Engine::Compiled);
        batch_secs.push(t.elapsed().as_secs_f64());
        batch_logs = Logs::take(&mut r.map_err(|e| e.to_string())?);
    }

    // One replay with the allocator counting (its times are not used) ...
    let mut counting = Tracer::on(packets.len(), true);
    alloc::start();
    let counted = staged_run(w, &packets, &mut counting);
    alloc::stop();
    let counted = counted?;
    let mut failed = counted.flow_errors;
    let mut mismatched = counted.logs.differing_lines(&batch_logs);
    let mut once = alloc_values(&counting, input.packets as f64);
    drop(counting);

    // ... then untraced and traced replays in turn for the window.
    let (mut plain_secs, mut traced_secs, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Tracer::off();
    let started = Instant::now();
    while reps.is_empty() || started.elapsed().as_secs_f64() < staged_seconds {
        let t = Instant::now();
        let plain = staged_run(w, &packets, &mut Tracer::off())?;
        plain_secs.push(t.elapsed().as_secs_f64());
        mismatched += plain.logs.differing_lines(&batch_logs);

        let mut tr = Tracer::on(packets.len(), false);
        let t = Instant::now();
        let traced = staged_run(w, &packets, &mut tr)?;
        traced_secs.push(t.elapsed().as_secs_f64());
        mismatched += traced.logs.differing_lines(&batch_logs);
        failed += traced.flow_errors;
        reps.push(pipeline_values(
            &traced,
            &aggregate(&tr.spans),
            tr.spans.len(),
        ));
        last = tr;
    }
    if mismatched > 0 {
        notes.push(format!(
            "FAIL: {mismatched} staged log lines differ from the batch entry point"
        ));
    }
    let (plain, traced) = (median(&plain_secs), median(&traced_secs));
    let batch = batch_secs.iter().copied().fold(f64::INFINITY, f64::min);
    once.insert("trace.overhead_pct", pct_over(traced, plain));
    once.insert("trace.staged_vs_batch_pct", pct_over(plain, batch));
    notes.push(format!(
        "staged replay: {} traced + {} untraced repetitions; batch {batch:.4} s, \
         staged untraced {plain:.4} s, staged traced {traced:.4} s",
        traced_secs.len(),
        plain_secs.len()
    ));

    if w == Workload::HttpSkewPar {
        parallel_values(
            &packets,
            o.seconds - staged_seconds,
            &batch_logs,
            &mut once,
            &mut notes,
        )?;
    }

    let agg = aggregate(&last.spans);
    notes.push(layer_table(&agg, &last));
    write_trace_file(w, o, &agg, &last)?;
    Ok(Outcome {
        correct: mismatched == 0,
        attempted: input.flows,
        failed: (failed + mismatched).min(input.flows),
        metrics: to_metrics(&reps, &once),
        input,
        notes,
    })
}

/// Dispatch-plane numbers of the parallel workload, read from the public
/// `AnalysisResult::dispatch_telemetry` and the process CPU clock.
fn parallel_values(
    packets: &[RawPacket],
    seconds: f64,
    seq_logs: &Logs,
    once: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let par = Workload::HttpSkewPar;
    let (mut seq_cpu, mut par_cpu, mut seq_wall, mut par_wall) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    let mut telemetry = None;
    while telemetry.is_none() || started.elapsed().as_secs_f64() < seconds {
        for (parallel, cpu, wall) in [
            (false, &mut seq_cpu, &mut seq_wall),
            (true, &mut par_cpu, &mut par_wall),
        ] {
            let (c, t) = (cpu_seconds(), Instant::now());
            let r = if parallel {
                run_batch(par, packets)
            } else {
                run_sequential(par, packets, par.stack(), Engine::Compiled)
            }
            .map_err(|e| e.to_string())?;
            wall.push(t.elapsed().as_secs_f64());
            cpu.push(cpu_seconds() - c);
            if parallel {
                telemetry = Some(r.dispatch_telemetry);
            }
        }
    }
    let t = telemetry.expect("the loop ran at least once");
    let items: Vec<f64> = (0..WORKERS)
        .map(|w| t.counter(&format!("pipeline.shard_items.shard{w}")) as f64)
        .collect();
    let mean = items.iter().sum::<f64>() / WORKERS as f64;
    once.insert(
        "parallel.shard_imbalance",
        ratio(items.iter().copied().fold(0.0, f64::max), mean),
    );
    if let Some((_, fill)) = t
        .histograms
        .iter()
        .find(|(n, _)| n == "pipeline.batch_fill")
    {
        once.insert(
            "parallel.batch_fill_mean",
            ratio(fill.sum as f64, fill.count as f64),
        );
    }
    once.insert(
        "parallel.queue_depth_peak",
        (0..WORKERS)
            .map(|w| t.gauge(&format!("pipeline.queue_depth.shard{w}")))
            .max()
            .unwrap_or(0) as f64,
    );
    once.insert(
        "parallel.cpu_overhead",
        ratio(median(&par_cpu), median(&seq_cpu)),
    );
    once.insert(
        "parallel.wall_speedup",
        ratio(median(&seq_wall), median(&par_wall)),
    );
    notes.push(format!(
        "parallel ({WORKERS} shards + dispatcher on {} cores): shard items {items:?}; \
         wall {:.4} s vs sequential {:.4} s; CPU {:.3} s vs {:.3} s over {} pairs",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        median(&par_wall),
        median(&seq_wall),
        median(&par_cpu),
        median(&seq_cpu),
        par_cpu.len()
    ));

    // Supporting numbers from the program's own flight recorder. These are
    // program-side: they come from spans inside the crates, not from here.
    let mut gov = governance();
    gov.tracing = true;
    let mut traced = run_parallel(packets, gov).map_err(|e| e.to_string())?;
    if let Some(report) = &traced.trace {
        let total: u64 = report.latency.stages.iter().map(|s| s.total_ns).sum();
        let shares: Vec<String> = report
            .latency
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{} {:.1}%",
                    s.stage.name(),
                    ratio(s.total_ns as f64, total as f64) * 100.0
                )
            })
            .collect();
        notes.push(format!(
            "program-side stage totals (Governance::tracing): {}",
            shares.join(", ")
        ));
    }
    if Logs::take(&mut traced) != *seq_logs {
        return Err("the traced parallel run logged differently from the sequential run".into());
    }
    Ok(())
}

fn firewall_layers(o: &Opts) -> Result<Outcome, String> {
    let (input, info) = firewall_input(o);
    let compile =
        || HiltiFirewall::compile(&input.rules, OptLevel::Full).map_err(|e| e.to_string());
    let mut notes = Vec::new();

    // Classes come from the oracle, which is checked like any other run.
    let verdicts = firewall_verdicts(&mut compile()?, &input.packets).map_err(|e| e.to_string())?;
    let (check, classes) = check_firewall(&input, &verdicts, o);
    notes.extend(check.notes);

    // One traced replay: compile, then a span per verdict, filed under the
    // oracle's class for that packet.
    let replay = |tr: &mut Tracer| -> Result<u64, String> {
        let root = tr.open(Layer::Run, NONE, NONE);
        let m = tr.begin();
        let mut fw = compile()?;
        tr.end(m, Layer::FwCompile, root, NONE);
        let mut wrong = 0;
        for (i, (&(t, src, dst), class)) in input.packets.iter().zip(&classes).enumerate() {
            let layer = match class {
                Class::StateHit => Layer::FwStateHit,
                Class::RuleAllow | Class::RuleDeny => Layer::FwRuleHit,
                Class::Miss => Layer::FwMiss,
            };
            let m = tr.begin();
            let verdict = fw.match_packet(t, src, dst);
            tr.end(m, layer, root, i as u32);
            wrong += u64::from(verdict.map_err(|e| e.to_string())? != class.allowed());
        }
        tr.close(root);
        Ok(wrong)
    };

    let mut counting = Tracer::on(input.packets.len(), true);
    alloc::start();
    let counted = replay(&mut counting);
    alloc::stop();
    let mut wrong = counted?;
    let mut once = alloc_values(&counting, info.packets as f64);
    drop(counting);

    let (mut plain_secs, mut traced_secs, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Tracer::off();
    let started = Instant::now();
    while reps.is_empty() || started.elapsed().as_secs_f64() < o.seconds {
        let t = Instant::now();
        wrong += replay(&mut Tracer::off())?;
        plain_secs.push(t.elapsed().as_secs_f64());

        let mut tr = Tracer::on(input.packets.len(), false);
        let t = Instant::now();
        wrong += replay(&mut tr)?;
        traced_secs.push(t.elapsed().as_secs_f64());
        let agg = aggregate(&tr.spans);
        let mean = |l: Layer| ratio(agg.of(l).ns as f64, agg.of(l).count as f64);
        reps.push(Values::from([
            ("hilti-firewall.state_hit_ns", mean(Layer::FwStateHit)),
            ("hilti-firewall.rule_hit_ns", mean(Layer::FwRuleHit)),
            ("hilti-firewall.miss_ns", mean(Layer::FwMiss)),
            (
                "hilti-firewall.compile_ms",
                agg.of(Layer::FwCompile).ns as f64 / 1e6,
            ),
            ("trace.span_coverage", agg.coverage),
            ("trace.spans", tr.spans.len() as f64),
        ]));
        last = tr;
    }
    if wrong > 0 {
        notes.push(format!(
            "FAIL: {wrong} replayed verdicts differ from the oracle"
        ));
    }
    let (plain, traced) = (median(&plain_secs), median(&traced_secs));
    once.insert("trace.overhead_pct", pct_over(traced, plain));
    notes.push(format!(
        "{} traced + {} untraced replays; untraced {plain:.4} s, traced {traced:.4} s",
        traced_secs.len(),
        plain_secs.len()
    ));

    let agg = aggregate(&last.spans);
    notes.push(layer_table(&agg, &last));
    write_trace_file(Workload::Firewall4k, o, &agg, &last)?;
    Ok(Outcome {
        correct: check.correct && wrong == 0,
        attempted: info.packets,
        failed: check.failed + wrong,
        metrics: to_metrics(&reps, &once),
        input: info,
        notes,
    })
}

/// Busy time, share of the run and call count per layer, as text.
fn layer_table(agg: &Aggregate, tr: &Tracer) -> String {
    let run_ns = agg.of(Layer::Run).ns.max(1) as f64;
    let mut out = format!(
        "layers of the last traced replay ({} spans):",
        tr.spans.len()
    );
    for l in LAYERS {
        let b = agg.of(l);
        if b.count > 0 && l != Layer::Run {
            let _ = write!(
                out,
                "\n    {:<26} {:>10.3} ms {:>5.1}% {:>8} spans",
                l.name(),
                b.ns as f64 / 1e6,
                b.ns as f64 * 100.0 / run_ns,
                b.count
            );
        }
    }
    if agg.of(Layer::Delivery).count > 0 {
        let _ = write!(
            out,
            "\n    {:<26} {:>10.3} ms {:>5.1}% (delivery self time)",
            "broscript.glue",
            agg.delivery_self_ns as f64 / 1e6,
            agg.delivery_self_ns as f64 * 100.0 / run_ns
        );
    }
    out
}

/// How many spans of a run are written out beside the aggregates.
const SPAN_SAMPLE: usize = 2_000;

/// Writes the last traced replay's aggregates and a span sample to
/// `benchmark/out/trace-<workload>.json`, once the run is over.
fn write_trace_file(w: Workload, o: &Opts, agg: &Aggregate, tr: &Tracer) -> Result<(), String> {
    let mut s = format!(
        "{{\"workload\":{},\"seed\":{},\"spans_total\":{},\"span_coverage\":{},\
         \"delivery_self_ns\":{},\"delivery_p50_ns\":{},\"delivery_p99_ns\":{},\"layers\":[",
        json::quote(w.name()),
        o.seed,
        tr.spans.len(),
        agg.coverage,
        agg.delivery_self_ns,
        agg.delivery_p50_ns,
        agg.delivery_p99_ns
    );
    let mut first = true;
    for l in LAYERS {
        let b = agg.of(l);
        if b.count == 0 {
            continue;
        }
        let _ = write!(
            s,
            "{}{{\"name\":{},\"busy_ns\":{},\"count\":{}}}",
            if first { "" } else { "," },
            json::quote(l.name()),
            b.ns,
            b.count
        );
        first = false;
    }
    s.push_str("],\"span_sample\":[");
    let none = |i: u32| if i == NONE { -1 } else { i64::from(i) };
    for (i, sp) in tr.spans.iter().take(SPAN_SAMPLE).enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"packet_idx\":{}}}",
            if i == 0 { "" } else { "," },
            json::quote(sp.layer.name()),
            sp.start_ns,
            sp.end_ns,
            none(sp.parent),
            none(sp.packet_idx)
        );
    }
    s.push_str("]}\n");
    json::validate(s.trim_end()).map_err(|e| format!("trace file is not JSON: {e}"))?;
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, s).map_err(|e| format!("{}: {e}", path.display()))
}
