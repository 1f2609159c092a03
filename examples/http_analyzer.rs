//! Full HTTP analysis: trace → parsers → scripts → logs (the §6.4/§6.5
//! pipeline).
//!
//! Synthesizes an HTTP trace, runs it through BOTH parser stacks (standard
//! handwritten vs BinPAC++-generated on HILTI) and BOTH script engines
//! (interpreter vs compiled to HILTI), prints the first log lines, and
//! reports the Table 2 / Table 3 agreement numbers. It then re-runs the
//! BinPAC++ analysis on the flow-sharded parallel pipeline (§3.2
//! hash-based placement), checks the output is byte-identical to the
//! sequential run, and reports the throughput.
//!
//! Run with: `cargo run --release --example http_analyzer`
//! `[-- --workers N] [--trace-out out.json] [--live-stats SECS]`
//! (`--workers` defaults to `min(cores, 8)`).
//!
//! `--trace-out` re-runs the parallel analysis with the flight recorder
//! armed and writes a Chrome trace-event / Perfetto-compatible JSON file
//! (`hilti.trace.v1`) covering all six pipeline stages, plus a `.postmortem
//! .jsonl` sibling when any fault dump was captured. `--live-stats S`
//! keeps replaying the trace and prints a status line (pkts/s, p99
//! delivery latency, shed count, peak per-shard queue depth) every ~S
//! seconds for a few windows.

use broscript::host::Engine;
use broscript::parallel::{default_workers, run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{run_http_analysis, Governance, ParserStack};
use netpkt::logs::agreement;
use netpkt::synth::{http_trace, SynthConfig};

struct Args {
    workers: usize,
    trace_out: Option<String>,
    live_stats: Option<u64>,
}

fn parse_args() -> Args {
    let mut out = Args {
        workers: default_workers(),
        trace_out: None,
        live_stats: None,
    };
    let mut args = std::env::args().skip(1);
    let numeric = |flag: &str, v: Option<String>| -> u64 {
        let v = v.unwrap_or_default();
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} expects a number, got {v:?}"))
    };
    while let Some(a) = args.next() {
        if a == "--workers" {
            out.workers = numeric("--workers", args.next()) as usize;
        } else if let Some(v) = a.strip_prefix("--workers=") {
            out.workers = numeric("--workers", Some(v.to_owned())) as usize;
        } else if a == "--trace-out" {
            out.trace_out = Some(args.next().expect("--trace-out expects a path"));
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            out.trace_out = Some(v.to_owned());
        } else if a == "--live-stats" {
            out.live_stats = Some(numeric("--live-stats", args.next()));
        } else if let Some(v) = a.strip_prefix("--live-stats=") {
            out.live_stats = Some(numeric("--live-stats", Some(v.to_owned())));
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();
    let workers = args.workers;
    let trace = http_trace(&SynthConfig::new(2026, 25));
    println!("synthesized {} packets of HTTP traffic", trace.len());

    let std_i = run_http_analysis(&trace, ParserStack::Standard, Engine::Interpreted)?;
    let pac_i = run_http_analysis(&trace, ParserStack::Binpac, Engine::Interpreted)?;
    let std_c = run_http_analysis(&trace, ParserStack::Standard, Engine::Compiled)?;

    println!("\nhttp.log (standard parsers, interpreted scripts) — first 5 lines:");
    for line in std_i.http_log.iter().take(5) {
        println!("  {line}");
    }
    println!("\nfiles.log — first 3 lines:");
    for line in std_i.files_log.iter().take(3) {
        println!("  {line}");
    }

    let t2 = agreement(&std_i.http_log, &pac_i.http_log);
    println!(
        "\nTable 2 (standard vs BinPAC++ parsers): http.log {} vs {} lines, {:.2}% identical",
        std_i.http_log.len(),
        pac_i.http_log.len(),
        t2.percent()
    );
    let t2f = agreement(&std_i.files_log, &pac_i.files_log);
    println!(
        "                                        files.log {:.2}% identical",
        t2f.percent()
    );
    let t3 = agreement(&std_i.http_log, &std_c.http_log);
    println!(
        "Table 3 (interpreted vs compiled scripts): http.log {:.2}% identical",
        t3.percent()
    );

    println!(
        "\nevents processed: {} (standard) / {} (binpac)",
        std_i.events, pac_i.events
    );

    // Parallel pipeline: same trace, N flow-sharded workers, output
    // byte-identical to the sequential run by construction.
    let opts = PipelineOptions {
        workers,
        ..Default::default()
    };
    let start = std::time::Instant::now();
    let par = run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Interpreted, &opts)?;
    let elapsed = start.elapsed();
    assert_eq!(par.http_log, pac_i.http_log, "parallel http.log diverged");
    assert_eq!(
        par.files_log, pac_i.files_log,
        "parallel files.log diverged"
    );
    assert_eq!(par.output, pac_i.output, "parallel output diverged");
    assert_eq!(par.events, pac_i.events, "parallel event count diverged");
    let bytes: usize = trace.iter().map(|p| p.data.len()).sum();
    println!(
        "\nparallel pipeline ({workers} workers): {} events in {:.1} ms ({:.1} MB/s), output identical to sequential",
        par.events,
        elapsed.as_secs_f64() * 1e3,
        bytes as f64 / 1e6 / elapsed.as_secs_f64()
    );

    let traced_opts = PipelineOptions {
        workers,
        governance: Governance {
            tracing: true,
            // Dispatch-plane metrics feed the live-stats queue-depth field.
            telemetry: true,
            ..Default::default()
        },
        ..Default::default()
    };

    if let Some(path) = &args.trace_out {
        // Re-run with the flight recorder armed: dispatch, queue wait,
        // decode, parse, script, and merge spans all land in the export.
        let traced = run_http_analysis_parallel(
            &trace,
            ParserStack::Binpac,
            Engine::Compiled,
            &traced_opts,
        )?;
        let report = traced.trace.expect("tracing was requested");
        std::fs::write(path, report.to_chrome_json())?;
        println!(
            "wrote {path}: {} span(s), {} dropped (hilti.trace.v1, open in Perfetto)",
            report.spans.len(),
            report.spans_dropped
        );
        println!("{}", report.latency.render());
        if !report.postmortems.is_empty() {
            let pm_path = format!("{path}.postmortem.jsonl");
            std::fs::write(&pm_path, report.postmortems_jsonl())?;
            println!(
                "wrote {pm_path}: {} postmortem dump(s)",
                report.postmortems.len()
            );
        }
    }

    if let Some(secs) = args.live_stats {
        let window = std::time::Duration::from_secs(secs.max(1));
        println!("\nlive stats ({}s windows, 3 windows):", secs.max(1));
        for _ in 0..3 {
            let started = std::time::Instant::now();
            let mut packets = 0u64;
            let mut shed = 0u64;
            let mut p99 = 0u64;
            let mut depth = 0u64;
            while started.elapsed() < window {
                let r = run_http_analysis_parallel(
                    &trace,
                    ParserStack::Binpac,
                    Engine::Compiled,
                    &traced_opts,
                )?;
                packets += r.packets;
                shed += r.shed_packets;
                if let Some(t) = &r.trace {
                    p99 = p99.max(t.latency.delivery_p99_ns);
                }
                depth = depth.max(
                    r.dispatch_telemetry
                        .gauges
                        .iter()
                        .filter(|(n, _)| n.starts_with("pipeline.queue_depth."))
                        .map(|(_, v)| *v)
                        .max()
                        .unwrap_or(0),
                );
            }
            let el = started.elapsed().as_secs_f64();
            println!(
                "  {:>10.0} pkts/s | p99 delivery {:>9} ns | shed {:>6} | peak queue depth {:>5}",
                packets as f64 / el,
                p99,
                shed,
                depth
            );
        }
    }
    Ok(())
}
