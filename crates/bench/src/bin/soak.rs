//! `soak` — long-haul robustness harness for the parallel pipeline.
//!
//! Sustains synthetic HTTP/DNS traffic through the flow-sharded pipeline
//! in waves of fresh flows until a flow target or a wall-clock box is
//! hit, asserting on every wave that the run is loss-free and the heap
//! stays bounded:
//!
//! * zero flow errors, zero shard faults, zero shed packets (under the
//!   default `Block` overload policy);
//! * every flow of the wave produced its log line (no silent effect
//!   loss);
//! * the per-flow parser heap peak (telemetry gauge
//!   `pipeline.peak_flow_heap_bytes`) stays under its budget;
//! * live heap bytes — tracked by a counting allocator — return to the
//!   post-first-wave baseline after every wave, i.e. the pipeline does
//!   not leak across waves.
//!
//! Usage:
//!   soak [--smoke] [--flows N] [--wave N] [--seconds S] [--workers N]
//!        [--proto http|dns|mix] [--seed N] [--shed DEPTH]
//!        [--deadline-ms MS] [--out FILE] [--live-stats SECS]
//!        [--trace-out FILE]
//!
//! `--smoke` is the CI profile: a reduced flow count inside a tight time
//! box. The full profile targets ~1M flows. Exit status is non-zero on
//! any invariant violation, so CI can gate on it directly.
//!
//! `--live-stats S` arms the flight recorder and prints a status line
//! (pkts/s, p99 delivery latency, shed count, peak per-shard queue
//! depth) every ~S seconds. `--trace-out FILE` writes the last wave's
//! trace as Chrome trace-event JSON (`hilti.trace.v1`) plus a
//! `FILE.postmortem.jsonl` sibling when fault dumps were captured; with
//! either flag the `--out` summary gains delivery-latency quantiles.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use broscript::host::Engine;
use broscript::parallel::{
    run_dns_analysis_parallel, run_http_analysis_parallel, OverloadPolicy, PipelineOptions,
};
use broscript::pipeline::{AnalysisResult, Faults, Governance, ParserStack};
use hilti_rt::trace::{PostmortemDump, TraceReport};
use netpkt::synth::{throughput_dns_trace, throughput_trace};

/// Exact live-byte accounting at the allocator layer (not RSS, so
/// allocator caching and kernel page laziness can't hide a leak).
struct TrackingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

#[derive(Clone, Copy, PartialEq)]
enum Proto {
    Http,
    Dns,
}

struct Config {
    total_flows: usize,
    wave_flows: usize,
    seconds: u64,
    workers: usize,
    protos: Vec<Proto>,
    seed: u64,
    shed_depth: Option<usize>,
    deadline_ms: Option<u64>,
    out: Option<String>,
    live_stats: Option<u64>,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: soak [--smoke] [--flows N] [--wave N] [--seconds S] [--workers N] \
         [--proto http|dns|mix] [--seed N] [--shed DEPTH] [--deadline-ms MS] [--out FILE] \
         [--live-stats SECS] [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        total_flows: 1_000_000,
        wave_flows: 50_000,
        seconds: 600,
        workers: 4,
        protos: vec![Proto::Http, Proto::Dns],
        seed: 0x50AC,
        shed_depth: None,
        deadline_ms: None,
        out: None,
        live_stats: None,
        trace_out: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("soak: {name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--smoke" => {
                cfg.total_flows = 60_000;
                cfg.wave_flows = 10_000;
                cfg.seconds = 60;
            }
            "--flows" => cfg.total_flows = val("--flows").parse().unwrap_or_else(|_| usage()),
            "--wave" => cfg.wave_flows = val("--wave").parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = val("--seconds").parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--shed" => cfg.shed_depth = Some(val("--shed").parse().unwrap_or_else(|_| usage())),
            "--deadline-ms" => {
                cfg.deadline_ms = Some(val("--deadline-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--out" => cfg.out = Some(val("--out")),
            "--live-stats" => {
                cfg.live_stats = Some(val("--live-stats").parse().unwrap_or_else(|_| usage()))
            }
            "--trace-out" => cfg.trace_out = Some(val("--trace-out")),
            "--proto" => {
                cfg.protos = match val("--proto").as_str() {
                    "http" => vec![Proto::Http],
                    "dns" => vec![Proto::Dns],
                    "mix" => vec![Proto::Http, Proto::Dns],
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    cfg.wave_flows = cfg.wave_flows.clamp(1, cfg.total_flows.max(1));
    cfg
}

/// Per-flow parser-heap ceiling. Throughput flows buffer at most a few
/// KiB each; anything past this is runaway buffering, not workload.
const PER_FLOW_HEAP: u64 = 64 * 1024;

/// Live-heap growth tolerated across waves, on top of the post-first-wave
/// baseline: covers allocator-level jitter (hash-map capacity steps,
/// thread-local caches), not leaks, which grow per wave.
const LEAK_SLACK: u64 = 16 * 1024 * 1024;

fn main() {
    let cfg = parse_args();
    let gov = Governance {
        idle_timeout_ms: Some(10_000),
        per_flow_heap: Some(PER_FLOW_HEAP),
        script_fuel: Some(100_000_000),
        quarantine: true,
        telemetry: true,
        delivery_deadline_ms: cfg.deadline_ms,
        tracing: cfg.live_stats.is_some() || cfg.trace_out.is_some(),
        faults: Faults::new(),
    };
    let opts = PipelineOptions {
        workers: cfg.workers,
        governance: gov,
        overload: match cfg.shed_depth {
            Some(d) => OverloadPolicy::Shed { max_queue_depth: d },
            None => OverloadPolicy::Block,
        },
        ..Default::default()
    };
    // Under `Block` with no deadline the run must be perfectly lossless;
    // `Shed` / tight deadlines intentionally trade loss for liveness, so
    // there the harness only checks containment and accounting.
    let lossless = cfg.shed_depth.is_none() && cfg.deadline_ms.is_none();

    println!(
        "soak: target {} flows in waves of {}, {}s box, {} workers, {}",
        cfg.total_flows,
        cfg.wave_flows,
        cfg.seconds,
        cfg.workers,
        if lossless {
            "lossless"
        } else {
            "lossy-tolerant"
        },
    );

    let start = Instant::now();
    let mut violations = 0usize;
    let mut flows_done = 0usize;
    let mut packets_done = 0u64;
    let mut log_lines = 0usize;
    let mut shed_total = 0u64;
    let mut peak_flow_heap = 0u64;
    let mut baseline_live: Option<u64> = None;
    let mut wave = 0usize;
    // Flight-recorder accumulation (only populated when tracing is on):
    // the last wave's full report for `--trace-out`, postmortems from all
    // waves, max delivery quantiles for the summary, and a live-stats
    // window for periodic reporting.
    let mut last_report: Option<TraceReport> = None;
    let mut postmortems: Vec<PostmortemDump> = Vec::new();
    let (mut p50_max, mut p95_max, mut p99_max) = (0u64, 0u64, 0u64);
    let mut live_last = Instant::now();
    let (mut live_pkts, mut live_shed, mut live_p99, mut live_depth) = (0u64, 0u64, 0u64, 0u64);

    while flows_done < cfg.total_flows && start.elapsed().as_secs() < cfg.seconds {
        let proto = cfg.protos[wave % cfg.protos.len()];
        let n = cfg.wave_flows.min(cfg.total_flows - flows_done);
        let seed = cfg.seed.wrapping_add(wave as u64);
        let trace = match proto {
            Proto::Http => throughput_trace(seed, n),
            Proto::Dns => throughput_dns_trace(seed, n),
        };
        let mut r: AnalysisResult = match proto {
            Proto::Http => {
                run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Compiled, &opts)
            }
            Proto::Dns => {
                run_dns_analysis_parallel(&trace, ParserStack::Binpac, Engine::Compiled, &opts)
            }
        }
        .unwrap_or_else(|e| {
            eprintln!("soak: wave {wave} aborted: {e}");
            std::process::exit(1);
        });
        drop(trace);

        let mut fail = |msg: String| {
            eprintln!("soak: VIOLATION wave {wave}: {msg}");
            violations += 1;
        };
        let logged = match proto {
            Proto::Http => r.http_log.len(),
            Proto::Dns => r.dns_log.len(),
        };
        if !r.shard_faults.is_empty() {
            fail(format!("shard faults: {:?}", r.shard_faults));
        }
        if lossless {
            if !r.flow_errors.is_empty() {
                fail(format!(
                    "{} flow errors (first: {:?})",
                    r.flow_errors.len(),
                    r.flow_errors.first()
                ));
            }
            if r.shed_packets != 0 {
                fail(format!("{} packets shed under Block", r.shed_packets));
            }
            if logged != n {
                fail(format!("effect loss: {logged} log lines for {n} flows"));
            }
        }
        let peak = r.telemetry.gauge("pipeline.peak_flow_heap_bytes");
        if peak > PER_FLOW_HEAP {
            fail(format!(
                "per-flow heap peak {peak} over budget {PER_FLOW_HEAP}"
            ));
        }

        flows_done += n;
        packets_done += r.packets;
        log_lines += logged;
        shed_total += r.shed_packets;
        peak_flow_heap = peak_flow_heap.max(peak);
        if let Some(t) = r.trace.take() {
            p50_max = p50_max.max(t.latency.delivery_p50_ns);
            p95_max = p95_max.max(t.latency.delivery_p95_ns);
            p99_max = p99_max.max(t.latency.delivery_p99_ns);
            live_p99 = live_p99.max(t.latency.delivery_p99_ns);
            postmortems.extend(t.postmortems.iter().cloned());
            last_report = Some(t);
        }
        live_pkts += r.packets;
        live_shed += r.shed_packets;
        live_depth = live_depth.max(
            r.dispatch_telemetry
                .gauges
                .iter()
                .filter(|(g, _)| g.starts_with("pipeline.queue_depth."))
                .map(|(_, v)| *v)
                .max()
                .unwrap_or(0),
        );
        drop(r);
        if let Some(secs) = cfg.live_stats {
            let el = live_last.elapsed();
            if el.as_secs() >= secs.max(1) {
                println!(
                    "  live: {:>10.0} pkts/s | p99 delivery {:>9} ns | shed {:>6} | peak queue depth {:>5}",
                    live_pkts as f64 / el.as_secs_f64(),
                    live_p99,
                    live_shed,
                    live_depth,
                );
                live_last = Instant::now();
                (live_pkts, live_shed, live_p99, live_depth) = (0, 0, 0, 0);
            }
        }

        // Leak check: once warm, live bytes must return to baseline.
        let live = LIVE.load(Ordering::Relaxed);
        match baseline_live {
            None => baseline_live = Some(live),
            Some(base) if live > base + LEAK_SLACK => {
                fail(format!(
                    "live heap grew {} bytes past the post-wave baseline {}",
                    live - base,
                    base
                ));
            }
            Some(_) => {}
        }
        wave += 1;
        println!(
            "  wave {:>3} [{}]: {:>7} flows, {:>8} pkts total, peak flow heap {:>6} B, live {:>9} B",
            wave,
            match proto {
                Proto::Http => "http",
                Proto::Dns => "dns ",
            },
            n,
            packets_done,
            peak,
            live,
        );
    }

    let elapsed = start.elapsed().as_secs_f64();
    let peak_live = PEAK.load(Ordering::Relaxed);
    println!(
        "soak: {} waves, {} flows, {} packets in {:.1}s ({:.0} flows/s); peak live heap {:.1} MiB; {} violations",
        wave,
        flows_done,
        packets_done,
        elapsed,
        flows_done as f64 / elapsed.max(1e-9),
        peak_live as f64 / (1024.0 * 1024.0),
        violations,
    );

    if let Some(path) = &cfg.out {
        // Latency fields carry the worst wave observed; they are absent
        // (zero) when tracing was off for the whole run.
        let json = format!(
            "{{\"waves\":{wave},\"flows\":{flows_done},\"packets\":{packets_done},\
             \"log_lines\":{log_lines},\"shed_packets\":{shed_total},\
             \"peak_flow_heap_bytes\":{peak_flow_heap},\"peak_live_heap_bytes\":{peak_live},\
             \"delivery_p50_ns\":{p50_max},\"delivery_p95_ns\":{p95_max},\
             \"delivery_p99_ns\":{p99_max},\"postmortems\":{n_posts},\
             \"elapsed_s\":{elapsed:.3},\"violations\":{violations}}}\n",
            n_posts = postmortems.len(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("soak: cannot write {path}: {e}");
            violations += 1;
        }
    }

    if let Some(path) = &cfg.trace_out {
        match &last_report {
            Some(report) => {
                if let Err(e) = std::fs::write(path, report.to_chrome_json()) {
                    eprintln!("soak: cannot write {path}: {e}");
                    violations += 1;
                } else {
                    println!(
                        "soak: wrote {path}: {} span(s) from the final wave (hilti.trace.v1)",
                        report.spans.len()
                    );
                    println!("{}", report.latency.render());
                }
            }
            None => eprintln!("soak: --trace-out set but no wave produced a trace"),
        }
        if !postmortems.is_empty() {
            let pm_path = format!("{path}.postmortem.jsonl");
            let body: String = postmortems.iter().map(|d| d.to_jsonl()).collect();
            if let Err(e) = std::fs::write(&pm_path, body) {
                eprintln!("soak: cannot write {pm_path}: {e}");
                violations += 1;
            } else {
                println!(
                    "soak: wrote {pm_path}: {} postmortem dump(s) across all waves",
                    postmortems.len()
                );
            }
        }
    }

    if flows_done == 0 {
        eprintln!("soak: no wave completed inside the time box");
        std::process::exit(1);
    }
    std::process::exit(if violations == 0 { 0 } else { 1 });
}
