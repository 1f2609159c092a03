//! The bench-regression gate: sampled medians vs committed baselines.
//!
//! Runs a small, fixed set of benchmarks spanning the three performance
//! surfaces this repo guards — bytecode dispatch (static specialization
//! on/off), the parallel pipeline, and telemetry overhead — and writes
//! one `hilti.bench.v1` JSON document per suite:
//!
//! * `BENCH_dispatch.json`  — fib/int-loop kernels, spec on/off.
//! * `BENCH_pipeline.json`  — governed HTTP analysis, sequential and
//!   4-worker sharded.
//! * `BENCH_telemetry.json` — the same pipeline with telemetry off/on
//!   and with the flight recorder off/on (`http_traced_off/_on`); the
//!   tracing acceptance target lives here: recording on must stay within
//!   2% of recording off.
//! * `BENCH_throughput.json` — standard-stack HTTP replay over a
//!   high-flow-count trace, sequential and at 1/2/4/8 workers; prints
//!   pkts/sec and Gbps, and on hosts with >= 4 cores enforces the
//!   parallel-scaling target (`throughput_http_std_x4` >= 2.5x faster
//!   than `throughput_http_std_seq`). `HILTI_THROUGHPUT_FLOWS` scales
//!   the trace (default 4000 flows; set 1000000 for the full run).
//!   Also records `throughput_allocs_per_pkt_milli` — heap allocations
//!   per packet (×1000) on the sequential hot path, counted by a
//!   wrapping global allocator and held to the same 15% regression
//!   budget — and enforces the zero-copy target on live counters:
//!   `pipeline.bytes_copied == 0` (with `bytes_borrowed > 0`) on an
//!   in-order trace. `dns_binpac_allocs_per_pkt_milli` and
//!   `http_binpac_allocs_per_pkt_milli` are the same count for the two
//!   BinPAC++ pipelines, checked live as exact counts: any increase over
//!   the baseline fails, on any host.
//!
//! Measured documents go to `target/bench-gate/`; committed baselines
//! live at the repo root. The gate FAILS if any benchmark regresses more
//! than 15% against its baseline and WARNS above 5%. Modes:
//!
//! ```text
//! cargo bench -p bench --bench gate                # measure + compare
//! cargo bench -p bench --bench gate -- --update    # refresh baselines
//! cargo bench -p bench --bench gate -- --test      # tiny smoke run
//! ```
//!
//! `scripts/bench_gate.sh` wraps the same invocation so CI and local runs
//! are identical. Set `BENCH_GATE_INJECT_SLOWDOWN=<factor>` to multiply
//! every measured median — used once to demonstrate the gate actually
//! fails on a 2x slowdown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, Governance, ParserStack,
};
use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti::Program;
use hilti_rt::telemetry::json;
use netpkt::synth::{dns_trace, http_trace, throughput_trace, SynthConfig};

const SCHEMA: &str = "hilti.bench.v1";
const FAIL_PCT: f64 = 15.0;
const WARN_PCT: f64 = 5.0;
/// Acceptance target: 4-worker throughput over sequential on the
/// high-flow-count trace — checked only on machines with >= 4 cores
/// (flow-sharded parallelism cannot beat sequential on fewer).
const SCALING_MIN_SPEEDUP: f64 = 2.5;
/// Acceptance target: arming the flight recorder on the governed HTTP
/// pipeline must cost no more than this over the recording-off run.
const TRACING_MAX_OVERHEAD_PCT: f64 = 2.0;

const INT_LOOP: &str = r#"
module M
int<64> kernel(int<64> n) {
    local int<64> i
    local int<64> acc
    local bool more
    i = assign 0
    acc = assign 0
loop:
    acc = int.add acc i
    acc = int.and acc 1048575
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
"#;

const FIB: &str = bench::experiments::FIB_HLT;

/// Counting allocator: tallies every heap allocation so the throughput
/// suite can report — and the gate can guard — allocations per packet.
/// The counter is relaxed-atomic (shard workers allocate concurrently)
/// and the passthrough to [`System`] keeps timing impact to one
/// uncontended `fetch_add` per allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The BinPAC++ pipelines' allocations per packet: exact, host-independent
/// counts, so unlike every timing in this file they may not rise at all.
const EXACT_ALLOC_IDS: [&str; 2] = [
    "dns_binpac_allocs_per_pkt_milli",
    "http_binpac_allocs_per_pkt_milli",
];

/// One measured benchmark: median and minimum ns/iter across samples.
/// The median is the headline number; the gate compares *minima*, which
/// approximate the uncontended cost and are far less sensitive to load
/// spikes on shared CI runners than any averaged statistic.
#[derive(Clone, Copy)]
struct Stat {
    median_ns: u64,
    min_ns: u64,
}

/// Times `samples` windows of `iters` iterations each, after untimed
/// warmup. Windows are sized to span tens of milliseconds — shorter ones
/// are hopelessly noisy for a 15% regression gate.
fn measure(samples: usize, iters: usize, mut f: impl FnMut()) -> Stat {
    for _ in 0..iters.div_ceil(4).max(1) {
        f();
    }
    let mut v = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        v.push((t.elapsed().as_nanos() / iters as u128) as u64);
    }
    v.sort_unstable();
    Stat {
        median_ns: v[v.len() / 2],
        min_ns: v[0],
    }
}

fn build_kernel(src: &str, options: BuildOptions) -> Program {
    Program::from_sources_opts(&[src], OptLevel::Full, options).expect("kernel builds")
}

fn spec_opts(specialize: bool) -> BuildOptions {
    BuildOptions {
        specialize,
        ..Default::default()
    }
}

/// One suite: ordered benchmark id → measured statistics.
type Suite = BTreeMap<&'static str, Stat>;

fn dispatch_suite(smoke: bool) -> Suite {
    let (samples, iters, fib_n, loop_n) = if smoke {
        (3, 1, 12, 500)
    } else {
        (7, 25, 18, 20_000)
    };
    let mut out = Suite::new();
    for (id, specialize) in [("int_loop_spec_on", true), ("int_loop_spec_off", false)] {
        let mut p = build_kernel(INT_LOOP, spec_opts(specialize));
        out.insert(
            id,
            measure(samples, iters, || {
                p.run("M::kernel", &[Value::Int(loop_n)]).expect("run");
            }),
        );
    }
    for (id, specialize) in [("fib18_spec_on", true), ("fib18_spec_off", false)] {
        let mut p = build_kernel(FIB, spec_opts(specialize));
        out.insert(
            id,
            measure(samples, iters, || {
                p.run("Fib::fib", &[Value::Int(fib_n)]).expect("run");
            }),
        );
    }
    out
}

fn pipeline_suite(smoke: bool) -> Suite {
    let (samples, iters, flows) = if smoke { (2, 1, 4) } else { (5, 3, 40) };
    let trace = http_trace(&SynthConfig::new(0xB1FF, flows));
    let mut out = Suite::new();
    let gov = Governance::default();
    out.insert(
        "http_binpac_compiled_seq",
        measure(samples, iters, || {
            run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov)
                .expect("analysis");
        }),
    );
    let opts = PipelineOptions {
        workers: 4,
        governance: gov,
        ..Default::default()
    };
    out.insert(
        "http_binpac_compiled_x4",
        measure(samples, iters, || {
            run_http_analysis_parallel(&trace, ParserStack::Binpac, Engine::Compiled, &opts)
                .expect("analysis");
        }),
    );
    out
}

/// Flow count for the throughput suite. The default keeps a full gate
/// run in seconds; set `HILTI_THROUGHPUT_FLOWS=1000000` for the
/// million-flow measurement (the trace generator is template-based and
/// stays cheap at that scale).
fn throughput_flows(smoke: bool) -> usize {
    if smoke {
        return 200;
    }
    std::env::var("HILTI_THROUGHPUT_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

/// End-to-end replay throughput: the standard HTTP stack over a
/// high-flow-count trace, sequential and at N ∈ {1, 2, 4, 8} workers.
/// Alongside the gate-comparable ns/iter stats, prints pkts/sec and
/// Gbps per configuration (the paper's Figure 9 axes).
fn throughput_suite(smoke: bool) -> Suite {
    let samples = if smoke { 1 } else { 3 };
    let flows = throughput_flows(smoke);
    let trace = throughput_trace(0x7487, flows);
    let pkts = trace.len() as f64;
    let bytes: usize = trace.iter().map(|p| p.data.len()).sum();
    let rate = |id: &str, st: Stat| {
        let secs = st.min_ns as f64 * 1e-9;
        println!(
            "gate: throughput/{id}: {flows} flows, {:.0} pkts ({:.1} MB): {:.2e} pkts/sec, {:.3} Gbps",
            pkts,
            bytes as f64 / 1e6,
            pkts / secs,
            bytes as f64 * 8.0 / secs / 1e9,
        );
    };
    let mut out = Suite::new();
    let gov = Governance::default();
    let st = measure(samples, 1, || {
        run_http_analysis_governed(&trace, ParserStack::Standard, Engine::Compiled, &gov)
            .expect("analysis");
    });
    rate("http_std_seq", st);
    out.insert("throughput_http_std_seq", st);
    // Allocations per packet on the sequential hot path, in thousandths
    // so the integer Stat keeps three digits of precision. Stored as a
    // suite entry so `compare` gates it with the same 15% budget as the
    // timing stats ("allocations-per-packet must not creep back up").
    let allocs = count_allocs(|| {
        run_http_analysis_governed(&trace, ParserStack::Standard, Engine::Compiled, &gov)
            .expect("analysis");
    });
    let per_pkt_milli = allocs.saturating_mul(1000) / (trace.len() as u64).max(1);
    println!(
        "gate: throughput/http_std_seq: {allocs} heap allocations ({:.2} per packet)",
        per_pkt_milli as f64 / 1000.0,
    );
    out.insert(
        "throughput_allocs_per_pkt_milli",
        Stat {
            median_ns: per_pkt_milli,
            min_ns: per_pkt_milli,
        },
    );
    // The same count for the generated parsers on the VM (one whole parse
    // per DNS datagram; HTTP with bodies and pipelining), where a per-PDU
    // allocation that creeps back in costs the most.
    let n = if smoke { 40 } else { 1_000 };
    let dns = dns_trace(&SynthConfig::new(11, n));
    let http = http_trace(&SynthConfig::new(11, n / 4));
    for (id, pkts, allocs) in [
        (
            EXACT_ALLOC_IDS[0],
            dns.len(),
            count_allocs(|| {
                run_dns_analysis_governed(&dns, ParserStack::Binpac, Engine::Compiled, &gov)
                    .expect("analysis");
            }),
        ),
        (
            EXACT_ALLOC_IDS[1],
            http.len(),
            count_allocs(|| {
                run_http_analysis_governed(&http, ParserStack::Binpac, Engine::Compiled, &gov)
                    .expect("analysis");
            }),
        ),
    ] {
        let per_pkt_milli = allocs.saturating_mul(1000) / (pkts as u64).max(1);
        println!(
            "gate: throughput/{id}: {allocs} heap allocations ({:.2} per packet)",
            per_pkt_milli as f64 / 1000.0,
        );
        out.insert(
            id,
            Stat {
                median_ns: per_pkt_milli,
                min_ns: per_pkt_milli,
            },
        );
    }
    for (id, workers) in [
        ("throughput_http_std_x1", 1usize),
        ("throughput_http_std_x2", 2),
        ("throughput_http_std_x4", 4),
        ("throughput_http_std_x8", 8),
    ] {
        let opts = PipelineOptions {
            workers,
            governance: gov,
            ..Default::default()
        };
        let st = measure(samples, 1, || {
            run_http_analysis_parallel(&trace, ParserStack::Standard, Engine::Compiled, &opts)
                .expect("analysis");
        });
        rate(&id["throughput_".len()..], st);
        out.insert(id, st);
    }
    out
}

fn telemetry_suite(smoke: bool) -> Suite {
    let (samples, iters, flows) = if smoke { (2, 1, 4) } else { (5, 3, 20) };
    let trace = http_trace(&SynthConfig::new(77, flows));
    let mut out = Suite::new();
    for (id, telemetry) in [
        ("http_governed_telemetry_off", false),
        ("http_governed_telemetry_on", true),
    ] {
        let gov = Governance {
            telemetry,
            ..Governance::default()
        };
        out.insert(
            id,
            measure(samples, iters, || {
                run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov)
                    .expect("analysis");
            }),
        );
    }
    out
}

/// Measures flight-recorder overhead as interleaved paired windows:
/// each round times the governed pipeline with recording off, then on,
/// and the acceptance check judges the *median of the per-round ratios*.
/// Measuring the two configurations seconds apart (as a plain pair of
/// `measure` calls would) lets slow machine drift — CPU frequency,
/// noisy neighbours — masquerade as overhead; pairing cancels it.
/// Returns the off/on stats (for the baseline documents) and the
/// median ratio.
fn traced_pair(smoke: bool) -> (Stat, Stat, f64) {
    let (rounds, iters, flows) = if smoke { (2, 1, 4) } else { (7, 2, 20) };
    let trace = http_trace(&SynthConfig::new(77, flows));
    let run = |tracing: bool| {
        let gov = Governance {
            tracing,
            ..Governance::default()
        };
        run_http_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &gov)
            .expect("analysis");
    };
    run(false);
    run(true);
    let window = |tracing: bool| {
        let t = Instant::now();
        for _ in 0..iters {
            run(tracing);
        }
        (t.elapsed().as_nanos() / iters as u128) as u64
    };
    let mut offs = Vec::with_capacity(rounds);
    let mut ons = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let off = window(false);
        let on = window(true);
        offs.push(off);
        ons.push(on);
        ratios.push(on as f64 / off.max(1) as f64);
    }
    offs.sort_unstable();
    ons.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    let stat = |v: &[u64]| Stat {
        median_ns: v[v.len() / 2],
        min_ns: v[0],
    };
    (stat(&offs), stat(&ons), ratios[rounds / 2])
}

/// Sample count per suite — mirrors the `(samples, ...)` tuples inside
/// the suite functions, surfaced in the document's `env` block.
fn suite_samples(name: &str, smoke: bool) -> usize {
    match (name, smoke) {
        ("dispatch", false) => 7,
        ("dispatch", true) => 3,
        ("throughput", false) => 3,
        ("throughput", true) => 1,
        (_, false) => 5,
        (_, true) => 2,
    }
}

/// Renders one suite as a `hilti.bench.v1` document. Deterministic
/// field order (BTreeMap), no wall-time metadata. The `env` block
/// records the measurement conditions (host cores, throughput flow
/// count, samples per benchmark) so a baseline can be judged against
/// the machine that produced it; `parse_baseline` and the gate
/// comparison ignore it.
fn render(suite_name: &str, suite: &Suite, smoke: bool) -> String {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\":{},\"suite\":{},\"unit\":\"ns_per_iter\",\
         \"env\":{{\"host_cores\":{host_cores},\"throughput_flows\":{},\"samples\":{}}},\
         \"benchmarks\":{{",
        json::quote(SCHEMA),
        json::quote(suite_name),
        throughput_flows(smoke),
        suite_samples(suite_name, smoke),
    );
    for (i, (id, st)) in suite.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"median_ns\":{},\"min_ns\":{}}}",
            json::quote(id),
            st.median_ns,
            st.min_ns
        );
    }
    s.push_str("}}\n");
    debug_assert!(json::validate(s.trim_end()).is_ok());
    s
}

/// Extracts `id -> (median_ns, min_ns)` from a committed baseline
/// document. The parser only needs to understand what `render` writes.
fn parse_baseline(doc: &str) -> Option<BTreeMap<String, Stat>> {
    let mut out = BTreeMap::new();
    let body = doc.split("\"benchmarks\":{").nth(1)?;
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let endq = after.find('"')?;
        let id = &after[..endq];
        let after_id = &after[endq + 1..];
        let med = after_id.strip_prefix(":{\"median_ns\":")?;
        let comma = med.find(',')?;
        let median_ns: u64 = med[..comma].parse().ok()?;
        let min = med[comma + 1..].strip_prefix("\"min_ns\":")?;
        let endn = min.find('}')?;
        let min_ns: u64 = min[..endn].parse().ok()?;
        out.insert(id.to_string(), Stat { median_ns, min_ns });
        rest = &min[endn + 1..];
        if !rest.starts_with(',') {
            break;
        }
    }
    Some(out)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Compares one measured suite against its committed baseline. Returns
/// (fail, warn) counts.
fn compare(name: &str, measured: &Suite, baseline_path: &Path) -> (u32, u32) {
    let Ok(doc) = std::fs::read_to_string(baseline_path) else {
        println!(
            "gate: {name}: no baseline at {} — run scripts/bench_gate.sh --update",
            baseline_path.display()
        );
        return (1, 0);
    };
    let Some(base) = parse_baseline(&doc) else {
        println!(
            "gate: {name}: unparseable baseline {}",
            baseline_path.display()
        );
        return (1, 0);
    };
    let mut fails = 0;
    let mut warns = 0;
    for (id, st) in measured {
        let Some(base_st) = base.get(*id) else {
            println!("gate: {name}/{id}: new benchmark (no baseline entry) — refresh baselines");
            fails += 1;
            continue;
        };
        let delta_pct = (st.min_ns as f64 / base_st.min_ns.max(1) as f64 - 1.0) * 100.0;
        let exact = EXACT_ALLOC_IDS.contains(id);
        let verdict = if delta_pct > FAIL_PCT || (exact && st.min_ns > base_st.min_ns) {
            fails += 1;
            "FAIL"
        } else if delta_pct > WARN_PCT {
            warns += 1;
            "warn"
        } else {
            "ok"
        };
        println!(
            "gate: {name}/{id}: min {} ns/iter vs baseline {} ({delta_pct:+.1}%) {verdict}",
            st.min_ns, base_st.min_ns
        );
    }
    for id in base.keys() {
        if !measured.contains_key(id.as_str()) {
            println!("gate: {name}/{id}: baseline entry no longer measured — refresh baselines");
            fails += 1;
        }
    }
    (fails, warns)
}

/// Per-benchmark min-merge of two measurement passes.
fn merge_min(mut a: Suite, b: Suite) -> Suite {
    for (id, st) in b {
        let e = a.entry(id).or_insert(st);
        e.median_ns = e.median_ns.min(st.median_ns);
        e.min_ns = e.min_ns.min(st.min_ns);
    }
    a
}

/// True if some measured minimum exceeds its baseline by more than the
/// failure threshold — i.e. a comparison pass would fail right now.
fn candidate_failure(measured: &Suite, base: &BTreeMap<String, Stat>) -> bool {
    measured.iter().any(|(id, st)| {
        base.get(*id)
            .is_some_and(|b| st.min_ns as f64 > b.min_ns.max(1) as f64 * (1.0 + FAIL_PCT / 100.0))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update = args.iter().any(|a| a == "--update");
    // `cargo bench` passes `--bench`; a `--test` smoke run keeps tier-1
    // fast and skips the baseline comparison (medians are meaningless at
    // smoke sizes).
    let smoke = args.iter().any(|a| a == "--test");

    // Measure each suite; if a pass looks like a failure against the
    // committed baseline, re-measure and keep per-benchmark minima (up to
    // two retries). Genuine regressions reproduce on every pass; CI load
    // spikes do not — this keeps the 15% gate sharp without flaking.
    type SuiteFn = fn(bool) -> Suite;
    let suite_fns: [(&str, SuiteFn); 4] = [
        ("dispatch", dispatch_suite),
        ("pipeline", pipeline_suite),
        ("telemetry", telemetry_suite),
        ("throughput", throughput_suite),
    ];
    let mut suites: Vec<(&str, Suite)> = Vec::new();
    let mut tracing_ratio = 1.0f64;
    for (name, f) in suite_fns {
        let mut merged = f(smoke);
        if !update && !smoke {
            if let Some(base) =
                std::fs::read_to_string(repo_root().join(format!("BENCH_{name}.json")))
                    .ok()
                    .as_deref()
                    .and_then(parse_baseline)
            {
                for retry in 0..2 {
                    if !candidate_failure(&merged, &base) {
                        break;
                    }
                    println!(
                        "gate: {name}: candidate regression — re-measuring (retry {})",
                        retry + 1
                    );
                    merged = merge_min(merged, f(smoke));
                }
            }
        }
        // The tracing-overhead pair is measured by its own interleaved
        // harness; the ratio check retries like the baseline compare
        // does, keeping the best (lowest) median ratio.
        if name == "telemetry" {
            let (mut off, mut on, mut ratio) = traced_pair(smoke);
            if !smoke {
                for retry in 0..2 {
                    if ratio <= 1.0 + TRACING_MAX_OVERHEAD_PCT / 100.0 {
                        break;
                    }
                    println!(
                        "gate: telemetry: tracing overhead above budget — re-measuring (retry {})",
                        retry + 1
                    );
                    let (off2, on2, ratio2) = traced_pair(smoke);
                    off.median_ns = off.median_ns.min(off2.median_ns);
                    off.min_ns = off.min_ns.min(off2.min_ns);
                    on.median_ns = on.median_ns.min(on2.median_ns);
                    on.min_ns = on.min_ns.min(on2.min_ns);
                    ratio = ratio.min(ratio2);
                }
            }
            merged.insert("http_traced_off", off);
            merged.insert("http_traced_on", on);
            tracing_ratio = ratio;
        }
        suites.push((name, merged));
    }

    // Demonstration hook: inflate measured medians to prove the gate trips.
    let inject: f64 = std::env::var("BENCH_GATE_INJECT_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let suites: Vec<(&str, Suite)> = suites
        .into_iter()
        .map(|(name, s)| {
            let s = s
                .into_iter()
                .map(|(id, st)| {
                    (
                        id,
                        Stat {
                            median_ns: (st.median_ns as f64 * inject) as u64,
                            min_ns: (st.min_ns as f64 * inject) as u64,
                        },
                    )
                })
                .collect();
            (name, s)
        })
        .collect();
    if inject != 1.0 {
        println!("gate: BENCH_GATE_INJECT_SLOWDOWN={inject} — medians inflated for demonstration");
    }

    let out_dir = repo_root().join("target/bench-gate");
    std::fs::create_dir_all(&out_dir).expect("create target/bench-gate");
    let mut fails = 0;
    let mut warns = 0;
    for (name, suite) in &suites {
        let doc = render(name, suite, smoke);
        let measured_path = out_dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&measured_path, &doc).expect("write measured document");
        let baseline_path = repo_root().join(format!("BENCH_{name}.json"));
        if update {
            std::fs::write(&baseline_path, &doc).expect("write baseline");
            println!(
                "gate: {name}: baseline updated at {}",
                baseline_path.display()
            );
        } else if !smoke {
            let (f, w) = compare(name, suite, &baseline_path);
            fails += f;
            warns += w;
        }
    }

    // The flight-recorder acceptance target, judged on the median of
    // interleaved paired windows (see `traced_pair`): arming span
    // recording must not slow the governed HTTP pipeline by more than
    // the overhead budget.
    if !smoke {
        let pct = (tracing_ratio - 1.0) * 100.0;
        let verdict = if pct <= TRACING_MAX_OVERHEAD_PCT {
            "ok"
        } else {
            fails += 1;
            "FAIL"
        };
        println!(
            "gate: telemetry/tracing overhead {pct:+.2}% (budget <= {TRACING_MAX_OVERHEAD_PCT}%, paired-median) {verdict}"
        );
    }

    // The parallel-scaling acceptance target, checked on live minima:
    // 4 workers must beat sequential by the required factor. Flow-sharded
    // parallelism cannot speed anything up without cores to run on, so on
    // hosts with fewer than 4 the check reports SKIP instead of failing.
    if !smoke {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let tp = &suites[3].1;
        let seq = tp["throughput_http_std_seq"].min_ns as f64;
        let x4 = tp["throughput_http_std_x4"].min_ns as f64;
        let speedup = seq / x4.max(1.0);
        if cores >= 4 {
            let verdict = if speedup >= SCALING_MIN_SPEEDUP {
                "ok"
            } else {
                fails += 1;
                "FAIL"
            };
            println!(
                "gate: throughput x4 speedup {speedup:.2}x (target >= {SCALING_MIN_SPEEDUP}x) {verdict}"
            );
        } else {
            println!(
                "gate: throughput x4 speedup {speedup:.2}x — SKIP \
                 ({cores} core(s) available; target {SCALING_MIN_SPEEDUP}x needs >= 4)"
            );
        }
    }

    // The zero-copy acceptance target: with telemetry on, an in-order
    // throughput trace must route every delivered payload byte through
    // the arena-borrow path — not a single payload memcpy from decode to
    // parse (`pipeline.bytes_copied == 0`, `bytes_borrowed > 0`).
    if !smoke {
        let trace = throughput_trace(0x7487, 500);
        let gov = Governance {
            telemetry: true,
            ..Governance::default()
        };
        let r = run_http_analysis_governed(&trace, ParserStack::Standard, Engine::Compiled, &gov)
            .expect("zero-copy check analysis");
        let counter = |name: &str| {
            r.telemetry
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let copied = counter("pipeline.bytes_copied");
        let borrowed = counter("pipeline.bytes_borrowed");
        let verdict = if copied == 0 && borrowed > 0 {
            "ok"
        } else {
            fails += 1;
            "FAIL"
        };
        println!(
            "gate: throughput zero-copy: bytes_copied={copied} bytes_borrowed={borrowed} \
             (target: 0 copied, > 0 borrowed) {verdict}"
        );
    }

    if smoke {
        println!("gate: smoke run complete (no comparison)");
        return ExitCode::SUCCESS;
    }
    if fails > 0 {
        println!("gate: FAILED ({fails} failure(s), {warns} warning(s))");
        return ExitCode::FAILURE;
    }
    println!("gate: passed ({warns} warning(s))");
    ExitCode::SUCCESS
}
