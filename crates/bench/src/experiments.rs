//! The experiment implementations (E1–E9, A1–A3; see DESIGN.md).

use std::time::Instant;

use hilti::fiber::{Fiber, Step};
use hilti::passes::OptLevel;
use hilti::threads::ThreadPool;
use hilti::value::Value;
use hilti::vm::TierMix;
use hilti_rt::error::RtResult;
use hilti_rt::trace::Stage;

use broscript::host::Engine;
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Governance, ParserStack,
};
use netpkt::logs::{agreement, Agreement};
use netpkt::pcap::RawPacket;
use netpkt::synth::{dns_trace, http_trace, SynthConfig};

/// Default workload sizes (scale with the `REPRO_SCALE` env var).
pub fn scale() -> usize {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The standard HTTP workload.
pub fn http_workload() -> Vec<RawPacket> {
    http_trace(&SynthConfig::new(0xB1FF, 60 * scale()))
}

/// The standard DNS workload.
pub fn dns_workload() -> Vec<RawPacket> {
    dns_trace(&SynthConfig::new(0xD0_5E, 1200 * scale()))
}

// ---------------------------------------------------------------------------
// E1: fiber micro-benchmark (§5)

pub struct FiberStats {
    /// Resume+suspend round trips per second on an existing fiber.
    pub switches_per_sec: f64,
    /// Full create → run → finish cycles per second.
    pub create_cycles_per_sec: f64,
}

/// Reproduces the §5 fiber micro-benchmark (paper: ~18 M switches/s and
/// ~5 M create cycles/s with setcontext on a Xeon 5570; our fibers are VM
/// frame stacks, so absolute numbers differ while the shape — switching
/// much cheaper than creation+teardown being in the same order — holds).
pub fn fiber_microbench(iterations: u64) -> RtResult<FiberStats> {
    let src = r#"
module M
void spin(int<64> n) {
    local int<64> i
    local bool more
    i = assign 0
loop:
    yield
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return
}
void nop() {
    return
}
"#;
    let mut prog = hilti::Program::from_source(src)?;

    // Switch benchmark: one fiber yielding `iterations` times.
    let mut fiber = Fiber::new("M::spin", vec![Value::Int(iterations as i64)]);
    let start = Instant::now();
    while let Step::Suspended = prog.resume(&mut fiber)? {}
    let switch_elapsed = start.elapsed().as_secs_f64();

    // Create/run/delete benchmark.
    let create_iters = iterations / 4;
    let start = Instant::now();
    for _ in 0..create_iters {
        let mut f = Fiber::new("M::nop", vec![]);
        match prog.resume(&mut f)? {
            Step::Finished(_) => {}
            Step::Suspended => unreachable!("nop never suspends"),
        }
    }
    let create_elapsed = start.elapsed().as_secs_f64();

    Ok(FiberStats {
        switches_per_sec: iterations as f64 / switch_elapsed,
        create_cycles_per_sec: create_iters as f64 / create_elapsed,
    })
}

// ---------------------------------------------------------------------------
// E2: BPF filter (§6.2)

pub struct BpfResult {
    pub packets: usize,
    pub matches_classic: u64,
    pub matches_hilti: u64,
    pub ns_classic: u64,
    pub ns_hilti: u64,
    /// HILTI cycles over classic-BPF cycles (paper: 1.70×).
    pub ratio: f64,
    pub match_fraction: f64,
}

/// §6.2: the same filter compiled to classic BPF (interpreted) and to
/// HILTI (compiled VM); verifies match parity and compares time.
pub fn bpf_experiment(trace: &[RawPacket]) -> RtResult<BpfResult> {
    // Like the paper, pick addresses from the trace: one client host and
    // the first servers as sources, ≈12% of packets (88 of 725 at
    // `REPRO_SCALE=1`).
    let filter = "host 10.1.0.1 or src net 93.184.0.0/29";
    let expr = hilti_bpf::parse_filter(filter)?;
    let classic = hilti_bpf::classic::compile_classic(&expr)?;
    let mut hilti_f = hilti_bpf::HiltiFilter::compile(&expr, OptLevel::Full)?;

    // Repeat passes so the (fast) classic interpreter accumulates
    // measurable time.
    let reps = (200_000 / trace.len().max(1)).max(1) as u64;
    let start = Instant::now();
    let mut matches_classic = 0u64;
    for _ in 0..reps {
        for p in trace {
            matches_classic += u64::from(hilti_bpf::classic::bpf_filter(&classic, &p.data));
        }
    }
    let ns_classic = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut matches_hilti = 0u64;
    for _ in 0..reps {
        for p in trace {
            matches_hilti += u64::from(hilti_f.matches(&p.data)?);
        }
    }
    let ns_hilti = start.elapsed().as_nanos() as u64;

    let matches_classic = matches_classic / reps;
    let matches_hilti = matches_hilti / reps;

    Ok(BpfResult {
        packets: trace.len(),
        matches_classic,
        matches_hilti,
        ns_classic,
        ns_hilti,
        ratio: ns_hilti as f64 / ns_classic.max(1) as f64,
        match_fraction: matches_classic as f64 / trace.len().max(1) as f64,
    })
}

// ---------------------------------------------------------------------------
// E3: stateful firewall (§6.3)

pub struct FirewallResult {
    pub packets: usize,
    pub matches_hilti: u64,
    pub matches_reference: u64,
    pub disagreements: u64,
    pub ns_hilti: u64,
    pub ns_reference: u64,
}

/// §6.3: the HILTI firewall vs the independent reference implementation on
/// a (time, src, dst) stream derived from the DNS trace.
pub fn firewall_experiment(trace: &[RawPacket]) -> RtResult<FirewallResult> {
    use hilti_firewall::{HiltiFirewall, ReferenceFirewall, Rule};
    let rules = vec![
        Rule::new("10.2.0.0/16", "8.8.8.0/24", true)?,
        Rule::new("10.2.3.0/24", "8.8.8.0/24", false)?,
        Rule::new("8.8.8.0/24", "10.2.0.0/16", false)?,
    ];
    let mut fw = HiltiFirewall::compile(&rules, OptLevel::Full)?;
    let mut rf = ReferenceFirewall::new(&rules);

    // Extract (ts, src, dst) like the paper's ipsumdump step.
    let mut stream = Vec::new();
    for p in trace {
        if let Ok(d) = netpkt::decode::decode_ethernet(p) {
            stream.push((p.ts, d.src, d.dst));
        }
    }

    let start = Instant::now();
    let mut matches_hilti = 0u64;
    let mut verdicts = Vec::with_capacity(stream.len());
    for (ts, s, d) in &stream {
        let v = fw.match_packet(*ts, *s, *d)?;
        matches_hilti += u64::from(v);
        verdicts.push(v);
    }
    let ns_hilti = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut matches_reference = 0u64;
    let mut disagreements = 0u64;
    for ((ts, s, d), hv) in stream.iter().zip(&verdicts) {
        let v = rf.match_packet(*ts, *s, *d);
        matches_reference += u64::from(v);
        disagreements += u64::from(v != *hv);
    }
    let ns_reference = start.elapsed().as_nanos() as u64;

    Ok(FirewallResult {
        packets: stream.len(),
        matches_hilti,
        matches_reference,
        disagreements,
        ns_hilti,
        ns_reference,
    })
}

// ---------------------------------------------------------------------------
// E4–E7: Tables 2/3 and the Figure 9/10 breakdowns

/// The runs behind Tables 2/3 and Figures 9/10 are traced: the figures'
/// component times are read off the flight recorder. Tracing never changes
/// the logs the tables compare.
fn traced() -> Governance {
    Governance {
        tracing: true,
        ..Governance::default()
    }
}

/// Figures 9/10's four components of one traced run, in ns: the flight
/// recorder's exclusive stage sums, mapped parse → protocol parsing,
/// script → script execution, glue → HILTI-to-Bro glue, and decode (plus
/// the sharded driver's dispatch and merge) → other. Queue wait is time a
/// delivery spent waiting, not work, and belongs to no component.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub parsing: u64,
    pub script: u64,
    pub glue: u64,
    pub other: u64,
}

impl Breakdown {
    /// The breakdown of a run made with `Governance::tracing` on.
    pub fn of(r: &AnalysisResult) -> Breakdown {
        let report = r.trace.as_ref().expect("breakdowns come from traced runs");
        let mut b = Breakdown::default();
        for s in &report.latency.stages {
            let component = match s.stage {
                Stage::Parse => &mut b.parsing,
                Stage::Script => &mut b.script,
                Stage::Glue => &mut b.glue,
                Stage::Decode | Stage::Dispatch | Stage::Merge => &mut b.other,
                Stage::QueueWait => continue,
            };
            *component += s.total_ns;
        }
        b
    }

    /// `(JSON key, short label, ns)` per component, in the figures' order.
    pub fn components(&self) -> [(&'static str, &'static str, u64); 4] {
        [
            ("protocol_parsing", "parse", self.parsing),
            ("script_execution", "script", self.script),
            ("glue", "glue", self.glue),
            ("other", "other", self.other),
        ]
    }

    pub fn total_ns(&self) -> u64 {
        self.parsing + self.script + self.glue + self.other
    }
}

pub struct ParserComparison {
    pub std_result: AnalysisResult,
    pub pac_result: AnalysisResult,
    pub http_agreement: Agreement,
    pub files_agreement: Agreement,
    pub dns_agreement: Agreement,
}

/// Runs both parser stacks (standard handwritten vs BinPAC++/HILTI) with
/// the interpreted script engine and compares logs (Table 2) and component
/// times (Figure 9).
pub fn parser_comparison_http(trace: &[RawPacket]) -> RtResult<ParserComparison> {
    let run = |stack| run_http_analysis_governed(trace, stack, Engine::Interpreted, &traced());
    let (std_result, pac_result) = (run(ParserStack::Standard)?, run(ParserStack::Binpac)?);
    Ok(ParserComparison {
        http_agreement: agreement(&std_result.http_log, &pac_result.http_log),
        files_agreement: agreement(&std_result.files_log, &pac_result.files_log),
        dns_agreement: agreement(&std_result.dns_log, &pac_result.dns_log),
        std_result,
        pac_result,
    })
}

pub fn parser_comparison_dns(trace: &[RawPacket]) -> RtResult<ParserComparison> {
    let run = |stack| run_dns_analysis_governed(trace, stack, Engine::Interpreted, &traced());
    let (std_result, pac_result) = (run(ParserStack::Standard)?, run(ParserStack::Binpac)?);
    Ok(ParserComparison {
        http_agreement: agreement(&std_result.http_log, &pac_result.http_log),
        files_agreement: agreement(&std_result.files_log, &pac_result.files_log),
        dns_agreement: agreement(&std_result.dns_log, &pac_result.dns_log),
        std_result,
        pac_result,
    })
}

pub struct EngineComparison {
    pub interp_result: AnalysisResult,
    pub compiled_result: AnalysisResult,
    pub http_agreement: Agreement,
    pub files_agreement: Agreement,
    pub dns_agreement: Agreement,
}

/// Runs the standard parser stack with both script engines and compares
/// logs (Table 3) and component times (Figure 10).
pub fn engine_comparison_http(trace: &[RawPacket]) -> RtResult<EngineComparison> {
    let run = |engine| run_http_analysis_governed(trace, ParserStack::Standard, engine, &traced());
    let (interp_result, compiled_result) = (run(Engine::Interpreted)?, run(Engine::Compiled)?);
    Ok(EngineComparison {
        http_agreement: agreement(&interp_result.http_log, &compiled_result.http_log),
        files_agreement: agreement(&interp_result.files_log, &compiled_result.files_log),
        dns_agreement: agreement(&interp_result.dns_log, &compiled_result.dns_log),
        interp_result,
        compiled_result,
    })
}

pub fn engine_comparison_dns(trace: &[RawPacket]) -> RtResult<EngineComparison> {
    let run = |engine| run_dns_analysis_governed(trace, ParserStack::Standard, engine, &traced());
    let (interp_result, compiled_result) = (run(Engine::Interpreted)?, run(Engine::Compiled)?);
    Ok(EngineComparison {
        http_agreement: agreement(&interp_result.http_log, &compiled_result.http_log),
        files_agreement: agreement(&interp_result.files_log, &compiled_result.files_log),
        dns_agreement: agreement(&interp_result.dns_log, &compiled_result.dns_log),
        interp_result,
        compiled_result,
    })
}

// ---------------------------------------------------------------------------
// E8: Fibonacci baseline (§6.5)

pub struct FibResult {
    pub n: i64,
    pub value: i64,
    pub ns_interpreted: u64,
    pub ns_compiled: u64,
    pub speedup: f64,
    /// Compiled engine on the plain HILTI kernel, specializer on.
    pub ns_vm_spec: u64,
    /// Same kernel with the bytecode specialization tier disabled.
    pub ns_vm_nospec: u64,
    /// `ns_vm_nospec / ns_vm_spec` — what the typed fast tier buys.
    pub spec_speedup: f64,
}

/// The HILTI-level Fibonacci kernel, used to isolate VM dispatch cost for
/// the specializer ablation (no script-layer glue in the measurement).
const FIB_HLT: &str = r#"
module Fib
int<64> fib(int<64> n) {
    local bool base
    local int<64> a
    local int<64> b
    base = int.lt n 2
    if.else base ret rec
ret:
    return n
rec:
    a = int.sub n 1
    a = call fib (a)
    b = int.sub n 2
    b = call fib (b)
    a = int.add a b
    return a
}
"#;

fn hilti_fib(specialize: bool) -> RtResult<hilti::Program> {
    hilti::Program::from_sources_opts(
        &[FIB_HLT],
        hilti::passes::OptLevel::Full,
        hilti::host::BuildOptions {
            specialize,
            ..Default::default()
        },
    )
}

/// The §6.5 Fibonacci benchmark: "the compiled HILTI version solves this
/// task orders of magnitude faster than Bro's standard interpreter".
/// Also measures the bytecode-specialization ablation on the same kernel.
pub fn fib_experiment(n: i64) -> RtResult<FibResult> {
    use broscript::host::ScriptHost;
    use broscript::scripts::FIB_BRO;

    let mut interp = ScriptHost::new(&[FIB_BRO], Engine::Interpreted, None)?;
    let start = Instant::now();
    let vi = interp.call("fib", &[Value::Int(n)])?;
    let ns_interpreted = start.elapsed().as_nanos() as u64;

    let mut compiled = ScriptHost::new(&[FIB_BRO], Engine::Compiled, None)?;
    let start = Instant::now();
    let vc = compiled.call("fib", &[Value::Int(n)])?;
    let ns_compiled = start.elapsed().as_nanos() as u64;

    assert!(vi.equals(&vc), "engines disagree on fib({n})");

    // Dispatch-tier ablation: the same HILTI kernel with the typed
    // fast tier on and off (one warm-up run each, then the measurement).
    let mut spec_on = hilti_fib(true)?;
    let mut spec_off = hilti_fib(false)?;
    spec_on.run("Fib::fib", &[Value::Int(n.min(15))])?;
    spec_off.run("Fib::fib", &[Value::Int(n.min(15))])?;
    let start = Instant::now();
    let vs_on = spec_on.run("Fib::fib", &[Value::Int(n)])?;
    let ns_vm_spec = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let vs_off = spec_off.run("Fib::fib", &[Value::Int(n)])?;
    let ns_vm_nospec = start.elapsed().as_nanos() as u64;
    assert!(
        vs_on.equals(&vs_off) && vs_on.equals(&vc),
        "specializer changed fib({n})"
    );

    Ok(FibResult {
        n,
        value: vc.as_int()?,
        ns_interpreted,
        ns_compiled,
        speedup: ns_interpreted as f64 / ns_compiled.max(1) as f64,
        ns_vm_spec,
        ns_vm_nospec,
        spec_speedup: ns_vm_nospec as f64 / ns_vm_spec.max(1) as f64,
    })
}

// ---------------------------------------------------------------------------
// E9: threaded DNS load-balancing (§6.6)

pub struct ThreadsResult {
    pub workers: usize,
    pub datagrams_sent: u64,
    /// Datagrams handled (parsed OK or rejected as non-DNS crud).
    pub datagrams_parsed: u64,
    /// Crud datagrams the parser rejected.
    pub datagrams_failed: u64,
    pub per_worker: Vec<u64>,
    pub ns_elapsed: u64,
}

/// §6.6: "the same HILTI parsing code ... supports both the threaded and
/// non-threaded setups": the BinPAC++ DNS parser runs on N hardware
/// workers, datagrams placed by flow hash, and every datagram is parsed
/// exactly once.
pub fn threads_experiment(trace: &[RawPacket], workers: usize) -> RtResult<ThreadsResult> {
    // The DNS grammar, minus host hooks (workers have no event sinks),
    // plus a per-thread counter and driver.
    let mut grammar = binpac::dns::dns_grammar();
    for u in &mut grammar.units {
        u.done_hook = None;
    }
    let grammar = grammar.raw(
        r#"
global int<64> parsed = 0
global int<64> failed = 0

void parse_datagram(ref<bytes> data) {
    local iterator<bytes> it
    local ref<Message> m
    it = bytes.begin data
    try {
        m = new Message
        it = call parse_Message (m, data, it)
        parsed = int.add parsed 1
    } catch ( exception e ) {
        failed = int.add failed 1
        return
    }
}

void report() {
    local string line
    line = string.fmt "{} {}" parsed failed
    call Hilti::print line
}
"#,
    );
    let src = binpac::codegen::generate(&grammar)?;
    let factory = move || {
        let p = hilti::Program::from_sources(&[&src], OptLevel::Full)
            .expect("grammar compiles identically on every worker");
        p.compiled().clone()
    };

    let pool = ThreadPool::new(factory, workers);
    // Exclude worker startup (each compiles its program image) from the
    // measured window.
    pool.sync();
    let mut sent = 0u64;
    let start = Instant::now();
    for p in trace {
        let Ok(d) = netpkt::decode::decode_ethernet(p) else {
            continue;
        };
        if d.payload.is_empty() {
            continue;
        }
        // Hash-based placement: both directions of a flow to one vthread.
        let vthread = hilti_rt::hashutil::flow_hash(d.src, d.src_port(), d.dst, d.dst_port());
        sent += 1;
        pool.schedule(
            vthread,
            "Dns::parse_datagram",
            &[Value::Bytes(hilti_rt::Bytes::frozen_from_slice(&d.payload))],
        )?;
    }
    // Ask each worker to report its thread-local total.
    for w in 0..workers as u64 {
        pool.schedule(w, "Dns::report", &[])?;
    }
    let reports = pool.shutdown();
    let ns_elapsed = start.elapsed().as_nanos() as u64;
    let mut per_worker: Vec<u64> = Vec::new();
    let mut failed = 0u64;
    for line in reports.iter().flat_map(|r| r.output.iter()) {
        let mut parts = line.split_whitespace();
        per_worker.push(parts.next().and_then(|x| x.parse().ok()).unwrap_or(0));
        failed += parts.next().and_then(|x| x.parse().ok()).unwrap_or(0);
    }
    Ok(ThreadsResult {
        workers,
        datagrams_sent: sent,
        datagrams_parsed: per_worker.iter().sum::<u64>() + failed,
        datagrams_failed: failed,
        per_worker,
        ns_elapsed,
    })
}

// ---------------------------------------------------------------------------
// A1: optimizer ablation

pub struct OptAblation {
    pub stats_full: hilti::passes::PassStats,
    pub ns_none: u64,
    pub ns_full: u64,
    pub speedup: f64,
}

/// Measures the §6.6 "missing optimizations" (constant folding, CSE, DCE,
/// jump threading) by running the same program with passes off and on.
pub fn optimizer_ablation() -> RtResult<OptAblation> {
    // A folding-friendly arithmetic kernel.
    let src = r#"
module M
int<64> kernel(int<64> n) {
    local int<64> i
    local int<64> acc
    local int<64> a
    local int<64> b
    local int<64> c
    local bool more
    i = assign 0
    acc = assign 0
loop:
    a = int.add 40 2
    b = int.mul a 10
    c = int.mul a 10
    c = int.add b c
    acc = int.add acc c
    acc = int.add acc i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
"#;
    let n = Value::Int(300_000);
    let mut p_none = hilti::Program::from_sources(&[src], OptLevel::None)?;
    let mut p_full = hilti::Program::from_sources(&[src], OptLevel::Full)?;
    // Warm both paths before timing (allocator/cache effects dominate at
    // millisecond scales otherwise).
    p_none.run("M::kernel", &[Value::Int(1_000)])?;
    p_full.run("M::kernel", &[Value::Int(1_000)])?;

    let start = Instant::now();
    let r0 = p_none.run("M::kernel", std::slice::from_ref(&n))?;
    let ns_none = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let r1 = p_full.run("M::kernel", &[n])?;
    let ns_full = start.elapsed().as_nanos() as u64;
    assert!(r0.equals(&r1), "optimization changed semantics");

    Ok(OptAblation {
        stats_full: p_full.pass_stats(),
        ns_none,
        ns_full,
        speedup: ns_none as f64 / ns_full.max(1) as f64,
    })
}

// ---------------------------------------------------------------------------
// A2: classifier lookup structure

pub struct ClassifierAblation {
    pub rules: usize,
    pub lookups: usize,
    pub ns_linear: u64,
    pub ns_compiled: u64,
    pub speedup: f64,
}

/// §5's "linked list ... does not scale with larger numbers of rules": the
/// priority-ordered scan (`matches_linear`) vs the compiled tuple-space
/// lookup on `n_rules` rules `(10.x.y.0/24, *)` with distinct sources.
/// Half the probes hit a rule, half miss.
pub fn classifier_ablation(n_rules: usize, n_lookups: usize) -> RtResult<ClassifierAblation> {
    use hilti_rt::addr::{Addr, Network};
    use hilti_rt::classifier::{Classifier, FieldMatcher, FieldValue};

    let mut classifier = Classifier::new();
    for i in 0..n_rules as u32 {
        let net = Network::new(Addr::from_v4_u32((10 << 24) + (i << 8)), 24)?;
        classifier.add(vec![FieldMatcher::Net(net), FieldMatcher::Wildcard], i)?;
    }
    classifier.compile();
    let probes: Vec<[FieldValue; 2]> = (0..n_lookups)
        .map(|i| {
            // Spread over twice the rule range, whatever the two sizes.
            let rule = (i as u64 * 0x9e37_79b1 % (2 * n_rules as u64)) as u32;
            [
                FieldValue::Addr(Addr::from_v4_u32((10 << 24) + (rule << 8) + 1)),
                FieldValue::Addr(Addr::v4(192, 168, 0, 1)),
            ]
        })
        .collect();

    let start = Instant::now();
    let mut acc_l = 0u64;
    for p in &probes {
        acc_l += classifier.matches_linear(p)?.map_or(0, u64::from);
    }
    let ns_linear = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut acc_c = 0u64;
    for p in &probes {
        acc_c += classifier.matches(p)?.map_or(0, u64::from);
    }
    let ns_compiled = start.elapsed().as_nanos() as u64;
    assert_eq!(acc_l, acc_c, "compiled lookup disagrees with the scan");

    Ok(ClassifierAblation {
        rules: n_rules,
        lookups: n_lookups,
        ns_linear,
        ns_compiled,
        speedup: ns_linear as f64 / ns_compiled.max(1) as f64,
    })
}

// ---------------------------------------------------------------------------
// A3: regexp incremental matching

pub struct RegexpAblation {
    pub bytes_matched: usize,
    pub ns_whole: u64,
    pub ns_chunked: u64,
    /// Chunked (incremental) cost over whole-buffer cost.
    pub incremental_overhead: f64,
}

/// Incremental (chunk-at-a-time) matching vs whole-buffer matching — the
/// cost of suspendability that §6.4 notes BinPAC++ always pays on UDP.
pub fn regexp_ablation(repeats: usize) -> RtResult<RegexpAblation> {
    use hilti_rt::regexp::Regex;
    let re = Regex::new("[A-Z]+ [^ ]+ HTTP\\/[0-9]\\.[0-9]\\r\\n")?;
    let line = b"GET /index/with/a/moderately/long/path?x=123456 HTTP/1.1\r\n";

    let start = Instant::now();
    let mut total = 0usize;
    for _ in 0..repeats {
        if let hilti_rt::regexp::MatchVerdict::Match { len, .. } = re.match_prefix(line) {
            total += len as usize;
        }
    }
    let ns_whole = start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let mut total_c = 0usize;
    for _ in 0..repeats {
        let mut m = re.matcher();
        for chunk in line.chunks(7) {
            m.feed(chunk);
        }
        if let hilti_rt::regexp::MatchVerdict::Match { len, .. } = m.finish() {
            total_c += len as usize;
        }
    }
    let ns_chunked = start.elapsed().as_nanos() as u64;
    assert_eq!(total, total_c);

    Ok(RegexpAblation {
        bytes_matched: total,
        ns_whole,
        ns_chunked,
        incremental_overhead: ns_chunked as f64 / ns_whole.max(1) as f64,
    })
}

// ---------------------------------------------------------------------------
// Per-statement script cost (the table that scopes script-host work)

/// One row of [`opcost_table`].
pub struct OpCost {
    pub label: &'static str,
    /// Nanoseconds per dispatch for the two entry rows, per executed
    /// statement (over the empty handler) for the rest.
    pub ns: f64,
    /// Instructions retired in the VM's typed fast loop, counted like `ns`.
    pub typed: f64,
    /// Instructions retired on the VM's dispatch path, counted like `ns`.
    pub generic: f64,
    /// Allocations per dispatch, the handler's statements included.
    pub allocs: f64,
}

/// What one call of a measured closure costs: the median time of
/// [`OPCOST_SAMPLES`] samples, and the instructions retired per tier and
/// the allocations made, averaged over every call.
#[derive(Default)]
struct Sample {
    ns: f64,
    typed: f64,
    generic: f64,
    allocs: f64,
}

/// Samples per [`opcost_table`] row.
const OPCOST_SAMPLES: usize = 7;

impl Sample {
    /// Calls `call` on `h` `n` times per sample. `mix` reads `h`'s tier
    /// counters and `allocs` the caller's allocation counter.
    fn of<H>(
        h: &mut H,
        n: usize,
        allocs: &dyn Fn() -> u64,
        mix: impl Fn(&H) -> TierMix,
        mut call: impl FnMut(&mut H) -> RtResult<()>,
    ) -> RtResult<Sample> {
        let mut ns = [0f64; OPCOST_SAMPLES];
        let (mix0, allocs0) = (mix(h), allocs());
        for sample in &mut ns {
            let start = Instant::now();
            for _ in 0..n {
                call(h)?;
            }
            *sample = start.elapsed().as_nanos() as f64 / n as f64;
        }
        let (mix1, allocs1) = (mix(h), allocs());
        let calls = (OPCOST_SAMPLES * n) as f64;
        ns.sort_by(f64::total_cmp);
        Ok(Sample {
            ns: ns[OPCOST_SAMPLES / 2],
            typed: (mix1.specialized - mix0.specialized) as f64 / calls,
            generic: (mix1.generic - mix0.generic) as f64 / calls,
            allocs: (allocs1 - allocs0) as f64 / calls,
        })
    }

    /// The row of one of `reps` statements whose dispatches this sampled,
    /// over `base`, the sample without them; allocations stay per dispatch.
    fn over(&self, base: &Sample, reps: usize, label: &'static str) -> OpCost {
        let per = |this: f64, base: f64| (this - base) / reps as f64;
        OpCost {
            label,
            ns: per(self.ns, base.ns).max(0.0),
            typed: per(self.typed, base.typed),
            generic: per(self.generic, base.generic),
            allocs: self.allocs,
        }
    }
}

/// What one script statement costs on the compiled engine: an event with
/// the statement `reps` times in its handler is dispatched in a loop, and
/// the empty handler's time is taken off. The first two rows are the
/// fixed cost of a dispatch itself (no handler for the event; a handler
/// with an empty body). The last four are single HILTI instructions from
/// HILTI source (a compiled script only has `any` slots): the VM's generic
/// and typed paths on the same arithmetic, and two typed string builds.
/// Each row also counts the instructions a statement retires on each tier
/// and the allocations of a dispatch; `allocs` reads the caller's
/// allocation counter. Kernel numbers: evidence for where script time
/// goes, never a claim.
pub fn opcost_table(allocs: &dyn Fn() -> u64) -> RtResult<Vec<OpCost>> {
    use broscript::host::ScriptHost;

    const GLOBALS: &str = "global t: table[string] of count;\n\
        event setup(k: string) { t[k] = 1; }\n";
    let cat25 = "s = cat(n, \"\\t\", k, \"\\t\", s, \"\\t\", k, \"\\t\", k, \"\\t\", k, \"\\t\", \
        k, \"\\t\", n, \"\\t\", k, \"\\t\", n, \"\\t\", n, \"\\t\", n, \"\\t\", k);";
    // (label, statement, repetitions in the body, dispatches per sample)
    let statements: [(&'static str, &str, usize, usize); 10] = [
        ("k in t + branch", "if ( k in t ) n = n;", 8, 50_000),
        ("t[k]", "n = t[k];", 8, 50_000),
        ("t[k] = v", "t[k] = n;", 8, 50_000),
        ("n < 5 + branch (generic)", "if ( n < 5 ) n = 0;", 8, 50_000),
        ("to_lower(s)", "k = to_lower(s);", 8, 50_000),
        ("network_time()", "network_time();", 8, 50_000),
        ("cat, 25 arguments", cat25, 4, 20_000),
        ("log_write", "log_write(\"x.log\", k);", 1, 50_000),
        ("sha1(120 B)", "k = sha1(s);", 2, 20_000),
        (
            "mime_type(sub_str(..))",
            "k = mime_type(sub_str(s, 0, 256), \"-\");",
            2,
            20_000,
        ),
    ];

    let args = [
        Value::str("CHhAvVGS1DHFjwGM9"),
        Value::Int(7),
        Value::str(&"Content-Type: text/html; ".repeat(5)[..120]),
    ];
    let sample = |body: &str, event: &str, n: usize| -> RtResult<Sample> {
        let script =
            format!("{GLOBALS}event probe(k: string, n: count, s: string) {{\n{body}\n}}\n");
        let mut host = ScriptHost::new(&[&script], Engine::Compiled, None)?;
        host.dispatch("setup", &args[..1])?;
        let mix = |h: &ScriptHost| h.program().expect("a compiled host").context().tier_mix();
        Sample::of(&mut host, n, allocs, mix, |h| h.dispatch(event, &args))
    };

    let empty = sample("", "probe", 100_000)?;
    let none = Sample::default();
    let mut rows = vec![
        sample("", "no_such_event", 100_000)?.over(&none, 1, "dispatch, no handler"),
        empty.over(&none, 1, "dispatch, empty handler"),
    ];
    for (label, stmt, reps, n) in statements {
        let body = vec![stmt; reps].join("\n");
        rows.push(sample(&body, "probe", n)?.over(&empty, reps, label));
    }

    // One HILTI instruction, 16 times over: `n + 1` on `any` slots and on
    // `int<64>` slots, then the two string builds on typed slots.
    let kernel = |ty: &str, out: &str, instr: &str, arg: &Value, body_reps: usize| {
        let src = format!(
            "module M\nhook void probe({ty} n) {{\n    local {out} x\n{}}}\n",
            format!("    x = {instr}\n").repeat(body_reps)
        );
        let mut prog = hilti::Program::from_source(&src)?;
        let hook = prog.hook_id("M::probe").expect("probe has a body");
        let mix = |p: &hilti::Program| p.context().tier_mix();
        Sample::of(&mut prog, 200_000, allocs, mix, |p| {
            p.run_hook_id(hook, std::slice::from_ref(arg))
        })
    };
    let kernels = [
        ("n + 1 (generic)", "any", "any", "int.add n 1", &args[1]),
        (
            "n + 1 (typed)",
            "int<64>",
            "int<64>",
            "int.add n 1",
            &args[1],
        ),
        (
            "string.concat (typed)",
            "string",
            "string",
            "string.concat n n",
            &args[0],
        ),
        (
            "int.to_string (typed)",
            "int<64>",
            "string",
            "int.to_string n",
            &args[1],
        ),
    ];
    for (label, ty, out, instr, arg) in kernels {
        let base = kernel(ty, out, instr, arg, 1)?;
        rows.push(kernel(ty, out, instr, arg, 17)?.over(&base, 16, label));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// What the specializer reaches (static counts)

/// One row of [`reach_table`]: one program's code after specialization.
#[derive(Debug, Default, PartialEq)]
pub struct Reach {
    pub program: &'static str,
    pub instructions: usize,
    /// `Typed` and `BrIf` instructions: typed rows, fused or not.
    pub typed: usize,
    /// Generic `Op` instructions, run through `ops::eval`.
    pub generic: usize,
    /// Writes to a global (`GlobalStore`), each around a generic op.
    pub global_stores: usize,
}

/// Static instruction counts after specialization: both bundled scripts
/// (`HTTP_BRO`, `DNS_BRO`) as the compiled engine lowers them, the
/// firewall's per-packet `match_packet`, and both BinPAC++ grammars with
/// the drivers their analyzers use. Counts, not times: a row repeats
/// exactly.
pub fn reach_table() -> RtResult<Vec<Reach>> {
    use binpac::analyzer::Mode;
    use binpac::parser::BinpacParser;
    use broscript::host::ScriptHost;
    use hilti::bytecode::{CFunc, CInstr};

    fn reach<'a>(program: &'static str, funcs: impl IntoIterator<Item = &'a CFunc>) -> Reach {
        let mut row = Reach {
            program,
            ..Reach::default()
        };
        for instr in funcs.into_iter().flat_map(|f| &f.code) {
            row.instructions += 1;
            match instr {
                CInstr::Typed(_) | CInstr::BrIf { .. } => row.typed += 1,
                CInstr::Op { .. } => row.generic += 1,
                CInstr::GlobalStore { .. } => row.global_stores += 1,
                _ => {}
            }
        }
        row
    }

    let mut rows = Vec::new();
    for (name, script) in [
        ("HTTP_BRO", broscript::scripts::HTTP_BRO),
        ("DNS_BRO", broscript::scripts::DNS_BRO),
    ] {
        let host = ScriptHost::new(&[script], Engine::Compiled, None)?;
        let program = host.program().expect("a compiled host");
        rows.push(reach(name, &program.compiled().funcs));
    }
    let source = hilti_firewall::generate_source(
        &hilti_firewall::figure5_rules(),
        hilti_firewall::DYNAMIC_TIMEOUT_SECS,
    );
    let firewall = hilti::Program::from_sources(&[&source], OptLevel::Full)?;
    let match_packet = firewall.compiled().func("Firewall::match_packet");
    rows.push(reach("firewall match_packet", match_packet));
    for (name, proto) in [
        ("DNS grammar", &binpac::dns::DNS),
        ("HTTP grammar", &binpac::http::HTTP),
    ] {
        let streams = match proto.mode {
            Mode::Stream { orig, resp } => vec![orig, resp],
            Mode::Datagram { .. } => Vec::new(),
        };
        let parser = BinpacParser::compile(&(proto.grammar)(), &streams, OptLevel::Full)?;
        rows.push(reach(name, &parser.program().compiled().funcs));
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Per-PDU parse cost (what a generated parser executes and allocates)

/// One row of [`parsecost_table`]: a BinPAC++ grammar on its seeded trace.
#[derive(Debug, PartialEq)]
pub struct ParseCost {
    pub grammar: &'static str,
    pub pdus: u64,
    /// Instructions retired on the VM's dispatch path.
    pub generic: u64,
    /// Instructions retired in the VM's typed fast loop.
    pub typed: u64,
    pub allocs: u64,
}

impl ParseCost {
    pub fn per_pdu(&self, n: u64) -> f64 {
        n as f64 / self.pdus.max(1) as f64
    }
}

/// What a generated parser costs per PDU on the seeded traces the
/// allocation pins use: `dns_trace(11, 2000)`, one datagram a PDU, and
/// `http_trace(11, 300)`, one payload-carrying delivery a PDU. Each trace
/// goes through the flow table as the pipelines deliver it; what is
/// counted is feeding, parsing and draining the events. `allocs` reads the
/// caller's allocation counter. The second of two passes is reported, so
/// what a program pays once (field sites filling) is left out. Counts,
/// not times: a row repeats exactly.
pub fn parsecost_table(allocs: &dyn Fn() -> u64) -> RtResult<Vec<ParseCost>> {
    use binpac::analyzer::BinpacAnalyzer;
    use netpkt::decode::decode_frame;
    use netpkt::flow::FlowTable;
    use netpkt::TraceBuffer;

    let grammars = [
        (
            "DNS",
            &binpac::dns::DNS,
            dns_trace(&SynthConfig::new(11, 2_000)),
        ),
        (
            "HTTP",
            &binpac::http::HTTP,
            http_trace(&SynthConfig::new(11, 300)),
        ),
    ];
    let mut rows = Vec::new();
    for (grammar, proto, packets) in grammars {
        let ir = BinpacAnalyzer::front_end(proto, OptLevel::Full)?;
        let mut bp = BinpacAnalyzer::from_ir(&ir, None)?;
        let trace = TraceBuffer::from_packets(&packets);
        let mut events = Vec::new();
        let mut pass = |bp: &mut BinpacAnalyzer| -> RtResult<ParseCost> {
            let mut flows = FlowTable::new();
            let mut row = ParseCost {
                grammar,
                pdus: 0,
                generic: 0,
                typed: 0,
                allocs: 0,
            };
            for i in 0..trace.len() {
                let (frame, ts) = trace.frame(i);
                let Ok(d) = decode_frame(frame, ts) else {
                    continue;
                };
                let d = flows.process_shared(&d, frame, trace.frame_offset(i));
                if d.payload.is_empty() && !d.finished_now {
                    continue;
                }
                let (uid, id) = (&d.flow.uid, d.flow.id);
                let (mix, before) = (bp.tier_mix(), allocs());
                if !bp.is_stream() {
                    bp.datagram_chunk(uid, id, ts, d.payload.feed_chunk(&trace))?;
                } else {
                    if !d.payload.is_empty() {
                        bp.feed_chunk(uid, id, d.is_orig, ts, d.payload.feed_chunk(&trace))?;
                    }
                    if d.finished_now {
                        bp.finish_conn(uid, id, ts)?;
                    }
                }
                events.clear();
                bp.drain_events_into(&mut events);
                row.allocs += allocs() - before;
                row.generic += bp.tier_mix().generic - mix.generic;
                row.typed += bp.tier_mix().specialized - mix.specialized;
                row.pdus += u64::from(!d.payload.is_empty());
            }
            Ok(row)
        };
        pass(&mut bp)?;
        rows.push(pass(&mut bp)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Helpers for Table 2 / Table 3 style reporting

pub struct TableRow {
    pub log: &'static str,
    pub total_a: usize,
    pub total_b: usize,
    pub identical_pct: f64,
}

pub fn table_rows_http(c: &ParserComparison) -> Vec<TableRow> {
    vec![
        TableRow {
            log: "http.log",
            total_a: c.std_result.http_log.len(),
            total_b: c.pac_result.http_log.len(),
            identical_pct: c.http_agreement.percent(),
        },
        TableRow {
            log: "files.log",
            total_a: c.std_result.files_log.len(),
            total_b: c.pac_result.files_log.len(),
            identical_pct: c.files_agreement.percent(),
        },
    ]
}

pub fn table_rows_dns(c: &ParserComparison) -> Vec<TableRow> {
    vec![TableRow {
        log: "dns.log",
        total_a: c.std_result.dns_log.len(),
        total_b: c.pac_result.dns_log.len(),
        identical_pct: c.dns_agreement.percent(),
    }]
}

/// Formats nanoseconds as milliseconds with 1 decimal.
pub fn ms(ns: u64) -> String {
    format!("{:.1}ms", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_http() -> Vec<RawPacket> {
        http_trace(&SynthConfig::new(31, 8))
    }

    fn small_dns() -> Vec<RawPacket> {
        dns_trace(&SynthConfig::new(32, 60))
    }

    #[test]
    fn e1_fibers_run() {
        let s = fiber_microbench(2_000).unwrap();
        assert!(s.switches_per_sec > 1_000.0);
        assert!(s.create_cycles_per_sec > 1_000.0);
    }

    #[test]
    fn e2_bpf_match_parity() {
        let r = bpf_experiment(&small_http()).unwrap();
        assert_eq!(r.matches_classic, r.matches_hilti);
        assert!(r.matches_classic > 0, "filter should match something");
        assert!(r.match_fraction < 0.6, "filter should be selective");
    }

    #[test]
    fn e3_firewall_agreement() {
        let r = firewall_experiment(&small_dns()).unwrap();
        assert_eq!(r.disagreements, 0);
        assert_eq!(r.matches_hilti, r.matches_reference);
        assert!(r.packets > 50);
    }

    #[test]
    fn e4_table2_http_rows() {
        let c = parser_comparison_http(&small_http()).unwrap();
        let rows = table_rows_http(&c);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].identical_pct > 90.0, "{}", rows[0].identical_pct);
        assert!(rows[0].total_a > 0);
    }

    #[test]
    fn e4_table2_dns_rows() {
        let c = parser_comparison_dns(&small_dns()).unwrap();
        let rows = table_rows_dns(&c);
        assert!(rows[0].identical_pct > 80.0, "{}", rows[0].identical_pct);
        assert!(rows[0].total_a > 20);
    }

    #[test]
    fn e6_table3_http() {
        let c = engine_comparison_http(&small_http()).unwrap();
        assert_eq!(c.http_agreement.percent(), 100.0);
        assert_eq!(c.files_agreement.percent(), 100.0);
    }

    #[test]
    fn e8_fib_compiled_faster() {
        // `fib_experiment` itself asserts that the interpreter, the
        // compiled engine and the VM without the specializer agree; the
        // speedup is wall-clock and left to `repro fib`.
        let r = fib_experiment(17).unwrap();
        assert_eq!(r.value, 1597);
    }

    #[test]
    fn e9_threads_parse_everything_once() {
        let trace = small_dns();
        for workers in [1, 4] {
            let r = threads_experiment(&trace, workers).unwrap();
            assert_eq!(
                r.datagrams_parsed, r.datagrams_sent,
                "workers={workers}: every datagram parsed exactly once"
            );
            assert_eq!(r.per_worker.len(), workers);
        }
    }

    #[test]
    fn opcost_rows_run() {
        let rows = opcost_table(&|| 0).unwrap();
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.ns.is_finite()));
    }

    #[test]
    fn parsecost_rows_count_every_pdu() {
        let rows = parsecost_table(&|| 0).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.pdus > 1_000 && r.typed > 0 && r.generic > 0, "{r:?}");
        }
    }

    #[test]
    fn a1_optimizer_preserves_semantics() {
        let a = optimizer_ablation().unwrap();
        assert!(a.stats_full.total() > 0);
    }

    #[test]
    fn a2_compiled_agrees_with_linear() {
        let a = classifier_ablation(200, 500).unwrap();
        assert_eq!(a.rules, 200);
    }

    #[test]
    fn a3_regexp_incremental_correct() {
        let a = regexp_ablation(200).unwrap();
        assert!(a.bytes_matched > 0);
    }
}
