//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `repro [--out DIR] [all|fibers|bpf|firewall|table2|fig9|table3|fig10|fib|threads|allocs|opcost|parsecost|reach|ablations ...]`
//!
//! Each section prints the paper-reported value next to the measured one.
//! Absolute numbers differ (the paper ran on real traces with an
//! LLVM-native backend; we run synthetic workloads on a bytecode VM — see
//! DESIGN.md), so the claims under reproduction are the *shapes*: parity
//! checks, who is faster, and rough factors. Set `REPRO_SCALE=N` to scale
//! workload sizes. The component breakdowns (Figures 9/10, E5 and E7) are
//! the flight recorder's stage sums of traced runs (`Governance::tracing`).
//!
//! With `--out DIR` (or `REPRO_OUT=DIR`), the figure/table sections also
//! write machine-readable JSON artifacts — `fig9.json`, `fig10.json`,
//! `table2.json`, `table3.json` — carrying exactly the numbers printed to
//! stdout (see [`bench::artifacts`] for the schema). Every document is
//! validated before it is written; a malformed artifact aborts the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::*;

/// Counting allocator: reproduces the §6.4 memory-allocation comparison
/// ("Bro performs about 47% more memory allocations [with the BinPAC++
/// DNS parser]; 19% more for HTTP").
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<PathBuf> = std::env::var_os("REPRO_OUT").map(PathBuf::from);
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("repro: --out needs a directory");
                    std::process::exit(2);
                }
            },
            section => selected.push(section.to_owned()),
        }
    }
    if selected.is_empty() {
        selected.push("all".to_owned());
    }
    let run = |name: &str| selected.iter().any(|s| s == "all" || s == name);

    println!("HILTI reproduction — evaluation (scale={})", scale());
    println!("==========================================================");

    if run("fibers") {
        fibers();
    }
    if run("bpf") {
        bpf();
    }
    if run("firewall") {
        firewall();
    }
    if run("table2") || run("fig9") {
        parsers(run("table2"), run("fig9"), out_dir.as_deref());
    }
    if run("table3") || run("fig10") {
        engines(run("table3"), run("fig10"), out_dir.as_deref());
    }
    if run("fib") {
        fib();
    }
    if run("threads") {
        threads();
    }
    if run("allocs") {
        allocs();
    }
    if run("opcost") {
        opcost();
    }
    if run("parsecost") {
        parsecost();
    }
    if run("reach") {
        reach();
    }
    if run("ablations") {
        ablations();
    }
}

/// Writes one validated artifact, creating the directory on first use.
fn write_artifact(dir: &Path, name: &str, doc: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("repro: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("  wrote {}", path.display());
}

fn fibers() {
    println!("\n[E1] Fiber micro-benchmark (§5)");
    println!("  paper: ~18M switches/s, ~5M create-run-delete cycles/s (setcontext, Xeon 5570)");
    let s = fiber_microbench(200_000).expect("fiber benchmark");
    println!(
        "  measured: {:.2}M switches/s, {:.2}M create cycles/s (VM frame stacks)",
        s.switches_per_sec / 1e6,
        s.create_cycles_per_sec / 1e6
    );
    println!(
        "  shape: switching {} than create-run-delete (paper: 3.6x) -> {:.1}x",
        if s.switches_per_sec > s.create_cycles_per_sec {
            "cheaper"
        } else {
            "NOT cheaper (unexpected)"
        },
        s.switches_per_sec / s.create_cycles_per_sec
    );
}

fn bpf() {
    println!("\n[E2] Berkeley Packet Filter (§6.2)");
    println!("  paper: identical match counts; HILTI spends 1.70x the cycles of BPF");
    println!("         (1.35x excluding the C-stub overhead)");
    let trace = http_workload();
    let r = bpf_experiment(&trace).expect("bpf experiment");
    println!(
        "  measured: {} packets, matches classic={} hilti={} ({})",
        r.packets,
        r.matches_classic,
        r.matches_hilti,
        if r.matches_classic == r.matches_hilti {
            "IDENTICAL ✓"
        } else {
            "MISMATCH ✗"
        }
    );
    println!(
        "  measured: classic BPF {} | HILTI VM {} | ratio {:.2}x (match fraction {:.1}%)",
        ms(r.ns_classic),
        ms(r.ns_hilti),
        r.ratio,
        r.match_fraction * 100.0
    );
}

fn firewall() {
    println!("\n[E3] Stateful firewall (§6.3)");
    println!("  paper: same matches/non-matches as an independent reference implementation");
    let trace = dns_workload();
    let r = firewall_experiment(&trace).expect("firewall experiment");
    println!(
        "  measured: {} packets, hilti={} reference={} disagreements={} ({})",
        r.packets,
        r.matches_hilti,
        r.matches_reference,
        r.disagreements,
        if r.disagreements == 0 {
            "AGREE ✓"
        } else {
            "DISAGREE ✗"
        }
    );
    println!(
        "  measured: HILTI {} | reference {}",
        ms(r.ns_hilti),
        ms(r.ns_reference)
    );
}

fn parsers(table2: bool, fig9: bool, out: Option<&Path>) {
    let http = http_workload();
    let dns = dns_workload();
    let ch = parser_comparison_http(&http).expect("http parser comparison");
    let cd = parser_comparison_dns(&dns).expect("dns parser comparison");

    if table2 {
        println!("\n[E4] Table 2: BinPAC++ (Pac) vs standard (Std) parser agreement");
        println!("  paper: http.log 98.91% | files.log 98.36% | dns.log >99.9%");
        println!("  measured:");
        println!(
            "    {:<11} {:>8} {:>8} {:>10}",
            "#Lines", "Std", "Pac", "Identical"
        );
        for row in table_rows_http(&ch)
            .iter()
            .chain(table_rows_dns(&cd).iter())
        {
            println!(
                "    {:<11} {:>8} {:>8} {:>9.2}%",
                row.log, row.total_a, row.total_b, row.identical_pct
            );
        }
    }

    if fig9 {
        println!("\n[E5] Figure 9: parser CPU time by component");
        println!("  paper: parsing cycles Pac/Std = 1.28x (HTTP), 3.03x (DNS); glue 1.3%/6.9%");
        for (proto, c) in [("HTTP", &ch), ("DNS", &cd)] {
            print_breakdown(&format!("{proto} Standard"), &c.std_result);
            print_breakdown(&format!("{proto} BinPAC++"), &c.pac_result);
            let sp = Breakdown::of(&c.std_result).parsing;
            let pp = Breakdown::of(&c.pac_result).parsing;
            println!(
                "    -> {proto} parsing ratio Pac/Std = {:.2}x",
                pp as f64 / sp.max(1) as f64
            );
        }
    }

    if let Some(dir) = out {
        if table2 {
            write_artifact(dir, "table2.json", &artifacts::table2_json(&ch, &cd));
        }
        if fig9 {
            write_artifact(dir, "fig9.json", &artifacts::fig9_json(&ch, &cd));
        }
    }
}

fn engines(table3: bool, fig10: bool, out: Option<&Path>) {
    let http = http_workload();
    let dns = dns_workload();
    let eh = engine_comparison_http(&http).expect("http engine comparison");
    let ed = engine_comparison_dns(&dns).expect("dns engine comparison");

    if table3 {
        println!("\n[E6] Table 3: compiled scripts (Hlt) vs standard interpreter (Std)");
        println!("  paper: http.log >99.99% | files.log 99.98% | dns.log >99.99%");
        println!("  measured:");
        for (log, a, b, ag) in [
            (
                "http.log",
                eh.interp_result.http_log.len(),
                eh.compiled_result.http_log.len(),
                &eh.http_agreement,
            ),
            (
                "files.log",
                eh.interp_result.files_log.len(),
                eh.compiled_result.files_log.len(),
                &eh.files_agreement,
            ),
            (
                "dns.log",
                ed.interp_result.dns_log.len(),
                ed.compiled_result.dns_log.len(),
                &ed.dns_agreement,
            ),
        ] {
            println!(
                "    {:<11} Std={:>7} Hlt={:>7} identical={:.2}%",
                log,
                a,
                b,
                ag.percent()
            );
        }
    }

    if fig10 {
        println!("\n[E7] Figure 10: script-execution CPU time by component");
        println!("  paper: script cycles Hlt/Std = 1.30x (HTTP), 0.93x (DNS); glue 4.2%/20%");
        for (proto, c) in [("HTTP", &eh), ("DNS", &ed)] {
            print_breakdown(&format!("{proto} Interpreted"), &c.interp_result);
            print_breakdown(&format!("{proto} Compiled"), &c.compiled_result);
            let si = Breakdown::of(&c.interp_result).script;
            let sc = Breakdown::of(&c.compiled_result).script;
            println!(
                "    -> {proto} script ratio Hlt/Std = {:.2}x",
                sc as f64 / si.max(1) as f64
            );
        }
    }

    if let Some(dir) = out {
        if table3 {
            write_artifact(dir, "table3.json", &artifacts::table3_json(&eh, &ed));
        }
        if fig10 {
            write_artifact(dir, "fig10.json", &artifacts::fig10_json(&eh, &ed));
        }
    }
}

fn print_breakdown(label: &str, r: &broscript::pipeline::AnalysisResult) {
    let b = Breakdown::of(r);
    let total = b.total_ns().max(1);
    print!("    {label:<18} total {:>9} |", ms(total));
    for (_, short, ns) in b.components() {
        print!(" {short}: {:>5.1}%", ns as f64 / total as f64 * 100.0);
    }
    println!();
}

fn fib() {
    println!("\n[E8] Fibonacci baseline (§6.5)");
    println!("  paper: compiled solves it 'orders of magnitude faster' than the interpreter");
    let r = fib_experiment(24).expect("fib experiment");
    println!(
        "  measured: fib({}) = {} | interpreted {} | compiled {} | speedup {:.1}x",
        r.n,
        r.value,
        ms(r.ns_interpreted),
        ms(r.ns_compiled),
        r.speedup
    );
    println!(
        "  dispatch tier: specializer on {} | off {} | specializer speedup {:.2}x",
        ms(r.ns_vm_spec),
        ms(r.ns_vm_nospec),
        r.spec_speedup
    );
}

fn threads() {
    println!("\n[E9] Threaded DNS load-balancing (§6.6)");
    println!("  paper: the same parser code supports threaded and non-threaded setups;");
    println!("         hash-based placement serializes per-flow processing");
    let trace = dns_workload();
    for workers in [1, 2, 4, 8] {
        let r = threads_experiment(&trace, workers).expect("threads experiment");
        println!(
            "  workers={:<2} sent={} handled={} (crud rejected: {}) ({}) in {} | per-worker: {:?}",
            r.workers,
            r.datagrams_sent,
            r.datagrams_parsed,
            r.datagrams_failed,
            if r.datagrams_sent == r.datagrams_parsed {
                "ALL HANDLED ✓"
            } else {
                "LOST ✗"
            },
            ms(r.ns_elapsed),
            r.per_worker
        );
    }
}

fn allocs() {
    use broscript::host::Engine;
    use broscript::pipeline::{run_dns_analysis, run_http_analysis, ParserStack};
    println!("\n[E5b] Memory allocations per parser stack (§6.4)");
    println!("  paper: BinPAC++ causes ~19% more allocations for HTTP, ~47% more for DNS");
    let http = http_workload();
    let dns = dns_workload();
    for (proto, std_n, pac_n) in [
        (
            "HTTP",
            count_allocs(|| {
                run_http_analysis(&http, ParserStack::Standard, Engine::Interpreted).unwrap();
            }),
            count_allocs(|| {
                run_http_analysis(&http, ParserStack::Binpac, Engine::Interpreted).unwrap();
            }),
        ),
        (
            "DNS",
            count_allocs(|| {
                run_dns_analysis(&dns, ParserStack::Standard, Engine::Interpreted).unwrap();
            }),
            count_allocs(|| {
                run_dns_analysis(&dns, ParserStack::Binpac, Engine::Interpreted).unwrap();
            }),
        ),
    ] {
        println!(
            "  {proto}: standard {std_n} allocs | BinPAC++ {pac_n} allocs | +{:.0}%",
            (pac_n as f64 / std_n.max(1) as f64 - 1.0) * 100.0
        );
    }
}

fn opcost() {
    println!("\n[K1] Script statement cost on the compiled engine (kernel numbers, evidence only)");
    println!("  median of 7 samples; instructions per statement (typed / generic), allocations per dispatch");
    for row in opcost_table(&|| ALLOCS.load(Ordering::Relaxed)).expect("opcost table") {
        println!(
            "  {:<28} {:>8.0} ns | {:>6.1} typed {:>6.1} generic | {:>7.2} allocations",
            row.label, row.ns, row.typed, row.generic, row.allocs
        );
    }
}

fn parsecost() {
    println!("\n[K2] BinPAC++ parse cost per PDU on the seeded traces (counts, evidence only)");
    let rows = parsecost_table(&|| ALLOCS.load(Ordering::Relaxed)).expect("parsecost table");
    for r in rows {
        println!(
            "  {:<5} {:>5} PDUs | {:>6.1} instructions ({:.1} typed, {:.1} generic) | {:>6.2} allocations",
            r.grammar,
            r.pdus,
            r.per_pdu(r.typed + r.generic),
            r.per_pdu(r.typed),
            r.per_pdu(r.generic),
            r.per_pdu(r.allocs)
        );
    }
}

fn reach() {
    println!("\n[K3] What the specializer reaches: static counts after specialization");
    for r in reach_table().expect("reach table") {
        println!(
            "  {:<22} {:>5} instructions | {:>5} typed | {:>5} generic | {:>4} global stores",
            r.program, r.instructions, r.typed, r.generic, r.global_stores
        );
    }
}

fn ablations() {
    println!("\n[A1] Optimizer passes (const-fold / copy-prop / CSE / DCE / jump-threading)");
    let a = optimizer_ablation().expect("optimizer ablation");
    println!(
        "  kernel: OptLevel::None {} | OptLevel::Full {} | speedup {:.2}x",
        ms(a.ns_none),
        ms(a.ns_full),
        a.speedup
    );
    println!(
        "  passes applied: {} folded, {} propagated, {} CSE, {} dead, {} threaded",
        a.stats_full.constants_folded,
        a.stats_full.copies_propagated,
        a.stats_full.cse_hits,
        a.stats_full.dead_removed,
        a.stats_full.blocks_threaded
    );

    println!("\n[A2] Classifier lookup (paper §5: linked list 'does not scale')");
    for (rules, lookups) in [
        (16, 20_000),
        (128, 20_000),
        (1024, 20_000),
        (4096, 20_000),
        (100_000, 2_000),
    ] {
        let a = classifier_ablation(rules, lookups).expect("classifier ablation");
        let per = |ns: u64| ns as f64 / a.lookups as f64;
        println!(
            "  rules={:<6} linear scan {:>10.0} ns/lookup | compiled tuple space {:>5.0} ns/lookup | speedup {:.1}x",
            a.rules,
            per(a.ns_linear),
            per(a.ns_compiled),
            a.speedup
        );
    }

    println!("\n[A3] Regexp incremental matching overhead");
    let a = regexp_ablation(50_000).expect("regexp ablation");
    println!(
        "  whole-buffer {} | chunked {} | incremental overhead {:.2}x",
        ms(a.ns_whole),
        ms(a.ns_chunked),
        a.incremental_overhead
    );
}
