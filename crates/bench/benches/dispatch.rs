//! Dispatch microbenchmarks: the bytecode specializer on vs. off.
//!
//! Two kernels bracket the VM's hot paths: a tight integer loop (pure
//! straight-line arithmetic plus a fused compare-and-branch back-edge —
//! the best case for the typed tier) and recursive `fib` (call-dominated,
//! so frame setup bounds how much specialization can buy). The same pair
//! is registered alongside the A1 optimizer ablation in `ablation.rs`.

use criterion::{criterion_group, criterion_main, Criterion};

use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti::Program;

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

fn build(src: &str, specialize: bool) -> Program {
    Program::from_sources_opts(
        &[src],
        OptLevel::Full,
        BuildOptions {
            specialize,
            ..Default::default()
        },
    )
    .expect("kernel builds")
}

fn bench_int_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_int_loop");
    for (name, specialize) in [("spec_on", true), ("spec_off", false)] {
        group.bench_function(name, |b| {
            let mut p = build(INT_LOOP, specialize);
            b.iter(|| p.run("M::kernel", &[Value::Int(10_000)]).expect("run"))
        });
    }
    group.finish();
}

fn bench_fib(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_fib");
    for (name, specialize) in [("spec_on", true), ("spec_off", false)] {
        group.bench_function(name, |b| {
            let mut p = build(FIB, specialize);
            b.iter(|| p.run("Fib::fib", &[Value::Int(18)]).expect("run"))
        });
    }
    group.finish();
}

/// Resource-governance overhead: the same kernels with fuel (and, for the
/// call-heavy one, depth) limits configured high enough never to trip.
/// The delta against the `unlimited` baselines above is the cost of the
/// amortized fuel accounting in the dispatch loop; target < 5%.
fn bench_governance_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("governance_overhead");
    // Limits are re-armed every iteration (fuel is consumed run to run),
    // so both variants pay the same set_limits call and the measured
    // delta isolates the per-instruction accounting.
    for (name, fuel) in [
        ("int_loop_unlimited", None),
        ("int_loop_governed", Some(100_000_000u64)),
    ] {
        let limits = hilti_rt::limits::ResourceLimits {
            fuel,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            let mut p = build(INT_LOOP, true);
            b.iter(|| {
                p.set_limits(limits);
                p.run("M::kernel", &[Value::Int(10_000)]).expect("run")
            })
        });
    }
    for (name, limits) in [
        ("fib_unlimited", hilti_rt::limits::ResourceLimits::default()),
        (
            "fib_governed",
            hilti_rt::limits::ResourceLimits {
                fuel: Some(100_000_000),
                max_call_depth: Some(10_000),
                ..Default::default()
            },
        ),
    ] {
        group.bench_function(name, |b| {
            let mut p = build(FIB, true);
            b.iter(|| {
                p.set_limits(limits);
                p.run("Fib::fib", &[Value::Int(18)]).expect("run")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_int_loop, bench_fib, bench_governance_overhead
}
criterion_main!(benches);
