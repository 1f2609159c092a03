//! A1–A3 — ablations on the design choices DESIGN.md calls out:
//! optimizer passes, classifier lookup structure, and incremental regexp
//! matching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti_rt::addr::Addr;
use hilti_rt::classifier::FieldValue;
use hilti_rt::regexp::Regex;

const KERNEL: &str = r#"
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

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_optimizer");
    for (name, level) in [("none", OptLevel::None), ("full", OptLevel::Full)] {
        group.bench_function(name, |b| {
            let mut p = hilti::Program::from_sources(&[KERNEL], level).expect("kernel");
            b.iter(|| p.run("M::kernel", &[Value::Int(2_000)]).expect("run"))
        });
    }
    // The bytecode-specialization tier on the same kernel (see
    // `dispatch.rs` for the dedicated microbenchmarks): full optimizer
    // with and without the typed fast path.
    for (name, specialize) in [("full_spec", true), ("full_nospec", false)] {
        group.bench_function(name, |b| {
            let mut p = hilti::Program::from_sources_opts(
                &[KERNEL],
                OptLevel::Full,
                hilti::host::BuildOptions {
                    specialize,
                    ..Default::default()
                },
            )
            .expect("kernel");
            b.iter(|| p.run("M::kernel", &[Value::Int(2_000)]).expect("run"))
        });
    }
    group.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_classifier");
    // A source no rule covers: the scan reads every rule.
    let probe = [
        FieldValue::Addr(Addr::v4(9, 1, 77, 1)),
        FieldValue::Addr(Addr::v4(192, 168, 0, 1)),
    ];
    for rules in [16usize, 256, 1024, 4096] {
        let cls = bench::experiments::ablation_classifier(rules).expect("rules");
        group.bench_with_input(BenchmarkId::new("linear", rules), &cls, |b, cls| {
            b.iter(|| cls.matches_linear(&probe))
        });
        group.bench_with_input(BenchmarkId::new("compiled", rules), &cls, |b, cls| {
            b.iter(|| cls.matches(&probe))
        });
    }
    group.finish();
}

fn bench_regexp(c: &mut Criterion) {
    let re = Regex::new("[A-Z]+ [^ ]+ HTTP\\/[0-9]\\.[0-9]\\r\\n").expect("pattern");
    let line = b"GET /index/with/a/moderately/long/path?x=123456 HTTP/1.1\r\n";
    let mut group = c.benchmark_group("a3_regexp");
    group.bench_function("whole_buffer", |b| b.iter(|| re.match_prefix(line)));
    group.bench_function("chunked_incremental", |b| {
        b.iter(|| {
            let mut m = re.matcher();
            for chunk in line.chunks(7) {
                m.feed(chunk);
            }
            m.finish()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_optimizer, bench_classifier, bench_regexp
}
criterion_main!(benches);
