//! End-to-end tests of the `hiltic` compiler driver (§3.1, Figure 3).

use std::process::Command;

fn hiltic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hiltic"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hiltic_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const HELLO: &str = r#"
module Main
import Hilti

void run() {
    call Hilti::print "Hello, World!"
}
"#;

#[test]
fn figure3_run() {
    let f = write_temp("hello.hlt", HELLO);
    let out = hiltic().arg("run").arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "Hello, World!\n");
}

#[test]
fn run_interpreted_flag() {
    let f = write_temp("hello2.hlt", HELLO);
    let out = hiltic().args(["run", "--interp"]).arg(&f).output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "Hello, World!\n");
}

#[test]
fn check_reports_counts() {
    let f = write_temp("hello3.hlt", HELLO);
    let out = hiltic().arg("check").arg(&f).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 function(s)"), "{text}");
}

#[test]
fn dump_stages() {
    let f = write_temp("hello4.hlt", HELLO);
    let ir = hiltic().arg("dump-ir").arg(&f).output().unwrap();
    assert!(ir.status.success());
    assert!(String::from_utf8_lossy(&ir.stdout).contains("Main::run"));
    let bc = hiltic().arg("dump-bytecode").arg(&f).output().unwrap();
    assert!(bc.status.success());
    assert!(String::from_utf8_lossy(&bc.stdout).contains("CallHost"));
}

#[test]
fn compile_errors_fail_with_diagnostics() {
    let f = write_temp(
        "broken.hlt",
        "module M\nvoid f() {\n    x = int.add 1 2\n}\n",
    );
    let out = hiltic().arg("run").arg(&f).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("undeclared target"));
}

#[test]
fn custom_entry_point() {
    let f = write_temp(
        "entry.hlt",
        "module App\nvoid go() {\n    call Hilti::print \"custom\"\n}\n",
    );
    let out = hiltic()
        .args(["run", "--entry", "App::go"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "custom\n");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = hiltic()
        .args(["run", "/no/such/file.hlt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn trace_flag_logs_instructions_to_stderr() {
    let f = write_temp("traced.hlt", HELLO);
    let out = hiltic().args(["run", "--trace"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    // Program output is unaffected on stdout...
    assert_eq!(String::from_utf8_lossy(&out.stdout), "Hello, World!\n");
    // ...while stderr carries one line per executed instruction.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.lines().any(|l| l.starts_with("trace: Main::run@")),
        "{err}"
    );
}

const THROWER: &str = r#"
module Main
void run() {
    exception.throw Hilti::ValueError "boom"
}
"#;

const CATCHER: &str = r#"
module Main
import Hilti

void run() {
    try {
        exception.throw Hilti::ValueError "boom"
    } catch ( ref<Hilti::ValueError> e ) {
        call Hilti::print "caught"
    }
}
"#;

const SPINNER: &str = r#"
module Main
void run() {
loop:
    jump loop
}
"#;

const GLUTTON: &str = r#"
module Main
void run() {
    local ref<bytes> b
    local int<64> i
    local bool m
    b = new bytes
    i = assign 0
loop:
    bytes.append b "xxxxxxxxxxxxxxxx"
    i = int.add i 1
    m = int.lt i 100000
    if.else m loop done
done:
    return
}
"#;

#[test]
fn uncaught_exception_exits_nonzero_with_kind() {
    let f = write_temp("thrower.hlt", THROWER);
    for extra in [&[][..], &["--interp"][..]] {
        let out = hiltic().arg("run").args(extra).arg(&f).output().unwrap();
        assert!(!out.status.success(), "{extra:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("uncaught exception") && err.contains("Hilti::ValueError"),
            "{extra:?}: {err}"
        );
    }
}

#[test]
fn caught_exception_exits_clean() {
    let f = write_temp("catcher.hlt", CATCHER);
    for extra in [&[][..], &["--interp"][..]] {
        let out = hiltic().arg("run").args(extra).arg(&f).output().unwrap();
        assert!(out.status.success(), "{extra:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "caught\n");
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("uncaught"),
            "{extra:?}"
        );
    }
}

#[test]
fn fuel_flag_bounds_infinite_loops() {
    let f = write_temp("spinner.hlt", SPINNER);
    for extra in [&[][..], &["--interp"][..]] {
        let out = hiltic()
            .args(["run", "--fuel", "100000"])
            .args(extra)
            .arg(&f)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{extra:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("Hilti::ResourceExhausted"),
            "{extra:?}: {out:?}"
        );
    }
    // Plenty of fuel: a terminating program is unaffected.
    let ok = write_temp("hello5.hlt", HELLO);
    let out = hiltic()
        .args(["run", "--fuel", "100000"])
        .arg(&ok)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn max_heap_flag_bounds_state_growth() {
    let f = write_temp("glutton.hlt", GLUTTON);
    let out = hiltic()
        .args(["run", "--max-heap", "4096"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("Hilti::ResourceExhausted"),
        "{out:?}"
    );
}

#[test]
fn bad_limit_flag_values_fail_cleanly() {
    let f = write_temp("hello6.hlt", HELLO);
    for flag in ["--fuel", "--max-heap", "--max-depth"] {
        let out = hiltic()
            .args(["run", flag, "banana"])
            .arg(&f)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag}");
        let out = hiltic().args(["run", flag]).output().unwrap();
        assert!(!out.status.success(), "{flag} without value");
    }
}

#[test]
fn trace_flag_works_interpreted() {
    let f = write_temp("traced2.hlt", HELLO);
    let out = hiltic()
        .args(["run", "--trace", "--interp"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("trace: Main::run"), "{err}");
}

const FIB: &str = r#"
module Main
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

int<64> run() {
    local int<64> r
    r = call fib (10)
    return r
}
"#;

#[test]
fn profile_flag_is_deterministic_and_engine_agnostic() {
    let f = write_temp("profiled.hlt", FIB);
    let dir = std::env::temp_dir().join("hiltic_cli_tests");
    let profile_run = |name: &str, extra: &[&str]| -> String {
        let path = dir.join(name);
        let mut cmd = hiltic();
        cmd.arg("run");
        cmd.args(extra);
        cmd.arg("--profile").arg(&path).arg(&f);
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{out:?}");
        std::fs::read_to_string(&path).unwrap()
    };

    // Two VM runs: byte-identical profile files.
    let a = profile_run("p1.json", &[]);
    let b = profile_run("p2.json", &[]);
    assert_eq!(a, b);
    assert!(a.contains("\"schema\":\"hilti.profile.v1\""), "{a}");
    assert!(a.contains("\"Main::fib\""), "{a}");

    // Interp vs. VM: only the engine field differs; every per-function and
    // per-class total — and therefore total retired instructions — agrees.
    let i = profile_run("p3.json", &["--interp"]);
    assert_eq!(
        a.replace("\"engine\":\"vm\"", "\"engine\":\"interp\""),
        i,
        "vm profile:\n{a}\ninterp profile:\n{i}"
    );

    // The specialized tier must not change the profile either.
    let n = profile_run("p4.json", &["--no-specialize"]);
    assert_eq!(a, n);
}

#[test]
fn metrics_out_writes_telemetry_snapshot() {
    let f = write_temp("metrics.hlt", FIB);
    let path = std::env::temp_dir().join("hiltic_cli_tests/m1.json");
    let out = hiltic()
        .arg("run")
        .arg("--metrics-out")
        .arg(&path)
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let doc = std::fs::read_to_string(&path).unwrap();
    assert!(doc.contains("\"schema\":\"hilti.telemetry.v1\""), "{doc}");
    assert!(doc.contains("\"engine.instructions_retired\""), "{doc}");
    assert!(doc.contains("\"engine.runs\":1"), "{doc}");
}

#[test]
fn stats_prints_percentages_sorted_descending() {
    let f = write_temp("stats.hlt", FIB);
    let out = hiltic().args(["run", "--stats"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("stats: ") && l.contains('%'))
        .collect();
    assert!(!lines.is_empty(), "{err}");
    // Each histogram line carries a percentage; counts are descending and
    // the shares sum to ~100%.
    let mut counts = Vec::new();
    let mut pct_sum = 0.0f64;
    for l in &lines {
        let mut fields = l.trim_start_matches("stats: ").split_whitespace();
        counts.push(fields.next().unwrap().parse::<u64>().unwrap());
        let pct = fields.next().unwrap().trim_end_matches('%');
        pct_sum += pct.parse::<f64>().unwrap();
    }
    let mut sorted = counts.clone();
    sorted.sort_by(|x, y| y.cmp(x));
    assert_eq!(counts, sorted, "{err}");
    assert!((pct_sum - 100.0).abs() < 1.0, "pct sum {pct_sum}: {err}");
}

/// The `--stats` buckets starting with `prefix` that running `f` reports,
/// sorted.
fn stats_buckets(f: &str, prefix: &str) -> Vec<String> {
    let out = hiltic().args(["run", "--stats", f]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    let mut buckets: Vec<String> = err
        .lines()
        .filter_map(|l| l.split_whitespace().last())
        .filter(|name| name.starts_with(prefix))
        .map(str::to_owned)
        .collect();
    buckets.sort_unstable();
    buckets
}

/// The specializer changes nothing in `f`'s `--trace`, optimized or not,
/// and the trace runs to more than 150 lines.
fn assert_trace_ignores_specializer(f: &str) {
    for opt in [&[][..], &["-O0"][..]] {
        let traced = |extra: &[&str]| {
            let out = hiltic()
                .args(["run", "--trace"])
                .args(opt)
                .args(extra)
                .arg(f)
                .output()
                .unwrap();
            assert!(out.status.success(), "{opt:?} {extra:?}: {out:?}");
            out
        };
        let (on, off) = (traced(&[]), traced(&["--no-specialize"]));
        assert_eq!(on.stdout, off.stdout, "{opt:?}");
        assert_eq!(on.stderr, off.stderr, "{opt:?}");
        let lines = String::from_utf8_lossy(&on.stderr).lines().count();
        assert!(lines > 150, "{opt:?}: {lines} trace lines");
    }
}

fn example(name: &str) -> String {
    format!("{}/../../examples/hlt/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `examples/hlt/typed_ops.hlt` reaches every typed integer instruction,
/// and the specializer changes nothing in its trace, optimized or not.
#[test]
fn typed_ops_example_reaches_every_typed_instruction() {
    let f = example("typed_ops.hlt");
    assert_eq!(
        stats_buckets(&f, "spec.int."),
        [
            "spec.int.add",
            "spec.int.and",
            "spec.int.br_if",
            "spec.int.cmp",
            "spec.int.mul",
            "spec.int.or",
            "spec.int.shl",
            "spec.int.shr",
            "spec.int.sub",
            "spec.int.xor",
        ]
    );
    assert_trace_ignores_specializer(&f);
}

/// `examples/hlt/bytes_walk.hlt` runs its iterator steps typed — in place,
/// into another slot, by a negative count, and past the frozen end — and
/// the specializer changes nothing in its trace, optimized or not.
#[test]
fn bytes_walk_example_runs_iterators_typed() {
    let f = example("bytes_walk.hlt");
    assert_eq!(
        stats_buckets(&f, "spec.iter."),
        ["spec.iter.deref", "spec.iter.incr"]
    );
    let out = hiltic().args(["run", &f]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.ends_with("17\noffset 17 past frozen end 17\n"),
        "{stdout}"
    );
    assert_trace_ignores_specializer(&f);
}

/// `examples/hlt/tokens.hlt` runs every token match fused — over a frozen
/// input to its end and over an open one until a match blocks — and the
/// specializer changes nothing in its trace, optimized or not.
#[test]
fn tokens_example_runs_fused() {
    let f = example("tokens.hlt");
    assert_eq!(stats_buckets(&f, "spec.regexp."), ["spec.regexp.token"]);
    let out = hiltic().args(["run", &f]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "0 3\n2 4\n1 15\n2 16\n1 24\n3 26\n1 31\n2 32\n1 43\n3 45\n3 47\n11\n\
         0 4\n2 5\n1 10\n2 11\n1 19\n3 21\ninsufficient input\n"
    );
    assert_trace_ignores_specializer(&f);
}

#[test]
fn removed_tiering_flag_is_rejected_as_unknown() {
    let f = write_temp("tiering.hlt", FIB);
    let out = hiltic()
        .args(["run", "--tiering=lazy"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --tiering=lazy"),
        "{out:?}"
    );
}

#[test]
fn trace_out_writes_chrome_trace_with_build_and_run_spans() {
    let f = write_temp("traced.hlt", HELLO);
    let out_path = std::env::temp_dir().join("hiltic_cli_tests/trace.json");
    let out = hiltic()
        .args(["run", "--trace-out"])
        .arg(&out_path)
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "Hello, World!\n");
    let doc = std::fs::read_to_string(&out_path).unwrap();
    hilti_rt::telemetry::json::validate(&doc).expect("trace must be valid JSON");
    assert!(doc.contains("\"schema\":\"hilti.trace.v1\""), "{doc}");
    assert!(doc.contains("\"traceEvents\":["), "{doc}");
    // Front-end build maps to the parse stage, execution to script.
    assert!(doc.contains("\"name\":\"parse\""), "{doc}");
    assert!(doc.contains("\"name\":\"script\""), "{doc}");
}

#[test]
fn trace_out_with_stats_prints_latency_summary() {
    let f = write_temp("traced_stats.hlt", HELLO);
    let out_path = std::env::temp_dir().join("hiltic_cli_tests/trace_stats.json");
    let out = hiltic()
        .args(["run", "--stats", "--trace-out"])
        .arg(&out_path)
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("latency (per stage, ns):"), "{err}");
    assert!(err.contains("parse"), "{err}");
}
