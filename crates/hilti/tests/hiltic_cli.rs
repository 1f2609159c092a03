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

/// `examples/hlt/typed_ops.hlt` reaches the typed integer instructions of
/// its rows (each under `spec.<mnemonic>`) and the fused test-and-branch,
/// and the specializer changes nothing in its trace, optimized or not.
#[test]
fn typed_ops_example_reaches_every_typed_instruction() {
    let f = example("typed_ops.hlt");
    assert_eq!(
        stats_buckets(&f, "spec.int."),
        [
            "spec.int.add",
            "spec.int.and",
            "spec.int.eq",
            "spec.int.geq",
            "spec.int.gt",
            "spec.int.leq",
            "spec.int.lt",
            "spec.int.mul",
            "spec.int.or",
            "spec.int.shl",
            "spec.int.shr",
            "spec.int.sub",
            "spec.int.xor",
        ]
    );
    assert_eq!(stats_buckets(&f, "spec.br_if"), ["spec.br_if"]);
    assert_trace_ignores_specializer(&f);
}

/// `examples/hlt/typed_scalars.hlt` reaches a typed row of every scalar
/// kind past integers and booleans, the three-operand `string.substr`
/// included, and the specializer changes nothing in its trace, optimized
/// or not.
#[test]
fn typed_scalars_example_reaches_a_row_of_every_kind() {
    let f = example("typed_scalars.hlt");
    let typed: Vec<String> = stats_buckets(&f, "spec.")
        .into_iter()
        .filter(|b| !b.starts_with("spec.int.") && !b.starts_with("spec.br") && b != "spec.move")
        .collect();
    assert_eq!(
        typed,
        [
            "spec.addr.mask",
            "spec.bytes.at",
            "spec.bytes.end",
            "spec.bytes.length",
            "spec.bytes.sub",
            "spec.double.mul",
            "spec.interval.add",
            "spec.interval.from_double",
            "spec.network.contains",
            "spec.port.number",
            "spec.regexp.match_prefix",
            "spec.string.concat",
            "spec.string.substr",
            "spec.string.to_bytes",
            "spec.time.add",
            "spec.time.from_double",
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
        stats_buckets(&f, "spec.iterator."),
        [
            "spec.iterator.deref",
            "spec.iterator.incr",
            "spec.iterator.offset"
        ]
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

/// `examples/hlt/unpack.hlt` runs its integer reads and its decodes typed,
/// and the specializer changes nothing in its trace, optimized or not, nor
/// where a run out of fuel stops.
#[test]
fn unpack_example_runs_its_rows_typed() {
    let f = example("unpack.hlt");
    for bucket in [
        "spec.bytes.sub_string",
        "spec.iterator.unpack_be",
        "spec.iterator.unpack_le",
    ] {
        assert_eq!(stats_buckets(&f, bucket), [bucket]);
    }
    for opt in ["-O0", "-O1"] {
        let traced = |extra: &[&str]| {
            let out = hiltic()
                .args(["run", "--trace", opt])
                .args(extra)
                .arg(&f)
                .output()
                .unwrap();
            assert!(out.status.success(), "{opt} {extra:?}: {out:?}");
            (out.stdout, out.stderr)
        };
        assert_eq!(traced(&[]), traced(&["--no-specialize"]), "{opt}");
    }
    let at_fuel = |n: u64, extra: &[&str]| {
        let out = hiltic()
            .args(["run", "--fuel", &n.to_string()])
            .args(extra)
            .arg(&f)
            .output()
            .unwrap();
        (out.status.code(), out.stdout, out.stderr)
    };
    for n in 1.. {
        let on = at_fuel(n, &[]);
        assert_eq!(on, at_fuel(n, &["--no-specialize"]), "fuel {n}");
        assert_eq!(on, at_fuel(n, &["--interp"]), "fuel {n}");
        if on.0 == Some(0) {
            break;
        }
    }
}

/// `examples/hlt/containers.hlt` runs every container row it uses typed
/// (each under `spec.<mnemonic>`), three-operand rows included, and the
/// specializer changes nothing in its trace, optimized or not, nor where a
/// run out of fuel stops.
#[test]
fn containers_example_runs_container_rows_typed() {
    let f = example("containers.hlt");
    let typed: Vec<String> = stats_buckets(&f, "spec.")
        .into_iter()
        .filter(|b| !b.starts_with("spec.int.") && !b.starts_with("spec.br") && b != "spec.move")
        .collect();
    assert_eq!(
        typed,
        [
            "spec.bytes.copy",
            "spec.bytes.freeze",
            "spec.bytes.is_frozen",
            "spec.bytes.unfreeze",
            "spec.deepcopy",
            "spec.equal",
            "spec.list.append",
            "spec.list.back",
            "spec.list.clear",
            "spec.list.front",
            "spec.list.length",
            "spec.list.pop_back",
            "spec.list.pop_front",
            "spec.list.push_back",
            "spec.list.push_front",
            "spec.map.clear",
            "spec.map.exists",
            "spec.map.get",
            "spec.map.get_default",
            "spec.map.insert",
            "spec.map.keys",
            "spec.map.remove",
            "spec.map.size",
            "spec.map.timeout",
            "spec.select",
            "spec.set.clear",
            "spec.set.exists",
            "spec.set.insert",
            "spec.set.members",
            "spec.set.remove",
            "spec.set.size",
            "spec.string.render",
            "spec.unequal",
            "spec.vector.clear",
            "spec.vector.get",
            "spec.vector.length",
            "spec.vector.pop_back",
            "spec.vector.push_back",
            "spec.vector.reserve",
            "spec.vector.set",
        ]
    );
    assert_trace_ignores_specializer(&f);
    // Out of fuel at every count up to the whole run, each configuration
    // stops at the same instruction: same output, same error.
    let at_fuel = |n: u64, extra: &[&str]| {
        let out = hiltic()
            .args(["run", "--fuel", &n.to_string()])
            .args(extra)
            .arg(&f)
            .output()
            .unwrap();
        (out.status.code(), out.stdout, out.stderr)
    };
    for n in 1.. {
        let on = at_fuel(n, &[]);
        assert_eq!(on, at_fuel(n, &["--no-specialize"]), "fuel {n}");
        assert_eq!(on, at_fuel(n, &["--interp"]), "fuel {n}");
        if on.0 == Some(0) {
            break;
        }
    }
}

/// `examples/hlt/operands.hlt` runs a row of each operand shape typed: a
/// global read, rows without a target, rows of three operands and a
/// constant in each operand place. The specializer changes nothing in its
/// trace, optimized or not, nor where a run out of fuel stops.
#[test]
fn operands_example_runs_every_operand_shape_typed() {
    let f = example("operands.hlt");
    for bucket in [
        "spec.bytes.trim",
        "spec.int.add",
        "spec.map.insert",
        "spec.select",
        "spec.set.exists",
        "spec.set.insert",
        "spec.string.substr",
        "spec.vector.push_back",
        "spec.vector.set",
    ] {
        assert_eq!(stats_buckets(&f, bucket), [bucket]);
    }
    // The reads of `base` and `seen` are operands of typed rows.
    let out = hiltic().args(["dump-bytecode", &f]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let dump = String::from_utf8_lossy(&out.stdout);
    for (op, global) in [("IntAdd", "Global(0)"), ("SetInsert", "Global(1)")] {
        assert!(
            dump.lines()
                .any(|l| l.contains(&format!("Typed(Row {{ op: {op},")) && l.contains(global)),
            "{op} on {global}: {dump}"
        );
    }
    assert_trace_ignores_specializer(&f);
    let at_fuel = |n: u64, extra: &[&str]| {
        let out = hiltic()
            .args(["run", "--fuel", &n.to_string()])
            .args(extra)
            .arg(&f)
            .output()
            .unwrap();
        (out.status.code(), out.stdout, out.stderr)
    };
    for n in 1.. {
        let on = at_fuel(n, &[]);
        assert_eq!(on, at_fuel(n, &["--no-specialize"]), "fuel {n}");
        assert_eq!(on, at_fuel(n, &["--interp"]), "fuel {n}");
        if on.0 == Some(0) {
            break;
        }
    }
}

/// Every program under `examples/hlt/`: its entry point, exit code,
/// stdout and stderr, the same under every configuration.
const EXAMPLES: &[(&str, &str, i32, &str, &str)] = &[
    (
        "bytes_walk.hlt",
        "Main::run",
        0,
        "72 2 72\n73 3 145\n76 4 221\n84 5 305\n73 6 378\n32 7 410\n119 8 529\n\
         97 9 626\n108 10 734\n107 11 841\n115 12 956\n32 13 988\n98 14 1086\n\
         121 15 1207\n116 16 1323\n101 17 1424\n115 18 1539\n17\n\
         offset 17 past frozen end 17\n",
        "",
    ),
    (
        "containers.hlt",
        "Main::run",
        0,
        "list 0 11 [9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 7]\n\
         list 9 7 7 [9, 1, 2, 3, 4, 5, 6, 7, 8, 9] False [9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8]\n\
         removed 3\n\
         set False 9 True [0, 1, 2, 4, 5, 6, 7, 8, 9]\n\
         map 2 -1 True False 9 [0, 1, 2, 4, 5, 6, 7, 8, 9]\n\
         vector 9 True 1 9 [0, 1, two, 3, 4, 5, 6, 7, 8]\n\
         bytes False True ab\n\
         caught Hilti::IndexError, list length 0\n\
         caught Hilti::IndexError, vector length 0\n\
         cleared 0 0\n",
        "",
    ),
    ("cse_heap.hlt", "Main::run", 0, "1 12 True False 1 12\n", ""),
    (
        "dead_traps.hlt",
        "Main::run",
        1,
        "caught Hilti::ValueError\n",
        "hiltic: uncaught exception: Hilti::TypeError: expected int, got string\n",
    ),
    ("hello.hlt", "Main::run", 0, "Hello, World!\n", ""),
    (
        "keys.hlt",
        "Main::run",
        0,
        "True\nTrue\n7\nTrue\nFalse\n{(1, a), 3, a, ab, b}\n[3, a, ab, b, (1, a)]\n\
         caught Hilti::TypeError\n",
        "",
    ),
    (
        "operands.hlt",
        "Main::run",
        0,
        "seen True False 16 [ an,  op, and, d o, ds , era, last, nd , nds, ope, per, ran, s a]\n\
         vector [first, seen True False, era, ran, and, nds, ds , s a,  an, and, nd , d o,  op, \
         ope, per, seen True False 16 [ an,  op, and, d o, ds , era, last, nd , nds, ope, per, \
         ran, s a]] 40 16\n\
         rands\n",
        "",
    ),
    (
        "radix.hlt",
        "Main::run",
        0,
        "43\n5\ncaught Hilti::ValueError\ncaught Hilti::ValueError\n\
         caught Hilti::ValueError\ndone\n",
        "",
    ),
    ("scan_detector.hlt", "Scan::demo", 0, "False\nTrue\n", ""),
    (
        "timers.hlt",
        "Main::run",
        0,
        "ids 0 1\nTrue\nFalse\npending 1\nsecond fired\npending 0\n",
        "",
    ),
    (
        "tokens.hlt",
        "Main::run",
        0,
        "0 3\n2 4\n1 15\n2 16\n1 24\n3 26\n1 31\n2 32\n1 43\n3 45\n3 47\n11\n\
         0 4\n2 5\n1 10\n2 11\n1 19\n3 21\ninsufficient input\n",
        "",
    ),
    (
        "typed_ops.hlt",
        "Main::run",
        0,
        "0 5 True True True True True\n1 37 False True True True True\n\
         2 111 False True True True True\n3 319 False False True True True\n\
         4 887 False False True False True\n5 2070 False True True False True\n\
         6 4991 False False True False True\n7 11770 False False True False True\n\
         -42 True True False True False\n",
        "",
    ),
    (
        "typed_scalars.hlt",
        "Main::run",
        0,
        "0 0.75 abc abc GET /index.html 15 3 10.0.0.0 False 80 1.750000\n\
         1 1.125 abcc bcc ET /index.html 14 2 10.0.0.0 False 80 2.250000\n\
         2 1.6875 abccc ccc T /index.html 13 1 10.1.0.0 True 80 3.250000\n\
         3 2.53125 abcccc ccc  /index.html 12 -1 10.1.0.0 True 80 5.250000\n\
         4 3.796875 abccccc ccc /index.html 11 -1 10.1.0.0 True 80 9.250000\n\
         5 5.6953125 abcccccc ccc index.html 10 -1 10.1.0.0 True 80 17.250000\n\
         6 8.54296875 abccccccc ccc ndex.html 9 -1 10.1.0.0 True 80 33.250000\n\
         7 12.814453125 abcccccccc ccc dex.html 8 -1 10.1.0.0 True 80 65.250000\n\
         64.000000 80/tcp\n",
        "",
    ),
    (
        "unpack.hlt",
        "Main::run",
        0,
        "1 72 72\n2 18505 18760\n4 1212763220 1414285640\n\
         8 5208778368918537129 -6214087561522165432\n\
         top -4341536287371574337 -4628645144549933117\n\
         iterator.unpack_be: width 0 outside 1..=8\n\
         iterator.unpack_le: width 9 outside 1..=8\n\
         offset 16 past frozen end 16\n\
         HILTI é\n[]\n\u{fffd}\u{fffd}\nbad range 9..7\n",
        "",
    ),
];

/// Runs `file` under `-O0`, `-O1`, `--interp` and `--no-specialize` and
/// checks each run against the file's row in [`EXAMPLES`].
fn assert_runs_as_its_row(file: &str) {
    let &(_, entry, code, stdout, stderr) = EXAMPLES
        .iter()
        .find(|row| row.0 == file)
        .unwrap_or_else(|| panic!("{file} has no row in EXAMPLES"));
    let f = example(file);
    for flag in ["-O0", "-O1", "--interp", "--no-specialize"] {
        let out = hiltic()
            .args(["run", flag, "--entry", entry, &f])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(code), "{file} {flag}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            stdout,
            "{file} {flag}"
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            stderr,
            "{file} {flag}"
        );
    }
}

/// Each example prints what its row says, optimized or not, interpreted
/// or specialized.
#[test]
fn every_example_runs_alike_under_every_configuration() {
    for row in EXAMPLES {
        assert_runs_as_its_row(row.0);
    }
}

/// `examples/hlt/dead_traps.hlt` computes two dead results that raise:
/// optimized or not, interpreted or specialized, the caught ValueError
/// prints and the TypeError ends the run uncaught.
#[test]
fn dead_traps_example_raises_under_every_configuration() {
    assert_runs_as_its_row("dead_traps.hlt");
}

/// `examples/hlt/radix.hlt` parses digits in bases 36 and 2 and then asks
/// for bases 40, -2 and 1: each raises a caught ValueError, never a panic,
/// under every configuration.
#[test]
fn radix_example_raises_value_error_outside_2_to_36() {
    assert_runs_as_its_row("radix.hlt");
}

/// `examples/hlt/keys.hlt` checks container key identity: a string and a
/// bytes with the same content are one key (also inside a tuple) and sort
/// together, appending to an inserted bytes leaves its key as inserted,
/// and a double probe raises a caught TypeError, under every
/// configuration.
#[test]
fn keys_example_agrees_with_equal_under_every_configuration() {
    assert_runs_as_its_row("keys.hlt");
}

/// `examples/hlt/cse_heap.hlt` reads a `bytes` through three pure ops,
/// appends to it, and reads it again: the second reads see the append
/// under every configuration, `-O1`'s common-subexpression elimination
/// included.
#[test]
fn cse_heap_example_rereads_after_a_write_under_every_configuration() {
    assert_runs_as_its_row("cse_heap.hlt");
}

/// A file under `examples/hlt/` without a row in [`EXAMPLES`] fails here.
#[test]
fn every_example_has_a_row() {
    let dir = format!("{}/../../examples/hlt", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort_unstable();
    let rows: Vec<&str> = EXAMPLES.iter().map(|row| row.0).collect();
    assert_eq!(files, rows);
}

/// `hiltic check` rejects a container op, or `select`, on an operand of
/// the wrong kind, naming the operand, instead of leaving the `TypeError`
/// to run time.
#[test]
fn check_rejects_container_ops_on_the_wrong_operand() {
    let cases = [
        (
            "local ref<set<any>> s\n    local any x\n    s = new set<any>\n    x = map.get s 1",
            "map.get operand 1: expected map<any, any>, got set<any>",
        ),
        (
            "local ref<vector<any>> v\n    v = new vector<any>\n    list.push_back v 1",
            "list.push_back operand 1: expected list<any>, got vector<any>",
        ),
        (
            "local ref<map<any, any>> m\n    local ref<list<any>> l\n    \
             m = new map<any, any>\n    l = set.members m",
            "set.members operand 1: expected set<any>, got map<any, any>",
        ),
        (
            "local int<64> c\n    local any x\n    c = assign 1\n    x = select c 1 2",
            "select operand 1: expected bool, got int<64>",
        ),
    ];
    for (i, (body, message)) in cases.into_iter().enumerate() {
        let f = write_temp(
            &format!("wrong_operand{i}.hlt"),
            &format!("module Main\nvoid run() {{\n    {body}\n}}\n"),
        );
        let out = hiltic().arg("check").arg(&f).output().unwrap();
        assert!(!out.status.success(), "{body}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{body}: {err}");
    }
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
