//! Differential testing of the execution engines and the optimizer.
//!
//! Random structured programs are generated from a compact recipe, emitted
//! as textual HILTI, and executed several ways:
//!
//!   1. the tree-walking interpreter on unoptimized IR (the oracle),
//!   2. the bytecode VM on unoptimized IR, specializer off,
//!   3. the bytecode VM on unoptimized IR, specializer on,
//!   4. the bytecode VM on fully optimized IR, specializer off,
//!   5. the bytecode VM on fully optimized IR, specializer on.
//!
//! All must agree on the outcome — the returned value, or the kind of
//! exception raised — *and* on printed output (each kernel prints its
//! result through `Hilti::print`, so host-call marshalling is covered
//! too). Kernels draw from every binary integer op and comparison, with
//! slot and literal operands (constant-only instructions included, which
//! the optimizer folds) and literals at the edges of `int<64>`: the
//! minimum, -1, and shift amounts 63, 64 and -64. Integer arithmetic wraps
//! in HILTI, so division/modulo by zero is the one trap of the arithmetic
//! steps — which the generator deliberately does not avoid, so that
//! constant folding never hides a trap and the specialized fast tier
//! raises exactly where the generic path would.
//!
//! Every slot is printed, so no arithmetic result is dead. Dead results
//! come from `Dead` steps, whose targets nothing reads: a `string.fmt`
//! with one value for one or two placeholders (a `ValueError` with two),
//! and an `int.add` on an `any` slot holding an int or a string (a
//! `TypeError` with the string). Dead-code elimination must keep exactly
//! the ones that can raise.
//!
//! `Scalar` steps reach the typed rows of the other scalar kinds: each is
//! one instruction over typed `double`, `string`, `time`, `interval`,
//! `addr` and `ref<bytes>` locals (and the int slots), the trapping ones
//! included — `double.div` by `0.0`, `string.to_int` of `"x"`, a radix
//! outside 2..=36. Their kernels run unoptimized under the interpreter and
//! the VM with the specializer on and off, which must agree on value,
//! exception kind and message, output and fuel.

use hilti::host::BuildOptions;
use hilti::passes::OptLevel;
use hilti::{Program, Value};
use hilti_rt::rng::Rng;

const SLOTS: u8 = 6;

/// The binary int ops a `Bin` step draws from.
const BIN_OPS: [&str; 10] = [
    "int.add", "int.sub", "int.mul", "int.div", "int.mod", "int.and", "int.or", "int.xor",
    "int.shl", "int.shr",
];

/// The comparisons a `Diamond` step draws from.
const CMP_OPS: [&str; 5] = ["int.eq", "int.lt", "int.gt", "int.leq", "int.geq"];

/// An operand of a generated instruction: slot `t0..t5`, or an integer
/// literal. Two literals make a constant-only instruction, which the
/// optimizer folds and the specializer turns into immediates.
#[derive(Debug, Clone, Copy)]
enum Src {
    Slot(u8),
    Imm(i64),
}

impl std::fmt::Display for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Src::Slot(t) => write!(f, "t{t}"),
            Src::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// One step of a generated kernel, operating on int slots `t0..t5`.
/// `t0`/`t1` start as the two function arguments, `t2..t5` as constants.
#[derive(Debug, Clone)]
enum Step {
    /// `t[dst] = BIN_OPS[op] a b`
    Bin { op: u8, dst: u8, a: Src, b: Src },
    /// `if CMP_OPS[cmp] a b { t[dst] = t[x] + t[y] } else { t[dst] = t[x] - t[y] }`
    Diamond {
        cmp: u8,
        a: Src,
        b: Src,
        dst: u8,
        x: u8,
        y: u8,
    },
    /// `repeat iters times: t[dst] = t[dst] + t[src]`
    Loop { iters: u8, dst: u8, src: u8 },
    /// A result nothing reads. `fmt`: `s = string.fmt "{}…" t[x]` with
    /// `holes` placeholders. Otherwise `d = assign t[x]` (or its decimal
    /// text when `text`) into an `any` slot, then `n = int.add d b`.
    Dead {
        fmt: bool,
        holes: u8,
        text: bool,
        x: u8,
        b: Src,
    },
    /// One instruction of `SCALAR_STEPS`, its placeholders filled in.
    Scalar(String),
}

/// The `Scalar` steps, over the typed locals `f` (double), `s` (string),
/// `tm` (time), `iv` (interval), `ad` (addr), `by` (ref<bytes>) and `q`
/// (bool). Placeholders: `T` an int slot, `D` a double literal (`0.0`
/// among them), `S` a string literal (`"x"` among them), `B` a radix (some
/// outside 2..=36).
const SCALAR_STEPS: [&str; 32] = [
    "f = double.add f D",
    "f = double.sub D f",
    "f = double.mul f D",
    "f = double.div f D",
    "f = double.div D f",
    "f = int.to_double T",
    "f = double.abs f",
    "T = double.to_int f",
    "q = double.leq f D",
    "s = string.concat s S",
    "T = string.length s",
    "T = string.find s S",
    "T = string.to_int s",
    "T = string.to_int S",
    "s = string.substr s T T",
    "s = string.upper s",
    "q = string.starts_with s S",
    "by = string.to_bytes s",
    "s = bytes.to_string by",
    "T = bytes.length by",
    "T = bytes.to_int by B",
    "T = int.from_bytes by B",
    "tm = time.from_double f",
    "tm = time.add tm iv",
    "tm = time.sub_interval tm iv",
    "iv = time.sub_time tm tm",
    "iv = interval.from_double f",
    "iv = interval.sub iv iv",
    "T = interval.nsecs iv",
    "T = time.nsecs tm",
    "ad = addr.mask ad T",
    "q = network.contains 10.0.0.0/8 ad",
];

/// A `Scalar` step: a row of `SCALAR_STEPS`, its placeholders drawn.
fn scalar(rng: &mut Rng) -> Step {
    let row = SCALAR_STEPS[rng.below(SCALAR_STEPS.len() as u64) as usize];
    let pick =
        |rng: &mut Rng, from: &[&str]| from[rng.below(from.len() as u64) as usize].to_owned();
    let words: Vec<String> = row
        .split(' ')
        .map(|w| match w {
            "T" => format!("t{}", slot(rng)),
            "D" => pick(rng, &["0.0", "1.5", "-2.25", "0.5"]),
            "S" => pick(rng, &["\"x\"", "\"12\"", "\"\"", "\"-7\""]),
            "B" => pick(rng, &["10", "16", "2", "36", "37", "1", "-10"]),
            w => w.to_owned(),
        })
        .collect();
    Step::Scalar(words.join(" "))
}

/// Integer literals, weighted toward the edges of `int<64>` arithmetic:
/// the minimum (whose negation and `div -1` wrap), -1, and shift amounts
/// at and past the word size.
fn imm(rng: &mut Rng) -> i64 {
    match rng.below(10) {
        0..=4 => rng.below(100) as i64 - 50,
        5 => i64::MIN,
        6 => -1,
        7 => 63,
        8 => 64,
        _ => -64,
    }
}

fn slot(rng: &mut Rng) -> u8 {
    rng.below(u64::from(SLOTS)) as u8
}

fn src(rng: &mut Rng) -> Src {
    if rng.chance(3, 4) {
        Src::Slot(slot(rng))
    } else {
        Src::Imm(imm(rng))
    }
}

fn bin(rng: &mut Rng) -> Step {
    let op = rng.below(BIN_OPS.len() as u64) as u8;
    let dst = slot(rng);
    // One in four is constant-only, so the optimizer gets to fold every op.
    let (a, b) = if rng.chance(3, 4) {
        (src(rng), src(rng))
    } else {
        (Src::Imm(imm(rng)), Src::Imm(imm(rng)))
    };
    Step::Bin { op, dst, a, b }
}

fn diamond(rng: &mut Rng) -> Step {
    Step::Diamond {
        cmp: rng.below(CMP_OPS.len() as u64) as u8,
        a: src(rng),
        b: src(rng),
        dst: slot(rng),
        x: slot(rng),
        y: slot(rng),
    }
}

/// `Loop` with an iteration count in `1..max_iters`.
fn repeat(rng: &mut Rng, max_iters: u64) -> Step {
    Step::Loop {
        iters: 1 + rng.below(max_iters - 1) as u8,
        dst: slot(rng),
        src: slot(rng),
    }
}

fn step(rng: &mut Rng) -> Step {
    match rng.below(7) {
        0..=2 => bin(rng),
        3 | 4 => diamond(rng),
        5 => repeat(rng, 5),
        _ => Step::Dead {
            fmt: rng.chance(1, 2),
            holes: 1 + rng.below(2) as u8,
            text: rng.chance(1, 2),
            x: slot(rng),
            b: src(rng),
        },
    }
}

/// Loop-heavy variant: the distribution the specializer targets — counted
/// loops with compare-and-branch back-edges dominate, with longer
/// iteration counts so the fast tier executes thousands of specialized
/// instructions per case rather than a handful.
fn loop_heavy_step(rng: &mut Rng) -> Step {
    match rng.below(8) {
        0..=3 => repeat(rng, 40),
        4 | 5 => diamond(rng),
        _ => bin(rng),
    }
}

/// `lo + below(hi - lo)` steps drawn by `step`.
fn recipe(rng: &mut Rng, lo: u64, hi: u64, step: fn(&mut Rng) -> Step) -> Vec<Step> {
    (0..lo + rng.below(hi - lo)).map(|_| step(rng)).collect()
}

/// The typed locals of `Scalar` steps, declared and set from `t0`/`t1`.
const SCALAR_LOCALS: &str = "    local double f
    local string s
    local time tm
    local interval iv
    local addr ad
    local ref<bytes> by
    local bool q
    f = int.to_double t0
    s = int.to_string t1
    tm = time.from_double 1.5
    iv = interval.from_double f
    ad = assign 10.1.2.3
    by = string.to_bytes s
    q = assign False
";

/// The four constants `t2..t5` start as.
fn consts(rng: &mut Rng) -> [i64; 4] {
    [(); 4].map(|()| imm(rng))
}

/// A value in `-n..n`.
fn around_zero(rng: &mut Rng, n: u64) -> i64 {
    rng.below(2 * n) as i64 - n as i64
}

/// Renders a recipe as a textual HILTI module with a single
/// `int<64> kernel(int<64> a, int<64> b)` function.
fn emit(recipe: &[Step], consts: &[i64], ret: u8) -> String {
    let mut src = String::from("module Fuzz\n\nint<64> kernel(int<64> a, int<64> b) {\n");
    for t in 0..SLOTS {
        src.push_str(&format!("    local int<64> t{t}\n"));
    }
    for (i, step) in recipe.iter().enumerate() {
        match step {
            Step::Diamond { .. } => src.push_str(&format!("    local bool c{i}\n")),
            Step::Loop { .. } => {
                src.push_str(&format!("    local int<64> i{i}\n"));
                src.push_str(&format!("    local bool m{i}\n"));
            }
            Step::Dead { .. } => {
                src.push_str(&format!("    local string s{i}\n"));
                src.push_str(&format!("    local any d{i}\n"));
                src.push_str(&format!("    local int<64> n{i}\n"));
            }
            Step::Bin { .. } | Step::Scalar(_) => {}
        }
    }
    src.push_str("    t0 = assign a\n    t1 = assign b\n");
    for (t, c) in consts.iter().enumerate() {
        src.push_str(&format!("    t{} = assign {c}\n", t + 2));
    }
    let scalars = recipe.iter().any(|s| matches!(s, Step::Scalar(_)));
    if scalars {
        src.push_str(SCALAR_LOCALS);
    }
    for (i, step) in recipe.iter().enumerate() {
        match *step {
            Step::Bin { op, dst, a, b } => {
                let mnem = BIN_OPS[op as usize];
                src.push_str(&format!("    t{dst} = {mnem} {a} {b}\n"));
            }
            Step::Diamond {
                cmp,
                a,
                b,
                dst,
                x,
                y,
            } => {
                let mnem = CMP_OPS[cmp as usize];
                src.push_str(&format!("    c{i} = {mnem} {a} {b}\n"));
                src.push_str(&format!("    if.else c{i} then{i} else{i}\n"));
                src.push_str(&format!("then{i}:\n"));
                src.push_str(&format!("    t{dst} = int.add t{x} t{y}\n"));
                src.push_str(&format!("    jump end{i}\n"));
                src.push_str(&format!("else{i}:\n"));
                src.push_str(&format!("    t{dst} = int.sub t{x} t{y}\n"));
                src.push_str(&format!("end{i}:\n"));
            }
            Step::Loop { iters, dst, src: s } => {
                src.push_str(&format!("    i{i} = assign 0\n"));
                src.push_str(&format!("loop{i}:\n"));
                src.push_str(&format!("    t{dst} = int.add t{dst} t{s}\n"));
                src.push_str(&format!("    i{i} = int.add i{i} 1\n"));
                src.push_str(&format!("    m{i} = int.lt i{i} {iters}\n"));
                src.push_str(&format!("    if.else m{i} loop{i} end{i}\n"));
                src.push_str(&format!("end{i}:\n"));
            }
            Step::Dead {
                fmt: true,
                holes,
                x,
                ..
            } => {
                let holes = vec!["{}"; holes as usize].join(" ");
                src.push_str(&format!("    s{i} = string.fmt \"{holes}\" t{x}\n"));
            }
            Step::Dead { text, x, b, .. } => {
                if text {
                    src.push_str(&format!("    d{i} = int.to_string t{x}\n"));
                } else {
                    src.push_str(&format!("    d{i} = assign t{x}\n"));
                }
                src.push_str(&format!("    n{i} = int.add d{i} {b}\n"));
            }
            Step::Scalar(ref line) => src.push_str(&format!("    {line}\n")),
        }
    }
    if scalars {
        for local in ["f", "s", "tm", "iv", "ad", "by", "q"] {
            src.push_str(&format!("    call Hilti::print {local}\n"));
        }
    }
    // Print every slot so output parity is differentially tested too, and
    // covers values that do not reach the result.
    for t in 0..SLOTS {
        src.push_str(&format!("    call Hilti::print t{t}\n"));
    }
    src.push_str(&format!("    return t{ret}\n}}\n"));
    src
}

/// Builds the generated source with the given optimization level and
/// specializer switch.
fn build(src: &str, opt: OptLevel, specialize: bool) -> Program {
    Program::from_sources_opts(
        &[src],
        opt,
        BuildOptions {
            specialize,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("generated program rejected: {e}\n{src}"))
}

/// Runs one engine configuration, returning (outcome, printed output).
fn run_vm(p: &mut Program, args: &[Value]) -> (Result<i64, String>, Vec<String>) {
    let r = outcome(p.run("Fuzz::kernel", args));
    (r, p.take_output())
}

/// Normalizes a run result to something comparable across engines:
/// the integer outcome, or the exception kind's HILTI-level name.
fn outcome(r: Result<Value, hilti_rt::error::RtError>) -> Result<i64, String> {
    match r {
        Ok(v) => Ok(v.as_int().expect("kernel returns int<64>")),
        Err(e) => Err(e.kind.name().to_string()),
    }
}

/// Cases per property; `engines_agree_on_total_fuel` runs half as many.
const CASES: u32 = 48;

#[test]
fn engines_and_optimizer_agree() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("engines_and_optimizer_agree", case);
        let recipe = recipe(rng, 1, 10, step);
        let src = emit(&recipe, &consts(rng), slot(rng));
        let args = [around_zero(rng, 1000), around_zero(rng, 1000)].map(Value::Int);

        let mut plain = build(&src, OptLevel::None, true);
        let mut plain_nospec = build(&src, OptLevel::None, false);
        let mut opt = build(&src, OptLevel::Full, true);
        let mut opt_nospec = build(&src, OptLevel::Full, false);

        let oracle = outcome(plain.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = plain.take_output();

        for (label, p) in [
            ("plain VM, specialized", &mut plain),
            ("plain VM, no specializer", &mut plain_nospec),
            ("optimized VM, specialized", &mut opt),
            ("optimized VM, no specializer", &mut opt_nospec),
        ] {
            let (r, out) = run_vm(p, &args);
            assert_eq!(
                oracle, r,
                "case {case}: {label} diverged from interpreter\n{src}"
            );
            assert_eq!(
                oracle_out, out,
                "case {case}: {label} printed differently\n{src}"
            );
        }
    }
}

/// The specializer's target distribution: loop-heavy integer/branch
/// kernels, run with the pass on and off at both optimization levels.
#[test]
fn loop_heavy_specializer_on_off_agree() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("loop_heavy_specializer_on_off_agree", case);
        let recipe = recipe(rng, 2, 12, loop_heavy_step);
        let src = emit(&recipe, &consts(rng), slot(rng));
        let args = [around_zero(rng, 1000), around_zero(rng, 1000)].map(Value::Int);

        let mut plain_nospec = build(&src, OptLevel::None, false);
        let mut plain_spec = build(&src, OptLevel::None, true);
        let mut opt_spec = build(&src, OptLevel::Full, true);

        let oracle = outcome(plain_nospec.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = plain_nospec.take_output();

        for (label, p) in [
            ("generic VM", &mut plain_nospec),
            ("specialized VM", &mut plain_spec),
            ("optimized+specialized VM", &mut opt_spec),
        ] {
            let (r, out) = run_vm(p, &args);
            assert_eq!(oracle, r, "case {case}: {label} diverged\n{src}");
            assert_eq!(
                oracle_out, out,
                "case {case}: {label} printed differently\n{src}"
            );
        }
    }
}

/// Resource governance differential: under a fuel limit, the
/// tree-walking interpreter and the bytecode VM (specializer on and
/// off) must exhaust at the *same* point — same outcome (including
/// `Hilti::ResourceExhausted`), same printed prefix, same remaining
/// fuel. Fuel parity holds only at matching optimization level, so
/// every engine runs unoptimized IR here.
#[test]
fn fuel_exhaustion_is_engine_equivalent() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("fuel_exhaustion_is_engine_equivalent", case);
        let recipe = recipe(rng, 2, 10, loop_heavy_step);
        let src = emit(&recipe, &consts(rng), slot(rng));
        let args = [Value::Int(around_zero(rng, 1000)), Value::Int(9)];
        let limits = hilti_rt::limits::ResourceLimits {
            fuel: Some(rng.below(400)),
            ..Default::default()
        };

        let mut interp = build(&src, OptLevel::None, true);
        interp.set_limits(limits);
        let oracle = outcome(interp.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = interp.take_output();
        let oracle_left = interp.context().fuel_remaining();

        for (label, specialize) in [("specialized", true), ("generic", false)] {
            let mut vm = build(&src, OptLevel::None, specialize);
            vm.set_limits(limits);
            let (r, out) = run_vm(&mut vm, &args);
            let at = format!("case {case}: {label} VM");
            assert_eq!(oracle, r, "{at} outcome diverged under fuel\n{src}");
            assert_eq!(oracle_out, out, "{at} output diverged under fuel\n{src}");
            let left = vm.context().fuel_remaining();
            assert_eq!(oracle_left, left, "{at} remaining fuel diverged\n{src}");
        }
    }
}

/// The optimizer is deterministic and idempotent at the outcome level:
/// two independent optimized builds of the same source agree.
#[test]
fn optimized_build_is_deterministic() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("optimized_build_is_deterministic", case);
        let recipe = recipe(rng, 1, 6, step);
        let consts = [(); 4].map(|()| around_zero(rng, 20));
        let src = emit(&recipe, &consts, 0);
        let args = [Value::Int(around_zero(rng, 100)), Value::Int(7)];
        let mut p1 = Program::from_sources(&[&src], OptLevel::Full).unwrap();
        let mut p2 = Program::from_sources(&[&src], OptLevel::Full).unwrap();
        assert_eq!(
            outcome(p1.run("Fuzz::kernel", &args)),
            outcome(p2.run("Fuzz::kernel", &args)),
            "case {case}\n{src}"
        );
    }
}

/// A fixed regression-style case: division by zero must trap identically
/// under every engine/optimization combination, even when the dividend is
/// a compile-time constant (constant folding must not fold the trap away
/// or turn it into a different exception).
#[test]
fn div_by_zero_trap_is_engine_independent() {
    let src = "module Fuzz\n\nint<64> kernel(int<64> a, int<64> b) {\n    local int<64> z\n    z = int.sub b b\n    a = int.div 7 z\n    return a\n}\n";
    let args = [Value::Int(3), Value::Int(5)];
    let mut plain = Program::from_sources(&[src], OptLevel::None).unwrap();
    let mut opt = Program::from_sources(&[src], OptLevel::Full).unwrap();
    let oracle = outcome(plain.run_interpreted("Fuzz::kernel", &args));
    assert_eq!(oracle, outcome(plain.run("Fuzz::kernel", &args)));
    assert_eq!(oracle, outcome(opt.run("Fuzz::kernel", &args)));
    assert_eq!(oracle, Err("Hilti::ArithmeticError".to_string()));
}

/// Fixed-case fuel differential: sweeping a small fuel budget over a
/// looping, printing kernel, both engines transition from exhausted to
/// completed at the same budget, and agree on everything in between.
#[test]
fn fuel_sweep_hits_resource_exhausted_at_equivalent_points() {
    let recipe = [
        Step::Loop {
            iters: 10,
            dst: 2,
            src: 3,
        },
        Step::Bin {
            op: 0,
            dst: 0,
            a: Src::Slot(2),
            b: Src::Slot(1),
        },
    ];
    let src = emit(&recipe, &[1, 2, 3, 4], 0);
    let args = [Value::Int(5), Value::Int(7)];
    let (mut exhausted, mut completed) = (0u32, 0u32);
    for fuel in 0..=120u64 {
        let limits = hilti_rt::limits::ResourceLimits {
            fuel: Some(fuel),
            ..Default::default()
        };
        let mut interp = build(&src, OptLevel::None, true);
        interp.set_limits(limits);
        let oracle = outcome(interp.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = interp.take_output();
        for specialize in [true, false] {
            let mut vm = build(&src, OptLevel::None, specialize);
            vm.set_limits(limits);
            let (r, out) = run_vm(&mut vm, &args);
            assert_eq!(oracle, r, "fuel={fuel} specialize={specialize}\n{src}");
            assert_eq!(
                oracle_out, out,
                "fuel={fuel} specialize={specialize}\n{src}"
            );
        }
        match &oracle {
            Err(k) if k == "Hilti::ResourceExhausted" => exhausted += 1,
            Ok(_) => completed += 1,
            Err(other) => panic!("unexpected exception {other} at fuel={fuel}"),
        }
    }
    // The sweep must actually cross the boundary: small budgets exhaust,
    // large ones complete.
    assert!(exhausted > 0, "no budget was small enough to exhaust");
    assert!(completed > 0, "no budget was large enough to complete");
}

/// Exception handling differential: a trap raised inside `try` must be
/// caught by the handler — and reach the same handler — in all three
/// configurations, including when every operand feeding the trap is a
/// compile-time constant the optimizer could fold.
#[test]
fn try_catch_is_engine_and_optimizer_independent() {
    let src = r#"
module Fuzz

int<64> kernel(int<64> a, int<64> b) {
    local int<64> r
    local int<64> z
    r = assign 0
    try {
        z = int.sub b b
        r = int.div a z
        r = assign 99
    } catch ( ref<Hilti::ArithmeticError> e ) {
        r = assign -1
    }
    return r
}
"#;
    let args = [Value::Int(3), Value::Int(5)];
    let mut plain = Program::from_sources(&[src], OptLevel::None).unwrap();
    let mut opt = Program::from_sources(&[src], OptLevel::Full).unwrap();
    let oracle = outcome(plain.run_interpreted("Fuzz::kernel", &args));
    assert_eq!(oracle, Ok(-1));
    assert_eq!(oracle, outcome(plain.run("Fuzz::kernel", &args)));
    assert_eq!(oracle, outcome(opt.run("Fuzz::kernel", &args)));
}

/// Unmetered runs: the VM, specializer on and off, must agree with the
/// interpreter oracle on outcome (value or exception kind), printed
/// output *and* total fuel spent — specialization may only change
/// dispatch speed, never observable behaviour. Unoptimized IR
/// throughout, so fuel parity with the oracle is exact.
#[test]
fn engines_agree_on_total_fuel() {
    for case in 0..CASES / 2 {
        let rng = &mut Rng::for_case("engines_agree_on_total_fuel", case);
        let recipe = recipe(rng, 2, 10, loop_heavy_step);
        let src = emit(&recipe, &consts(rng), slot(rng));
        let args = [around_zero(rng, 1000), around_zero(rng, 1000)].map(Value::Int);

        let mut oracle_p = build(&src, OptLevel::None, true);
        let oracle = outcome(oracle_p.run_interpreted("Fuzz::kernel", &args));
        let oracle_out = oracle_p.take_output();
        let oracle_fuel = oracle_p.context().fuel_spent();

        for specialize in [true, false] {
            let mut p = build(&src, OptLevel::None, specialize);
            let (r, out) = run_vm(&mut p, &args);
            let at = format!("case {case}: spec={specialize}");
            assert_eq!(oracle, r, "{at} outcome diverged\n{src}");
            assert_eq!(oracle_out, out, "{at} printed differently\n{src}");
            let spent = p.context().fuel_spent();
            assert_eq!(oracle_fuel, spent, "{at} fuel diverged\n{src}");
        }
    }
}

/// A `Scalar` step two times in three, a `step` otherwise.
fn scalar_heavy_step(rng: &mut Rng) -> Step {
    match rng.below(3) {
        0 => step(rng),
        _ => scalar(rng),
    }
}

/// The typed rows of the other scalar kinds: the interpreter and the VM
/// with the specializer on and off agree on value or exception (kind and
/// message), printed output and fuel spent, over unoptimized IR. Across
/// the cases some kernels trap and some complete, and the specializer
/// runs a row of every kind typed.
#[test]
fn scalar_rows_agree_across_engines() {
    let (mut trapped, mut typed) = (0, std::collections::BTreeSet::new());
    for case in 0..CASES {
        let rng = &mut Rng::for_case("scalar_rows_agree_across_engines", case);
        let recipe = recipe(rng, 2, 14, scalar_heavy_step);
        let src = emit(&recipe, &consts(rng), slot(rng));
        let args = [around_zero(rng, 1000), around_zero(rng, 1000)].map(Value::Int);
        let observe = |specialize: bool, interp: bool| {
            let mut p = build(&src, OptLevel::None, specialize);
            let r = match interp {
                true => p.run_interpreted("Fuzz::kernel", &args),
                false => p.run("Fuzz::kernel", &args),
            };
            let r = r
                .map(|v| v.as_int().expect("kernel returns int<64>"))
                .map_err(|e| format!("{}: {}", e.kind.name(), e.message));
            (r, p.take_output(), p.context().fuel_spent())
        };
        let oracle = observe(true, true);
        trapped += usize::from(oracle.0.is_err());
        for specialize in [true, false] {
            let got = observe(specialize, false);
            assert_eq!(oracle, got, "case {case}: specialize={specialize}\n{src}");
        }
        let p = build(&src, OptLevel::None, true);
        let code = &p.compiled().func("Fuzz::kernel").unwrap().code;
        typed.extend(
            code.iter()
                .filter_map(|i| i.stat_name().strip_prefix("spec.")?.split('.').next()),
        );
    }
    assert!(0 < trapped && trapped < CASES as usize, "{trapped} trapped");
    let want = ["bytes", "double", "interval", "addr", "string", "time"];
    assert!(want.iter().all(|k| typed.contains(k)), "{typed:?}");
}
