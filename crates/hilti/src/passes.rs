//! IR optimization passes.
//!
//! §6.6 of the paper notes its prototype "lacks support for even the most
//! basic compiler optimizations, such as constant folding and common
//! subexpression elimination at the HILTI level". This module implements
//! those passes — constant folding, copy propagation, local CSE, dead-code
//! elimination, and jump threading — as the optimization stage between the
//! front end and bytecode lowering. Benchmark A1 measures their effect
//! (the ablation the paper could not run).
//!
//! No pass may change what a program prints or raises. What each one may
//! rewrite:
//!
//! - Constant folding replaces an instruction of a `fold` row whose
//!   operands are all constants by an `assign` of the result `ops::eval`
//!   computes. An evaluation that raises is left in place, so
//!   `int.div 1 0` still raises at run time.
//! - Copy propagation substitutes the source of an `assign` for later
//!   reads in the same block.
//! - CSE replaces a pure instruction that repeats an earlier one of the
//!   same block by a copy of the earlier result. If either would raise,
//!   the earlier one already did. An `Effect` instruction between the two
//!   ends the reuse: it may have written the heap value an operand names
//!   (`bytes.append b` between two `string.render b`).
//! - Dead-code elimination deletes an instruction whose result nothing
//!   reads only when running it cannot be observed: its row is `Total`, or
//!   `Typed` with every value operand statically inside the signature. A
//!   `Traps` row (`int.div`, `string.fmt`, ...) and a `Typed` one on `any`
//!   operands stay, so `-O1` raises wherever `-O0` does.
//! - Jump threading retargets jumps through empty blocks and drops blocks
//!   nothing reaches.
//!
//! What the passes know about an opcode comes from its row in the
//! `opcodes!` table ([`Opcode::class`], [`Opcode::folds`],
//! [`Opcode::signature`]); this module keeps no opcode list of its own.

use std::collections::{HashMap, HashSet};

use crate::bytecode::{const_value, CompiledProgram};
use crate::ir::{Const, Function, Instr, Kind, OpClass, Opcode, Operand, Terminator};
use crate::ops;
use crate::types::Type;
use crate::value::Value;
use crate::vm::Context;

/// Optimization level.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum OptLevel {
    /// No transformations (the paper's prototype).
    None,
    /// All passes, iterated to a fixed point.
    #[default]
    Full,
}

/// Statistics from one optimization run (observability + tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    pub constants_folded: usize,
    pub copies_propagated: usize,
    pub cse_hits: usize,
    pub dead_removed: usize,
    pub blocks_threaded: usize,
}

impl PassStats {
    pub fn total(&self) -> usize {
        self.constants_folded
            + self.copies_propagated
            + self.cse_hits
            + self.dead_removed
            + self.blocks_threaded
    }
}

/// Optimizes every function in a linked program.
pub fn optimize_linked(l: &mut crate::linker::Linked, level: OptLevel) -> PassStats {
    let mut stats = PassStats::default();
    if level == OptLevel::None {
        return stats;
    }
    // What constant folding evaluates against, built on first use: the
    // folded instructions never touch it, but `ops::eval` takes one.
    let mut scratch = None;
    for f in l.functions.values_mut() {
        merge(&mut stats, optimize_function(f, &l.globals, &mut scratch));
    }
    for bodies in l.hooks.values_mut() {
        for f in bodies {
            merge(&mut stats, optimize_function(f, &l.globals, &mut scratch));
        }
    }
    stats
}

fn merge(into: &mut PassStats, from: PassStats) {
    into.constants_folded += from.constants_folded;
    into.copies_propagated += from.copies_propagated;
    into.cse_hits += from.cse_hits;
    into.dead_removed += from.dead_removed;
    into.blocks_threaded += from.blocks_threaded;
}

/// Runs all passes on one function to a fixed point.
fn optimize_function(
    f: &mut Function,
    globals: &[(String, Type, Option<Const>)],
    scratch: &mut Option<Context>,
) -> PassStats {
    let mut stats = PassStats::default();
    // Fixed-point with a hard round cap: conservative passes converge in a
    // handful of rounds; the cap guards against any pass miscounting a
    // no-op rewrite as progress.
    for _ in 0..16 {
        let mut round = PassStats::default();
        round.copies_propagated += copy_propagate(f);
        round.constants_folded += const_fold(f, scratch);
        round.cse_hits += cse(f);
        round.dead_removed += dce(f, globals);
        round.blocks_threaded += jump_thread(f);
        let changed = round.total() > 0;
        merge(&mut stats, round);
        if !changed {
            break;
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// Constant folding

/// Replaces each foldable instruction whose operands are all constants by
/// an `assign` of its result, computed by `ops::eval` itself.
fn const_fold(f: &mut Function, scratch: &mut Option<Context>) -> usize {
    let mut folded = 0;
    for block in &mut f.blocks {
        for instr in &mut block.instrs {
            if instr.target.is_none() || !instr.opcode.folds() {
                continue;
            }
            if let Some(result) = evaluate(instr, scratch) {
                *instr = Instr {
                    target: instr.target.clone(),
                    opcode: Opcode::Assign,
                    args: vec![Operand::Const(result)],
                };
                folded += 1;
            }
        }
    }
    folded
}

/// `instr`'s result as a constant, or `None` when an operand is a
/// variable, evaluation raises (`int.div x 0` keeps its run-time trap), or
/// the result has no constant form.
fn evaluate(instr: &Instr, scratch: &mut Option<Context>) -> Option<Const> {
    // Every folding row takes one or two operands (a test in `ir` pins
    // it); an instruction with another count is left to raise at run time.
    let n = instr.args.len();
    if !(1..=2).contains(&n) || instr.args.iter().any(|a| matches!(a, Operand::Var(_))) {
        return None;
    }
    let mut values = [Value::Null, Value::Null];
    for (v, a) in values.iter_mut().zip(&instr.args) {
        if let Operand::Const(c) = a {
            *v = const_value(c).ok()?;
        }
    }
    let refs = [&values[0], &values[1]];
    let scratch = scratch.get_or_insert_with(|| Context::for_program(&CompiledProgram::default()));
    Some(
        match ops::eval(instr.opcode, &refs[..n], &[], &mut scratch.env).ok()? {
            Value::Int(i) => Const::Int(i),
            Value::Bool(b) => Const::Bool(b),
            Value::Double(d) => Const::Double(d),
            Value::String(s) => Const::Str(s.to_string()),
            _ => return None,
        },
    )
}

// ---------------------------------------------------------------------------
// Copy propagation (within block)

fn copy_propagate(f: &mut Function) -> usize {
    let mut propagated = 0;
    for block in &mut f.blocks {
        // var → replacement operand.
        let mut copies: HashMap<String, Operand> = HashMap::new();
        for instr in &mut block.instrs {
            // Substitute uses first (only counting real changes, so the
            // fixed-point loop sees convergence).
            for arg in &mut instr.args {
                if let Operand::Var(v) = arg {
                    if let Some(rep) = copies.get(v) {
                        if rep != arg {
                            *arg = rep.clone();
                            propagated += 1;
                        }
                    }
                }
            }
            // Writing to a target invalidates copies of and through it.
            if let Some(t) = &instr.target {
                copies.remove(t);
                copies.retain(|_, rep| !matches!(rep, Operand::Var(v) if v == t));
                if instr.opcode == Opcode::Assign {
                    // Record the new copy (safe only for pure value flow;
                    // heap values share state either way, so propagating
                    // the reference is still correct). Self-copies are not
                    // recorded — they would loop the substitution.
                    if let Some(arg) = instr.args.first() {
                        if !matches!(arg, Operand::Var(v) if v == t) {
                            copies.insert(t.clone(), arg.clone());
                        }
                    }
                }
            }
        }
        // Terminator uses.
        match &mut block.term {
            Terminator::IfElse(cond, _, _) => {
                if let Operand::Var(v) = cond {
                    if let Some(rep) = copies.get(v) {
                        if rep != cond {
                            *cond = rep.clone();
                            propagated += 1;
                        }
                    }
                }
            }
            Terminator::Return(Some(v)) => {
                if let Operand::Var(name) = v {
                    if let Some(rep) = copies.get(name) {
                        if rep != v {
                            *v = rep.clone();
                            propagated += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    propagated
}

// ---------------------------------------------------------------------------
// Common subexpression elimination (within block)

fn cse(f: &mut Function) -> usize {
    let mut hits = 0;
    for block in &mut f.blocks {
        // (opcode, rendered args) → earlier target.
        let mut seen: HashMap<String, String> = HashMap::new();
        for instr in &mut block.instrs {
            let mut record: Option<(String, String)> = None;
            if instr.opcode.is_pure() && instr.opcode != Opcode::Assign && instr.target.is_some() {
                let key = format!("{:?}|{:?}", instr.opcode, instr.args);
                if let Some(prev) = seen.get(&key) {
                    // Re-use the earlier result.
                    let prev = prev.clone();
                    *instr = Instr {
                        target: instr.target.clone(),
                        opcode: Opcode::Assign,
                        args: vec![Operand::Var(prev)],
                    };
                    hits += 1;
                } else if let Some(t) = &instr.target {
                    // Never record an expression that reads its own target
                    // (`it = iterator.incr it 1`): the operand names the
                    // pre-write value, so the key goes stale immediately.
                    let self_ref = instr
                        .args
                        .iter()
                        .any(|a| matches!(a, Operand::Var(v) if v == t));
                    if !self_ref {
                        record = Some((key, t.clone()));
                    }
                }
            }
            // An effect can write the heap an operand refers to (`bytes.append
            // b`), so nothing computed before it is known to hold after it.
            if instr.opcode.class() == OpClass::Effect {
                seen.clear();
            }
            // Any write invalidates expressions that used or produced the
            // target — *before* recording the expression computed here.
            if let Some(t) = &instr.target {
                let t = t.clone();
                seen.retain(|key, v| v != &t && !key.contains(&format!("Var(\"{t}\")")));
            }
            if let Some((key, t)) = record {
                seen.insert(key, t);
            }
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// Dead code elimination

/// Deletes each instruction whose result nothing reads and that
/// [`cannot_raise`].
fn dce(f: &mut Function, globals: &[(String, Type, Option<Const>)]) -> usize {
    // Every variable read anywhere in the function.
    let mut used: HashSet<&str> = HashSet::new();
    for block in &f.blocks {
        for instr in &block.instrs {
            for arg in &instr.args {
                if let Operand::Var(v) = arg {
                    used.insert(v);
                }
            }
        }
        match &block.term {
            Terminator::IfElse(Operand::Var(v), _, _)
            | Terminator::Return(Some(Operand::Var(v))) => {
                used.insert(v);
            }
            _ => {}
        }
    }
    let var_types = f.var_types(globals);
    let keep: Vec<bool> = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .map(|instr| {
            let dead = instr.target.as_ref().is_some_and(|t| {
                // Globals (qualified names) are observable state.
                !t.contains("::") && !used.contains(t.as_str())
            });
            !(dead && cannot_raise(instr, &var_types))
        })
        .collect();

    let mut keep = keep.into_iter();
    let mut removed = 0;
    for block in &mut f.blocks {
        let before = block.instrs.len();
        block.instrs.retain(|_| keep.next().unwrap_or(true));
        removed += before - block.instrs.len();
    }
    removed
}

/// True when executing `instr` can neither raise nor touch state, judged
/// from its row and the static types of its operands.
fn cannot_raise(instr: &Instr, var_types: &HashMap<&str, Type>) -> bool {
    match instr.opcode.class() {
        OpClass::Total => true,
        OpClass::Typed => {
            let Some((params, _)) = instr.opcode.signature() else {
                return false;
            };
            instr.value_operands().count() == params.len()
                && instr.value_operands().zip(params).all(|(op, want)| {
                    *want == Kind::Any || op.static_type(var_types).is_some_and(|t| want.admits(&t))
                })
        }
        OpClass::Traps | OpClass::Effect => false,
    }
}

// ---------------------------------------------------------------------------
// Jump threading / unreachable block removal

fn jump_thread(f: &mut Function) -> usize {
    let mut changed = 0;

    // Map label → final destination through chains of empty jump blocks.
    let mut forward: HashMap<String, String> = HashMap::new();
    for b in &f.blocks {
        if b.instrs.is_empty() {
            if let Terminator::Jump(dst) = &b.term {
                if *dst != b.label {
                    forward.insert(b.label.clone(), dst.clone());
                }
            }
        }
    }
    let resolve = |label: &str, forward: &HashMap<String, String>| -> String {
        let mut cur = label.to_owned();
        let mut hops = 0;
        while let Some(next) = forward.get(&cur) {
            cur = next.clone();
            hops += 1;
            if hops > forward.len() {
                break; // cycle guard
            }
        }
        cur
    };
    for b in &mut f.blocks {
        match &mut b.term {
            Terminator::Jump(l) => {
                let r = resolve(l, &forward);
                if r != *l {
                    *l = r;
                    changed += 1;
                }
            }
            Terminator::IfElse(_, l1, l2) => {
                for l in [l1, l2] {
                    let r = resolve(l, &forward);
                    if r != *l {
                        *l = r;
                        changed += 1;
                    }
                }
            }
            _ => {}
        }
    }

    // Remove unreachable blocks (entry block + referenced labels survive).
    let mut reachable: HashSet<String> = HashSet::new();
    let mut stack = vec![f.blocks[0].label.clone()];
    // Handler labels referenced from push_handler instructions are live.
    for b in &f.blocks {
        for i in &b.instrs {
            if i.opcode == Opcode::PushHandler {
                if let Some(Operand::Const(Const::Label(l))) = i.args.first() {
                    stack.push(l.clone());
                }
            }
        }
    }
    while let Some(l) = stack.pop() {
        if !reachable.insert(l.clone()) {
            continue;
        }
        if let Some(b) = f.blocks.iter().find(|b| b.label == l) {
            match &b.term {
                Terminator::Jump(d) => stack.push(d.clone()),
                Terminator::IfElse(_, d1, d2) => {
                    stack.push(d1.clone());
                    stack.push(d2.clone());
                }
                Terminator::Return(_) => {}
            }
        }
    }
    let before = f.blocks.len();
    f.blocks.retain(|b| reachable.contains(&b.label));
    changed + (before - f.blocks.len())
}

/// §3.3: "The HILTI compiler can also insert instrumentation to profile at
/// function granularity." Wraps every function body in
/// `profiler.start`/`profiler.stop` spans named after the function;
/// accumulated (inclusive — callees are counted in their callers) times
/// are readable via `Context::profile_ns("fn:<name>")`.
pub fn instrument_functions(l: &mut crate::linker::Linked) -> usize {
    let mut instrumented = 0;
    let mut fix = |f: &mut Function| {
        let span = format!("fn:{}", f.name);
        if let Some(entry) = f.blocks.first_mut() {
            entry.instrs.insert(
                0,
                Instr::new(None, Opcode::ProfilerStart, vec![Operand::ident(&span)]),
            );
        }
        for b in &mut f.blocks {
            if matches!(b.term, Terminator::Return(_)) {
                b.instrs.push(Instr::new(
                    None,
                    Opcode::ProfilerStop,
                    vec![Operand::ident(&span)],
                ));
            }
        }
        instrumented += 1;
    };
    for f in l.functions.values_mut() {
        fix(f);
    }
    for bodies in l.hooks.values_mut() {
        for f in bodies {
            fix(f);
        }
    }
    instrumented
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn optimized(src: &str, fname: &str) -> (Function, PassStats) {
        let m = parse_module(src).unwrap();
        let mut linked = link_with_priorities(vec![m]).unwrap();
        let stats = optimize_linked(&mut linked, OptLevel::Full);
        (linked.function(fname).unwrap().clone(), stats)
    }

    #[test]
    fn folds_constant_arithmetic() {
        let (f, stats) = optimized(
            r#"
module M
int<64> f() {
    local int<64> x
    x = int.add 2 3
    x = int.mul x 10
    return x
}
"#,
            "M::f",
        );
        assert!(stats.constants_folded >= 2, "{stats:?}");
        // Everything folds down to `return 50`.
        match &f.blocks[0].term {
            Terminator::Return(Some(Operand::Const(Const::Int(50)))) => {}
            other => panic!("expected folded return, got {other:?}"),
        }
    }

    #[test]
    fn folds_division_but_not_by_zero() {
        let (_, stats) = optimized(
            "module M\nint<64> f() {\n  local int<64> x\n  x = int.div 10 2\n  return x\n}\n",
            "M::f",
        );
        assert!(stats.constants_folded >= 1);
        let (f, _) = optimized(
            "module M\nint<64> f() {\n  local int<64> x\n  x = int.div 10 0\n  return x\n}\n",
            "M::f",
        );
        // Division by zero stays for the runtime exception.
        assert!(f.blocks[0]
            .instrs
            .iter()
            .any(|i| i.opcode == Opcode::IntDiv));
    }

    #[test]
    fn cse_forgets_results_across_an_effect() {
        // `bytes.append` writes the bytes `b` names without a target, so
        // the pure reads after it must run again.
        let (f, stats) = optimized(
            r#"
module M
string f(ref<bytes> b) {
    local string r1
    local string r2
    local bool e1
    local bool e2
    r1 = string.render b
    e1 = equal b "1"
    bytes.append b b"2"
    r2 = string.render b
    e2 = equal b "1"
    r1 = string.fmt "{} {} {} {}" r1 e1 r2 e2
    return r1
}
"#,
            "M::f",
        );
        assert_eq!(stats.cse_hits, 0, "{stats:?}");
        let renders = f.blocks[0]
            .instrs
            .iter()
            .filter(|i| matches!(i.opcode, Opcode::StringRender | Opcode::Equal))
            .count();
        assert_eq!(renders, 4, "{:#?}", f.blocks[0].instrs);
    }

    #[test]
    fn cse_reuses_duplicate_expressions() {
        let (f, stats) = optimized(
            r#"
module M
int<64> f(int<64> a, int<64> b) {
    local int<64> x
    local int<64> y
    local int<64> z
    x = int.add a b
    y = int.add a b
    z = int.add x y
    return z
}
"#,
            "M::f",
        );
        assert!(stats.cse_hits >= 1, "{stats:?}");
        let adds = f.blocks[0]
            .instrs
            .iter()
            .filter(|i| i.opcode == Opcode::IntAdd)
            .count();
        assert!(
            adds <= 2,
            "expected duplicate add removed: {:?}",
            f.blocks[0].instrs
        );
    }

    #[test]
    fn cse_respects_redefinition() {
        let (f, _) = optimized(
            r#"
module M
int<64> f(int<64> a) {
    local int<64> x
    local int<64> y
    x = int.add a 1
    a = int.add a 1
    y = int.add a 1
    return y
}
"#,
            "M::f",
        );
        // `y = int.add a 1` must NOT be replaced with x: `a` changed.
        let adds = f.blocks[0]
            .instrs
            .iter()
            .filter(|i| i.opcode == Opcode::IntAdd)
            .count();
        assert!(adds >= 2, "{:?}", f.blocks[0].instrs);
    }

    #[test]
    fn dce_removes_unused_results() {
        let (f, stats) = optimized(
            r#"
module M
int<64> f(int<64> a) {
    local int<64> unused
    unused = int.mul a 100
    return a
}
"#,
            "M::f",
        );
        assert!(stats.dead_removed >= 1, "{stats:?}");
        assert!(f.blocks[0].instrs.is_empty());
    }

    #[test]
    fn dce_keeps_dead_instructions_that_can_raise() {
        let (f, stats) = optimized(
            r#"
module M
int<64> f(any x, int<64> a) {
    local string s
    local int<64> n
    local int<64> m
    s = string.fmt "{} {}" a
    n = int.add x 1
    m = int.add a 1
    return a
}
"#,
            "M::f",
        );
        // `string.fmt` traps and `x` may hold a non-int; `m` is typed.
        let ops: Vec<Opcode> = f.blocks[0].instrs.iter().map(|i| i.opcode).collect();
        assert_eq!(ops, [Opcode::StringFmt, Opcode::IntAdd], "{stats:?}");
        assert_eq!(f.blocks[0].instrs[1].target.as_deref(), Some("n"));
    }

    #[test]
    fn dce_keeps_side_effects() {
        let (f, _) = optimized(
            r#"
module M
void f(ref<list<int<64>>> l) {
    list.push_back l 1
}
"#,
            "M::f",
        );
        assert_eq!(f.blocks[0].instrs.len(), 1);
    }

    #[test]
    fn jump_threading_collapses_chains() {
        let (f, stats) = optimized(
            r#"
module M
int<64> f(bool b) {
    if.else b a1 a2
a1:
    jump middle
middle:
    jump target
target:
    return 1
a2:
    return 2
}
"#,
            "M::f",
        );
        assert!(stats.blocks_threaded >= 1, "{stats:?}");
        // The if now branches (transitively) straight to target.
        match &f.blocks[0].term {
            Terminator::IfElse(_, l1, _) => assert_eq!(l1, "target"),
            other => panic!("unexpected {other:?}"),
        }
        // Intermediate empty blocks were dropped.
        assert!(f.block("a1").is_none());
        assert!(f.block("middle").is_none());
    }

    #[test]
    fn copy_propagation_feeds_folding() {
        let (f, stats) = optimized(
            r#"
module M
int<64> f() {
    local int<64> a
    local int<64> b
    a = assign 5
    b = assign a
    b = int.add b 2
    return b
}
"#,
            "M::f",
        );
        assert!(stats.copies_propagated >= 1, "{stats:?}");
        assert!(stats.constants_folded >= 1, "{stats:?}");
        match &f.blocks[0].term {
            Terminator::Return(Some(Operand::Const(Const::Int(7)))) => {}
            other => panic!("expected folded return, got {other:?}"),
        }
    }

    #[test]
    fn globals_survive_dce() {
        let m = parse_module(
            r#"
module M
global int<64> g = 0
void f() {
    g = int.add g 1
}
"#,
        )
        .unwrap();
        let mut linked = link_with_priorities(vec![m]).unwrap();
        let stats = optimize_linked(&mut linked, OptLevel::Full);
        let f = linked.function("M::f").unwrap();
        assert_eq!(f.blocks[0].instrs.len(), 1, "{stats:?}");
    }

    #[test]
    fn optlevel_none_is_identity() {
        let m = parse_module(
            "module M\nint<64> f() {\n  local int<64> x\n  x = int.add 1 2\n  return x\n}\n",
        )
        .unwrap();
        let mut linked = link_with_priorities(vec![m]).unwrap();
        let orig = linked.clone();
        let stats = optimize_linked(&mut linked, OptLevel::None);
        assert_eq!(stats.total(), 0);
        assert_eq!(
            format!("{:?}", linked.function("M::f")),
            format!("{:?}", orig.function("M::f"))
        );
    }
}
