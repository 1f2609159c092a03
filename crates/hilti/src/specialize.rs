//! Bytecode specialization: the typed instructions of the compiled engine.
//!
//! This pass rewrites generic [`CInstr::Op`] instructions into direct,
//! typed variants when operand types are statically known from the checked
//! IR (carried through lowering as [`CFunc::slot_types`]). The specialized
//! variants execute inline in the VM dispatch loop on `frame.slots` — no
//! operand gathering, no tag checks beyond the one guard, no trip through
//! the `ops::eval` megamatch — which is where the bulk of the
//! per-instruction cost of hot integer/branch code goes (cf. Deegen-style
//! typed interpreter opcodes; §6.5's compiled-vs-interpreted gap is the
//! same story one level down).
//!
//! The pass runs in two phases over each function:
//!
//! 1. **Per-instruction rewrites.** An integer op with an [`IntArith`]
//!    form (`int.add` … `int.shr`) or an [`IntCmp`] form (`int.eq` …
//!    `int.geq`) whose two operands are provably `int<n>` slots or integer
//!    immediates becomes `ArithInt` / `CmpInt`, carrying that op;
//!    `assign` into a local becomes `MoveSlot`/`LoadImm`; a branch on a
//!    statically bool slot becomes `BrBool`. On a slot declared
//!    `iterator<bytes>`, `iterator.deref` becomes `IterDeref` and
//!    `iterator.incr` by an int slot or immediate becomes `IterIncr` — the
//!    per-byte steps of every generated parser, which then advance the
//!    slot's iterator in place instead of cloning a new one.
//! 2. **Superinstruction fusion.** A `CmpInt` immediately followed by a
//!    branch on its result fuses into `BrIfInt` — the dominant
//!    `cmp`+`br_if` pair of loop headers collapses to one dispatch. The
//!    fused instruction still writes the bool flag slot and the original
//!    branch stays at its pc (it remains reachable through explicit jump
//!    labels), so no liveness or CFG analysis is needed.
//! 3. **Token fusion.** `t = regexp.match_token re it` followed by
//!    `id = tuple.get t 0` and `end = tuple.get t 1` — what
//!    `binpac::codegen` emits for every token match — becomes
//!    `MatchToken` when `re` is a `regexp` slot, `it` and `end` are
//!    `iterator<bytes>` slots and `id` is an `int<64>` slot. It writes
//!    `id` and `end` without building the tuple and continues at pc+3, so
//!    it needs two facts about the whole function: `t` is read nowhere
//!    else (the fast loop never writes it), and no jump lands on pc+1 or
//!    pc+2. The two reads stay there: when the VM observes, blocks or runs
//!    low on fuel it runs the match alone into `t` and then those reads,
//!    so trace, fuel and profile are the unfused sequence's.
//!
//! The pass states no semantics of its own. `IntArith::apply` /
//! `IntCmp::apply` / `iter_incr_operands` / `iter_deref` / `match_token`
//! in `crate::ops` are the one statement of each op: the generic
//! `ops::eval` arm and the VM's typed step both call them. A new typed
//! integer op is one row in the `int_ops!` table there, plus its `spec.*`
//! bucket in `CInstr::stat_name`.
//!
//! Type guards are deliberately conservative: anything touching a global,
//! an `any`-typed slot, or a `GlobalStore` wrapper keeps the generic path,
//! so exception, fiber and global-visibility semantics stay in one place.
//! Specialized instructions still *check* operand values at run time
//! (locals start as `Null`), raising the same catchable `TypeError` the
//! generic path would.
//!
//! The pass is switched by `BuildOptions::specialize` (default on) so its
//! effect can be measured: `repro fib` prints the on/off pair as its
//! "dispatch tier" line.

use crate::bytecode::{CFunc, CInstr, COperand, CompiledProgram, IntSrc};
use crate::ir::Opcode;
use crate::ops::{IntArith, IntCmp};
use crate::types::Type;
use crate::value::Value;

/// What the pass did, for build reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Generic int arithmetic/bitwise ops replaced by typed variants.
    pub arith: usize,
    /// Integer comparisons replaced by `CmpInt`.
    pub cmps: usize,
    /// `assign` instructions replaced by `MoveSlot`/`LoadImm`.
    pub moves: usize,
    /// Branches on statically bool slots replaced by `BrBool`.
    pub branches: usize,
    /// Compare-and-branch pairs fused into `BrIfInt`.
    pub fused: usize,
    /// `iterator.incr` / `iterator.deref` replaced by `IterIncr` /
    /// `IterDeref`.
    pub iters: usize,
    /// Token matches and their two tuple reads fused into `MatchToken`.
    pub tokens: usize,
}

impl SpecStats {
    pub fn total(&self) -> usize {
        self.arith + self.cmps + self.moves + self.branches + self.fused + self.iters + self.tokens
    }
}

/// Rewrites every function of `prog` in place.
pub fn specialize_program(prog: &mut CompiledProgram) -> SpecStats {
    let mut stats = SpecStats::default();
    for f in &mut prog.funcs {
        specialize_func(f, &mut stats);
    }
    stats
}

fn specialize_func(cf: &mut CFunc, stats: &mut SpecStats) {
    let slot_types = &cf.slot_types;
    let declared = |s: u16| slot_types.get(s as usize);
    let is_bool = |s: u16| matches!(declared(s), Some(Type::Bool));
    let iter_slot = |op: &COperand| match op {
        COperand::Slot(s) if matches!(declared(*s), Some(Type::BytesIter)) => Some(*s),
        _ => None,
    };

    // An operand usable by a typed int instruction: a slot statically
    // declared int, or an integer constant. Globals (shared, any write
    // path) and untyped slots stay generic.
    let int_src = |op: &COperand| -> Option<IntSrc> {
        match op {
            COperand::Slot(s) if matches!(declared(*s), Some(Type::Int(_))) => {
                Some(IntSrc::Slot(*s))
            }
            COperand::Value(Value::Int(i)) => Some(IntSrc::Imm(*i)),
            _ => None,
        }
    };

    // Phase 1: per-instruction rewrites.
    for instr in &mut cf.code {
        let replacement = match instr {
            CInstr::Op {
                opcode,
                target: Some(dst),
                args,
                ..
            } => {
                let dst = *dst;
                let ints = match &**args {
                    [a, b] => int_src(a).zip(int_src(b)),
                    _ => None,
                };
                if let (Some(op), Some((a, b))) = (IntArith::from_opcode(*opcode), ints) {
                    stats.arith += 1;
                    Some(CInstr::ArithInt { op, dst, a, b })
                } else if let (Some(cmp), Some((a, b))) = (IntCmp::from_opcode(*opcode), ints) {
                    stats.cmps += 1;
                    Some(CInstr::CmpInt { cmp, dst, a, b })
                } else {
                    // `assign` needs no type guard: it copies any value,
                    // exactly like the generic path.
                    match (*opcode, &**args) {
                        (Opcode::Assign, [COperand::Slot(src)]) => {
                            stats.moves += 1;
                            Some(CInstr::MoveSlot { dst, src: *src })
                        }
                        (Opcode::Assign, [COperand::Value(v)]) => {
                            stats.moves += 1;
                            Some(CInstr::LoadImm { dst, v: v.clone() })
                        }
                        (Opcode::IterIncr, [it, n]) => {
                            iter_slot(it).zip(int_src(n)).map(|(src, n)| {
                                stats.iters += 1;
                                CInstr::IterIncr { dst, src, n }
                            })
                        }
                        (Opcode::IterDeref, [it]) => iter_slot(it).map(|src| {
                            stats.iters += 1;
                            CInstr::IterDeref { dst, src }
                        }),
                        _ => None,
                    }
                }
            }
            CInstr::Branch {
                cond: COperand::Slot(s),
                then_pc,
                else_pc,
            } if is_bool(*s) => {
                stats.branches += 1;
                Some(CInstr::BrBool {
                    cond: *s,
                    then_pc: *then_pc,
                    else_pc: *else_pc,
                })
            }
            _ => None,
        };
        if let Some(r) = replacement {
            *instr = r;
        }
    }

    // Phase 2: fuse compare-and-branch superinstructions. The branch that
    // consumes the freshly computed flag directly follows the comparison
    // (lowering emits blocks linearly); only the comparison is replaced,
    // the branch itself stays put for explicit jump targets.
    for i in 0..cf.code.len().saturating_sub(1) {
        let CInstr::CmpInt { cmp, dst, a, b } = cf.code[i] else {
            continue;
        };
        let (then_pc, else_pc) = match cf.code[i + 1] {
            CInstr::BrBool {
                cond,
                then_pc,
                else_pc,
            } if cond == dst => (then_pc, else_pc),
            CInstr::Branch {
                cond: COperand::Slot(s),
                then_pc,
                else_pc,
            } if s == dst => (then_pc, else_pc),
            _ => continue,
        };
        cf.code[i] = CInstr::BrIfInt {
            cmp,
            a,
            b,
            dst,
            then_pc,
            else_pc,
        };
        stats.fused += 1;
    }

    // Phase 3: fuse token matches. `t = regexp.match_token re it` whose
    // tuple the next two instructions unpack into typed slots becomes one
    // `MatchToken` writing both slots. Only the match is replaced; it
    // continues at pc+3, so the fusion needs `t` dead everywhere else and
    // no jump landing on the two reads it skips — two facts about the
    // whole function, gathered in one pass once it has a candidate.
    let candidates: Vec<(usize, u16, CInstr)> = cf
        .code
        .windows(3)
        .enumerate()
        .filter_map(|(i, w)| token_window(w, &declared).map(|(t, fused)| (i, t, fused)))
        .collect();
    if candidates.is_empty() {
        return;
    }
    let mut reads = vec![0u32; cf.slot_types.len()];
    let mut landed = vec![false; cf.code.len()];
    for instr in &cf.code {
        for_each_read(instr, &mut |s| reads[s as usize] += 1);
        for_each_target(instr, &mut |pc| {
            if let Some(l) = landed.get_mut(pc as usize) {
                *l = true;
            }
        });
    }
    for (i, t, fused) in candidates {
        // The window's two reads are the only reads of `t`.
        if reads[t as usize] == 2 && !landed[i + 1] && !landed[i + 2] {
            cf.code[i] = fused;
            stats.tokens += 1;
        }
    }
}

/// The `MatchToken` (and its tuple slot) for a window of three
/// instructions holding a token match and the two typed reads of its
/// tuple, if the slot types allow it.
fn token_window<'a>(
    w: &[CInstr],
    declared: &impl Fn(u16) -> Option<&'a Type>,
) -> Option<(u16, CInstr)> {
    let [CInstr::Op {
        opcode: Opcode::RegexpMatchToken,
        target: Some(t),
        args: matched,
        ..
    }, CInstr::Op {
        opcode: Opcode::TupleGet,
        target: Some(id),
        args: get_id,
        ..
    }, CInstr::Op {
        opcode: Opcode::TupleGet,
        target: Some(end),
        args: get_end,
        ..
    }] = w
    else {
        return None;
    };
    let (
        [COperand::Slot(re), COperand::Slot(it)],
        [COperand::Slot(t0), COperand::Value(Value::Int(0))],
        [COperand::Slot(t1), COperand::Value(Value::Int(1))],
    ) = (&**matched, &**get_id, &**get_end)
    else {
        return None;
    };
    let typed = matches!(declared(*re), Some(Type::Regexp))
        && matches!(declared(*it), Some(Type::BytesIter))
        && matches!(declared(*end), Some(Type::BytesIter))
        && matches!(declared(*id), Some(Type::Int(64)));
    (typed && t0 == t && t1 == t && t != id && t != end).then(|| {
        let fused = CInstr::MatchToken {
            re: *re,
            it: *it,
            t: *t,
            id: *id,
            end: *end,
        };
        (*t, fused)
    })
}

/// Calls `f` with each frame slot `instr` reads, once per operand.
fn for_each_read(instr: &CInstr, f: &mut impl FnMut(u16)) {
    let mut op = |o: &COperand| {
        if let COperand::Slot(s) = o {
            f(*s)
        }
    };
    match instr {
        CInstr::Op { args, .. }
        | CInstr::Call { args, .. }
        | CInstr::CallHost { args, .. }
        | CInstr::RunHook { args, .. }
        | CInstr::New { args, .. } => args.iter().for_each(op),
        CInstr::CallCallable { callable, args, .. } => {
            op(callable);
            args.iter().for_each(op);
        }
        CInstr::Branch { cond, .. } => op(cond),
        CInstr::Return(v) => v.iter().for_each(op),
        CInstr::GlobalStore { inner, .. } => for_each_read(inner, f),
        CInstr::StructGet { obj, .. } => op(obj),
        CInstr::StructSet { obj, value, .. } => {
            op(obj);
            op(value);
        }
        CInstr::ArithInt { a, b, .. }
        | CInstr::CmpInt { a, b, .. }
        | CInstr::BrIfInt { a, b, .. } => {
            for src in [a, b] {
                if let IntSrc::Slot(s) = src {
                    f(*s)
                }
            }
        }
        CInstr::MoveSlot { src, .. } | CInstr::IterDeref { src, .. } => f(*src),
        CInstr::IterIncr { src, n, .. } => {
            f(*src);
            if let IntSrc::Slot(s) = n {
                f(*s)
            }
        }
        CInstr::BrBool { cond, .. } => f(*cond),
        CInstr::MatchToken { re, it, .. } => {
            f(*re);
            f(*it);
        }
        CInstr::LoadImm { .. }
        | CInstr::Jump(_)
        | CInstr::PushHandler { .. }
        | CInstr::PopHandler
        | CInstr::Yield => {}
    }
}

/// Calls `f` with each pc `instr` can transfer control to other than by
/// falling through: a jump, a branch arm or an exception handler.
fn for_each_target(instr: &CInstr, f: &mut impl FnMut(u32)) {
    match instr {
        CInstr::Jump(pc) | CInstr::PushHandler { pc, .. } => f(*pc),
        CInstr::Branch {
            then_pc, else_pc, ..
        }
        | CInstr::BrBool {
            then_pc, else_pc, ..
        }
        | CInstr::BrIfInt {
            then_pc, else_pc, ..
        } => {
            f(*then_pc);
            f(*else_pc);
        }
        CInstr::GlobalStore { inner, .. } => for_each_target(inner, f),
        CInstr::Op { .. }
        | CInstr::Call { .. }
        | CInstr::CallHost { .. }
        | CInstr::RunHook { .. }
        | CInstr::CallCallable { .. }
        | CInstr::New { .. }
        | CInstr::Return(_)
        | CInstr::PopHandler
        | CInstr::Yield
        | CInstr::ArithInt { .. }
        | CInstr::CmpInt { .. }
        | CInstr::MoveSlot { .. }
        | CInstr::LoadImm { .. }
        | CInstr::IterIncr { .. }
        | CInstr::IterDeref { .. }
        | CInstr::MatchToken { .. }
        | CInstr::StructGet { .. }
        | CInstr::StructSet { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn specialized(src: &str) -> (CompiledProgram, SpecStats) {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        let mut prog = crate::bytecode::compile(&linked).unwrap();
        let stats = specialize_program(&mut prog);
        (prog, stats)
    }

    const LOOP: &str = r#"
module M
int<64> sum(int<64> n) {
    local int<64> i
    local int<64> acc
    local bool more
    i = assign 0
    acc = assign 0
loop:
    acc = int.add acc i
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return acc
}
"#;

    #[test]
    fn int_loop_specializes_and_fuses() {
        let (prog, stats) = specialized(LOOP);
        let f = prog.func("M::sum").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::ArithInt {
                    op: IntArith::Add,
                    ..
                }
            )),
            "{:#?}",
            f.code
        );
        assert!(
            f.code.iter().any(|i| matches!(i, CInstr::BrIfInt { .. })),
            "cmp+branch must fuse: {:#?}",
            f.code
        );
        assert!(
            f.code.iter().any(|i| matches!(i, CInstr::LoadImm { .. })),
            "{:#?}",
            f.code
        );
        assert!(stats.arith >= 2 && stats.fused >= 1, "{stats:?}");
    }

    #[test]
    fn fused_branch_keeps_original_at_next_pc() {
        // The pc after a BrIfInt still holds the branch, so explicit jumps
        // to it keep working.
        let (prog, _) = specialized(LOOP);
        let f = prog.func("M::sum").unwrap();
        let i = f
            .code
            .iter()
            .position(|i| matches!(i, CInstr::BrIfInt { .. }))
            .unwrap();
        assert!(
            matches!(f.code[i + 1], CInstr::Branch { .. } | CInstr::BrBool { .. }),
            "{:?}",
            f.code[i + 1]
        );
    }

    #[test]
    fn untyped_slots_stay_generic() {
        let (prog, stats) = specialized(
            r#"
module M
int<64> f(any x) {
    local int<64> y
    y = int.add x 1
    return y
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::Op {
                    opcode: Opcode::IntAdd,
                    ..
                }
            )),
            "any-typed operand must not specialize: {:#?}",
            f.code
        );
        assert_eq!(stats.arith, 0);
    }

    #[test]
    fn global_operands_and_targets_stay_generic() {
        let (prog, _) = specialized(
            r#"
module M
global int<64> g = 0
void f() {
    g = int.add g 1
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        // Global target: still the GlobalStore-wrapped generic op.
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::GlobalStore { inner, .. }
                    if matches!(&**inner, CInstr::Op { opcode: Opcode::IntAdd, .. })
            )),
            "{:#?}",
            f.code
        );
    }

    #[test]
    fn immediates_become_imm_operands() {
        let (prog, _) = specialized(
            r#"
module M
int<64> f(int<64> a) {
    local int<64> x
    x = int.add a 7
    return x
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::ArithInt {
                    op: IntArith::Add,
                    b: IntSrc::Imm(7),
                    ..
                }
            )),
            "{:#?}",
            f.code
        );
    }

    #[test]
    fn iterator_sites_specialize_on_declared_iterators_only() {
        let src = r#"
module M
int<64> f(ref<bytes> data, any loose, int<64> k) {
    local iterator<bytes> it
    local iterator<bytes> end
    local int<64> b
    local any c
    it = bytes.begin data
    b = iterator.deref it
    it = iterator.incr it 1
    end = iterator.incr it k
    c = iterator.deref loose
    c = iterator.incr loose 1
    return b
}
"#;
        let (prog, stats) = specialized(src);
        let f = prog.func("M::f").unwrap();
        let typed: Vec<String> = f
            .code
            .iter()
            .filter(|i| i.stat_name().starts_with("spec.iter."))
            .map(CInstr::render)
            .collect();
        assert_eq!(
            typed,
            [
                "s5 = iterator.deref s3",
                "s3 = iterator.incr s3 1",
                "s4 = iterator.incr s3 s2",
            ],
            "{:#?}",
            f.code
        );
        assert_eq!(stats.iters, 3);
        // The `any` operand keeps both generic ops.
        let generic = f
            .code
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    CInstr::Op {
                        opcode: Opcode::IterIncr | Opcode::IterDeref,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(generic, 2, "{:#?}", f.code);
    }

    #[test]
    fn specialized_render_matches_generic() {
        // Trace parity: the specialized instruction renders exactly like
        // the generic one it replaced.
        let src = format!(
            "{LOOP}\nint<64> walk(ref<bytes> d, int<64> n) {{\n    local iterator<bytes> it\n    \
             local int<64> b\n    it = bytes.begin d\n    b = iterator.deref it\n    \
             it = iterator.incr it n\n    it = iterator.incr it -2\n    return b\n}}\n{}",
            TOKENS.trim_start_matches("\nmodule M\n")
        );
        let m = parse_module(&src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        let plain = crate::bytecode::compile(&linked).unwrap();
        let mut spec = plain.clone();
        let stats = specialize_program(&mut spec);
        assert_eq!((stats.iters, stats.tokens), (4, 2), "{stats:?}");
        for name in ["M::sum", "M::walk", "M::token", "M::until"] {
            let pf = &plain.func(name).unwrap().code;
            let sf = &spec.func(name).unwrap().code;
            for (pc, s) in sf.iter().enumerate() {
                let text = s.render();
                match s {
                    CInstr::BrIfInt { .. } => {
                        // Fused: renders as "cmp ; branch"; the VM traces
                        // it as the two original lines.
                        let (cmp_part, br_part) = text.split_once(" ; ").unwrap();
                        assert_eq!(pf[pc].render(), cmp_part);
                        assert!(br_part.starts_with("if s"), "{br_part}");
                    }
                    _ => assert_eq!(pf[pc].render(), text),
                }
            }
        }
    }

    /// The two shapes `binpac::codegen` emits for a token match: a token
    /// field, and the terminator test of an until-token list loop, whose
    /// back edge lands on the match itself.
    const TOKENS: &str = r#"
module M
iterator<bytes> token(iterator<bytes> it) {
    local regexp re
    re = regexp.new /POST/ /[A-Z]+/
    local any tr
    local int<64> tid
    local iterator<bytes> nit
    tr = regexp.match_token re it
    tid = tuple.get tr 0
    nit = tuple.get tr 1
    local bool ok
    ok = int.geq tid 0
    if.else ok tok_ok tok_fail
tok_fail:
    exception.throw Hilti::ValueError "token mismatch"
tok_ok:
    it = assign nit
    return it
}
iterator<bytes> until(iterator<bytes> it) {
    local regexp re
    local any tr
    local int<64> tid
    local iterator<bytes> tend
    local bool m
    re = regexp.new /\r?\n/
loop:
    tr = regexp.match_token re it
    tid = tuple.get tr 0
    tend = tuple.get tr 1
    m = int.geq tid 0
    if.else m done item
item:
    it = iterator.incr it 1
    jump loop
done:
    it = assign tend
    return it
}
"#;

    /// Lowers `src` without specializing it.
    fn lowered(src: &str) -> CompiledProgram {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        crate::bytecode::compile(&linked).unwrap()
    }

    fn match_tokens(f: &CFunc) -> Vec<(usize, &CInstr)> {
        f.code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, CInstr::MatchToken { .. }))
            .collect()
    }

    #[test]
    fn token_matches_fuse_in_codegen_shape() {
        let (prog, stats) = specialized(TOKENS);
        assert_eq!(stats.tokens, 2, "{stats:?}");
        for name in ["M::token", "M::until"] {
            let f = prog.func(name).unwrap();
            let fused = match_tokens(f);
            assert_eq!(fused.len(), 1, "{:#?}", f.code);
            let (pc, &CInstr::MatchToken { re, it, t, id, end }) = fused[0] else {
                unreachable!()
            };
            assert!(matches!(f.slot_types[re as usize], Type::Regexp));
            assert!(matches!(f.slot_types[it as usize], Type::BytesIter));
            assert!(matches!(f.slot_types[end as usize], Type::BytesIter));
            assert!(matches!(f.slot_types[id as usize], Type::Int(64)));
            // The skipped reads stay in place, unpacking `t`.
            for (k, dst) in [(1, id), (2, end)] {
                assert!(
                    matches!(
                        &f.code[pc + k],
                        CInstr::Op { opcode: Opcode::TupleGet, target: Some(d), args, .. }
                            if *d == dst && matches!(&args[0], COperand::Slot(s) if *s == t)
                    ),
                    "{:#?}",
                    f.code
                );
            }
        }
    }

    #[test]
    fn token_fusion_keeps_unsafe_windows_generic() {
        let unfused = |prog: &CompiledProgram, stats: SpecStats, why: &str| {
            assert_eq!(stats.tokens, 0, "{why}: {stats:?}");
            let f = prog.func("M::token").unwrap();
            assert!(match_tokens(f).is_empty(), "{why}: {:#?}", f.code);
            assert!(
                f.code.iter().any(|i| matches!(
                    i,
                    CInstr::Op {
                        opcode: Opcode::RegexpMatchToken,
                        ..
                    }
                )),
                "{why}: {:#?}",
                f.code
            );
        };
        let token = TOKENS.split("iterator<bytes> until").next().unwrap();
        // `t` read again after the window.
        let reread = token.replace(
            "    it = assign nit\n",
            "    local int<64> n\n    n = tuple.length tr\n    it = assign nit\n",
        );
        let (prog, stats) = specialized(&reread);
        unfused(&prog, stats, "t read after the window");
        // `re` or `it` typed `any`.
        let any_re = token.replace("local regexp re", "local any re");
        let (prog, stats) = specialized(&any_re);
        unfused(&prog, stats, "re any");
        let any_it = token.replace("token(iterator<bytes> it)", "token(any it)");
        let (prog, stats) = specialized(&any_it);
        unfused(&prog, stats, "it any");
        // A jump landing on either skipped read. Lowering never emits one
        // into adjacent instructions (a label starts a block, entered by a
        // jump), so the function's last instruction is redirected there.
        for k in [1, 2] {
            let mut prog = lowered(token);
            let f = &mut prog.funcs[0];
            let pc = f
                .code
                .iter()
                .position(|i| {
                    matches!(
                        i,
                        CInstr::Op {
                            opcode: Opcode::RegexpMatchToken,
                            ..
                        }
                    )
                })
                .unwrap();
            let last = f.code.len() - 1;
            assert!(matches!(f.code[last], CInstr::Return(_)), "{:#?}", f.code);
            f.code[last] = CInstr::Jump((pc + k) as u32);
            let stats = specialize_program(&mut prog);
            unfused(&prog, stats, &format!("jump to pc+{k}"));
        }
    }
}
