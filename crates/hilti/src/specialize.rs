//! Bytecode specialization: the typed instructions of the compiled engine.
//!
//! This pass rewrites generic [`CInstr::Op`] instructions into direct,
//! typed variants when operand types are statically known from the checked
//! IR (carried through lowering as [`CFunc::slot_types`] and
//! [`CompiledProgram::global_types`]). The specialized
//! variants execute inline in the VM dispatch loop on `frame.slots` — no
//! operand gathering, no tag checks beyond the one guard, no trip through
//! the `ops::eval` megamatch — which is where the bulk of the
//! per-instruction cost of hot integer/branch code goes (cf. Deegen-style
//! typed interpreter opcodes; §6.5's compiled-vs-interpreted gap is the
//! same story one level down).
//!
//! The pass runs in three phases over each function:
//!
//! 1. **Per-instruction rewrites.** An op with a typed row in `crate::ops`
//!    whose operands are each a constant, or a slot or global declared
//!    with the kind its signature states (for an `any` operand, any
//!    declared type but `any`), becomes [`CInstr::Typed`], with or without
//!    a target and whatever its arity. Which ops have a typed form is the
//!    table of rows, not a list here. On an
//!    `iterator<bytes>` slot that is also its destination,
//!    `iterator.incr` then steps the slot's iterator in place — the
//!    per-byte step of every generated parser. Besides, `assign` into a
//!    local becomes `Move`, from any operand, and a branch on a statically
//!    bool slot becomes `BrBool`. A `struct.get` into a local, or a
//!    `struct.set` without a target, whose receiver is a slot declared
//!    `ref<T>` (T a struct with that field) becomes `FieldGet`/`FieldSet`:
//!    the field's index is resolved here, and the VM's fast loop guards on
//!    the receiver's type name. Another type, an unset field on a get or a
//!    non-struct runs the `StructGet`/`StructSet` it replaced, with its
//!    cache, on the dispatch path.
//! 2. **Superinstruction fusion.** A `Typed` op with a `bool` result
//!    immediately followed by a branch on it fuses into [`CInstr::BrIf`] —
//!    the dominant `cmp`+`br_if` pair of loop headers collapses to one
//!    dispatch. The fused instruction still writes the bool flag slot and
//!    the original branch stays at its pc (it remains reachable through
//!    explicit jump labels), so no liveness or CFG analysis is needed.
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
//! The pass states no semantics of its own. A typed row in `crate::ops`
//! is the one statement of its op, which `ops::eval` and the VM's typed
//! step both run, and `ops::match_token` is the one statement of a token
//! match. A new typed op of any kind, container or `any` operands
//! included, is one row there.
//!
//! Type guards read declarations only: an operand declared `any`, slot or
//! global, keeps the generic path, and so does a write to a global (a
//! `GlobalStore` wrapper, left as lowered), so global-visibility semantics
//! stay in one place; a global is read typed, never written. Specialized
//! instructions still *check* operand values at run time (locals start as
//! `Null`, a global may hold another kind, a constant may be of another
//! type), raising the same catchable `TypeError` the generic path would.
//!
//! The pass is switched by `BuildOptions::specialize` (default on) so its
//! effect can be measured: `repro fib` prints the on/off pair as its
//! "dispatch tier" line.

use std::collections::HashMap;
use std::rc::Rc;

use crate::bytecode::{CFunc, CInstr, COperand, CompiledProgram, Row};
use crate::ir::{Kind, Opcode};
use crate::ops;
use crate::types::Type;
use crate::value::{StructLayout, Value};

/// What the pass did, for build reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Ops with a typed row replaced by `Typed`.
    pub typed: usize,
    /// `assign` instructions into a local replaced by `Move`.
    pub moves: usize,
    /// Branches on statically bool slots replaced by `BrBool`.
    pub branches: usize,
    /// `Typed` tests and their branches fused into `BrIf`.
    pub fused: usize,
    /// Token matches and their two tuple reads fused into `MatchToken`.
    pub tokens: usize,
    /// Struct field sites on declared struct slots made `FieldGet` or
    /// `FieldSet`.
    pub fields: usize,
}

impl SpecStats {
    pub fn total(&self) -> usize {
        self.typed + self.moves + self.branches + self.fused + self.tokens + self.fields
    }
}

/// Rewrites every function of `prog` in place.
pub fn specialize_program(prog: &mut CompiledProgram) -> SpecStats {
    let mut stats = SpecStats::default();
    for f in &mut prog.funcs {
        specialize_func(f, &prog.global_types, &prog.struct_layouts, &mut stats);
    }
    stats
}

fn specialize_func(
    cf: &mut CFunc,
    global_types: &[Type],
    layouts: &HashMap<String, StructLayout>,
    stats: &mut SpecStats,
) {
    let slot_types = &cf.slot_types;
    let declared = |s: u16| slot_types.get(s as usize);
    let is_bool = |s: u16| matches!(declared(s), Some(Type::Bool));
    // The declared type of a slot or global operand; `None` for a constant.
    let operand_type = |o: &COperand| match *o {
        COperand::Slot(s) => declared(s),
        COperand::Global(g) => global_types.get(g as usize),
        COperand::Const(_) => None,
    };

    // Phase 1: per-instruction rewrites.
    for instr in &mut cf.code {
        let replacement = match &*instr {
            // `assign` needs no type guard: it copies any value, exactly
            // like the generic path.
            CInstr::Op {
                opcode: Opcode::Assign,
                target: Some(dst),
                args,
                ..
            } if args.len() == 1 => {
                stats.moves += 1;
                Some(CInstr::Move {
                    dst: *dst,
                    src: args[0],
                })
            }
            CInstr::Op {
                opcode,
                target,
                args,
                ..
            } if ops::has_typed_form(*opcode) => {
                typed_args(*opcode, args, &operand_type).map(|args| {
                    stats.typed += 1;
                    CInstr::Typed(Row {
                        op: *opcode,
                        dst: *target,
                        args,
                    })
                })
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
            CInstr::StructGet {
                target: Some(dst),
                obj: COperand::Slot(obj),
                field,
                ..
            } => struct_field(layouts, declared(*obj), field).map(|(ty, idx)| {
                stats.fields += 1;
                CInstr::FieldGet {
                    dst: *dst,
                    obj: *obj,
                    idx,
                    ty,
                    site: Box::new(instr.clone()),
                }
            }),
            CInstr::StructSet {
                target: None,
                obj: COperand::Slot(obj),
                value,
                field,
                ..
            } => struct_field(layouts, declared(*obj), field).map(|(ty, idx)| {
                stats.fields += 1;
                CInstr::FieldSet {
                    obj: *obj,
                    idx,
                    value: *value,
                    ty,
                    site: Box::new(instr.clone()),
                }
            }),
            _ => None,
        };
        if let Some(r) = replacement {
            *instr = r;
        }
    }

    // Phase 2: fuse test-and-branch superinstructions. The branch that
    // consumes the freshly computed flag directly follows the test
    // (lowering emits blocks linearly); only the test is replaced, the
    // branch itself stays put for explicit jump targets.
    for i in 0..cf.code.len().saturating_sub(1) {
        let CInstr::Typed(row) = &cf.code[i] else {
            continue;
        };
        let Some(dst) = row.dst else {
            continue;
        };
        if !matches!(row.op.signature(), Some((_, Kind::Bool))) {
            continue;
        }
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
        cf.code[i] = CInstr::BrIf {
            row: row.clone(),
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
        .filter_map(|(i, w)| token_window(w, &cf.consts, &declared).map(|(t, fused)| (i, t, fused)))
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

/// The operands of a `Typed` instruction for `op`'s operands `args`, if
/// each is a constant, or a slot or global whose declared type `of` has the
/// kind `op`'s signature states (for an `any` operand, any declared type
/// but `any`). The row's arity, its operands' places and whether it has a
/// target are no condition: every row fits a [`Row`].
fn typed_args<'a>(
    op: Opcode,
    args: &[COperand],
    of: &impl Fn(&COperand) -> Option<&'a Type>,
) -> Option<[COperand; 3]> {
    let (params, _) = op.signature()?;
    // A malformed op keeps the generic path, which raises its arity error.
    if args.len() != params.len() {
        return None;
    }
    let typed = |arg: &COperand, kind: &Kind| {
        matches!(arg, COperand::Const(_))
            || of(arg).is_some_and(|t| *t != Type::Any && kind.admits(t))
    };
    // Past the row's arity: never read.
    let mut row = [COperand::Slot(0); 3];
    for ((slot, arg), kind) in row.iter_mut().zip(args).zip(params) {
        if !typed(arg, kind) {
            return None;
        }
        *slot = *arg;
    }
    Some(row)
}

/// The struct type a slot is declared as and the index of its `field`, if
/// it has one: what a typed field site guards on and reads.
fn struct_field(
    layouts: &HashMap<String, StructLayout>,
    declared: Option<&Type>,
    field: &str,
) -> Option<(Rc<str>, u32)> {
    let Type::Struct(name) = declared?.strip_ref() else {
        return None;
    };
    let layout = layouts.get(&**name)?;
    Some((Rc::clone(&layout.name), layout.index_of(field)? as u32))
}

/// The `MatchToken` (and its tuple slot) for a window of three
/// instructions holding a token match and the two typed reads of its
/// tuple, if the slot types allow it.
fn token_window<'a>(
    w: &[CInstr],
    consts: &[Value],
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
        [COperand::Slot(t0), COperand::Const(c0)],
        [COperand::Slot(t1), COperand::Const(c1)],
    ) = (&**matched, &**get_id, &**get_end)
    else {
        return None;
    };
    let index = |c: &u32| match consts[*c as usize] {
        Value::Int(i) => Some(i),
        _ => None,
    };
    if (index(c0), index(c1)) != (Some(0), Some(1)) {
        return None;
    }
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
        CInstr::Typed(row) | CInstr::BrIf { row, .. } => row.operands().iter().for_each(op),
        CInstr::Move { src, .. } => op(src),
        CInstr::BrBool { cond, .. } => f(*cond),
        CInstr::MatchToken { re, it, .. } => {
            f(*re);
            f(*it);
        }
        CInstr::FieldGet { site, .. } | CInstr::FieldSet { site, .. } => for_each_read(site, f),
        CInstr::Jump(_) | CInstr::PushHandler { .. } | CInstr::PopHandler | CInstr::Yield => {}
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
        | CInstr::BrIf {
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
        | CInstr::Typed(_)
        | CInstr::Move { .. }
        | CInstr::MatchToken { .. }
        | CInstr::StructGet { .. }
        | CInstr::StructSet { .. }
        | CInstr::FieldGet { .. }
        | CInstr::FieldSet { .. } => {}
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
                CInstr::Typed(Row {
                    op: Opcode::IntAdd,
                    ..
                })
            )),
            "{:#?}",
            f.code
        );
        assert!(
            f.code.iter().any(|i| matches!(i, CInstr::BrIf { .. })),
            "cmp+branch must fuse: {:#?}",
            f.code
        );
        assert!(
            f.code.iter().any(|i| matches!(
                i,
                CInstr::Move {
                    src: COperand::Const(_),
                    ..
                }
            )),
            "{:#?}",
            f.code
        );
        assert!(stats.typed >= 2 && stats.fused >= 1, "{stats:?}");
    }

    #[test]
    fn fused_branch_keeps_original_at_next_pc() {
        // The pc after a BrIf still holds the branch, so explicit jumps
        // to it keep working.
        let (prog, _) = specialized(LOOP);
        let f = prog.func("M::sum").unwrap();
        let i = f
            .code
            .iter()
            .position(|i| matches!(i, CInstr::BrIf { .. }))
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
        assert_eq!(stats.typed, 0);
    }

    #[test]
    fn global_targets_stay_generic_and_global_reads_run_typed() {
        let (prog, stats) = specialized(
            r#"
module M
global int<64> g = 0
global any h = 0
int<64> f() {
    local int<64> x
    g = int.add g 1
    x = int.add g 2
    x = int.add h x
    return x
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        // Global target: still the GlobalStore-wrapped generic op.
        assert!(
            matches!(
                &f.code[0],
                CInstr::GlobalStore { inner, .. }
                    if matches!(&**inner, CInstr::Op { opcode: Opcode::IntAdd, .. })
            ),
            "{:#?}",
            f.code
        );
        // A global declared `int<64>` is read typed; one declared `any` is not.
        assert!(
            matches!(
                &f.code[1],
                CInstr::Typed(Row {
                    op: Opcode::IntAdd,
                    dst: Some(0),
                    args: [COperand::Global(0), COperand::Const(_), _],
                })
            ),
            "{:#?}",
            f.code
        );
        assert!(
            matches!(
                &f.code[2],
                CInstr::Op {
                    opcode: Opcode::IntAdd,
                    ..
                }
            ),
            "{:#?}",
            f.code
        );
        assert_eq!(stats.typed, 1, "{stats:?}");
        assert_eq!(f.code[1].render(&f.consts), "s0 = int.add g0 2");
    }

    #[test]
    fn rows_without_target_or_of_three_operands_run_typed() {
        let (prog, stats) = specialized(
            r#"
module M
string f(ref<set<int<64>>> s, ref<vector<any>> v, string t) {
    local string u
    set.insert s 1
    vector.push_back v t
    vector.set v 0 t
    u = string.substr t 1 2
    return u
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        let rendered: Vec<(String, &str)> = f.code[..4]
            .iter()
            .map(|i| (i.render(&f.consts), i.stat_name()))
            .collect();
        assert_eq!(
            rendered,
            [
                ("set.insert s0 1".to_owned(), "spec.set.insert"),
                ("vector.push_back s1 s2".to_owned(), "spec.vector.push_back"),
                ("vector.set s1 0 s2".to_owned(), "spec.vector.set"),
                ("s3 = string.substr s2 1 2".to_owned(), "spec.string.substr"),
            ],
            "{:#?}",
            f.code
        );
        assert_eq!(stats.typed, 4, "{stats:?}");
        assert!(matches!(&f.code[0], CInstr::Typed(Row { dst: None, .. })));
    }

    #[test]
    fn immediates_become_constant_operands() {
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
                CInstr::Typed(Row {
                    op: Opcode::IntAdd,
                    args: [COperand::Slot(0), COperand::Const(c), _],
                    ..
                }) if matches!(f.consts[*c as usize], Value::Int(7))
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
            .filter(|i| i.stat_name().starts_with("spec.iterator."))
            .map(|i| i.render(&f.consts))
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
        // The three iterator sites and `bytes.begin` on the `ref<bytes>`.
        assert_eq!(stats.typed, 4);
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
        assert_eq!((stats.typed, stats.tokens), (10, 2), "{stats:?}");
        for name in ["M::sum", "M::walk", "M::token", "M::until"] {
            let consts = &plain.func(name).unwrap().consts;
            let pf = &plain.func(name).unwrap().code;
            let sf = &spec.func(name).unwrap().code;
            for (pc, s) in sf.iter().enumerate() {
                let text = s.render(consts);
                match s {
                    CInstr::BrIf { .. } => {
                        // Fused: renders as "cmp ; branch"; the VM traces
                        // it as the two original lines.
                        let (cmp_part, br_part) = text.split_once(" ; ").unwrap();
                        assert_eq!(pf[pc].render(consts), cmp_part);
                        assert!(br_part.starts_with("if s"), "{br_part}");
                    }
                    _ => assert_eq!(pf[pc].render(consts), text),
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
