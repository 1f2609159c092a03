//! Direct-threaded code: the top rung of the adaptive tier ladder.
//!
//! The specialized tier (`crate::specialize` + `crate::tier`) removes the
//! `ops::eval` megamatch for typed instructions but still re-dispatches
//! through the main loop's `CInstr` fetch/decode on every iteration. This
//! module compiles a tiered function's specialized bytecode one step
//! further, into a flat array of *pre-bound* threaded ops ([`TOp`]): slot
//! and immediate operands, branch targets, and inline-cache handles are all
//! resolved at tier-up time, so the executor (`vm::run_threaded`) is a
//! single tight match over small enum ops with no per-instruction operand
//! decoding — the direct-threaded baseline-tier design of Titzer's
//! baseline-compiler study (arXiv 2305.13241) and Deegen (arXiv 2411.11469).
//!
//! ## Parity contract
//!
//! Threaded code must be observationally invisible, exactly like the
//! specialized tier below it:
//!
//! * **pc-preserving.** `compile` lowers exactly one [`TOp`] per `CInstr`
//!   pc, so branch targets carry over untranslated and execution can leave
//!   threaded code at *any* pc (deopt) with the generic body resuming at
//!   the same site — on-stack replacement at the dispatch boundary.
//! * **Fuel-identical.** Each threaded op charges the same cost at the same
//!   program point as its generic rendering (1 unit, `BrIfInt` 2). The
//!   executor meters through a local countdown clamped to
//!   `WATCHDOG_CHECK_UNITS` when a delivery deadline is armed, mirroring
//!   the specialized fast loop, so deadline-detection latency is unchanged.
//! * **Deopt, don't duplicate.** Anything with an effectful or raising
//!   path that the generic arms own — host calls, hooks, generic `Op`s,
//!   exception raising itself, IC *misses* — lowers to [`TOp::Deopt`] (or
//!   exits on the miss): the executor stops *before* charging and the
//!   generic arm re-executes that one instruction, so every exception,
//!   trace line, and IC-counter update flows through exactly one code
//!   path. IC sites share the same `Rc<RefCell<IcSite>>` as the tiered
//!   `CFunc`, so hit/miss statistics stay in one place.
//! * **Observational modes never reach here.** Tracing, stats, profiling
//!   and armed fault injection pin the generic tier in `vm::run`, so those
//!   outputs are byte-identical across all tiering modes by construction.

use std::cell::RefCell;
use std::rc::Rc;

use crate::bytecode::{CFunc, CInstr, COperand, IcSite, IntBit, IntCmp, IntSrc};
use crate::value::Value;

/// A pre-bound operand: the threaded analog of [`COperand`], with the
/// indirection resolved at tier-up rather than re-matched per execution.
#[derive(Clone, Debug)]
pub(crate) enum TSrc {
    Slot(u16),
    Global(u32),
    Value(Value),
}

impl TSrc {
    fn from_operand(op: &COperand) -> TSrc {
        match op {
            COperand::Slot(s) => TSrc::Slot(*s),
            COperand::Global(g) => TSrc::Global(*g),
            COperand::Value(v) => TSrc::Value(v.clone()),
        }
    }
}

/// One pre-bound threaded op. Costs and semantics match the `CInstr` it
/// was lowered from one for one; see the module docs for the contract.
#[derive(Clone, Debug)]
pub(crate) enum TOp {
    AddInt {
        dst: u16,
        a: IntSrc,
        b: IntSrc,
    },
    SubInt {
        dst: u16,
        a: IntSrc,
        b: IntSrc,
    },
    MulInt {
        dst: u16,
        a: IntSrc,
        b: IntSrc,
    },
    BitInt {
        op: IntBit,
        dst: u16,
        a: IntSrc,
        b: IntSrc,
    },
    CmpInt {
        cmp: IntCmp,
        dst: u16,
        a: IntSrc,
        b: IntSrc,
    },
    /// Fused compare-and-branch; charges 2 like its generic rendering.
    BrIfInt {
        cmp: IntCmp,
        a: IntSrc,
        b: IntSrc,
        dst: u16,
        then_pc: u32,
        else_pc: u32,
    },
    MoveSlot {
        dst: u16,
        src: u16,
    },
    LoadImm {
        dst: u16,
        v: Value,
    },
    BrBool {
        cond: u16,
        then_pc: u32,
        else_pc: u32,
    },
    Jump(u32),
    Branch {
        cond: TSrc,
        then_pc: u32,
        else_pc: u32,
    },
    Return(Option<TSrc>),
    /// Direct call with pre-bound argument sources; the callee's frame
    /// layout is read from the program image at execution time so the op
    /// stays valid across contexts sharing one image.
    Call {
        func: u32,
        args: Box<[TSrc]>,
        ret_slot: Option<u16>,
        ret_global: Option<u32>,
    },
    PushHandler {
        pc: u32,
        kind: Rc<str>,
        binder: Option<u16>,
    },
    PopHandler,
    /// `struct.get` hit path; shares the `CFunc`'s field site. A miss — or
    /// any raising path — deopts to the field-site arm in the generic loop,
    /// which owns resolution, refill and error semantics.
    StructGet {
        target: Option<u16>,
        obj: TSrc,
        ic: Rc<RefCell<IcSite>>,
    },
    /// `struct.set` hit path; same sharing and deopt rules.
    StructSet {
        target: Option<u16>,
        obj: TSrc,
        value: TSrc,
        ic: Rc<RefCell<IcSite>>,
    },
    /// Everything else: hand this pc back to the generic dispatch loop.
    Deopt,
}

/// A function compiled to direct-threaded ops, produced at tier-up by
/// [`compile`] and cached per function in [`crate::tier::TierEngine`].
#[derive(Debug)]
pub(crate) struct ThreadedFunc {
    pub(crate) ops: Box<[TOp]>,
}

/// Lowers a tiered (specialized + IC'd) function body into threaded ops,
/// one per pc. Pure function of the input body: same code, same ops.
pub(crate) fn compile(cf: &CFunc) -> ThreadedFunc {
    let ops = cf.code.iter().map(lower).collect();
    ThreadedFunc { ops }
}

fn lower(instr: &CInstr) -> TOp {
    match instr {
        CInstr::AddInt { dst, a, b } => TOp::AddInt {
            dst: *dst,
            a: *a,
            b: *b,
        },
        CInstr::SubInt { dst, a, b } => TOp::SubInt {
            dst: *dst,
            a: *a,
            b: *b,
        },
        CInstr::MulInt { dst, a, b } => TOp::MulInt {
            dst: *dst,
            a: *a,
            b: *b,
        },
        CInstr::BitInt { op, dst, a, b } => TOp::BitInt {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        },
        CInstr::CmpInt { cmp, dst, a, b } => TOp::CmpInt {
            cmp: *cmp,
            dst: *dst,
            a: *a,
            b: *b,
        },
        CInstr::BrIfInt {
            cmp,
            a,
            b,
            dst,
            then_pc,
            else_pc,
        } => TOp::BrIfInt {
            cmp: *cmp,
            a: *a,
            b: *b,
            dst: *dst,
            then_pc: *then_pc,
            else_pc: *else_pc,
        },
        CInstr::MoveSlot { dst, src } => TOp::MoveSlot {
            dst: *dst,
            src: *src,
        },
        CInstr::LoadImm { dst, v } => TOp::LoadImm {
            dst: *dst,
            v: v.clone(),
        },
        CInstr::BrBool {
            cond,
            then_pc,
            else_pc,
        } => TOp::BrBool {
            cond: *cond,
            then_pc: *then_pc,
            else_pc: *else_pc,
        },
        CInstr::Jump(pc) => TOp::Jump(*pc),
        CInstr::Branch {
            cond,
            then_pc,
            else_pc,
        } => TOp::Branch {
            cond: TSrc::from_operand(cond),
            then_pc: *then_pc,
            else_pc: *else_pc,
        },
        CInstr::Return(v) => TOp::Return(v.as_ref().map(TSrc::from_operand)),
        CInstr::Call { target, func, args } => TOp::Call {
            func: *func,
            args: args.iter().map(TSrc::from_operand).collect(),
            ret_slot: *target,
            ret_global: None,
        },
        // A global-storing call keeps the call fast path; the store target
        // rides along exactly like the generic arm's unwrapped form. Every
        // other GlobalStore-wrapped instruction stays generic.
        CInstr::GlobalStore { global, inner } => match &**inner {
            CInstr::Call { target, func, args } => TOp::Call {
                func: *func,
                args: args.iter().map(TSrc::from_operand).collect(),
                ret_slot: *target,
                ret_global: Some(*global),
            },
            _ => TOp::Deopt,
        },
        CInstr::PushHandler { pc, kind, binder } => TOp::PushHandler {
            pc: *pc,
            kind: Rc::clone(kind),
            binder: *binder,
        },
        CInstr::PopHandler => TOp::PopHandler,
        CInstr::StructGet {
            target, obj, ic, ..
        } => TOp::StructGet {
            target: *target,
            obj: TSrc::from_operand(obj),
            ic: Rc::clone(ic),
        },
        CInstr::StructSet {
            target,
            obj,
            value,
            ic,
            ..
        } => TOp::StructSet {
            target: *target,
            obj: TSrc::from_operand(obj),
            value: TSrc::from_operand(value),
            ic: Rc::clone(ic),
        },
        // Generic ops, host calls, hooks, callable/overlay ICs (re-entrant
        // or clone-heavy paths) and yields all run on the generic loop.
        _ => TOp::Deopt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn compiled(src: &str, func: &str) -> (CFunc, ThreadedFunc) {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        let mut prog = crate::bytecode::compile(&linked).unwrap();
        crate::specialize::specialize_program(&mut prog);
        let cf = prog.func(func).unwrap().clone();
        let tf = compile(&cf);
        (cf, tf)
    }

    #[test]
    fn lowering_is_pc_preserving() {
        let (cf, tf) = compiled(
            r#"
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
"#,
            "M::sum",
        );
        assert_eq!(cf.code.len(), tf.ops.len());
        for (ci, to) in cf.code.iter().zip(tf.ops.iter()) {
            match ci {
                CInstr::BrIfInt { then_pc, .. } => {
                    // Branch targets carry over untranslated.
                    let TOp::BrIfInt { then_pc: t, .. } = to else {
                        panic!("{to:?}")
                    };
                    assert_eq!(then_pc, t);
                }
                CInstr::Return(_) => assert!(matches!(to, TOp::Return(_))),
                _ => {}
            }
        }
    }

    #[test]
    fn recursive_call_lowers_to_threaded_call() {
        let (_, tf) = compiled(
            r#"
module M
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
"#,
            "M::fib",
        );
        assert!(
            tf.ops.iter().any(|o| matches!(
                o,
                TOp::Call {
                    ret_slot: Some(_),
                    ..
                }
            )),
            "{:#?}",
            tf.ops
        );
        // Nothing in this body needs the generic loop.
        assert!(!tf.ops.iter().any(|o| matches!(o, TOp::Deopt)));
    }

    #[test]
    fn effectful_sites_lower_to_deopt() {
        let (_, tf) = compiled(
            r#"
module M
void f() {
    call Hilti::print "hello"
}
"#,
            "M::f",
        );
        // `print` is a generic op: the threaded body hands it back.
        assert!(
            tf.ops.iter().any(|o| matches!(o, TOp::Deopt)),
            "{:#?}",
            tf.ops
        );
    }
}
