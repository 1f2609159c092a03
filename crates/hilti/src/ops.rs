//! Operational semantics of the data instructions.
//!
//! Both execution engines — the tree-walking interpreter and the bytecode
//! VM — delegate every non-control-flow instruction here, exactly as the
//! paper's generated native code calls into one shared C runtime library
//! (§5 "Runtime Library"). Control flow (calls, jumps, yields, handlers)
//! stays engine-specific.
//!
//! Instructions validate their operands and raise typed exceptions instead
//! of exhibiting undefined behaviour (§7 "Safe Execution Environment"):
//! every function here returns `RtResult`, and a raised error either hits a
//! handler installed by `exception.push_handler` or propagates out of the
//! program.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use hilti_rt::addr::{Addr, Network, Port};
use hilti_rt::bytestring::{Bytes, BytesIter};
use hilti_rt::classifier::{with_scratch, Classifier, FieldMatcher, FieldValue};
use hilti_rt::containers::ExpireStrategy;
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::limits::AllocBudget;
use hilti_rt::overlay::{OverlayType, Unpacked};
use hilti_rt::regexp::{MatchVerdict, Regex};
use hilti_rt::text::{self, StrBuf};
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::{TimerId, TimerMgr};

use crate::bytecode::{COperand, Row};
use crate::ir::{kind, sig, Opcode};
use crate::types::Type;
use crate::value::{
    CallableVal, ExceptionVal, HashKey, MapVal, SetVal, StructLayout, StructVal, Value,
};

/// A heap container registered for global-time expiration.
#[derive(Clone)]
pub enum ExpiringHandle {
    Set(Rc<RefCell<SetVal>>),
    Map(Rc<RefCell<MapVal>>),
}

impl ExpiringHandle {
    /// Expires the container's entries due at `t`; returns how many.
    pub fn expire(&self, t: Time) -> usize {
        match self {
            ExpiringHandle::Set(s) => s.borrow_mut().expire(t),
            ExpiringHandle::Map(m) => m.borrow_mut().expire(t),
        }
    }
}

/// What the engines must provide to the shared semantics.
pub trait ExecCtx {
    /// Emits one line of program output (`Hilti::print`, `debug.print`).
    fn output(&mut self, line: String);
    /// The global (network) time of this execution context.
    fn global_time(&self) -> Time;
    fn set_global_time(&mut self, t: Time);
    /// Registers a container for expiration driven by global time.
    fn register_expiring(&mut self, handle: ExpiringHandle);
    /// Expires entries in registered containers up to `t`.
    fn advance_expiring(&mut self, t: Time);
    /// Looks up a struct type's layout in the program's type table.
    fn struct_layout(&self, type_name: &str) -> Option<&StructLayout>;
    /// Looks up an overlay type.
    fn overlay(&self, type_name: &str) -> Option<Rc<OverlayType>>;
    /// Opens (or returns the already-open) named output file.
    fn open_file(&mut self, name: &str) -> LogFile;
    /// Opens a named input source (host-registered).
    fn open_iosrc(&mut self, name: &str) -> RtResult<Value>;
    /// Schedules a callable onto a virtual thread.
    fn schedule_thread(&mut self, tid: u64, callable: CallableVal) -> RtResult<()>;
    /// The executing virtual thread's id.
    fn thread_id(&self) -> u64;
    /// Takes a timer callable that came due during an instruction
    /// (`timer_mgr.advance`). The engine invokes what was handed over, in
    /// order, once the instruction has completed.
    fn fire(&mut self, callable: CallableVal);
    /// Profiler hooks.
    fn profiler_start(&mut self, name: &str);
    fn profiler_stop(&mut self, name: &str);
    fn profiler_count(&mut self, name: &str, n: u64);
    fn profiler_time(&self, name: &str) -> u64;
    /// The heap budget newly created values should charge against, if
    /// this context enforces one. Default: unmetered.
    fn alloc_budget(&self) -> Option<AllocBudget> {
        None
    }
}

fn arity(args: &[&Value], n: usize, op: Opcode) -> RtResult<()> {
    if args.len() != n {
        return Err(RtError::type_error(format!(
            "{} expects {n} operands, got {}",
            op.mnemonic(),
            args.len()
        )));
    }
    Ok(())
}

fn arity_min(args: &[&Value], n: usize, op: Opcode) -> RtResult<()> {
    if args.len() < n {
        return Err(RtError::type_error(format!(
            "{} expects at least {n} operands, got {}",
            op.mnemonic(),
            args.len()
        )));
    }
    Ok(())
}

fn as_struct(v: &Value) -> RtResult<&Rc<RefCell<StructVal>>> {
    match v {
        Value::Struct(s) => Ok(s),
        other => Err(other.type_err("struct")),
    }
}

fn as_classifier(v: &Value) -> RtResult<&Rc<RefCell<Classifier<Value>>>> {
    match v {
        Value::Classifier(c) => Ok(c),
        other => Err(other.type_err("classifier")),
    }
}

fn as_timer_mgr(v: &Value) -> RtResult<&Rc<RefCell<TimerMgr<CallableVal>>>> {
    match v {
        Value::TimerMgr(t) => Ok(t),
        other => Err(other.type_err("timer_mgr")),
    }
}

fn as_callable(v: &Value) -> RtResult<&Rc<CallableVal>> {
    match v {
        Value::Callable(c) => Ok(c),
        other => Err(other.type_err("callable")),
    }
}

/// Converts a value into a classifier rule field.
fn to_field_matcher(v: &Value) -> RtResult<FieldMatcher> {
    Ok(match v {
        Value::Null => FieldMatcher::Wildcard,
        Value::String(s) if &**s == "*" => FieldMatcher::Wildcard,
        Value::Net(n) => FieldMatcher::Net(*n),
        Value::Addr(a) => FieldMatcher::Host(*a),
        Value::Port(p) => FieldMatcher::Port(*p),
        Value::Int(i) => FieldMatcher::Int(*i as u64),
        other => {
            return Err(RtError::type_error(format!(
                "cannot use {} as classifier field",
                other.type_name()
            )))
        }
    })
}

/// Converts a value into a classifier lookup field.
fn to_field_value(v: &Value) -> RtResult<FieldValue> {
    Ok(match v {
        Value::Addr(a) => FieldValue::Addr(*a),
        Value::Port(p) => FieldValue::Port(*p),
        Value::Int(i) => FieldValue::Int(*i as u64),
        other => {
            return Err(RtError::type_error(format!(
                "cannot use {} as classifier key",
                other.type_name()
            )))
        }
    })
}

/// Instantiates a default value of `ty` — the `new` instruction. `extra`
/// carries type-specific parameters (e.g. channel capacity).
pub fn instantiate(ty: &Type, extra: &[&Value], ctx: &mut dyn ExecCtx) -> RtResult<Value> {
    Ok(match ty.strip_ref() {
        Type::Bytes => {
            let b = Bytes::new();
            if let Some(budget) = ctx.alloc_budget() {
                b.set_budget(budget);
            }
            Value::Bytes(b)
        }
        Type::List(_) => Value::List(Rc::new(RefCell::new(VecDeque::new()))),
        Type::Vector(_) => Value::Vector(Rc::new(RefCell::new(Vec::new()))),
        Type::Set(_) => {
            let mut s = SetVal::new();
            if let Some(budget) = ctx.alloc_budget() {
                s.set_budget(budget);
            }
            Value::Set(Rc::new(RefCell::new(s)))
        }
        Type::Map(_, _) => {
            let mut m = MapVal::new();
            if let Some(budget) = ctx.alloc_budget() {
                m.set_budget(budget);
            }
            Value::Map(Rc::new(RefCell::new(m)))
        }
        Type::Struct(name) => ctx
            .struct_layout(name)
            .ok_or_else(|| RtError::type_error(format!("unknown struct type {name}")))?
            .instantiate(),
        Type::Classifier(_, _) => Value::Classifier(Rc::new(RefCell::new(Classifier::new()))),
        Type::TimerMgr => Value::TimerMgr(Rc::new(RefCell::new(TimerMgr::new()))),
        Type::Channel(_) => {
            let cap = match extra.first() {
                Some(Value::Int(n)) if *n > 0 => Some(*n as usize),
                _ => None,
            };
            match cap {
                Some(c) => Value::Channel(hilti_rt::channel::Channel::bounded(c)),
                None => Value::Channel(hilti_rt::channel::Channel::unbounded()),
            }
        }
        other => {
            return Err(RtError::type_error(format!(
                "cannot instantiate type {other}"
            )))
        }
    })
}

// --- typed rows ------------------------------------------------------------

/// How a typed row reads an operand of one kind and wraps a result of one.
/// The kinds are the `ir::kind` markers a row's signature names.
pub(crate) trait Kind {
    /// What a row's body sees of an operand.
    type Arg<'a>;
    /// What a row's body evaluates to.
    type Out;
    fn read(v: &Value) -> RtResult<Self::Arg<'_>>;
    fn wrap(out: Self::Out) -> Value;
}

macro_rules! kinds {
    ($( $kind:ident: $arg:ty = $read:expr, $out:ty => $wrap:expr; )*) => { $(
        impl Kind for kind::$kind {
            type Arg<'a> = $arg;
            type Out = $out;
            #[inline(always)]
            fn read<'a>(v: &'a Value) -> RtResult<Self::Arg<'a>> {
                $read(v)
            }
            #[inline(always)]
            fn wrap(out: $out) -> Value {
                $wrap(out)
            }
        }
    )* };
}

kinds! {
    Int: i64 = Value::as_int, i64 => Value::Int;
    Bool: bool = Value::as_bool, bool => Value::Bool;
    Double: f64 = Value::as_double, f64 => Value::Double;
    // A string result is handed over as built: no copy into a new `Rc`.
    String: &'a str = Value::as_str, Rc<str> => Value::String;
    Bytes: &'a Bytes = Value::as_bytes, Bytes => Value::Bytes;
    BytesIter: &'a BytesIter = Value::as_bytes_iter, BytesIter => Value::BytesIter;
    Addr: Addr = Value::as_addr, Addr => Value::Addr;
    Net: Network = Value::as_net, Network => Value::Net;
    Port: Port = Value::as_port, Port => Value::Port;
    Time: Time = Value::as_time, Time => Value::Time;
    Interval: Interval = Value::as_interval, Interval => Value::Interval;
    Regexp: &'a Rc<Regex> = Value::as_regexp, Rc<Regex> => Value::Regexp;
    // A result only: no signature takes a void operand.
    Void: () = |_| Ok(()), () => |()| Value::Null;
    // Any value, read where it lives and kept by a clone.
    Any: &'a Value = Ok, Value => |v| v;
    // Containers: a row reads the shared handle and borrows what it needs.
    List: &'a Rc<RefCell<VecDeque<Value>>> = |v: &'a Value| match v {
        Value::List(l) => Ok(l),
        other => Err(other.type_err("list")),
    }, Rc<RefCell<VecDeque<Value>>> => Value::List;
    Vector: &'a Rc<RefCell<Vec<Value>>> = |v: &'a Value| match v {
        Value::Vector(x) => Ok(x),
        other => Err(other.type_err("vector")),
    }, Rc<RefCell<Vec<Value>>> => Value::Vector;
    Set: &'a Rc<RefCell<SetVal>> = |v: &'a Value| match v {
        Value::Set(s) => Ok(s),
        other => Err(other.type_err("set")),
    }, Rc<RefCell<SetVal>> => Value::Set;
    Map: &'a Rc<RefCell<MapVal>> = |v: &'a Value| match v {
        Value::Map(m) => Ok(m),
        other => Err(other.type_err("map")),
    }, Rc<RefCell<MapVal>> => Value::Map;
}

/// A kind a `&mut` row steps in place in the slot that holds it.
pub(crate) trait InPlace: Kind {
    fn slot(v: &mut Value) -> Option<&mut Self::Out>;
}

impl InPlace for kind::BytesIter {
    #[inline(always)]
    fn slot(v: &mut Value) -> Option<&mut BytesIter> {
        match v {
            Value::BytesIter(it) => Some(it),
            _ => None,
        }
    }
}

/// A row's signature as its `ir::sig` type: its arity, its kinds, and how it
/// reads its operands — in order, so the first one not of its kind is the
/// one reported.
pub(crate) trait Signature {
    const ARITY: usize;
    type First: Kind;
    type Ret: Kind;
    type Args<'a>;
    fn read<'a>(arg: impl Fn(usize) -> &'a Value) -> RtResult<Self::Args<'a>>;
}

macro_rules! signatures {
    ($( $arity:literal: $($p:ident $i:tt),+; )*) => { $(
        impl<$($p: Kind,)+ R: Kind> Signature for fn($($p),+) -> R {
            const ARITY: usize = $arity;
            type First = A;
            type Ret = R;
            type Args<'a> = ($($p::Arg<'a>,)+);
            #[inline(always)]
            fn read<'a>(arg: impl Fn(usize) -> &'a Value) -> RtResult<Self::Args<'a>> {
                Ok(($($p::read(arg($i))?,)+))
            }
        }
    )* };
}

signatures! {
    1: A 0;
    2: A 0, B 1;
    3: A 0, B 1, C 2;
}

/// One typed row, in the form [`eval`] (a new value) or [`exec`] (into a
/// slot) runs it for `$opcode`, one of the row's opcodes. A `&mut` row's
/// body steps its first operand and yields nothing; it steps the slot
/// itself when that is also the destination.
macro_rules! typed_row {
    (apply [$op:ident $(| $same:ident)*] (&mut $m:ident $(, $a:ident)*) $body:expr;
     $opcode:ident, $args:ident) => {{
        arity($args, <sig::$op as Signature>::ARITY, $opcode)?;
        let ($m, $($a,)*) = <sig::$op as Signature>::read(|i| $args[i])?;
        Ok(typed_row!(stepped $op $m $body))
    }};
    (apply [$op:ident $(| $same:ident)*] ($($a:ident),*) $body:expr;
     $opcode:ident, $args:ident) => {{
        // Opcodes that share a row share its signature.
        $( const _: fn(sig::$op) -> sig::$same = |s| s; )*
        arity($args, <sig::$op as Signature>::ARITY, $opcode)?;
        let ($($a,)*) = <sig::$op as Signature>::read(|i| $args[i])?;
        Ok(<<sig::$op as Signature>::Ret as Kind>::wrap($body))
    }};
    (exec [$op:ident $(| $same:ident)*] (&mut $m:ident $(, $a:ident)*) $body:expr;
     $arg:ident, $slots:ident, $row:ident) => {{
        let ($m, $($a,)*) = <sig::$op as Signature>::read($arg)?;
        if let Some(dst) = $row.dst.filter(|d| $row.args[0] == COperand::Slot(*d)) {
            let slot = &mut $slots[dst as usize];
            if let Some($m) = <<sig::$op as Signature>::First as InPlace>::slot(slot) {
                $body;
            }
            return Ok(false);
        }
        typed_row!(stepped $op $m $body)
    }};
    (exec [$op:ident $(| $same:ident)*] ($($a:ident),*) $body:expr;
     $arg:ident, $slots:ident, $row:ident) => {{
        let ($($a,)*) = <sig::$op as Signature>::read($arg)?;
        <<sig::$op as Signature>::Ret as Kind>::wrap($body)
    }};
    // Whether the row runs inline in the VM's fast loop.
    (inline [$op:ident $(| $same:ident)*]) => {
        const { inline_row(Opcode::$op) }
    };
    // A `&mut` row run on a copy of its first operand, which it returns.
    (stepped $op:ident $m:ident $body:expr) => {{
        let mut $m = $m.clone();
        {
            let $m = &mut $m;
            $body;
        }
        <<sig::$op as Signature>::Ret as Kind>::wrap($m)
    }};
}

/// The typed rows: each states an op's semantics once, over operands read
/// at the kinds of its `opcodes!` signature. `eval`'s arm, the VM's
/// `CInstr::Typed` and `BrIf`, the specializer's rule and the `--stats`
/// bucket all come from the row. Opcodes of one signature may share a
/// row; a body names the one it runs as the first identifier before the
/// rows, and the execution context (network time, expiring containers) as
/// the second.
///
/// A row raises before it mutates anything: the VM's fast loop leaves a
/// typed instruction that raises to its dispatch path, which runs it again
/// and raises there, so a row that changed a container and then raised
/// would change it twice.
macro_rules! typed_ops {
    ($opcode:ident, $ctx:ident: $( $($op:ident)|+ ($($params:tt)*) => $body:expr, )*) => {
        /// The typed rows' opcodes, as a pattern.
        macro_rules! typed_opcode {
            () => { $($(Opcode::$op)|+)|* };
        }

        /// True for an opcode with a typed row: the ones the specializer
        /// rewrites to [`CInstr::Typed`](crate::bytecode::CInstr::Typed)
        /// where its operands allow.
        pub(crate) fn has_typed_form(op: Opcode) -> bool {
            matches!(op, typed_opcode!())
        }

        /// `eval`'s arm for the typed rows, inlined so that `eval` and the
        /// row dispatch on the opcode once.
        #[inline(always)]
        fn apply($opcode: Opcode, args: &[&Value], $ctx: &mut dyn ExecCtx) -> RtResult<Value> {
            match $opcode {
                $( $(Opcode::$op)|+ => {
                    typed_row!(apply [$($op)|+] ($($params)*) $body; $opcode, args)
                } )*
                _ => unreachable!("{} has no typed row", $opcode.mnemonic()),
            }
        }

        /// Runs `row`'s typed row over its operands, read in place from
        /// `slots`, `consts` (the function's constant table) and `globals`,
        /// with the context `eval` takes, writes the result into slot
        /// `row.dst` if it has one and returns whether it is `true` (what a
        /// `BrIf` branches on). An `Err` leaves the slots untouched.
        #[inline(always)]
        pub(crate) fn exec(
            row: &Row,
            slots: &mut [Value],
            consts: &[Value],
            globals: &[Value],
            ctx: &mut dyn ExecCtx,
        ) -> RtResult<bool> {
            exec_rows::<true>(row, slots, consts, globals, ctx)
        }

        /// [`exec`] of the rows that do not run inline.
        #[inline(never)]
        fn exec_out_of_line(
            row: &Row,
            slots: &mut [Value],
            consts: &[Value],
            globals: &[Value],
            ctx: &mut dyn ExecCtx,
        ) -> RtResult<bool> {
            exec_rows::<false>(row, slots, consts, globals, ctx)
        }

        /// [`exec`] of the rows whose [`inline_row`] is `INLINE`.
        #[inline(always)]
        fn exec_rows<const INLINE: bool>(
            row: &Row,
            slots: &mut [Value],
            consts: &[Value],
            globals: &[Value],
            $ctx: &mut dyn ExecCtx,
        ) -> RtResult<bool> {
            let $opcode = row.op;
            let arg = |i: usize| row.args[i].get(slots, consts, globals);
            let v = match $opcode {
                $( $(Opcode::$op)|+ if typed_row!(inline [$($op)|+]) == INLINE => {
                    typed_row!(exec [$($op)|+] ($($params)*) $body; arg, slots, row)
                } )*
                _ if INLINE => return exec_out_of_line(row, slots, consts, globals, $ctx),
                _ => unreachable!("{} has no typed row", $opcode.mnemonic()),
            };
            let taken = matches!(v, Value::Bool(true));
            if let Some(dst) = row.dst {
                slots[dst as usize] = v;
            }
            Ok(taken)
        }
    };
}

typed_ops! { op, ctx:
    // Integers. Arithmetic wraps; `shl` wraps its shift amount, and `shr`
    // is a logical shift of the 64-bit pattern.
    IntAdd(a, b) => a.wrapping_add(b),
    IntSub(a, b) => a.wrapping_sub(b),
    IntMul(a, b) => a.wrapping_mul(b),
    IntDiv(a, b) => a.wrapping_div(nonzero(b, "division by zero")?),
    IntMod(a, b) => a.wrapping_rem(nonzero(b, "modulo by zero")?),
    IntNeg(a) => a.wrapping_neg(),
    IntAbs(a) => a.wrapping_abs(),
    IntMin(a, b) => a.min(b),
    IntMax(a, b) => a.max(b),
    IntEq(a, b) => a == b,
    IntLt(a, b) => a < b,
    IntGt(a, b) => a > b,
    IntLeq(a, b) => a <= b,
    IntGeq(a, b) => a >= b,
    IntAnd(a, b) => a & b,
    IntOr(a, b) => a | b,
    IntXor(a, b) => a ^ b,
    IntShl(a, b) => a.wrapping_shl(b as u32),
    IntShr(a, b) => ((a as u64) >> (b as u32 & 63)) as i64,
    IntToDouble(a) => a as f64,
    IntToString(a) => text::format(format_args!("{a}")),
    // ASCII digits in a base, blanks around them ignored.
    IntFromBytes | BytesToInt(b, base) => {
        let raw = b.to_vec();
        let base = match base {
            2..=36 => base as u32,
            _ => {
                let msg = format!("{}: base {base} outside 2..=36", op.mnemonic());
                return Err(RtError::value(msg));
            }
        };
        let s = std::str::from_utf8(&raw)
            .map_err(|_| RtError::value("non-UTF8 digits"))?
            .trim();
        i64::from_str_radix(s, base)
            .map_err(|_| RtError::value(format!("bad integer literal {s:?}")))?
    },
    // Booleans.
    BoolAnd(a, b) => a && b,
    BoolOr(a, b) => a || b,
    BoolNot(a) => !a,
    BoolXor(a, b) => a ^ b,
    // Doubles. An integer operand reads as its double.
    DoubleAdd(a, b) => a + b,
    DoubleSub(a, b) => a - b,
    DoubleMul(a, b) => a * b,
    DoubleDiv(a, b) => a / nonzero(b, "division by zero")?,
    DoubleLt(a, b) => a < b,
    DoubleGt(a, b) => a > b,
    DoubleLeq(a, b) => a <= b,
    DoubleGeq(a, b) => a >= b,
    DoubleAbs(a) => a.abs(),
    DoubleToInt(a) => a as i64,
    // Strings. Lengths and positions count characters, `find` bytes. A
    // string result is built with one allocation (`hilti_rt::text`).
    StringConcat(a, b) => text::concat(&[a, b]),
    StringLength(s) => s.chars().count() as i64,
    StringFind(hay, needle) => hay.find(needle).map_or(-1, |p| p as i64),
    StringSubstr(s, from, len) => Rc::from(text::substr(s, from.max(0) as usize, len.max(0) as usize)),
    StringToBytes(s) => Bytes::frozen_from_slice(s.as_bytes()),
    StringToInt(s) => s
        .trim()
        .parse::<i64>()
        .map_err(|_| RtError::value("bad integer literal"))?,
    StringUpper(s) => text::to_upper(s),
    StringLower(s) => text::to_lower(s),
    StringStartsWith(s, prefix) => s.starts_with(prefix),
    // Bytes. `sub` copies the range between two iterators into new frozen
    // bytes; `to_string` decodes what is available, lossily; `sub_string`
    // decodes the range `sub` copies, as `to_string` would, and builds no
    // bytes on the way.
    BytesLength(b) => b.len() as i64,
    BytesSub(from, to) => from.bytes().sub(from.offset(), to.offset())?,
    BytesSubString(from, to) => from.bytes().with_range(from.offset(), to.offset(), text::lossy)?,
    BytesTrim(b, to) => b.trim(to.offset())?,
    BytesToString(b) => b.with_available(b.begin_offset(), text::lossy)?,
    BytesBegin(b) => b.begin(),
    BytesEnd(b) => b.end(),
    BytesAt(b, off) => b.iter_at(off as u64),
    // Bytes iterators. A negative count advances by nothing; a deref
    // raises `WouldBlock` at the frontier of open input and `IndexError`
    // past a frozen end. An unpack reads the unsigned big- or
    // little-endian integer in the `n` bytes at `it` (1 to 8, wrapping
    // into `int<64>`) without stepping, and raises where the first of `n`
    // derefs to fail would.
    IterIncr(&mut it, n) => it.advance_by(n.max(0) as u64),
    IterDeref(it) => i64::from(it.deref()?),
    IterUnpackBe(it, n) => u64::from_be_bytes(unpack(op, it, n, true)?) as i64,
    IterUnpackLe(it, n) => u64::from_le_bytes(unpack(op, it, n, false)?) as i64,
    IterOffset(it) => it.offset() as i64,
    IterDiff(a, b) => a.distance(b)? as i64,
    IterAtFrozenEnd(it) => it.at_frozen_end(),
    IterWouldBlock(it) => it.would_block(),
    // Addresses, networks and ports. A mask length clamps to 0..=128.
    AddrFamily(a) => if a.is_v4() { 4 } else { 6 },
    AddrMask(a, len) => a.mask(len.clamp(0, 128) as u8),
    NetContains(n, a) => n.contains(&a),
    NetFamily(n) => if n.prefix().is_v4() { 4 } else { 6 },
    NetPrefix(n) => n.prefix(),
    NetLength(n) => i64::from(n.len()),
    PortProtocol(p) => text::format(format_args!("{}", p.protocol)),
    PortNumber(p) => i64::from(p.number),
    // Times and intervals, at nanosecond resolution; arithmetic saturates.
    TimeAdd(t, i) => t + i,
    TimeSubTime(a, b) => a - b,
    TimeSubInterval(t, i) => t - i,
    TimeLt(a, b) => a < b,
    TimeGt(a, b) => a > b,
    TimeFromDouble(d) => Time::from_secs_f64(d),
    TimeToDouble(t) => t.as_secs_f64(),
    TimeNsecs(t) => t.nanos() as i64,
    IntervalAdd(a, b) => a + b,
    IntervalSub(a, b) => a - b,
    IntervalLt(a, b) => a < b,
    IntervalGt(a, b) => a > b,
    IntervalFromDouble(d) => Interval::from_secs_f64(d),
    IntervalToDouble(i) => i.as_secs_f64(),
    IntervalNsecs(i) => i.nanos(),
    // Regular expressions: the length of the longest match anchored at the
    // start, or -1.
    RegexpMatchPrefix(re, data) => match re.match_prefix(&data.to_vec()) {
        MatchVerdict::Match { len, .. } => len as i64,
        MatchVerdict::NoMatch => -1,
    },
    // Any values. `select` copies the operand it picks; `deepcopy` copies
    // through the portable form, so it raises where that does.
    Equal(a, b) => a.equals(b),
    Unequal(a, b) => !a.equals(b),
    Select(cond, a, b) => if cond { a.clone() } else { b.clone() },
    DeepCopy(v) => Value::from_portable(&v.to_portable()?),
    StringRender(v) => {
        let mut out = StrBuf::new();
        v.render_into(&mut out);
        out.finish()
    },
    BytesFreeze(b) => b.freeze(),
    BytesUnfreeze(b) => b.unfreeze(),
    BytesIsFrozen(b) => b.is_frozen(),
    BytesCopy(b) => b.deep_copy(),
    // Lists. A pop or a peek at an empty list raises `IndexError`.
    ListPushBack | ListAppend(l, v) => l.borrow_mut().push_back(v.clone()),
    ListPushFront(l, v) => l.borrow_mut().push_front(v.clone()),
    ListPopFront(l) => l
        .borrow_mut()
        .pop_front()
        .ok_or_else(|| RtError::index("pop from empty list"))?,
    ListPopBack(l) => l
        .borrow_mut()
        .pop_back()
        .ok_or_else(|| RtError::index("pop from empty list"))?,
    ListFront(l) => l
        .borrow()
        .front()
        .cloned()
        .ok_or_else(|| RtError::index("front of empty list"))?,
    ListBack(l) => l
        .borrow()
        .back()
        .cloned()
        .ok_or_else(|| RtError::index("back of empty list"))?,
    ListLength(l) => l.borrow().len() as i64,
    ListClear(l) => l.borrow_mut().clear(),
    // Vectors. A negative index reads as 0; past the end raises.
    VectorPushBack(x, v) => x.borrow_mut().push(v.clone()),
    VectorPopBack(x) => x
        .borrow_mut()
        .pop()
        .ok_or_else(|| RtError::index("pop from empty vector"))?,
    VectorGet(x, i) => x
        .borrow()
        .get(i.max(0) as usize)
        .cloned()
        .ok_or_else(|| RtError::index(format!("vector index {i} out of range")))?,
    VectorSet(x, i, v) => {
        let i = i.max(0) as usize;
        let mut x = x.borrow_mut();
        let slot = x
            .get_mut(i)
            .ok_or_else(|| RtError::index(format!("vector index {i} out of range")))?;
        *slot = v.clone();
    },
    VectorLength(x) => x.borrow().len() as i64,
    VectorReserve(x, n) => x.borrow_mut().reserve(n.max(0) as usize),
    VectorClear(x) => x.borrow_mut().clear(),
    // Sets and maps, keyed by `HashKey`: a key that is not keyable raises
    // before the container is touched, and so does an insert over the
    // heap budget. Inserts and lookups read the network time, which
    // refreshes an entry under `ExpireStrategy::Access`; a timeout
    // registers the container for expiry with the context. Keys list in
    // key order.
    SetInsert(s, k) => {
        let k = HashKey::owned(k)?;
        s.borrow_mut().try_insert(k, ctx.global_time())?;
    },
    SetExists(s, k) => s.borrow_mut().exists(&HashKey::probe(k)?, ctx.global_time()),
    SetRemove(s, k) => s.borrow_mut().remove(&HashKey::probe(k)?),
    SetSize(s) => s.borrow().len() as i64,
    SetTimeout(s, strategy, timeout) => {
        s.borrow_mut().set_timeout(expire_strategy(strategy)?, timeout);
        ctx.register_expiring(ExpiringHandle::Set(s.clone()))
    },
    SetClear(s) => s.borrow_mut().clear(),
    SetMembers(s) => Rc::new(RefCell::new(HashKey::sorted(s.borrow().iter()).into())),
    MapInsert(m, k, v) => {
        let k = HashKey::owned(k)?;
        m.borrow_mut().try_insert(k, v.clone(), ctx.global_time())?;
    },
    MapGet(m, k) => m
        .borrow_mut()
        .get(&HashKey::probe(k)?, ctx.global_time())
        .cloned()
        .ok_or_else(|| RtError::index("no such map element"))?,
    MapGetDefault(m, k, default) => m
        .borrow_mut()
        .get(&HashKey::probe(k)?, ctx.global_time())
        .cloned()
        .unwrap_or_else(|| default.clone()),
    MapExists(m, k) => m.borrow().contains(&HashKey::probe(k)?),
    MapRemove(m, k) => m.borrow_mut().remove(&HashKey::probe(k)?).is_some(),
    MapSize(m) => m.borrow().len() as i64,
    MapTimeout(m, strategy, timeout) => {
        m.borrow_mut().set_timeout(expire_strategy(strategy)?, timeout);
        ctx.register_expiring(ExpiringHandle::Map(m.clone()))
    },
    MapClear(m) => m.borrow_mut().clear(),
    MapKeys(m) => {
        let keys = HashKey::sorted(m.borrow().iter().map(|(k, _)| k));
        Rc::new(RefCell::new(keys.into()))
    },
}

/// Whether `op`'s row runs inline in the VM's fast loop, as every row over
/// scalar kinds does. A row that reads or yields `any` or a container
/// borrows a shared value and costs more than a call, so it runs out of
/// line, and the fast loop inlines no more rows than the scalar ones.
const fn inline_row(op: Opcode) -> bool {
    let Some((params, result)) = op.signature() else {
        return false;
    };
    let mut i = 0;
    while i < params.len() {
        if !params[i].is_scalar() {
            return false;
        }
        i += 1;
    }
    result.is_scalar()
}

/// The `n` bytes at `it` for `op`, an `iterator.unpack_*`: at the low end of
/// eight in big-endian order (`be`), else at the start.
#[inline(always)]
fn unpack(op: Opcode, it: &BytesIter, n: i64, be: bool) -> RtResult<[u8; 8]> {
    let n = match n {
        1..=8 => n as usize,
        _ => {
            let msg = format!("{}: width {n} outside 1..=8", op.mnemonic());
            return Err(RtError::value(msg));
        }
    };
    let mut buf = [0u8; 8];
    let window = if be { &mut buf[8 - n..] } else { &mut buf[..n] };
    it.bytes().read_into(it.offset(), window)?;
    Ok(buf)
}

/// `b`, or the `ArithmeticError` `what` when it is zero.
fn nonzero<T: Default + PartialEq>(b: T, what: &'static str) -> RtResult<T> {
    if b == T::default() {
        Err(RtError::arithmetic(what))
    } else {
        Ok(b)
    }
}

/// Evaluates one data instruction and returns the value it produces.
///
/// `args` are the value operands, read where they live: the VM points into
/// the frame's slots, the global array and the function's constant table, so
/// an instruction that only inspects an operand never touches its reference
/// count, and one that keeps it (a store into a container) clones exactly
/// that one. `idents` carries the constant operands that are not values
/// (struct fields, overlay names, ...), passed through from the IR. Timer
/// callables that come due are handed to [`ExecCtx::fire`].
pub fn eval(
    op: Opcode,
    args: &[&Value],
    idents: &[String],
    ctx: &mut dyn ExecCtx,
) -> RtResult<Value> {
    use Opcode::*;
    Ok(match op {
        // --- generic -----------------------------------------------------
        Assign => {
            arity(args, 1, op)?;
            args[0].clone()
        }

        // --- typed rows --------------------------------------------------
        typed_opcode!() => apply(op, args, ctx)?,

        // --- bitsets (int<64> with named bits) -----------------------------
        BitsetSet => bin_int(args, op, |a, b| Ok(a | (1 << (b & 63))))?,
        BitsetClear => bin_int(args, op, |a, b| Ok(a & !(1 << (b & 63))))?,
        BitsetHas => bin_int_cmp(args, op, |a, b| a & (1 << (b & 63)) != 0)?,

        // --- strings -------------------------------------------------------
        StringFmt => {
            // fmt string with `{}` placeholders + values.
            arity_min(args, 1, op)?;
            let mut pieces = args[0].as_str()?.split("{}");
            let mut values = args[1..].iter();
            let mut out = StrBuf::new();
            out.push_str(pieces.next().unwrap_or_default());
            for piece in pieces {
                let v = values
                    .next()
                    .ok_or_else(|| RtError::value("string.fmt: more placeholders than values"))?;
                v.render_into(&mut out);
                out.push_str(piece);
            }
            Value::String(out.finish())
        }
        // --- bytes ---------------------------------------------------------
        BytesAppend => {
            arity(args, 2, op)?;
            let data = match args[1] {
                Value::Bytes(b) => b.to_vec(),
                Value::String(s) => s.as_bytes().to_vec(),
                other => {
                    return Err(RtError::type_error(format!(
                        "bytes.append needs bytes/string, got {}",
                        other.type_name()
                    )))
                }
            };
            args[0].as_bytes()?.append(&data)?;
            Value::Null
        }
        BytesFind => {
            // (bytes, needle, from_iter) → tuple(bool found, iter pos).
            arity(args, 3, op)?;
            let hay = args[0].as_bytes()?;
            let needle = match args[1] {
                Value::Bytes(b) => b.to_vec(),
                Value::String(s) => s.as_bytes().to_vec(),
                other => {
                    return Err(RtError::type_error(format!(
                        "bytes.find needs bytes/string needle, got {}",
                        other.type_name()
                    )))
                }
            };
            let from = args[2].as_bytes_iter()?;
            match hay.find(from.offset(), &needle)? {
                Some(pos) => Value::Tuple(Rc::new([
                    Value::Bool(true),
                    Value::BytesIter(hay.iter_at(pos)),
                ])),
                None => Value::Tuple(Rc::new([Value::Bool(false), Value::BytesIter(hay.end())])),
            }
        }
        BytesStartsWith => {
            arity(args, 2, op)?;
            let b = args[0].as_bytes()?;
            let prefix = match args[1] {
                Value::Bytes(p) => p.to_vec(),
                Value::String(s) => s.as_bytes().to_vec(),
                other => {
                    return Err(RtError::type_error(format!(
                        "bytes.starts_with needs bytes/string, got {}",
                        other.type_name()
                    )))
                }
            };
            let avail = b.extract(
                b.begin_offset(),
                b.begin_offset() + (prefix.len() as u64).min(b.len() as u64),
            )?;
            Value::Bool(avail.len() >= prefix.len() && avail == prefix)
        }
        BytesEod => {
            // (iter) -> bytes from the iterator to the end of *frozen*
            // input; raises WouldBlock while the input is still open. The
            // retry-on-resume fiber semantics make this the
            // "read until end of data" primitive for generated parsers.
            arity(args, 1, op)?;
            let it = args[0].as_bytes_iter()?;
            let b = it.bytes();
            if !b.is_frozen() {
                return Err(RtError::would_block());
            }
            let rest = b.sub(it.offset().min(b.end_offset()), b.end_offset())?;
            Value::Tuple(Rc::new([Value::Bytes(rest), Value::BytesIter(b.end())]))
        }

        // --- enums -------------------------------------------------------------
        EnumFromInt => {
            arity(args, 1, op)?;
            let name = idents
                .first()
                .ok_or_else(|| RtError::type_error("enum.from_int needs a type ident"))?;
            Value::Enum(Rc::from(name.as_str()), args[0].as_int()?)
        }
        EnumToInt => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Enum(_, v) => Value::Int(*v),
                other => {
                    return Err(RtError::type_error(format!(
                        "enum.to_int needs enum, got {}",
                        other.type_name()
                    )))
                }
            }
        }

        // --- tuples -------------------------------------------------------------
        TupleGet => {
            arity(args, 2, op)?;
            let t = args[0].as_tuple()?;
            let i = args[1].as_int()?;
            let v = t
                .get(i.max(0) as usize)
                .ok_or_else(|| RtError::index(format!("tuple index {i} out of range")))?;
            v.clone()
        }
        TupleLength => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_tuple()?.len() as i64)
        }
        TuplePack => Value::Tuple(args.iter().map(|v| (*v).clone()).collect()),

        // --- structs --------------------------------------------------------------------
        StructGet => {
            arity(args, 1, op)?;
            let field = idents
                .first()
                .ok_or_else(|| RtError::type_error("struct.get needs a field ident"))?;
            struct_get(args[0], field, |t| struct_field_index(ctx, t, field))?
        }
        StructSet => {
            arity(args, 2, op)?;
            let field = idents
                .first()
                .ok_or_else(|| RtError::type_error("struct.set needs a field ident"))?;
            struct_set(args[0], args[1].clone(), |t| {
                struct_field_index(ctx, t, field)
            })?;
            Value::Null
        }
        StructIsSet => {
            arity(args, 1, op)?;
            let s = as_struct(args[0])?.borrow();
            let field = idents
                .first()
                .ok_or_else(|| RtError::type_error("struct.is_set needs a field ident"))?;
            let idx = struct_field_index(ctx, &s.type_name, field)?;
            Value::Bool(!matches!(s.fields[idx], Value::Null))
        }
        StructUnset => {
            arity(args, 1, op)?;
            let rc = as_struct(args[0])?;
            let field = idents
                .first()
                .ok_or_else(|| RtError::type_error("struct.unset needs a field ident"))?;
            let idx = {
                let s = rc.borrow();
                struct_field_index(ctx, &s.type_name, field)?
            };
            rc.borrow_mut().fields[idx] = Value::Null;
            Value::Null
        }

        // --- classifier --------------------------------------------------------------------
        ClassifierAdd => {
            // (classifier, tuple-of-fields, value)
            arity(args, 3, op)?;
            let fields = classifier_fields(args[1])?;
            as_classifier(args[0])?
                .borrow_mut()
                .add(fields, args[2].clone())?;
            Value::Null
        }
        ClassifierAddPrio => {
            arity(args, 4, op)?;
            let fields = classifier_fields(args[1])?;
            as_classifier(args[0])?.borrow_mut().add_with_priority(
                fields,
                args[2].clone(),
                args[3].as_int()?,
            )?;
            Value::Null
        }
        ClassifierCompile => {
            arity(args, 1, op)?;
            as_classifier(args[0])?.borrow_mut().compile();
            Value::Null
        }
        ClassifierGet => {
            arity(args, 2, op)?;
            let c = as_classifier(args[0])?.borrow();
            with_classifier_key(args[1], |key| c.get(key))?
        }
        ClassifierMatches => {
            arity(args, 2, op)?;
            let c = as_classifier(args[0])?.borrow();
            let hit = with_classifier_key(args[1], |key| c.matches(key))?;
            Value::Bool(hit.is_some())
        }
        ClassifierSize => {
            arity(args, 1, op)?;
            Value::Int(as_classifier(args[0])?.borrow().len() as i64)
        }

        // --- regexp --------------------------------------------------------------------------
        RegexpNew => {
            // Patterns come through idents (one per pattern).
            if idents.is_empty() {
                return Err(RtError::pattern("regexp.new needs pattern constants"));
            }
            let pats: Vec<&str> = idents.iter().map(String::as_str).collect();
            Value::Regexp(Regex::set(&pats)?)
        }
        RegexpFind => {
            arity(args, 2, op)?;
            let re = args[0].as_regexp()?;
            let data = args[1].as_bytes()?.to_vec();
            match re.find(&data) {
                Some((pos, pat, len)) => Value::Tuple(Rc::new([
                    Value::Int(pos as i64),
                    Value::Int(pat as i64),
                    Value::Int(len as i64),
                ])),
                None => Value::Tuple(Rc::new([Value::Int(-1), Value::Int(-1), Value::Int(0)])),
            }
        }
        RegexpMatchToken => {
            arity(args, 2, op)?;
            let (id, end) = match_token(args[0], args[1])?;
            Value::Tuple(Rc::new([Value::Int(id), Value::BytesIter(end)]))
        }
        RegexpMatcherInit => {
            arity(args, 1, op)?;
            let re = args[0].as_regexp()?;
            Value::Matcher(Rc::new(RefCell::new(re.matcher())))
        }
        RegexpMatcherFeed => {
            arity(args, 2, op)?;
            let m = match args[0] {
                Value::Matcher(m) => m,
                other => return Err(other.type_err("matcher")),
            };
            let data = args[1].as_bytes()?.to_vec();
            let status = m.borrow_mut().feed(&data);
            Value::Int(match status {
                hilti_rt::regexp::MatchStatus::Failed => 0,
                hilti_rt::regexp::MatchStatus::Ongoing => 1,
            })
        }
        RegexpMatcherFinish => {
            arity(args, 1, op)?;
            let m = match args[0] {
                Value::Matcher(m) => m,
                other => return Err(other.type_err("matcher")),
            };
            match m.borrow().finish() {
                MatchVerdict::Match { pattern, len } => Value::Tuple(Rc::new([
                    Value::Int(pattern as i64),
                    Value::Int(len as i64),
                ])),
                MatchVerdict::NoMatch => Value::Tuple(Rc::new([Value::Int(-1), Value::Int(0)])),
            }
        }

        // --- channels -----------------------------------------------------------------------
        ChannelWrite => {
            arity(args, 2, op)?;
            match args[0] {
                Value::Channel(c) => {
                    c.write(&args[1].to_portable()?)?;
                    Value::Null
                }
                other => Err(other.type_err("channel"))?,
            }
        }
        ChannelRead => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => Value::from_portable(&c.read()?),
                other => Err(other.type_err("channel"))?,
            }
        }
        ChannelTryRead => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => match c.try_read()? {
                    Some(p) => Value::Tuple(Rc::new([Value::Bool(true), Value::from_portable(&p)])),
                    None => Value::Tuple(Rc::new([Value::Bool(false), Value::Null])),
                },
                other => Err(other.type_err("channel"))?,
            }
        }
        ChannelSize => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => Value::Int(c.len() as i64),
                other => Err(other.type_err("channel"))?,
            }
        }
        ChannelClose => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => {
                    c.close();
                    Value::Null
                }
                other => Err(other.type_err("channel"))?,
            }
        }

        // --- timers -------------------------------------------------------------------------
        TimerMgrAdvance => {
            arity(args, 2, op)?;
            let mgr = as_timer_mgr(args[0])?;
            let t = args[1].as_time()?;
            let fired = mgr.borrow_mut().advance(t);
            for action in fired {
                ctx.fire(action);
            }
            Value::Null
        }
        TimerMgrAdvanceGlobal => {
            arity(args, 1, op)?;
            let t = args[0].as_time()?;
            ctx.set_global_time(t);
            ctx.advance_expiring(t);
            Value::Null
        }
        TimerMgrSchedule => {
            // (mgr, time, callable) → the manager's id of the timer.
            arity(args, 3, op)?;
            let mgr = as_timer_mgr(args[0])?;
            let t = args[1].as_time()?;
            let c = as_callable(args[2])?;
            let TimerId(id) = mgr.borrow_mut().schedule(t, (**c).clone());
            Value::Int(id as i64)
        }
        TimerMgrCancel => {
            // (mgr, id) → whether a pending timer was cancelled.
            arity(args, 2, op)?;
            let mgr = as_timer_mgr(args[0])?;
            let id = TimerId(args[1].as_int()? as u64);
            Value::Bool(mgr.borrow_mut().cancel(id))
        }
        TimerMgrCurrent => {
            arity(args, 1, op)?;
            Value::Time(as_timer_mgr(args[0])?.borrow().now())
        }
        TimerMgrGlobalTime => {
            arity(args, 0, op)?;
            Value::Time(ctx.global_time())
        }
        TimerMgrSize => {
            arity(args, 1, op)?;
            Value::Int(as_timer_mgr(args[0])?.borrow().len() as i64)
        }
        TimerNew | TimerCancel => {
            return Err(RtError::type_error(
                "standalone timers are managed through timer_mgr.schedule",
            ))
        }

        // --- callables ------------------------------------------------------------------------
        CallableBind => {
            // idents[0] = function name; args = bound arguments.
            let func = idents
                .first()
                .ok_or_else(|| RtError::type_error("callable.bind needs a function ident"))?;
            Value::Callable(Rc::new(CallableVal {
                func: Rc::from(func.as_str()),
                bound: args.iter().map(|v| (*v).clone()).collect(),
            }))
        }

        // --- overlays -------------------------------------------------------------------------
        OverlayGet => {
            // idents = [overlay type, field]; args = [bytes, optional base].
            arity_min(args, 1, op)?;
            let (oname, field) = match idents {
                [o, f, ..] => (o, f),
                _ => {
                    return Err(RtError::type_error(
                        "overlay.get needs type and field idents",
                    ))
                }
            };
            let overlay = ctx
                .overlay(oname)
                .ok_or_else(|| RtError::type_error(format!("unknown overlay {oname}")))?;
            let base = match args.get(1) {
                Some(v) => v.as_int()?.max(0) as u64,
                None => args[0].as_bytes()?.begin_offset(),
            };
            let unpacked = overlay.get(args[0].as_bytes()?, base, field)?;
            match unpacked {
                Unpacked::UInt(u) => Value::Int(u as i64),
                Unpacked::Addr(a) => Value::Addr(a),
                Unpacked::Bytes(b) => Value::Bytes(Bytes::frozen_from_slice(&b)),
            }
        }

        // --- files ----------------------------------------------------------------------------
        FileOpen => {
            arity(args, 1, op)?;
            let name = args[0].as_str()?;
            Value::File(ctx.open_file(name))
        }
        FileWrite => {
            arity(args, 2, op)?;
            match args[0] {
                Value::File(f) => {
                    f.write_line(&args[1].render())?;
                    Value::Null
                }
                other => Err(other.type_err("file"))?,
            }
        }
        FileClose => {
            arity(args, 1, op)?;
            Value::Null // files are reference counted; close is advisory
        }

        // --- packet i/o --------------------------------------------------------------------------
        IosrcOpen => {
            arity(args, 1, op)?;
            ctx.open_iosrc(args[0].as_str()?)?
        }
        IosrcRead => {
            arity(args, 1, op)?;
            match args[0] {
                Value::IOSrc(src) => {
                    let next = (src.borrow_mut().producer)();
                    match next {
                        Some((t, data)) => Value::Tuple(Rc::new([
                            Value::Bool(true),
                            Value::Time(t),
                            Value::Bytes(Bytes::frozen_from_slice(&data)),
                        ])),
                        None => Value::Tuple(Rc::new([
                            Value::Bool(false),
                            Value::Time(Time::ZERO),
                            Value::Bytes(Bytes::new()),
                        ])),
                    }
                }
                other => Err(other.type_err("iosrc"))?,
            }
        }

        // --- threads ------------------------------------------------------------------------------
        ThreadSchedule => {
            // (int vthread id, callable)
            arity(args, 2, op)?;
            let tid = args[0].as_int()? as u64;
            let c = as_callable(args[1])?;
            ctx.schedule_thread(tid, (**c).clone())?;
            Value::Null
        }
        ThreadId => {
            arity(args, 0, op)?;
            Value::Int(ctx.thread_id() as i64)
        }

        // --- profiling ------------------------------------------------------------------------------
        ProfilerStart => {
            let name = idents.first().map(String::as_str).unwrap_or("default");
            ctx.profiler_start(name);
            Value::Null
        }
        ProfilerStop => {
            let name = idents.first().map(String::as_str).unwrap_or("default");
            ctx.profiler_stop(name);
            Value::Null
        }
        ProfilerCount => {
            arity(args, 1, op)?;
            let name = idents.first().map(String::as_str).unwrap_or("default");
            ctx.profiler_count(name, args[0].as_int()?.max(0) as u64);
            Value::Null
        }
        ProfilerTime => {
            let name = idents.first().map(String::as_str).unwrap_or("default");
            Value::Int(ctx.profiler_time(name) as i64)
        }

        // --- debug -----------------------------------------------------------------------------------
        DebugPrint => {
            ctx.output(Value::render_joined(args, ", "));
            Value::Null
        }
        DebugAssert => {
            arity_min(args, 1, op)?;
            if !args[0].as_bool()? {
                let msg = args
                    .get(1)
                    .map(|v| v.render())
                    .unwrap_or_else(|| "assertion failed".into());
                return Err(RtError::runtime(msg));
            }
            Value::Null
        }
        DebugInternalError => {
            let msg = args
                .first()
                .map(|v| v.render())
                .unwrap_or_else(|| "internal error".into());
            return Err(RtError::runtime(msg));
        }

        // --- exceptions ---------------------------------------------------------------------------------
        ExceptionThrow => {
            let kind = idents
                .first()
                .map(String::as_str)
                .unwrap_or("Hilti::RuntimeError");
            let msg = args.first().map(|v| v.render()).unwrap_or_default();
            return Err(RtError::new(exception_kind_from_name(kind), msg));
        }
        ExceptionKindOf => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Exception(e) => Value::str(e.kind.name()),
                other => Err(other.type_err("exception"))?,
            }
        }
        ExceptionMessage => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Exception(e) => Value::str(&e.message),
                other => Err(other.type_err("exception"))?,
            }
        }

        // --- handled by the engines ------------------------------------------------------------------------
        Call | CallC | CallVoid | Yield | New | HookRun | HookRunVoid | CallableCall
        | CallableCallVoid | PushHandler | PopHandler => {
            return Err(RtError::type_error(format!(
                "{} must be handled by the execution engine",
                op.mnemonic()
            )))
        }
    })
}

/// `regexp.match_token re it`: the longest anchored match of `re` at `it`,
/// as (pattern index or -1, iterator after the match — `it` itself when
/// nothing matched). Raises `WouldBlock` while the match could still extend
/// and the input is open — what makes a BinPAC++ parser suspend its fiber
/// mid-token (§3.2, §4). The generic arm packs the pair into a tuple; the
/// VM's `MatchToken` writes it into two slots. Never inlined: the match
/// outweighs a call, and the VM's fast loop stays small for the
/// instructions around it.
#[inline(never)]
pub fn match_token(re: &Value, it: &Value) -> RtResult<(i64, BytesIter)> {
    let re = re.as_regexp()?;
    let it = it.as_bytes_iter()?;
    let bytes = it.bytes();
    let (verdict, can_extend) = bytes.with_available(it.offset(), |slice| re.match_token(slice))?;
    if can_extend && !bytes.is_frozen() {
        return Err(RtError::would_block());
    }
    Ok(match verdict {
        MatchVerdict::Match { pattern, len } => (pattern as i64, it.advance(len)),
        MatchVerdict::NoMatch => (-1, it.clone()),
    })
}

#[inline]
fn bin_int(
    args: &[&Value],
    op: Opcode,
    f: impl FnOnce(i64, i64) -> RtResult<i64>,
) -> RtResult<Value> {
    arity(args, 2, op)?;
    Ok(Value::Int(f(args[0].as_int()?, args[1].as_int()?)?))
}

#[inline]
fn bin_int_cmp(args: &[&Value], op: Opcode, f: impl FnOnce(i64, i64) -> bool) -> RtResult<Value> {
    arity(args, 2, op)?;
    Ok(Value::Bool(f(args[0].as_int()?, args[1].as_int()?)))
}

fn expire_strategy(v: &Value) -> RtResult<ExpireStrategy> {
    match v {
        Value::Int(0) => Ok(ExpireStrategy::Create),
        Value::Int(1) => Ok(ExpireStrategy::Access),
        Value::Enum(name, idx) if name.contains("ExpireStrategy") => match idx {
            0 => Ok(ExpireStrategy::Create),
            _ => Ok(ExpireStrategy::Access),
        },
        Value::String(s) => match &**s {
            "Create" | "create" => Ok(ExpireStrategy::Create),
            "Access" | "access" => Ok(ExpireStrategy::Access),
            other => Err(RtError::value(format!("unknown expire strategy {other}"))),
        },
        other => Err(other.type_err("expire strategy")),
    }
}

/// Resolves a field name to its slot through the program's type table:
/// the one place a struct field is looked up by name. The interpreter calls
/// it per access; compiled code calls it when a field site's cache misses.
pub(crate) fn struct_field_index(
    ctx: &dyn ExecCtx,
    type_name: &str,
    field: &str,
) -> RtResult<usize> {
    ctx.struct_layout(type_name)
        .ok_or_else(|| RtError::type_error(format!("unknown struct type {type_name}")))?
        .index_of(field)
        .ok_or_else(|| RtError::index(format!("struct {type_name} has no field {field}")))
}

/// `struct.get`: reading an unset field raises. `index` maps the struct's
/// type name to the field's slot.
pub(crate) fn struct_get(
    obj: &Value,
    field: &str,
    index: impl FnOnce(&Rc<str>) -> RtResult<usize>,
) -> RtResult<Value> {
    let s = as_struct(obj)?.borrow();
    let idx = index(&s.type_name)?;
    match &s.fields[idx] {
        Value::Null => Err(RtError::new(
            ExceptionKind::IndexError,
            format!("field {field} is unset"),
        )),
        v => Ok(v.clone()),
    }
}

/// `struct.set`, with `index` as for [`struct_get`].
pub(crate) fn struct_set(
    obj: &Value,
    value: Value,
    index: impl FnOnce(&Rc<str>) -> RtResult<usize>,
) -> RtResult<()> {
    let rc = as_struct(obj)?;
    let idx = index(&rc.borrow().type_name)?;
    rc.borrow_mut().fields[idx] = value;
    Ok(())
}

fn classifier_fields(v: &Value) -> RtResult<Vec<FieldMatcher>> {
    match v {
        Value::Tuple(t) => t.iter().map(to_field_matcher).collect(),
        single => Ok(vec![to_field_matcher(single)?]),
    }
}

/// Runs a lookup on the key a tuple (or single value) stands for. The key
/// lives in stack scratch: a lookup per packet must not allocate.
fn with_classifier_key<R>(
    v: &Value,
    lookup: impl FnOnce(&[FieldValue]) -> RtResult<R>,
) -> RtResult<R> {
    let fields = match v {
        Value::Tuple(t) => &t[..],
        single => std::slice::from_ref(single),
    };
    with_scratch(fields.len(), FieldValue::Int(0), |key| {
        for (k, f) in key.iter_mut().zip(fields) {
            *k = to_field_value(f)?;
        }
        lookup(key)
    })
}

/// Maps a textual exception name (`Hilti::IndexError`) to its kind.
pub fn exception_kind_from_name(name: &str) -> ExceptionKind {
    match name {
        "Hilti::IndexError" | "IndexError" => ExceptionKind::IndexError,
        "Hilti::ValueError" | "ValueError" => ExceptionKind::ValueError,
        "Hilti::ArithmeticError" | "ArithmeticError" => ExceptionKind::ArithmeticError,
        "Hilti::InvalidIterator" | "InvalidIterator" => ExceptionKind::InvalidIterator,
        "Hilti::WouldBlock" | "WouldBlock" => ExceptionKind::WouldBlock,
        "Hilti::Frozen" | "Frozen" => ExceptionKind::Frozen,
        "Hilti::PatternError" | "PatternError" => ExceptionKind::PatternError,
        "Hilti::ChannelError" | "ChannelError" => ExceptionKind::ChannelError,
        "Hilti::TypeError" | "TypeError" => ExceptionKind::TypeError,
        "Hilti::ResourceExhausted" | "ResourceExhausted" => ExceptionKind::ResourceExhausted,
        "Hilti::IoError" | "IoError" => ExceptionKind::IoError,
        _ => ExceptionKind::RuntimeError,
    }
}

/// Wraps an error into a caught-exception value for `catch` binders.
pub fn exception_value(err: &RtError) -> Value {
    Value::Exception(Rc::new(ExceptionVal {
        kind: err.kind,
        message: err.message.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Opcode::*;
    use std::collections::HashMap;

    /// A minimal in-memory context for exercising the semantics directly.
    struct TestCtx {
        out: Vec<String>,
        time: Time,
        expiring: Vec<ExpiringHandle>,
        structs: HashMap<String, StructLayout>,
        files: HashMap<String, LogFile>,
        fired: Vec<CallableVal>,
    }

    impl TestCtx {
        fn new() -> TestCtx {
            let mut structs = HashMap::new();
            structs.insert(
                "Conn".to_owned(),
                StructLayout::new("Conn", vec!["orig".to_owned(), "resp".to_owned()]),
            );
            TestCtx {
                out: Vec::new(),
                time: Time::ZERO,
                expiring: Vec::new(),
                structs,
                files: HashMap::new(),
                fired: Vec::new(),
            }
        }
    }

    impl ExecCtx for TestCtx {
        fn output(&mut self, line: String) {
            self.out.push(line);
        }
        fn global_time(&self) -> Time {
            self.time
        }
        fn set_global_time(&mut self, t: Time) {
            self.time = t;
        }
        fn register_expiring(&mut self, handle: ExpiringHandle) {
            self.expiring.push(handle);
        }
        fn advance_expiring(&mut self, t: Time) {
            for h in &self.expiring {
                h.expire(t);
            }
        }
        fn struct_layout(&self, name: &str) -> Option<&StructLayout> {
            self.structs.get(name)
        }
        fn overlay(&self, _name: &str) -> Option<Rc<OverlayType>> {
            Some(Rc::new(OverlayType::ipv4_header()))
        }
        fn open_file(&mut self, name: &str) -> LogFile {
            self.files
                .entry(name.to_owned())
                .or_insert_with(|| LogFile::in_memory(name))
                .clone()
        }
        fn open_iosrc(&mut self, _name: &str) -> RtResult<Value> {
            Err(RtError::io("no sources in tests"))
        }
        fn schedule_thread(&mut self, _tid: u64, _c: CallableVal) -> RtResult<()> {
            Ok(())
        }
        fn thread_id(&self) -> u64 {
            7
        }
        fn fire(&mut self, callable: CallableVal) {
            self.fired.push(callable);
        }
        fn profiler_start(&mut self, _n: &str) {}
        fn profiler_stop(&mut self, _n: &str) {}
        fn profiler_count(&mut self, _n: &str, _v: u64) {}
        fn profiler_time(&self, _n: &str) -> u64 {
            0
        }
    }

    /// `ops::eval` over owned operands.
    fn eval(
        op: crate::ir::Opcode,
        args: &[Value],
        idents: &[String],
        ctx: &mut TestCtx,
    ) -> RtResult<Value> {
        let refs: Vec<&Value> = args.iter().collect();
        super::eval(op, &refs, idents, ctx)
    }

    fn run(op: crate::ir::Opcode, args: &[Value]) -> RtResult<Value> {
        eval(op, args, &[], &mut TestCtx::new())
    }

    fn run_idents(op: crate::ir::Opcode, args: &[Value], idents: &[&str]) -> RtResult<Value> {
        let mut ctx = TestCtx::new();
        let idents: Vec<String> = idents.iter().map(|s| s.to_string()).collect();
        eval(op, args, &idents, &mut ctx)
    }

    #[test]
    fn arity_is_enforced_everywhere_sampled() {
        for op in [IntAdd, BoolAnd, StringConcat, SetInsert, MapGet, TupleGet] {
            assert!(run(op, &[]).is_err(), "{op:?} with 0 args");
        }
    }

    /// Every opcode of `ir::GROUPS`.
    fn all_ops() -> Vec<Opcode> {
        crate::ir::GROUPS
            .iter()
            .flat_map(|(_, ms)| ms.iter())
            .map(|m| Opcode::from_mnemonic(m).unwrap())
            .collect()
    }

    /// An op has a typed row exactly when it has a signature: a signature
    /// added without a row fails here.
    #[test]
    fn every_signature_is_a_typed_row() {
        let ops = all_ops();
        for op in &ops {
            assert_eq!(
                has_typed_form(*op),
                op.signature().is_some(),
                "{}",
                op.mnemonic()
            );
        }
        assert_eq!(ops.iter().filter(|op| has_typed_form(**op)).count(), 127);
    }

    /// Every container op has a signature, so a container op added
    /// without one fails here.
    #[test]
    fn every_container_op_has_a_signature() {
        let containers = ["Lists", "Vectors/arrays", "Hashsets", "Hashmaps"];
        let ops: Vec<Opcode> = all_ops()
            .into_iter()
            .filter(|op| containers.contains(&op.group()))
            .collect();
        for op in &ops {
            assert!(op.signature().is_some(), "{}", op.mnemonic());
        }
        assert_eq!(ops.len(), 32);
    }

    #[test]
    fn int_semantics() {
        assert!(run(IntAdd, &[Value::Int(i64::MAX), Value::Int(1)])
            .unwrap()
            .equals(&Value::Int(i64::MIN))); // wrapping
        assert!(run(IntDiv, &[Value::Int(7), Value::Int(2)])
            .unwrap()
            .equals(&Value::Int(3)));
        assert_eq!(
            run(IntDiv, &[Value::Int(7), Value::Int(0)])
                .unwrap_err()
                .kind,
            ExceptionKind::ArithmeticError
        );
        assert!(run(IntShr, &[Value::Int(-1), Value::Int(1)])
            .unwrap()
            .equals(&Value::Int((u64::MAX >> 1) as i64))); // logical shift
        assert!(run(
            IntFromBytes,
            &[
                Value::Bytes(Bytes::frozen_from_slice(b"ff")),
                Value::Int(16)
            ]
        )
        .unwrap()
        .equals(&Value::Int(255)));
    }

    #[test]
    fn string_semantics() {
        assert_eq!(
            run(
                StringFmt,
                &[Value::str("a={} b={}"), Value::Int(1), Value::str("x")]
            )
            .unwrap()
            .render(),
            "a=1 b=x"
        );
        assert!(run(StringFmt, &[Value::str("{} {}"), Value::Int(1)]).is_err());
        assert_eq!(
            run(
                StringSubstr,
                &[Value::str("hello"), Value::Int(1), Value::Int(3)]
            )
            .unwrap()
            .render(),
            "ell"
        );
        assert!(
            run(StringStartsWith, &[Value::str("abc"), Value::str("ab")])
                .unwrap()
                .equals(&Value::Bool(true))
        );
    }

    #[test]
    fn bytes_semantics() {
        let b = Bytes::from_slice(b"hello");
        run(
            BytesAppend,
            &[Value::Bytes(b.clone()), Value::str(" world")],
        )
        .unwrap();
        assert_eq!(b.to_vec(), b"hello world");
        run(BytesFreeze, &[Value::Bytes(b.clone())]).unwrap();
        assert_eq!(
            run(BytesAppend, &[Value::Bytes(b.clone()), Value::str("!")])
                .unwrap_err()
                .kind,
            ExceptionKind::Frozen
        );
        // find: (bytes, needle, from) → (found, iter).
        let t = run(
            BytesFind,
            &[
                Value::Bytes(b.clone()),
                Value::str("world"),
                Value::BytesIter(b.begin()),
            ],
        )
        .unwrap();
        let tup = t.as_tuple().unwrap();
        assert!(tup[0].equals(&Value::Bool(true)));
        assert_eq!(tup[1].as_bytes_iter().unwrap().offset(), 6);
    }

    /// The key-identity domain: every keyable kind, strings and bytes of
    /// equal content (one of them in two chunks), an addr inside the net
    /// and one outside, and every 2-tuple over those.
    fn key_domain() -> Vec<Value> {
        use hilti_rt::addr::Port;
        use hilti_rt::bytestring::ArenaSlice;
        let chunked = Bytes::from_arena(ArenaSlice::new(std::sync::Arc::new(*b"x"), 0, 1));
        chunked.append(b"y").unwrap();
        assert_eq!(chunked.chunk_count(), 2);
        let bytes = |b: &[u8]| Value::Bytes(Bytes::frozen_from_slice(b));
        let scalars = vec![
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("x"),
            Value::str("xy"),
            bytes(b""),
            bytes(b"x"),
            bytes(b"xy"),
            Value::Bytes(chunked),
            Value::Addr("10.0.5.1".parse().unwrap()),
            Value::Addr("10.0.6.1".parse().unwrap()),
            Value::Net("10.0.5.0/24".parse().unwrap()),
            Value::Port(Port::tcp(80)),
            Value::Port(Port::udp(53)),
            Value::Time(Time::from_secs(5)),
            Value::Interval(Interval::from_secs(5)),
            Value::Enum(Rc::from("Proto"), 1),
        ];
        let mut domain = scalars.clone();
        for a in &scalars {
            for b in &scalars {
                domain.push(Value::Tuple(Rc::new([a.clone(), b.clone()])));
            }
        }
        domain
    }

    /// `equal a b` when an addr meets a net at the same position: Figure
    /// 4's membership test. `None` when no addr meets a net.
    fn membership(a: &Value, b: &Value) -> Option<bool> {
        match (a, b) {
            (Value::Addr(x), Value::Net(n)) | (Value::Net(n), Value::Addr(x)) => {
                Some(n.contains(x))
            }
            (Value::Tuple(xs), Value::Tuple(ys)) if xs.len() == ys.len() => {
                let per_position: Vec<_> = xs
                    .iter()
                    .zip(ys.iter())
                    .map(|(x, y)| membership(x, y))
                    .collect();
                per_position.iter().any(Option::is_some).then(|| {
                    per_position
                        .iter()
                        .zip(xs.iter().zip(ys.iter()))
                        .all(|(m, (x, y))| m.unwrap_or_else(|| x.equals(y)))
                })
            }
            _ => None,
        }
    }

    /// One key identity: for every ordered pair of the domain, `equal`
    /// holds exactly when a set takes the two as one member (the addr/net
    /// membership test aside), equal keys hash alike, and the key order
    /// is a total order consistent with key equality.
    #[test]
    fn equal_agrees_with_key_identity() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |k: &HashKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        let domain = key_domain();
        let keys: Vec<HashKey> = domain.iter().map(|v| HashKey::probe(v).unwrap()).collect();
        let mut ctx = TestCtx::new();
        let mut exceptions = 0;
        for (a, ka) in domain.iter().zip(&keys) {
            for (b, kb) in domain.iter().zip(&keys) {
                let equal = eval(Equal, &[a.clone(), b.clone()], &[], &mut ctx).unwrap();
                let set = Value::Set(Rc::new(RefCell::new(SetVal::new())));
                eval(SetInsert, &[set.clone(), a.clone()], &[], &mut ctx).unwrap();
                let found = eval(SetExists, &[set.clone(), b.clone()], &[], &mut ctx).unwrap();
                eval(SetInsert, &[set.clone(), b.clone()], &[], &mut ctx).unwrap();
                let size = eval(SetSize, &[set], &[], &mut ctx)
                    .unwrap()
                    .as_int()
                    .unwrap();
                let (equal, found) = (equal.as_bool().unwrap(), found.as_bool().unwrap());
                let same = ka == kb;
                assert_eq!(
                    (found, size),
                    (same, if same { 1 } else { 2 }),
                    "{a:?} / {b:?}"
                );
                match membership(a, b) {
                    Some(member) => {
                        assert!(!same, "an addr and a net are different keys: {a:?} / {b:?}");
                        assert_eq!(equal, member, "{a:?} / {b:?}");
                        exceptions += usize::from(equal);
                    }
                    None => assert_eq!(equal, same, "{a:?} / {b:?}"),
                }
                if same {
                    assert_eq!(hash(ka), hash(kb), "{a:?} / {b:?}");
                }
                assert_eq!(ka.cmp(kb).is_eq(), same, "{a:?} / {b:?}");
                assert_eq!(ka.cmp(kb), kb.cmp(ka).reverse(), "{a:?} / {b:?}");
            }
        }
        assert!(exceptions > 0, "the domain holds an addr inside the net");
        // Total: sorted, every pair compares as its class positions do.
        let mut sorted: Vec<&HashKey> = keys.iter().collect();
        sorted.sort();
        let mut class = vec![0usize; sorted.len()];
        for i in 1..sorted.len() {
            class[i] = class[i - 1] + usize::from(sorted[i - 1] < sorted[i]);
        }
        for (i, ki) in sorted.iter().enumerate() {
            for (j, kj) in sorted.iter().enumerate() {
                assert_eq!(ki.cmp(kj), class[i].cmp(&class[j]), "{ki:?} / {kj:?}");
            }
        }
    }

    #[test]
    fn set_timeout_registers_for_expiry() {
        let mut ctx = TestCtx::new();
        let set = Value::Set(Rc::new(RefCell::new(SetVal::new())));
        eval(
            SetTimeout,
            &[
                set.clone(),
                Value::Int(1),
                Value::Interval(Interval::from_secs(10)),
            ],
            &[],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.expiring.len(), 1);
        eval(SetInsert, &[set.clone(), Value::Int(5)], &[], &mut ctx).unwrap();
        ctx.set_global_time(Time::from_secs(20));
        ctx.advance_expiring(Time::from_secs(20));
        let size = eval(SetSize, &[set], &[], &mut ctx).unwrap();
        assert!(size.equals(&Value::Int(0)));
    }

    #[test]
    fn struct_field_access_by_ident() {
        let mut ctx = TestCtx::new();
        let s = instantiate(&Type::Struct(std::sync::Arc::from("Conn")), &[], &mut ctx).unwrap();
        eval(
            StructSet,
            &[s.clone(), Value::str("A")],
            &["orig".into()],
            &mut ctx,
        )
        .unwrap();
        let v = eval(
            StructGet,
            std::slice::from_ref(&s),
            &["orig".into()],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(v.render(), "A");
        // Unset field raises IndexError.
        assert_eq!(
            eval(
                StructGet,
                std::slice::from_ref(&s),
                &["resp".into()],
                &mut ctx
            )
            .unwrap_err()
            .kind,
            ExceptionKind::IndexError
        );
        let isset = eval(StructIsSet, &[s], &["resp".into()], &mut ctx).unwrap();
        assert!(isset.equals(&Value::Bool(false)));
    }

    #[test]
    fn overlay_get_via_ctx() {
        // 20-byte IPv4 header; ctx supplies the standard overlay.
        let mut hdr = vec![0x45u8, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0];
        hdr.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let v = run_idents(
            OverlayGet,
            &[Value::Bytes(Bytes::frozen_from_slice(&hdr)), Value::Int(0)],
            &["IP::Header", "src"],
        )
        .unwrap();
        assert_eq!(v.render(), "10.0.0.1");
    }

    #[test]
    fn regexp_match_token_would_block_semantics() {
        let re = Regex::new("[a-z]+!").unwrap();
        let open_bytes = Bytes::from_slice(b"abc");
        // Open input, token could extend: WouldBlock.
        let r = run(
            RegexpMatchToken,
            &[
                Value::Regexp(re.clone()),
                Value::BytesIter(open_bytes.begin()),
            ],
        );
        assert_eq!(r.unwrap_err().kind, ExceptionKind::WouldBlock);
        // Frozen: resolves.
        open_bytes.append(b"!").unwrap();
        open_bytes.freeze();
        let v = run(
            RegexpMatchToken,
            &[Value::Regexp(re), Value::BytesIter(open_bytes.begin())],
        )
        .unwrap();
        let t = v.as_tuple().unwrap();
        assert!(t[0].equals(&Value::Int(0)));
        assert_eq!(t[1].as_bytes_iter().unwrap().offset(), 4);
    }

    #[test]
    fn bytes_eod_blocks_until_frozen() {
        let b = Bytes::from_slice(b"tail");
        assert_eq!(
            run(BytesEod, &[Value::BytesIter(b.begin())])
                .unwrap_err()
                .kind,
            ExceptionKind::WouldBlock
        );
        b.freeze();
        let v = run(BytesEod, &[Value::BytesIter(b.begin())]).unwrap();
        let t = v.as_tuple().unwrap();
        assert_eq!(t[0].as_bytes().unwrap().to_vec(), b"tail");
    }

    #[test]
    fn classifier_ops_roundtrip() {
        let mut ctx = TestCtx::new();
        let c = instantiate(
            &Type::Classifier(
                std::sync::Arc::new(Type::Any),
                std::sync::Arc::new(Type::Bool),
            ),
            &[],
            &mut ctx,
        )
        .unwrap();
        let rule = Value::Tuple(Rc::new([
            Value::Net("10.0.0.0/8".parse().unwrap()),
            Value::Null,
        ]));
        eval(
            ClassifierAdd,
            &[c.clone(), rule, Value::Bool(true)],
            &[],
            &mut ctx,
        )
        .unwrap();
        eval(ClassifierCompile, std::slice::from_ref(&c), &[], &mut ctx).unwrap();
        let key = Value::Tuple(Rc::new([
            Value::Addr("10.1.2.3".parse().unwrap()),
            Value::Addr("8.8.8.8".parse().unwrap()),
        ]));
        let hit = eval(ClassifierGet, &[c.clone(), key], &[], &mut ctx).unwrap();
        assert!(hit.equals(&Value::Bool(true)));
        let miss_key = Value::Tuple(Rc::new([
            Value::Addr("11.0.0.1".parse().unwrap()),
            Value::Addr("8.8.8.8".parse().unwrap()),
        ]));
        assert_eq!(
            eval(ClassifierGet, &[c, miss_key], &[], &mut ctx)
                .unwrap_err()
                .kind,
            ExceptionKind::IndexError
        );
    }

    #[test]
    fn timer_mgr_fires_callables() {
        let mut ctx = TestCtx::new();
        let mgr = instantiate(&Type::TimerMgr, &[], &mut ctx).unwrap();
        let callable = Value::Callable(Rc::new(CallableVal {
            func: Rc::from("M::cb"),
            bound: vec![Value::Int(1)],
        }));
        eval(
            TimerMgrSchedule,
            &[mgr.clone(), Value::Time(Time::from_secs(10)), callable],
            &[],
            &mut ctx,
        )
        .unwrap();
        eval(
            TimerMgrAdvance,
            &[mgr.clone(), Value::Time(Time::from_secs(5))],
            &[],
            &mut ctx,
        )
        .unwrap();
        assert!(ctx.fired.is_empty());
        eval(
            TimerMgrAdvance,
            &[mgr, Value::Time(Time::from_secs(10))],
            &[],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.fired.len(), 1);
        assert_eq!(&*ctx.fired[0].func, "M::cb");
    }

    #[test]
    fn exception_kind_mapping() {
        assert_eq!(
            exception_kind_from_name("Hilti::IndexError"),
            ExceptionKind::IndexError
        );
        assert_eq!(
            exception_kind_from_name("WouldBlock"),
            ExceptionKind::WouldBlock
        );
        assert_eq!(
            exception_kind_from_name("anything else"),
            ExceptionKind::RuntimeError
        );
    }

    #[test]
    fn debug_and_assert() {
        let mut ctx = TestCtx::new();
        eval(DebugPrint, &[Value::Int(1), Value::str("x")], &[], &mut ctx).unwrap();
        assert_eq!(ctx.out, vec!["1, x"]);
        assert!(eval(DebugAssert, &[Value::Bool(true)], &[], &mut ctx).is_ok());
        assert!(eval(DebugAssert, &[Value::Bool(false)], &[], &mut ctx).is_err());
    }

    #[test]
    fn type_confusion_is_error_not_panic() {
        // Wrong operand types across a sample of opcodes: typed errors.
        assert!(run(IntAdd, &[Value::str("a"), Value::Int(1)]).is_err());
        assert!(run(SetInsert, &[Value::Int(1), Value::Int(2)]).is_err());
        assert!(run(MapGet, &[Value::Bool(true), Value::Int(0)]).is_err());
        assert!(run(TupleGet, &[Value::Int(1), Value::Int(0)]).is_err());
        assert!(run(BytesLength, &[Value::Null]).is_err());
        assert!(run(ChannelRead, &[Value::Int(5)]).is_err());
    }
}
