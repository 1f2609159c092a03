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

use hilti_rt::bytestring::{Bytes, BytesIter};
use hilti_rt::classifier::{with_scratch, Classifier, FieldMatcher, FieldValue};
use hilti_rt::containers::ExpireStrategy;
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::limits::AllocBudget;
use hilti_rt::overlay::{OverlayType, Unpacked};
use hilti_rt::regexp::{MatchVerdict, Regex};
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::TimerMgr;

use crate::ir::Opcode;
use crate::types::Type;
use crate::value::{
    CallableVal, ExceptionVal, MapVal, SetVal, StructLayout, StructVal, TimerEntry, Value,
};

/// A heap container registered for global-time expiration.
#[derive(Clone)]
pub enum ExpiringHandle {
    Set(Rc<RefCell<SetVal>>),
    Map(Rc<RefCell<MapVal>>),
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

fn as_set(v: &Value) -> RtResult<&Rc<RefCell<SetVal>>> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(RtError::type_error(format!(
            "expected set, got {}",
            other.type_name()
        ))),
    }
}

fn as_map(v: &Value) -> RtResult<&Rc<RefCell<MapVal>>> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(RtError::type_error(format!(
            "expected map, got {}",
            other.type_name()
        ))),
    }
}

fn as_list(v: &Value) -> RtResult<&Rc<RefCell<VecDeque<Value>>>> {
    match v {
        Value::List(l) => Ok(l),
        other => Err(RtError::type_error(format!(
            "expected list, got {}",
            other.type_name()
        ))),
    }
}

fn as_vector(v: &Value) -> RtResult<&Rc<RefCell<Vec<Value>>>> {
    match v {
        Value::Vector(x) => Ok(x),
        other => Err(RtError::type_error(format!(
            "expected vector, got {}",
            other.type_name()
        ))),
    }
}

fn as_struct(v: &Value) -> RtResult<&Rc<RefCell<StructVal>>> {
    match v {
        Value::Struct(s) => Ok(s),
        other => Err(RtError::type_error(format!(
            "expected struct, got {}",
            other.type_name()
        ))),
    }
}

fn as_regexp(v: &Value) -> RtResult<&Rc<Regex>> {
    match v {
        Value::Regexp(r) => Ok(r),
        other => Err(RtError::type_error(format!(
            "expected regexp, got {}",
            other.type_name()
        ))),
    }
}

fn as_classifier(v: &Value) -> RtResult<&Rc<RefCell<Classifier<Value>>>> {
    match v {
        Value::Classifier(c) => Ok(c),
        other => Err(RtError::type_error(format!(
            "expected classifier, got {}",
            other.type_name()
        ))),
    }
}

fn as_timer_mgr(v: &Value) -> RtResult<&Rc<RefCell<TimerMgr<TimerEntry>>>> {
    match v {
        Value::TimerMgr(t) => Ok(t),
        other => Err(RtError::type_error(format!(
            "expected timer_mgr, got {}",
            other.type_name()
        ))),
    }
}

fn as_callable(v: &Value) -> RtResult<&Rc<CallableVal>> {
    match v {
        Value::Callable(c) => Ok(c),
        other => Err(RtError::type_error(format!(
            "expected callable, got {}",
            other.type_name()
        ))),
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

/// Evaluates one data instruction and returns the value it produces.
///
/// `args` are the value operands, read where they live: the VM points into
/// the frame's slots, the global array and the instruction's constants, so
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
        Equal => {
            arity(args, 2, op)?;
            Value::Bool(args[0].equals(args[1]))
        }
        Unequal => {
            arity(args, 2, op)?;
            Value::Bool(!args[0].equals(args[1]))
        }
        Select => {
            arity(args, 3, op)?;
            if args[0].as_bool()? {
                args[1].clone()
            } else {
                args[2].clone()
            }
        }
        DeepCopy => {
            arity(args, 1, op)?;
            Value::from_portable(&args[0].to_portable()?)
        }

        // --- integers ----------------------------------------------------
        IntAdd => int_arith(args, IntArith::Add)?,
        IntSub => int_arith(args, IntArith::Sub)?,
        IntMul => int_arith(args, IntArith::Mul)?,
        IntDiv => bin_int(args, op, |a, b| {
            if b == 0 {
                Err(RtError::arithmetic("division by zero"))
            } else {
                Ok(a.wrapping_div(b))
            }
        })?,
        IntMod => bin_int(args, op, |a, b| {
            if b == 0 {
                Err(RtError::arithmetic("modulo by zero"))
            } else {
                Ok(a.wrapping_rem(b))
            }
        })?,
        IntNeg => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_int()?.wrapping_neg())
        }
        IntAbs => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_int()?.wrapping_abs())
        }
        IntMin => bin_int(args, op, |a, b| Ok(a.min(b)))?,
        IntMax => bin_int(args, op, |a, b| Ok(a.max(b)))?,
        IntEq => int_cmp(args, IntCmp::Eq)?,
        IntLt => int_cmp(args, IntCmp::Lt)?,
        IntGt => int_cmp(args, IntCmp::Gt)?,
        IntLeq => int_cmp(args, IntCmp::Leq)?,
        IntGeq => int_cmp(args, IntCmp::Geq)?,
        IntAnd => int_arith(args, IntArith::And)?,
        IntOr => int_arith(args, IntArith::Or)?,
        IntXor => int_arith(args, IntArith::Xor)?,
        IntShl => int_arith(args, IntArith::Shl)?,
        IntShr => int_arith(args, IntArith::Shr)?,
        IntToDouble => {
            arity(args, 1, op)?;
            Value::Double(args[0].as_int()? as f64)
        }
        IntToString => {
            arity(args, 1, op)?;
            Value::str(&args[0].as_int()?.to_string())
        }
        IntFromBytes => {
            // (bytes, base) — parse ASCII digits.
            arity(args, 2, op)?;
            let raw = args[0].as_bytes()?.to_vec();
            let base = args[1].as_int()? as u32;
            let s = std::str::from_utf8(&raw)
                .map_err(|_| RtError::value("non-UTF8 digits"))?
                .trim();
            let v = i64::from_str_radix(s, base)
                .map_err(|_| RtError::value(format!("bad integer literal {s:?}")))?;
            Value::Int(v)
        }

        // --- booleans ----------------------------------------------------
        BoolAnd => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_bool()? && args[1].as_bool()?)
        }
        BoolOr => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_bool()? || args[1].as_bool()?)
        }
        BoolXor => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_bool()? ^ args[1].as_bool()?)
        }
        BoolNot => {
            arity(args, 1, op)?;
            Value::Bool(!args[0].as_bool()?)
        }

        // --- bitsets (int<64> with named bits) -----------------------------
        BitsetSet => bin_int(args, op, |a, b| Ok(a | (1 << (b & 63))))?,
        BitsetClear => bin_int(args, op, |a, b| Ok(a & !(1 << (b & 63))))?,
        BitsetHas => bin_int_cmp(args, op, |a, b| a & (1 << (b & 63)) != 0)?,

        // --- doubles -------------------------------------------------------
        DoubleAdd => bin_double(args, op, |a, b| a + b)?,
        DoubleSub => bin_double(args, op, |a, b| a - b)?,
        DoubleMul => bin_double(args, op, |a, b| a * b)?,
        DoubleDiv => {
            arity(args, 2, op)?;
            let b = args[1].as_double()?;
            if b == 0.0 {
                return Err(RtError::arithmetic("division by zero"));
            }
            Value::Double(args[0].as_double()? / b)
        }
        DoubleLt => bin_double_cmp(args, op, |a, b| a < b)?,
        DoubleGt => bin_double_cmp(args, op, |a, b| a > b)?,
        DoubleLeq => bin_double_cmp(args, op, |a, b| a <= b)?,
        DoubleGeq => bin_double_cmp(args, op, |a, b| a >= b)?,
        DoubleAbs => {
            arity(args, 1, op)?;
            Value::Double(args[0].as_double()?.abs())
        }
        DoubleToInt => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_double()? as i64)
        }

        // --- strings -------------------------------------------------------
        StringConcat => {
            arity(args, 2, op)?;
            let (a, b) = (args[0].as_str()?, args[1].as_str()?);
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Value::String(Rc::from(s))
        }
        StringLength => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_str()?.chars().count() as i64)
        }
        StringFind => {
            arity(args, 2, op)?;
            let hay = args[0].as_str()?;
            let needle = args[1].as_str()?;
            Value::Int(hay.find(needle).map(|p| p as i64).unwrap_or(-1))
        }
        StringSubstr => {
            arity(args, 3, op)?;
            let s = args[0].as_str()?;
            let from = args[1].as_int()?.max(0) as usize;
            let len = args[2].as_int()?.max(0) as usize;
            let sub: String = s.chars().skip(from).take(len).collect();
            Value::str(&sub)
        }
        StringToBytes => {
            arity(args, 1, op)?;
            Value::Bytes(Bytes::frozen_from_slice(args[0].as_str()?.as_bytes()))
        }
        StringToInt => {
            arity(args, 1, op)?;
            let v: i64 = args[0]
                .as_str()?
                .trim()
                .parse()
                .map_err(|_| RtError::value("bad integer literal"))?;
            Value::Int(v)
        }
        StringUpper => {
            arity(args, 1, op)?;
            Value::str(&args[0].as_str()?.to_uppercase())
        }
        StringLower => {
            arity(args, 1, op)?;
            Value::str(&args[0].as_str()?.to_lowercase())
        }
        StringStartsWith => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_str()?.starts_with(args[1].as_str()?))
        }
        StringFmt => {
            // fmt string with `{}` placeholders + values.
            arity_min(args, 1, op)?;
            let fmt = args[0].as_str()?;
            let mut out = String::with_capacity(fmt.len());
            let mut next = 1usize;
            let mut chars = fmt.chars().peekable();
            while let Some(c) = chars.next() {
                if c == '{' && chars.peek() == Some(&'}') {
                    chars.next();
                    let v = args.get(next).ok_or_else(|| {
                        RtError::value("string.fmt: more placeholders than values")
                    })?;
                    v.render_into(&mut out);
                    next += 1;
                } else {
                    out.push(c);
                }
            }
            Value::str(&out)
        }
        StringRender => {
            arity(args, 1, op)?;
            Value::str(&args[0].render())
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
        BytesFreeze => {
            arity(args, 1, op)?;
            args[0].as_bytes()?.freeze();
            Value::Null
        }
        BytesUnfreeze => {
            arity(args, 1, op)?;
            args[0].as_bytes()?.unfreeze();
            Value::Null
        }
        BytesIsFrozen => {
            arity(args, 1, op)?;
            Value::Bool(args[0].as_bytes()?.is_frozen())
        }
        BytesLength => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_bytes()?.len() as i64)
        }
        BytesSub => {
            // (iter_begin, iter_end) → new frozen bytes of that range.
            arity(args, 2, op)?;
            let a = args[0].as_bytes_iter()?;
            let b = args[1].as_bytes_iter()?;
            Value::Bytes(a.bytes().sub(a.offset(), b.offset())?)
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
        BytesTrim => {
            arity(args, 2, op)?;
            let b = args[0].as_bytes()?;
            let to = args[1].as_bytes_iter()?;
            b.trim(to.offset())?;
            Value::Null
        }
        BytesToString => {
            arity(args, 1, op)?;
            let b = args[0].as_bytes()?;
            b.with_available(b.begin_offset(), |data| {
                Value::str(&String::from_utf8_lossy(data))
            })?
        }
        BytesToInt => {
            arity(args, 2, op)?;
            let raw = args[0].as_bytes()?.to_vec();
            let base = args[1].as_int()? as u32;
            let s = std::str::from_utf8(&raw)
                .map_err(|_| RtError::value("non-UTF8 digits"))?
                .trim();
            let v = i64::from_str_radix(s, base)
                .map_err(|_| RtError::value(format!("bad integer literal {s:?}")))?;
            Value::Int(v)
        }
        BytesBegin => {
            arity(args, 1, op)?;
            Value::BytesIter(args[0].as_bytes()?.begin())
        }
        BytesEnd => {
            arity(args, 1, op)?;
            Value::BytesIter(args[0].as_bytes()?.end())
        }
        BytesAt => {
            arity(args, 2, op)?;
            let b = args[0].as_bytes()?;
            let off = args[1].as_int()? as u64;
            Value::BytesIter(b.iter_at(off))
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
        BytesCopy => {
            arity(args, 1, op)?;
            Value::Bytes(args[0].as_bytes()?.deep_copy())
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

        // --- bytes iterators ------------------------------------------------
        IterIncr => {
            arity(args, 2, op)?;
            let (it, n) = iter_incr_operands(args[0], args[1].as_int())?;
            Value::BytesIter(it.advance(n))
        }
        IterDeref => {
            arity(args, 1, op)?;
            Value::Int(iter_deref(args[0])?)
        }
        IterOffset => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_bytes_iter()?.offset() as i64)
        }
        IterDiff => {
            arity(args, 2, op)?;
            let a = args[0].as_bytes_iter()?;
            let b = args[1].as_bytes_iter()?;
            Value::Int(a.distance(b)? as i64)
        }
        IterAtFrozenEnd => {
            arity(args, 1, op)?;
            Value::Bool(args[0].as_bytes_iter()?.at_frozen_end())
        }
        IterWouldBlock => {
            arity(args, 1, op)?;
            Value::Bool(args[0].as_bytes_iter()?.would_block())
        }

        // --- addr / net / port ----------------------------------------------
        AddrFamily => {
            arity(args, 1, op)?;
            Value::Int(if args[0].as_addr()?.is_v4() { 4 } else { 6 })
        }
        AddrMask => {
            arity(args, 2, op)?;
            Value::Addr(
                args[0]
                    .as_addr()?
                    .mask(args[1].as_int()?.clamp(0, 128) as u8),
            )
        }
        NetContains => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_net()?.contains(&args[1].as_addr()?))
        }
        NetFamily => {
            arity(args, 1, op)?;
            Value::Int(if args[0].as_net()?.prefix().is_v4() {
                4
            } else {
                6
            })
        }
        NetPrefix => {
            arity(args, 1, op)?;
            Value::Addr(args[0].as_net()?.prefix())
        }
        NetLength => {
            arity(args, 1, op)?;
            Value::Int(i64::from(args[0].as_net()?.len()))
        }
        PortProtocol => {
            arity(args, 1, op)?;
            Value::str(&args[0].as_port()?.protocol.to_string())
        }
        PortNumber => {
            arity(args, 1, op)?;
            Value::Int(i64::from(args[0].as_port()?.number))
        }

        // --- time / interval --------------------------------------------------
        TimeAdd => {
            arity(args, 2, op)?;
            Value::Time(args[0].as_time()? + args[1].as_interval()?)
        }
        TimeSubTime => {
            arity(args, 2, op)?;
            Value::Interval(args[0].as_time()? - args[1].as_time()?)
        }
        TimeSubInterval => {
            arity(args, 2, op)?;
            let i = args[1].as_interval()?;
            Value::Time(args[0].as_time()? + Interval::from_nanos(-i.nanos()))
        }
        TimeLt => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_time()? < args[1].as_time()?)
        }
        TimeGt => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_time()? > args[1].as_time()?)
        }
        TimeFromDouble => {
            arity(args, 1, op)?;
            Value::Time(Time::from_secs_f64(args[0].as_double()?))
        }
        TimeToDouble => {
            arity(args, 1, op)?;
            Value::Double(args[0].as_time()?.as_secs_f64())
        }
        TimeNsecs => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_time()?.nanos() as i64)
        }
        IntervalAdd => {
            arity(args, 2, op)?;
            Value::Interval(args[0].as_interval()? + args[1].as_interval()?)
        }
        IntervalSub => {
            arity(args, 2, op)?;
            Value::Interval(args[0].as_interval()? - args[1].as_interval()?)
        }
        IntervalLt => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_interval()? < args[1].as_interval()?)
        }
        IntervalGt => {
            arity(args, 2, op)?;
            Value::Bool(args[0].as_interval()? > args[1].as_interval()?)
        }
        IntervalFromDouble => {
            arity(args, 1, op)?;
            Value::Interval(Interval::from_secs_f64(args[0].as_double()?))
        }
        IntervalToDouble => {
            arity(args, 1, op)?;
            Value::Double(args[0].as_interval()?.as_secs_f64())
        }
        IntervalNsecs => {
            arity(args, 1, op)?;
            Value::Int(args[0].as_interval()?.nanos())
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

        // --- lists ---------------------------------------------------------------
        ListPushBack | ListAppend => {
            arity(args, 2, op)?;
            as_list(args[0])?.borrow_mut().push_back(args[1].clone());
            Value::Null
        }
        ListPushFront => {
            arity(args, 2, op)?;
            as_list(args[0])?.borrow_mut().push_front(args[1].clone());
            Value::Null
        }
        ListPopFront => {
            arity(args, 1, op)?;
            let v = as_list(args[0])?
                .borrow_mut()
                .pop_front()
                .ok_or_else(|| RtError::index("pop from empty list"))?;
            v
        }
        ListPopBack => {
            arity(args, 1, op)?;
            let v = as_list(args[0])?
                .borrow_mut()
                .pop_back()
                .ok_or_else(|| RtError::index("pop from empty list"))?;
            v
        }
        ListFront => {
            arity(args, 1, op)?;
            let l = as_list(args[0])?.borrow();
            let v = l
                .front()
                .ok_or_else(|| RtError::index("front of empty list"))?;
            v.clone()
        }
        ListBack => {
            arity(args, 1, op)?;
            let l = as_list(args[0])?.borrow();
            let v = l
                .back()
                .ok_or_else(|| RtError::index("back of empty list"))?;
            v.clone()
        }
        ListLength => {
            arity(args, 1, op)?;
            Value::Int(as_list(args[0])?.borrow().len() as i64)
        }
        ListClear => {
            arity(args, 1, op)?;
            as_list(args[0])?.borrow_mut().clear();
            Value::Null
        }

        // --- vectors ----------------------------------------------------------------
        VectorPushBack => {
            arity(args, 2, op)?;
            as_vector(args[0])?.borrow_mut().push(args[1].clone());
            Value::Null
        }
        VectorPopBack => {
            arity(args, 1, op)?;
            let v = as_vector(args[0])?
                .borrow_mut()
                .pop()
                .ok_or_else(|| RtError::index("pop from empty vector"))?;
            v
        }
        VectorGet => {
            arity(args, 2, op)?;
            let v = as_vector(args[0])?.borrow();
            let i = args[1].as_int()?;
            let item = v
                .get(i.max(0) as usize)
                .ok_or_else(|| RtError::index(format!("vector index {i} out of range")))?;
            item.clone()
        }
        VectorSet => {
            arity(args, 3, op)?;
            let v = as_vector(args[0])?;
            let i = args[1].as_int()?.max(0) as usize;
            let mut v = v.borrow_mut();
            if i >= v.len() {
                return Err(RtError::index(format!("vector index {i} out of range")));
            }
            v[i] = args[2].clone();
            Value::Null
        }
        VectorLength => {
            arity(args, 1, op)?;
            Value::Int(as_vector(args[0])?.borrow().len() as i64)
        }
        VectorReserve => {
            arity(args, 2, op)?;
            as_vector(args[0])?
                .borrow_mut()
                .reserve(args[1].as_int()?.max(0) as usize);
            Value::Null
        }
        VectorClear => {
            arity(args, 1, op)?;
            as_vector(args[0])?.borrow_mut().clear();
            Value::Null
        }

        // --- sets --------------------------------------------------------------------
        SetInsert => {
            arity(args, 2, op)?;
            let k = args[1].to_key()?;
            as_set(args[0])?
                .borrow_mut()
                .try_insert(k, ctx.global_time())?;
            Value::Null
        }
        SetExists => {
            arity(args, 2, op)?;
            let k = args[1].to_key()?;
            Value::Bool(as_set(args[0])?.borrow_mut().exists(&k, ctx.global_time()))
        }
        SetRemove => {
            arity(args, 2, op)?;
            let k = args[1].to_key()?;
            Value::Bool(as_set(args[0])?.borrow_mut().remove(&k))
        }
        SetSize => {
            arity(args, 1, op)?;
            Value::Int(as_set(args[0])?.borrow().len() as i64)
        }
        SetTimeout => {
            // (set, strategy enum/int, interval)
            arity(args, 3, op)?;
            let strategy = expire_strategy(args[1])?;
            let timeout = args[2].as_interval()?;
            let rc = as_set(args[0])?.clone();
            rc.borrow_mut().set_timeout(strategy, timeout);
            ctx.register_expiring(ExpiringHandle::Set(rc));
            Value::Null
        }
        SetClear => {
            arity(args, 1, op)?;
            as_set(args[0])?.borrow_mut().clear();
            Value::Null
        }
        SetMembers => {
            // Sorted member list — deterministic iteration order for
            // `for` loops over sets (matches `map.keys`).
            arity(args, 1, op)?;
            let s = as_set(args[0])?.borrow();
            let mut keys: Vec<crate::value::Key> = s.iter().cloned().collect();
            keys.sort();
            let list: VecDeque<Value> = keys.iter().map(|k| k.to_value()).collect();
            Value::List(Rc::new(RefCell::new(list)))
        }

        // --- maps ---------------------------------------------------------------------
        MapInsert => {
            arity(args, 3, op)?;
            let k = args[1].to_key()?;
            as_map(args[0])?
                .borrow_mut()
                .try_insert(k, args[2].clone(), ctx.global_time())?;
            Value::Null
        }
        MapGet => {
            arity(args, 2, op)?;
            let k = args[1].to_key()?;
            let m = as_map(args[0])?;
            let v = m
                .borrow_mut()
                .get(&k, ctx.global_time())
                .cloned()
                .ok_or_else(|| RtError::index("no such map element"))?;
            v
        }
        MapGetDefault => {
            arity(args, 3, op)?;
            let k = args[1].to_key()?;
            let m = as_map(args[0])?;
            let v = m.borrow_mut().get(&k, ctx.global_time()).cloned();
            v.unwrap_or_else(|| args[2].clone())
        }
        MapExists => {
            arity(args, 2, op)?;
            let k = args[1].to_key()?;
            Value::Bool(as_map(args[0])?.borrow().contains(&k))
        }
        MapRemove => {
            arity(args, 2, op)?;
            let k = args[1].to_key()?;
            Value::Bool(as_map(args[0])?.borrow_mut().remove(&k).is_some())
        }
        MapSize => {
            arity(args, 1, op)?;
            Value::Int(as_map(args[0])?.borrow().len() as i64)
        }
        MapTimeout => {
            arity(args, 3, op)?;
            let strategy = expire_strategy(args[1])?;
            let timeout = args[2].as_interval()?;
            let rc = as_map(args[0])?.clone();
            rc.borrow_mut().set_timeout(strategy, timeout);
            ctx.register_expiring(ExpiringHandle::Map(rc));
            Value::Null
        }
        MapClear => {
            arity(args, 1, op)?;
            as_map(args[0])?.borrow_mut().clear();
            Value::Null
        }
        MapKeys => {
            arity(args, 1, op)?;
            let m = as_map(args[0])?.borrow();
            let mut keys: Vec<crate::value::Key> = m.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            let list: VecDeque<Value> = keys.iter().map(|k| k.to_value()).collect();
            Value::List(Rc::new(RefCell::new(list)))
        }

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
        RegexpMatchPrefix => {
            arity(args, 2, op)?;
            let re = as_regexp(args[0])?;
            let data = args[1].as_bytes()?.to_vec();
            match re.match_prefix(&data) {
                MatchVerdict::Match { len, .. } => Value::Int(len as i64),
                MatchVerdict::NoMatch => Value::Int(-1),
            }
        }
        RegexpFind => {
            arity(args, 2, op)?;
            let re = as_regexp(args[0])?;
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
            let re = as_regexp(args[0])?;
            Value::Matcher(Rc::new(RefCell::new(re.matcher())))
        }
        RegexpMatcherFeed => {
            arity(args, 2, op)?;
            let m = match args[0] {
                Value::Matcher(m) => m,
                other => {
                    return Err(RtError::type_error(format!(
                        "expected matcher, got {}",
                        other.type_name()
                    )))
                }
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
                other => {
                    return Err(RtError::type_error(format!(
                        "expected matcher, got {}",
                        other.type_name()
                    )))
                }
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
                other => Err(RtError::type_error(format!(
                    "expected channel, got {}",
                    other.type_name()
                )))?,
            }
        }
        ChannelRead => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => Value::from_portable(&c.read()?),
                other => Err(RtError::type_error(format!(
                    "expected channel, got {}",
                    other.type_name()
                )))?,
            }
        }
        ChannelTryRead => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => match c.try_read()? {
                    Some(p) => Value::Tuple(Rc::new([Value::Bool(true), Value::from_portable(&p)])),
                    None => Value::Tuple(Rc::new([Value::Bool(false), Value::Null])),
                },
                other => Err(RtError::type_error(format!(
                    "expected channel, got {}",
                    other.type_name()
                )))?,
            }
        }
        ChannelSize => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => Value::Int(c.len() as i64),
                other => Err(RtError::type_error(format!(
                    "expected channel, got {}",
                    other.type_name()
                )))?,
            }
        }
        ChannelClose => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Channel(c) => {
                    c.close();
                    Value::Null
                }
                other => Err(RtError::type_error(format!(
                    "expected channel, got {}",
                    other.type_name()
                )))?,
            }
        }

        // --- timers -------------------------------------------------------------------------
        TimerMgrAdvance => {
            arity(args, 2, op)?;
            let mgr = as_timer_mgr(args[0])?;
            let t = args[1].as_time()?;
            let fired = mgr.borrow_mut().advance(t);
            for entry in fired {
                ctx.fire(entry.action);
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
            // (mgr, time, callable) → int timer seq.
            arity(args, 3, op)?;
            let mgr = as_timer_mgr(args[0])?;
            let t = args[1].as_time()?;
            let c = as_callable(args[2])?;
            // Globally unique entry identity (TimerEntry's Eq keys on it).
            use std::sync::atomic::{AtomicU64, Ordering};
            static TIMER_SEQ: AtomicU64 = AtomicU64::new(0);
            let seq = TIMER_SEQ.fetch_add(1, Ordering::Relaxed);
            mgr.borrow_mut().schedule(
                t,
                TimerEntry {
                    seq,
                    action: (**c).clone(),
                },
            );
            Value::Int(seq as i64)
        }
        TimerMgrCancel => {
            // Cancellation by id requires the TimerId; we approximate with
            // a no-op returning false (HILTI programs in this workspace do
            // not cancel timers; the instruction exists for completeness).
            arity(args, 2, op)?;
            Value::Bool(false)
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
                other => Err(RtError::type_error(format!(
                    "expected file, got {}",
                    other.type_name()
                )))?,
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
                other => Err(RtError::type_error(format!(
                    "expected iosrc, got {}",
                    other.type_name()
                )))?,
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
                other => Err(RtError::type_error(format!(
                    "expected exception, got {}",
                    other.type_name()
                )))?,
            }
        }
        ExceptionMessage => {
            arity(args, 1, op)?;
            match args[0] {
                Value::Exception(e) => Value::str(&e.message),
                other => Err(RtError::type_error(format!(
                    "expected exception, got {}",
                    other.type_name()
                )))?,
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

/// Declares a family of typed integer ops: the enum, each op's semantics
/// (`apply`) and its opcode in both directions. A row is the one place its
/// op is stated; `eval` and the VM's typed instructions both call `apply`.
macro_rules! int_ops {
    ($(#[$doc:meta])* $name:ident($a:ident, $b:ident) -> $out:ty {
        $( $variant:ident = $opcode:ident => $body:expr, )*
    }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $( $variant, )*
        }

        impl $name {
            #[inline(always)]
            pub fn apply(self, $a: i64, $b: i64) -> $out {
                match self {
                    $( $name::$variant => $body, )*
                }
            }

            pub fn from_opcode(op: Opcode) -> Option<$name> {
                match op {
                    $( Opcode::$opcode => Some($name::$variant), )*
                    _ => None,
                }
            }

            pub fn opcode(self) -> Opcode {
                match self {
                    $( $name::$variant => Opcode::$opcode, )*
                }
            }
        }
    };
}

int_ops! {
    /// Integer arithmetic, bitwise and shift ops. All wrap; `shl` wraps its
    /// shift amount, `shr` is a logical shift of the 64-bit pattern.
    IntArith(a, b) -> i64 {
        Add = IntAdd => a.wrapping_add(b),
        Sub = IntSub => a.wrapping_sub(b),
        Mul = IntMul => a.wrapping_mul(b),
        And = IntAnd => a & b,
        Or = IntOr => a | b,
        Xor = IntXor => a ^ b,
        Shl = IntShl => a.wrapping_shl(b as u32),
        Shr = IntShr => ((a as u64) >> (b as u32 & 63)) as i64,
    }
}

int_ops! {
    /// Integer comparisons.
    IntCmp(a, b) -> bool {
        Eq = IntEq => a == b,
        Lt = IntLt => a < b,
        Gt = IntGt => a > b,
        Leq = IntLeq => a <= b,
        Geq = IntGeq => a >= b,
    }
}

/// `iterator.incr`'s operands, stated once for `eval` and the VM's typed
/// step: the iterator is checked before the count (`n` is the count
/// already read, its error not yet raised), and a negative count advances
/// by nothing.
#[inline(always)]
pub fn iter_incr_operands(it: &Value, n: RtResult<i64>) -> RtResult<(&BytesIter, u64)> {
    let it = it.as_bytes_iter()?;
    Ok((it, n?.max(0) as u64))
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
    let re = as_regexp(re)?;
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

/// `iterator.deref`: the byte under the iterator, raising `WouldBlock` at
/// the frontier of open input and `IndexError` past a frozen end.
#[inline(always)]
pub fn iter_deref(it: &Value) -> RtResult<i64> {
    Ok(i64::from(it.as_bytes_iter()?.deref()?))
}

#[inline(always)]
fn int_arith(args: &[&Value], f: IntArith) -> RtResult<Value> {
    bin_int(args, f.opcode(), |a, b| Ok(f.apply(a, b)))
}

#[inline(always)]
fn int_cmp(args: &[&Value], f: IntCmp) -> RtResult<Value> {
    bin_int_cmp(args, f.opcode(), |a, b| f.apply(a, b))
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

fn bin_double(args: &[&Value], op: Opcode, f: impl FnOnce(f64, f64) -> f64) -> RtResult<Value> {
    arity(args, 2, op)?;
    Ok(Value::Double(f(args[0].as_double()?, args[1].as_double()?)))
}

fn bin_double_cmp(
    args: &[&Value],
    op: Opcode,
    f: impl FnOnce(f64, f64) -> bool,
) -> RtResult<Value> {
    arity(args, 2, op)?;
    Ok(Value::Bool(f(args[0].as_double()?, args[1].as_double()?)))
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
        other => Err(RtError::type_error(format!(
            "expected expire strategy, got {}",
            other.type_name()
        ))),
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
                match h {
                    ExpiringHandle::Set(s) => {
                        s.borrow_mut().expire(t);
                    }
                    ExpiringHandle::Map(m) => {
                        m.borrow_mut().expire(t);
                    }
                }
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
