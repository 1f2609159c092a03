//! Runtime values of the abstract machine.
//!
//! Values follow the paper's memory model (§3.2): atomic domain types have
//! value semantics; containers, bytes, structs and other heap objects have
//! reference semantics (copying a value copies the *reference*). Rust's
//! `Rc<RefCell<…>>` plays the role of the paper's reference counting — and
//! like the paper's implementation, cycles are not collected.
//!
//! Crossing a virtual-thread boundary requires value semantics; the
//! [`Portable`] form is a deep, `Send` snapshot used by channels and
//! `thread.schedule` (§3.2: "the runtime deep-copies all mutable data").

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use hilti_rt::addr::{Addr, Network, Port};
use hilti_rt::bytestring::{Bytes, BytesIter};
use hilti_rt::classifier::Classifier;
use hilti_rt::containers::{ExpiringMap, ExpiringSet};
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::overlay::OverlayType;
use hilti_rt::regexp::{Matcher, Regex};
use hilti_rt::time::{Interval, Time};

/// A set value: an expiring set of keyable values (see [`HashKey`]).
pub type SetVal = ExpiringSet<HashKey>;
/// A map value: an expiring map from keyable values (see [`HashKey`]) to
/// values.
pub type MapVal = ExpiringMap<HashKey, Value>;

/// A struct instance.
#[derive(Debug, Clone)]
pub struct StructVal {
    pub type_name: Rc<str>,
    /// Field values, in declaration order. `Value::Null` encodes unset.
    pub fields: Vec<Value>,
}

/// A struct type's run-time layout; the program's type table holds one per
/// declared struct. Every instance made by `new` shares `name`, so a field
/// site can recognize the type by pointer before it compares text.
#[derive(Clone, Debug)]
pub struct StructLayout {
    pub name: Rc<str>,
    /// Field names, in declaration order.
    pub fields: Vec<String>,
}

impl StructLayout {
    pub fn new(name: &str, fields: Vec<String>) -> StructLayout {
        StructLayout {
            name: Rc::from(name),
            fields,
        }
    }

    pub fn index_of(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == field)
    }

    /// A fresh instance with every field unset.
    pub fn instantiate(&self) -> Value {
        Value::Struct(Rc::new(RefCell::new(StructVal {
            type_name: Rc::clone(&self.name),
            fields: std::iter::repeat_with(|| Value::Null)
                .take(self.fields.len())
                .collect(),
        })))
    }
}

/// A bound function value (closure), HILTI's `callable`.
#[derive(Debug, Clone)]
pub struct CallableVal {
    pub func: Rc<str>,
    pub bound: Vec<Value>,
}

/// A caught or thrown exception.
#[derive(Debug, Clone, PartialEq)]
pub struct ExceptionVal {
    pub kind: ExceptionKind,
    pub message: std::borrow::Cow<'static, str>,
}

/// An input source: yields (timestamp, packet bytes) until exhausted.
/// Host applications install the actual producer (e.g. a pcap reader).
pub struct IoSource {
    pub name: String,
    pub producer: Box<dyn FnMut() -> Option<(Time, Vec<u8>)>>,
}

impl fmt::Debug for IoSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IoSource({})", self.name)
    }
}

/// A runtime value.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// Unset/none — also the value of uninitialized locals.
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    String(Rc<str>),
    Bytes(Bytes),
    BytesIter(BytesIter),
    Addr(Addr),
    Net(Network),
    Port(Port),
    Time(Time),
    Interval(Interval),
    /// (enum type name, label index).
    Enum(Rc<str>, i64),
    Tuple(Rc<[Value]>),
    List(Rc<RefCell<VecDeque<Value>>>),
    Vector(Rc<RefCell<Vec<Value>>>),
    Set(Rc<RefCell<SetVal>>),
    Map(Rc<RefCell<MapVal>>),
    Struct(Rc<RefCell<StructVal>>),
    Regexp(Rc<Regex>),
    Matcher(Rc<RefCell<Matcher>>),
    Channel(hilti_rt::channel::Channel<Portable>),
    Classifier(Rc<RefCell<Classifier<Value>>>),
    Overlay(Rc<OverlayType>),
    TimerMgr(Rc<RefCell<hilti_rt::timer::TimerMgr<CallableVal>>>),
    File(LogFile),
    IOSrc(Rc<RefCell<IoSource>>),
    Callable(Rc<CallableVal>),
    Exception(Rc<ExceptionVal>),
}

/// A set member or map key: a keyable [`Value`] under the one definition
/// of key identity, which containers hash, compare and sort by.
///
/// Bools, ints, strings, `bytes`, addrs, nets, ports, times, intervals,
/// enums, and tuples of these are keyable; anything else, a double
/// included, raises `Hilti::TypeError` as an insert or a probe. Two keys
/// are one exactly when [`Value::equals`] says so, with one exception: an
/// addr and a net are different keys, where `equal` tests membership
/// (Figure 4). A string and a `bytes` with the same content are one key.
/// Keys of different kinds sort in `Value`'s variant order, strings and
/// `bytes` as one kind ordered by content; keys of one kind sort as their
/// values do, tuples element by element.
///
/// A probe ([`HashKey::probe`]) shares its operand, so it costs a
/// reference-count bump or a copy. A container's own key
/// ([`HashKey::owned`]) holds each `bytes`, at any tuple depth, as a
/// frozen copy no value outside the container references: appending to
/// the inserted value cannot move the key, and [`HashKey::sorted`] hands
/// out copies again.
#[derive(Clone, Debug)]
pub struct HashKey(Value);

// The representation the VM is tuned for (DESIGN.md "Value representation
// and the operand convention"): a frame slot, a map entry and a constant-table
// entry are all built from these, so growth here is paid per instruction.
const _: () = assert!(std::mem::size_of::<Value>() <= 32);
const _: () = assert!(std::mem::align_of::<Value>() <= 8);
const _: () = assert!(std::mem::size_of::<HashKey>() <= 32);

impl HashKey {
    /// The key that looks `v` up: `v` itself, once it is keyable.
    pub fn probe(v: &Value) -> RtResult<HashKey> {
        keyable(v)?;
        Ok(HashKey(v.clone()))
    }

    /// The key that stores `v` in a container: [`HashKey::probe`] with
    /// every `bytes` copied into a frozen string of the container's own.
    pub fn owned(v: &Value) -> RtResult<HashKey> {
        keyable(v)?;
        Ok(HashKey(detached(v)))
    }

    /// The key as a value, to read in place (rendering, snapshots).
    pub fn as_value(&self) -> &Value {
        &self.0
    }

    /// A container's keys in key order, as values the caller may keep
    /// (`set.members`, `map.keys`, a script's `for`).
    pub fn sorted<'a>(keys: impl Iterator<Item = &'a HashKey>) -> Vec<Value> {
        let mut keys: Vec<&HashKey> = keys.collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| detached(&k.0)).collect()
    }
}

impl PartialEq for HashKey {
    fn eq(&self, other: &Self) -> bool {
        key_cmp(&self.0, &other.0).is_eq()
    }
}

impl Eq for HashKey {}

impl PartialOrd for HashKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HashKey {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(&self.0, &other.0)
    }
}

impl Hash for HashKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        key_hash(&self.0, state)
    }
}

/// A keyable value's kind: its place in `Value`'s variant order, strings
/// and `bytes` one kind. `None` if the value cannot be a key.
fn key_kind(v: &Value) -> Option<u8> {
    Some(match v {
        Value::Bool(_) => 0,
        Value::Int(_) => 1,
        Value::String(_) | Value::Bytes(_) => 2,
        Value::Addr(_) => 3,
        Value::Net(_) => 4,
        Value::Port(_) => 5,
        Value::Time(_) => 6,
        Value::Interval(_) => 7,
        Value::Enum(_, _) => 8,
        Value::Tuple(_) => 9,
        _ => return None,
    })
}

/// Whether `v` can be a key, at any tuple depth.
fn keyable(v: &Value) -> RtResult<()> {
    match v {
        Value::Tuple(vs) => vs.iter().try_for_each(keyable),
        v if key_kind(v).is_some() => Ok(()),
        other => Err(other.type_err("hashable value")),
    }
}

/// `v` with each `bytes`, at any tuple depth, copied into a fresh frozen
/// string; anything else is shared.
fn detached(v: &Value) -> Value {
    fn holds_bytes(v: &Value) -> bool {
        match v {
            Value::Bytes(_) => true,
            Value::Tuple(vs) => vs.iter().any(holds_bytes),
            _ => false,
        }
    }
    match v {
        Value::Bytes(b) => Value::Bytes(b.frozen_copy()),
        Value::Tuple(vs) if holds_bytes(v) => Value::Tuple(vs.iter().map(detached).collect()),
        other => other.clone(),
    }
}

/// Runs `f` over the content of a string or `bytes` as one slice; a
/// chunked `bytes` is coalesced first (see [`Bytes::with_available`]).
fn with_text<R>(v: &Value, f: impl FnOnce(&[u8]) -> R) -> R {
    match v {
        Value::String(s) => f(s.as_bytes()),
        Value::Bytes(b) => b
            .with_available(b.begin_offset(), f)
            .expect("retained data starts at the base"),
        _ => f(&[]),
    }
}

/// Content order of two strings or `bytes`, in any combination.
fn text_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        // `with_available` borrows its string mutably, so not twice.
        (Value::Bytes(x), Value::Bytes(y)) if x.same(y) => Ordering::Equal,
        _ => with_text(a, |x| with_text(b, |y| x.cmp(y))),
    }
}

fn key_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        // A probe often shares the stored key's text.
        (Value::String(x), Value::String(y)) if Rc::ptr_eq(x, y) => Ordering::Equal,
        (Value::String(_) | Value::Bytes(_), Value::String(_) | Value::Bytes(_)) => text_cmp(a, b),
        (Value::Addr(x), Value::Addr(y)) => x.cmp(y),
        (Value::Net(x), Value::Net(y)) => x.cmp(y),
        (Value::Port(x), Value::Port(y)) => x.cmp(y),
        (Value::Time(x), Value::Time(y)) => x.cmp(y),
        (Value::Interval(x), Value::Interval(y)) => x.cmp(y),
        (Value::Enum(n, x), Value::Enum(m, y)) => (n, x).cmp(&(m, y)),
        (Value::Tuple(xs), Value::Tuple(ys)) => xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| key_cmp(x, y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| xs.len().cmp(&ys.len())),
        _ => key_kind(a).cmp(&key_kind(b)),
    }
}

fn key_hash<H: Hasher>(v: &Value, state: &mut H) {
    state.write_u8(key_kind(v).unwrap_or(u8::MAX));
    match v {
        Value::Bool(b) => b.hash(state),
        Value::Int(i) => i.hash(state),
        Value::String(_) | Value::Bytes(_) => with_text(v, |t| {
            state.write(t);
            state.write_u8(0xff);
        }),
        Value::Addr(a) => a.hash(state),
        Value::Net(n) => n.hash(state),
        Value::Port(p) => p.hash(state),
        Value::Time(t) => t.hash(state),
        Value::Interval(i) => i.hash(state),
        Value::Enum(n, x) => (n, x).hash(state),
        Value::Tuple(vs) => {
            vs.len().hash(state);
            vs.iter().for_each(|v| key_hash(v, state));
        }
        _ => {}
    }
}

/// Deep, `Send` snapshot of a value for crossing thread boundaries.
#[derive(Clone, Debug, PartialEq)]
pub enum Portable {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    String(String),
    Bytes(Vec<u8>, bool),
    Addr(Addr),
    Net(Network),
    Port(Port),
    Time(Time),
    Interval(Interval),
    Enum(String, i64),
    Tuple(Vec<Portable>),
    List(Vec<Portable>),
    Vector(Vec<Portable>),
    Set(Vec<Portable>),
    Map(Vec<(Portable, Portable)>),
    Struct(String, Vec<Portable>),
}

impl hilti_rt::channel::DeepCopy for Portable {
    fn deep_copy(&self) -> Self {
        self.clone()
    }
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::String(Rc::from(s))
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::BytesIter(_) => "iterator<bytes>",
            Value::Addr(_) => "addr",
            Value::Net(_) => "net",
            Value::Port(_) => "port",
            Value::Time(_) => "time",
            Value::Interval(_) => "interval",
            Value::Enum(_, _) => "enum",
            Value::Tuple(_) => "tuple",
            Value::List(_) => "list",
            Value::Vector(_) => "vector",
            Value::Set(_) => "set",
            Value::Map(_) => "map",
            Value::Struct(_) => "struct",
            Value::Regexp(_) => "regexp",
            Value::Matcher(_) => "matcher",
            Value::Channel(_) => "channel",
            Value::Classifier(_) => "classifier",
            Value::Overlay(_) => "overlay",
            Value::TimerMgr(_) => "timer_mgr",
            Value::File(_) => "file",
            Value::IOSrc(_) => "iosrc",
            Value::Callable(_) => "callable",
            Value::Exception(_) => "exception",
        }
    }

    /// The `Hilti::TypeError` for this value where a `wanted` was due.
    pub(crate) fn type_err(&self, wanted: &str) -> RtError {
        RtError::type_error(format!("expected {wanted}, got {}", self.type_name()))
    }

    pub fn as_bool(&self) -> RtResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.type_err("bool")),
        }
    }

    pub fn as_int(&self) -> RtResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(other.type_err("int")),
        }
    }

    pub fn as_double(&self) -> RtResult<f64> {
        match self {
            Value::Double(d) => Ok(*d),
            Value::Int(i) => Ok(*i as f64),
            other => Err(other.type_err("double")),
        }
    }

    pub fn as_str(&self) -> RtResult<&str> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(other.type_err("string")),
        }
    }

    pub fn as_bytes(&self) -> RtResult<&Bytes> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(other.type_err("bytes")),
        }
    }

    pub fn as_bytes_iter(&self) -> RtResult<&BytesIter> {
        match self {
            Value::BytesIter(i) => Ok(i),
            other => Err(other.type_err("iterator<bytes>")),
        }
    }

    pub fn as_addr(&self) -> RtResult<Addr> {
        match self {
            Value::Addr(a) => Ok(*a),
            other => Err(other.type_err("addr")),
        }
    }

    pub fn as_net(&self) -> RtResult<Network> {
        match self {
            Value::Net(n) => Ok(*n),
            Value::Addr(a) => Ok(Network::host(*a)),
            other => Err(other.type_err("net")),
        }
    }

    pub fn as_port(&self) -> RtResult<Port> {
        match self {
            Value::Port(p) => Ok(*p),
            other => Err(other.type_err("port")),
        }
    }

    pub fn as_time(&self) -> RtResult<Time> {
        match self {
            Value::Time(t) => Ok(*t),
            other => Err(other.type_err("time")),
        }
    }

    pub fn as_interval(&self) -> RtResult<Interval> {
        match self {
            Value::Interval(i) => Ok(*i),
            other => Err(other.type_err("interval")),
        }
    }

    pub fn as_regexp(&self) -> RtResult<&Rc<Regex>> {
        match self {
            Value::Regexp(r) => Ok(r),
            other => Err(other.type_err("regexp")),
        }
    }

    pub fn as_tuple(&self) -> RtResult<&Rc<[Value]>> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(other.type_err("tuple")),
        }
    }

    /// Structural equality with HILTI's `equal` semantics: value types by
    /// value, strings and bytes by content (a string equals a `bytes` with
    /// its text), containers element-wise. On keyable values it agrees
    /// with [`HashKey`], except that an addr equals a net containing it.
    pub fn equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => {
                *a as f64 == *b
            }
            (Value::String(a), Value::String(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::String(_), Value::Bytes(_)) | (Value::Bytes(_), Value::String(_)) => {
                text_cmp(self, other).is_eq()
            }
            (Value::Addr(a), Value::Addr(b)) => a == b,
            (Value::Net(a), Value::Net(b)) => a == b,
            // addr vs net: membership, matching the BPF example's
            // `equal 10.0.5.0/24 a1` (Figure 4). As keys they differ.
            (Value::Addr(a), Value::Net(n)) | (Value::Net(n), Value::Addr(a)) => n.contains(a),
            (Value::Port(a), Value::Port(b)) => a == b,
            (Value::Time(a), Value::Time(b)) => a == b,
            (Value::Interval(a), Value::Interval(b)) => a == b,
            (Value::Enum(n1, v1), Value::Enum(n2, v2)) => n1 == n2 && v1 == v2,
            (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::Vector(a), Value::Vector(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::Struct(a), Value::Struct(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.type_name == b.type_name
                    && a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .zip(b.fields.iter())
                        .all(|(x, y)| x.equals(y))
            }
            _ => false,
        }
    }

    /// Deep, `Send` snapshot for thread crossings; types that cannot cross
    /// (files, channels, matchers, ...) produce a type error.
    pub fn to_portable(&self) -> RtResult<Portable> {
        Ok(match self {
            Value::Null => Portable::Null,
            Value::Bool(b) => Portable::Bool(*b),
            Value::Int(i) => Portable::Int(*i),
            Value::Double(d) => Portable::Double(*d),
            Value::String(s) => Portable::String(s.to_string()),
            Value::Bytes(b) => Portable::Bytes(b.to_vec(), b.is_frozen()),
            Value::Addr(a) => Portable::Addr(*a),
            Value::Net(n) => Portable::Net(*n),
            Value::Port(p) => Portable::Port(*p),
            Value::Time(t) => Portable::Time(*t),
            Value::Interval(i) => Portable::Interval(*i),
            Value::Enum(n, v) => Portable::Enum(n.to_string(), *v),
            Value::Tuple(vs) => Portable::Tuple(portables(vs.iter())?),
            Value::List(l) => Portable::List(portables(l.borrow().iter())?),
            Value::Vector(v) => Portable::Vector(portables(v.borrow().iter())?),
            Value::Set(s) => Portable::Set(portables(s.borrow().iter().map(HashKey::as_value))?),
            Value::Map(m) => Portable::Map(
                m.borrow()
                    .iter()
                    .map(|(k, v)| Ok((k.as_value().to_portable()?, v.to_portable()?)))
                    .collect::<RtResult<Vec<_>>>()?,
            ),
            Value::Struct(s) => {
                let s = s.borrow();
                Portable::Struct(s.type_name.to_string(), portables(s.fields.iter())?)
            }
            other => {
                return Err(RtError::type_error(format!(
                    "{} cannot cross a thread boundary",
                    other.type_name()
                )))
            }
        })
    }

    /// Reconstructs a value from its portable snapshot (fresh heap objects).
    pub fn from_portable(p: &Portable) -> Value {
        // Snapshots are only taken of live containers, whose keys are
        // keyable by construction.
        let key = |p: &Portable| {
            HashKey::owned(&Value::from_portable(p)).expect("portable keys come from keys")
        };
        match p {
            Portable::Null => Value::Null,
            Portable::Bool(b) => Value::Bool(*b),
            Portable::Int(i) => Value::Int(*i),
            Portable::Double(d) => Value::Double(*d),
            Portable::String(s) => Value::str(s),
            Portable::Bytes(b, frozen) => {
                let bytes = Bytes::from_slice(b);
                if *frozen {
                    bytes.freeze();
                }
                Value::Bytes(bytes)
            }
            Portable::Addr(a) => Value::Addr(*a),
            Portable::Net(n) => Value::Net(*n),
            Portable::Port(p) => Value::Port(*p),
            Portable::Time(t) => Value::Time(*t),
            Portable::Interval(i) => Value::Interval(*i),
            Portable::Enum(n, v) => Value::Enum(Rc::from(n.as_str()), *v),
            Portable::Tuple(ps) => Value::Tuple(ps.iter().map(Value::from_portable).collect()),
            Portable::List(ps) => Value::List(Rc::new(RefCell::new(
                ps.iter().map(Value::from_portable).collect(),
            ))),
            Portable::Vector(ps) => Value::Vector(Rc::new(RefCell::new(
                ps.iter().map(Value::from_portable).collect(),
            ))),
            Portable::Set(keys) => {
                let mut s = SetVal::new();
                for k in keys {
                    s.insert(key(k), Time::ZERO);
                }
                Value::Set(Rc::new(RefCell::new(s)))
            }
            Portable::Map(entries) => {
                let mut m = MapVal::new();
                for (k, v) in entries {
                    m.insert(key(k), Value::from_portable(v), Time::ZERO);
                }
                Value::Map(Rc::new(RefCell::new(m)))
            }
            Portable::Struct(name, fields) => Value::Struct(Rc::new(RefCell::new(StructVal {
                type_name: Rc::from(name.as_str()),
                fields: fields.iter().map(Value::from_portable).collect(),
            }))),
        }
    }

    /// Renders the value the way `Hilti::print` does.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the rendering to `out`: building one line from many values
    /// (`cat`, `string.fmt`, `print`) takes no string per value, and into
    /// a [`StrBuf`](hilti_rt::text::StrBuf) no string at all.
    pub fn render_into(&self, out: &mut impl std::fmt::Write) {
        fn list<'a>(
            out: &mut impl std::fmt::Write,
            open: &str,
            items: impl Iterator<Item = &'a Value>,
            close: char,
        ) {
            let _ = out.write_str(open);
            join_into(out, items, ", ");
            let _ = out.write_char(close);
        }
        // Hash containers render in sorted order of their rendered entries.
        fn sorted(out: &mut impl std::fmt::Write, mut entries: Vec<String>) {
            entries.sort();
            let _ = write!(out, "{{{}}}", entries.join(", "));
        }
        // Writing to a `String` or a `StrBuf` cannot fail.
        macro_rules! put {
            (str $s:expr) => {{
                let _ = out.write_str($s);
            }};
            ($($fmt:tt)*) => {{
                let _ = write!(out, $($fmt)*);
            }};
        }
        match self {
            Value::Null => put!(str "(null)"),
            Value::Bool(b) => put!(str if *b { "True" } else { "False" }),
            Value::Int(i) => put!("{i}"),
            Value::Double(d) => put!("{d}"),
            Value::String(s) => put!(str s),
            Value::Bytes(b) => put!("{}", String::from_utf8_lossy(&b.to_vec())),
            Value::BytesIter(i) => put!("<bytes iterator @{}>", i.offset()),
            Value::Addr(a) => put!("{a}"),
            Value::Net(n) => put!("{n}"),
            Value::Port(p) => put!("{p}"),
            Value::Time(t) => put!("{t}"),
            Value::Interval(i) => put!("{i}"),
            Value::Enum(n, v) => put!("{n}({v})"),
            Value::Tuple(vs) => list(out, "(", vs.iter(), ')'),
            Value::List(l) => list(out, "[", l.borrow().iter(), ']'),
            Value::Vector(v) => list(out, "[", v.borrow().iter(), ']'),
            Value::Set(s) => {
                let entries = s.borrow().iter().map(|k| k.as_value().render()).collect();
                sorted(out, entries)
            }
            Value::Map(m) => {
                let entries = m
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("{}: {}", k.as_value().render(), v.render()))
                    .collect();
                sorted(out, entries)
            }
            Value::Struct(s) => {
                let s = s.borrow();
                put!(str & s.type_name);
                list(out, "(", s.fields.iter(), ')')
            }
            Value::Regexp(r) => put!("/{}/", r.sources().join("|")),
            Value::Matcher(_) => put!(str "<matcher>"),
            Value::Channel(c) => put!("<channel:{}>", c.len()),
            Value::Classifier(c) => put!("<classifier:{} rules>", c.borrow().len()),
            Value::Overlay(o) => put!("<overlay {}>", o.name),
            Value::TimerMgr(t) => put!("<timer_mgr@{}>", t.borrow().now()),
            Value::File(f) => put!("<file {}>", f.name()),
            Value::IOSrc(s) => put!("<iosrc {}>", s.borrow().name),
            Value::Callable(c) => put!("<callable {}>", c.func),
            Value::Exception(e) => put!("{}: {}", e.kind, e.message),
        }
    }

    /// Renders `values` into one line, `sep` between them (`Hilti::print`,
    /// `debug.print`).
    pub fn render_joined(values: &[&Value], sep: &str) -> String {
        let mut out = String::with_capacity(Value::joined_len(values, sep));
        join_into(&mut out, values.iter().copied(), sep);
        out
    }

    /// About how long `values` rendered and joined by `sep` are: strings
    /// are most of what gets joined, and a guess for the rest keeps the
    /// line from growing by doubling.
    pub fn joined_len(values: &[&Value], sep: &str) -> usize {
        let each = |v: &&Value| match v {
            Value::String(s) => s.len() + sep.len(),
            _ => 16 + sep.len(),
        };
        values.iter().map(each).sum()
    }

    /// True if the value is "truthy" in conditional position; only booleans
    /// are accepted (the machine has no implicit coercions).
    pub fn truthy(&self) -> RtResult<bool> {
        self.as_bool()
    }
}

/// The portable snapshots of `values`, in order.
fn portables<'a>(values: impl Iterator<Item = &'a Value>) -> RtResult<Vec<Portable>> {
    values.map(Value::to_portable).collect()
}

/// Appends the renderings of `items` to `out`, `sep` between them.
fn join_into<'a>(
    out: &mut impl std::fmt::Write,
    items: impl Iterator<Item = &'a Value>,
    sep: &str,
) {
    for (i, v) in items.enumerate() {
        if i > 0 {
            let _ = out.write_str(sep);
        }
        v.render_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        let vals = [
            Value::Bool(true),
            Value::Int(-7),
            Value::str("hello"),
            Value::Addr("10.0.0.1".parse().unwrap()),
            Value::Port(Port::tcp(80)),
            Value::Tuple(Rc::new([Value::Int(1), Value::str("x")])),
        ];
        for v in &vals {
            let k = HashKey::owned(v).unwrap();
            assert!(k.as_value().equals(v), "roundtrip of {v:?}");
        }
    }

    #[test]
    fn unhashable_values_rejected_as_keys() {
        let l = Value::List(Rc::new(RefCell::new(VecDeque::new())));
        assert!(HashKey::probe(&l).is_err());
        let err = HashKey::owned(&Value::Double(1.5)).unwrap_err();
        assert_eq!(err.message, "expected hashable value, got double");
        // At any tuple depth.
        let nested = Value::Tuple(Rc::new([Value::Tuple(Rc::new([Value::Double(1.5)]))]));
        assert!(HashKey::probe(&nested).is_err());
    }

    #[test]
    fn owned_keys_copy_bytes_and_hand_out_copies() {
        let b = Bytes::from_slice(b"ab");
        let tuple = Value::Tuple(Rc::new([Value::Int(1), Value::Bytes(b.clone())]));
        let (probe, owned) = (
            HashKey::probe(&tuple).unwrap(),
            HashKey::owned(&tuple).unwrap(),
        );
        assert_eq!(probe, owned);
        b.append(b"c").unwrap();
        assert_ne!(
            probe, owned,
            "the probe shares the operand, the key does not"
        );
        let out = HashKey::sorted([&owned].into_iter());
        let Value::Tuple(vs) = &out[0] else {
            panic!("expected a tuple, got {:?}", out[0])
        };
        let Value::Bytes(copy) = &vs[1] else {
            panic!("expected bytes, got {:?}", vs[1])
        };
        assert!(copy.is_frozen());
        copy.unfreeze();
        copy.append(b"d").unwrap();
        assert!(owned
            .as_value()
            .equals(&Value::Tuple(Rc::new([Value::Int(1), Value::str("ab")]))));
    }

    #[test]
    fn a_probe_changed_after_a_read_does_not_strand_its_entry() {
        use hilti_rt::containers::ExpireStrategy;
        let mut s = SetVal::new();
        s.insert(HashKey::owned(&Value::str("k")).unwrap(), Time::ZERO);
        // A timeout set after the insert: the entry gets its deadline
        // record at its next touch, the read below.
        s.set_timeout(ExpireStrategy::Access, Interval::from_secs(10));
        let probe = Bytes::from_slice(b"k");
        let key = HashKey::probe(&Value::Bytes(probe.clone())).unwrap();
        assert!(s.exists(&key, Time::ZERO));
        probe.append(b"!").unwrap();
        assert_eq!(
            s.expire(Time::from_secs(10)),
            1,
            "the record finds its entry"
        );
    }

    #[test]
    fn equals_addr_net_membership() {
        let a = Value::Addr("10.0.5.77".parse().unwrap());
        let n = Value::Net("10.0.5.0/24".parse().unwrap());
        assert!(a.equals(&n));
        assert!(n.equals(&a));
        let other = Value::Addr("10.0.6.1".parse().unwrap());
        assert!(!other.equals(&n));
    }

    #[test]
    fn equals_bytes_and_string() {
        let b = Value::Bytes(Bytes::frozen_from_slice(b"abc"));
        let s = Value::str("abc");
        assert!(b.equals(&s));
        assert!(s.equals(&b));
    }

    #[test]
    fn heap_values_share_on_clone() {
        let v = Value::Vector(Rc::new(RefCell::new(vec![Value::Int(1)])));
        let w = v.clone();
        if let Value::Vector(inner) = &w {
            inner.borrow_mut().push(Value::Int(2));
        }
        if let Value::Vector(inner) = &v {
            assert_eq!(inner.borrow().len(), 2);
        }
    }

    #[test]
    fn portable_roundtrip_is_deep() {
        let v = Value::Vector(Rc::new(RefCell::new(vec![
            Value::str("a"),
            Value::Tuple(Rc::new([Value::Int(1), Value::Bool(false)])),
        ])));
        let p = v.to_portable().unwrap();
        let v2 = Value::from_portable(&p);
        assert!(v.equals(&v2));
        // Mutating the copy must not affect the original.
        if let Value::Vector(inner) = &v2 {
            inner.borrow_mut().push(Value::Int(9));
        }
        if let Value::Vector(inner) = &v {
            assert_eq!(inner.borrow().len(), 2);
        }
    }

    #[test]
    fn portable_preserves_frozen_state() {
        let b = Bytes::frozen_from_slice(b"done");
        let p = Value::Bytes(b).to_portable().unwrap();
        match Value::from_portable(&p) {
            Value::Bytes(b2) => assert!(b2.is_frozen()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn files_cannot_cross_threads() {
        let f = Value::File(LogFile::in_memory("x"));
        assert!(f.to_portable().is_err());
    }

    #[test]
    fn render_shapes() {
        assert_eq!(Value::Bool(true).render(), "True");
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(
            Value::Tuple(Rc::new([Value::Int(1), Value::str("x")])).render(),
            "(1, x)"
        );
        let mut s = SetVal::new();
        s.insert(HashKey::owned(&Value::Int(2)).unwrap(), Time::ZERO);
        s.insert(HashKey::owned(&Value::Int(1)).unwrap(), Time::ZERO);
        assert_eq!(Value::Set(Rc::new(RefCell::new(s))).render(), "{1, 2}");
    }

    #[test]
    fn map_portable_roundtrip() {
        let mut m = MapVal::new();
        m.insert(
            HashKey::owned(&Value::str("k")).unwrap(),
            Value::Int(5),
            Time::ZERO,
        );
        let v = Value::Map(Rc::new(RefCell::new(m)));
        let p = v.to_portable().unwrap();
        let v2 = Value::from_portable(&p);
        if let Value::Map(m2) = v2 {
            assert_eq!(
                m2.borrow_mut()
                    .get(&HashKey::probe(&Value::str("k")).unwrap(), Time::ZERO)
                    .map(|x| x.as_int().unwrap()),
                Some(5)
            );
        } else {
            panic!("expected map");
        }
    }
}
