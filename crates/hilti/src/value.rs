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
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use hilti_rt::addr::{Addr, Network, Port};
use hilti_rt::bytestring::{Bytes, BytesIter};
use hilti_rt::classifier::Classifier;
use hilti_rt::containers::{ExpiringMap, ExpiringSet};
use hilti_rt::error::{ExceptionKind, RtError, RtResult};
use hilti_rt::file::LogFile;
use hilti_rt::overlay::OverlayType;
use hilti_rt::regexp::{Matcher, Regex};
use hilti_rt::time::{Interval, Time};

/// A set value: expiring set of hashable keys.
pub type SetVal = ExpiringSet<Key>;
/// A map value: expiring map from hashable keys to values.
pub type MapVal = ExpiringMap<Key, Value>;

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
#[derive(Debug)]
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

/// A pending timer entry: fires `action` (a callable) at its deadline.
#[derive(Debug, Clone)]
pub struct TimerEntry {
    pub seq: u64,
    pub action: CallableVal,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for TimerEntry {}

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
    Regexp(Arc<Regex>),
    Matcher(Rc<RefCell<Matcher>>),
    Channel(hilti_rt::channel::Channel<Portable>),
    Classifier(Rc<RefCell<Classifier<Value>>>),
    Overlay(Rc<OverlayType>),
    TimerMgr(Rc<RefCell<hilti_rt::timer::TimerMgr<TimerEntry>>>),
    File(LogFile),
    IOSrc(Rc<RefCell<IoSource>>),
    Callable(Rc<CallableVal>),
    Exception(Rc<ExceptionVal>),
}

/// The hashable subset of values usable as set members / map keys.
///
/// String-like keys share the value's `Rc<str>`: converting a value for a
/// probe (`map.exists`, `map.get`, ...) is a reference-count bump, not a
/// copy of the text, and `Key::to_value` hands the same string back. A key
/// is therefore thread-local like every other value; the [`Portable`] form
/// carries keys as portable values.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    Bool(bool),
    Int(i64),
    String(Rc<str>),
    Bytes(Vec<u8>),
    Addr(Addr),
    Net(Network),
    Port(Port),
    Time(Time),
    Interval(Interval),
    Enum(Rc<str>, i64),
    Tuple(Vec<Key>),
}

// The representation the VM is tuned for (DESIGN.md "Value representation
// and the operand convention"): a frame slot, a map entry and an immediate
// operand are all built from these, so growth here is paid per instruction.
const _: () = assert!(std::mem::size_of::<Value>() <= 32);
const _: () = assert!(std::mem::align_of::<Value>() <= 8);
const _: () = assert!(std::mem::size_of::<Key>() <= 32);

impl Key {
    /// Reconstructs the value form of this key.
    pub fn to_value(&self) -> Value {
        match self {
            Key::Bool(b) => Value::Bool(*b),
            Key::Int(i) => Value::Int(*i),
            Key::String(s) => Value::String(Rc::clone(s)),
            Key::Bytes(b) => Value::Bytes(Bytes::frozen_from_slice(b)),
            Key::Addr(a) => Value::Addr(*a),
            Key::Net(n) => Value::Net(*n),
            Key::Port(p) => Value::Port(*p),
            Key::Time(t) => Value::Time(*t),
            Key::Interval(i) => Value::Interval(*i),
            Key::Enum(n, v) => Value::Enum(Rc::clone(n), *v),
            Key::Tuple(ks) => Value::Tuple(ks.iter().map(Key::to_value).collect()),
        }
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

    fn type_err(&self, wanted: &str) -> RtError {
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

    pub fn as_tuple(&self) -> RtResult<&Rc<[Value]>> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(other.type_err("tuple")),
        }
    }

    /// Converts to a hashable key; heap types that cannot serve as keys
    /// produce a type error.
    pub fn to_key(&self) -> RtResult<Key> {
        Ok(match self {
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(i) => Key::Int(*i),
            Value::String(s) => Key::String(Rc::clone(s)),
            Value::Bytes(b) => Key::Bytes(b.to_vec()),
            Value::Addr(a) => Key::Addr(*a),
            Value::Net(n) => Key::Net(*n),
            Value::Port(p) => Key::Port(*p),
            Value::Time(t) => Key::Time(*t),
            Value::Interval(i) => Key::Interval(*i),
            Value::Enum(n, v) => Key::Enum(Rc::clone(n), *v),
            Value::Tuple(vs) => Key::Tuple(
                vs.iter()
                    .map(Value::to_key)
                    .collect::<RtResult<Vec<Key>>>()?,
            ),
            other => return Err(other.type_err("hashable value")),
        })
    }

    /// Structural equality with HILTI's `equal` semantics: value types by
    /// value, bytes by content, containers element-wise.
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
            (Value::String(a), Value::Bytes(b)) | (Value::Bytes(b), Value::String(a)) => {
                a.as_bytes() == b.to_vec().as_slice()
            }
            (Value::Addr(a), Value::Addr(b)) => a == b,
            (Value::Net(a), Value::Net(b)) => a == b,
            // addr vs net: membership, matching the BPF example's
            // `equal 10.0.5.0/24 a1` (Figure 4).
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
            Value::Tuple(vs) => Portable::Tuple(
                vs.iter()
                    .map(Value::to_portable)
                    .collect::<RtResult<Vec<_>>>()?,
            ),
            Value::List(l) => Portable::List(
                l.borrow()
                    .iter()
                    .map(Value::to_portable)
                    .collect::<RtResult<Vec<_>>>()?,
            ),
            Value::Vector(v) => Portable::Vector(
                v.borrow()
                    .iter()
                    .map(Value::to_portable)
                    .collect::<RtResult<Vec<_>>>()?,
            ),
            Value::Set(s) => Portable::Set(
                s.borrow()
                    .iter()
                    .map(|k| k.to_value().to_portable())
                    .collect::<RtResult<Vec<_>>>()?,
            ),
            Value::Map(m) => Portable::Map(
                m.borrow()
                    .iter()
                    .map(|(k, v)| Ok((k.to_value().to_portable()?, v.to_portable()?)))
                    .collect::<RtResult<Vec<_>>>()?,
            ),
            Value::Struct(s) => {
                let s = s.borrow();
                Portable::Struct(
                    s.type_name.to_string(),
                    s.fields
                        .iter()
                        .map(Value::to_portable)
                        .collect::<RtResult<Vec<_>>>()?,
                )
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
                    s.insert(portable_key(k), Time::ZERO);
                }
                Value::Set(Rc::new(RefCell::new(s)))
            }
            Portable::Map(entries) => {
                let mut m = MapVal::new();
                for (k, v) in entries {
                    m.insert(portable_key(k), Value::from_portable(v), Time::ZERO);
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
    /// (`cat`, `string.fmt`, `print`) takes no string per value.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        fn list<'a>(
            out: &mut String,
            open: &str,
            items: impl Iterator<Item = &'a Value>,
            close: char,
        ) {
            out.push_str(open);
            join_into(out, items, ", ");
            out.push(close);
        }
        // Hash containers render in sorted order of their rendered entries.
        fn sorted(out: &mut String, mut entries: Vec<String>) {
            entries.sort();
            out.push('{');
            out.push_str(&entries.join(", "));
            out.push('}');
        }
        // Writing to a `String` cannot fail.
        macro_rules! put {
            ($($fmt:tt)*) => {{
                let _ = write!(out, $($fmt)*);
            }};
        }
        match self {
            Value::Null => out.push_str("(null)"),
            Value::Bool(b) => out.push_str(if *b { "True" } else { "False" }),
            Value::Int(i) => put!("{i}"),
            Value::Double(d) => put!("{d}"),
            Value::String(s) => out.push_str(s),
            Value::Bytes(b) => out.push_str(&String::from_utf8_lossy(&b.to_vec())),
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
                let entries = s.borrow().iter().map(|k| k.to_value().render()).collect();
                sorted(out, entries)
            }
            Value::Map(m) => {
                let entries = m
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("{}: {}", k.to_value().render(), v.render()))
                    .collect();
                sorted(out, entries)
            }
            Value::Struct(s) => {
                let s = s.borrow();
                out.push_str(&s.type_name);
                list(out, "(", s.fields.iter(), ')')
            }
            Value::Regexp(r) => put!("/{}/", r.sources().join("|")),
            Value::Matcher(_) => out.push_str("<matcher>"),
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
        // Strings are most of what gets joined; a guess for the rest keeps
        // the line from growing by doubling.
        let estimate = values.iter().map(|v| match v {
            Value::String(s) => s.len() + sep.len(),
            _ => 16 + sep.len(),
        });
        let mut out = String::with_capacity(estimate.sum());
        join_into(&mut out, values.iter().copied(), sep);
        out
    }

    /// True if the value is "truthy" in conditional position; only booleans
    /// are accepted (the machine has no implicit coercions).
    pub fn truthy(&self) -> RtResult<bool> {
        self.as_bool()
    }
}

/// Appends the renderings of `items` to `out`, `sep` between them.
fn join_into<'a>(out: &mut String, items: impl Iterator<Item = &'a Value>, sep: &str) {
    for (i, v) in items.enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        v.render_into(out);
    }
}

/// The key a portable set member / map key stands for. Snapshots are only
/// taken of live containers, whose keys are hashable by construction.
fn portable_key(p: &Portable) -> Key {
    Value::from_portable(p)
        .to_key()
        .expect("portable container keys come from hashable keys")
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
            let k = v.to_key().unwrap();
            assert!(k.to_value().equals(v), "roundtrip of {v:?}");
        }
    }

    #[test]
    fn unhashable_values_rejected_as_keys() {
        let l = Value::List(Rc::new(RefCell::new(VecDeque::new())));
        assert!(l.to_key().is_err());
        assert!(Value::Double(1.5).to_key().is_err());
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
        s.insert(Key::Int(2), Time::ZERO);
        s.insert(Key::Int(1), Time::ZERO);
        assert_eq!(Value::Set(Rc::new(RefCell::new(s))).render(), "{1, 2}");
    }

    #[test]
    fn map_portable_roundtrip() {
        let mut m = MapVal::new();
        m.insert(Key::String("k".into()), Value::Int(5), Time::ZERO);
        let v = Value::Map(Rc::new(RefCell::new(m)));
        let p = v.to_portable().unwrap();
        let v2 = Value::from_portable(&p);
        if let Value::Map(m2) = v2 {
            assert_eq!(
                m2.borrow_mut()
                    .get(&Key::String("k".into()), Time::ZERO)
                    .map(|x| x.as_int().unwrap()),
                Some(5)
            );
        } else {
            panic!("expected map");
        }
    }
}
