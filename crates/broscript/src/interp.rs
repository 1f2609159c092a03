//! The tree-walking script interpreter — the role of Bro's standard script
//! interpreter in §6.5.
//!
//! Dynamically typed evaluation straight off the AST: variables in hash
//! maps, containers as runtime-discriminated values, every operator
//! re-dispatched per evaluation. Shares the value model
//! ([`hilti::value::Value`]) and the builtin library ([`crate::host`])
//! with the compiled engine, so outputs are comparable line for line
//! (Table 3).

use std::collections::HashMap;
use std::rc::Rc;

use hilti::ops::ExpiringHandle;
use hilti::value::{HashKey, MapVal, SetVal, Value};
use hilti_rt::containers::ExpireStrategy;
use hilti_rt::error::{RtError, RtResult};
use hilti_rt::limits::{FuelMeter, ResourceLimits};
use hilti_rt::time::{Interval, Time};

use crate::ast::*;
use crate::host::{call_builtin, BroRt};

/// Flow control outcome of a statement.
enum Flow {
    Normal,
    Return(Value),
}

/// The interpreter engine.
pub struct Interp {
    script: Rc<Script>,
    globals: HashMap<String, Value>,
    expiring: Vec<ExpiringHandle>,
    rt: Rc<std::cell::RefCell<BroRt>>,
    /// `print` output.
    pub out: Vec<String>,
    depth: usize,
    /// Loop-iteration fuel, shared across the whole script run. Defaults
    /// to a generous fail-safe so runaway `while` loops still terminate.
    fuel: FuelMeter,
}

const MAX_DEPTH: usize = 60;

/// Default loop fuel when no explicit limit is configured.
const DEFAULT_FUEL: u64 = 10_000_000;

impl Interp {
    /// Initializes globals (containers instantiated, timeouts attached,
    /// scalar initializers evaluated).
    pub fn new(script: Rc<Script>, rt: Rc<std::cell::RefCell<BroRt>>) -> RtResult<Interp> {
        let mut interp = Interp {
            script: script.clone(),
            globals: HashMap::new(),
            expiring: Vec::new(),
            rt,
            out: Vec::new(),
            depth: 0,
            fuel: FuelMeter::new(Some(DEFAULT_FUEL)),
        };
        for g in &script.globals {
            let v = match &g.ty {
                STy::Set(_) => {
                    let mut s = SetVal::new();
                    if let Some(attr) = g.expire {
                        let (strat, iv) = expire(attr);
                        s.set_timeout(strat, iv);
                    }
                    let rc = Rc::new(std::cell::RefCell::new(s));
                    if g.expire.is_some() {
                        interp.expiring.push(ExpiringHandle::Set(rc.clone()));
                    }
                    Value::Set(rc)
                }
                STy::Table(_, _) => {
                    let mut m = MapVal::new();
                    if let Some(attr) = g.expire {
                        let (strat, iv) = expire(attr);
                        m.set_timeout(strat, iv);
                    }
                    let rc = Rc::new(std::cell::RefCell::new(m));
                    if g.expire.is_some() {
                        interp.expiring.push(ExpiringHandle::Map(rc.clone()));
                    }
                    Value::Map(rc)
                }
                STy::Vector(_) => Value::Vector(Rc::new(std::cell::RefCell::new(Vec::new()))),
                _ => match &g.init {
                    Some(e) => {
                        let mut locals = HashMap::new();
                        interp.eval(e, &mut locals)?
                    }
                    None => default_value(&g.ty),
                },
            };
            interp.globals.insert(g.name.clone(), v);
        }
        Ok(interp)
    }

    /// Installs resource limits: an explicit fuel limit replaces the
    /// default fail-safe loop budget (absent = unlimited).
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.fuel = FuelMeter::new(limits.fuel);
    }

    /// Remaining loop fuel.
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel.remaining()
    }

    /// Advances network time, expiring container state.
    pub fn advance_time(&mut self, t: Time) {
        self.rt.borrow_mut().advance(t);
        for e in &self.expiring {
            e.expire(t);
        }
    }

    fn now(&self) -> Time {
        self.rt.borrow().net_time
    }

    /// The values of the script's globals.
    pub(crate) fn globals(&self) -> impl Iterator<Item = &Value> {
        self.globals.values()
    }

    /// Dispatches an event to all matching handlers.
    pub fn dispatch(&mut self, event: &str, args: &[Value]) -> RtResult<()> {
        let script = self.script.clone();
        for h in script.handlers_for(event) {
            if h.params.len() != args.len() {
                return Err(RtError::type_error(format!(
                    "event {event}: handler expects {} args, got {}",
                    h.params.len(),
                    args.len()
                )));
            }
            let mut locals: HashMap<String, Value> = h
                .params
                .iter()
                .zip(args)
                .map(|((n, _), v)| (n.clone(), v.clone()))
                .collect();
            self.run_block(&h.body, &mut locals)?;
        }
        Ok(())
    }

    /// Calls a script function.
    pub fn call(&mut self, name: &str, args: &[Value]) -> RtResult<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(RtError::runtime("script recursion limit exceeded"));
        }
        let result = self.call_inner(name, args);
        self.depth -= 1;
        result
    }

    fn call_inner(&mut self, name: &str, args: &[Value]) -> RtResult<Value> {
        let script = self.script.clone();
        let Some(f) = script.functions.iter().find(|f| f.name == name) else {
            // Builtin?
            let args: Vec<&Value> = args.iter().collect();
            if let Some(r) = call_builtin(name, &args, &self.rt) {
                return r;
            }
            return Err(RtError::value(format!("unknown function {name}")));
        };
        if f.params.len() != args.len() {
            return Err(RtError::type_error(format!(
                "function {name}: expected {} args, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let mut locals: HashMap<String, Value> = f
            .params
            .iter()
            .zip(args)
            .map(|((n, _), v)| (n.clone(), v.clone()))
            .collect();
        match self.run_block(&f.body, &mut locals)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }

    fn run_block(&mut self, stmts: &[Stmt], locals: &mut HashMap<String, Value>) -> RtResult<Flow> {
        for s in stmts {
            match self.run_stmt(s, locals)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn run_stmt(&mut self, stmt: &Stmt, locals: &mut HashMap<String, Value>) -> RtResult<Flow> {
        match stmt {
            Stmt::Local(name, _ty, init) => {
                let v = self.eval(init, locals)?;
                locals.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign(target, e) => {
                let v = self.eval(e, locals)?;
                match target {
                    Expr::Var(name) => {
                        if locals.contains_key(name) {
                            locals.insert(name.clone(), v);
                        } else if self.globals.contains_key(name) {
                            self.globals.insert(name.clone(), v);
                        } else {
                            locals.insert(name.clone(), v);
                        }
                    }
                    Expr::Index(container, idx) => {
                        let c = self.eval(container, locals)?;
                        let i = self.eval(idx, locals)?;
                        let now = self.now();
                        match &c {
                            Value::Map(m) => {
                                m.borrow_mut().insert(HashKey::owned(&i)?, v, now);
                            }
                            Value::Vector(vec) => {
                                let idx = i.as_int()?.max(0) as usize;
                                let mut vec = vec.borrow_mut();
                                if idx == vec.len() {
                                    vec.push(v);
                                } else if idx < vec.len() {
                                    vec[idx] = v;
                                } else {
                                    return Err(RtError::index(format!(
                                        "vector index {idx} out of range"
                                    )));
                                }
                            }
                            other => {
                                return Err(RtError::type_error(format!(
                                    "cannot index-assign into {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    Expr::Field(base, field) => {
                        let rec = self.eval(base, locals)?;
                        self.record_set(&rec, field, v)?;
                    }
                    other => {
                        return Err(RtError::type_error(format!(
                            "bad assignment target {other:?}"
                        )))
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Add(set, k) => {
                let key = HashKey::owned(&self.eval(k, locals)?)?;
                let now = self.now();
                match self.lookup(set, locals)? {
                    Value::Set(s) => {
                        s.borrow_mut().insert(key, now);
                        Ok(Flow::Normal)
                    }
                    other => Err(RtError::type_error(format!(
                        "add on {}, expected set",
                        other.type_name()
                    ))),
                }
            }
            Stmt::Delete(name, k) => {
                let key = HashKey::probe(&self.eval(k, locals)?)?;
                match self.lookup(name, locals)? {
                    Value::Set(s) => {
                        s.borrow_mut().remove(&key);
                        Ok(Flow::Normal)
                    }
                    Value::Map(m) => {
                        m.borrow_mut().remove(&key);
                        Ok(Flow::Normal)
                    }
                    other => Err(RtError::type_error(format!(
                        "delete on {}",
                        other.type_name()
                    ))),
                }
            }
            Stmt::If(cond, then, els) => {
                if self.eval(cond, locals)?.as_bool()? {
                    self.run_block(then, locals)
                } else {
                    self.run_block(els, locals)
                }
            }
            Stmt::For(var, container, body) => {
                let c = self.eval(container, locals)?;
                // Deterministic (sorted) iteration order, matching the
                // compiled engine's sorted key lists.
                let items: Vec<Value> = match &c {
                    Value::Set(s) => HashKey::sorted(s.borrow().iter()),
                    Value::Map(m) => HashKey::sorted(m.borrow().iter().map(|(k, _)| k)),
                    Value::Vector(v) => v.borrow().clone(),
                    other => {
                        return Err(RtError::type_error(format!(
                            "for over {}",
                            other.type_name()
                        )))
                    }
                };
                for item in items {
                    locals.insert(var.clone(), item);
                    match self.run_block(body, locals)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, locals)?.as_bool()? {
                    self.fuel.charge(1)?;
                    match self.run_block(body, locals)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Print(args) => {
                let line = args
                    .iter()
                    .map(|e| self.eval(e, locals).map(|v| v.render()))
                    .collect::<RtResult<Vec<_>>>()?
                    .join(", ");
                self.out.push(line);
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, locals)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, locals)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn lookup(&self, name: &str, locals: &HashMap<String, Value>) -> RtResult<Value> {
        locals
            .get(name)
            .or_else(|| self.globals.get(name))
            .cloned()
            .ok_or_else(|| RtError::value(format!("undefined variable {name}")))
    }

    fn eval(&mut self, e: &Expr, locals: &mut HashMap<String, Value>) -> RtResult<Value> {
        Ok(match e {
            Expr::Count(c) => Value::Int(*c as i64),
            Expr::Int(i) => Value::Int(*i),
            Expr::Double(d) => Value::Double(*d),
            Expr::Str(s) => Value::str(s),
            Expr::Bool(b) => Value::Bool(*b),
            Expr::IntervalLit(secs) => Value::Interval(Interval::from_secs_f64(*secs)),
            Expr::Var(name) => self.lookup(name, locals)?,
            Expr::VectorCtor => Value::Vector(Rc::new(std::cell::RefCell::new(Vec::new()))),
            Expr::Index(c, i) => {
                let c = self.eval(c, locals)?;
                let i = self.eval(i, locals)?;
                let now = self.now();
                match &c {
                    Value::Map(m) => m
                        .borrow_mut()
                        .get(&HashKey::probe(&i)?, now)
                        .cloned()
                        .ok_or_else(|| RtError::index("no such table element"))?,
                    Value::Vector(v) => {
                        let idx = i.as_int()?;
                        v.borrow()
                            .get(idx.max(0) as usize)
                            .cloned()
                            .ok_or_else(|| {
                                RtError::index(format!("vector index {idx} out of range"))
                            })?
                    }
                    other => {
                        return Err(RtError::type_error(format!(
                            "cannot index {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Expr::In(k, c) => {
                let key = HashKey::probe(&self.eval(k, locals)?)?;
                let c = self.eval(c, locals)?;
                let now = self.now();
                match &c {
                    // `in` on a set counts as an access (refreshes
                    // read-expire deadlines), matching `set.exists`.
                    Value::Set(s) => Value::Bool(s.borrow_mut().exists(&key, now)),
                    Value::Map(m) => Value::Bool(m.borrow().contains(&key)),
                    other => {
                        return Err(RtError::type_error(format!(
                            "'in' on {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Expr::Size(inner) => {
                let v = self.eval(inner, locals)?;
                Value::Int(match &v {
                    Value::Set(s) => s.borrow().len() as i64,
                    Value::Map(m) => m.borrow().len() as i64,
                    Value::Vector(x) => x.borrow().len() as i64,
                    Value::String(s) => s.chars().count() as i64,
                    Value::Bytes(b) => b.len() as i64,
                    other => {
                        return Err(RtError::type_error(format!(
                            "|...| on {}",
                            other.type_name()
                        )))
                    }
                })
            }
            Expr::Not(inner) => Value::Bool(!self.eval(inner, locals)?.as_bool()?),
            Expr::Neg(inner) => Value::Int(-self.eval(inner, locals)?.as_int()?),
            Expr::Bin(op, l, r) => {
                // Short-circuit booleans.
                if *op == BinOp::And {
                    return Ok(Value::Bool(
                        self.eval(l, locals)?.as_bool()? && self.eval(r, locals)?.as_bool()?,
                    ));
                }
                if *op == BinOp::Or {
                    return Ok(Value::Bool(
                        self.eval(l, locals)?.as_bool()? || self.eval(r, locals)?.as_bool()?,
                    ));
                }
                let lv = self.eval(l, locals)?;
                let rv = self.eval(r, locals)?;
                binop(*op, &lv, &rv)?
            }
            Expr::Call(name, args) => {
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, locals))
                    .collect::<RtResult<Vec<_>>>()?;
                self.call(name, &vals)?
            }
            Expr::Field(base, field) => {
                let b = self.eval(base, locals)?;
                self.record_get(&b, field)?
            }
            Expr::RecordCtor(name, fields) => {
                let layout = self
                    .script
                    .record(name)
                    .ok_or_else(|| RtError::type_error(format!("unknown record type {name}")))?
                    .to_vec();
                let mut slots: Vec<Value> = std::iter::repeat_with(|| Value::Null)
                    .take(layout.len())
                    .collect();
                for (f, e) in fields {
                    let idx = layout
                        .iter()
                        .position(|(n, _)| n == f)
                        .ok_or_else(|| RtError::index(format!("record {name} has no field {f}")))?;
                    slots[idx] = self.eval(e, locals)?;
                }
                Value::Struct(Rc::new(std::cell::RefCell::new(hilti::value::StructVal {
                    type_name: Rc::from(name.as_str()),
                    fields: slots,
                })))
            }
        })
    }

    /// Record field read (`r$f`).
    fn record_get(&self, v: &Value, field: &str) -> RtResult<Value> {
        let Value::Struct(s) = v else {
            return Err(RtError::type_error(format!(
                "$ access on {}",
                v.type_name()
            )));
        };
        let s = s.borrow();
        let layout = self
            .script
            .record(&s.type_name)
            .ok_or_else(|| RtError::type_error(format!("unknown record {}", s.type_name)))?;
        let idx = layout.iter().position(|(n, _)| n == field).ok_or_else(|| {
            RtError::index(format!("record {} has no field {field}", s.type_name))
        })?;
        Ok(s.fields[idx].clone())
    }

    /// Record field write (`r$f = v`).
    fn record_set(&self, rec: &Value, field: &str, v: Value) -> RtResult<()> {
        let Value::Struct(s) = rec else {
            return Err(RtError::type_error(format!(
                "$ assignment on {}",
                rec.type_name()
            )));
        };
        let idx = {
            let s = s.borrow();
            self.script
                .record(&s.type_name)
                .and_then(|layout| layout.iter().position(|(n, _)| n == field))
                .ok_or_else(|| {
                    RtError::index(format!("record {} has no field {field}", s.type_name))
                })?
        };
        s.borrow_mut().fields[idx] = v;
        Ok(())
    }
}

/// Evaluates a non-boolean binary operator with script semantics.
pub fn binop(op: BinOp, l: &Value, r: &Value) -> RtResult<Value> {
    use BinOp::*;
    Ok(match op {
        Eq => Value::Bool(l.equals(r)),
        Ne => Value::Bool(!l.equals(r)),
        Add => match (l, r) {
            (Value::String(a), Value::String(b)) => Value::str(&format!("{a}{b}")),
            (Value::Double(_), _) | (_, Value::Double(_)) => {
                Value::Double(l.as_double()? + r.as_double()?)
            }
            (Value::Time(t), Value::Interval(i)) => Value::Time(*t + *i),
            (Value::Interval(a), Value::Interval(b)) => Value::Interval(*a + *b),
            _ => Value::Int(l.as_int()?.wrapping_add(r.as_int()?)),
        },
        Sub => match (l, r) {
            (Value::Double(_), _) | (_, Value::Double(_)) => {
                Value::Double(l.as_double()? - r.as_double()?)
            }
            (Value::Time(a), Value::Time(b)) => Value::Interval(*a - *b),
            (Value::Interval(a), Value::Interval(b)) => Value::Interval(*a - *b),
            _ => Value::Int(l.as_int()?.wrapping_sub(r.as_int()?)),
        },
        Mul => match (l, r) {
            (Value::Double(_), _) | (_, Value::Double(_)) => {
                Value::Double(l.as_double()? * r.as_double()?)
            }
            _ => Value::Int(l.as_int()?.wrapping_mul(r.as_int()?)),
        },
        Div => match (l, r) {
            (Value::Double(_), _) | (_, Value::Double(_)) => {
                let d = r.as_double()?;
                if d == 0.0 {
                    return Err(RtError::arithmetic("division by zero"));
                }
                Value::Double(l.as_double()? / d)
            }
            _ => {
                let d = r.as_int()?;
                if d == 0 {
                    return Err(RtError::arithmetic("division by zero"));
                }
                Value::Int(l.as_int()?.wrapping_div(d))
            }
        },
        Mod => {
            let d = r.as_int()?;
            if d == 0 {
                return Err(RtError::arithmetic("modulo by zero"));
            }
            Value::Int(l.as_int()?.wrapping_rem(d))
        }
        Lt | Gt | Le | Ge => {
            let c = compare(l, r)?;
            Value::Bool(match op {
                Lt => c < 0,
                Gt => c > 0,
                Le => c <= 0,
                _ => c >= 0,
            })
        }
        And | Or => unreachable!("short-circuited by caller"),
    })
}

fn compare(l: &Value, r: &Value) -> RtResult<i32> {
    Ok(match (l, r) {
        (Value::Int(a), Value::Int(b)) => (a.cmp(b)) as i32,
        (Value::Double(_), _) | (_, Value::Double(_)) => {
            let (a, b) = (l.as_double()?, r.as_double()?);
            if a < b {
                -1
            } else if a > b {
                1
            } else {
                0
            }
        }
        (Value::String(a), Value::String(b)) => a.cmp(b) as i32,
        (Value::Time(a), Value::Time(b)) => a.cmp(b) as i32,
        (Value::Interval(a), Value::Interval(b)) => a.cmp(b) as i32,
        _ => {
            return Err(RtError::type_error(format!(
                "cannot compare {} with {}",
                l.type_name(),
                r.type_name()
            )))
        }
    })
}

fn expire(attr: ExpireAttr) -> (ExpireStrategy, Interval) {
    match attr {
        ExpireAttr::Create(iv) => (ExpireStrategy::Create, iv),
        ExpireAttr::Read(iv) => (ExpireStrategy::Access, iv),
    }
}

fn default_value(ty: &STy) -> Value {
    match ty {
        STy::Bool => Value::Bool(false),
        STy::Count | STy::Int => Value::Int(0),
        STy::Double => Value::Double(0.0),
        STy::Str => Value::str(""),
        STy::Time => Value::Time(Time::ZERO),
        STy::Interval => Value::Interval(Interval::ZERO),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_script;

    fn engine(src: &str) -> Interp {
        let script = Rc::new(parse_script(src).unwrap());
        let rt = Rc::new(std::cell::RefCell::new(BroRt::default()));
        Interp::new(script, rt).unwrap()
    }

    #[test]
    fn figure8_track_bro() {
        let mut i = engine(
            r#"
global hosts: set[addr];

event connection_established(uid: string, orig_h: addr, orig_p: port, resp_h: addr, resp_p: port) {
    add hosts[resp_h];
}

event bro_done() {
    for ( i in hosts )
        print i;
}
"#,
        );
        let mk = |resp: &str| {
            vec![
                Value::str("C1"),
                Value::Addr("10.0.0.1".parse().unwrap()),
                Value::Port(hilti_rt::addr::Port::tcp(40000)),
                Value::Addr(resp.parse().unwrap()),
                Value::Port(hilti_rt::addr::Port::tcp(80)),
            ]
        };
        // Three servers, one duplicated (Figure 8c has 3 unique).
        for resp in [
            "208.80.152.118",
            "208.80.152.2",
            "208.80.152.3",
            "208.80.152.2",
        ] {
            i.dispatch("connection_established", &mk(resp)).unwrap();
        }
        i.dispatch("bro_done", &[]).unwrap();
        // Deterministic sorted iteration: numeric address order.
        assert_eq!(
            i.out,
            vec!["208.80.152.2", "208.80.152.3", "208.80.152.118"]
        );
    }

    #[test]
    fn fibonacci() {
        let mut i = engine(
            r#"
function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n - 1) + fib(n - 2);
}
"#,
        );
        let v = i.call("fib", &[Value::Int(20)]).unwrap();
        assert!(v.equals(&Value::Int(6765)));
    }

    #[test]
    fn tables_count_and_expire() {
        let mut i = engine(
            r#"
global seen: table[string] of count &create_expire=10.0;

event tick(k: string) {
    if ( k in seen )
        seen[k] = seen[k] + 1;
    else
        seen[k] = 1;
}

event report() {
    for ( k in seen )
        print k, seen[k];
}
"#,
        );
        i.advance_time(Time::from_secs(1));
        i.dispatch("tick", &[Value::str("a")]).unwrap();
        i.dispatch("tick", &[Value::str("a")]).unwrap();
        i.dispatch("tick", &[Value::str("b")]).unwrap();
        i.dispatch("report", &[]).unwrap();
        assert_eq!(i.out, vec!["a, 2", "b, 1"]);
        i.out.clear();
        // Create-expire: entries die 10s after creation.
        i.advance_time(Time::from_secs(12));
        i.dispatch("report", &[]).unwrap();
        assert!(i.out.is_empty());
    }

    #[test]
    fn vectors_append_and_iterate() {
        let mut i = engine(
            r#"
event go() {
    local v: vector of string = vector();
    v[|v|] = "x";
    v[|v|] = "y";
    for ( s in v )
        print s;
    print |v|;
}
"#,
        );
        i.dispatch("go", &[]).unwrap();
        assert_eq!(i.out, vec!["x", "y", "2"]);
    }

    #[test]
    fn while_and_arith() {
        let mut i = engine(
            r#"
function sum_to(n: count): count {
    local s = 0;
    local i = 1;
    while ( i <= n ) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"#,
        );
        let v = i.call("sum_to", &[Value::Int(100)]).unwrap();
        assert!(v.equals(&Value::Int(5050)));
    }

    #[test]
    fn string_concat_and_builtins() {
        let mut i = engine(
            r#"
event go(name: string) {
    print "hello " + name;
    print cat("a=", 1, " b=", 2.5);
    print to_lower("ABC");
}
"#,
        );
        i.dispatch("go", &[Value::str("world")]).unwrap();
        assert_eq!(i.out, vec!["hello world", "a=1 b=2.5", "abc"]);
    }

    #[test]
    fn short_circuit_protects() {
        let mut i = engine(
            r#"
global t: table[string] of count;
event go(k: string) {
    if ( k in t && t[k] > 2 )
        print "big";
    else
        print "absent-or-small";
}
"#,
        );
        i.dispatch("go", &[Value::str("nope")]).unwrap();
        assert_eq!(i.out, vec!["absent-or-small"]);
    }

    #[test]
    fn missing_table_entry_errors() {
        let mut i =
            engine("global t: table[string] of count;\nevent go() { print t[\"missing\"]; }");
        assert!(i.dispatch("go", &[]).is_err());
    }

    #[test]
    fn multiple_handlers_run_in_order() {
        let mut i = engine(
            r#"
event e() { print "first"; }
event e() { print "second"; }
"#,
        );
        i.dispatch("e", &[]).unwrap();
        assert_eq!(i.out, vec!["first", "second"]);
    }

    #[test]
    fn recursion_limit() {
        let mut i = engine("function f(): count { return f(); }");
        assert!(i.call("f", &[]).is_err());
    }
}
