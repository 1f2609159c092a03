//! Compiling scripts to HILTI (§4 "Bro Script Compiler", Figure 8).
//!
//! "With HILTI's rich set of high-level data types we generally found
//! mapping Bro types to HILTI equivalents straightforward": sets/tables
//! become HILTI sets/maps (with `&create_expire`/`&read_expire` lowering to
//! `set.timeout`/`map.timeout`), event handlers become **hooks**, functions
//! become functions, and "the compiler can generally directly convert its
//! constructs to HILTI's simpler register-based language".
//!
//! A lightweight type inference (declared global/param types propagated
//! through expressions) selects the typed HILTI instruction for each
//! operator — `int.add` vs `double.add` vs `string.concat` — mirroring how
//! the paper's compiler resolves Bro's overloaded operators.

use std::collections::HashMap;

use hilti_rt::error::{RtError, RtResult};

use crate::ast::*;
use crate::host::BUILTINS;

/// Compiles a script into HILTI source (module `Bro`).
pub fn compile_script(script: &Script) -> RtResult<String> {
    let mut out = String::new();
    out.push_str("module Bro\n\n");

    // Record types become HILTI struct types.
    for (name, fields) in &script.records {
        out.push_str(&format!("type {name} = struct {{"));
        for (i, (f, _)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(" any {f}"));
        }
        out.push_str(" }\n");
    }
    out.push('\n');

    // Globals are thread-local HILTI globals of type any; containers are
    // instantiated in init_globals.
    for g in &script.globals {
        out.push_str(&format!("global any {}\n", g.name));
    }
    out.push('\n');

    // init_globals.
    {
        let mut gen = Gen::new(script);
        for g in &script.globals {
            match &g.ty {
                STy::Set(_) => {
                    gen.line(format!("{} = new set<any>", g.name));
                    if let Some(attr) = g.expire {
                        let (strat, secs) = expire_text(attr);
                        gen.line(format!("set.timeout {} {strat} interval({secs})", g.name));
                    }
                }
                STy::Table(_, _) => {
                    gen.line(format!("{} = new map<any, any>", g.name));
                    if let Some(attr) = g.expire {
                        let (strat, secs) = expire_text(attr);
                        gen.line(format!("map.timeout {} {strat} interval({secs})", g.name));
                    }
                }
                STy::Vector(_) => gen.line(format!("{} = new vector<any>", g.name)),
                ty => {
                    let init = match &g.init {
                        Some(e) => gen.expr(e)?.0,
                        None => default_literal(ty),
                    };
                    gen.line(format!("{} = assign {init}", g.name));
                }
            }
        }
        out.push_str("void init_globals() {\n");
        gen.flush(&mut out);
        out.push_str("}\n\n");
    }

    out.push_str("void set_time(time t) {\n    timer_mgr.advance_global t\n}\n\n");

    // Event handlers → hooks.
    for h in &script.handlers {
        let mut gen = Gen::new(script);
        for (p, t) in &h.params {
            gen.declare(p, t.clone());
        }
        gen.block(&h.body)?;
        let params = h
            .params
            .iter()
            .map(|(p, _)| format!("any {p}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("hook void event_{}({params}) {{\n", h.event));
        gen.flush(&mut out);
        out.push_str("}\n\n");
    }

    // Functions.
    for f in &script.functions {
        let mut gen = Gen::new(script);
        for (p, t) in &f.params {
            gen.declare(p, t.clone());
        }
        gen.block(&f.body)?;
        let params = f
            .params
            .iter()
            .map(|(p, _)| format!("any {p}"))
            .collect::<Vec<_>>()
            .join(", ");
        let ret = if f.ret == STy::Void { "void" } else { "any" };
        out.push_str(&format!("{ret} {}({params}) {{\n", f.name));
        gen.flush(&mut out);
        out.push_str("}\n\n");
    }

    Ok(out)
}

fn expire_text(attr: ExpireAttr) -> (&'static str, f64) {
    match attr {
        ExpireAttr::Create(iv) => ("0", iv.as_secs_f64()),
        ExpireAttr::Read(iv) => ("1", iv.as_secs_f64()),
    }
}

fn default_literal(ty: &STy) -> String {
    match ty {
        STy::Bool => "False".into(),
        STy::Double => "0.0".into(),
        STy::Str => "\"\"".into(),
        STy::Time => "time(0)".into(),
        STy::Interval => "interval(0)".into(),
        _ => "0".into(),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

struct Gen<'a> {
    script: &'a Script,
    lines: Vec<String>,
    vars: HashMap<String, STy>,
    tmp: u32,
    lbl: u32,
}

impl<'a> Gen<'a> {
    fn new(script: &'a Script) -> Gen<'a> {
        let mut vars = HashMap::new();
        for g in &script.globals {
            vars.insert(g.name.clone(), g.ty.clone());
        }
        Gen {
            script,
            lines: Vec::new(),
            vars,
            tmp: 0,
            lbl: 0,
        }
    }

    fn declare(&mut self, name: &str, ty: STy) {
        self.vars.insert(name.to_owned(), ty);
    }

    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    fn flush(self, out: &mut String) {
        for l in self.lines {
            if l.ends_with(':') {
                out.push_str(&l);
            } else {
                out.push_str("    ");
                out.push_str(&l);
            }
            out.push('\n');
        }
    }

    fn temp(&mut self) -> String {
        self.tmp += 1;
        let name = format!("__t{}", self.tmp);
        self.line(format!("local any {name}"));
        name
    }

    fn label(&mut self, stem: &str) -> String {
        self.lbl += 1;
        format!("__{stem}{}", self.lbl)
    }

    fn func_ret(&self, name: &str) -> Option<STy> {
        self.script
            .functions
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.ret.clone())
            .or_else(|| {
                BUILTINS
                    .iter()
                    .find(|(b, _, _)| *b == name)
                    .map(|(_, t, _)| t.clone())
            })
    }

    fn var_ty(&self, name: &str) -> STy {
        self.vars.get(name).cloned().unwrap_or(STy::Count)
    }

    // -- expressions --------------------------------------------------------

    /// Generates code computing `e`; returns (operand text, inferred type).
    fn expr(&mut self, e: &Expr) -> RtResult<(String, STy)> {
        Ok(match e {
            Expr::Count(c) => (c.to_string(), STy::Count),
            Expr::Int(i) => (i.to_string(), STy::Int),
            Expr::Double(d) => (format!("{d:?}"), STy::Double),
            Expr::Str(s) => (escape(s), STy::Str),
            Expr::Bool(b) => (if *b { "True" } else { "False" }.into(), STy::Bool),
            Expr::IntervalLit(secs) => (format!("interval({secs})"), STy::Interval),
            Expr::Var(name) => (name.clone(), self.var_ty(name)),
            Expr::VectorCtor => {
                let t = self.temp();
                self.line(format!("{t} = new vector<any>"));
                (t, STy::Vector(Box::new(STy::Str)))
            }
            Expr::Index(c, i) => {
                let (cv, cty) = self.expr(c)?;
                let (iv, _) = self.expr(i)?;
                let t = self.temp();
                match &cty {
                    STy::Table(_, v) => {
                        self.line(format!("{t} = map.get {cv} {iv}"));
                        (t, (**v).clone())
                    }
                    STy::Vector(inner) => {
                        self.line(format!("{t} = vector.get {cv} {iv}"));
                        (t, (**inner).clone())
                    }
                    other => return Err(RtError::type_error(format!("cannot index a {other:?}"))),
                }
            }
            Expr::In(k, c) => {
                let (kv, _) = self.expr(k)?;
                let (cv, cty) = self.expr(c)?;
                let t = self.temp();
                match &cty {
                    STy::Set(_) => self.line(format!("{t} = set.exists {cv} {kv}")),
                    STy::Table(_, _) => self.line(format!("{t} = map.exists {cv} {kv}")),
                    other => return Err(RtError::type_error(format!("'in' on {other:?}"))),
                }
                (t, STy::Bool)
            }
            Expr::Size(inner) => {
                let (v, ty) = self.expr(inner)?;
                let t = self.temp();
                match &ty {
                    STy::Set(_) => self.line(format!("{t} = set.size {v}")),
                    STy::Table(_, _) => self.line(format!("{t} = map.size {v}")),
                    STy::Vector(_) => self.line(format!("{t} = vector.length {v}")),
                    STy::Str => self.line(format!("{t} = string.length {v}")),
                    other => return Err(RtError::type_error(format!("|...| on {other:?}"))),
                }
                (t, STy::Count)
            }
            Expr::Not(inner) => {
                let (v, _) = self.expr(inner)?;
                let t = self.temp();
                self.line(format!("{t} = not {v}"));
                (t, STy::Bool)
            }
            Expr::Neg(inner) => {
                let (v, _) = self.expr(inner)?;
                let t = self.temp();
                self.line(format!("{t} = int.neg {v}"));
                (t, STy::Int)
            }
            Expr::Bin(BinOp::And, l, r) => self.short_circuit(l, r, true)?,
            Expr::Bin(BinOp::Or, l, r) => self.short_circuit(l, r, false)?,
            Expr::Bin(op, l, r) => {
                let (lv, lty) = self.expr(l)?;
                let (rv, rty) = self.expr(r)?;
                let t = self.temp();
                let ty = self.emit_binop(*op, &t, &lv, &lty, &rv, &rty)?;
                (t, ty)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.expr(a)?.0);
                }
                let ret = self.func_ret(name).unwrap_or(STy::Count);
                let t = self.temp();
                self.line(format!("{t} = call {name} ({})", vals.join(", ")));
                (t, ret)
            }
            Expr::Field(base, field) => {
                let (bv, bty) = self.expr(base)?;
                let t = self.temp();
                self.line(format!("{t} = struct.get {bv} {field}"));
                let fty = match &bty {
                    STy::Record(rname) => self
                        .script
                        .record(rname)
                        .and_then(|layout| {
                            layout
                                .iter()
                                .find(|(n, _)| n == field)
                                .map(|(_, t)| t.clone())
                        })
                        .unwrap_or(STy::Count),
                    _ => STy::Count,
                };
                (t, fty)
            }
            Expr::RecordCtor(name, fields) => {
                let t = self.temp();
                self.line(format!("{t} = new {name}"));
                for (f, e) in fields {
                    let (v, _) = self.expr(e)?;
                    self.line(format!("struct.set {t} {f} {v}"));
                }
                (t, STy::Record(name.clone()))
            }
        })
    }

    /// Short-circuit `&&` / `||`.
    fn short_circuit(&mut self, l: &Expr, r: &Expr, is_and: bool) -> RtResult<(String, STy)> {
        let t = self.temp();
        let (lv, _) = self.expr(l)?;
        self.line(format!("{t} = assign {lv}"));
        let l_rhs = self.label("sc_rhs");
        let l_end = self.label("sc_end");
        if is_and {
            self.line(format!("if.else {t} {l_rhs} {l_end}"));
        } else {
            self.line(format!("if.else {t} {l_end} {l_rhs}"));
        }
        self.line(format!("{l_rhs}:"));
        let (rv, _) = self.expr(r)?;
        self.line(format!("{t} = assign {rv}"));
        self.line(format!("{l_end}:"));
        Ok((t, STy::Bool))
    }

    fn emit_binop(
        &mut self,
        op: BinOp,
        t: &str,
        lv: &str,
        lty: &STy,
        rv: &str,
        rty: &STy,
    ) -> RtResult<STy> {
        use BinOp::*;
        let double = *lty == STy::Double || *rty == STy::Double;
        Ok(match op {
            Eq => {
                self.line(format!("{t} = equal {lv} {rv}"));
                STy::Bool
            }
            Ne => {
                self.line(format!("{t} = unequal {lv} {rv}"));
                STy::Bool
            }
            Add => match (lty, rty) {
                (STy::Str, _) | (_, STy::Str) => {
                    self.line(format!("{t} = string.concat {lv} {rv}"));
                    STy::Str
                }
                (STy::Time, STy::Interval) => {
                    self.line(format!("{t} = time.add {lv} {rv}"));
                    STy::Time
                }
                (STy::Interval, STy::Interval) => {
                    self.line(format!("{t} = interval.add {lv} {rv}"));
                    STy::Interval
                }
                _ if double => {
                    self.line(format!("{t} = double.add {lv} {rv}"));
                    STy::Double
                }
                _ => {
                    self.line(format!("{t} = int.add {lv} {rv}"));
                    STy::Count
                }
            },
            Sub => match (lty, rty) {
                (STy::Time, STy::Time) => {
                    self.line(format!("{t} = time.sub_time {lv} {rv}"));
                    STy::Interval
                }
                (STy::Time, STy::Interval) => {
                    self.line(format!("{t} = time.sub_interval {lv} {rv}"));
                    STy::Time
                }
                (STy::Interval, STy::Interval) => {
                    self.line(format!("{t} = interval.sub {lv} {rv}"));
                    STy::Interval
                }
                _ if double => {
                    self.line(format!("{t} = double.sub {lv} {rv}"));
                    STy::Double
                }
                _ => {
                    self.line(format!("{t} = int.sub {lv} {rv}"));
                    STy::Count
                }
            },
            Mul | Div | Mod => {
                let (dop, iop) = match op {
                    Mul => ("double.mul", "int.mul"),
                    Div => ("double.div", "int.div"),
                    _ => ("int.mod", "int.mod"),
                };
                if double && op != Mod {
                    self.line(format!("{t} = {dop} {lv} {rv}"));
                    STy::Double
                } else {
                    self.line(format!("{t} = {iop} {lv} {rv}"));
                    STy::Count
                }
            }
            Lt | Gt | Le | Ge => {
                let suffix = match op {
                    Lt => "lt",
                    Gt => "gt",
                    Le => "leq",
                    _ => "geq",
                };
                if double {
                    self.line(format!("{t} = double.{suffix} {lv} {rv}"));
                } else if *lty == STy::Time {
                    // Only lt/gt exist for time; le/ge unused by scripts.
                    self.line(format!("{t} = time.{suffix} {lv} {rv}"));
                } else if *lty == STy::Interval {
                    self.line(format!("{t} = interval.{suffix} {lv} {rv}"));
                } else {
                    self.line(format!("{t} = int.{suffix} {lv} {rv}"));
                }
                STy::Bool
            }
            And | Or => unreachable!("handled by short_circuit"),
        })
    }

    // -- statements ---------------------------------------------------------

    fn block(&mut self, stmts: &[Stmt]) -> RtResult<()> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> RtResult<()> {
        match s {
            Stmt::Local(name, declared, init) => {
                let (v, inferred) = self.expr(init)?;
                self.line(format!("local any {name}"));
                self.line(format!("{name} = assign {v}"));
                self.declare(name, declared.clone().unwrap_or(inferred));
                Ok(())
            }
            Stmt::Assign(Expr::Var(name), e) => {
                let (v, inferred) = self.expr(e)?;
                if !self.vars.contains_key(name) {
                    self.line(format!("local any {name}"));
                    self.declare(name, inferred);
                }
                self.line(format!("{name} = assign {v}"));
                Ok(())
            }
            Stmt::Assign(Expr::Index(c, i), e) => {
                let (cv, cty) = self.expr(c)?;
                let (iv, _) = self.expr(i)?;
                let (ev, _) = self.expr(e)?;
                match &cty {
                    STy::Table(_, _) => {
                        self.line(format!("map.insert {cv} {iv} {ev}"));
                    }
                    STy::Vector(_) => {
                        // `v[|v|] = x` appends; in-range indices overwrite.
                        let len = self.temp();
                        self.line(format!("{len} = vector.length {cv}"));
                        let iseq = self.temp();
                        self.line(format!("{iseq} = int.eq {iv} {len}"));
                        let l_push = self.label("vpush");
                        let l_set = self.label("vset");
                        let l_end = self.label("vend");
                        self.line(format!("if.else {iseq} {l_push} {l_set}"));
                        self.line(format!("{l_push}:"));
                        self.line(format!("vector.push_back {cv} {ev}"));
                        self.line(format!("jump {l_end}"));
                        self.line(format!("{l_set}:"));
                        self.line(format!("vector.set {cv} {iv} {ev}"));
                        self.line(format!("{l_end}:"));
                    }
                    other => {
                        return Err(RtError::type_error(format!(
                            "cannot index-assign a {other:?}"
                        )))
                    }
                }
                Ok(())
            }
            Stmt::Assign(Expr::Field(base, field), e) => {
                let (bv, _) = self.expr(base)?;
                let (ev, _) = self.expr(e)?;
                self.line(format!("struct.set {bv} {field} {ev}"));
                Ok(())
            }
            Stmt::Assign(other, _) => Err(RtError::type_error(format!(
                "bad assignment target {other:?}"
            ))),
            Stmt::Add(set, k) => {
                let (kv, _) = self.expr(k)?;
                self.line(format!("set.insert {set} {kv}"));
                Ok(())
            }
            Stmt::Delete(name, k) => {
                let (kv, _) = self.expr(k)?;
                let t = self.temp();
                match self.var_ty(name) {
                    STy::Set(_) => self.line(format!("{t} = set.remove {name} {kv}")),
                    STy::Table(_, _) => self.line(format!("{t} = map.remove {name} {kv}")),
                    other => return Err(RtError::type_error(format!("delete on {other:?}"))),
                }
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                let (cv, _) = self.expr(cond)?;
                let l_then = self.label("then");
                let l_else = self.label("else");
                let l_end = self.label("endif");
                self.line(format!("if.else {cv} {l_then} {l_else}"));
                self.line(format!("{l_then}:"));
                self.block(then)?;
                self.line(format!("jump {l_end}"));
                self.line(format!("{l_else}:"));
                self.block(els)?;
                self.line(format!("{l_end}:"));
                Ok(())
            }
            Stmt::For(var, container, body) => {
                let (cv, cty) = self.expr(container)?;
                match &cty {
                    STy::Set(inner) | STy::Table(inner, _) => {
                        // Sorted key list → drain with pop_front.
                        let keys = self.temp();
                        match &cty {
                            STy::Set(_) => self.line(format!("{keys} = set.members {cv}")),
                            _ => self.line(format!("{keys} = map.keys {cv}")),
                        }
                        self.line(format!("local any {var}"));
                        self.declare(var, (**inner).clone());
                        let n = self.temp();
                        let more = self.temp();
                        let l_loop = self.label("forl");
                        let l_body = self.label("forb");
                        let l_end = self.label("fore");
                        self.line(format!("{l_loop}:"));
                        self.line(format!("{n} = list.length {keys}"));
                        self.line(format!("{more} = int.gt {n} 0"));
                        self.line(format!("if.else {more} {l_body} {l_end}"));
                        self.line(format!("{l_body}:"));
                        self.line(format!("{var} = list.pop_front {keys}"));
                        self.block(body)?;
                        self.line(format!("jump {l_loop}"));
                        self.line(format!("{l_end}:"));
                    }
                    STy::Vector(inner) => {
                        let n = self.temp();
                        self.line(format!("{n} = vector.length {cv}"));
                        let i = self.temp();
                        self.line(format!("{i} = assign 0"));
                        self.line(format!("local any {var}"));
                        self.declare(var, (**inner).clone());
                        let more = self.temp();
                        let l_loop = self.label("forl");
                        let l_body = self.label("forb");
                        let l_end = self.label("fore");
                        self.line(format!("{l_loop}:"));
                        self.line(format!("{more} = int.lt {i} {n}"));
                        self.line(format!("if.else {more} {l_body} {l_end}"));
                        self.line(format!("{l_body}:"));
                        self.line(format!("{var} = vector.get {cv} {i}"));
                        self.block(body)?;
                        self.line(format!("{i} = int.add {i} 1"));
                        self.line(format!("jump {l_loop}"));
                        self.line(format!("{l_end}:"));
                    }
                    other => return Err(RtError::type_error(format!("for over {other:?}"))),
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                let l_loop = self.label("whl");
                let l_body = self.label("whb");
                let l_end = self.label("whe");
                self.line(format!("{l_loop}:"));
                let (cv, _) = self.expr(cond)?;
                self.line(format!("if.else {cv} {l_body} {l_end}"));
                self.line(format!("{l_body}:"));
                self.block(body)?;
                self.line(format!("jump {l_loop}"));
                self.line(format!("{l_end}:"));
                Ok(())
            }
            Stmt::Print(args) => {
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.expr(a)?.0);
                }
                self.line(format!("call Hilti::print ({})", vals.join(", ")));
                Ok(())
            }
            Stmt::Return(None) => {
                self.line("return".into());
                Ok(())
            }
            Stmt::Return(Some(e)) => {
                let (v, _) = self.expr(e)?;
                self.line(format!("return {v}"));
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                self.expr(e)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{BroRt, Engine, ScriptHost};
    use crate::interp::Interp;
    use crate::parse::parse_script;
    use hilti::value::Value;
    use hilti_rt::time::Time;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Runs the same event sequence through both engines and asserts
    /// identical print output — the differential core of Table 3.
    fn differential(src: &str, events: &[(&str, Vec<Value>)]) {
        let script = parse_script(src).unwrap();
        let mut outs = Vec::new();
        for engine in [Engine::Interpreted, Engine::Compiled] {
            let mut host = ScriptHost::from_script(script.clone(), engine, None).unwrap();
            for (name, args) in events {
                host.dispatch(name, args).unwrap();
            }
            host.done().unwrap();
            outs.push(host.take_output());
        }
        assert_eq!(outs[0], outs[1], "engines disagree");
    }

    #[test]
    fn compiles_figure8_to_hooks() {
        let script = parse_script(
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
        )
        .unwrap();
        let src = compile_script(&script).unwrap();
        assert!(src.contains("hook void event_connection_established"));
        assert!(src.contains("set.insert hosts resp_h"));
        assert!(src.contains("set.members hosts"));
        // And it builds.
        hilti::Program::from_source(&src).unwrap();
    }

    #[test]
    fn figure8_differential() {
        let mk = |resp: &str| {
            vec![
                Value::str("C1"),
                Value::Addr("10.0.0.1".parse().unwrap()),
                Value::Port(hilti_rt::addr::Port::tcp(40000)),
                Value::Addr(resp.parse().unwrap()),
                Value::Port(hilti_rt::addr::Port::tcp(80)),
            ]
        };
        differential(
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
            &[
                ("connection_established", mk("208.80.152.118")),
                ("connection_established", mk("208.80.152.2")),
                ("connection_established", mk("208.80.152.3")),
                ("connection_established", mk("208.80.152.2")),
            ],
        );
    }

    #[test]
    fn fib_compiled_matches_interpreted() {
        let src = r#"
function fib(n: count): count {
    if ( n < 2 )
        return n;
    return fib(n - 1) + fib(n - 2);
}
"#;
        let script = parse_script(src).unwrap();
        let mut compiled = ScriptHost::from_script(script.clone(), Engine::Compiled, None).unwrap();
        let rt = Rc::new(RefCell::new(BroRt::default()));
        let mut interp = Interp::new(Rc::new(script), rt).unwrap();
        let c = compiled.call("fib", &[Value::Int(18)]).unwrap();
        let i = interp.call("fib", &[Value::Int(18)]).unwrap();
        assert!(c.equals(&i));
        assert!(c.equals(&Value::Int(2584)));
    }

    #[test]
    fn tables_strings_and_builtins_differential() {
        differential(
            r#"
global seen: table[string] of count;
event note(k: string) {
    if ( k in seen )
        seen[k] = seen[k] + 1;
    else
        seen[k] = 1;
}
event bro_done() {
    for ( k in seen )
        print cat(k, "=", seen[k]);
    print "total", |seen|;
}
"#,
            &[
                ("note", vec![Value::str("beta")]),
                ("note", vec![Value::str("alpha")]),
                ("note", vec![Value::str("beta")]),
            ],
        );
    }

    #[test]
    fn vectors_differential() {
        differential(
            r#"
global acc: vector of string;
event push(s: string) {
    acc[|acc|] = s;
}
event bro_done() {
    for ( s in acc )
        print s;
    print |acc|;
    print acc[0];
}
"#,
            &[
                ("push", vec![Value::str("one")]),
                ("push", vec![Value::str("two")]),
            ],
        );
    }

    #[test]
    fn arithmetic_and_short_circuit_differential() {
        differential(
            r#"
global t: table[string] of count;
event go(a: count, b: count) {
    print a + b, a * b, a - b, a / b, a % b;
    print a < b, a >= b, a == b, a != b;
    if ( "x" in t && t["x"] > 0 )
        print "has x";
    else
        print "no x";
    print 1.5 + 2.0, 3.0 * 2.0, 7.0 / 2.0;
}
"#,
            &[("go", vec![Value::Int(17), Value::Int(5)])],
        );
    }

    #[test]
    fn while_and_functions_differential() {
        differential(
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
event go() {
    print sum_to(10), sum_to(100);
}
"#,
            &[("go", vec![])],
        );
    }

    /// `connection_state_remove` runs alike on both engines, and a removal
    /// leaves network time where the last event put it.
    #[test]
    fn connection_state_remove_differential() {
        let script = parse_script(
            r#"
global seen: table[string] of count;
event note(uid: string) {
    seen[uid] = |seen|;
    print "note", uid, network_time();
}
event connection_state_remove(uid: string) {
    print "remove", uid, uid in seen, network_time();
    delete seen[uid];
}
event bro_done() {
    print |seen|, network_time();
}
"#,
        )
        .unwrap();
        let mut outs = Vec::new();
        for engine in [Engine::Interpreted, Engine::Compiled] {
            let mut host = ScriptHost::from_script(script.clone(), engine, None).unwrap();
            host.advance_time(Time::from_secs(7)).unwrap();
            host.dispatch("note", &[Value::str("C1")]).unwrap();
            host.dispatch("note", &[Value::str("C2")]).unwrap();
            host.remove_connection("C1").unwrap();
            host.remove_connection("C3").unwrap();
            host.done().unwrap();
            outs.push(host.take_output());
        }
        assert_eq!(outs[0], outs[1], "engines disagree");
        assert_eq!(
            outs[0],
            [
                "note, C1, 7.000000",
                "note, C2, 7.000000",
                "remove, C1, True, 7.000000",
                "remove, C3, False, 7.000000",
                "1, 7.000000",
            ]
        );
    }

    #[test]
    fn delete_and_membership_differential() {
        differential(
            r#"
global s: set[string];
event go() {
    add s["a"];
    add s["b"];
    delete s["a"];
    print "a" in s, "b" in s, |s|;
}
"#,
            &[("go", vec![])],
        );
    }
}

#[cfg(test)]
mod record_tests {
    use crate::host::{connection_value, Engine, ScriptHost};
    use crate::scripts::TRACK_BRO_FIGURE8;
    use hilti_rt::addr::Port;
    use netpkt::events::ConnId;

    fn conn(resp: &str) -> ConnId {
        ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(40000),
            resp_h: resp.parse().unwrap(),
            resp_p: Port::tcp(80),
        }
    }

    #[test]
    fn figure8_verbatim_on_both_engines() {
        // Figure 8(a): event connection_established(c: connection)
        // { add hosts[c$id$resp_h]; } — record form, nested $ access.
        for engine in [Engine::Interpreted, Engine::Compiled] {
            let mut host = ScriptHost::new(&[TRACK_BRO_FIGURE8], engine, None).unwrap();
            for resp in [
                "208.80.152.118",
                "208.80.152.2",
                "208.80.152.3",
                "208.80.152.2",
            ] {
                host.dispatch(
                    "connection_established",
                    &[connection_value("C1", &conn(resp))],
                )
                .unwrap();
            }
            host.done().unwrap();
            // Figure 8(c): the three unique responder IPs.
            assert_eq!(
                host.take_output(),
                vec!["208.80.152.2", "208.80.152.3", "208.80.152.118"],
                "{engine:?}"
            );
        }
    }

    #[test]
    fn record_ctor_access_and_assignment() {
        let src = r#"
type point: record { x: count; y: count; };

event go() {
    local p = point($x = 3, $y = 4);
    print p$x, p$y;
    p$y = p$y * 10;
    print p$y;
}
"#;
        for engine in [Engine::Interpreted, Engine::Compiled] {
            let mut host = ScriptHost::new(&[src], engine, None).unwrap();
            host.dispatch("go", &[]).unwrap();
            assert_eq!(host.take_output(), vec!["3, 4", "40"], "{engine:?}");
        }
    }

    #[test]
    fn record_style_event_dispatch_auto_detected() {
        use hilti_rt::time::Time;
        use netpkt::events::Event;
        let mut host = ScriptHost::new(&[TRACK_BRO_FIGURE8], Engine::Compiled, None).unwrap();
        host.dispatch_event(&Event::ConnectionEstablished {
            ts: Time::from_secs(1),
            uid: "C9".into(),
            id: conn("1.2.3.4"),
        })
        .unwrap();
        host.done().unwrap();
        assert_eq!(host.take_output(), vec!["1.2.3.4"]);
    }

    #[test]
    fn nested_record_field_types_infer() {
        // c$id$resp_h must infer as addr so set[addr] insertion works and
        // missing fields are errors.
        let bad = r#"
event connection_established(c: connection) {
    print c$id$no_such_field;
}
"#;
        let mut host = ScriptHost::new(&[bad], Engine::Interpreted, None).unwrap();
        let r = host.dispatch(
            "connection_established",
            &[connection_value("C1", &conn("1.1.1.1"))],
        );
        assert!(r.is_err());
    }
}
