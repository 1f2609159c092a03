//! The tree-walking IR interpreter — the *interpreted* baseline engine.
//!
//! This engine executes linked IR directly, the way Bro's script
//! interpreter executes its AST (§6.5): variables live in per-call hash
//! maps, every block transfer searches for its label, constants are
//! re-materialized (and regexp literals re-compiled) at each use, and
//! function calls recurse through the host stack. None of that is
//! accidental sloppiness — it is the faithful cost model of an interpreter,
//! and the performance gap between this engine and the bytecode VM is the
//! compiled-vs-interpreted effect the evaluation measures (experiments E7
//! and E8).
//!
//! Semantics are identical to the VM (shared `ops::eval`); differential
//! tests in `tests/` assert observable equivalence. Fibers are not
//! supported here — suspension requires the VM's explicit frame stack.

use std::collections::HashMap;

use hilti_rt::error::{RtError, RtResult};

use crate::bytecode::const_value;
use crate::ir::{Const, Function, Instr, Opcode, Operand, Terminator};
use crate::linker::Linked;
use crate::ops;
use crate::value::Value;
use crate::vm::Context;

/// Maximum interpreter call depth (fail-safe recursion guard).
const MAX_DEPTH: usize = 150;

/// Calls `func` with `args` under the interpreter.
pub fn call(linked: &Linked, ctx: &mut Context, func: &str, args: &[Value]) -> RtResult<Value> {
    let global_index: HashMap<&str, usize> = linked
        .global_index
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let spent_before = ctx.fuel_spent();
    let mut interp = Interp {
        linked,
        ctx,
        global_index,
        depth: 0,
    };
    let result = interp.call_function(func, args);
    ctx.telemetry_flush_run(spent_before);
    result
}

struct Interp<'a> {
    linked: &'a Linked,
    ctx: &'a mut Context,
    global_index: HashMap<&'a str, usize>,
    depth: usize,
}

struct HandlerRec {
    kind: String,
    label: String,
    binder: Option<String>,
}

enum Next {
    Goto(String),
    Return(Value),
}

impl<'a> Interp<'a> {
    fn call_function(&mut self, name: &str, args: &[Value]) -> RtResult<Value> {
        match self.linked.functions.get(name) {
            Some(func) => self.run_body(func, args),
            // A host function or the `Hilti::print` builtin, through the
            // context's table.
            None => {
                let args: Vec<&Value> = args.iter().collect();
                self.ctx.call_host_named(name, &args)
            }
        }
    }

    fn run_hook(&mut self, name: &str, args: &[Value]) -> RtResult<()> {
        if let Some(bodies) = self.linked.hooks.get(name) {
            let bodies: Vec<Function> = bodies.clone();
            for body in &bodies {
                self.run_body(body, args)?;
            }
        }
        Ok(())
    }

    fn run_body(&mut self, func: &Function, args: &[Value]) -> RtResult<Value> {
        self.depth += 1;
        // Configured limit first (catchable resource governance), then the
        // engine's own fail-safe recursion guard.
        if let Some(max) = self.ctx.limits().max_call_depth {
            if self.depth > max as usize {
                self.depth -= 1;
                return Err(RtError::resource_exhausted("call depth limit exceeded"));
            }
        }
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(RtError::runtime("interpreter recursion limit exceeded"));
        }
        let result = self.run_body_inner(func, args);
        self.depth -= 1;
        result
    }

    fn run_body_inner(&mut self, func: &Function, args: &[Value]) -> RtResult<Value> {
        if args.len() != func.params.len() {
            return Err(RtError::type_error(format!(
                "{}: expected {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let mut locals: HashMap<String, Value> = HashMap::new();
        for ((pname, _), v) in func.params.iter().zip(args) {
            locals.insert(pname.clone(), v.clone());
        }
        for (lname, _) in &func.locals {
            locals.entry(lname.clone()).or_insert(Value::Null);
        }
        let mut handlers: Vec<HandlerRec> = Vec::new();

        let mut label = func
            .blocks
            .first()
            .map(|b| b.label.clone())
            .ok_or_else(|| RtError::runtime(format!("{}: empty function", func.name)))?;
        loop {
            // Label search on every transfer — interpreter cost model.
            let block = func
                .block(&label)
                .ok_or_else(|| RtError::runtime(format!("{}: no block {label}", func.name)))?;
            match self.run_block(func, block, &mut locals, &mut handlers) {
                Ok(Next::Goto(l)) => label = l,
                Ok(Next::Return(v)) => return Ok(v),
                Err(e) => {
                    // Dispatch to the innermost matching handler.
                    let mut handled = None;
                    while let Some(h) = handlers.pop() {
                        let matches =
                            h.kind == "*" || ops::exception_kind_from_name(&h.kind) == e.kind;
                        if matches {
                            if let Some(b) = &h.binder {
                                locals.insert(b.clone(), ops::exception_value(&e));
                            }
                            handled = Some(h.label);
                            break;
                        }
                    }
                    match handled {
                        Some(l) => label = l,
                        None => return Err(e),
                    }
                }
            }
        }
    }

    fn run_block(
        &mut self,
        func: &Function,
        block: &crate::ir::Block,
        locals: &mut HashMap<String, Value>,
        handlers: &mut Vec<HandlerRec>,
    ) -> RtResult<Next> {
        for instr in &block.instrs {
            if self.ctx.trace && self.ctx.trace_log.len() < crate::vm::TRACE_CAP {
                self.ctx
                    .trace_log
                    .push(format!("{}::{}: {:?}", func.name, block.label, instr));
            }
            self.run_instr(func, instr, locals, handlers)?;
        }
        // Block terminators cost one fuel unit, exactly like the VM's
        // terminator instructions — without this, an empty self-looping
        // block would spin forever under a fuel limit.
        self.ctx.charge_fuel(1)?;
        if self.ctx.profile {
            self.ctx.profile_record(&func.name, "control", 1);
        }
        match &block.term {
            Terminator::Jump(l) => Ok(Next::Goto(l.clone())),
            Terminator::IfElse(cond, l1, l2) => {
                let v = self.operand(cond, locals)?;
                Ok(Next::Goto(if v.as_bool()? {
                    l1.clone()
                } else {
                    l2.clone()
                }))
            }
            Terminator::Return(v) => {
                let value = match v {
                    Some(op) => self.operand(op, locals)?,
                    None => Value::Null,
                };
                Ok(Next::Return(value))
            }
        }
    }

    fn operand(&self, op: &Operand, locals: &HashMap<String, Value>) -> RtResult<Value> {
        match op {
            Operand::Const(c) => const_value(c),
            Operand::Var(name) => {
                if let Some(v) = locals.get(name) {
                    Ok(v.clone())
                } else if let Some(idx) = self.global_index.get(name.as_str()) {
                    Ok(self.ctx.globals[*idx].clone())
                } else {
                    Err(RtError::value(format!("undefined variable {name}")))
                }
            }
        }
    }

    fn store(
        &mut self,
        target: &str,
        value: Value,
        locals: &mut HashMap<String, Value>,
    ) -> RtResult<()> {
        if locals.contains_key(target) {
            locals.insert(target.to_owned(), value);
        } else if let Some(idx) = self.global_index.get(target) {
            self.ctx.globals[*idx] = value;
        } else {
            // First write to an undeclared temp: treat as a local (the
            // parser's desugared temporaries).
            locals.insert(target.to_owned(), value);
        }
        Ok(())
    }

    fn run_instr(
        &mut self,
        func: &Function,
        instr: &Instr,
        locals: &mut HashMap<String, Value>,
        handlers: &mut Vec<HandlerRec>,
    ) -> RtResult<()> {
        use Opcode::*;

        // One fuel unit per IR body instruction — the same charging scheme
        // as the VM, which lowers each IR instruction to one CInstr.
        self.ctx.charge_fuel(1)?;
        if self.ctx.profile {
            self.ctx.profile_record(
                &func.name,
                crate::vm::opcode_class(instr.opcode.mnemonic()),
                1,
            );
        }

        // Split constants: identifiers/patterns go to idents, the rest are
        // evaluated to values.
        let mut idents: Vec<String> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        let mut values: Vec<Value> = Vec::new();
        let mut type_ref: Option<crate::types::Type> = None;
        for a in &instr.args {
            match a {
                Operand::Const(Const::Ident(i)) => idents.push(i.clone()),
                Operand::Const(Const::Label(l)) => labels.push(l.clone()),
                Operand::Const(Const::Patterns(ps)) => idents.extend(ps.iter().cloned()),
                Operand::Const(Const::TypeRef(t)) => type_ref = Some(t.clone()),
                other => values.push(self.operand(other, locals)?),
            }
        }

        match instr.opcode {
            Call | CallVoid | CallC => {
                let callee = idents
                    .first()
                    .ok_or_else(|| RtError::value("call without callee"))?
                    .clone();
                let result = self.call_function(&callee, &values)?;
                if let Some(t) = &instr.target {
                    self.store(t, result, locals)?;
                }
            }
            HookRun | HookRunVoid => {
                let hook = idents
                    .first()
                    .ok_or_else(|| RtError::value("hook.run without name"))?
                    .clone();
                self.run_hook(&hook, &values)?;
            }
            CallableCall | CallableCallVoid => {
                let Some(Value::Callable(c)) = values.first().cloned() else {
                    return Err(RtError::type_error("callable.call needs a callable"));
                };
                let mut full = c.bound.clone();
                full.extend(values[1..].iter().cloned());
                let result = self.call_function(&c.func, &full)?;
                if let Some(t) = &instr.target {
                    self.store(t, result, locals)?;
                }
            }
            New => {
                let ty = type_ref.ok_or_else(|| RtError::value("new without type"))?;
                let refs: Vec<&Value> = values.iter().collect();
                let v = ops::instantiate(&ty, &refs, &mut self.ctx.env)?;
                let t = instr
                    .target
                    .as_ref()
                    .ok_or_else(|| RtError::value("new without target"))?;
                self.store(t, v, locals)?;
            }
            PushHandler => {
                let label = labels
                    .first()
                    .ok_or_else(|| RtError::value("push_handler without label"))?
                    .clone();
                if func.block(&label).is_none() {
                    return Err(RtError::value(format!("unknown handler label {label}")));
                }
                let kind = idents.first().cloned().unwrap_or_else(|| "*".into());
                let binder = idents.get(1).filter(|b| !b.is_empty()).cloned();
                handlers.push(HandlerRec {
                    kind,
                    label,
                    binder,
                });
            }
            PopHandler => {
                handlers.pop();
            }
            Yield => {
                // The interpreter has no fibers; yield is a no-op.
            }
            _ => {
                let refs: Vec<&Value> = values.iter().collect();
                let value = ops::eval(instr.opcode, &refs, &idents, &mut self.ctx.env)?;
                if let Some(t) = &instr.target {
                    self.store(t, value, locals)?;
                }
                for fired in std::mem::take(&mut self.ctx.env.fired) {
                    self.call_function(&fired.func, &fired.bound)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn run(src: &str, func: &str, args: &[Value]) -> (RtResult<Value>, Vec<String>) {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        let prog = crate::bytecode::compile(&linked).unwrap();
        let mut ctx = Context::for_program(&prog);
        let r = call(&linked, &mut ctx, func, args);
        let out = ctx.take_output();
        (r, out)
    }

    #[test]
    fn hello_world() {
        let (r, out) = run(
            "module Main\nvoid run() {\n  call Hilti::print \"Hello, World!\"\n}\n",
            "Main::run",
            &[],
        );
        r.unwrap();
        assert_eq!(out, vec!["Hello, World!"]);
    }

    #[test]
    fn arithmetic_and_branches() {
        let src = r#"
module M
int<64> max(int<64> a, int<64> b) {
    local bool c
    c = int.gt a b
    if.else c ret_a ret_b
ret_a:
    return a
ret_b:
    return b
}
"#;
        let (r, _) = run(src, "M::max", &[Value::Int(3), Value::Int(9)]);
        assert!(r.unwrap().equals(&Value::Int(9)));
        let (r, _) = run(src, "M::max", &[Value::Int(13), Value::Int(9)]);
        assert!(r.unwrap().equals(&Value::Int(13)));
    }

    #[test]
    fn recursion_fibonacci() {
        let src = r#"
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
"#;
        let (r, _) = run(src, "M::fib", &[Value::Int(15)]);
        assert!(r.unwrap().equals(&Value::Int(610)));
    }

    #[test]
    fn try_catch_dispatch() {
        let src = r#"
module M
int<64> f(int<64> d) {
    local int<64> x
    try {
        x = int.div 100 d
    } catch ( ref<Hilti::ArithmeticError> e ) {
        return -1
    }
    return x
}
"#;
        let (r, _) = run(src, "M::f", &[Value::Int(5)]);
        assert!(r.unwrap().equals(&Value::Int(20)));
        let (r, _) = run(src, "M::f", &[Value::Int(0)]);
        assert!(r.unwrap().equals(&Value::Int(-1)));
    }

    #[test]
    fn uncaught_exception_propagates() {
        let (r, _) = run(
            "module M\nint<64> f() {\n  local int<64> x\n  x = int.div 1 0\n  return x\n}\n",
            "M::f",
            &[],
        );
        assert!(r.is_err());
    }

    #[test]
    fn wrong_kind_not_caught() {
        let src = r#"
module M
int<64> f() {
    local int<64> x
    try {
        x = int.div 1 0
    } catch ( ref<Hilti::IndexError> e ) {
        return -1
    }
    return x
}
"#;
        let (r, _) = run(src, "M::f", &[]);
        assert!(r.is_err());
    }

    #[test]
    fn globals_persist_across_calls() {
        let src = r#"
module M
global int<64> counter = 0
void bump() {
    counter = int.add counter 1
}
int<64> get() {
    return counter
}
"#;
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        let prog = crate::bytecode::compile(&linked).unwrap();
        let mut ctx = Context::for_program(&prog);
        for _ in 0..5 {
            call(&linked, &mut ctx, "M::bump", &[]).unwrap();
        }
        let v = call(&linked, &mut ctx, "M::get", &[]).unwrap();
        assert!(v.equals(&Value::Int(5)));
    }

    #[test]
    fn hooks_run_all_bodies_in_priority_order() {
        let src = r#"
module M
hook void h(int<64> x) {
    call Hilti::print "body-default"
}
hook void h(int<64> x) &priority = 5 {
    call Hilti::print "body-high"
}
void f() {
    hook.run h 1
}
"#;
        let (r, out) = run(src, "M::f", &[]);
        r.unwrap();
        assert_eq!(out, vec!["body-high", "body-default"]);
    }

    #[test]
    fn containers_and_state() {
        let src = r#"
module M
int<64> f() {
    local ref<set<addr>> s
    local bool e
    local int<64> n
    s = new set<addr>
    set.insert s 10.0.0.1
    set.insert s 10.0.0.2
    set.insert s 10.0.0.1
    n = set.size s
    return n
}
"#;
        let (r, _) = run(src, "M::f", &[]);
        assert!(r.unwrap().equals(&Value::Int(2)));
    }

    #[test]
    fn recursion_limit_guards() {
        let src = r#"
module M
void f() {
    call f ()
}
"#;
        let (r, _) = run(src, "M::f", &[]);
        let e = r.unwrap_err();
        assert!(e.message.contains("recursion limit"), "{e}");
    }
}
