//! Static validation of linked programs.
//!
//! HILTI is "a contained, well-defined, and statically typed environment"
//! (§2): before anything executes, the checker verifies structural
//! well-formedness — labels resolve, variables are declared, call targets
//! exist, identifier operands appear where the instruction set expects
//! them — and checks operand and target types against the opcode's row
//! signature ([`Opcode::signature`]) where they are statically known.
//! Diagnostics carry the function and block they were found in.

use std::collections::{HashMap, HashSet};

use hilti_rt::error::{RtError, RtResult};

use crate::ir::{Const, Function, Kind, Opcode, Operand, Terminator};
use crate::linker::Linked;
use crate::types::Type;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    pub function: String,
    pub block: String,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.function, self.block, self.message)
    }
}

/// Checks a linked program; `Err` carries the first error, `Ok` the full
/// (possibly empty) list of warnings.
pub fn check(linked: &Linked) -> RtResult<Vec<Diagnostic>> {
    let mut warnings = Vec::new();
    let all_bodies: Vec<&Function> = linked
        .functions
        .values()
        .chain(linked.hooks.values().flatten())
        .collect();
    for func in &all_bodies {
        check_function(func, linked, &mut warnings)?;
    }
    Ok(warnings)
}

fn err(func: &Function, block: &str, msg: String) -> RtError {
    RtError::value(format!("{} [{}]: {}", func.name, block, msg))
}

fn check_function(
    func: &Function,
    linked: &Linked,
    warnings: &mut Vec<Diagnostic>,
) -> RtResult<()> {
    if func.blocks.is_empty() {
        return Err(RtError::value(format!("{}: no blocks", func.name)));
    }

    // Unique labels.
    let mut labels = HashSet::new();
    for b in &func.blocks {
        if !labels.insert(b.label.as_str()) {
            return Err(err(func, &b.label, "duplicate block label".into()));
        }
    }

    // Declared names.
    let mut names: HashSet<&str> = HashSet::new();
    for (n, _) in &func.params {
        if !names.insert(n) {
            return Err(RtError::value(format!(
                "{}: duplicate parameter {n}",
                func.name
            )));
        }
    }
    for (n, _) in &func.locals {
        // Locals may repeat (block-scoped shadowing collapses); warn only.
        if !names.insert(n) {
            warnings.push(Diagnostic {
                function: func.name.clone(),
                block: String::new(),
                message: format!("local {n} declared more than once"),
            });
        }
    }

    let var_ok =
        |name: &str| -> bool { names.contains(name) || linked.global_index.contains_key(name) };

    // Static types of every variable whose declaration pins one down
    // (parameters, typed locals, globals). `any` stays unchecked.
    let var_types = func.var_types(&linked.globals);

    for block in &func.blocks {
        for instr in &block.instrs {
            // Variable references resolve.
            for arg in &instr.args {
                if let Operand::Var(v) = arg {
                    if !var_ok(v) {
                        return Err(err(
                            func,
                            &block.label,
                            format!("undeclared variable {v} in {}", instr.opcode.mnemonic()),
                        ));
                    }
                }
            }
            if let Some(t) = &instr.target {
                if !var_ok(t) {
                    return Err(err(
                        func,
                        &block.label,
                        format!("undeclared target {t} in {}", instr.opcode.mnemonic()),
                    ));
                }
            }
            check_instr_shape(func, &block.label, instr, linked, warnings)?;
            check_instr_types(func, &block.label, instr, &var_types)?;
        }
        // Terminators target existing labels.
        match &block.term {
            Terminator::Jump(l) => {
                if !labels.contains(l.as_str()) {
                    return Err(err(
                        func,
                        &block.label,
                        format!("jump to unknown label {l}"),
                    ));
                }
            }
            Terminator::IfElse(cond, l1, l2) => {
                if let Operand::Var(v) = cond {
                    if !var_ok(v) {
                        return Err(err(
                            func,
                            &block.label,
                            format!("undeclared condition variable {v}"),
                        ));
                    }
                }
                for l in [l1, l2] {
                    if !labels.contains(l.as_str()) {
                        return Err(err(
                            func,
                            &block.label,
                            format!("branch to unknown label {l}"),
                        ));
                    }
                }
            }
            Terminator::Return(Some(Operand::Var(v))) => {
                if !var_ok(v) {
                    return Err(err(
                        func,
                        &block.label,
                        format!("undeclared return variable {v}"),
                    ));
                }
            }
            Terminator::Return(_) => {}
        }
    }
    Ok(())
}

fn check_instr_shape(
    func: &Function,
    block: &str,
    instr: &crate::ir::Instr,
    linked: &Linked,
    warnings: &mut Vec<Diagnostic>,
) -> RtResult<()> {
    use Opcode::*;
    match instr.opcode {
        Call | CallVoid => {
            let Some(Operand::Const(Const::Ident(name))) = instr.args.first() else {
                return Err(err(func, block, "call needs a function identifier".into()));
            };
            match linked.functions.get(name) {
                Some(callee) => {
                    let given = instr.args.len() - 1;
                    if given != callee.params.len() {
                        return Err(err(
                            func,
                            block,
                            format!(
                                "call to {name}: {} arguments given, {} expected",
                                given,
                                callee.params.len()
                            ),
                        ));
                    }
                }
                None if name.starts_with("Hilti::") => {
                    // Builtin (print, ...) — resolved at runtime.
                }
                None => {
                    // Host functions are registered at runtime; warn only.
                    warnings.push(Diagnostic {
                        function: func.name.clone(),
                        block: block.to_owned(),
                        message: format!("call target {name} not defined at link time"),
                    });
                }
            }
        }
        HookRun | HookRunVoid => {
            let Some(Operand::Const(Const::Ident(name))) = instr.args.first() else {
                return Err(err(func, block, "hook.run needs a hook identifier".into()));
            };
            if !linked.hooks.contains_key(name) {
                // A hook without bodies is legal: it simply does nothing.
                warnings.push(Diagnostic {
                    function: func.name.clone(),
                    block: block.to_owned(),
                    message: format!("hook {name} has no bodies"),
                });
            }
        }
        CallableBind if !matches!(instr.args.first(), Some(Operand::Const(Const::Ident(_)))) => {
            return Err(err(
                func,
                block,
                "callable.bind needs a function identifier".into(),
            ));
        }
        New if !matches!(instr.args.first(), Some(Operand::Const(Const::TypeRef(_)))) => {
            return Err(err(func, block, "new needs a type operand".into()));
        }
        StructGet | StructSet | StructIsSet | StructUnset
            if !matches!(instr.args.get(1), Some(Operand::Const(Const::Ident(_)))) =>
        {
            return Err(err(
                func,
                block,
                format!("{} needs a field identifier", instr.opcode.mnemonic()),
            ));
        }
        OverlayGet => {
            let Some(Operand::Const(Const::Ident(oname))) = instr.args.first() else {
                return Err(err(
                    func,
                    block,
                    "overlay.get needs a type identifier".into(),
                ));
            };
            if !linked.types.contains_key(oname) {
                return Err(err(func, block, format!("unknown overlay type {oname}")));
            }
        }
        PushHandler => {
            let Some(Operand::Const(Const::Label(l))) = instr.args.first() else {
                return Err(err(func, block, "push_handler needs a label".into()));
            };
            if func.block(l).is_none() {
                return Err(err(func, block, format!("handler label {l} unknown")));
            }
        }
        _ => {}
    }
    // Pure instructions without a target are dead on arrival; warn.
    if instr.opcode.is_pure() && instr.target.is_none() {
        warnings.push(Diagnostic {
            function: func.name.clone(),
            block: block.to_owned(),
            message: format!("{} result discarded", instr.opcode.mnemonic()),
        });
    }
    Ok(())
}

/// Local type checking against the opcode's row signature
/// ([`Opcode::signature`]), where operand types are statically pinned
/// down: a constant, or a variable declared with a type other than `any`.
/// Opcodes without a signature are checked structurally only.
fn check_instr_types(
    func: &Function,
    block: &str,
    instr: &crate::ir::Instr,
    var_types: &HashMap<&str, Type>,
) -> RtResult<()> {
    let Some((params, result)) = instr.opcode.signature() else {
        return Ok(());
    };
    let arity = instr.value_operands().count();
    if arity != params.len() {
        return Err(err(
            func,
            block,
            format!(
                "{} expects {} operands, got {arity}",
                instr.opcode.mnemonic(),
                params.len(),
            ),
        ));
    }
    for (i, (op, want)) in instr.value_operands().zip(params).enumerate() {
        if let Some(have) = op.static_type(var_types) {
            if !want.admits(&have) {
                return Err(err(
                    func,
                    block,
                    format!(
                        "{} operand {}: expected {want}, got {have}",
                        instr.opcode.mnemonic(),
                        i + 1
                    ),
                ));
            }
        }
    }
    // Target type, when declared.
    if result != Kind::Void {
        if let Some(t) = &instr.target {
            if let Some(declared) = var_types.get(t.as_str()) {
                let declared = declared.strip_ref();
                if !result.admits(declared) {
                    return Err(err(
                        func,
                        block,
                        format!(
                            "{}: target {t} declared {declared}, result is {result}",
                            instr.opcode.mnemonic()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn linked(src: &str) -> RtResult<Vec<Diagnostic>> {
        let m = parse_module(src)?;
        let l = link_with_priorities(vec![m])?;
        check(&l)
    }

    #[test]
    fn valid_program_checks() {
        let w = linked(
            r#"
module M
int<64> f(int<64> x) {
    local int<64> y
    y = int.add x 1
    return y
}
"#,
        )
        .unwrap();
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn undeclared_variable_rejected() {
        let e = linked("module M\nvoid f() {\n  local int<64> y\n  y = int.add nope 1\n}\n")
            .unwrap_err();
        assert!(e.message.contains("undeclared variable nope"), "{e}");
    }

    #[test]
    fn undeclared_target_rejected() {
        let e = linked("module M\nvoid f() {\n  nope = int.add 1 1\n}\n").unwrap_err();
        assert!(e.message.contains("undeclared target"), "{e}");
    }

    #[test]
    fn unknown_jump_label_rejected() {
        let e = linked("module M\nvoid f() {\n  jump nowhere\n}\n").unwrap_err();
        assert!(e.message.contains("unknown label"), "{e}");
    }

    #[test]
    fn call_arity_enforced() {
        let e = linked(
            r#"
module M
void g(int<64> a, int<64> b) {
}
void f() {
    call g (1)
}
"#,
        )
        .unwrap_err();
        assert!(e.message.contains("1 arguments given, 2 expected"), "{e}");
    }

    #[test]
    fn unknown_call_target_is_warning() {
        let w = linked("module M\nvoid f() {\n  call some_host_fn (1)\n}\n").unwrap();
        assert!(w.iter().any(|d| d.message.contains("not defined")));
    }

    #[test]
    fn hilti_builtins_allowed() {
        let w = linked("module M\nvoid f() {\n  call Hilti::print \"x\"\n}\n").unwrap();
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn discarded_pure_result_is_warning() {
        let w = linked("module M\nvoid f() {\n  local int<64> x = 1\n  int.add x 1\n}\n").unwrap();
        assert!(w.iter().any(|d| d.message.contains("result discarded")));
    }

    #[test]
    fn unknown_overlay_rejected() {
        let e = linked(
            "module M\nvoid f(ref<bytes> p) {\n  local addr a\n  a = overlay.get NoSuch src p\n}\n",
        )
        .unwrap_err();
        assert!(e.message.contains("unknown overlay"), "{e}");
    }

    #[test]
    fn static_type_mismatch_rejected() {
        let e = linked("module M\nvoid f() {\n  local int<64> x\n  x = int.add \"oops\" 1\n}\n")
            .unwrap_err();
        assert!(e.message.contains("expected int<64>, got string"), "{e}");
    }

    #[test]
    fn declared_local_types_propagate() {
        let e = linked(
            "module M\nvoid f() {\n  local string s\n  local int<64> x\n  s = assign \"hi\"\n  x = string.length 5\n}\n",
        )
        .unwrap_err();
        assert!(e.message.contains("expected string"), "{e}");
    }

    #[test]
    fn target_type_mismatch_rejected() {
        let e =
            linked("module M\nvoid f() {\n  local string s\n  s = int.add 1 2\n}\n").unwrap_err();
        assert!(e.message.contains("declared string"), "{e}");
    }

    #[test]
    fn key_lists_are_not_containers_of_their_own() {
        // `set.members` and `map.keys` return `list<any>`: a set or map
        // target is rejected, a list target is not.
        for (container, op) in [("set<any>", "set.members"), ("map<any, any>", "map.keys")] {
            let src = |target: &str| {
                format!(
                    "module M\nvoid f() {{\n  local ref<{container}> s\n  \
                     local ref<list<any>> l\n  s = new {container}\n  \
                     {target} = {op} s\n}}\n"
                )
            };
            let e = linked(&src("s")).unwrap_err();
            assert!(
                e.message.contains(&format!(
                    "target s declared {container}, result is list<any>"
                )),
                "{e}"
            );
            assert!(linked(&src("l")).unwrap().is_empty(), "{op} into a list");
        }
    }

    #[test]
    fn any_typed_operands_not_flagged() {
        let w = linked(
            "module M\nint<64> f(any x) {\n  local int<64> y\n  y = int.add x 1\n  return y\n}\n",
        )
        .unwrap();
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn domain_type_signatures_checked() {
        let e =
            linked("module M\nvoid f(addr a) {\n  local bool b\n  b = network.contains a a\n}\n")
                .unwrap_err();
        assert!(e.message.contains("expected net"), "{e}");
    }

    #[test]
    fn global_references_check() {
        let w = linked(
            r#"
module M
global int<64> counter = 0
void f() {
    counter = int.add counter 1
}
"#,
        )
        .unwrap();
        assert!(w.is_empty(), "{w:?}");
    }
}
