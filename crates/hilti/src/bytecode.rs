//! Lowering linked IR to flat register bytecode.
//!
//! This stage is our stand-in for the paper's LLVM backend (see DESIGN.md):
//! it performs the work a native code generator does before emitting
//! machine instructions — resolving every name to an index, flattening the
//! CFG to program counters, converting constants to runtime representation
//! (including compiling regexp literals), and pre-splitting identifier
//! operands — so that the VM's hot loop executes with array indexing only,
//! no hash lookups and no constant re-materialization. The interpreter
//! baseline (`crate::interp`) deliberately skips all of this, which is
//! exactly the compiled-vs-interpreted gap §6.5 measures.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hilti_rt::error::{RtError, RtResult};
use hilti_rt::overlay::OverlayType;
use hilti_rt::regexp::Regex;

use crate::ir::{Const, Function, Opcode, Operand, Terminator, TypeDef};
use crate::linker::Linked;
use crate::types::Type;
use crate::value::{StructLayout, Value};

/// A resolved operand: a frame slot, an entry of the function's constant
/// table ([`CFunc::consts`]) or a thread-local global. Every instruction,
/// generic or typed, reads its operands through this one type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum COperand {
    /// Frame slot (parameters first, then locals/temps).
    Slot(u16),
    /// Index into the function's constant table.
    Const(u32),
    /// Thread-local global slot.
    Global(u32),
}

/// A resolved instruction.
#[derive(Clone, Debug)]
pub enum CInstr {
    /// A data instruction evaluated through `ops::eval`.
    Op {
        opcode: Opcode,
        target: Option<u16>,
        args: Box<[COperand]>,
        idents: Rc<[String]>,
    },
    /// Direct call to a HILTI function.
    Call {
        target: Option<u16>,
        func: u32,
        args: Box<[COperand]>,
    },
    /// Call to a host-registered (C-level) function. `host` indexes
    /// [`CompiledProgram::host_names`] — the callee is resolved here, when
    /// the program is lowered, not by name on every call; `name` stays for
    /// rendering.
    CallHost {
        target: Option<u16>,
        name: Rc<str>,
        host: u32,
        args: Box<[COperand]>,
    },
    /// Run all bodies of a hook.
    RunHook {
        hook: u32,
        args: Box<[COperand]>,
    },
    /// Call through a callable value (extra args appended to bound ones).
    CallCallable {
        target: Option<u16>,
        callable: COperand,
        args: Box<[COperand]>,
    },
    /// Instantiate a type (`new`).
    New {
        target: u16,
        ty: Type,
        args: Box<[COperand]>,
    },
    Jump(u32),
    Branch {
        cond: COperand,
        then_pc: u32,
        else_pc: u32,
    },
    Return(Option<COperand>),
    PushHandler {
        pc: u32,
        kind: Rc<str>,
        binder: Option<u16>,
    },
    PopHandler,
    Yield,
    /// Execute `inner` (which writes the function's scratch slot), then
    /// move the scratch slot into global `global`. This is how instructions
    /// targeting a thread-local global lower.
    GlobalStore {
        global: u32,
        inner: Box<CInstr>,
    },

    // --- typed instructions ----------------------------------------------
    // Emitted by `crate::specialize`, never by lowering itself. These are
    // the typed instructions of the clone-free fast path: the VM executes
    // them inline on `frame.slots`, with no operand marshalling and no
    // `ops::eval` round-trip. Operand slots are statically typed
    // (`CFunc::slot_types`), but values are still checked at run time so a
    // mistyped slot raises the same catchable TypeError as the generic
    // path (locals start as Null).
    /// `[dst =] op args…` for an op with a typed row in `crate::ops`.
    Typed(Row),
    /// A `Typed` op with a `bool` result fused with the branch on it that
    /// immediately follows. It still writes the bool flag slot `row.dst` (so
    /// later reads of the flag stay correct) and the original branch
    /// remains at the following pc for explicit jump targets;
    /// straight-line execution just never revisits it.
    BrIf {
        row: Row,
        then_pc: u32,
        else_pc: u32,
    },
    /// `dst = assign src` into a local, from any operand.
    Move {
        dst: u16,
        src: COperand,
    },
    /// Branch on a slot statically known to be bool.
    BrBool {
        cond: u16,
        then_pc: u32,
        else_pc: u32,
    },
    /// Fused token match replacing `t = regexp.match_token re it` followed
    /// by `id = tuple.get t 0` and `end = tuple.get t 1`: `re` is a
    /// `regexp` slot, `it` and `end` are `iterator<bytes>` slots, `id` is
    /// an `int<64>` slot. The VM's fast loop writes `id` and `end`
    /// directly, builds no tuple, and continues at pc+3. The two reads stay
    /// at pc+1 and pc+2, which no jump targets: the one-at-a-time path runs
    /// the match alone into `t` (read nowhere else) and then those reads.
    MatchToken {
        re: u16,
        it: u16,
        t: u16,
        id: u16,
        end: u16,
    },

    // --- struct field sites ----------------------------------------------
    // How `struct.get` / `struct.set` lower: the field name is resolved to
    // a slot once per site, not per access. The site's cache maps the
    // operand's struct type to the slot; lowering fills it in when the
    // operand's declared type names the struct, otherwise the first
    // execution does, through `ops::struct_field_index`.
    /// `struct.get` with a (type name → field slot) cache.
    StructGet {
        target: Option<u16>,
        obj: COperand,
        field: Rc<str>,
        ic: Rc<RefCell<IcSite>>,
    },
    /// `struct.set` with the same cache shape.
    StructSet {
        target: Option<u16>,
        obj: COperand,
        value: COperand,
        field: Rc<str>,
        ic: Rc<RefCell<IcSite>>,
    },

    // --- typed struct field sites ----------------------------------------
    // Emitted by `crate::specialize` for a field site whose receiver is a
    // frame slot declared as a struct type `ty`, with the field's index in
    // `ty` resolved then. The VM's fast loop reads or writes field `idx` of
    // a `ty` in place; any other receiver — another struct type, a value
    // that is not a struct, an unset field on a get — leaves the
    // instruction to the dispatch path, which runs `site`, the
    // `StructGet`/`StructSet` it replaced, with its cache.
    /// `dst = struct.get obj <field>` on a slot declared `ref<ty>`.
    FieldGet {
        dst: u16,
        obj: u16,
        idx: u32,
        ty: Rc<str>,
        site: Box<CInstr>,
    },
    /// `struct.set obj <field> value` on a slot declared `ref<ty>`.
    FieldSet {
        obj: u16,
        idx: u32,
        value: COperand,
        ty: Rc<str>,
        site: Box<CInstr>,
    },
}

// A function's code is a dense array of these: a constant lives in the
// function's table, so an operand is an index and no instruction holds a
// `Value`.
const _: () = assert!(std::mem::size_of::<COperand>() <= 8);
const _: () = assert!(std::mem::size_of::<CInstr>() <= 48);

/// One application of a typed row of `crate::ops`, which states `op`'s
/// semantics once for this instruction and for `ops::eval`. Each operand
/// the row reads is a constant, or a slot or global declared with the
/// row's kind; `args` past the row's arity are unused. `dst` is `None` for
/// an op without a target. Writing the slot its first operand reads, a row
/// that steps that operand does so in place.
#[derive(Clone, Debug)]
pub struct Row {
    pub op: Opcode,
    pub dst: Option<u16>,
    pub args: [COperand; 3],
}

impl Row {
    /// The operands the row reads: `args` up to its arity.
    pub fn operands(&self) -> &[COperand] {
        let arity = self.op.signature().map_or(0, |(params, _)| params.len());
        &self.args[..arity]
    }
}

/// Per-site cache of a struct field site. Sites
/// are private to one thread's bytecode (a `Program` is lowered per thread),
/// so plain `RefCell` interior mutability is enough — the parallel pipeline
/// lowers one program per shard and never shares sites across threads.
#[derive(Debug, Default)]
pub struct IcSite {
    /// Cached resolutions, most recently added last. Linear scan: sites are
    /// monomorphic or nearly so by construction (`cap` is small).
    pub entries: Vec<IcEntry>,
    /// Maximum entries before the site de-optimizes.
    pub cap: usize,
    /// A pathologically polymorphic site: the cache is abandoned and every
    /// execution resolves generically (still correct, no longer cached).
    pub deopt: bool,
    /// Guard hits.
    pub hits: u64,
    /// Guard misses (each one fell back to generic resolution).
    pub misses: u64,
}

/// Entries a site holds before it de-optimizes.
pub const IC_CAP: usize = 4;

impl IcSite {
    pub fn new(cap: usize) -> Rc<RefCell<IcSite>> {
        Rc::new(RefCell::new(IcSite {
            cap,
            ..IcSite::default()
        }))
    }

    /// The cached slot of a struct field site for a struct of `type_name`.
    /// Instances made by `new` share their layout's name, so the pointer
    /// comparison usually decides; host-built structs compare as text.
    pub fn struct_slot(&self, type_name: &Rc<str>) -> Option<usize> {
        self.entries.iter().find_map(|e| match e {
            IcEntry::Struct {
                type_name: t,
                field_idx,
            } if Rc::ptr_eq(t, type_name) || **t == **type_name => Some(*field_idx as usize),
            _ => None,
        })
    }

    /// Records a miss that resolved successfully; refills the cache or, at
    /// capacity, de-optimizes the site for good.
    pub fn refill(&mut self, entry: IcEntry) {
        if self.deopt {
            return;
        }
        if self.entries.len() >= self.cap {
            self.entries.clear();
            self.deopt = true;
        } else {
            self.entries.push(entry);
        }
    }
}

/// One cached resolution in an [`IcSite`].
#[derive(Clone, Debug)]
pub enum IcEntry {
    /// Struct type name → field index (for `struct.get`/`struct.set`).
    Struct { type_name: Rc<str>, field_idx: u32 },
}

/// A lowered function.
#[derive(Clone, Debug)]
pub struct CFunc {
    pub name: String,
    pub n_params: u16,
    pub n_slots: u16,
    pub code: Vec<CInstr>,
    /// Static type of each slot (params, then locals; the trailing scratch
    /// slot is `Any`). Carried from the checked IR so `crate::specialize`
    /// can prove operands integer/bool without dataflow analysis. A slot
    /// whose declared type is `Any` — or that is reused under conflicting
    /// declarations — is never specialized on.
    pub slot_types: Vec<Type>,
    /// The constants the code reads, each `COperand::Const` an index here.
    pub consts: Vec<Value>,
}

impl COperand {
    /// The value read in place: a slot of `slots`, an entry of `consts` (the
    /// function's constant table) or a global of `globals`.
    #[inline(always)]
    pub fn get<'a>(
        self,
        slots: &'a [Value],
        consts: &'a [Value],
        globals: &'a [Value],
    ) -> &'a Value {
        match self {
            COperand::Slot(s) => &slots[s as usize],
            COperand::Const(c) => &consts[c as usize],
            COperand::Global(g) => &globals[g as usize],
        }
    }

    /// Renders like the textual IR operand it lowered from (`s3`, `g1`,
    /// or the constant in `consts`).
    pub fn render(self, consts: &[Value]) -> String {
        match self {
            COperand::Slot(s) => format!("s{s}"),
            COperand::Const(c) => consts[c as usize].render(),
            COperand::Global(g) => format!("g{g}"),
        }
    }
}

impl CInstr {
    /// Canonical mnemonic-based rendering used by `--trace`, with constants
    /// read from `consts`, the function's table. Specialized variants render
    /// exactly like the generic instruction they replaced, so traces from a
    /// specialized and an unspecialized build stay diffable
    /// ([`CInstr::BrIf`] is the one exception: the VM traces it as its two
    /// constituent lines).
    pub fn render(&self, consts: &[Value]) -> String {
        fn assignment(target: Option<u16>, rhs: String) -> String {
            match target {
                Some(t) => format!("s{t} = {rhs}"),
                None => rhs,
            }
        }
        let operand = |o: &COperand| o.render(consts);
        let call_args = |args: &[COperand]| args.iter().map(operand).collect::<Vec<_>>().join(" ");
        let typed = |row: &Row| {
            let mut parts = vec![row.op.mnemonic().to_owned()];
            parts.extend(row.operands().iter().map(operand));
            assignment(row.dst, parts.join(" "))
        };
        match self {
            CInstr::Op {
                opcode,
                target,
                args,
                idents,
            } => {
                let mut parts: Vec<String> = vec![opcode.mnemonic().to_owned()];
                parts.extend(idents.iter().cloned());
                parts.extend(args.iter().map(operand));
                assignment(*target, parts.join(" "))
            }
            CInstr::Call { target, func, args } => {
                assignment(*target, format!("call #{func} ({})", call_args(args)))
            }
            CInstr::CallHost {
                target, name, args, ..
            } => assignment(*target, format!("call.c {name} ({})", call_args(args))),
            CInstr::RunHook { hook, args } => {
                format!("hook.run #{hook} ({})", call_args(args))
            }
            CInstr::CallCallable {
                target,
                callable,
                args,
            } => assignment(
                *target,
                format!("callable.call {} ({})", operand(callable), call_args(args)),
            ),
            CInstr::New { target, ty, args } => {
                assignment(Some(*target), format!("new {ty} ({})", call_args(args)))
            }
            CInstr::Jump(pc) => format!("jump @{pc}"),
            CInstr::Branch {
                cond,
                then_pc,
                else_pc,
            } => format!("if {} goto @{then_pc} else @{else_pc}", operand(cond)),
            CInstr::Return(v) => match v {
                Some(op) => format!("return {}", operand(op)),
                None => "return".to_owned(),
            },
            CInstr::PushHandler { pc, kind, binder } => match binder {
                Some(b) => format!("push_handler {kind} @{pc} s{b}"),
                None => format!("push_handler {kind} @{pc}"),
            },
            CInstr::PopHandler => "pop_handler".to_owned(),
            CInstr::Yield => "yield".to_owned(),
            CInstr::GlobalStore { global, inner } => {
                format!("g{global} <- {}", inner.render(consts))
            }
            CInstr::Typed(row) => typed(row),
            CInstr::BrIf {
                row,
                then_pc,
                else_pc,
            } => {
                let flag = row.dst.expect("a fused test writes its flag");
                format!(
                    "{} ; if s{flag} goto @{then_pc} else @{else_pc}",
                    typed(row)
                )
            }
            CInstr::Move { dst, src } => format!("s{dst} = assign {}", operand(src)),
            CInstr::BrBool {
                cond,
                then_pc,
                else_pc,
            } => format!("if s{cond} goto @{then_pc} else @{else_pc}"),
            CInstr::MatchToken { re, it, t, .. } => {
                format!("s{t} = regexp.match_token s{re} s{it}")
            }
            // Field sites render like a generic `Op` (mnemonic, idents,
            // then value operands), keeping traces diffable against the
            // interpreter's.
            CInstr::StructGet {
                target, obj, field, ..
            } => assignment(*target, format!("struct.get {field} {}", operand(obj))),
            CInstr::StructSet {
                target,
                obj,
                value,
                field,
                ..
            } => assignment(
                *target,
                format!("struct.set {field} {} {}", operand(obj), operand(value)),
            ),
            CInstr::FieldGet { site, .. } | CInstr::FieldSet { site, .. } => site.render(consts),
        }
    }

    /// Bucket name for the instruction-mix histogram (`Context::stats`).
    /// Generic data instructions count under their IR mnemonic; specialized
    /// variants under distinct `spec.*` names (a typed op under
    /// `spec.<mnemonic>`) so the histogram shows how much of the stream
    /// runs typed.
    pub fn stat_name(&self) -> &'static str {
        match self {
            CInstr::Op { opcode, .. } => opcode.mnemonic(),
            CInstr::Call { .. } => "call",
            CInstr::CallHost { .. } => "call.c",
            CInstr::RunHook { .. } => "hook.run",
            CInstr::CallCallable { .. } => "callable.call",
            CInstr::New { .. } => "new",
            CInstr::Jump(_) => "jump",
            CInstr::Branch { .. } => "branch",
            CInstr::Return(_) => "return",
            CInstr::PushHandler { .. } => "exception.push_handler",
            CInstr::PopHandler => "exception.pop_handler",
            CInstr::Yield => "yield",
            CInstr::GlobalStore { inner, .. } => inner.stat_name(),
            CInstr::Typed(row) => row.op.spec_name(),
            CInstr::BrIf { .. } => "spec.br_if",
            CInstr::Move { .. } => "spec.move",
            CInstr::BrBool { .. } => "spec.br.bool",
            CInstr::MatchToken { .. } => "spec.regexp.token",
            CInstr::StructGet { .. } => "struct.get",
            CInstr::StructSet { .. } => "struct.set",
            CInstr::FieldGet { .. } => "spec.struct.get",
            CInstr::FieldSet { .. } => "spec.struct.set",
        }
    }

    /// The instruction the dispatch path runs for this one: a typed field
    /// site's `site`, and otherwise the instruction itself.
    pub fn generic(&self) -> &CInstr {
        match self {
            CInstr::FieldGet { site, .. } | CInstr::FieldSet { site, .. } => site,
            other => other,
        }
    }
}

/// A fully lowered program.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    pub funcs: Vec<CFunc>,
    pub func_index: HashMap<String, u32>,
    /// Hook name → function indices, priority order.
    pub hooks: Vec<Vec<u32>>,
    pub hook_index: HashMap<String, u32>,
    /// Global initializers, slot order (evaluated per context).
    pub global_inits: Vec<Option<Value>>,
    pub global_names: Vec<String>,
    /// Declared type of each global, slot order: what `crate::specialize`
    /// checks a global operand against, as it checks a slot against
    /// [`CFunc::slot_types`].
    pub global_types: Vec<Type>,
    /// Struct type → layout. Behind `Rc`: every per-thread `Context`
    /// shares the table instead of deep-cloning it.
    pub struct_layouts: Rc<HashMap<String, StructLayout>>,
    /// Overlay types, shared the same way.
    pub overlays: Rc<HashMap<String, Rc<OverlayType>>>,
    /// Every host function the program calls by `call.c`, each once; a
    /// call site carries its position here. Slot 0 is always the
    /// `Hilti::print` builtin.
    pub host_names: Vec<Rc<str>>,
}

impl CompiledProgram {
    pub fn func(&self, name: &str) -> Option<&CFunc> {
        self.func_index.get(name).map(|i| &self.funcs[*i as usize])
    }

    /// The state of every struct field site, in function and code order.
    pub fn site_report(&self) -> Vec<SiteReport> {
        let mut sites = Vec::new();
        for f in &self.funcs {
            for instr in &f.code {
                let instr = match instr {
                    CInstr::GlobalStore { inner, .. } => &**inner,
                    other => other.generic(),
                };
                let (kind, ic) = match instr {
                    CInstr::StructGet { ic, .. } => ("struct.get", ic),
                    CInstr::StructSet { ic, .. } => ("struct.set", ic),
                    _ => continue,
                };
                let site = ic.borrow();
                sites.push(SiteReport {
                    function: f.name.clone(),
                    kind,
                    entries: site.entries.len(),
                    deopt: site.deopt,
                    hits: site.hits,
                    misses: site.misses,
                });
            }
        }
        sites
    }
}

/// One struct field site in [`CompiledProgram::site_report`].
#[derive(Clone, Debug)]
pub struct SiteReport {
    pub function: String,
    pub kind: &'static str,
    pub entries: usize,
    pub deopt: bool,
    pub hits: u64,
    pub misses: u64,
}

/// Lowers a linked program to bytecode.
pub fn compile(linked: &Linked) -> RtResult<CompiledProgram> {
    let mut prog = CompiledProgram {
        host_names: vec![Rc::from("Hilti::print")],
        ..CompiledProgram::default()
    };

    // Type tables (built flat, then shared behind Rc).
    let mut struct_layouts: HashMap<String, StructLayout> = HashMap::new();
    let mut overlays: HashMap<String, Rc<OverlayType>> = HashMap::new();
    for (name, def) in &linked.types {
        match def {
            TypeDef::Struct(fields) => {
                struct_layouts.insert(
                    name.clone(),
                    StructLayout::new(name, fields.iter().map(|(n, _)| n.clone()).collect()),
                );
            }
            TypeDef::Overlay(o) => {
                overlays.insert(name.clone(), Rc::new(o.clone()));
            }
            TypeDef::Enum(_) | TypeDef::Bitset(_) => {}
        }
    }
    prog.struct_layouts = Rc::new(struct_layouts);
    prog.overlays = Rc::new(overlays);

    // Global slots.
    for (name, ty, init) in &linked.globals {
        prog.global_names.push(name.clone());
        prog.global_types.push(ty.clone());
        prog.global_inits.push(match init {
            Some(c) => Some(const_value(c)?),
            None => None,
        });
    }
    let global_index: HashMap<&str, u32> = linked
        .globals
        .iter()
        .enumerate()
        .map(|(i, (n, _, _))| (n.as_str(), i as u32))
        .collect();

    // Assign function indices: plain functions plus hook bodies.
    let mut ordered: Vec<&Function> = linked.functions.values().collect();
    ordered.sort_by(|a, b| a.name.cmp(&b.name));
    let mut bodies: Vec<&Function> = Vec::new();
    for f in &ordered {
        prog.func_index.insert(f.name.clone(), bodies.len() as u32);
        bodies.push(f);
    }
    let mut hook_names: Vec<&String> = linked.hooks.keys().collect();
    hook_names.sort();
    for hname in hook_names {
        let hbodies = &linked.hooks[hname];
        let mut indices = Vec::new();
        for (i, f) in hbodies.iter().enumerate() {
            let idx = bodies.len() as u32;
            // Hook bodies get synthetic unique names.
            prog.func_index.insert(format!("{hname}#\u{1}{i}"), idx);
            bodies.push(f);
            indices.push(idx);
        }
        prog.hook_index
            .insert(hname.clone(), prog.hooks.len() as u32);
        prog.hooks.push(indices);
    }

    // Lower every body.
    for f in bodies {
        let lowered = lower_function(
            f,
            &prog.func_index,
            &prog.hook_index,
            &global_index,
            &prog.struct_layouts,
            &mut prog.host_names,
        )?;
        prog.funcs.push(lowered);
    }
    Ok(prog)
}

/// Converts a constant to its runtime value (identifiers and labels are
/// handled structurally during lowering, not here).
pub fn const_value(c: &Const) -> RtResult<Value> {
    Ok(match c {
        Const::Null => Value::Null,
        Const::Bool(b) => Value::Bool(*b),
        Const::Int(i) => Value::Int(*i),
        Const::Double(d) => Value::Double(*d),
        Const::Str(s) => Value::str(s),
        Const::BytesLit(b) => Value::Bytes(hilti_rt::Bytes::frozen_from_slice(b)),
        Const::Addr(a) => Value::Addr(*a),
        Const::Net(n) => Value::Net(*n),
        Const::Port(p) => Value::Port(*p),
        Const::Time(t) => Value::Time(*t),
        Const::Interval(i) => Value::Interval(*i),
        Const::EnumLit(name, idx) => Value::Enum(Rc::from(name.as_str()), *idx),
        Const::Tuple(elems) => Value::Tuple(
            elems
                .iter()
                .map(const_value)
                .collect::<RtResult<Rc<[_]>>>()?,
        ),
        Const::Patterns(pats) => {
            let refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            Value::Regexp(Regex::set(&refs)?)
        }
        Const::TypeRef(t) => {
            return Err(RtError::type_error(format!(
                "type operand {t} has no value form"
            )))
        }
        Const::Ident(i) => {
            return Err(RtError::type_error(format!(
                "identifier operand {i} has no value form"
            )))
        }
        Const::Label(l) => {
            return Err(RtError::type_error(format!(
                "label operand {l} has no value form"
            )))
        }
    })
}

/// Interns a host callee: its shared name and its id in `host_names`.
fn host_callee(host_names: &mut Vec<Rc<str>>, callee: &str) -> (Rc<str>, u32) {
    let id = match host_names.iter().position(|n| &**n == callee) {
        Some(id) => id,
        None => {
            host_names.push(Rc::from(callee));
            host_names.len() - 1
        }
    };
    (Rc::clone(&host_names[id]), id as u32)
}

struct SlotMap {
    slots: HashMap<String, u16>,
}

impl SlotMap {
    fn get(&self, name: &str) -> Option<u16> {
        self.slots.get(name).copied()
    }
}

fn lower_function(
    f: &Function,
    func_index: &HashMap<String, u32>,
    hook_index: &HashMap<String, u32>,
    global_index: &HashMap<&str, u32>,
    struct_layouts: &HashMap<String, StructLayout>,
    host_names: &mut Vec<Rc<str>>,
) -> RtResult<CFunc> {
    // Slot layout: params, then locals in declaration order.
    let mut slots = SlotMap {
        slots: HashMap::new(),
    };
    for (i, (n, _)) in f.params.iter().enumerate() {
        slots.slots.insert(n.clone(), i as u16);
    }
    for (n, _) in &f.locals {
        let next = slots.slots.len() as u16;
        slots.slots.entry(n.clone()).or_insert(next);
    }

    // First pass: compute the pc of every block.
    let mut block_pc: HashMap<&str, u32> = HashMap::new();
    let mut pc = 0u32;
    for b in &f.blocks {
        block_pc.insert(b.label.as_str(), pc);
        pc += b.instrs.len() as u32 + 1; // +1 for the terminator
    }

    // Every constant operand gets an entry of the function's table.
    let mut consts: Vec<Value> = Vec::new();
    let mut operand = |op: &Operand| -> RtResult<COperand> {
        Ok(match op {
            Operand::Var(name) => {
                if let Some(s) = slots.get(name) {
                    COperand::Slot(s)
                } else if let Some(g) = global_index.get(name.as_str()) {
                    COperand::Global(*g)
                } else {
                    return Err(RtError::value(format!(
                        "{}: unresolved variable {name}",
                        f.name
                    )));
                }
            }
            Operand::Const(c) => {
                consts.push(const_value(c)?);
                COperand::Const(consts.len() as u32 - 1)
            }
        })
    };
    // Instructions whose target is a global write through a dedicated
    // scratch slot (the last one), wrapped in `GlobalStore`.
    let scratch: u16 = slots.slots.len() as u16;
    let target_slot = |t: &Option<String>| -> RtResult<(Option<u16>, Option<u32>)> {
        match t {
            None => Ok((None, None)),
            Some(name) => {
                if let Some(s) = slots.get(name) {
                    Ok((Some(s), None))
                } else if let Some(g) = global_index.get(name.as_str()) {
                    Ok((Some(scratch), Some(*g)))
                } else {
                    Err(RtError::value(format!(
                        "{}: unresolved target {name}",
                        f.name
                    )))
                }
            }
        }
    };

    // A field site for `field` of `obj`, resolved here when the operand is
    // a parameter or local declared as one of the program's struct types.
    // The seeded entry is still guarded at run time (values are dynamically
    // typed), so a wrong declaration costs one cache miss, nothing else.
    let field_site = |obj: &Operand, field: &str| {
        let ic = IcSite::new(IC_CAP);
        let declared = match obj {
            Operand::Var(name) => f.params.iter().chain(&f.locals).find(|(n, _)| n == name),
            Operand::Const(_) => None,
        };
        let resolved = declared
            .and_then(|(_, ty)| match ty.strip_ref() {
                Type::Struct(s) => struct_layouts.get(&**s),
                _ => None,
            })
            .and_then(|layout| Some((layout, layout.index_of(field)?)));
        if let Some((layout, idx)) = resolved {
            ic.borrow_mut().refill(IcEntry::Struct {
                type_name: Rc::clone(&layout.name),
                field_idx: idx as u32,
            });
        }
        ic
    };

    // The ident list of every op that names nothing, shared.
    let no_idents: Rc<[String]> = Rc::from(Vec::new());
    let mut code: Vec<CInstr> = Vec::with_capacity(pc as usize);
    for b in &f.blocks {
        for instr in &b.instrs {
            // Split args into identifier constants and value operands.
            let mut idents: Vec<String> = Vec::new();
            let mut vargs: Vec<&Operand> = Vec::new();
            for a in &instr.args {
                match a {
                    Operand::Const(Const::Ident(i)) => idents.push(i.clone()),
                    Operand::Const(Const::Label(_)) => {} // handled below
                    Operand::Const(Const::Patterns(ps)) => {
                        idents.extend(ps.iter().cloned());
                    }
                    other => vargs.push(other),
                }
            }

            let (ctarget, gtarget) = target_slot(&instr.target)?;

            let lowered = match instr.opcode {
                Opcode::Call | Opcode::CallVoid => {
                    let callee = idents
                        .first()
                        .ok_or_else(|| RtError::value("call without callee"))?;
                    if let Some(fi) = func_index.get(callee) {
                        CInstr::Call {
                            target: ctarget,
                            func: *fi,
                            args: vargs.iter().map(|a| operand(a)).collect::<RtResult<_>>()?,
                        }
                    } else {
                        let (name, host) = host_callee(host_names, callee);
                        CInstr::CallHost {
                            target: ctarget,
                            name,
                            host,
                            args: vargs.iter().map(|a| operand(a)).collect::<RtResult<_>>()?,
                        }
                    }
                }
                Opcode::CallC => {
                    let callee = idents
                        .first()
                        .ok_or_else(|| RtError::value("call.c without callee"))?;
                    let (name, host) = host_callee(host_names, callee);
                    CInstr::CallHost {
                        target: ctarget,
                        name,
                        host,
                        args: vargs.iter().map(|a| operand(a)).collect::<RtResult<_>>()?,
                    }
                }
                Opcode::HookRun | Opcode::HookRunVoid => {
                    let hname = idents
                        .first()
                        .ok_or_else(|| RtError::value("hook.run without hook name"))?;
                    match hook_index.get(hname) {
                        Some(hi) => CInstr::RunHook {
                            hook: *hi,
                            args: vargs.iter().map(|a| operand(a)).collect::<RtResult<_>>()?,
                        },
                        // A hook with no bodies: no-op.
                        None => CInstr::Op {
                            opcode: Opcode::Assign,
                            target: None,
                            args: Box::new([operand(&Operand::Const(Const::Null))?]),
                            idents: Rc::clone(&no_idents),
                        },
                    }
                }
                Opcode::CallableCall | Opcode::CallableCallVoid => {
                    let mut it = vargs.iter();
                    let callable = it
                        .next()
                        .ok_or_else(|| RtError::value("callable.call without callable"))?;
                    CInstr::CallCallable {
                        target: ctarget,
                        callable: operand(callable)?,
                        args: it.map(|a| operand(a)).collect::<RtResult<_>>()?,
                    }
                }
                Opcode::New => {
                    let ty = instr
                        .args
                        .iter()
                        .find_map(|a| match a {
                            Operand::Const(Const::TypeRef(t)) => Some(t.clone()),
                            _ => None,
                        })
                        .ok_or_else(|| RtError::value("new without type"))?;
                    let extra: Vec<&Operand> = vargs
                        .iter()
                        .filter(|a| !matches!(a, Operand::Const(Const::TypeRef(_))))
                        .copied()
                        .collect();
                    CInstr::New {
                        target: ctarget
                            .ok_or_else(|| RtError::value("new requires a local target"))?,
                        ty,
                        args: extra.iter().map(|a| operand(a)).collect::<RtResult<_>>()?,
                    }
                }
                Opcode::PushHandler => {
                    let label = instr
                        .args
                        .iter()
                        .find_map(|a| match a {
                            Operand::Const(Const::Label(l)) => Some(l.as_str()),
                            _ => None,
                        })
                        .ok_or_else(|| RtError::value("push_handler without label"))?;
                    let pc = *block_pc
                        .get(label)
                        .ok_or_else(|| RtError::value(format!("unknown handler label {label}")))?;
                    let kind = idents.first().cloned().unwrap_or_else(|| "*".into());
                    let binder = idents
                        .get(1)
                        .filter(|b| !b.is_empty())
                        .and_then(|b| slots.get(b));
                    CInstr::PushHandler {
                        pc,
                        kind: Rc::from(kind.as_str()),
                        binder,
                    }
                }
                Opcode::RegexpNew => {
                    // Compile the pattern set once, at lowering time — the
                    // "JIT compilation of regular expressions" of §7. The
                    // compiled object is shared; runtime cost is one move.
                    if idents.is_empty() {
                        return Err(RtError::pattern("regexp.new needs patterns"));
                    }
                    CInstr::Op {
                        opcode: Opcode::Assign,
                        target: ctarget,
                        args: Box::new([operand(&Operand::Const(Const::Patterns(idents)))?]),
                        idents: Rc::clone(&no_idents),
                    }
                }
                Opcode::PopHandler => CInstr::PopHandler,
                Opcode::Yield => CInstr::Yield,
                Opcode::StructGet if vargs.len() == 1 && !idents.is_empty() => CInstr::StructGet {
                    target: ctarget,
                    obj: operand(vargs[0])?,
                    field: Rc::from(idents[0].as_str()),
                    ic: field_site(vargs[0], &idents[0]),
                },
                Opcode::StructSet if vargs.len() == 2 && !idents.is_empty() => CInstr::StructSet {
                    target: ctarget,
                    obj: operand(vargs[0])?,
                    value: operand(vargs[1])?,
                    field: Rc::from(idents[0].as_str()),
                    ic: field_site(vargs[0], &idents[0]),
                },
                // Everything else — a malformed struct access included —
                // lowers generically; the typed instructions are a separate
                // pass (`crate::specialize`) so it can be switched off for
                // ablation without changing lowering.
                _ => CInstr::Op {
                    opcode: instr.opcode,
                    target: ctarget,
                    args: vargs.iter().map(|a| operand(a)).collect::<RtResult<_>>()?,
                    idents: match idents.is_empty() {
                        true => Rc::clone(&no_idents),
                        false => Rc::from(idents),
                    },
                },
            };
            // Wrap global-target writes.
            match gtarget {
                None => code.push(lowered),
                Some(g) => code.push(CInstr::GlobalStore {
                    global: g,
                    inner: Box::new(lowered),
                }),
            }
        }
        // Terminator.
        let term = match &b.term {
            Terminator::Jump(l) => CInstr::Jump(
                *block_pc
                    .get(l.as_str())
                    .ok_or_else(|| RtError::value(format!("unknown jump label {l}")))?,
            ),
            Terminator::IfElse(cond, l1, l2) => CInstr::Branch {
                cond: operand(cond)?,
                then_pc: *block_pc
                    .get(l1.as_str())
                    .ok_or_else(|| RtError::value(format!("unknown label {l1}")))?,
                else_pc: *block_pc
                    .get(l2.as_str())
                    .ok_or_else(|| RtError::value(format!("unknown label {l2}")))?,
            },
            Terminator::Return(v) => CInstr::Return(match v {
                Some(op) => Some(operand(op)?),
                None => None,
            }),
        };
        code.push(term);
    }

    // Static slot types for the specializer: params, then locals, with the
    // scratch slot left `Any`. A slot shared by conflicting declarations
    // degrades to `Any` (never specialized).
    let mut slot_types = vec![Type::Any; slots.slots.len() + 1];
    for (i, (_, t)) in f.params.iter().enumerate() {
        slot_types[i] = t.clone();
    }
    let mut seen_locals: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (n, t) in &f.locals {
        let Some(s) = slots.get(n) else { continue };
        let s = s as usize;
        if s < f.params.len() {
            continue; // a local shadowing a param keeps the param's slot
        }
        if seen_locals.insert(n.as_str()) {
            slot_types[s] = t.clone();
        } else if slot_types[s] != *t {
            slot_types[s] = Type::Any;
        }
    }

    Ok(CFunc {
        name: f.name.clone(),
        n_params: f.params.len() as u16,
        n_slots: slots.slots.len() as u16 + 1, // +1 scratch for global stores
        code,
        slot_types,
        consts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::link_with_priorities;
    use crate::parser::parse_module;

    fn compiled(src: &str) -> CompiledProgram {
        let m = parse_module(src).unwrap();
        let linked = link_with_priorities(vec![m]).unwrap();
        compile(&linked).unwrap()
    }

    #[test]
    fn labels_resolve_to_pcs() {
        let prog = compiled(
            r#"
module M
int<64> f(bool b) {
    if.else b yes no
yes:
    return 1
no:
    return 2
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        match &f.code[0] {
            CInstr::Branch {
                then_pc, else_pc, ..
            } => {
                assert!(matches!(f.code[*then_pc as usize], CInstr::Return(Some(_))));
                assert!(matches!(f.code[*else_pc as usize], CInstr::Return(Some(_))));
                assert_ne!(then_pc, else_pc);
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn regexp_literals_precompiled() {
        // §7's "JIT compilation of regular expressions": regexp.new lowers
        // to a constant move of an already-compiled object.
        let prog = compiled(
            "module M\nvoid f() {\n    local regexp re\n    re = regexp.new /[a-z]+/\n}\n",
        );
        let f = prog.func("M::f").unwrap();
        let has_precompiled = f.code.iter().any(|i| {
            matches!(
                i,
                CInstr::Op { opcode: Opcode::Assign, args, .. }
                    if matches!(args.first(), Some(COperand::Const(c))
                        if matches!(f.consts[*c as usize], Value::Regexp(_)))
            )
        });
        assert!(has_precompiled, "{:#?}", f.code);
    }

    #[test]
    fn lowering_is_fully_generic_without_specializer() {
        // Typed instructions come from `crate::specialize`; plain lowering
        // must emit only generic instructions so the spec-off ablation
        // measures the true generic dispatch path.
        let prog = compiled(
            r#"
module M
int<64> f(int<64> a, int<64> b) {
    local int<64> x
    x = int.add a b
    return x
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
            "{:#?}",
            f.code
        );
    }

    #[test]
    fn struct_field_sites_resolve_at_lowering_when_the_type_is_declared() {
        let prog = compiled(
            r#"
module M
type T = struct { int<64> a, int<64> b }
int<64> f(ref<T> typed, any untyped) {
    local int<64> v
    v = struct.get typed b
    struct.set untyped b v
    return v
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        let layout = &prog.struct_layouts["T"];
        let CInstr::StructGet { ic, .. } = &f.code[0] else {
            panic!("{:#?}", f.code);
        };
        // Resolved from the declaration, against the name `new T` hands out.
        assert_eq!(ic.borrow().struct_slot(&layout.name), Some(1));
        assert_eq!(f.code[0].render(&f.consts), "s2 = struct.get b s0");
        let CInstr::StructSet { ic, .. } = &f.code[1] else {
            panic!("{:#?}", f.code);
        };
        // `any`: left to the first execution.
        assert!(ic.borrow().entries.is_empty());
        assert_eq!(f.code[1].render(&f.consts), "struct.set b s1 s2");
    }

    #[test]
    fn slot_types_carry_param_and_local_types() {
        let prog = compiled(
            r#"
module M
int<64> f(int<64> a, bool c) {
    local int<64> x
    local any v
    return a
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        assert_eq!(f.slot_types.len(), f.n_slots as usize);
        assert!(matches!(f.slot_types[0], Type::Int(_)));
        assert!(matches!(f.slot_types[1], Type::Bool));
        assert!(matches!(f.slot_types[2], Type::Int(_)));
        assert!(matches!(f.slot_types[3], Type::Any));
        // The trailing scratch slot is never typed.
        assert!(matches!(f.slot_types.last(), Some(Type::Any)));
    }

    #[test]
    fn global_targets_wrapped_in_global_store() {
        let prog = compiled(
            r#"
module M
global int<64> g = 0
void f() {
    g = int.add g 1
}
"#,
        );
        let f = prog.func("M::f").unwrap();
        assert!(
            f.code
                .iter()
                .any(|i| matches!(i, CInstr::GlobalStore { .. })),
            "{:#?}",
            f.code
        );
        assert_eq!(prog.global_names, vec!["M::g"]);
        assert!(matches!(prog.global_inits[0], Some(Value::Int(0))));
    }

    #[test]
    fn hooks_get_priority_ordered_bodies() {
        let prog = compiled(
            r#"
module M
hook void h() {
    call Hilti::print "low"
}
hook void h() &priority = 9 {
    call Hilti::print "high"
}
"#,
        );
        let hi = prog.hook_index.get("M::h").unwrap();
        let bodies = &prog.hooks[*hi as usize];
        assert_eq!(bodies.len(), 2);
        // The first body must be the high-priority one.
        let first = &prog.funcs[bodies[0] as usize];
        let is_high = first.code.iter().any(|i| {
            matches!(i, CInstr::CallHost { args, .. }
                if matches!(args.first(), Some(COperand::Const(c))
                    if matches!(&first.consts[*c as usize], Value::String(s) if &**s == "high")))
        });
        assert!(is_high);
    }

    #[test]
    fn const_value_conversions() {
        assert!(matches!(
            const_value(&Const::Int(5)).unwrap(),
            Value::Int(5)
        ));
        assert!(matches!(
            const_value(&Const::Bool(true)).unwrap(),
            Value::Bool(true)
        ));
        assert!(const_value(&Const::Ident("x".into())).is_err());
        assert!(const_value(&Const::Label("l".into())).is_err());
        let t = const_value(&Const::Tuple(vec![Const::Int(1), Const::Str("a".into())])).unwrap();
        match t {
            Value::Tuple(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unresolved_variable_is_compile_error() {
        // Bypass the checker to confirm lowering itself validates too.
        let m = parse_module("module M\nvoid f() {\n    local int<64> x\n    x = assign 1\n}\n")
            .unwrap();
        let mut linked = link_with_priorities(vec![m]).unwrap();
        // Corrupt a reference.
        let f = linked.functions.get_mut("M::f").unwrap();
        f.blocks[0].instrs[0].args[0] = crate::ir::Operand::var("ghost");
        assert!(compile(&linked).is_err());
    }
}
