//! Lowering BinPAC++ grammars to HILTI source.
//!
//! Every unit `U` becomes a struct type plus a parse function
//!
//! ```text
//! iterator<bytes> parse_U(ref<U> self, ref<bytes> data, iterator<bytes> it, ...params)
//! ```
//!
//! that fills in the caller's fresh `new U` and returns the advanced input
//! iterator. Temporaries are declared with the types the grammar already
//! knows (`iterator<bytes>` for input positions, `int<64>` for integer
//! fields read back), so the VM's specializer runs them on its typed
//! instructions. `self` is a `ref<U>`, so each `struct.get`/`struct.set`
//! of a field is a typed field site too. An integer field of `w` bytes is
//! one `iterator.unpack_be` (or `_le`) of width `w` and one step of `it`
//! by `w`. A token match unpacks its (pattern, end) tuple right
//! away into an `int<64>` local and an `iterator<bytes>` (a local, or `it`
//! itself), which the specializer fuses into one `MatchToken`.
//!
//! The generated code is *fully incremental by construction* (§4): every
//! input access — token matches, integer fields, length-delimited runs —
//! raises `Hilti::WouldBlock` when input is exhausted, which suspends the
//! enclosing fiber; resuming retries the blocked instruction, so "parsers
//! ... postpone parsing whenever they run out of input and transparently
//! resume once more becomes available" with no hand-written state machine.
//!
//! A `drive_U` loop function is generated for stream-oriented top-level
//! units: it parses units back to back, trims consumed input (bounding
//! memory on long connections), stops at the frozen end of input, and
//! abandons the stream on a parse error (real traffic contains "crud", §2).

use hilti_rt::error::RtResult;

use crate::grammar::{Field, FieldKind, Grammar, Repeat, Unit};

/// Generates the complete HILTI module for a grammar.
pub fn generate(grammar: &Grammar) -> RtResult<String> {
    grammar.validate()?;
    let mut out = String::new();
    out.push_str(&format!("module {}\n\n", grammar.module));
    for unit in &grammar.units {
        emit_struct(unit, &mut out);
    }
    out.push('\n');
    for unit in &grammar.units {
        let mut g = UnitGen::new(unit);
        g.emit(&mut out);
    }
    for raw in &grammar.raw_hilti {
        out.push_str(raw);
        out.push('\n');
    }
    Ok(out)
}

/// All struct slots of a unit: named fields, recursively through
/// conditionals and switches.
pub fn struct_slots(unit: &Unit) -> Vec<String> {
    fn collect(f: &Field, out: &mut Vec<String>) {
        if !f.name.is_empty() && !out.contains(&f.name) {
            out.push(f.name.clone());
        }
        match &f.kind {
            FieldKind::IfVar(_, inner) => collect(inner, out),
            FieldKind::SwitchInt { cases, default, .. } => {
                for (_, c) in cases {
                    collect(c, out);
                }
                if let Some(d) = default {
                    collect(d, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for f in &unit.fields {
        collect(f, &mut out);
    }
    for s in &unit.extra_slots {
        if !out.contains(s) {
            out.push(s.clone());
        }
    }
    out
}

/// Whether every field named `name` — through conditionals and switch
/// cases — parses an integer, so a temporary holding it can be `int<64>`.
fn int_field(unit: &Unit, name: &str) -> bool {
    fn leaves<'a>(f: &'a Field, out: &mut Vec<&'a Field>) {
        match &f.kind {
            FieldKind::IfVar(_, inner) => leaves(inner, out),
            FieldKind::SwitchInt { cases, default, .. } => {
                for (_, c) in cases {
                    leaves(c, out);
                }
                if let Some(d) = default {
                    leaves(d, out);
                }
            }
            _ => out.push(f),
        }
    }
    let mut all = Vec::new();
    for f in &unit.fields {
        leaves(f, &mut all);
    }
    let named: Vec<&Field> = all.into_iter().filter(|f| f.name == name).collect();
    !named.is_empty()
        && named
            .iter()
            .all(|f| matches!(f.kind, FieldKind::UInt(_) | FieldKind::UIntLE(_)))
}

fn emit_struct(unit: &Unit, out: &mut String) {
    let slots = struct_slots(unit);
    out.push_str(&format!("type {} = struct {{", unit.name));
    for (i, s) in slots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(" any {s}"));
    }
    out.push_str(" }\n");
}

struct UnitGen<'a> {
    unit: &'a Unit,
    lines: Vec<String>,
    label_counter: u32,
}

impl<'a> UnitGen<'a> {
    fn new(unit: &'a Unit) -> Self {
        UnitGen {
            unit,
            lines: Vec::new(),
            label_counter: 0,
        }
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Resolves a variable reference: unit vars/params directly, earlier
    /// fields through the struct. Returns the expression variable name,
    /// emitting a struct.get when needed; its temporary is `int<64>` when
    /// the field is an integer.
    fn resolve(&mut self, name: &str) -> String {
        let is_var = self
            .unit
            .vars
            .iter()
            .chain(self.unit.params.iter())
            .any(|(n, _)| n == name);
        if is_var {
            name.to_owned()
        } else {
            let tmp = self.fresh("rv");
            let ty = if int_field(self.unit, name) {
                "int<64>"
            } else {
                "any"
            };
            self.line(format!("local {ty} {tmp}"));
            self.line(format!("{tmp} = struct.get self {name}"));
            tmp
        }
    }

    /// Parses one `name` unit at `it` into a fresh struct, advancing `it`;
    /// returns the variable holding the struct.
    fn sub_unit(&mut self, name: &str) -> String {
        let sv = self.fresh("sv");
        self.line(format!("local ref<{name}> {sv}"));
        self.line(format!("{sv} = new {name}"));
        self.line(format!("it = call parse_{name} ({sv}, data, it)"));
        sv
    }

    fn emit(&mut self, out: &mut String) {
        let u = self.unit;
        // Signature.
        let mut sig = format!(
            "iterator<bytes> parse_{0}(ref<{0}> self, ref<bytes> data, iterator<bytes> it",
            u.name
        );
        for (p, t) in &u.params {
            sig.push_str(&format!(", {t} {p}"));
        }
        sig.push_str(") {");
        for (v, t) in &u.vars.clone() {
            self.line(format!("local {t} {v}"));
        }
        let fields = u.fields.clone();
        for (i, f) in fields.iter().enumerate() {
            self.emit_field(i, f);
        }
        if let Some(hook) = &u.done_hook.clone() {
            self.line(format!("call.c {hook} (self)"));
        }
        self.line("return it".into());

        out.push_str(&sig);
        out.push('\n');
        for l in &self.lines {
            // Labels are flush-left; statements indented.
            if l.ends_with(':') {
                out.push_str(l);
            } else {
                out.push_str("    ");
                out.push_str(l);
            }
            out.push('\n');
        }
        out.push_str("}\n\n");
    }

    fn store(&mut self, field: &Field, value_var: &str) {
        if !field.name.is_empty() {
            self.line(format!("struct.set self {} {value_var}", field.name));
        }
        if let Some(hook) = &field.hook {
            self.line(format!("call.c {hook} (self, {value_var})"));
        }
    }

    /// `re`'s token match at `it`: the pattern index (-1 for none) into
    /// `id`, the position after the match (`it` itself when nothing
    /// matched) into the `iterator<bytes>` variable `end`. The match and its
    /// two tuple reads are adjacent, into typed variables, with the tuple
    /// read nowhere else — the shape the VM runs as one `MatchToken`.
    fn match_token(&mut self, re: &str, tuple: &str, id: &str, end: &str) {
        self.line(format!("local any {tuple}"));
        self.line(format!("local int<64> {id}"));
        self.line(format!("{tuple} = regexp.match_token {re} it"));
        self.line(format!("{id} = tuple.get {tuple} 0"));
        self.line(format!("{end} = tuple.get {tuple} 1"));
    }

    fn emit_field(&mut self, idx: usize, f: &Field) {
        match &f.kind {
            FieldKind::Token(pats) => {
                let re = self.fresh("re");
                let tr = self.fresh("tr");
                let tid = self.fresh("tid");
                let ok = self.fresh("ok");
                let nit = self.fresh("nit");
                let lbl_ok = self.fresh("tok_ok");
                let lbl_fail = self.fresh("tok_fail");
                self.line(format!("local regexp {re}"));
                let pat_list = pats
                    .iter()
                    .map(|p| format!("/{p}/"))
                    .collect::<Vec<_>>()
                    .join(" ");
                self.line(format!("{re} = regexp.new {pat_list}"));
                self.line(format!("local iterator<bytes> {nit}"));
                self.match_token(&re, &tr, &tid, &nit);
                self.line(format!("local bool {ok}"));
                self.line(format!("{ok} = int.geq {tid} 0"));
                self.line(format!("if.else {ok} {lbl_ok} {lbl_fail}"));
                self.line(format!("{lbl_fail}:"));
                self.line(format!(
                    "exception.throw Hilti::ValueError \"{}: token mismatch at field {}\"",
                    self.unit.name,
                    if f.name.is_empty() { "<anon>" } else { &f.name }
                ));
                self.line(format!("{lbl_ok}:"));
                if !f.name.is_empty() || f.hook.is_some() {
                    let fv = self.fresh("fv");
                    self.line(format!("local any {fv}"));
                    self.line(format!("{fv} = bytes.sub it {nit}"));
                    self.store(f, &fv);
                }
                self.line(format!("it = assign {nit}"));
                let _ = idx;
            }
            FieldKind::UInt(w) | FieldKind::UIntLE(w) => {
                let order = if matches!(f.kind, FieldKind::UInt(_)) {
                    "be"
                } else {
                    "le"
                };
                let acc = self.fresh("acc");
                self.line(format!("local int<64> {acc}"));
                self.line(format!("{acc} = iterator.unpack_{order} it {w}"));
                self.line(format!("it = iterator.incr it {w}"));
                self.store(f, &acc);
            }
            FieldKind::BytesVar(var) => {
                let lenv = self.resolve(var);
                let end = self.fresh("end");
                let fv = self.fresh("fv");
                self.line(format!("local iterator<bytes> {end}"));
                self.line(format!("{end} = iterator.incr it {lenv}"));
                self.line(format!("local any {fv}"));
                self.line(format!("{fv} = bytes.sub it {end}"));
                self.store(f, &fv);
                self.line(format!("it = assign {end}"));
            }
            FieldKind::BytesConst(n) => {
                let end = self.fresh("end");
                let fv = self.fresh("fv");
                self.line(format!("local iterator<bytes> {end}"));
                self.line(format!("{end} = iterator.incr it {n}"));
                self.line(format!("local any {fv}"));
                self.line(format!("{fv} = bytes.sub it {end}"));
                self.store(f, &fv);
                self.line(format!("it = assign {end}"));
            }
            FieldKind::Eod => {
                let er = self.fresh("er");
                let fv = self.fresh("fv");
                self.line(format!("local any {er}"));
                self.line(format!("{er} = bytes.eod it"));
                self.line(format!("local any {fv}"));
                self.line(format!("{fv} = tuple.get {er} 0"));
                self.store(f, &fv);
                self.line(format!("it = tuple.get {er} 1"));
            }
            FieldKind::SubUnit(name) => {
                let sv = self.sub_unit(name);
                self.store(f, &sv);
            }
            FieldKind::List(name, repeat) => {
                let vec = self.fresh("vec");
                self.line(format!("local any {vec}"));
                self.line(format!("{vec} = new vector<any>"));
                match repeat {
                    Repeat::UntilToken(pats) => {
                        let re = self.fresh("re");
                        let tr = self.fresh("tr");
                        let tid = self.fresh("tid");
                        let matched = self.fresh("m");
                        let l_loop = self.fresh("list_loop");
                        let l_item = self.fresh("list_item");
                        let l_done = self.fresh("list_done");
                        self.line(format!("local regexp {re}"));
                        let pat_list = pats
                            .iter()
                            .map(|p| format!("/{p}/"))
                            .collect::<Vec<_>>()
                            .join(" ");
                        self.line(format!("{re} = regexp.new {pat_list}"));
                        self.line(format!("local bool {matched}"));
                        self.line(format!("{l_loop}:"));
                        // A miss leaves `it` where it was: no separate end.
                        self.match_token(&re, &tr, &tid, "it");
                        self.line(format!("{matched} = int.geq {tid} 0"));
                        self.line(format!("if.else {matched} {l_done} {l_item}"));
                        self.line(format!("{l_item}:"));
                        let sv = self.sub_unit(name);
                        self.line(format!("vector.push_back {vec} {sv}"));
                        self.line(format!("jump {l_loop}"));
                        self.line(format!("{l_done}:"));
                    }
                    Repeat::CountVar(_) | Repeat::Count(_) => {
                        let cnt = match repeat {
                            Repeat::CountVar(v) => self.resolve(v),
                            Repeat::Count(n) => {
                                let c = self.fresh("cnt");
                                self.line(format!("local int<64> {c}"));
                                self.line(format!("{c} = assign {n}"));
                                c
                            }
                            _ => unreachable!(),
                        };
                        let i = self.fresh("i");
                        let more = self.fresh("more");
                        let l_loop = self.fresh("cl_loop");
                        let l_item = self.fresh("cl_item");
                        let l_done = self.fresh("cl_done");
                        self.line(format!("local int<64> {i}"));
                        self.line(format!("{i} = assign 0"));
                        self.line(format!("local bool {more}"));
                        self.line(format!("{l_loop}:"));
                        self.line(format!("{more} = int.lt {i} {cnt}"));
                        self.line(format!("if.else {more} {l_item} {l_done}"));
                        self.line(format!("{l_item}:"));
                        let sv = self.sub_unit(name);
                        self.line(format!("vector.push_back {vec} {sv}"));
                        self.line(format!("{i} = int.add {i} 1"));
                        self.line(format!("jump {l_loop}"));
                        self.line(format!("{l_done}:"));
                    }
                }
                self.store(f, &vec);
            }
            FieldKind::Embedded(code) => {
                for l in code {
                    self.line(l.clone());
                }
            }
            FieldKind::IfVar(var, inner) => {
                let cond = self.resolve(var);
                let l_then = self.fresh("if_then");
                let l_end = self.fresh("if_end");
                let l_skip = self.fresh("if_skip");
                self.line(format!("if.else {cond} {l_then} {l_skip}"));
                self.line(format!("{l_then}:"));
                self.emit_field(idx, inner);
                self.line(format!("jump {l_end}"));
                self.line(format!("{l_skip}:"));
                self.line(format!("{l_end}:"));
            }
            FieldKind::SwitchInt { on, cases, default } => {
                let onv = self.resolve(on);
                let l_end = self.fresh("sw_end");
                let mut next_check = self.fresh("sw_chk");
                for (k, case) in cases {
                    let l_case = self.fresh("sw_case");
                    let cv = self.fresh("cv");
                    self.line(format!("local bool {cv}"));
                    self.line(format!("{cv} = int.eq {onv} {k}"));
                    self.line(format!("if.else {cv} {l_case} {next_check}"));
                    self.line(format!("{l_case}:"));
                    self.emit_field(idx, case);
                    self.line(format!("jump {l_end}"));
                    self.line(format!("{next_check}:"));
                    next_check = self.fresh("sw_chk");
                }
                if let Some(d) = default {
                    self.emit_field(idx, d);
                }
                self.line(format!("{l_end}:"));
            }
        }
    }
}

/// Generates a stream driver for a top-level unit: parses units back to
/// back until the frozen end of input, abandoning the stream on errors.
pub fn generate_driver(unit_name: &str) -> String {
    format!(
        r#"
void drive_{unit_name}(ref<bytes> data) {{
    local iterator<bytes> it
    local bool fin
    local int<64> off0
    local int<64> off1
    local bool progressed
    local ref<{unit_name}> u
    it = bytes.begin data
loop:
    fin = iterator.at_frozen_end it
    if.else fin done step
step:
    off0 = iterator.offset it
    try {{
        try {{
            try {{
                u = new {unit_name}
                it = call parse_{unit_name} (u, data, it)
            }} catch ( ref<Hilti::ValueError> pe ) {{
                return
            }}
        }} catch ( ref<Hilti::WouldBlock> we ) {{
            return
        }}
    }} catch ( ref<Hilti::IndexError> ie ) {{
        return
    }}
    off1 = iterator.offset it
    progressed = int.gt off1 off0
    bytes.trim data it
    if.else progressed loop done
done:
    return
}}
"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::ssh_banner_grammar;

    #[test]
    fn ssh_grammar_generates_compilable_module() {
        let src = generate(&ssh_banner_grammar()).unwrap();
        assert!(src.contains("type Banner = struct { any version, any software }"));
        assert!(src.contains("parse_Banner"));
        let prog = hilti::Program::from_source(&src);
        assert!(prog.is_ok(), "{:?}\n{src}", prog.err());
    }

    #[test]
    fn every_token_match_runs_fused() {
        // Token fields, until-token loops and the HTTP grammar's embedded
        // chunked-body loop alike emit the shape the specializer fuses into
        // one `MatchToken`.
        for (grammar, unit) in [
            (crate::http::http_grammar(), "Request"),
            (ssh_banner_grammar(), "Banner"),
        ] {
            let mut src = generate(&grammar).unwrap();
            src.push_str(&generate_driver(unit));
            let sites = src.matches("= regexp.match_token ").count();
            let prog = hilti::Program::from_source(&src).unwrap();
            assert!(sites > 0, "{src}");
            assert_eq!(prog.spec_stats().tokens, sites, "{src}");
        }
    }

    #[test]
    fn driver_compiles_with_unit() {
        let mut src = generate(&ssh_banner_grammar()).unwrap();
        src.push_str(&generate_driver("Banner"));
        hilti::Program::from_source(&src).unwrap();
    }

    #[test]
    fn units_take_self_return_their_iterator_and_type_int_fields() {
        use crate::grammar::{Field, FieldKind, Unit};
        let g = Grammar::new("T")
            .unit(Unit::new("Item").field(Field::named("v", FieldKind::UInt(1))))
            .unit(
                Unit::new("Rec")
                    .field(Field::named("len", FieldKind::UInt(2)))
                    .field(Field::named("body", FieldKind::BytesVar("len".into())))
                    .field(Field::named(
                        "items",
                        FieldKind::List("Item".into(), Repeat::CountVar("body".into())),
                    )),
            );
        let src = generate(&g).unwrap();
        assert!(
            src.contains(
                "iterator<bytes> parse_Rec(ref<Rec> self, ref<bytes> data, iterator<bytes> it)"
            ),
            "{src}"
        );
        assert!(src.contains("it = call parse_Item (sv_"), "{src}");
        assert!(!src.contains("tuple.pack"), "{src}");
        // The temporary a field is read back into: `len` is an integer
        // field, `body` is not.
        let lines: Vec<&str> = src.lines().map(str::trim).collect();
        let decl = |field: &str| {
            let get = format!("= struct.get self {field}");
            let at = lines.iter().position(|l| l.ends_with(&get)).unwrap();
            lines[at - 1]
        };
        assert!(decl("len").starts_with("local int<64> rv_"), "{src}");
        assert!(decl("body").starts_with("local any rv_"), "{src}");
        hilti::Program::from_source(&src).unwrap();
    }

    #[test]
    fn struct_slots_recurse_into_switch() {
        use crate::grammar::{Field, FieldKind, Unit};
        let u = Unit::new("U")
            .var("kind", "int<64>")
            .field(Field::named("kind", FieldKind::UInt(1)))
            .field(Field::named(
                "body",
                FieldKind::SwitchInt {
                    on: "kind".into(),
                    cases: vec![(1, Box::new(Field::named("a", FieldKind::UInt(2))))],
                    default: Some(Box::new(Field::named("b", FieldKind::Eod))),
                },
            ));
        assert_eq!(struct_slots(&u), vec!["kind", "body", "a", "b"]);
    }
}
