//! Parser for HILTI's textual syntax.
//!
//! The surface form mirrors the paper's listings (Figures 3–5): a module
//! header, type definitions, thread-local globals, and functions whose
//! bodies are line-oriented register instructions
//! `<target> = <mnemonic> <op1> <op2> <op3>` plus labels, `jump`,
//! `if.else`, `return`, and a `try { } catch ( ) { }` sugar that lowers to
//! handler push/pop instructions.
//!
//! Host applications usually construct IR through the builder API instead
//! (the analog of the paper's in-memory C++ AST interface); the textual
//! form exists for human-written programs, tests, and the `hiltic`-style
//! examples.

use std::collections::HashMap;

use hilti_rt::error::{RtError, RtResult};
use hilti_rt::overlay::{OverlayType, UnpackFormat};

use crate::ir::{
    Block, Const, Function, HookBody, Instr, Module, Opcode, Operand, Terminator, TypeDef,
};
use crate::types::Type;

/// Parses one module from source text.
pub fn parse_module(src: &str) -> RtResult<Module> {
    Parser::new(src).parse_module()
}

// ---------------------------------------------------------------------------
// Lexer

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    /// Identifier-ish atom: may contain `::`, `.`, `/`, `-` (literals are
    /// classified later, in context).
    Atom(String),
    Str(String),
    BytesLit(Vec<u8>),
    /// `/regexp/` literal.
    Pattern(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LAngle,
    RAngle,
    Comma,
    Eq,
    Colon,
    Newline,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: &str) -> RtError {
        RtError::value(format!("parse error at line {}: {msg}", self.line))
    }

    fn tokens(mut self) -> RtResult<Vec<(Tok, u32)>> {
        let mut out: Vec<(Tok, u32)> = Vec::new();
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    // Collapse repeated newlines.
                    if !matches!(out.last(), Some((Tok::Newline, _)) | None) {
                        out.push((Tok::Newline, self.line));
                    }
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'#' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'{' => {
                    out.push((Tok::LBrace, self.line));
                    self.pos += 1;
                }
                b'}' => {
                    out.push((Tok::RBrace, self.line));
                    self.pos += 1;
                }
                b'(' => {
                    out.push((Tok::LParen, self.line));
                    self.pos += 1;
                }
                b')' => {
                    out.push((Tok::RParen, self.line));
                    self.pos += 1;
                }
                b'<' => {
                    out.push((Tok::LAngle, self.line));
                    self.pos += 1;
                }
                b'>' => {
                    out.push((Tok::RAngle, self.line));
                    self.pos += 1;
                }
                b',' => {
                    out.push((Tok::Comma, self.line));
                    self.pos += 1;
                }
                b'=' => {
                    out.push((Tok::Eq, self.line));
                    self.pos += 1;
                }
                b'"' => {
                    let s = self.string_body()?;
                    out.push((Tok::Str(s), self.line));
                }
                b'b' if self.src.get(self.pos + 1) == Some(&b'"') => {
                    self.pos += 1;
                    let s = self.string_body()?;
                    out.push((Tok::BytesLit(s.into_bytes()), self.line));
                }
                b'/' if self.regex_position(&out) => {
                    // A `/.../' pattern literal (only where an operand may
                    // start, so `10.0.5.0/24` stays an atom).
                    self.pos += 1;
                    let start = self.pos;
                    let mut pat = String::new();
                    loop {
                        if self.pos >= self.src.len() || self.src[self.pos] == b'\n' {
                            return Err(self.err("unterminated /pattern/"));
                        }
                        let b = self.src[self.pos];
                        if b == b'\\' && self.pos + 1 < self.src.len() {
                            pat.push(self.src[self.pos] as char);
                            pat.push(self.src[self.pos + 1] as char);
                            self.pos += 2;
                            continue;
                        }
                        if b == b'/' {
                            self.pos += 1;
                            break;
                        }
                        pat.push(b as char);
                        self.pos += 1;
                    }
                    let _ = start;
                    out.push((Tok::Pattern(pat), self.line));
                }
                b':' if self.src.get(self.pos + 1) != Some(&b':') => {
                    out.push((Tok::Colon, self.line));
                    self.pos += 1;
                }
                _ => {
                    let start = self.pos;
                    while self.pos < self.src.len() {
                        let b = self.src[self.pos];
                        let ok = b.is_ascii_alphanumeric()
                            || matches!(b, b'_' | b'.' | b'/' | b'-' | b'*' | b'%' | b'&' | b'@')
                            || (b == b':' && self.src.get(self.pos + 1) == Some(&b':'))
                            || (b == b':' && self.pos > start && self.src[self.pos - 1] == b':');
                        if !ok {
                            break;
                        }
                        // Consume `::` as a pair.
                        if b == b':' {
                            self.pos += 2;
                        } else {
                            self.pos += 1;
                        }
                    }
                    if self.pos == start {
                        return Err(self.err(&format!("unexpected character {:?}", c as char)));
                    }
                    let atom = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    out.push((Tok::Atom(atom), self.line));
                }
            }
        }
        out.push((Tok::Newline, self.line));
        Ok(out)
    }

    /// A `/` starts a regex literal only right after a token that cannot
    /// end an expression atom — i.e. at operand start.
    fn regex_position(&self, out: &[(Tok, u32)]) -> bool {
        matches!(
            out.last(),
            None | Some((Tok::Newline, _))
                | Some((Tok::Eq, _))
                | Some((Tok::Comma, _))
                | Some((Tok::LParen, _))
                | Some((Tok::Colon, _))
                | Some((Tok::Pattern(_), _))
        ) || matches!(out.last(), Some((Tok::Atom(a), _)) if a == "regexp.new")
    }

    fn string_body(&mut self) -> RtResult<String> {
        debug_assert_eq!(self.src[self.pos], b'"');
        self.pos += 1;
        // The source's own bytes: a non-ASCII character stays one
        // character.
        let mut s = Vec::new();
        loop {
            if self.pos >= self.src.len() {
                return Err(self.err("unterminated string"));
            }
            match self.src[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(s).map_err(|_| self.err("string is not UTF-8"));
                }
                b'\\' => {
                    let esc = *self
                        .src
                        .get(self.pos + 1)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    s.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => other,
                    });
                    self.pos += 2;
                }
                b'\n' => return Err(self.err("newline in string")),
                other => {
                    s.push(other);
                    self.pos += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser

struct Parser {
    toks: Vec<(Tok, u32)>,
    pos: usize,
    module: Module,
    /// Enum type name → labels (for `Type::Label` operand resolution).
    enums: HashMap<String, Vec<String>>,
    label_counter: u32,
    /// The parameters of the function whose body is being parsed.
    params: Vec<(String, Type)>,
}

impl Parser {
    fn new(src: &str) -> Self {
        Parser {
            toks: Lexer::new(src).tokens().unwrap_or_default(),
            pos: 0,
            module: Module::default(),
            enums: HashMap::new(),
            label_counter: 0,
            params: Vec::new(),
        }
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn err(&self, msg: &str) -> RtError {
        RtError::value(format!("parse error at line {}: {msg}", self.line()))
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> RtResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn skip_newlines(&mut self) {
        while self.eat(&Tok::Newline) {}
    }

    fn expect_atom(&mut self, what: &str) -> RtResult<String> {
        match self.bump() {
            Some(Tok::Atom(a)) => Ok(a),
            other => Err(self.err(&format!("expected {what}, found {other:?}"))),
        }
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("@{stem}_{}", self.label_counter)
    }

    fn parse_module(mut self) -> RtResult<Module> {
        self.skip_newlines();
        let kw = self.expect_atom("'module'")?;
        if kw != "module" {
            return Err(self.err("file must start with 'module <Name>'"));
        }
        self.module.name = self.expect_atom("module name")?;
        self.skip_newlines();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Atom(a) => match a.as_str() {
                    "import" => {
                        self.bump();
                        let _ = self.expect_atom("module name")?;
                    }
                    "type" => {
                        self.bump();
                        self.parse_typedef()?;
                    }
                    "global" => {
                        self.bump();
                        self.parse_global()?;
                    }
                    "hook" => {
                        self.bump();
                        self.parse_function(true)?;
                    }
                    _ => {
                        self.parse_function(false)?;
                    }
                },
                Tok::Newline => {
                    self.bump();
                }
                other => return Err(self.err(&format!("unexpected {other:?} at top level"))),
            }
        }
        Ok(self.module)
    }

    // -- types --------------------------------------------------------------

    fn parse_typedef(&mut self) -> RtResult<()> {
        let name = self.expect_atom("type name")?;
        self.expect(&Tok::Eq, "'='")?;
        let kind = self.expect_atom("'struct', 'enum', 'bitset' or 'overlay'")?;
        match kind.as_str() {
            "struct" => {
                self.expect(&Tok::LBrace, "'{'")?;
                let mut fields = Vec::new();
                loop {
                    self.skip_newlines();
                    if self.eat(&Tok::RBrace) {
                        break;
                    }
                    let ty = self.parse_type()?;
                    let fname = self.expect_atom("field name")?;
                    fields.push((fname, ty));
                    self.eat(&Tok::Comma);
                }
                self.module.types.insert(name, TypeDef::Struct(fields));
            }
            "enum" => {
                self.expect(&Tok::LBrace, "'{'")?;
                let mut labels = Vec::new();
                loop {
                    self.skip_newlines();
                    if self.eat(&Tok::RBrace) {
                        break;
                    }
                    labels.push(self.expect_atom("enum label")?);
                    self.eat(&Tok::Comma);
                }
                self.enums.insert(name.clone(), labels.clone());
                self.module.types.insert(name, TypeDef::Enum(labels));
            }
            "bitset" => {
                self.expect(&Tok::LBrace, "'{'")?;
                let mut labels = Vec::new();
                loop {
                    self.skip_newlines();
                    if self.eat(&Tok::RBrace) {
                        break;
                    }
                    labels.push(self.expect_atom("bitset label")?);
                    self.eat(&Tok::Comma);
                }
                self.module.types.insert(name, TypeDef::Bitset(labels));
            }
            "overlay" => {
                self.expect(&Tok::LBrace, "'{'")?;
                let mut overlay = OverlayType::new(name.clone());
                loop {
                    self.skip_newlines();
                    if self.eat(&Tok::RBrace) {
                        break;
                    }
                    // <name>: <type> at <offset> unpack <Format>[(args)]
                    let fname = self.expect_atom("overlay field name")?;
                    self.expect(&Tok::Colon, "':'")?;
                    let _fty = self.parse_type()?;
                    let at = self.expect_atom("'at'")?;
                    if at != "at" {
                        return Err(self.err("expected 'at <offset>'"));
                    }
                    let off: u64 = self
                        .expect_atom("offset")?
                        .parse()
                        .map_err(|_| self.err("bad overlay offset"))?;
                    let unpack_kw = self.expect_atom("'unpack'")?;
                    if unpack_kw != "unpack" {
                        return Err(self.err("expected 'unpack <format>'"));
                    }
                    let fmt_name = self.expect_atom("unpack format")?;
                    let mut fmt_args = Vec::new();
                    if self.eat(&Tok::LParen) {
                        loop {
                            if self.eat(&Tok::RParen) {
                                break;
                            }
                            let n: u32 = self
                                .expect_atom("format argument")?
                                .parse()
                                .map_err(|_| self.err("bad format argument"))?;
                            fmt_args.push(n);
                            self.eat(&Tok::Comma);
                        }
                    }
                    let fmt = unpack_format(&fmt_name, &fmt_args)
                        .ok_or_else(|| self.err(&format!("unknown unpack format {fmt_name}")))?;
                    overlay = overlay
                        .field(fname, off, fmt)
                        .map_err(|e| self.err(&e.message))?;
                    self.eat(&Tok::Comma);
                }
                self.module.types.insert(name, TypeDef::Overlay(overlay));
            }
            other => return Err(self.err(&format!("unknown type kind {other}"))),
        }
        Ok(())
    }

    fn parse_type(&mut self) -> RtResult<Type> {
        let head = self.expect_atom("type")?;
        Ok(match head.as_str() {
            "void" => Type::Void,
            "bool" => Type::Bool,
            "int" => {
                if self.eat(&Tok::LAngle) {
                    let w: u8 = self
                        .expect_atom("int width")?
                        .parse()
                        .map_err(|_| self.err("bad int width"))?;
                    self.expect(&Tok::RAngle, "'>'")?;
                    Type::Int(w)
                } else {
                    Type::Int(64)
                }
            }
            "double" => Type::Double,
            "string" => Type::String,
            "bytes" => Type::Bytes,
            "addr" => Type::Addr,
            "net" => Type::Net,
            "port" => Type::Port,
            "time" => Type::Time,
            "interval" => Type::Interval,
            "any" => Type::Any,
            "regexp" => Type::Regexp,
            "callable" => Type::Callable(
                std::sync::Arc::new(Vec::new()),
                std::sync::Arc::new(Type::Any),
            ),
            "matcher" => Type::Matcher,
            "timer_mgr" => Type::TimerMgr,
            "file" => Type::File,
            "iosrc" => Type::IOSrc,
            "exception" => Type::Exception,
            "iterator" => {
                self.expect(&Tok::LAngle, "'<'")?;
                let inner = self.parse_type()?;
                self.expect(&Tok::RAngle, "'>'")?;
                if inner != Type::Bytes {
                    return Err(self.err("only iterator<bytes> is supported"));
                }
                Type::BytesIter
            }
            "ref" => {
                self.expect(&Tok::LAngle, "'<'")?;
                let inner = self.parse_type()?;
                self.expect(&Tok::RAngle, "'>'")?;
                Type::reference(inner)
            }
            "list" | "vector" | "set" | "channel" => {
                self.expect(&Tok::LAngle, "'<'")?;
                let inner = self.parse_type()?;
                self.expect(&Tok::RAngle, "'>'")?;
                match head.as_str() {
                    "list" => Type::list(inner),
                    "vector" => Type::vector(inner),
                    "set" => Type::set(inner),
                    _ => Type::Channel(std::sync::Arc::new(inner)),
                }
            }
            "map" | "classifier" => {
                self.expect(&Tok::LAngle, "'<'")?;
                let k = self.parse_type()?;
                self.expect(&Tok::Comma, "','")?;
                let v = self.parse_type()?;
                self.expect(&Tok::RAngle, "'>'")?;
                if head == "map" {
                    Type::map(k, v)
                } else {
                    Type::Classifier(std::sync::Arc::new(k), std::sync::Arc::new(v))
                }
            }
            "tuple" => {
                self.expect(&Tok::LAngle, "'<'")?;
                let mut parts = Vec::new();
                loop {
                    parts.push(self.parse_type()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RAngle, "'>'")?;
                Type::tuple(parts)
            }
            other => {
                // A user-defined type: struct/enum/overlay reference.
                match self.module.types.get(other) {
                    Some(TypeDef::Struct(_)) => Type::Struct(std::sync::Arc::from(other)),
                    Some(TypeDef::Enum(_)) => Type::Enum(std::sync::Arc::from(other)),
                    Some(TypeDef::Bitset(_)) => Type::Bitset(std::sync::Arc::from(other)),
                    Some(TypeDef::Overlay(_)) => Type::Overlay(std::sync::Arc::from(other)),
                    // Forward references resolve to struct (the common case,
                    // e.g. `ref<connection>` used before its definition).
                    None => Type::Struct(std::sync::Arc::from(other)),
                }
            }
        })
    }

    // -- globals -------------------------------------------------------------

    fn parse_global(&mut self) -> RtResult<()> {
        let ty = self.parse_type()?;
        let name = self.expect_atom("global name")?;
        let init = if self.eat(&Tok::Eq) {
            // Const initializer or `<type>()` constructor call.
            Some(self.parse_const_initializer()?)
        } else {
            None
        };
        self.module.globals.push((name, ty, init));
        Ok(())
    }

    fn parse_const_initializer(&mut self) -> RtResult<Const> {
        // Accept simple constants or `set<addr>()`-style empty constructors
        // (which lower to "instantiate fresh at startup").
        let save = self.pos;
        match self.parse_operand()? {
            Operand::Const(c) => Ok(c),
            Operand::Var(_) => {
                // Re-parse as a type constructor, e.g. `set<addr>()`.
                self.pos = save;
                let ty = self.parse_type()?;
                if self.eat(&Tok::LParen) {
                    self.expect(&Tok::RParen, "')'")?;
                }
                Ok(Const::TypeRef(ty))
            }
        }
    }

    // -- functions -------------------------------------------------------------

    fn parse_function(&mut self, is_hook: bool) -> RtResult<()> {
        let ret = self.parse_type()?;
        let bare = self.expect_atom("function name")?;
        let name = self.module.qualify(&bare);
        self.expect(&Tok::LParen, "'('")?;
        let mut params = Vec::new();
        loop {
            self.skip_newlines();
            if self.eat(&Tok::RParen) {
                break;
            }
            let pty = self.parse_type()?;
            let pname = self.expect_atom("parameter name")?;
            params.push((pname, pty));
            self.eat(&Tok::Comma);
        }
        // Optional `&priority = N` attribute for hooks.
        let mut priority = 0i64;
        if matches!(self.peek(), Some(Tok::Atom(a)) if a == "&priority") {
            self.bump();
            self.expect(&Tok::Eq, "'=' after &priority")?;
            priority = self
                .expect_atom("priority value")?
                .parse()
                .map_err(|_| self.err("bad priority value"))?;
        }
        self.skip_newlines();
        self.expect(&Tok::LBrace, "'{'")?;
        self.params = params;
        let mut body = FnBody::new(self);
        body.parse_until_rbrace()?;
        let FnBody { locals, blocks, .. } = body;
        let params = std::mem::take(&mut self.params);
        let func = Function {
            name: name.clone(),
            params,
            ret,
            locals,
            blocks,
        };
        if is_hook {
            self.module
                .hooks
                .entry(name)
                .or_default()
                .push(HookBody { priority, func });
        } else {
            self.module.functions.push(func);
        }
        Ok(())
    }

    // -- operands -------------------------------------------------------------

    /// Parses one operand. Tuples `(a, b)` of constants become constant
    /// tuples; tuples containing variables are returned as
    /// `Const::Tuple`-shaped markers the statement parser desugars via
    /// `tuple.pack`.
    fn parse_operand(&mut self) -> RtResult<Operand> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(Operand::Const(Const::Str(s))),
            Some(Tok::BytesLit(b)) => Ok(Operand::Const(Const::BytesLit(b))),
            Some(Tok::Pattern(p)) => Ok(Operand::Const(Const::Patterns(vec![p]))),
            Some(Tok::LParen) => {
                // Tuple operand.
                let mut elems = Vec::new();
                loop {
                    self.skip_newlines();
                    if self.eat(&Tok::RParen) {
                        break;
                    }
                    elems.push(self.parse_operand()?);
                    self.eat(&Tok::Comma);
                }
                // All-constant tuples collapse to a constant.
                if elems.iter().all(|e| matches!(e, Operand::Const(_))) {
                    let consts = elems
                        .into_iter()
                        .map(|e| match e {
                            Operand::Const(c) => c,
                            _ => unreachable!(),
                        })
                        .collect();
                    Ok(Operand::Const(Const::Tuple(consts)))
                } else {
                    // Marker: the caller must desugar via tuple.pack.
                    Err(self.err("non-constant tuple operands must be desugared by the caller"))
                }
            }
            Some(Tok::Atom(a)) => self.classify_atom(a),
            other => Err(self.err(&format!("expected operand, found {other:?}"))),
        }
    }

    /// Parses one operand, desugaring non-constant tuples into a fresh
    /// temporary via `tuple.pack` (emitted into `pre`), declared
    /// `tuple<A, B, …>` when each element's static type is known and `any`
    /// otherwise.
    fn parse_operand_desugared(
        &mut self,
        pre: &mut Vec<Instr>,
        locals: &mut Vec<(String, Type)>,
    ) -> RtResult<Operand> {
        if self.peek() == Some(&Tok::LParen) {
            self.bump();
            let mut elems = Vec::new();
            loop {
                self.skip_newlines();
                if self.eat(&Tok::RParen) {
                    break;
                }
                elems.push(self.parse_operand_desugared(pre, locals)?);
                self.eat(&Tok::Comma);
            }
            if elems.iter().all(|e| matches!(e, Operand::Const(_))) {
                let consts = elems
                    .into_iter()
                    .map(|e| match e {
                        Operand::Const(c) => c,
                        _ => unreachable!(),
                    })
                    .collect();
                return Ok(Operand::Const(Const::Tuple(consts)));
            }
            let tmp = format!("@tuple_{}", pre.len() + locals.len());
            let ty = elems
                .iter()
                .map(|e| self.static_type(e, locals))
                .collect::<Option<Vec<_>>>()
                .map_or(Type::Any, Type::tuple);
            locals.push((tmp.clone(), ty));
            pre.push(Instr::new(Some(&tmp), Opcode::TuplePack, elems));
            return Ok(Operand::Var(tmp));
        }
        self.parse_operand()
    }

    /// The static type of `op` in the function being parsed, if its
    /// declaration pins one down: a constant's, or the one type a variable
    /// is declared with other than `any` (among the parameters and
    /// `locals`, else the module's globals).
    fn static_type(&self, op: &Operand, locals: &[(String, Type)]) -> Option<Type> {
        let Operand::Var(name) = op else {
            return op.static_type(&HashMap::new());
        };
        let mut declared = self.params.iter().chain(locals).filter(|(n, _)| n == name);
        let ty = match declared.next() {
            Some((_, t)) => declared.all(|(_, u)| u == t).then_some(t)?,
            None => self
                .module
                .globals
                .iter()
                .find(|(n, ..)| n == name)
                .map(|(_, t, _)| t)?,
        };
        (*ty != Type::Any).then(|| ty.clone())
    }

    /// Classifies a bare atom into a literal or variable reference.
    fn classify_atom(&mut self, a: String) -> RtResult<Operand> {
        // Constructor-style constants: interval(300), time(1.5), port(80),
        // and addr("2001:db8::1") / net("2001:db8::/32") for the IPv6
        // literal forms the bare-atom lexer cannot express.
        if self.peek() == Some(&Tok::LParen) && matches!(a.as_str(), "addr" | "net") {
            self.bump();
            let lit = match self.bump() {
                Some(Tok::Str(s)) => s,
                Some(Tok::Atom(s)) => s,
                other => return Err(self.err(&format!("bad {a} literal {other:?}"))),
            };
            self.expect(&Tok::RParen, "')'")?;
            return Ok(Operand::Const(if a == "addr" {
                Const::Addr(
                    lit.parse()
                        .map_err(|e: hilti_rt::error::RtError| self.err(&e.message))?,
                )
            } else {
                Const::Net(
                    lit.parse()
                        .map_err(|e: hilti_rt::error::RtError| self.err(&e.message))?,
                )
            }));
        }
        if self.peek() == Some(&Tok::LParen) && matches!(a.as_str(), "interval" | "time" | "double")
        {
            self.bump();
            let arg = self.expect_atom("constructor argument")?;
            self.expect(&Tok::RParen, "')'")?;
            let v: f64 = arg
                .parse()
                .map_err(|_| self.err("bad numeric constructor argument"))?;
            return Ok(Operand::Const(match a.as_str() {
                "interval" => Const::Interval(hilti_rt::time::Interval::from_secs_f64(v)),
                "time" => Const::Time(hilti_rt::time::Time::from_secs_f64(v)),
                _ => Const::Double(v),
            }));
        }
        Ok(Operand::Const(match a.as_str() {
            "True" => Const::Bool(true),
            "False" => Const::Bool(false),
            "Null" | "*" => Const::Null,
            _ => {
                // Enum reference `Type::Label`?
                if let Some((tname, label)) = a.rsplit_once("::") {
                    if tname == "ExpireStrategy" {
                        return Ok(Operand::Const(Const::Int(match label {
                            "Create" => 0,
                            _ => 1,
                        })));
                    }
                    if let Some(labels) = self.enums.get(tname) {
                        if let Some(idx) = labels.iter().position(|l| l == label) {
                            return Ok(Operand::Const(Const::EnumLit(
                                tname.to_owned(),
                                idx as i64,
                            )));
                        }
                    }
                }
                let c0 = a.chars().next().unwrap_or('x');
                if c0.is_ascii_digit() || (c0 == '-' && a.len() > 1) {
                    return Ok(Operand::Const(
                        parse_numeric_literal(&a).map_err(|m| self.err(&m))?,
                    ));
                }
                return Ok(Operand::Var(a));
            }
        }))
    }
}

/// Classifies numeric-looking atoms: int, double, addr, net, port.
fn parse_numeric_literal(a: &str) -> Result<Const, String> {
    if let Some((num, proto)) = a.split_once('/') {
        if matches!(proto, "tcp" | "udp" | "icmp") {
            let port: hilti_rt::addr::Port = format!("{num}/{proto}")
                .parse()
                .map_err(|e: RtError| e.message)?;
            return Ok(Const::Port(port));
        }
        // CIDR network.
        let net: hilti_rt::addr::Network = a.parse().map_err(|e: RtError| e.message)?;
        return Ok(Const::Net(net));
    }
    if a.contains(':') {
        let addr: hilti_rt::addr::Addr = a.parse().map_err(|e: RtError| e.message)?;
        return Ok(Const::Addr(addr));
    }
    let dots = a.bytes().filter(|b| *b == b'.').count();
    if dots == 3 {
        let addr: hilti_rt::addr::Addr = a.parse().map_err(|e: RtError| e.message)?;
        return Ok(Const::Addr(addr));
    }
    if dots == 1 {
        let d: f64 = a.parse().map_err(|_| format!("bad double literal {a}"))?;
        return Ok(Const::Double(d));
    }
    let i: i64 = a.parse().map_err(|_| format!("bad int literal {a}"))?;
    Ok(Const::Int(i))
}

/// Maps textual unpack-format names to [`UnpackFormat`].
fn unpack_format(name: &str, args: &[u32]) -> Option<UnpackFormat> {
    Some(match (name, args) {
        ("UInt8BigEndian" | "UInt8InBigEndian" | "UInt8", []) => UnpackFormat::UIntBE(1),
        ("UInt16BigEndian" | "UInt16InBigEndian" | "UInt16", []) => UnpackFormat::UIntBE(2),
        ("UInt32BigEndian" | "UInt32InBigEndian" | "UInt32", []) => UnpackFormat::UIntBE(4),
        ("UInt64BigEndian" | "UInt64InBigEndian" | "UInt64", []) => UnpackFormat::UIntBE(8),
        ("UInt8LittleEndian", []) => UnpackFormat::UIntLE(1),
        ("UInt16LittleEndian", []) => UnpackFormat::UIntLE(2),
        ("UInt32LittleEndian", []) => UnpackFormat::UIntLE(4),
        ("UInt64LittleEndian", []) => UnpackFormat::UIntLE(8),
        ("UInt8BigEndian" | "UInt8InBigEndian" | "UInt8", [lo, hi]) => UnpackFormat::BitsBE {
            bytes: 1,
            lo: *lo as u8,
            hi: *hi as u8,
        },
        ("UInt16BigEndian" | "UInt16InBigEndian" | "UInt16", [lo, hi]) => UnpackFormat::BitsBE {
            bytes: 2,
            lo: *lo as u8,
            hi: *hi as u8,
        },
        ("IPv4InNetworkOrder" | "IPv4", []) => UnpackFormat::IPv4,
        ("IPv6InNetworkOrder" | "IPv6", []) => UnpackFormat::IPv6,
        ("BytesRun" | "Bytes", [n]) => UnpackFormat::BytesRun(*n),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Function-body parser

struct FnBody<'p> {
    parser: &'p mut Parser,
    locals: Vec<(String, Type)>,
    blocks: Vec<Block>,
    cur_label: String,
    cur_instrs: Vec<Instr>,
}

impl<'p> FnBody<'p> {
    fn new(parser: &'p mut Parser) -> Self {
        FnBody {
            parser,
            locals: Vec::new(),
            blocks: Vec::new(),
            cur_label: "@entry".to_owned(),
            cur_instrs: Vec::new(),
        }
    }

    fn finish_block(&mut self, term: Terminator, next_label: String) {
        let instrs = std::mem::take(&mut self.cur_instrs);
        self.blocks.push(Block {
            label: std::mem::replace(&mut self.cur_label, next_label),
            instrs,
            term,
        });
    }

    fn parse_until_rbrace(&mut self) -> RtResult<()> {
        loop {
            self.parser.skip_newlines();
            if self.parser.eat(&Tok::RBrace) {
                break;
            }
            if self.parser.peek().is_none() {
                return Err(self.parser.err("unexpected end of input in function body"));
            }
            self.parse_statement()?;
        }
        // Implicit return for a fall-through end.
        let label = self.fresh_after();
        self.finish_block(Terminator::Return(None), label);
        Ok(())
    }

    fn fresh_after(&mut self) -> String {
        self.parser.fresh_label("after")
    }

    fn parse_statement(&mut self) -> RtResult<()> {
        // Label?  `name:` (atom followed by colon).
        let is_label = matches!(
            (
                self.parser.toks.get(self.parser.pos),
                self.parser.toks.get(self.parser.pos + 1)
            ),
            (Some((Tok::Atom(_), _)), Some((Tok::Colon, _)))
        );
        if is_label {
            let label = self.parser.expect_atom("label")?;
            self.parser.bump(); // ':'
                                // Close the current block with a fall-through jump.
            self.finish_block(Terminator::Jump(label.clone()), label);
            return Ok(());
        }

        let first = self.parser.expect_atom("statement")?;
        match first.as_str() {
            "local" => {
                let ty = self.parser.parse_type()?;
                let name = self.parser.expect_atom("local name")?;
                self.locals.push((name.clone(), ty));
                if self.parser.eat(&Tok::Eq) {
                    let mut pre = Vec::new();
                    let op = self
                        .parser
                        .parse_operand_desugared(&mut pre, &mut self.locals)?;
                    self.cur_instrs.extend(pre);
                    self.cur_instrs
                        .push(Instr::new(Some(&name), Opcode::Assign, vec![op]));
                }
                Ok(())
            }
            "return" => {
                let val = if self.parser.peek() == Some(&Tok::Newline) {
                    None
                } else {
                    let mut pre = Vec::new();
                    let op = self
                        .parser
                        .parse_operand_desugared(&mut pre, &mut self.locals)?;
                    self.cur_instrs.extend(pre);
                    Some(op)
                };
                let next = self.fresh_after();
                self.finish_block(Terminator::Return(val), next);
                Ok(())
            }
            "jump" => {
                let label = self.parser.expect_atom("jump target")?;
                let next = self.fresh_after();
                self.finish_block(Terminator::Jump(label), next);
                Ok(())
            }
            "if.else" => {
                let mut pre = Vec::new();
                let cond = self
                    .parser
                    .parse_operand_desugared(&mut pre, &mut self.locals)?;
                self.cur_instrs.extend(pre);
                let then_l = self.parser.expect_atom("then label")?;
                let else_l = self.parser.expect_atom("else label")?;
                let next = self.fresh_after();
                self.finish_block(Terminator::IfElse(cond, then_l, else_l), next);
                Ok(())
            }
            "try" => self.parse_try(),
            _ => self.parse_instr_statement(first),
        }
    }

    fn parse_try(&mut self) -> RtResult<()> {
        self.parser.expect(&Tok::LBrace, "'{' after try")?;
        let catch_label = self.parser.fresh_label("catch");
        let after_label = self.parser.fresh_label("try_after");

        // We don't know the catch binder/kind yet; patch afterwards. The
        // instruction may end up in a block closed by a terminator inside
        // the try body, so remember both coordinates.
        let push_block = self.blocks.len();
        let push_idx = self.cur_instrs.len();
        self.cur_instrs.push(Instr::new(
            None,
            Opcode::PushHandler,
            vec![
                Operand::label(&catch_label),
                Operand::ident("*"),
                Operand::ident(""),
            ],
        ));

        // Try body.
        loop {
            self.parser.skip_newlines();
            if self.parser.eat(&Tok::RBrace) {
                break;
            }
            self.parse_statement()?;
        }
        self.cur_instrs
            .push(Instr::new(None, Opcode::PopHandler, vec![]));
        self.finish_block(Terminator::Jump(after_label.clone()), catch_label.clone());

        // catch ( ref<Kind> binder ) {
        self.parser.skip_newlines();
        let kw = self.parser.expect_atom("'catch'")?;
        if kw != "catch" {
            return Err(self.parser.err("expected 'catch' after try block"));
        }
        self.parser.expect(&Tok::LParen, "'('")?;
        let kind_ty = self.parser.parse_type()?;
        let kind_name = match kind_ty.strip_ref() {
            Type::Struct(n) => n.to_string(),
            Type::Exception => "*".to_owned(),
            other => other.to_string(),
        };
        let binder = self.parser.expect_atom("exception binder")?;
        self.parser.expect(&Tok::RParen, "')'")?;
        self.parser.skip_newlines();
        self.parser.expect(&Tok::LBrace, "'{'")?;
        self.locals.push((binder.clone(), Type::Exception));

        // Patch the handler with the real kind/binder. The instruction sits
        // in the first block closed after the `try` opened (terminators
        // inside the try body may have closed blocks before parse_try's own
        // finish_block did).
        if let Some(block) = self.blocks.get_mut(push_block) {
            if let Some(instr) = block.instrs.get_mut(push_idx) {
                debug_assert_eq!(instr.opcode, Opcode::PushHandler);
                instr.args[1] = Operand::ident(&kind_name);
                instr.args[2] = Operand::ident(&binder);
            }
        }

        // Catch body (runs in its own block).
        loop {
            self.parser.skip_newlines();
            if self.parser.eat(&Tok::RBrace) {
                break;
            }
            self.parse_statement()?;
        }
        self.finish_block(Terminator::Jump(after_label.clone()), after_label);
        Ok(())
    }

    /// `target = mnemonic ops...` / `mnemonic ops...` / function-call sugar.
    fn parse_instr_statement(&mut self, first: String) -> RtResult<()> {
        // Assignment?
        let (target, mnemonic) = if self.parser.peek() == Some(&Tok::Eq) {
            self.parser.bump();
            let m = match self.parser.bump() {
                Some(Tok::Atom(m)) => m,
                Some(Tok::Str(s)) => {
                    // `x = "literal"` assignment sugar.
                    self.cur_instrs.push(Instr::new(
                        Some(&first),
                        Opcode::Assign,
                        vec![Operand::Const(Const::Str(s))],
                    ));
                    return Ok(());
                }
                Some(Tok::LParen) => {
                    // `x = (a, b)` tuple assignment sugar.
                    self.parser.pos -= 1;
                    let mut pre = Vec::new();
                    let op = self
                        .parser
                        .parse_operand_desugared(&mut pre, &mut self.locals)?;
                    self.cur_instrs.extend(pre);
                    self.cur_instrs
                        .push(Instr::new(Some(&first), Opcode::Assign, vec![op]));
                    return Ok(());
                }
                Some(Tok::Pattern(p)) => {
                    self.cur_instrs.push(Instr::new(
                        Some(&first),
                        Opcode::RegexpNew,
                        vec![Operand::Const(Const::Patterns(vec![p]))],
                    ));
                    return Ok(());
                }
                other => {
                    return Err(self
                        .parser
                        .err(&format!("expected mnemonic, found {other:?}")))
                }
            };
            (Some(first), m)
        } else {
            (None, first)
        };

        // Mnemonic aliases from the paper's listings.
        let mnemonic = match mnemonic.as_str() {
            "or" => "bool.or".to_owned(),
            "and" => "bool.and".to_owned(),
            "not" => "bool.not".to_owned(),
            "add" => "int.add".to_owned(),
            "sub" => "int.sub".to_owned(),
            m => m.to_owned(),
        };

        // `x = foo 1 2` where foo is not a mnemonic: could be a plain
        // variable copy `x = y` or a literal assignment.
        let Some(opcode) = Opcode::from_mnemonic(&mnemonic) else {
            // Assignment from operand (variable or literal).
            let op = self.parser.classify_atom(mnemonic)?;
            if let Some(t) = target {
                self.cur_instrs
                    .push(Instr::new(Some(&t), Opcode::Assign, vec![op]));
                return Ok(());
            }
            return Err(self.parser.err("expected an instruction mnemonic"));
        };

        // `new` takes a type operand.
        if opcode == Opcode::New {
            let ty = self.parser.parse_type()?;
            let mut args = vec![Operand::Const(Const::TypeRef(ty))];
            while self.parser.peek() != Some(&Tok::Newline) {
                let mut pre = Vec::new();
                args.push(
                    self.parser
                        .parse_operand_desugared(&mut pre, &mut self.locals)?,
                );
                self.cur_instrs.extend(pre);
            }
            self.cur_instrs
                .push(Instr::new(target.as_deref(), opcode, args));
            return Ok(());
        }

        // Remaining operands until end of line.
        let mut args: Vec<Operand> = Vec::new();
        while self.parser.peek() != Some(&Tok::Newline) && self.parser.peek() != Some(&Tok::RBrace)
        {
            // Function-call sugar: `call f (a, b)` — parenthesized args
            // after the callee expand to individual operands.
            if self.parser.peek() == Some(&Tok::LParen)
                && matches!(
                    opcode,
                    Opcode::Call
                        | Opcode::CallVoid
                        | Opcode::CallC
                        | Opcode::HookRun
                        | Opcode::HookRunVoid
                        | Opcode::CallableBind
                )
                && args.len() == 1
            {
                self.parser.bump();
                loop {
                    self.parser.skip_newlines();
                    if self.parser.eat(&Tok::RParen) {
                        break;
                    }
                    let mut pre = Vec::new();
                    let op = self
                        .parser
                        .parse_operand_desugared(&mut pre, &mut self.locals)?;
                    self.cur_instrs.extend(pre);
                    args.push(op);
                    self.parser.eat(&Tok::Comma);
                }
                continue;
            }
            let mut pre = Vec::new();
            let op = self
                .parser
                .parse_operand_desugared(&mut pre, &mut self.locals)?;
            self.cur_instrs.extend(pre);
            args.push(op);
        }

        // Convert Var → Ident at identifier positions.
        for &idx in opcode.ident_positions() {
            if let Some(slot) = args.get_mut(idx) {
                if let Operand::Var(name) = slot {
                    let name = name.clone();
                    *slot = Operand::ident(&name);
                }
            }
        }

        // Merge multiple pattern literals for regexp.new.
        if opcode == Opcode::RegexpNew {
            let mut pats = Vec::new();
            for a in &args {
                match a {
                    Operand::Const(Const::Patterns(ps)) => pats.extend(ps.clone()),
                    Operand::Const(Const::Str(s)) => pats.push(s.clone()),
                    other => {
                        return Err(self.parser.err(&format!(
                            "regexp.new takes pattern literals, found {other:?}"
                        )))
                    }
                }
            }
            args = vec![Operand::Const(Const::Patterns(pats))];
        }

        self.cur_instrs
            .push(Instr::new(target.as_deref(), opcode, args));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_world_parses() {
        let m = parse_module(
            r#"
module Main
import Hilti

void run() {
    call Hilti::print "Hello, World!"
}
"#,
        )
        .unwrap();
        assert_eq!(m.name, "Main");
        let f = m.function("Main::run").unwrap();
        assert_eq!(f.blocks[0].instrs.len(), 1);
        assert_eq!(f.blocks[0].instrs[0].opcode, Opcode::Call);
        assert_eq!(
            f.blocks[0].instrs[0].args[0],
            Operand::ident("Hilti::print")
        );
    }

    #[test]
    fn figure4_bpf_filter_parses() {
        let m = parse_module(
            r#"
module Bpf

type IP::Header = overlay {
    version: int<8> at 0 unpack UInt8InBigEndian(4, 7),
    hdr_len: int<8> at 0 unpack UInt8InBigEndian(0, 3),
    src: addr at 12 unpack IPv4InNetworkOrder,
    dst: addr at 16 unpack IPv4InNetworkOrder
}

bool filter(ref<bytes> packet) {
    local addr a1
    local addr a2
    local bool b1
    local bool b2
    local bool b3

    a1 = overlay.get IP::Header src packet
    b1 = equal a1 192.168.1.1
    a2 = overlay.get IP::Header dst packet
    b2 = equal a2 192.168.1.1
    b1 = or b1 b2
    b2 = equal 10.0.5.0/24 a1
    b3 = or b1 b2
    return b3
}
"#,
        )
        .unwrap();
        assert!(matches!(
            m.types.get("IP::Header"),
            Some(TypeDef::Overlay(_))
        ));
        let f = m.function("Bpf::filter").unwrap();
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.ret, Type::Bool);
        assert_eq!(f.locals.len(), 5);
        let entry = &f.blocks[0];
        assert_eq!(entry.instrs[0].opcode, Opcode::OverlayGet);
        // overlay.get's type and field became idents.
        assert_eq!(entry.instrs[0].args[0], Operand::ident("IP::Header"));
        assert_eq!(entry.instrs[0].args[1], Operand::ident("src"));
        // The alias `or` resolved to bool.or.
        assert!(entry.instrs.iter().any(|i| i.opcode == Opcode::BoolOr));
        assert!(matches!(entry.term, Terminator::Return(Some(_))));
    }

    #[test]
    fn labels_and_branches() {
        let m = parse_module(
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
        )
        .unwrap();
        let f = m.function("M::f").unwrap();
        assert!(f.block("yes").is_some());
        assert!(f.block("no").is_some());
        assert!(matches!(
            f.blocks[0].term,
            Terminator::IfElse(Operand::Var(_), _, _)
        ));
    }

    #[test]
    fn try_catch_lowered() {
        let m = parse_module(
            r#"
module M
bool f() {
    local bool b
    try {
        b = assign True
    } catch ( ref<Hilti::IndexError> e ) {
        b = assign False
    }
    return b
}
"#,
        )
        .unwrap();
        let f = m.function("M::f").unwrap();
        let all: Vec<&Instr> = f.blocks.iter().flat_map(|b| b.instrs.iter()).collect();
        assert!(all.iter().any(|i| i.opcode == Opcode::PushHandler));
        assert!(all.iter().any(|i| i.opcode == Opcode::PopHandler));
        let push = all
            .iter()
            .find(|i| i.opcode == Opcode::PushHandler)
            .unwrap();
        assert_eq!(push.args[1], Operand::ident("Hilti::IndexError"));
        assert_eq!(push.args[2], Operand::ident("e"));
    }

    #[test]
    fn globals_and_types() {
        let m = parse_module(
            r#"
module FW
type Rule = struct { net src, net dst }
global ref<classifier<Rule, bool>> rules
global int<64> counter = 0
void noop() {
}
"#,
        )
        .unwrap();
        assert_eq!(m.globals.len(), 2);
        assert!(matches!(m.types.get("Rule"), Some(TypeDef::Struct(f)) if f.len() == 2));
        assert_eq!(m.globals[1].2, Some(Const::Int(0)));
    }

    #[test]
    fn literals_classified() {
        let m = parse_module(
            r#"
module L
void f() {
    local addr a = 10.0.0.1
    local net n = 10.0.0.0/8
    local port p = 80/tcp
    local int<64> i = 42
    local double d = 1.5
    local interval iv = interval(300)
    local bool t = True
    local string s = "hi"
    local bytes b = b"raw"
}
"#,
        )
        .unwrap();
        let f = m.function("L::f").unwrap();
        let inits: Vec<&Const> = f.blocks[0]
            .instrs
            .iter()
            .filter_map(|i| match &i.args[0] {
                Operand::Const(c) => Some(c),
                _ => None,
            })
            .collect();
        assert!(matches!(inits[0], Const::Addr(_)));
        assert!(matches!(inits[1], Const::Net(_)));
        assert!(matches!(inits[2], Const::Port(_)));
        assert!(matches!(inits[3], Const::Int(42)));
        assert!(matches!(inits[4], Const::Double(_)));
        assert!(matches!(inits[5], Const::Interval(_)));
        assert!(matches!(inits[6], Const::Bool(true)));
        assert!(matches!(inits[7], Const::Str(_)));
        assert!(matches!(inits[8], Const::BytesLit(_)));
    }

    #[test]
    fn literals_keep_the_source_characters() {
        let m =
            parse_module("module U\nvoid f() {\n    call Hilti::print \"é\\\"ÿ\" b\"é\\n\"\n}\n")
                .unwrap();
        let args = &m.function("U::f").unwrap().blocks[0].instrs[0].args;
        assert_eq!(args[1], Operand::Const(Const::Str("é\"ÿ".into())));
        assert_eq!(
            args[2],
            Operand::Const(Const::BytesLit(b"\xc3\xa9\n".to_vec()))
        );
    }

    #[test]
    fn hooks_with_priority() {
        let m = parse_module(
            r#"
module H
hook void on_event(int<64> x) {
    call Hilti::print x
}
hook void on_event(int<64> x) &priority=5 {
    call Hilti::print "first"
}
"#,
        )
        .unwrap();
        let bodies = m.hooks.get("H::on_event").unwrap();
        assert_eq!(bodies.len(), 2);
        assert_eq!(bodies[0].priority, 0);
        assert_eq!(bodies[1].priority, 5);
    }

    #[test]
    fn enum_definitions_and_refs() {
        let m = parse_module(
            r#"
module E
type Color = enum { Red, Green, Blue }
void f() {
    local Color c = Color::Green
}
"#,
        )
        .unwrap();
        let f = m.function("E::f").unwrap();
        match &f.blocks[0].instrs[0].args[0] {
            Operand::Const(Const::EnumLit(name, idx)) => {
                assert_eq!(name, "Color");
                assert_eq!(*idx, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn regexp_literal() {
        let m = parse_module(
            r#"
module R
void f() {
    local regexp re
    re = regexp.new /[a-z]+/
}
"#,
        )
        .unwrap();
        let f = m.function("R::f").unwrap();
        match &f.blocks[0].instrs[0].args[0] {
            Operand::Const(Const::Patterns(p)) => assert_eq!(p[0], "[a-z]+"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure5_firewall_shape_parses() {
        let m = parse_module(
            r#"
module FW

type Rule = struct { net src, net dst }

global ref<classifier<Rule, bool>> rules
global ref<set<tuple<addr, addr>>> dyn

void init_rules(ref<classifier<Rule, bool>> r) {
    classifier.add r (10.3.2.1/32, 10.1.0.0/16) True
    classifier.add r (10.12.0.0/16, 10.1.0.0/16) False
    classifier.add r (10.1.6.0/24, *) True
}

void init_classifier() {
    rules = new classifier<Rule, bool>
    call init_rules (rules)
    classifier.compile rules
    dyn = new set<tuple<addr, addr>>
    set.timeout dyn ExpireStrategy::Access interval(300)
}

bool match_packet(time t, addr src, addr dst) {
    local bool b
    timer_mgr.advance_global t
    b = set.exists dyn (src, dst)
    if.else b return_action lookup

lookup:
    try {
        b = classifier.get rules (src, dst)
    } catch ( ref<Hilti::IndexError> e ) {
        return False
    }
    if.else b add_state return_action

add_state:
    set.insert dyn (src, dst)
    set.insert dyn (dst, src)

return_action:
    return b
}
"#,
        )
        .unwrap();
        assert!(m.function("FW::init_rules").is_some());
        assert!(m.function("FW::match_packet").is_some());
        let f = m.function("FW::match_packet").unwrap();
        assert!(f.block("lookup").is_some());
        assert!(f.block("add_state").is_some());
        assert!(f.block("return_action").is_some());
        // Non-constant tuple (src, dst) desugared through tuple.pack.
        let all: Vec<&Instr> = f.blocks.iter().flat_map(|b| b.instrs.iter()).collect();
        assert!(all.iter().any(|i| i.opcode == Opcode::TuplePack));
    }

    /// The temporary a non-constant tuple becomes is declared with its
    /// elements' types when each is known, and `any` otherwise.
    #[test]
    fn tuple_temporaries_are_typed_when_their_elements_are() {
        let m = parse_module(
            r#"
module T
global int<64> g
void f(addr a, any x) {
    local ref<set<any>> s
    local bool b
    b = set.exists s (a, g, 80/tcp)
    b = set.exists s (a, x)
    b = set.exists s (a, (a, g))
}
"#,
        )
        .unwrap();
        let f = m.function("T::f").unwrap();
        let temps: Vec<String> = f
            .locals
            .iter()
            .filter(|(n, _)| n.starts_with("@tuple_"))
            .map(|(_, t)| t.to_string())
            .collect();
        assert_eq!(
            temps,
            [
                "tuple<addr, int<64>, port>",
                "any",
                "tuple<addr, int<64>>",
                "tuple<addr, tuple<addr, int<64>>>",
            ]
        );
    }

    #[test]
    fn ipv6_literals_via_constructors() {
        let m = parse_module(
            r#"
module V6
bool f(addr x) {
    local bool b
    local bool c
    b = equal x addr("2001:db8::1")
    c = equal x net("2001:db8::/32")
    b = or b c
    return b
}
"#,
        )
        .unwrap();
        let f = m.function("V6::f").unwrap();
        let consts: Vec<&Const> = f
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .flat_map(|i| i.args.iter())
            .filter_map(|a| match a {
                Operand::Const(c) => Some(c),
                _ => None,
            })
            .collect();
        assert!(consts
            .iter()
            .any(|c| matches!(c, Const::Addr(a) if a.is_v6())));
        assert!(consts
            .iter()
            .any(|c| matches!(c, Const::Net(n) if n.len() == 32)));
        assert!(parse_module(
            r#"
module V6
void f() {
    local addr a = addr("not-an-address")
}
"#
        )
        .is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_module("not_a_module").is_err());
        assert!(parse_module("module M\nvoid f( {").is_err());
        assert!(parse_module("module M\nvoid f() { x = }").is_err());
        assert!(parse_module("module M\nvoid f() { try { } }").is_err());
    }
}
