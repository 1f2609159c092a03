//! Regular expressions with incremental matching and simultaneous matching
//! of multiple expressions (§3.2).
//!
//! HILTI's `regexp` type is the workhorse of BinPAC++ token fields: a parser
//! feeds payload *chunks* into a matcher as they arrive, and the matcher
//! reports when a match is complete, definitely impossible, or still open
//! pending more input — the tri-state that drives fiber suspension. A single
//! compiled object can hold several patterns at once, reporting which one
//! matched (used for tokenizers and signature sets).
//!
//! Implementation: a syntax parser builds an AST, Thompson construction
//! yields an NFA with byte-class transitions, and matching runs over a
//! *lazily built DFA* — state-set closures are computed on demand and
//! memoized, so steady-state matching advances one table lookup per input
//! byte (the classic lazy-DFA scheme of re2/Bro). Matching is anchored at
//! the start of input and reports the *longest* match, with ties between
//! patterns broken by lowest pattern index.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::error::{RtError, RtResult};
use crate::unpoison;

// ---------------------------------------------------------------------------
// Byte classes: 256-bit membership bitmaps.

/// A set of bytes, as a 256-bit bitmap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ByteClass([u64; 4]);

impl ByteClass {
    pub const EMPTY: ByteClass = ByteClass([0; 4]);

    pub fn single(b: u8) -> Self {
        let mut c = Self::EMPTY;
        c.insert(b);
        c
    }

    /// `.` — any byte except `\n`, following common regexp semantics.
    pub fn dot() -> Self {
        let mut c = ByteClass([u64::MAX; 4]);
        c.remove(b'\n');
        c
    }

    pub fn any() -> Self {
        ByteClass([u64::MAX; 4])
    }

    pub fn insert(&mut self, b: u8) {
        self.0[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    pub fn remove(&mut self, b: u8) {
        self.0[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    pub fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    pub fn contains(&self, b: u8) -> bool {
        self.0[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    pub fn negate(&mut self) {
        for w in &mut self.0 {
            *w = !*w;
        }
    }

    pub fn union(&mut self, other: &ByteClass) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= *b;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }
}

// ---------------------------------------------------------------------------
// Pattern AST.

#[derive(Clone, Debug, PartialEq)]
enum Ast {
    Empty,
    Class(ByteClass),
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Quest(Box<Ast>),
    /// `$`: matches only at end of input.
    Eoi,
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

/// Hard cap on `{m,n}` expansion to bound NFA size on hostile patterns.
const MAX_REPEAT: u32 = 256;

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, msg: &str) -> RtError {
        RtError::pattern(format!("{msg} at offset {}", self.pos))
    }

    fn parse(mut self) -> RtResult<Ast> {
        let ast = self.alt()?;
        if self.pos != self.src.len() {
            return Err(self.err("trailing input"));
        }
        Ok(ast)
    }

    fn alt(&mut self) -> RtResult<Ast> {
        let mut branches = vec![self.concat()?];
        while self.eat(b'|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alt(branches)
        })
    }

    fn concat(&mut self) -> RtResult<Ast> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> RtResult<Ast> {
        let mut atom = self.atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    atom = Ast::Star(Box::new(atom));
                }
                Some(b'+') => {
                    self.bump();
                    atom = Ast::Plus(Box::new(atom));
                }
                Some(b'?') => {
                    self.bump();
                    atom = Ast::Quest(Box::new(atom));
                }
                Some(b'{') => {
                    // Only treat as a counted repeat if it parses as one;
                    // otherwise `{` is a literal (common in practice).
                    if let Some((m, n, consumed)) = self.try_counted() {
                        self.pos += consumed;
                        atom = expand_counted(&atom, m, n)?;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    /// Attempts to parse `{m}`, `{m,}` or `{m,n}` starting at `self.pos`
    /// (which points at `{`); returns (m, n, bytes-consumed) without
    /// consuming on failure. `n == u32::MAX` encodes an open upper bound.
    fn try_counted(&self) -> Option<(u32, u32, usize)> {
        let rest = &self.src[self.pos..];
        let close = rest.iter().position(|&b| b == b'}')?;
        let body = std::str::from_utf8(&rest[1..close]).ok()?;
        let (m, n) = match body.split_once(',') {
            None => {
                let m: u32 = body.parse().ok()?;
                (m, m)
            }
            Some((ms, "")) => (ms.trim().parse().ok()?, u32::MAX),
            Some((ms, ns)) => (ms.trim().parse().ok()?, ns.trim().parse().ok()?),
        };
        Some((m, n, close + 1))
    }

    fn atom(&mut self) -> RtResult<Ast> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some(b'(') => {
                // Support non-capturing group syntax transparently.
                if self.peek() == Some(b'?') {
                    self.bump();
                    if !self.eat(b':') {
                        return Err(self.err("unsupported group flag"));
                    }
                }
                let inner = self.alt()?;
                if !self.eat(b')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            Some(b'[') => self.class(),
            Some(b'.') => Ok(Ast::Class(ByteClass::dot())),
            Some(b'^') => {
                // Anchored matching is the default; `^` at the start is a
                // no-op, anywhere else it is a literal (HILTI patterns are
                // start-anchored token patterns).
                Ok(Ast::Empty)
            }
            Some(b'$') => Ok(Ast::Eoi),
            Some(b'\\') => {
                let c = self.bump().ok_or_else(|| self.err("dangling backslash"))?;
                Ok(Ast::Class(escape_class(c, self)?))
            }
            Some(b'*') | Some(b'+') | Some(b'?') => Err(self.err("quantifier without operand")),
            Some(b')') => Err(self.err("unbalanced ')'")),
            Some(other) => Ok(Ast::Class(ByteClass::single(other))),
        }
    }

    fn class(&mut self) -> RtResult<Ast> {
        let mut cls = ByteClass::EMPTY;
        let negated = self.eat(b'^');
        let mut first = true;
        loop {
            let b = self
                .bump()
                .ok_or_else(|| self.err("unclosed character class"))?;
            if b == b']' && !first {
                break;
            }
            first = false;
            let lo = if b == b'\\' {
                let c = self
                    .bump()
                    .ok_or_else(|| self.err("dangling backslash in class"))?;
                let sub = escape_class(c, self)?;
                // A multi-byte escape like \d inside a class unions in.
                if !is_single_byte_class(&sub) {
                    cls.union(&sub);
                    continue;
                }
                single_byte_of(&sub)
            } else {
                b
            };
            // Range?
            if self.peek() == Some(b'-') && self.src.get(self.pos + 1) != Some(&b']') {
                self.bump(); // '-'
                let hb = self
                    .bump()
                    .ok_or_else(|| self.err("unfinished range in class"))?;
                let hi = if hb == b'\\' {
                    let c = self
                        .bump()
                        .ok_or_else(|| self.err("dangling backslash in class"))?;
                    let sub = escape_class(c, self)?;
                    if !is_single_byte_class(&sub) {
                        return Err(self.err("class escape cannot end a range"));
                    }
                    single_byte_of(&sub)
                } else {
                    hb
                };
                if hi < lo {
                    return Err(self.err("inverted range in class"));
                }
                cls.insert_range(lo, hi);
            } else {
                cls.insert(lo);
            }
        }
        if negated {
            cls.negate();
        }
        if cls.is_empty() {
            return Err(self.err("empty character class"));
        }
        Ok(Ast::Class(cls))
    }
}

fn is_single_byte_class(c: &ByteClass) -> bool {
    (0..=255u8).filter(|b| c.contains(*b)).count() == 1
}

fn single_byte_of(c: &ByteClass) -> u8 {
    (0..=255u8)
        .find(|b| c.contains(*b))
        .expect("non-empty class")
}

fn escape_class(c: u8, p: &mut Parser<'_>) -> RtResult<ByteClass> {
    Ok(match c {
        b'n' => ByteClass::single(b'\n'),
        b'r' => ByteClass::single(b'\r'),
        b't' => ByteClass::single(b'\t'),
        b'0' => ByteClass::single(0),
        b'f' => ByteClass::single(0x0c),
        b'v' => ByteClass::single(0x0b),
        b'd' => {
            let mut cls = ByteClass::EMPTY;
            cls.insert_range(b'0', b'9');
            cls
        }
        b'D' => {
            let mut cls = ByteClass::EMPTY;
            cls.insert_range(b'0', b'9');
            cls.negate();
            cls
        }
        b'w' => {
            let mut cls = ByteClass::EMPTY;
            cls.insert_range(b'a', b'z');
            cls.insert_range(b'A', b'Z');
            cls.insert_range(b'0', b'9');
            cls.insert(b'_');
            cls
        }
        b'W' => {
            let mut cls = ByteClass::EMPTY;
            cls.insert_range(b'a', b'z');
            cls.insert_range(b'A', b'Z');
            cls.insert_range(b'0', b'9');
            cls.insert(b'_');
            cls.negate();
            cls
        }
        b's' => {
            let mut cls = ByteClass::EMPTY;
            for b in [b' ', b'\t', b'\r', b'\n', 0x0b, 0x0c] {
                cls.insert(b);
            }
            cls
        }
        b'S' => {
            let mut cls = ByteClass::EMPTY;
            for b in [b' ', b'\t', b'\r', b'\n', 0x0b, 0x0c] {
                cls.insert(b);
            }
            cls.negate();
            cls
        }
        b'x' => {
            let hi = p.bump().ok_or_else(|| p.err("\\x needs two hex digits"))?;
            let lo = p.bump().ok_or_else(|| p.err("\\x needs two hex digits"))?;
            let val = (hex_digit(hi).ok_or_else(|| p.err("bad hex digit"))? << 4)
                | hex_digit(lo).ok_or_else(|| p.err("bad hex digit"))?;
            ByteClass::single(val)
        }
        // Everything else escapes to the literal byte (covers \. \/ \\ etc.).
        other => ByteClass::single(other),
    })
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn expand_counted(atom: &Ast, m: u32, n: u32) -> RtResult<Ast> {
    if m > MAX_REPEAT || (n != u32::MAX && (n > MAX_REPEAT || n < m)) {
        return Err(RtError::pattern(format!("bad repeat bounds {{{m},{n}}}")));
    }
    let mut parts = Vec::new();
    for _ in 0..m {
        parts.push(atom.clone());
    }
    if n == u32::MAX {
        parts.push(Ast::Star(Box::new(atom.clone())));
    } else {
        for _ in m..n {
            parts.push(Ast::Quest(Box::new(atom.clone())));
        }
    }
    Ok(match parts.len() {
        0 => Ast::Empty,
        1 => parts.pop().expect("one part"),
        _ => Ast::Concat(parts),
    })
}

// ---------------------------------------------------------------------------
// Thompson NFA.

type StateId = u32;

#[derive(Clone, Debug, Default)]
struct NfaState {
    /// Byte-class transitions.
    byte: Vec<(ByteClass, StateId)>,
    /// Epsilon transitions.
    eps: Vec<StateId>,
    /// End-of-input transitions (for `$`).
    eoi: Vec<StateId>,
    /// Accepting for this pattern index.
    accept: Option<usize>,
}

#[derive(Debug, Default)]
struct Nfa {
    states: Vec<NfaState>,
    start: StateId,
}

impl Nfa {
    fn add(&mut self) -> StateId {
        self.states.push(NfaState::default());
        (self.states.len() - 1) as StateId
    }

    /// Compiles `ast` into states, returning (entry, exit).
    fn compile(&mut self, ast: &Ast) -> (StateId, StateId) {
        match ast {
            Ast::Empty => {
                let s = self.add();
                let e = self.add();
                self.states[s as usize].eps.push(e);
                (s, e)
            }
            Ast::Class(c) => {
                let s = self.add();
                let e = self.add();
                self.states[s as usize].byte.push((*c, e));
                (s, e)
            }
            Ast::Eoi => {
                let s = self.add();
                let e = self.add();
                self.states[s as usize].eoi.push(e);
                (s, e)
            }
            Ast::Concat(parts) => {
                let mut entry = None;
                let mut prev_exit: Option<StateId> = None;
                for p in parts {
                    let (s, e) = self.compile(p);
                    if let Some(pe) = prev_exit {
                        self.states[pe as usize].eps.push(s);
                    } else {
                        entry = Some(s);
                    }
                    prev_exit = Some(e);
                }
                (
                    entry.expect("non-empty concat"),
                    prev_exit.expect("non-empty concat"),
                )
            }
            Ast::Alt(branches) => {
                let s = self.add();
                let e = self.add();
                for b in branches {
                    let (bs, be) = self.compile(b);
                    self.states[s as usize].eps.push(bs);
                    self.states[be as usize].eps.push(e);
                }
                (s, e)
            }
            Ast::Star(inner) => {
                let s = self.add();
                let e = self.add();
                let (is, ie) = self.compile(inner);
                self.states[s as usize].eps.push(is);
                self.states[s as usize].eps.push(e);
                self.states[ie as usize].eps.push(is);
                self.states[ie as usize].eps.push(e);
                (s, e)
            }
            Ast::Plus(inner) => {
                let (is, ie) = self.compile(inner);
                let e = self.add();
                self.states[ie as usize].eps.push(is);
                self.states[ie as usize].eps.push(e);
                (is, e)
            }
            Ast::Quest(inner) => {
                let s = self.add();
                let e = self.add();
                let (is, ie) = self.compile(inner);
                self.states[s as usize].eps.push(is);
                self.states[s as usize].eps.push(e);
                self.states[ie as usize].eps.push(e);
                (s, e)
            }
        }
    }

    /// Epsilon-closure of `set` (sorted, deduped), in place.
    fn closure(&self, set: &mut Vec<StateId>) {
        let mut stack: Vec<StateId> = set.clone();
        while let Some(s) = stack.pop() {
            for &t in &self.states[s as usize].eps {
                if !set.contains(&t) {
                    set.push(t);
                    stack.push(t);
                }
            }
        }
        set.sort_unstable();
        set.dedup();
    }
}

// ---------------------------------------------------------------------------
// Lazy DFA over NFA state sets.

const TRANS_UNKNOWN: i32 = -1;
const TRANS_DEAD: i32 = -2;

struct DfaNode {
    /// NFA states of this DFA node (sorted).
    states: Box<[StateId]>,
    /// Transition per byte: DFA node index, TRANS_UNKNOWN, or TRANS_DEAD.
    trans: Box<[i32; 256]>,
    /// Best accepting pattern at this node (lowest index), if any.
    accept: Option<usize>,
    /// Best accepting pattern reachable via end-of-input transitions.
    accept_at_eoi: Option<usize>,
    /// Lazily computed: does any byte lead out of this node (i.e. could
    /// more input still change the outcome)?
    live: Option<bool>,
}

#[derive(Default)]
struct DfaCache {
    nodes: Vec<DfaNode>,
    index: HashMap<Box<[StateId]>, usize>,
}

/// Outcome of feeding input to a [`Matcher`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchStatus {
    /// No match and none possible, no matter what further input arrives.
    Failed,
    /// Matching could still extend with more input (also set when a match
    /// has been found but a longer one remains possible).
    Ongoing,
}

/// The final verdict after input is complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MatchVerdict {
    NoMatch,
    /// Pattern `pattern` matched the first `len` bytes of input.
    Match {
        pattern: usize,
        len: u64,
    },
}

/// A compiled regular expression (possibly a set of several patterns).
pub struct Regex {
    nfa: Nfa,
    sources: Vec<String>,
    cache: Mutex<DfaCache>,
    start_node: usize,
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Regex({:?})", self.sources)
    }
}

impl Regex {
    /// Compiles a single pattern.
    pub fn new(pattern: &str) -> RtResult<Arc<Regex>> {
        Self::set(&[pattern])
    }

    /// Compiles several patterns into one matcher; match results report the
    /// index of the pattern that matched.
    pub fn set(patterns: &[&str]) -> RtResult<Arc<Regex>> {
        if patterns.is_empty() {
            return Err(RtError::pattern("empty pattern set"));
        }
        let mut nfa = Nfa::default();
        let start = nfa.add();
        nfa.start = start;
        for (idx, pat) in patterns.iter().enumerate() {
            let ast = Parser::new(pat).parse()?;
            let (s, e) = nfa.compile(&ast);
            nfa.states[start as usize].eps.push(s);
            nfa.states[e as usize].accept = Some(idx);
        }
        let mut re = Regex {
            nfa,
            sources: patterns.iter().map(|s| s.to_string()).collect(),
            cache: Mutex::new(DfaCache::default()),
            start_node: 0,
        };
        // Materialize the start node eagerly.
        let mut set = vec![re.nfa.start];
        re.nfa.closure(&mut set);
        re.start_node = re.intern(set);
        Ok(Arc::new(re))
    }

    /// The pattern sources this object was compiled from.
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    fn intern(&self, states: Vec<StateId>) -> usize {
        let mut cache = unpoison(self.cache.lock());
        let key: Box<[StateId]> = states.into_boxed_slice();
        if let Some(&idx) = cache.index.get(&key) {
            return idx;
        }
        let accept = key
            .iter()
            .filter_map(|&s| self.nfa.states[s as usize].accept)
            .min();
        // Which patterns accept if input ended here (through $-edges)?
        let mut eoi_set: Vec<StateId> = key
            .iter()
            .flat_map(|&s| self.nfa.states[s as usize].eoi.iter().copied())
            .collect();
        let accept_at_eoi = if eoi_set.is_empty() {
            None
        } else {
            self.nfa.closure(&mut eoi_set);
            eoi_set
                .iter()
                .filter_map(|&s| self.nfa.states[s as usize].accept)
                .min()
        };
        let node = DfaNode {
            states: key.clone(),
            trans: Box::new([TRANS_UNKNOWN; 256]),
            accept,
            accept_at_eoi,
            live: None,
        };
        cache.nodes.push(node);
        let idx = cache.nodes.len() - 1;
        cache.index.insert(key, idx);
        idx
    }

    /// Computes (and memoizes) the transition of DFA node `node` on byte `b`.
    fn step(&self, node: usize, b: u8) -> i32 {
        {
            let cache = unpoison(self.cache.lock());
            let t = cache.nodes[node].trans[b as usize];
            if t != TRANS_UNKNOWN {
                return t;
            }
        }
        // Compute outside the lock (closure needs only &self.nfa).
        let states: Vec<StateId> = {
            let cache = unpoison(self.cache.lock());
            cache.nodes[node].states.to_vec()
        };
        let mut next: Vec<StateId> = Vec::new();
        for s in states {
            for (cls, t) in &self.nfa.states[s as usize].byte {
                if cls.contains(b) && !next.contains(t) {
                    next.push(*t);
                }
            }
        }
        let result = if next.is_empty() {
            TRANS_DEAD
        } else {
            self.nfa.closure(&mut next);
            self.intern(next) as i32
        };
        unpoison(self.cache.lock()).nodes[node].trans[b as usize] = result;
        result
    }

    fn node_accept(&self, node: usize) -> Option<usize> {
        unpoison(self.cache.lock()).nodes[node].accept
    }

    fn node_accept_at_eoi(&self, node: usize) -> Option<usize> {
        let cache = unpoison(self.cache.lock());
        let n = &cache.nodes[node];
        n.accept_at_eoi.or(n.accept)
    }

    /// True if some byte transitions out of `node` — i.e. further input
    /// could still extend or complete a match. Cached per node.
    fn node_live(&self, node: usize) -> bool {
        if let Some(live) = unpoison(self.cache.lock()).nodes[node].live {
            return live;
        }
        // Direct NFA check: any byte-class transition from any member state
        // means more input can make progress.
        let states: Vec<StateId> = {
            let cache = unpoison(self.cache.lock());
            cache.nodes[node].states.to_vec()
        };
        let live = states
            .iter()
            .any(|&s| !self.nfa.states[s as usize].byte.is_empty());
        unpoison(self.cache.lock()).nodes[node].live = Some(live);
        live
    }

    /// Number of DFA nodes materialized so far (observability/ablation).
    pub fn dfa_nodes(&self) -> usize {
        unpoison(self.cache.lock()).nodes.len()
    }

    /// Starts an incremental matcher anchored at the current input position.
    pub fn matcher(self: &Arc<Self>) -> Matcher {
        let mut m = Matcher {
            re: self.clone(),
            node: self.start_node as i32,
            consumed: 0,
            last: None,
        };
        // The empty prefix may already match (e.g. `a*`).
        if let Some(p) = self.node_accept(self.start_node) {
            m.last = Some((p, 0));
        }
        m
    }

    /// One-shot anchored match over a complete buffer.
    pub fn match_prefix(self: &Arc<Self>, input: &[u8]) -> MatchVerdict {
        let mut m = self.matcher();
        m.feed(input);
        m.finish()
    }

    /// Unanchored search: first position (and verdict) where any pattern
    /// matches. O(n·m) worst case; used for utility scanning, not the
    /// parsing hot path.
    pub fn find(self: &Arc<Self>, input: &[u8]) -> Option<(usize, usize, u64)> {
        for start in 0..=input.len() {
            if let MatchVerdict::Match { pattern, len } = self.match_prefix(&input[start..]) {
                return Some((start, pattern, len));
            }
        }
        None
    }
}

/// An in-progress anchored match; feed chunks as they arrive.
#[derive(Debug)]
pub struct Matcher {
    re: Arc<Regex>,
    /// Current DFA node, or TRANS_DEAD once no continuation is possible.
    node: i32,
    /// Total bytes consumed so far.
    consumed: u64,
    /// Longest accept seen: (pattern, length).
    last: Option<(usize, u64)>,
}

impl Matcher {
    /// Feeds a chunk. Returns [`MatchStatus::Failed`] once no match can ever
    /// complete (the caller can stop buffering input).
    pub fn feed(&mut self, chunk: &[u8]) -> MatchStatus {
        if self.node == TRANS_DEAD {
            return self.status();
        }
        for &b in chunk {
            let next = self.re.step(self.node as usize, b);
            self.consumed += 1;
            if next == TRANS_DEAD {
                self.node = TRANS_DEAD;
                break;
            }
            self.node = next;
            if let Some(p) = self.re.node_accept(next as usize) {
                let better = match self.last {
                    Some((lp, ll)) => self.consumed > ll || (self.consumed == ll && p < lp),
                    None => true,
                };
                if better {
                    self.last = Some((p, self.consumed));
                }
            }
        }
        self.status()
    }

    fn status(&self) -> MatchStatus {
        if self.node == TRANS_DEAD && self.last.is_none() {
            MatchStatus::Failed
        } else {
            MatchStatus::Ongoing
        }
    }

    /// True if a longer match could still be produced by more input: the
    /// match is not dead *and* the current DFA node has at least one
    /// outgoing byte transition. (A fully-consumed token like `\r?\n`
    /// lands on a node with no exits; reporting "could extend" there would
    /// stall incremental parsers waiting for input that cannot matter.)
    pub fn can_extend(&self) -> bool {
        self.node != TRANS_DEAD && self.re.node_live(self.node as usize)
    }

    /// The best match found so far, if any (may grow with more input while
    /// [`Matcher::can_extend`] holds).
    pub fn current(&self) -> Option<(usize, u64)> {
        self.last
    }

    /// Total bytes consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Declares end of input and returns the verdict, taking `$` anchors
    /// into account.
    pub fn finish(&self) -> MatchVerdict {
        let mut best = self.last;
        if self.node != TRANS_DEAD {
            if let Some(p) = self.re.node_accept_at_eoi(self.node as usize) {
                let better = match best {
                    Some((bp, bl)) => self.consumed > bl || (self.consumed == bl && p < bp),
                    None => true,
                };
                if better {
                    best = Some((p, self.consumed));
                }
            }
        }
        match best {
            Some((pattern, len)) => MatchVerdict::Match { pattern, len },
            None => MatchVerdict::NoMatch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, input: &[u8]) -> MatchVerdict {
        Regex::new(pat).unwrap().match_prefix(input)
    }

    fn match_len(pat: &str, input: &[u8]) -> Option<u64> {
        match m(pat, input) {
            MatchVerdict::Match { len, .. } => Some(len),
            MatchVerdict::NoMatch => None,
        }
    }

    #[test]
    fn literals() {
        assert_eq!(match_len("GET", b"GET /"), Some(3));
        assert_eq!(match_len("GET", b"GE"), None);
        assert_eq!(match_len("GET", b"POST"), None);
    }

    #[test]
    fn classes_and_ranges() {
        assert_eq!(match_len("[a-z]+", b"abc123"), Some(3));
        assert_eq!(match_len("[^ \\t\\r\\n]+", b"token rest"), Some(5));
        assert_eq!(match_len("[0-9]+\\.[0-9]+", b"1.15x"), Some(4));
        assert_eq!(match_len("[-a-z]+", b"-ab-"), Some(4)); // literal '-' first
    }

    #[test]
    fn alternation_and_groups() {
        assert_eq!(match_len("GET|POST|HEAD", b"POST /"), Some(4));
        assert_eq!(match_len("ab(cd|ef)+g", b"abcdefcdg!"), Some(9));
        assert_eq!(match_len("(?:ab)+", b"ababab"), Some(6));
    }

    #[test]
    fn quantifiers() {
        assert_eq!(match_len("a*", b"aaab"), Some(3));
        assert_eq!(match_len("a*", b"b"), Some(0)); // empty match allowed
        assert_eq!(match_len("a+", b"b"), None);
        assert_eq!(match_len("ab?c", b"ac"), Some(2));
        assert_eq!(match_len("ab?c", b"abc"), Some(3));
    }

    #[test]
    fn counted_repeats() {
        assert_eq!(match_len("a{3}", b"aaaa"), Some(3));
        assert_eq!(match_len("a{2,4}", b"aaaaa"), Some(4));
        assert_eq!(match_len("a{2,}", b"aaaaa"), Some(5));
        assert_eq!(match_len("a{3}", b"aa"), None);
        assert!(Regex::new("a{4,2}").is_err());
        assert!(Regex::new(&format!("a{{{}}}", MAX_REPEAT + 1)).is_err());
    }

    #[test]
    fn escapes() {
        assert_eq!(match_len("\\r?\\n", b"\r\nx"), Some(2));
        assert_eq!(match_len("\\r?\\n", b"\nx"), Some(1));
        assert_eq!(match_len("\\d+", b"42x"), Some(2));
        assert_eq!(match_len("\\w+", b"foo_bar baz"), Some(7));
        assert_eq!(match_len("\\s+", b"  \t x"), Some(4));
        assert_eq!(match_len("\\x41+", b"AAB"), Some(2));
        assert_eq!(match_len("HTTP\\/", b"HTTP/1.1"), Some(5));
    }

    #[test]
    fn dot_excludes_newline() {
        assert_eq!(match_len(".+", b"ab\ncd"), Some(2));
    }

    #[test]
    fn longest_match_wins() {
        // Leftmost-longest: prefer the longer alternative.
        assert_eq!(match_len("a|ab", b"ab"), Some(2));
        assert_eq!(match_len("ab|a", b"ab"), Some(2));
    }

    #[test]
    fn multi_pattern_ids() {
        let re = Regex::set(&["GET", "POST", "[A-Z]+"]).unwrap();
        match re.match_prefix(b"POST /x") {
            MatchVerdict::Match { pattern, len } => {
                assert_eq!((pattern, len), (1, 4));
            }
            _ => panic!("expected match"),
        }
        // Tie at same length: lowest pattern index wins.
        match re.match_prefix(b"GET") {
            MatchVerdict::Match { pattern, len } => {
                assert_eq!((pattern, len), (0, 3));
            }
            _ => panic!("expected match"),
        }
        // Only the generic pattern matches.
        match re.match_prefix(b"DELETE x") {
            MatchVerdict::Match { pattern, len } => {
                assert_eq!((pattern, len), (2, 6));
            }
            _ => panic!("expected match"),
        }
    }

    #[test]
    fn incremental_across_chunks() {
        let re = Regex::new("[A-Z]+ [^ ]+ HTTP\\/[0-9]\\.[0-9]").unwrap();
        let mut mt = re.matcher();
        assert_eq!(mt.feed(b"GET /ind"), MatchStatus::Ongoing);
        assert_eq!(mt.feed(b"ex.html HT"), MatchStatus::Ongoing);
        assert_eq!(mt.feed(b"TP/1.1"), MatchStatus::Ongoing);
        assert_eq!(
            mt.finish(),
            MatchVerdict::Match {
                pattern: 0,
                len: 24
            }
        );
    }

    #[test]
    fn incremental_failure_detected_early() {
        let re = Regex::new("GET ").unwrap();
        let mut mt = re.matcher();
        assert_eq!(mt.feed(b"GE"), MatchStatus::Ongoing);
        assert_eq!(mt.feed(b"X"), MatchStatus::Failed);
        assert!(!mt.can_extend());
        assert_eq!(mt.finish(), MatchVerdict::NoMatch);
        // Further feeds are harmless no-ops.
        assert_eq!(mt.feed(b"T "), MatchStatus::Failed);
    }

    #[test]
    fn incremental_match_can_grow() {
        let re = Regex::new("[0-9]+").unwrap();
        let mut mt = re.matcher();
        mt.feed(b"12");
        assert_eq!(mt.current(), Some((0, 2)));
        assert!(mt.can_extend());
        mt.feed(b"34");
        assert_eq!(mt.current(), Some((0, 4)));
        mt.feed(b"x");
        assert!(!mt.can_extend());
        assert_eq!(mt.finish(), MatchVerdict::Match { pattern: 0, len: 4 });
    }

    #[test]
    fn eoi_anchor() {
        let re = Regex::new("abc$").unwrap();
        assert_eq!(
            re.match_prefix(b"abc"),
            MatchVerdict::Match { pattern: 0, len: 3 }
        );
        assert_eq!(re.match_prefix(b"abcd"), MatchVerdict::NoMatch);
        let mut mt = re.matcher();
        mt.feed(b"abc");
        // Not final until finish(): more input could still arrive.
        assert_eq!(mt.current(), None);
        assert_eq!(mt.finish(), MatchVerdict::Match { pattern: 0, len: 3 });
    }

    #[test]
    fn leading_caret_is_noop() {
        assert_eq!(match_len("^GET", b"GET"), Some(3));
    }

    #[test]
    fn find_unanchored() {
        let re = Regex::new("needle").unwrap();
        assert_eq!(re.find(b"hay needle hay"), Some((4, 0, 6)));
        assert_eq!(re.find(b"nothing here"), None);
    }

    #[test]
    fn dfa_cache_grows_then_stabilizes() {
        let re = Regex::new("[a-z]+[0-9]+").unwrap();
        let before = re.dfa_nodes();
        for _ in 0..100 {
            let _ = re.match_prefix(b"abc123");
        }
        let after_first = re.dfa_nodes();
        for _ in 0..100 {
            let _ = re.match_prefix(b"abc123");
        }
        assert!(after_first > before);
        assert_eq!(re.dfa_nodes(), after_first, "cache must stabilize");
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(").is_err());
        assert!(Regex::new(")").is_err());
        assert!(Regex::new("[").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::new("\\xZZ").is_err());
        assert!(Regex::set(&[]).is_err());
    }

    #[test]
    fn paper_http_tokens() {
        // The token definitions from Figure 6(a) of the paper.
        let token = Regex::new("[^ \\t\\r\\n]+").unwrap();
        let newline = Regex::new("\\r?\\n").unwrap();
        let whitespace = Regex::new("[ \\t]+").unwrap();
        let version = Regex::new("HTTP\\/").unwrap();
        assert_eq!(
            token.match_prefix(b"GET rest"),
            MatchVerdict::Match { pattern: 0, len: 3 }
        );
        assert_eq!(
            newline.match_prefix(b"\r\n"),
            MatchVerdict::Match { pattern: 0, len: 2 }
        );
        assert_eq!(
            whitespace.match_prefix(b"   x"),
            MatchVerdict::Match { pattern: 0, len: 3 }
        );
        assert_eq!(
            version.match_prefix(b"HTTP/1.1"),
            MatchVerdict::Match { pattern: 0, len: 5 }
        );
    }

    #[test]
    fn paper_ssh_banner_tokens() {
        // Figure 7(a): SSH banner grammar tokens.
        let magic = Regex::new("SSH-").unwrap();
        let version = Regex::new("[^-]*").unwrap();
        let software = Regex::new("[^\\r\\n]*").unwrap();
        assert_eq!(
            magic.match_prefix(b"SSH-2.0-x"),
            MatchVerdict::Match { pattern: 0, len: 4 }
        );
        assert_eq!(
            version.match_prefix(b"2.0-OpenSSH"),
            MatchVerdict::Match { pattern: 0, len: 3 }
        );
        assert_eq!(
            software.match_prefix(b"OpenSSH_3.9p1\r\n"),
            MatchVerdict::Match {
                pattern: 0,
                len: 13
            }
        );
    }
}
