//! # binpac — BinPAC++, a "yacc for network protocols" on HILTI (§4)
//!
//! The paper's third host application, and the most substantial: a
//! reimplementation of the BinPAC parser generator targeting HILTI instead
//! of C++. Given a protocol grammar — units of fields, where fields are
//! regexp tokens, fixed-width integers, length-delimited byte runs,
//! sub-units, repetitions — the compiler emits HILTI functions that parse
//! wire input into struct values, **fully incrementally**: generated
//! parsers suspend whenever they run out of input (through the VM's
//! `Hilti::WouldBlock` fiber mechanism) and transparently resume once the
//! host appends more (§4: "fully incremental LL(1)-parsers that postpone
//! parsing whenever they run out of input").
//!
//! * [`grammar`] — the grammar model (the `.pac2` AST).
//! * [`codegen`] — lowering grammars to HILTI IR text.
//! * [`parser`] — the compiled grammar: sessions, fibers and host hooks by
//!   name.
//! * [`analyzer`] — the one analyzer driver, [`BinpacAnalyzer`]: a
//!   [`Protocol`] is a grammar, a [`Mode`] (stream: a session pair per
//!   connection; datagram: one whole parse per payload) and a table of
//!   [`EventDecl`]s, Figure 7's `.evt` layer. Each declaration names a
//!   unit hook and the `(unit, field)` names its builder reads, resolved
//!   to struct slots once at construction.
//! * [`http`] / [`dns`] — the built-in HTTP and DNS grammars plus their
//!   event declarations, drop-in replacements for the standard
//!   handwritten parsers (Table 2 / Figure 9).

pub mod analyzer;
pub mod codegen;
pub mod dns;
pub mod grammar;
pub mod http;
pub mod parser;

pub use analyzer::{BinpacAnalyzer, EventDecl, Mode, Protocol};
pub use grammar::{Field, FieldKind, Grammar, Unit};
pub use parser::{BinpacParser, Session};
