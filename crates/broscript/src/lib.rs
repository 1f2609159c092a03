//! # broscript — a Bro-style script language on HILTI (§4, §6.5)
//!
//! The paper's fourth host application: a compiler translating Bro scripts
//! into HILTI, demonstrating "that HILTI can indeed support such a complex,
//! highly stateful language". The language here is a Bro-flavored
//! event-handler language with the features the §6 case studies exercise:
//! typed globals, `set`/`table` containers with `&create_expire` /
//! `&read_expire` state management, vectors, event handlers, functions,
//! `for`-loops over containers, logging, and a library of built-in
//! functions (`cat`, `sha1`, `mime_type`, ...).
//!
//! Two execution engines share one AST:
//! * [`interp`] — a tree-walking interpreter, playing the role of Bro's
//!   standard script interpreter (the §6.5 baseline), and
//! * [`compile`] — the HILTI compiler: event handlers become HILTI hooks
//!   (Figure 8), globals become thread-local HILTI globals, and the
//!   program runs on the bytecode VM.
//!
//! [`host`] is the event-dispatch layer — Bro's event engine: it converts
//! [`netpkt::events::Event`]s into script values (the measured
//! "HILTI-to-Bro glue" for the compiled engine) and triggers handlers on
//! whichever engine is selected. [`scripts`] bundles the analysis scripts
//! used by the evaluation (`http.bro`, `dns.bro`, `track.bro`, `fib.bro`).
//! The end-to-end path traces → parsers → scripts → logs exists once, as
//! the crate-private delivery core (a flow front end plus a per-flow
//! analyzer), with two drivers: [`pipeline`] runs it inline for the
//! experiments, [`parallel`] shards it across worker threads.

pub mod ast;
pub mod compile;
mod delivery;
pub mod host;
pub mod interp;
pub mod parallel;
pub mod parse;
pub mod pipeline;
pub mod scripts;

pub use ast::Script;
pub use host::{Engine, ScriptHost};
pub use parse::parse_script;
