//! # hilti — the HILTI abstract machine
//!
//! This crate implements the paper's primary contribution (§3): an abstract
//! machine model tailored to deep, stateful network traffic analysis, plus
//! the compiler toolchain around it.
//!
//! * [`types`] — the static type system: domain types (addr, net, port,
//!   time, interval), containers, references, tuples, structs, …
//! * [`value`] — runtime values, and [`value::HashKey`], the one key
//!   identity of sets and maps.
//! * [`ir`] — the intermediate representation: modules, functions, hooks,
//!   thread-local globals, blocks, and the ~200-mnemonic instruction set of
//!   Table 1.
//! * [`ops`] — the shared operational semantics of data instructions; both
//!   execution engines delegate here, like the paper's generated code calls
//!   into one runtime library.
//! * [`parser`] — the textual `.hlt` syntax (Figures 3–5 of the paper).
//! * [`check`] — the static validator/type checker.
//! * [`passes`] — IR optimizations: constant folding, copy propagation,
//!   common-subexpression elimination, dead-code elimination, jump
//!   threading (§6.6 names these as the missing optimizations; here they
//!   are implemented and benchmarked as ablations).
//! * [`linker`] — merges compilation units: thread-local global layout and
//!   cross-unit hook merging (§5 "Linker").
//! * [`interp`] — the tree-walking IR interpreter (the *interpreted*
//!   baseline of §6.5).
//! * [`bytecode`] + [`vm`] — lowering to flat register bytecode and the
//!   fiber-capable virtual machine (the *compiled* engine; see DESIGN.md
//!   for the LLVM substitution rationale).
//! * [`specialize`] — static bytecode specialization: rewrites generic
//!   instructions into direct typed variants and fused compare-and-branch
//!   superinstructions the VM executes clone-free.
//! * [`fiber`] — suspendable computations for transparent incremental
//!   processing (§3.2).
//! * [`threads`] — the Erlang-style virtual-thread scheduler with
//!   hash-based placement and deep-copy message passing.
//! * [`host`] — the host-application API (the analog of the generated C
//!   stubs): build programs, register host functions, call HILTI functions,
//!   drive fibers.
//!
//! ## Quick example
//!
//! ```
//! use hilti::host::Program;
//!
//! let src = r#"
//! module Main
//! void run() {
//!     call Hilti::print "Hello, World!"
//! }
//! "#;
//! let mut prog = Program::from_source(src).unwrap();
//! prog.run_void("Main::run", &[]).unwrap();
//! assert_eq!(prog.take_output(), vec!["Hello, World!"]);
//! ```

pub mod bytecode;
pub mod check;
pub mod fiber;
pub mod host;
pub mod interp;
pub mod ir;
pub mod linker;
pub mod ops;
pub mod parser;
pub mod passes;
pub mod specialize;
pub mod threads;
pub mod types;
pub mod value;
pub mod vm;

pub use host::Program;
pub use types::Type;
pub use value::Value;
