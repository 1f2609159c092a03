//! # bench — the evaluation harness (§6 of the paper)
//!
//! One function per experiment, each regenerating a table or figure of the
//! paper's evaluation on the synthetic workloads (see DESIGN.md for the
//! experiment index E1–E9 and ablations A1–A3). The `repro` binary prints
//! the paper-reported values next to the measured ones.

pub mod artifacts;
pub mod experiments;

pub use experiments::*;
