//! Umbrella crate for the HILTI reproduction workspace.
//!
//! This crate only re-exports the member crates so that the workspace-level
//! examples (`examples/`) and integration tests (`tests/`) can exercise the
//! whole platform through one dependency. The actual functionality lives in
//! the member crates:
//!
//! * [`hilti`] — the abstract machine: IR, parser, type checker, optimizer,
//!   bytecode VM, interpreter, linker, fibers, virtual threads, host API.
//! * [`hilti_rt`] — the runtime library: domain types, containers with state
//!   management, timers, channels, regexp, classifier, flight recorder.
//! * [`netpkt`] — packet substrate: pcap I/O, decoding, reassembly, synthetic
//!   traces, and the handwritten baseline protocol parsers.
//! * [`hilti_bpf`], [`hilti_firewall`], [`binpac`], [`broscript`] — the four
//!   host applications from §4 of the paper.

pub use binpac;
pub use broscript;
pub use hilti;
pub use hilti_bpf;
pub use hilti_firewall;
pub use hilti_rt;
pub use netpkt;
