//! # hilti-rt — the HILTI runtime library
//!
//! This crate implements the runtime substrate of the HILTI abstract machine
//! (Vallentin et al., IMC 2014, §3.2 and §5 "Runtime Library"): the
//! domain-specific value types, the stateful containers with built-in
//! expiration (and the deadline queue behind them), timers and timer managers, thread-safe channels, the
//! incremental multi-pattern regular-expression engine, the ACL-style packet
//! classifier, overlay unpacking primitives, the flight recorder that
//! attributes wall-clock time to pipeline stages, and small utilities
//! (SHA-1, FNV hashing, the seeded generator behind synthetic traces and
//! randomized tests) that the host applications need.
//!
//! Everything here is engine-agnostic: both the HILTI bytecode VM and the
//! reference IR interpreter (crate `hilti`) call into these types, exactly as
//! the paper's generated LLVM code calls into its C runtime library.
//!
//! The modules deliberately avoid global state. Where the paper's runtime
//! keeps per-virtual-thread context objects, the corresponding state here is
//! owned by the caller and passed explicitly (e.g. containers take the
//! current [`time::Time`] when the expiration policy needs it).

pub mod addr;
pub mod bytestring;
pub mod channel;
pub mod classifier;
pub mod containers;
pub mod deadline;
pub mod error;
pub mod file;
pub mod hashutil;
pub mod limits;
pub mod overlay;
pub mod regexp;
pub mod rng;
pub mod sha1;
pub mod spsc;
pub mod telemetry;
pub mod text;
pub mod time;
pub mod timer;
pub mod trace;

pub use addr::{Addr, Network, Port, Protocol};
pub use bytestring::Bytes;
pub use error::{RtError, RtResult};
pub use limits::{AllocBudget, FuelMeter, ResourceLimits};
pub use telemetry::{Telemetry, TelemetrySnapshot};
pub use time::{Interval, Time};

/// The guard of a lock or condvar wait, recovered if the lock is poisoned.
/// Analysis shards catch panics, and the telemetry registry and log files
/// are shared across shards: one shard's panic must not fail the others'
/// locks.
fn unpoison<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
