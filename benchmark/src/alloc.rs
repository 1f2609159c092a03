//! Counting global allocator for `peak_heap_mib` and the per-stage
//! `*.allocs_per_pkt` layer metrics.
//!
//! Counting is off by default and while end-to-end time is measured: the
//! off path is the system allocator plus one relaxed load. While on, every
//! thread's allocations are counted (the parallel workload's shard
//! threads included).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size() as u64);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size() as u64);
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            shrank(layout.size() as u64);
            grew(new_size as u64);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }
}

fn grew(n: u64) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(live, Relaxed);
}

/// Memory allocated before counting was switched on may be freed while it
/// is on; saturate so such a free cannot wrap the live count.
fn shrank(n: u64) {
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| Some(live.saturating_sub(n)));
}

/// Switches counting on with the live/peak/allocation counts at zero, so
/// `peak_bytes` afterwards reads the peak *above* this call's baseline.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ALLOCS.store(0, Relaxed);
    ON.store(true, Relaxed);
}

pub fn stop() {
    ON.store(false, Relaxed);
}

/// Peak live bytes since `start`.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Allocation calls (alloc + realloc) since `start`.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the counters are process-wide and `cargo test`
    // runs tests on parallel threads.
    #[test]
    fn counts_only_while_switched_on() {
        stop();
        let before = (allocs(), peak_bytes());
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
        drop(v);
        assert_eq!((allocs(), peak_bytes()), before, "counted while off");

        start();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
        let (a, p) = (allocs(), peak_bytes());
        drop(v);
        stop();
        assert!(a >= 1, "allocation not counted");
        assert!(p >= 1 << 20, "peak {p} below the 1 MiB just allocated");
    }
}
