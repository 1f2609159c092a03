//! Confines the process to one CPU while `http_skew_par` is measured.
//!
//! Two shards plus the dispatcher are three threads. On the two shared
//! cores of the reference host the kernel must stack two of them, and which
//! two decides the wall time: a repetition takes 0.63 s when the busiest
//! shard has a core to itself and 0.83 s when it shares one with the
//! dispatcher, the placement sticks for minutes, and 0.83 s is also what the
//! run takes on a single core. A metric that moves by a third with nothing
//! changed cannot be held to a bound, so the end-to-end pass of that
//! workload runs on one CPU, where wall time is the CPU the whole parallel
//! pipeline costs. Scaling is reported by the traced pass, unpinned and
//! ungated (`parallel.wall_speedup`).
//!
//! The threads belong to the library, so the only handle is the affinity
//! mask they inherit from the calling thread; `std` has no call for that.

/// Restores the previous affinity mask when dropped.
pub struct OneCpu(Option<imp::CpuSet>);

impl OneCpu {
    /// Pins the calling thread, and every thread it spawns from now on, to
    /// the highest-numbered CPU it may run on (CPU 0 takes most interrupts).
    /// Where that is not possible the run goes on unpinned.
    pub fn pin() -> OneCpu {
        OneCpu(imp::pin())
    }

    pub fn is_pinned(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(previous) = self.0 {
            imp::restore(&previous);
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// The kernel's `cpu_set_t`: 1024 bits, CPU n at bit n % 64 of word n / 64.
    pub type CpuSet = [u64; 16];
    const SIZE: usize = std::mem::size_of::<CpuSet>();

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's mask.
    pub fn current() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; `set` is a live, writable
        // buffer of exactly the size passed.
        (unsafe { sched_getaffinity(0, SIZE, &mut set) } == 0).then_some(set)
    }

    fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed; the
        // kernel rejects a mask that names no CPU the thread may use.
        unsafe { sched_setaffinity(0, SIZE, mask) == 0 }
    }

    pub fn pin() -> Option<CpuSet> {
        let previous = current()?;
        let word = previous.iter().rposition(|w| *w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - previous[word].leading_zeros());
        set(&one).then_some(previous)
    }

    pub fn restore(previous: &CpuSet) {
        // A failure leaves the thread pinned, which only slows what follows.
        let _ = set(previous);
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub type CpuSet = ();

    pub fn pin() -> Option<CpuSet> {
        None
    }

    pub fn restore(_: &CpuSet) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn allowed_cpus() -> u32 {
        let set = imp::current().expect("sched_getaffinity works on Linux");
        set.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn pins_to_one_cpu_that_spawned_threads_inherit_and_restores() {
        // On its own thread: the mask is per thread and tests share a process.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            let pinned = OneCpu::pin();
            assert!(pinned.is_pinned());
            assert_eq!(allowed_cpus(), 1);
            assert_eq!(std::thread::spawn(allowed_cpus).join().unwrap(), 1);
            drop(pinned);
            assert_eq!(allowed_cpus(), before);
        })
        .join()
        .unwrap();
    }
}
