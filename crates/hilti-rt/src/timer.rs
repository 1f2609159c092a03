//! Timers and timer managers (§3.2): schedule work for the future and
//! maintain multiple independent notions of time.
//!
//! A [`TimerMgr`] owns a virtual clock and a set of pending timers. Advancing
//! the clock (`timer_mgr.advance` in HILTI, driven e.g. by packet
//! timestamps) fires every timer whose deadline has passed, in deadline
//! order. The manager is generic over the payload `T`; the HILTI VM
//! instantiates it with "call this closure", containers instantiate it with
//! eviction records.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use crate::time::Time;

/// Identifies a scheduled timer so it can be cancelled: the manager's
/// sequence number of the timer, counting from 0 per manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u64);

/// A heaped timer. Its sequence number is unique in its manager, so
/// entries compare by `(deadline, seq)` alone, whatever the payload.
struct Entry<T> {
    deadline: Time,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earliest deadline first; FIFO among equal deadlines.
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A timer manager: a virtual clock plus a deadline-ordered queue of timers.
pub struct TimerMgr<T> {
    now: Time,
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Sequence numbers of timers that are scheduled but have neither
    /// fired nor been cancelled. This is the authoritative liveness set:
    /// it makes `cancel` exact (cancelling an already-fired timer is a
    /// recognizable no-op, not a phantom tombstone) and `len` safe.
    pending: HashSet<u64>,
    /// Cancelled-but-still-heaped records, filtered lazily on pop.
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl<T> TimerMgr<T> {
    /// A manager whose clock starts at the epoch.
    pub fn new() -> Self {
        TimerMgr {
            now: Time::ZERO,
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    /// The manager's current notion of time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of live (scheduled, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records physically on the heap, including cancelled
    /// tombstones awaiting lazy removal. Diagnostic: `heaped() - len()`
    /// is the tombstone count, bounded by `len() + 1` thanks to
    /// compaction in [`TimerMgr::cancel`].
    pub fn heaped(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` to fire at `deadline`. Deadlines in the past fire
    /// on the next `advance` call (HILTI semantics: never synchronously).
    pub fn schedule(&mut self, deadline: Time, payload: T) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.heap.push(Reverse(Entry {
            deadline,
            seq,
            payload,
        }));
        TimerId(seq)
    }

    /// Cancels a pending timer. Cancelling an already-fired, already-
    /// cancelled, or unknown timer is a no-op returning `false`.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if !self.pending.remove(&id.0) {
            return false;
        }
        // The heap record stays until popped; mark it for lazy removal.
        self.cancelled.insert(id.0);
        // Tombstones with far deadlines are never popped, so repeated
        // schedule/cancel cycles (idle-timer re-arming does exactly this)
        // would grow the heap without bound. Compact once tombstones
        // outnumber live timers: each compaction is O(n) over a heap at
        // least half dead, so the cost is amortized O(1) per cancel.
        if self.cancelled.len() > self.pending.len() {
            self.compact();
        }
        true
    }

    /// Rebuilds the heap without cancelled records.
    fn compact(&mut self) {
        let cancelled = &mut self.cancelled;
        self.heap = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .filter(|Reverse(e)| !cancelled.remove(&e.seq))
            .collect();
        debug_assert!(
            cancelled.is_empty(),
            "every cancelled id has exactly one heap record"
        );
    }

    /// Moves the clock forward to `to` (never backwards) and returns the
    /// payloads of all timers that fired, in deadline order.
    pub fn advance(&mut self, to: Time) -> Vec<T> {
        if to > self.now {
            self.now = to;
        }
        let mut fired = Vec::new();
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.deadline > self.now {
                break;
            }
            let Reverse(e) = self.heap.pop().expect("peeked entry");
            if !self.cancelled.remove(&e.seq) {
                self.pending.remove(&e.seq);
                fired.push(e.payload);
            }
        }
        fired
    }

    /// The deadline of the next pending timer, if any.
    pub fn next_deadline(&mut self) -> Option<Time> {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.cancelled.contains(&top.seq) {
                let Reverse(e) = self.heap.pop().expect("peeked entry");
                self.cancelled.remove(&e.seq);
                continue;
            }
            return Some(top.deadline);
        }
        None
    }
}

impl<T> Default for TimerMgr<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for TimerMgr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimerMgr {{ now: {}, pending: {} }}",
            self.now,
            self.pending.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Interval;

    #[test]
    fn fires_in_deadline_order() {
        let mut m = TimerMgr::new();
        m.schedule(Time::from_secs(30), "b");
        m.schedule(Time::from_secs(10), "a");
        m.schedule(Time::from_secs(50), "c");
        assert_eq!(m.advance(Time::from_secs(40)), vec!["a", "b"]);
        assert_eq!(m.advance(Time::from_secs(60)), vec!["c"]);
        assert!(m.is_empty());
    }

    #[test]
    fn fifo_among_equal_deadlines() {
        let mut m = TimerMgr::new();
        let t = Time::from_secs(5);
        m.schedule(t, 1);
        m.schedule(t, 2);
        m.schedule(t, 3);
        assert_eq!(m.advance(t), vec![1, 2, 3]);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut m = TimerMgr::<u32>::new();
        m.advance(Time::from_secs(100));
        m.advance(Time::from_secs(50));
        assert_eq!(m.now(), Time::from_secs(100));
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut m = TimerMgr::new();
        m.advance(Time::from_secs(100));
        m.schedule(Time::from_secs(10), "late");
        assert_eq!(m.advance(Time::from_secs(100)), vec!["late"]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut m = TimerMgr::new();
        let a = m.schedule(Time::from_secs(10), "a");
        m.schedule(Time::from_secs(10), "b");
        assert!(m.cancel(a));
        assert!(!m.cancel(a));
        assert_eq!(m.advance(Time::from_secs(10)), vec!["b"]);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut m = TimerMgr::new();
        let a = m.schedule(Time::from_secs(10), 1);
        m.schedule(Time::from_secs(20), 2);
        assert_eq!(m.len(), 2);
        m.cancel(a);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn next_deadline_skips_cancelled() {
        let mut m = TimerMgr::new();
        let a = m.schedule(Time::from_secs(10), 1);
        m.schedule(Time::from_secs(20), 2);
        m.cancel(a);
        assert_eq!(m.next_deadline(), Some(Time::from_secs(20)));
    }

    #[test]
    fn equal_deadline_firing_order_is_schedule_order() {
        // Regression: eviction order must be reproducible run-to-run.
        // Interleave two deadlines and verify strict FIFO within each.
        let mut m = TimerMgr::new();
        let t1 = Time::from_secs(10);
        let t2 = Time::from_secs(20);
        for i in 0..50u64 {
            m.schedule(if i % 2 == 0 { t2 } else { t1 }, i);
        }
        let first = m.advance(t1);
        assert_eq!(first, (0..50).filter(|i| i % 2 == 1).collect::<Vec<_>>());
        let second = m.advance(t2);
        assert_eq!(second, (0..50).filter(|i| i % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_after_fire_is_noop_and_len_stays_exact() {
        // Regression: cancelling an already-fired timer used to leave a
        // permanent tombstone that made len() underflow.
        let mut m = TimerMgr::new();
        let a = m.schedule(Time::from_secs(1), "a");
        assert_eq!(m.advance(Time::from_secs(1)), vec!["a"]);
        assert!(!m.cancel(a), "already fired");
        assert_eq!(m.len(), 0);
        m.schedule(Time::from_secs(2), "b");
        assert_eq!(m.len(), 1);
        assert_eq!(m.advance(Time::from_secs(2)), vec!["b"]);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut m = TimerMgr::new();
        let a = m.schedule(Time::from_secs(5), 1);
        m.schedule(Time::from_secs(5), 2);
        assert!(m.cancel(a));
        assert!(!m.cancel(a));
        assert_eq!(m.len(), 1);
        assert_eq!(m.advance(Time::from_secs(5)), vec![2]);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn schedule_cancel_churn_keeps_heap_compact() {
        // Regression: cancelled-but-heaped tombstones were only dropped on
        // pop, so schedule/cancel cycles on far deadlines (idle-timer
        // re-arming) grew the heap without bound.
        let mut m = TimerMgr::new();
        let keeper = m.schedule(Time::from_secs(1_000_000), 0u64);
        for i in 1..=10_000u64 {
            let id = m.schedule(Time::from_secs(1_000_000), i);
            m.cancel(id);
        }
        assert_eq!(m.len(), 1);
        assert!(
            m.heaped() <= 3,
            "heap kept {} records for 1 live timer",
            m.heaped()
        );
        assert!(m.cancel(keeper));
        assert_eq!(m.heaped(), 0, "compaction drops the last tombstone");
        assert!(m.advance(Time::from_secs(2_000_000)).is_empty());
    }

    #[test]
    fn rearmed_payload_fires_once_at_new_deadline() {
        // Cancel + re-arm the same payload ("uid") at a later deadline:
        // advancing past the old deadline must not fire the cancelled
        // record, and the re-armed one fires exactly once — also when
        // compaction runs between cancel and re-arm.
        let mut m = TimerMgr::new();
        let old = m.schedule(Time::from_secs(10), "uid-1");
        assert!(m.cancel(old));
        m.schedule(Time::from_secs(30), "uid-1");
        assert_eq!(m.advance(Time::from_secs(10)), Vec::<&str>::new());
        assert_eq!(m.advance(Time::from_secs(30)), vec!["uid-1"]);
        assert_eq!(m.advance(Time::from_secs(100)), Vec::<&str>::new());
        assert_eq!(m.len(), 0);
        assert_eq!(m.heaped(), 0);
    }

    #[test]
    fn compaction_preserves_firing_order() {
        // Heavy churn interleaved with live timers must not disturb
        // deadline order or FIFO-within-deadline.
        let mut m = TimerMgr::new();
        let mut live = Vec::new();
        for i in 0..200u64 {
            let id = m.schedule(Time::from_secs(100 + (i % 7)), i);
            if i % 3 == 0 {
                live.push(i);
            } else {
                m.cancel(id);
            }
        }
        assert_eq!(m.len(), live.len());
        assert!(m.heaped() <= 2 * live.len() + 1);
        let fired = m.advance(Time::from_secs(200));
        let mut expected: Vec<u64> = live;
        expected.sort_by_key(|i| (100 + (i % 7), *i));
        assert_eq!(fired, expected);
    }

    #[test]
    fn many_timers_interleaved() {
        let mut m = TimerMgr::new();
        for i in 0..1000u64 {
            m.schedule(Time::from_secs(i % 97), i);
        }
        let mut t = Time::ZERO;
        let mut seen = Vec::new();
        for step in 0..100 {
            t += Interval::from_secs(1);
            let fired = m.advance(t);
            for f in &fired {
                assert!(f % 97 <= step + 1);
            }
            seen.extend(fired);
        }
        assert_eq!(seen.len(), 1000);
    }
}
