//! One deadline record per live entry: the expiry queue behind HILTI's
//! expiring containers and the flow table's idle sweep (§2 "State
//! Management", §3.2).
//!
//! An entry carries its authoritative deadline in a [`Due`]: the time it
//! is due at plus a [`Tie`] that orders entries due at the same time. A
//! [`DeadlineQueue`] holds at most one *record* `(deadline, tie, key)` per
//! entry, never later than the entry's `Due`. A touch moves the `Due` and
//! pushes nothing; a record that pops before its entry is due is re-armed
//! at the entry's pair. Only two stamps push: an entry's first (or its
//! first since the queue forgot it), and one that moves the deadline
//! *earlier* — a reordered packet, a shortened timeout — which leaves the
//! old record stale.
//!
//! Re-arming uses exactly the entry's `(deadline, tie)`, also when that
//! pair is already due, so entries leave the queue in `(deadline, tie)`
//! order: with the stamp seq as the tie, the order a queue with one record
//! per touch would give. A record is its entry's own only while the
//! entry's `armed` id names it, which is how records left behind by
//! `remove` + re-insert or by an earlier-moving stamp are recognised and
//! dropped when they pop.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hash};

use crate::time::Time;

/// `Due::armed` of an entry the queue holds no record for.
const UNARMED: u64 = u64::MAX;

/// What orders entries due at the same time: the seq of their latest
/// stamp (`u64`, HILTI's containers), or nothing (`()`, where that order
/// is never observed and the entry need not carry it).
pub trait Tie: Copy + Ord {
    /// The tie of the stamp numbered `seq`.
    fn of_stamp(seq: u64) -> Self;
}

impl Tie for u64 {
    fn of_stamp(seq: u64) -> u64 {
        seq
    }
}

impl Tie for () {
    fn of_stamp(_: u64) {}
}

/// An entry's side of a [`DeadlineQueue`]: its authoritative `(deadline,
/// tie)` and the id of the record standing for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Due<T = u64> {
    at: Time,
    tie: T,
    armed: u64,
}

// One word beyond what an entry held before it had a record: a container
// entry kept `(deadline, stamp seq)`, a flow its last packet time.
const _: () = assert!(std::mem::size_of::<Due>() == 24);
const _: () = assert!(std::mem::size_of::<Due<()>>() == 16);

impl<T: Tie> Due<T> {
    /// Due at `at`, and unknown to any queue (its next stamp arms it).
    pub fn unarmed(at: Time) -> Self {
        Due {
            at,
            tie: T::of_stamp(u64::MAX),
            armed: UNARMED,
        }
    }

    /// Never due, and unknown to any queue.
    pub fn never() -> Self {
        Self::unarmed(Time::from_nanos(u64::MAX))
    }

    /// The time this entry is due at.
    pub fn at(&self) -> Time {
        self.at
    }

    /// Forgets the entry's record: the queue it was in has been cleared.
    pub fn disarm(&mut self) {
        self.armed = UNARMED;
    }
}

/// A record [`DeadlineQueue::stamp`] asks the caller to queue under the
/// entry's key (see [`DeadlineQueue::arm`]).
#[must_use = "an entry whose stamp returned an `Arm` has no record until it is armed"]
pub struct Arm<T> {
    at: Time,
    tie: T,
    id: u64,
}

struct Record<K, T> {
    at: Time,
    tie: T,
    /// Fixed when the record is pushed; a re-arm moves `(at, tie)` only.
    id: u64,
    key: K,
}

impl<K, T: Tie> Record<K, T> {
    fn order(&self) -> (Time, T, u64) {
        (self.at, self.tie, self.id)
    }
}

// Reversed: `BinaryHeap` is a max-heap, the queue pops the earliest.
// Ids are unique among queued records, so the key never breaks a tie.
impl<K, T: Tie> Ord for Record<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.order().cmp(&self.order())
    }
}

impl<K, T: Tie> PartialOrd for Record<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K, T: Tie> PartialEq for Record<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl<K, T: Tie> Eq for Record<K, T> {}

/// A deadline-ordered queue holding at most one record per live entry of
/// a `HashMap<K, _>` whose values carry a [`Due`]. See the module docs.
pub struct DeadlineQueue<K, T = u64> {
    heap: BinaryHeap<Record<K, T>>,
    next_seq: u64,
    examined: u64,
}

impl<K: Hash + Eq, T: Tie> DeadlineQueue<K, T> {
    pub fn new() -> Self {
        DeadlineQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            examined: 0,
        }
    }

    /// Records queued, live or stale (like `TimerMgr::heaped`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Records popped so far, whether they evicted, re-armed or were
    /// stale: the work the queue has done.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Drops every record. Entries still holding a [`Due`] from this queue
    /// must be [disarmed](Due::disarm).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Moves `due` to `at` under a fresh stamp. Returns the record to
    /// [`arm`](Self::arm) when the entry needs one: it has none, or `at` is
    /// earlier than its previous deadline, so its record may be too late.
    pub fn stamp(&mut self, due: &mut Due<T>, at: Time) -> Option<Arm<T>> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let needs_record = due.armed == UNARMED || at < due.at;
        (due.at, due.tie) = (at, T::of_stamp(seq));
        needs_record.then(|| {
            due.armed = seq;
            Arm {
                at,
                tie: due.tie,
                id: seq,
            }
        })
    }

    /// Queues the record a [`stamp`](Self::stamp) asked for.
    pub fn arm(&mut self, arm: Arm<T>, key: K) {
        let Arm { at, tie, id } = arm;
        self.heap.push(Record { at, tie, id, key });
    }

    /// Removes and returns the next entry of `entries` that is due at
    /// `now` (deadline ≤ `now`), in `(deadline, tie)` order; `due` finds
    /// an entry's [`Due`]. Stale records are dropped and early ones
    /// re-armed on the way.
    pub fn pop_due<M, S: BuildHasher>(
        &mut self,
        now: Time,
        entries: &mut HashMap<K, M, S>,
        due: impl Fn(&mut M) -> &mut Due<T>,
    ) -> Option<(K, M)> {
        while let Some(mut top) = self.heap.peek_mut() {
            if top.at > now {
                break;
            }
            self.examined += 1;
            match entries.get_mut(&top.key).map(&due) {
                Some(d) if d.armed == top.id => {
                    if (d.at, d.tie) == (top.at, top.tie) {
                        let key = PeekMut::pop(top).key;
                        let entry = entries.remove(&key).expect("entry just found");
                        return Some((key, entry));
                    }
                    // Touched since it was armed: move the record to the
                    // entry's pair, which re-sifts it when `top` drops.
                    debug_assert!((d.at, d.tie) > (top.at, top.tie));
                    (top.at, top.tie) = (d.at, d.tie);
                }
                // Removed, or superseded by a record pushed since.
                _ => {
                    PeekMut::pop(top);
                }
            }
        }
        None
    }
}

impl<K: Hash + Eq, T: Tie> Default for DeadlineQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    /// A map of `Due`s driven through `q`, as the containers use it.
    struct Table {
        q: DeadlineQueue<&'static str>,
        entries: HashMap<&'static str, Due>,
    }

    impl Table {
        fn new() -> Table {
            Table {
                q: DeadlineQueue::new(),
                entries: HashMap::new(),
            }
        }

        fn stamp(&mut self, key: &'static str, at: u64) {
            let due = self.entries.entry(key).or_insert_with(Due::never);
            if let Some(arm) = self.q.stamp(due, t(at)) {
                self.q.arm(arm, key);
            }
        }

        fn due(&mut self, now: u64) -> Vec<&'static str> {
            std::iter::from_fn(|| self.q.pop_due(t(now), &mut self.entries, |d| d))
                .map(|(k, _)| k)
                .collect()
        }
    }

    #[test]
    fn touches_push_nothing_and_early_records_rearm() {
        let mut tb = Table::new();
        tb.stamp("a", 10);
        for at in 11..100 {
            tb.stamp("a", at);
        }
        assert_eq!(tb.q.len(), 1);
        assert!(tb.due(50).is_empty(), "re-armed at 99");
        assert_eq!(tb.q.len(), 1);
        assert_eq!(tb.due(99), vec!["a"]);
        assert!(tb.q.is_empty());
    }

    #[test]
    fn order_is_deadline_then_stamp_even_across_rearms() {
        let mut tb = Table::new();
        tb.stamp("a", 1);
        tb.stamp("b", 5);
        tb.stamp("a", 5); // later stamp at the same deadline: after "b"
        tb.stamp("c", 5);
        assert_eq!(tb.due(5), vec!["b", "a", "c"]);
    }

    #[test]
    fn earlier_stamp_requeues_and_strands_the_old_record() {
        let mut tb = Table::new();
        tb.stamp("a", 50);
        tb.stamp("a", 20); // moved earlier: a second record
        assert_eq!(tb.q.len(), 2);
        assert_eq!(tb.due(20), vec!["a"]);
        tb.stamp("a", 60); // a new incarnation; the record at 50 is stale
        assert!(tb.due(55).is_empty());
        assert_eq!(tb.q.len(), 1);
        assert_eq!(tb.due(60), vec!["a"]);
    }

    #[test]
    fn record_of_a_removed_entry_is_stale_after_reinsert() {
        let mut tb = Table::new();
        tb.stamp("k", 10);
        tb.entries.remove("k");
        tb.stamp("k", 30);
        assert!(tb.due(10).is_empty());
        assert_eq!(tb.q.examined(), 1);
        assert_eq!(tb.due(30), vec!["k"]);
    }

    #[test]
    fn disarmed_entries_are_armed_by_their_next_stamp() {
        let mut tb = Table::new();
        tb.stamp("k", 10);
        tb.q.clear();
        tb.entries.values_mut().for_each(Due::disarm);
        assert!(tb.due(100).is_empty());
        tb.stamp("k", 200);
        assert_eq!(tb.due(200), vec!["k"]);
    }
}
