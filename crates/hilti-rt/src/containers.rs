//! Containers with built-in state management (§2 "State Management", §3.2).
//!
//! HILTI's maps and sets can be given an expiration policy
//! ([`ExpireStrategy`]): entries are evicted automatically once they have not
//! been created/accessed for a configured timeout, relative to the clock of
//! the timer manager the container is attached to. This is the mechanism the
//! paper's firewall example uses (`set.timeout dyn ExpireStrategy::Access
//! interval(300)`, Figure 5) and the foundation of every long-running
//! session table.
//!
//! Eviction is driven by `advance(now)` (or `expire(now)`, which only
//! counts): the owner (a HILTI timer manager, or the host directly) pushes
//! the clock forward and the container drops expired entries. Each entry
//! carries its own deadline, and the container keeps a
//! [`DeadlineQueue`] holding at most one record per entry: a touch only
//! rewrites the entry's deadline — no queue push, no key clone — and a
//! record that comes due before its entry is re-armed at the entry's
//! deadline. Entries are evicted in (deadline, touch order) order.

use std::cell::Cell;
use std::collections::hash_map::{Entry as HmEntry, VacantEntry};
use std::collections::HashMap;
use std::hash::Hash;

use crate::deadline::{Arm, DeadlineQueue, Due};
use crate::error::RtResult;
use crate::limits::AllocBudget;
use crate::time::{Interval, Time};

/// Flat per-entry overhead charged against an attached [`AllocBudget`],
/// approximating the hash-map slot plus one deadline-queue record.
const ENTRY_OVERHEAD: u64 = 48;

/// Bytes charged per live entry against an attached budget.
fn entry_cost<K, V>() -> u64 {
    (std::mem::size_of::<K>() + std::mem::size_of::<V>()) as u64 + ENTRY_OVERHEAD
}

/// When the expiration timeout for an entry restarts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpireStrategy {
    /// Timeout counts from entry creation; accesses do not refresh it.
    Create,
    /// Timeout counts from the most recent access (read or write).
    Access,
}

type Policy = Option<(ExpireStrategy, Interval)>;

#[derive(Clone, Debug)]
struct Stamped<V> {
    value: V,
    /// A `Cell`, so a read restamps it through the shared lookup that also
    /// yields the map's own key (see [`ExpiringMap::get`]).
    due: Cell<Due>,
}

/// Restarts `due`'s timeout at `now` if a creation (`create`) or an access
/// restarts it under `policy`. `Some` when the entry needs a record queued
/// under its key.
fn restamp<K: Hash + Eq>(
    deadlines: &mut DeadlineQueue<K>,
    policy: Policy,
    due: &mut Due,
    now: Time,
    create: bool,
) -> Option<Arm<u64>> {
    match policy {
        Some((ExpireStrategy::Access, timeout)) => deadlines.stamp(due, now + timeout),
        Some((ExpireStrategy::Create, timeout)) if create => deadlines.stamp(due, now + timeout),
        _ => None,
    }
}

/// Inserts a new entry, queueing its first deadline if `policy` gives it
/// one.
fn insert_new<'a, K: Hash + Eq + Clone, V>(
    deadlines: &mut DeadlineQueue<K>,
    policy: Policy,
    v: VacantEntry<'a, K, Stamped<V>>,
    value: V,
    now: Time,
) -> &'a mut V {
    let mut due = Due::never();
    if let Some(arm) = restamp(deadlines, policy, &mut due, now, true) {
        deadlines.arm(arm, v.key().clone());
    }
    let due = Cell::new(due);
    &mut v.insert(Stamped { value, due }).value
}

/// A hash map with optional per-entry expiration — HILTI's `map` type.
pub struct ExpiringMap<K, V> {
    entries: HashMap<K, Stamped<V>>,
    deadlines: DeadlineQueue<K>,
    policy: Policy,
    /// Entries evicted over the container's lifetime (observability; the
    /// paper stresses measuring state-management behaviour, §3.3).
    evicted: u64,
    /// Optional shared byte budget: live entries are charged a flat
    /// per-entry cost; removal/eviction/teardown credit it back.
    budget: Option<AllocBudget>,
}

impl<K: Eq + Hash + Clone, V> ExpiringMap<K, V> {
    /// A map without expiration (plain hash map semantics).
    pub fn new() -> Self {
        ExpiringMap {
            entries: HashMap::new(),
            deadlines: DeadlineQueue::new(),
            policy: None,
            evicted: 0,
            budget: None,
        }
    }

    /// Bytes charged per live entry against an attached budget.
    fn entry_cost() -> u64 {
        entry_cost::<K, V>()
    }

    /// Attaches a shared byte budget; entries already present are charged
    /// (without enforcement) so accounting stays consistent.
    pub fn set_budget(&mut self, budget: AllocBudget) {
        if let Some(old) = self.budget.take() {
            old.credit(self.entries.len() as u64 * Self::entry_cost());
        }
        budget.charge_unchecked(self.entries.len() as u64 * Self::entry_cost());
        self.budget = Some(budget);
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&AllocBudget> {
        self.budget.as_ref()
    }

    fn credit_entries(&self, n: u64) {
        if let Some(b) = &self.budget {
            b.credit(n * Self::entry_cost());
        }
    }

    /// Sets the expiration policy, like `map.timeout` / `set.timeout`.
    /// Affects entries inserted or touched from now on.
    pub fn set_timeout(&mut self, strategy: ExpireStrategy, timeout: Interval) {
        self.policy = Some((strategy, timeout));
    }

    /// Clears the expiration policy; existing deadlines are forgotten.
    pub fn clear_timeout(&mut self) {
        self.policy = None;
        self.deadlines.clear();
        self.entries
            .values_mut()
            .for_each(|s| s.due.get_mut().disarm());
    }

    pub fn policy(&self) -> Option<(ExpireStrategy, Interval)> {
        self.policy
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries evicted by expiration so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Deadline records queued (a diagnostic, like `TimerMgr::heaped`): at
    /// most one per live entry, plus those of entries removed (or
    /// re-queued earlier) that have not come due yet.
    pub fn queued(&self) -> usize {
        self.deadlines.len()
    }

    /// Inserts or replaces; the entry's timeout (re)starts at `now`.
    ///
    /// An attached budget is charged for genuinely new keys but *not*
    /// enforced here; use [`ExpiringMap::try_insert`] on paths where
    /// growth must be capped.
    pub fn insert(&mut self, key: K, value: V, now: Time) -> Option<V> {
        let unenforced = |b: &AllocBudget, cost| {
            b.charge_unchecked(cost);
            Ok(())
        };
        self.put(key, value, now, unenforced)
            .expect("an unenforced charge cannot fail")
    }

    /// Like [`ExpiringMap::insert`], but fails with
    /// `Hilti::ResourceExhausted` (leaving the map unchanged) when an
    /// attached budget cannot cover a new entry.
    pub fn try_insert(&mut self, key: K, value: V, now: Time) -> RtResult<Option<V>> {
        self.put(key, value, now, AllocBudget::charge)
    }

    /// One probe: the entry says whether the key is new (the budget is
    /// charged first, so a refusal leaves map and queue untouched), then
    /// takes the value and a fresh deadline.
    fn put(
        &mut self,
        key: K,
        value: V,
        now: Time,
        charge: impl FnOnce(&AllocBudget, u64) -> RtResult<()>,
    ) -> RtResult<Option<V>> {
        let (q, policy) = (&mut self.deadlines, self.policy);
        match self.entries.entry(key) {
            HmEntry::Occupied(mut o) => {
                if let Some(arm) = restamp(q, policy, o.get_mut().due.get_mut(), now, true) {
                    q.arm(arm, o.key().clone());
                }
                Ok(Some(std::mem::replace(&mut o.get_mut().value, value)))
            }
            HmEntry::Vacant(v) => {
                if let Some(b) = &self.budget {
                    charge(b, Self::entry_cost())?;
                }
                insert_new(q, policy, v, value, now);
                Ok(None)
            }
        }
    }

    /// Reads an entry. Under [`ExpireStrategy::Access`] this refreshes the
    /// entry's deadline. A record it queues holds the map's own key, not
    /// `key`: a probe may share state its caller goes on changing.
    pub fn get(&mut self, key: &K, now: Time) -> Option<&V> {
        let (own, s) = self.entries.get_key_value(key)?;
        let mut due = s.due.get();
        if let Some(arm) = restamp(&mut self.deadlines, self.policy, &mut due, now, false) {
            self.deadlines.arm(arm, own.clone());
        }
        s.due.set(due);
        Some(&s.value)
    }

    /// Mutable access; always counts as an access for the policy.
    pub fn get_mut(&mut self, key: &K, now: Time) -> Option<&mut V> {
        self.get(key, now)?;
        self.entries.get_mut(key).map(|s| &mut s.value)
    }

    /// Membership test without refreshing the deadline (HILTI's
    /// `map.exists` does not count as an access).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts `default()` if missing, then returns mutable access.
    pub fn entry_or_insert_with(
        &mut self,
        key: K,
        now: Time,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let (q, policy) = (&mut self.deadlines, self.policy);
        match self.entries.entry(key) {
            HmEntry::Occupied(mut o) => {
                if let Some(arm) = restamp(q, policy, o.get_mut().due.get_mut(), now, false) {
                    q.arm(arm, o.key().clone());
                }
                &mut o.into_mut().value
            }
            HmEntry::Vacant(v) => {
                if let Some(b) = &self.budget {
                    b.charge_unchecked(Self::entry_cost());
                }
                insert_new(q, policy, v, default(), now)
            }
        }
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.entries.remove(key).map(|s| s.value);
        if removed.is_some() {
            self.credit_entries(1);
        }
        removed
    }

    /// Drops every entry whose deadline has passed, handing each to
    /// `evict` in deadline order; returns how many.
    fn evict_due(&mut self, now: Time, mut evict: impl FnMut(K, V)) -> usize {
        let mut n = 0;
        while let Some((key, s)) = self
            .deadlines
            .pop_due(now, &mut self.entries, |s| s.due.get_mut())
        {
            evict(key, s.value);
            n += 1;
        }
        self.evicted += n as u64;
        self.credit_entries(n as u64);
        n
    }

    /// Drops every entry whose deadline has passed, returning the evicted
    /// pairs (so callers can run cleanup hooks, as HILTI timers would).
    pub fn advance(&mut self, now: Time) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.evict_due(now, |k, v| out.push((k, v)));
        out
    }

    /// [`advance`](Self::advance) for a caller that only needs the count
    /// (the engine's `timer_mgr.advance_global`).
    pub fn expire(&mut self, now: Time) -> usize {
        self.evict_due(now, |_, _| {})
    }

    /// Iterates over live entries (no deadline refresh).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, s)| (k, &s.value))
    }

    /// Drains all entries, e.g. at shutdown.
    pub fn clear(&mut self) {
        self.credit_entries(self.entries.len() as u64);
        self.entries.clear();
        self.deadlines.clear();
    }
}

impl<K, V> Drop for ExpiringMap<K, V> {
    fn drop(&mut self) {
        if let Some(b) = &self.budget {
            b.credit(self.entries.len() as u64 * entry_cost::<K, V>());
        }
    }
}

impl<K: Eq + Hash + Clone, V> Default for ExpiringMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for ExpiringMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExpiringMap {{ len: {}, policy: {:?} }}",
            self.entries.len(),
            self.policy
        )
    }
}

/// A hash set with optional per-entry expiration — HILTI's `set` type.
///
/// Implemented as a thin wrapper over [`ExpiringMap`] with unit values, the
/// same way the paper's runtime implements sets over its hash map.
pub struct ExpiringSet<K> {
    map: ExpiringMap<K, ()>,
}

impl<K: Eq + Hash + Clone> ExpiringSet<K> {
    pub fn new() -> Self {
        ExpiringSet {
            map: ExpiringMap::new(),
        }
    }

    pub fn set_timeout(&mut self, strategy: ExpireStrategy, timeout: Interval) {
        self.map.set_timeout(strategy, timeout);
    }

    /// See [`ExpiringMap::clear_timeout`].
    pub fn clear_timeout(&mut self) {
        self.map.clear_timeout();
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn evicted(&self) -> u64 {
        self.map.evicted()
    }

    /// See [`ExpiringMap::queued`].
    pub fn queued(&self) -> usize {
        self.map.queued()
    }

    /// Attaches a shared byte budget (see [`ExpiringMap::set_budget`]).
    pub fn set_budget(&mut self, budget: AllocBudget) {
        self.map.set_budget(budget);
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&AllocBudget> {
        self.map.budget()
    }

    /// Inserts a member; returns true if it was new.
    pub fn insert(&mut self, key: K, now: Time) -> bool {
        self.map.insert(key, (), now).is_none()
    }

    /// Budget-enforcing insert; see [`ExpiringMap::try_insert`].
    pub fn try_insert(&mut self, key: K, now: Time) -> RtResult<bool> {
        Ok(self.map.try_insert(key, (), now)?.is_none())
    }

    /// Membership test. Under `Access` strategy this *does* refresh the
    /// deadline — `set.exists` is the firewall's per-packet touch (Fig. 5).
    pub fn exists(&mut self, key: &K, now: Time) -> bool {
        self.map.get(key, now).is_some()
    }

    /// Membership test that never refreshes.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains(key)
    }

    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }

    pub fn advance(&mut self, now: Time) -> Vec<K> {
        let mut out = Vec::new();
        self.map.evict_due(now, |k, ()| out.push(k));
        out
    }

    /// See [`ExpiringMap::expire`].
    pub fn expire(&mut self, now: Time) -> usize {
        self.map.expire(now)
    }

    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.map.iter().map(|(k, _)| k)
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl<K: Eq + Hash + Clone> Default for ExpiringSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> std::fmt::Debug for ExpiringSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExpiringSet {{ len: {} }}", self.map.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn plain_map_never_expires() {
        let mut m = ExpiringMap::new();
        m.insert("k", 1, t(0));
        assert!(m.advance(t(1_000_000)).is_empty());
        assert_eq!(m.get(&"k", t(1_000_000)), Some(&1));
    }

    #[test]
    fn create_strategy_ignores_accesses() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Create, Interval::from_secs(10));
        m.insert("k", 1, t(0));
        // Touch repeatedly; the creation deadline must stand.
        for s in 1..=9 {
            assert_eq!(m.get(&"k", t(s)), Some(&1));
        }
        let evicted = m.advance(t(10));
        assert_eq!(evicted, vec![("k", 1)]);
        assert!(m.is_empty());
    }

    #[test]
    fn access_strategy_refreshes() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Access, Interval::from_secs(10));
        m.insert("k", 1, t(0));
        assert_eq!(m.get(&"k", t(8)), Some(&1)); // deadline now 18
        assert!(m.advance(t(12)).is_empty());
        assert_eq!(m.len(), 1);
        let evicted = m.advance(t(18));
        assert_eq!(evicted.len(), 1);
        assert_eq!(m.evicted(), 1);
    }

    #[test]
    fn reinsert_restarts_timeout() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Create, Interval::from_secs(10));
        m.insert("k", 1, t(0));
        m.insert("k", 2, t(5)); // new creation at t=5 → deadline 15
        assert!(m.advance(t(10)).is_empty());
        assert_eq!(m.advance(t(15)), vec![("k", 2)]);
    }

    #[test]
    fn remove_then_expire_is_silent() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Create, Interval::from_secs(10));
        m.insert("k", 1, t(0));
        assert_eq!(m.remove(&"k"), Some(1));
        assert!(m.advance(t(20)).is_empty());
        assert_eq!(m.evicted(), 0);
    }

    #[test]
    fn contains_does_not_refresh() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Access, Interval::from_secs(10));
        m.insert("k", 1, t(0));
        assert!(m.contains(&"k")); // at t≈0, but contains() takes no time
        assert_eq!(m.advance(t(10)).len(), 1);
    }

    #[test]
    fn entry_or_insert_with_policies() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Create, Interval::from_secs(10));
        *m.entry_or_insert_with("k", t(0), || 0) += 1;
        *m.entry_or_insert_with("k", t(5), || 0) += 1; // not a creation
        assert_eq!(m.get(&"k", t(5)), Some(&2));
        assert_eq!(m.advance(t(10)), vec![("k", 2)]);
    }

    #[test]
    fn set_access_touch_keeps_pair_alive() {
        // The firewall pattern from Figure 5: 300s inactivity timeout,
        // each matching packet refreshes the pair.
        let mut s = ExpiringSet::new();
        s.set_timeout(ExpireStrategy::Access, Interval::from_secs(300));
        s.insert(("a", "b"), t(0));
        for k in 1..10 {
            s.advance(t(k * 100));
            assert!(s.exists(&("a", "b"), t(k * 100)), "alive at {k}");
        }
        // Now go quiet for > 300s.
        assert_eq!(s.advance(t(10 * 100 + 301)).len(), 1);
        assert!(!s.contains(&("a", "b")));
    }

    #[test]
    fn set_insert_reports_novelty() {
        let mut s = ExpiringSet::new();
        assert!(s.insert(1, t(0)));
        assert!(!s.insert(1, t(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn eviction_order_is_deadline_order() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Create, Interval::from_secs(10));
        m.insert("a", 1, t(3));
        m.insert("b", 2, t(1));
        m.insert("c", 3, t(2));
        let evicted: Vec<_> = m.advance(t(100)).into_iter().map(|(k, _)| k).collect();
        assert_eq!(evicted, vec!["b", "c", "a"]);
    }

    #[test]
    fn budget_enforced_by_try_insert_and_credited_on_removal() {
        use crate::limits::AllocBudget;
        let cost = entry_cost::<u64, u64>();
        let budget = AllocBudget::with_limit(3 * cost);
        let mut m: ExpiringMap<u64, u64> = ExpiringMap::new();
        m.set_budget(budget.clone());
        for i in 0..3 {
            m.try_insert(i, i, t(0)).unwrap();
        }
        assert_eq!(budget.used(), 3 * cost);
        // Fourth entry exceeds the cap; map unchanged.
        assert!(m.try_insert(9, 9, t(0)).is_err());
        assert_eq!(m.len(), 3);
        // Replacing an existing key is not growth.
        m.try_insert(1, 100, t(0)).unwrap();
        // Removal frees room.
        m.remove(&0);
        assert_eq!(budget.used(), 2 * cost);
        m.try_insert(9, 9, t(0)).unwrap();
        drop(m);
        assert_eq!(budget.used(), 0, "drop credits live entries");
    }

    #[test]
    fn budget_credited_on_expiration_eviction() {
        use crate::limits::AllocBudget;
        let cost = entry_cost::<&str, u64>();
        let budget = AllocBudget::unlimited();
        let mut m: ExpiringMap<&str, u64> = ExpiringMap::new();
        m.set_budget(budget.clone());
        m.set_timeout(ExpireStrategy::Create, Interval::from_secs(10));
        m.insert("a", 1, t(0));
        m.insert("b", 2, t(5));
        assert_eq!(budget.used(), 2 * cost);
        assert_eq!(m.advance(t(10)).len(), 1);
        assert_eq!(budget.used(), cost);
        m.clear();
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn set_budget_adopts_existing_entries() {
        use crate::limits::AllocBudget;
        let cost = entry_cost::<u64, ()>();
        let mut s: ExpiringSet<u64> = ExpiringSet::new();
        s.insert(1, t(0));
        s.insert(2, t(0));
        let budget = AllocBudget::with_limit(2 * cost);
        s.set_budget(budget.clone());
        assert_eq!(budget.used(), 2 * cost);
        assert!(s.try_insert(3, t(0)).is_err());
        // Re-inserting an existing member is not growth and still succeeds.
        assert!(!s.try_insert(1, t(0)).unwrap());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn heavy_churn_does_not_leak_queue() {
        let mut m = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Access, Interval::from_secs(5));
        for i in 0..10_000u64 {
            m.insert(i % 100, i, t(i / 100));
            m.advance(t(i / 100));
        }
        // Touches rewrite deadlines in place: one record per live key.
        assert!(m.len() <= 100);
        assert_eq!(m.queued(), m.len());
        m.advance(t(10_000));
        assert!(m.is_empty());
        assert_eq!(m.queued(), 0);
    }
}
