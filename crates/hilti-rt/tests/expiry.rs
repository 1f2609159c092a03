//! The expiring containers against a model of the per-touch queue they
//! replaced, and the state they hold under repeated touches.
//!
//! The model is the old algorithm written out: every stamp pushes a
//! `(deadline, seq)` record and remembers its key, and a record evicts only
//! while it is still its entry's latest. The containers must evict the same
//! keys in the same order, at the same calls, while holding at most one
//! record per live key. Allocations are counted per thread, as in
//! `crates/binpac/tests/alloc_budget.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

use hilti_rt::containers::{ExpireStrategy, ExpiringMap, ExpiringSet};
use hilti_rt::limits::AllocBudget;
use hilti_rt::time::{Interval, Time};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const NEVER: (Time, u64) = (Time::from_nanos(u64::MAX), u64::MAX);

/// The per-touch queue: today's semantics, written the old way.
struct Model {
    entries: HashMap<u32, (u32, (Time, u64))>,
    queue: BTreeSet<(Time, u64)>,
    seq_keys: HashMap<u64, u32>,
    next_seq: u64,
    policy: Option<(ExpireStrategy, Interval)>,
    evicted: u64,
    /// `try_insert` refuses a new key once this many are live.
    limit: usize,
}

impl Model {
    fn new(limit: usize) -> Model {
        Model {
            entries: HashMap::new(),
            queue: BTreeSet::new(),
            seq_keys: HashMap::new(),
            next_seq: 0,
            policy: None,
            evicted: 0,
            limit,
        }
    }

    fn stamp(&mut self, key: u32, now: Time) -> (Time, u64) {
        let Some((_, timeout)) = self.policy else {
            return NEVER;
        };
        let rec = (now + timeout, self.next_seq);
        self.next_seq += 1;
        self.queue.insert(rec);
        self.seq_keys.insert(rec.1, key);
        rec
    }

    fn insert(&mut self, key: u32, value: u32, now: Time) -> Option<u32> {
        let due = self.stamp(key, now);
        self.entries.insert(key, (value, due)).map(|(v, _)| v)
    }

    fn try_insert(&mut self, key: u32, value: u32, now: Time) -> Result<Option<u32>, ()> {
        if !self.entries.contains_key(&key) && self.entries.len() >= self.limit {
            return Err(());
        }
        Ok(self.insert(key, value, now))
    }

    fn get_mut(&mut self, key: u32, now: Time) -> Option<&mut u32> {
        self.entries.get(&key)?;
        if matches!(self.policy, Some((ExpireStrategy::Access, _))) {
            let due = self.stamp(key, now);
            self.entries.get_mut(&key).unwrap().1 = due;
        }
        self.entries.get_mut(&key).map(|(v, _)| v)
    }

    fn entry_or_insert_with(&mut self, key: u32, now: Time, default: u32) -> &mut u32 {
        let exists = self.entries.contains_key(&key);
        let refresh = match self.policy {
            Some((ExpireStrategy::Access, _)) => true,
            Some((ExpireStrategy::Create, _)) => !exists,
            None => false,
        };
        let due = if refresh {
            self.stamp(key, now)
        } else {
            self.entries.get(&key).map_or(NEVER, |e| e.1)
        };
        let e = self.entries.entry(key).or_insert((default, due));
        e.1 = due;
        &mut e.0
    }

    fn advance(&mut self, now: Time) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        while let Some(&rec) = self.queue.first() {
            if rec.0 > now {
                break;
            }
            self.queue.pop_first();
            let key = self.seq_keys.remove(&rec.1).unwrap();
            if self.entries.get(&key).is_some_and(|e| e.1 .1 == rec.1) {
                let (v, _) = self.entries.remove(&key).unwrap();
                self.evicted += 1;
                out.push((key, v));
            }
        }
        out
    }

    fn set_timeout(&mut self, strategy: ExpireStrategy, timeout: Interval) {
        self.policy = Some((strategy, timeout));
    }

    fn clear_timeout(&mut self) {
        self.policy = None;
        self.queue.clear();
        self.seq_keys.clear();
    }
}

/// xorshift64: a seeded, dependency-free operation stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// What one step runs against the container under test.
enum Step {
    Insert(u32, u32),
    TryInsert(u32, u32),
    Get(u32),
    GetMut(u32),
    Contains(u32),
    Remove(u32),
    EntryOrInsert(u32),
    Advance,
    SetTimeout(ExpireStrategy, Interval),
    ClearTimeout,
}

const KEYS: u64 = 12;
const LIMIT: usize = 9;

/// One random step, and the clock it runs at: mostly forward, sometimes
/// back (a reordered packet), so stamps also move deadlines earlier.
fn step(rng: &mut Rng, clock: &mut u64, set: bool) -> Step {
    *clock = match rng.below(10) {
        0 => clock.saturating_sub(rng.below(4_000)),
        _ => *clock + rng.below(1_500),
    };
    let key = rng.below(KEYS) as u32;
    let value = rng.below(1_000) as u32;
    match rng.below(if set { 8 } else { 10 }) {
        0 => Step::Insert(key, value),
        1 => Step::TryInsert(key, value),
        2 => Step::Get(key),
        3 => Step::Contains(key),
        4 => Step::Remove(key),
        5 | 6 => Step::Advance,
        7 => match rng.below(6) {
            0 => Step::ClearTimeout,
            n => {
                let strategy = if n % 2 == 0 {
                    ExpireStrategy::Create
                } else {
                    ExpireStrategy::Access
                };
                Step::SetTimeout(strategy, Interval::from_millis(1 + rng.below(8_000) as i64))
            }
        },
        8 => Step::GetMut(key),
        _ => Step::EntryOrInsert(key),
    }
}

/// A budget that admits `LIMIT` entries of an `ExpiringMap<u32, V>`.
fn budget_for<V: Default>() -> AllocBudget {
    let unit = AllocBudget::unlimited();
    let mut one = ExpiringMap::<u32, V>::new();
    one.set_budget(unit.clone());
    one.insert(0, V::default(), Time::ZERO);
    AllocBudget::with_limit(unit.used() * LIMIT as u64)
}

#[test]
fn map_matches_the_per_touch_queue() {
    for seed in 1..=300u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut clock = 0u64;
        let mut m: ExpiringMap<u32, u32> = ExpiringMap::new();
        m.set_budget(budget_for::<u32>());
        let mut model = Model::new(LIMIT);
        for i in 0..400 {
            let s = step(&mut rng, &mut clock, false);
            let now = Time::from_nanos(clock * 1_000_000);
            let ctx = format!("seed {seed} step {i} at {now}");
            match s {
                Step::Insert(k, v) => {
                    assert_eq!(m.insert(k, v, now), model.insert(k, v, now), "{ctx}")
                }
                Step::TryInsert(k, v) => assert_eq!(
                    m.try_insert(k, v, now).map_err(|_| ()),
                    model.try_insert(k, v, now),
                    "{ctx}"
                ),
                Step::Get(k) => {
                    assert_eq!(
                        m.get(&k, now).copied(),
                        model.get_mut(k, now).copied(),
                        "{ctx}"
                    )
                }
                Step::GetMut(k) => {
                    let got = m.get_mut(&k, now).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = model.get_mut(k, now).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, want, "{ctx}");
                }
                Step::Contains(k) => {
                    assert_eq!(m.contains(&k), model.entries.contains_key(&k), "{ctx}")
                }
                Step::Remove(k) => {
                    assert_eq!(m.remove(&k), model.entries.remove(&k).map(|e| e.0), "{ctx}")
                }
                Step::EntryOrInsert(k) => {
                    let got = m.entry_or_insert_with(k, now, || 7);
                    *got += 1;
                    let want = model.entry_or_insert_with(k, now, 7);
                    *want += 1;
                    assert_eq!(*got, *want, "{ctx}");
                }
                Step::Advance => assert_eq!(m.advance(now), model.advance(now), "{ctx}"),
                Step::SetTimeout(s, iv) => {
                    m.set_timeout(s, iv);
                    model.set_timeout(s, iv);
                }
                Step::ClearTimeout => {
                    m.clear_timeout();
                    model.clear_timeout();
                }
            }
            assert_eq!(m.len(), model.entries.len(), "{ctx}");
            assert_eq!(m.evicted(), model.evicted, "{ctx}");
            assert!(m.queued() <= model.queue.len(), "{ctx}");
        }
    }
}

#[test]
fn set_matches_the_per_touch_queue() {
    for seed in 1..=300u64 {
        let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03));
        let mut clock = 0u64;
        let mut s: ExpiringSet<u32> = ExpiringSet::new();
        s.set_budget(budget_for::<()>());
        let mut model = Model::new(LIMIT);
        for i in 0..400 {
            let st = step(&mut rng, &mut clock, true);
            let now = Time::from_nanos(clock * 1_000_000);
            let ctx = format!("seed {seed} step {i} at {now}");
            match st {
                Step::Insert(k, _) => {
                    assert_eq!(s.insert(k, now), model.insert(k, 0, now).is_none(), "{ctx}")
                }
                Step::TryInsert(k, _) => assert_eq!(
                    s.try_insert(k, now).map_err(|_| ()),
                    model.try_insert(k, 0, now).map(|old| old.is_none()),
                    "{ctx}"
                ),
                Step::Get(k) => {
                    assert_eq!(s.exists(&k, now), model.get_mut(k, now).is_some(), "{ctx}")
                }
                Step::Contains(k) => {
                    assert_eq!(s.contains(&k), model.entries.contains_key(&k), "{ctx}")
                }
                Step::Remove(k) => {
                    assert_eq!(s.remove(&k), model.entries.remove(&k).is_some(), "{ctx}")
                }
                Step::Advance => {
                    let want: Vec<u32> = model.advance(now).into_iter().map(|(k, _)| k).collect();
                    assert_eq!(s.advance(now), want, "{ctx}");
                }
                Step::SetTimeout(strategy, iv) => {
                    s.set_timeout(strategy, iv);
                    model.set_timeout(strategy, iv);
                }
                Step::ClearTimeout => {
                    s.clear_timeout();
                    model.clear_timeout();
                }
                Step::GetMut(_) | Step::EntryOrInsert(_) => unreachable!("map-only steps"),
            }
            assert_eq!(s.len(), model.entries.len(), "{ctx}");
            assert_eq!(s.evicted(), model.evicted, "{ctx}");
            assert!(s.queued() <= model.queue.len(), "{ctx}");
        }
    }
}

/// Touches each of 100 live keys `rounds` times, 1 s apart under a 60 s
/// access timeout, expiring as the engine does before each round. Returns
/// the records queued afterwards and the allocations of all the touches.
fn touch(rounds: u64) -> (usize, u64) {
    let keys: Vec<String> = (0..100)
        .map(|i| format!("10.0.0.{i} -> 10.1.0.{i}"))
        .collect();
    let mut s = ExpiringSet::new();
    s.set_timeout(ExpireStrategy::Access, Interval::from_secs(60));
    for k in &keys {
        s.insert(k.clone(), Time::ZERO);
    }
    let mut touch_allocs = 0;
    for r in 1..=rounds {
        let now = Time::from_secs(r);
        assert_eq!(s.expire(now), 0);
        let before = allocs();
        for k in &keys {
            assert!(s.exists(k, now));
        }
        touch_allocs += allocs() - before;
    }
    assert_eq!(s.len(), 100);
    (s.queued(), touch_allocs)
}

#[test]
fn queued_records_do_not_grow_with_touches() {
    // `String` keys: a key clone or a queue push per touch would allocate.
    for rounds in [1, 10, 100] {
        assert_eq!(touch(rounds), (100, 0), "{rounds} touches per key");
    }
}

#[test]
fn queued_is_bounded_by_live_plus_removed_not_yet_due() {
    let mut m = ExpiringMap::new();
    m.set_timeout(ExpireStrategy::Access, Interval::from_secs(10));
    for k in 0..100u64 {
        m.insert(k, k, Time::ZERO);
    }
    for k in 0..30 {
        m.remove(&k);
    }
    // Re-inserting removed keys queues fresh records beside the stale ones.
    for k in 0..10 {
        m.insert(k, k, Time::from_secs(1));
    }
    let removed_not_due = 30;
    assert_eq!(m.len(), 80);
    assert!(m.queued() <= m.len() + removed_not_due);
    for t in 2..=9 {
        for k in 0..100 {
            m.get(&k, Time::from_secs(t));
        }
    }
    assert!(m.queued() <= m.len() + removed_not_due);
    // Once the stale records come due, exactly one record per live key.
    assert!(m.advance(Time::from_secs(10)).is_empty());
    assert_eq!(m.queued(), m.len());
    assert_eq!(m.advance(Time::from_secs(19)).len(), 80);
    assert_eq!(m.queued(), 0);
}
