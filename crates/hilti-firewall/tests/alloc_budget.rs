//! Allocation budget of `HiltiFirewall::match_packet`, per packet class, as
//! exact counts.
//!
//! The `firewall_4k` mix is state hits, new allowed pairs, rule denies and
//! misses; each costs a fixed number of heap allocations once the state set
//! is at steady size (pairs expire as fast as they are created). Counted
//! with a wrapping global allocator, per thread, so the parallel test
//! harness does not disturb the counts; a count is host-independent and
//! repeats exactly. The budgets are measured values and may only go down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hilti::passes::OptLevel;
use hilti_firewall::{HiltiFirewall, Rule};
use hilti_rt::addr::Addr;
use hilti_rt::time::{Interval, Time};

/// A state hit: `set.exists` on a live pair allocates only the `(src,
/// dst)` tuple the program builds; the probe key shares it, and a touch
/// adds no queue record and no key clone. Was 2, when the probe converted
/// the tuple into a key of its own.
const STATE_HIT: u64 = 1;
/// A new allowed pair: a deny's three, then both directions inserted, each
/// allocating only its tuple; the stored key and its one deadline record
/// share that tuple. Was 10, when each insert also built a key and the
/// deadline record a copy of it.
const NEW_PAIR: u64 = 5;
/// A packet a rule denies: the state probe's tuple and the classifier
/// lookup. Was 4, with the probe's own key.
const DENY: u64 = 3;
/// A packet no rule matches: a deny's three, plus the `IndexError` caught.
/// Was 5, with the probe's own key.
const MISS: u64 = 4;

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

/// Packets of each class per round, one round per second.
const PER_ROUND: u8 = 16;

fn client(round: u64, i: u8) -> Addr {
    Addr::v4(10, 1, (round % 200) as u8, i)
}

fn server(i: u8) -> Addr {
    Addr::v4(172, 16, 0, i)
}

/// Allocations per class over a span of rounds: state hit, new pair, deny,
/// miss.
#[derive(Debug, Default, PartialEq)]
struct Counts([u64; 4]);

/// Runs `rounds` rounds starting at `first`. Round `r` opens `PER_ROUND`
/// new pairs, hits the reverse direction of round `r - 1`'s, and sends as
/// many denied and unmatched packets; pairs live 3 s, so the state set
/// holds about four rounds' worth at any time.
fn run(fw: &mut HiltiFirewall, first: u64, rounds: u64) -> Counts {
    let mut counts = Counts::default();
    for r in first..first + rounds {
        let ts = Time::from_secs(r);
        for i in 0..PER_ROUND {
            let packets = [
                (server(i), client(r - 1, i), true),
                (client(r, i), server(i), true),
                (Addr::v4(10, 2, 0, i), server(i), false),
                (Addr::v4(10, 9, 0, i), server(i), false),
            ];
            for (class, (src, dst, verdict)) in packets.into_iter().enumerate() {
                let before = allocs();
                let allowed = fw.match_packet(ts, src, dst).unwrap();
                counts.0[class] += allocs() - before;
                assert_eq!(allowed, verdict, "round {r}: {src} -> {dst}");
            }
        }
    }
    counts
}

#[test]
fn match_packet_stays_within_the_allocation_budget() {
    let rules = [
        Rule::new("10.1.0.0/16", "172.16.0.0/16", true).unwrap(),
        Rule::new("10.2.0.0/16", "0.0.0.0/0", false).unwrap(),
    ];
    let mut fw =
        HiltiFirewall::compile_with_timeout(&rules, Interval::from_secs(3), OptLevel::Full)
            .unwrap();
    // Round 0 opens the pairs round 1 hits. Warm: the state set, its
    // queue and the VM's pools reach steady size.
    for i in 0..PER_ROUND {
        assert!(fw
            .match_packet(Time::ZERO, client(0, i), server(i))
            .unwrap());
    }
    run(&mut fw, 1, 50);
    let steady = run(&mut fw, 51, 50);
    let (pairs, records) = fw.dynamic_state();
    assert!(records <= pairs, "{records} records for {pairs} pairs");
    let per_packet = |n: u64| n as f64 / (50.0 * PER_ROUND as f64);
    let [hit, new, deny, miss] = steady.0.map(per_packet);
    eprintln!("firewall: state hit {hit}, new pair {new}, deny {deny}, miss {miss} allocations");
    // An exact count: the next 50 rounds repeat these to the allocation.
    assert_eq!(run(&mut fw, 101, 50), steady);
    for (what, got, budget) in [
        ("state hit", hit, STATE_HIT),
        ("new pair", new, NEW_PAIR),
        ("deny", deny, DENY),
        ("miss", miss, MISS),
    ] {
        assert!(
            got <= budget as f64,
            "{what}: {got} allocations per packet, budget {budget}"
        );
    }
}
