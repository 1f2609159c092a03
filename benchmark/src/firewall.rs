//! Inputs and oracle for the `firewall_4k` workload.
//!
//! The generator emits a seeded rule set and a `(ts, src, dst)` stream whose
//! mix is fixed by construction: [`MIX`] percent of packets hit dynamic
//! state, open a new allowed pair (two state inserts), match a deny rule, or
//! match nothing (a scan of every rule). Timestamps span [`SPAN_SECS`] of
//! trace time, more than twice the 300 s state timeout, and a pair is only
//! revisited within [`REVISIT_SECS`] of its creation, so pairs go idle and
//! expiration runs throughout.
//!
//! [`Oracle`] is the benchmark's own model of the firewall semantics with
//! O(1) state handling (lazy expiry instead of `ReferenceFirewall`'s
//! per-packet sweep), so every verdict of a full run can be checked and
//! every packet classified; the oracle itself is checked against
//! `ReferenceFirewall` on a prefix.

use std::collections::{HashMap, VecDeque};

use hilti_firewall::{Rule, DYNAMIC_TIMEOUT_SECS};
use hilti_rt::addr::{Addr, Network};
use hilti_rt::time::{Interval, Time};

use crate::util::Rng;

pub type Packet = (Time, Addr, Addr);

/// Percent of packets per intended class, in [`Class`] order.
pub const MIX: [usize; 4] = [70, 10, 5, 15];
pub const SPAN_SECS: u64 = 700;
const REVISIT_SECS: u64 = 100;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Pair found in dynamic state.
    StateHit = 0,
    /// New pair matching an allow rule: two state inserts.
    RuleAllow = 1,
    /// Matches a deny rule.
    RuleDeny = 2,
    /// Matches no rule: every rule is scanned, default deny.
    Miss = 3,
}

impl Class {
    pub fn allowed(self) -> bool {
        matches!(self, Class::StateHit | Class::RuleAllow)
    }
}

pub struct Input {
    pub rules: Vec<Rule>,
    pub packets: Vec<Packet>,
}

/// What the generator knows about a rule besides its `Rule`: the /24 its
/// source lives in and, unless the destination is 0.0.0.0/0, the second
/// octet of its 172.x.0.0/16 destination.
struct RuleShape {
    src: [u8; 3],
    dst_octet: Option<u8>,
}

pub fn generate(seed: u64, n_rules: usize, n_packets: usize) -> Input {
    assert!(
        n_rules <= 4096,
        "rule sources are distinct /24s of 10.0.0.0/12"
    );
    let mut rng = Rng::new(seed ^ 0xF12E_3A11);
    let mut shaped: Vec<(RuleShape, Rule)> = (0..n_rules)
        .map(|i| {
            let src = [10, (i >> 8) as u8, i as u8];
            let dst_octet = (rng.below(2) == 0).then(|| 16 + rng.below(16) as u8);
            let dst = match dst_octet {
                Some(o) => Network::new(Addr::v4(172, o, 0, 0), 16),
                None => Network::new(Addr::v4(0, 0, 0, 0), 0),
            };
            let rule = Rule {
                src: Network::new(Addr::v4(src[0], src[1], src[2], 0), 24)
                    .expect("/24 is a valid IPv4 prefix"),
                dst: dst.expect("valid IPv4 prefix"),
                // Two allow rules for every deny rule.
                allow: i % 3 != 0,
            };
            (RuleShape { src, dst_octet }, rule)
        })
        .collect();
    // Sources are disjoint, so exactly one rule can match a packet and its
    // position in the list is how far a first-match scan must go.
    rng.shuffle(&mut shaped);
    let (allow, deny): (Vec<&RuleShape>, Vec<&RuleShape>) = {
        let mut a = Vec::new();
        let mut d = Vec::new();
        for (shape, rule) in &shaped {
            if rule.allow {
                a.push(shape)
            } else {
                d.push(shape)
            }
        }
        (a, d)
    };

    let mut deck: Vec<Class> = Vec::with_capacity(n_packets);
    for (class, pct) in [
        Class::StateHit,
        Class::RuleAllow,
        Class::RuleDeny,
        Class::Miss,
    ]
    .into_iter()
    .zip(MIX)
    {
        deck.extend(std::iter::repeat_n(class, n_packets * pct / 100));
    }
    deck.resize(n_packets, Class::StateHit);
    rng.shuffle(&mut deck);

    let within = |rng: &mut Rng, shape: &RuleShape| -> (Addr, Addr) {
        let src = Addr::v4(
            shape.src[0],
            shape.src[1],
            shape.src[2],
            1 + rng.below(254) as u8,
        );
        let octet = shape.dst_octet.unwrap_or(16 + rng.below(16) as u8);
        let dst = Addr::v4(172, octet, rng.below(256) as u8, 1 + rng.below(254) as u8);
        (src, dst)
    };
    let step_ns = SPAN_SECS * 1_000_000_000 / n_packets.max(1) as u64;
    let mut recent: VecDeque<(u64, Addr, Addr)> = VecDeque::new();
    let mut packets = Vec::with_capacity(n_packets);
    for (i, mut class) in deck.into_iter().enumerate() {
        let t_ns = 1_000_000_000 + i as u64 * step_ns + rng.below(step_ns.max(2) / 2);
        while recent
            .front()
            .is_some_and(|(born, _, _)| born + REVISIT_SECS * 1_000_000_000 < t_ns)
        {
            recent.pop_front();
        }
        if class == Class::StateHit && recent.is_empty() {
            class = Class::RuleAllow;
        }
        let (src, dst) = match class {
            Class::StateHit => {
                let (_, a, b) = recent[rng.below(recent.len() as u64) as usize];
                if rng.below(2) == 0 {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            Class::RuleAllow => {
                let rule = allow[rng.below(allow.len() as u64) as usize];
                let pair = within(&mut rng, rule);
                recent.push_back((t_ns, pair.0, pair.1));
                pair
            }
            Class::RuleDeny => {
                let rule = deny[rng.below(deny.len() as u64) as usize];
                within(&mut rng, rule)
            }
            Class::Miss => (
                // No rule's source is in 11.0.0.0/8.
                Addr::v4(
                    11,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    1 + rng.below(254) as u8,
                ),
                Addr::v4(172, 16 + rng.below(16) as u8, rng.below(256) as u8, 1),
            ),
        };
        packets.push((Time::from_nanos(t_ns), src, dst));
    }
    Input {
        rules: shaped.into_iter().map(|(_, rule)| rule).collect(),
        packets,
    }
}

/// Firewall semantics with lazy state expiry: an entry counts only while
/// `last_touch + timeout > now`, which is what sweeping expired entries
/// before every lookup (`ReferenceFirewall`) amounts to.
pub struct Oracle<'a> {
    rules: &'a [Rule],
    timeout: Interval,
    dynamic: HashMap<(Addr, Addr), Time>,
}

impl<'a> Oracle<'a> {
    pub fn new(rules: &'a [Rule]) -> Oracle<'a> {
        Oracle {
            rules,
            timeout: Interval::from_secs(DYNAMIC_TIMEOUT_SECS),
            dynamic: HashMap::new(),
        }
    }

    pub fn classify(&mut self, (t, src, dst): Packet) -> Class {
        if let Some(last) = self.dynamic.get_mut(&(src, dst)) {
            if *last + self.timeout > t {
                *last = t;
                return Class::StateHit;
            }
        }
        match self
            .rules
            .iter()
            .find(|r| r.src.contains(&src) && r.dst.contains(&dst))
        {
            Some(r) if r.allow => {
                self.dynamic.insert((src, dst), t);
                self.dynamic.insert((dst, src), t);
                Class::RuleAllow
            }
            Some(_) => Class::RuleDeny,
            None => Class::Miss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilti_firewall::ReferenceFirewall;

    #[test]
    fn same_seed_same_input() {
        let a = generate(5, 64, 2_000);
        let b = generate(5, 64, 2_000);
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.packets, b.packets);
        assert_ne!(a.packets, generate(6, 64, 2_000).packets);
    }

    #[test]
    fn oracle_agrees_with_reference_and_mix_is_as_built() {
        let input = generate(5, 256, 8_000);
        let mut oracle = Oracle::new(&input.rules);
        let mut reference = ReferenceFirewall::new(&input.rules);
        let mut seen = [0usize; 4];
        for &p in &input.packets {
            let class = oracle.classify(p);
            assert_eq!(class.allowed(), reference.match_packet(p.0, p.1, p.2));
            seen[class as usize] += 1;
        }
        for (class, pct) in MIX.iter().enumerate() {
            let share = seen[class] as f64 * 100.0 / input.packets.len() as f64;
            assert!((share - *pct as f64).abs() < 2.0, "class {class}: {share}%");
        }
        // State must have expired along the way, or expiration is not exercised.
        assert!(reference.dynamic_pairs() < 2 * seen[Class::RuleAllow as usize]);
    }
}
