//! ACL-style packet classification — HILTI's `classifier` type (§3.2).
//!
//! A classifier stores rules keyed by tuples of matchable fields (CIDR
//! networks, ports, exact integers, wildcards) and returns the value of the
//! highest-priority matching rule. The paper's prototype "implements the
//! classifier type as a linked list internally, which does not scale with
//! larger numbers of rules" and notes it would be "straightforward to later
//! transparently switch to a better data structure" (§5). This is that
//! switch: a priority-pruned tuple-space search, as in Open vSwitch's
//! classifier.
//!
//! Every [`FieldMatcher`] is a prefix match on a fixed-width field — a
//! network compares its prefix length, a host, port or integer the full
//! width, a wildcard nothing. Rules that compare the same bits of every
//! field share a *shape*, and within one shape a rule matches a key exactly
//! when the key's masked field values equal the rule's. So
//! [`Classifier::compile`] builds one hash table per shape, from masked
//! values to the best rule carrying them, and a lookup probes each shape
//! once, best shape first, stopping when the rule in hand beats everything
//! the remaining shapes hold. The cost is O(shapes), independent of the
//! number of rules: the firewall's 4 096 `(src/24, dst/16 | dst/0)` rules
//! take two probes, as would a million of them.
//!
//! The priority-ordered scan the paper describes survives as
//! [`Classifier::matches_linear`], the reference that tests and ablation A2
//! compare the compiled lookup against.
//!
//! Usage mirrors the paper's firewall (Figure 5): `add` rules, `compile()`
//! to freeze, then `get`/`matches` per packet.

use std::collections::HashMap;

use crate::addr::{Addr, Network, Port};
use crate::error::{RtError, RtResult};

/// One matchable field of a rule key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldMatcher {
    /// CIDR prefix match on an address field.
    Net(Network),
    /// Exact address (sugar for a host network).
    Host(Addr),
    /// Exact port (number and protocol).
    Port(Port),
    /// Exact integer.
    Int(u64),
    /// Matches anything (the `*` in Figure 5).
    Wildcard,
}

/// One field of a lookup key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue {
    Addr(Addr),
    Port(Port),
    Int(u64),
}

impl FieldMatcher {
    /// Does this matcher cover `value`? Type mismatches simply don't match
    /// (the HILTI type checker rules them out statically; at runtime we stay
    /// conservative).
    pub fn matches(&self, value: &FieldValue) -> bool {
        match (self, value) {
            (FieldMatcher::Wildcard, _) => true,
            (FieldMatcher::Net(n), FieldValue::Addr(a)) => n.contains(a),
            (FieldMatcher::Host(h), FieldValue::Addr(a)) => h == a,
            (FieldMatcher::Port(p), FieldValue::Port(q)) => p == q,
            (FieldMatcher::Int(i), FieldValue::Int(j)) => i == j,
            _ => false,
        }
    }

    /// Specificity for default priorities: more specific rules win. Network
    /// matchers score by prefix length, exact matchers max out, wildcards
    /// score zero.
    fn specificity(&self) -> u32 {
        match self {
            FieldMatcher::Wildcard => 0,
            FieldMatcher::Net(n) => u32::from(n.len()),
            FieldMatcher::Host(_) => 128,
            FieldMatcher::Port(_) | FieldMatcher::Int(_) => 128,
        }
    }

    /// The bits this matcher compares and what they must equal: it covers
    /// exactly the values whose [`FieldShape::word`] is the returned word.
    fn shape(&self) -> (FieldShape, u128) {
        let net = |n: &Network| {
            let shape = if n.prefix().is_v4() {
                FieldShape::V4(n.len())
            } else {
                FieldShape::V6(n.len())
            };
            (shape, FieldValue::Addr(n.prefix()))
        };
        // The word comes from a value the matcher covers, through the same
        // function that masks lookup keys.
        let (shape, covered) = match self {
            FieldMatcher::Wildcard => (FieldShape::Any, FieldValue::Int(0)),
            FieldMatcher::Net(n) => net(n),
            FieldMatcher::Host(a) => net(&Network::host(*a)),
            FieldMatcher::Port(p) => (FieldShape::Port, FieldValue::Port(*p)),
            FieldMatcher::Int(i) => (FieldShape::Int, FieldValue::Int(*i)),
        };
        let word = shape
            .word(&covered)
            .expect("a matcher covers its own value");
        (shape, word)
    }
}

/// Which values a rule field accepts and how much of them it compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum FieldShape {
    /// Any value of any type; compares nothing.
    Any,
    /// IPv4 addresses, by their leading bits (0 still requires IPv4, as
    /// `0.0.0.0/0` does).
    V4(u8),
    /// IPv6 addresses, by their leading bits.
    V6(u8),
    Port,
    Int,
}

impl FieldShape {
    /// The part of `value` this shape compares, as a hash-key word; `None`
    /// if the shape accepts no value of that type or family.
    fn word(self, value: &FieldValue) -> Option<u128> {
        match (self, value) {
            (FieldShape::Any, _) => Some(0),
            (FieldShape::V4(bits), FieldValue::Addr(a)) if a.is_v4() => Some(a.mask(bits).raw()),
            (FieldShape::V6(bits), FieldValue::Addr(a)) if a.is_v6() => Some(a.mask(bits).raw()),
            (FieldShape::Port, FieldValue::Port(p)) => {
                Some(u128::from(p.number) | (p.protocol as u128) << 16)
            }
            (FieldShape::Int, FieldValue::Int(i)) => Some(u128::from(*i)),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct Rule<V> {
    fields: Vec<FieldMatcher>,
    value: V,
    /// Higher wins; ties broken by insertion order (first added wins),
    /// which reproduces the paper's "applied in order of specification".
    priority: i64,
    seq: usize,
}

/// The rules of one shape, hashed by what they compare.
struct Table {
    shape: Box<[FieldShape]>,
    /// Masked field values → index of the best rule with exactly them.
    best: HashMap<Box<[u128]>, usize>,
    /// Index of the best rule in this table.
    first: usize,
}

/// Runs `f` on `n` scratch elements: on the stack for the arities rule sets
/// have, on the heap beyond. Lookups build their keys here so that the
/// per-packet path does not allocate.
pub fn with_scratch<T: Copy, R>(n: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    const INLINE: usize = 8;
    if n <= INLINE {
        f(&mut [fill; INLINE][..n])
    } else {
        f(&mut vec![fill; n])
    }
}

/// A priority-rule classifier mapping field tuples to values.
pub struct Classifier<V> {
    /// In priority order once compiled, so a lower index is a better rule.
    rules: Vec<Rule<V>>,
    arity: Option<usize>,
    /// The tuple space, best table first; `Some` once compiled.
    tables: Option<Vec<Table>>,
}

impl<V: Clone> Classifier<V> {
    pub fn new() -> Self {
        Classifier {
            rules: Vec::new(),
            arity: None,
            tables: None,
        }
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Adds a rule with the default priority (field specificity, so more
    /// specific rules shadow broader ones; equal specificity keeps
    /// specification order, as in Figure 5).
    pub fn add(&mut self, fields: Vec<FieldMatcher>, value: V) -> RtResult<()> {
        let prio = fields.iter().map(|f| i64::from(f.specificity())).sum();
        self.add_with_priority(fields, value, prio)
    }

    /// Adds a rule with an explicit priority (higher wins).
    pub fn add_with_priority(
        &mut self,
        fields: Vec<FieldMatcher>,
        value: V,
        priority: i64,
    ) -> RtResult<()> {
        if self.is_compiled() {
            return Err(RtError::frozen("classifier already compiled"));
        }
        match self.arity {
            None => self.arity = Some(fields.len()),
            Some(a) if a != fields.len() => {
                return Err(RtError::value(format!(
                    "rule arity {} does not match classifier arity {a}",
                    fields.len()
                )))
            }
            _ => {}
        }
        let seq = self.rules.len();
        self.rules.push(Rule {
            fields,
            value,
            priority,
            seq,
        });
        Ok(())
    }

    /// Freezes the rule set and builds the lookup structure
    /// (`classifier.compile` in HILTI): one sort, then one hash insert per
    /// rule.
    pub fn compile(&mut self) {
        if self.is_compiled() {
            return;
        }
        // Priority order: higher priority first, then specification order.
        self.rules
            .sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        // Rules arrive best first, so a table's first rule is its best, the
        // first rule under a key is that key's best, and `tables` ends up
        // ordered by `first`. Two passes — which table each rule goes to,
        // then the keys — so that every table is allocated once, at its
        // final size, and no shape is boxed but a table's own: one pass
        // with neither took more than twice as long at 4 096 rules.
        let mut tables: Vec<Table> = Vec::new();
        let mut table_of: HashMap<Box<[FieldShape]>, usize> = HashMap::new();
        let rule_tables: Vec<usize> =
            with_scratch(self.arity.unwrap_or(0), FieldShape::Any, |shape| {
                let table_of_rule = |(i, rule): (usize, &Rule<V>)| {
                    for (s, f) in shape.iter_mut().zip(&rule.fields) {
                        *s = f.shape().0;
                    }
                    table_of.get(&*shape).copied().unwrap_or_else(|| {
                        tables.push(Table {
                            shape: shape.into(),
                            best: HashMap::new(),
                            first: i,
                        });
                        table_of.insert(shape.into(), tables.len() - 1);
                        tables.len() - 1
                    })
                };
                self.rules.iter().enumerate().map(table_of_rule).collect()
            });
        let mut sizes = vec![0; tables.len()];
        for &t in &rule_tables {
            sizes[t] += 1;
        }
        for (table, size) in tables.iter_mut().zip(sizes) {
            table.best.reserve(size);
        }
        for (i, (rule, t)) in self.rules.iter().zip(rule_tables).enumerate() {
            let key: Box<[u128]> = rule.fields.iter().map(|f| f.shape().1).collect();
            tables[t].best.entry(key).or_insert(i);
        }
        self.tables = Some(tables);
    }

    pub fn is_compiled(&self) -> bool {
        self.tables.is_some()
    }

    fn compiled_tables(&self) -> RtResult<&[Table]> {
        // Not an IndexError: the firewall's `catch` takes that for "no rule
        // matched" and would turn a missing `compile` into default deny.
        self.tables
            .as_deref()
            .ok_or_else(|| RtError::value("classifier lookup before compile"))
    }

    /// Returns the value of the best-matching rule, or `IndexError` if no
    /// rule matches (mirroring `classifier.get` raising `Hilti::IndexError`,
    /// Figure 5). A classifier that was never compiled raises `ValueError`.
    pub fn get(&self, key: &[FieldValue]) -> RtResult<V> {
        self.matches(key)?
            .ok_or_else(|| RtError::index("no matching rule"))
    }

    /// Returns the best-matching rule's value, if any.
    pub fn matches(&self, key: &[FieldValue]) -> RtResult<Option<V>> {
        let (best, _) = self.probe(key)?;
        Ok(best.map(|i| self.rules[i].value.clone()))
    }

    /// The tuple-space search: the index of the best matching rule and the
    /// number of hash tables probed to find it.
    fn probe(&self, key: &[FieldValue]) -> RtResult<(Option<usize>, usize)> {
        let tables = self.compiled_tables()?;
        if Some(key.len()) != self.arity {
            return Ok((None, 0));
        }
        Ok(with_scratch(key.len(), 0u128, |words| {
            let mut best: Option<usize> = None;
            let mut probes = 0;
            for table in tables {
                // Every rule of this and the later tables is worse.
                if best.is_some_and(|b| b < table.first) {
                    break;
                }
                let typed =
                    table.shape.iter().zip(key).zip(words.iter_mut()).all(
                        |((shape, value), word)| shape.word(value).map(|w| *word = w).is_some(),
                    );
                if !typed {
                    continue;
                }
                probes += 1;
                if let Some(&i) = table.best.get(&*words) {
                    best = Some(best.map_or(i, |b| b.min(i)));
                }
            }
            (best, probes)
        }))
    }

    /// The paper's linked list: scans the rules in priority order. Kept as
    /// the reference the compiled lookup is tested and measured against.
    pub fn matches_linear(&self, key: &[FieldValue]) -> RtResult<Option<V>> {
        self.compiled_tables()?;
        Ok(self
            .rules
            .iter()
            .find(|r| {
                r.fields.len() == key.len() && r.fields.iter().zip(key).all(|(f, v)| f.matches(v))
            })
            .map(|r| r.value.clone()))
    }
}

impl<V> std::fmt::Debug for Classifier<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Classifier {{ rules: {}, shapes: {:?} }}",
            self.rules.len(),
            self.tables.as_ref().map(Vec::len)
        )
    }
}

impl<V: Clone> Default for Classifier<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExceptionKind;

    fn net(s: &str) -> FieldMatcher {
        FieldMatcher::Net(s.parse().unwrap())
    }

    fn akey(s: &str) -> FieldValue {
        FieldValue::Addr(s.parse().unwrap())
    }

    /// The rule set from Figure 5 of the paper.
    fn figure5() -> Classifier<bool> {
        let mut c = Classifier::new();
        c.add(vec![net("10.3.2.1/32"), net("10.1.0.0/16")], true)
            .unwrap();
        c.add(vec![net("10.12.0.0/16"), net("10.1.0.0/16")], false)
            .unwrap();
        c.add(vec![net("10.1.6.0/24"), FieldMatcher::Wildcard], true)
            .unwrap();
        c.add(vec![net("10.1.7.0/24"), FieldMatcher::Wildcard], true)
            .unwrap();
        c.compile();
        c
    }

    #[test]
    fn figure5_semantics() {
        let c = figure5();
        assert!(c.get(&[akey("10.3.2.1"), akey("10.1.99.1")]).unwrap());
        assert!(!c.get(&[akey("10.12.5.5"), akey("10.1.0.1")]).unwrap());
        assert!(c.get(&[akey("10.1.6.100"), akey("8.8.8.8")]).unwrap());
        assert!(c.get(&[akey("10.1.7.1"), akey("1.2.3.4")]).unwrap());
        // No rule: IndexError, the firewall's default-deny path.
        let miss = c.get(&[akey("172.16.0.1"), akey("10.1.0.1")]).unwrap_err();
        assert_eq!(miss.kind, ExceptionKind::IndexError);
        // A key of the wrong arity matches nothing.
        assert_eq!(c.matches(&[akey("10.3.2.1")]).unwrap(), None);
    }

    #[test]
    fn lookup_before_compile_is_an_error() {
        // Low priority added first: an unsorted scan would answer "low".
        let mut c = Classifier::new();
        c.add_with_priority(vec![FieldMatcher::Wildcard], "low", 1)
            .unwrap();
        c.add_with_priority(vec![FieldMatcher::Wildcard], "high", 2)
            .unwrap();
        let key = [akey("1.2.3.4")];
        for err in [
            c.get(&key).unwrap_err(),
            c.matches(&key).unwrap_err(),
            c.matches_linear(&key).unwrap_err(),
        ] {
            // Not IndexError, which callers take for "no rule matched".
            assert_eq!(err.kind, ExceptionKind::ValueError, "{err}");
        }
        c.compile();
        assert_eq!(c.get(&key).unwrap(), "high");
    }

    #[test]
    fn specificity_priority() {
        let mut c = Classifier::new();
        c.add(vec![net("10.0.0.0/8")], "broad").unwrap();
        c.add(vec![net("10.1.0.0/16")], "narrow").unwrap();
        c.compile();
        assert_eq!(c.matches(&[akey("10.1.2.3")]).unwrap(), Some("narrow"));
        assert_eq!(c.matches(&[akey("10.2.2.3")]).unwrap(), Some("broad"));
    }

    #[test]
    fn explicit_priority_overrides() {
        let mut c = Classifier::new();
        c.add_with_priority(vec![net("10.0.0.0/8")], "broad-high", 1000)
            .unwrap();
        c.add_with_priority(vec![net("10.1.0.0/16")], "narrow-low", 1)
            .unwrap();
        c.compile();
        assert_eq!(c.matches(&[akey("10.1.2.3")]).unwrap(), Some("broad-high"));
    }

    #[test]
    fn insertion_order_breaks_ties() {
        let mut c = Classifier::new();
        c.add_with_priority(vec![FieldMatcher::Wildcard], "first", 0)
            .unwrap();
        c.add_with_priority(vec![FieldMatcher::Wildcard], "second", 0)
            .unwrap();
        c.compile();
        assert_eq!(c.matches(&[akey("1.2.3.4")]).unwrap(), Some("first"));
    }

    #[test]
    fn arity_enforced() {
        let mut c = Classifier::new();
        c.add(vec![FieldMatcher::Wildcard, FieldMatcher::Wildcard], 1)
            .unwrap();
        assert!(c.add(vec![FieldMatcher::Wildcard], 2).is_err());
    }

    #[test]
    fn add_after_compile_fails() {
        let mut c = Classifier::new();
        c.add(vec![FieldMatcher::Wildcard], 1).unwrap();
        c.compile();
        assert!(c.add(vec![FieldMatcher::Wildcard], 2).is_err());
    }

    #[test]
    fn port_and_int_fields() {
        let mut c = Classifier::new();
        c.add(
            vec![FieldMatcher::Port(Port::tcp(80)), FieldMatcher::Int(4)],
            "web4",
        )
        .unwrap();
        c.add(
            vec![FieldMatcher::Port(Port::tcp(80)), FieldMatcher::Wildcard],
            "web",
        )
        .unwrap();
        c.compile();
        let get = |port, int| {
            c.matches(&[FieldValue::Port(port), FieldValue::Int(int)])
                .unwrap()
        };
        assert_eq!(get(Port::tcp(80), 4), Some("web4"));
        assert_eq!(get(Port::tcp(80), 6), Some("web"));
        assert_eq!(get(Port::udp(80), 4), None);
    }

    #[test]
    fn wildcard_type_tolerance() {
        // A wildcard matches values of any type.
        assert!(FieldMatcher::Wildcard.matches(&FieldValue::Int(7)));
        // Typed matchers never match mistyped values.
        assert!(!FieldMatcher::Port(Port::tcp(80)).matches(&FieldValue::Int(80)));
        let mut c = Classifier::new();
        c.add(vec![FieldMatcher::Wildcard], "any").unwrap();
        c.add(vec![FieldMatcher::Port(Port::tcp(80))], "web")
            .unwrap();
        c.compile();
        assert_eq!(c.matches(&[FieldValue::Int(80)]).unwrap(), Some("any"));
    }

    /// `n` rules of the firewall benchmark's two shapes — a distinct source
    /// /24 each, destination 172.16.0.0/16 or 0.0.0.0/0 — best rule first,
    /// each valued by its index.
    fn firewall_shaped(n: u32) -> Classifier<u32> {
        let mut c = Classifier::new();
        for i in 0..n {
            let src = Network::new(Addr::from_v4_u32((10 << 24) + (i << 8)), 24).unwrap();
            let dst = if i % 2 == 0 {
                net("172.16.0.0/16")
            } else {
                net("0.0.0.0/0")
            };
            c.add_with_priority(vec![FieldMatcher::Net(src), dst], i, i64::from(n - i))
                .unwrap();
        }
        c.compile();
        c
    }

    #[test]
    fn compiled_agrees_with_linear_on_large_ruleset() {
        let mut c = Classifier::new();
        for i in 0..200u32 {
            let net_s = format!("10.{}.{}.0/24", i % 16, i % 256);
            c.add(vec![net(&net_s), FieldMatcher::Wildcard], i % 3 == 0)
                .unwrap();
        }
        // Plus a catch-all with low priority.
        c.add_with_priority(
            vec![FieldMatcher::Wildcard, FieldMatcher::Wildcard],
            true,
            -1,
        )
        .unwrap();
        c.compile();
        for i in 0..500u32 {
            let probe = [
                FieldValue::Addr(Addr::v4(10, (i % 20) as u8, (i % 250) as u8, 1)),
                FieldValue::Addr(Addr::v4(192, 168, 0, 1)),
            ];
            assert_eq!(
                c.matches(&probe).unwrap(),
                c.matches_linear(&probe).unwrap(),
                "probe {i}"
            );
        }
    }

    #[test]
    fn probes_do_not_grow_with_the_rule_count() {
        let probes_at = |n: u32| {
            let c = firewall_shaped(n);
            let shapes = c.tables.as_ref().unwrap().len();
            assert_eq!(shapes, 2);
            let last = n - 1;
            let worst_src = Addr::from_v4_u32((10 << 24) + (last << 8) + 9);
            // The best rule, the worst rule, and no rule at all.
            [
                ([akey("10.0.0.9"), akey("172.16.3.4")], Some(0)),
                (
                    [FieldValue::Addr(worst_src), akey("8.8.8.8")],
                    Some(last as usize),
                ),
                ([akey("9.0.0.9"), akey("172.16.3.4")], None),
            ]
            .map(|(key, rule)| {
                let (hit, probes) = c.probe(&key).unwrap();
                assert_eq!(hit, rule, "{n} rules");
                assert!(probes <= shapes, "{probes} probes for {shapes} shapes");
                probes
            })
        };
        let small = probes_at(4_096);
        assert_eq!(small, probes_at(262_144));
        // The best rule ends the search at once; the others need both shapes.
        assert_eq!(small, [1, 2, 2]);
    }

    #[test]
    fn v6_rules() {
        let mut c = Classifier::new();
        c.add(vec![net("2001:db8::/32")], "doc").unwrap();
        c.compile();
        assert_eq!(c.matches(&[akey("2001:db8::1")]).unwrap(), Some("doc"));
        assert_eq!(c.matches(&[akey("2001:db9::1")]).unwrap(), None);
        // v4 probe against v6 rule: no match.
        assert_eq!(c.matches(&[akey("10.0.0.1")]).unwrap(), None);
    }

    #[test]
    fn default_routes_keep_their_family() {
        let mut c = Classifier::new();
        c.add(vec![net("0.0.0.0/0")], "v4").unwrap();
        c.add(vec![net("::/0")], "v6").unwrap();
        c.compile();
        assert_eq!(c.matches(&[akey("10.0.0.1")]).unwrap(), Some("v4"));
        assert_eq!(c.matches(&[akey("2001:db8::1")]).unwrap(), Some("v6"));
        assert_eq!(c.matches(&[FieldValue::Int(1)]).unwrap(), None);
    }

    #[test]
    fn duplicate_keys_keep_the_first_rule() {
        let mut c = Classifier::new();
        c.add(vec![net("10.0.0.0/8")], "first").unwrap();
        c.add(vec![net("10.0.0.0/8")], "second").unwrap();
        // A host and its /32 are the same key.
        c.add(
            vec![FieldMatcher::Host("10.1.1.1".parse().unwrap())],
            "host",
        )
        .unwrap();
        c.add_with_priority(vec![net("10.1.1.1/32")], "net32", 1_000)
            .unwrap();
        c.compile();
        assert_eq!(c.matches(&[akey("10.2.3.4")]).unwrap(), Some("first"));
        assert_eq!(c.matches(&[akey("10.1.1.1")]).unwrap(), Some("net32"));
    }
}
