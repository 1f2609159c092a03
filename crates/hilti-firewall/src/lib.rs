//! # hilti-firewall — the stateful firewall host application (§4, §6.3)
//!
//! The paper's second proof-of-concept: a compiler turning rules of the
//! form `(src-net, dst-net) → {allow, deny}` into HILTI code. The
//! generated program (Figure 5) uses two HILTI capabilities:
//!
//! * the `classifier` type for matching the static rules, and
//! * a `set` indexed by host pair with an access-expiration timeout for
//!   *dynamic* rules: once a pair matches an allow rule, reverse-direction
//!   traffic is permitted until 5 minutes of inactivity pass.
//!
//! [`ReferenceFirewall`] is the independent plain-Rust implementation used
//! to validate the HILTI version (the paper used "a simple Python script
//! that implements the same functionality independently").

use hilti::host::Program;
use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti::vm::FuncId;
use hilti_rt::addr::{Addr, Network};
use hilti_rt::error::RtResult;
use hilti_rt::time::{Interval, Time};

/// One firewall rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    pub src: Network,
    pub dst: Network,
    pub allow: bool,
}

impl Rule {
    pub fn new(src: &str, dst: &str, allow: bool) -> RtResult<Rule> {
        Ok(Rule {
            src: src.parse()?,
            dst: dst.parse()?,
            allow,
        })
    }
}

/// Default inactivity timeout for dynamic rules (the paper's 5 minutes).
pub const DYNAMIC_TIMEOUT_SECS: i64 = 300;

/// A network as HILTI source. IPv6 needs the constructor form: its single
/// colons are not atom characters.
struct NetLiteral(Network);

impl std::fmt::Display for NetLiteral {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.prefix().is_v6() {
            write!(f, "net(\"{}\")", self.0)
        } else {
            self.0.fmt(f)
        }
    }
}

/// Generates the Figure 5 HILTI program for a rule set.
pub fn generate_source(rules: &[Rule], timeout_secs: i64) -> String {
    let mut src = String::new();
    src.push_str("module Firewall\n\n");
    src.push_str("# Data type for a single filter rule.\n");
    src.push_str("type Rule = struct { net src, net dst }\n\n");
    src.push_str("# The classifier storing the rules.\n");
    src.push_str("global ref<classifier<Rule, bool>> rules\n\n");
    src.push_str("# Dynamic rules: address pairs allowed to communicate.\n");
    src.push_str("global ref<set<tuple<addr, addr>>> dyn\n\n");

    // Compiled rule set — "generated by the application's analysis
    // compiler" (Figure 5). First match wins: earlier rules get higher
    // explicit priority.
    src.push_str("void init_rules(ref<classifier<Rule, bool>> r) {\n");
    let n = rules.len() as i64;
    for (i, rule) in rules.iter().enumerate() {
        let action = if rule.allow { "True" } else { "False" };
        src.push_str(&format!(
            "    classifier.add_prio r ({}, {}) {action} {}\n",
            NetLiteral(rule.src),
            NetLiteral(rule.dst),
            n - i as i64
        ));
    }
    src.push_str("}\n\n");

    src.push_str("void init_classifier() {\n");
    src.push_str("    rules = new classifier<Rule, bool>\n");
    src.push_str("    call init_rules (rules)\n");
    src.push_str("    classifier.compile rules\n");
    src.push_str("    dyn = new set<tuple<addr, addr>>\n");
    src.push_str(&format!(
        "    set.timeout dyn ExpireStrategy::Access interval({timeout_secs})\n"
    ));
    src.push_str("}\n\n");

    src.push_str("# Function called for each packet, passing in\n");
    src.push_str("# timestamp and addresses. Returns true if ok.\n");
    src.push_str("bool match_packet(time t, addr src, addr dst) {\n");
    src.push_str("    local bool b\n");
    src.push_str("    # Advance HILTI's global time. This will expire\n");
    src.push_str("    # inactive entries from the state set.\n");
    src.push_str("    timer_mgr.advance_global t\n");
    src.push_str("    # See if we have a state entry for this pair.\n");
    src.push_str("    b = set.exists dyn (src, dst)\n");
    src.push_str("    if.else b return_action lookup\n\n");
    src.push_str("lookup:\n");
    src.push_str("    try {\n");
    src.push_str("        b = classifier.get rules (src, dst)\n");
    src.push_str("    } catch ( ref<Hilti::IndexError> e ) {\n");
    src.push_str("        return False\n");
    src.push_str("    }\n");
    src.push_str("    if.else b add_state return_action\n\n");
    src.push_str("add_state:\n");
    src.push_str("    set.insert dyn (src, dst)\n");
    src.push_str("    set.insert dyn (dst, src)\n\n");
    src.push_str("return_action:\n");
    src.push_str("    return b\n");
    src.push_str("}\n");
    src
}

/// The firewall compiled to HILTI, running on the bytecode VM.
pub struct HiltiFirewall {
    program: Program,
    /// `Firewall::match_packet`, resolved once rather than per packet.
    match_packet: FuncId,
    source: String,
}

impl HiltiFirewall {
    /// Compiles a rule set and initializes the classifier and state set.
    pub fn compile(rules: &[Rule], opt: OptLevel) -> RtResult<HiltiFirewall> {
        Self::compile_with_timeout(rules, Interval::from_secs(DYNAMIC_TIMEOUT_SECS), opt)
    }

    pub fn compile_with_timeout(
        rules: &[Rule],
        timeout: Interval,
        opt: OptLevel,
    ) -> RtResult<HiltiFirewall> {
        let source = generate_source(rules, timeout.nanos() / 1_000_000_000);
        let mut program = Program::from_sources(&[&source], opt)?;
        program.run_void("Firewall::init_classifier", &[])?;
        let match_packet = program.func_id("Firewall::match_packet")?;
        Ok(HiltiFirewall {
            program,
            match_packet,
            source,
        })
    }

    /// The generated HILTI source (the Figure 5 analog).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Per-packet verdict: (timestamp, src, dst) → allow?
    pub fn match_packet(&mut self, t: Time, src: Addr, dst: Addr) -> RtResult<bool> {
        let v = self.program.run_id(
            self.match_packet,
            &[Value::Time(t), Value::Addr(src), Value::Addr(dst)],
        )?;
        v.as_bool()
    }

    /// The dynamic rules held: `(live pairs, deadline records queued)`.
    pub fn dynamic_state(&self) -> (usize, usize) {
        let slot = self.program.linked().global_index["Firewall::dyn"];
        match &self.program.context().globals[slot] {
            Value::Set(set) => {
                let set = set.borrow();
                (set.len(), set.queued())
            }
            _ => (0, 0),
        }
    }
}

/// Independent reference implementation (the paper's Python cross-check).
pub struct ReferenceFirewall {
    rules: Vec<Rule>,
    timeout: Interval,
    /// (a, b) → last-touch time.
    dynamic: std::collections::HashMap<(Addr, Addr), Time>,
}

impl ReferenceFirewall {
    pub fn new(rules: &[Rule]) -> ReferenceFirewall {
        ReferenceFirewall {
            rules: rules.to_vec(),
            timeout: Interval::from_secs(DYNAMIC_TIMEOUT_SECS),
            dynamic: std::collections::HashMap::new(),
        }
    }

    pub fn with_timeout(mut self, timeout: Interval) -> ReferenceFirewall {
        self.timeout = timeout;
        self
    }

    pub fn match_packet(&mut self, t: Time, src: Addr, dst: Addr) -> bool {
        // Expire, then check dynamic state (refreshing on hit).
        self.dynamic.retain(|_, last| *last + self.timeout > t);
        if let Some(last) = self.dynamic.get_mut(&(src, dst)) {
            *last = t;
            return true;
        }
        // Static rules, first match wins; default deny.
        for r in &self.rules {
            if r.src.contains(&src) && r.dst.contains(&dst) {
                if r.allow {
                    self.dynamic.insert((src, dst), t);
                    self.dynamic.insert((dst, src), t);
                }
                return r.allow;
            }
        }
        false
    }

    pub fn dynamic_pairs(&self) -> usize {
        self.dynamic.len()
    }
}

/// The example rule set from Figure 5.
pub fn figure5_rules() -> Vec<Rule> {
    vec![
        Rule::new("10.3.2.1/32", "10.1.0.0/16", true).expect("static rule"),
        Rule::new("10.12.0.0/16", "10.1.0.0/16", false).expect("static rule"),
        Rule::new("10.1.6.0/24", "0.0.0.0/0", true).expect("static rule"),
        Rule::new("10.1.7.0/24", "0.0.0.0/0", true).expect("static rule"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn t(s: u64) -> Time {
        Time::from_secs(s)
    }

    #[test]
    fn figure5_static_semantics() {
        let mut fw = HiltiFirewall::compile(&figure5_rules(), OptLevel::Full).unwrap();
        assert!(fw
            .match_packet(t(1), a("10.3.2.1"), a("10.1.50.1"))
            .unwrap());
        assert!(!fw
            .match_packet(t(1), a("10.12.9.9"), a("10.1.0.1"))
            .unwrap());
        assert!(fw
            .match_packet(t(1), a("10.1.6.5"), a("99.99.99.99"))
            .unwrap());
        assert!(fw.match_packet(t(1), a("10.1.7.5"), a("1.2.3.4")).unwrap());
        // Default deny.
        assert!(!fw
            .match_packet(t(1), a("172.16.0.1"), a("10.1.0.1"))
            .unwrap());
    }

    #[test]
    fn first_match_wins() {
        // An allow rule shadowed by an earlier deny for the same pair.
        let rules = vec![
            Rule::new("10.0.0.0/8", "20.0.0.0/8", false).unwrap(),
            Rule::new("10.1.0.0/16", "20.0.0.0/8", true).unwrap(),
        ];
        let mut fw = HiltiFirewall::compile(&rules, OptLevel::Full).unwrap();
        assert!(!fw.match_packet(t(1), a("10.1.2.3"), a("20.0.0.1")).unwrap());
        let mut rf = ReferenceFirewall::new(&rules);
        assert!(!rf.match_packet(t(1), a("10.1.2.3"), a("20.0.0.1")));
    }

    #[test]
    fn dynamic_reverse_direction_allowed() {
        let mut fw = HiltiFirewall::compile(&figure5_rules(), OptLevel::Full).unwrap();
        // No static rule allows traffic *to* 10.3.2.1 from 10.1.x —
        // until the forward direction establishes state.
        assert!(!fw
            .match_packet(t(1), a("10.1.50.1"), a("10.3.2.1"))
            .unwrap());
        assert!(fw
            .match_packet(t(2), a("10.3.2.1"), a("10.1.50.1"))
            .unwrap());
        assert!(fw
            .match_packet(t(3), a("10.1.50.1"), a("10.3.2.1"))
            .unwrap());
    }

    #[test]
    fn dynamic_state_expires_after_inactivity() {
        let mut fw = HiltiFirewall::compile(&figure5_rules(), OptLevel::Full).unwrap();
        assert!(fw
            .match_packet(t(0), a("10.3.2.1"), a("10.1.50.1"))
            .unwrap());
        assert!(fw
            .match_packet(t(100), a("10.1.50.1"), a("10.3.2.1"))
            .unwrap());
        // Keep-alives every 100 s keep the pair alive past 300 s total.
        assert!(fw
            .match_packet(t(200), a("10.1.50.1"), a("10.3.2.1"))
            .unwrap());
        assert!(fw
            .match_packet(t(350), a("10.1.50.1"), a("10.3.2.1"))
            .unwrap());
        // Now go quiet for > 300 s: the reverse direction is denied again.
        assert!(!fw
            .match_packet(t(700), a("10.1.50.1"), a("10.3.2.1"))
            .unwrap());
    }

    #[test]
    fn reference_agrees_on_fixed_scenario() {
        let rules = figure5_rules();
        let mut fw = HiltiFirewall::compile(&rules, OptLevel::Full).unwrap();
        let mut rf = ReferenceFirewall::new(&rules);
        let script: &[(u64, &str, &str)] = &[
            (1, "10.3.2.1", "10.1.0.5"),
            (2, "10.1.0.5", "10.3.2.1"),
            (3, "10.12.0.1", "10.1.0.5"),
            (4, "10.1.6.1", "8.8.8.8"),
            (5, "8.8.8.8", "10.1.6.1"),
            (400, "10.1.0.5", "10.3.2.1"),
            (401, "10.3.2.1", "10.1.0.5"),
            (402, "10.1.0.5", "10.3.2.1"),
        ];
        for (ts, s, d) in script {
            let h = fw.match_packet(t(*ts), a(s), a(d)).unwrap();
            let r = rf.match_packet(t(*ts), a(s), a(d));
            assert_eq!(h, r, "disagreement at t={ts} {s}->{d}");
        }
    }

    /// Replays `n` seeded packets, 7 s apart, through both firewalls,
    /// verdict for verdict; `pair` turns two random words into addresses.
    /// Returns how many packets were allowed.
    fn replay_against_reference(
        rules: &[Rule],
        timeout: Interval,
        n: u64,
        mut pair: impl FnMut(u64, u64) -> (Addr, Addr),
    ) -> u64 {
        let mut fw = HiltiFirewall::compile_with_timeout(rules, timeout, OptLevel::Full).unwrap();
        let mut rf = ReferenceFirewall::new(rules).with_timeout(timeout);
        let mut rng = hilti_rt::rng::Rng::new(0x243f_6a88_85a3_08d3);
        let mut allowed = 0;
        for i in 0..n {
            let (src, dst) = pair(rng.next_u64(), rng.next_u64());
            let ts = t(i * 7);
            let h = fw.match_packet(ts, src, dst).unwrap();
            let expected = rf.match_packet(ts, src, dst);
            assert_eq!(h, expected, "packet {i}: {src} -> {dst} at {ts}");
            allowed += u64::from(h);
            // Same live state, and one deadline record per live pair at most.
            let (pairs, records) = fw.dynamic_state();
            assert_eq!(pairs, rf.dynamic_pairs(), "packet {i}");
            assert!(
                records <= pairs,
                "packet {i}: {records} records, {pairs} pairs"
            );
        }
        allowed
    }

    #[test]
    fn reference_agrees_on_random_stream() {
        // A pseudo-random packet stream over a small host population, with
        // time advancing — the §6.3 validation, strengthened to per-packet.
        let rules = vec![
            Rule::new("10.0.1.0/24", "10.0.2.0/24", true).unwrap(),
            Rule::new("10.0.2.0/24", "10.0.3.0/24", false).unwrap(),
            Rule::new("10.0.3.0/24", "0.0.0.0/0", true).unwrap(),
        ];
        let host = |r: u64| Addr::v4(10, 0, 1 + (r % 4) as u8, 1 + ((r >> 8) % 5) as u8);
        let allowed = replay_against_reference(&rules, Interval::from_secs(50), 2000, |r, r2| {
            (host(r), host(r2))
        });
        // Sanity: the stream exercises both verdicts.
        assert!(allowed > 100 && allowed < 1900, "allowed={allowed}");
    }

    #[test]
    fn reference_agrees_over_thousands_of_timeouts() {
        // 20 000 packets 7 s apart against a 60 s timeout: pairs are
        // created, refreshed and expired across ~2 300 timeout periods,
        // and the state set never holds a record per touch.
        let rules = vec![
            Rule::new("10.0.0.0/16", "10.1.0.0/16", true).unwrap(),
            Rule::new("10.1.0.0/16", "10.0.0.0/16", false).unwrap(),
        ];
        let host = |r: u64| Addr::v4(10, (r % 2) as u8, 0, 1 + ((r >> 8) % 12) as u8);
        let allowed = replay_against_reference(&rules, Interval::from_secs(60), 20_000, |r, r2| {
            (host(r), host(r2))
        });
        assert!(allowed > 2_000 && allowed < 18_000, "allowed={allowed}");
    }

    #[test]
    fn reference_agrees_on_4096_overlapping_rules() {
        // Sources are /24s shadowed here and there by an earlier or later
        // /16, destinations a /16, a /24 or everything: first match decides,
        // and which rule is first differs from packet to packet.
        let rules: Vec<Rule> = (0..4096u32)
            .map(|i| {
                let (hi, lo) = ((i >> 8) as u8, i as u8);
                let src = if i % 7 == 3 {
                    Network::new(Addr::v4(10, hi, 0, 0), 16)
                } else {
                    Network::new(Addr::v4(10, hi, lo, 0), 24)
                };
                let dst = match i % 3 {
                    0 => Network::new(Addr::v4(172, 16 + lo % 16, 0, 0), 16),
                    1 => Network::new(Addr::v4(0, 0, 0, 0), 0),
                    _ => Network::new(Addr::v4(172, 16, lo, 0), 24),
                };
                Rule {
                    src: src.unwrap(),
                    dst: dst.unwrap(),
                    allow: i % 5 != 0,
                }
            })
            .collect();
        let mut last = (Addr::v4(0, 0, 0, 0), Addr::v4(0, 0, 0, 0));
        let allowed = replay_against_reference(
            &rules,
            Interval::from_secs(DYNAMIC_TIMEOUT_SECS),
            3000,
            |r, r2| {
                last = if r % 3 == 0 {
                    // The reverse direction: allowed only through state.
                    (last.1, last.0)
                } else {
                    (
                        // 10.16.x.x is past every rule.
                        Addr::v4(
                            10,
                            (r % 17) as u8,
                            (r >> 8) as u8,
                            1 + ((r >> 16) % 3) as u8,
                        ),
                        Addr::v4(172, 16 + (r2 % 17) as u8, (r2 >> 8) as u8, 1),
                    )
                };
                last
            },
        );
        assert!(allowed > 300 && allowed < 2700, "allowed={allowed}");
    }

    #[test]
    fn v6_rules_and_packets() {
        let rules = vec![
            Rule::new("2001:db8:1::/48", "2001:db8:2::/48", true).unwrap(),
            Rule::new("2001:db8::/32", "2001:db8:3::/48", false).unwrap(),
            Rule::new("10.0.0.0/8", "0.0.0.0/0", true).unwrap(),
        ];
        let mut fw = HiltiFirewall::compile(&rules, OptLevel::Full).unwrap();
        let mut rf = ReferenceFirewall::new(&rules);
        let script: &[(u64, &str, &str, bool)] = &[
            (1, "2001:db8:2::9", "2001:db8:1::5", false),
            (2, "2001:db8:1::5", "2001:db8:2::9", true),
            // The reverse direction, through state.
            (3, "2001:db8:2::9", "2001:db8:1::5", true),
            (4, "2001:db8:1::5", "2001:db8:3::1", false),
            // 0.0.0.0/0 is every IPv4 destination, and no IPv6 one.
            (5, "10.1.1.1", "2001:db8:2::9", false),
            (6, "10.1.1.1", "192.0.2.1", true),
        ];
        for &(ts, s, d, allow) in script {
            assert_eq!(rf.match_packet(t(ts), a(s), a(d)), allow, "{s} -> {d}");
            assert_eq!(
                fw.match_packet(t(ts), a(s), a(d)).unwrap(),
                allow,
                "{s} -> {d}"
            );
        }
    }

    #[test]
    fn generated_source_matches_figure5_shape() {
        let src = generate_source(&figure5_rules(), 300);
        assert!(src.contains("type Rule = struct { net src, net dst }"));
        assert!(src.contains("classifier.compile rules"));
        assert!(src.contains("set.timeout dyn ExpireStrategy::Access interval(300)"));
        assert!(src.contains("timer_mgr.advance_global t"));
    }

    #[test]
    fn empty_ruleset_denies_everything() {
        let mut fw = HiltiFirewall::compile(&[], OptLevel::Full).unwrap();
        assert!(!fw.match_packet(t(1), a("1.1.1.1"), a("2.2.2.2")).unwrap());
    }
}
