//! Property-based tests on the runtime library's core data structures.

use proptest::prelude::*;

use hilti_rt::addr::{Addr, Network};
use hilti_rt::bytestring::Bytes;
use hilti_rt::containers::{ExpireStrategy, ExpiringSet};
use hilti_rt::regexp::{MatchVerdict, Regex};
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::TimerMgr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bytes contents equal the concatenation of appends, however split.
    #[test]
    fn bytes_is_append_concat(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..30), 0..10)) {
        let b = Bytes::new();
        let mut expected = Vec::new();
        for c in &chunks {
            b.append(c).unwrap();
            expected.extend_from_slice(c);
        }
        prop_assert_eq!(b.to_vec(), expected.clone());
        prop_assert_eq!(b.len(), expected.len());
        // Extract arbitrary valid sub-ranges.
        if !expected.is_empty() {
            let mid = expected.len() / 2;
            prop_assert_eq!(
                b.extract(0, mid as u64).unwrap(),
                expected[..mid].to_vec()
            );
        }
    }

    /// find agrees with a naive search on frozen data.
    #[test]
    fn bytes_find_is_naive_search(
        hay in proptest::collection::vec(0u8..4, 0..60),
        needle in proptest::collection::vec(0u8..4, 1..5),
    ) {
        let b = Bytes::frozen_from_slice(&hay);
        let naive = hay
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .map(|p| p as u64);
        prop_assert_eq!(b.find(0, &needle).unwrap(), naive);
    }

    /// Timers fire exactly once, in deadline order, never early.
    #[test]
    fn timers_fire_once_in_order(
        deadlines in proptest::collection::vec(0u64..1000, 1..50),
        step in 1u64..200,
    ) {
        let mut mgr = TimerMgr::new();
        for (i, d) in deadlines.iter().enumerate() {
            mgr.schedule(Time::from_secs(*d), i);
        }
        let mut fired: Vec<(u64, usize)> = Vec::new();
        let mut t = 0u64;
        while t < 1200 {
            t += step;
            for id in mgr.advance(Time::from_secs(t)) {
                prop_assert!(deadlines[id] <= t, "fired early");
                fired.push((deadlines[id], id));
            }
        }
        prop_assert_eq!(fired.len(), deadlines.len());
        // Deadline-ordered (stable within a single advance call).
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 || w[0].0.abs_diff(w[1].0) < step,
                "order violated beyond batch granularity");
        }
    }

    /// Create-expire: an untouched entry lives exactly `timeout` seconds.
    #[test]
    fn create_expire_exact(timeout in 1i64..100, probe in 0i64..200) {
        let mut s: ExpiringSet<u8> = ExpiringSet::new();
        s.set_timeout(ExpireStrategy::Create, Interval::from_secs(timeout));
        s.insert(1, Time::ZERO);
        s.advance(Time::from_secs(probe as u64));
        prop_assert_eq!(s.contains(&1), probe < timeout);
    }

    /// Address masking is idempotent and monotone in prefix length.
    #[test]
    fn mask_idempotent(raw in any::<u32>(), bits in 0u8..=32) {
        let a = Addr::from_v4_u32(raw);
        let m = a.mask(bits);
        prop_assert_eq!(m.mask(bits), m);
        // A shorter mask of the masked address equals the shorter mask of
        // the original.
        if bits > 0 {
            prop_assert_eq!(m.mask(bits - 1), a.mask(bits - 1));
        }
    }

    /// A network contains every address sharing its prefix and no address
    /// differing within the prefix.
    #[test]
    fn network_membership(raw in any::<u32>(), bits in 1u8..=32, flip in 0u8..32) {
        let a = Addr::from_v4_u32(raw);
        let net = Network::new(a, bits).unwrap();
        prop_assert!(net.contains(&a));
        // Flip a bit *inside* the prefix -> not contained (if bit < bits).
        let flipped = Addr::from_v4_u32(raw ^ (1 << (31 - flip.min(31))));
        if flip < bits {
            prop_assert!(!net.contains(&flipped));
        } else {
            prop_assert!(net.contains(&flipped));
        }
    }

    /// `Addr` is stored as two 64-bit halves and must behave as the 128-bit
    /// value they stand for: numeric order (sorted `set.members` /
    /// `map.keys`, and the logs built from them, depend on it), equality
    /// and hashing that agree with it, and lossless text and raw forms —
    /// for IPv6 values, IPv4-mapped ones, and pairs sharing a high half.
    #[test]
    fn addr_behaves_as_its_u128(
        halves in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        v4 in any::<u32>(),
        same_high_half in any::<bool>(),
    ) {
        use std::hash::{Hash, Hasher};
        use std::net::{Ipv4Addr, Ipv6Addr};
        let hash = |a: &Addr| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            a.hash(&mut h);
            h.finish()
        };
        let (ah, al, bh, bl) = halves;
        let bh = if same_high_half { ah } else { bh };
        let raws = [
            (u128::from(ah) << 64) | u128::from(al),
            (u128::from(bh) << 64) | u128::from(bl),
            Addr::from_v4_u32(v4).raw(),
        ];
        for x in raws {
            let a = Addr::from_v6_u128(x);
            prop_assert_eq!(a.raw(), x);
            let same = Addr::from_v6_bytes(x.to_be_bytes());
            prop_assert_eq!(a, same);
            prop_assert_eq!(hash(&a), hash(&same));
            prop_assert_eq!(a.to_string().parse::<Addr>().unwrap(), a);
            let mapped = (x >> 32) == 0xffff;
            prop_assert_eq!(a.is_v4(), mapped);
            if mapped {
                prop_assert_eq!(a.as_v4_u32(), Some(x as u32));
                prop_assert_eq!(a.to_string(), Ipv4Addr::from(x as u32).to_string());
            } else {
                prop_assert_eq!(a.as_v4_u32(), None);
                prop_assert_eq!(a.to_string(), Ipv6Addr::from(x).to_string());
            }
            for y in raws {
                let b = Addr::from_v6_u128(y);
                prop_assert_eq!(a.cmp(&b), x.cmp(&y));
                prop_assert_eq!(a == b, x == y);
            }
        }
        prop_assert_eq!(Addr::from_v4_u32(v4), Addr::from_v4_bytes(v4.to_be_bytes()));
        prop_assert_eq!(Addr::from_v4_u32(v4).to_string(), Ipv4Addr::from(v4).to_string());
    }

    /// Regexp literal-matching agrees with string equality.
    #[test]
    fn regexp_literal_exact(s in "[a-z]{1,12}", t in "[a-z]{1,12}") {
        let re = Regex::new(&s).unwrap();
        match re.match_prefix(t.as_bytes()) {
            MatchVerdict::Match { len, .. } => {
                prop_assert!(t.starts_with(&s));
                prop_assert_eq!(len as usize, s.len());
            }
            MatchVerdict::NoMatch => prop_assert!(!t.starts_with(&s)),
        }
    }

    /// `a*` always matches, with the run length of leading a's.
    #[test]
    fn regexp_star_run_length(input in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..40)) {
        let re = Regex::new("a*").unwrap();
        let run = input.iter().take_while(|&&b| b == b'a').count();
        match re.match_prefix(&input) {
            MatchVerdict::Match { len, .. } => prop_assert_eq!(len as usize, run),
            MatchVerdict::NoMatch => prop_assert!(false, "a* must always match"),
        }
    }

    /// FNV continuation composes like one-shot hashing.
    #[test]
    fn fnv_composes(data in proptest::collection::vec(any::<u8>(), 0..100), cut in 0usize..100) {
        use hilti_rt::hashutil::{fnv1a, fnv1a_continue};
        let cut = cut.min(data.len());
        let whole = fnv1a(&data);
        let split = fnv1a_continue(fnv1a(&data[..cut]), &data[cut..]);
        prop_assert_eq!(whole, split);
    }

}
