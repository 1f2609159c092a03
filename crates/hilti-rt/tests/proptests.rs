//! Property-based tests on the runtime library's core data structures:
//! 128 seeded cases each.

use hilti_rt::addr::{Addr, Network};
use hilti_rt::bytestring::Bytes;
use hilti_rt::containers::{ExpireStrategy, ExpiringSet};
use hilti_rt::regexp::{MatchVerdict, Regex};
use hilti_rt::rng::Rng;
use hilti_rt::time::{Interval, Time};
use hilti_rt::timer::TimerMgr;

const CASES: u32 = 128;

/// `lo + below(hi - lo)` random bytes.
fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u8> {
    let mut data = vec![0; (lo + rng.below(hi - lo)) as usize];
    rng.fill(&mut data);
    data
}

/// `[a-z]{1,max}`.
fn lowercase(rng: &mut Rng, max: u64) -> String {
    (0..1 + rng.below(max))
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

/// Bytes contents equal the concatenation of appends, however split.
#[test]
fn bytes_is_append_concat() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("bytes_is_append_concat", case);
        let b = Bytes::new();
        let mut expected = Vec::new();
        for _ in 0..rng.below(10) {
            let c = bytes(rng, 0, 30);
            b.append(&c).unwrap();
            expected.extend_from_slice(&c);
        }
        assert_eq!(b.to_vec(), expected, "case {case}");
        assert_eq!(b.len(), expected.len(), "case {case}");
        // Extract arbitrary valid sub-ranges.
        let mid = expected.len() / 2;
        let head = b.extract(0, mid as u64).unwrap();
        assert_eq!(head, expected[..mid], "case {case}");
    }
}

/// find agrees with a naive search on frozen data.
#[test]
fn bytes_find_is_naive_search() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("bytes_find_is_naive_search", case);
        let hay: Vec<u8> = (0..rng.below(60)).map(|_| rng.below(4) as u8).collect();
        let needle: Vec<u8> = (0..1 + rng.below(4)).map(|_| rng.below(4) as u8).collect();
        let b = Bytes::frozen_from_slice(&hay);
        let naive = hay
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .map(|p| p as u64);
        assert_eq!(b.find(0, &needle).unwrap(), naive, "case {case}");
    }
}

/// Timers fire exactly once, in deadline order, never early.
#[test]
fn timers_fire_once_in_order() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("timers_fire_once_in_order", case);
        let deadlines: Vec<u64> = (0..1 + rng.below(49)).map(|_| rng.below(1000)).collect();
        let step = 1 + rng.below(199);
        let mut mgr = TimerMgr::new();
        for (i, d) in deadlines.iter().enumerate() {
            mgr.schedule(Time::from_secs(*d), i);
        }
        let mut fired: Vec<(u64, usize)> = Vec::new();
        let mut t = 0u64;
        while t < 1200 {
            t += step;
            for id in mgr.advance(Time::from_secs(t)) {
                assert!(deadlines[id] <= t, "case {case}: fired early");
                fired.push((deadlines[id], id));
            }
        }
        assert_eq!(fired.len(), deadlines.len(), "case {case}");
        // Deadline-ordered (stable within a single advance call).
        for w in fired.windows(2) {
            assert!(
                w[0].0 <= w[1].0 || w[0].0.abs_diff(w[1].0) < step,
                "case {case}: order violated beyond batch granularity"
            );
        }
    }
}

/// Create-expire: an untouched entry lives exactly `timeout` seconds.
#[test]
fn create_expire_exact() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("create_expire_exact", case);
        let timeout = 1 + rng.below(99);
        let probe = rng.below(200);
        let mut s: ExpiringSet<u8> = ExpiringSet::new();
        s.set_timeout(ExpireStrategy::Create, Interval::from_secs(timeout as i64));
        s.insert(1, Time::ZERO);
        s.advance(Time::from_secs(probe));
        assert_eq!(s.contains(&1), probe < timeout, "case {case}");
    }
}

/// Address masking is idempotent and monotone in prefix length.
#[test]
fn mask_idempotent() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("mask_idempotent", case);
        let a = Addr::from_v4_u32(rng.next_u64() as u32);
        let bits = rng.below(33) as u8;
        let m = a.mask(bits);
        assert_eq!(m.mask(bits), m, "case {case}");
        // A shorter mask of the masked address equals the shorter mask of
        // the original.
        if bits > 0 {
            assert_eq!(m.mask(bits - 1), a.mask(bits - 1), "case {case}");
        }
    }
}

/// A network contains every address sharing its prefix and no address
/// differing within the prefix.
#[test]
fn network_membership() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("network_membership", case);
        let raw = rng.next_u64() as u32;
        let bits = 1 + rng.below(32) as u8;
        let flip = rng.below(32) as u8;
        let a = Addr::from_v4_u32(raw);
        let net = Network::new(a, bits).unwrap();
        assert!(net.contains(&a), "case {case}");
        // Flipping a bit inside the prefix leaves the network; one past it
        // does not.
        let flipped = Addr::from_v4_u32(raw ^ (1 << (31 - flip)));
        assert_eq!(net.contains(&flipped), flip >= bits, "case {case}");
    }
}

/// `Addr` is stored as two 64-bit halves and must behave as the 128-bit
/// value they stand for: numeric order (sorted `set.members` /
/// `map.keys`, and the logs built from them, depend on it), equality
/// and hashing that agree with it, and lossless text and raw forms —
/// for IPv6 values, IPv4-mapped ones, and pairs sharing a high half.
#[test]
fn addr_behaves_as_its_u128() {
    use std::hash::{Hash, Hasher};
    use std::net::{Ipv4Addr, Ipv6Addr};
    let hash = |a: &Addr| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        a.hash(&mut h);
        h.finish()
    };
    for case in 0..CASES {
        let rng = &mut Rng::for_case("addr_behaves_as_its_u128", case);
        let [ah, al, bh, bl] = [(); 4].map(|()| rng.next_u64());
        let v4 = rng.next_u64() as u32;
        let bh = if rng.chance(1, 2) { ah } else { bh };
        let raws = [
            (u128::from(ah) << 64) | u128::from(al),
            (u128::from(bh) << 64) | u128::from(bl),
            Addr::from_v4_u32(v4).raw(),
        ];
        for x in raws {
            let a = Addr::from_v6_u128(x);
            assert_eq!(a.raw(), x, "case {case}");
            let same = Addr::from_v6_bytes(x.to_be_bytes());
            assert_eq!(a, same, "case {case}");
            assert_eq!(hash(&a), hash(&same), "case {case}");
            assert_eq!(a.to_string().parse::<Addr>().unwrap(), a, "case {case}");
            let mapped = (x >> 32) == 0xffff;
            assert_eq!(a.is_v4(), mapped, "case {case}");
            if mapped {
                assert_eq!(a.as_v4_u32(), Some(x as u32), "case {case}");
                let text = Ipv4Addr::from(x as u32).to_string();
                assert_eq!(a.to_string(), text, "case {case}");
            } else {
                assert_eq!(a.as_v4_u32(), None, "case {case}");
                assert_eq!(a.to_string(), Ipv6Addr::from(x).to_string(), "case {case}");
            }
            for y in raws {
                let b = Addr::from_v6_u128(y);
                assert_eq!(a.cmp(&b), x.cmp(&y), "case {case}");
                assert_eq!(a == b, x == y, "case {case}");
            }
        }
        let a = Addr::from_v4_u32(v4);
        assert_eq!(a, Addr::from_v4_bytes(v4.to_be_bytes()), "case {case}");
        assert_eq!(a.to_string(), Ipv4Addr::from(v4).to_string(), "case {case}");
    }
}

/// Regexp literal-matching agrees with string equality.
#[test]
fn regexp_literal_exact() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("regexp_literal_exact", case);
        let (s, t) = (lowercase(rng, 12), lowercase(rng, 12));
        let re = Regex::new(&s).unwrap();
        let len = match re.match_prefix(t.as_bytes()) {
            MatchVerdict::Match { len, .. } => Some(len as usize),
            MatchVerdict::NoMatch => None,
        };
        let want = t.starts_with(&s).then_some(s.len());
        assert_eq!(len, want, "case {case}: {s:?} on {t:?}");
    }
}

/// `a*` always matches, with the run length of leading a's.
#[test]
fn regexp_star_run_length() {
    let re = Regex::new("a*").unwrap();
    for case in 0..CASES {
        let rng = &mut Rng::for_case("regexp_star_run_length", case);
        let input: Vec<u8> = (0..rng.below(40))
            .map(|_| if rng.chance(1, 2) { b'a' } else { b'b' })
            .collect();
        let run = input.iter().take_while(|&&b| b == b'a').count();
        match re.match_prefix(&input) {
            MatchVerdict::Match { len, .. } => assert_eq!(len as usize, run, "case {case}"),
            MatchVerdict::NoMatch => panic!("case {case}: a* must always match"),
        }
    }
}

/// `Regex::match_token` over a whole input is a matcher fed the same
/// input in pieces and then finished: the same verdict, and the same
/// answer to "could more input lengthen it". One `Regex` (one DFA
/// cache) serves two matchers fed alternately, with one-shot matches
/// in between, and each still agrees with its own one-shot match.
#[test]
fn regexp_match_token_is_a_finished_matcher() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("regexp_match_token_is_a_finished_matcher", case);
        let lit = lowercase(rng, 12);
        let alt = format!("{lit}|[a-z]+0");
        let re = match rng.below(6) {
            0 => Regex::new(&lit),
            1 => Regex::new(&format!("{lit}$")),
            2 => Regex::new(&format!("({lit})+")),
            3 => Regex::new(&alt),
            4 => Regex::set(&[lit.as_str(), "[a-z]*"]),
            _ => Regex::set(&[&format!("{lit}\\r?\\n"), "[^\\n]+"]),
        }
        .unwrap();
        // Whole and partial copies of the literal, then a few bytes (often
        // none) that may or may not continue it.
        let mut input = lit.repeat(rng.below(3) as usize).into_bytes();
        let part = rng.below(13) as usize;
        input.extend_from_slice(&lit.as_bytes()[..part.min(lit.len())]);
        for _ in 0..rng.below(4) {
            let byte = match rng.below(5) {
                0 => b'a',
                1 => b'z',
                2 => b'0',
                3 => b'\n',
                _ => rng.next_u64() as u8,
            };
            input.push(byte);
        }
        let mut reversed = input.clone();
        reversed.reverse();

        let mut cuts: Vec<usize> = (0..rng.below(6))
            .map(|_| (rng.below(30) as usize).min(input.len()))
            .collect();
        cuts.push(input.len());
        cuts.sort_unstable();
        let mut fwd = re.matcher();
        let mut rev = re.matcher();
        let mut pos = 0usize;
        for &cut in &cuts {
            fwd.feed(&input[pos..cut]);
            // The other matcher and a one-shot match use the same cache
            // between two feeds of this one.
            let _ = re.match_token(&input[pos..]);
            rev.feed(&reversed[pos..cut]);
            pos = cut;
        }
        for (m, bytes) in [(&fwd, &input), (&rev, &reversed)] {
            let (verdict, can_extend) = re.match_token(bytes);
            assert_eq!(verdict, m.finish(), "case {case}");
            assert_eq!(can_extend, m.can_extend(), "case {case}");
            assert_eq!(verdict, re.match_prefix(bytes), "case {case}");
        }
    }
}

/// FNV continuation composes like one-shot hashing.
#[test]
fn fnv_composes() {
    use hilti_rt::hashutil::{fnv1a, fnv1a_continue};
    for case in 0..CASES {
        let rng = &mut Rng::for_case("fnv_composes", case);
        let data = bytes(rng, 0, 100);
        let cut = (rng.below(100) as usize).min(data.len());
        let whole = fnv1a(&data);
        let split = fnv1a_continue(fnv1a(&data[..cut]), &data[cut..]);
        assert_eq!(whole, split, "case {case}");
    }
}
