//! Property-based tests on the platform's core invariants: the regexp
//! engine's chunking independence, TCP reassembly, container expiration,
//! the VM/interpreter equivalence, and value round trips. Each property
//! runs 64 seeded cases.

use hilti::value::Value;
use hilti::Program;
use hilti_rt::bytestring::Bytes;
use hilti_rt::containers::{ExpireStrategy, ExpiringMap};
use hilti_rt::regexp::Regex;
use hilti_rt::rng::Rng;
use hilti_rt::time::{Interval, Time};
use netpkt::reassembly::StreamReassembler;

const CASES: u32 = 64;

/// `lo + below(hi - lo)` random bytes.
fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u8> {
    let mut data = vec![0; (lo + rng.below(hi - lo)) as usize];
    rng.fill(&mut data);
    data
}

/// `len` characters drawn from `alphabet`.
fn text(rng: &mut Rng, alphabet: &[u8], len: u64) -> String {
    (0..len)
        .map(|_| char::from(alphabet[rng.below(alphabet.len() as u64) as usize]))
        .collect()
}

/// Incremental regexp matching must be independent of input chunking.
#[test]
fn regexp_chunking_independence() {
    let re = Regex::set(&["[A-Za-z]+", "[0-9]+\\.[0-9]+", "GET [^ ]+"]).unwrap();
    for case in 0..CASES {
        let rng = &mut Rng::for_case("regexp_chunking_independence", case);
        let input = bytes(rng, 0, 200);
        let whole = re.match_prefix(&input);
        let mut m = re.matcher();
        let mut pos = 0usize;
        for _ in 0..rng.below(10) {
            let end = (pos + 1 + rng.below(19) as usize).min(input.len());
            m.feed(&input[pos..end]);
            pos = end;
        }
        m.feed(&input[pos..]);
        assert_eq!(whole, m.finish(), "case {case}");
    }
}

/// The reassembler reconstructs the stream for any delivery order of
/// non-overlapping segments.
#[test]
fn reassembly_any_order() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("reassembly_any_order", case);
        let isn = rng.next_u64() as u32;
        let mut segments = Vec::new();
        let mut expected = Vec::new();
        let mut seq = isn.wrapping_add(1);
        for _ in 0..1 + rng.below(19) {
            let c = bytes(rng, 1, 20);
            expected.extend_from_slice(&c);
            let next = seq.wrapping_add(c.len() as u32);
            segments.push((seq, c));
            seq = next;
        }
        // Fisher-Yates.
        for i in (1..segments.len()).rev() {
            segments.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut r = StreamReassembler::new(isn);
        let mut out = Vec::new();
        for (sq, data) in &segments {
            out.extend(r.segment(*sq, data));
        }
        assert_eq!(out, expected, "case {case}");
        assert_eq!(r.gap_bytes(), 0, "case {case}");
    }
}

/// Bytes: any split of appends yields the same contents, and logical
/// offsets survive trims.
#[test]
fn bytes_append_split_equivalence() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("bytes_append_split_equivalence", case);
        let data = bytes(rng, 0, 100);
        let split = (rng.below(100) as usize).min(data.len());
        let trim = (rng.below(50) as usize).min(data.len());
        let b = Bytes::new();
        b.append(&data[..split]).unwrap();
        b.append(&data[split..]).unwrap();
        assert_eq!(b.to_vec(), data, "case {case}");

        b.trim(trim as u64).unwrap();
        for (i, expect) in data.iter().enumerate().skip(trim) {
            assert_eq!(b.at(i as u64).unwrap(), *expect, "case {case}");
        }
    }
}

/// Container expiration: an entry is alive iff its (possibly
/// refreshed) deadline has not passed.
#[test]
fn expiration_model() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("expiration_model", case);
        let timeout_s = 1 + rng.below(99);
        let mut events: Vec<(u64, bool)> = (0..1 + rng.below(39))
            .map(|_| (rng.below(500), rng.chance(1, 2)))
            .collect();
        events.sort_by_key(|(t, _)| *t);
        let mut m: ExpiringMap<u32, u32> = ExpiringMap::new();
        m.set_timeout(
            ExpireStrategy::Access,
            Interval::from_secs(timeout_s as i64),
        );
        let mut model_deadline: Option<u64> = None;
        for (t, is_touch) in events {
            let now = Time::from_secs(t);
            m.advance(now);
            // Model: entry expired if deadline <= now.
            let model_alive = model_deadline.is_some_and(|d| d > t);
            assert_eq!(m.contains(&1), model_alive, "case {case} at t={t}");
            if is_touch {
                if model_alive {
                    let _ = m.get(&1, now);
                } else {
                    m.insert(1, 0, now);
                }
                model_deadline = Some(t + timeout_s);
            }
        }
    }
}

/// VM and interpreter agree on arbitrary arithmetic expressions.
#[test]
fn engines_agree_on_arith() {
    let src = r#"
module M
int<64> f(int<64> a, int<64> b, int<64> c) {
    local int<64> x
    local int<64> y
    x = int.mul a c
    y = int.div x b
    y = int.add y a
    y = int.sub y c
    x = int.mod y b
    y = int.add y x
    return y
}
"#;
    let mut p = Program::from_source(src).unwrap();
    for case in 0..CASES {
        let rng = &mut Rng::for_case("engines_agree_on_arith", case);
        let a = rng.below(2000) as i64 - 1000;
        let b = 1 + rng.below(999) as i64;
        let c = rng.below(2000) as i64 - 1000;
        let args = vec![Value::Int(a), Value::Int(b), Value::Int(c)];
        let vm = p.run("M::f", &args).unwrap();
        let it = p.run_interpreted("M::f", &args).unwrap();
        assert!(vm.equals(&it), "case {case}: f({a}, {b}, {c})");
    }
}

/// Value → portable → value round trips preserve equality.
#[test]
fn portable_roundtrip() {
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    for case in 0..CASES {
        let rng = &mut Rng::for_case("portable_roundtrip", case);
        let ints: Vec<Value> = (0..rng.below(10))
            .map(|_| Value::Int(rng.next_u64() as i64))
            .collect();
        let len = rng.below(21);
        let s = text(rng, ALNUM, len);
        let v = Value::Tuple(std::rc::Rc::new([
            Value::str(&s),
            Value::Bool(rng.chance(1, 2)),
            Value::Vector(std::rc::Rc::new(std::cell::RefCell::new(ints))),
        ]));
        let p = v.to_portable().unwrap();
        let v2 = Value::from_portable(&p);
        assert!(v.equals(&v2), "case {case}");
    }
}

/// Addr mask: masked address is contained in the network it defines.
#[test]
fn addr_mask_consistency() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("addr_mask_consistency", case);
        let a = hilti_rt::addr::Addr::from_v4_u32(rng.next_u64() as u32);
        let bits = rng.below(33) as u8;
        let net = hilti_rt::addr::Network::new(a, bits).unwrap();
        assert!(net.contains(&a), "case {case}");
        let masked = a.mask(bits);
        assert!(net.contains(&masked), "case {case}");
        assert!(masked.is_v4(), "case {case}");
    }
}

/// DNS round trip: any name the builder writes, the parser reads back.
#[test]
fn dns_name_roundtrip() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("dns_name_roundtrip", case);
        let labels: Vec<String> = (0..1 + rng.below(4))
            .map(|_| {
                let len = 1 + rng.below(10);
                text(rng, b"abcdefghijklmnopqrstuvwxyz", len)
            })
            .collect();
        let name = labels.join(".");
        let msg = netpkt::dns::DnsBuilder::new(1, false, 0)
            .question(&name, 1)
            .build();
        let parsed = netpkt::dns::parse_message(&msg).unwrap();
        assert_eq!(parsed.questions[0].name, name, "case {case}");
    }
}

/// The compiled classifier answers every probe as the priority-ordered
/// scan does, on rule sets that mix v4 and v6 nets of every prefix
/// length, hosts, ports, ints and wildcards at arity 1-4, with default
/// and explicit priorities, ties, and repeated keys.
#[test]
fn classifier_compiled_equals_linear() {
    use hilti_rt::addr::{Addr, Network, Port};
    use hilti_rt::classifier::{Classifier, FieldMatcher, FieldValue};

    // Few distinct values per type, so that nets cover probes, keys
    // repeat, and rules and probes disagree on a field's type.
    fn addr(s: &mut Rng, v6: bool) -> Addr {
        const V4: [&str; 3] = ["10.1.2.3", "10.1.200.7", "172.16.0.1"];
        const V6: [&str; 3] = ["2001:db8::1", "2001:db8:ff::2", "::1"];
        let bases = if v6 { V6 } else { V4 };
        let base: Addr = bases[s.below(3) as usize].parse().unwrap();
        // Vary one of the low four bytes; the family stays.
        let flip = s.below(3) << (8 * s.below(4));
        Addr::from_v6_u128(base.raw() ^ u128::from(flip))
    }
    fn port(s: &mut Rng) -> Port {
        match s.below(3) {
            0 => Port::tcp(80),
            1 => Port::udp(80),
            _ => Port::udp(53),
        }
    }
    fn fresh(s: &mut Rng) -> FieldMatcher {
        let v6 = s.chance(1, 2);
        match s.below(6) {
            0 => FieldMatcher::Wildcard,
            1 | 2 => {
                let max = if v6 { 128 } else { 32 };
                let len = s.below(max + 1) as u8;
                FieldMatcher::Net(Network::new(addr(s, v6), len).unwrap())
            }
            3 => FieldMatcher::Host(addr(s, v6)),
            4 => FieldMatcher::Port(port(s)),
            _ => FieldMatcher::Int(s.below(3)),
        }
    }
    /// Another matcher of the same shape: same kind, family and length.
    fn reroll(s: &mut Rng, like: &FieldMatcher) -> FieldMatcher {
        match like {
            FieldMatcher::Wildcard => FieldMatcher::Wildcard,
            FieldMatcher::Net(n) => {
                let a = addr(s, n.prefix().is_v6());
                FieldMatcher::Net(Network::new(a, n.len()).unwrap())
            }
            FieldMatcher::Host(a) => FieldMatcher::Host(addr(s, a.is_v6())),
            FieldMatcher::Port(_) => FieldMatcher::Port(port(s)),
            FieldMatcher::Int(_) => FieldMatcher::Int(s.below(3)),
        }
    }

    for case in 0..CASES {
        let s = &mut Rng::for_case("classifier_compiled_equals_linear", case);
        let arity = 1 + s.below(4) as usize;
        let mut rules: Vec<Vec<FieldMatcher>> = Vec::new();
        let mut c = Classifier::new();
        for i in 0..s.below(64) as u32 {
            // Most rules share an earlier rule's shape, some its very key.
            let earlier = (!rules.is_empty()).then(|| s.below(rules.len() as u64) as usize);
            let fields: Vec<FieldMatcher> = match (earlier, s.below(8)) {
                (Some(r), 0) => rules[r].clone(),
                (Some(r), 1..=5) => rules[r].iter().map(|f| reroll(s, f)).collect(),
                _ => (0..arity).map(|_| fresh(s)).collect(),
            };
            rules.push(fields.clone());
            match s.below(3) {
                0 => c.add(fields, i).unwrap(),
                _ => c
                    .add_with_priority(fields, i, s.below(3) as i64 - 1)
                    .unwrap(),
            }
        }
        c.compile();

        for _ in 0..60 {
            // One probe in eight has the wrong arity and matches nothing.
            let n = if s.chance(1, 8) { arity + 1 } else { arity };
            let key: Vec<FieldValue> = (0..n)
                .map(|_| match s.below(4) {
                    0 => FieldValue::Addr(addr(s, false)),
                    1 => FieldValue::Addr(addr(s, true)),
                    2 => FieldValue::Port(port(s)),
                    _ => FieldValue::Int(s.below(3)),
                })
                .collect();
            let want = c.matches_linear(&key).unwrap();
            assert_eq!(c.matches(&key).unwrap(), want, "case {case}: {key:?}");
        }
    }
}

#[test]
fn sha1_streaming_equals_oneshot_property() {
    // A deterministic sweep standing in for a proptest with large inputs.
    let data: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 251) as u8).collect();
    let oneshot = hilti_rt::sha1::sha1_hex(&data);
    for chunk in [1usize, 13, 64, 100, 1000] {
        let mut h = hilti_rt::sha1::Sha1::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        assert_eq!(h.finish_hex(), oneshot, "chunk size {chunk}");
    }
}
