//! Property-based tests (proptest) on the platform's core invariants:
//! the regexp engine's chunking independence, TCP reassembly, container
//! expiration, the VM/interpreter equivalence, and value round trips.

use proptest::prelude::*;

use hilti::value::Value;
use hilti::Program;
use hilti_rt::bytestring::Bytes;
use hilti_rt::containers::{ExpireStrategy, ExpiringMap};
use hilti_rt::regexp::Regex;
use hilti_rt::time::{Interval, Time};
use netpkt::reassembly::StreamReassembler;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental regexp matching must be independent of input chunking.
    #[test]
    fn regexp_chunking_independence(
        input in proptest::collection::vec(any::<u8>(), 0..200),
        cuts in proptest::collection::vec(1usize..20, 0..10),
    ) {
        let re = Regex::set(&[
            "[A-Za-z]+",
            "[0-9]+\\.[0-9]+",
            "GET [^ ]+",
        ]).unwrap();
        let whole = re.match_prefix(&input);
        let mut m = re.matcher();
        let mut pos = 0usize;
        for c in cuts {
            let end = (pos + c).min(input.len());
            m.feed(&input[pos..end]);
            pos = end;
        }
        m.feed(&input[pos..]);
        prop_assert_eq!(whole, m.finish());
    }

    /// The reassembler reconstructs the stream for any delivery order of
    /// non-overlapping segments.
    #[test]
    fn reassembly_any_order(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..20), 1..20),
        order_seed in any::<u64>(),
        isn in any::<u32>(),
    ) {
        let mut segments = Vec::new();
        let mut expected = Vec::new();
        let mut seq = isn.wrapping_add(1);
        for c in &chunks {
            segments.push((seq, c.clone()));
            expected.extend_from_slice(c);
            seq = seq.wrapping_add(c.len() as u32);
        }
        // Deterministic pseudo-shuffle from the seed.
        let mut order: Vec<usize> = (0..segments.len()).collect();
        let mut s = order_seed | 1;
        for i in (1..order.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s as usize) % (i + 1));
        }
        let mut r = StreamReassembler::new(isn);
        let mut out = Vec::new();
        for &i in &order {
            let (sq, data) = &segments[i];
            out.extend(r.segment(*sq, data));
        }
        prop_assert_eq!(out, expected);
        prop_assert_eq!(r.gap_bytes(), 0);
    }

    /// Bytes: any split of appends yields the same contents, and logical
    /// offsets survive trims.
    #[test]
    fn bytes_append_split_equivalence(
        data in proptest::collection::vec(any::<u8>(), 0..100),
        split in 0usize..100,
        trim in 0usize..50,
    ) {
        let split = split.min(data.len());
        let b = Bytes::new();
        b.append(&data[..split]).unwrap();
        b.append(&data[split..]).unwrap();
        prop_assert_eq!(b.to_vec(), data.clone());

        let trim = trim.min(data.len());
        b.trim(trim as u64).unwrap();
        for (i, expect) in data.iter().enumerate().skip(trim) {
            prop_assert_eq!(b.at(i as u64).unwrap(), *expect);
        }
    }

    /// Container expiration: an entry is alive iff its (possibly
    /// refreshed) deadline has not passed.
    #[test]
    fn expiration_model(
        timeout_s in 1u64..100,
        events in proptest::collection::vec((0u64..500, any::<bool>()), 1..40),
    ) {
        let mut m: ExpiringMap<u32, u32> = ExpiringMap::new();
        m.set_timeout(ExpireStrategy::Access, Interval::from_secs(timeout_s as i64));
        let mut events = events;
        events.sort_by_key(|(t, _)| *t);
        let mut model_deadline: Option<u64> = None;
        for (t, is_touch) in events {
            let now = Time::from_secs(t);
            m.advance(now);
            // Model: entry expired if deadline <= now.
            let model_alive = model_deadline.map(|d| d > t).unwrap_or(false);
            prop_assert_eq!(m.contains(&1), model_alive, "at t={}", t);
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

    /// VM and interpreter agree on arbitrary arithmetic expressions.
    #[test]
    fn engines_agree_on_arith(a in -1000i64..1000, b in 1i64..1000, c in -1000i64..1000) {
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
        let args = vec![Value::Int(a), Value::Int(b), Value::Int(c)];
        let vm = p.run("M::f", &args).unwrap();
        let it = p.run_interpreted("M::f", &args).unwrap();
        prop_assert!(vm.equals(&it));
    }

    /// Value → portable → value round trips preserve equality.
    #[test]
    fn portable_roundtrip(
        ints in proptest::collection::vec(any::<i64>(), 0..10),
        s in "[a-zA-Z0-9 ]{0,20}",
        flag in any::<bool>(),
    ) {
        let v = Value::Tuple(std::rc::Rc::new([
            Value::str(&s),
            Value::Bool(flag),
            Value::Vector(std::rc::Rc::new(std::cell::RefCell::new(
                ints.iter().map(|i| Value::Int(*i)).collect(),
            ))),
        ]));
        let p = v.to_portable().unwrap();
        let v2 = Value::from_portable(&p);
        prop_assert!(v.equals(&v2));
    }

    /// Addr mask: masked address is contained in the network it defines.
    #[test]
    fn addr_mask_consistency(raw in any::<u32>(), bits in 0u8..=32) {
        let a = hilti_rt::addr::Addr::from_v4_u32(raw);
        let net = hilti_rt::addr::Network::new(a, bits).unwrap();
        prop_assert!(net.contains(&a));
        let masked = a.mask(bits);
        prop_assert!(net.contains(&masked));
        prop_assert!(masked.is_v4());
    }

    /// DNS round trip: any name the builder writes, the parser reads back.
    #[test]
    fn dns_name_roundtrip(labels in proptest::collection::vec("[a-z]{1,10}", 1..5)) {
        let name = labels.join(".");
        let msg = netpkt::dns::DnsBuilder::new(1, false, 0)
            .question(&name, 1)
            .build();
        let parsed = netpkt::dns::parse_message(&msg).unwrap();
        prop_assert_eq!(&parsed.questions[0].name, &name);
    }

    /// The compiled classifier answers every probe as the priority-ordered
    /// scan does, on rule sets that mix v4 and v6 nets of every prefix
    /// length, hosts, ports, ints and wildcards at arity 1-4, with default
    /// and explicit priorities, ties, and repeated keys.
    #[test]
    fn classifier_compiled_equals_linear(seed in any::<u64>()) {
        use hilti_rt::addr::{Addr, Network, Port};
        use hilti_rt::classifier::{Classifier, FieldMatcher, FieldValue};

        fn below(s: &mut u64, n: u64) -> u64 {
            *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            hilti_rt::hashutil::mix64(*s) % n
        }
        // Few distinct values per type, so that nets cover probes, keys
        // repeat, and rules and probes disagree on a field's type.
        fn addr(s: &mut u64, v6: bool) -> Addr {
            const V4: [&str; 3] = ["10.1.2.3", "10.1.200.7", "172.16.0.1"];
            const V6: [&str; 3] = ["2001:db8::1", "2001:db8:ff::2", "::1"];
            let bases = if v6 { V6 } else { V4 };
            let base: Addr = bases[below(s, 3) as usize].parse().unwrap();
            // Vary one of the low four bytes; the family stays.
            let flip = below(s, 3) << (8 * below(s, 4));
            Addr::from_v6_u128(base.raw() ^ u128::from(flip))
        }
        fn port(s: &mut u64) -> Port {
            match below(s, 3) {
                0 => Port::tcp(80),
                1 => Port::udp(80),
                _ => Port::udp(53),
            }
        }
        fn fresh(s: &mut u64) -> FieldMatcher {
            let v6 = below(s, 2) == 0;
            match below(s, 6) {
                0 => FieldMatcher::Wildcard,
                1 | 2 => {
                    let max = if v6 { 128 } else { 32 };
                    let len = below(s, max + 1) as u8;
                    FieldMatcher::Net(Network::new(addr(s, v6), len).unwrap())
                }
                3 => FieldMatcher::Host(addr(s, v6)),
                4 => FieldMatcher::Port(port(s)),
                _ => FieldMatcher::Int(below(s, 3)),
            }
        }
        /// Another matcher of the same shape: same kind, family and length.
        fn reroll(s: &mut u64, like: &FieldMatcher) -> FieldMatcher {
            match like {
                FieldMatcher::Wildcard => FieldMatcher::Wildcard,
                FieldMatcher::Net(n) => {
                    let a = addr(s, n.prefix().is_v6());
                    FieldMatcher::Net(Network::new(a, n.len()).unwrap())
                }
                FieldMatcher::Host(a) => FieldMatcher::Host(addr(s, a.is_v6())),
                FieldMatcher::Port(_) => FieldMatcher::Port(port(s)),
                FieldMatcher::Int(_) => FieldMatcher::Int(below(s, 3)),
            }
        }
        let s = &mut { seed };

        let arity = 1 + below(s, 4) as usize;
        let mut rules: Vec<Vec<FieldMatcher>> = Vec::new();
        let mut c = Classifier::new();
        for i in 0..below(s, 64) as u32 {
            // Most rules share an earlier rule's shape, some its very key.
            let earlier = (!rules.is_empty()).then(|| below(s, rules.len() as u64) as usize);
            let fields: Vec<FieldMatcher> = match (earlier, below(s, 8)) {
                (Some(r), 0) => rules[r].clone(),
                (Some(r), 1..=5) => rules[r].iter().map(|f| reroll(s, f)).collect(),
                _ => (0..arity).map(|_| fresh(s)).collect(),
            };
            rules.push(fields.clone());
            match below(s, 3) {
                0 => c.add(fields, i).unwrap(),
                _ => c.add_with_priority(fields, i, below(s, 3) as i64 - 1).unwrap(),
            }
        }
        c.compile();

        for _ in 0..60 {
            // One probe in eight has the wrong arity and matches nothing.
            let n = if below(s, 8) == 0 { arity + 1 } else { arity };
            let key: Vec<FieldValue> = (0..n)
                .map(|_| match below(s, 4) {
                    0 => FieldValue::Addr(addr(s, false)),
                    1 => FieldValue::Addr(addr(s, true)),
                    2 => FieldValue::Port(port(s)),
                    _ => FieldValue::Int(below(s, 3)),
                })
                .collect();
            prop_assert_eq!(c.matches(&key).unwrap(), c.matches_linear(&key).unwrap());
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
