//! Property-based tests on the packet substrate: 128 seeded cases each.

use hilti_rt::addr::Addr;
use hilti_rt::rng::Rng;
use hilti_rt::time::Time;
use netpkt::decode::{build_udp_frame, decode_ethernet, internet_checksum};
use netpkt::pcap::{from_pcap_bytes, to_pcap_bytes, RawPacket};

const CASES: u32 = 128;

/// `lo + below(hi - lo)` random bytes.
fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u8> {
    let mut data = vec![0; (lo + rng.below(hi - lo)) as usize];
    rng.fill(&mut data);
    data
}

/// pcap roundtrip preserves packets exactly (µs-quantized timestamps).
#[test]
fn pcap_roundtrip() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("pcap_roundtrip", case);
        let pkts: Vec<RawPacket> = (0..rng.below(10))
            .map(|_| {
                let ts = Time::from_nanos(rng.below(1_000_000) * 1_000);
                RawPacket::new(ts, bytes(rng, 0, 200))
            })
            .collect();
        let back = from_pcap_bytes(&to_pcap_bytes(&pkts)).unwrap();
        assert_eq!(back, pkts, "case {case}");
    }
}

/// Internet checksum self-verifies: data embedding its own checksum
/// sums to zero.
#[test]
fn checksum_self_verifies() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("checksum_self_verifies", case);
        let mut data = bytes(rng, 2, 64);
        data[0] = 0;
        data[1] = 0;
        let c = internet_checksum(&data);
        data[0..2].copy_from_slice(&c.to_be_bytes());
        assert_eq!(internet_checksum(&data), 0, "case {case}: {data:?}");
    }
}

/// UDP frames decode back to exactly what was built.
#[test]
fn udp_build_decode_roundtrip() {
    for case in 0..CASES {
        let rng = &mut Rng::for_case("udp_build_decode_roundtrip", case);
        let sport = 1 + rng.below(65534) as u16;
        let dport = 1 + rng.below(65534) as u16;
        let payload = bytes(rng, 0, 300);
        let s = Addr::from_v4_u32(rng.next_u64() as u32);
        let d = Addr::from_v4_u32(rng.next_u64() as u32);
        let frame = build_udp_frame(s, d, sport, dport, &payload);
        let dec = decode_ethernet(&RawPacket::new(Time::ZERO, frame)).unwrap();
        assert_eq!(
            (dec.src, dec.dst, dec.sport, dec.dport, &dec.payload[..]),
            (s, d, sport, dport, &payload[..]),
            "case {case}"
        );
    }
}

/// The decoder never panics on arbitrary bytes (fail-safe processing
/// of untrusted input, §2 of the paper).
#[test]
fn decoder_never_panics() {
    for case in 0..CASES {
        let data = bytes(&mut Rng::for_case("decoder_never_panics", case), 0, 120);
        let _ = decode_ethernet(&RawPacket::new(Time::ZERO, data));
    }
}

/// The DNS parser never panics on arbitrary bytes.
#[test]
fn dns_parser_never_panics() {
    for case in 0..CASES {
        let data = bytes(&mut Rng::for_case("dns_parser_never_panics", case), 0, 200);
        let _ = netpkt::dns::parse_message(&data);
    }
}

/// The HTTP parser never panics on arbitrary stream bytes.
#[test]
fn http_parser_never_panics() {
    use hilti_rt::addr::Port;
    for case in 0..CASES {
        let rng = &mut Rng::for_case("http_parser_never_panics", case);
        let id = netpkt::events::ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(1),
            resp_h: "10.0.0.2".parse().unwrap(),
            resp_p: Port::tcp(80),
        };
        let mut p = netpkt::http::HttpConnParser::new("C".into(), id);
        let mut sink = Vec::new();
        for i in 0..rng.below(6) {
            p.feed(i % 2 == 0, &bytes(rng, 0, 60), Time::ZERO, &mut sink);
        }
        p.finish(Time::ZERO, &mut sink);
    }
}
