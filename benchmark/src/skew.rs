//! Heavy-tailed HTTP trace: a few keep-alive elephants carry most packets.
//!
//! Real traffic is Zipf-distributed; `netpkt::synth` produces flows of
//! near-equal size, which static hash sharding balances by luck of large
//! numbers. Here [`ELEPHANTS`] long keep-alive flows (sizes ∝ 1/rank) carry
//! [`ELEPHANT_SHARE`] of the packets and one-request mice the rest, so
//! where the elephants hash decides how evenly shards are loaded.
//!
//! The elephants' 5-tuples are fixed; the seed varies everything else (the
//! mice, which request goes when, sequence numbers, timing). A static hash
//! places a flow by its 5-tuple alone, so seeded elephant tuples would make
//! the shard balance — and with it throughput — a property of the seed, and
//! runs with different seeds could not be compared.
//!
//! Built only from `build_tcp_frame` + `RawPacket`: in-order, well-formed
//! HTTP/1.1 with `Content-Length` bodies, so every flow yields log lines
//! and both parser stacks agree on all of them.

use hilti_rt::addr::Addr;
use hilti_rt::time::Time;
use netpkt::decode::{build_tcp_frame, tcp_flags};
use netpkt::pcap::RawPacket;

use crate::util::Rng;

pub const ELEPHANTS: usize = 8;
pub const ELEPHANT_SHARE: f64 = 0.80;

/// Handshake (3) + close (3).
const FLOW_OVERHEAD_PKTS: usize = 6;
/// One request segment + one response segment.
const PKTS_PER_EXCHANGE: usize = 2;
/// Mean spacing of the merged trace's packets.
const MEAN_GAP_NS: u64 = 100_000;

pub struct SkewTrace {
    pub packets: Vec<RawPacket>,
    /// Packets that belong to one of the [`ELEPHANTS`] flows.
    pub elephant_packets: usize,
}

struct Session<'a> {
    client: Addr,
    server: Addr,
    cport: u16,
    seq_c: u32,
    seq_s: u32,
    flow: u32,
    out: &'a mut Vec<(u64, u32, u32, Vec<u8>)>,
    sent: u32,
}

impl Session<'_> {
    fn push(&mut self, ts_ns: u64, from_client: bool, flags: u8, payload: &[u8]) {
        let (src, dst, sp, dp, seq, ack) = if from_client {
            (
                self.client,
                self.server,
                self.cport,
                80,
                self.seq_c,
                self.seq_s,
            )
        } else {
            (
                self.server,
                self.client,
                80,
                self.cport,
                self.seq_s,
                self.seq_c,
            )
        };
        let frame = build_tcp_frame(src, dst, sp, dp, seq, ack, flags, payload);
        self.out.push((ts_ns, self.flow, self.sent, frame));
        self.sent += 1;
        let consumed =
            payload.len() as u32 + u32::from(flags & (tcp_flags::SYN | tcp_flags::FIN) != 0);
        if from_client {
            self.seq_c = self.seq_c.wrapping_add(consumed);
        } else {
            self.seq_s = self.seq_s.wrapping_add(consumed);
        }
    }
}

const STEMS: [&str; 8] = [
    "/index.html",
    "/api/v1/items",
    "/static/app.js",
    "/css/site.css",
    "/feed.xml",
    "/search",
    "/images/logo",
    "/users/profile",
];
const HOSTS: [&str; 4] = [
    "www.example.com",
    "cdn.example.net",
    "api.service.org",
    "mirror.campus.edu",
];

fn templates() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let reqs = STEMS
        .iter()
        .enumerate()
        .map(|(i, stem)| {
            format!(
                "GET {stem} HTTP/1.1\r\nHost: {}\r\nUser-Agent: skewgen/1.0\r\nAccept: */*\r\n\r\n",
                HOSTS[i % HOSTS.len()]
            )
            .into_bytes()
        })
        .collect();
    let resps = (0..8usize)
        .map(|i| {
            let body = b"heavy tail payload ".repeat(4 + 3 * i);
            let mut r = format!(
                "HTTP/1.1 200 OK\r\nServer: skewd/1.0\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            r.extend_from_slice(&body);
            r
        })
        .collect();
    (reqs, resps)
}

/// Generates a trace of about `target_packets` packets; the same
/// `(seed, target_packets)` always gives byte-identical packets.
pub fn skew_trace(seed: u64, target_packets: usize) -> SkewTrace {
    let mut rng = Rng::new(seed ^ 0x5CE3_7A11);
    let (reqs, resps) = templates();
    let duration_ns = target_packets as u64 * MEAN_GAP_NS;

    // Exchanges per flow: elephants by Zipf rank, then one-exchange mice.
    let harmonic: f64 = (1..=ELEPHANTS).map(|r| 1.0 / r as f64).sum();
    let elephant_budget = target_packets as f64 * ELEPHANT_SHARE;
    let mut exchanges: Vec<usize> = (1..=ELEPHANTS)
        .map(|r| {
            let pkts = elephant_budget / r as f64 / harmonic;
            ((pkts as usize).saturating_sub(FLOW_OVERHEAD_PKTS) / PKTS_PER_EXCHANGE).max(1)
        })
        .collect();
    let elephant_packets: usize = exchanges
        .iter()
        .map(|k| FLOW_OVERHEAD_PKTS + PKTS_PER_EXCHANGE * k)
        .sum();
    let mouse_pkts = FLOW_OVERHEAD_PKTS + PKTS_PER_EXCHANGE;
    let mice = target_packets.saturating_sub(elephant_packets) / mouse_pkts;
    exchanges.extend(std::iter::repeat_n(1, mice));

    let mut staged: Vec<(u64, u32, u32, Vec<u8>)> =
        Vec::with_capacity(elephant_packets + mice * mouse_pkts);
    for (f, &k) in exchanges.iter().enumerate() {
        let n_pkts = (FLOW_OVERHEAD_PKTS + PKTS_PER_EXCHANGE * k) as u64;
        // Elephants span the whole trace; a mouse is a short burst
        // somewhere inside it.
        let (start, step) = if f < ELEPHANTS {
            (rng.below(MEAN_GAP_NS), duration_ns / n_pkts)
        } else {
            let step = 50_000 + rng.below(450_000);
            (
                rng.below(duration_ns.saturating_sub(step * n_pkts).max(1)),
                step,
            )
        };
        let (server, cport) = if f < ELEPHANTS {
            (Addr::v4(93, 184, 0, 1 + f as u8), 40_000 + f as u16)
        } else {
            (
                Addr::v4(93, 184, 1 + rng.below(50) as u8, 1 + rng.below(250) as u8),
                1024 + rng.below(60_000) as u16,
            )
        };
        let mut sess = Session {
            // The client address is the flow index, so 5-tuples are distinct.
            client: Addr::v4(10, 20 + (f >> 16) as u8, (f >> 8) as u8, f as u8),
            server,
            cport,
            seq_c: rng.next_u64() as u32,
            seq_s: rng.next_u64() as u32,
            flow: f as u32,
            out: &mut staged,
            sent: 0,
        };
        // Packet i of the flow goes out in slot i, jittered within the
        // first half of the slot so per-flow order is strict.
        let mut slot = 0u64;
        let mut at = |rng: &mut Rng| {
            let ts = start + slot * step + rng.below(step / 2);
            slot += 1;
            ts
        };
        let ack = tcp_flags::ACK;
        sess.push(at(&mut rng), true, tcp_flags::SYN, b"");
        sess.push(at(&mut rng), false, tcp_flags::SYN | ack, b"");
        sess.push(at(&mut rng), true, ack, b"");
        for _ in 0..k {
            let req = &reqs[rng.below(reqs.len() as u64) as usize];
            let resp = &resps[rng.below(resps.len() as u64) as usize];
            sess.push(at(&mut rng), true, ack | tcp_flags::PSH, req);
            sess.push(at(&mut rng), false, ack | tcp_flags::PSH, resp);
        }
        sess.push(at(&mut rng), true, tcp_flags::FIN | ack, b"");
        sess.push(at(&mut rng), false, tcp_flags::FIN | ack, b"");
        sess.push(at(&mut rng), true, ack, b"");
    }

    staged.sort_by_key(|(ts, flow, idx, _)| (*ts, *flow, *idx));
    SkewTrace {
        packets: staged
            .into_iter()
            .map(|(ts, _, _, frame)| RawPacket::new(Time::from_nanos(ts), frame))
            .collect(),
        elephant_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::decode::{decode_frame, Transport};
    use std::collections::HashMap;

    #[test]
    fn regeneration_is_byte_identical_and_seeds_differ() {
        let a = skew_trace(11, 6_000);
        let b = skew_trace(11, 6_000);
        assert_eq!(a.packets, b.packets);
        assert_ne!(a.packets, skew_trace(12, 6_000).packets);
    }

    #[test]
    fn elephants_carry_their_share_on_distinct_five_tuples() {
        let t = skew_trace(11, 20_000);
        // Count packets per 5-tuple from the frames alone.
        let mut per_flow: HashMap<(String, u16), usize> = HashMap::new();
        let mut opened = 0;
        for p in &t.packets {
            let d = decode_frame(&p.data, p.ts).expect("generator emits decodable frames");
            if let Transport::Tcp(tcp) = &d.transport {
                opened += usize::from(tcp.syn() && !tcp.ack_flag());
            }
            let key = if d.dport == 80 {
                (d.src.to_string(), d.sport)
            } else {
                (d.dst.to_string(), d.dport)
            };
            *per_flow.entry(key).or_default() += 1;
        }
        assert_eq!(per_flow.len(), opened, "5-tuples are not distinct");
        let mut sizes: Vec<usize> = per_flow.into_values().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = sizes[..ELEPHANTS].iter().sum();
        assert_eq!(top, t.elephant_packets);
        let share = top as f64 / t.packets.len() as f64;
        assert!((0.78..=0.82).contains(&share), "elephant share {share}");
        // Heavy tail: the largest flow dwarfs a mouse.
        assert!(sizes[0] > 100 * sizes[ELEPHANTS]);
    }

    #[test]
    fn timestamps_are_sorted() {
        let t = skew_trace(3, 6_000);
        assert!(t.packets.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
