//! Deterministic synthetic trace generation.
//!
//! The paper drives its evaluation with full-payload HTTP and DNS traces
//! captured at the UC Berkeley border (§6.1). Those traces cannot ship with
//! a reproduction, so this module synthesizes workloads with the properties
//! the evaluation actually exercises: many interleaved sessions between
//! distinct host pairs, realistic request/reply structure, diverse bodies
//! and record types, reordering/retransmission at the TCP layer, and a dash
//! of non-conforming "crud" (§2) — all reproducible from a seed.
//!
//! Every draw comes from one `hilti_rt::rng::Rng` per trace: a value in
//! `lo..hi` is `lo + below(hi - lo)`, a `u32` the high half of one
//! `next_u64`, a `u16` its top 16 bits. The benchmark workloads and every
//! pinned count are generated from these streams, and
//! `generator_streams_are_pinned` holds them fixed.

use hilti_rt::addr::Addr;
use hilti_rt::rng::Rng;
use hilti_rt::time::Time;

use crate::decode::{build_tcp_frame, build_udp_frame, tcp_flags};
use crate::dns::DnsBuilder;
use crate::events::dns_types;
use crate::pcap::RawPacket;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    pub seed: u64,
    /// HTTP sessions or DNS transactions to generate.
    pub count: usize,
    /// Size of the client-address pool.
    pub clients: usize,
    /// Size of the server-address pool.
    pub servers: usize,
    /// Fraction (0..=100) of sessions that are non-protocol "crud".
    pub crud_percent: u8,
}

impl SynthConfig {
    pub fn new(seed: u64, count: usize) -> Self {
        SynthConfig {
            seed,
            count,
            clients: 200,
            servers: 50,
            crud_percent: 2,
        }
    }
}

/// TCP maximum segment size used when segmenting payload.
const MSS: usize = 1400;

struct TcpScripted<'a> {
    rng: &'a mut Rng,
    packets: &'a mut Vec<RawPacket>,
    client: Addr,
    server: Addr,
    cport: u16,
    sport: u16,
    seq_c: u32,
    seq_s: u32,
    t_ns: u64,
}

impl<'a> TcpScripted<'a> {
    fn now(&mut self) -> Time {
        // Advance 50–500 µs per packet; quantized to whole microseconds so
        // timestamps survive the pcap roundtrip exactly.
        self.t_ns += 50_000 + self.rng.below(450) * 1_000;
        Time::from_nanos(self.t_ns)
    }

    fn push(&mut self, from_client: bool, flags: u8, payload: &[u8]) {
        let (src, dst, sp, dp, seq, ack) = if from_client {
            (
                self.client,
                self.server,
                self.cport,
                self.sport,
                self.seq_c,
                self.seq_s,
            )
        } else {
            (
                self.server,
                self.client,
                self.sport,
                self.cport,
                self.seq_s,
                self.seq_c,
            )
        };
        let ts = self.now();
        let frame = build_tcp_frame(src, dst, sp, dp, seq, ack, flags, payload);
        self.packets.push(RawPacket::new(ts, frame));
        let consumed = payload.len() as u32
            + u32::from(flags & tcp_flags::SYN != 0)
            + u32::from(flags & tcp_flags::FIN != 0);
        if from_client {
            self.seq_c = self.seq_c.wrapping_add(consumed);
        } else {
            self.seq_s = self.seq_s.wrapping_add(consumed);
        }
    }

    fn handshake(&mut self) {
        self.push(true, tcp_flags::SYN, b"");
        self.push(false, tcp_flags::SYN | tcp_flags::ACK, b"");
        self.push(true, tcp_flags::ACK, b"");
    }

    /// Sends `data` segmented at MSS; occasionally swaps two adjacent
    /// segments (reordering) or duplicates one (retransmission).
    fn data(&mut self, from_client: bool, data: &[u8]) {
        let start = self.packets.len();
        for chunk in data.chunks(MSS) {
            self.push(from_client, tcp_flags::ACK | tcp_flags::PSH, chunk);
        }
        let n = self.packets.len() - start;
        if n >= 2 && self.rng.chance(1, 10) {
            let i = start + self.rng.below(n as u64 - 1) as usize;
            self.packets.swap(i, i + 1);
        }
        if n >= 1 && self.rng.chance(1, 20) {
            let i = start + self.rng.below(n as u64) as usize;
            let dup = self.packets[i].clone();
            self.packets.push(dup);
        }
    }

    fn close(&mut self) {
        self.push(true, tcp_flags::FIN | tcp_flags::ACK, b"");
        self.push(false, tcp_flags::FIN | tcp_flags::ACK, b"");
        self.push(true, tcp_flags::ACK, b"");
    }
}

const METHODS: &[(&str, u32)] = &[("GET", 70), ("POST", 15), ("HEAD", 10), ("PUT", 5)];
const PATH_STEMS: &[&str] = &[
    "/index.html",
    "/",
    "/images/logo",
    "/api/v1/items",
    "/static/app.js",
    "/css/site.css",
    "/download/file",
    "/search",
    "/users/profile",
    "/feed.xml",
];
const HOSTS: &[&str] = &[
    "www.example.com",
    "cdn.example.net",
    "api.service.org",
    "mirror.campus.edu",
    "media.photos.example",
    "updates.vendor.io",
];
const USER_AGENTS: &[&str] = &[
    "Mozilla/5.0 (X11; Linux x86_64)",
    "curl/7.88.1",
    "Wget/1.21",
    "python-requests/2.31",
    "Mozilla/5.0 (Macintosh)",
];

/// MIME bodies: (content-type header value, body builder).
fn make_body(rng: &mut Rng, kind: usize, size: usize) -> (&'static str, Vec<u8>) {
    match kind {
        0 => {
            let mut b = b"<html><head><title>t</title></head><body>".to_vec();
            while b.len() < size {
                b.extend_from_slice(b"<p>lorem ipsum dolor sit amet</p>");
            }
            b.extend_from_slice(b"</body></html>");
            ("text/html", b)
        }
        1 => {
            let mut b = b"GIF89a".to_vec();
            b.resize(size.max(8), 0);
            rng.fill(&mut b[6..]);
            ("image/gif", b)
        }
        2 => {
            let mut b = vec![0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];
            b.resize(size.max(10), 0);
            rng.fill(&mut b[8..]);
            ("image/png", b)
        }
        3 => {
            let mut b = b"{\"items\":[".to_vec();
            while b.len() < size {
                b.extend_from_slice(b"{\"id\":12345,\"name\":\"widget\"},");
            }
            b.extend_from_slice(b"null]}");
            ("application/json", b)
        }
        4 => {
            // Plain text without recognizable magic — exercises the
            // declared-type fallback in MIME detection.
            let mut b = Vec::with_capacity(size);
            while b.len() < size {
                b.extend_from_slice(b"plain log line 42\n");
            }
            ("text/plain", b)
        }
        _ => {
            let mut b = vec![0x1f, 0x8b, 0x08, 0x00];
            b.resize(size.max(6), 0);
            rng.fill(&mut b[4..]);
            ("application/gzip", b)
        }
    }
}

/// One of `items`, uniformly.
fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn pick_weighted<'x>(rng: &mut Rng, table: &[(&'x str, u32)]) -> &'x str {
    let total: u32 = table.iter().map(|(_, w)| w).sum();
    let mut roll = rng.below(u64::from(total)) as u32;
    for (item, w) in table {
        if roll < *w {
            return item;
        }
        roll -= w;
    }
    table[0].0
}

/// Generates an HTTP workload trace; packets are sorted by timestamp.
pub fn http_trace(cfg: &SynthConfig) -> Vec<RawPacket> {
    let mut rng = Rng::new(cfg.seed);
    let mut packets = Vec::new();
    // Sessions start staggered over a window so flows interleave when the
    // final sort merges them.
    for s in 0..cfg.count {
        let client = Addr::v4(
            10,
            1,
            (rng.below(cfg.clients as u64) / 250) as u8,
            (rng.below(cfg.clients as u64) % 250 + 1) as u8,
        );
        let server = Addr::v4(
            93,
            184,
            (rng.below(cfg.servers as u64) / 250) as u8,
            (rng.below(cfg.servers as u64) % 250 + 1) as u8,
        );
        let base_ns = (s as u64) * 3_000_000 + rng.below(2_000) * 1_000;
        let mut sess = TcpScripted {
            client,
            server,
            cport: 20000 + rng.below(40000) as u16,
            sport: 80,
            seq_c: (rng.next_u64() >> 32) as u32,
            seq_s: (rng.next_u64() >> 32) as u32,
            t_ns: base_ns,
            rng: &mut rng,
            packets: &mut packets,
        };
        sess.handshake();
        let crud = sess.rng.below(100) < u64::from(cfg.crud_percent);
        if crud {
            // Non-HTTP garbage on port 80.
            let mut junk = vec![0u8; 64 + sess.rng.below(256) as usize];
            sess.rng.fill(&mut junk[..]);
            sess.data(true, &junk);
            sess.close();
            continue;
        }
        let n_requests = 1 + sess.rng.below(3);
        for _ in 0..n_requests {
            let method = pick_weighted(sess.rng, METHODS);
            let stem = pick(sess.rng, PATH_STEMS);
            let uri = if sess.rng.chance(1, 3) {
                format!("{stem}?id={}", sess.rng.below(100000))
            } else {
                stem.to_owned()
            };
            let host = pick(sess.rng, HOSTS);
            let ua = pick(sess.rng, USER_AGENTS);
            // Request.
            let mut req = format!(
                "{method} {uri} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {ua}\r\nAccept: */*\r\n"
            );
            let post_body = if method == "POST" || method == "PUT" {
                let size = 16 + sess.rng.below(584) as usize;
                let (_ct, body) = make_body(sess.rng, 3, size);
                req.push_str(&format!(
                    "Content-Type: application/json\r\nContent-Length: {}\r\n",
                    body.len()
                ));
                Some(body)
            } else {
                None
            };
            req.push_str("\r\n");
            let mut req_bytes = req.into_bytes();
            if let Some(b) = post_body {
                req_bytes.extend_from_slice(&b);
            }
            sess.data(true, &req_bytes);

            // Response.
            let status_roll = sess.rng.below(100);
            let (status, reason): (u32, &str) = match status_roll {
                0..=74 => (200, "OK"),
                75..=82 => (404, "Not Found"),
                83..=89 => (304, "Not Modified"),
                90..=94 => (206, "Partial Content"),
                95..=97 => (302, "Found"),
                _ => (500, "Internal Server Error"),
            };
            let mut resp = format!("HTTP/1.1 {status} {reason}\r\nServer: synthd/1.0\r\nDate: Mon, 06 Jul 2026 10:00:00 GMT\r\n");
            if method == "HEAD" || status == 304 {
                // Header-only; advertise a length that must NOT be consumed.
                resp.push_str(&format!(
                    "Content-Length: {}\r\n\r\n",
                    100 + sess.rng.below(4900)
                ));
                sess.data(false, resp.as_bytes());
            } else {
                let kind = sess.rng.below(6) as usize;
                let size = 32 + sess.rng.below(4064) as usize;
                let (ct, body) = make_body(sess.rng, kind, size);
                resp.push_str(&format!("Content-Type: {ct}\r\n"));
                if status == 206 {
                    resp.push_str(&format!(
                        "Content-Range: bytes 0-{}/{}\r\n",
                        body.len() - 1,
                        body.len() * 2
                    ));
                }
                if sess.rng.chance(1, 5) {
                    // Chunked transfer-coding.
                    resp.push_str("Transfer-Encoding: chunked\r\n\r\n");
                    let mut payload = resp.into_bytes();
                    for chunk in body.chunks(512) {
                        payload.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                        payload.extend_from_slice(chunk);
                        payload.extend_from_slice(b"\r\n");
                    }
                    payload.extend_from_slice(b"0\r\n\r\n");
                    sess.data(false, &payload);
                } else {
                    resp.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
                    let mut payload = resp.into_bytes();
                    payload.extend_from_slice(&body);
                    sess.data(false, &payload);
                }
            }
        }
        sess.close();
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

/// Deterministic high-flow-count throughput workload: `flows` small,
/// well-formed HTTP sessions (one GET each, ~9 packets) built from a
/// handful of pre-rendered request/response templates, so generation
/// stays cheap even at 10^6 flows and benchmarks measure the pipeline,
/// not the generator. Every flow has a distinct 5-tuple (unique for
/// `flows` < 2^22). Sessions are timestamp-interleaved within chunks of
/// 64 flows, which exercises concurrent per-flow parser state without a
/// whole-trace sort; occasional reordering/retransmission of data
/// segments keeps the owned-payload reassembly path warm.
pub fn throughput_trace(seed: u64, flows: usize) -> Vec<RawPacket> {
    let mut rng = Rng::new(seed);
    let reqs: Vec<Vec<u8>> = PATH_STEMS
        .iter()
        .enumerate()
        .map(|(i, stem)| {
            let host = HOSTS[i % HOSTS.len()];
            let ua = USER_AGENTS[i % USER_AGENTS.len()];
            format!(
                "GET {stem} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {ua}\r\nAccept: */*\r\n\r\n"
            )
            .into_bytes()
        })
        .collect();
    let resps: Vec<Vec<u8>> = (0..8usize)
        .map(|i| {
            let size = 200 + i * 150;
            let mut body = Vec::with_capacity(size + 24);
            while body.len() < size {
                body.extend_from_slice(b"stream analysis payload ");
            }
            body.truncate(size);
            let mut r = format!(
                "HTTP/1.1 200 OK\r\nServer: synthd/1.0\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            r.extend_from_slice(&body);
            r
        })
        .collect();

    const CHUNK: usize = 64;
    let mut packets = Vec::with_capacity(flows * 9 + flows / 16);
    let mut done = 0usize;
    while done < flows {
        let n = CHUNK.min(flows - done);
        let start = packets.len();
        for f in done..done + n {
            let client = Addr::v4(
                10,
                (((f >> 16) & 0x3f) + 1) as u8,
                ((f >> 8) & 0xff) as u8,
                (f & 0xff) as u8,
            );
            let server = Addr::v4(93, 184, ((f / 7) % 250) as u8, ((f / 3) % 250 + 1) as u8);
            let mut sess = TcpScripted {
                client,
                server,
                cport: 20000 + (f % 40000) as u16,
                sport: 80,
                seq_c: (rng.next_u64() >> 32) as u32,
                seq_s: (rng.next_u64() >> 32) as u32,
                t_ns: (f as u64) * 120_000,
                rng: &mut rng,
                packets: &mut packets,
            };
            sess.handshake();
            sess.data(true, &reqs[f % reqs.len()]);
            sess.data(false, &resps[f % resps.len()]);
            sess.close();
        }
        // Interleave the chunk's sessions (each already ts-sorted).
        packets[start..].sort_by_key(|p| p.ts);
        done += n;
    }
    packets
}

/// Deterministic high-flow-count DNS throughput workload: `flows`
/// well-formed query/response pairs over UDP/53, each on a distinct
/// 5-tuple (unique for `flows` < 2^22). The DNS companion to
/// [`throughput_trace`]: tiny fixed-shape messages so soak and
/// throughput harnesses measure the pipeline, not the generator, and
/// every query gets an answer so a lossless run logs exactly `flows`
/// entries.
pub fn throughput_dns_trace(seed: u64, flows: usize) -> Vec<RawPacket> {
    let mut rng = Rng::new(seed);
    let mut packets = Vec::with_capacity(flows * 2);
    for f in 0..flows {
        let client = Addr::v4(
            10,
            (((f >> 16) & 0x3f) + 65) as u8,
            ((f >> 8) & 0xff) as u8,
            (f & 0xff) as u8,
        );
        let server = Addr::v4(8, 8, ((f / 11) % 250) as u8, ((f / 5) % 250 + 1) as u8);
        let cport = 20000 + (f % 40000) as u16;
        let trans_id = (f as u16) ^ 0x5A17;
        let name = DNS_NAMES[f % DNS_NAMES.len()];
        let base = Time::from_nanos((f as u64) * 60_000);

        let query = DnsBuilder::new(trans_id, false, 0)
            .question(name, dns_types::A)
            .build();
        packets.push(RawPacket::new(
            base,
            build_udp_frame(client, server, cport, 53, &query),
        ));

        let rtt = 1_000_000 + rng.below(500) as i64 * 1_000;
        let resp = DnsBuilder::new(trans_id, true, 0)
            .question(name, dns_types::A)
            .answer_a(
                name,
                60 + (f % 3600) as u32,
                [93, 184, ((f % 249) + 1) as u8, ((f % 199) + 1) as u8],
            )
            .build();
        packets.push(RawPacket::new(
            base + hilti_rt::time::Interval::from_nanos(rtt),
            build_udp_frame(client, server, cport, 53, &resp),
        ));
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

/// Adversarial trace generation: deterministic counts of each protocol
/// malformation, so harnesses can assert exact per-category error totals.
///
/// Every malformed session models a real attack on analyzer robustness:
/// state that is opened but never completed (resource-exhaustion via
/// idle flows), bodies that never end (unbounded buffering), and header
/// streams with no terminator (per-flow heap growth). The generator is
/// fully deterministic from `seed`.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    pub seed: u64,
    /// Well-formed HTTP sessions mixed into the trace.
    pub normal: usize,
    /// Sessions that stop after the initial SYN: the flow table entry is
    /// created but no data ever arrives (idle-expiration pressure).
    pub truncated_handshakes: usize,
    /// Responses advertising a large `Content-Length` but cut off after a
    /// small prefix, with no FIN — the parser waits forever.
    pub mid_body_cuts: usize,
    /// Requests streaming header lines without the terminating blank
    /// line — per-flow buffering grows until something bounds it.
    pub header_bombs: usize,
    /// Chunked responses that keep sending chunks and never emit the
    /// terminating zero chunk.
    pub infinite_chunks: usize,
}

impl ChaosConfig {
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            normal: 10,
            truncated_handshakes: 4,
            mid_body_cuts: 4,
            header_bombs: 3,
            infinite_chunks: 3,
        }
    }

    pub fn total_sessions(&self) -> usize {
        self.normal
            + self.truncated_handshakes
            + self.mid_body_cuts
            + self.header_bombs
            + self.infinite_chunks
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ChaosKind {
    Normal,
    TruncatedHandshake,
    MidBodyCut,
    HeaderBomb,
    InfiniteChunk,
}

/// Generates an adversarial HTTP workload per `cfg`; packets are sorted
/// by timestamp and sessions of all categories interleave.
pub fn chaos_http_trace(cfg: &ChaosConfig) -> Vec<RawPacket> {
    let mut rng = Rng::new(cfg.seed);
    let mut kinds = Vec::with_capacity(cfg.total_sessions());
    kinds.extend(std::iter::repeat_n(ChaosKind::Normal, cfg.normal));
    kinds.extend(std::iter::repeat_n(
        ChaosKind::TruncatedHandshake,
        cfg.truncated_handshakes,
    ));
    kinds.extend(std::iter::repeat_n(
        ChaosKind::MidBodyCut,
        cfg.mid_body_cuts,
    ));
    kinds.extend(std::iter::repeat_n(ChaosKind::HeaderBomb, cfg.header_bombs));
    kinds.extend(std::iter::repeat_n(
        ChaosKind::InfiniteChunk,
        cfg.infinite_chunks,
    ));
    // Deterministic interleave: Fisher-Yates off the seeded generator.
    for i in (1..kinds.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        kinds.swap(i, j);
    }

    let mut packets = Vec::new();
    for (s, kind) in kinds.iter().enumerate() {
        let client = Addr::v4(10, 9, (s / 250) as u8, (s % 250 + 1) as u8);
        let server = Addr::v4(93, 184, 0, (rng.below(40) + 1) as u8);
        let base_ns = (s as u64) * 3_000_000 + rng.below(2_000) * 1_000;
        let mut sess = TcpScripted {
            client,
            server,
            cport: 20000 + rng.below(40000) as u16,
            sport: 80,
            seq_c: (rng.next_u64() >> 32) as u32,
            seq_s: (rng.next_u64() >> 32) as u32,
            t_ns: base_ns,
            rng: &mut rng,
            packets: &mut packets,
        };
        match kind {
            ChaosKind::TruncatedHandshake => {
                // SYN into the void; the flow table entry goes stale.
                sess.push(true, tcp_flags::SYN, b"");
                continue;
            }
            ChaosKind::Normal => {
                sess.handshake();
                let req = b"GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n";
                sess.data(true, req);
                let body = b"<html>ok</html>";
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                let mut payload = resp.into_bytes();
                payload.extend_from_slice(body);
                sess.data(false, &payload);
                sess.close();
            }
            ChaosKind::MidBodyCut => {
                sess.handshake();
                sess.data(
                    true,
                    b"GET /download/file HTTP/1.1\r\nHost: cdn.example.net\r\n\r\n",
                );
                // Promise 100 KiB, deliver 2 KiB, go silent (no FIN).
                let mut payload =
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/gzip\r\nContent-Length: 102400\r\n\r\n"
                        .to_vec();
                payload.extend_from_slice(&vec![0x1f; 2048]);
                sess.data(false, &payload);
            }
            ChaosKind::HeaderBomb => {
                sess.handshake();
                // A header stream with no terminating blank line: ~48 KiB
                // of headers, then silence.
                let mut req = b"GET / HTTP/1.1\r\nHost: www.example.com\r\n".to_vec();
                for i in 0..1200 {
                    req.extend_from_slice(
                        format!("X-Padding-{i}: aaaaaaaaaaaaaaaaaaaaaaaa\r\n").as_bytes(),
                    );
                }
                sess.data(true, &req);
            }
            ChaosKind::InfiniteChunk => {
                sess.handshake();
                sess.data(
                    true,
                    b"GET /feed.xml HTTP/1.1\r\nHost: api.service.org\r\n\r\n",
                );
                let mut payload =
                    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n"
                        .to_vec();
                // Chunks keep coming; the terminating `0` chunk never does.
                for _ in 0..200 {
                    payload.extend_from_slice(b"100\r\n");
                    payload.extend_from_slice(&[b'z'; 0x100]);
                    payload.extend_from_slice(b"\r\n");
                }
                sess.data(false, &payload);
            }
        }
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

/// Generates a DNS trace of `normal` well-formed A lookups plus
/// `compression_loops` messages whose name is a self-referencing
/// compression pointer — the classic parser-loop attack. Deterministic
/// from `seed`.
pub fn chaos_dns_trace(seed: u64, normal: usize, compression_loops: usize) -> Vec<RawPacket> {
    let mut rng = Rng::new(seed);
    let mut packets = Vec::new();
    for i in 0..normal + compression_loops {
        let client = Addr::v4(10, 8, (i / 250) as u8, (i % 250 + 1) as u8);
        let server = Addr::v4(8, 8, 8, 8);
        let cport = 1024 + rng.below(63976) as u16;
        let base = Time::from_nanos((i as u64) * 700_000 + rng.below(500) * 1_000);
        if i < normal {
            let trans_id = (rng.next_u64() >> 48) as u16;
            let name = pick(&mut rng, DNS_NAMES);
            let query = DnsBuilder::new(trans_id, false, 0)
                .question(name, dns_types::A)
                .build();
            packets.push(RawPacket::new(
                base,
                build_udp_frame(client, server, cport, 53, &query),
            ));
            let resp = DnsBuilder::new(trans_id, true, 0)
                .question(name, dns_types::A)
                .answer_a(name, 300, [93, 184, 1, 1])
                .build();
            packets.push(RawPacket::new(
                base + hilti_rt::time::Interval::from_nanos(2_000_000),
                build_udp_frame(server, client, 53, cport, &resp),
            ));
        } else {
            // Header claiming one question, whose name at offset 12 is a
            // compression pointer back to offset 12: following it loops.
            let trans_id = (rng.next_u64() >> 48) as u16;
            let mut msg = Vec::new();
            msg.extend_from_slice(&trans_id.to_be_bytes());
            msg.extend_from_slice(&[0x01, 0x00]); // flags: standard query
            msg.extend_from_slice(&[0x00, 0x01]); // qdcount = 1
            msg.extend_from_slice(&[0x00, 0x00, 0x00, 0x00, 0x00, 0x00]);
            msg.extend_from_slice(&[0xc0, 0x0c]); // name: pointer to itself
            msg.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // A, IN
            packets.push(RawPacket::new(
                base,
                build_udp_frame(client, server, cport, 53, &msg),
            ));
        }
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

const DNS_NAMES: &[&str] = &[
    "www.example.com",
    "mail.campus.edu",
    "cdn.assets.net",
    "api.cloud.io",
    "ns1.provider.org",
    "tracker.ads.example",
    "git.devhub.dev",
    "db.internal.corp",
    "login.sso.example",
    "video.stream.tv",
];

/// Generates a DNS workload trace (UDP port 53 request/reply pairs).
pub fn dns_trace(cfg: &SynthConfig) -> Vec<RawPacket> {
    let mut rng = Rng::new(cfg.seed);
    let mut packets = Vec::new();
    for i in 0..cfg.count {
        let client = Addr::v4(
            10,
            2,
            (rng.below(cfg.clients as u64) / 250) as u8,
            (rng.below(cfg.clients as u64) % 250 + 1) as u8,
        );
        let server = Addr::v4(
            8,
            8,
            8,
            (rng.below(cfg.servers.max(1) as u64) % 250 + 1) as u8,
        );
        let cport = 1024 + rng.below(63976) as u16;
        let base = Time::from_nanos((i as u64) * 800_000 + rng.below(500) * 1_000);

        if rng.below(100) < u64::from(cfg.crud_percent) {
            // Crud: random bytes on port 53.
            let mut junk = vec![0u8; 4 + rng.below(76) as usize];
            rng.fill(&mut junk[..]);
            packets.push(RawPacket::new(
                base,
                build_udp_frame(client, server, cport, 53, &junk),
            ));
            continue;
        }

        let trans_id = (rng.next_u64() >> 48) as u16;
        let name = pick(&mut rng, DNS_NAMES);
        let qtype = match rng.below(100) {
            0..=59 => dns_types::A,
            60..=74 => dns_types::AAAA,
            75..=84 => dns_types::CNAME,
            85..=92 => dns_types::TXT,
            _ => dns_types::MX,
        };
        let query = DnsBuilder::new(trans_id, false, 0)
            .question(name, qtype)
            .build();
        packets.push(RawPacket::new(
            base,
            build_udp_frame(client, server, cport, 53, &query),
        ));

        // Response ~1–40 ms later; 5% of queries go unanswered.
        if rng.chance(1, 20) {
            continue;
        }
        let rtt = 1_000_000 + rng.below(39_000) as i64 * 1_000;
        let resp_ts = base + hilti_rt::time::Interval::from_nanos(rtt);
        let nxdomain = rng.chance(1, 12);
        let mut b =
            DnsBuilder::new(trans_id, true, if nxdomain { 3 } else { 0 }).question(name, qtype);
        if !nxdomain {
            let n_answers = 1 + rng.below(3);
            for k in 0..n_answers {
                match qtype {
                    t if t == dns_types::A => {
                        b = b.answer_a(
                            name,
                            30 + rng.below(3570) as u32,
                            [93, 184, 1 + rng.below(249) as u8, 1 + rng.below(249) as u8],
                        );
                    }
                    t if t == dns_types::AAAA => {
                        let mut addr = [0u8; 16];
                        addr[0] = 0x20;
                        addr[1] = 0x01;
                        addr[15] = 1 + rng.below(254) as u8;
                        b = b.answer_aaaa(name, 30 + rng.below(3570) as u32, addr);
                    }
                    t if t == dns_types::CNAME => {
                        let target = pick(&mut rng, DNS_NAMES);
                        b = b.answer_cname(name, 30 + rng.below(3570) as u32, target);
                        // CNAME chains terminate in an A record.
                        if k == n_answers - 1 {
                            b = b.answer_a(target, 300, [93, 184, 1, 1]);
                        }
                    }
                    t if t == dns_types::TXT => {
                        // Multi-string TXT records exercise the standard/
                        // BinPAC++ semantic difference (Table 2); most TXT
                        // records carry one string, as in real traffic.
                        let n_strings = if rng.chance(1, 24) {
                            2 + rng.below(2)
                        } else {
                            1
                        };
                        let strings: Vec<String> = (0..n_strings)
                            .map(|j| format!("v=spf{j} include:example.com"))
                            .collect();
                        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
                        b = b.answer_txt(name, 30 + rng.below(3570) as u32, &refs);
                    }
                    _ => {
                        let target = pick(&mut rng, DNS_NAMES);
                        b = b.answer_mx(name, 30 + rng.below(3570) as u32, 10, target);
                    }
                }
            }
        }
        let resp = b.build();
        packets.push(RawPacket::new(
            resp_ts,
            build_udp_frame(server, client, 53, cport, &resp),
        ));
    }
    packets.sort_by_key(|p| p.ts);
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_ethernet, Transport};

    #[test]
    fn http_trace_is_deterministic() {
        let cfg = SynthConfig::new(42, 20);
        let a = http_trace(&cfg);
        let b = http_trace(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = http_trace(&SynthConfig::new(1, 10));
        let b = http_trace(&SynthConfig::new(2, 10));
        assert_ne!(a, b);
    }

    #[test]
    fn http_packets_decode_and_target_port_80() {
        let pkts = http_trace(&SynthConfig::new(7, 15));
        let mut tcp = 0;
        for p in &pkts {
            let d = decode_ethernet(p).expect("generated packets must decode");
            assert!(matches!(d.transport, Transport::Tcp(_)));
            assert!(d.dport == 80 || d.sport == 80);
            tcp += 1;
        }
        assert!(tcp > 15 * 4, "expected handshake+data per session");
    }

    #[test]
    fn throughput_trace_has_distinct_decodable_flows() {
        let flows = 300;
        let a = throughput_trace(9, flows);
        assert_eq!(a, throughput_trace(9, flows), "must be deterministic");
        let mut table = crate::flow::FlowTable::new();
        for p in &a {
            let d = decode_ethernet(p).expect("generated packets must decode");
            table.process(&d);
        }
        assert_eq!(table.len(), flows, "one flow table entry per session");
        // 8 packets per session (handshake, request, response, close),
        // plus occasional retransmissions.
        assert!(a.len() >= flows * 8, "{}", a.len());
    }

    #[test]
    fn timestamps_sorted() {
        let pkts = http_trace(&SynthConfig::new(3, 25));
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
        let pkts = dns_trace(&SynthConfig::new(3, 50));
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn dns_trace_decodes_and_parses_mostly() {
        let cfg = SynthConfig::new(11, 100);
        let pkts = dns_trace(&cfg);
        let mut parsed = 0;
        let mut failed = 0;
        for p in &pkts {
            let d = decode_ethernet(p).unwrap();
            assert_eq!(d.transport, Transport::Udp);
            match crate::dns::parse_message(&d.payload) {
                Ok(_) => parsed += 1,
                Err(_) => failed += 1,
            }
        }
        assert!(parsed > 150, "parsed={parsed}");
        // Crud packets mostly fail to parse.
        assert!(failed >= 1, "expected some crud, failed={failed}");
    }

    #[test]
    fn dns_responses_match_queries() {
        let pkts = dns_trace(&SynthConfig::new(5, 50));
        let mut queries = std::collections::HashMap::new();
        let mut matched = 0;
        for p in &pkts {
            let d = decode_ethernet(p).unwrap();
            if let Ok(m) = crate::dns::parse_message(&d.payload) {
                if m.is_response {
                    if queries.remove(&m.id).is_some() {
                        matched += 1;
                    }
                } else {
                    queries.insert(m.id, ());
                }
            }
        }
        assert!(matched > 30, "matched={matched}");
    }

    #[test]
    fn http_roundtrips_through_pcap() {
        let pkts = http_trace(&SynthConfig::new(9, 5));
        let img = crate::pcap::to_pcap_bytes(&pkts);
        let back = crate::pcap::from_pcap_bytes(&img).unwrap();
        assert_eq!(back, pkts);
    }

    #[test]
    fn chaos_http_trace_is_deterministic_and_decodes() {
        let cfg = ChaosConfig::new(99);
        let a = chaos_http_trace(&cfg);
        let b = chaos_http_trace(&cfg);
        assert_eq!(a, b);
        assert!(pksorted(&a));
        for p in &a {
            let d = decode_ethernet(p).expect("chaos packets still decode at L2-L4");
            assert!(matches!(d.transport, Transport::Tcp(_)));
        }
        // Different seeds interleave differently.
        assert_ne!(a, chaos_http_trace(&ChaosConfig::new(100)));
    }

    /// FNV-1a over every packet's timestamp, wire length and bytes.
    fn trace_digest(pkts: &[RawPacket]) -> (usize, u64) {
        use hilti_rt::hashutil::{fnv1a_continue, FNV_OFFSET};
        let h = pkts.iter().fold(FNV_OFFSET, |h, p| {
            let h = fnv1a_continue(h, &p.ts.nanos().to_le_bytes());
            let h = fnv1a_continue(h, &p.orig_len.to_le_bytes());
            fnv1a_continue(h, &p.data)
        });
        (pkts.len(), h)
    }

    /// Every workload, pin and golden digest in the repo is generated from
    /// these streams: a change to the generator or to the draws made from
    /// it shows here first, and moves all of them.
    #[test]
    fn generator_streams_are_pinned() {
        let synth = |seed, count| SynthConfig {
            crud_percent: 10,
            ..SynthConfig::new(seed, count)
        };
        let got: Vec<(&str, u64, (usize, u64))> = [11, 37]
            .into_iter()
            .flat_map(|seed| {
                [
                    ("http", http_trace(&synth(seed, 60))),
                    ("dns", dns_trace(&synth(seed, 200))),
                    ("throughput", throughput_trace(seed, 40)),
                    ("throughput_dns", throughput_dns_trace(seed, 100)),
                    ("chaos_http", chaos_http_trace(&ChaosConfig::new(seed))),
                    ("chaos_dns", chaos_dns_trace(seed, 30, 5)),
                ]
                .map(|(name, pkts)| (name, seed, trace_digest(&pkts)))
            })
            .collect();
        let want = [
            ("http", 11, (678, 0xa0ce182bc0a4c095)),
            ("dns", 11, (360, 0xca18b8e702a7b46b)),
            ("throughput", 11, (323, 0xa56a6cf21470e661)),
            ("throughput_dns", 11, (200, 0x90df201890b18738)),
            ("chaos_http", 11, (355, 0xc119d9b1b961cdc6)),
            ("chaos_dns", 11, (65, 0xb657bd305d442d9e)),
            ("http", 37, (665, 0xd92fe24befbe0127)),
            ("dns", 37, (368, 0x11cc6bf82254bcf9)),
            ("throughput", 37, (325, 0x9b853c54914ebf41)),
            ("throughput_dns", 37, (200, 0x381fb6c3c2cf23a0)),
            ("chaos_http", 37, (352, 0x1b041a103b58b7ef)),
            ("chaos_dns", 37, (65, 0xc63c6c4c6e41c989)),
        ];
        assert_eq!(got, want);
    }

    fn decoded(pkts: &[RawPacket]) -> Vec<crate::decode::DecodedPacket> {
        pkts.iter()
            .map(|p| decode_ethernet(p).expect("generated packets must decode"))
            .collect()
    }

    /// Every DNS message of a trace without crud, parsed.
    fn dns_messages(pkts: &[RawPacket]) -> Vec<crate::dns::DnsMessage> {
        decoded(pkts)
            .iter()
            .map(|d| {
                crate::dns::parse_message(&d.payload).expect("no crud, so every message parses")
            })
            .collect()
    }

    fn no_crud(seed: u64, count: usize) -> SynthConfig {
        SynthConfig {
            crud_percent: 0,
            ..SynthConfig::new(seed, count)
        }
    }

    #[test]
    fn dns_trace_is_deterministic_and_seeded() {
        let cfg = SynthConfig::new(42, 40);
        assert_eq!(dns_trace(&cfg), dns_trace(&cfg));
        assert_ne!(dns_trace(&cfg), dns_trace(&SynthConfig::new(43, 40)));
    }

    #[test]
    fn throughput_trace_is_seeded() {
        assert_ne!(throughput_trace(1, 20), throughput_trace(2, 20));
    }

    #[test]
    fn chaos_dns_trace_is_deterministic_and_seeded() {
        assert_eq!(chaos_dns_trace(4, 10, 2), chaos_dns_trace(4, 10, 2));
        assert_ne!(chaos_dns_trace(4, 10, 2), chaos_dns_trace(5, 10, 2));
    }

    #[test]
    fn throughput_dns_trace_answers_every_query_once() {
        let flows = 150;
        let pkts = throughput_dns_trace(13, flows);
        assert_eq!(
            pkts,
            throughput_dns_trace(13, flows),
            "must be deterministic"
        );
        assert_ne!(pkts, throughput_dns_trace(14, flows));
        assert!(pksorted(&pkts));
        assert_eq!(pkts.len(), 2 * flows);
        let mut tuples = std::collections::HashSet::new();
        for d in decoded(&pkts) {
            assert_eq!(d.transport, Transport::Udp);
            assert_eq!(d.dport, 53);
            tuples.insert((d.src, d.sport, d.dst));
        }
        assert_eq!(tuples.len(), flows, "one 5-tuple per flow");
        let mut open = std::collections::HashMap::new();
        for m in dns_messages(&pkts) {
            if m.is_response {
                assert_eq!(open.remove(&m.id), Some(m.questions[0].name.clone()));
                assert_eq!(m.answers.len(), 1);
            } else {
                assert!(open.insert(m.id, m.questions[0].name.clone()).is_none());
            }
        }
        assert!(open.is_empty(), "unanswered: {open:?}");
    }

    #[test]
    fn every_generator_roundtrips_through_pcap() {
        let traces = [
            dns_trace(&SynthConfig::new(9, 20)),
            throughput_trace(9, 20),
            throughput_dns_trace(9, 20),
            chaos_http_trace(&ChaosConfig::new(9)),
            chaos_dns_trace(9, 10, 2),
        ];
        for pkts in traces {
            let img = crate::pcap::to_pcap_bytes(&pkts);
            assert_eq!(crate::pcap::from_pcap_bytes(&img).unwrap(), pkts);
        }
    }

    #[test]
    fn timestamps_are_whole_microseconds() {
        let traces = [
            http_trace(&SynthConfig::new(2, 20)),
            dns_trace(&SynthConfig::new(2, 50)),
            throughput_trace(2, 100),
            throughput_dns_trace(2, 100),
            chaos_http_trace(&ChaosConfig::new(2)),
            chaos_dns_trace(2, 10, 2),
        ];
        for pkts in traces {
            assert!(pkts.iter().all(|p| p.ts.nanos() % 1_000 == 0));
        }
    }

    #[test]
    fn http_hosts_come_from_the_configured_pools() {
        let cfg = SynthConfig {
            clients: 30,
            servers: 7,
            ..SynthConfig::new(17, 200)
        };
        let mut clients = std::collections::HashSet::new();
        let mut servers = std::collections::HashSet::new();
        for d in decoded(&http_trace(&cfg)) {
            let (client, server) = if d.dport == 80 {
                (d.src, d.dst)
            } else {
                (d.dst, d.src)
            };
            clients.insert(client);
            servers.insert(server);
        }
        assert!(
            clients.len() <= cfg.clients && clients.len() > cfg.clients / 2,
            "{}",
            clients.len()
        );
        assert!(
            servers.len() <= cfg.servers && servers.len() > 1,
            "{}",
            servers.len()
        );
    }

    #[test]
    fn http_requests_without_crud_each_open_with_a_method() {
        let pkts = http_trace(&no_crud(19, 60));
        let mut requests = 0;
        for d in decoded(&pkts) {
            if d.dport == 80 && !d.payload.is_empty() {
                let method = d.payload.split(|&b| b == b' ').next().unwrap();
                assert!(
                    METHODS.iter().any(|(m, _)| m.as_bytes() == method),
                    "{:?}",
                    String::from_utf8_lossy(&d.payload[..16.min(d.payload.len())])
                );
                requests += 1;
            }
        }
        // One to three requests per session, some retransmitted.
        assert!((60..=200).contains(&requests), "{requests}");
    }

    #[test]
    fn http_crud_sessions_carry_no_request() {
        let cfg = SynthConfig {
            crud_percent: 100,
            ..SynthConfig::new(23, 30)
        };
        let pkts = http_trace(&cfg);
        for d in decoded(&pkts) {
            if !d.payload.is_empty() {
                assert_eq!(d.dport, 80, "crud sessions get no response");
                assert!(!d.payload.starts_with(b"GET /"));
            }
        }
    }

    #[test]
    fn http_responses_follow_the_status_mix() {
        let pkts = http_trace(&no_crud(29, 300));
        let mut ok = 0;
        let mut other = 0;
        for d in decoded(&pkts) {
            if d.sport == 80 && d.payload.starts_with(b"HTTP/1.1 ") {
                if d.payload.starts_with(b"HTTP/1.1 200 ") {
                    ok += 1;
                } else {
                    other += 1;
                }
            }
        }
        // Three in four responses are 200 OK.
        let share = ok * 100 / (ok + other);
        assert!((68..=82).contains(&share), "{ok} ok, {other} other");
    }

    /// The value of header `name` in a message's head, if present.
    fn header<'p>(payload: &'p [u8], name: &str) -> Option<&'p str> {
        let text = std::str::from_utf8(payload).ok()?;
        let head = &text[..text.find("\r\n\r\n")?];
        head.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(": "))
    }

    #[test]
    fn http_request_bodies_match_their_content_length() {
        let pkts = http_trace(&no_crud(61, 200));
        let mut with_body = 0;
        for d in decoded(&pkts) {
            if d.dport != 80 || d.payload.is_empty() {
                continue;
            }
            let head_end = 4 + d.payload.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
            let body = d.payload.len() - head_end;
            match header(&d.payload, "Content-Length") {
                Some(len) => {
                    assert_eq!(len.parse::<usize>().unwrap(), body);
                    with_body += 1;
                }
                None => assert_eq!(body, 0),
            }
        }
        assert!(with_body > 20, "{with_body}");
    }

    #[test]
    fn not_modified_responses_carry_no_body() {
        let pkts = http_trace(&no_crud(67, 300));
        let mut seen = 0;
        for d in decoded(&pkts) {
            if d.sport == 80 && d.payload.starts_with(b"HTTP/1.1 304 ") {
                // The advertised length is there but must not be consumed.
                assert!(header(&d.payload, "Content-Length").is_some());
                assert!(d.payload.ends_with(b"\r\n\r\n"));
                seen += 1;
            }
        }
        assert!(seen > 5, "{seen}");
    }

    #[test]
    fn dns_without_crud_parses_every_message() {
        let pkts = dns_trace(&no_crud(31, 200));
        let msgs = dns_messages(&pkts);
        assert_eq!(msgs.len(), pkts.len());
        assert!(msgs.iter().all(|m| m.questions.len() == 1));
    }

    #[test]
    fn dns_trace_leaves_some_queries_unanswered_and_some_nxdomain() {
        let msgs = dns_messages(&dns_trace(&no_crud(37, 1_000)));
        let queries = msgs.iter().filter(|m| !m.is_response).count();
        let responses = msgs.len() - queries;
        let nxdomain = msgs
            .iter()
            .filter(|m| m.is_response && m.rcode == 3)
            .count();
        assert_eq!(queries, 1_000);
        // One query in 20 goes unanswered; one answer in 12 is NXDOMAIN.
        assert!((25..=75).contains(&(queries - responses)), "{responses}");
        assert!((50..=120).contains(&nxdomain), "{nxdomain}");
    }

    #[test]
    fn dns_queries_follow_the_type_mix() {
        let msgs = dns_messages(&dns_trace(&no_crud(41, 1_000)));
        let mut by_type = std::collections::HashMap::new();
        for m in msgs.iter().filter(|m| !m.is_response) {
            *by_type.entry(m.questions[0].qtype).or_insert(0u32) += 1;
        }
        // 60 % A, 15 % AAAA, 10 % CNAME, 8 % TXT, 7 % MX.
        let want = [
            (dns_types::A, 600),
            (dns_types::AAAA, 150),
            (dns_types::CNAME, 100),
            (dns_types::TXT, 80),
            (dns_types::MX, 70),
        ];
        assert_eq!(by_type.len(), want.len(), "{by_type:?}");
        for (qtype, expected) in want {
            let got = by_type[&qtype];
            assert!(
                got.abs_diff(expected) <= expected / 4 + 10,
                "type {qtype}: {got}"
            );
        }
    }

    #[test]
    fn chaos_http_trace_has_one_flow_per_session() {
        let cfg = ChaosConfig::new(47);
        let pkts = decoded(&chaos_http_trace(&cfg));
        let clients: std::collections::HashSet<_> = pkts
            .iter()
            .map(|d| if d.dport == 80 { d.src } else { d.dst })
            .collect();
        assert_eq!(clients.len(), cfg.total_sessions());
        // A truncated handshake is a lone SYN; every other session's
        // client also sends an ACK.
        let acked: std::collections::HashSet<_> = pkts
            .iter()
            .filter(|d| d.dport == 80 && matches!(&d.transport, Transport::Tcp(t) if t.ack_flag()))
            .map(|d| d.src)
            .collect();
        assert_eq!(clients.len() - acked.len(), cfg.truncated_handshakes);
    }

    #[test]
    fn pick_weighted_follows_its_weights() {
        let table = [("never", 0), ("rare", 1), ("common", 9)];
        let mut rng = Rng::new(53);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(pick_weighted(&mut rng, &table)).or_insert(0) += 1;
        }
        assert_eq!(counts.get("never"), None);
        assert!((800..=1_200).contains(&counts["rare"]), "{counts:?}");
    }

    /// Bodies are drawn at 16 bytes and up; the text kind has no magic
    /// and is empty below one line.
    #[test]
    fn bodies_carry_their_magic_and_size() {
        let magic: [&[u8]; 6] = [
            b"<html>",
            b"GIF89a",
            b"\x89PNG\r\n\x1a\n",
            b"{\"items\":[",
            b"plain log line",
            b"\x1f\x8b\x08\x00",
        ];
        let mut rng = Rng::new(59);
        for (kind, magic) in magic.into_iter().enumerate() {
            for size in [16, 32, 1_000] {
                let (_ct, body) = make_body(&mut rng, kind, size);
                assert!(body.starts_with(magic), "kind {kind}, size {size}");
                assert!(body.len() >= size, "kind {kind}, size {size}");
            }
        }
    }

    fn pksorted(pkts: &[RawPacket]) -> bool {
        pkts.windows(2).all(|w| w[0].ts <= w[1].ts)
    }

    #[test]
    fn chaos_dns_compression_loops_are_rejected_not_spun() {
        let pkts = chaos_dns_trace(21, 10, 5);
        let mut ok = 0;
        let mut loops = 0;
        for p in &pkts {
            let d = decode_ethernet(p).unwrap();
            match crate::dns::parse_message(&d.payload) {
                Ok(_) => ok += 1,
                Err(crate::dns::DnsError::TooManyJumps) => loops += 1,
                Err(e) => panic!("unexpected parse error {e:?}"),
            }
        }
        // 10 query/response pairs parse; the 5 loop packets are rejected.
        assert_eq!(ok, 20);
        assert_eq!(loops, 5);
    }
}
