//! Deterministic synthetic trace generation.
//!
//! The paper drives its evaluation with full-payload HTTP and DNS traces
//! captured at the UC Berkeley border (§6.1). Those traces cannot ship with
//! a reproduction, so this module synthesizes workloads with the properties
//! the evaluation actually exercises: many interleaved sessions between
//! distinct host pairs, realistic request/reply structure, diverse bodies
//! and record types, reordering/retransmission at the TCP layer, and a dash
//! of non-conforming "crud" (§2) — all reproducible from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hilti_rt::addr::Addr;
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
    rng: &'a mut StdRng,
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
        self.t_ns += 50_000 + self.rng.gen_range(0..450) * 1_000;
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
        if n >= 2 && self.rng.gen_ratio(1, 10) {
            let i = start + self.rng.gen_range(0..n - 1);
            self.packets.swap(i, i + 1);
        }
        if n >= 1 && self.rng.gen_ratio(1, 20) {
            let i = start + self.rng.gen_range(0..n);
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
fn make_body(rng: &mut StdRng, kind: usize, size: usize) -> (&'static str, Vec<u8>) {
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

fn pick_weighted<'x>(rng: &mut StdRng, table: &[(&'x str, u32)]) -> &'x str {
    let total: u32 = table.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
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
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut packets = Vec::new();
    // Sessions start staggered over a window so flows interleave when the
    // final sort merges them.
    for s in 0..cfg.count {
        let client = Addr::v4(
            10,
            1,
            (rng.gen_range(0..cfg.clients) / 250) as u8,
            (rng.gen_range(0..cfg.clients) % 250 + 1) as u8,
        );
        let server = Addr::v4(
            93,
            184,
            (rng.gen_range(0..cfg.servers) / 250) as u8,
            (rng.gen_range(0..cfg.servers) % 250 + 1) as u8,
        );
        let base_ns = (s as u64) * 3_000_000 + rng.gen_range(0..2_000) * 1_000;
        let mut sess = TcpScripted {
            client,
            server,
            cport: rng.gen_range(20000..60000),
            sport: 80,
            seq_c: rng.gen(),
            seq_s: rng.gen(),
            t_ns: base_ns,
            rng: &mut rng,
            packets: &mut packets,
        };
        sess.handshake();
        let crud = sess.rng.gen_range(0..100) < u32::from(cfg.crud_percent);
        if crud {
            // Non-HTTP garbage on port 80.
            let mut junk = vec![0u8; 64 + sess.rng.gen_range(0..256)];
            sess.rng.fill(&mut junk[..]);
            sess.data(true, &junk);
            sess.close();
            continue;
        }
        let n_requests = 1 + sess.rng.gen_range(0..3);
        for _ in 0..n_requests {
            let method = pick_weighted(sess.rng, METHODS);
            let stem = PATH_STEMS[sess.rng.gen_range(0..PATH_STEMS.len())];
            let uri = if sess.rng.gen_ratio(1, 3) {
                format!("{stem}?id={}", sess.rng.gen_range(0..100000))
            } else {
                stem.to_owned()
            };
            let host = HOSTS[sess.rng.gen_range(0..HOSTS.len())];
            let ua = USER_AGENTS[sess.rng.gen_range(0..USER_AGENTS.len())];
            // Request.
            let mut req = format!(
                "{method} {uri} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {ua}\r\nAccept: */*\r\n"
            );
            let post_body = if method == "POST" || method == "PUT" {
                let size = sess.rng.gen_range(16..600);
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
            let status_roll = sess.rng.gen_range(0..100);
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
                    sess.rng.gen_range(100..5000)
                ));
                sess.data(false, resp.as_bytes());
            } else {
                let kind = sess.rng.gen_range(0..6);
                let size = sess.rng.gen_range(32..4096);
                let (ct, body) = make_body(sess.rng, kind, size);
                resp.push_str(&format!("Content-Type: {ct}\r\n"));
                if status == 206 {
                    resp.push_str(&format!(
                        "Content-Range: bytes 0-{}/{}\r\n",
                        body.len() - 1,
                        body.len() * 2
                    ));
                }
                if sess.rng.gen_ratio(1, 5) {
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
    let mut rng = StdRng::seed_from_u64(seed);
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
                seq_c: rng.gen(),
                seq_s: rng.gen(),
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
    let mut rng = StdRng::seed_from_u64(seed);
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

        let rtt = 1_000_000 + rng.gen_range(0..500) * 1_000;
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
    let mut rng = StdRng::seed_from_u64(cfg.seed);
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
        let j = rng.gen_range(0..i + 1);
        kinds.swap(i, j);
    }

    let mut packets = Vec::new();
    for (s, kind) in kinds.iter().enumerate() {
        let client = Addr::v4(10, 9, (s / 250) as u8, (s % 250 + 1) as u8);
        let server = Addr::v4(93, 184, 0, (rng.gen_range(0..40) + 1) as u8);
        let base_ns = (s as u64) * 3_000_000 + rng.gen_range(0..2_000) * 1_000;
        let mut sess = TcpScripted {
            client,
            server,
            cport: rng.gen_range(20000..60000),
            sport: 80,
            seq_c: rng.gen(),
            seq_s: rng.gen(),
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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    for i in 0..normal + compression_loops {
        let client = Addr::v4(10, 8, (i / 250) as u8, (i % 250 + 1) as u8);
        let server = Addr::v4(8, 8, 8, 8);
        let cport: u16 = rng.gen_range(1024..65000);
        let base = Time::from_nanos((i as u64) * 700_000 + rng.gen_range(0..500) * 1_000);
        if i < normal {
            let trans_id: u16 = rng.gen();
            let name = DNS_NAMES[rng.gen_range(0..DNS_NAMES.len())];
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
            let trans_id: u16 = rng.gen();
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
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut packets = Vec::new();
    for i in 0..cfg.count {
        let client = Addr::v4(
            10,
            2,
            (rng.gen_range(0..cfg.clients) / 250) as u8,
            (rng.gen_range(0..cfg.clients) % 250 + 1) as u8,
        );
        let server = Addr::v4(
            8,
            8,
            8,
            (rng.gen_range(0..cfg.servers.max(1)) % 250 + 1) as u8,
        );
        let cport: u16 = rng.gen_range(1024..65000);
        let base = Time::from_nanos((i as u64) * 800_000 + rng.gen_range(0..500) * 1_000);

        if rng.gen_range(0..100) < u32::from(cfg.crud_percent) {
            // Crud: random bytes on port 53.
            let mut junk = vec![0u8; rng.gen_range(4..80)];
            rng.fill(&mut junk[..]);
            packets.push(RawPacket::new(
                base,
                build_udp_frame(client, server, cport, 53, &junk),
            ));
            continue;
        }

        let trans_id: u16 = rng.gen();
        let name = DNS_NAMES[rng.gen_range(0..DNS_NAMES.len())];
        let qtype = match rng.gen_range(0..100) {
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
        if rng.gen_ratio(1, 20) {
            continue;
        }
        let rtt = 1_000_000 + rng.gen_range(0..39_000) * 1_000;
        let resp_ts = base + hilti_rt::time::Interval::from_nanos(rtt);
        let nxdomain = rng.gen_ratio(1, 12);
        let mut b =
            DnsBuilder::new(trans_id, true, if nxdomain { 3 } else { 0 }).question(name, qtype);
        if !nxdomain {
            let n_answers = 1 + rng.gen_range(0..3);
            for k in 0..n_answers {
                match qtype {
                    t if t == dns_types::A => {
                        b = b.answer_a(
                            name,
                            rng.gen_range(30..3600),
                            [93, 184, rng.gen_range(1..250), rng.gen_range(1..250)],
                        );
                    }
                    t if t == dns_types::AAAA => {
                        let mut addr = [0u8; 16];
                        addr[0] = 0x20;
                        addr[1] = 0x01;
                        addr[15] = rng.gen_range(1..255);
                        b = b.answer_aaaa(name, rng.gen_range(30..3600), addr);
                    }
                    t if t == dns_types::CNAME => {
                        let target = DNS_NAMES[rng.gen_range(0..DNS_NAMES.len())];
                        b = b.answer_cname(name, rng.gen_range(30..3600), target);
                        // CNAME chains terminate in an A record.
                        if k == n_answers - 1 {
                            b = b.answer_a(target, 300, [93, 184, 1, 1]);
                        }
                    }
                    t if t == dns_types::TXT => {
                        // Multi-string TXT records exercise the standard/
                        // BinPAC++ semantic difference (Table 2); most TXT
                        // records carry one string, as in real traffic.
                        let n_strings = if rng.gen_ratio(1, 24) {
                            2 + rng.gen_range(0..2)
                        } else {
                            1
                        };
                        let strings: Vec<String> = (0..n_strings)
                            .map(|j| format!("v=spf{j} include:example.com"))
                            .collect();
                        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
                        b = b.answer_txt(name, rng.gen_range(30..3600), &refs);
                    }
                    _ => {
                        let target = DNS_NAMES[rng.gen_range(0..DNS_NAMES.len())];
                        b = b.answer_mx(name, rng.gen_range(30..3600), 10, target);
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
