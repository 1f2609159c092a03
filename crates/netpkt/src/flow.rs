//! Flow table: 5-tuple connection tracking with TCP state and stream
//! reassembly.
//!
//! The flow table is the stateful core every monitor reimplements (§2): it
//! orients packets into originator/responder direction, tracks the TCP
//! three-way handshake, assigns Bro-style connection uids, and hands payload
//! through per-direction [`StreamReassembler`]s to a pluggable application
//! consumer. UDP "flows" are tracked by tuple only.
//!
//! Idle expiry walks only flows that may be due: each flow's last packet
//! time is its deadline in a [`DeadlineQueue`] holding one record per flow,
//! which a packet moves without a push (see [`FlowTable::expire_idle_uids`]).
//!
//! A TCP connection *closes* once each direction has sent its FIN and, at
//! the time that FIN arrived, had every byte before it delivered with
//! nothing buffered (a direction that never carried payload counts as
//! complete). Consumers release per-connection state then, instead of at
//! idle expiry. A hole at FIN time, or a RST, leaves the connection open:
//! such flows end by idle expiry or at the end of the trace.

use std::collections::HashMap;
use std::sync::Arc;

use hilti_rt::addr::{Addr, Port};
use hilti_rt::deadline::{DeadlineQueue, Due};
use hilti_rt::hashutil::flow_hash;
use hilti_rt::time::Time;

use crate::decode::{DecodedFrame, DecodedPacket, Transport};
use crate::events::ConnId;
use crate::reassembly::{SegmentOut, StreamReassembler};
use crate::trace::PayloadRef;

/// TCP connection establishment state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// SYN seen from the originator.
    SynSent,
    /// SYN+ACK seen from the responder.
    SynAckSeen,
    /// Handshake complete (final ACK seen).
    Established,
    /// FIN or RST observed.
    Closing,
}

/// Per-flow record. The uid is interned (`Arc<str>`): every delivery,
/// timer, owner-map entry and parser key shares one allocation instead
/// of cloning the string per packet.
pub struct Flow {
    pub id: ConnId,
    pub uid: Arc<str>,
    pub first_ts: Time,
    /// The last packet's time — the flow's idle deadline.
    last: Due<()>,
    pub tcp_state: Option<TcpState>,
    /// Reassembler for originator→responder payload (TCP only).
    pub orig_stream: Option<StreamReassembler>,
    /// Reassembler for responder→originator payload (TCP only).
    pub resp_stream: Option<StreamReassembler>,
    pub orig_pkts: u64,
    pub resp_pkts: u64,
    /// The originator's FIN arrived with its stream complete.
    orig_done: bool,
    /// The responder's FIN arrived with its stream complete.
    resp_done: bool,
}

// The two closure bits live in what was padding: a UDP-only workload keeps
// one `Flow` per datagram pair and must not pay for them.
const _: () = assert!(std::mem::size_of::<Flow>() == 248);

/// What the flow table tells its consumer about one packet.
pub struct FlowDelivery<'a> {
    pub flow: &'a Flow,
    /// True when this packet travels originator→responder.
    pub is_orig: bool,
    /// True exactly once, when the TCP handshake completes.
    pub established_now: bool,
    /// Newly in-order application payload (TCP: reassembled; UDP: the
    /// datagram itself).
    pub payload: Vec<u8>,
    /// True when this packet ends the connection (FIN/RST), once.
    pub finished_now: bool,
    /// True exactly once, when this packet closes the connection (see the
    /// module docs); [`Flow::closed`] stays true for later packets.
    pub closed_now: bool,
}

impl Flow {
    /// Timestamp of the flow's most recent packet (in arrival order, so a
    /// reordered packet can move it backwards).
    pub fn last_ts(&self) -> Time {
        self.last.at()
    }

    /// Whether the connection has closed: both directions' FINs arrived
    /// with their streams complete.
    pub fn closed(&self) -> bool {
        self.orig_done && self.resp_done
    }
}

/// Zero-copy counterpart of [`FlowDelivery`], produced by
/// [`FlowTable::process_shared`]: the payload is a [`PayloadRef`] into
/// the shared trace arena whenever the bytes are an in-order slice of
/// the packet just processed, and an owned buffer only when reassembly
/// had to merge buffered segments.
pub struct FlowDeliveryShared<'a> {
    pub flow: &'a Flow,
    pub is_orig: bool,
    pub established_now: bool,
    pub payload: PayloadRef,
    pub finished_now: bool,
    pub closed_now: bool,
}

/// Canonical flow-table key: the symmetric hash, then both endpoints in
/// sorted order.
type FlowKey = (u64, Addr, Port, Addr, Port);

/// What [`FlowTable::process_core`] found out about one packet; each
/// front end materializes `seg` its own way.
struct Processed {
    key: FlowKey,
    is_orig: bool,
    established_now: bool,
    finished_now: bool,
    closed_now: bool,
    seg: SegmentOut,
}

/// The flow table.
pub struct FlowTable {
    flows: HashMap<FlowKey, Flow>,
    /// One record per flow at its last packet time; `None` until the first
    /// expiry request, so a table nobody expires queues nothing.
    idle: Option<DeadlineQueue<FlowKey, ()>>,
    uid_counter: u64,
    established_total: u64,
}

impl FlowTable {
    pub fn new() -> Self {
        FlowTable {
            flows: HashMap::new(),
            idle: None,
            uid_counter: 0,
            established_total: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.flows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Number of fully established TCP connections observed.
    pub fn established_total(&self) -> u64 {
        self.established_total
    }

    /// Canonical lookup key: endpoints sorted, plus the symmetric hash.
    fn key(src: Addr, dst: Addr, sport: u16, dport: u16, sp: Port, dp: Port) -> FlowKey {
        let h = flow_hash(src, sp, dst, dp);
        if (src.raw(), sport) <= (dst.raw(), dport) {
            (h, src, sp, dst, dp)
        } else {
            (h, dst, dp, src, sp)
        }
    }

    /// Processes one decoded packet, returning the delivery description.
    pub fn process(&mut self, pkt: &DecodedPacket) -> FlowDelivery<'_> {
        let p = self.process_core(
            pkt.ts,
            pkt.src,
            pkt.dst,
            pkt.sport,
            pkt.dport,
            &pkt.transport,
            &pkt.payload,
        );
        let payload = match p.seg {
            SegmentOut::Empty => Vec::new(),
            SegmentOut::Passthrough { skip } => pkt.payload[skip..].to_vec(),
            SegmentOut::Owned(v) => v,
        };
        FlowDelivery {
            flow: self.flows.get(&p.key).expect("flow just touched"),
            is_orig: p.is_orig,
            established_now: p.established_now,
            payload,
            finished_now: p.finished_now,
            closed_now: p.closed_now,
        }
    }

    /// Zero-copy variant of [`process`](Self::process): the caller hands
    /// the decoded frame plus the frame's byte offset within the shared
    /// trace arena, and in-order payload comes back as an `(offset, len)`
    /// [`PayloadRef`] into that arena instead of a fresh allocation.
    pub fn process_shared<'a>(
        &'a mut self,
        frame: &DecodedFrame,
        frame_data: &[u8],
        frame_base: u64,
    ) -> FlowDeliveryShared<'a> {
        let payload_bytes = &frame_data[frame.payload.clone()];
        let p = self.process_core(
            frame.ts,
            frame.src,
            frame.dst,
            frame.sport,
            frame.dport,
            &frame.transport,
            payload_bytes,
        );
        let payload = match p.seg {
            SegmentOut::Empty => PayloadRef::Empty,
            SegmentOut::Passthrough { skip } => {
                let len = (payload_bytes.len() - skip) as u32;
                if len == 0 {
                    PayloadRef::Empty
                } else {
                    PayloadRef::Shared {
                        off: frame_base + (frame.payload.start + skip) as u64,
                        len,
                    }
                }
            }
            SegmentOut::Owned(v) => PayloadRef::Owned(v),
        };
        FlowDeliveryShared {
            flow: self.flows.get(&p.key).expect("flow just touched"),
            is_orig: p.is_orig,
            established_now: p.established_now,
            payload,
            finished_now: p.finished_now,
            closed_now: p.closed_now,
        }
    }

    /// The shared per-packet state machine: flow lookup/creation,
    /// orientation, handshake, teardown and closure tracking, and
    /// reassembly. The payload comes back as a [`SegmentOut`] so each
    /// frontend decides whether to materialize it.
    #[allow(clippy::too_many_arguments)]
    fn process_core(
        &mut self,
        ts: Time,
        src: Addr,
        dst: Addr,
        sport: u16,
        dport: u16,
        transport: &Transport,
        payload: &[u8],
    ) -> Processed {
        let proto = transport.protocol();
        let sp = Port {
            number: sport,
            protocol: proto,
        };
        let dp = Port {
            number: dport,
            protocol: proto,
        };
        let key = Self::key(src, dst, sport, dport, sp, dp);
        let uid_counter = &mut self.uid_counter;
        let flow = self.flows.entry(key).or_insert_with(|| {
            *uid_counter += 1;
            // Orientation: the first packet's sender is the originator
            // (for TCP with SYN this is the active opener).
            Flow {
                id: ConnId {
                    orig_h: src,
                    orig_p: sp,
                    resp_h: dst,
                    resp_p: dp,
                },
                uid: format!("C{}{:x}", uid_counter, key.0 & 0xffff_ffff).into(),
                first_ts: ts,
                last: Due::unarmed(ts),
                tcp_state: None,
                orig_stream: None,
                resp_stream: None,
                orig_pkts: 0,
                resp_pkts: 0,
                orig_done: false,
                resp_done: false,
            }
        });
        match &mut self.idle {
            Some(q) => {
                if let Some(arm) = q.stamp(&mut flow.last, ts) {
                    q.arm(arm, key);
                }
            }
            None => flow.last = Due::unarmed(ts),
        }
        let is_orig = src == flow.id.orig_h && sp == flow.id.orig_p;
        if is_orig {
            flow.orig_pkts += 1;
        } else {
            flow.resp_pkts += 1;
        }

        let mut established_now = false;
        let mut finished_now = false;
        let mut closed_now = false;
        let seg = match transport {
            Transport::Udp => {
                if payload.is_empty() {
                    SegmentOut::Empty
                } else {
                    SegmentOut::Passthrough { skip: 0 }
                }
            }
            Transport::Tcp(tcp) => {
                // Handshake tracking.
                match (flow.tcp_state, tcp.syn(), tcp.ack_flag(), is_orig) {
                    (None, true, false, true) => {
                        flow.tcp_state = Some(TcpState::SynSent);
                        flow.orig_stream = Some(StreamReassembler::new(tcp.seq));
                    }
                    (Some(TcpState::SynSent), true, true, false) => {
                        flow.tcp_state = Some(TcpState::SynAckSeen);
                        flow.resp_stream = Some(StreamReassembler::new(tcp.seq));
                    }
                    (Some(TcpState::SynAckSeen), false, true, true) => {
                        flow.tcp_state = Some(TcpState::Established);
                        established_now = true;
                        self.established_total += 1;
                    }
                    _ => {}
                }
                if (tcp.fin() || tcp.rst())
                    && flow.tcp_state.is_some()
                    && flow.tcp_state != Some(TcpState::Closing)
                {
                    flow.tcp_state = Some(TcpState::Closing);
                    finished_now = true;
                }
                // Payload through the per-direction reassembler. Midstream
                // flows (no SYN observed) get a reassembler seeded on first
                // data, so partial connections still parse — real traces
                // contain plenty of those (§6.1's "crud").
                let (stream, done) = if is_orig {
                    (&mut flow.orig_stream, &mut flow.orig_done)
                } else {
                    (&mut flow.resp_stream, &mut flow.resp_done)
                };
                let seg = if !payload.is_empty() {
                    let r = stream
                        .get_or_insert_with(|| StreamReassembler::new(tcp.seq.wrapping_sub(1)));
                    r.segment_ref(tcp.seq, payload)
                } else {
                    SegmentOut::Empty
                };
                // A FIN (or its retransmission) completes its direction
                // only if the stream holds no hole before it.
                if tcp.fin() && !tcp.rst() && !*done {
                    let end = tcp.seq.wrapping_add(payload.len() as u32);
                    *done = stream.as_ref().is_none_or(|r| r.complete_at(end));
                    closed_now = flow.closed();
                }
                seg
            }
        };
        Processed {
            key,
            is_orig,
            established_now,
            finished_now,
            closed_now,
            seg,
        }
    }

    /// Iterates over all live flows.
    pub fn flows(&self) -> impl Iterator<Item = &Flow> {
        self.flows.values()
    }

    /// Removes flows idle since before `cutoff`; returns how many.
    pub fn expire_idle(&mut self, cutoff: Time) -> usize {
        self.expire_idle_uids(cutoff).len()
    }

    /// Removes flows idle since before `cutoff`, returning their uids in
    /// sorted order so callers can tear down per-flow analyzer state
    /// deterministically. Examines only records due before `cutoff`; the
    /// first call queues one record per flow, and from then on packets keep
    /// them current.
    pub fn expire_idle_uids(&mut self, cutoff: Time) -> Vec<Arc<str>> {
        let flows = &mut self.flows;
        let q = self.idle.get_or_insert_with(|| {
            let mut q = DeadlineQueue::new();
            for (key, f) in flows.iter_mut() {
                let last = f.last_ts();
                if let Some(arm) = q.stamp(&mut f.last, last) {
                    q.arm(arm, *key);
                }
            }
            q
        });
        let mut dead = Vec::new();
        // Idle since before `cutoff` is due at `cutoff - 1ns` at the latest.
        if let Some(latest) = cutoff.nanos().checked_sub(1) {
            while let Some((_, f)) = q.pop_due(Time::from_nanos(latest), flows, |f| &mut f.last) {
                dead.push(f.uid);
            }
        }
        dead.sort();
        dead
    }
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable, symmetric shard hash over a decoded packet's 5-tuple: both
/// directions of a connection map to the same value, so `shard_hash(p) % N`
/// pins every packet of a flow to one shard — the paper's hash-based
/// virtual-thread placement (§3.2) applied to the analysis pipeline. The
/// value is independent of worker count, platform, and process (FNV-1a
/// with an avalanche finalizer; no per-process seeding).
pub fn shard_hash(p: &DecodedPacket) -> u64 {
    flow_hash(p.src, p.src_port(), p.dst, p.dst_port())
}

/// [`shard_hash`] over a [`DecodedFrame`] (the zero-copy decode path);
/// same value as for the equivalent [`DecodedPacket`].
pub fn shard_hash_frame(f: &DecodedFrame) -> u64 {
    flow_hash(f.src, f.src_port(), f.dst, f.dst_port())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{build_tcp_frame, build_udp_frame, decode_ethernet, tcp_flags};
    use crate::pcap::RawPacket;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[allow(clippy::too_many_arguments)]
    fn tcp_pkt(
        src: &str,
        dst: &str,
        sport: u16,
        dport: u16,
        seq: u32,
        ack: u32,
        flags: u8,
        payload: &[u8],
        ts: u64,
    ) -> DecodedPacket {
        let frame = build_tcp_frame(a(src), a(dst), sport, dport, seq, ack, flags, payload);
        decode_ethernet(&RawPacket::new(Time::from_secs(ts), frame)).unwrap()
    }

    fn udp_pkt(src: &str, dst: &str, sport: u16, dport: u16, payload: &[u8]) -> DecodedPacket {
        let frame = build_udp_frame(a(src), a(dst), sport, dport, payload);
        decode_ethernet(&RawPacket::new(Time::from_secs(1), frame)).unwrap()
    }

    #[test]
    fn handshake_detected_once() {
        let mut t = FlowTable::new();
        let syn = tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            100,
            0,
            tcp_flags::SYN,
            b"",
            1,
        );
        let synack = tcp_pkt(
            "1.2.3.4",
            "10.0.0.1",
            80,
            4000,
            500,
            101,
            tcp_flags::SYN | tcp_flags::ACK,
            b"",
            1,
        );
        let ack = tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            101,
            501,
            tcp_flags::ACK,
            b"",
            1,
        );
        assert!(!t.process(&syn).established_now);
        assert!(!t.process(&synack).established_now);
        let d = t.process(&ack);
        assert!(d.established_now);
        assert!(d.is_orig);
        // A second ACK does not re-establish.
        let ack2 = tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            101,
            501,
            tcp_flags::ACK,
            b"",
            2,
        );
        assert!(!t.process(&ack2).established_now);
        assert_eq!(t.established_total(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn orientation_follows_first_packet() {
        let mut t = FlowTable::new();
        let syn = tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            100,
            0,
            tcp_flags::SYN,
            b"",
            1,
        );
        let d = t.process(&syn);
        assert_eq!(d.flow.id.orig_h, a("10.0.0.1"));
        assert_eq!(d.flow.id.resp_p, Port::tcp(80));
        // Reply packet maps to the same flow, is_orig = false.
        let synack = tcp_pkt(
            "1.2.3.4",
            "10.0.0.1",
            80,
            4000,
            1,
            101,
            tcp_flags::SYN | tcp_flags::ACK,
            b"",
            1,
        );
        let d = t.process(&synack);
        assert!(!d.is_orig);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn payload_is_reassembled_per_direction() {
        let mut t = FlowTable::new();
        t.process(&tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            100,
            0,
            tcp_flags::SYN,
            b"",
            1,
        ));
        t.process(&tcp_pkt(
            "1.2.3.4",
            "10.0.0.1",
            80,
            4000,
            500,
            101,
            tcp_flags::SYN | tcp_flags::ACK,
            b"",
            1,
        ));
        t.process(&tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            101,
            501,
            tcp_flags::ACK,
            b"",
            1,
        ));
        // Out-of-order client data.
        let d1 = t.process(&tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            105,
            501,
            tcp_flags::ACK,
            b"XX",
            2,
        ));
        assert!(d1.payload.is_empty());
        let d2 = t.process(&tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            101,
            501,
            tcp_flags::ACK,
            b"GET ",
            2,
        ));
        assert_eq!(d2.payload, b"GET XX");
        // Server data is a separate stream.
        let d3 = t.process(&tcp_pkt(
            "1.2.3.4",
            "10.0.0.1",
            80,
            4000,
            501,
            107,
            tcp_flags::ACK,
            b"HTTP",
            3,
        ));
        assert_eq!(d3.payload, b"HTTP");
        assert!(!d3.is_orig);
    }

    #[test]
    fn fin_finishes_once() {
        let mut t = FlowTable::new();
        t.process(&tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            100,
            0,
            tcp_flags::SYN,
            b"",
            1,
        ));
        let fin = tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            101,
            0,
            tcp_flags::FIN | tcp_flags::ACK,
            b"",
            5,
        );
        assert!(t.process(&fin).finished_now);
        assert!(!t.process(&fin).finished_now);
    }

    /// One segment of the connection `10.0.0.1:4000 <-> 1.2.3.4:80`.
    fn seg(from_client: bool, seq: u32, flags: u8, payload: &[u8]) -> DecodedPacket {
        let (src, dst, sport, dport) = if from_client {
            ("10.0.0.1", "1.2.3.4", 4000, 80)
        } else {
            ("1.2.3.4", "10.0.0.1", 80, 4000)
        };
        tcp_pkt(src, dst, sport, dport, seq, 0, flags, payload, 1)
    }

    const FIN: u8 = tcp_flags::FIN | tcp_flags::ACK;
    const DATA: u8 = tcp_flags::ACK | tcp_flags::PSH;

    /// A table past the handshake of a connection whose client and server
    /// initial sequence numbers are `c` and `s`.
    fn handshaken(c: u32, s: u32) -> FlowTable {
        let mut t = FlowTable::new();
        t.process(&seg(true, c, tcp_flags::SYN, b""));
        t.process(&seg(false, s, tcp_flags::SYN | tcp_flags::ACK, b""));
        t.process(&seg(true, c.wrapping_add(1), tcp_flags::ACK, b""));
        t
    }

    /// `(closed_now, flow closed)` after feeding `p`.
    fn closing(t: &mut FlowTable, p: DecodedPacket) -> (bool, bool) {
        let d = t.process(&p);
        (d.closed_now, d.flow.closed())
    }

    #[test]
    fn in_order_fin_fin_closes_once_at_the_second_fin() {
        let mut t = handshaken(100, 500);
        assert_eq!(
            closing(&mut t, seg(true, 101, DATA, b"GET")),
            (false, false)
        );
        assert_eq!(
            closing(&mut t, seg(false, 501, DATA, b"HTTP")),
            (false, false)
        );
        let d = t.process(&seg(true, 104, FIN, b""));
        assert!(d.finished_now, "the first FIN still finishes");
        assert!(!d.closed_now && !d.flow.closed());
        assert_eq!(closing(&mut t, seg(false, 505, FIN, b"")), (true, true));
        // Later segments of the closed connection: the last ACK and a
        // retransmitted FIN.
        assert_eq!(
            closing(&mut t, seg(true, 105, tcp_flags::ACK, b"")),
            (false, true)
        );
        assert_eq!(closing(&mut t, seg(false, 505, FIN, b"")), (false, true));
    }

    #[test]
    fn half_close_closes_at_the_server_fin_after_its_data() {
        let mut t = handshaken(100, 500);
        t.process(&seg(true, 101, DATA, b"GET"));
        assert_eq!(closing(&mut t, seg(true, 104, FIN, b"")), (false, false));
        // The server keeps sending after the client's FIN.
        let d = t.process(&seg(false, 501, DATA, b"HTTP/1.1"));
        assert_eq!(d.payload, b"HTTP/1.1");
        assert!(!d.closed_now && !d.flow.closed());
        assert_eq!(closing(&mut t, seg(false, 509, FIN, b"")), (true, true));
    }

    #[test]
    fn a_hole_at_fin_time_keeps_the_connection_open_until_the_fin_is_resent() {
        let mut t = handshaken(100, 500);
        assert_eq!(closing(&mut t, seg(true, 101, FIN, b"")), (false, false));
        // Server bytes 501..505 are missing when its data and FIN arrive.
        assert!(t
            .process(&seg(false, 505, DATA, b"tail"))
            .payload
            .is_empty());
        assert_eq!(closing(&mut t, seg(false, 509, FIN, b"")), (false, false));
        // The hole fills; that alone closes nothing.
        let d = t.process(&seg(false, 501, DATA, b"head"));
        assert_eq!(d.payload, b"headtail");
        assert!(!d.closed_now && !d.flow.closed());
        assert_eq!(closing(&mut t, seg(false, 509, FIN, b"")), (true, true));
    }

    #[test]
    fn rst_never_closes() {
        let mut t = handshaken(100, 500);
        t.process(&seg(true, 101, FIN, b""));
        let rst = tcp_flags::RST | tcp_flags::ACK;
        assert_eq!(closing(&mut t, seg(false, 501, rst, b"")), (false, false));
        assert_eq!(
            closing(&mut t, seg(false, 501, rst | FIN, b"")),
            (false, false)
        );
    }

    #[test]
    fn closure_survives_sequence_wraparound_across_the_fin() {
        // The client's last data segment crosses 2^32 and carries its FIN.
        let c = u32::MAX - 2;
        let mut t = handshaken(c, 500);
        assert_eq!(closing(&mut t, seg(false, 501, FIN, b"")), (false, false));
        let d = t.process(&seg(true, c.wrapping_add(1), FIN, b"abcd"));
        assert_eq!(d.payload, b"abcd");
        assert!(d.closed_now && d.flow.closed());
    }

    #[test]
    fn a_direction_that_never_carried_payload_is_complete() {
        // Midstream: no handshake, so only the client direction ever gets
        // a reassembler.
        let mut t = FlowTable::new();
        t.process(&seg(true, 9_000, DATA, b"mid"));
        assert_eq!(closing(&mut t, seg(true, 9_003, FIN, b"")), (false, false));
        assert_eq!(closing(&mut t, seg(false, 77, FIN, b"")), (true, true));
    }

    #[test]
    fn udp_flows_never_close() {
        let mut t = FlowTable::new();
        let d = t.process(&udp_pkt("10.0.0.1", "8.8.8.8", 5000, 53, b"q"));
        assert!(!d.closed_now && !d.flow.closed());
    }

    #[test]
    fn midstream_tcp_still_delivers() {
        // No SYN observed (partial capture): payload must still flow.
        let mut t = FlowTable::new();
        let d = t.process(&tcp_pkt(
            "10.0.0.1",
            "1.2.3.4",
            4000,
            80,
            9999,
            1,
            tcp_flags::ACK,
            b"mid",
            1,
        ));
        assert_eq!(d.payload, b"mid");
        assert!(!d.established_now);
    }

    #[test]
    fn udp_flows_deliver_datagrams() {
        let mut t = FlowTable::new();
        let q = udp_pkt("10.0.0.1", "8.8.8.8", 5000, 53, b"query");
        let r = udp_pkt("8.8.8.8", "10.0.0.1", 53, 5000, b"reply");
        let d = t.process(&q);
        assert_eq!(d.payload, b"query");
        assert!(d.is_orig);
        let d = t.process(&r);
        assert_eq!(d.payload, b"reply");
        assert!(!d.is_orig);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_tuples_distinct_flows() {
        let mut t = FlowTable::new();
        t.process(&udp_pkt("10.0.0.1", "8.8.8.8", 5000, 53, b"a"));
        t.process(&udp_pkt("10.0.0.1", "8.8.8.8", 5001, 53, b"b"));
        t.process(&udp_pkt("10.0.0.2", "8.8.8.8", 5000, 53, b"c"));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn uids_are_unique() {
        let mut t = FlowTable::new();
        let mut uids = std::collections::HashSet::new();
        for i in 0..100u16 {
            let d = t.process(&udp_pkt("10.0.0.1", "8.8.8.8", 10000 + i, 53, b"x"));
            uids.insert(d.flow.uid.clone());
        }
        assert_eq!(uids.len(), 100);
    }

    #[test]
    fn idle_expiry() {
        let mut t = FlowTable::new();
        t.process(&udp_pkt("10.0.0.1", "8.8.8.8", 5000, 53, b"a"));
        let mut late = udp_pkt("10.0.0.2", "8.8.8.8", 5000, 53, b"b");
        late.ts = Time::from_secs(100);
        t.process(&late);
        assert_eq!(t.expire_idle(Time::from_secs(50)), 1);
        assert_eq!(t.len(), 1);
    }

    /// A datagram `10.0.0.1:sport -> 8.8.8.8:53` at `ms` milliseconds.
    fn udp_at(sport: u16, ms: u64) -> DecodedPacket {
        let mut p = udp_pkt("10.0.0.1", "8.8.8.8", sport, 53, b"x");
        p.ts = Time::from_nanos(ms * 1_000_000);
        p
    }

    /// The full-table sweep `expire_idle_uids` replaced: the oracle.
    fn swept_uids(t: &FlowTable, cutoff: Time) -> Vec<Arc<str>> {
        let mut dead: Vec<Arc<str>> = t
            .flows()
            .filter(|f| f.last_ts() < cutoff)
            .map(|f| f.uid.clone())
            .collect();
        dead.sort();
        dead
    }

    #[test]
    fn idle_expiry_matches_a_full_sweep_under_reordering() {
        for seed in 1..=20u64 {
            let mut rng = hilti_rt::rng::Rng::new(seed);
            let mut t = FlowTable::new();
            let mut clock = 0u64;
            for i in 0..3_000 {
                // Mostly forward; one packet in eight from up to 2 s back,
                // which moves its flow's last packet time backwards.
                clock += rng.below(40);
                let ms = match rng.below(8) {
                    0 => clock.saturating_sub(rng.below(2_000)),
                    _ => clock,
                };
                t.process(&udp_at(1024 + rng.below(300) as u16, ms));
                if rng.chance(1, 16) {
                    // The front end's cutoff under a 1 s idle timeout.
                    let cutoff = Time::from_nanos(ms.saturating_sub(1_000) * 1_000_000);
                    let want = swept_uids(&t, cutoff);
                    let live = t.len() - want.len();
                    assert_eq!(t.expire_idle_uids(cutoff), want, "seed {seed} packet {i}");
                    assert_eq!(t.len(), live);
                }
            }
        }
    }

    /// Records examined by the sweep that evicts an idle tail of 50 flows
    /// next to `live` flows that saw packets since.
    fn examined_for_tail(live: u16) -> u64 {
        let mut t = FlowTable::new();
        for p in 0..50 {
            t.process(&udp_at(p, 1_000));
        }
        for p in 0..live {
            t.process(&udp_at(1_000 + p, 60_000));
        }
        // The first request queues one record per flow; touches add none.
        assert!(t.expire_idle_uids(Time::ZERO).is_empty());
        for p in 0..live {
            t.process(&udp_at(1_000 + p, 61_000));
        }
        let q = |t: &FlowTable| t.idle.as_ref().map_or(0, |q| q.examined());
        let before = q(&t);
        assert_eq!(t.expire_idle_uids(Time::from_secs(30)).len(), 50);
        assert_eq!(t.len(), usize::from(live));
        q(&t) - before
    }

    #[test]
    fn a_sweep_examines_the_idle_tail_not_the_table() {
        assert_eq!(examined_for_tail(100), 50);
        assert_eq!(examined_for_tail(10_000), 50);
    }

    #[test]
    fn shard_hash_is_direction_symmetric() {
        // Both directions of a connection must land on the same shard, or
        // per-flow parser state would split across workers.
        let fwd = tcp_pkt(
            "10.0.0.1",
            "192.168.1.9",
            50000,
            80,
            1,
            0,
            tcp_flags::SYN,
            b"",
            1,
        );
        let rev = tcp_pkt(
            "192.168.1.9",
            "10.0.0.1",
            80,
            50000,
            1,
            2,
            tcp_flags::SYN | tcp_flags::ACK,
            b"",
            1,
        );
        assert_eq!(shard_hash(&fwd), shard_hash(&rev));
        let u1 = udp_pkt("10.0.0.1", "8.8.8.8", 5000, 53, b"q");
        let u2 = udp_pkt("8.8.8.8", "10.0.0.1", 53, 5000, b"r");
        assert_eq!(shard_hash(&u1), shard_hash(&u2));
    }

    #[test]
    fn shard_hash_is_stable_across_calls_and_spreads() {
        // Worker placement must not depend on process state: repeated
        // hashing of the same tuple is constant, and distinct tuples
        // spread over small shard counts rather than collapsing.
        let p = udp_pkt("10.0.0.1", "8.8.8.8", 5000, 53, b"q");
        assert_eq!(shard_hash(&p), shard_hash(&p));
        let mut shards = std::collections::HashSet::new();
        for i in 0..64u16 {
            let d = udp_pkt("10.0.0.1", "8.8.8.8", 10000 + i, 53, b"x");
            shards.insert(shard_hash(&d) % 4);
        }
        assert_eq!(shards.len(), 4, "64 tuples must cover all 4 shards");
    }
}
