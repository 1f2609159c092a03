//! TCP stream reassembly: in-order delivery of payload to parsers.
//!
//! Each direction of a connection gets a [`StreamReassembler`] seeded with
//! the initial sequence number. Segments may arrive out of order, duplicated
//! or overlapping; the reassembler buffers what it must and emits maximal
//! in-order runs. Sequence arithmetic is performed modulo 2³² (wraparound is
//! a classic source of bugs in hand-rolled monitors — one of the "pitfalls
//! that others had to master before", §1).
//!
//! Overlap policy: first writer wins (data already delivered or buffered is
//! never rewritten), matching the conservative behaviour robust monitors
//! adopt against inconsistent retransmissions.

use std::collections::BTreeMap;

/// Reassembles one direction of a TCP stream.
#[derive(Debug)]
pub struct StreamReassembler {
    /// The absolute sequence number the next in-order byte must carry.
    next_seq: u32,
    /// Out-of-order segments keyed by *relative* offset from `base`.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Relative position of `next_seq` (total bytes delivered).
    delivered: u64,
    /// Sequence number of stream start (for relative conversion).
    isn: u32,
    /// Bytes currently buffered out of order.
    buffered: usize,
    /// Hard cap on buffered out-of-order data; beyond it, oldest data is
    /// declared a gap (fail-safe against sequence-space attacks).
    max_buffer: usize,
    /// Total gap bytes skipped.
    gaps: u64,
}

/// Default out-of-order buffer budget per direction.
pub const DEFAULT_MAX_BUFFER: usize = 4 * 1024 * 1024;

/// Result of feeding one segment via [`StreamReassembler::segment_ref`]:
/// the common in-order case delivers a suffix of the caller's own slice,
/// so zero-copy consumers can reference their backing storage instead of
/// copying per packet.
#[derive(Debug, PartialEq, Eq)]
pub enum SegmentOut {
    /// Nothing newly contiguous (duplicate, pre-ISN, or buffered).
    Empty,
    /// The delivery is exactly `data[skip..]` of the slice just fed
    /// (`skip` covers an already-delivered prefix, usually 0).
    Passthrough { skip: usize },
    /// The delivery merges buffered out-of-order data and owns its bytes.
    Owned(Vec<u8>),
}

impl StreamReassembler {
    /// Creates a reassembler whose first expected byte carries `isn + 1`
    /// (the sequence number following SYN).
    pub fn new(isn: u32) -> Self {
        StreamReassembler {
            next_seq: isn.wrapping_add(1),
            pending: BTreeMap::new(),
            delivered: 0,
            isn: isn.wrapping_add(1),
            buffered: 0,
            max_buffer: DEFAULT_MAX_BUFFER,
            gaps: 0,
        }
    }

    /// Overrides the out-of-order buffer budget.
    pub fn with_max_buffer(mut self, max: usize) -> Self {
        self.max_buffer = max;
        self
    }

    /// Total in-order bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total bytes skipped as gaps.
    pub fn gap_bytes(&self) -> u64 {
        self.gaps
    }

    /// Bytes currently buffered out of order.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// True when every byte before sequence number `end` has been
    /// delivered, none after it, and nothing is buffered: the stream is
    /// complete if a FIN ends it at `end`.
    pub fn complete_at(&self, end: u32) -> bool {
        self.buffered == 0 && self.next_seq == end
    }

    /// Relative stream offset of an absolute sequence number, taking
    /// wraparound into account. Offsets are relative to the first payload
    /// byte (ISN+1 = offset 0) and grow monotonically. The result is
    /// *signed*: a segment from before the stream start (e.g. a
    /// retransmitted SYN, or a stale pre-ISN segment) maps to a negative
    /// offset rather than aliasing to a position ~4 GiB ahead.
    fn rel(&self, seq: u32) -> i128 {
        // Distance from isn in sequence space (0..2^32), then shifted by
        // the number of full wraps already delivered.
        let raw = seq.wrapping_sub(self.isn) as u64 as i128;
        let wraps = (self.delivered >> 32) as i128;
        let delivered = self.delivered as i128;
        // The candidate may be one wrap behind (segment from before a wrap
        // boundary, or from before the stream start entirely) or one
        // ahead; pick the representative closest to the delivery point.
        // Signed arithmetic keeps the "one wrap behind" alternative from
        // wrapping around u64 and landing astronomically far ahead.
        let mut best = raw + (wraps << 32);
        for cand in [best - (1i128 << 32), best + (1i128 << 32)] {
            if (cand - delivered).abs() < (best - delivered).abs() {
                best = cand;
            }
        }
        best
    }

    /// Feeds one segment; returns any newly contiguous payload.
    pub fn segment(&mut self, seq: u32, data: &[u8]) -> Vec<u8> {
        match self.segment_ref(seq, data) {
            SegmentOut::Empty => Vec::new(),
            SegmentOut::Passthrough { skip } => data[skip..].to_vec(),
            SegmentOut::Owned(v) => v,
        }
    }

    /// Feeds one segment without copying in the in-order case: when the
    /// newly contiguous payload is exactly a suffix of `data` (nothing
    /// buffered got unblocked), the result is [`SegmentOut::Passthrough`]
    /// and the caller may keep referencing its own storage.
    pub fn segment_ref(&mut self, seq: u32, data: &[u8]) -> SegmentOut {
        if data.is_empty() {
            return SegmentOut::Empty;
        }
        let start_signed = self.rel(seq);
        let end_signed = start_signed + data.len() as i128;
        if end_signed <= self.delivered as i128 {
            return SegmentOut::Empty; // pure retransmission (or entirely pre-ISN)
        }
        // Trim any prefix that was already delivered — including bytes
        // before the stream start (negative offsets).
        let (start, skip) = if start_signed < self.delivered as i128 {
            let skip = (self.delivered as i128 - start_signed) as usize;
            (self.delivered, skip)
        } else {
            (start_signed as u64, 0)
        };
        let data = &data[skip..];

        if start == self.delivered {
            // Fast path: in-order data; then drain whatever it unblocked.
            self.delivered += data.len() as u64;
            let mut extra = Vec::new();
            self.drain_pending(&mut extra);
            self.next_seq = self.isn.wrapping_add(self.delivered as u32);
            if extra.is_empty() {
                SegmentOut::Passthrough { skip }
            } else {
                let mut out = data.to_vec();
                out.extend_from_slice(&extra);
                SegmentOut::Owned(out)
            }
        } else {
            self.buffer_segment(start, data);
            // Fail-safe: if the out-of-order buffer exceeds its budget,
            // declare the missing range a gap and deliver what we have.
            if self.buffered > self.max_buffer {
                match self.force_gap() {
                    v if v.is_empty() => SegmentOut::Empty,
                    v => SegmentOut::Owned(v),
                }
            } else {
                SegmentOut::Empty
            }
        }
    }

    /// Declares everything up to the first buffered segment a gap and
    /// resumes delivery there. Returns the data that becomes deliverable.
    pub fn force_gap(&mut self) -> Vec<u8> {
        let Some((&first, _)) = self.pending.iter().next() else {
            return Vec::new();
        };
        if first > self.delivered {
            self.gaps += first - self.delivered;
            self.delivered = first;
        }
        let mut out = Vec::new();
        self.drain_pending(&mut out);
        self.next_seq = self.isn.wrapping_add(self.delivered as u32);
        out
    }

    fn buffer_segment(&mut self, start: u64, data: &[u8]) {
        // First-writer-wins: clip against existing buffered ranges.
        let mut start = start;
        let mut data = data.to_vec();
        // Clip against the predecessor range, if it overlaps.
        if let Some((&ps, pv)) = self.pending.range(..=start).next_back() {
            let pend = ps + pv.len() as u64;
            if pend > start {
                let skip = (pend - start).min(data.len() as u64) as usize;
                data.drain(..skip);
                start = pend;
            }
        }
        // Clip against successors.
        while !data.is_empty() {
            let end = start + data.len() as u64;
            let next = self
                .pending
                .range(start..end)
                .next()
                .map(|(&s, v)| (s, v.len() as u64));
            match next {
                None => {
                    self.buffered += data.len();
                    self.pending.insert(start, data);
                    break;
                }
                Some((ns, nlen)) => {
                    // Insert the part before the existing range.
                    let head_len = (ns - start) as usize;
                    if head_len > 0 {
                        let head: Vec<u8> = data.drain(..head_len).collect();
                        self.buffered += head.len();
                        self.pending.insert(start, head);
                    }
                    // Skip the part covered by the existing range.
                    let covered = (nlen as usize).min(data.len());
                    data.drain(..covered);
                    start = ns + nlen;
                }
            }
        }
    }

    fn drain_pending(&mut self, out: &mut Vec<u8>) {
        while let Some((&s, _)) = self.pending.iter().next() {
            if s > self.delivered {
                break;
            }
            let (s, v) = self.pending.pop_first().expect("peeked entry");
            self.buffered -= v.len();
            let vend = s + v.len() as u64;
            if vend <= self.delivered {
                continue; // fully duplicate
            }
            let skip = (self.delivered - s) as usize;
            out.extend_from_slice(&v[skip..]);
            self.delivered = vend;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_in_order(isn: u32, segments: &[(u32, &[u8])]) -> (Vec<u8>, u64) {
        let mut r = StreamReassembler::new(isn);
        let mut out = Vec::new();
        for (seq, data) in segments {
            out.extend(r.segment(*seq, data));
        }
        (out, r.gap_bytes())
    }

    #[test]
    fn in_order_stream() {
        let (out, gaps) = collect_in_order(1000, &[(1001, b"hello "), (1007, b"world")]);
        assert_eq!(out, b"hello world");
        assert_eq!(gaps, 0);
    }

    #[test]
    fn out_of_order_delivery() {
        let (out, _) = collect_in_order(0, &[(7, b"world"), (1, b"hello ")]);
        assert_eq!(out, b"hello world");
    }

    #[test]
    fn retransmission_ignored() {
        let (out, _) =
            collect_in_order(0, &[(1, b"abc"), (1, b"abc"), (4, b"def"), (1, b"abcdef")]);
        assert_eq!(out, b"abcdef");
    }

    #[test]
    fn overlapping_segment_trimmed() {
        // Second segment overlaps the tail of the first.
        let (out, _) = collect_in_order(0, &[(1, b"abcd"), (3, b"cdEF")]);
        assert_eq!(out, b"abcdEF");
    }

    #[test]
    fn inconsistent_retransmission_first_wins() {
        // Buffered out-of-order data keeps its first contents.
        let mut r = StreamReassembler::new(0);
        assert!(r.segment(5, b"XY").is_empty());
        assert!(r.segment(5, b"AB").is_empty()); // conflicting retransmit
        let out = r.segment(1, b"0123");
        assert_eq!(out, b"0123XY");
    }

    #[test]
    fn interleaved_holes_fill_in_any_order() {
        let mut r = StreamReassembler::new(100);
        let mut out = Vec::new();
        out.extend(r.segment(109, b"22")); // hole at 101..109
        out.extend(r.segment(105, b"11")); // two holes now
        out.extend(r.segment(101, b"00xx")); // fills first hole partially
        out.extend(r.segment(107, b"yy")); // bridges to 109
        assert_eq!(out, b"00xx11yy22");
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn sequence_wraparound() {
        let isn = u32::MAX - 2;
        let mut r = StreamReassembler::new(isn);
        // First byte carries seq isn+1 = u32::MAX - 1.
        let mut out = Vec::new();
        out.extend(r.segment(u32::MAX - 1, b"ab")); // crosses to 0
        out.extend(r.segment(0, b"cd")); // seq wrapped
        assert_eq!(out, b"abcd");
        assert_eq!(r.delivered(), 4);
    }

    #[test]
    fn wraparound_with_out_of_order() {
        let isn = u32::MAX - 10;
        let mut r = StreamReassembler::new(isn);
        let mut out = Vec::new();
        // Send the post-wrap segment first.
        out.extend(r.segment(5, b"tail")); // far ahead, buffered
        out.extend(r.segment(u32::MAX - 9, b"0123456789abcde")); // 15 bytes
        assert_eq!(out, b"0123456789abcdetail");
    }

    #[test]
    fn pre_isn_segment_is_not_aliased_four_gib_ahead() {
        // Regression: a segment from *before* the stream start (classic
        // case: the SYN itself retransmitted with one byte of data, or a
        // stale pre-ISN segment) used to compute a relative offset of
        // ~2^32 under unsigned wraparound disambiguation. It was then
        // buffered ~4 GiB ahead, bloating the out-of-order buffer and
        // corrupting delivery once the stream actually got there.
        let mut r = StreamReassembler::new(1000); // first payload byte: 1001
        assert!(r.segment(1000, b"X").is_empty(), "pre-ISN byte dropped");
        assert_eq!(r.buffered(), 0, "nothing may be buffered 4 GiB ahead");
        assert_eq!(r.segment(1001, b"hello"), b"hello");
        assert_eq!(r.delivered(), 5);
        assert_eq!(r.gap_bytes(), 0);
    }

    #[test]
    fn pre_isn_straddling_segment_is_trimmed_to_stream_start() {
        // A segment starting before the ISN but extending past it keeps
        // only the in-stream suffix.
        let mut r = StreamReassembler::new(1000);
        assert_eq!(r.segment(999, b"??ab"), b"ab"); // 2 pre-ISN bytes trimmed
        assert_eq!(r.delivered(), 2);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn pre_isn_retransmit_near_wrap_boundary() {
        // Same pre-ISN aliasing bug, with the ISN parked just below the
        // 2^32 boundary so both the bogus and the correct interpretation
        // exercise wrap arithmetic.
        let isn = 0xffff_fff0u32;
        let mut r = StreamReassembler::new(isn);
        // Retransmitted SYN (seq == isn) carrying a byte: before stream.
        assert!(r.segment(isn, b"S").is_empty());
        assert_eq!(r.buffered(), 0);
        // Stale segment further before the ISN.
        assert!(r.segment(isn.wrapping_sub(7), b"stale!").is_empty());
        assert_eq!(r.buffered(), 0);
        // Real data still flows, across the wrap.
        let mut out = Vec::new();
        out.extend(r.segment(isn.wrapping_add(1), b"0123456789abcdef")); // 16 bytes, crosses 0
        out.extend(r.segment(1, b"ghij")); // post-wrap continuation
        assert_eq!(out, b"0123456789abcdefghij");
        assert_eq!(r.gap_bytes(), 0);
    }

    #[test]
    fn multi_segment_body_across_wrap_out_of_order() {
        // ISN near u32::MAX with a multi-segment body whose chunks
        // straddle the 2^32 boundary, delivered out of order, including
        // an overlapping retransmission clipped against a predecessor
        // that itself wrapped.
        let isn = 0xffff_fff0u32;
        let mut r = StreamReassembler::new(isn);
        let body: &[u8] = b"AAAAAAAABBBBBBBBCCCCCCCCDDDDDDDD"; // 4 x 8 bytes
        let seqs: Vec<u32> = (0..4).map(|i| isn.wrapping_add(1 + 8 * i)).collect();
        let mut out = Vec::new();
        out.extend(r.segment(seqs[2], &body[16..24])); // pre-wrap tail chunk
        out.extend(r.segment(seqs[3], &body[24..32])); // post-wrap chunk
                                                       // Overlapping retransmit: spans chunks 2+3 with conflicting bytes;
                                                       // first writer wins, so nothing it carries may survive.
        out.extend(r.segment(seqs[2], b"xxxxxxxxyyyyyyyy"));
        assert!(out.is_empty(), "nothing contiguous yet");
        out.extend(r.segment(seqs[0], &body[0..8]));
        out.extend(r.segment(seqs[1], &body[8..16]));
        assert_eq!(out, body);
        assert_eq!(r.delivered(), 32);
        assert_eq!(r.buffered(), 0);
        assert_eq!(r.gap_bytes(), 0);
    }

    #[test]
    fn buffer_budget_forces_gap() {
        let mut r = StreamReassembler::new(0).with_max_buffer(8);
        // The first segment is out of order (offset 99) and alone exceeds
        // the 8-byte budget: the missing 99 bytes become a gap and the
        // segment is delivered at once.
        assert_eq!(r.segment(100, b"ABCDEFGHIJ"), b"ABCDEFGHIJ");
        assert_eq!(r.gap_bytes(), 99);
        assert_eq!(r.buffered(), 0);
        // Within budget: buffered until the gap is forced.
        let out = r.segment(200, b"KL");
        // After forcing, both buffered runs may deliver (with a gap between
        // them counted).
        assert!(r.gap_bytes() > 0);
        let mut all = out;
        all.extend(r.force_gap());
        assert!(all.ends_with(b"KL"));
    }

    #[test]
    fn force_gap_on_empty_is_noop() {
        let mut r = StreamReassembler::new(0);
        assert!(r.force_gap().is_empty());
        assert_eq!(r.gap_bytes(), 0);
    }

    #[test]
    fn empty_segments_ignored() {
        let mut r = StreamReassembler::new(0);
        assert!(r.segment(1, b"").is_empty());
        assert_eq!(r.delivered(), 0);
    }

    #[test]
    fn segment_ref_passthrough_on_in_order_data() {
        let mut r = StreamReassembler::new(0);
        assert_eq!(
            r.segment_ref(1, b"abc"),
            SegmentOut::Passthrough { skip: 0 }
        );
        assert_eq!(r.delivered(), 3);
        // Retransmitted prefix: the delivery is the new suffix of the slice.
        assert_eq!(
            r.segment_ref(2, b"bcDE"),
            SegmentOut::Passthrough { skip: 2 }
        );
        assert_eq!(r.delivered(), 5);
        // Pure duplicate.
        assert_eq!(r.segment_ref(1, b"abc"), SegmentOut::Empty);
    }

    #[test]
    fn segment_ref_owns_when_draining_buffered_data() {
        let mut r = StreamReassembler::new(0);
        assert_eq!(r.segment_ref(4, b"def"), SegmentOut::Empty); // buffered
        match r.segment_ref(1, b"abc") {
            SegmentOut::Owned(v) => assert_eq!(v, b"abcdef"),
            other => panic!("expected owned merge, got {other:?}"),
        }
    }

    #[test]
    fn segment_ref_agrees_with_segment_on_shuffled_stream() {
        // Differential: the zero-copy API resolved against the caller's
        // slice must equal the copying API byte for byte.
        let chunks: Vec<(u32, Vec<u8>)> = (0..50u32)
            .map(|i| (1 + i * 5, format!("<{i:02}>x").into_bytes()))
            .collect();
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        for i in 0..order.len() {
            order.swap(i, (i * 31 + 7) % chunks.len());
        }
        let mut a = StreamReassembler::new(0);
        let mut b = StreamReassembler::new(0);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for &i in &order {
            let (seq, data) = &chunks[i];
            out_a.extend(a.segment(*seq, data));
            match b.segment_ref(*seq, data) {
                SegmentOut::Empty => {}
                SegmentOut::Passthrough { skip } => out_b.extend_from_slice(&data[skip..]),
                SegmentOut::Owned(v) => out_b.extend_from_slice(&v),
            }
        }
        assert_eq!(out_a, out_b);
        assert_eq!(a.delivered(), b.delivered());
    }

    #[test]
    fn large_shuffled_stream_reassembles() {
        // Property-style: a 100-segment stream delivered in a fixed shuffled
        // order must reconstruct exactly.
        let mut segments: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut expected = Vec::new();
        let mut seq = 1u32;
        for i in 0..100u32 {
            let chunk: Vec<u8> = format!("[{i:03}]").into_bytes();
            segments.push((seq, chunk.clone()));
            expected.extend_from_slice(&chunk);
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        // Deterministic shuffle.
        let mut order: Vec<usize> = (0..segments.len()).collect();
        for i in 0..order.len() {
            let j = (i * 7919 + 13) % order.len();
            order.swap(i, j);
        }
        let mut r = StreamReassembler::new(0);
        let mut out = Vec::new();
        for &i in &order {
            let (s, d) = &segments[i];
            out.extend(r.segment(*s, d));
        }
        assert_eq!(out, expected);
        assert_eq!(r.gap_bytes(), 0);
        assert_eq!(r.buffered(), 0);
    }
}
