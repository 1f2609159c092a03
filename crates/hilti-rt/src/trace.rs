//! Flight-recorder tracing: bounded rings of per-stage spans with
//! monotonic-nanosecond timestamps, per-stage latency histograms, and
//! fault-triggered postmortem dumps.
//!
//! Design constraints, in order:
//!
//! * **Recording-off is a single branch.** Producers hold an
//!   `Option<FlightRecorder>` (or a shared cell of one); when tracing is
//!   disabled nothing is allocated and the hot path pays one `is_some()`
//!   test per would-be span.
//! * **The hot path is lock-free.** A recorder is owned by exactly one
//!   thread (`&mut` writes into a pre-sized ring); cross-thread handoff
//!   happens only at harvest time, after the owning thread is done. The
//!   only timestamps that cross threads are plain `u64`s stamped by the
//!   producer (e.g. a dispatcher enqueue time consumed by a shard).
//! * **Stage sums are exclusive.** A `Glue` span nested in a `Parse` or
//!   `Script` span is charged to `Glue` only: the enclosing span's
//!   [`SpanRecord::self_ns`], its stage histogram and the top-K breakdown
//!   all exclude it, so the per-stage totals partition the recorded time
//!   instead of counting glue twice. The ring keeps raw begin/end, so
//!   trace viewers still show the nesting.
//! * **Wall-clock data never enters deterministic outputs.** Spans,
//!   latency reports, and dumps travel in side-channels
//!   ([`TraceReport`]); the *structure* of a dump (stage/packet/uid
//!   sequence) is deterministic for a fixed input and worker count, only
//!   the `*_ns` fields vary run to run.
//!
//! The JSON export (`hilti.trace.v1`) is the Chrome trace-event format —
//! an object with a `traceEvents` array of complete (`"ph":"X"`) events,
//! timestamps in microseconds — so `chrome://tracing` and Perfetto load
//! it directly; the schema marker rides as an extra top-level key that
//! those viewers ignore.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::telemetry::{json, HistogramSnapshot};

/// Number of pipeline stages a span can be attributed to.
pub const STAGES: usize = 7;

/// Shard id used for spans recorded on the dispatcher thread.
pub const DISPATCHER: u32 = u32::MAX;

/// Default ring capacity per recorder (spans retained for export and
/// postmortem dumps; histograms see every span regardless of wrap).
pub const DEFAULT_RING_CAP: usize = 1 << 15;

/// Number of most-recent spans drained into a postmortem dump.
pub const POSTMORTEM_SPANS: usize = 256;

/// Slowest-deliveries kept per shard in a [`LatencyReport`].
pub const TOP_K: usize = 5;

/// The seven stages of the delivery path. `hiltic` (no packet pipeline)
/// reuses `Parse` for its front end and `Script` for program execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Dispatcher: staging + pushing a batch into a shard's ring
    /// (includes any backpressure park under `OverloadPolicy::Block`).
    Dispatch = 0,
    /// Between dispatcher staging and the shard popping the item.
    QueueWait = 1,
    /// Dispatcher: ethernet/IP/transport decode + flow-table upkeep.
    Decode = 2,
    /// Parser feed (binpac or standard stack) for one delivery.
    Parse = 3,
    /// HILTI-to-Bro glue: a BinPAC++ event hook turning parsed units into
    /// events, or the compiled engine converting an event's values into
    /// script arguments. Always nested in a `Parse` or `Script` span.
    Glue = 4,
    /// Script event execution for one delivery's event batch.
    Script = 5,
    /// Dispatcher: deterministic epoch merge of shard effects.
    Merge = 6,
}

impl Stage {
    pub const ALL: [Stage; STAGES] = [
        Stage::Dispatch,
        Stage::QueueWait,
        Stage::Decode,
        Stage::Parse,
        Stage::Glue,
        Stage::Script,
        Stage::Merge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Dispatch => "dispatch",
            Stage::QueueWait => "queue_wait",
            Stage::Decode => "decode",
            Stage::Parse => "parse",
            Stage::Glue => "glue",
            Stage::Script => "script",
            Stage::Merge => "merge",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Nanoseconds since a process-global monotonic epoch. All recorders in
/// a process share the epoch, so timestamps stamped on one thread (a
/// dispatcher enqueue) compare meaningfully against timestamps read on
/// another (the shard's dequeue) — which is what makes the `QueueWait`
/// stage measurable at all.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `body` as one `stage` span of `rec`, labelled with the recorder's
/// current delivery ([`FlightRecorder::set_current`]). Without a recorder
/// this is just `body()`: no clock is read.
pub fn span<T>(rec: Option<&SharedRecorder>, stage: Stage, body: impl FnOnce() -> T) -> T {
    let Some(rec) = rec else {
        return body();
    };
    let begin = monotonic_ns();
    let out = body();
    rec.borrow_mut().record_current(stage, begin);
    out
}

/// One fixed-size span record. `uid` is a cheap refcounted handle to the
/// interned flow uid (no string copy on the hot path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub stage: Stage,
    pub shard: u32,
    /// Packet slot (merge major) for delivery stages; item/descriptor
    /// count for the batch-level `Dispatch`/`Merge` stages.
    pub packet: u64,
    pub uid: Option<Arc<str>>,
    pub begin_ns: u64,
    pub end_ns: u64,
    /// The part of `begin_ns..end_ns` charged to `stage`: the duration
    /// minus any `Glue` spans nested in it.
    pub self_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// Non-atomic power-of-two histogram for single-owner recorders: same
/// bucketing as `telemetry::Histogram`, but plain `u64` adds (the
/// recorder is `&mut`-owned, so atomics would buy nothing).
#[derive(Clone)]
struct LocalHist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
}

impl Default for LocalHist {
    fn default() -> Self {
        LocalHist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl LocalHist {
    fn observe(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                (upper, n)
            })
            .collect();
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets,
        }
    }
}

/// A bounded ring of [`SpanRecord`]s plus per-stage latency histograms.
/// Owned by one thread; see the module docs for the concurrency model.
pub struct FlightRecorder {
    shard: u32,
    cap: usize,
    ring: Vec<SpanRecord>,
    /// Overwrite cursor, meaningful once `ring.len() == cap`.
    next: usize,
    total: u64,
    stage_ns: [LocalHist; STAGES],
    delivery_ns: LocalHist,
    /// `(begin_ns, duration)` of the `Glue` spans recorded since the last
    /// other span: the candidates for nesting in the next one to end.
    /// Bounded by the ring capacity.
    glue: VecDeque<(u64, u64)>,
    /// The delivery being processed, `(packet slot, uid)`: the label of
    /// spans recorded with [`FlightRecorder::record_current`].
    current: (u64, Option<Arc<str>>),
}

/// Single-thread shared handle: lets a pipeline and the parsers it owns
/// (the BinPAC++ driver, `binpac::BinpacAnalyzer`) record into the same
/// ring without threading `&mut` through every call signature. `Rc` keeps it off the
/// cross-thread path by construction.
pub type SharedRecorder = Rc<RefCell<FlightRecorder>>;

impl FlightRecorder {
    pub fn new(shard: u32) -> Self {
        Self::with_capacity(shard, DEFAULT_RING_CAP)
    }

    pub fn with_capacity(shard: u32, cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            shard,
            cap,
            ring: Vec::with_capacity(cap),
            next: 0,
            total: 0,
            stage_ns: std::array::from_fn(|_| LocalHist::default()),
            delivery_ns: LocalHist::default(),
            glue: VecDeque::new(),
            current: (0, None),
        }
    }

    pub fn shared(self) -> SharedRecorder {
        Rc::new(RefCell::new(self))
    }

    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Records a span ending now.
    pub fn record(&mut self, stage: Stage, packet: u64, uid: Option<&Arc<str>>, begin_ns: u64) {
        self.record_span(stage, packet, uid, begin_ns, monotonic_ns());
    }

    /// Sets the delivery the owning thread is processing. Components
    /// nested in it (the generated parsers, the script host) label their
    /// spans with it through [`FlightRecorder::record_current`] instead of
    /// having the label passed down every call.
    pub fn set_current(&mut self, packet: u64, uid: Option<&Arc<str>>) {
        self.current = (packet, uid.cloned());
    }

    /// Records a span ending now, labelled with the current delivery.
    pub fn record_current(&mut self, stage: Stage, begin_ns: u64) {
        let (packet, uid) = self.current.clone();
        self.record(stage, packet, uid.as_ref(), begin_ns);
    }

    /// Records a span with both endpoints supplied (used when the begin
    /// timestamp was stamped on another thread, e.g. queue wait).
    pub fn record_span(
        &mut self,
        stage: Stage,
        packet: u64,
        uid: Option<&Arc<str>>,
        begin_ns: u64,
        end_ns: u64,
    ) {
        let duration = end_ns.saturating_sub(begin_ns);
        let self_ns = if stage == Stage::Glue {
            if self.glue.len() == self.cap {
                self.glue.pop_front();
            }
            self.glue.push_back((begin_ns, duration));
            duration
        } else {
            // Spans on one thread nest or are disjoint, so the pending glue
            // that began inside this span is nested in it; glue that began
            // earlier belonged to no enclosing span and is dropped too.
            let nested: u64 = self
                .glue
                .drain(..)
                .filter(|&(b, _)| b >= begin_ns)
                .map(|(_, d)| d)
                .sum();
            duration.saturating_sub(nested)
        };
        self.stage_ns[stage.index()].observe(self_ns);
        let rec = SpanRecord {
            stage,
            shard: self.shard,
            packet,
            uid: uid.cloned(),
            begin_ns,
            end_ns,
            self_ns,
        };
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            self.ring[self.next] = rec;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Feeds the end-to-end delivery latency histogram (enqueue → script
    /// done for the sharded pipeline; decode → script done sequentially).
    pub fn observe_delivery(&mut self, ns: u64) {
        self.delivery_ns.observe(ns);
    }

    /// Spans ever recorded (retained + overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Spans lost to ring wrap.
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.recent(self.ring.len())
    }

    /// The most recent `n` spans, oldest first. Copies only those `n`.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let (newer, older) = self.ring.split_at(self.next);
        let skip = self.ring.len().saturating_sub(n);
        older.iter().chain(newer).skip(skip).cloned().collect()
    }

    /// Drains the last [`POSTMORTEM_SPANS`] records into a dump.
    pub fn postmortem(&self, reason: &str) -> PostmortemDump {
        PostmortemDump {
            shard: self.shard,
            reason: reason.to_string(),
            records: self.recent(POSTMORTEM_SPANS),
        }
    }

    /// Freezes the recorder into a `Send`-able part for merging.
    pub fn finish(self) -> RecorderPart {
        RecorderPart {
            shard: self.shard,
            spans: self.spans(),
            stage_ns: self.stage_ns.iter().map(LocalHist::snapshot).collect(),
            delivery_ns: self.delivery_ns.snapshot(),
            dropped: self.total - self.ring.len() as u64,
        }
    }
}

/// A frozen recorder: retained spans (oldest first) plus per-stage and
/// delivery histograms. Plain data, `Send`.
#[derive(Clone, Debug)]
pub struct RecorderPart {
    pub shard: u32,
    pub spans: Vec<SpanRecord>,
    /// One snapshot per [`Stage`], indexed by `Stage::index()`.
    pub stage_ns: Vec<HistogramSnapshot>,
    pub delivery_ns: HistogramSnapshot,
    pub dropped: u64,
}

impl RecorderPart {
    /// The last [`POSTMORTEM_SPANS`] retained spans as a dump — the
    /// post-join counterpart of [`FlightRecorder::postmortem`], for faults
    /// the dispatcher only learns about after harvesting the shard.
    pub fn postmortem(&self, reason: &str) -> PostmortemDump {
        let skip = self.spans.len().saturating_sub(POSTMORTEM_SPANS);
        PostmortemDump {
            shard: self.shard,
            reason: reason.to_string(),
            records: self.spans[skip..].to_vec(),
        }
    }
}

/// Per-stage latency summary line.
#[derive(Clone, Debug)]
pub struct StageLatency {
    pub stage: Stage,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// One slow delivery with its per-stage breakdown.
#[derive(Clone, Debug)]
pub struct SlowDelivery {
    pub shard: u32,
    pub packet: u64,
    pub uid: Option<Arc<str>>,
    pub total_ns: u64,
    pub stage_ns: [u64; STAGES],
}

/// Latency attribution across all recorders of a run: per-stage
/// quantiles, end-to-end delivery quantiles, and the per-shard top-K
/// slowest deliveries.
#[derive(Clone, Debug, Default)]
pub struct LatencyReport {
    /// Stages with at least one span, in [`Stage::ALL`] order.
    pub stages: Vec<StageLatency>,
    pub delivery_count: u64,
    pub delivery_p50_ns: u64,
    pub delivery_p95_ns: u64,
    pub delivery_p99_ns: u64,
    /// Top-[`TOP_K`] slowest deliveries per shard, grouped by shard,
    /// slowest first within a shard.
    pub slowest: Vec<SlowDelivery>,
}

impl LatencyReport {
    /// Human-readable multi-line summary (for `--stats` output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("latency (per stage, ns):\n");
        s.push_str("  stage        count        p50        p95        p99\n");
        for st in &self.stages {
            s.push_str(&format!(
                "  {:<10} {:>7} {:>10} {:>10} {:>10}\n",
                st.stage.name(),
                st.count,
                st.p50_ns,
                st.p95_ns,
                st.p99_ns
            ));
        }
        if self.delivery_count > 0 {
            s.push_str(&format!(
                "  delivery   {:>7} {:>10} {:>10} {:>10}\n",
                self.delivery_count,
                self.delivery_p50_ns,
                self.delivery_p95_ns,
                self.delivery_p99_ns
            ));
        }
        if !self.slowest.is_empty() {
            s.push_str("slowest deliveries (per shard):\n");
            for d in &self.slowest {
                let shard = if d.shard == DISPATCHER {
                    "disp".to_string()
                } else {
                    format!("s{}", d.shard)
                };
                let mut stages = String::new();
                for st in Stage::ALL {
                    let ns = d.stage_ns[st.index()];
                    if ns > 0 {
                        stages.push_str(&format!(" {}={}", st.name(), ns));
                    }
                }
                s.push_str(&format!(
                    "  {:<5} pkt {:>6} {:>10} ns{} uid={}\n",
                    shard,
                    d.packet,
                    d.total_ns,
                    stages,
                    d.uid.as_deref().unwrap_or("-"),
                ));
            }
        }
        s
    }
}

/// A fault-triggered dump: the last N spans of the faulting shard.
#[derive(Clone, Debug)]
pub struct PostmortemDump {
    pub shard: u32,
    pub reason: String,
    pub records: Vec<SpanRecord>,
}

impl PostmortemDump {
    /// JSONL rendering: one header line, then one line per record.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"schema\":\"hilti.trace.v1\",\"kind\":\"postmortem\",\"shard\":{},\"reason\":{},\"records\":{}}}\n",
            self.shard,
            json::quote(&self.reason),
            self.records.len()
        );
        for r in &self.records {
            s.push_str(&format!(
                "{{\"stage\":{},\"shard\":{},\"packet\":{},\"uid\":{},\"begin_ns\":{},\"end_ns\":{}}}\n",
                json::quote(r.stage.name()),
                r.shard,
                r.packet,
                r.uid.as_deref().map(json::quote).unwrap_or_else(|| "null".into()),
                r.begin_ns,
                r.end_ns
            ));
        }
        s
    }

    /// The timestamp-free projection of the dump: what the determinism
    /// tests compare across runs.
    pub fn structure(&self) -> Vec<(String, u64, Option<String>)> {
        self.records
            .iter()
            .map(|r| {
                (
                    r.stage.name().to_string(),
                    r.packet,
                    r.uid.as_deref().map(str::to_string),
                )
            })
            .collect()
    }
}

/// The full trace side-channel of a run: latency attribution, retained
/// spans, and any fault-triggered dumps. Lives *next to* deterministic
/// results (like `dispatch_telemetry`), never inside them.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    pub latency: LatencyReport,
    /// Retained spans from all recorders, shard order then ring order.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to ring wrap across all recorders.
    pub spans_dropped: u64,
    pub postmortems: Vec<PostmortemDump>,
}

impl TraceReport {
    /// Builds the report from frozen recorders plus any dumps collected
    /// by supervision.
    pub fn from_parts(mut parts: Vec<RecorderPart>, postmortems: Vec<PostmortemDump>) -> Self {
        parts.sort_by_key(|p| p.shard); // shards ascending, dispatcher (MAX) last
        let mut stages = Vec::new();
        for st in Stage::ALL {
            let merged = HistogramSnapshot::merge(
                &parts
                    .iter()
                    .filter_map(|p| p.stage_ns.get(st.index()).cloned())
                    .collect::<Vec<_>>(),
            );
            if merged.count > 0 {
                stages.push(StageLatency {
                    stage: st,
                    count: merged.count,
                    total_ns: merged.sum,
                    p50_ns: merged.quantile(0.50),
                    p95_ns: merged.quantile(0.95),
                    p99_ns: merged.quantile(0.99),
                });
            }
        }
        let delivery = HistogramSnapshot::merge(
            &parts
                .iter()
                .map(|p| p.delivery_ns.clone())
                .collect::<Vec<_>>(),
        );
        let slowest = Self::slowest_deliveries(&parts);
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        for p in &parts {
            spans.extend(p.spans.iter().cloned());
            dropped += p.dropped;
        }
        TraceReport {
            latency: LatencyReport {
                stages,
                delivery_count: delivery.count,
                delivery_p50_ns: delivery.quantile(0.50),
                delivery_p95_ns: delivery.quantile(0.95),
                delivery_p99_ns: delivery.quantile(0.99),
                slowest,
            },
            spans,
            spans_dropped: dropped,
            postmortems,
        }
    }

    /// Groups retained per-delivery spans (queue wait, decode, parse,
    /// glue, script) by packet slot and keeps the top-K slowest per shard,
    /// charging each span its [`SpanRecord::self_ns`].
    /// Works on retained spans only, so under heavy ring wrap the table
    /// reflects the recent window — which is the window that matters for
    /// tail diagnosis.
    fn slowest_deliveries(parts: &[RecorderPart]) -> Vec<SlowDelivery> {
        use std::collections::BTreeMap;
        // packet -> (owning shard, uid, per-stage ns)
        type PacketAgg = (u32, Option<Arc<str>>, [u64; STAGES]);
        let mut by_packet: BTreeMap<u64, PacketAgg> = BTreeMap::new();
        for p in parts {
            for r in &p.spans {
                if matches!(r.stage, Stage::Dispatch | Stage::Merge) {
                    continue;
                }
                let e = by_packet
                    .entry(r.packet)
                    .or_insert((DISPATCHER, None, [0; STAGES]));
                if r.shard != DISPATCHER {
                    e.0 = e.0.min(r.shard);
                }
                if e.1.is_none() {
                    e.1 = r.uid.clone();
                }
                e.2[r.stage.index()] += r.self_ns;
            }
        }
        let mut by_shard: BTreeMap<u32, Vec<SlowDelivery>> = BTreeMap::new();
        for (packet, (shard, uid, stage_ns)) in by_packet {
            by_shard.entry(shard).or_default().push(SlowDelivery {
                shard,
                packet,
                uid,
                total_ns: stage_ns.iter().sum(),
                stage_ns,
            });
        }
        let mut out = Vec::new();
        for (_, mut v) in by_shard {
            v.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.packet.cmp(&b.packet)));
            v.truncate(TOP_K);
            out.extend(v);
        }
        out
    }

    /// Chrome trace-event / Perfetto-compatible JSON (`hilti.trace.v1`).
    /// `tid` 0 is the dispatcher, `tid` w+1 is shard w; timestamps are
    /// microseconds with nanosecond precision kept in the fraction.
    pub fn to_chrome_json(&self) -> String {
        let tid = |shard: u32| -> u64 {
            if shard == DISPATCHER {
                0
            } else {
                shard as u64 + 1
            }
        };
        let us = |ns: u64| -> String { format!("{}.{:03}", ns / 1000, ns % 1000) };
        let mut s = String::from(
            "{\"schema\":\"hilti.trace.v1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
        );
        let mut first = true;
        let mut push = |s: &mut String, ev: String| {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&ev);
        };
        push(
            &mut s,
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"hilti\"}}".to_string(),
        );
        let mut shards: Vec<u32> = self.spans.iter().map(|r| r.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        for sh in &shards {
            let name = if *sh == DISPATCHER {
                "dispatcher".to_string()
            } else {
                format!("shard{sh}")
            };
            push(
                &mut s,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                    tid(*sh),
                    json::quote(&name)
                ),
            );
        }
        for r in &self.spans {
            let mut args = format!("\"packet\":{}", r.packet);
            if let Some(uid) = &r.uid {
                args.push_str(&format!(",\"uid\":{}", json::quote(uid)));
            }
            push(
                &mut s,
                format!(
                    "{{\"name\":{},\"cat\":\"hilti\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                    json::quote(r.stage.name()),
                    tid(r.shard),
                    us(r.begin_ns),
                    us(r.duration_ns()),
                    args
                ),
            );
        }
        s.push_str(&format!("],\"spans_dropped\":{}}}", self.spans_dropped));
        s
    }

    /// All postmortem dumps as one JSONL document.
    pub fn postmortems_jsonl(&self) -> String {
        self.postmortems
            .iter()
            .map(PostmortemDump::to_jsonl)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    fn spin(d: std::time::Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    fn stage_sum(report: &TraceReport, st: Stage) -> u64 {
        let s = report.latency.stages.iter().find(|s| s.stage == st);
        s.map_or(0, |s| s.total_ns)
    }

    #[test]
    fn span_charges_wall_time_to_its_stage() {
        let rec = FlightRecorder::new(0).shared();
        let out = span(Some(&rec), Stage::Parse, || {
            spin(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(out, 7);
        let part = Rc::try_unwrap(rec).ok().unwrap().into_inner().finish();
        let report = TraceReport::from_parts(vec![part], vec![]);
        assert!(stage_sum(&report, Stage::Parse) >= 5_000_000);
        assert_eq!(stage_sum(&report, Stage::Script), 0);
    }

    #[test]
    fn span_without_recorder_only_runs_the_body() {
        let mut ran = false;
        let out = span(None, Stage::Script, || {
            ran = true;
            "done"
        });
        assert!(ran);
        assert_eq!(out, "done");
    }

    #[test]
    fn nested_glue_span_is_charged_to_glue_only() {
        let rec = FlightRecorder::new(0).shared();
        span(Some(&rec), Stage::Script, || {
            spin(std::time::Duration::from_millis(3));
            span(Some(&rec), Stage::Glue, || {
                spin(std::time::Duration::from_millis(6))
            });
            spin(std::time::Duration::from_millis(3));
        });
        let spans = rec.borrow().spans();
        let (glue, script) = (&spans[0], &spans[1]);
        assert_eq!((glue.stage, script.stage), (Stage::Glue, Stage::Script));
        assert!(glue.begin_ns >= script.begin_ns && glue.end_ns <= script.end_ns);
        assert!(glue.self_ns >= 6_000_000, "glue={}", glue.self_ns);
        // The inner time is not double-charged to the outer span.
        assert_eq!(script.self_ns, script.duration_ns() - glue.duration_ns());
        assert!(script.self_ns >= 6_000_000, "script={}", script.self_ns);
    }

    #[test]
    fn finish_keeps_one_histogram_per_stage() {
        let part = FlightRecorder::new(0).finish();
        assert_eq!(part.stage_ns.len(), STAGES);
        assert!(part.stage_ns.iter().all(|h| h.count == 0 && h.sum == 0));
        let report = TraceReport::from_parts(vec![part], vec![]);
        assert!(report.latency.stages.is_empty());
        assert_eq!(report.latency.delivery_count, 0);
    }

    #[test]
    fn report_sums_a_stage_across_shards() {
        let mut a = FlightRecorder::new(0);
        let mut b = FlightRecorder::new(1);
        a.record_span(Stage::Glue, 1, None, 0, 40);
        b.record_span(Stage::Glue, 2, None, 0, 25);
        b.record_span(Stage::Glue, 3, None, 50, 60);
        let report = TraceReport::from_parts(vec![b.finish(), a.finish()], vec![]);
        let glue = &report.latency.stages[0];
        assert_eq!((glue.stage, glue.count), (Stage::Glue, 3));
        assert_eq!(stage_sum(&report, Stage::Glue), 40 + 25 + 10);
        // Spans come back shard order, whatever order the parts arrive in.
        let shards: Vec<_> = report.spans.iter().map(|s| s.shard).collect();
        assert_eq!(shards, vec![0, 1, 1]);
    }

    #[test]
    fn pending_glue_is_bounded_by_ring_capacity() {
        let mut r = FlightRecorder::with_capacity(0, 2);
        for b in [10, 20, 30] {
            r.record_span(Stage::Glue, 1, None, b, b + 1);
        }
        // Only the newest `cap` glue spans are remembered for nesting.
        r.record_span(Stage::Parse, 1, None, 0, 100);
        assert_eq!(r.spans()[1].self_ns, 98);
    }

    #[test]
    fn monotonic_ns_is_monotone_and_shared() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        let c = std::thread::spawn(monotonic_ns).join().unwrap();
        // Same epoch across threads: a later read on another thread is
        // not before an earlier read here.
        assert!(c >= a);
    }

    #[test]
    fn ring_bounds_and_wraps_oldest_first() {
        let mut r = FlightRecorder::with_capacity(0, 4);
        for i in 0..6u64 {
            r.record_span(Stage::Parse, i, None, i * 10, i * 10 + 5);
        }
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 2);
        let spans = r.spans();
        assert_eq!(
            spans.iter().map(|s| s.packet).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(
            r.recent(2).iter().map(|s| s.packet).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // Histograms saw all 6 spans despite the wrap.
        let part = r.finish();
        assert_eq!(part.stage_ns[Stage::Parse.index()].count, 6);
        assert_eq!(part.dropped, 2);
        assert_eq!(
            part.spans.iter().map(|s| s.packet).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn recent_is_the_tail_of_spans_across_wrap() {
        let cap = 5;
        let mut r = FlightRecorder::with_capacity(0, cap);
        for i in 0..(3 * cap as u64 + 2) {
            let spans = r.spans();
            for n in 0..=cap + 1 {
                let tail = &spans[spans.len().saturating_sub(n)..];
                assert_eq!(r.recent(n), tail, "after {i} spans, recent({n})");
            }
            r.record_span(Stage::Parse, i, None, i, i + 1);
        }
    }

    #[test]
    fn stage_sums_charge_nested_glue_to_glue_only() {
        let mut r = FlightRecorder::new(0);
        let u = uid("C1");
        // Packet 1: parse 100 ns with 30 ns of glue inside it, then script
        // 100 ns with two glue spans (10 + 5 ns) inside it.
        r.record_span(Stage::Glue, 1, Some(&u), 20, 50);
        r.record_span(Stage::Parse, 1, Some(&u), 0, 100);
        r.record_span(Stage::Glue, 1, Some(&u), 120, 130);
        r.record_span(Stage::Glue, 1, Some(&u), 150, 155);
        r.record_span(Stage::Script, 1, Some(&u), 100, 200);
        // Glue outside any enclosing span is charged to glue and taken
        // from no later span.
        r.record_span(Stage::Glue, 2, Some(&u), 300, 310);
        r.record_span(Stage::Decode, 2, Some(&u), 320, 330);
        // The ring keeps raw begin/end; `self_ns` is the exclusive part.
        let spans = r.spans();
        assert_eq!((spans[1].duration_ns(), spans[1].self_ns), (100, 70));
        assert_eq!((spans[4].duration_ns(), spans[4].self_ns), (100, 85));
        let report = TraceReport::from_parts(vec![r.finish()], vec![]);
        let sum = |st: Stage| {
            let s = report.latency.stages.iter().find(|s| s.stage == st);
            s.map_or(0, |s| s.total_ns)
        };
        assert_eq!(sum(Stage::Parse), 70);
        assert_eq!(sum(Stage::Glue), 30 + 10 + 5 + 10);
        assert_eq!(sum(Stage::Script), 85);
        assert_eq!(sum(Stage::Decode), 10);
        // The top-K row follows the same rule: packet 1 is 200 ns, split
        // parse 70 / glue 45 / script 85.
        let top = &report.latency.slowest[0];
        assert_eq!((top.packet, top.total_ns), (1, 200));
        assert_eq!(top.stage_ns[Stage::Parse.index()], 70);
        assert_eq!(top.stage_ns[Stage::Glue.index()], 45);
        assert_eq!(top.stage_ns[Stage::Script.index()], 85);
    }

    #[test]
    fn record_current_labels_with_the_current_delivery() {
        let mut r = FlightRecorder::new(0);
        let u = uid("C7");
        r.set_current(42, Some(&u));
        r.record_current(Stage::Glue, monotonic_ns());
        let span = &r.spans()[0];
        assert_eq!((span.stage, span.packet), (Stage::Glue, 42));
        assert_eq!(span.uid.as_deref(), Some("C7"));
    }

    #[test]
    fn report_merges_stages_and_ranks_slowest() {
        let mut disp = FlightRecorder::new(DISPATCHER);
        let mut shard = FlightRecorder::new(0);
        let u = uid("C1");
        // Two deliveries: packet 1 slow, packet 2 fast.
        disp.record_span(Stage::Decode, 1, Some(&u), 0, 100);
        disp.record_span(Stage::Decode, 2, Some(&u), 100, 150);
        shard.record_span(Stage::QueueWait, 1, Some(&u), 100, 2100);
        shard.record_span(Stage::Parse, 1, Some(&u), 2100, 12_100);
        shard.record_span(Stage::Script, 1, Some(&u), 12_100, 13_100);
        shard.record_span(Stage::Parse, 2, Some(&u), 200, 700);
        shard.observe_delivery(13_000);
        shard.observe_delivery(600);
        disp.record_span(Stage::Merge, 2, None, 20_000, 21_000);
        let report = TraceReport::from_parts(vec![disp.finish(), shard.finish()], vec![]);
        let names: Vec<_> = report
            .latency
            .stages
            .iter()
            .map(|s| s.stage.name())
            .collect();
        assert_eq!(
            names,
            vec!["queue_wait", "decode", "parse", "script", "merge"]
        );
        assert_eq!(report.latency.delivery_count, 2);
        assert!(report.latency.delivery_p99_ns >= report.latency.delivery_p50_ns);
        // Slowest delivery is packet 1, attributed to shard 0, with its
        // stage breakdown populated.
        let top = &report.latency.slowest[0];
        assert_eq!((top.shard, top.packet), (0, 1));
        assert_eq!(top.stage_ns[Stage::Parse.index()], 10_000);
        assert_eq!(top.stage_ns[Stage::Decode.index()], 100);
        assert!(!report.latency.render().is_empty());
    }

    #[test]
    fn chrome_json_validates_and_covers_stages() {
        let mut r = FlightRecorder::new(3);
        let u = uid("C\"quote");
        for st in Stage::ALL {
            r.record_span(st, 7, Some(&u), 1000, 2500);
        }
        let report = TraceReport::from_parts(vec![r.finish()], vec![]);
        let doc = report.to_chrome_json();
        json::validate(&doc).expect("chrome trace must be valid JSON");
        assert!(doc.contains("\"schema\":\"hilti.trace.v1\""));
        assert!(doc.contains("\"traceEvents\":["));
        for st in Stage::ALL {
            assert!(
                doc.contains(&format!("\"name\":\"{}\"", st.name())),
                "{}",
                st.name()
            );
        }
        // ts is µs with ns precision: 1000 ns -> 1.000.
        assert!(doc.contains("\"ts\":1.000"), "{doc}");
        assert!(doc.contains("\"dur\":1.500"), "{doc}");
        assert!(doc.contains("\"tid\":4"));
    }

    #[test]
    fn postmortem_jsonl_lines_validate_and_structure_is_ts_free() {
        let mut r = FlightRecorder::new(1);
        let u = uid("C9");
        r.record_span(Stage::Parse, 5, Some(&u), 10, 20);
        r.record_span(Stage::Script, 5, Some(&u), 20, 40);
        let dump = r.postmortem("ShardPanic: boom");
        let jsonl = dump.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            json::validate(l).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
        assert!(lines[0].contains("\"kind\":\"postmortem\""));
        assert!(lines[0].contains("\"shard\":1"));
        let st = dump.structure();
        assert_eq!(
            st,
            vec![
                ("parse".to_string(), 5, Some("C9".to_string())),
                ("script".to_string(), 5, Some("C9".to_string())),
            ]
        );
    }

    #[test]
    fn recent_caps_postmortem_size() {
        let mut r = FlightRecorder::new(0);
        for i in 0..(POSTMORTEM_SPANS as u64 + 50) {
            r.record_span(Stage::Script, i, None, i, i + 1);
        }
        let d = r.postmortem("Shed");
        assert_eq!(d.records.len(), POSTMORTEM_SPANS);
        assert_eq!(d.records.first().unwrap().packet, 50);
    }
}
