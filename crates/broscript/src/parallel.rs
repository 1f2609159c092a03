//! Flow-sharded parallel analysis pipeline with a deterministic merge.
//!
//! The paper's concurrency model (§3.2) hashes each flow to a virtual
//! thread so all computation for one flow is implicitly serialized; "HILTI
//! code is always safe to execute in parallel" (§7). This module applies
//! that placement to the whole analysis pipeline: a dispatcher thread
//! decodes packets and runs the shared flow table, then hashes each
//! connection 5-tuple ([`netpkt::flow::shard_hash`], symmetric and
//! worker-count-independent) to one of N shards. Each shard — its own
//! `std::thread` fed by a bounded SPSC ring ([`hilti_rt::spsc`]) — owns a
//! private engine context, parser stack, script host, flight recorder and
//! telemetry registry, so the per-packet hot path takes no locks.
//!
//! Both sides are the crate's shared delivery core (`delivery.rs`): the
//! dispatcher is its `FlowFrontEnd` with the SPSC staging buffers as the
//! delivery sink, and a shard is its `Analyzer` — the same one the
//! sequential pipeline drives inline — wrapped by the supervision and
//! effect-sealing code in this module.
//!
//! **Zero-copy dispatch.** The trace is loaded once into a shared
//! immutable [`TraceBuffer`] arena. Deliveries carry a [`netpkt::PayloadRef`] —
//! an `(offset, len)` slice into the arena for in-order payload — and an
//! interned `Arc<str>` uid shared with the flow table, so the per-packet
//! item shipped across threads is a fixed-size struct with no heap copy
//! of payload or uid. Deliveries are staged per shard and pushed to the
//! ring in batches of [`PipelineOptions::batch`], amortizing the
//! cross-thread wakeup.
//!
//! **Determinism.** The result of an N-worker run is byte-identical to the
//! 1-worker (and to the sequential [`crate::pipeline`]) run for every N
//! and every batch size, with two known exceptions, open as ROADMAP's
//! item "Sequential ≠ N workers": with telemetry on and the compiled
//! engine, N workers count one more `engine.runs`; and script network time
//! is per shard, so log timestamps differ on a trace whose time steps
//! back. A fault plan ([`Governance::faults`]) is keyed by packet slot, so
//! it hits the same deliveries for every N. Global decisions stay on the
//! dispatcher: uid assignment, TCP reassembly, and idle-flow expiry (the
//! front end expires flows from the shared flow table; shards receive
//! `Evict` directives rather than sweeping locally, since a shard-local
//! sweep would fire at different packet positions for different N).
//! Shard-side effects — log lines, printed lines, flow errors, telemetry
//! events — are recorded in flat per-shard vectors, and each processing
//! step seals an `EffectBlock`: the ranges it appended, keyed by the
//! position the sequential pipeline would have produced them in:
//!
//! * phase 0 — dispatcher `flow_open`/`flow_close` events,
//! * phase 1 — parse effects (parser events, `parser_error`, engine sink
//!   events raised while parsing),
//! * phase 2 — dispatcher `timer_expiry` events,
//! * phase 3 — dispatch effects (script logs/output, engine sink events
//!   raised while executing handlers),
//! * phase 4 — removal of the connection the packet closed,
//! * phase 5 — removal of each connection the packet expired, one minor
//!   position per connection in the front end's (sorted) eviction order.
//!
//! Because each shard processes its items in key order, its blocks form
//! (at most two) sorted streams, and every key has a unique producer
//! (only the end-of-run `bro_done` key ties across shards, broken by
//! shard index). The merge therefore orders the *block descriptors* by
//! `(key, shard)` and concatenates each category's ranges — no per-line
//! sort. Telemetry snapshots combine by [`TelemetrySnapshot::merge`] —
//! counters summed, gauges max-merged (they track peaks), histograms
//! bucket-wise — and the merged event stream replaces the concatenation,
//! with `quarantine` events re-emitted at the end in merged-ledger order
//! exactly as the sequential pipeline does. Dispatch-plane metrics (batch
//! counts, fill, queue depths) depend on N and batch, so they live in the
//! separate [`AnalysisResult::dispatch_telemetry`] snapshot. See
//! DESIGN.md ("Batched zero-copy dispatch").

use std::sync::Arc;

use hilti_rt::error::{RtError, RtResult};
use hilti_rt::spsc::{self, Producer};
use hilti_rt::telemetry::{Counter, Gauge, Histogram, Telemetry, TelemetrySnapshot};
use hilti_rt::time::Time;
use hilti_rt::trace::{
    monotonic_ns, FlightRecorder, PostmortemDump, RecorderPart, SharedRecorder, Stage, TraceReport,
    DISPATCHER,
};

use netpkt::pcap::RawPacket;
use netpkt::TraceBuffer;

use crate::delivery::{
    count_quarantine, flow_fields, freeze_recorder, quarantine_event, Analyzer, Blueprint,
    Delivery, FlowFrontEnd, Proto, Wiring, MAX_POSTMORTEMS,
};
use crate::host::{Engine, ScriptHost};
use crate::pipeline::{
    warn_event_drops, AnalysisResult, Fault, FlowError, Governance, HeldState, ParserStack,
    ShardFault,
};

/// Default shard count: one per core, capped at 8 (the paper's evaluation
/// machine exposes 8 hardware threads).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Deliveries staged per shard before a ring submission (amortizes the
/// cross-thread wakeup). See DESIGN.md for the tuning sweep behind the
/// default.
pub const DEFAULT_BATCH: usize = 128;

/// What the dispatcher does when a shard's ring stays saturated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverloadPolicy {
    /// Park until the shard drains (lossless backpressure — the default).
    /// Output stays byte-identical to sequential; a wedged shard stalls
    /// the dispatcher, which is what the per-delivery watchdog deadline
    /// ([`Governance::delivery_deadline_ms`]) exists to bound.
    #[default]
    Block,
    /// Bound the ring at `max_queue_depth` items and drop whole delivery
    /// batches that do not fit, counting them per shard as
    /// `pipeline.shed_packets.shard{w}` / `pipeline.shed_batches.shard{w}`
    /// in [`AnalysisResult::dispatch_telemetry`] and in total as
    /// [`AnalysisResult::shed_packets`]. Control items (evictions,
    /// end-of-trace flushes, done markers) are never shed — they block
    /// instead, so shutdown and state teardown stay reliable. Shedding
    /// depends on wall-clock scheduling, so output under `Shed` is *not*
    /// deterministic; it is the live-overload degradation mode.
    Shed { max_queue_depth: usize },
}

/// Knobs for a parallel run.
#[derive(Clone)]
pub struct PipelineOptions {
    /// Number of shards (worker threads). The output is byte-identical
    /// for every value, except for the two exceptions the module doc
    /// names (ROADMAP "Sequential ≠ N workers"); only throughput changes.
    pub workers: usize,
    /// Deliveries staged per shard before the dispatcher pushes them to
    /// the shard's ring. The output is byte-identical for every value;
    /// only dispatch overhead changes.
    pub batch: usize,
    pub governance: Governance,
    /// Backpressure policy when a shard's ring is full.
    pub overload: OverloadPolicy,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            workers: default_workers(),
            batch: DEFAULT_BATCH,
            governance: Governance::default(),
            overload: OverloadPolicy::Block,
        }
    }
}

/// Within-packet phases, mirroring the sequential emission order.
const PH_FLOW: u8 = 0;
const PH_PARSE: u8 = 1;
const PH_TIMER: u8 = 2;
const PH_DISPATCH: u8 = 3;
const PH_CLOSE: u8 = 4;
const PH_EVICT: u8 = 5;

/// Merge key: the position in the sequential output this effect belongs
/// to. `major` is the packet slot for in-trace effects; end-of-trace
/// flushes use majors past the packet count (one per candidate flow for
/// the parse sweep, then one per candidate for the dispatch sweep, then
/// one for `bro_done`). `minor` orders the removals of one packet's
/// expired connections, which may live on different shards.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    major: u64,
    phase: u8,
    minor: u32,
}

impl Key {
    fn new(major: u64, phase: u8) -> Key {
        Key {
            major,
            phase,
            minor: 0,
        }
    }
}

const LOG_STREAMS: [&str; 3] = ["http.log", "files.log", "dns.log"];

/// Flat per-producer effect storage. Effects are appended in processing
/// order; [`EffectBlock`]s record which ranges belong to which merge key.
#[derive(Default)]
struct Effects {
    logs: [Vec<String>; 3],
    output: Vec<String>,
    flow_errors: Vec<FlowError>,
    /// Engine/pipeline telemetry events, rendered to JSONL at capture time.
    events: Vec<String>,
}

/// A position in an [`Effects`]: the length of every vector.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Mark {
    logs: [u32; 3],
    output: u32,
    flow_errors: u32,
    events: u32,
}

impl Effects {
    fn mark(&self) -> Mark {
        Mark {
            logs: [0, 1, 2].map(|c| self.logs[c].len() as u32),
            output: self.output.len() as u32,
            flow_errors: self.flow_errors.len() as u32,
            events: self.events.len() as u32,
        }
    }

    /// Drops everything appended after `m`.
    fn truncate(&mut self, m: Mark) {
        for c in 0..3 {
            self.logs[c].truncate(m.logs[c] as usize);
        }
        self.output.truncate(m.output as usize);
        self.flow_errors.truncate(m.flow_errors as usize);
        self.events.truncate(m.events as usize);
    }
}

/// One sealed epoch of effects: the `start..end` ranges of the owner's
/// [`Effects`] vectors, tagged with the merge key. Blocks are emitted in
/// key order per stream, so the merge never sorts individual effects.
#[derive(Clone, Copy)]
struct EffectBlock {
    key: Key,
    start: Mark,
    end: Mark,
}

/// Everything one producer (a shard, or the dispatcher) contributes to
/// the merge: flat effects plus the blocks keying them.
#[derive(Default)]
struct Stream {
    effects: Effects,
    /// In-trace blocks plus end-of-trace parse blocks: keys strictly
    /// increase in processing order.
    main: Vec<EffectBlock>,
    /// End-of-trace dispatch blocks and `bro_done`: their majors run past
    /// the parse sweep's, so they form a second sorted stream.
    tail: Vec<EffectBlock>,
}

/// Work items shipped from the dispatcher to a shard, in trace order.
enum ShardItem {
    /// One reassembled segment of a flow owned by this shard; `begin_ns`
    /// is the dispatcher's enqueue timestamp when tracing is on (the
    /// shard's queue-wait span and delivery latency start there).
    Delivery(Delivery),
    /// The dispatcher's idle expiry evicted this open flow: remove it, at
    /// `key` (phase [`PH_EVICT`] of the expiring packet).
    Evict { uid: Arc<str>, key: Key, ts: Time },
    /// End-of-trace flush of one still-open flow.
    FinishFlow {
        parse_major: u64,
        dispatch_major: u64,
        uid: Arc<str>,
        ts: Time,
    },
    /// End of run: re-arm fuel and fire `bro_done`.
    Done { major: u64, ts: Time },
}

/// One shard: an [`Analyzer`] plus the supervision state and the effect
/// stream around it. Built *on* the worker thread (`ScriptHost` and the
/// parser VMs are `!Send`).
struct ShardState {
    analyzer: Analyzer,
    /// Shared build artifacts, kept so the supervisor can rebuild the
    /// engine pieces after a caught panic.
    blueprint: Arc<Blueprint>,
    /// How much of the shard's telemetry sink has been attributed to a block.
    sink_cursor: usize,
    log_cursors: [usize; 3],
    out: Stream,
    /// First unrecoverable error (ungoverned mode): merge picks the
    /// globally-first one. Processing on this shard stops here.
    fatal: Option<(Key, RtError)>,
    /// Merge key of the item currently being processed — the position a
    /// panic's quarantine block is sealed under.
    cur_key: Key,
    /// Timestamp of the item currently being processed.
    cur_ts: Time,
    /// Flow of the item currently being processed (None for `Done`).
    cur_uid: Option<Arc<str>>,
    /// Effect-vector lengths at the last seal: the panic salvage point.
    /// Everything past it was appended by the interrupted item and is
    /// discarded (the sequential run would also not have emitted a
    /// partial item's effects for a flow that dies mid-processing).
    sealed_high: Mark,
    /// Panics the supervisor caught and recovered from on this shard.
    faults: Vec<String>,
    /// Tombstone mode: a post-panic rebuild failed, so the shard has no
    /// engine. Every delivery for a not-yet-quarantined flow records a
    /// `ShardPanic` loss; control items are no-ops.
    dead: bool,
    /// Fault-triggered flight-recorder dumps captured on this shard
    /// (bounded; see [`ShardState::on_panic`]).
    postmortems: Vec<PostmortemDump>,
    /// Per-connection state when the first end-of-trace item arrived.
    held_at_end: Option<HeldState>,
}

impl ShardState {
    fn new(
        shard: usize,
        gov: Governance,
        trace: Arc<TraceBuffer>,
        blueprint: Arc<Blueprint>,
    ) -> RtResult<ShardState> {
        let wiring = Wiring {
            telemetry: gov.telemetry.then(Telemetry::new),
            rec: gov
                .tracing
                .then(|| FlightRecorder::new(shard as u32).shared()),
        };
        let host = ScriptHost::from_blueprint(&blueprint.host, wiring.rec.clone())?;
        let analyzer = Analyzer::new(host, &blueprint.parsers, gov, trace, wiring)?;
        Ok(ShardState {
            analyzer,
            blueprint,
            sink_cursor: 0,
            log_cursors: [0; 3],
            out: Stream::default(),
            fatal: None,
            cur_key: Key::new(0, PH_PARSE),
            cur_ts: Time::ZERO,
            cur_uid: None,
            sealed_high: Mark::default(),
            faults: Vec::new(),
            dead: false,
            postmortems: Vec::new(),
            held_at_end: None,
        })
    }

    /// Records where the next item runs — the position and flow a panic
    /// would be charged to — and fires a delivery's planned `Panic` or
    /// `Stall`. Runs *inside* the supervision boundary.
    fn begin(&mut self, item: &ShardItem) {
        let (major, phase, ts, uid) = match item {
            ShardItem::Delivery(d) => (d.slot, PH_PARSE, d.ts, Some(&d.uid)),
            ShardItem::Evict { uid, key, ts } => {
                self.cur_key = *key;
                self.cur_ts = *ts;
                self.cur_uid = Some(uid.clone());
                return;
            }
            ShardItem::FinishFlow {
                parse_major,
                uid,
                ts,
                ..
            } => (*parse_major, PH_PARSE, *ts, Some(uid)),
            ShardItem::Done { major, ts } => (*major, PH_DISPATCH, *ts, None),
        };
        self.cur_key = Key::new(major, phase);
        self.cur_ts = ts;
        self.cur_uid = uid.cloned();
        let ShardItem::Delivery(d) = item else {
            return;
        };
        // Queue-wait span first, so a planned fault below still leaves
        // the faulting delivery visible in the postmortem.
        if let Some(r) = &self.analyzer.wiring.rec {
            r.borrow_mut().record_span(
                Stage::QueueWait,
                d.slot,
                Some(&d.uid),
                d.begin_ns,
                monotonic_ns(),
            );
        }
        match self.analyzer.gov.faults.get(&d.slot).copied() {
            Some(Fault::Panic) => panic!("injected shard panic"),
            Some(Fault::Stall { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.postmortem("injected stall");
            }
            _ => {}
        }
    }

    /// Dumps the flight recorder's last spans (when tracing; at most
    /// [`MAX_POSTMORTEMS`] per shard).
    fn postmortem(&mut self, reason: &str) {
        if let Some(r) = &self.analyzer.wiring.rec {
            if self.postmortems.len() < MAX_POSTMORTEMS {
                self.postmortems.push(r.borrow().postmortem(reason));
            }
        }
    }

    /// Supervision boundary: contains a panic the current item raised.
    ///
    /// Governed (quarantine) mode: discards the interrupted item's
    /// unsealed effects, quarantines every flow whose parser state lived
    /// on this shard as [`FlowError::SHARD_PANIC`] (sealed as a block at
    /// the interrupted position, so the loss ledger merges
    /// deterministically), and rebuilds the engine from the blueprint so
    /// subsequent deliveries process normally. If the rebuild itself
    /// fails the shard turns into a tombstone: every later delivery is
    /// recorded as a `ShardPanic` loss.
    ///
    /// Ungoverned mode keeps the all-or-nothing contract: the panic
    /// becomes the run's fatal error at the interrupted position.
    fn on_panic(&mut self, detail: String) {
        // Flight-recorder postmortem: drain the last spans *before* any
        // salvage, so the dump shows what the shard was doing when it
        // died (the faulting flow's queue-wait span included).
        self.postmortem(&format!("ShardPanic: {detail}"));
        if !self.analyzer.gov.quarantine {
            if self.fatal.is_none() {
                self.fatal = Some((
                    self.cur_key,
                    RtError::runtime(format!("shard panicked: {detail}")),
                ));
            }
            self.faults.push(detail);
            return;
        }

        // Salvage: drop effects the interrupted item appended but never
        // sealed, and skip whatever it pushed onto the engine sink.
        self.out.effects.truncate(self.sealed_high);
        if let Some(t) = &self.analyzer.wiring.telemetry {
            self.sink_cursor += t.sink.events_since(self.sink_cursor).len();
        }

        // Loss ledger: every flow whose parser state this shard held dies
        // with it. Sorted union so the ledger is deterministic; the
        // current flow is included even if it never built parser state.
        let mut lost = self.analyzer.live_uids();
        lost.extend(self.cur_uid.clone());
        lost.sort();
        lost.dedup();
        let m = self.out.effects.mark();
        for uid in lost {
            if self.analyzer.quarantine(&uid) {
                self.out
                    .effects
                    .flow_errors
                    .push(FlowError::shard_panic(&uid, self.cur_ts));
            }
        }
        self.seal(m, self.cur_key, false);

        // Respawn: fresh engine pieces from the blueprint, same recorder
        // and telemetry registry. The new host starts with empty logs.
        self.log_cursors = [0; 3];
        let rec = self.analyzer.wiring.rec.clone();
        let respawned = ScriptHost::from_blueprint(&self.blueprint.host, rec)
            .and_then(|host| self.analyzer.respawn(host, &self.blueprint.parsers));
        self.dead = respawned.is_err();
        self.faults.push(detail);
    }

    /// Tombstone mode: no engine. Deliveries for flows not yet in the
    /// loss ledger are recorded as `ShardPanic`; everything else no-ops.
    fn tombstone(&mut self, item: ShardItem) {
        if let ShardItem::Delivery(d) = item {
            if self.analyzer.quarantine(&d.uid) {
                let m = self.out.effects.mark();
                self.out
                    .effects
                    .flow_errors
                    .push(FlowError::shard_panic(&d.uid, d.ts));
                self.seal(m, self.cur_key, false);
            }
        }
    }

    fn process(&mut self, item: ShardItem) {
        if self.fatal.is_some() {
            return;
        }
        if self.dead {
            self.tombstone(item);
            return;
        }
        if matches!(item, ShardItem::FinishFlow { .. } | ShardItem::Done { .. }) {
            self.held_at_end.get_or_insert_with(|| self.analyzer.held());
        }
        let m = self.out.effects.mark();
        let errors = &mut self.out.effects.flow_errors;
        match item {
            ShardItem::Delivery(d) => {
                let parsed = self.analyzer.parse(&d, errors);
                if self.close_parse(parsed, m) {
                    self.dispatch(Key::new(d.slot, PH_DISPATCH), false);
                    if d.closed {
                        self.remove(&d.uid, Key::new(d.slot, PH_CLOSE), d.ts);
                    }
                    self.analyzer.observe_delivery(d.begin_ns);
                }
            }
            ShardItem::Evict { uid, key, ts } => self.remove(&uid, key, ts),
            // Each candidate carries a parse major and a dispatch major so
            // that, merged, all parses precede all dispatches — the
            // sequential batch flush.
            ShardItem::FinishFlow {
                parse_major,
                dispatch_major,
                uid,
                ts,
            } => {
                let flushed = self.analyzer.finish_flow(&uid, ts, parse_major, errors);
                if self.close_parse(flushed, m) {
                    self.dispatch(Key::new(dispatch_major, PH_DISPATCH), true);
                }
            }
            ShardItem::Done { ts, .. } => {
                if let Err(e) = self.analyzer.done(ts, errors) {
                    self.fatal = Some((self.cur_key, e));
                }
                self.collect_sink();
                self.collect_host_effects();
                self.seal(m, self.cur_key, true);
            }
        }
    }

    /// Closes the parse half of the current item: an `Err` becomes the
    /// shard's fatal error at the current key (`false`: stop here);
    /// otherwise engine events raised while parsing are collected and
    /// everything since `m` is sealed under that key.
    fn close_parse(&mut self, r: RtResult<()>, m: Mark) -> bool {
        if let Err(e) = r {
            self.fatal = Some((self.cur_key, e));
            return false;
        }
        self.collect_sink();
        self.seal(m, self.cur_key, false);
        true
    }

    /// Dispatches the analyzer's pending events, then seals all resulting
    /// effects as one block under `key`.
    fn dispatch(&mut self, key: Key, tail: bool) {
        if !self.analyzer.has_events() {
            return;
        }
        let m = self.out.effects.mark();
        let errors = &mut self.out.effects.flow_errors;
        if let Err(e) = self
            .analyzer
            .dispatch(key.major, self.cur_uid.as_ref(), errors)
        {
            self.fatal = Some((key, e));
        }
        self.collect_sink();
        self.collect_host_effects();
        self.seal(m, key, tail);
    }

    /// Removes an ended connection, sealing the handler's effects as one
    /// block under `key`.
    fn remove(&mut self, uid: &Arc<str>, key: Key, ts: Time) {
        if self.fatal.is_some() {
            return;
        }
        let m = self.out.effects.mark();
        let errors = &mut self.out.effects.flow_errors;
        if let Err(e) = self.analyzer.remove_connection(uid, key.major, ts, errors) {
            self.fatal = Some((key, e));
        }
        self.collect_sink();
        self.collect_host_effects();
        self.seal(m, key, false);
    }

    /// Seals everything appended since `start` as one block under `key`.
    /// Empty blocks are dropped; `tail` selects the second sorted stream
    /// (end-of-trace dispatch majors, which interleave with later parse
    /// majors in key order).
    fn seal(&mut self, start: Mark, key: Key, tail: bool) {
        // Everything up to here survives a later panic (the salvage
        // point), whether or not this particular block is empty.
        let end = self.out.effects.mark();
        self.sealed_high = end;
        if start != end {
            let blocks = if tail {
                &mut self.out.tail
            } else {
                &mut self.out.main
            };
            blocks.push(EffectBlock { key, start, end });
        }
    }

    /// Appends everything the shard sink collected since the last call
    /// (engine events raised while parsing or dispatching).
    fn collect_sink(&mut self) {
        let Some(t) = &self.analyzer.wiring.telemetry else {
            return;
        };
        let new = t.sink.events_since(self.sink_cursor);
        self.sink_cursor += new.len();
        self.out
            .effects
            .events
            .extend(new.iter().map(|ev| ev.to_json()));
    }

    /// Appends new log lines and printed output.
    fn collect_host_effects(&mut self) {
        let host = &mut self.analyzer.host;
        for (i, name) in LOG_STREAMS.iter().enumerate() {
            let lines = host.log_lines_from(name, self.log_cursors[i]);
            self.log_cursors[i] += lines.len();
            self.out.effects.logs[i].extend(lines);
        }
        self.out.effects.output.extend(host.take_output());
    }

    /// What the shard hands back when its ring drains: the `Send` residue
    /// of its state (the `!Send` host/parser state is dropped on the shard
    /// thread).
    fn harvest(mut self) -> ShardReport {
        // The sequential end-of-run bookkeeping that sums correctly across
        // shards. The quarantine *events* are re-emitted by the merge (they
        // trail the whole stream in merged-ledger order), so the shard
        // snapshot carries no events.
        self.analyzer.finish_metrics(&self.out.effects.flow_errors);
        let snapshot = self
            .analyzer
            .wiring
            .telemetry
            .as_ref()
            .map(|t| TelemetrySnapshot {
                events: Vec::new(),
                ..t.snapshot()
            });
        let trace = self
            .analyzer
            .wiring
            .rec
            .as_ref()
            .map(|r| freeze_recorder(r, &self.out.effects.flow_errors, &mut self.postmortems));
        ShardReport {
            out: self.out,
            snapshot: snapshot.unwrap_or_default(),
            n_events: self.analyzer.n_events,
            parse_failures: self.analyzer.parse_failures,
            peak_flow_bytes: self.analyzer.peak_flow_bytes(),
            held_at_end: self.held_at_end.unwrap_or_default(),
            fatal: self.fatal,
            faults: self.faults,
            trace,
            postmortems: self.postmortems,
        }
    }
}

/// All fields are `Send`.
struct ShardReport {
    out: Stream,
    snapshot: TelemetrySnapshot,
    n_events: u64,
    parse_failures: u64,
    peak_flow_bytes: u64,
    held_at_end: HeldState,
    fatal: Option<(Key, RtError)>,
    /// Panics the supervisor caught on this shard (panic payloads).
    faults: Vec<String>,
    /// Frozen flight recorder when [`Governance::tracing`] was on.
    trace: Option<RecorderPart>,
    /// Fault-triggered flight-recorder dumps captured on this shard.
    postmortems: Vec<PostmortemDump>,
}

/// Renders a caught panic payload for the fault record.
fn panic_detail(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Dispatcher-side analysis telemetry: the front end's shared-decision
/// counters plus its `flow_open` / `flow_close` / `timer_expiry` events,
/// stored flat with coalesced blocks (consecutive emits under one key
/// share a block).
#[derive(Default)]
struct DispatcherEvents {
    telemetry: Telemetry,
    out: Stream,
}

impl DispatcherEvents {
    fn emit(&mut self, key: Key, kind: &'static str, uid: &str, ts: Time) {
        let fields = flow_fields(uid, ts);
        let events = &mut self.out.effects.events;
        let start = Mark {
            events: events.len() as u32,
            ..Mark::default()
        };
        events.push(hilti_rt::telemetry::Event { kind, fields }.to_json());
        let end = Mark {
            events: events.len() as u32,
            ..Mark::default()
        };
        // The dispatcher emits in key order, so same-key emits coalesce
        // into the trailing block.
        match self.out.main.last_mut() {
            Some(last) if last.key == key => last.end = end,
            _ => self.out.main.push(EffectBlock { key, start, end }),
        }
    }
}

/// The front end's event sink on the dispatcher: files each event under
/// `key` when telemetry is on.
fn keyed(
    dtel: &mut Option<DispatcherEvents>,
    key: Key,
) -> impl FnMut(&'static str, &str, Time) + '_ {
    move |kind, uid, ts| {
        if let Some(t) = dtel {
            t.emit(key, kind, uid, ts);
        }
    }
}

/// Dispatch-plane metrics (dispatcher side): these describe the transport,
/// not the analysis, and depend on the worker count and batch size — so
/// they feed [`AnalysisResult::dispatch_telemetry`], never the merged
/// analysis snapshot.
struct DispatchMetrics {
    telemetry: Telemetry,
    /// `pipeline.dispatch_batches`: ring submissions across all shards.
    batches: Counter,
    /// `pipeline.batch_fill`: items per submission.
    fill: Histogram,
    /// `pipeline.shard_items.shard{w}`: total items sent to each shard.
    items: Vec<Counter>,
    /// `pipeline.queue_depth.shard{w}`: high-water of the staged batch at
    /// submission time (the dispatcher-side, deterministic view of queue
    /// pressure; true ring occupancy is a data race by construction).
    depth: Vec<Gauge>,
}

impl DispatchMetrics {
    fn new(workers: usize) -> DispatchMetrics {
        let telemetry = Telemetry::new();
        DispatchMetrics {
            batches: telemetry.counter("pipeline.dispatch_batches"),
            fill: telemetry.histogram("pipeline.batch_fill"),
            items: (0..workers)
                .map(|w| telemetry.counter(&format!("pipeline.shard_items.shard{w}")))
                .collect(),
            depth: (0..workers)
                .map(|w| telemetry.gauge(&format!("pipeline.queue_depth.shard{w}")))
                .collect(),
            telemetry,
        }
    }

    fn flushed(&self, w: usize, n: usize) {
        self.batches.inc();
        self.fill.observe(n as u64);
        self.items[w].add(n as u64);
        self.depth[w].set_max(n as u64);
    }
}

/// Replays an HTTP trace through `opts.workers` flow-sharded pipelines.
/// The result is byte-identical to [`crate::pipeline::run_http_analysis_governed`]
/// with the same governance, for every worker count and batch size, except
/// for the `engine.runs` count and timestamps on a trace whose time steps
/// back (see the module doc and ROADMAP "Sequential ≠ N workers").
pub fn run_http_analysis_parallel(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    opts: &PipelineOptions,
) -> RtResult<AnalysisResult> {
    run_parallel(packets, Proto::Http, stack, engine, opts).map(|(r, _)| r)
}

/// Replays a DNS trace through `opts.workers` flow-sharded pipelines, with
/// the same agreement with [`crate::pipeline::run_dns_analysis_governed`]
/// and the same two exceptions as [`run_http_analysis_parallel`].
pub fn run_dns_analysis_parallel(
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
    opts: &PipelineOptions,
) -> RtResult<AnalysisResult> {
    run_parallel(packets, Proto::Dns, stack, engine, opts).map(|(r, _)| r)
}

/// Per-shard shed accounting (kept outside the telemetry registry so the
/// `shed_packets` result field works with telemetry off).
#[derive(Clone, Copy, Default)]
struct ShedStat {
    packets: u64,
    batches: u64,
}

/// The dispatcher's side of the shard rings: per-shard staging buffers
/// (deliveries are pushed in batches, amortizing the cross-thread wakeup)
/// and the overload policy applied when a ring is full.
struct Rings {
    txs: Vec<Producer<ShardItem>>,
    staged: Vec<Vec<ShardItem>>,
    batch: usize,
    overload: OverloadPolicy,
    metrics: Option<DispatchMetrics>,
    shed: Vec<ShedStat>,
    /// Shards whose consumer is gone: they swallow all further traffic;
    /// the join path reports the fault and quarantines their flows.
    dead: Vec<bool>,
    /// Dispatcher-side flight recorder (ring-submission spans).
    rec: Option<SharedRecorder>,
}

impl Rings {
    /// Stages `item` for shard `w`, submitting the batch once it is full.
    fn stage(&mut self, w: usize, item: ShardItem, slot: u64) {
        self.staged[w].push(item);
        if self.staged[w].len() >= self.batch {
            self.flush(w, slot);
        }
    }

    /// Pushes shard `w`'s staged batch onto its ring. The dispatch span
    /// covers the submission (including any backpressure park) and is
    /// attributed to the packet slot that triggered the flush.
    fn flush(&mut self, w: usize, slot: u64) {
        if self.staged[w].is_empty() {
            return;
        }
        let begin = self.rec.is_some().then(monotonic_ns);
        self.submit(w);
        if let (Some(r), Some(b)) = (&self.rec, begin) {
            r.borrow_mut().record(Stage::Dispatch, slot, None, b);
        }
    }

    /// Under [`OverloadPolicy::Block`] this parks while the ring is full —
    /// that backpressure is what bounds dispatcher run-ahead. Under `Shed`
    /// a saturated ring drops the batch's deliveries (counted in `shed`)
    /// and blocking-pushes only the control items, which must always
    /// arrive.
    fn submit(&mut self, w: usize) {
        let (tx, buf) = (&mut self.txs[w], &mut self.staged[w]);
        if self.dead[w] {
            buf.clear();
            return;
        }
        if matches!(self.overload, OverloadPolicy::Shed { .. }) {
            let n = buf.len();
            if tx.try_push_all(buf) {
                if let Some(m) = &self.metrics {
                    m.flushed(w, n);
                }
                return;
            }
            // Saturated (or dead — push_all below detects which): drop the
            // deliveries, keep evictions / flushes / done markers.
            buf.retain(|it| !matches!(it, ShardItem::Delivery(_)));
            let dropped = (n - buf.len()) as u64;
            if dropped > 0 {
                self.shed[w].packets += dropped;
                self.shed[w].batches += 1;
            }
            if buf.is_empty() {
                return;
            }
        }
        if let Some(m) = &self.metrics {
            m.flushed(w, buf.len());
        }
        if !tx.push_all(buf) {
            self.dead[w] = true;
            buf.clear();
        }
    }
}

/// The sharded driver of the delivery core. Also returns
/// [`FlowFrontEnd::bookkeeping`].
pub(crate) fn run_parallel(
    packets: &[RawPacket],
    proto: Proto,
    stack: ParserStack,
    engine: Engine,
    opts: &PipelineOptions,
) -> RtResult<(AnalysisResult, (usize, usize))> {
    let workers = opts.workers.max(1);
    let gov = &opts.governance;
    gov.check_faults(stack, true)?;
    // Under `Shed` the ring itself is the overload bound; the staged
    // batch must fit it or no batch could ever be pushed.
    let ring_cap = match opts.overload {
        OverloadPolicy::Block => opts.batch.max(1).saturating_mul(8).max(512),
        OverloadPolicy::Shed { max_queue_depth } => max_queue_depth.max(1),
    };
    let batch = opts.batch.max(1).min(ring_cap);
    let trace = TraceBuffer::from_packets(packets);
    // Run the expensive front end (script + grammar compilation down to
    // optimized IR) once, here, so its errors surface before any thread
    // spawns; shards only lower bytecode from the shared blueprint.
    let blueprint = Arc::new(Blueprint::build(proto, stack, engine)?);

    // One SPSC ring per shard; each shard thread builds its own `!Send`
    // state, drains the ring in batches, and returns its report on join.
    // A shard that fails to build returns the error instead: its ring's
    // consumer is gone, the dispatcher swallows its traffic, and the error
    // becomes the run's at join. Every item runs under a `catch_unwind`
    // supervision boundary: a panic is contained to the shard (see
    // `ShardState::on_panic`) and the loop keeps draining, so the ring's
    // producer side stays alive.
    let mut txs: Vec<Producer<ShardItem>> = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let (tx, mut rx) = spsc::ring::<ShardItem>(ring_cap);
        let (trace, blueprint, gov) = (trace.clone(), Arc::clone(&blueprint), gov.clone());
        let handle = std::thread::spawn(move || -> RtResult<ShardReport> {
            let mut st = ShardState::new(w, gov, trace, blueprint)?;
            let mut items = Vec::with_capacity(batch);
            while rx.pop_batch(&mut items, batch) > 0 {
                for item in items.drain(..) {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        st.begin(&item);
                        st.process(item);
                    }));
                    if let Err(p) = r {
                        st.on_panic(panic_detail(p));
                    }
                }
            }
            Ok(st.harvest())
        });
        txs.push(tx);
        handles.push(handle);
    }

    let mut dtel = gov.telemetry.then(DispatcherEvents::default);
    // Dispatcher-side flight recorder: decode, ring-submission, and merge
    // spans live here; shard recorders cover queue wait / parse / script.
    let drec = gov
        .tracing
        .then(|| FlightRecorder::new(DISPATCHER).shared());
    let mut rings = Rings {
        txs,
        staged: (0..workers).map(|_| Vec::new()).collect(),
        batch,
        overload: opts.overload,
        metrics: gov.telemetry.then(|| DispatchMetrics::new(workers)),
        shed: vec![ShedStat::default(); workers],
        dead: vec![false; workers],
        rec: drec.clone(),
    };
    let mut front = FlowFrontEnd::new(
        trace.clone(),
        proto,
        stack,
        workers,
        gov,
        dtel.as_ref().map(|t| &t.telemetry),
        drec.clone(),
    );

    for slot in 0..trace.len() {
        let major = slot as u64;
        let flow_key = Key::new(major, PH_FLOW);
        let Some(mut d) = front.ingest(slot, &mut keyed(&mut dtel, flow_key)) else {
            continue;
        };
        let timer_key = Key::new(major, PH_TIMER);
        let expired = front.expire(&d, &mut keyed(&mut dtel, timer_key));
        if drec.is_some() {
            d.begin_ns = monotonic_ns();
        }
        let ts = d.ts;
        rings.stage(d.shard, ShardItem::Delivery(d), major);
        for (minor, (w, uid)) in expired.into_iter().enumerate() {
            let key = Key {
                minor: minor as u32,
                ..Key::new(major, PH_EVICT)
            };
            rings.stage(w, ShardItem::Evict { uid, key, ts }, major);
        }
    }

    // End of trace: flush still-open flows in the front end's order, then
    // `bro_done` on every shard. Each candidate gets a parse major and a
    // dispatch major so all parses precede all dispatches.
    let base = trace.len() as u64;
    let last_ts = front.last_ts;
    let cands = front.finish_candidates();
    let n_cand = cands.len() as u64;
    for (r, (w, uid)) in cands.into_iter().enumerate() {
        let parse_major = base + r as u64;
        let flush = ShardItem::FinishFlow {
            parse_major,
            dispatch_major: parse_major + n_cand,
            uid,
            ts: last_ts,
        };
        rings.stage(w, flush, parse_major);
    }
    let major = base + 2 * n_cand;
    for w in 0..workers {
        rings.staged[w].push(ShardItem::Done { major, ts: last_ts });
        rings.flush(w, major);
    }

    // Closing the rings is the shutdown signal: each shard drains what's
    // buffered, harvests, and returns its report through `join`. A join
    // failure (a panic that escaped the supervision boundary, e.g. in
    // harvest itself) is contained as a structured `ShardFault` instead
    // of unwrapping: the run completes, minus that shard's effects.
    let Rings {
        txs, metrics, shed, ..
    } = rings;
    drop(txs);
    let mut reports: Vec<Option<ShardReport>> = Vec::with_capacity(workers);
    let mut shard_faults: Vec<ShardFault> = Vec::new();
    let mut build_error = None;
    for (w, h) in handles.into_iter().enumerate() {
        let (report, fault) = match h.join() {
            Ok(Ok(r)) => (Some(r), None),
            Ok(Err(e)) => {
                build_error = build_error.or(Some(e));
                (None, None)
            }
            Err(p) => (None, Some(panic_detail(p))),
        };
        let faults = report.iter().flat_map(|r| r.faults.iter().cloned());
        shard_faults.extend(
            faults
                .chain(fault)
                .map(|detail| ShardFault { shard: w, detail }),
        );
        reports.push(report);
    }
    if let Some(e) = build_error {
        return Err(e);
    }

    // An ungoverned error aborts the run with the globally-first failure,
    // exactly as the sequential pipeline's early return would. (Caught
    // panics set `fatal` in this mode, so they abort through here too.)
    let fatals = reports.iter().enumerate().filter_map(|(w, r)| {
        let (k, e) = r.as_ref()?.fatal.as_ref()?;
        Some((*k, w, e))
    });
    if let Some((_, _, e)) = fatals.min_by_key(|(k, w, _)| (*k, *w)) {
        return Err(e.clone());
    }
    if !gov.quarantine {
        if let Some(f) = shard_faults.first() {
            return Err(RtError::runtime(format!(
                "pipeline shard {} terminated unexpectedly: {}",
                f.shard, f.detail
            )));
        }
    }

    // Deterministic epoch merge: each shard contributes two key-sorted
    // block streams (in-trace + end-of-trace-parse, and end-of-trace
    // dispatch + done) and the dispatcher one; ordering the block
    // *descriptors* by `(key, rank)` and concatenating each category's
    // ranges reproduces the sequential emission order without touching
    // individual lines. Only the `bro_done` key repeats across shards;
    // the shard-index rank breaks that tie (dispatcher ranks last, after
    // all shards, though its phases never collide with shard phases).
    let mut streams: Vec<Option<Stream>> = reports
        .iter_mut()
        .map(|r| r.as_mut().map(|r| std::mem::take(&mut r.out)))
        .collect();
    let dispatcher_telemetry = dtel.map(|t| {
        streams.push(Some(t.out));
        t.telemetry
    });
    let mut descs: Vec<(usize, EffectBlock)> = Vec::new();
    for (rank, s) in streams.iter().enumerate() {
        let blocks = s.iter().flat_map(|s| s.main.iter().chain(&s.tail));
        descs.extend(blocks.map(|b| (rank, *b)));
    }
    let merge_begin = drec.as_ref().map(|_| monotonic_ns());
    descs.sort_by_key(|(rank, b)| (b.key, *rank));

    /// Moves `src[start..end]` onto `out`.
    fn splice<T: Default>(out: &mut Vec<T>, src: &mut [T], start: u32, end: u32) {
        let range = &mut src[start as usize..end as usize];
        out.extend(range.iter_mut().map(std::mem::take));
    }
    let mut merged = Effects::default();
    for (rank, EffectBlock { start, end, .. }) in descs {
        let src = streams[rank].as_mut().expect("block from a live stream");
        let src = &mut src.effects;
        for c in 0..3 {
            splice(
                &mut merged.logs[c],
                &mut src.logs[c],
                start.logs[c],
                end.logs[c],
            );
        }
        splice(
            &mut merged.output,
            &mut src.output,
            start.output,
            end.output,
        );
        splice(
            &mut merged.events,
            &mut src.events,
            start.events,
            end.events,
        );
        let errors = &src.flow_errors[start.flow_errors as usize..end.flow_errors as usize];
        merged.flow_errors.extend_from_slice(errors);
    }
    let Effects {
        logs: [http_log, files_log, dns_log],
        output,
        mut flow_errors,
        events: mut merged_events,
    } = merged;
    // Flows owned by a shard that never reported (join failure): no shard
    // ledger exists for them, so the dispatcher quarantines the ones it
    // still tracks post-hoc, in first-seen order, with the sequential
    // pipeline's per-quarantine counter bookkeeping.
    if reports.iter().any(|r| r.is_none()) {
        for (w, uid) in front.tracked() {
            if reports[w].is_none() {
                flow_errors.push(FlowError::shard_panic(&uid, last_ts));
                if let Some(t) = &dispatcher_telemetry {
                    count_quarantine(t, FlowError::SHARD_PANIC);
                }
            }
        }
    }
    // Quarantine events trail the merged stream in merged-ledger order,
    // as in the sequential pipeline.
    if gov.telemetry {
        merged_events.extend(flow_errors.iter().map(|fe| quarantine_event(fe).to_json()));
    }
    if let Some(r) = &drec {
        r.borrow_mut()
            .record(Stage::Merge, front.packets, None, merge_begin.unwrap_or(0));
    }

    let live = || reports.iter().filter_map(|r| r.as_ref());
    let telemetry = match &dispatcher_telemetry {
        Some(t) => {
            // Registered only when a fault happened, so unfaulted parallel
            // snapshots stay byte-identical to sequential ones.
            if !shard_faults.is_empty() {
                t.counter("pipeline.shard_faults")
                    .add(shard_faults.len() as u64);
            }
            let mut parts = vec![t.snapshot()];
            parts.extend(live().map(|r| r.snapshot.clone()));
            TelemetrySnapshot {
                events: merged_events,
                ..TelemetrySnapshot::merge(&parts)
            }
        }
        None => TelemetrySnapshot::default(),
    };
    // Shed accounting is dispatch-plane (it depends on wall-clock ring
    // pressure); counters appear only when shedding happened, so `Block`
    // runs keep their deterministic dispatch snapshot.
    if let Some(m) = &metrics {
        for (w, s) in shed.iter().enumerate().filter(|(_, s)| s.packets > 0) {
            let t = &m.telemetry;
            t.counter(&format!("pipeline.shed_packets.shard{w}"))
                .add(s.packets);
            t.counter(&format!("pipeline.shed_batches.shard{w}"))
                .add(s.batches);
        }
    }
    let dispatch_telemetry = metrics
        .as_ref()
        .map(|m| m.telemetry.snapshot())
        .unwrap_or_default();
    warn_event_drops(&telemetry, "pipeline");
    let (events, parse_failures) = (
        live().map(|r| r.n_events).sum(),
        live().map(|r| r.parse_failures).sum(),
    );
    let peak_flow_bytes = live().map(|r| r.peak_flow_bytes).max().unwrap_or(0);
    let held_at_end = live().fold(HeldState::default(), |acc, r| HeldState {
        parsers: acc.parsers + r.held_at_end.parsers,
        script_entries: acc.script_entries + r.held_at_end.script_entries,
    });
    // Trace side-channel: shard recorder parts plus the dispatcher's own,
    // with shedding dumps taken from the harvested parts — shedding only
    // becomes visible here.
    let trace_report = drec.map(|dr| {
        let mut parts: Vec<RecorderPart> = Vec::new();
        let mut posts: Vec<PostmortemDump> = Vec::new();
        for (w, rep) in reports.iter_mut().enumerate() {
            let Some(rep) = rep.as_mut() else { continue };
            posts.append(&mut rep.postmortems);
            if let Some(part) = rep.trace.take() {
                if shed[w].packets > 0 {
                    posts.push(
                        part.postmortem(&format!("shed: {} packet(s) dropped", shed[w].packets)),
                    );
                }
                parts.push(part);
            }
        }
        parts.push(freeze_recorder(&dr, &[], &mut posts));
        TraceReport::from_parts(parts, posts)
    });

    let result = AnalysisResult {
        http_log,
        files_log,
        dns_log,
        output,
        events,
        packets: front.packets,
        flow_errors,
        flows_expired: front.flows_expired,
        peak_flow_bytes,
        parse_failures,
        held_at_end,
        telemetry,
        dispatch_telemetry,
        shard_faults,
        shed_packets: shed.iter().map(|s| s.packets).sum(),
        trace: trace_report,
    };
    Ok((result, front.bookkeeping()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_sequential;
    use netpkt::synth::{dns_trace, SynthConfig};

    /// Every field the differential suites compare, rendered.
    fn fingerprint(r: &AnalysisResult) -> String {
        format!(
            "{:?}",
            (
                (&r.http_log, &r.files_log, &r.dns_log, &r.output),
                (&r.flow_errors, r.events, r.packets, r.flows_expired),
                (r.peak_flow_bytes, r.parse_failures, &r.shard_faults),
                (r.shed_packets, r.telemetry.to_json()),
            )
        )
    }

    #[test]
    fn bookkeeping_stays_bounded_under_idle_timeout() {
        // 5 000 two-packet flows, 0.8 ms apart, 10 ms idle timeout: nearly
        // all of them expire during the run, and the front end's per-flow
        // table must shrink with the flow table instead of keeping one
        // entry (and one live uid) per flow ever seen.
        let trace = dns_trace(&SynthConfig::new(17, 5_000));
        let governance = Governance {
            idle_timeout_ms: Some(10),
            quarantine: true,
            telemetry: true,
            ..Governance::default()
        };
        let (proto, stack, engine) = (Proto::Dns, ParserStack::Standard, Engine::Interpreted);
        let (seq, (tracked, live)) =
            run_sequential(&trace, proto, stack, engine, &governance).expect("sequential");
        assert!(seq.flows_expired > 4_000, "{}", seq.flows_expired);
        assert!(live < 100, "{live} flows still in the flow table");
        assert!(
            tracked <= live,
            "sequential: {tracked} tracked, {live} live"
        );
        for workers in [1, 4] {
            let opts = PipelineOptions {
                workers,
                governance: governance.clone(),
                ..Default::default()
            };
            let (par, (tracked, live)) =
                run_parallel(&trace, proto, stack, engine, &opts).expect("parallel");
            assert!(
                tracked <= live,
                "x{workers}: {tracked} tracked, {live} live"
            );
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&par),
                "x{workers} vs sequential"
            );
        }
    }
}
