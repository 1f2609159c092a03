//! In-memory spans: the record, the recorder, and per-layer aggregation.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; nothing inside the crates is instrumented. They stay in a
//! pre-sized vector until the run ends.

use std::time::Instant;

use crate::alloc;

/// Where a span's time is spent. The name is `<crate>.<call group>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The whole traced replay; parent of everything else.
    Run,
    /// Script + grammar compilation and host construction.
    Compile,
    /// `TraceBuffer::from_packets`.
    Load,
    /// One packet, from decode to the last event dispatched for it.
    Delivery,
    Decode,
    Flow,
    HttpParse,
    BinpacParse,
    Script,
    /// `done()` and reading the logs out.
    Finish,
    /// `HiltiFirewall::compile`.
    FwCompile,
    /// `HiltiFirewall::match_packet`, by what the oracle says the packet
    /// did: found dynamic state, matched a rule, or matched nothing.
    FwStateHit,
    FwRuleHit,
    FwMiss,
}

pub const LAYERS: [Layer; 14] = [
    Layer::Run,
    Layer::Compile,
    Layer::Load,
    Layer::Delivery,
    Layer::Decode,
    Layer::Flow,
    Layer::HttpParse,
    Layer::BinpacParse,
    Layer::Script,
    Layer::Finish,
    Layer::FwCompile,
    Layer::FwStateHit,
    Layer::FwRuleHit,
    Layer::FwMiss,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "benchmark.run",
            Layer::Compile => "hilti.compile",
            Layer::Load => "netpkt.load",
            Layer::Delivery => "broscript.delivery",
            Layer::Decode => "netpkt.decode",
            Layer::Flow => "netpkt.flow",
            Layer::HttpParse => "netpkt.http_parse",
            Layer::BinpacParse => "binpac.parse",
            Layer::Script => "broscript.script",
            Layer::Finish => "broscript.finish",
            Layer::FwCompile => "hilti-firewall.compile",
            Layer::FwStateHit => "hilti-firewall.state_hit",
            Layer::FwRuleHit => "hilti-firewall.rule_hit",
            Layer::FwMiss => "hilti-firewall.miss",
        }
    }
}

pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one ([`NONE`] for the root).
    pub parent: u32,
    /// Index of the packet being processed ([`NONE`] outside the loop).
    pub packet_idx: u32,
}

/// A span being timed: start time and allocation count at its start.
pub struct Mark(u64, u64);

/// In-memory span recorder. Switched off it reads no clock and records
/// nothing, which gives the untraced staged time that tracing overhead is
/// measured against.
pub struct Tracer {
    on: bool,
    count_allocs: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    /// Allocation calls inside leaf spans, by layer (only when counting).
    pub allocs: [u64; LAYERS.len()],
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, false, 0)
    }

    /// `packets` sizes the span vector so recording never reallocates.
    pub fn on(packets: usize, count_allocs: bool) -> Tracer {
        Tracer::new(true, count_allocs, packets)
    }

    fn new(on: bool, count_allocs: bool, packets: usize) -> Tracer {
        Tracer {
            on,
            count_allocs,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { packets * 8 + 64 } else { 0 }),
            allocs: [0; LAYERS.len()],
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&self) -> Mark {
        if !self.on {
            return Mark(0, 0);
        }
        let allocs = if self.count_allocs {
            alloc::allocs()
        } else {
            0
        };
        Mark(self.now(), allocs)
    }

    pub fn end(&mut self, mark: Mark, layer: Layer, parent: u32, packet_idx: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        if self.count_allocs {
            self.allocs[layer as usize] += alloc::allocs() - mark.1;
        }
        self.spans.push(Span {
            layer,
            start_ns: mark.0,
            end_ns,
            parent,
            packet_idx,
        });
    }

    /// Opens a container span; children name it as their parent.
    pub fn open(&mut self, layer: Layer, parent: u32, packet_idx: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            packet_idx,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        if self.on {
            self.spans[idx as usize].end_ns = self.now();
        }
    }
}

/// Busy time and call count of one layer, summed over a run's spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct Busy {
    pub ns: u64,
    pub count: u64,
}

/// Per-layer aggregates of one traced run.
pub struct Aggregate {
    pub busy: [Busy; LAYERS.len()],
    /// Delivery time not covered by a child span: the pipeline's own glue.
    pub delivery_self_ns: u64,
    /// Share of the run span's time spent inside a span below it.
    pub coverage: f64,
    pub delivery_p50_ns: u64,
    pub delivery_p99_ns: u64,
}

impl Aggregate {
    pub fn of(&self, layer: Layer) -> Busy {
        self.busy[layer as usize]
    }
}

pub fn aggregate(spans: &[Span]) -> Aggregate {
    let mut busy = [Busy::default(); LAYERS.len()];
    let mut child_ns: Vec<u64> = vec![0; spans.len()];
    for s in spans {
        let b = &mut busy[s.layer as usize];
        b.ns += s.end_ns - s.start_ns;
        b.count += 1;
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut deliveries: Vec<u64> =
        Vec::with_capacity(busy[Layer::Delivery as usize].count as usize);
    let mut delivery_self_ns = 0;
    for (s, children) in spans.iter().zip(&child_ns) {
        if s.layer == Layer::Delivery {
            let dur = s.end_ns - s.start_ns;
            deliveries.push(dur);
            delivery_self_ns += dur.saturating_sub(*children);
        }
    }
    deliveries.sort_unstable();
    let pct = |p: usize| {
        deliveries
            .get(deliveries.len() * p / 100)
            .copied()
            .unwrap_or(0)
    };
    // Time inside any span below the root; the rest is the replay loop
    // itself and the recorder's own clock reads.
    let covered_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    Aggregate {
        coverage: covered_ns as f64 / busy[Layer::Run as usize].ns.max(1) as f64,
        delivery_p50_ns: pct(50),
        delivery_p99_ns: pct(99),
        delivery_self_ns,
        busy,
    }
}
