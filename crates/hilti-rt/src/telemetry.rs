//! Unified telemetry: metrics registry and structured event sink.
//!
//! The paper's evaluation (§6) attributes cost to components; keeping that
//! attribution honest as the runtime grows tiers (specialized bytecode,
//! governance) needs cheap, always-on instrumentation. This module is the
//! shared substrate: a [`Registry`] of named counters/gauges/histograms
//! whose handles are pre-interned `Arc<AtomicU64>`s — hot paths touch one
//! relaxed atomic and never allocate — plus an [`EventSink`] that records
//! structured events (flow open/close, parser error, quarantine, timer
//! expiry, fiber suspend/resume, resource-limit trips) and renders them as
//! JSONL.
//!
//! Everything here is counting-based and deterministic: a
//! [`TelemetrySnapshot`] contains no wall-time fields, so two runs over the
//! same input produce byte-identical JSON. Wall-clock attribution lives in
//! the flight recorder ([`crate::trace`]), a side channel next to it.
//!
//! The metric and event names wired through the engines and the analysis
//! pipeline are a stable interface, documented in DESIGN.md
//! ("Observability").

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::unpoison;

/// Events buffered per sink before further emissions are counted as
/// dropped instead of stored. Generous for any test trace; bounds memory
/// on pathological inputs.
const EVENT_CAP: usize = 1 << 18;

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// whose bit width is `i`, i.e. `v == 0` lands in bucket 0 and
/// `u64::MAX` in bucket 64.
const BUCKETS: usize = 65;

/// A monotonically increasing counter handle. Cloning shares the cell;
/// incrementing is one relaxed atomic add.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins cell with a saturating `set_max` for tracking peaks.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger than the current value.
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A power-of-two histogram: values are bucketed by bit width, so the
/// bucket upper bounds are 0, 1, 3, 7, … `u64::MAX`. Recording touches
/// three relaxed atomics and never allocates.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; BUCKETS]>,
    count: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile of the observed values. See
    /// [`HistogramSnapshot::quantile`] for the interpolation contract.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                buckets.push((upper, n));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metrics registry. Interning a name allocates once; subsequent
/// lookups by `&str` take the lock but allocate nothing, and the returned
/// handles bypass the registry entirely. Clones share state.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or retrieves) the counter `name` and returns its handle.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = unpoison(self.inner.lock());
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.insert(name.to_owned(), c.clone());
        c
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = unpoison(self.inner.lock());
        if let Some(g) = inner.gauges.get(name) {
            return g.clone();
        }
        let g = Gauge::default();
        inner.gauges.insert(name.to_owned(), g.clone());
        g
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = unpoison(self.inner.lock());
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = Histogram::default();
        inner.histograms.insert(name.to_owned(), h.clone());
        h
    }

    /// Current value of a counter, zero if it was never interned.
    pub fn counter_value(&self, name: &str) -> u64 {
        unpoison(self.inner.lock())
            .counters
            .get(name)
            .map_or(0, Counter::get)
    }

    /// All counters with a non-zero value, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        unpoison(self.inner.lock())
            .counters
            .iter()
            .filter(|(_, c)| c.get() > 0)
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// Zeroes every metric. Handles stay valid and keep pointing at the
    /// same (now zeroed) cells.
    pub fn reset(&self) {
        let inner = unpoison(self.inner.lock());
        for c in inner.counters.values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in inner.gauges.values() {
            g.0.store(0, Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }
}

/// A single structured event field value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    Str(String),
    U64(u64),
    I64(i64),
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

/// One structured event: a kind plus ordered fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub kind: &'static str,
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders the event as one JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"event\":{}", json::quote(self.kind));
        for (k, v) in &self.fields {
            s.push(',');
            s.push_str(&json::quote(k));
            s.push(':');
            match v {
                FieldValue::Str(t) => s.push_str(&json::quote(t)),
                FieldValue::U64(n) => {
                    let _ = write!(s, "{n}");
                }
                FieldValue::I64(n) => {
                    let _ = write!(s, "{n}");
                }
            }
        }
        s.push('}');
        s
    }
}

#[derive(Default)]
struct SinkInner {
    events: Vec<Event>,
    dropped: u64,
}

/// A bounded, shared buffer of structured events. Clones share the buffer.
#[derive(Clone, Default)]
pub struct EventSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl EventSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event; field order is preserved in the JSONL output.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        let mut inner = unpoison(self.inner.lock());
        if inner.events.len() >= EVENT_CAP {
            inner.dropped += 1;
            return;
        }
        inner.events.push(Event { kind, fields });
    }

    pub fn len(&self) -> usize {
        unpoison(self.inner.lock()).events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dropped(&self) -> u64 {
        unpoison(self.inner.lock()).dropped
    }

    /// All buffered events, in emission order.
    pub fn events(&self) -> Vec<Event> {
        unpoison(self.inner.lock()).events.clone()
    }

    /// Events from index `start` on, in emission order. Lets incremental
    /// consumers (the sharded pipeline attributing engine events to packet
    /// slots) drain only what is new instead of copying the whole buffer.
    pub fn events_since(&self, start: usize) -> Vec<Event> {
        let inner = unpoison(self.inner.lock());
        inner.events[start.min(inner.events.len())..].to_vec()
    }

    /// Events of one kind, in emission order.
    pub fn events_of(&self, kind: &str) -> Vec<Event> {
        unpoison(self.inner.lock())
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    pub fn clear(&self) {
        let mut inner = unpoison(self.inner.lock());
        inner.events.clear();
        inner.dropped = 0;
    }
}

/// The bundle handed to producers: one registry plus one event sink.
#[derive(Clone, Default)]
pub struct Telemetry {
    pub registry: Registry,
    pub sink: EventSink,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.sink.emit(kind, fields);
    }

    /// Freezes the current state into a deterministic, comparable value.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = unpoison(self.registry.inner.lock());
        let counters = inner
            .counters
            .iter()
            .filter(|(_, c)| c.get() > 0)
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let gauges = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        drop(inner);
        let sink = unpoison(self.sink.inner.lock());
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            events: sink.events.iter().map(Event::to_json).collect(),
            events_dropped: sink.dropped,
        }
    }
}

/// A frozen histogram: non-empty buckets as `(upper_bound, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Lower bound of the bucket whose upper bound is `upper`: power-of-two
    /// buckets hold {0}, {1}, then [2^(i-1), 2^i - 1].
    fn bucket_lower(upper: u64) -> u64 {
        match upper {
            0 | 1 => upper,
            _ => (upper >> 1) + 1,
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) of the observed
    /// values.
    ///
    /// Contract: the target rank is `q * (count - 1)` (0-based, so `q = 0`
    /// is the smallest observation's bucket and `q = 1` the largest's). The
    /// cumulative bucket counts locate the bucket holding that rank, and the
    /// estimate interpolates linearly between the bucket's lower and upper
    /// bound by the rank's fractional position inside the bucket. The result
    /// is therefore always within the correct power-of-two bucket — exact to
    /// the bucket, approximate inside it (buckets are ~2x wide, so the
    /// estimate is within 2x of the true quantile).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * (self.count - 1) as f64;
        let mut cum = 0u64;
        for &(upper, n) in &self.buckets {
            if (cum + n) as f64 > target {
                let lower = Self::bucket_lower(upper);
                let frac = (target - cum as f64) / n as f64;
                let est = lower as f64 + (upper - lower) as f64 * frac;
                return est.min(u64::MAX as f64) as u64;
            }
            cum += n;
        }
        self.buckets.last().map(|&(upper, _)| upper).unwrap_or(0)
    }

    /// Bucket-wise merge of snapshots from independent producers: counts and
    /// sums are added, buckets with equal upper bounds combined.
    pub fn merge(parts: &[HistogramSnapshot]) -> HistogramSnapshot {
        let mut buckets: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut count = 0u64;
        let mut sum = 0u64;
        for p in parts {
            count += p.count;
            sum = sum.wrapping_add(p.sum);
            for &(upper, n) in &p.buckets {
                *buckets.entry(upper).or_default() += n;
            }
        }
        HistogramSnapshot {
            count,
            sum,
            buckets: buckets.into_iter().collect(),
        }
    }
}

/// An immutable, deterministic view of a [`Telemetry`] bundle. Contains
/// no wall-time fields, so equal inputs yield equal snapshots — the
/// determinism tests compare these with `==` and byte-compare the JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Non-zero counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// All histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Events rendered as JSONL lines, in emission order.
    pub events: Vec<String>,
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Merges snapshots from independent producers (e.g. one per pipeline
    /// shard) into one combined view. Counters are summed, gauges
    /// max-merged (they track peaks), histograms merged bucket-wise with
    /// counts and sums added, `events_dropped` summed, and event lists
    /// concatenated in the order given — callers that need a specific
    /// global event order should arrange `parts` (or rewrite `events`)
    /// accordingly.
    pub fn merge(parts: &[TelemetrySnapshot]) -> TelemetrySnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, (u64, u64, BTreeMap<u64, u64>)> = BTreeMap::new();
        let mut events = Vec::new();
        let mut events_dropped = 0u64;
        for p in parts {
            for (n, v) in &p.counters {
                *counters.entry(n.clone()).or_default() += v;
            }
            for (n, v) in &p.gauges {
                let g = gauges.entry(n.clone()).or_default();
                *g = (*g).max(*v);
            }
            for (n, h) in &p.histograms {
                let e = histograms
                    .entry(n.clone())
                    .or_insert_with(|| (0, 0, BTreeMap::new()));
                e.0 += h.count;
                e.1 += h.sum;
                for (upper, c) in &h.buckets {
                    *e.2.entry(*upper).or_default() += c;
                }
            }
            events.extend(p.events.iter().cloned());
            events_dropped += p.events_dropped;
        }
        TelemetrySnapshot {
            counters: counters.into_iter().filter(|(_, v)| *v > 0).collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms
                .into_iter()
                .map(|(n, (count, sum, buckets))| {
                    (
                        n,
                        HistogramSnapshot {
                            count,
                            sum,
                            buckets: buckets.into_iter().collect(),
                        },
                    )
                })
                .collect(),
            events,
            events_dropped,
        }
    }

    /// Value of a counter, zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the snapshot as one deterministic JSON document
    /// (`hilti.telemetry.v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"hilti.telemetry.v1\",\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json::quote(n));
        }
        s.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json::quote(n));
        }
        s.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":{{",
                json::quote(n),
                h.count,
                h.sum
            );
            for (j, (upper, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"le_{upper}\":{c}");
            }
            s.push_str("}}");
        }
        let _ = write!(
            s,
            "}},\"events_dropped\":{},\"events\":[",
            self.events_dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(e);
        }
        s.push_str("]}");
        s
    }

    /// Number of captured events of the given kind.
    pub fn events_of_kind(&self, kind: &str) -> usize {
        let prefix = format!("{{\"event\":{}", json::quote(kind));
        self.events
            .iter()
            .filter(|e| {
                e.strip_prefix(&prefix)
                    .is_some_and(|rest| rest.starts_with(',') || rest.starts_with('}'))
            })
            .count()
    }

    /// The events as a JSONL document (one event per line).
    pub fn events_jsonl(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(e);
            s.push('\n');
        }
        s
    }
}

/// Minimal hand-rolled JSON support: quoting and validation. The repo
/// deliberately takes no JSON dependency; emitters in `hiltic` and the
/// `repro` driver build documents by hand and self-check with
/// [`json::validate`].
pub mod json {
    /// Renders `s` as a quoted JSON string with all required escapes.
    pub fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Validates that `s` is exactly one well-formed JSON value. Returns
    /// a short error description on failure. This is a recognizer, not a
    /// parser — it builds no tree, which is all the artifact self-checks
    /// need.
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, "true"),
            Some(b'f') => literal(b, pos, "false"),
            Some(b'n') => literal(b, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}", pos = *pos))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        if *pos == start {
            Err(format!("bad number at byte {start}"))
        } else {
            Ok(())
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // opening quote
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => *pos += 2,
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_owned())
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '{'
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}", pos = *pos));
            }
            string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        *pos += 1; // '['
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_intern_once() {
        let reg = Registry::new();
        let a = reg.counter("pipeline.packets");
        let b = reg.counter("pipeline.packets");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter_value("pipeline.packets"), 4);
        assert_eq!(reg.counters(), vec![("pipeline.packets".to_owned(), 4)]);
        assert_eq!(reg.counter_value("missing"), 0);
    }

    #[test]
    fn gauges_track_peaks() {
        let reg = Registry::new();
        let g = reg.gauge("peak");
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(255);
        h.observe(256);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 512);
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (255, 1), (511, 1)]);
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().buckets.last().unwrap().0, u64::MAX);
    }

    #[test]
    fn events_render_as_jsonl_in_order() {
        let t = Telemetry::new();
        t.emit(
            "flow_open",
            vec![("uid", "C1".into()), ("ts_ns", 5u64.into())],
        );
        t.emit(
            "quarantine",
            vec![("kind", "Hilti::ResourceExhausted".into())],
        );
        let snap = t.snapshot();
        assert_eq!(
            snap.events,
            vec![
                "{\"event\":\"flow_open\",\"uid\":\"C1\",\"ts_ns\":5}",
                "{\"event\":\"quarantine\",\"kind\":\"Hilti::ResourceExhausted\"}",
            ]
        );
        assert_eq!(snap.events_jsonl().lines().count(), 2);
    }

    #[test]
    fn snapshots_are_deterministic_and_comparable() {
        let mk = || {
            let t = Telemetry::new();
            t.counter("b").add(2);
            t.counter("a").inc();
            t.gauge("g").set_max(9);
            t.histogram("h").observe(100);
            t.emit("parser_error", vec![("uid", "C2".into())]);
            t.snapshot()
        };
        let (x, y) = (mk(), mk());
        assert_eq!(x, y);
        assert_eq!(x.to_json(), y.to_json());
        // Counters render sorted by name regardless of intern order.
        assert_eq!(x.counters, vec![("a".to_owned(), 1), ("b".to_owned(), 2)]);
        assert_eq!(x.counter("b"), 2);
        assert_eq!(x.gauge("g"), 9);
        json::validate(&x.to_json()).expect("snapshot JSON must validate");
    }

    #[test]
    fn zero_counters_are_elided() {
        let t = Telemetry::new();
        t.counter("never");
        t.counter("hit").inc();
        assert_eq!(t.snapshot().counters, vec![("hit".to_owned(), 1)]);
    }

    #[test]
    fn registry_reset_keeps_handles_valid() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.add(5);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter_value("x"), 1);
    }

    #[test]
    fn registry_clones_share_state() {
        let reg = Registry::new();
        let other = reg.clone();
        other.counter("shared").add(2);
        assert_eq!(reg.counter_value("shared"), 2);
        reg.reset();
        assert_eq!(other.counter_value("shared"), 0);
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let sink = EventSink::new();
        for _ in 0..EVENT_CAP + 10 {
            sink.emit("e", vec![]);
        }
        assert_eq!(sink.len(), EVENT_CAP);
        assert_eq!(sink.dropped(), 10);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn sink_drop_counting_survives_concurrent_clones() {
        // Stress the overflow accounting: many threads hammer clones of one
        // sink well past EVENT_CAP; every emit must be either buffered or
        // counted as dropped, never lost.
        let sink = EventSink::new();
        let threads = 8usize;
        let per_thread = EVENT_CAP / 4; // 8 * cap/4 = 2x the cap in total
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = sink.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        s.emit("stress", vec![]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = (threads * per_thread) as u64;
        assert_eq!(sink.len(), EVENT_CAP);
        assert_eq!(sink.dropped(), total - EVENT_CAP as u64);
    }

    #[test]
    fn quantile_of_point_mass_stays_in_bucket() {
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(100); // bucket [64, 127]
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((64..=127).contains(&v), "q={q} -> {v}");
        }
        assert_eq!(h.quantile(0.0), 64); // rank 0, no intra-bucket offset
    }

    #[test]
    fn quantile_splits_bimodal_distribution() {
        // 50 observations of 1, 50 of 1000 (bucket [512, 1023]).
        let h = Histogram::default();
        for _ in 0..50 {
            h.observe(1);
            h.observe(1000);
        }
        // Ranks 0..=49 live in the {1} bucket: p25 and even p50 (target rank
        // 49.5 is still inside the first bucket's cumulative range).
        assert_eq!(h.quantile(0.25), 1);
        assert_eq!(h.quantile(0.5), 1);
        // p75 and up land in the [512, 1023] bucket.
        for q in [0.75, 0.99] {
            let v = h.quantile(q);
            assert!((512..=1023).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn quantile_is_monotone_and_bucket_exact_on_uniform() {
        let h = Histogram::default();
        for v in 0..1024u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // True p99 is ~1013; the estimate must land in its bucket.
        assert!((512..=1023).contains(&p99), "{p99}");
        // True p50 is ~511; buckets are power-of-two so the estimate may sit
        // in [256,511] or [512,1023].
        assert!((256..=1023).contains(&p50), "{p50}");
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0); // empty
        h.observe(0);
        h.observe(0);
        assert_eq!(h.quantile(1.0), 0); // zero bucket
        let single = Histogram::default();
        single.observe(u64::MAX);
        let v = single.quantile(0.5);
        assert!(v >= u64::MAX / 2); // top bucket, no overflow
    }

    #[test]
    fn histogram_snapshot_merge_combines_buckets() {
        let a = Histogram::default();
        a.observe(100);
        a.observe(3);
        let b = Histogram::default();
        b.observe(100);
        let m = HistogramSnapshot::merge(&[a.snapshot(), b.snapshot()]);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 203);
        assert!(m.buckets.contains(&(127, 2)), "{:?}", m.buckets);
        assert!(m.buckets.contains(&(3, 1)), "{:?}", m.buckets);
        // Quantiles work on merged snapshots.
        assert!((64..=127).contains(&m.quantile(1.0)));
    }

    #[test]
    fn events_since_reads_incrementally() {
        let sink = EventSink::new();
        sink.emit("a", vec![]);
        sink.emit("b", vec![]);
        assert_eq!(sink.events_since(1).len(), 1);
        assert_eq!(sink.events_since(1)[0].kind, "b");
        assert!(sink.events_since(2).is_empty());
        assert!(sink.events_since(99).is_empty());
        sink.emit("c", vec![]);
        assert_eq!(sink.events_since(2)[0].kind, "c");
    }

    #[test]
    fn snapshot_merge_sums_counters_maxes_gauges_merges_buckets() {
        let mk = |c: u64, g: u64, obs: &[u64]| {
            let t = Telemetry::new();
            t.counter("pipeline.packets").add(c);
            t.gauge("pipeline.peak").set_max(g);
            for &v in obs {
                t.histogram("pipeline.payload_bytes").observe(v);
            }
            t.emit("e", vec![("n", c.into())]);
            t.snapshot()
        };
        let a = mk(3, 10, &[1, 255]);
        let b = mk(4, 7, &[255, 300]);
        let m = TelemetrySnapshot::merge(&[a.clone(), b.clone()]);
        assert_eq!(m.counter("pipeline.packets"), 7);
        assert_eq!(m.gauge("pipeline.peak"), 10);
        let h = &m.histograms[0].1;
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 811);
        // Bucket (255, 1) from each part combines into (255, 2).
        assert!(h.buckets.contains(&(255, 2)), "{:?}", h.buckets);
        // Events concatenate in part order; drops sum.
        assert_eq!(m.events.len(), 2);
        assert_eq!(m.events_dropped, 0);
        // Merging one part is the identity.
        assert_eq!(TelemetrySnapshot::merge(std::slice::from_ref(&a)), a);
        // Merge order does not affect the metric view.
        let m2 = TelemetrySnapshot::merge(&[b, a]);
        assert_eq!(m.counters, m2.counters);
        assert_eq!(m.gauges, m2.gauges);
        assert_eq!(m.histograms, m2.histograms);
    }

    #[test]
    fn snapshot_merge_of_nothing_is_default() {
        assert_eq!(TelemetrySnapshot::merge(&[]), TelemetrySnapshot::default());
    }

    #[test]
    fn json_quote_escapes() {
        assert_eq!(json::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json::quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_validate_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3,true,false,null],\"b\":{\"c\":\"d\"}}",
            "  42  ",
            "\"str\"",
        ] {
            json::validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in ["{", "{\"a\":}", "[1,]", "{\"a\":1} extra", "{'a':1}", ""] {
            assert!(json::validate(bad).is_err(), "{bad} should fail");
        }
    }
}
