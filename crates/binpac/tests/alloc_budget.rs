//! Allocation budget of the generated parsers, as exact counts.
//!
//! The paper attributes BinPAC++'s overhead to "frequent instantiation of
//! dynamic objects during the parsing process" (§6.4). What a generated
//! parser allocates per PDU should therefore be proportional to the values
//! it produces — unit structs, field values, events — and never to how
//! often it names a struct field. These tests count heap allocations with
//! a wrapping global allocator (per thread, so the parallel test harness
//! does not disturb the counts) and hold the seeded DNS and HTTP traces to
//! recorded budgets; a count is host-independent and repeats exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use binpac::analyzer::{BinpacAnalyzer, Protocol};
use binpac::dns::DNS;
use binpac::http::HTTP;
use hilti::host::Program;
use hilti::passes::OptLevel;
use hilti::Value;
use hilti_rt::time::Time;
use netpkt::decode::decode_frame;
use netpkt::events::Event;
use netpkt::flow::{FlowDeliveryShared, FlowTable};
use netpkt::pcap::RawPacket;
use netpkt::synth::{dns_trace, http_trace, SynthConfig};
use netpkt::TraceBuffer;

/// Allocations per DNS datagram handed to `BinpacAnalyzer::datagram_chunk` on
/// `dns_trace(11, 2_000)`. Was 416.4 while every `struct.get`/`struct.set`
/// cloned the unit's field-name list, 66.51 while a tuple (every
/// `parse_*` return) took two allocations, 61.54 while every
/// `parse_*` returned one, pinned at 58.62 while the pin was rounded up
/// to two decimals, and 58.6141 (226 309) while a name label went through
/// `bytes.sub` and `bytes.to_string` and every string took two
/// allocations. Exact: 140 788 allocations over 3 861 datagrams
/// (36.46413); one more reads 36.46439.
const DNS_ALLOCS_PER_PDU: f64 = 36.4642;
/// Allocations per payload-carrying delivery fed to `BinpacAnalyzer` on
/// `http_trace(11, 300)`. Was 100.25 with two allocations per tuple,
/// 77.29 while every `parse_*` returned one, 73.42 while every token
/// match returned its pattern index and end as a tuple, 54.31 while
/// HEAD suppression queued a copy of every request's method, pinned at
/// 53.97 while the pin was rounded up to two decimals, and 53.9637
/// (93 573) while every string took two allocations. Exact: 89 173
/// allocations over 1 734 deliveries (51.42618); one more reads 51.42676.
const HTTP_ALLOCS_PER_PDU: f64 = 51.4262;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds
// (`try_with` tolerates a thread whose locals are already torn down).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Parse-side totals of one pass over a trace.
#[derive(Debug, Default, PartialEq)]
struct Pass {
    pdus: u64,
    allocs: u64,
    events: u64,
}

impl Pass {
    fn per_pdu(&self) -> f64 {
        self.allocs as f64 / self.pdus as f64
    }
}

/// One pass of `packets` through `parse`, the way the pipelines deliver
/// them — zero-copy arena chunks out of the flow table — counting only
/// what the parser stack allocates (feeding, parsing, event building).
fn replay(
    packets: &[RawPacket],
    mut parse: impl FnMut(&FlowDeliveryShared<'_>, Time, &Arc<TraceBuffer>, &mut Vec<Event>),
) -> Pass {
    let trace = TraceBuffer::from_packets(packets);
    let mut flows = FlowTable::new();
    let mut events: Vec<Event> = Vec::new();
    let mut pass = Pass::default();
    for frame_idx in 0..trace.len() {
        let (frame_data, ts) = trace.frame(frame_idx);
        let Ok(d) = decode_frame(frame_data, ts) else {
            continue;
        };
        let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
        if delivery.payload.is_empty() && !delivery.finished_now {
            continue;
        }
        events.clear();
        let before = allocs();
        parse(&delivery, ts, &trace, &mut events);
        pass.allocs += allocs() - before;
        pass.pdus += u64::from(!delivery.payload.is_empty());
        pass.events += events.len() as u64;
    }
    pass
}

fn analyzer(proto: &'static Protocol) -> BinpacAnalyzer {
    let ir = BinpacAnalyzer::front_end(proto, OptLevel::Full).unwrap();
    BinpacAnalyzer::from_ir(&ir, None).unwrap()
}

fn dns_pass(bp: &mut BinpacAnalyzer, packets: &[RawPacket]) -> Pass {
    replay(packets, |d, ts, trace, events| {
        bp.datagram_chunk(&d.flow.uid, d.flow.id, ts, d.payload.feed_chunk(trace))
            .expect("no governance limit is armed");
        bp.drain_events_into(events);
    })
}

fn http_pass(bp: &mut BinpacAnalyzer, packets: &[RawPacket]) -> Pass {
    replay(packets, |d, ts, trace, events| {
        let (uid, id) = (&d.flow.uid, d.flow.id);
        if !d.payload.is_empty() {
            bp.feed_chunk(uid, id, d.is_orig, ts, d.payload.feed_chunk(trace))
                .expect("no governance limit is armed");
        }
        if d.finished_now {
            bp.finish_conn(uid, id, ts).expect("finish");
        }
        bp.drain_events_into(events);
    })
}

#[test]
fn dns_datagrams_stay_within_the_allocation_budget() {
    let packets = dns_trace(&SynthConfig::new(11, 2_000));
    let mut bp = analyzer(&DNS);
    // The first pass pays what is paid once per program — field sites
    // filling; the second is the steady state.
    let warm = dns_pass(&mut bp, &packets);
    let steady = dns_pass(&mut bp, &packets);
    eprintln!("dns: {:.4} allocations per datagram", steady.per_pdu());
    assert!(steady.pdus > 3_500, "{steady:?}");
    assert_eq!(warm.events, steady.events);
    assert!(
        steady.per_pdu() <= DNS_ALLOCS_PER_PDU,
        "{:.4} allocations per DNS datagram, budget {DNS_ALLOCS_PER_PDU}: {steady:?}",
        steady.per_pdu()
    );
    // An exact count: a third pass repeats the second to the allocation.
    assert_eq!(dns_pass(&mut bp, &packets), steady);
}

#[test]
fn http_deliveries_stay_within_the_allocation_budget() {
    let packets = http_trace(&SynthConfig::new(11, 300));
    let mut bp = analyzer(&HTTP);
    let warm = http_pass(&mut bp, &packets);
    let steady = http_pass(&mut bp, &packets);
    eprintln!("http: {:.4} allocations per delivery", steady.per_pdu());
    assert!(steady.pdus > 1_000, "{steady:?}");
    assert_eq!(warm.events, steady.events);
    assert!(
        steady.per_pdu() <= HTTP_ALLOCS_PER_PDU,
        "{:.4} allocations per HTTP delivery, budget {HTTP_ALLOCS_PER_PDU}: {steady:?}",
        steady.per_pdu()
    );
    assert_eq!(http_pass(&mut bp, &packets), steady);
}

#[test]
fn struct_field_access_allocates_nothing_per_access() {
    const SRC: &str = r#"
module M
type Pair = struct { int<64> a, int<64> b, int<64> c, int<64> d }

any make() {
    local any s
    s = new Pair
    struct.set s d 0
    return s
}

int<64> churn(any s, int<64> n) {
    local int<64> i
    local int<64> v
    local bool more
    i = assign 0
loop:
    v = struct.get s d
    v = int.add v 1
    struct.set s d v
    i = int.add i 1
    more = int.lt i n
    if.else more loop done
done:
    return v
}
"#;
    let mut p = Program::from_sources(&[SRC], OptLevel::Full).unwrap();
    let churn = p.func_id("M::churn").unwrap();
    let s = p.run("M::make", &[]).unwrap();
    let mut cost = |n: i64| {
        let before = allocs();
        let v = p.run_id(churn, &[s.clone(), Value::Int(n)]).unwrap();
        (allocs() - before, v.as_int().unwrap())
    };
    // Warm: the two field sites fill.
    let (_, total) = cost(5_000);
    assert_eq!(total, 5_000);
    // A call's fixed cost (frame, argument buffer) — and not one
    // allocation more for a thousand times the struct traffic.
    let (one, _) = cost(1);
    let (thousand, total) = cost(1_000);
    assert_eq!(total, 6_001);
    assert_eq!(
        thousand, one,
        "1000 get/set pairs allocated {thousand}, one pair {one}"
    );
}
