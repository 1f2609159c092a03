//! Allocation budget of script execution, as exact counts.
//!
//! What a compiled handler allocates per event should be the values it
//! produces — the log line, the strings it stores — and nothing per operand
//! it reads, per table it probes or per builtin it calls. These tests count
//! heap allocations (per thread, so the parallel test harness does not
//! disturb the counts) around the two dispatches that end a transaction in
//! the bundled scripts — `http_message_done` for a reply and `dns_reply` —
//! and hold them to recorded budgets. The counts include turning the host
//! event into script values; they are host-independent and repeat exactly.
//!
//! [`whole_pipeline_allocations_do_not_rise`] counts the same way around
//! whole sequential analyses — decode, flow table, reassembly, parser and
//! scripts, setup included — on the Standard HTTP, BinPAC++ DNS and
//! BinPAC++ HTTP paths, and fails on any increase over the pinned count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use broscript::host::{Engine, ScriptHost};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Governance, ParserStack,
};
use broscript::scripts::{DNS_BRO, HTTP_BRO};
use hilti_rt::addr::{Addr, Port};
use hilti_rt::time::Time;
use hilti_rt::RtResult;
use netpkt::events::{ConnId, DnsAnswer, Event};
use netpkt::pcap::RawPacket;
use netpkt::synth::{dns_trace, http_trace, throughput_trace, SynthConfig};

/// Transactions measured, after the same number of warm-up ones.
const TRANSACTIONS: u64 = 256;

/// Allocations of [`TRANSACTIONS`] reply-side `http_message_done`
/// dispatches (two log lines, a MIME sniff and a SHA-1 over a 120-byte
/// body each): 19.01 per dispatch. Was 111.01 per dispatch while every operand
/// was cloned, every table probe copied its key, and `cat` and `sha1`
/// built a string per argument and per digest byte.
const HTTP_MESSAGE_DONE_ALLOCS: u64 = 4_866;
/// Allocations of [`TRANSACTIONS`] `dns_reply` dispatches with two answers
/// (one log line each): 26.00 per dispatch. Was 72.96.
const DNS_REPLY_ALLOCS: u64 = 6_657;

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

fn counted(host: &mut ScriptHost, ev: &Event) -> u64 {
    let before = ALLOCS.with(Cell::get);
    host.dispatch_event(ev)
        .expect("no governance limit is armed");
    ALLOCS.with(Cell::get) - before
}

fn conn(n: u64) -> (Arc<str>, ConnId) {
    let id = ConnId {
        orig_h: Addr::v4(10, 0, (n >> 8) as u8, n as u8),
        orig_p: Port::tcp(40_000),
        resp_h: Addr::v4(93, 184, 216, 34),
        resp_p: Port::tcp(80),
    };
    (Arc::from(format!("C{n:05}").as_str()), id)
}

/// One HTTP transaction on its own connection; returns what the reply-side
/// `http_message_done` allocated.
fn http_transaction(host: &mut ScriptHost, n: u64) -> u64 {
    let (uid, id) = conn(n);
    let ts = Time::from_nanos(1_000_000 * (n + 1));
    let header = |is_orig, name: &str, value: &str| Event::HttpHeader {
        ts,
        uid: uid.clone(),
        is_orig,
        name: name.into(),
        value: value.into(),
    };
    let done = |is_orig, body_len| Event::HttpMessageDone {
        ts,
        uid: uid.clone(),
        is_orig,
        body_len,
    };
    let body = b"<html><body>hello, world</body></html>".repeat(4)[..120].to_vec();
    for ev in [
        Event::HttpRequest {
            ts,
            uid: uid.clone(),
            id,
            method: "GET".into(),
            uri: "/index.html".into(),
            version: "1.1".into(),
        },
        header(true, "Host", "example.com"),
        done(true, 0),
        Event::HttpReply {
            ts,
            uid: uid.clone(),
            id,
            status: 200,
            reason: "OK".into(),
            version: "1.1".into(),
        },
        header(false, "Content-Type", "text/html"),
        Event::HttpBodyData {
            ts,
            uid: uid.clone(),
            is_orig: false,
            data: body,
        },
    ] {
        host.dispatch_event(&ev).unwrap();
    }
    counted(host, &done(false, 120))
}

/// One DNS query and its two-answer reply; returns what `dns_reply`
/// allocated.
fn dns_transaction(host: &mut ScriptHost, n: u64) -> u64 {
    let (uid, id) = conn(n);
    let ts = Time::from_nanos(1_000_000 * (n + 1));
    host.dispatch_event(&Event::DnsRequest {
        ts,
        uid: uid.clone(),
        id,
        trans_id: n as u16,
        query: "www.example.com".into(),
        qtype: 1,
    })
    .unwrap();
    let answer = |rdata: &str| DnsAnswer {
        name: "www.example.com".into(),
        rtype: 1,
        ttl: 300,
        rdata: rdata.into(),
    };
    counted(
        host,
        &Event::DnsReply {
            ts,
            uid,
            id,
            trans_id: n as u16,
            rcode: 0,
            answers: vec![answer("93.184.216.34"), answer("93.184.216.35")],
        },
    )
}

/// Allocations of the measured dispatch over [`TRANSACTIONS`] transactions
/// of a fresh host, after as many warm-up ones (tables and logs reach their
/// working size; whatever they still grow by is part of the count and is
/// the same on every run).
fn steady_state(script: &str, transaction: fn(&mut ScriptHost, u64) -> u64) -> u64 {
    let mut host = ScriptHost::new(&[script], Engine::Compiled, None).unwrap();
    for n in 0..TRANSACTIONS {
        transaction(&mut host, n);
    }
    (TRANSACTIONS..2 * TRANSACTIONS)
        .map(|n| transaction(&mut host, n))
        .sum()
}

fn hold(what: &str, total: u64, again: u64, budget: u64) {
    let per_dispatch = total as f64 / TRANSACTIONS as f64;
    eprintln!("{what}: {total} allocations, {per_dispatch:.2} per dispatch");
    assert_eq!(total, again, "{what}: the count must repeat exactly");
    assert!(
        total <= budget,
        "{total} allocations over {TRANSACTIONS} {what} dispatches, budget {budget}"
    );
}

#[test]
fn http_message_done_stays_within_the_allocation_budget() {
    let total = steady_state(HTTP_BRO, http_transaction);
    let again = steady_state(HTTP_BRO, http_transaction);
    hold("http_message_done", total, again, HTTP_MESSAGE_DONE_ALLOCS);
}

#[test]
fn dns_reply_stays_within_the_allocation_budget() {
    let total = steady_state(DNS_BRO, dns_transaction);
    let again = steady_state(DNS_BRO, dns_transaction);
    hold("dns_reply", total, again, DNS_REPLY_ALLOCS);
}

/// A sequential analysis entry point (`run_*_analysis_governed`).
type Analysis = fn(&[RawPacket], ParserStack, Engine, &Governance) -> RtResult<AnalysisResult>;

/// One whole-pipeline exact count: a trace, the analysis that replays it
/// on the compiled engine (setup included), and the pinned allocation
/// total. The traces are the ones the per-packet counts in `CHANGES.md`
/// were recorded on.
struct PipelineCount {
    what: &'static str,
    trace: fn() -> Vec<RawPacket>,
    run: Analysis,
    stack: ParserStack,
    pinned: u64,
}

const PIPELINE_COUNTS: [PipelineCount; 3] = [
    // 16.735 per packet. Was 16.595 before 5a2c2a9 ("release parser and
    // script state at TCP close"): `ScriptHost::remove_connection` passes
    // the uid to `connection_state_remove` as `Value::str(uid)`, a fresh
    // `Rc<str>` per closed connection (+4 000), and compiling that handler
    // costs +643 at setup; its deletes save 63 and the rest of the change 21.
    // The same change removes each connection's parser from the delivery
    // core's `StdHttp` map at close. Whether a later insert reuses the
    // tombstone depends on the process's random hash seed, so some runs
    // resize the map once more: 541 833 or 541 834, pinned high. Was
    // 541 860 until the constant folder evaluated through `ops::eval`,
    // which dropped its operand `Vec` per candidate instruction (−10 here,
    // −36 and −10 in the two counts below), and 541 850 until the
    // specializer stopped building two per-function `Vec<bool>`s of slot
    // types at setup (−16 here).
    PipelineCount {
        what: "Standard HTTP",
        trace: || throughput_trace(0x7487, 4_000),
        run: run_http_analysis_governed,
        stack: ParserStack::Standard,
        pinned: 541_834,
    },
    // 85.086 per packet. Was 88.283 (170 387) before the constant folder
    // evaluated through `ops::eval`, and 88.265 (170 351) while every
    // `parse_*` returned its unit and iterator as a tuple (and before the
    // specializer's setup `Vec`s went, see above).
    PipelineCount {
        what: "BinPAC++ DNS",
        trace: || dns_trace(&SynthConfig::new(11, 1_000)),
        run: run_dns_analysis_governed,
        stack: ParserStack::Binpac,
        pinned: 164_216,
    },
    // 50.090 per packet. Was 59.329 (176 801) while every token match
    // returned its pattern index and end as a tuple, 61.410 (183 002)
    // while every `parse_*` returned its unit and iterator as a tuple, one
    // allocation per unit (the specializer's setup `Vec`s went at the same
    // time), and 61.413 (183 012) before the constant folder evaluated
    // through `ops::eval`. Was 61.046 before 5a2c2a9: the same
    // uid copy (+250) and handler (+643, deletes −49), plus
    // `BinpacHttp::finish_conn` now running at the close as well as at the
    // first FIN, where `intern_uid` finds no session left and allocates
    // `Arc::from(uid)` only to look it up (+250).
    PipelineCount {
        what: "BinPAC++ HTTP",
        trace: || http_trace(&SynthConfig::new(11, 250)),
        run: run_http_analysis_governed,
        stack: ParserStack::Binpac,
        pinned: 149_268,
    },
];

#[test]
fn whole_pipeline_allocations_do_not_rise() {
    let mut over = Vec::new();
    for c in &PIPELINE_COUNTS {
        let trace = (c.trace)();
        let before = ALLOCS.with(Cell::get);
        (c.run)(&trace, c.stack, Engine::Compiled, &Governance::default()).expect("analysis");
        let total = ALLOCS.with(Cell::get) - before;
        let per_pkt = total as f64 / trace.len() as f64;
        eprintln!(
            "{}: {total} allocations over {} packets, {per_pkt:.3} per packet",
            c.what,
            trace.len()
        );
        if total > c.pinned {
            over.push(format!("{}: {total}, pinned at {}", c.what, c.pinned));
        }
    }
    assert!(over.is_empty(), "allocations rose: {over:?}");
}
