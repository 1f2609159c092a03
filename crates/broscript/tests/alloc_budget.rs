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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use broscript::host::{Engine, ScriptHost};
use broscript::scripts::{DNS_BRO, HTTP_BRO};
use hilti_rt::addr::{Addr, Port};
use hilti_rt::time::Time;
use netpkt::events::{ConnId, DnsAnswer, Event};

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
