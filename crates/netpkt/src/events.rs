//! The host-application event vocabulary.
//!
//! Bro's event engine turns protocol activity into typed events
//! (`connection_established`, `http_request`, ... — §4 "Bro Script
//! Compiler"). Both of our parser stacks — the handwritten standard parsers
//! and the BinPAC++/HILTI generated ones — emit this same vocabulary, so the
//! analysis scripts (crate `broscript`) run unchanged on either, which is
//! exactly the property the paper's evaluation exploits when comparing the
//! two (§6.4, §6.5).

use std::sync::Arc;

use hilti_rt::addr::{Addr, Port};
use hilti_rt::time::Time;

/// Connection endpoints, in originator/responder orientation (Bro's
/// `conn_id` record).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    pub orig_h: Addr,
    pub orig_p: Port,
    pub resp_h: Addr,
    pub resp_p: Port,
}

impl ConnId {
    /// Bro-style rendering, e.g. for debugging logs.
    pub fn render(&self) -> String {
        format!(
            "{}:{} -> {}:{}",
            self.orig_h, self.orig_p.number, self.resp_h, self.resp_p.number
        )
    }
}

/// One resource record in a DNS answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsAnswer {
    pub name: String,
    pub rtype: u16,
    pub ttl: u32,
    /// Human-readable answer data (address text, target name, TXT payload).
    pub rdata: String,
}

/// A protocol event, as delivered to analysis scripts.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    ConnectionEstablished {
        ts: Time,
        uid: Arc<str>,
        id: ConnId,
    },
    HttpRequest {
        ts: Time,
        uid: Arc<str>,
        id: ConnId,
        method: String,
        uri: String,
        version: String,
    },
    HttpReply {
        ts: Time,
        uid: Arc<str>,
        id: ConnId,
        status: u32,
        reason: String,
        version: String,
    },
    HttpHeader {
        ts: Time,
        uid: Arc<str>,
        /// True if sent by the originator (client).
        is_orig: bool,
        name: String,
        value: String,
    },
    /// A chunk of message body, in order.
    HttpBodyData {
        ts: Time,
        uid: Arc<str>,
        is_orig: bool,
        data: Vec<u8>,
    },
    /// End of one HTTP message (request or reply side).
    HttpMessageDone {
        ts: Time,
        uid: Arc<str>,
        is_orig: bool,
        body_len: u64,
    },
    DnsRequest {
        ts: Time,
        uid: Arc<str>,
        id: ConnId,
        trans_id: u16,
        query: String,
        qtype: u16,
    },
    DnsReply {
        ts: Time,
        uid: Arc<str>,
        id: ConnId,
        trans_id: u16,
        rcode: u16,
        answers: Vec<DnsAnswer>,
    },
}

impl Event {
    /// The event's timestamp.
    pub fn ts(&self) -> Time {
        match self {
            Event::ConnectionEstablished { ts, .. }
            | Event::HttpRequest { ts, .. }
            | Event::HttpReply { ts, .. }
            | Event::HttpHeader { ts, .. }
            | Event::HttpBodyData { ts, .. }
            | Event::HttpMessageDone { ts, .. }
            | Event::DnsRequest { ts, .. }
            | Event::DnsReply { ts, .. } => *ts,
        }
    }

    /// The connection uid the event belongs to.
    pub fn uid(&self) -> &str {
        match self {
            Event::ConnectionEstablished { uid, .. }
            | Event::HttpRequest { uid, .. }
            | Event::HttpReply { uid, .. }
            | Event::HttpHeader { uid, .. }
            | Event::HttpBodyData { uid, .. }
            | Event::HttpMessageDone { uid, .. }
            | Event::DnsRequest { uid, .. }
            | Event::DnsReply { uid, .. } => uid,
        }
    }

    /// The event's name, as a Bro script would reference it.
    pub fn name(&self) -> &'static str {
        match self {
            Event::ConnectionEstablished { .. } => "connection_established",
            Event::HttpRequest { .. } => "http_request",
            Event::HttpReply { .. } => "http_reply",
            Event::HttpHeader { .. } => "http_header",
            Event::HttpBodyData { .. } => "http_body_data",
            Event::HttpMessageDone { .. } => "http_message_done",
            Event::DnsRequest { .. } => "dns_request",
            Event::DnsReply { .. } => "dns_reply",
        }
    }
}

/// DNS record type numbers used across the workspace.
pub mod dns_types {
    use std::borrow::Cow;

    pub const A: u16 = 1;
    pub const NS: u16 = 2;
    pub const CNAME: u16 = 5;
    pub const SOA: u16 = 6;
    pub const PTR: u16 = 12;
    pub const MX: u16 = 15;
    pub const TXT: u16 = 16;
    pub const AAAA: u16 = 28;

    /// The display name Bro's dns.log uses; only an unknown type is
    /// formatted.
    pub fn name(t: u16) -> Cow<'static, str> {
        Cow::Borrowed(match t {
            A => "A",
            NS => "NS",
            CNAME => "CNAME",
            SOA => "SOA",
            PTR => "PTR",
            MX => "MX",
            TXT => "TXT",
            AAAA => "AAAA",
            other => return Cow::Owned(format!("query-{other}")),
        })
    }
}

/// DNS response codes.
pub mod dns_rcodes {
    use std::borrow::Cow;

    pub const NOERROR: u16 = 0;
    pub const FORMERR: u16 = 1;
    pub const SERVFAIL: u16 = 2;
    pub const NXDOMAIN: u16 = 3;

    /// The display name Bro's dns.log uses; only an unknown code is
    /// formatted.
    pub fn name(r: u16) -> Cow<'static, str> {
        Cow::Borrowed(match r {
            NOERROR => "NOERROR",
            FORMERR => "FORMERR",
            SERVFAIL => "SERVFAIL",
            NXDOMAIN => "NXDOMAIN",
            other => return Cow::Owned(format!("rcode-{other}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let id = ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::tcp(40000),
            resp_h: "192.168.1.1".parse().unwrap(),
            resp_p: Port::tcp(80),
        };
        let e = Event::HttpRequest {
            ts: Time::from_secs(5),
            uid: "C1".into(),
            id,
            method: "GET".into(),
            uri: "/".into(),
            version: "1.1".into(),
        };
        assert_eq!(e.ts(), Time::from_secs(5));
        assert_eq!(e.uid(), "C1");
        assert_eq!(e.name(), "http_request");
        assert_eq!(id.render(), "10.0.0.1:40000 -> 192.168.1.1:80");
    }

    #[test]
    fn dns_names() {
        assert_eq!(dns_types::name(dns_types::A), "A");
        assert_eq!(dns_types::name(dns_types::AAAA), "AAAA");
        assert_eq!(dns_types::name(999), "query-999");
        assert_eq!(dns_rcodes::name(0), "NOERROR");
        assert_eq!(dns_rcodes::name(3), "NXDOMAIN");
        assert_eq!(dns_rcodes::name(77), "rcode-77");
    }
}
