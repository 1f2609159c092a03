//! The BinPAC++ DNS grammar and its event declaration, run by
//! [`BinpacAnalyzer`] in datagram mode.
//!
//! The DNS case study of §6.4. The wire format is binary: counted sections
//! of resource records, with domain names compressed via back-pointers into
//! the message. Name decompression is expressed as a hand-written HILTI
//! helper attached to the grammar (`parse_name`) — the analog of the helper
//! code a `.pac2` author writes — with a pointer-loop guard (fail-safe
//! against hostile input, §7). Each label, and each TXT character-string,
//! is decoded by one `bytes.sub_string` and joined by `string.concat`;
//! each of the two builds its string with one allocation.
//!
//! One deliberate semantic difference from the standard parser reproduces
//! the paper's Table 2 note: **TXT rdata renders all character-strings**,
//! where the standard parser extracts only the first ("Bro's parser
//! extracts only one entry from TXT records, BinPAC++ all").

use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti_rt::error::RtResult;
use hilti_rt::trace::SharedRecorder;

use netpkt::events::{DnsAnswer, Event};

use crate::analyzer::{reads, AnalyzerIr, BinpacAnalyzer, Emit, EventDecl, Mode, Protocol, Slot};
use crate::grammar::{Field, FieldKind, Grammar, Repeat, Unit};

/// Raw HILTI: compressed-name decoding plus the address overlays used for
/// A/AAAA rdata rendering.
const DNS_HELPERS: &str = r#"
type V4 = overlay { a: addr at 0 unpack IPv4InNetworkOrder }
type V6 = overlay { a: addr at 0 unpack IPv6InNetworkOrder }

tuple<any, any> parse_name(ref<bytes> data, iterator<bytes> it) {
    local string name
    local int<64> len
    local int<64> jumps
    local iterator<bytes> cur
    local iterator<bytes> after
    local bool jumped
    local int<64> lo
    local int<64> off
    local iterator<bytes> nxt
    local bool is_ptr
    local bool is_end
    local bool bad
    local iterator<bytes> start
    local iterator<bytes> endp
    local string lbls
    local bool isfirst
    local bool toomany
    local tuple<any, any> r
    local iterator<bytes> retit

    name = assign ""
    isfirst = assign True
    jumps = assign 0
    jumped = assign False
    cur = assign it
name_loop:
    len = iterator.deref cur
    is_ptr = int.geq len 192
    if.else is_ptr name_ptr name_chk_end
name_ptr:
    nxt = iterator.incr cur 1
    lo = iterator.deref nxt
    off = int.and len 63
    off = int.shl off 8
    off = int.or off lo
    if.else jumped name_ptr2 name_ptr1
name_ptr1:
    after = iterator.incr cur 2
    jumped = assign True
name_ptr2:
    jumps = int.add jumps 1
    toomany = int.gt jumps 32
    if.else toomany name_fail name_ptr3
name_ptr3:
    cur = bytes.at data off
    jump name_loop
name_fail:
    exception.throw Hilti::ValueError "DNS name: pointer loop"
name_chk_end:
    is_end = int.eq len 0
    if.else is_end name_done name_label
name_label:
    bad = int.geq len 64
    if.else bad name_fail2 name_lbl2
name_fail2:
    exception.throw Hilti::ValueError "DNS name: reserved label type"
name_lbl2:
    start = iterator.incr cur 1
    endp = iterator.incr start len
    lbls = bytes.sub_string start endp
    if.else isfirst name_app1 name_app2
name_app1:
    name = assign lbls
    isfirst = assign False
    jump name_next
name_app2:
    name = string.concat name "."
    name = string.concat name lbls
name_next:
    cur = assign endp
    jump name_loop
name_done:
    retit = iterator.incr cur 1
    if.else jumped name_ret_jumped name_ret_plain
name_ret_jumped:
    retit = assign after
name_ret_plain:
    r = tuple.pack name retit
    return r
}
"#;

/// Builds the DNS grammar (`dns.pac2`).
pub fn dns_grammar() -> Grammar {
    let question = Unit::new("Question")
        .slot("name")
        .field(Field::anon(FieldKind::Embedded(vec![
            "local any __nr".into(),
            "__nr = call parse_name (data, it)".into(),
            "local string __nm".into(),
            "__nm = tuple.get __nr 0".into(),
            "struct.set self name __nm".into(),
            "it = tuple.get __nr 1".into(),
        ])))
        .field(Field::named("qtype", FieldKind::UInt(2)))
        .field(Field::named("qclass", FieldKind::UInt(2)));

    // RDATA rendering (before the raw rdata bytes are consumed):
    // all-strings TXT joining is the deliberate Table 2 difference.
    let render: Vec<String> = r#"
local int<64> __rt
__rt = struct.get self rtype
local int<64> __rl
__rl = struct.get self rdlen
local int<64> __off
__off = iterator.offset it
local string __rend
local any __nr
local bool __c
__rend = assign ""
__c = int.eq __rt 1
if.else __c rr_a rr_c28
rr_a:
local any __a4
__a4 = overlay.get V4 a data __off
__rend = string.render __a4
jump rr_rend_done
rr_c28:
__c = int.eq __rt 28
if.else __c rr_aaaa rr_c5
rr_aaaa:
local any __a6
__a6 = overlay.get V6 a data __off
__rend = string.render __a6
jump rr_rend_done
rr_c5:
__c = int.eq __rt 5
if.else __c rr_name rr_c2
rr_c2:
__c = int.eq __rt 2
if.else __c rr_name rr_c12
rr_c12:
__c = int.eq __rt 12
if.else __c rr_name rr_c15
rr_name:
__nr = call parse_name (data, it)
__rend = tuple.get __nr 0
jump rr_rend_done
rr_c15:
__c = int.eq __rt 15
if.else __c rr_mx rr_c16
rr_mx:
local iterator<bytes> __mxit
__mxit = iterator.incr it 2
__nr = call parse_name (data, __mxit)
__rend = tuple.get __nr 0
jump rr_rend_done
rr_c16:
__c = int.eq __rt 16
if.else __c rr_txt rr_c6
rr_txt:
local iterator<bytes> __tit
local iterator<bytes> __tend
local int<64> __sl
local string __ss
local bool __tmore
local int<64> __toff
local int<64> __eoff
local iterator<bytes> __sse
local bool __fst
__tit = assign it
__tend = iterator.incr it __rl
rr_txt_loop:
__toff = iterator.offset __tit
__eoff = iterator.offset __tend
__tmore = int.lt __toff __eoff
if.else __tmore rr_txt_one rr_rend_done
rr_txt_one:
__sl = iterator.deref __tit
__tit = iterator.incr __tit 1
__sse = iterator.incr __tit __sl
__ss = bytes.sub_string __tit __sse
__tit = assign __sse
__fst = equal __rend ""
if.else __fst rr_txt_f rr_txt_s
rr_txt_f:
__rend = assign __ss
jump rr_txt_loop
rr_txt_s:
__rend = string.concat __rend " "
__rend = string.concat __rend __ss
jump rr_txt_loop
rr_c6:
__c = int.eq __rt 6
if.else __c rr_soa rr_other
rr_soa:
__nr = call parse_name (data, it)
__rend = tuple.get __nr 0
jump rr_rend_done
rr_other:
__rend = string.fmt "<rdata:{} bytes>" __rl
rr_rend_done:
struct.set self rdata_text __rend
"#
    .lines()
    .map(str::trim)
    .filter(|l| !l.is_empty())
    .map(str::to_owned)
    .collect();

    let rr = Unit::new("RR")
        .slot("name")
        .slot("rdata_text")
        .field(Field::anon(FieldKind::Embedded(vec![
            "local any __nr0".into(),
            "__nr0 = call parse_name (data, it)".into(),
            "local string __nm0".into(),
            "__nm0 = tuple.get __nr0 0".into(),
            "struct.set self name __nm0".into(),
            "it = tuple.get __nr0 1".into(),
        ])))
        .field(Field::named("rtype", FieldKind::UInt(2)))
        .field(Field::named("class_", FieldKind::UInt(2)))
        .field(Field::named("ttl", FieldKind::UInt(4)))
        .field(Field::named("rdlen", FieldKind::UInt(2)))
        .field(Field::anon(FieldKind::Embedded(render)))
        .field(Field::named("rdata", FieldKind::BytesVar("rdlen".into())));

    let message = Unit::new("Message")
        .field(Field::named("id", FieldKind::UInt(2)))
        .field(Field::named("flags", FieldKind::UInt(2)))
        .field(Field::named("qdcount", FieldKind::UInt(2)))
        .field(Field::named("ancount", FieldKind::UInt(2)))
        .field(Field::named("nscount", FieldKind::UInt(2)))
        .field(Field::named("arcount", FieldKind::UInt(2)))
        .field(Field::anon(FieldKind::Embedded(
            // Implausible counts are rejected before allocating anything
            // (fail-safe processing of untrusted counts, §7).
            r#"
local int<64> __qd
local int<64> __an
local int<64> __ns
local int<64> __ar
local bool __big
__qd = struct.get self qdcount
__an = struct.get self ancount
__ns = struct.get self nscount
__ar = struct.get self arcount
__big = int.gt __qd 512
if.else __big dns_toobig dns_an
dns_an:
__big = int.gt __an 512
if.else __big dns_toobig dns_ns
dns_ns:
__big = int.gt __ns 512
if.else __big dns_toobig dns_ar
dns_ar:
__big = int.gt __ar 512
if.else __big dns_toobig dns_counts_ok
dns_toobig:
exception.throw Hilti::ValueError "DNS: implausible record count"
dns_counts_ok:
"#
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_owned)
            .collect(),
        )))
        .field(Field::named(
            "questions",
            FieldKind::List("Question".into(), Repeat::CountVar("qdcount".into())),
        ))
        .field(Field::named(
            "answers",
            FieldKind::List("RR".into(), Repeat::CountVar("ancount".into())),
        ))
        .field(Field::named(
            "auth",
            FieldKind::List("RR".into(), Repeat::CountVar("nscount".into())),
        ))
        .field(Field::named(
            "addl",
            FieldKind::List("RR".into(), Repeat::CountVar("arcount".into())),
        ))
        .on_done("Dns::on_message");

    Grammar::new("Dns")
        .unit(question)
        .unit(rr)
        .unit(message)
        .raw(DNS_HELPERS)
}

/// The DNS analyzer: one `Message` per datagram.
pub static DNS: Protocol = Protocol {
    grammar: dns_grammar,
    mode: Mode::Datagram { unit: "Message" },
    events: &[EventDecl {
        hook: "Dns::on_message",
        reads: &[
            ("Message", &["id", "flags", "questions", "answers"]),
            ("Question", &["name", "qtype"]),
            ("RR", &["rtype", "name", "ttl", "rdata_text"]),
        ],
        build: message,
    }],
    host_hooks: &[],
};

fn message(e: &mut Emit<'_>, msg: &Value, slots: &[Slot]) -> RtResult<()> {
    let [id, flags, questions, answers, q_name, q_type, rr_type, rr_name, rr_ttl, rr_rdata] =
        reads(slots)?;
    let trans_id = id.int(msg)? as u16;
    let flags = flags.int(msg)? as u16;
    let is_response = flags & 0x8000 != 0;
    let rcode = flags & 0xf;
    // First question drives the query fields.
    let (query, qtype) = match questions.get(msg)? {
        Value::Vector(qs) => match qs.borrow().first() {
            Some(q) => (q_name.text(q)?, q_type.int(q)? as u16),
            None => (String::new(), 0),
        },
        _ => (String::new(), 0),
    };
    let ev = if is_response {
        let mut rrs = Vec::new();
        if let Value::Vector(ans) = answers.get(msg)? {
            for rr in ans.borrow().iter() {
                let rtype = rr_type.int(rr)? as u16;
                if rtype == 41 {
                    continue; // OPT pseudo-record
                }
                rrs.push(DnsAnswer {
                    name: rr_name.text(rr)?,
                    rtype,
                    ttl: rr_ttl.int(rr)? as u32,
                    rdata: rr_rdata.text(rr)?,
                });
            }
        }
        Event::DnsReply {
            ts: e.ts,
            uid: e.uid.clone(),
            id: e.id,
            trans_id,
            rcode,
            answers: rrs,
        }
    } else {
        Event::DnsRequest {
            ts: e.ts,
            uid: e.uid.clone(),
            id: e.id,
            trans_id,
            query,
            qtype,
        }
    };
    e.event(ev);
    Ok(())
}

/// DNS's entry point for callers that predate [`BinpacAnalyzer`]:
/// `front_end` builds [`DNS`], `from_ir` is [`BinpacAnalyzer::from_ir`].
pub struct BinpacDns;

impl BinpacDns {
    pub fn front_end(opt: OptLevel) -> RtResult<AnalyzerIr> {
        BinpacAnalyzer::front_end(&DNS, opt)
    }

    pub fn from_ir(ir: &AnalyzerIr, rec: Option<SharedRecorder>) -> RtResult<BinpacAnalyzer> {
        BinpacAnalyzer::from_ir(ir, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilti_rt::addr::Port;
    use hilti_rt::bytestring::FeedChunk;
    use hilti_rt::time::Time;
    use netpkt::dns::DnsBuilder;
    use netpkt::events::dns_types;
    use netpkt::events::ConnId;
    use std::sync::Arc;

    fn conn_id() -> ConnId {
        ConnId {
            orig_h: "10.0.0.1".parse().unwrap(),
            orig_p: Port::udp(5353),
            resp_h: "8.8.8.8".parse().unwrap(),
            resp_p: Port::udp(53),
        }
    }

    fn t() -> Time {
        Time::from_secs(1)
    }

    fn analyzer() -> BinpacAnalyzer {
        let ir = BinpacAnalyzer::front_end(&DNS, OptLevel::Full).unwrap();
        BinpacAnalyzer::from_ir(&ir, None).unwrap()
    }

    fn datagram(d: &mut BinpacAnalyzer, ts: Time, payload: &[u8]) -> RtResult<bool> {
        d.datagram_chunk(&Arc::from("C1"), conn_id(), ts, FeedChunk::Copy(payload))
    }

    fn events(d: &mut BinpacAnalyzer) -> Vec<Event> {
        let mut evs = Vec::new();
        d.drain_events_into(&mut evs);
        evs
    }

    #[test]
    fn query_event() {
        let mut d = analyzer();
        let q = DnsBuilder::new(0x1234, false, 0)
            .question("www.example.com", dns_types::A)
            .build();
        assert!(datagram(&mut d, t(), &q).unwrap());
        let evs = events(&mut d);
        match &evs[0] {
            Event::DnsRequest {
                trans_id,
                query,
                qtype,
                ..
            } => {
                assert_eq!(*trans_id, 0x1234);
                assert_eq!(query, "www.example.com");
                assert_eq!(*qtype, dns_types::A);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_with_a_record() {
        let mut d = analyzer();
        let r = DnsBuilder::new(7, true, 0)
            .question("example.com", dns_types::A)
            .answer_a("example.com", 300, [93, 184, 216, 34])
            .build();
        assert!(datagram(&mut d, t(), &r).unwrap());
        let evs = events(&mut d);
        match &evs[0] {
            Event::DnsReply { rcode, answers, .. } => {
                assert_eq!(*rcode, 0);
                assert_eq!(answers.len(), 1);
                assert_eq!(answers[0].rdata, "93.184.216.34");
                assert_eq!(answers[0].ttl, 300);
                assert_eq!(answers[0].name, "example.com");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cname_mx_and_compression() {
        let mut d = analyzer();
        let r = DnsBuilder::new(7, true, 0)
            .question("mail.example.com", dns_types::MX)
            .answer_cname("mail.example.com", 60, "mx.example.net")
            .answer_mx("mx.example.net", 60, 10, "smtp.example.net")
            .build();
        assert!(datagram(&mut d, t(), &r).unwrap());
        let evs = events(&mut d);
        match &evs[0] {
            Event::DnsReply { answers, .. } => {
                assert_eq!(answers[0].rdata, "mx.example.net");
                assert_eq!(answers[1].rdata, "smtp.example.net");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn txt_renders_all_strings() {
        // The deliberate Table 2 semantic difference: ALL strings.
        let mut d = analyzer();
        let r = DnsBuilder::new(7, true, 0)
            .question("t.example.com", dns_types::TXT)
            .answer_txt("t.example.com", 60, &["first", "second", "third"])
            .build();
        assert!(datagram(&mut d, t(), &r).unwrap());
        let evs = events(&mut d);
        match &evs[0] {
            Event::DnsReply { answers, .. } => {
                assert_eq!(answers[0].rdata, "first second third");
            }
            other => panic!("unexpected {other:?}"),
        }
        // And the standard parser keeps only the first (the difference).
        let msg = DnsBuilder::new(7, true, 0)
            .question("t.example.com", dns_types::TXT)
            .answer_txt("t.example.com", 60, &["first", "second", "third"])
            .build();
        let std = netpkt::dns::parse_message(&msg).unwrap();
        assert_eq!(std.answers[0].rdata, "first");
    }

    #[test]
    fn crud_rejected_not_fatal() {
        let mut d = analyzer();
        assert!(!datagram(&mut d, t(), b"GET / HTTP/1.1\r\n").unwrap());
        assert!(!datagram(&mut d, t(), &[]).unwrap());
        // Still works afterwards.
        let q = DnsBuilder::new(1, false, 0)
            .question("x.org", dns_types::A)
            .build();
        assert!(datagram(&mut d, t(), &q).unwrap());
    }

    #[test]
    fn pointer_loop_rejected() {
        let mut d = analyzer();
        let mut msg = DnsBuilder::new(7, false, 0).build();
        msg.extend_from_slice(&[0xc0, 12]); // self-pointer at offset 12
        msg.extend_from_slice(&dns_types::A.to_be_bytes());
        msg.extend_from_slice(&1u16.to_be_bytes());
        msg[4..6].copy_from_slice(&1u16.to_be_bytes());
        assert!(!datagram(&mut d, t(), &msg).unwrap());
    }

    #[test]
    fn nxdomain_rcode() {
        let mut d = analyzer();
        let r = DnsBuilder::new(9, true, 3)
            .question("missing.example.com", dns_types::A)
            .build();
        assert!(datagram(&mut d, t(), &r).unwrap());
        match &events(&mut d)[0] {
            Event::DnsReply { rcode, answers, .. } => {
                assert_eq!(*rcode, 3);
                assert!(answers.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn agrees_with_standard_parser_on_synth_trace() {
        use netpkt::decode::decode_ethernet;
        let mut d = analyzer();
        let pkts = netpkt::synth::dns_trace(&netpkt::synth::SynthConfig::new(5, 60));
        let mut agree = 0;
        let mut total = 0;
        for p in &pkts {
            let dec = decode_ethernet(p).unwrap();
            let std = netpkt::dns::parse_message(&dec.payload);
            let bp_ok = datagram(&mut d, p.ts, &dec.payload).unwrap();
            assert_eq!(std.is_ok(), bp_ok, "parseability must agree");
            if let Ok(stdm) = std {
                total += 1;
                let evs = events(&mut d);
                let ev = evs.last().expect("one event per parsed datagram");
                match ev {
                    Event::DnsRequest {
                        trans_id, query, ..
                    } => {
                        assert!(!stdm.is_response);
                        assert_eq!(*trans_id, stdm.id);
                        assert_eq!(query, &stdm.questions[0].name);
                        agree += 1;
                    }
                    Event::DnsReply {
                        trans_id,
                        rcode,
                        answers,
                        ..
                    } => {
                        assert!(stdm.is_response);
                        assert_eq!(*trans_id, stdm.id);
                        assert_eq!(*rcode, stdm.rcode);
                        assert_eq!(answers.len(), stdm.answers.len());
                        // Non-TXT rdata must agree exactly; TXT may differ
                        // (all-strings vs first-only).
                        for (a, b) in answers.iter().zip(stdm.answers.iter()) {
                            assert_eq!(a.name, b.name);
                            assert_eq!(a.ttl, b.ttl);
                            if a.rtype != dns_types::TXT {
                                assert_eq!(a.rdata, b.rdata, "rtype {}", a.rtype);
                            }
                        }
                        agree += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            } else {
                events(&mut d);
            }
        }
        assert_eq!(agree, total);
        assert!(total > 80, "total={total}");
    }
}
