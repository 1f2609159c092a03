//! The HILTI backend: BPF filters compiled to HILTI code (Figure 4).
//!
//! The compiler emits textual HILTI source — an `IP::Header` overlay plus a
//! `filter(ref<bytes> packet) → bool` function in the straight-line style
//! of the paper's Figure 4 — and builds it into a [`hilti::Program`]
//! executed by the bytecode VM. Malformed/short packets are handled the
//! HILTI way: out-of-bounds field access raises `Hilti::IndexError`, which
//! the generated code catches and maps to "no match" (fail-safe, §7).

use hilti::host::Program;
use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti::vm::FuncId;
use hilti_rt::bytestring::Bytes;
use hilti_rt::error::RtResult;

use crate::expr::{Dir, FilterExpr};

/// Transport header offset assuming IHL=5 (shared with the classic
/// backend so both engines agree bit-for-bit).
const TP_OFF: u64 = 34;

/// Generates the HILTI source for a filter (the paper's Figure 4 output).
pub fn generate_source(expr: &FilterExpr) -> String {
    let mut g = Gen {
        lines: Vec::new(),
        locals: Vec::new(),
        counter: 0,
    };
    let result = g.gen(expr);
    let mut src = String::new();
    src.push_str("module Bpf\n\n");
    src.push_str("type Eth::Header = overlay {\n");
    src.push_str("    ethertype: int<16> at 12 unpack UInt16BigEndian\n");
    src.push_str("}\n\n");
    src.push_str("type IP::Header = overlay {\n");
    src.push_str("    version: int<8> at 14 unpack UInt8InBigEndian(4, 7),\n");
    src.push_str("    hdr_len: int<8> at 14 unpack UInt8InBigEndian(0, 3),\n");
    src.push_str("    proto: int<8> at 23 unpack UInt8BigEndian,\n");
    src.push_str("    src: addr at 26 unpack IPv4InNetworkOrder,\n");
    src.push_str("    dst: addr at 30 unpack IPv4InNetworkOrder,\n");
    src.push_str(&format!(
        "    sport: int<16> at {TP_OFF} unpack UInt16BigEndian,\n"
    ));
    src.push_str(&format!(
        "    dport: int<16> at {} unpack UInt16BigEndian\n",
        TP_OFF + 2
    ));
    src.push_str("}\n\n");
    src.push_str("bool filter(ref<bytes> packet) {\n");
    for l in &g.locals {
        src.push_str(&format!("    local bool {l}\n"));
    }
    src.push_str("    local int<64> ety\n");
    src.push_str("    local addr av\n");
    src.push_str("    local int<64> pv\n");
    src.push_str("    local int<64> pr\n");
    src.push_str("    try {\n");
    // IPv4 prologue.
    src.push_str("        ety = overlay.get Eth::Header ethertype packet\n");
    src.push_str("        local bool is_ip\n");
    src.push_str("        is_ip = int.eq ety 2048\n");
    src.push_str("        if.else is_ip body not_ip\n");
    src.push_str("    } catch ( ref<Hilti::IndexError> e ) {\n");
    src.push_str("        return False\n");
    src.push_str("    }\n");
    src.push_str("not_ip:\n");
    src.push_str("    return False\n");
    src.push_str("body:\n");
    src.push_str("    try {\n");
    for l in &g.lines {
        src.push_str(&format!("        {l}\n"));
    }
    src.push_str(&format!("        return {result}\n"));
    src.push_str("    } catch ( ref<Hilti::IndexError> e2 ) {\n");
    src.push_str("        return False\n");
    src.push_str("    }\n");
    src.push_str("}\n");
    src
}

struct Gen {
    lines: Vec<String>,
    locals: Vec<String>,
    counter: u32,
}

impl Gen {
    fn temp(&mut self) -> String {
        self.counter += 1;
        let name = format!("b{}", self.counter);
        self.locals.push(name.clone());
        name
    }

    /// Emits code computing `expr` into a fresh bool local; returns its name.
    fn gen(&mut self, expr: &FilterExpr) -> String {
        match expr {
            FilterExpr::Ip => {
                // Inside `body` the packet is known IPv4.
                let t = self.temp();
                self.lines.push(format!("{t} = assign True"));
                t
            }
            FilterExpr::Tcp => self.gen_proto(6),
            FilterExpr::Udp => self.gen_proto(17),
            FilterExpr::Host(dir, a) => self.gen_addr_test(*dir, &a.to_string()),
            FilterExpr::Net(dir, n) => self.gen_addr_test(*dir, &n.to_string()),
            FilterExpr::Port(dir, num) => {
                let t = self.temp();
                match dir {
                    Dir::Src => {
                        self.lines
                            .push("pv = overlay.get IP::Header sport packet".into());
                        self.lines.push(format!("{t} = int.eq pv {num}"));
                    }
                    Dir::Dst => {
                        self.lines
                            .push("pv = overlay.get IP::Header dport packet".into());
                        self.lines.push(format!("{t} = int.eq pv {num}"));
                    }
                    Dir::Either => {
                        let t2 = self.temp();
                        self.lines
                            .push("pv = overlay.get IP::Header sport packet".into());
                        self.lines.push(format!("{t} = int.eq pv {num}"));
                        self.lines
                            .push("pv = overlay.get IP::Header dport packet".into());
                        self.lines.push(format!("{t2} = int.eq pv {num}"));
                        self.lines.push(format!("{t} = or {t} {t2}"));
                    }
                }
                t
            }
            FilterExpr::Not(e) => {
                let inner = self.gen(e);
                let t = self.temp();
                self.lines.push(format!("{t} = not {inner}"));
                t
            }
            FilterExpr::And(l, r) => {
                let a = self.gen(l);
                let b = self.gen(r);
                let t = self.temp();
                self.lines.push(format!("{t} = and {a} {b}"));
                t
            }
            FilterExpr::Or(l, r) => {
                let a = self.gen(l);
                let b = self.gen(r);
                let t = self.temp();
                self.lines.push(format!("{t} = or {a} {b}"));
                t
            }
        }
    }

    fn gen_proto(&mut self, proto: u8) -> String {
        let t = self.temp();
        self.lines
            .push("pr = overlay.get IP::Header proto packet".into());
        self.lines.push(format!("{t} = int.eq pr {proto}"));
        t
    }

    /// Address/network test in Figure 4 style: `equal` against an addr or
    /// net literal (addr-vs-net `equal` means membership).
    fn gen_addr_test(&mut self, dir: Dir, literal: &str) -> String {
        let t = self.temp();
        match dir {
            Dir::Src => {
                self.lines
                    .push("av = overlay.get IP::Header src packet".into());
                self.lines.push(format!("{t} = equal av {literal}"));
            }
            Dir::Dst => {
                self.lines
                    .push("av = overlay.get IP::Header dst packet".into());
                self.lines.push(format!("{t} = equal av {literal}"));
            }
            Dir::Either => {
                let t2 = self.temp();
                self.lines
                    .push("av = overlay.get IP::Header src packet".into());
                self.lines.push(format!("{t} = equal av {literal}"));
                self.lines
                    .push("av = overlay.get IP::Header dst packet".into());
                self.lines.push(format!("{t2} = equal av {literal}"));
                self.lines.push(format!("{t} = or {t} {t2}"));
            }
        }
        t
    }
}

/// A BPF filter compiled to HILTI and ready to run on the VM.
pub struct HiltiFilter {
    program: Program,
    /// `Bpf::filter`, resolved once rather than per packet.
    filter: FuncId,
    source: String,
}

impl HiltiFilter {
    /// Compiles a filter expression all the way to executable bytecode.
    pub fn compile(expr: &FilterExpr, opt: OptLevel) -> RtResult<HiltiFilter> {
        let source = generate_source(expr);
        let program = Program::from_sources(&[&source], opt)?;
        let filter = program.func_id("Bpf::filter")?;
        Ok(HiltiFilter {
            program,
            filter,
            source,
        })
    }

    /// Compiles from filter text.
    pub fn from_filter(filter: &str) -> RtResult<HiltiFilter> {
        Self::compile(&crate::expr::parse_filter(filter)?, OptLevel::Full)
    }

    /// The generated HILTI source (Figure 4 analog).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Runs the filter over one raw Ethernet frame.
    pub fn matches(&mut self, frame: &[u8]) -> RtResult<bool> {
        let v = self.program.run_id(
            self.filter,
            &[Value::Bytes(Bytes::frozen_from_slice(frame))],
        )?;
        v.as_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{bpf_filter, compile_classic};
    use crate::expr::parse_filter;
    use hilti_rt::addr::Addr;
    use netpkt::decode::{build_tcp_frame, build_udp_frame, tcp_flags};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn tcp_frame(src: &str, dst: &str, sport: u16, dport: u16) -> Vec<u8> {
        build_tcp_frame(a(src), a(dst), sport, dport, 1, 0, tcp_flags::ACK, b"x")
    }

    #[test]
    fn generated_source_compiles_and_matches() {
        let mut f = HiltiFilter::from_filter("host 192.168.1.1 or src net 10.0.5.0/24").unwrap();
        assert!(f.source().contains("overlay.get IP::Header src packet"));
        assert!(f
            .matches(&tcp_frame("192.168.1.1", "8.8.8.8", 1, 80))
            .unwrap());
        assert!(f.matches(&tcp_frame("10.0.5.7", "8.8.8.8", 1, 80)).unwrap());
        assert!(!f.matches(&tcp_frame("8.8.8.8", "10.0.5.7", 1, 80)).unwrap());
        assert!(!f.matches(&tcp_frame("9.9.9.9", "8.8.8.8", 1, 80)).unwrap());
    }

    #[test]
    fn short_and_non_ip_packets_fail_safe() {
        let mut f = HiltiFilter::from_filter("host 1.2.3.4").unwrap();
        assert!(!f.matches(&[]).unwrap());
        assert!(!f.matches(&[0u8; 10]).unwrap());
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(!f.matches(&arp).unwrap());
    }

    #[test]
    fn ports_and_protocols() {
        let mut f = HiltiFilter::from_filter("tcp and dst port 80").unwrap();
        assert!(f
            .matches(&tcp_frame("1.1.1.1", "2.2.2.2", 999, 80))
            .unwrap());
        assert!(!f
            .matches(&tcp_frame("1.1.1.1", "2.2.2.2", 80, 999))
            .unwrap());
        let udp = build_udp_frame(a("1.1.1.1"), a("2.2.2.2"), 5353, 80, b"q");
        assert!(!f.matches(&udp).unwrap());
        let mut g = HiltiFilter::from_filter("udp").unwrap();
        assert!(g.matches(&udp).unwrap());
    }

    #[test]
    fn engines_agree_on_synthetic_trace() {
        // The §6.2 correctness check: "both applications indeed return the
        // same number of matches" — strengthened to per-packet agreement.
        let filters = [
            "host 93.184.0.1 or src net 10.1.0.0/16",
            "tcp and dst port 80",
            "not ( src net 10.0.0.0/8 )",
            "port 80",
        ];
        let trace = netpkt::synth::http_trace(&netpkt::synth::SynthConfig::new(77, 30));
        for filt in filters {
            let expr = parse_filter(filt).unwrap();
            let classic = compile_classic(&expr).unwrap();
            let mut hilti_f = HiltiFilter::compile(&expr, OptLevel::Full).unwrap();
            let mut classic_matches = 0u32;
            let mut hilti_matches = 0u32;
            for pkt in &trace {
                let c = bpf_filter(&classic, &pkt.data);
                let h = hilti_f.matches(&pkt.data).unwrap();
                assert_eq!(c, h, "filter {filt:?} disagrees on a packet");
                classic_matches += u32::from(c);
                hilti_matches += u32::from(h);
            }
            assert_eq!(classic_matches, hilti_matches);
        }
    }

    #[test]
    fn not_filter_agrees() {
        let expr = parse_filter("not host 10.1.0.1").unwrap();
        let classic = compile_classic(&expr).unwrap();
        let mut hf = HiltiFilter::compile(&expr, OptLevel::Full).unwrap();
        for (src, want) in [("10.1.0.1", false), ("10.1.0.2", true)] {
            let p = tcp_frame(src, "8.8.8.8", 1, 2);
            assert_eq!(bpf_filter(&classic, &p), want);
            assert_eq!(hf.matches(&p).unwrap(), want);
        }
    }
}
