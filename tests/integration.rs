//! Cross-crate integration tests: the whole platform exercised end to end,
//! from trace synthesis through parsers and scripts to logs.

use broscript::host::Engine;
use broscript::pipeline::{run_dns_analysis, run_http_analysis, ParserStack};
use hilti::passes::OptLevel;
use hilti::value::Value;
use hilti::Program;
use netpkt::logs::agreement;
use netpkt::synth::{dns_trace, http_trace, SynthConfig};

#[test]
fn figure3_hello_world_end_to_end() {
    let mut p = Program::from_source(
        "module Main\nimport Hilti\n\nvoid run() {\n    call Hilti::print \"Hello, World!\"\n}\n",
    )
    .expect("hello world compiles");
    p.run_void("Main::run", &[]).expect("runs");
    assert_eq!(p.take_output(), vec!["Hello, World!"]);
}

#[test]
fn engines_agree_on_program_suite() {
    // Differential check: both execution engines produce identical results
    // over a suite of programs covering arithmetic, containers, strings,
    // control flow, and exceptions.
    let suite: &[(&str, &str, Vec<Value>)] = &[
        (
            r#"
module M
int<64> collatz_steps(int<64> n) {
    local int<64> steps
    local bool even
    local int<64> r
    local bool done
    steps = assign 0
loop:
    done = int.eq n 1
    if.else done out step
step:
    r = int.mod n 2
    even = int.eq r 0
    if.else even half triple
half:
    n = int.div n 2
    jump next
triple:
    n = int.mul n 3
    n = int.add n 1
next:
    steps = int.add steps 1
    jump loop
out:
    return steps
}
"#,
            "M::collatz_steps",
            vec![Value::Int(27)],
        ),
        (
            r#"
module M
int<64> table_trip(int<64> n) {
    local ref<map<int<64>, int<64>>> m
    local int<64> i
    local bool more
    local int<64> acc
    local int<64> v
    m = new map<int<64>, int<64>>
    i = assign 0
fill:
    more = int.lt i n
    if.else more fill_one sum
fill_one:
    v = int.mul i i
    map.insert m i v
    i = int.add i 1
    jump fill
sum:
    acc = assign 0
    i = assign 0
sum_loop:
    more = int.lt i n
    if.else more sum_one out
sum_one:
    v = map.get m i
    acc = int.add acc v
    i = int.add i 1
    jump sum_loop
out:
    return acc
}
"#,
            "M::table_trip",
            vec![Value::Int(50)],
        ),
        (
            r#"
module M
string shout(string s) {
    local string u
    local string r
    u = string.upper s
    r = string.concat u "!"
    return r
}
"#,
            "M::shout",
            vec![Value::str("hilti")],
        ),
        (
            r#"
module M
int<64> guarded(int<64> d) {
    local int<64> x
    try {
        x = int.div 100 d
    } catch ( ref<Hilti::ArithmeticError> e ) {
        return -1
    }
    return x
}
"#,
            "M::guarded",
            vec![Value::Int(0)],
        ),
    ];
    for (src, func, args) in suite {
        let mut p = Program::from_source(src).expect("suite program compiles");
        let compiled = p.run(func, args).unwrap_or_else(|e| panic!("{func}: {e}"));
        let interpreted = p
            .run_interpreted(func, args)
            .unwrap_or_else(|e| panic!("{func} (interp): {e}"));
        assert!(
            compiled.equals(&interpreted),
            "{func}: compiled {compiled:?} != interpreted {interpreted:?}"
        );
    }
}

#[test]
fn optimizer_never_changes_results() {
    let src = r#"
module M
int<64> mix(int<64> a, int<64> b) {
    local int<64> x
    local int<64> y
    local int<64> z
    x = int.add a b
    y = int.add a b
    z = int.mul x y
    x = int.add 40 2
    z = int.add z x
    z = int.sub z b
    return z
}
"#;
    for (a, b) in [(0i64, 0i64), (1, 2), (-5, 17), (1_000_000, -1)] {
        let mut p0 = Program::from_sources(&[src], OptLevel::None).expect("compiles");
        let mut p1 = Program::from_sources(&[src], OptLevel::Full).expect("compiles");
        let v0 = p0
            .run("M::mix", &[Value::Int(a), Value::Int(b)])
            .expect("runs");
        let v1 = p1
            .run("M::mix", &[Value::Int(a), Value::Int(b)])
            .expect("runs");
        assert!(v0.equals(&v1), "opt changed result for ({a},{b})");
    }
}

#[test]
fn http_pipeline_all_four_configurations_agree() {
    // 2 parser stacks x 2 script engines: all four produce consistent logs
    // (up to the documented parser-stack differences).
    let trace = http_trace(&SynthConfig::new(99, 10));
    let mut logs = Vec::new();
    for stack in [ParserStack::Standard, ParserStack::Binpac] {
        for engine in [Engine::Interpreted, Engine::Compiled] {
            let r = run_http_analysis(&trace, stack, engine)
                .unwrap_or_else(|e| panic!("{stack:?}/{engine:?}: {e}"));
            assert!(!r.http_log.is_empty(), "{stack:?}/{engine:?} empty log");
            logs.push((stack, engine, r));
        }
    }
    // Same stack, different engines: identical.
    let ag = agreement(&logs[0].2.http_log, &logs[1].2.http_log);
    assert_eq!(ag.percent(), 100.0, "standard stack engines differ: {ag:?}");
    let ag = agreement(&logs[2].2.http_log, &logs[3].2.http_log);
    assert_eq!(ag.percent(), 100.0, "binpac stack engines differ: {ag:?}");
    // Different stacks: high agreement.
    let ag = agreement(&logs[0].2.http_log, &logs[2].2.http_log);
    assert!(ag.percent() > 90.0, "stacks diverge: {ag:?}");
}

#[test]
fn dns_pipeline_consistency() {
    let trace = dns_trace(&SynthConfig::new(77, 80));
    let std_i = run_dns_analysis(&trace, ParserStack::Standard, Engine::Interpreted).unwrap();
    let std_c = run_dns_analysis(&trace, ParserStack::Standard, Engine::Compiled).unwrap();
    let pac_i = run_dns_analysis(&trace, ParserStack::Binpac, Engine::Interpreted).unwrap();
    assert!(std_i.dns_log.len() > 30);
    assert_eq!(
        agreement(&std_i.dns_log, &std_c.dns_log).percent(),
        100.0,
        "engines must agree exactly"
    );
    let stacks = agreement(&std_i.dns_log, &pac_i.dns_log);
    assert!(stacks.percent() > 90.0, "{stacks:?}");
    assert!(
        stacks.percent() <= 100.0,
        "TXT semantics should differ somewhere"
    );
}

#[test]
fn firewall_matches_reference_on_trace_derived_stream() {
    use hilti_firewall::{HiltiFirewall, ReferenceFirewall, Rule};
    let rules = vec![
        Rule::new("10.2.0.0/16", "8.8.8.0/24", true).unwrap(),
        Rule::new("8.8.8.0/24", "10.2.0.0/16", false).unwrap(),
    ];
    let mut fw = HiltiFirewall::compile(&rules, OptLevel::Full).unwrap();
    let mut rf = ReferenceFirewall::new(&rules);
    let trace = dns_trace(&SynthConfig::new(55, 150));
    for pkt in &trace {
        if let Ok(d) = netpkt::decode::decode_ethernet(pkt) {
            let h = fw.match_packet(pkt.ts, d.src, d.dst).unwrap();
            let r = rf.match_packet(pkt.ts, d.src, d.dst);
            assert_eq!(h, r, "verdict differs for {} -> {}", d.src, d.dst);
        }
    }
}

#[test]
fn bpf_hilti_and_classic_agree_on_trace() {
    let trace = http_trace(&SynthConfig::new(44, 12));
    let expr =
        hilti_bpf::parse_filter("tcp and dst port 80 and not src net 93.184.0.0/16").unwrap();
    let classic = hilti_bpf::classic::compile_classic(&expr).unwrap();
    let mut hf = hilti_bpf::HiltiFilter::compile(&expr, OptLevel::Full).unwrap();
    for pkt in &trace {
        assert_eq!(
            hilti_bpf::classic::bpf_filter(&classic, &pkt.data),
            hf.matches(&pkt.data).unwrap()
        );
    }
}

#[test]
fn binpac_http_survives_any_chunking() {
    // The incremental-parsing invariant: event stream is independent of
    // how payload is chunked.
    use binpac::analyzer::BinpacAnalyzer;
    use binpac::http::HTTP;
    use hilti_rt::addr::Port;
    use hilti_rt::bytestring::FeedChunk;
    use netpkt::events::{ConnId, Event};

    let id = ConnId {
        orig_h: "10.0.0.1".parse().unwrap(),
        orig_p: Port::tcp(40000),
        resp_h: "1.2.3.4".parse().unwrap(),
        resp_p: Port::tcp(80),
    };
    let wire: &[u8] =
        b"GET /path HTTP/1.1\r\nHost: h\r\n\r\nGET /two HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY";

    let squash = |evs: &[Event]| -> Vec<String> {
        evs.iter()
            .map(|e| match e {
                Event::HttpBodyData { data, .. } => {
                    format!("body:{}", String::from_utf8_lossy(data))
                }
                other => format!("{:?}", other.name()),
            })
            .collect()
    };

    let ir = BinpacAnalyzer::front_end(&HTTP, OptLevel::Full).unwrap();
    let uid: std::sync::Arc<str> = "C1".into();
    let mut reference: Option<Vec<String>> = None;
    for chunk_size in [1usize, 3, 7, 1000] {
        let mut h = BinpacAnalyzer::from_ir(&ir, None).unwrap();
        for chunk in wire.chunks(chunk_size) {
            let ts = hilti_rt::time::Time::from_secs(1);
            h.feed_chunk(&uid, id, true, ts, FeedChunk::Copy(chunk))
                .unwrap();
        }
        let mut events = Vec::new();
        h.drain_events_into(&mut events);
        let got = squash(&events);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "chunk size {chunk_size}"),
        }
    }
}

#[test]
fn track_bro_matches_figure8_output_shape() {
    use broscript::host::ScriptHost;
    use broscript::scripts::TRACK_BRO;
    use netpkt::flow::FlowTable;

    let trace = http_trace(&SynthConfig::new(8, 10));
    for engine in [Engine::Interpreted, Engine::Compiled] {
        let mut host = ScriptHost::new(&[TRACK_BRO], engine, None).unwrap();
        let mut flows = FlowTable::new();
        for pkt in &trace {
            let Ok(d) = netpkt::decode::decode_ethernet(pkt) else {
                continue;
            };
            let delivery = flows.process(&d);
            if delivery.established_now {
                let ev = netpkt::events::Event::ConnectionEstablished {
                    ts: pkt.ts,
                    uid: delivery.flow.uid.clone(),
                    id: delivery.flow.id,
                };
                host.dispatch_event(&ev).unwrap();
            }
        }
        host.done().unwrap();
        let out = host.take_output();
        assert!(!out.is_empty(), "{engine:?}: should print responder IPs");
        // All outputs are valid addresses, sorted and unique.
        let mut sorted = out.clone();
        sorted.sort_by_key(|s| s.parse::<hilti_rt::addr::Addr>().unwrap().raw());
        assert_eq!(out, sorted);
    }
}

#[test]
fn threads_scale_without_losing_work() {
    let trace = dns_trace(&SynthConfig::new(66, 120));
    let one = bench::threads_experiment(&trace, 1).unwrap();
    assert_eq!(one.datagrams_parsed, one.datagrams_sent);
    for workers in [2, 4] {
        let n = bench::threads_experiment(&trace, workers).unwrap();
        assert_eq!(n.datagrams_parsed, n.datagrams_sent, "{workers} workers");
        assert_eq!(
            n.datagrams_parsed, one.datagrams_parsed,
            "{workers} workers"
        );
    }
}

#[test]
fn shipped_hlt_examples_build_and_run() {
    // The textual example programs under examples/hlt/ must keep working
    // on both engines.
    for (path, entry, expected) in [
        ("examples/hlt/hello.hlt", "Main::run", vec!["Hello, World!"]),
        (
            "examples/hlt/scan_detector.hlt",
            "Scan::demo",
            vec!["False", "True"],
        ),
    ] {
        let src = std::fs::read_to_string(path).expect("example file exists");
        let mut p = Program::from_source(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        p.run_void(entry, &[])
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(p.take_output(), expected, "{path}");
        p.run_interpreted(entry, &[])
            .unwrap_or_else(|e| panic!("{path} (interp): {e}"));
    }
}
