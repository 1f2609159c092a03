//! Benchmark-owned staged replay of the sequential pipelines, with spans.
//!
//! The batch entry points (`run_http_analysis_governed`,
//! `run_dns_analysis_governed`) are single calls, so from outside nothing
//! can be attributed to a layer. This driver replays a trace through the
//! same public calls the batch loop makes, in the same order —
//! `TraceBuffer::from_packets` → `decode_frame` → `FlowTable::process_shared`
//! → parser feed → `ScriptHost::dispatch_event` → `done`/`log_lines` — and
//! records a span around each call into a pre-sized vector. Its logs must
//! equal the batch entry point's (checked by the caller on every traced run
//! and by a unit test), so the two cannot drift apart unnoticed.
//!
//! What the batch loop does between those calls (per-packet telemetry
//! counters, flow open/close events, parser-map lookups) is mirrored in
//! [`Glue`] and shows up as the delivery span's self time.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use binpac::dns::BinpacDns;
use binpac::http::BinpacHttp;
use broscript::host::{Engine, ScriptHost};
use broscript::pipeline::ParserStack;
use broscript::scripts;
use hilti::passes::OptLevel;
use hilti_rt::addr::{Addr, Port};
use hilti_rt::error::RtResult;
use hilti_rt::telemetry::{Counter, Histogram, Telemetry};
use hilti_rt::time::Time;
use netpkt::decode::decode_frame;
use netpkt::events::{ConnId, Event};
use netpkt::flow::FlowTable;
use netpkt::http::HttpConnParser;
use netpkt::pcap::RawPacket;
use netpkt::{PayloadRef, TraceBuffer};

use crate::spans::{Layer, Tracer, NONE};
use crate::workloads::Logs;

/// What a staged run produced and counted.
#[derive(Default)]
pub struct StagedRun {
    pub logs: Logs,
    pub packets: u64,
    pub events: u64,
    /// Events that came out of a BinPAC++ parser.
    pub binpac_events: u64,
    /// Payload bytes handed to a parser, and how many of them arrived as
    /// an owned copy (`PayloadRef::Owned`) instead of an arena borrow.
    pub payload_bytes: u64,
    pub copied_bytes: u64,
    pub flows_peak: usize,
    pub flow_errors: u64,
}

/// The batch loop's own per-packet bookkeeping, mirrored through the
/// public telemetry API so staged self time is comparable to the batch's.
struct Glue {
    telemetry: Telemetry,
    packets: Counter,
    bytes_parsed: Counter,
    bytes_copied: Counter,
    bytes_borrowed: Counter,
    flows_opened: Counter,
    flows_closed: Counter,
    payload_hist: Histogram,
    seen: HashSet<Arc<str>>,
}

impl Glue {
    fn new() -> Glue {
        let telemetry = Telemetry::new();
        Glue {
            packets: telemetry.counter("pipeline.packets"),
            bytes_parsed: telemetry.counter("pipeline.bytes_parsed"),
            bytes_copied: telemetry.counter("pipeline.bytes_copied"),
            bytes_borrowed: telemetry.counter("pipeline.bytes_borrowed"),
            flows_opened: telemetry.counter("pipeline.flows_opened"),
            flows_closed: telemetry.counter("pipeline.flows_closed"),
            payload_hist: telemetry.histogram("pipeline.payload_bytes"),
            seen: HashSet::new(),
            telemetry,
        }
    }

    fn delivery(&mut self, uid: &Arc<str>, ts: Time, finished: bool) {
        if !self.seen.contains(&**uid) {
            self.seen.insert(uid.clone());
            self.flows_opened.inc();
            self.telemetry.emit(
                "flow_open",
                vec![("uid", (&**uid).into()), ("ts_ns", ts.nanos().into())],
            );
        }
        if finished {
            self.flows_closed.inc();
            self.telemetry.emit(
                "flow_close",
                vec![("uid", (&**uid).into()), ("ts_ns", ts.nanos().into())],
            );
        }
    }

    fn payload(&self, payload: &PayloadRef, run: &mut StagedRun) {
        let n = payload.len() as u64;
        self.bytes_parsed.add(n);
        self.payload_hist.observe(n);
        run.payload_bytes += n;
        match payload {
            PayloadRef::Owned(_) => {
                self.bytes_copied.add(n);
                run.copied_bytes += n;
            }
            _ => self.bytes_borrowed.add(n),
        }
    }
}

/// The batch pipelines flush never-closed connections under this id.
fn placeholder_id() -> ConnId {
    ConnId {
        orig_h: Addr::v4(0, 0, 0, 0),
        orig_p: Port::tcp(0),
        resp_h: Addr::v4(0, 0, 0, 0),
        resp_p: Port::tcp(0),
    }
}

fn build_host(script: &str, tr: &mut Tracer, root: u32) -> RtResult<ScriptHost> {
    let m = tr.begin();
    let blueprint = ScriptHost::blueprint(&[script], Engine::Compiled, None)?;
    let host = ScriptHost::from_blueprint(&blueprint, None)?;
    tr.end(m, Layer::Compile, root, NONE);
    Ok(host)
}

fn dispatch(
    host: &mut ScriptHost,
    events: &[Event],
    tr: &mut Tracer,
    parent: u32,
    packet_idx: u32,
    run: &mut StagedRun,
) {
    for ev in events {
        run.events += 1;
        let m = tr.begin();
        let r = host.dispatch_event(ev);
        tr.end(m, Layer::Script, parent, packet_idx);
        // Quarantine: a failing event is charged to its flow, the run goes on.
        run.flow_errors += u64::from(r.is_err());
    }
}

fn finish(mut host: ScriptHost, tr: &mut Tracer, root: u32, run: &mut StagedRun) {
    let m = tr.begin();
    run.flow_errors += u64::from(host.done().is_err());
    run.logs = Logs {
        http: host.log_lines("http.log"),
        files: host.log_lines("files.log"),
        dns: host.log_lines("dns.log"),
        output: host.take_output(),
    };
    tr.end(m, Layer::Finish, root, NONE);
}

/// Staged counterpart of `run_http_analysis_governed(.., Engine::Compiled,
/// &Governance { quarantine: true, telemetry: true, .. })`.
pub fn http(packets: &[RawPacket], stack: ParserStack, tr: &mut Tracer) -> RtResult<StagedRun> {
    let mut run = StagedRun::default();
    let root = tr.open(Layer::Run, NONE, NONE);
    let mut glue = Glue::new();
    let mut host = build_host(scripts::HTTP_BRO, tr, root)?;
    host.set_telemetry(&glue.telemetry);
    let mut bp = match stack {
        ParserStack::Binpac => {
            let m = tr.begin();
            let ir = BinpacHttp::front_end(OptLevel::Full)?;
            let mut b = BinpacHttp::from_ir(&ir, None)?;
            tr.end(m, Layer::Compile, root, NONE);
            b.set_telemetry(&glue.telemetry);
            Some(b)
        }
        ParserStack::Standard => None,
    };
    let mut flows = FlowTable::new();
    let mut std_parsers: HashMap<Arc<str>, HttpConnParser> = HashMap::new();
    let mut std_order: Vec<Arc<str>> = Vec::new();
    let mut quarantined: HashSet<Arc<str>> = HashSet::new();
    let mut last_ts = Time::ZERO;

    let m = tr.begin();
    let trace = TraceBuffer::from_packets(packets);
    tr.end(m, Layer::Load, root, NONE);
    let mut events: Vec<Event> = Vec::new();

    for frame_idx in 0..trace.len() {
        run.packets += 1;
        let pkt = frame_idx as u32;
        let (frame_data, ts) = trace.frame(frame_idx);
        last_ts = ts;
        let deliv = tr.open(Layer::Delivery, root, pkt);
        events.clear();
        glue.packets.inc();

        let m = tr.begin();
        let decoded = decode_frame(frame_data, ts);
        tr.end(m, Layer::Decode, deliv, pkt);
        let Ok(d) = decoded else {
            tr.close(deliv);
            continue;
        };

        let m = tr.begin();
        let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
        let uid = delivery.flow.uid.clone();
        let id = delivery.flow.id;
        let is_orig = delivery.is_orig;
        let finished = delivery.finished_now;
        let payload = delivery.payload;
        tr.end(m, Layer::Flow, deliv, pkt);
        run.flows_peak = run.flows_peak.max(flows.len());
        glue.delivery(&uid, ts, finished);

        if !quarantined.contains(&*uid) {
            if !payload.is_empty() {
                glue.payload(&payload, &mut run);
            }
            match bp.as_mut() {
                None => {
                    if !std_parsers.contains_key(&*uid) {
                        std_order.push(uid.clone());
                    }
                    let parser = std_parsers
                        .entry(uid.clone())
                        .or_insert_with(|| HttpConnParser::new(uid.to_string(), id));
                    let m = tr.begin();
                    if !payload.is_empty() {
                        parser.feed(is_orig, payload.resolve(&trace), ts, &mut events);
                    }
                    if finished {
                        parser.finish(ts, &mut events);
                    }
                    tr.end(m, Layer::HttpParse, deliv, pkt);
                }
                Some(bp) => {
                    let m = tr.begin();
                    let mut failed = false;
                    if !payload.is_empty() {
                        failed = bp
                            .feed_chunk(&uid, id, is_orig, ts, payload.feed_chunk(&trace))
                            .is_err();
                    }
                    if !failed && finished {
                        failed = bp.finish_conn(&uid, id, ts).is_err();
                    }
                    bp.drain_events_into(&mut events);
                    tr.end(m, Layer::BinpacParse, deliv, pkt);
                    run.binpac_events += events.len() as u64;
                    if failed {
                        bp.drop_conn(&uid);
                        quarantined.insert(uid.clone());
                        run.flow_errors += 1;
                    }
                }
            }
        }
        dispatch(&mut host, &events, tr, deliv, pkt, &mut run);
        tr.close(deliv);
    }

    // End of trace: flush every connection still open.
    events.clear();
    match bp.as_mut() {
        None => {
            let m = tr.begin();
            for uid in &std_order {
                if let Some(mut parser) = std_parsers.remove(uid) {
                    parser.finish(last_ts, &mut events);
                }
            }
            tr.end(m, Layer::HttpParse, root, NONE);
        }
        Some(bp) => {
            let m = tr.begin();
            for uid in bp.live_uids() {
                if bp.finish_conn(&uid, placeholder_id(), last_ts).is_err() {
                    bp.drop_conn(&uid);
                    run.flow_errors += 1;
                }
            }
            bp.drain_events_into(&mut events);
            tr.end(m, Layer::BinpacParse, root, NONE);
            run.binpac_events += events.len() as u64;
        }
    }
    dispatch(&mut host, &events, tr, root, NONE, &mut run);
    finish(host, tr, root, &mut run);
    tr.close(root);
    Ok(run)
}

/// Staged counterpart of `run_dns_analysis_governed(.., ParserStack::Binpac,
/// Engine::Compiled, &Governance { quarantine: true, telemetry: true, .. })`.
pub fn dns_binpac(packets: &[RawPacket], tr: &mut Tracer) -> RtResult<StagedRun> {
    let mut run = StagedRun::default();
    let root = tr.open(Layer::Run, NONE, NONE);
    let mut glue = Glue::new();
    let mut host = build_host(scripts::DNS_BRO, tr, root)?;
    host.set_telemetry(&glue.telemetry);
    let m = tr.begin();
    let ir = BinpacDns::front_end(OptLevel::Full)?;
    let mut bp = BinpacDns::from_ir(&ir, None)?;
    tr.end(m, Layer::Compile, root, NONE);
    bp.set_telemetry(&glue.telemetry);
    let mut flows = FlowTable::new();

    let m = tr.begin();
    let trace = TraceBuffer::from_packets(packets);
    tr.end(m, Layer::Load, root, NONE);
    let mut events: Vec<Event> = Vec::new();

    for frame_idx in 0..trace.len() {
        run.packets += 1;
        let pkt = frame_idx as u32;
        let (frame_data, ts) = trace.frame(frame_idx);
        let deliv = tr.open(Layer::Delivery, root, pkt);
        events.clear();
        glue.packets.inc();

        let m = tr.begin();
        let decoded = decode_frame(frame_data, ts);
        tr.end(m, Layer::Decode, deliv, pkt);
        let Ok(d) = decoded else {
            tr.close(deliv);
            continue;
        };

        let m = tr.begin();
        let delivery = flows.process_shared(&d, frame_data, trace.frame_offset(frame_idx));
        let uid = delivery.flow.uid.clone();
        let id = delivery.flow.id;
        let finished = delivery.finished_now;
        let payload = delivery.payload;
        tr.end(m, Layer::Flow, deliv, pkt);
        run.flows_peak = run.flows_peak.max(flows.len());
        glue.delivery(&uid, ts, finished);

        if !payload.is_empty() {
            glue.payload(&payload, &mut run);
            let m = tr.begin();
            // `Ok(false)` is unparseable crud, not a failure of the program.
            let r = bp.datagram_chunk(&uid, id, ts, payload.feed_chunk(&trace));
            bp.drain_events_into(&mut events);
            tr.end(m, Layer::BinpacParse, deliv, pkt);
            run.binpac_events += events.len() as u64;
            run.flow_errors += u64::from(r.is_err());
        }
        dispatch(&mut host, &events, tr, deliv, pkt, &mut run);
        tr.close(deliv);
    }
    finish(host, tr, root, &mut run);
    tr.close(root);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use broscript::pipeline::{run_dns_analysis_governed, run_http_analysis_governed};
    use netpkt::synth::{dns_trace, http_trace, SynthConfig};

    use crate::spans::aggregate;
    use crate::workloads::governance;

    #[test]
    fn staged_http_logs_equal_batch_logs_on_both_stacks() {
        let trace = http_trace(&SynthConfig::new(21, 60));
        for stack in [ParserStack::Standard, ParserStack::Binpac] {
            let batch =
                run_http_analysis_governed(&trace, stack, Engine::Compiled, &governance()).unwrap();
            for mut tr in [Tracer::off(), Tracer::on(trace.len(), false)] {
                let staged = http(&trace, stack, &mut tr).unwrap();
                assert_eq!(staged.logs.http, batch.http_log, "{stack:?}");
                assert_eq!(staged.logs.files, batch.files_log, "{stack:?}");
                assert_eq!(staged.logs.output, batch.output, "{stack:?}");
                assert_eq!(staged.events, batch.events, "{stack:?}");
                assert_eq!(staged.packets, batch.packets, "{stack:?}");
            }
        }
    }

    #[test]
    fn staged_dns_logs_equal_batch_logs() {
        let trace = dns_trace(&SynthConfig::new(21, 300));
        let batch =
            run_dns_analysis_governed(&trace, ParserStack::Binpac, Engine::Compiled, &governance())
                .unwrap();
        let staged = dns_binpac(&trace, &mut Tracer::on(trace.len(), false)).unwrap();
        assert_eq!(staged.logs.dns, batch.dns_log);
        assert_eq!(staged.events, batch.events);
    }

    #[test]
    fn spans_nest_and_cover_the_run() {
        let trace = http_trace(&SynthConfig::new(21, 60));
        let mut tr = Tracer::on(trace.len(), false);
        http(&trace, ParserStack::Binpac, &mut tr).unwrap();
        assert_eq!(tr.spans[0].layer, Layer::Run);
        for s in &tr.spans[1..] {
            let parent = &tr.spans[s.parent as usize];
            assert!(matches!(parent.layer, Layer::Run | Layer::Delivery));
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{s:?}"
            );
        }
        let agg = aggregate(&tr.spans);
        assert_eq!(agg.of(Layer::Delivery).count, trace.len() as u64);
        assert_eq!(agg.of(Layer::HttpParse).count, 0);
        assert!(agg.of(Layer::BinpacParse).count > 0);
        assert!(
            agg.coverage > 0.5 && agg.coverage <= 1.0,
            "{}",
            agg.coverage
        );
    }
}
