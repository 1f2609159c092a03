//! Behaviour digest of the analysis pipelines: one line per configuration
//! with a hash of every deterministic output, so two checkouts can be
//! compared byte for byte.
//!
//! ```text
//! cargo run -q --release -p bench --example digest > change.txt
//! # copy this file to the other checkout's crates/bench/examples/, run it
//! # there into parent.txt, then:
//! diff parent.txt change.txt
//! ```
//!
//! Rows: {`http_trace`, `throughput_trace`, `chaos_http_trace`,
//! `dns_trace`} × {in order, every 7th packet swapped with its successor,
//! so time runs backwards} × parser stack × script engine × idle timeout
//! {none, 1 ms, 10 ms}, under the benchmark's profile (quarantine and
//! telemetry on). Each row prints hashes of `http.log`, `files.log`,
//! `dns.log`, the printed output and the flow-error ledger, the number of
//! expired flows, a hash of the telemetry snapshot, and how 2- and
//! 4-worker runs compare with the sequential one: `=` identical, `t` only
//! the telemetry differs, `!` some output differs. The `panic` rows run 2
//! and 4 workers with a shard panic planned at one packet slot and hash
//! their outputs; the `fault` rows plan a BinPAC++ parser fault at one
//! delivering slot and compare 2 and 4 workers with sequential, like the
//! rows above.
//!
//! `--omit-counter NAME` (repeatable) leaves a counter out of the
//! telemetry hash, for changes that are expected to move it.
//!
//! `digest.golden` beside this file is the output with `--omit-counter
//! engine.instructions_retired`; `scripts/tier1.sh` diffs a fresh run
//! against it.

use broscript::host::Engine;
use broscript::parallel::{run_dns_analysis_parallel, run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Fault, Faults,
    Governance, ParserStack,
};
use hilti_rt::error::RtResult;
use hilti_rt::hashutil::fnv1a;
use netpkt::pcap::RawPacket;
use netpkt::synth::{
    chaos_http_trace, dns_trace, http_trace, throughput_trace, ChaosConfig, SynthConfig,
};

/// Eight hex digits of a hash over `lines`.
fn hash<S: AsRef<str>>(lines: &[S]) -> String {
    let mut all = Vec::new();
    for l in lines {
        all.extend_from_slice(l.as_ref().as_bytes());
        all.push(b'\n');
    }
    format!("{:08x}", fnv1a(&all) as u32)
}

/// A run's hashed outputs, telemetry kept apart.
struct Digest {
    outputs: String,
    telemetry: String,
}

fn digest(r: &RtResult<AnalysisResult>, omit: &[String]) -> Digest {
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            let err = format!("error={}", hash(&[e.to_string()]));
            return Digest {
                outputs: err.clone(),
                telemetry: err,
            };
        }
    };
    let errors: Vec<String> = r.flow_errors.iter().map(|e| format!("{e:?}")).collect();
    let outputs = format!(
        "http={} files={} dns={} out={} errors={} expired={} events={} parse_failures={} faults={}",
        hash(&r.http_log),
        hash(&r.files_log),
        hash(&r.dns_log),
        hash(&r.output),
        hash(&errors),
        r.flows_expired,
        r.events,
        r.parse_failures,
        r.shard_faults.len(),
    );
    let mut t = r.telemetry.clone();
    t.counters.retain(|(name, _)| !omit.contains(name));
    Digest {
        outputs,
        telemetry: format!("tel={}", hash(&[t.to_json(), t.events_jsonl()])),
    }
}

fn agreement(seq: &Digest, par: &Digest) -> char {
    if seq.outputs != par.outputs {
        '!'
    } else if seq.telemetry != par.telemetry {
        't'
    } else {
        '='
    }
}

/// Every 7th packet swapped with its successor.
fn reordered(trace: &[RawPacket]) -> Vec<RawPacket> {
    let mut t = trace.to_vec();
    for i in (6..t.len().saturating_sub(1)).step_by(7) {
        t.swap(i, i + 1);
    }
    t
}

type Seq = fn(&[RawPacket], ParserStack, Engine, &Governance) -> RtResult<AnalysisResult>;
type Par = fn(&[RawPacket], ParserStack, Engine, &PipelineOptions) -> RtResult<AnalysisResult>;

fn main() {
    let mut omit = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--omit-counter", Some(name)) => omit.push(name),
            _ => {
                eprintln!("usage: digest [--omit-counter NAME]...");
                std::process::exit(2);
            }
        }
    }

    let http: (Seq, Par) = (run_http_analysis_governed, run_http_analysis_parallel);
    let dns: (Seq, Par) = (run_dns_analysis_governed, run_dns_analysis_parallel);
    let traces = [
        ("http", http_trace(&SynthConfig::new(11, 120)), http),
        ("throughput", throughput_trace(11, 800), http),
        ("chaos", chaos_http_trace(&ChaosConfig::new(0xC0FFEE)), http),
        ("dns", dns_trace(&SynthConfig::new(11, 300)), dns),
    ];
    let base = Governance {
        quarantine: true,
        telemetry: true,
        ..Governance::default()
    };
    let stacks = [ParserStack::Standard, ParserStack::Binpac];
    let engines = [Engine::Interpreted, Engine::Compiled];

    for (name, trace, (seq, par)) in &traces {
        for (order, trace) in [("ordered", trace.clone()), ("reordered", reordered(trace))] {
            for stack in stacks {
                for engine in engines {
                    for idle in [None, Some(1), Some(10)] {
                        let gov = Governance {
                            idle_timeout_ms: idle,
                            ..base.clone()
                        };
                        let (s, workers) =
                            compare(&trace, (*seq, *par), stack, engine, &gov, &omit);
                        println!(
                            "{name} {order} {stack:?} {engine:?} idle={idle:?} {} {} x2{} x4{}",
                            s.outputs, s.telemetry, workers[0], workers[1]
                        );
                    }
                }
            }
        }
    }

    // The planned panics are caught by the shard supervisor. Per trace:
    // 2 workers panic at shard 0's 5th delivery, 4 workers at shard 1's
    // 40th (http, throughput) or 20th (chaos, where shard 1 gets 39).
    std::panic::set_hook(Box::new(|_| {}));
    let panics = [[(2, 4), (4, 284)], [(2, 11), (4, 195)], [(2, 4), (4, 222)]];
    for ((name, trace, (_, par)), panics) in traces[..3].iter().zip(panics) {
        for stack in stacks {
            for engine in engines {
                for (workers, slot) in panics {
                    let o = PipelineOptions {
                        workers,
                        governance: Governance {
                            faults: Faults::from([(slot, Fault::Panic)]),
                            ..base.clone()
                        },
                        ..Default::default()
                    };
                    let d = digest(&par(trace, stack, engine, &o), &omit);
                    println!(
                        "panic {name} {stack:?} {engine:?} x{workers} slot{slot} {} {}",
                        d.outputs, d.telemetry
                    );
                }
            }
        }
    }

    // A parser fault at one request (http, chaos) or query (dns) slot.
    let faults = [("http", 13), ("chaos", 29), ("dns", 2)];
    for (fname, slot) in faults {
        let (name, trace, run) = traces.iter().find(|(n, ..)| *n == fname).expect("trace");
        let gov = Governance {
            faults: Faults::from([(slot, Fault::Parse { after: 50 })]),
            ..base.clone()
        };
        for engine in engines {
            let (s, workers) = compare(trace, *run, ParserStack::Binpac, engine, &gov, &omit);
            println!(
                "fault {name} Binpac {engine:?} slot{slot} {} {} x2{} x4{}",
                s.outputs, s.telemetry, workers[0], workers[1]
            );
        }
    }
}

/// The sequential run's digest, and how 2 and 4 workers agree with it.
fn compare(
    trace: &[RawPacket],
    (seq, par): (Seq, Par),
    stack: ParserStack,
    engine: Engine,
    gov: &Governance,
    omit: &[String],
) -> (Digest, [char; 2]) {
    let s = digest(&seq(trace, stack, engine, gov), omit);
    let workers = [2, 4].map(|workers| {
        let o = PipelineOptions {
            workers,
            governance: gov.clone(),
            ..Default::default()
        };
        agreement(&s, &digest(&par(trace, stack, engine, &o), omit))
    });
    (s, workers)
}
