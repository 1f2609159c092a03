//! The five workloads: inputs, the end-to-end pass, and output checking.
//!
//! Closed loop, one client: a trace goes in, logs (or verdicts) come out,
//! and the next repetition starts when the previous one is done. Each
//! workload is one public entry point of the system, run under the one
//! production profile [`governance`]; nothing here is a benchmark-only knob.

use std::collections::HashSet;
use std::time::Instant;

use broscript::host::Engine;
use broscript::parallel::{run_http_analysis_parallel, PipelineOptions};
use broscript::pipeline::{
    run_dns_analysis_governed, run_http_analysis_governed, AnalysisResult, Governance, ParserStack,
};
use hilti::passes::OptLevel;
use hilti_firewall::{HiltiFirewall, ReferenceFirewall};
use hilti_rt::error::RtResult;
use netpkt::decode::decode_frame;
use netpkt::logs::{agreement, normalize};
use netpkt::pcap::RawPacket;
use netpkt::synth::{dns_trace, http_trace, throughput_trace, SynthConfig};

use crate::affinity::OneCpu;
use crate::alloc;
use crate::firewall::{self, Class, Oracle};
use crate::report::END_TO_END;
use crate::skew::skew_trace;
use crate::util::{quartiles, Quartiles};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HttpStdSeq,
    HttpBinpacSeq,
    DnsBinpacSeq,
    HttpSkewPar,
    Firewall4k,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HttpStdSeq,
        Workload::HttpBinpacSeq,
        Workload::DnsBinpacSeq,
        Workload::HttpSkewPar,
        Workload::Firewall4k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpStdSeq => "http_std_seq",
            Workload::HttpBinpacSeq => "http_binpac_seq",
            Workload::DnsBinpacSeq => "dns_binpac_seq",
            Workload::HttpSkewPar => "http_skew_par",
            Workload::Firewall4k => "firewall_4k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The parser stack a pipeline workload runs on.
    pub fn stack(self) -> ParserStack {
        match self {
            Workload::HttpBinpacSeq | Workload::DnsBinpacSeq => ParserStack::Binpac,
            _ => ParserStack::Standard,
        }
    }
}

/// Shard threads of `http_skew_par` (plus the dispatcher: three threads).
pub const WORKERS: usize = 2;
/// Set-up is timed at least this many times per run and the median reported.
pub const SETUP_SAMPLES: usize = 51;
const SETUP_PER_REP: usize = 6;
pub const FIREWALL_SETUP_SAMPLES: usize = 9;
/// `ReferenceFirewall` sweeps all state on every packet, so it checks a
/// prefix; the O(1) oracle it validates checks the whole stream.
const REFERENCE_PREFIX: usize = 20_000;

/// The one profile every pipeline workload runs under: per-flow fault
/// isolation and telemetry on, everything else at the library default.
pub fn governance() -> Governance {
    Governance {
        quarantine: true,
        telemetry: true,
        ..Default::default()
    }
}

pub struct Opts {
    pub seed: u64,
    /// How long the timed repetitions of a pass run in total.
    pub seconds: f64,
    /// Tiny inputs, for validating the harness rather than measuring.
    pub smoke: bool,
    /// Self-test of the checker: drop one line of the program's output
    /// before it is compared, which must make the run fail.
    pub corrupt_output: bool,
}

/// Input sizes. Full sizes keep one repetition at 0.5–1 s on the 2-core
/// reference host, so a pass fits ten or more repetitions in its window.
struct Sizes {
    http_std_flows: usize,
    http_binpac_sessions: usize,
    dns_transactions: usize,
    skew_packets: usize,
    firewall_rules: usize,
    firewall_packets: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            http_std_flows: 300,
            http_binpac_sessions: 60,
            dns_transactions: 400,
            skew_packets: 3_000,
            firewall_rules: 128,
            firewall_packets: 3_000,
        }
    } else {
        Sizes {
            http_std_flows: 10_000,
            http_binpac_sessions: 2_500,
            dns_transactions: 10_000,
            skew_packets: 40_000,
            firewall_rules: 4_096,
            firewall_packets: 100_000,
        }
    }
}

/// Size of a workload's input, printed so a number can be judged.
#[derive(Clone, Copy, Default, Debug)]
pub struct InputInfo {
    pub packets: u64,
    pub bytes: u64,
    pub flows: u64,
    pub rules: u64,
    /// Packets on the heavy-tailed trace's elephant flows.
    pub elephant_packets: u64,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one pass of one workload reports.
pub struct Outcome {
    pub correct: bool,
    /// Operations attempted and failed: flows for the pipeline workloads,
    /// packet verdicts for the firewall.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub input: InputInfo,
    /// Supporting numbers for a person to read; not part of the contract.
    pub notes: Vec<String>,
}

/// Everything a pipeline run logs; two runs agree when these are equal.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Logs {
    pub http: Vec<String>,
    pub files: Vec<String>,
    pub dns: Vec<String>,
    pub output: Vec<String>,
}

impl Logs {
    pub fn take(r: &mut AnalysisResult) -> Logs {
        Logs {
            http: std::mem::take(&mut r.http_log),
            files: std::mem::take(&mut r.files_log),
            dns: std::mem::take(&mut r.dns_log),
            output: std::mem::take(&mut r.output),
        }
    }

    pub fn lines(&self) -> usize {
        self.http.len() + self.files.len() + self.dns.len() + self.output.len()
    }

    /// Lines at which two runs' logs differ, at least 1 if they differ at all.
    pub fn differing_lines(&self, other: &Logs) -> u64 {
        if self == other {
            return 0;
        }
        let pairs = [
            (&self.http, &other.http),
            (&self.files, &other.files),
            (&self.dns, &other.dns),
            (&self.output, &other.output),
        ];
        let n: usize = pairs
            .iter()
            .map(|(a, b)| {
                a.len().abs_diff(b.len()) + a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
            })
            .sum();
        n.max(1) as u64
    }

    /// The checker self-test: lose one line of the protocol log.
    fn corrupt(&mut self) {
        if self.http.pop().is_none() {
            self.dns.pop();
        }
    }
}

pub fn pipeline_input(w: Workload, o: &Opts) -> (Vec<RawPacket>, InputInfo) {
    let s = sizes(o.smoke);
    let mut elephant_packets = 0;
    let packets = match w {
        Workload::HttpStdSeq => throughput_trace(o.seed, s.http_std_flows),
        Workload::HttpBinpacSeq => http_trace(&SynthConfig::new(o.seed, s.http_binpac_sessions)),
        Workload::DnsBinpacSeq => dns_trace(&SynthConfig::new(o.seed, s.dns_transactions)),
        Workload::HttpSkewPar => {
            let t = skew_trace(o.seed, s.skew_packets);
            elephant_packets = t.elephant_packets as u64;
            t.packets
        }
        Workload::Firewall4k => unreachable!("the firewall workload has no packet trace"),
    };
    // Flows are counted from the frames alone, not taken from the program.
    let mut flows = HashSet::new();
    for p in &packets {
        if let Ok(d) = decode_frame(&p.data, p.ts) {
            let (a, b) = ((d.src, d.sport), (d.dst, d.dport));
            flows.insert((a.min(b), a.max(b), d.transport.protocol()));
        }
    }
    let info = InputInfo {
        packets: packets.len() as u64,
        bytes: packets.iter().map(|p| p.data.len() as u64).sum(),
        flows: flows.len() as u64,
        rules: 0,
        elephant_packets,
    };
    (packets, info)
}

pub fn firewall_input(o: &Opts) -> (firewall::Input, InputInfo) {
    let s = sizes(o.smoke);
    let input = firewall::generate(o.seed, s.firewall_rules, s.firewall_packets);
    let info = InputInfo {
        packets: input.packets.len() as u64,
        // A verdict is asked for a (timestamp, source, destination) triple.
        bytes: input.packets.len() as u64 * 16,
        flows: 0,
        rules: input.rules.len() as u64,
        elephant_packets: 0,
    };
    (input, info)
}

/// `http_skew_par`'s entry point under a given governance (the traced pass
/// also runs it once with the program's own tracing switched on).
pub fn run_parallel(packets: &[RawPacket], governance: Governance) -> RtResult<AnalysisResult> {
    run_http_analysis_parallel(
        packets,
        ParserStack::Standard,
        Engine::Compiled,
        &PipelineOptions {
            workers: WORKERS,
            governance,
            ..Default::default()
        },
    )
}

/// A trace through the sequential entry point of the workload's protocol,
/// on a chosen parser stack and script engine.
pub fn run_sequential(
    w: Workload,
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
) -> RtResult<AnalysisResult> {
    let gov = governance();
    match w {
        Workload::DnsBinpacSeq => run_dns_analysis_governed(packets, stack, engine, &gov),
        _ => run_http_analysis_governed(packets, stack, engine, &gov),
    }
}

/// The workload's public entry point.
pub fn run_batch(w: Workload, packets: &[RawPacket]) -> RtResult<AnalysisResult> {
    match w {
        Workload::HttpSkewPar => run_parallel(packets, governance()),
        Workload::Firewall4k => unreachable!("the firewall workload is not a pipeline"),
        _ => run_sequential(w, packets, w.stack(), Engine::Compiled),
    }
}

/// The reference runs of the output check: [`run_sequential`]'s logs.
fn run_reference(
    w: Workload,
    packets: &[RawPacket],
    stack: ParserStack,
    engine: Engine,
) -> RtResult<Logs> {
    Ok(Logs::take(&mut run_sequential(w, packets, stack, engine)?))
}

/// Repeats `rep` (which returns the seconds it timed) until the timed
/// seconds add up to `seconds` and at least `min_reps` are in.
fn timed_reps(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    while times.len() < min_reps || times.iter().sum::<f64>() < seconds {
        times.push(rep()?);
    }
    Ok(times)
}

fn min_reps(o: &Opts) -> usize {
    if o.smoke {
        1
    } else {
        5
    }
}

fn describe(what: &str, unit: &str, q: &Quartiles) -> String {
    format!(
        "{what}: median {:.6} q1 {:.6} q3 {:.6} min {:.6} {unit} over {} samples",
        q.median, q.q1, q.q3, q.min, q.n
    )
}

/// The end-to-end metrics, in [`END_TO_END`]'s order.
fn end_to_end_metrics(
    packets: u64,
    rep_secs: &Quartiles,
    peak_bytes: u64,
    setup: &Quartiles,
) -> Vec<Metric> {
    let values = [
        packets as f64 / rep_secs.min,
        peak_bytes as f64 / (1024.0 * 1024.0),
        setup.median,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(e, value)| Metric {
            name: e.name,
            value,
            unit: e.unit,
        })
        .collect()
}

/// The end-to-end pass (`--trace 0`): all tracing off.
pub fn end_to_end(w: Workload, o: &Opts) -> Result<Outcome, String> {
    match w {
        Workload::Firewall4k => firewall_end_to_end(o),
        _ => pipeline_end_to_end(w, o),
    }
}

fn pipeline_end_to_end(w: Workload, o: &Opts) -> Result<Outcome, String> {
    let (packets, input) = pipeline_input(w, o);
    let mut notes = Vec::new();
    // See `affinity`: three threads on two cores have no steady wall time.
    let _one_cpu = (w == Workload::HttpSkewPar).then(|| {
        let pin = OneCpu::pin();
        notes.push(format!(
            "measured on one CPU (pinned: {}); scaling is in the traced pass",
            pin.is_pinned()
        ));
        pin
    });

    // Warm-up repetition: fills caches, and is the one whose heap is
    // counted and whose output is checked against the references.
    alloc::start();
    let warm = run_batch(w, &packets);
    let peak_bytes = alloc::peak_bytes();
    alloc::stop();
    let mut warm = warm.map_err(|e| e.to_string())?;
    let logs = Logs::take(&mut warm);
    let check = check_pipeline(w, &packets, &warm, &logs, o).map_err(|e| e.to_string())?;
    notes.extend(check.notes);

    // Set-up samples are taken a few after every repetition, so a burst of
    // noise on the host touches some of them and not their median.
    let mut setup: Vec<f64> = Vec::new();
    let mut time_setup = |n: usize| -> Result<(), String> {
        for _ in 0..n {
            let t = Instant::now();
            let r = run_batch(w, &[]);
            setup.push(t.elapsed().as_secs_f64());
            r.map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let mut stable = true;
    let times = timed_reps(o.seconds, min_reps(o), || {
        let t = Instant::now();
        let r = run_batch(w, std::hint::black_box(&packets));
        let secs = t.elapsed().as_secs_f64();
        let mut r = r.map_err(|e| e.to_string())?;
        stable &= Logs::take(&mut r) == logs;
        time_setup(SETUP_PER_REP)?;
        Ok(secs)
    })?;
    time_setup(SETUP_SAMPLES.saturating_sub(times.len() * SETUP_PER_REP))?;
    if !stable {
        notes.push("FAIL: a timed repetition logged differently from the warm-up".into());
    }

    let rep = quartiles(&times);
    let setup = quartiles(&setup);
    notes.push(describe("repetition", "s", &rep));
    notes.push(describe("set-up", "s", &setup));
    Ok(Outcome {
        correct: check.correct && stable,
        attempted: input.flows,
        failed: check.failed.min(input.flows),
        metrics: end_to_end_metrics(input.packets, &rep, peak_bytes, &setup),
        input,
        notes,
    })
}

pub struct Check {
    pub correct: bool,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Normalized lines of `a` that `b` lacks.
fn only_in<'a>(a: &'a [String], b: &[String]) -> Vec<&'a String> {
    let b: HashSet<&String> = b.iter().collect();
    a.iter().filter(|l| !b.contains(l)).collect()
}

/// `dns.log` lines of TXT answers. BinPAC++ keeps every character-string
/// of a TXT record and the handwritten parser the first; the paper's
/// Table 2 has the same documented difference, so such lines are counted
/// and printed, not failed. Any other disagreement is a failure.
fn is_txt_line(normalized: &str) -> bool {
    normalized.split('\t').nth(4) == Some("TXT")
}

/// Checks a pipeline run's output (untimed):
/// 1. against the other parser stack on the same trace, an independent
///    implementation of the protocols;
/// 2. compiled against interpreted scripts on a seeded prefix of ≥ 10 %;
/// 3. for the parallel workload, byte for byte against the sequential run,
///    with no shard faulted and no packet shed.
///
/// Every quarantined flow and shed packet counts as a failed operation.
fn check_pipeline(
    w: Workload,
    packets: &[RawPacket],
    run: &AnalysisResult,
    logs: &Logs,
    o: &Opts,
) -> RtResult<Check> {
    let mut c = Check {
        correct: true,
        failed: 0,
        notes: Vec::new(),
    };
    let mut logs = logs.clone();
    if o.corrupt_output {
        logs.corrupt();
    }
    let fail = |c: &mut Check, n: u64, what: String| {
        c.correct = false;
        c.failed += n.max(1);
        c.notes.push(format!("FAIL: {what}"));
    };

    let quarantined: HashSet<&str> = run.flow_errors.iter().map(|e| e.uid.as_str()).collect();
    c.failed += quarantined.len() as u64 + run.shed_packets;
    if !quarantined.is_empty() || run.shed_packets > 0 {
        c.notes.push(format!(
            "{} flows quarantined, {} packets shed",
            quarantined.len(),
            run.shed_packets
        ));
    }

    if w == Workload::HttpSkewPar {
        let seq = run_reference(w, packets, w.stack(), Engine::Compiled)?;
        let n = logs.differing_lines(&seq);
        if n > 0 {
            fail(
                &mut c,
                n,
                format!("{n} lines differ from the sequential run"),
            );
        }
        if !run.shard_faults.is_empty() {
            let n = run.shard_faults.len() as u64;
            fail(&mut c, n, format!("{n} shards faulted"));
        }
    } else {
        let other = match w.stack() {
            ParserStack::Standard => ParserStack::Binpac,
            ParserStack::Binpac => ParserStack::Standard,
        };
        let reference = run_reference(w, packets, other, Engine::Compiled)?;
        for (name, ours, theirs) in [
            ("http.log", &logs.http, &reference.http),
            ("files.log", &logs.files, &reference.files),
            ("dns.log", &logs.dns, &reference.dns),
        ] {
            let agree = agreement(ours, theirs);
            let (ours, theirs) = (normalize(ours), normalize(theirs));
            let (mut a_only, mut b_only) = (only_in(&ours, &theirs), only_in(&theirs, &ours));
            if name == "dns.log" {
                let before = a_only.len().max(b_only.len());
                a_only.retain(|l| !is_txt_line(l));
                b_only.retain(|l| !is_txt_line(l));
                let txt = before - a_only.len().max(b_only.len());
                if txt > 0 {
                    c.notes.push(format!(
                        "dns.log: {txt} of {} lines differ in multi-string TXT answers \
                         (documented parser difference, not failed)",
                        ours.len()
                    ));
                }
            }
            let n = a_only.len().max(b_only.len()) as u64;
            if n > 0 {
                let sample = a_only.first().or(b_only.first()).map_or("", |l| l.as_str());
                fail(
                    &mut c,
                    n,
                    format!("{name}: {n} lines disagree with the {other:?} stack, e.g. {sample:?}"),
                );
            }
            if !ours.is_empty() || !theirs.is_empty() {
                c.notes.push(format!(
                    "{name}: {:.2}% of {} lines identical on the {other:?} stack",
                    agree.percent(),
                    agree.total_a
                ));
            }
        }
    }

    let prefix = &packets[..packets.len() * (10 + (o.seed % 5) as usize) / 100];
    let compiled = run_reference(w, prefix, w.stack(), Engine::Compiled)?;
    let interpreted = run_reference(w, prefix, w.stack(), Engine::Interpreted)?;
    let n = compiled.differing_lines(&interpreted);
    if n > 0 {
        fail(
            &mut c,
            n,
            format!("{n} lines differ between compiled and interpreted scripts"),
        );
    }
    c.notes.push(format!(
        "compiled = interpreted on a {}-packet prefix ({} lines)",
        prefix.len(),
        compiled.lines()
    ));
    Ok(c)
}

/// Runs the compiled firewall over the stream, returning its verdicts.
pub fn firewall_verdicts(
    fw: &mut HiltiFirewall,
    packets: &[firewall::Packet],
) -> RtResult<Vec<bool>> {
    packets
        .iter()
        .map(|&(t, src, dst)| fw.match_packet(t, src, dst))
        .collect()
}

/// Checks firewall verdicts (untimed): the oracle against
/// `ReferenceFirewall` on a prefix, then every verdict of the run against
/// the oracle. Also returns the oracle's class for each packet.
pub fn check_firewall(input: &firewall::Input, verdicts: &[bool], o: &Opts) -> (Check, Vec<Class>) {
    let mut c = Check {
        correct: true,
        failed: 0,
        notes: Vec::new(),
    };
    let mut verdicts = verdicts.to_vec();
    if o.corrupt_output {
        verdicts[0] = !verdicts[0];
    }
    let mut oracle = Oracle::new(&input.rules);
    let classes: Vec<Class> = input.packets.iter().map(|&p| oracle.classify(p)).collect();

    let mut reference = ReferenceFirewall::new(&input.rules);
    let prefix = REFERENCE_PREFIX.min(input.packets.len());
    let oracle_wrong = input.packets[..prefix]
        .iter()
        .zip(&classes)
        .filter(|(&(t, src, dst), class)| reference.match_packet(t, src, dst) != class.allowed())
        .count();
    if oracle_wrong > 0 {
        c.correct = false;
        c.notes.push(format!(
            "FAIL: the oracle disagrees with ReferenceFirewall on {oracle_wrong} of {prefix} packets"
        ));
    }
    let wrong = verdicts
        .iter()
        .zip(&classes)
        .filter(|(v, class)| **v != class.allowed())
        .count() as u64;
    if wrong > 0 || verdicts.len() != classes.len() {
        c.correct = false;
        c.failed = wrong.max(1);
        c.notes
            .push(format!("FAIL: {wrong} verdicts differ from the oracle"));
    }
    let mut seen = [0u64; 4];
    for class in &classes {
        seen[*class as usize] += 1;
    }
    c.notes.push(format!(
        "verdicts = oracle on all {} packets, oracle = ReferenceFirewall on the first {prefix}; \
         {} allowed; mix: {} state hits, {} new allowed pairs, {} denied by rule, {} matched nothing",
        classes.len(),
        classes.iter().filter(|c| c.allowed()).count(),
        seen[0],
        seen[1],
        seen[2],
        seen[3]
    ));
    (c, classes)
}

fn firewall_end_to_end(o: &Opts) -> Result<Outcome, String> {
    let (input, info) = firewall_input(o);
    let compile =
        || HiltiFirewall::compile(&input.rules, OptLevel::Full).map_err(|e| e.to_string());

    alloc::start();
    let warm = compile()
        .and_then(|mut fw| firewall_verdicts(&mut fw, &input.packets).map_err(|e| e.to_string()));
    let peak_bytes = alloc::peak_bytes();
    alloc::stop();
    let warm = warm?;
    let (check, _) = check_firewall(&input, &warm, o);
    let mut notes = check.notes;

    // Every repetition needs a fresh firewall (state must start empty),
    // so each one also yields a set-up sample.
    let mut setup = Vec::new();
    let mut stable = true;
    let mut rep = || -> Result<f64, String> {
        let t = Instant::now();
        let mut fw = compile()?;
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let verdicts = firewall_verdicts(&mut fw, std::hint::black_box(&input.packets));
        let secs = t.elapsed().as_secs_f64();
        stable &= verdicts.map_err(|e| e.to_string())? == warm;
        Ok(secs)
    };
    let times = timed_reps(o.seconds, min_reps(o).max(FIREWALL_SETUP_SAMPLES), &mut rep)?;
    if !stable {
        notes.push("FAIL: a timed repetition gave different verdicts from the warm-up".into());
    }

    let rep = quartiles(&times);
    let setup = quartiles(&setup);
    notes.push(describe("repetition", "s", &rep));
    notes.push(describe("set-up", "s", &setup));
    Ok(Outcome {
        correct: check.correct && stable,
        attempted: info.packets,
        failed: check.failed,
        metrics: end_to_end_metrics(info.packets, &rep, peak_bytes, &setup),
        input: info,
        notes,
    })
}
