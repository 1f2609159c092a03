//! The repo benchmark: five workloads over the whole analysis stack.
//!
//! ```text
//! hilti-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hilti-benchmark [--seed <n>] [--seconds <s>] [--smoke]     every workload, both passes
//! hilti-benchmark --selfcheck [--seed <n>] [--seconds <s>]   two sets of runs, compared
//! ```
//!
//! Each pass prints `#` comment lines for people and then one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`) on a line of its own; with
//! `--workload` and `--trace` given that object is the last line of output.
//! The exit code is 0 only if every output checked out. See README.md.

mod affinity;
mod alloc;
mod firewall;
mod layers;
mod report;
mod skew;
mod spans;
mod staged;
mod util;
mod workloads;

use std::process::ExitCode;

use report::END_TO_END;
use workloads::{Opts, Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 11;
/// BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.2;

struct Cli {
    opts: Opts,
    workloads: Vec<Workload>,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: traced pass only.
    trace: Option<bool>,
    selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            smoke: false,
            corrupt_output: false,
        },
        workloads: Workload::ALL.to_vec(),
        trace: None,
        selfcheck: false,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workloads = vec![Workload::from_name(name).ok_or(format!(
                    "unknown workload {name:?}; one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?];
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => cli.opts.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            "--corrupt-output" => cli.opts.corrupt_output = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    cli.opts.seconds = seconds.unwrap_or(if cli.opts.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(cli)
}

fn run_pass(w: Workload, trace: bool, o: &Opts) -> Result<Outcome, String> {
    let out = if trace {
        layers::per_layer(w, o)
    } else {
        workloads::end_to_end(w, o)
    }?;
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{}: metric {} is not a number", w.name(), m.name));
    }
    Ok(out)
}

/// Runs the chosen workloads and passes; true if every output was correct.
fn run_all(cli: &Cli) -> Result<bool, String> {
    println!("# env {}", report::env_json(&cli.opts));
    let mut all_correct = true;
    for &w in &cli.workloads {
        for trace in [false, true] {
            if cli.trace.is_some_and(|only| only != trace) {
                continue;
            }
            let out = run_pass(w, trace, &cli.opts)?;
            report::print_outcome(w, trace, &out);
            all_correct &= out.correct;
        }
    }
    Ok(all_correct)
}

/// Runs the end-to-end pass of every workload twice (set A in order, set B
/// in reverse order, so no workload always runs after the same neighbour)
/// and compares the sets by each metric's own bound.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    println!("# env {}", report::env_json(&cli.opts));
    let mut order = cli.workloads.clone();
    let mut sets: Vec<Vec<(Workload, Outcome)>> = Vec::new();
    for set in ["A", "B"] {
        println!("# selfcheck set {set}");
        let mut outs = Vec::new();
        for &w in &order {
            let out = run_pass(w, false, &cli.opts)?;
            report::print_outcome(w, false, &out);
            outs.push((w, out));
        }
        sets.push(outs);
        order.reverse();
    }
    let (a, b) = (&sets[0], &sets[1]);
    let mut ok = true;
    println!("# selfcheck: set B against set A, by each metric's bound");
    for (w, out_a) in a {
        let (_, out_b) = b
            .iter()
            .find(|(wb, _)| wb == w)
            .expect("both sets ran every workload");
        ok &= out_a.correct && out_b.correct && out_a.failed == out_b.failed;
        for e in &END_TO_END {
            let value = |o: &Outcome| o.metrics.iter().find(|m| m.name == e.name).map(|m| m.value);
            let (Some(va), Some(vb)) = (value(out_a), value(out_b)) else {
                return Err(format!("{}: metric {} missing", w.name(), e.name));
            };
            let diff = (va - vb).abs() / va.min(vb);
            let within = diff <= e.bound;
            ok &= within;
            println!(
                "#   {:<16} {:<14} A {:>16.6} B {:>16.6} {} ({} is better) diff {:>6.2}% bound {:>4.0}% {}",
                w.name(),
                e.name,
                va,
                vb,
                e.unit,
                if e.higher_is_better { "higher" } else { "lower" },
                diff * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        println!(
            "#   {:<16} {:<14} A {:>16} B {:>16} failed of {} attempted",
            w.name(),
            "failed",
            out_a.failed,
            out_b.failed,
            out_a.attempted
        );
    }
    println!("# selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cli| {
        if cli.selfcheck {
            selfcheck(&cli)
        } else {
            run_all(&cli)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hilti-benchmark: an output check failed (see the FAIL lines)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("hilti-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
