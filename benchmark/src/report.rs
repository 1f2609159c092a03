//! What the benchmark prints: the environment block, a readable table per
//! pass (as `#` comment lines), and the one-line machine-readable result.

use std::fmt::Write as _;

use hilti_rt::telemetry::json;

use crate::workloads::{Opts, Outcome, Workload, FIREWALL_SETUP_SAMPLES, SETUP_SAMPLES, WORKERS};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (the same number as in BENCHMARK.json).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "pkts_per_s",
        unit: "pkt/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Host and run parameters, so a number can be judged against the machine
/// that produced it.
pub fn env_json(o: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // `output()` waits for the child, so no process outlives this call.
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"seed\":{},\"seconds_per_pass\":{},\"smoke\":{},\
         \"setup_samples\":{SETUP_SAMPLES},\"firewall_setup_samples\":{FIREWALL_SETUP_SAMPLES},\
         \"parallel_workers\":{WORKERS},\"parallel_threads\":{}}}",
        json::quote(&rustc),
        o.seed,
        o.seconds,
        o.smoke,
        WORKERS + 1
    )
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn result_line(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct, out.attempted, out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            json::quote(m.name),
            m.value,
            json::quote(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Prints one pass of one workload: comment lines for people, then the
/// result object on a line of its own.
pub fn print_outcome(w: Workload, trace: bool, out: &Outcome) {
    let i = &out.input;
    println!(
        "# workload {} trace {} input {{\"packets\":{},\"bytes\":{},\"flows\":{},\
         \"avg_frame_bytes\":{:.1},\"rules\":{},\"elephant_packets\":{}}}",
        w.name(),
        u8::from(trace),
        i.packets,
        i.bytes,
        i.flows,
        i.bytes as f64 / i.packets.max(1) as f64,
        i.rules,
        i.elephant_packets
    );
    for m in &out.metrics {
        println!("#   {:<38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "#   {:<38} {:>18.6} ratio ({} failed of {} attempted)",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("#   {}", note.replace('\n', "\n#   "));
    }
    println!("{}", result_line(out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{InputInfo, Metric};

    #[test]
    fn result_line_is_the_contract_object() {
        let out = Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "pkts_per_s",
                    value: 1234.5678,
                    unit: "pkt/s",
                },
                Metric {
                    name: "setup_s",
                    value: 0.00123,
                    unit: "s",
                },
            ],
            input: InputInfo::default(),
            notes: vec![],
        };
        let line = result_line(&out);
        json::validate(&line).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\
             \"pkts_per_s\":{\"value\":1234.5678,\"unit\":\"pkt/s\"},\
             \"setup_s\":{\"value\":0.00123,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn bounds_and_directions_are_those_of_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for e in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name,
                e.unit,
                if e.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                e.bound
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn env_block_is_json() {
        let o = Opts {
            seed: 3,
            seconds: 0.5,
            smoke: true,
            corrupt_output: false,
        };
        json::validate(&env_json(&o)).unwrap();
    }
}
