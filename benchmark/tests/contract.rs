//! The benchmark against its own contract: BENCHMARK.json and the program
//! name the same workloads and metrics, the machine-readable lines are JSON,
//! and the output check bites when an output is corrupted.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use hilti_rt::telemetry::json;

const BIN: &str = env!("CARGO_BIN_EXE_hilti-benchmark");

/// Runs the benchmark in a scratch directory of this test (the traced
/// pass writes `benchmark/out/` under its working directory).
fn run(test: &str, args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

/// The string values of `key` inside the array that follows `"section"` in
/// BENCHMARK.json (its arrays hold flat objects, so no nesting to track).
fn manifest_strings(manifest: &str, section: &str, key: &str) -> Vec<String> {
    let at = manifest.find(&format!("\"{section}\"")).expect(section);
    let body = &manifest[at..];
    let body = &body[body.find('[').unwrap()..body.find(']').unwrap()];
    let needle = format!("\"{key}\"");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &body[i + needle.len()..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_owned()
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line.
fn result_metrics(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\":{").unwrap() + 11..];
    metrics
        .split("},")
        .map(|m| {
            let name = m
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_owned();
            let unit = m
                .rsplit("\"unit\":\"")
                .next()
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_owned();
            (name, unit)
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_run_prints_exactly_what_the_manifest_names() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    json::validate(&manifest).unwrap();
    let pairs = |section: &str| -> BTreeSet<(String, String)> {
        manifest_strings(&manifest, section, "name")
            .into_iter()
            .zip(manifest_strings(&manifest, section, "unit"))
            .collect()
    };
    let workloads: BTreeSet<String> = manifest_strings(&manifest, "workloads", "name")
        .into_iter()
        .collect();
    assert_eq!(workloads.len(), 5);
    assert_eq!(manifest_strings(&manifest, "workloads", "why").len(), 5);

    let out = run("smoke", &["--smoke", "--seed", "4"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut printed_workloads = BTreeSet::new();
    let mut pass = None;
    let mut results = 0;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("# workload ") {
            let mut words = rest.split(' ');
            printed_workloads.insert(words.next().unwrap().to_owned());
            assert_eq!(words.next(), Some("trace"));
            pass = Some(words.next().unwrap() == "1");
            json::validate(rest.split_once(" input ").unwrap().1).unwrap();
        } else if let Some(env) = line.strip_prefix("# env ") {
            json::validate(env).unwrap();
            for key in [
                "nproc",
                "rustc",
                "seed",
                "setup_samples",
                "parallel_threads",
            ] {
                assert!(env.contains(&format!("\"{key}\":")), "env lacks {key}");
            }
        } else if !line.starts_with('#') {
            json::validate(line).unwrap();
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            assert!(line.contains(",\"failed\":0,\"metrics\":{"), "{line}");
            let section = if pass.take().unwrap() {
                "per_layer"
            } else {
                "end_to_end"
            };
            let printed: BTreeSet<(String, String)> = result_metrics(line).into_iter().collect();
            assert_eq!(
                printed,
                pairs(section),
                "{section} metrics differ from BENCHMARK.json"
            );
            assert!(printed.iter().all(|(n, _)| valid_name(n)));
            results += 1;
        }
    }
    assert_eq!(printed_workloads, workloads);
    assert!(workloads.iter().all(|w| valid_name(w)));
    assert_eq!(results, 10, "one result per workload and pass");
    // The last line of output is a result object, as the driver expects.
    assert!(stdout.lines().last().unwrap().starts_with('{'));
}

#[test]
fn corrupted_output_fails_the_run() {
    for workload in [
        "http_binpac_seq",
        "dns_binpac_seq",
        "http_skew_par",
        "firewall_4k",
    ] {
        let args = ["--smoke", "--workload", workload, "--trace", "0"];
        assert!(
            run("clean", &args).status.success(),
            "{workload} fails uncorrupted"
        );
        let out = run("corrupt", &[&args[..], &["--corrupt-output"]].concat());
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(1), "{workload}: {stdout}");
        assert!(
            stdout
                .lines()
                .last()
                .unwrap()
                .starts_with("{\"correct\":false,"),
            "{stdout}"
        );
        assert!(stdout.contains("FAIL:"), "{stdout}");
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = run("args", args);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
