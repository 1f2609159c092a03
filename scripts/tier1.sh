#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   no registry      — `Cargo.lock` has no `source =` line: every dependency
#                      is a workspace crate, none comes from a registry or git
#   rustfmt          — `cargo fmt --all -- --check` over the workspace
#   build (release)  — the artifacts the benchmarks run against
#   test             — unit + integration suites across the workspace,
#                      including the exact allocation counts (alloc_budget)
#   clippy           — lint wall over every target (libs, bins, tests,
#                      examples); warnings are errors
#   doc              — rustdoc wall (broken or private intra-doc links)
#   golden digest    — the analysis pipelines' behaviour digest
#                      (crates/bench/examples/digest.rs) matches the
#                      committed crates/bench/examples/digest.golden
#   opcost           — per-statement script cost table (printed, not gated)
#   repro smoke      — fig9/fig10 JSON artifacts regenerate from traced runs
#                      and validate
#   benchmark smoke  — the repo benchmark (BENCHMARK.json) builds, passes its
#                      own tests, and runs every workload with its output
#                      checks on tiny inputs, then the firewall at full size
#
# Usage: scripts/tier1.sh [extra cargo args, e.g. --offline]

set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace builds from its own crates and `std` alone: a `source =`
# line in the lock file means a registry or git dependency came back.
if grep -n '^source = ' Cargo.lock; then
    echo "tier1: Cargo.lock names a registry or git dependency"
    exit 1
fi

# Formatting next: it needs no build and fails fast. `cargo fmt` takes
# no resolution flags, so "$@" is not passed.
cargo fmt --all -- --check
cargo build --release "$@"
# The root manifest's default-members cover the whole workspace, so this
# runs every crate's suites, including broscript's six differential ones
# (parallel, chaos, supervision, telemetry, tracing, zerocopy).
cargo test -q "$@"
cargo clippy --workspace --all-targets "$@" -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps "$@"

# The refactor contract: every log, output, error ledger and telemetry
# snapshot of the digest matrix is what the committed golden file says.
# `engine.instructions_retired` is left out because a change that makes
# the VM faster is expected to move it. A change that moves a row updates
# the golden file and names the row and the reason in CHANGES.md.
cargo run -q --release -p bench --example digest "$@" -- \
    --omit-counter engine.instructions_retired > target/digest.txt
diff crates/bench/examples/digest.golden target/digest.txt
echo "tier1: digest matches golden"

# What one script statement costs on the compiled engine. Kernel numbers,
# printed as evidence of where script time goes; nothing is asserted.
target/release/repro opcost

# Repro artifacts: regenerate the figure JSON at the smallest scale and
# check each document carries all four component keys. Failures are
# accumulated so one bad artifact doesn't mask the next, then the script
# exits nonzero if anything was wrong.
out=target/repro-artifacts
rm -rf "$out"
REPRO_SCALE=1 REPRO_OUT="$out" cargo run -q --release -p bench --bin repro "$@" -- fig9 fig10
fail=0
for f in "$out"/fig9.json "$out"/fig10.json; do
    if [ ! -s "$f" ]; then
        echo "tier1: missing artifact $f"
        fail=1
        continue
    fi
    for key in protocol_parsing script_execution glue other; do
        if ! grep -q "\"$key\"" "$f"; then
            echo "tier1: $f lacks component $key"
            fail=1
        fi
    done
done
if [ "$fail" -ne 0 ]; then
    echo "tier1: repro artifact checks FAILED"
    exit 1
fi
echo "tier1: repro artifacts OK"

# 4-worker analyzer run that asserts its output against the sequential
# pipeline.
cargo run -q --release --example http_analyzer "$@" -- --workers 4 >/dev/null
echo "tier1: http_analyzer example OK"

# The repo benchmark is a package of its own outside the workspace, so
# nothing above builds it. Its tests cover the generators and the oracle;
# the smoke run drives every workload on tiny inputs through the checks
# that compare each output with its reference; the last run is the
# firewall at full size (4 096 rules, every verdict against the oracle).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke >/dev/null
benchmark/run.sh --workload firewall_4k --seconds 1 --trace 0 >/dev/null
echo "tier1: benchmark smoke OK"
