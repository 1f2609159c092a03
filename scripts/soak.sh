#!/usr/bin/env bash
# Soak gate: sustained-load robustness for the parallel pipeline.
#
# Runs the `soak` harness (crates/bench/src/bin/soak.rs): waves of fresh
# synthetic HTTP/DNS flows through the flow-sharded pipeline, asserting
# zero effect loss, zero shard faults, zero shedding under `Block`, a
# bounded per-flow parser heap, and a flat live-heap baseline across
# waves (leak check). The harness exits non-zero on any violation.
#
#   scripts/soak.sh --smoke     # CI profile: ~60k flows, 60 s box
#   scripts/soak.sh             # full profile: ~1M flows, 600 s box
#
# Extra arguments are passed straight to the harness (see `soak --help`
# output for --flows/--wave/--workers/--proto/--shed/--deadline-ms).

set -euo pipefail
cd "$(dirname "$0")/.."

out=target/soak-summary.json
cargo build -q --release -p bench --bin soak
./target/release/soak --out "$out" "$@"
echo "soak: summary written to $out"
