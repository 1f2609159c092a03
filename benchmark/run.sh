#!/usr/bin/env bash
# The repo benchmark, the same way locally and in automation:
#
#   benchmark/run.sh                         every workload, both passes
#   benchmark/run.sh --workload firewall_4k --trace 0 --seed 3
#   benchmark/run.sh --selfcheck             two sets of runs, compared
#   benchmark/run.sh --smoke                 tiny inputs, a few seconds
#
# Runs from the repo root, because BENCHMARK.json's command does and the
# traced pass writes benchmark/out/ relative to it.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
