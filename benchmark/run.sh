#!/usr/bin/env bash
# Build the benchmark once, then run one workload or the whole set.
#
#   benchmark/run.sh                          # the five workloads, end-to-end metrics
#   benchmark/run.sh --trace 1                # the five workloads, per-layer metrics
#   benchmark/run.sh --repeat 5               # the set, five runs each, with spreads
#   benchmark/run.sh --workload warehouse --seed 7 --trace 1
#
# Every argument is passed through to the binary (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/alm-benchmark"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@"
    fi
done
for workload in sim-campaign warehouse runtime-clean runtime-alg runtime-crash; do
    "$bin" --workload "$workload" "$@"
done
