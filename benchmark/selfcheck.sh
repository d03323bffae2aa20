#!/usr/bin/env bash
# Self-check of the benchmark (20 s once built): the package's unit tests, then
# the cheapest workload twice on one seed, each result checked against
# BENCHMARK.json and the pair compared as runs of the same commit.
# Not wired into CI yet: .github/ is outside this package.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo test --release --offline --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/results
for run in a b; do
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload faulty_warm --seed 1 --seconds 5 --trace 1 \
        > "benchmark/results/selfcheck-$run.jsonl"
done
python3 benchmark/compare.py --same-commit \
    benchmark/results/selfcheck-a.jsonl benchmark/results/selfcheck-b.jsonl
