#!/usr/bin/env bash
# Offline check of the benchmark itself: its unit tests, then a --quick
# run of every workload in both trace modes. `bench run` fails unless
# every workload and metric that BENCHMARK.json declares was printed with
# its unit and a finite value, and unless every correctness gate is green.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --quick --seed "${1:-2011}" --out benchmark/out/quick.json
