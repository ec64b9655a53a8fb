#!/usr/bin/env bash
# Smoke path of the benchmark: all five workloads, untraced and traced,
# on shrunken inputs (≤ 15 s in total once built), correctness gate fully
# on. Results are flagged "comparable": false. Exits non-zero when any
# check or operation fails. Not yet wired into .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick "$@"
