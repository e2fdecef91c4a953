#!/usr/bin/env bash
# Build the program and the benchmark from source, then run the benchmark.
#
#   benchmark/run.sh                         # the suite: run --seed 42
#   benchmark/run.sh run --seed 7 --sets 2   # repeatability check
#   benchmark/run.sh trace --seed 42         # traced pass only
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload wire-closed --seed 1 --seconds 20 --trace 0
#
# The last form is one run of one workload; its last output line is one
# JSON object (correct, attempted, failed, metrics).
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"

# One target directory for both builds, so the daemon lands next to the
# benchmark executable: the caller's CARGO_TARGET_DIR, else the
# repository's own target/.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The real daemon, from the repository's workspace and lock file; then
# the benchmark, a workspace of its own. Build chatter goes to stderr so
# standard output stays the benchmark's.
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p mantle-daemon --bin mantled >&2
cargo build --release --offline --quiet \
    --manifest-path "$bench/Cargo.toml" >&2

export MANTLE_BENCH_DIR="$bench"
export MANTLED_BIN="$target/release/mantled"
exec "$target/release/mantle-benchmark" "$@"
