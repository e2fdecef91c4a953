#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, per crate and in total: every
# line of a .rs file above its first `#[cfg(test)]` line (the whole file
# when it has none). Run from anywhere in the repository:
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for src in crates/*/src; do
  n=$(find "$src" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test { n++ }
    END { print n + 0 }')
  printf '%-10s %6d\n' "$(basename "$(dirname "$src")")" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
