#!/usr/bin/env bash
# Paired benchmark runs of two revisions of this repository.
#
#   bash scripts/pairs.sh BASE [HEAD] --workload W --pairs N (--seed S | --seeds S1,S2,..) --seconds T [--dir D] [--claim M]
#
# Each revision (any git revision; HEAD defaults to `HEAD`) is exported
# from the local repository with `git archive` into D/base and D/head —
# paths of equal length — and built by its own `benchmark/run.sh` into
# its own target directory. Then, for each seed S in turn, N pairs of
# `run.sh --workload W --seed S --seconds T --trace 0` run, base first in
# even pairs and head first in odd ones, so drift on the host falls on
# both sides alike. Every run's JSON line is appended to D/runs.jsonl.
# Each seed gets its own table. The table gives, per metric, each
# side's median [lower quartile, upper quartile], the change of the
# medians, the base's interquartile range as a share of its median, and
# the pairs in which head did better (the direction is the `better` of
# BENCHMARK.json's end-to-end metrics; other metrics get no count).
#
# The verdict column reads, for each end-to-end metric: `gain` for the
# metric named by --claim when head did better in at least 9 of 10 pairs
# and the medians differ by more than the base's interquartile range;
# else `worse` when head's median is worse than base's by more than the
# metric's BENCHMARK.json bound; else `unresolved` when the base's
# interquartile range is wider than that bound; else `ok`. A last line,
# `seed S: metric verdict; ...`, repeats the column for that seed.
#
# D defaults to $TMPDIR/mantle-pairs (or /tmp/mantle-pairs). An export is
# kept while its revision is unchanged, so repeated calls build
# incrementally. Needs git, cargo and python3.
set -euo pipefail

usage() { sed -n '4p' "$0" | sed 's/^# *//' >&2; exit 2; }
repo="$(cd "$(dirname "$0")/.." && pwd)"
dir="${TMPDIR:-/tmp}/mantle-pairs"
revs=() workload="" pairs="" seeds="" seconds="" claim=""
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed | --seeds) seeds="${seeds:+$seeds,}$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --dir) dir="$2"; shift 2 ;;
    --claim) claim="$2"; shift 2 ;;
    --*) usage ;;
    *) revs+=("$1"); shift ;;
  esac
done
[[ ${#revs[@]} -ge 1 && ${#revs[@]} -le 2 && -n $workload && -n $pairs && -n $seeds && -n $seconds ]] || usage
IFS=, read -r -a seed_list <<< "$seeds"
for seed in "${seed_list[@]}"; do [[ $seed =~ ^[0-9]+$ ]] || usage; done
revs+=(HEAD)

mkdir -p "$dir"
for side in base head; do
  [[ $side == base ]] && rev="${revs[0]}" || rev="${revs[1]}"
  commit="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
  if [[ "$(cat "$dir/$side.rev" 2>/dev/null)" != "$commit" ]]; then
    rm -rf "${dir:?}/$side"
    mkdir -p "$dir/$side"
    git -C "$repo" archive "$commit" | tar -x -C "$dir/$side"
    echo "$commit" > "$dir/$side.rev"
  fi
  echo "building $side = $rev ($commit)" >&2
  env -u CARGO_TARGET_DIR bash "$dir/$side/benchmark/run.sh" --help > /dev/null
done
if [[ -n $claim ]] && ! python3 -c 'import json, sys
sys.exit(sys.argv[2] not in [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]])' \
  "$dir/head/BENCHMARK.json" "$claim"; then
  echo "--claim $claim: not an end-to-end metric of BENCHMARK.json" >&2; exit 2
fi

run() {
  local line
  line="$(env -u CARGO_TARGET_DIR bash "$dir/$1/benchmark/run.sh" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
  echo "{\"side\":\"$1\",\"pair\":$2,\"workload\":\"$workload\",\"seed\":$seed,\"run\":$line}" \
    | tee -a "$dir/runs.jsonl" >&2
  echo "$line" >> "$dir/$1.$$.jsonl"
}
summarize() {
python3 - "$dir/base.$$.jsonl" "$dir/head.$$.jsonl" "$dir/head/BENCHMARK.json" "$claim" "$seed" <<'EOF'
import json, sys

def load(path):
    return [json.loads(line) for line in open(path)]

def quantile(xs, q):  # linear interpolation, as Summary::of does
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

base, head = load(sys.argv[1]), load(sys.argv[2])
end_to_end = json.load(open(sys.argv[3]))["end_to_end"]
better = {m["name"]: m["better"] for m in end_to_end}
bound = {m["name"]: m["bound"] for m in end_to_end}
claim, seed, notes, verdicts = sys.argv[4], sys.argv[5], [], []
bad = [r for r in base + head if not r.get("correct") or r.get("failed")]
print(f"seed {seed}: {len(base)} pairs; runs not correct or with failed ops: {len(bad)}")
print(f"{'metric':<16} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36} {'change':>7} {'base IQR':>8} {'wins':>5} {'verdict':>10}")
for name in base[0]["metrics"]:
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    num = lambda x: f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"
    cell = lambda xs: f"{num(quantile(xs, .5))} [{num(quantile(xs, .25))}, {num(quantile(xs, .75))}]"
    mb, mh = quantile(b, .5), quantile(h, .5)
    change = f"{(mh / mb - 1) * 100:+.1f}%" if mb else "-"
    iqr = f"{(quantile(b, .75) - quantile(b, .25)) / mb * 100:.1f}%" if mb else "-"
    sign = {"higher": 1, "lower": -1}.get(better.get(name))
    won = sum(sign * (y - x) > 0 for x, y in zip(b, h)) if sign else 0
    wins = f"{won}/{len(b)}" if sign else "-"
    verdict = "-"
    if sign:
        spread = quantile(b, .75) - quantile(b, .25)
        if name == claim and 10 * won >= 9 * len(b) and sign * (mh - mb) > spread:
            verdict = "gain"
        elif mb and sign * (mh - mb) / mb < -bound[name]:
            verdict = "worse"
        elif mb and spread / mb > bound[name]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        verdicts.append(f"{name} {verdict}")
    print(f"{name:<16} {cell(b):>36} {cell(h):>36} {change:>7} {iqr:>8} {wins:>5} {verdict:>10}")
    if name == claim and verdict != "gain":
        notes.append(f"claim {name}: not shown ({wins} wins, medians {change} apart, base IQR {iqr})")
for note in notes:
    print(note)
print(f"seed {seed}: " + "; ".join(verdicts))
EOF
}

for seed in "${seed_list[@]}"; do
  rm -f "$dir"/{base,head}.$$.jsonl
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
  done
  summarize
done
rm -f "$dir"/{base,head}.$$.jsonl
