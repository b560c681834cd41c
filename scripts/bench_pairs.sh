#!/usr/bin/env bash
# Time the working tree against a revision in alternating benchmark runs.
# Unpacks `git archive REV` (default HEAD) into a temporary directory, then
# runs `python3 benchmarks/run.py --workload WORKLOAD --seed 1 --trace 0`
# for SECONDS (default 15) there and in the working tree, PAIRS times
# (default 5), alternating which side runs first (REV in odd pairs).
# Prints each pair's op_p50_ms, op_tail_ms, setup_s and peak_rss_mb, REV
# first, then the median of each on each side.  Exits 1 if a run fails or
# reports a failed op.
# Usage, from the repository root:
#   scripts/bench_pairs.sh [REV] WORKLOAD [PAIRS] [SECONDS]
set -u -o pipefail
if [ $# -ge 2 ] && ! [[ "$2" =~ ^[0-9]+$ ]]; then
    rev="$1"
    shift
else
    rev=HEAD
fi
workload="${1:?usage: scripts/bench_pairs.sh [REV] WORKLOAD [PAIRS] [SECONDS]}"
pairs="${2:-5}"
seconds="${3:-15}"
root="$(git rev-parse --show-toplevel)" || exit 2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/tree" || exit 2

status=0
for i in $(seq 1 "$pairs"); do
    order="rev work"
    [ $((i % 2)) = 0 ] && order="work rev"
    for side in $order; do
        tree="$root"
        [ "$side" = rev ] && tree="$tmp/tree"
        (cd "$tree" && python3 benchmarks/run.py --workload "$workload" --seed 1 \
            --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) > "$tmp/$side.$i.json" || status=1
    done
done

python3 - "$tmp" "$pairs" "$rev" "$workload" <<'PY' || status=1
import json
import statistics
import sys
from pathlib import Path

tmp, pairs, rev, workload = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4]
names = ("op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")
runs = {side: [] for side in ("rev", "work")}
ok = True
for i in range(1, pairs + 1):
    for side in runs:
        try:
            out = json.loads((tmp / f"{side}.{i}.json").read_text())
        except (OSError, ValueError):
            out = {"correct": False, "metrics": {}}
        ok &= bool(out.get("correct")) and not out.get("failed")
        runs[side].append({n: out["metrics"].get(n, {}).get("value", float("nan")) for n in names})
print(f"{workload}, {rev} / working tree, {pairs} alternating pairs at seed 1:")
for i, (a, b) in enumerate(zip(runs["rev"], runs["work"]), 1):
    print(f"  pair {i}: " + ", ".join(f"{n} {a[n]:.4g} / {b[n]:.4g}" for n in names))
print("  median: " + ", ".join(
    f"{n} {statistics.median(r[n] for r in runs['rev']):.4g} / "
    f"{statistics.median(r[n] for r in runs['work']):.4g}" for n in names))
if not ok:
    print("  a run failed or reported a failed op")
sys.exit(0 if ok else 1)
PY
exit "$status"
