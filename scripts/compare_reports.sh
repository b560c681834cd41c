#!/usr/bin/env bash
# Check that the working tree writes the same reports as a revision.
# Unpacks `git archive REV` (default HEAD) into a temporary directory,
# runs scripts/run_all.sh there and in the working tree with the same
# seed (the configs' own seeds when none is given), then compares the two
# report trees with scripts/diff_reports.py.  Prints both exit statuses
# and every difference; exits 1 if the statuses or any report differ.
# Last it prints each config's stage seconds from both trees' `timings`,
# REV first, then the line total of src/maxfilter_lab/*.py in both trees;
# those lines leave the exit status alone.
# Usage, from the repository root: scripts/compare_reports.sh [REV] [SEED]
set -u
rev="${1:-HEAD}"
seed="${2:-}"
root="$(git rev-parse --show-toplevel)" || exit 2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$root" archive "$rev" | tar -x -C "$tmp/tree" || exit 2

(cd "$tmp/tree" && scripts/run_all.sh "$tmp/reports_rev" ${seed:+"$seed"})
rev_status=$?
(cd "$root" && scripts/run_all.sh "$tmp/reports_work" ${seed:+"$seed"})
work_status=$?

echo "run_all.sh exit status: $rev_status at $rev, $work_status in the working tree"
"$root/scripts/diff_reports.py" "$tmp/reports_rev" "$tmp/reports_work"
diff_status=$?

echo "stage seconds, $rev / working tree:"
python3 - "$tmp/reports_rev" "$tmp/reports_work" <<'PY'
import json
import sys
from pathlib import Path

trees = [Path(p) for p in sys.argv[1:]]
for rel in sorted({p.relative_to(t) for t in trees for p in t.rglob("*_report.json")}):
    timings = [json.loads((t / rel).read_text()).get("timings", {})
               if (t / rel).is_file() else {} for t in trees]
    for stage in dict.fromkeys([*timings[0], *timings[1]]):
        cells = [f"{t[stage]:.3f}" if stage in t else "-" for t in timings]
        print(f"  {rel.parent} {stage}: {cells[0]} / {cells[1]} s")
PY
echo "src/maxfilter_lab/*.py lines, $rev / working tree:" \
    "$(cat "$tmp"/tree/src/maxfilter_lab/*.py | wc -l) / $(cat "$root"/src/maxfilter_lab/*.py | wc -l)"

[ "$rev_status" = "$work_status" ] && [ "$diff_status" = 0 ]
