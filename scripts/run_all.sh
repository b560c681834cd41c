#!/usr/bin/env bash
# Run every shipped experiment config through the CLI of this source
# checkout; no install needed.  Each config writes its report and CSV to
# its own directory, out_dir/<config name>, so no report overwrites another.
# With a seed, every run takes --seed and ignores the seed in its config.
# Usage, from the repository root: scripts/run_all.sh [out_dir] [seed]
set -u
out="${1:-reports}"
seed="${2:-}"
fail=0
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run() {
    echo "== maxfilter_lab.cli $1 --config $2${seed:+ --seed $seed}"
    python3 -m maxfilter_lab.cli "$1" --config "$2" ${seed:+--seed "$seed"} --out "$out/$(basename "$2" .json)" || fail=1
    echo
}

run bounds      configs/bounds_golden.json
run bounds      configs/bounds_signflips3.json
run distortion  configs/distortion_c3.json
run injectivity configs/injectivity_c5.json
run kernel      configs/kernel_c5.json
run kernel      configs/kernel_perm3.json
run maxfilter   configs/maxfilter.json
run chi         configs/chi_perm3.json

exit "$fail"
