#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/sweep.py --workloads certify chi --seeds 1 2 3 --trace 0 \
        [--out benchmarks/BENCH_1.json]

Runs ``benchmarks/run.py`` once per (workload, seed), one at a time, with
the ``run_seconds`` of BENCHMARK.json.  For every metric it prints the
median, the quartiles and the spread, (Q3 - Q1) / median, next to the
metric's bound.  ``--out`` writes the summary, every run's metrics and
mean work counts, and the environment of the first run, under the key
``trace0`` or ``trace1`` of a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def mean_counts(counts: dict) -> dict:
    """Mean of each numeric work count over the ops of one loop."""
    keys = {k for c in counts.values() for k, v in c.items() if isinstance(v, int)}
    return {k: statistics.mean(c.get(k, 0) for c in counts.values()) for k in sorted(keys)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, runs, env = {}, [], None
    for workload in args.workloads:
        per_metric: dict = {}
        for seed in args.seeds:
            cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((ROOT / ".bench_out" /
                                 f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            env = env or detail["environment"]
            runs.append({"workload": workload, "seed": seed, **result,
                         "op_tail": detail["op_tail"],
                         "counts_per_op": mean_counts(detail["loops"][0]["counts"])})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        summary[workload] = {name: summarise(v) for name, v in per_metric.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:.3f} {'ok' if s['spread'] < bound else 'WIDE'}"
            print(f"{workload:>8} {name:>40} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}{flag}")
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.is_file() else {}
        data[f"trace{args.trace}"] = {
            "environment": env, "run_seconds": spec["run_seconds"],
            "seeds": args.seeds, "summary": summary, "runs": runs}
        out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
