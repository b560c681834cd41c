#!/usr/bin/env python3
"""Benchmark of maxfilter_lab: one seeded workload per run, closed loop.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the library is imported from
``src/``.  One process runs one op at a time with BLAS capped at one
thread.  The set-up is timed in this process and in fresh child
processes, then one untimed warm-up op runs, then ops repeat until
``--seconds`` have passed.  Outputs are checked after the loop, untimed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the untraced loop for half the time, then the same ops
again with spans around each layer's public functions (see tracing.py),
and reports the per-layer metrics, per op.  The last line of stdout is
one JSON object; details (environment, per-op times and counts, spans)
go to .bench_out/.
"""

from __future__ import annotations

import os

# Cap BLAS before numpy is imported anywhere: one op at a time on one
# thread is the closed loop this benchmark measures.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3     # this process plus two fresh children; setup_s is their median
TAIL_BEYOND = 10      # op_tail_ms: highest percentile with this many samples beyond it


@dataclass
class Loop:
    """One timed loop: op times, kept records, counts and errors per op."""

    seconds: float = 0.0
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)   # (k, record)
    counts: dict = field(default_factory=dict)    # k -> counts
    errors: dict = field(default_factory=dict)    # k -> message


def run_loop(work, seconds: float, tracer=None) -> Loop:
    loop = Loop()
    start = time.perf_counter()
    k = 0
    while True:
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            record, counts = work.op(k)
        except Exception:  # an op that raises is a failed op, and the run goes on
            loop.errors[k] = traceback.format_exc()
            print(f"op {k} raised:\n{loop.errors[k]}", file=sys.stderr)
        else:
            loop.records.append((k, record))
            loop.counts[k] = counts
        t1 = time.perf_counter()
        loop.times.append(t1 - t0)
        k += 1
        if t1 - start >= seconds:
            break
    loop.seconds = time.perf_counter() - start
    return loop


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it.  With too few samples for that percentile to lie
    above the median, the median is reported and the percentile is 50."""
    s = sorted(times)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest() -> str:
    """Digest of the library and benchmark sources, which key the stored counts."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def set_up(name: str, seed: int, workdir: Path, tracer=None):
    """Import the library and build the workload's inputs; returns
    (workload, seconds).  The tracer, if any, is installed right after
    the import so that set-up spans are recorded under op "setup"."""
    t0 = time.perf_counter()
    import maxfilter_lab as mfl

    from workloads import WORKLOADS

    if tracer is not None:
        tracer.install()
    work = WORKLOADS[name]()
    work.setup(mfl, workdir, seed)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return work, seconds


def setup_in_child(name: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only", str(workdir)],
        capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def check_counts(name: str, seed: int, warm: dict, loops: list) -> list:
    """Work counts must repeat exactly for the same seed: the warm-up op
    against op 0, the traced loop against the untraced one, and every op
    against the counts stored by earlier runs of the same sources."""
    problems = []
    seen: dict = {}
    if 0 in loops[0].counts:
        seen[0] = dict(warm)
    for loop in loops:
        for k, counts in loop.counts.items():
            problems += _compare(seen.setdefault(k, {}), counts, f"op {k} in this run")
            seen[k].update(counts)
    store = OUT / "counts" / f"{name}-seed{seed}.json"
    digest = source_digest()
    stored = {}
    if store.is_file():
        data = json.loads(store.read_text())
        if data.get("source") == digest:
            stored = {int(k): v for k, v in data["ops"].items()}
    for k, counts in seen.items():
        if k in stored:
            problems += _compare(stored[k], counts, f"op {k} in an earlier run")
        stored.setdefault(k, {}).update(counts)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"source": digest, "ops": stored}, sort_keys=True))
    return problems


def _compare(old: dict, new: dict, where: str) -> list:
    return [f"{key}: {new[key]} here, {old[key]} for {where}"
            for key in sorted(old.keys() & new.keys()) if old[key] != new[key]]


def end_to_end(loop: Loop, setups: list, failed: int) -> dict:
    tail_ms, _ = tail(loop.times)
    return {
        "ops_per_s": len(loop.times) / loop.seconds,
        "op_p50_ms": 1e3 * statistics.median(loop.times),
        "op_tail_ms": 1e3 * tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / len(loop.times),
    }


def per_layer(tracer, plain: Loop, traced: Loop, names: list) -> dict:
    """The per-layer metrics of the traced loop, averaged per op."""
    from tracing import COUNTERS

    n_ops = len(traced.times)
    tot = tracer.layer_totals(range(n_ops))
    by_stat = {"calls": tot["calls"], "s": tot["busy"], "self_s": tot["self"]}
    out = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if stat in by_stat:
            out[name] = by_stat[stat].get(base, 0) / n_ops
        elif name in COUNTERS:
            out[name] = tot["counters"].get(name, 0) / n_ops
    lp_calls = tot["calls"].get("voronoi.lp", 0)
    out.update({
        "groups.construct.s": tot["construct_s"] / n_ops,
        "groups.construct.setup_s": tracer.layer_totals(["setup"])["construct_s"],
        "cli.self_s": tot["self"].get("cli.run", 0.0) / n_ops,
        "voronoi.lp.feasible_ratio":
            tot["counters"].get("voronoi.lp.feasible", 0) / lp_calls if lp_calls else 0.0,
        "voronoi.lp.share": tot["busy"].get("voronoi.lp", 0.0) / sum(traced.times),
        "trace.ops": n_ops,
        "trace.overhead_ratio":
            (n_ops / traced.seconds) / (len(plain.times) / plain.seconds),
    })
    missing = [n for n in names if n not in out]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return {n: out[n] for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "maxfilter_lab" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {workloads}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_only is not None:
        _, seconds = set_up(args.workload, args.seed, Path(args.setup_only))
        print(json.dumps({"setup_s": seconds}))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        return measure(args, spec, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict, tag: str, workdir: Path) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    work, first_setup = set_up(args.workload, args.seed, workdir / "setup0", tracer)
    setups = [first_setup]
    if not args.trace:
        setups += [setup_in_child(args.workload, args.seed, workdir / f"setup{i}")
                   for i in range(1, SETUP_SAMPLES)]

    # a traced run splits its time: the untraced half is the base of
    # trace.overhead_ratio, the traced half gives the per-layer numbers
    seconds = args.seconds / 2 if tracer is not None else args.seconds
    _, warm_counts = work.op(0)          # untimed warm-up; counts nowhere
    plain = run_loop(work, seconds)
    loops = [plain]
    if tracer is not None:
        tracer.install()
        try:
            loops.append(run_loop(work, seconds, tracer))
        finally:
            tracer.uninstall()
        for k, counts in loops[1].counts.items():
            counts.update(tracer.op_counts(k))

    failures: dict = {}
    for li, loop in enumerate(loops):
        for k, msg in loop.errors.items():
            failures[(li, k)] = [msg.strip().splitlines()[-1]]
        for pos, msgs in work.check(loop.records).items():
            failures.setdefault((li, loop.records[pos][0]), []).extend(msgs)
    for (li, k), msgs in sorted(failures.items()):
        print(f"FAILED op {k} of loop {li}: " + "; ".join(msgs), file=sys.stderr)
    count_problems = check_counts(args.workload, args.seed, warm_counts, loops)
    if count_problems:
        print("ERROR: work counts differ between runs of the same seed:\n  "
              + "\n  ".join(count_problems), file=sys.stderr)
        return 1

    attempted = sum(len(loop.times) for loop in loops)
    plain_failed = sum(1 for li, _ in failures if li == 0)
    if tracer is None:
        values = end_to_end(plain, setups, plain_failed)
        declared = spec["end_to_end"]
    else:
        values = per_layer(tracer, plain, loops[1], [m["name"] for m in spec["per_layer"]])
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    OUT.mkdir(parents=True, exist_ok=True)
    tail_ms, tail_pct = tail(plain.times)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "source": source_digest(), "setup_samples_s": setups,
        "op_tail": {"percentile": tail_pct, "samples": len(plain.times)},
        "loops": [{"seconds": loop.seconds, "op_s": loop.times,
                   "counts": {str(k): v for k, v in loop.counts.items()}} for loop in loops],
        "failures": {f"{li}:{k}": msgs for (li, k), msgs in failures.items()},
        "run_wall_s": time.perf_counter() - START,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.dump(OUT / f"{tag}.spans.jsonl")
    for name, m in metrics.items():
        print(f"{name:>40} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if tracer is None:
        print(f"op_tail_ms is p{tail_pct:.0f} of {len(plain.times)} ops", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
