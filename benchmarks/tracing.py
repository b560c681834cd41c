"""Spans around the public functions of each ``maxfilter_lab`` layer.

The tracer replaces a function at every module that binds it by name
(``stability`` and ``voronoi`` both bind ``strict_cones_feasible``, and
calls inside the defining module look the name up in that module's
globals), so a call is seen whichever module makes it.  Nothing in the
library is edited: ``install`` swaps module attributes and ``uninstall``
puts the originals back.  An untraced run never installs anything.

Each span keeps (name, start, end, parent, op id) in memory; counters
read from arguments and return values are kept per op id.  Both are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "maxfilter_lab"
# (module, function, span name).  The span name is the per-layer metric
# prefix; several functions may share one (the group constructors).
TRACED = [
    ("voronoi", "strict_cones_feasible", "voronoi.lp"),
    ("voronoi", "s_set", "voronoi.s_set"),
    ("voronoi", "sample_principal", "voronoi.sample_principal"),
    ("voronoi", "sample_nice", "voronoi.sample_nice"),
    ("voronoi", "voronoi_characteristic", "voronoi.voronoi_characteristic"),
    ("stability", "upper_bound_exact", "stability.upper_bound_exact"),
    ("stability", "alpha_tilde", "stability.alpha_tilde"),
    ("stability", "empirical_lipschitz", "stability.empirical_lipschitz"),
    ("stability", "lower_bound_sharp", "stability.lower_bound_sharp"),
    ("stability", "upper_bound_relaxed", "stability.upper_bound_relaxed"),
    ("groups", "orbit_of", "groups.orbit_of"),
    ("groups", "stabilizer_order", "groups.stabilizer_order"),
    ("groups", "build_family", "groups.construct"),
    ("groups", "generate_group", "groups.construct"),
    ("groups", "load_group", "groups.construct"),
    ("filtering", "apply_bank_batch", "filtering.apply_bank_batch"),
    ("filtering", "max_filter_pairs", "filtering.max_filter_pairs"),
    ("filtering", "max_filter", "filtering.max_filter"),
    ("kernels", "gram_matrix", "kernels.gram_matrix"),
    ("kernels", "gram_audit", "kernels.gram_audit"),
    ("kernels", "search_psd_violation", "kernels.search_psd_violation"),
    ("kernels", "direct_quadratic_form", "kernels.direct_quadratic_form"),
    ("cli", "run", "cli.run"),
    ("reporting", "write_json", "reporting.write"),
    ("reporting", "write_csv", "reporting.write"),
]

# counters read from arguments and results, summed per op
COUNTERS = ("voronoi.lp.feasible", "voronoi.lp.rows", "voronoi.lp.near_tie",
            "stability.lp_solves", "stability.feasible_tuples", "filtering.values",
            "filtering.bytes_computed", "reporting.bytes_written")
# Nonzero margins this close to zero are the LP verdicts a tolerance change
# could flip.  Cells that do not meet give exactly 0 (y = 0 is optimal), a
# verdict no positive lp_tol changes, so exact zeros are not near-ties.
NEAR_TIE_FACTOR = 10.0
_F8 = 8  # bytes per float64


def _filter_counts(fn, args, kwargs, result):
    """Filter values produced and bytes of the (batch, |G|, d)
    intermediates, computed from the array shapes of one call."""
    if fn == "apply_bank_batch":
        bank, X = args[0], args[1]
        b, n, d, m = len(X), bank.n_templates, bank.dim, bank.group.order
        if bank.group.family == "circular_shifts":
            return b * n, _F8 * b * n * d
        return b * n, _F8 * b * m * (d + n)
    if fn == "max_filter_pairs":
        group, X = args[0], args[1]
        b = len(X)
        return b, _F8 * b * group.order * (group.dim + 1)
    group = args[0]
    allow_fft = kwargs.get("allow_fft", args[3] if len(args) > 3 else True)
    if allow_fft and group.family == "circular_shifts":
        return 1, _F8 * 2 * group.dim
    return 1, _F8 * group.order * group.dim


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []       # (name, start, end, parent, op)
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        homes = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _, _ in TRACED}
        self.default_lp_tol = importlib.import_module(f"{PACKAGE}.tolerances").DEFAULT_TOL.lp_tol
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, fn_name, span in TRACED:
            home = homes[mod_name]
            orig = getattr(home, fn_name)
            wrapper = self._wrap(orig, fn_name, span)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, orig, fn_name: str, span: str):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.op]
            if span == "voronoi.lp":
                counts["voronoi.lp.rows"] += sum(c.orbit.size - 1 for c in args[0])
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (span, t0, t1, parent, tracer.op)
            if span == "voronoi.lp":
                tol = kwargs.get("tol", args[1] if len(args) > 1 else None)
                lp_tol = tol.lp_tol if tol is not None else tracer.default_lp_tol
                counts["voronoi.lp.feasible"] += bool(result.feasible)
                counts["voronoi.lp.near_tie"] += (
                    result.margin != 0.0 and abs(result.margin) <= NEAR_TIE_FACTOR * lp_tol)
            elif span == "stability.upper_bound_exact":
                counts["stability.lp_solves"] += result.lp_solves
                counts["stability.feasible_tuples"] += result.feasible_tuples
            elif span.startswith("filtering."):
                values, nbytes = _filter_counts(fn_name, args, kwargs, result)
                counts["filtering.values"] += values
                counts["filtering.bytes_computed"] += nbytes
            elif span == "reporting.write":
                counts["reporting.bytes_written"] += os.path.getsize(result)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def op_counts(self, op) -> dict:
        """Deterministic work counts of one op: calls per span name plus
        the counters read from arguments and results.  Report sizes are
        left out: the reports carry wall-clock timings."""
        out = {k: v for k, v in self.counts.get(op, {}).items()
               if k != "reporting.bytes_written"}
        for span in self.spans:
            if span[4] == op:
                key = span[0] + ".calls"
                out[key] = out.get(key, 0) + 1
        return {k: int(v) for k, v in sorted(out.items())}

    def layer_totals(self, ops) -> dict:
        """Calls, busy seconds and self seconds per span name, summed over
        the given op ids, plus the counters."""
        ops = set(ops)
        busy = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        top_construct = 0.0
        for name, t0, t1, parent, op in self.spans:
            if op not in ops:
                continue
            busy[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
            if name == "groups.construct" and (
                    parent < 0 or self.spans[parent][0] != "groups.construct"):
                top_construct += t1 - t0
        self_s = defaultdict(float)
        for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op in ops:
                self_s[name] += (t1 - t0) - child.get(idx, 0.0)
        counters = defaultdict(float)
        for op in ops:
            for k, v in self.counts.get(op, {}).items():
                counters[k] += v
        return {"busy": dict(busy), "calls": dict(calls), "self": dict(self_s),
                "construct_s": top_construct, "counters": dict(counters)}

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

