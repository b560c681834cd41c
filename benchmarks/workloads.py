"""The four workloads: set-up, one op, and the untimed output checks.

Every op of a workload runs the same mix of library calls and differs
from the others only in its seed, ``op_seed(seed, k)``.  Ops that mixed
different call sets gave a bimodal op time whose median jumped between
identical runs.  Library functions are looked up on the package at call
time (``mfl.name``) so that a traced run sees the benchmark's own calls
as well as the library's internal ones.

Each ``op`` returns ``(record, counts)``: ``record`` is the small part of
the output that ``check`` verifies after the timed loop, ``counts`` the
work counts that must repeat exactly for the same seed.  ``check`` takes
a list of ``(k, record)`` and returns ``{position: [failure, ...]}``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
_WORKLOAD_TAG = {"certify": 71, "chi": 72, "embed": 73, "configs": 74}


def op_seed(seed: int, k: int, workload: str) -> int:
    """Integer seed of op k, drawn from the workload seed."""
    ss = np.random.SeedSequence((seed, _WORKLOAD_TAG[workload], k))
    return int(ss.generate_state(1)[0])


class Certify:
    """One distortion trial per group, as the distortion subcommand runs
    it: upper_bound_exact, alpha_tilde, empirical_lipschitz(200 pairs)."""

    name = "certify"
    # (family, param, n templates, chi)
    GROUPS = [("cyclic_rotation_2d", 3, 16, 2),
              ("sign_flips", 3, 6, 1),
              ("permutations", 3, 6, 1)]
    N_PAIRS = 200
    SLACK = 1e-7
    REFERENCE = Path(__file__).with_name("reference_certify.json")

    def setup(self, mfl, root: Path, seed: int):
        self.mfl, self.seed = mfl, seed
        self.groups = [(mfl.build_family(f, p), n, chi) for f, p, n, chi in self.GROUPS]

    def op(self, k: int):
        mfl, s = self.mfl, op_seed(self.seed, k, self.name)
        record, counts = [], {}
        for gi, (group, n, chi) in enumerate(self.groups):
            rng = np.random.default_rng((s, gi))
            bank = mfl.MaxFilterBank(group, rng.standard_normal((n, group.dim)))
            ub = mfl.upper_bound_exact(bank)
            at = mfl.alpha_tilde(bank, chi)
            emp = mfl.empirical_lipschitz(bank, self.N_PAIRS, seed=s, stream=gi)
            record.append((ub.beta, at, emp.alpha_emp, emp.beta_emp))
            counts[f"g{gi}.lp_solves"] = ub.lp_solves
            counts[f"g{gi}.feasible_tuples"] = ub.feasible_tuples
        return record, counts

    def check(self, records: list) -> dict:
        ref = {}
        if self.seed == DEFAULT_SEED:
            ref = json.loads(self.REFERENCE.read_text())["ops"]
        bad = {}
        for pos, (k, rec) in enumerate(records):
            for gi, (beta, at, a_emp, b_emp) in enumerate(rec):
                name = self.GROUPS[gi][0]
                if a_emp < at - self.SLACK:
                    bad.setdefault(pos, []).append(f"{name}: alpha_emp {a_emp} < alpha_tilde {at}")
                if b_emp > beta + self.SLACK:
                    bad.setdefault(pos, []).append(f"{name}: beta_emp {b_emp} > beta {beta}")
                if str(k) in ref:
                    want_beta, want_at = ref[str(k)][gi]
                    if not (math.isclose(beta, want_beta, rel_tol=1e-9, abs_tol=1e-12)
                            and math.isclose(at, want_at, rel_tol=1e-9, abs_tol=1e-12)):
                        bad.setdefault(pos, []).append(
                            f"{name}: (beta, alpha_tilde) = ({beta}, {at}), "
                            f"reference ({want_beta}, {want_at})")
        return bad


class Chi:
    """voronoi_characteristic with 8 samples on every group of the
    acceptance chi table."""

    name = "chi"
    # (family, param, known chi)
    GROUPS = [("permutations", 3, 1), ("permutations", 4, 1), ("sign_flips", 3, 1),
              ("dihedral_2d", 4, 1), ("plus_minus_id", 2, 2), ("plus_minus_id", 3, 2),
              ("cyclic_rotation_2d", 3, 2), ("cyclic_rotation_2d", 5, 2),
              ("cyclic_rotation_2d", 7, 2)]
    N_SAMPLES = 8

    def setup(self, mfl, root: Path, seed: int):
        self.mfl, self.seed = mfl, seed
        self.groups = [mfl.build_family(f, p) for f, p, _ in self.GROUPS]

    def op(self, k: int):
        mfl, s = self.mfl, op_seed(self.seed, k, self.name)
        record, counts = [], {}
        for gi, group in enumerate(self.groups):
            est = mfl.voronoi_characteristic(group, self.N_SAMPLES, s)
            record.append([int(v) for v in est.sizes])
            counts[f"g{gi}.sizes"] = "".join(str(v) for v in record[-1])
        return record, counts

    def check(self, records: list) -> dict:
        bad = {}
        run_max = [0] * len(self.GROUPS)
        for pos, (_, rec) in enumerate(records):
            for gi, sizes in enumerate(rec):
                known = self.GROUPS[gi][2]
                run_max[gi] = max(run_max[gi], max(sizes))
                if max(sizes) > known:
                    bad.setdefault(pos, []).append(
                        f"{self.GROUPS[gi][:2]}: S-set size {max(sizes)} > chi {known}")
        if records:
            for gi, (fam, param, known) in enumerate(self.GROUPS):
                if run_max[gi] != known:
                    # a run that never reaches the known chi fails as a whole
                    for pos in range(len(records)):
                        bad.setdefault(pos, []).append(
                            f"({fam}, {param}): run maximum {run_max[gi]} != chi {known}")
        return bad


class Embed:
    """The filter and kernel layer alone: bank forward pass, paired
    filters and a Gram audit on five groups, no LP."""

    name = "embed"
    GROUPS = [("permutations", 5), ("sign_flips", 8), ("circular_shifts", 64),
              ("cyclic_rotation_2d", 16), ("dihedral_2d", 8)]
    N_TEMPLATES, N_POINTS, N_PAIRS, N_GRAM = 32, 1024, 1024, 128
    PICK = (0, 511, 1023)        # rows re-checked against the dense reference
    GRAM_PICK = (0, 63, 127)
    ROUND_TRIP = 0               # index of the group saved and reloaded

    def setup(self, mfl, root: Path, seed: int):
        self.mfl, self.seed = mfl, seed
        rng = np.random.default_rng((seed, _WORKLOAD_TAG[self.name]))
        self.groups = [mfl.build_family(f, p) for f, p in self.GROUPS]
        self.banks = [mfl.MaxFilterBank(g, rng.standard_normal((self.N_TEMPLATES, g.dim)))
                      for g in self.groups]
        work = root / "roundtrip"
        work.mkdir(parents=True, exist_ok=True)
        path = work / "group.json"
        built = self.groups[self.ROUND_TRIP]
        mfl.save_group(built, path)
        loaded = mfl.load_group(path)
        self.round_trip_ok = bool(loaded.stack.shape == built.stack.shape
                                  and np.array_equal(loaded.stack, built.stack))
        shutil.rmtree(work)

    def op(self, k: int):
        mfl, s = self.mfl, op_seed(self.seed, k, self.name)
        rng = np.random.default_rng(s)
        record, counts = [], {}
        pick, gpick = list(self.PICK), list(self.GRAM_PICK)
        for gi, (group, bank) in enumerate(zip(self.groups, self.banks)):
            d = group.dim
            X = rng.standard_normal((self.N_POINTS, d))
            Y = rng.standard_normal((self.N_PAIRS, d))
            P = rng.standard_normal((self.N_GRAM, d))
            images = mfl.apply_bank_batch(bank, X)
            pairs = mfl.max_filter_pairs(group, X, Y)
            audit = mfl.gram_audit(group, P)
            record.append((X[pick], images[pick], Y[pick], pairs[pick],
                           P[gpick], audit.gram[np.ix_(gpick, gpick)]))
            counts[f"g{gi}.values"] = images.size + pairs.size + audit.gram.size
        return record, counts

    def check(self, records: list) -> dict:
        mf = self.mfl.max_filter
        bad = {}
        for pos, (_, rec) in enumerate(records):
            if not self.round_trip_ok:
                bad.setdefault(pos, []).append("loaded group stack differs from the built one")
            for gi, (X, images, Y, pairs, P, gram) in enumerate(rec):
                group, Z = self.groups[gi], self.banks[gi].templates
                want_img = np.array([[mf(group, z, x, allow_fft=False) for z in Z] for x in X])
                want_pair = np.array([mf(group, x, y, allow_fft=False) for x, y in zip(X, Y)])
                want_gram = np.array([[mf(group, a, b, allow_fft=False) for b in P] for a in P])
                for what, got, want in (("apply_bank_batch", images, want_img),
                                        ("max_filter_pairs", pairs, want_pair),
                                        ("gram_audit", gram, want_gram)):
                    if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
                        err = float(np.abs(got - want).max())
                        bad.setdefault(pos, []).append(
                            f"{self.GROUPS[gi]}: {what} off the dense reference by {err:.3e}")
        return bad


class Configs:
    """One pass of cli.run over the shipped configs whose library work the
    other workloads do not already carry."""

    name = "configs"
    CONFIGS = [("bounds", "bounds_golden"), ("bounds", "bounds_signflips3"),
               ("injectivity", "injectivity_c5"), ("kernel", "kernel_c5"),
               ("kernel", "kernel_perm3"), ("maxfilter", "maxfilter")]

    def setup(self, mfl, root: Path, seed: int):
        import maxfilter_lab.cli  # noqa: F401  (part of the user's import cost)
        self.mfl, self.seed = mfl, seed
        self.root = root
        self.passes = 0              # every pass writes its own report directory
        self.config_dir = Path("configs")
        for _, cfg in self.CONFIGS:
            if not (self.config_dir / f"{cfg}.json").is_file():
                raise FileNotFoundError(self.config_dir / f"{cfg}.json")

    def op(self, k: int):
        cli, s = self.mfl.cli, op_seed(self.seed, k, self.name)
        record = []
        self.passes += 1
        for sub, cfg in self.CONFIGS:
            out = self.root / f"pass{self.passes}" / cfg
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(sub, str(self.config_dir / f"{cfg}.json"), seed=s, out=str(out))
            record.append((sub, cfg, code, out / f"{sub}_report.json"))
        return record, {"reports": _report_digest(record)}

    def check(self, records: list) -> dict:
        bad = {}
        for pos, (_, rec) in enumerate(records):
            for sub, cfg, code, report_path in rec:
                report = json.loads(report_path.read_text())
                failed = [a["name"] for a in report["assertions"] if not a["passed"]]
                if code != 0 or failed or not report["passed"]:
                    bad.setdefault(pos, []).append(f"{cfg}: exit {code}, failed {failed}")
        return bad


def _report_digest(record) -> str:
    """Digest of one pass's exit codes and reports, timings left out."""
    h = hashlib.sha256()
    for _, _, code, report_path in record:
        report = json.loads(report_path.read_text())
        report.pop("timings", None)
        h.update(json.dumps([code, report], sort_keys=True).encode())
    return h.hexdigest()[:16]


WORKLOADS = {w.name: w for w in (Certify, Chi, Embed, Configs)}
