"""Command-line experiment harness.

Usage: ``maxfilter-lab <subcommand> --config path.json [--seed N] [--out dir]``

Subcommands: bounds | distortion | injectivity | kernel | maxfilter | chi.
Each run loads one self-contained JSON config, executes a seeded
experiment, writes a canonical JSON report plus, for every subcommand
but kernel, a flat CSV of per-pair or per-trial numbers, prints one line
per assertion, and exits with:

    0  all assertions passed
    1  at least one assertion failed
    2  config or domain error
    3  a search ran out of budget; its values are reported uncertified

Reports are byte-identical across reruns with the same config and seed;
wall-clock numbers live in the single "timings" field which comparisons
are expected to exclude.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetExceeded, ConfigError, DomainError, MaxFilterError
from .filtering import (MaxFilterBank, _pair_distances, apply_bank_batch,
                        load_templates, max_filter_circular_brute,
                        max_filter_circular_fft)
from .groups import FAMILIES, FiniteGroup, build_family, is_reflection_group, load_group
from .kernels import direct_quadratic_form, search_psd_violation
from .reporting import all_passed, assertion, sanitize, write_csv, write_json
from .stability import (_AUDIT_SLACK, DistortionBoundParams, _within_budget,
                        alpha_tilde, compute_stability_report,
                        empirical_lipschitz, ordering_audit,
                        theoretical_distortion_bound, upper_bound_exact)
from .streams import STREAMS
from .tolerances import DEFAULT_TOL
from .voronoi import proven_chi, voronoi_characteristic

_FRACTION_SLACK = 0.05          # distortion: allowed shortfall below the success probability
_MIN_QUOTIENT_DISTANCE = 1e-3   # injectivity: pairs closer in the quotient are not scanned
_LAMBDA0 = 4.0                  # bounds, distortion: the lambda0 of the closed-form bound
_DIMS = (4, 16, 64, 256)        # maxfilter: the signal lengths it filters
_CHI_SAMPLES = 1000             # chi: the (x, y) pairs it samples
_MAX_PAIRS = 100_000            # largest n_pairs (injectivity_c5's); memory grows with it


def _require_int(name: str, value, least: int) -> None:
    """Raise ConfigError unless value is an integer >= least (not a bool)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_source(name: str, spec, other: str, count: str) -> bool:
    """Raise ConfigError unless spec is an object with exactly one of
    ``other`` and 'path', the path a string, and no key but the path or
    ``other`` and its ``count``; return whether it has a path."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object")
    has_path = "path" in spec
    if has_path == (other in spec):
        raise ConfigError(f"{name} needs exactly one of '{other}' or 'path'")
    unknown = set(spec) - ({"path"} if has_path else {other, count})
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    if has_path and not isinstance(spec["path"], str):
        raise ConfigError(f"{name}.path must be a string, got {spec['path']!r}")
    return has_path


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, fully described by a JSON document.

    ``group_spec`` is either {"family": name, "param": int} or
    {"path": "group.json"}.  ``templates`` is either {"path": "z.csv"} or
    {"sampler": "gaussian", "n": int}; subcommands that draw their own
    templates ignore it.  Only the chi subcommand reads ``expected_chi``
    and ``expected_saturated``; the others take the chi that
    voronoi.proven_chi proves from the group's elements.  Search caps,
    tolerances, chi, lambda0, sizes and the report directory are not
    config keys: the caps are fixed in errors.BUDGETS, lambda0 and the
    sizes in module constants here and in kernels, and reports go to
    ``--out``.
    """

    group_spec: dict
    templates: dict | None = None
    n_pairs: int = 1000
    n_trials: int = 50
    expected_chi: int | None = None
    expected_saturated: bool | None = None
    seed: int | None = None

    def __post_init__(self):
        for name in ("n_pairs", "n_trials"):
            _require_int(name, getattr(self, name), 1)
        if self.n_pairs > _MAX_PAIRS:
            raise ConfigError(f"n_pairs must be at most {_MAX_PAIRS}, got {self.n_pairs}")
        if self.expected_chi is not None:
            _require_int("expected_chi", self.expected_chi, 1)
        if self.expected_saturated is not None and not isinstance(self.expected_saturated, bool):
            raise ConfigError(
                f"expected_saturated must be true or false, got {self.expected_saturated!r}")
        if self.seed is not None:
            _require_int("seed", self.seed, 0)
        if not _require_source("group_spec", self.group_spec, "family", "param"):
            if self.group_spec["family"] not in FAMILIES:
                raise ConfigError(
                    f"unknown family {self.group_spec['family']!r}; "
                    f"known: {sorted(FAMILIES)}")
            _require_int("group_spec.param", self.group_spec.get("param"), 1)
        if self.templates is not None and not _require_source(
                "templates", self.templates, "sampler", "n"):
            if self.templates["sampler"] != "gaussian":
                raise ConfigError("only the 'gaussian' sampler is supported")
            _require_int("templates.n", self.templates.get("n"), 1)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as e:
            raise ConfigError(str(e)) from e


def load_config(path: str | Path) -> tuple[ExperimentConfig, dict]:
    """Parse a config file; returns the dataclass and the raw dict echoed
    verbatim into reports."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {p}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {p}: {type(e).__name__}: {e}") from e
    except (ValueError, RecursionError) as e:   # bad JSON, a long integer, or nesting too deep
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return ExperimentConfig.from_dict(raw), raw


def build_group_from_spec(spec: dict) -> FiniteGroup:
    """The family, or the group file; a file that cannot be read or does
    not hold a valid group is a ConfigError."""
    if "family" in spec:
        return build_family(spec["family"], spec["param"])
    try:
        return load_group(spec["path"])
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as e:
        raise ConfigError(f"group file {spec['path']}: {type(e).__name__}: {e}") from e


def resolve_templates(config: ExperimentConfig, group: FiniteGroup,
                      seed: int) -> np.ndarray:
    if config.templates is None:
        raise ConfigError("this subcommand requires a 'templates' entry")
    if "path" in config.templates:
        try:
            Z = load_templates(config.templates["path"])
        except (OSError, ValueError) as e:
            raise ConfigError(
                f"template file {config.templates['path']}: {type(e).__name__}: {e}") from e
        if Z.shape[1] != group.dim:
            raise ConfigError(
                f"templates have dim {Z.shape[1]}, group acts on {group.dim}")
        if not np.isfinite(Z).all():
            raise ConfigError(f"template file {config.templates['path']}: non-finite entry")
        return Z
    rng = np.random.default_rng((seed, STREAMS["template_sampler"]))
    return rng.standard_normal((config.templates["n"], group.dim))


@contextmanager
def _stage(timings: dict[str, float], name: str):
    """Add the wall-clock seconds of the with-block to timings[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)


def _sandwich_lower(name: str, at: float, distances, image_distances, which: str) -> dict:
    """The check that a certified alpha_tilde is below every pair's ratio:
    the least image distance - at * quotient distance, inf without pairs."""
    margin = float((image_distances - at * distances).min(initial=math.inf))
    return assertion(name, f"alpha_tilde * d <= image distance on every {which} pair",
                     margin >= -_AUDIT_SLACK, margin, _AUDIT_SLACK)


# ---------------------------------------------------------------------------
# subcommands; each takes (config, group, seed, timings), the group built
# by `run` from config.group_spec (maxfilter checks it but filters without
# it) and timings the stage seconds `_stage` adds to, and returns
# (results, assertions, csv_files, certified), where csv_files is a list of
# (filename, table) and a table maps each column name to its column, one
# entry per row (reporting.write_csv); certified is False on a budget miss


def cmd_bounds(config: ExperimentConfig, group: FiniteGroup, seed: int, timings: dict):
    """exact/relaxed upper and certified/sampled lower Lipschitz bounds"""
    Z = resolve_templates(config, group, seed)
    bank = MaxFilterBank(group, Z)
    with _stage(timings, "chi"):
        chi, rule = proven_chi(group)
    with _stage(timings, "bounds"):
        stab, emp = compute_stability_report(bank, n_pairs=config.n_pairs, seed=seed)

    try:
        params = DistortionBoundParams(
            m=group.order, chi=chi, d=group.dim, n=bank.n_templates,
            lambda0=_LAMBDA0)
        bound_info = {"value": theoretical_distortion_bound(params),
                      "reason": None,
                      "lam": params.lam,
                      "success_probability": params.success_probability}
    except DomainError as e:
        bound_info = {"value": None, "reason": str(e)}

    prov = stab.provenance
    certified = all(v for k, v in prov.items() if k.endswith("_certified"))

    asserts = []
    for name, passed, lhs, rhs in ordering_audit(stab):
        asserts.append(assertion(
            name, f"{name.replace('_', ' ')} (within slack)", passed,
            {"lhs": lhs, "rhs": rhs}, _AUDIT_SLACK))
    if prov["alpha_tilde_certified"]:
        asserts.append(_sandwich_lower("sandwich_lower", stab.alpha_tilde, emp.distances,
                                       emp.image_distances, "sampled"))
    if prov["beta_exact_certified"]:
        high_margin = float((stab.beta_exact * emp.distances - emp.image_distances).min())
        asserts.append(assertion(
            "sandwich_upper", "image distance <= beta_exact * d on every sampled pair",
            high_margin >= -_AUDIT_SLACK, high_margin, _AUDIT_SLACK))
    if (prov["alpha_tilde_certified"] and prov["beta_exact_certified"]
            and math.isfinite(stab.kappa_certified) and math.isfinite(stab.kappa_empirical)):
        asserts.append(assertion(
            "kappa_empirical_le_certified",
            "empirical distortion is bounded by the certified ratio",
            stab.kappa_empirical <= stab.kappa_certified + 1e-6,
            {"empirical": stab.kappa_empirical, "certified": stab.kappa_certified},
            1e-6))

    results = {
        "stability": stab,
        "chi": {"chi": chi, "source": rule},
        "theoretical_bound": bound_info,
        "n_templates": bank.n_templates,
        "dim": group.dim,
        "group_order": group.order,
    }
    csvs = [("bounds_pairs.csv", {
        "pair": np.arange(len(emp.ratios)), "quotient_distance": emp.distances,
        "image_distance": emp.image_distances, "ratio": emp.ratios})]
    return results, asserts, csvs, certified


def cmd_distortion(config: ExperimentConfig, group: FiniteGroup, seed: int, timings: dict):
    """random-template distortion vs the closed-form bound"""
    if config.templates is None or "sampler" not in config.templates:
        raise ConfigError("distortion requires templates drawn by a sampler")
    n = int(config.templates["n"])
    with _stage(timings, "chi"):
        chi, rule = proven_chi(group)
    params = DistortionBoundParams(m=group.order, chi=chi, d=group.dim,
                                   n=n, lambda0=_LAMBDA0)
    bound = theoretical_distortion_bound(params)  # DomainError -> exit 2

    table = {"trial": np.arange(config.n_trials), "beta_exact": [], "alpha_tilde": [],
             "kappa_certified": [], "kappa_empirical": [], "within_bound": [],
             "empirical_le_certified": []}
    uncertified = []
    with _stage(timings, "trials"):
        for t in range(config.n_trials):
            rng = np.random.default_rng((seed, STREAMS["distortion_trials"], t))
            bank = MaxFilterBank(group, rng.standard_normal((n, group.dim)))
            # a budget miss leaves the partial value, or NaN, uncertified
            ub, beta_ok = _within_budget(upper_bound_exact, bank)
            beta = ub.beta if beta_ok else ub
            at, at_ok = _within_budget(alpha_tilde, bank, chi)
            certified = beta_ok and at_ok
            if not certified:
                uncertified.append(t)
            emp = empirical_lipschitz(bank, config.n_pairs, seed=seed, stream=t)
            kappa_cert = math.inf if at == 0 else beta / at
            kappa_emp = (math.inf if emp.alpha_emp == 0
                         else emp.beta_emp / emp.alpha_emp)
            table["beta_exact"].append(beta)
            table["alpha_tilde"].append(at)
            table["kappa_certified"].append(kappa_cert)
            table["kappa_empirical"].append(kappa_emp)
            table["within_bound"].append(int(certified and kappa_cert <= bound))
            table["empirical_le_certified"].append(int(kappa_emp <= kappa_cert + 1e-6))

    fraction = float(np.mean(table["within_bound"]))
    # a partial or NaN kappa certifies nothing, so only certified trials are checked
    emp_ok = np.delete(table["empirical_le_certified"], uncertified)
    threshold = max(0.0, params.success_probability - _FRACTION_SLACK)
    asserts = [
        assertion("certified_fraction",
                  "fraction of trials with certified distortion below the "
                  "closed-form bound meets the guaranteed probability minus slack",
                  fraction >= threshold,
                  {"fraction": fraction, "threshold": threshold,
                   "bound": bound}, _FRACTION_SLACK),
        assertion("empirical_le_certified",
                  "empirical distortion never exceeds certified distortion",
                  emp_ok.all(), int(emp_ok.sum()), 1e-6),
    ]
    results = {
        "chi": {"chi": chi, "source": rule},
        "bound": bound,
        "lam": params.lam,
        "success_probability": params.success_probability,
        "fraction_within_bound": fraction,
        "n_trials": config.n_trials,
        "n_templates": n,
        "uncertified_trials": uncertified,
    }
    return results, asserts, [("distortion_trials.csv", table)], not uncertified


def _collision_scan(bank: MaxFilterBank, n_pairs: int, seed: int, n_tag: int):
    """Draw n_pairs Gaussian pairs; among those separated in the quotient,
    count image collisions and find the worst contraction ratio.  Returns
    the summary and the separated pairs' table, which it is read off."""
    group, d = bank.group, bank.dim
    rng = np.random.default_rng((seed, STREAMS["injectivity_pairs"], n_tag))
    batch = 4096
    blocks = []
    for done in range(0, n_pairs, batch):
        b = min(batch, n_pairs - done)
        X = rng.standard_normal((b, d))
        Y = rng.standard_normal((b, d))
        dist = _pair_distances(group, X, Y)
        dphi = np.linalg.norm(apply_bank_batch(bank, X) - apply_bank_batch(bank, Y),
                              axis=1)
        kept = np.flatnonzero(dist > _MIN_QUOTIENT_DISTANCE)
        blocks.append((done + kept, dist[kept], dphi[kept], dphi[kept] / dist[kept]))
    pair, dist, dphi, ratio = (np.concatenate(col) for col in zip(*blocks))
    summary = {"n_pairs": n_pairs, "separated_pairs": len(pair),
               "collisions": int((dphi < DEFAULT_TOL.sample_tol).sum()),
               "min_image_distance": float(dphi.min(initial=math.inf)),
               "min_ratio": float(ratio.min(initial=math.inf))}
    return summary, {"pair": pair, "quotient_distance": dist,
                     "image_distance": dphi, "ratio": ratio}


def cmd_injectivity(config: ExperimentConfig, group: FiniteGroup, seed: int, timings: dict):
    """collision search at the injectivity template counts"""
    d = group.dim
    with _stage(timings, "chi"):
        chi, rule = proven_chi(group)
    threshold_n = chi * (d - 1) + 1
    run_ns = sorted({2 * d, threshold_n})

    runs = {}
    asserts = []
    blocks = []
    certified = True
    for n in run_ns:
        with _stage(timings, f"scan_n{n}"):
            rng = np.random.default_rng((seed, STREAMS["injectivity_templates"], n))
            bank = MaxFilterBank(group, rng.standard_normal((n, d)))
            at, at_ok = _within_budget(alpha_tilde, bank, chi)
            certified &= at_ok
            summary, pairs = _collision_scan(bank, config.n_pairs, seed, n)
        summary["alpha_tilde"] = at if at_ok else None   # a partial alpha_tilde certifies nothing
        runs[f"n={n}"] = summary
        blocks.append({"n_templates": np.full(len(pairs["pair"]), n), **pairs})
        asserts.append(assertion(
            f"no_collisions_n{n}",
            f"with {n} templates, no separated pair maps to the same bank image",
            summary["collisions"] == 0, summary["collisions"], DEFAULT_TOL.sample_tol))
        if n == threshold_n and at_ok:
            asserts.append(assertion(
                f"alpha_tilde_positive_n{n}",
                "certified lower constant is positive at the generic "
                "bilipschitz template count",
                at > 0, at, 0.0))
        if at_ok:
            asserts.append(_sandwich_lower(f"sandwich_lower_n{n}", at, pairs["quotient_distance"],
                                           pairs["image_distance"], "separated"))

    results = {"chi": {"chi": chi, "source": rule}, "runs": runs,
               "min_quotient_distance": _MIN_QUOTIENT_DISTANCE,
               "dim": d, "group_order": group.order}
    table = {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}
    return results, asserts, [("injectivity_pairs.csv", table)], certified


def cmd_kernel(config: ExperimentConfig, group: FiniteGroup, seed: int, timings: dict):
    """kernel positive-semidefiniteness audit"""
    reflection = is_reflection_group(group)
    with _stage(timings, "psd_search"):
        search = search_psd_violation(group, config.n_trials, seed)

    consistent = reflection != search.found
    asserts = [assertion(
        "reflection_psd_dichotomy",
        "violation certificates exist exactly for non-reflection groups",
        consistent,
        {"reflection": reflection, "violation_found": search.found},
        None)]
    recheck = None
    if search.found:
        cert = search.certificate
        recheck = direct_quadratic_form(group, cert.points, cert.coeffs)
        asserts.append(assertion(
            "certificate_recheck",
            "certificate quadratic form re-evaluates negative entry by entry",
            recheck < -1e-6, recheck, 1e-6))

    results = {
        "is_reflection_group": reflection,
        "search": search,
        "certificate_recheck": recheck,
    }
    return results, asserts, [], True


def cmd_maxfilter(config: ExperimentConfig, group: FiniteGroup, seed: int, timings: dict):
    """FFT vs brute-force circular max filtering"""
    results = {}
    asserts = []
    blocks = []
    for d in _DIMS:
        rng = np.random.default_rng((seed, STREAMS["maxfilter_pairs"], d))
        F = rng.standard_normal((config.n_pairs, d))
        G = rng.standard_normal((config.n_pairs, d))
        with _stage(timings, f"fft_d{d}"):
            fft_vals = np.array([max_filter_circular_fft(F[k], G[k])
                                 for k in range(config.n_pairs)])
        with _stage(timings, f"brute_d{d}"):
            brute_vals = np.array([max_filter_circular_brute(F[k], G[k])
                                   for k in range(config.n_pairs)])
        gap = np.abs(fft_vals - brute_vals)
        blocks.append({"dim": np.full(config.n_pairs, d), "pair": np.arange(config.n_pairs),
                       "fft_value": fft_vals, "brute_value": brute_vals,
                       "abs_discrepancy": gap})
        disc = float(gap.max())
        results[f"d={d}"] = {
            "max_discrepancy": disc,
            "n_pairs": config.n_pairs,
        }
        asserts.append(assertion(
            f"fft_matches_brute_d{d}",
            "FFT circular max filter equals the quadratic-time scan",
            disc <= DEFAULT_TOL.sample_tol, disc, DEFAULT_TOL.sample_tol))

    # fft-vs-brute timing comparison is informational; it lives in timings only
    table = {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}
    return {"per_dim": results}, asserts, [("maxfilter_pairs.csv", table)], True


def cmd_chi(config: ExperimentConfig, group: FiniteGroup, seed: int, timings: dict):
    """sampled cell-crossing count of the group, checked against the proven chi"""
    with _stage(timings, "chi"):
        est = voronoi_characteristic(group, _CHI_SAMPLES, seed)
        chi, rule = proven_chi(group)
    counts = np.bincount(est.sizes, minlength=group.order + 1)
    # the sample rests on margin-LP certificates, the proof on the elements:
    # a sample above the proof exposes a fault in one of them
    asserts = [assertion(
        "chi_lower_within_proven", f"sampled cell-crossing count is at most the proven chi {chi}",
        est.chi_lower <= chi, {"chi_lower": est.chi_lower, "chi": chi}, None)]
    if config.expected_chi is not None:
        asserts.append(assertion(
            "chi_matches_expected",
            f"sampled cell-crossing count equals {config.expected_chi}",
            est.chi_lower == config.expected_chi, est.chi_lower, None))
    if config.expected_saturated is not None:
        asserts.append(assertion(
            "saturation_matches_expected",
            f"saturation flag equals {config.expected_saturated}",
            est.saturated == config.expected_saturated, est.saturated, None))

    results = {
        "chi_lower": est.chi_lower,
        "chi": {"chi": chi, "source": rule},
        "saturated": est.saturated,
        "group_order": group.order,
        "n_samples": _CHI_SAMPLES,
        "witness_x": est.witness_x,
        "witness_y": est.witness_y,
        "size_histogram": {str(s): int(counts[s])
                           for s in range(len(counts)) if counts[s] > 0},
    }
    csvs = [("chi_samples.csv", {"sample": np.arange(len(est.sizes)),
                                 "s_set_size": est.sizes})]
    return results, asserts, csvs, True

_DISPATCH = {
    "bounds": cmd_bounds,
    "distortion": cmd_distortion,
    "injectivity": cmd_injectivity,
    "kernel": cmd_kernel,
    "maxfilter": cmd_maxfilter,
    "chi": cmd_chi,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxfilter-lab",
        description="Seeded max-filter experiments over finite orthogonal groups")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in _DISPATCH.items():
        p = sub.add_parser(name, help=cmd.__doc__)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="run seed; overrides the config seed")
        p.add_argument("--out", default=None,
                       help="report directory (default: reports)")
    return parser


def run(subcommand: str, config_path: str, seed: int | None = None,
        out: str | None = None) -> int:
    """Programmatic entry point; same semantics as the CLI."""
    config, raw = load_config(config_path)
    if seed is not None:
        _require_int("--seed", seed, 0)
        run_seed, seed_source = seed, "flag"
    elif config.seed is not None:
        run_seed, seed_source = config.seed, "config"
    else:
        raise ConfigError("a seed is required: pass --seed or set it in the config")
    group = build_group_from_spec(config.group_spec)
    out_dir = Path(out or "reports")

    timings: dict[str, float] = {}
    results, asserts, csvs, certified = _DISPATCH[subcommand](config, group, run_seed, timings)
    passed = all_passed(asserts)
    report = {
        "subcommand": subcommand,
        "config": raw,
        "seed_provenance": {"seed": run_seed, "source": seed_source,
                            "streams": STREAMS},
        "results": results,
        "assertions": asserts,
        "passed": passed,
        "timings": timings,
    }
    code = 3 if not certified else 0 if passed else 1
    with _stage(timings, "write_csv"):
        for filename, table in csvs:
            write_csv(out_dir / filename, table)
    json_path = write_json(report, out_dir / f"{subcommand}_report.json")

    for a in asserts:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['claim']} "
              f"(value={json.dumps(sanitize(a['value']))}, "
              f"tolerance={json.dumps(sanitize(a['tolerance']))})")
    print(f"report: {json_path}")
    if code == 3:
        print("budget exceeded: some values are not certified", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args.subcommand, args.config, args.seed, args.out)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except MaxFilterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
