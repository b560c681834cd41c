"""End-to-end checks of the package's headline guarantees.

Each test prints one [ACCEPTANCE] line so the suite log doubles as a
scorecard.  Tolerances are part of the contract and are not loosened to
make runs pass; a genuinely wrong pinned value stays as a strict xfail.
"""

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from maxfilter_lab import (MaxFilterBank, alpha_tilde, apply_bank_batch,
                           build_family, empirical_lipschitz,
                           lower_bound_sharp, max_filter, optimality_witness,
                           quotient_distance, s_set, sample_principal,
                           search_psd_violation, theoretical_distortion_bound,
                           upper_bound_exact, upper_bound_relaxed,
                           voronoi_characteristic, DistortionBoundParams,
                           direct_quadratic_form, is_reflection_group)
from maxfilter_lab.cli import run as cli_run
from maxfilter_lab.voronoi import proven_chi
from oracles import brute_orbit_min_distance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_Z = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def _emit(name: str, ok: bool) -> bool:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_acceptance_golden_beta_exact(c3):
    t0 = time.perf_counter()
    beta = upper_bound_exact(MaxFilterBank(c3, GOLDEN_Z)).beta
    elapsed = time.perf_counter() - t0
    ok = abs(beta - math.sqrt(1.5)) <= 1e-9 and elapsed < 1.0
    assert _emit("golden_beta_exact", ok), (beta, elapsed)


@pytest.mark.xfail(strict=True, reason=(
    "pinned value 2.0 is the square of the true relaxed bound: a 2x2 "
    "matrix whose columns are unit vectors has spectral norm at most "
    "sqrt(2), and this instance attains exactly sqrt(2)"))
def test_acceptance_golden_beta_relaxed(c3):
    val = upper_bound_relaxed(MaxFilterBank(c3, GOLDEN_Z))
    ok = abs(val - 2.0) <= 1e-9
    assert _emit("golden_beta_relaxed", ok), val


def test_acceptance_equality_with_negated_identity():
    ok = True
    for d in (1, 2, 3):
        g = build_family("sign_flips", d)
        rng = np.random.default_rng((3, d))
        bank = MaxFilterBank(g, rng.standard_normal((5, d)))
        gap = abs(upper_bound_exact(bank).beta - upper_bound_relaxed(bank))
        ok = ok and gap <= 1e-9
    assert _emit("equality_case_sign_flips", ok)


def test_acceptance_s_set_table(c5):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    sizes = set()
    for k in range(500):
        x = sample_principal(c5, rng)
        if k % 33 == 0:
            # orbit-aligned partner: its nearest representative is unique
            y = 1.7 * (c5.stack[k % c5.order] @ x)
        else:
            y = sample_principal(c5, rng)
        sizes.add(s_set(c5, x, y).size)
    planar_ok = sizes == {1, 2}
    planar_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    ax = build_family("axis_rotation_3d", 5)
    x_axis = np.array([0.0, 0.0, 2.0])
    rng3 = np.random.default_rng(7)
    axis_ok = True
    for _ in range(5):
        y = sample_principal(ax, rng3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # x is fixed by the whole group
            axis_ok = axis_ok and s_set(ax, x_axis, y).size == 5
    axis_time = time.perf_counter() - t0

    ok = planar_ok and axis_ok and planar_time < 10 and axis_time < 10
    assert _emit("s_set_table", ok), (sizes, planar_time, axis_time)


CHI_TABLE = [
    ("permutations", 3, 1, None), ("permutations", 4, 1, None),
    ("sign_flips", 3, 1, None), ("dihedral_2d", 4, 1, None),
    ("plus_minus_id", 2, 2, True), ("plus_minus_id", 3, 2, True),
    ("cyclic_rotation_2d", 3, 2, None), ("cyclic_rotation_2d", 5, 2, None),
    ("cyclic_rotation_2d", 7, 2, None),
]


def test_acceptance_chi_values():
    ok = True
    details = []
    for name, param, want_chi, want_sat in CHI_TABLE:
        g = build_family(name, param)
        est = voronoi_characteristic(g, n_samples=1000, seed=17)
        good = est.chi_lower == want_chi and is_reflection_group(g) is (want_chi == 1)
        if want_sat is not None:
            good = good and est.saturated is want_sat
        # the runs' proven chi is the table's wherever its rule is exact
        chi, rule = proven_chi(g)
        if rule != "order_bound":
            good = good and chi == want_chi
        details.append((name, param, est.chi_lower, est.saturated, rule, good))
        ok = ok and good
    assert _emit("chi_values", ok), details


def test_acceptance_sandwich(trivial2, pm2, c3, sf2, perm3):
    cases = [(trivial2, 1), (pm2, 2), (c3, 2), (sf2, 1), (perm3, 1)]
    ok = True
    for gi, (g, chi) in enumerate(cases):
        for b in range(10):
            rng = np.random.default_rng((6, gi, b))
            bank = MaxFilterBank(g, rng.standard_normal((4, g.dim)))
            beta = upper_bound_exact(bank).beta
            at = alpha_tilde(bank, chi)
            emp = empirical_lipschitz(bank, 1000, seed=gi * 100 + b)
            lo = emp.image_distances >= at * emp.distances - 1e-7
            hi = emp.image_distances <= beta * emp.distances + 1e-7
            ok = ok and bool(lo.all() and hi.all())
    assert _emit("sandwich_property", ok)


def test_acceptance_polarization_and_fft(c3, c5, pm2, sf2, perm3, dih4):
    ok = True
    for gi, g in enumerate((c3, c5, pm2, sf2, perm3, dih4)):
        rng = np.random.default_rng((7, gi))
        X = rng.standard_normal((1000, g.dim))
        Y = rng.standard_normal((1000, g.dim))
        for x, y in zip(X, Y):
            got = quotient_distance(g, x, y)
            ref = brute_orbit_min_distance(g.stack, x, y)
            ok = ok and abs(got - ref) <= 1e-10

    for d in (4, 16, 64, 256):
        g = build_family("circular_shifts", d)
        rng = np.random.default_rng((7, 99, d))
        for _ in range(100):
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            fft_val = max_filter(g, x, y)
            brute = max(float(np.dot(np.roll(x, a), y)) for a in range(d))
            ok = ok and abs(fft_val - brute) <= 1e-9
    assert _emit("polarization_fft_oracles", ok)


def test_acceptance_trivial_group_exactness(trivial2):
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((5, 2))
    bank = MaxFilterBank(trivial2, Z)
    sigma_max = float(np.linalg.norm(Z, 2))
    sigma_min = math.sqrt(float(np.linalg.eigvalsh(Z.T @ Z)[0]))
    ok = abs(upper_bound_exact(bank).beta - sigma_max) <= 1e-9
    alphas = [lower_bound_sharp(bank, 25, seed=s).alpha for s in (0, 1234)]
    ok = ok and all(abs(a - sigma_min) <= 1e-9 for a in alphas)
    ok = ok and alphas[0] == alphas[1]
    assert _emit("trivial_group_exactness", ok), alphas


def test_acceptance_optimality_witnesses(pm2, sf2):
    ok = True
    for case, g, n in (("pm_id", pm2, 4), ("reflection", sf2, 3)):
        for trial in range(5):
            rng = np.random.default_rng((9, trial))
            bank = MaxFilterBank(g, rng.standard_normal((n, g.dim)))
            w = optimality_witness(bank, seed=trial)
            ok = ok and w.case == case
            scale = max(w.target_alpha, 1e-12)
            ok = ok and abs(w.achieved_ratio - w.target_alpha) <= 1e-6 * scale
    assert _emit("optimality_witnesses", ok)


def test_acceptance_kernel_dichotomy(c5, pm2, perm3, sf3, dih4):
    ok = True
    for g in (c5, pm2):
        res = search_psd_violation(g, n_trials=200, seed=5)
        ok = ok and res.found and is_reflection_group(g) is (not res.found)
        if res.found:
            q = direct_quadratic_form(g, res.certificate.points,
                                      res.certificate.coeffs)
            ok = ok and q < -1e-6
    for g in (perm3, sf3, dih4):
        res = search_psd_violation(g, n_trials=500, seed=5)
        ok = ok and not res.found and is_reflection_group(g) is (not res.found)
    assert _emit("kernel_dichotomy", ok)


def test_acceptance_distortion_experiment(c3):
    t0 = time.perf_counter()
    params = DistortionBoundParams(m=3, chi=2, d=2, n=16, lambda0=4.0)
    bound = theoretical_distortion_bound(params)
    within = 0
    emp_ok = True
    for t in range(50):
        rng = np.random.default_rng((11, t))
        bank = MaxFilterBank(c3, rng.standard_normal((16, 2)))
        beta = upper_bound_exact(bank).beta
        at = alpha_tilde(bank, 2)
        kappa_cert = math.inf if at == 0 else beta / at
        if kappa_cert <= bound:
            within += 1
        emp = empirical_lipschitz(bank, 200, seed=1, stream=t)
        kappa_emp = emp.beta_emp / emp.alpha_emp
        emp_ok = emp_ok and kappa_emp <= kappa_cert + 1e-6
    elapsed = time.perf_counter() - t0
    ok = within / 50 >= 0.9 and emp_ok and elapsed < 300
    assert _emit("distortion_experiment", ok), (within, elapsed)


def test_acceptance_injectivity_search(c5):
    rng_z = np.random.default_rng((12, 0))
    bank = MaxFilterBank(c5, rng_z.standard_normal((4, 2)))
    rng = np.random.default_rng((12, 1))
    X = rng.standard_normal((100_000, 2))
    Y = rng.standard_normal((100_000, 2))
    # quotient distances by polarization on the dense element stack
    mf = np.array([max_filter(c5, x, y, allow_fft=False) for x, y in zip(X, Y)])
    d2 = (X ** 2).sum(1) + (Y ** 2).sum(1) - 2 * mf
    dq = np.sqrt(np.maximum(d2, 0.0))
    dphi = np.linalg.norm(apply_bank_batch(bank, X) - apply_bank_batch(bank, Y),
                          axis=1)
    collisions = int(((dq > 1e-3) & (dphi < 1e-9)).sum())
    assert _emit("injectivity_search", collisions == 0), collisions


def test_acceptance_determinism(tmp_path):
    reports = []
    csvs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = cli_run("bounds", str(CONFIGS / "bounds_golden.json"),
                       out=str(out))
        assert code == 0
        rep = json.loads((out / "bounds_report.json").read_text())
        rep.pop("timings", None)
        reports.append(json.dumps(rep, sort_keys=True).encode())
        csvs.append((out / "bounds_pairs.csv").read_bytes())
    ok = reports[0] == reports[1] and csvs[0] == csvs[1]
    assert _emit("determinism", ok)
