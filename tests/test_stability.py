import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from maxfilter_lab import (BudgetExceeded, CaseMismatch, DistortionBoundParams,
                           DomainError, MaxFilterBank, alpha_tilde,
                           build_family, compute_stability_report,
                           empirical_lipschitz, generate_group, lower_bound_sharp,
                           optimality_witness, ordering_audit,
                           quotient_distance, theoretical_distortion_bound,
                           theoretical_sigma, upper_bound_exact,
                           upper_bound_relaxed)
from maxfilter_lab import filtering, groups, stability, voronoi
from maxfilter_lab.errors import BUDGETS
from maxfilter_lab.stability import pair_lower_value
from oracles import (brute_alpha_tilde, brute_beta_exact_sampled,
                     brute_beta_relaxed, dfs_alpha_tilde, dfs_upper_bound_exact,
                     distortion_bound_mpmath, grid_alpha_tilde, loop_pm_id_witness, lp_route,
                     sigma_mpmath, untagged)

GOLDEN_Z = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


@pytest.fixture(scope="module")
def golden_bank():
    return MaxFilterBank(build_family("cyclic_rotation_2d", 3), GOLDEN_Z)


# ---------------------------------------------------------------------------
# exact and relaxed upper bounds


def test_golden_beta_exact(golden_bank):
    ub = upper_bound_exact(golden_bank)
    assert abs(ub.beta - math.sqrt(1.5)) < 1e-12
    # pinning the first template leaves 2 of the 6 feasible tuples
    assert ub.feasible_tuples == 2
    assert ub.lp_solves <= 10
    # the reported tuple reproduces the bound
    cols = np.stack([golden_bank.group.stack[g] @ z
                     for g, z in zip(ub.argmax_tuple, golden_bank.templates)], axis=1)
    assert abs(np.linalg.norm(cols, 2) - ub.beta) < 1e-12


# (family, param, n templates, seed): the banks both routes of the exact
# search are refereed on against the one-LP-per-child depth-first search
REFEREE_BANKS = [("cyclic_rotation_2d", 3, 16, 1), ("cyclic_rotation_2d", 3, 5, 2),
                 ("cyclic_rotation_2d", 5, 4, 3), ("sign_flips", 3, 6, 4),
                 ("permutations", 3, 6, 5), ("dihedral_2d", 3, 5, 6),
                 ("axis_rotation_3d", 4, 9, 7), ("permutations", 4, 6, 8),
                 ("dihedral_2d", 4, 8, 9), ("cyclic_rotation_2d", 5, 10, 10),
                 ("cyclic_rotation_2d", 7, 8, 11)]

def _geometric_groups():
    """The groups whose exact bound takes the geometric route, by test id:
    one of each family the cell geometry serves, its untagged copy, the
    signed permutations B3 closed from three reflections, and C5 turned
    into R^4 by a fixed rotation, so its moving plane is off the axes."""
    groups = {f"{name}-{param}": build_family(name, param) for name, param in [
        ("cyclic_rotation_2d", 5), ("axis_rotation_3d", 4), ("sign_flips", 3),
        ("permutations", 3), ("dihedral_2d", 4), ("circular_shifts", 3), ("plus_minus_id", 2)]}
    groups.update({f"untagged_{key}": untagged(g) for key, g in groups.items()})
    groups["B3"] = generate_group([np.eye(3)[[1, 0, 2]], np.eye(3)[[0, 2, 1]],
                                   np.diag([1.0, 1.0, -1.0])])
    Q, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((4, 4)))
    turn = np.eye(4)
    turn[:2, :2] = build_family("cyclic_rotation_2d", 5).stack[1]
    groups["C5_rotated_into_R4"] = generate_group([Q @ turn @ Q.T])
    return groups


GEOMETRIC_GROUPS = _geometric_groups()


def group_bank(g, n, seed):
    return MaxFilterBank(g, np.random.default_rng(seed).standard_normal((n, g.dim)))


def referee_bank(name, param, n, seed):
    return group_bank(build_family(name, param), n, seed)


def leaf_summary(ub):
    return ub.beta, ub.argmax_tuple, ub.feasible_tuples


def assert_routes_match_referee(bank):
    """The tagged bank's geometric route and its LP route both equal the
    referee; the LP route in every field, lp_solves included."""
    want = dfs_upper_bound_exact(bank)
    got = upper_bound_exact(bank)
    assert leaf_summary(got) == leaf_summary(want)
    assert got.lp_solves == 0
    with lp_route():
        assert upper_bound_exact(bank) == want


@pytest.mark.parametrize("spec", REFEREE_BANKS)
def test_exact_bound_matches_depth_first_referee(spec):
    assert_routes_match_referee(referee_bank(*spec))


def test_golden_exact_bound_matches_referee(golden_bank):
    assert_routes_match_referee(golden_bank)


def every_geometric_group(test):
    """Every group of GEOMETRIC_GROUPS as an explicit example, at two seeds
    and two template counts, besides the examples hypothesis draws."""
    for name, seed, n in itertools.product(GEOMETRIC_GROUPS, (0, 1), (3, 6)):
        test = example(name, seed, n)(test)
    return test


@given(st.sampled_from(list(GEOMETRIC_GROUPS)), st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
@every_geometric_group
def test_geometric_route_agrees_with_lp_route(name, seed, n):
    # the same bits and the same leaf set; a leaf set missing a feasible
    # tuple would certify a beta that is too low
    bank = group_bank(GEOMETRIC_GROUPS[name], n, seed)
    got = upper_bound_exact(bank), voronoi._pinned_leaves(bank.group, bank.orbits)[0]
    with lp_route():
        want = upper_bound_exact(bank), voronoi._pinned_leaves(bank.group, bank.orbits)[0]
    assert leaf_summary(got[0]) == leaf_summary(want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("g", GEOMETRIC_GROUPS.values(), ids=GEOMETRIC_GROUPS.keys())
def test_geometric_route_solves_no_lp(g, monkeypatch):
    # a work count, not a time: a silent fall back to the LP search fails here
    def no_lp(problems):
        raise AssertionError("margin LP on the geometric route")

    bank = group_bank(g, 6, 12)
    assert all(orb.size == bank.group.order for orb in bank.orbits)
    monkeypatch.setattr(voronoi, "_margin_lps", no_lp)
    ub = upper_bound_exact(bank)
    assert ub.lp_solves == 0 and ub.feasible_tuples >= 1


@pytest.mark.parametrize("spec", REFEREE_BANKS)
def test_geometric_route_builds_no_cell(spec, monkeypatch):
    # cell membership comes from the orbit scores alone: no row block is cut
    bank = referee_bank(*spec)
    want = upper_bound_exact(bank)

    def no_cell(points, i):
        raise AssertionError("cell rows cut on the geometric route")

    monkeypatch.setattr(voronoi, "_cell_rows", no_cell)
    assert upper_bound_exact(bank) == want


def _mirror_template(name, param, row):
    def build():
        bank = referee_bank(name, param, 6, 13)
        Z = bank.templates.copy()
        Z[2] = row
        return MaxFilterBank(bank.group, Z)
    return build


def _near_tie_c3():
    # the sector cuts of templates 1 and 2 lie 1e-12 rad apart inside the pinned sector
    angles = np.concatenate(([0.0, 0.4, 0.4 + 1e-12],
                             np.random.default_rng(14).uniform(0, 2 * np.pi, 3)))
    return MaxFilterBank(build_family("cyclic_rotation_2d", 3),
                         np.stack([np.cos(angles), np.sin(angles)], axis=1))


def _no_geometry(g):
    # principal orbits of a group neither generated by reflections nor
    # turning one plane: a leaf set read off some geometry could miss
    # feasible tuples and certify a beta that is too low
    def build():
        bank = group_bank(g, 5, 12)
        assert all(orb.size == g.order for orb in bank.orbits)
        return bank
    return build


@pytest.mark.parametrize("build", [
    _mirror_template("sign_flips", 3, [0.7, 0.0, -1.3]),
    _mirror_template("permutations", 3, [0.4, 0.4, -1.1]),
    _mirror_template("axis_rotation_3d", 4, [0.0, 0.0, 1.5]),
    _near_tie_c3,
    *(_no_geometry(g) for g in (build_family("plus_minus_id", 3), build_family("circular_shifts", 4),
                                untagged(build_family("plus_minus_id", 3)),
                                untagged(build_family("circular_shifts", 4)))),
], ids=["sign_flips_zero_coordinate", "permutations_equal_coordinates",
        "axis_rotation_on_the_axis", "c3_near_tie_cuts", "plus_minus_id-3", "circular_shifts-4",
        "untagged_plus_minus_id-3", "untagged_circular_shifts-4"])
def test_exact_bound_falls_back_to_the_lp_route(build):
    # lp_solves > 0: _geometric_leaves answered None
    bank = build()
    got = upper_bound_exact(bank)
    assert got.lp_solves > 0
    assert got == dfs_upper_bound_exact(bank)


def test_failed_cell_check_falls_back_to_the_lp_route(monkeypatch):
    bank = referee_bank("cyclic_rotation_2d", 3, 5, 2)
    monkeypatch.setattr(voronoi, "strictly_inside",
                        lambda scores, centers, probes: np.zeros(len(probes), dtype=bool))
    got = upper_bound_exact(bank)
    assert got.lp_solves > 0
    assert got == dfs_upper_bound_exact(bank)


@pytest.mark.parametrize("spec", REFEREE_BANKS[1:])
def test_lp_budget_edge(spec, monkeypatch):
    bank = referee_bank(*spec)
    with lp_route():
        full = upper_bound_exact(bank)
        need = full.lp_solves
        monkeypatch.setitem(BUDGETS, "lp_solves", need)
        assert upper_bound_exact(bank) == full

        solved = []
        real = voronoi._margin_lps

        def counting(problems):
            for r in real(problems):
                solved.append(r)
                yield r

        monkeypatch.setattr(voronoi, "_margin_lps", counting)
        for budget in (need - 1, need // 2, 1, 0):
            solved.clear()
            monkeypatch.setitem(BUDGETS, "lp_solves", budget)
            with pytest.raises(BudgetExceeded) as e:
                upper_bound_exact(bank)
            assert len(solved) == budget
            with pytest.raises(BudgetExceeded) as want:
                dfs_upper_bound_exact(bank, max_lp_solves=budget)
            if e.value.partial is not None:
                assert want.value.partial is not None
                assert e.value.partial <= want.value.partial


def test_golden_beta_relaxed_is_sqrt_two(golden_bank):
    # two unit columns bound the spectral norm by sqrt(2), attained here
    val = upper_bound_relaxed(golden_bank)
    assert abs(val - math.sqrt(2.0)) < 1e-12
    assert abs(brute_beta_relaxed(golden_bank) - math.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("name,param,n", [
    ("cyclic_rotation_2d", 3, 3), ("sign_flips", 2, 3),
    ("permutations", 3, 3), ("plus_minus_id", 2, 4), ("dihedral_2d", 3, 2),
])
def test_relaxed_matches_full_enumeration(name, param, n, rng):
    g = build_family(name, param)
    bank = MaxFilterBank(g, rng.standard_normal((n, g.dim)))
    assert abs(upper_bound_relaxed(bank) - brute_beta_relaxed(bank)) < 1e-9


@pytest.mark.parametrize("name,param,n,case_seed", [
    ("cyclic_rotation_2d", 5, 3, 101), ("sign_flips", 2, 3, 102),
    ("dihedral_2d", 3, 3, 103),
])
def test_exact_bound_matches_sampled_feasibility_oracle(name, param, n,
                                                        case_seed):
    g = build_family(name, param)
    rng = np.random.default_rng(case_seed)
    bank = MaxFilterBank(g, rng.standard_normal((n, g.dim)))
    beta = upper_bound_exact(bank).beta
    sampled = brute_beta_exact_sampled(bank, 50_000, np.random.default_rng(5))
    assert abs(beta - sampled) < 1e-9


def test_golden_sampled_oracle(golden_bank):
    sampled = brute_beta_exact_sampled(golden_bank, 50_000,
                                       np.random.default_rng(2))
    assert abs(sampled - math.sqrt(1.5)) < 1e-12


@pytest.mark.parametrize("name,param,n", [
    ("cyclic_rotation_2d", 5, 4), ("permutations", 3, 3), ("sign_flips", 3, 4),
])
def test_exact_le_relaxed_and_frobenius_ceiling(name, param, n, rng):
    g = build_family(name, param)
    bank = MaxFilterBank(g, rng.standard_normal((n, g.dim)))
    be = upper_bound_exact(bank).beta
    br = upper_bound_relaxed(bank)
    assert be <= br + 1e-9
    assert be <= math.sqrt((bank.templates ** 2).sum()) + 1e-9


@pytest.mark.parametrize("name,param", [("plus_minus_id", 2),
                                        ("sign_flips", 2), ("sign_flips", 3)])
def test_negated_identity_forces_equality(name, param, rng):
    # when -I is in the group, every tuple is feasible up to sign symmetry
    g = build_family(name, param)
    bank = MaxFilterBank(g, rng.standard_normal((4, g.dim)))
    assert abs(upper_bound_exact(bank).beta - upper_bound_relaxed(bank)) < 1e-9


def test_trivial_group_beta_is_sigma_max(trivial2, rng):
    Z = rng.standard_normal((5, 2))
    bank = MaxFilterBank(trivial2, Z)
    assert abs(upper_bound_exact(bank).beta - np.linalg.norm(Z.T, 2)) < 1e-12
    assert abs(upper_bound_relaxed(bank) - np.linalg.norm(Z.T, 2)) < 1e-12


# ---------------------------------------------------------------------------
# lower bounds


def test_trivial_group_sharp_is_sigma_min(trivial2, rng):
    Z = rng.standard_normal((5, 2))
    bank = MaxFilterBank(trivial2, Z)
    target = math.sqrt(np.linalg.eigvalsh(Z.T @ Z)[0])
    for seed in (0, 123):
        got = lower_bound_sharp(bank, 20, seed=seed).alpha
        assert abs(got - target) < 1e-12


def test_sharp_witness_reproduces_alpha(rng):
    g = build_family("cyclic_rotation_2d", 3)
    bank = MaxFilterBank(g, rng.standard_normal((4, 2)))
    sharp = lower_bound_sharp(bank, 30, seed=9)
    again = pair_lower_value(bank, sharp.witness_x, sharp.witness_y)
    assert abs(sharp.alpha - again) < 1e-12
    # deterministic in the seed
    assert lower_bound_sharp(bank, 30, seed=9).alpha == sharp.alpha


@pytest.mark.parametrize("g", GEOMETRIC_GROUPS.values(), ids=GEOMETRIC_GROUPS.keys())
def test_geometric_s_set_matches_the_lp_s_set(g):
    # S(x, y) read off the cell geometry pinned at V_x, against s_set's
    # margin LPs; the centre of V_x is rarely its orbit's point 0
    rng = np.random.default_rng(21)
    pins = []
    for _ in range(20):
        x, y = voronoi.sample_principal(g, rng), voronoi.sample_principal(g, rng)
        (orbit_x, ix), orbit_y = voronoi.cell_of(g, x), groups.orbit_of(g, y)
        leaves = voronoi._geometric_leaves(g, (orbit_x, orbit_y), ix)
        assert leaves is not None
        assert np.array_equal(orbit_y.points[[k for _, k in leaves]], voronoi.s_set(g, x, y).members)
        pins.append(ix)
    assert any(pins)


@pytest.mark.parametrize("name,param", [("sign_flips", 3), ("cyclic_rotation_2d", 3)])
def test_sharp_bound_solves_no_lp_on_tagged_groups(name, param, monkeypatch):
    bank = referee_bank(name, param, 5, 12)
    calls = []
    real = voronoi._solve_blocks

    def counting(blocks):
        calls.append(len(blocks))
        return real(blocks)

    monkeypatch.setattr(voronoi, "_solve_blocks", counting)
    with lp_route():
        want = lower_bound_sharp(bank, 20, seed=3)
    assert calls
    calls.clear()
    got = lower_bound_sharp(bank, 20, seed=3)
    assert calls == []
    assert got.alpha == want.alpha
    assert np.array_equal(got.witness_x, want.witness_x)
    assert np.array_equal(got.witness_y, want.witness_y)


@pytest.mark.parametrize("name,param", [("sign_flips", 3), ("cyclic_rotation_2d", 3)])
def test_failed_cell_check_sends_the_pair_to_the_lp(name, param, monkeypatch):
    bank = referee_bank(name, param, 5, 2)
    rng = np.random.default_rng(4)
    x, y = voronoi.sample_nice(bank, rng), voronoi.sample_nice(bank, rng)
    sent = []
    real = voronoi._margin_lps

    def spy(problems):
        problems = list(problems)
        sent.append(len(problems))
        return real(problems)

    monkeypatch.setattr(voronoi, "_margin_lps", spy)
    want = pair_lower_value(bank, x, y)
    assert sent == []
    monkeypatch.setattr(voronoi, "strictly_inside",
                        lambda scores, centers, probes: np.zeros(len(probes), dtype=bool))
    assert pair_lower_value(bank, x, y) == want
    assert sum(sent) >= 1


@pytest.mark.parametrize("name,param,n,chi", [
    ("plus_minus_id", 2, 4, 2), ("cyclic_rotation_2d", 3, 4, 2),
    ("sign_flips", 2, 3, 1), ("sign_flips", 2, 4, 1),
    ("permutations", 3, 4, 1), ("permutations", 3, 5, 1),
    # -I lies in sign_flips(3), so every orbit point has its negative in the orbit
    ("sign_flips", 3, 4, 1), ("cyclic_rotation_2d", 3, 8, 2),
])
def test_alpha_tilde_matches_brute(name, param, n, chi, rng):
    g = build_family(name, param)
    bank = MaxFilterBank(g, rng.standard_normal((n, g.dim)))
    assert abs(alpha_tilde(bank, chi) - brute_alpha_tilde(bank, chi)) < 1e-10


# (family, param, n templates, chi, seed): the three banks of a certify
# trial, then families off the geometric route of the exact bound; on the
# circular_shifts(3) bank alpha_tilde is about 1e-3, and the two searches
# differ by about 1e-9 relative.  The planar banks, the C3 one first, take
# the circle sweep, the others the pinned, seeded search.
ALPHA_REFEREE_BANKS = [("cyclic_rotation_2d", 3, 16, 2, 1), ("sign_flips", 3, 6, 1, 4),
                       ("permutations", 3, 6, 1, 5), ("axis_rotation_3d", 4, 9, 2, 7),
                       ("plus_minus_id", 3, 6, 2, 8), ("circular_shifts", 3, 7, 3, 9),
                       ("dihedral_2d", 4, 8, 1, 16), ("cyclic_rotation_2d", 5, 10, 2, 17),
                       ("cyclic_rotation_2d", 7, 12, 3, 18), ("sign_flips", 2, 5, 1, 19)]


@pytest.mark.parametrize("spec", ALPHA_REFEREE_BANKS)
def test_alpha_tilde_matches_depth_first_referee(spec, monkeypatch):
    # the sweep and the pinned, seeded search against the unpinned search;
    # absolute, since near alpha_tilde = 0 rounding in lambda_min alone
    # moves sqrt(lambda_min) by far more than 1e-12 relative.  Small blocks
    # split every search level and every sweep block.
    *bank_spec, chi, seed = spec
    bank = referee_bank(*bank_spec, seed)
    want = dfs_alpha_tilde(bank, chi)
    for block in (stability._BLOCK, 64, 1):
        monkeypatch.setattr(stability, "_BLOCK", block)
        assert abs(alpha_tilde(bank, chi) - want) < 1e-10


def test_alpha_tilde_sweep_needs_no_family_tag(monkeypatch):
    # the dimension alone selects the sweep, which needs no +- dedup
    bank = referee_bank("cyclic_rotation_2d", 3, 16, 1)
    want = alpha_tilde(bank, 2)
    monkeypatch.setattr(stability, "_first_seen", None)
    assert alpha_tilde(MaxFilterBank(untagged(bank.group), bank.templates), 2) == want
    assert abs(want - dfs_alpha_tilde(bank, 2)) < 1e-10


def _planar_bank(name, param, Z):
    return MaxFilterBank(build_family(name, param), np.array(Z, dtype=float))


@pytest.mark.parametrize("bank,chi", [
    # parallel templates: the order of the c_i never changes
    (_planar_bank("cyclic_rotation_2d", 3, np.outer([1.0, -2.0, 0.5, 3.0, 1.5], [0.6, 0.8])), 2),
    (_planar_bank("dihedral_2d", 3, np.outer([1.0, 2.0, -0.7, 1.2], [1.0, 0.0])), 1),
    # a zero template: its orbit is one point and c is 0 everywhere
    (_planar_bank("cyclic_rotation_2d", 5,
                  np.vstack([np.zeros(2), np.random.default_rng(20).standard_normal((5, 2))])), 2),
    (_planar_bank("sign_flips", 2, [[0.0, 0.0], [1.0, 2.0], [-0.5, 0.3]]), 1),
], ids=["c3_parallel", "d3_parallel", "c5_zero_template", "signflips_zero_template"])
def test_alpha_tilde_degenerate_planar_banks(bank, chi):
    assert abs(alpha_tilde(bank, chi) - dfs_alpha_tilde(bank, chi)) < 1e-10


@pytest.mark.parametrize("name,param,n", [("cyclic_rotation_2d", 360, 8),
                                          ("cyclic_rotation_2d", 3, 32)])
def test_alpha_tilde_sweep_against_a_dense_grid(name, param, n):
    # banks too large for the subset-search referee: s_k on a grid never
    # falls below alpha_tilde^2, and its grid minimum comes close to it
    bank = referee_bank(name, param, n, 21)
    want = alpha_tilde(bank, 2) ** 2
    s_k = grid_alpha_tilde(bank, 2, 200_001)
    assert s_k.min() >= want - 1e-12
    assert s_k.min() - want < 1e-8


@pytest.mark.parametrize("spec", ALPHA_REFEREE_BANKS)
def test_alpha_tilde_budget_edge(spec, monkeypatch):
    *bank_spec, chi, seed = spec
    bank = referee_bank(*bank_spec, seed)
    want = alpha_tilde(bank, chi)
    evaluated = []
    real = stability._lam_min_batch

    def counting(S):
        evaluated.append(S.shape[0])
        return real(S)

    monkeypatch.setattr(stability, "_lam_min_batch", counting)
    alpha_tilde(bank, chi)
    need = sum(evaluated)
    monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", need)
    assert alpha_tilde(bank, chi) == want
    monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", need - 1)
    with pytest.raises(BudgetExceeded) as e:
        alpha_tilde(bank, chi)
    assert e.value.partial is None or e.value.partial >= want - 1e-10
    # the first incumbent is the dive's leaf, so a cap inside the dive leaves none
    for cap in (0, 1):
        monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", cap)
        with pytest.raises(BudgetExceeded) as e:
            alpha_tilde(bank, chi)
        assert e.value.partial is None


def test_alpha_tilde_sweep_miss_keeps_its_incumbent(monkeypatch):
    # every subset sum the sweep yields has lambda_min >= alpha_tilde^2,
    # so a miss after its first block leaves a valid upper estimate
    bank = referee_bank("cyclic_rotation_2d", 3, 16, 1)
    want = alpha_tilde(bank, 2)
    monkeypatch.setattr(stability, "_BLOCK", 4096)
    evaluated = []
    real = stability._lam_min_batch

    def counting(S):
        evaluated.append(S.shape[0])
        return real(S)

    monkeypatch.setattr(stability, "_lam_min_batch", counting)
    assert alpha_tilde(bank, 2) == want
    assert len(evaluated) > 1
    monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", evaluated[0])
    with pytest.raises(BudgetExceeded) as e:
        alpha_tilde(bank, 2)
    assert e.value.partial is not None and e.value.partial >= want - 1e-10


def test_alpha_tilde_memory_stays_within_blocks():
    # a d = 4 search whose levels hold far more children than one block;
    # its traced peak stays below 8 blocks of float64 entries (64 MiB)
    bank = referee_bank("sign_flips", 4, 8, 4)
    tracemalloc.start()
    try:
        alpha_tilde(bank, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * stability._BLOCK * 8


def test_alpha_tilde_zero_when_subsets_small(golden_bank):
    # ceil(2/2) = 1 <= d-1: a single rank-1 summand cannot span the plane
    assert alpha_tilde(golden_bank, chi=2) == 0.0
    g3 = build_family("axis_rotation_3d", 4)
    bank = MaxFilterBank(g3, np.random.default_rng(0).standard_normal((2, 3)))
    assert alpha_tilde(bank, chi=1) == 0.0


def test_alpha_tilde_monotone_in_templates(rng):
    g = build_family("cyclic_rotation_2d", 3)
    Z = rng.standard_normal((5, 2))
    small = alpha_tilde(MaxFilterBank(g, Z[:4]), chi=2)
    large = alpha_tilde(MaxFilterBank(g, Z), chi=2)
    assert small <= large + 1e-12


def test_alpha_tilde_zero_for_duplicated_templates(trivial2):
    Z = np.array([[1.0, 0.0]] * 3)
    assert alpha_tilde(MaxFilterBank(trivial2, Z), chi=1) == 0.0


def test_alpha_tilde_below_empirical(rng):
    for name, param, n, chi in [("cyclic_rotation_2d", 3, 4, 2),
                                ("sign_flips", 2, 3, 1)]:
        g = build_family(name, param)
        bank = MaxFilterBank(g, rng.standard_normal((n, g.dim)))
        at = alpha_tilde(bank, chi)
        emp = empirical_lipschitz(bank, 500, seed=4)
        assert at <= emp.alpha_emp + 1e-7


def test_alpha_tilde_rejects_bad_chi(golden_bank):
    with pytest.raises(ValueError):
        alpha_tilde(golden_bank, chi=0)


# ---------------------------------------------------------------------------
# budgets


def test_relaxed_budget_holds_past_int64_tuples(monkeypatch):
    # 5040^6 ~ 1.6e22 tuples: the count and the index rows must not wrap,
    # and the partial is the max over the leading tuples, last orbit fastest
    g = build_family("permutations", 7)
    bank = MaxFilterBank(g, np.random.default_rng(0).standard_normal((7, 7)))
    scored = 2 * stability._RELAXED_CHUNK
    monkeypatch.setitem(BUDGETS, "tuple_leaves", scored + 1)
    with pytest.raises(BudgetExceeded) as e:
        upper_bound_relaxed(bank)
    leading = itertools.islice(itertools.product(*(range(o.size) for o in bank.orbits[1:])),
                               scored)
    cols = np.stack([np.stack([bank.orbits[0].points[0]]
                              + [o.points[k] for o, k in zip(bank.orbits[1:], t)], axis=1)
                     for t in leading])
    assert math.isfinite(e.value.partial)
    assert e.value.partial == float(np.linalg.svd(cols, compute_uv=False)[:, 0].max())


def test_budget_exceeded_carries_partial(rng, monkeypatch):
    g = build_family("sign_flips", 2)
    bank = MaxFilterBank(g, rng.standard_normal((5, 2)))
    with lp_route():
        true_beta = upper_bound_exact(bank).beta
    relaxed = upper_bound_relaxed(bank)
    true_alpha = alpha_tilde(bank, 1)

    monkeypatch.setitem(BUDGETS, "lp_solves", 2)
    with lp_route(), pytest.raises(BudgetExceeded) as e1:
        upper_bound_exact(bank)
    if e1.value.partial is not None:
        assert 0.0 <= e1.value.partial <= true_beta + 1e-9

    monkeypatch.setitem(BUDGETS, "tuple_leaves", 1)
    with pytest.raises(BudgetExceeded) as e2:
        upper_bound_relaxed(bank)
    assert e2.value.partial is None or e2.value.partial <= relaxed + 1e-9

    monkeypatch.setitem(BUDGETS, "alpha_tilde_evals", 0)
    with pytest.raises(BudgetExceeded) as e3:
        alpha_tilde(bank, chi=1)
    assert e3.value.partial is None or e3.value.partial >= true_alpha - 1e-9


@pytest.mark.parametrize("name,param", [("cyclic_rotation_2d", 3), ("sign_flips", 3)])
def test_lp_budget_does_not_bind_the_geometric_route(name, param, monkeypatch):
    bank = referee_bank(name, param, 6, 15)
    want = upper_bound_exact(bank)
    monkeypatch.setitem(BUDGETS, "lp_solves", 0)
    assert upper_bound_exact(bank) == want
    report, _ = compute_stability_report(bank, n_pairs=20, seed=1)
    assert report.provenance["beta_exact_certified"]
    assert report.beta_exact == want.beta


# ---------------------------------------------------------------------------
# empirical sampling


def test_empirical_lipschitz_contract(rng):
    g = build_family("cyclic_rotation_2d", 5)
    bank = MaxFilterBank(g, rng.standard_normal((3, 2)))
    emp = empirical_lipschitz(bank, 250, seed=21)
    assert emp.ratios.shape == (250,)
    assert emp.distances.min() > 1e-6
    assert np.allclose(emp.ratios, emp.image_distances / emp.distances)
    assert emp.alpha_emp == emp.ratios.min()
    assert emp.beta_emp == emp.ratios.max()
    # stored extremal pairs reproduce the extremal ratios
    from maxfilter_lab import apply_bank
    for pair, target in ((emp.min_pair, emp.alpha_emp),
                         (emp.max_pair, emp.beta_emp)):
        d = quotient_distance(g, pair[0], pair[1])
        r = np.linalg.norm(apply_bank(bank, pair[0]) - apply_bank(bank, pair[1])) / d
        assert abs(r - target) < 1e-12
    # same seed reruns identically; a different stream gives different draws
    emp2 = empirical_lipschitz(bank, 250, seed=21)
    assert np.array_equal(emp.ratios, emp2.ratios)
    emp3 = empirical_lipschitz(bank, 250, seed=21, stream=1)
    assert not np.array_equal(emp.ratios, emp3.ratios)


def test_scale_equivariance(rng):
    g = build_family("cyclic_rotation_2d", 3)
    Z = rng.standard_normal((4, 2))
    s = 2.7
    b1, b2 = MaxFilterBank(g, Z), MaxFilterBank(g, s * Z)
    assert abs(upper_bound_exact(b2).beta - s * upper_bound_exact(b1).beta) < 1e-9
    assert abs(upper_bound_relaxed(b2) - s * upper_bound_relaxed(b1)) < 1e-9
    assert abs(alpha_tilde(b2, 2) - s * alpha_tilde(b1, 2)) < 1e-9
    a1 = lower_bound_sharp(b1, 10, seed=3).alpha
    a2 = lower_bound_sharp(b2, 10, seed=3).alpha
    assert abs(a2 - s * a1) < 1e-9


# ---------------------------------------------------------------------------
# closed forms


def test_sigma_matches_mpmath():
    for ell, lam, t in [(100, 4.0, 1.0), (1, 2.0, 1.0), (64, 16.0, 3.5),
                        (1000, 1.5, 2.0), (7, 8.0, 1.0)]:
        mine = theoretical_sigma(ell, lam, t)
        ref = sigma_mpmath(ell, lam, t)
        assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def test_sigma_large_lambda_limit():
    for t in (1.0, 2.0):
        val = theoretical_sigma(100, 1e9, t)
        limit = (1 / math.sqrt(math.e)) * math.exp(-t) * 10.0
        assert abs(val - limit) / limit < 1e-6


def test_sigma_monotone_decreasing_in_t():
    vals = [theoretical_sigma(50, 4.0, t) for t in (1.0, 1.5, 2.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sigma_domain_errors():
    with pytest.raises(DomainError):
        theoretical_sigma(10, 1.0, 2.0)
    with pytest.raises(DomainError):
        theoretical_sigma(10, 0.5, 2.0)
    with pytest.raises(DomainError):
        theoretical_sigma(10, 4.0, 0.5)
    with pytest.raises(DomainError):
        theoretical_sigma(0, 4.0, 1.0)


def test_distortion_bound_matches_mpmath():
    cases = [(6, 2, 2, 48, 4.0), (3, 2, 2, 16, 4.0), (1, 1, 2, 20, 2.0),
             (24, 1, 4, 64, 4.0)]
    for m, chi, d, n, lam0 in cases:
        params = DistortionBoundParams(m=m, chi=chi, d=d, n=n, lambda0=lam0)
        mine = theoretical_distortion_bound(params)
        ref = distortion_bound_mpmath(m, chi, d, n, lam0)
        assert abs(mine - ref) <= 1e-12 * ref
        assert mine >= 1.0


def test_distortion_bound_trivial_group_closed_form():
    params = DistortionBoundParams(m=1, chi=1, d=2, n=16, lambda0=4.0)
    lam = 16 / 2
    c = 2 + (math.sqrt(4.0) + 2) / (4.0 - 1)
    expected = (4 * math.e ** 1.5) ** (1 + c / math.sqrt(lam))
    assert abs(theoretical_distortion_bound(params) - expected) < 1e-9


def test_distortion_bound_nonincreasing_in_lambda():
    vals = []
    for n in (16, 32, 64, 128):   # lam = 4, 8, 16, 32
        p = DistortionBoundParams(m=3, chi=2, d=2, n=n, lambda0=4.0)
        vals.append(theoretical_distortion_bound(p))
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_distortion_bound_domain_errors():
    with pytest.raises(DomainError):
        theoretical_distortion_bound(
            DistortionBoundParams(m=3, chi=2, d=2, n=8, lambda0=4.0))
    with pytest.raises(DomainError):
        DistortionBoundParams(m=0, chi=1, d=2, n=8, lambda0=4.0)
    with pytest.raises(DomainError):
        DistortionBoundParams(m=2, chi=1, d=2, n=8, lambda0=1.0)
    # lambda0 just above 1 makes c, and so the exponent, about 2e5
    with pytest.raises(DomainError, match="float range"):
        theoretical_distortion_bound(
            DistortionBoundParams(m=3, chi=2, d=2, n=1000, lambda0=1.000001))


def test_success_probability_formula():
    p = DistortionBoundParams(m=3, chi=2, d=2, n=16, lambda0=4.0)
    assert abs(p.lam - 4.0) < 1e-15
    assert abs(p.success_probability - (1 - 3 * math.exp(-2 * 2.0))) < 1e-15


# ---------------------------------------------------------------------------
# optimality witnesses


def test_pm_id_witness_rank_one_partition():
    pm2 = build_family("plus_minus_id", 2)
    bank = MaxFilterBank(pm2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    w = optimality_witness(bank)
    assert w.target_alpha == 0.0
    assert abs(w.achieved_ratio) < 1e-9


def test_pm_id_witness_achieves_target(rng):
    pm2 = build_family("plus_minus_id", 2)
    for _ in range(3):
        bank = MaxFilterBank(pm2, rng.standard_normal((4, 2)))
        w = optimality_witness(bank)
        assert w.target_alpha > 0
        assert abs(w.achieved_ratio - w.target_alpha) <= 1e-6 * w.target_alpha


def test_pm_id_witness_partition_cap_edge(monkeypatch):
    # four templates have 2**4 partitions: a cap of 16 enumerates them
    # all, one below it raises before enumerating any
    bank = MaxFilterBank(build_family("plus_minus_id", 2),
                         np.random.default_rng(5).standard_normal((4, 2)))
    want = optimality_witness(bank)
    monkeypatch.setitem(BUDGETS, "pm_id_partitions", 16)
    assert optimality_witness(bank).target_alpha == want.target_alpha
    monkeypatch.setitem(BUDGETS, "pm_id_partitions", 15)
    with pytest.raises(BudgetExceeded, match="16 partitions"):
        optimality_witness(bank)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pm_id_witness_matches_the_partition_loop(d):
    # where the best partition is unique, the blocked scoring picks the
    # loop's mask and the witness carries the loop's bits.  At d = 1 every
    # partition scores |Z|^2, and at n <= 2d - 2 some split leaves both
    # parts rank-deficient, so the least score is 0 up to rounding: there
    # the tie may break on another mask, and target_alpha^2 agrees within
    # rounding (target_alpha, its root, only within about 1e-8)
    g = build_family("plus_minus_id", d)
    for n in range(1, 11):
        for seed in range(2):
            Z = np.random.default_rng((seed, d, n)).standard_normal((n, d))
            mask, x, y, target = loop_pm_id_witness(Z)
            w = optimality_witness(MaxFilterBank(g, Z))
            if d == 1 or n <= 2 * d - 2:
                assert abs(w.target_alpha ** 2 - target ** 2) <= 1e-12 * (1 + (Z ** 2).sum())
            else:
                assert stability._best_partition(Z) == mask
                assert w.x.tobytes() == x.tobytes() and w.y.tobytes() == y.tobytes()
                assert w.target_alpha == target


def test_pm_id_witness_memory_stays_within_blocks(monkeypatch):
    # 2^15 scored masks of 16 templates; unblocked, their bits alone would
    # take 4 MiB.  With blocks of 4096 entries the traced peak stays below
    # 8 blocks, and the best partition is the one found in a single block
    bank = MaxFilterBank(build_family("plus_minus_id", 2),
                         np.random.default_rng(3).standard_normal((16, 2)))
    want = stability._best_partition(bank.templates), optimality_witness(bank).target_alpha
    monkeypatch.setattr(stability, "_BLOCK", 4096)
    tracemalloc.start()
    try:
        got = stability._best_partition(bank.templates), optimality_witness(bank).target_alpha
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * stability._BLOCK * 8


def test_reflection_witness_rank_one():
    sf2 = build_family("sign_flips", 2)
    bank = MaxFilterBank(sf2, np.array([[1.0, 1.0]]))
    w = optimality_witness(bank, seed=2)
    assert w.target_alpha == 0.0
    assert abs(w.achieved_ratio) < 1e-9


def test_reflection_witness_two_template_value():
    sf2 = build_family("sign_flips", 2)
    bank = MaxFilterBank(sf2, np.array([[2.0, 1.0], [1.0, 2.0]]))
    w = optimality_witness(bank, seed=2)
    # lambda_min of [[5,4],[4,5]] is 1
    assert abs(w.target_alpha - 1.0) < 1e-12
    assert abs(w.achieved_ratio - 1.0) <= 1e-6
    emp = empirical_lipschitz(bank, 100_000, seed=0)
    assert abs(emp.alpha_emp - w.target_alpha) < 1e-3


def test_witness_case_is_read_off_the_group():
    # {+1, -1} on R^1 is also generated by its reflection: pm_id goes first,
    # and both constructions give the norm of the templates there
    bank = MaxFilterBank(build_family("plus_minus_id", 1), np.array([[0.5], [-1.2], [2.0]]))
    w = optimality_witness(bank)
    assert w.case == "pm_id"
    assert abs(w.target_alpha - np.linalg.norm(bank.templates)) < 1e-12
    sf2 = build_family("sign_flips", 2)
    assert optimality_witness(MaxFilterBank(sf2, np.eye(2))).case == "reflection"


def test_witness_case_mismatch():
    c5 = build_family("cyclic_rotation_2d", 5)
    bank = MaxFilterBank(c5, np.array([[1.0, 0.0]]))
    with pytest.raises(CaseMismatch):
        optimality_witness(bank)


# ---------------------------------------------------------------------------
# consolidated report


def test_stability_report_golden(golden_bank):
    report, emp = compute_stability_report(golden_bank, n_pairs=200, seed=5)
    assert abs(report.beta_exact - math.sqrt(1.5)) < 1e-12
    assert abs(report.beta_relaxed - math.sqrt(2.0)) < 1e-12
    assert report.alpha_tilde == 0.0
    assert report.kappa_certified == math.inf
    prov = report.provenance
    assert prov["beta_exact_certified"] and prov["alpha_tilde_certified"]
    assert prov["chi"] == 2    # proven for C3 by voronoi.proven_chi, not passed in
    assert len(emp.ratios) == 200
    audit = ordering_audit(report)
    assert all(ok for _, ok, _, _ in audit)


def test_stability_report_budget_flags(rng, monkeypatch):
    g = build_family("sign_flips", 2)
    bank = MaxFilterBank(g, rng.standard_normal((5, 2)))
    monkeypatch.setitem(BUDGETS, "lp_solves", 2)
    with lp_route():
        report, _ = compute_stability_report(bank, n_pairs=20, seed=1)
    assert not report.provenance["beta_exact_certified"]
    assert report.provenance["beta_relaxed_certified"]
    # the provenance reads the caps in force when the report is made
    assert report.provenance["budgets"]["lp"] == 2


@given(st.integers(2, 200), st.floats(1.2, 50.0), st.floats(1.0, 20.0))
def test_sigma_positive_property(ell, lam, t):
    assert theoretical_sigma(ell, lam, t) > 0


# ---------------------------------------------------------------------------
# the template-orbit cache of a bank


def test_each_template_orbit_is_built_once(monkeypatch):
    bank = MaxFilterBank(build_family("sign_flips", 3),
                         np.random.default_rng(4).standard_normal((4, 3)))
    built = []
    real = groups._orbits

    def counting(group, X):
        built.extend(np.array(X, dtype=float))
        return real(group, X)

    for module in (groups, filtering, voronoi):
        monkeypatch.setattr(module, "_orbits", counting)

    def builds(z):
        return sum(np.array_equal(x, z) for x in built)

    lower_bound_sharp(bank, n_pairs=3, seed=0)
    assert [builds(z) for z in bank.templates] == [1, 1, 1, 1]
    upper_bound_exact(bank)
    upper_bound_relaxed(bank)
    alpha_tilde(bank, chi=1)
    optimality_witness(bank)
    assert [builds(z) for z in bank.templates] == [1, 1, 1, 1]


def test_orbit_cache_stays_out_of_repr_and_equality():
    g = build_family("cyclic_rotation_2d", 3)
    bank = MaxFilterBank(g, GOLDEN_Z)
    before = repr(bank)
    bank.orbits
    assert repr(bank) == before and "orbits" not in before
    assert [f.name for f in dataclasses.fields(bank) if f.compare] == ["group", "templates"]
