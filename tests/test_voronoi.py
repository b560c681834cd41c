import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from maxfilter_lab import (DEFAULT_TOL, BudgetExceeded, LpNumericalFailure, MaxFilterBank,
                           NotNicePoint, build_family, cell_of,
                           choice_assignments, generate_group, in_Q,
                           is_principal, orbit_of, s_set, sample_nice,
                           sample_principal, upper_bound_exact,
                           voronoi_characteristic)
from maxfilter_lab import groups, voronoi
from maxfilter_lab.groups import FAMILIES, FiniteGroup, stabilizer_order
from maxfilter_lab.voronoi import strict_cones_feasible
from maxfilter_lab.errors import BUDGETS
from maxfilter_lab.stability import lower_bound_sharp, pair_lower_value
from maxfilter_lab.streams import STREAMS
from oracles import (brute_s_members, delete_rows, highs_margin_lps, lp_route,
                     rows_strictly_inside)

GOLDEN_Z = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
# the groups of the acceptance chi table and of the chi benchmark workload
CHI_GROUPS = [("permutations", 3), ("permutations", 4), ("sign_flips", 3),
              ("dihedral_2d", 4), ("plus_minus_id", 2), ("plus_minus_id", 3),
              ("cyclic_rotation_2d", 3), ("cyclic_rotation_2d", 5),
              ("cyclic_rotation_2d", 7)]


def assert_batch_matches_single(problems):
    """Margins of one batch of margin LPs against one call per block."""
    batched = list(voronoi._margin_lps(problems))
    assert len(batched) == len(problems)
    for R, got in zip(problems, batched):
        want = strict_cones_feasible(R)
        assert got.feasible == want.feasible
        if math.isinf(want.margin):
            assert got.margin == want.margin
        else:
            assert abs(got.margin - want.margin) <= 1e-12
        if got.feasible:
            assert rows_strictly_inside(R[None], got.witness[None])[0]


def block(*cells):
    """One margin-LP block: the delete_rows of each (orbit, index) in turn."""
    return np.concatenate([delete_rows(orb.points, i) for orb, i in cells])


def in_cell(orbit, index, y):
    """strictly_inside for the one probe y and the one cell."""
    return bool(voronoi.strictly_inside((orbit.points @ y)[None, None], np.array([[index]]),
                                        y[None])[0])


def s_set_problems(group, rng):
    """The |G| two-cell blocks s_set solves for a principal pair."""
    x = sample_principal(group, rng)
    y = sample_principal(group, rng)
    orb_y = orbit_of(group, y)
    cell_x = cell_of(group, x)
    return [block((orb_y, k), cell_x) for k in range(orb_y.size)]


def index_of(orbit, q):
    """Index of the orbit point nearest q."""
    return int(np.argmin(np.linalg.norm(orbit.points - q, axis=1)))


def test_cells_on_equal_orbits_compare_and_hash(c5):
    # numpy fields: a generated __eq__ or __hash__ would raise on them, so
    # two orbits of one point compare and hash by identity
    x = np.array([0.3, 1.1])
    a, b = orbit_of(c5, x), orbit_of(c5, x)
    assert a == a and a != b
    keys = {a: "a", b: "b"}
    assert keys[a] == "a" and keys[b] == "b"
    assert hash(a) == hash(a) and hash(b) == hash(b)


@pytest.mark.parametrize("name,param", CHI_GROUPS + [("axis_rotation_3d", 4)])
def test_cell_of_principal_point_is_centred_on_it(name, param, rng):
    group = build_family(name, param)
    for _ in range(5):
        x = sample_principal(group, rng)
        orbit, index = cell_of(group, x)
        assert orbit.points[index].tobytes() == x.tobytes()
        assert orbit.size == group.order


def test_cell_contains_center_and_excludes_other_cells(c5, rng):
    x = rng.standard_normal(2)
    assert in_cell(*cell_of(c5, x), x)
    orb = orbit_of(c5, x)
    for k, q in enumerate(orb.points):
        if np.linalg.norm(q - x) > 1e-9:
            assert not in_cell(orb, k, x)


def near_wall_probes(rows, probes, lp_tol):
    """Each inside probe moved along the normal of its nearest row to the
    margin lp_tol*|y|_inf*(1 + 1e-6), and a copy to (1 - 1e-6).  A copy
    is kept only while every other row's margin exceeds 1.01*lp_tol*|y|_inf,
    so that one wall alone decides it.  Returns the kept copies, the index
    of the probe each came from, and whether each lies inside."""
    near, owners, inside = [], [], []
    for j, (R, y) in enumerate(zip(rows, probes)):
        m = R @ y
        if m.min() <= 0:
            continue
        # the nearest wall; of rows on its hyperplane (cells of a
        # reflection group share walls), the one of least margin
        dist = m / np.linalg.norm(R, axis=1)
        tied = np.flatnonzero(dist <= dist.min() * (1 + 1e-9))
        i = tied[np.argmin(m[tied])]
        for s in (1 + 1e-6, 1 - 1e-6):
            z = y
            for _ in range(3):
                z = z - (R[i] @ z - s * lp_tol * np.abs(z).max()) / (R[i] @ R[i]) * R[i]
            if np.delete(R @ z, i).min() > 1.01 * lp_tol * np.abs(z).max():
                near.append(z)
                owners.append(j)
                inside.append(s > 1)
    return np.stack(near), owners, inside


@pytest.mark.parametrize("name,param", [("cyclic_rotation_2d", 5), ("sign_flips", 3),
                                        ("permutations", 3)])
def test_stacked_cells_hold_a_probe_iff_each_cell_does(name, param, rng):
    # each probe against the argmax cell of every template, as the
    # geometric route of upper_bound_exact checks it, with one cell it
    # may miss; then copies a hair inside and outside one wall
    group = build_family(name, param)
    orbits = [orbit_of(group, z) for z in rng.standard_normal((3, group.dim))]
    points = np.stack([orb.points for orb in orbits])
    probes = rng.standard_normal((40, group.dim))
    centers = np.einsum("md,kgd->mkg", probes, points).argmax(axis=-1)
    j = np.arange(len(probes))
    centers[j, j % 3] = j % 2

    def check(probes, centers):
        """The batch verdicts equal each cell's one-probe verdict and the
        row rule on the stacked _cell_rows."""
        verdicts = [all(in_cell(orb, c, y) for orb, c in zip(orbits, row))
                    for row, y in zip(centers, probes)]
        rows = np.stack([np.concatenate([voronoi._cell_rows(orb.points, c)
                                         for orb, c in zip(orbits, row)]) for row in centers])
        scores = np.einsum("md,kgd->mkg", probes, points)
        assert voronoi.strictly_inside(scores, centers, probes).tolist() == verdicts
        assert rows_strictly_inside(rows, probes).tolist() == verdicts
        return verdicts, rows

    verdicts, rows = check(probes, centers)
    assert 0 < sum(verdicts) < len(verdicts)
    near, owners, inside = near_wall_probes(rows, probes, DEFAULT_TOL.lp_tol)
    assert 0 < sum(inside) < len(inside)
    assert check(near, centers[owners])[0] == inside


def test_trivial_group_cell_is_everything(trivial2, rng):
    orbit, index = cell_of(trivial2, rng.standard_normal(2))
    assert voronoi._cell_rows(orbit.points, index).shape == (0, 2)
    assert in_cell(orbit, index, rng.standard_normal(2))
    assert in_cell(orbit, index, -rng.standard_normal(2))


def test_cell_rows_equal_the_delete_form_bit_for_bit(trivial2, rng):
    # the first, a middle and the last centre; a one-point orbit has no rows
    groups = [build_family(*CHI_GROUPS[i]) for i in (0, 1, 2, 4, 7)] + [trivial2]
    for g in groups:
        orb = orbit_of(g, rng.standard_normal(g.dim))
        for index in sorted({0, orb.size // 2, orb.size - 1}):
            rows = voronoi._cell_rows(orb.points, index)
            want = delete_rows(orb.points, index)
            assert rows.shape == want.shape == (orb.size - 1, g.dim)
            assert rows.tobytes() == want.tobytes()


def test_golden_instance_has_six_feasible_pairs(c3):
    # two order-3 template orbits tile the plane into cones; exactly six
    # of the nine cell pairs overlap
    orb1 = orbit_of(c3, GOLDEN_Z[0])
    orb2 = orbit_of(c3, GOLDEN_Z[1])
    feasible = 0
    for i in range(orb1.size):
        for j in range(orb2.size):
            res = strict_cones_feasible(block((orb1, i), (orb2, j)))
            if res.feasible:
                feasible += 1
                assert in_cell(orb1, i, res.witness)
                assert in_cell(orb2, j, res.witness)
                assert res.margin > 0
    assert feasible == 6


def test_golden_batch_matches_one_problem_solves(c3):
    orb1 = orbit_of(c3, GOLDEN_Z[0])
    orb2 = orbit_of(c3, GOLDEN_Z[1])
    cells1 = [(orb1, i) for i in range(orb1.size)]
    cells2 = [(orb2, j) for j in range(orb2.size)]
    problems = [block(a, b) for a in cells1 for b in cells2] + [block(a) for a in cells1]
    assert_batch_matches_single(problems)
    assert sum(r.feasible for r in voronoi._margin_lps(problems)) == 6 + 3


@pytest.mark.parametrize("name,param", CHI_GROUPS)
def test_s_set_batch_matches_one_problem_solves(name, param, rng):
    assert_batch_matches_single(s_set_problems(build_family(name, param), rng))


@given(st.sampled_from(CHI_GROUPS + [("axis_rotation_3d", 4)]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_batch_matches_one_problem_solves_property(spec, seed, n_cells):
    g = build_family(*spec)
    rng = np.random.default_rng(seed)
    orbits = [orbit_of(g, rng.standard_normal(g.dim)) for _ in range(n_cells)]
    problems = [block(*[(o, int(rng.integers(o.size))) for o in orbits]) for _ in range(8)]
    assert_batch_matches_single(problems)


def test_batch_with_empty_and_rowless_problems(trivial2, c5, rng):
    free = cell_of(trivial2, np.array([1.0, 2.0]))
    cell = cell_of(c5, rng.standard_normal(2))
    out = list(voronoi._margin_lps([block(free), block(cell), np.zeros((0, 0)),
                                    block(free, free)]))
    assert [r.margin for r in (out[0], out[2], out[3])] == [np.inf] * 3
    assert out[1].feasible and out[2].witness.shape == (0,)


def test_mixed_shapes_reach_solve_blocks_one_shape_per_call(trivial2, c5, monkeypatch, rng):
    free = cell_of(trivial2, np.array([1.0, 2.0]))
    a, b = (cell_of(c5, rng.standard_normal(2)) for _ in range(2))
    problems = [block(free), block(a), block(a, b), np.zeros((0, 0)), block(b), block(b, a),
                block(free, free), block(b, a), block(a, a)]
    want = [strict_cones_feasible(R) for R in problems]
    shapes = []
    real = voronoi._solve_blocks

    def recording(blocks):
        shapes.append({R.shape for R in blocks})
        return real(blocks)

    monkeypatch.setattr(voronoi, "_solve_blocks", recording)
    got = list(voronoi._margin_lps(problems))
    # a new shape closes the chunk; equal shapes in a row share one
    assert shapes == [{(0, 2)}, {(4, 2)}, {(8, 2)}, {(0, 0)}, {(4, 2)}, {(8, 2)}, {(0, 2)},
                      {(8, 2)}]
    for g, w in zip(got, want, strict=True):
        assert g.feasible == w.feasible and g.margin == w.margin
        for x, y in ((g.witness, w.witness), (g.weights, w.weights)):
            assert (x is None and y is None) or x.tobytes() == y.tobytes()


@pytest.mark.parametrize("bound", [1, 200, 1000])
def test_chunk_split_keeps_verdicts(bound, monkeypatch, rng):
    g = build_family("permutations", 4)
    x = sample_principal(g, rng)
    y = sample_principal(g, rng)
    bank = MaxFilterBank(build_family("sign_flips", 2), rng.standard_normal((4, 2)))
    whole_s = s_set(g, x, y)
    whole_ub = upper_bound_exact(bank)
    whole = list(voronoi._margin_lps(s_set_problems(g, np.random.default_rng(1))))

    chunks = []
    real = voronoi._solve_blocks

    def counting(blocks):
        chunks.append(sum(R.shape[0] * sum(R.shape) for R in blocks))
        return real(blocks)

    monkeypatch.setattr(voronoi, "_LP_CHUNK", bound)
    monkeypatch.setattr(voronoi, "_solve_blocks", counting)
    split = list(voronoi._margin_lps(s_set_problems(g, np.random.default_rng(1))))
    assert len(chunks) > 1
    # a chunk exceeds the bound only when one problem does alone
    rows = 2 * (g.order - 1)
    one_problem = rows * (rows + g.dim)
    assert max(chunks) <= max(bound, one_problem)
    assert [r.feasible for r in split] == [r.feasible for r in whole]
    assert max(abs(a.margin - b.margin) for a, b in zip(split, whole)) <= 1e-12
    again = s_set(g, x, y)
    assert np.array_equal(again.members, whole_s.members)
    assert upper_bound_exact(bank) == whole_ub


@pytest.mark.parametrize("weights", [lambda m: np.eye(m)[0], np.zeros, lambda m: -np.ones(m)],
                         ids=["one_row", "zero", "negative"])
def test_undecided_block_raises_and_certifies_nothing(weights, monkeypatch, c5, rng):
    # the infeasible two-cell blocks of C5 need a three-row lambda, which
    # the screen's pair cannot give; with both the three-row candidate
    # and Wolfe handing back weights that settle nothing, such a block
    # must raise, not decide
    problems = s_set_problems(c5, rng)
    called = []

    def unsettled(stack):
        called.append(stack.shape)
        k, m, d = stack.shape
        return np.zeros((k, d)), np.broadcast_to(weights(m), (k, m)).copy()

    monkeypatch.setattr(voronoi, "_FINDERS", (voronoi._screen, unsettled, unsettled))
    yielded = []
    with pytest.raises(LpNumericalFailure, match="undecided"):
        for r in voronoi._margin_lps(problems):
            yielded.append(r)
    # both finders were asked, each with the (k, m, d) sub-stack still open
    assert len(called) == 2 and called[0] == called[1] and len(called[0]) == 3
    assert yielded == []
    with pytest.raises(LpNumericalFailure):
        voronoi_characteristic(c5, 4, seed=1)
def test_distinct_cells_of_one_orbit_never_intersect(c5, rng):
    x = rng.standard_normal(2)
    orb = orbit_of(c5, x)
    assert strict_cones_feasible(block((orb, 0), (orb, 0))).feasible
    for a, b in itertools.combinations(range(5), 2):
        assert not strict_cones_feasible(block((orb, a), (orb, b))).feasible


def test_strict_cones_accepts_empty_constraint_list(trivial2):
    res = strict_cones_feasible(block(cell_of(trivial2, np.array([1.0, 2.0]))))
    assert res.feasible
    assert res.margin == np.inf


def test_in_Q_detects_ties():
    c4 = build_family("cyclic_rotation_2d", 4)
    orb = orbit_of(c4, np.array([1.0, 0.0]))
    assert in_Q(orb, np.array([1.0, 0.2]))
    assert not in_Q(orb, np.array([1.0, 1.0]))     # two reps tie exactly


def test_is_principal_and_samplers(rng):
    ax = build_family("axis_rotation_3d", 5)
    assert not is_principal(ax, np.array([0.0, 0.0, 1.0]))
    assert is_principal(ax, np.array([1.0, 0.2, 0.3]))
    sf = build_family("sign_flips", 2)
    assert not is_principal(sf, np.array([1.0, 0.0]))  # fixed by one flip
    assert is_principal(sf, np.ones(2))
    assert not is_principal(build_family("permutations", 4), np.ones(4))
    x = sample_principal(sf, rng)
    assert is_principal(sf, x)
    bank = MaxFilterBank(sf, np.array([[2.0, 1.0], [1.0, 2.0]]))
    y = sample_nice(bank, rng)
    assert is_principal(sf, y)
    for z in bank.templates:
        assert in_Q(orbit_of(sf, z), y)


def test_sampler_failure_on_degenerate_group(monkeypatch):
    # every point of the plane is fixed by the identity-only "orbit";
    # principal sampling cannot fail there, so force failure with zero tries
    c5 = build_family("cyclic_rotation_2d", 5)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(voronoi, "_SAMPLE_TRIES", 0)
    with pytest.raises(NotNicePoint):
        sample_principal(c5, rng)


# two parameters per family, for the referee of the principal rule
FAMILY_PARAMS = {"cyclic_rotation_2d": (3, 7), "axis_rotation_3d": (4, 5),
                 "dihedral_2d": (3, 4), "sign_flips": (2, 3), "permutations": (3, 4),
                 "plus_minus_id": (2, 3), "circular_shifts": (3, 5)}
REFEREE_GROUPS = [pytest.param(lambda name=name, m=m: build_family(name, m), id=f"{name}-{m}")
                  for name in FAMILIES for m in FAMILY_PARAMS[name]] + [
    pytest.param(lambda: generate_group(build_family("permutations", 3).stack), id="untagged_s3"),
    pytest.param(lambda: generate_group([np.eye(3)]), id="trivial"),
]


@pytest.mark.parametrize("make", REFEREE_GROUPS)
def test_is_principal_agrees_with_the_stabilizer(make):
    # one rule, the orbit keeps all |G| images; the stabilizer count referees it
    g = make()
    assert set(FAMILY_PARAMS) == set(FAMILIES)
    rng = np.random.default_rng((38, g.order, g.dim))
    for x in rng.standard_normal((40, g.dim)):
        assert is_principal(g, x) == (stabilizer_order(g, x) == 1)
        if is_principal(g, x):
            # a principal orbit is every image, in element order, bit for bit
            assert orbit_of(g, x).points.tobytes() == g.apply_all(x).tobytes()
    built = [np.zeros(g.dim), np.ones(g.dim), np.eye(g.dim)[-1]]
    stack = g.stack
    mirrors = stack[(np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) <= 1e-12)
                    & np.isclose(np.trace(stack, axis1=1, axis2=2), g.dim - 2)]
    built += [(x + r @ x) / 2 for r in mirrors[:2] for x in rng.standard_normal((2, g.dim))]
    for x in built:
        assert is_principal(g, x) == (stabilizer_order(g, x) == 1)
    if g.order > 1:
        assert not is_principal(g, np.zeros(g.dim))
        assert all(not is_principal(g, x) for x in built[3:])


class ImageCount:
    """Counts the image products (``groups._orbits`` calls) with the points
    each takes, and the calls of FiniteGroup.apply_all, orbit_of and
    stabilizer_order, wherever ``groups`` or ``voronoi`` binds them."""

    def __init__(self, monkeypatch):
        self.calls = {"apply_all": 0, "_orbits": 0, "orbit_of": 0, "stabilizer_order": 0}
        self.batches = []
        monkeypatch.setattr(FiniteGroup, "apply_all", self.wrap(FiniteGroup.apply_all))
        for name in ("_orbits", "orbit_of", "stabilizer_order"):
            real = getattr(groups, name)
            for mod in (groups, voronoi):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, self.wrap(real, name))

    def wrap(self, real, name="apply_all"):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            if name == "_orbits":
                self.batches.append(len(args[1]))
            return real(*args, **kwargs)
        return counted

    @property
    def points(self) -> int:
        return sum(self.batches)


# the points of each image product of 12 chi pairs: a batch holds the pairs
# of one _LP_CHUNK = 16384 entries of blocks with m = 2|G| - 2 rows in R^d,
# m(m + d) entries each, |G| blocks per pair
CHI_BATCHES = {("permutations", 3): [24],         # 16384 // (10 * 13 * 6) = 21 pairs
               ("sign_flips", 3): [16, 8],        # 16384 // (14 * 17 * 8) = 8 pairs
               ("plus_minus_id", 2): [24],        # 16384 // (2 * 4 * 2) = 1024 pairs
               ("cyclic_rotation_2d", 7): [24]}   # 16384 // (12 * 14 * 7) = 13 pairs


@pytest.mark.parametrize("name,param", [CHI_GROUPS[i] for i in (0, 2, 4, 8)],
                         ids=lambda v: str(v))
def test_chi_computes_each_drawn_points_images_once(name, param, monkeypatch):
    g = build_family(name, param)
    batches = CHI_BATCHES[name, param]
    count = ImageCount(monkeypatch)
    voronoi_characteristic(g, 12, seed=5)
    # 12 pairs of Gaussian draws, all principal at the first draw: 24 points
    # in one image product per batch, and the witness pair is not drawn again
    assert count.batches == batches and count.points == 24
    assert count.calls == {"apply_all": 0, "_orbits": len(batches), "orbit_of": 0,
                           "stabilizer_order": 0}


def test_choice_assignments_builds_two_orbits(monkeypatch):
    for name, param in (("sign_flips", 3), ("cyclic_rotation_2d", 5), ("plus_minus_id", 3)):
        g = build_family(name, param)
        bank = MaxFilterBank(g, np.random.default_rng(2).standard_normal((4, g.dim)))
        x, y = (sample_nice(bank, np.random.default_rng(k)) for k in (3, 4))
        count = ImageCount(monkeypatch)
        choice_assignments(bank, x, y)
        assert count.calls == {"apply_all": 0, "_orbits": 2, "orbit_of": 2,
                               "stabilizer_order": 0}
        assert count.batches == [1, 1]
        monkeypatch.undo()
        # the sharp bound builds each drawn point's orbit once: its two draws
        # per pair attempt, one generator each, and no second pass
        bank.orbits
        attempts = []
        real_rng = np.random.default_rng

        def counted_rng(*args):
            attempts.append(args)
            return real_rng(*args)

        count = ImageCount(monkeypatch)
        monkeypatch.setattr(np.random, "default_rng", counted_rng)
        lower_bound_sharp(bank, 20, seed=1)
        monkeypatch.undo()
        assert len(attempts) >= 20
        assert count.calls["stabilizer_order"] == 0 and count.calls["apply_all"] == 0
        assert count.batches == [1] * (2 * len(attempts))


def test_s_set_generic_and_aligned_sizes(c5, rng):
    x = sample_principal(c5, rng)
    y = sample_principal(c5, rng)
    s = s_set(c5, x, y)
    assert s.size == 2
    # witnesses live in V_x and exactly one cell of [y]
    orb_y = orbit_of(c5, y)
    cell_x = cell_of(c5, x)
    for q, w in zip(s.members, s.witnesses):
        assert in_cell(*cell_x, w)
        assert in_cell(orb_y, index_of(orb_y, q), w)
        for q2 in s.members:
            if np.linalg.norm(q2 - q) > 1e-9:
                # w lies outside the closed cell of every other member
                rows = delete_rows(orb_y.points, index_of(orb_y, q2))
                assert not (rows @ w >= -DEFAULT_TOL.lp_tol * np.linalg.norm(w)).all()
    # aligned pair: cells of y coincide with cells of x, one cover suffices
    aligned = s_set(c5, x, 2.5 * c5.stack[1] @ x)
    assert aligned.size == 1


def test_s_set_matches_sampling_oracle(rng):
    for name, param in [("cyclic_rotation_2d", 3), ("sign_flips", 2),
                        ("permutations", 3), ("plus_minus_id", 2)]:
        g = build_family(name, param)
        x = sample_principal(g, rng)
        y = sample_principal(g, rng)
        s = s_set(g, x, y)
        orb_y = orbit_of(g, y)
        lp_members = {index_of(orb_y, q) for q in s.members}
        sampled = brute_s_members(g, x, y, 4000, rng)
        assert sampled <= lp_members
        assert sampled == lp_members   # generic instances at this scale


def test_s_set_covers_closure_of_cell(c5, rng):
    x = sample_principal(c5, rng)
    y = sample_principal(c5, rng)
    s = s_set(c5, x, y)
    orb_x = orbit_of(c5, x)
    orb_y = orbit_of(c5, y)
    ix = int(np.argmin(np.linalg.norm(orb_x.points - x, axis=1)))
    hits = 0
    for _ in range(2000):
        w = rng.standard_normal(2)
        if int(np.argmax(orb_x.points @ w)) != ix:
            continue
        hits += 1
        q = orb_y.points[int(np.argmax(orb_y.points @ w))]
        assert min(np.linalg.norm(s.members - q, axis=1)) < 1e-9
    assert hits > 100


def test_s_set_warns_on_non_principal_input():
    mirror = generate_group([np.diag([1.0, -1.0])])
    x = np.array([1.0, 0.0])           # on the mirror line, not principal
    y = np.array([1.0, 1.0])
    with pytest.warns(UserWarning):
        s = s_set(mirror, x, y)
    # degenerate x sees both cells of [y]; the principal direction sees one
    assert s.size == 2
    with pytest.warns(UserWarning):
        assert s_set(mirror, y, x).size == 1


def test_choice_assignments_golden(c3, rng):
    bank = MaxFilterBank(c3, GOLDEN_Z)
    x = sample_nice(bank, rng)
    y = sample_principal(c3, rng)
    enum = choice_assignments(bank, x, y)
    full = s_set(c3, x, y)
    assert 1 <= len(enum.assignments) <= full.size ** 2
    assert enum.assignments.shape == (len(enum.assignments), 2)
    orb_y = orbit_of(c3, y)
    best = [float((orb_y.points @ v).max()) for v in enum.aligned]
    for row in enum.assignments:
        images = enum.members[row]
        assert images.shape == (2, 2)
        for i in range(2):
            assert float(images[i] @ enum.aligned[i]) >= best[i] - 1e-9
    # members are the S-set points near some template's best score, in
    # orbit order, and each template's column takes exactly its near-best ones
    full_idx = [index_of(orb_y, q) for q in full.members]
    member_idx = [index_of(orb_y, q) for q in enum.members]
    assert member_idx == sorted(member_idx)
    assert set(member_idx) <= set(full_idx)
    for i, v in enumerate(enum.aligned):
        near = {k for k in full_idx
                if float(orb_y.points[k] @ v) >= best[i] - DEFAULT_TOL.sample_tol}
        assert near <= set(member_idx)
        assert {member_idx[j] for j in enum.assignments[:, i]} == near


def test_choice_assignments_decides_only_candidates(monkeypatch, rng):
    # the LP route's candidate rule, with the cell geometry off; its value
    # is the one the geometry gives
    bank = MaxFilterBank(build_family("sign_flips", 3), rng.standard_normal((5, 3)))
    x = sample_nice(bank, rng)
    y = sample_nice(bank, rng)
    want = pair_lower_value(bank, x, y)
    sent = []
    real = voronoi._margin_lps

    def spy(problems):
        problems = list(problems)
        sent.append(len(problems))
        return real(problems)

    monkeypatch.setattr(voronoi, "_margin_lps", spy)
    with lp_route():
        assert pair_lower_value(bank, x, y) == want
    # one problem per template at most, not one per point of [y] (8 here)
    assert 1 <= sum(sent) <= 5


def test_choice_assignments_warns_on_non_principal_y(c3, rng):
    bank = MaxFilterBank(c3, GOLDEN_Z)
    x = sample_nice(bank, rng)
    with pytest.warns(UserWarning, match="y is not principal"):
        choice_assignments(bank, x, np.zeros(2))


def test_choice_assignments_rejects_bad_x(c3):
    bank = MaxFilterBank(c3, GOLDEN_Z)
    with pytest.raises(NotNicePoint):
        choice_assignments(bank, np.zeros(2), np.array([1.0, 0.5]))


def test_choice_assignments_cap(monkeypatch):
    # z_1 = (1, 0) scores 0 against both points of [y]: a tie, so F(x, y)
    # has two assignments, and a cap below two must raise, not truncate
    bank = MaxFilterBank(build_family("plus_minus_id", 2), np.array([[1.0, 0.0], [0.3, 1.0]]))
    x, y = np.array([0.7, 0.4]), np.array([0.0, 1.0])
    monkeypatch.setitem(BUDGETS, "choice_cap", 2)
    enum = choice_assignments(bank, x, y)
    assert enum.assignments.tolist() == [[0, 1], [1, 1]]
    assert abs(pair_lower_value(bank, x, y) - 0.8612) < 1e-4
    for cap in (0, 1):
        monkeypatch.setitem(BUDGETS, "choice_cap", cap)
        with pytest.raises(BudgetExceeded) as miss:
            choice_assignments(bank, x, y)
        assert miss.value.partial is None
        with pytest.raises(BudgetExceeded):
            pair_lower_value(bank, x, y)


def test_voronoi_characteristic_prefix_stability(c5):
    big = voronoi_characteristic(c5, 60, seed=7)
    small = voronoi_characteristic(c5, 25, seed=7)
    assert np.array_equal(big.sizes[:25], small.sizes)
    assert big.chi_lower == 2
    assert not big.saturated
    # the stored witness pair reproduces the reported size
    assert s_set(c5, big.witness_x, big.witness_y).size == big.chi_lower


@pytest.mark.parametrize("name,param", [CHI_GROUPS[i] for i in (1, 2, 5, 7)],
                         ids=lambda v: str(v))
def test_chi_stream_matches_one_pair_s_sets(name, param, monkeypatch):
    g = build_family(name, param)
    blocks = []
    real = voronoi._solve_blocks

    def recording(chunk):
        blocks.extend(chunk)
        return real(chunk)

    monkeypatch.setattr(voronoi, "_solve_blocks", recording)
    est = voronoi_characteristic(g, 12, seed=5)
    stream = blocks[:]
    pairs, want = [], []
    for k in range(12):
        rng = np.random.default_rng((5, STREAMS["chi_sampling"], k))
        pairs.append((sample_principal(g, rng), sample_principal(g, rng)))
        assert est.sizes[k] == s_set(g, *pairs[k]).size
        # the pair's blocks: the rows of V_q, then those of V_x, q in orbit order
        orb_x, orb_y = (orbit_of(g, p) for p in pairs[k])
        cell_x = (orb_x, index_of(orb_x, pairs[k][0]))
        want += [block((orb_y, q), cell_x) for q in range(orb_y.size)]
    assert len(stream) == len(want)
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(stream, want))
    # the witness is the first pair of largest S-set
    first = int(np.argmax(est.sizes))
    assert np.array_equal(est.witness_x, pairs[first][0])
    assert np.array_equal(est.witness_y, pairs[first][1])


def assert_same_chi(got, want):
    """Every ChiEstimate field equal, bit for bit, with its type and dtype."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("name,param", CHI_GROUPS, ids=lambda v: str(v))
def test_chi_equals_the_sequential_draws(name, param):
    # the batched stream against the pairs drawn one at a time, with the
    # witness pair drawn again (tests/oracles.py)
    g = build_family(name, param)
    for n in (1, 8, 40):
        assert_same_chi(voronoi_characteristic(g, n, seed=11), oracles.sequential_chi(g, n, 11))


@pytest.mark.parametrize("pair,which", [(0, 0), (3, 0), (5, 1), (9, 0), (11, 1)])
def test_chi_redraws_a_pair_whose_first_draw_is_not_principal(pair, which, monkeypatch):
    # the batched orbit of one first draw is cut to one point, so the stream
    # must draw that pair again with _draw; sign_flips(3) batches 8 pairs,
    # so pairs 9 and 11 sit in the second batch
    g = build_family("sign_flips", 3)
    real_orbits, real_draw = groups._orbits, voronoi._draw
    seen, draws = [], []

    def rejecting(group, X):
        orbits = real_orbits(group, X)
        i = 2 * pair + which - sum(seen)
        if 0 <= i < len(X):
            orbits[i] = groups.Orbit(points=orbits[i].points[:1],
                                     rep_elements=orbits[i].rep_elements[:1])
        seen.append(len(X))
        return orbits

    def counted(*args):
        draws.append(args)
        return real_draw(*args)

    monkeypatch.setattr(voronoi, "_orbits", rejecting)
    monkeypatch.setattr(voronoi, "_draw", counted)
    got = voronoi_characteristic(g, 12, seed=5)
    assert seen == [16, 8] and len(draws) == 2
    seen.clear()
    pairs = list(voronoi._chi_pairs(g, 5, 12))
    monkeypatch.undo()
    assert_same_chi(got, oracles.sequential_chi(g, 12, 5))
    # every pair, the redrawn one included, is the two sequential draws, bit for bit
    for k, drawn in enumerate(pairs):
        rng = np.random.default_rng((5, STREAMS["chi_sampling"], k))
        for (x, (orbit, i)), (wx, (want, wi)) in zip(drawn, (real_draw(g, rng), real_draw(g, rng))):
            assert x.tobytes() == wx.tobytes() and i == wi
            assert orbit.points.tobytes() == want.points.tobytes()
            assert np.array_equal(orbit.rep_elements, want.rep_elements)


def test_chi_run_is_one_lp_stream(c5, monkeypatch):
    chunks = []
    real = voronoi._solve_blocks

    def counting(blocks):
        chunks.append([R.shape for R in blocks])
        return real(blocks)

    monkeypatch.setattr(voronoi, "_solve_blocks", counting)
    est = voronoi_characteristic(c5, 25, seed=7)
    # 25 pairs, 5 two-cell problems each, 4 + 4 rows per problem, one chunk
    assert chunks == [[(8, 2)] * (25 * 5)]
    assert est.chi_lower == 2


# three banks sent down the LP route
LP_ROUTE_BANKS = [("cyclic_rotation_2d", 3, 8), ("sign_flips", 3, 6), ("permutations", 3, 5)]


def run_every_lp_path():
    """chi sampling, one-pair S-sets and the LP route of beta."""
    for name, param in CHI_GROUPS:
        voronoi_characteristic(build_family(name, param), 8, seed=1)
    rng = np.random.default_rng(2)
    for name, param in [("cyclic_rotation_2d", 5), ("plus_minus_id", 3), ("permutations", 4)]:
        g = build_family(name, param)
        s_set(g, sample_principal(g, rng), sample_principal(g, rng))
    for name, param, n in LP_ROUTE_BANKS:
        g = build_family(name, param)
        with lp_route():
            upper_bound_exact(MaxFilterBank(
                g, np.random.default_rng(0).standard_normal((n, g.dim))))


def decided_chunks(monkeypatch):
    """(blocks, verdicts) of every chunk run_every_lp_path decides."""
    chunks = []
    real = voronoi._solve_blocks

    def recording(blocks):
        verdicts = real(blocks)
        chunks.append((blocks, verdicts))
        return verdicts

    monkeypatch.setattr(voronoi, "_solve_blocks", recording)
    run_every_lp_path()
    return chunks


def test_margin_lp_verdicts_equal_highs(monkeypatch):
    # every verdict is HiGHS's, and each rests on a certificate that holds:
    # a witness in the box whose margin is min R y > lp_tol, at most the
    # LP optimum, or simplex weights with |R^T lambda|_1 = -margin <= lp_tol,
    # at least the LP optimum (weak duality)
    tol = DEFAULT_TOL.lp_tol
    got, want = [], []
    for blocks, verdicts in decided_chunks(monkeypatch):
        for R, v, ref in zip(blocks, verdicts, highs_margin_lps(blocks)):
            got.append(v.feasible)
            want.append(ref.feasible)
            if R.shape[0] == 0:
                assert v.feasible and v.margin == ref.margin == np.inf
            elif v.feasible:
                assert np.abs(v.witness).max() <= 1
                assert abs((R @ v.witness).min() - v.margin) <= 1e-12
                assert tol < v.margin <= ref.margin + 1e-12
            else:
                lam = v.weights
                assert lam.shape == (R.shape[0],) and (lam >= 0).all()
                assert abs(lam.sum() - 1) <= 1e-12
                assert abs(np.abs(R.T @ lam).sum() + v.margin) <= 1e-12
                assert -v.margin <= tol and ref.margin <= -v.margin + 1e-12
    assert len(got) > 500 and any(got) and not all(got)
    assert got == want


def test_every_margin_lp_runs_without_presolve(monkeypatch):
    # the HiGHS referee solves every captured chunk without presolve
    options = []
    real = oracles.linprog

    def recording(*args, **kwargs):
        options.append(kwargs.get("options"))
        return real(*args, **kwargs)

    chunks = decided_chunks(monkeypatch)
    monkeypatch.setattr(oracles, "linprog", recording)
    for blocks, _ in chunks:
        highs_margin_lps(blocks)
    assert options
    assert all(o is not None and o.get("presolve") is False for o in options)


def test_planar_blocks_settle_without_wolfe(monkeypatch):
    # the screen's pair and the three-row candidate settle every block of
    # planar chi sampling (Caratheodory in R^2), where Wolfe used to run
    # 72 times per chi benchmark op; over every LP path it is left with
    # the 10 feasible blocks of beta's LP route (134 blocks before)
    blocks = []
    screen, triples, wolfe = voronoi._FINDERS

    def counting(stack):
        blocks.append(len(stack))
        return wolfe(stack)

    monkeypatch.setattr(voronoi, "_FINDERS", (screen, triples, counting))
    for name, param in [("cyclic_rotation_2d", 3), ("cyclic_rotation_2d", 5),
                        ("cyclic_rotation_2d", 7), ("plus_minus_id", 2)]:
        voronoi_characteristic(build_family(name, param), 8, seed=1)
    assert blocks == []
    planar = [np.count_nonzero(v.weights)
              for chunk, verdicts in decided_chunks(monkeypatch)
              for R, v in zip(chunk, verdicts) if R.shape[1] == 2 and not v.feasible]
    assert sum(blocks) <= 10
    assert max(planar) == 3 and 2 in planar


def test_chi_chunks_are_one_shape_and_finders_see_only_open_blocks(monkeypatch):
    # the nine chi groups at 8 samples: each chunk is one stack, the screen
    # settles all but 72 of its blocks, and the three-row pass the rest
    chunks, asked = [], {}
    real = voronoi._solve_blocks

    def recording(blocks):
        chunks.append({R.shape for R in blocks})
        return real(blocks)

    def counted(find):
        def wrapper(stack):
            asked[find.__name__] += len(stack)
            return find(stack)
        asked[find.__name__] = 0
        return wrapper

    monkeypatch.setattr(voronoi, "_solve_blocks", recording)
    monkeypatch.setattr(voronoi, "_FINDERS", tuple(map(counted, voronoi._FINDERS)))
    for name, param in CHI_GROUPS:
        voronoi_characteristic(build_family(name, param), 8, seed=1)
    assert len(chunks) == 36 and all(len(shapes) == 1 for shapes in chunks)
    assert asked == {"_screen": 520, "_triples": 72, "_wolfe": 0}


def test_s_sets_reads_pairs_lazily(c5):
    drawn = []

    def pairs():
        rng = np.random.default_rng(3)
        for k in range(200):
            drawn.append(k)
            yield voronoi._draw(c5, rng)[1], voronoi._draw(c5, rng)[1]

    orbit_y, verdicts = next(voronoi._s_sets(pairs()))
    assert len(drawn) < 200
    assert len(verdicts) == orbit_y.size == 5


def test_chi_memory_does_not_grow_with_samples():
    # 8 sign_flips(3) pairs fill one LP chunk; holding every pair's
    # blocks at once would raise the traced peak about 17x
    g = build_family("sign_flips", 3)

    def peak(n):
        tracemalloc.start()
        voronoi_characteristic(g, n, seed=1)
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return top

    peak(5)             # warm caches outside the measurement
    assert peak(160) < 1.3 * peak(20)


def test_voronoi_characteristic_saturation(pm2):
    est = voronoi_characteristic(pm2, 50, seed=3)
    assert est.chi_lower == 2
    assert est.saturated
    assert est.sizes.max() == pm2.order


def test_voronoi_characteristic_rejects_bad_counts(c5):
    with pytest.raises(ValueError):
        voronoi_characteristic(c5, 0, seed=1)
