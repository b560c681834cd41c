import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxfilter_lab import (DEFAULT_TOL, FAMILIES, ClosureOverflow,
                           FiniteGroup, NotOrthogonal, SizeOverflow,
                           build_family, generate_group, load_group,
                           max_filter, orbit_of, save_group, stabilizer_order)
from maxfilter_lab import groups
from maxfilter_lab.groups import _check_orthogonal, _first_seen
from oracles import (BACKEND_CASES, apply_all_orbit_of, degenerate_points,
                     dense_closure_defect, loop_closure, loop_dedup_stack, loop_orbit_of,
                     loop_pm_representatives)

FAMILY_CASES = [
    ("cyclic_rotation_2d", 5, 5, 2),
    ("axis_rotation_3d", 4, 4, 3),
    ("dihedral_2d", 3, 6, 2),
    ("sign_flips", 3, 8, 3),
    ("permutations", 3, 6, 3),
    ("plus_minus_id", 3, 2, 3),
    ("circular_shifts", 6, 6, 6),
]


@pytest.mark.parametrize("name,param,order,dim", FAMILY_CASES)
def test_family_orders_and_dims(name, param, order, dim):
    g = build_family(name, param)
    assert g.order == order
    assert g.dim == dim
    assert (g.family, g.param) == (name, param)
    assert g.contains(np.eye(dim))


@pytest.mark.parametrize("name,param,order,dim", FAMILY_CASES)
def test_families_are_closed_orthogonal_groups(name, param, order, dim):
    g = build_family(name, param)
    for M in g.stack:
        _check_orthogonal(M)
    assert dense_closure_defect(g.stack) < 1e-12


def test_canonical_order_is_construction_independent():
    g1 = build_family("dihedral_2d", 4)
    shuffled = g1.stack[np.random.default_rng(3).permutation(g1.order)]
    g2 = FiniteGroup.from_matrices(shuffled)
    assert np.array_equal(g1.stack, g2.stack)


def test_generate_group_recovers_dihedral():
    rot = np.array([[math.cos(2 * math.pi / 5), -math.sin(2 * math.pi / 5)],
                    [math.sin(2 * math.pi / 5), math.cos(2 * math.pi / 5)]])
    flip = np.diag([1.0, -1.0])
    g = generate_group([rot, flip])
    ref = build_family("dihedral_2d", 5)
    assert g.order == 10
    # same element set; canonical order may differ across float realizations
    for M in g.stack:
        assert ref.contains(M)
    for M in ref.stack:
        assert g.contains(M)


def test_generate_group_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        generate_group([np.array([[1.0, 0.0], [0.0, 2.0]])])


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_generate_group_rejects_non_finite_generator(entry):
    # a NaN defect compares false with the tolerance; it must still fail
    with pytest.raises(NotOrthogonal):
        generate_group([np.array([[entry, 0.0], [0.0, 1.0]])])


def test_generate_group_overflow_on_irrational_rotation(monkeypatch):
    # rotation by 1 radian generates an infinite group; the cap is read at call time
    monkeypatch.setattr(groups, "MAX_ORDER", 64)
    M = np.array([[math.cos(1.0), -math.sin(1.0)],
                  [math.sin(1.0), math.cos(1.0)]])
    with pytest.raises(ClosureOverflow):
        generate_group([M])


def _symmetric_group_on(k: int, d: int) -> list[np.ndarray]:
    """A transposition and a k-cycle: generators of S_k on the first k of d coordinates."""
    swap, cycle = np.eye(d), np.eye(d)
    swap[:2] = swap[[1, 0]]
    cycle[:k] = cycle[np.roll(np.arange(k), -1)]
    return [swap, cycle]


def test_closure_stack_cap_is_read_at_call_time(monkeypatch):
    # S3 on 3 of 40 coordinates: 6 elements of 1600 entries each
    assert groups.MAX_STACK == 1 << 24
    gens, entries = _symmetric_group_on(3, 40), 6 * 40 * 40
    monkeypatch.setattr(groups, "MAX_STACK", entries)
    assert generate_group(gens).order == 6      # a stack at the cap closes
    monkeypatch.setattr(groups, "MAX_STACK", entries - 1)
    with pytest.raises(SizeOverflow, match=f"MAX_STACK={entries - 1}"):
        generate_group(gens)


def test_closure_stack_cap_bounds_memory(monkeypatch):
    # S6 on 6 of 256 coordinates would close to a 360 MiB stack; it stops
    # within a few stacks' worth of an 8 MiB cap
    cap = 1 << 20
    gens = _symmetric_group_on(6, 256)
    monkeypatch.setattr(groups, "MAX_STACK", cap)
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow):
            generate_group(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * cap


def test_default_tolerances_are_positive_and_ordered():
    # the thresholds are constants of the source, so their invariants are checked here
    tol = DEFAULT_TOL
    assert min(tol.eq_tol, tol.psd_tol, tol.lp_tol, tol.sample_tol) > 0
    # argmax gaps may not be tighter than exact-equality resolution
    assert tol.eq_tol <= tol.sample_tol


def test_family_size_cap():
    # 2^17 = 131072 and 9! = 362880 both exceed MAX_ORDER
    assert groups.MAX_ORDER == 100_000
    with pytest.raises(SizeOverflow):
        build_family("sign_flips", 17)
    with pytest.raises(SizeOverflow):
        build_family("permutations", 9)
    # orders of over 4300 digits: decided without building or printing them
    with pytest.raises(SizeOverflow):
        build_family("permutations", 2000)
    with pytest.raises(SizeOverflow):
        build_family("sign_flips", 20000)


@pytest.mark.parametrize("make,args", [
    (build_family, ("circular_shifts", 1000)),
    (build_family, ("plus_minus_id", 300)),
    (generate_group, ([-np.eye(300)],)),
    (FiniteGroup.from_matrices, (np.stack([np.eye(300), -np.eye(300)]),)),
], ids=["circular_shifts_1000", "plus_minus_id_300", "generate_group_300", "from_matrices_300"])
def test_dimension_cap_raises_before_building(make, args):
    # plus_minus_id(300) alone would sort 2 x 90000 keys: over 200 MiB
    assert groups.MAX_DIM == 256
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow, match="MAX_DIM=256"):
            make(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dimension_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(groups, "MAX_DIM", 3)
    assert build_family("sign_flips", 3).dim == 3
    assert generate_group([np.diag([-1.0, 1.0, 1.0])]).order == 2
    for make in (lambda: build_family("sign_flips", 4),
                 lambda: generate_group([np.diag([-1.0, 1.0, 1.0, 1.0])]),
                 lambda: FiniteGroup.from_matrices(np.eye(4)[None])):
        with pytest.raises(SizeOverflow, match="MAX_DIM=3"):
            make()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_family("frieze", 3)


def test_family_tags_come_only_from_constructors(rng):
    c4 = build_family("cyclic_rotation_2d", 4)
    for make in (FiniteGroup, FiniteGroup.from_matrices, generate_group):
        with pytest.raises(TypeError):
            make(c4.stack, family="cyclic_rotation_2d")
    # the reflection across the line at 0.3 rad, which is not dihedral_2d(1)'s
    # flip, and dihedral generators: both close untagged, so the filter
    # takes the dense route and never the angle fold
    th = 0.3
    mirror = np.array([[math.cos(2 * th), math.sin(2 * th)],
                       [math.sin(2 * th), -math.cos(2 * th)]])
    cases = [(1, [mirror])]
    for m in (3, 5, 7):
        c, s = math.cos(2 * math.pi / m), math.sin(2 * math.pi / m)
        cases.append((m, [np.array([[c, -s], [s, c]]), np.diag([1.0, -1.0])]))
    for m, gens in cases:
        g = generate_group(gens)
        assert g.family is None and g.order == 2 * m
        for x, y in [(np.array([1.0, 0.2]), np.array([0.3, -1.0])),
                     tuple(rng.standard_normal((2, 2)))]:
            assert abs(max_filter(g, x, y) - max_filter(g, x, y, allow_fft=False)) < 1e-12


def _turned(group, seed):
    """The group conjugated by a fixed random rotation, untagged."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((group.dim, group.dim)))
    return FiniteGroup.from_matrices(Q @ group.stack @ Q.T)


def _double_turn():
    """C5 turning two planes of R^4 at once, by 2*pi/5 and 4*pi/5."""
    g = np.zeros((4, 4))
    g[:2, :2] = build_family("cyclic_rotation_2d", 5).stack[1]
    g[2:, 2:] = g[:2, :2] @ g[:2, :2]
    return generate_group([g])


# group -> the kind of its cells, by test id
CELL_CASES = {
    **{f"{name}-{param}": (build_family(name, param), kind) for name, param, kind in [
        ("cyclic_rotation_2d", 5, "planar"), ("cyclic_rotation_2d", 2, "planar"),
        ("axis_rotation_3d", 4, "planar"), ("circular_shifts", 3, "planar"),
        ("plus_minus_id", 2, "planar"), ("cyclic_rotation_2d", 1, "reflection"),
        ("dihedral_2d", 4, "reflection"), ("sign_flips", 3, "reflection"),
        ("permutations", 4, "reflection"), ("circular_shifts", 2, "reflection"),
        ("plus_minus_id", 1, "reflection"), ("plus_minus_id", 3, None),
        ("circular_shifts", 4, None)]},
    "turned_axis_rotation_3d-5": (_turned(build_family("axis_rotation_3d", 5), 3), "planar"),
    "turned_permutations-3": (_turned(build_family("permutations", 3), 5), "reflection"),
    "c5_turning_two_planes": (_double_turn(), None),
}


@pytest.mark.parametrize("g,kind", CELL_CASES.values(), ids=CELL_CASES.keys())
def test_cell_classification_reads_the_elements(g, kind):
    got, plane = g._cells
    assert got == kind
    assert FiniteGroup.from_matrices(g.stack)._cells[0] == kind
    assert (plane is not None) == (kind == "planar")
    if plane is not None:
        # an orthonormal basis of the plane G turns: G fixes its orthogonal
        # complement, and only the identity fixes a point of the plane
        assert np.abs(plane.T @ plane - np.eye(2)).max() < 1e-12
        rest = np.eye(g.dim) - plane @ plane.T
        assert np.abs(g.stack @ rest - rest).max() < 1e-12
        assert stabilizer_order(g, plane[:, 0]) == stabilizer_order(g, plane[:, 1]) == 1


@pytest.mark.parametrize("name,param", [(n, p) for n, p, _, _ in FAMILY_CASES])
def test_orbit_stabilizer_product(name, param, rng):
    g = build_family(name, param)
    for _ in range(5):
        x = rng.standard_normal(g.dim)
        orb = orbit_of(g, x)
        assert orb.size * stabilizer_order(g, x) == g.order


def test_orbit_stabilizer_on_fixed_points():
    ax = build_family("axis_rotation_3d", 5)
    on_axis = np.array([0.0, 0.0, 2.0])
    assert orbit_of(ax, on_axis).size == 1
    assert stabilizer_order(ax, on_axis) == 5

    perm = build_family("permutations", 4)
    ones = np.ones(4)
    assert orbit_of(perm, ones).size == 1
    assert stabilizer_order(perm, ones) == 24

    zero = np.zeros(2)
    c5 = build_family("cyclic_rotation_2d", 5)
    assert orbit_of(c5, zero).size == 1
    assert stabilizer_order(c5, zero) == 5


def test_orbit_rep_elements_reproduce_points(c5, rng):
    x = rng.standard_normal(2)
    orb = orbit_of(c5, x)
    rebuilt = np.stack([c5.stack[gi] @ x for gi in orb.rep_elements])
    assert np.allclose(rebuilt, orb.points, atol=1e-12)


def test_apply_all_matches_elementwise(perm3, rng):
    x = rng.standard_normal(3)
    images = perm3.apply_all(x)
    for k in range(perm3.order):
        assert np.allclose(images[k], perm3.stack[k] @ x)


def test_constructor_keeps_a_copy_of_a_square_stack():
    mats = build_family("cyclic_rotation_2d", 4).stack.copy()
    g = FiniteGroup(mats)
    mats[:] = 0.0
    assert (g.order, g.dim) == (4, 2) and g.contains(np.eye(2))
    for bad in (mats[:, :, :1], mats[0], mats[:0]):
        with pytest.raises(ValueError):
            FiniteGroup(bad)


def test_from_matrices_sorts_sign_flips_15_with_one_copy():
    g = build_family("sign_flips", 15)
    # canonical order is lexicographic on the flattened entries, so on
    # diagonal sign matrices it is the product order with -1 first
    want = np.array(list(itertools.product((-1.0, 1.0), repeat=15)))
    assert np.array_equal(g.stack.diagonal(axis1=1, axis2=2), want)
    shuffled = g.stack[np.random.default_rng(3).permutation(g.order)]
    tracemalloc.start()
    try:
        again = FiniteGroup.from_matrices(shuffled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.stack, g.stack)
    # the sorted copy is the group's stack; a second copy would double this
    assert peak < 1.5 * g.stack.nbytes


def test_stack_and_orbit_arrays_are_frozen(c3, rng):
    with pytest.raises(ValueError):
        c3.stack[0, 0, 0] = 5.0
    orb = orbit_of(c3, rng.standard_normal(2))
    with pytest.raises(ValueError):
        orb.points[0, 0] = 5.0


def test_group_json_round_trip(tmp_path):
    g = build_family("dihedral_2d", 3)
    path = tmp_path / "dih3.json"
    save_group(g, path)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 2
    assert len(payload["generators"]) == 6
    assert (payload["family"], payload["param"]) == ("dihedral_2d", 3)
    g2 = load_group(path)
    assert g2.order == g.order
    assert np.abs(g2.stack - g.stack).max() < 1e-12


@pytest.mark.parametrize("name,param,order,dim", FAMILY_CASES)
def test_round_trip_keeps_family_and_stack(tmp_path, name, param, order, dim):
    g = build_family(name, param)
    path = tmp_path / f"{name}.json"
    save_group(g, path)
    g2 = load_group(path)
    assert g2.family == name
    assert np.array_equal(g2.stack, g.stack)


@pytest.mark.parametrize("field,tamper", [
    ("generators", lambda gens: [gens[0], [v + 1e-6 for v in gens[1]], *gens[2:]]),
    ("param", lambda param: param + 1),
])
def test_tampered_tagged_file_raises(tmp_path, field, tamper):
    path = tmp_path / "perm3.json"
    save_group(build_family("permutations", 3), path)
    payload = json.loads(path.read_text())
    payload[field] = tamper(payload[field])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_group(path)


def test_untagged_and_legacy_files_are_closed_again(tmp_path):
    g = generate_group([np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    path = tmp_path / "untagged.json"
    save_group(g, path)
    assert json.loads(path.read_text())["family"] is None
    assert load_group(path).order == 8
    # a file written before the family tag existed: dim and elements only
    legacy = {"dim": 2, "generators": [M.reshape(-1).tolist()
                                       for M in build_family("sign_flips", 2).stack]}
    path.write_text(json.dumps(legacy))
    g2 = load_group(path)
    assert g2.family is None
    assert np.abs(g2.stack - build_family("sign_flips", 2).stack).max() < 1e-12


def test_circular_shift_convention():
    g = build_family("circular_shifts", 4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    images = {tuple(row) for row in g.apply_all(x)}
    # (S x)[i] = x[i-1]: the one-step shift sends (1,2,3,4) to (4,1,2,3)
    assert (4.0, 1.0, 2.0, 3.0) in images
    assert len(images) == 4


@given(st.sampled_from([("cyclic_rotation_2d", 7), ("dihedral_2d", 3),
                        ("sign_flips", 2), ("permutations", 3),
                        ("circular_shifts", 5)]),
       st.integers(0, 2 ** 32 - 1))
def test_group_action_preserves_norms(spec, seed):
    g = build_family(*spec)
    x = np.random.default_rng(seed).standard_normal(g.dim)
    norms = np.linalg.norm(g.apply_all(x), axis=1)
    assert np.abs(norms - np.linalg.norm(x)).max() < 1e-9


@given(st.sampled_from([("cyclic_rotation_2d", 6), ("dihedral_2d", 4),
                        ("permutations", 3)]),
       st.integers(0, 2 ** 32 - 1))
def test_orbit_points_are_distinct(spec, seed):
    g = build_family(*spec)
    x = np.random.default_rng(seed).standard_normal(g.dim)
    orb = orbit_of(g, x)
    if orb.size > 1:
        diffs = orb.points[:, None, :] - orb.points[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        dist[np.diag_indices(orb.size)] = np.inf
        assert dist.min() > 1e-9 * (1 + np.linalg.norm(x))


# ---------------------------------------------------------------------------
# the first-seen dedup against the loops it replaced (tests/oracles.py)


def _pm_representatives(points: np.ndarray) -> np.ndarray:
    """alpha_tilde's call: even rows kept from [p0, -p0, p1, -p1, ...]."""
    signed = np.stack([points, -points], axis=1).reshape(-1, points.shape[1])
    kept = _first_seen(signed, DEFAULT_TOL.eq_tol * (1.0 + np.linalg.norm(signed, axis=1)))
    return signed[kept[kept % 2 == 0]]


def _assert_orbit_matches_loop(g, x):
    orb = orbit_of(g, x)
    points, reps = loop_orbit_of(g, x)
    assert np.array_equal(orb.points, points)
    assert np.array_equal(orb.rep_elements, reps)
    assert np.array_equal(_pm_representatives(orb.points), loop_pm_representatives(orb.points))


@pytest.mark.parametrize("name,param", BACKEND_CASES + [("permutations", 5), ("sign_flips", 5)])
def test_orbits_match_the_loop_on_every_family(name, param):
    g = build_family(name, param)
    rng = np.random.default_rng(param)
    points = list(degenerate_points(g, rng))     # zero, all-ones, ties, mirrors
    if name == "axis_rotation_3d":
        points += [np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, -1.0])]   # the e3 axis
    points += list(rng.standard_normal((6, g.dim)) * rng.choice([1e-8, 1.0, 1e4], (6, 1)))
    for x in points:
        _assert_orbit_matches_loop(g, x)


# ---------------------------------------------------------------------------
# the batched orbits against one point at a time (tests/oracles.py)

# every family at two parameters, and an untagged copy
ORBIT_PARAMS = {"cyclic_rotation_2d": (3, 7), "axis_rotation_3d": (4, 5), "dihedral_2d": (1, 4),
                "sign_flips": (2, 5), "permutations": (3, 4), "plus_minus_id": (2, 4),
                "circular_shifts": (3, 6)}
ORBIT_GROUPS = {f"{name}-{p}": (lambda name=name, p=p: build_family(name, p))
                for name, params in ORBIT_PARAMS.items() for p in params}
ORBIT_GROUPS["untagged_s3"] = lambda: generate_group(build_family("permutations", 3).stack)


def _failing_points(g, rng) -> np.ndarray:
    """Rows whose images are not all apart: zero, all-ones (fixed by every
    permutation), e3 (the axis of axis_rotation_3d), the degenerate rows
    of the backend tests, and Gaussian rows projected onto a mirror."""
    stack = g.stack
    mirrors = stack[(np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) <= 1e-12)
                    & np.isclose(np.trace(stack, axis1=1, axis2=2), g.dim - 2)]
    return np.stack([np.zeros(g.dim), np.ones(g.dim), np.eye(g.dim)[-1],
                     *degenerate_points(g, rng),
                     *[(x + r @ x) / 2 for r in mirrors[:3]
                       for x in rng.standard_normal((2, g.dim))]])


def _assert_orbits_match_referee(g, X):
    orbits = groups._orbits(g, X)
    assert len(orbits) == len(X)
    for orb, x in zip(orbits, X):
        points, reps = apply_all_orbit_of(g, x)
        assert orb.points.shape == points.shape and orb.points.tobytes() == points.tobytes()
        assert orb.rep_elements.dtype == reps.dtype
        assert np.array_equal(orb.rep_elements, reps)
    return orbits


@pytest.mark.parametrize("make", ORBIT_GROUPS.values(), ids=ORBIT_GROUPS.keys())
def test_batched_orbits_equal_one_point_at_a_time(make):
    assert set(ORBIT_PARAMS) == set(FAMILIES)
    g = make()
    rng = np.random.default_rng(g.order * 31 + g.dim)
    gauss = rng.standard_normal((16, g.dim))
    for X in (gauss, gauss[:1], gauss[:0]):
        _assert_orbits_match_referee(g, X)
    failing = _failing_points(g, rng)
    mixed = np.concatenate([failing, gauss])[rng.permutation(len(failing) + len(gauss))]
    sizes = [orb.size for orb in _assert_orbits_match_referee(g, mixed)]
    # the mixed batch holds points that fail the all-distinct test and points that pass it
    assert g.order in sizes
    if g.order > 1:
        assert min(sizes) < g.order
    for x in mixed[:4]:
        orb = orbit_of(g, x)
        assert orb.points.tobytes() == apply_all_orbit_of(g, x)[0].tobytes()


@pytest.mark.parametrize("name,param", [("sign_flips", 3), ("permutations", 4),
                                        ("cyclic_rotation_2d", 7), ("axis_rotation_3d", 4)])
def test_sliced_orbits_equal_one_point_at_a_time(monkeypatch, name, param):
    # with _BLOCK small, the images come in slices of one point, of three
    # points, or of one point where _BLOCK holds less than its images
    g = build_family(name, param)
    rng = np.random.default_rng(param)
    X = np.concatenate([_failing_points(g, rng), rng.standard_normal((7, g.dim))])
    products = []
    real = np.matmul

    def counted(*args, **kwargs):
        products.append(args[1].shape[0])
        return real(*args, **kwargs)

    for block, per_slice in ((g.order * g.dim, 1), (3 * g.order * g.dim, 3), (1, 1)):
        monkeypatch.setattr(groups, "_BLOCK", block)
        monkeypatch.setattr(groups.np, "matmul", counted)
        products.clear()
        _assert_orbits_match_referee(g, X)
        monkeypatch.setattr(groups.np, "matmul", real)
        assert products == [min(per_slice, len(X) - lo) for lo in range(0, len(X), per_slice)]


def _window_direction(k: int, ord) -> np.ndarray:
    """A unit step along which the projection gap is largest for its
    length in the norm ``ord``: the far edge of the candidate window."""
    u = groups._projection(k)
    return u / np.linalg.norm(u) if ord == 2 else np.sign(u)


# steps, in units of the threshold, just inside and just outside it, at the
# window's edge and past it; 0.6 then 1.2 is a chain the greedy rule splits
EDGE_STEPS = [0.999, 1.001, 0.5, 2.0, 0.6, 1.2, 1.0 - 1e-6, 1.0 + 1e-6, 0.0, -0.999, -1.001]


def test_matrix_dedup_across_the_window_edge():
    t = DEFAULT_TOL.eq_tol
    v = _window_direction(4, np.inf)
    a = np.array([0.3, -1.2, 2.0, 0.7])
    rows = np.stack([a] + [a + s * t * v for s in EDGE_STEPS]
                    + [a + s * t * np.roll(v, 1) for s in EDGE_STEPS])
    pairs = [np.stack([a, a + s * t * v]) for s in EDGE_STEPS]
    for stack in pairs + [rows, rows[np.random.default_rng(1).permutation(len(rows))]]:
        kept = _first_seen(stack, t, np.inf)
        assert np.array_equal(stack[kept].reshape(-1, 2, 2),
                              loop_dedup_stack(stack.reshape(-1, 2, 2), t))


def test_orbits_across_the_window_edge():
    # an untagged "group" whose images of x sit just inside and just
    # outside eq_tol*(1+|x|) of x and of each other, along the window edge
    x = np.array([1.0, -0.5, 0.25])
    t = DEFAULT_TOL.eq_tol * (1.0 + np.linalg.norm(x))
    v = _window_direction(3, 2)
    mats = np.stack([np.eye(3)] + [np.eye(3) + np.outer(s * t * w, x) / (x @ x)
                                   for w in (v, np.roll(v, 1)) for s in EDGE_STEPS])
    pairs = [mats[[0, k]] for k in range(1, len(mats))]
    for stack in pairs + [mats, mats[np.random.default_rng(2).permutation(len(mats))]]:
        g = FiniteGroup(stack)
        _assert_orbit_matches_loop(g, x)
        _assert_orbit_matches_loop(g, -x)


def test_pm_representatives_across_the_sign_threshold():
    v = _window_direction(3, 2)
    p = np.array([0.4, 1.1, -0.8])
    t = DEFAULT_TOL.eq_tol * (1.0 + np.linalg.norm(p))
    for s in (0.999, 1.001, 0.5, 2.0):
        points = np.stack([p, -p + s * t * v, 2.0 * p, -p - 3 * t * v])
        assert np.array_equal(_pm_representatives(points), loop_pm_representatives(points))


def _two_generators(n: int):
    swap = np.eye(n)[[1, 0] + list(range(2, n))]
    cycle = np.zeros((n, n))
    cycle[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return [swap, cycle]


@pytest.mark.parametrize("gens", [
    _two_generators(4), _two_generators(5), _two_generators(6),
    # repeated, identity and exactly duplicated generators
    [_two_generators(4)[1], np.eye(4), _two_generators(4)[1], _two_generators(4)[0]],
    list(build_family("dihedral_2d", 5).stack),
    list(build_family("sign_flips", 3).stack[::-1]),
    list(build_family("axis_rotation_3d", 6).stack[1:3]),
])
def test_closure_matches_the_loop(gens):
    new = generate_group(gens)
    old = FiniteGroup.from_matrices(loop_closure(gens))
    assert np.array_equal(new.stack, old.stack)


def test_generator_dedup_matches_the_loop(rng):
    base = build_family("dihedral_2d", 4).stack
    stack = np.concatenate([base, base[::-1] + 1e-10, base + 2e-9, base[:3]])
    stack = stack[rng.permutation(len(stack))]
    kept = _first_seen(stack.reshape(len(stack), -1), DEFAULT_TOL.eq_tol, np.inf)
    assert np.array_equal(stack[kept], loop_dedup_stack(stack, DEFAULT_TOL.eq_tol))


def test_permutations_7_orbits_and_closure():
    # 5040 elements: the parent's loops took about 50 s here
    g = build_family("permutations", 7)
    x = np.array([1.0, 1.0, 2.0, 3.5, -4.0, 5.0, 0.5])
    assert orbit_of(g, x).size * stabilizer_order(g, x) == 5040
    assert orbit_of(g, np.random.default_rng(7).standard_normal(7)).size == 5040
    closed = generate_group(_two_generators(7))
    assert closed.order == 5040
    assert np.array_equal(closed.stack, g.stack)


@pytest.mark.parametrize("name,param", [("sign_flips", 8), ("permutations", 4)])
def test_sliced_closure_is_the_family_stack(monkeypatch, name, param):
    # with _BLOCK small, each BFS level goes through the dedup in several
    # slices of frontier rows, and the closure is the same stack, bit for bit
    g = build_family(name, param)
    gens = (_two_generators(param) if name == "permutations"
            else [np.diag(np.where(np.arange(param) == i, -1.0, 1.0)) for i in range(param)])
    for block in (1, 3 * len(gens) * param * param):
        monkeypatch.setattr(groups, "_BLOCK", block)
        closed = generate_group(gens)
        assert closed.stack.tobytes() == g.stack.tobytes()
