import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxfilter_lab import (FAMILIES, FiniteGroup, LengthMismatch,
                           MaxFilterBank, NegativeRadicand, apply_bank,
                           apply_bank_batch, build_family, load_templates,
                           max_filter, max_filter_circular_brute,
                           max_filter_circular_fft, max_filter_pairs,
                           quotient_distance, save_templates)
from maxfilter_lab import empirical_lipschitz, filtering
from oracles import (BACKEND_CASES, brute_circular_max, brute_max_filter,
                     brute_orbit_min_distance, degenerate_points, roll_circular_max)

GROUPS = [("cyclic_rotation_2d", 5), ("dihedral_2d", 3), ("sign_flips", 3),
          ("permutations", 3), ("plus_minus_id", 2), ("circular_shifts", 6)]


@pytest.mark.parametrize("name,param", GROUPS)
def test_max_filter_matches_loop_oracle(name, param, rng):
    g = build_family(name, param)
    for _ in range(20):
        x, y = rng.standard_normal((2, g.dim))
        val = max_filter(g, x, y)
        assert type(val) is float
        assert abs(val - brute_max_filter(g.stack, x, y)) < 1e-10


@pytest.mark.parametrize("name,param", GROUPS)
def test_max_filter_dominates_plain_inner_product(name, param, rng):
    g = build_family(name, param)
    for _ in range(20):
        x, y = rng.standard_normal((2, g.dim))
        assert max_filter(g, x, y) >= float(x @ y) - 1e-10


@pytest.mark.parametrize("name,param", GROUPS)
def test_max_filter_symmetry_and_invariance(name, param, rng):
    g = build_family(name, param)
    for _ in range(10):
        x, y = rng.standard_normal((2, g.dim))
        v = max_filter(g, x, y)
        assert abs(v - max_filter(g, y, x)) < 1e-10
        for gi in rng.integers(0, g.order, size=3):
            assert abs(v - max_filter(g, g.stack[gi] @ x, y)) < 1e-10
            assert abs(v - max_filter(g, x, g.stack[gi] @ y)) < 1e-10


@pytest.mark.parametrize("name,param", GROUPS)
def test_quotient_distance_matches_orbit_minimum(name, param, rng):
    g = build_family(name, param)
    for _ in range(25):
        x, y = rng.standard_normal((2, g.dim))
        d1 = quotient_distance(g, x, y)
        d2 = brute_orbit_min_distance(g.stack, x, y)
        assert abs(d1 - d2) < 1e-10


def test_quotient_distance_vanishes_on_orbits(c5, rng):
    x = rng.standard_normal(2)
    for M in c5.stack:
        assert quotient_distance(c5, x, M @ x) < 1e-7


def test_negative_radicand_on_corrupted_group():
    # a non-orthogonal "element" breaks the polarization identity: at
    # x = (1, 0.5) the radicand is 2|x|^2 - 4|x|^2 = -2.5
    bogus = FiniteGroup.from_matrices(np.stack([np.eye(2), 2.0 * np.eye(2)]))
    x = np.array([1.0, 0.5])
    with pytest.raises(NegativeRadicand):
        quotient_distance(bogus, x, x)
    # the batched path and the sampler built on it check the same radicand
    with pytest.raises(NegativeRadicand):
        filtering._pair_distances(bogus, np.stack([x, -x]), np.stack([x, -x]))
    with pytest.raises(NegativeRadicand):
        empirical_lipschitz(MaxFilterBank(bogus, np.eye(2)), n_pairs=100, seed=0)


def test_apply_bank_matches_scalar_filters(perm3, rng):
    Z = rng.standard_normal((4, 3))
    bank = MaxFilterBank(perm3, Z)
    x = rng.standard_normal(3)
    img = apply_bank(bank, x)
    for i in range(4):
        assert abs(img[i] - max_filter(perm3, Z[i], x)) < 1e-10


def test_apply_bank_batch_rows_match_single(sf2, rng):
    bank = MaxFilterBank(sf2, rng.standard_normal((3, 2)))
    X = rng.standard_normal((17, 2))
    batch = apply_bank_batch(bank, X)
    assert batch.shape == (17, 3)
    for k in range(17):
        assert np.allclose(batch[k], apply_bank(bank, X[k]), atol=1e-12)


def test_max_filter_pairs_matches_loop(c5, rng):
    X = rng.standard_normal((11, 2))
    Y = rng.standard_normal((11, 2))
    vals = max_filter_pairs(c5, X, Y)
    for k in range(11):
        assert abs(vals[k] - max_filter(c5, X[k], Y[k])) < 1e-10


def test_bank_shape_validation(c3):
    with pytest.raises(ValueError):
        MaxFilterBank(c3, np.zeros((2, 3)))       # wrong dim
    with pytest.raises(ValueError):
        MaxFilterBank(c3, np.zeros(2))            # not 2-D
    with pytest.raises(ValueError):
        MaxFilterBank(c3, np.zeros((0, 2)))       # empty
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            MaxFilterBank(c3, np.array([[bad, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_bank_copies_and_freezes_templates():
    Z = np.ones((2, 2))
    bank = MaxFilterBank(build_family("cyclic_rotation_2d", 3), Z)
    assert Z.flags.writeable
    assert bank.templates is not Z
    assert not bank.templates.flags.writeable
    Z[0, 0] = 5.0               # refilling the caller's buffer leaves the bank alone
    assert bank.templates[0, 0] == 1.0


def test_fft_path_used_only_for_circular_family(rng):
    shifts = build_family("circular_shifts", 8)
    f, g = rng.standard_normal((2, 8))
    via_fft = max_filter(shifts, f, g)
    via_matrix = max_filter(shifts, f, g, allow_fft=False)
    assert abs(via_fft - via_matrix) < 1e-10
    assert abs(via_fft - max_filter_circular_fft(f, g)) == 0.0


@pytest.mark.parametrize("d", [1, 2, 4, 16, 64])
def test_fft_equals_brute_and_pure_loop(d, rng):
    for _ in range(10):
        f, g = rng.standard_normal((2, d))
        fft_v = max_filter_circular_fft(f, g)
        brute_v = max_filter_circular_brute(f, g)
        assert type(fft_v) is float and type(brute_v) is float
        assert abs(fft_v - brute_v) < 1e-9
        assert abs(brute_v - brute_circular_max(f, g)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16, 64, 256])
def test_brute_has_the_bits_of_the_roll_loop(d, rng):
    signs = rng.integers(0, 2, (2, d)).astype(bool)
    signals = [rng.standard_normal((2, d)), np.zeros((2, d)),
               np.where(signs, 0.0, -0.0)]
    for f, g in signals:
        brute_v = max_filter_circular_brute(f, g)
        roll_v = roll_circular_max(f, g)
        assert brute_v == roll_v
        assert math.copysign(1.0, brute_v) == math.copysign(1.0, roll_v)


def test_circular_bank_batch_matches_brute(rng):
    shifts = build_family("circular_shifts", 12)
    Z = rng.standard_normal((5, 12))
    bank = MaxFilterBank(shifts, Z)
    X = rng.standard_normal((7, 12))
    batch = apply_bank_batch(bank, X)
    for b in range(7):
        for i in range(5):
            assert abs(batch[b, i] - max_filter_circular_brute(Z[i], X[b])) < 1e-9


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        max_filter_circular_fft(np.ones(4), np.ones(5))
    with pytest.raises(LengthMismatch):
        max_filter_circular_brute(np.ones(3), np.ones(2))


def test_empty_signals_rejected():
    for fn in (max_filter_circular_fft, max_filter_circular_brute):
        with pytest.raises(ValueError, match="nonempty"):
            fn([], [])


def test_trivial_group_bank_is_linear(trivial2, rng):
    Z = rng.standard_normal((4, 2))
    bank = MaxFilterBank(trivial2, Z)
    x = rng.standard_normal(2)
    assert np.allclose(apply_bank(bank, x), Z @ x, atol=1e-12)


def test_template_csv_round_trip(tmp_path, rng):
    Z = rng.standard_normal((5, 3))
    path = tmp_path / "z.csv"
    save_templates(Z, path)
    back = load_templates(path)
    assert back.shape == (5, 3)
    assert np.array_equal(back, Z)          # %.17g round-trips doubles
    save_templates(Z[:1], path)
    assert load_templates(path).shape == (1, 3)


@given(st.sampled_from(GROUPS), st.integers(0, 2 ** 32 - 1),
       st.floats(0.1, 10.0))
def test_quotient_distance_triangle_inequality(spec, seed, scale):
    g = build_family(*spec)
    r = np.random.default_rng(seed)
    x, y, z = scale * r.standard_normal((3, g.dim))
    dxz = quotient_distance(g, x, z)
    dxy = quotient_distance(g, x, y)
    dyz = quotient_distance(g, y, z)
    assert dxz <= dxy + dyz + 1e-9


@given(st.sampled_from(GROUPS), st.integers(0, 2 ** 32 - 1))
def test_quotient_distance_symmetry_property(spec, seed):
    g = build_family(*spec)
    r = np.random.default_rng(seed)
    x, y = r.standard_normal((2, g.dim))
    assert abs(quotient_distance(g, x, y) - quotient_distance(g, y, x)) < 1e-10


@given(st.integers(1, 32), st.integers(0, 2 ** 32 - 1))
def test_fft_brute_agreement_property(d, seed):
    r = np.random.default_rng(seed)
    f, g = r.standard_normal((2, d))
    assert abs(max_filter_circular_fft(f, g)
               - max_filter_circular_brute(f, g)) < 1e-9


# ---------------------------------------------------------------------------
# the family-keyed backend against the dense stack and the loop oracle


def _dense(g, x, y):
    return max_filter(g, x, y, allow_fft=False)


def test_backend_cases_cover_every_family():
    assert {name for name, _ in BACKEND_CASES} == set(FAMILIES)


@pytest.mark.parametrize("name,param", BACKEND_CASES)
def test_backend_scalar_matches_dense_and_brute(name, param, rng):
    g = build_family(name, param)
    P = degenerate_points(g, rng)
    for x in P:
        for y in P:
            val = max_filter(g, x, y)
            assert type(val) is float
            assert abs(val - _dense(g, x, y)) < 1e-10
            assert abs(val - brute_max_filter(g.stack, x, y)) < 1e-10


@pytest.mark.parametrize("name,param", BACKEND_CASES)
def test_backend_pairs_match_dense_and_brute(name, param, rng):
    g = build_family(name, param)
    P = degenerate_points(g, rng)
    X, Y = np.repeat(P, len(P), axis=0), np.tile(P, (len(P), 1))
    vals = max_filter_pairs(g, X, Y)
    assert vals.shape == (len(X),)
    for k in range(len(X)):
        assert abs(vals[k] - _dense(g, X[k], Y[k])) < 1e-10
        assert abs(vals[k] - brute_max_filter(g.stack, X[k], Y[k])) < 1e-10


@pytest.mark.parametrize("name,param", BACKEND_CASES)
def test_backend_bank_matches_dense_and_brute(name, param, rng):
    g = build_family(name, param)
    P = degenerate_points(g, rng)
    bank = MaxFilterBank(g, P)
    X = np.concatenate([P, rng.standard_normal((3, g.dim))])
    img = apply_bank_batch(bank, X)
    assert img.shape == (len(X), len(P))
    for b in range(len(X)):
        for i in range(len(P)):
            assert abs(img[b, i] - _dense(g, P[i], X[b])) < 1e-10
            assert abs(img[b, i] - brute_max_filter(g.stack, P[i], X[b])) < 1e-10


@pytest.mark.parametrize("name,param", BACKEND_CASES)
def test_pairs_reject_batches_off_the_group_dimension(name, param):
    g = build_family(name, param)
    for width in (g.dim - 1, g.dim + 1):
        with pytest.raises(ValueError):
            max_filter_pairs(g, np.ones((4, width)), np.ones((4, width)))
    with pytest.raises(ValueError):
        max_filter_pairs(g, np.ones((4, g.dim)), np.ones((3, g.dim)))


def test_backend_blocks_long_batches(rng):
    # batches longer than one block of intermediates are split by rows
    for g in (build_family("circular_shifts", 8), build_family("cyclic_rotation_2d", 7)):
        Z = rng.standard_normal((300, g.dim))
        X = rng.standard_normal((600, g.dim))
        img = apply_bank_batch(MaxFilterBank(g, Z), X)
        for b in (0, 299, 599):
            for i in (0, 150, 299):
                assert abs(img[b, i] - _dense(g, Z[i], X[b])) < 1e-10
    # at MAX_DIM a block holds 15 paired rows, so 40 rows take three blocks
    g = build_family("plus_minus_id", 256)
    X, Y = rng.standard_normal((2, 40, 256))
    vals = max_filter_pairs(g, X, Y)
    assert np.allclose(vals, np.abs((X * Y).sum(axis=1)), rtol=1e-12, atol=1e-10)


@given(st.sampled_from(BACKEND_CASES), st.integers(0, 2 ** 32 - 1))
def test_backend_matches_dense_property(spec, seed):
    g = build_family(*spec)
    r = np.random.default_rng(seed)
    X, Y = r.standard_normal((2, 5, g.dim))
    Z = r.standard_normal((3, g.dim))
    pairs = max_filter_pairs(g, X, Y)
    img = apply_bank_batch(MaxFilterBank(g, Z), X)
    for b in range(5):
        assert abs(pairs[b] - _dense(g, X[b], Y[b])) < 1e-10
        assert abs(max_filter(g, X[b], Y[b]) - pairs[b]) < 1e-10
        for i in range(3):
            assert abs(img[b, i] - _dense(g, Z[i], X[b])) < 1e-10
