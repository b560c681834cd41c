import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxfilter_lab import (FAMILIES, MaxFilterBank, build_family, cli, direct_quadratic_form,
                           generate_group, gram_audit, gram_matrix, groups,
                           is_reflection_group, max_filter, optimality_witness, proven_chi,
                           search_psd_violation, voronoi_characteristic)
from maxfilter_lab.reporting import sanitize
from oracles import BACKEND_CASES, brute_max_filter, degenerate_points


def test_gram_matrix_entries_and_symmetry(c5, rng):
    X = rng.standard_normal((6, 2))
    G = gram_matrix(c5, X)
    assert G.shape == (6, 6)
    assert np.abs(G - G.T).max() == 0.0
    for i in range(6):
        for j in range(6):
            ref = brute_max_filter(c5.stack, X[i], X[j])
            assert abs(G[i, j] - ref) < 1e-10


def test_gram_diagonal_is_squared_norm(perm3, rng):
    X = rng.standard_normal((4, 3))
    G = gram_matrix(perm3, X)
    assert np.allclose(np.diag(G), (X ** 2).sum(axis=1), atol=1e-12)


def test_direct_quadratic_form_matches_eig(c5, rng):
    X = rng.standard_normal((5, 2))
    audit = gram_audit(c5, X)
    v = np.linalg.eigh(audit.gram)[1][:, 0]
    q = direct_quadratic_form(c5, X, v)
    assert abs(q - audit.min_eig) < 1e-9
    assert abs(q - v @ audit.gram @ v) < 1e-9


def test_gram_audit_verdicts(sf2, c5, rng):
    # reflection groups keep the form nonnegative
    X = rng.standard_normal((6, 2))
    audit = gram_audit(sf2, X)
    assert audit.verdict == "psd"
    assert audit.min_eig >= -1e-10
    # a rotation group admits certificates for suitable point sets
    found = search_psd_violation(c5, n_trials=50, seed=0)
    assert found.found
    cert = found.certificate
    assert cert.verdict == "not_psd"
    assert cert.min_eig < 0
    # the stored coefficient vector reproduces the negative value directly
    q = direct_quadratic_form(c5, cert.points, cert.coeffs)
    assert q < -1e-8
    assert abs(q - cert.min_eig) < 1e-8


def test_gram_audit_single_point_is_psd(c5):
    audit = gram_audit(c5, np.array([[3.0, 4.0]]))
    assert audit.verdict == "psd"
    assert abs(audit.min_eig - 25.0) < 1e-12


def test_gram_audit_rejects_empty(c5):
    with pytest.raises(ValueError):
        gram_audit(c5, np.empty((0, 2)))


def test_gram_dim_mismatch(c5):
    with pytest.raises(ValueError):
        gram_matrix(c5, np.ones((3, 5)))


def test_search_determinism_and_prefix(c5):
    a = search_psd_violation(c5, n_trials=40, seed=7)
    b = search_psd_violation(c5, n_trials=40, seed=7)
    assert a.trials_run == b.trials_run
    assert np.array_equal(a.certificate.points, b.certificate.points)
    # per-trial seeding: a longer budget replays the same early trials
    c = search_psd_violation(c5, n_trials=80, seed=7)
    assert c.trials_run == a.trials_run
    assert np.array_equal(c.certificate.points, a.certificate.points)


def test_search_no_violation_for_reflections(sf2):
    res = search_psd_violation(sf2, n_trials=60, seed=3)
    assert not res.found
    assert res.certificate is None
    assert res.trials_run == 60


_PLANAR = ("cyclic_rotation_2d", "axis_rotation_3d", "dihedral_2d")
_REFLECTION_FAMILIES = ("permutations", "sign_flips", "dihedral_2d")
# untagged groups closed from generators: S3 from two transpositions, and
# an order-4 group whose one reflection generates only half of it
_GENERATED = {
    "s3_transpositions": ([np.eye(3)[[1, 0, 2]], np.eye(3)[[0, 2, 1]]], True),
    "one_reflection_order4": ([np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, -1.0])], False),
}


def _reflection_cases():
    # a family at a parameter is a reflection group when it is one of the
    # three reflection families, or at param 1 (trivial, or {1, -1} on the
    # line for plus_minus_id), or circular_shifts(2), the swap of two coordinates
    for name in FAMILIES:
        for param in range(1, 7 if name in _PLANAR else 5):
            expect = (name in _REFLECTION_FAMILIES or param == 1
                      or (name, param) == ("circular_shifts", 2))
            yield name, param, expect
    for name, (_, expect) in _GENERATED.items():
        yield name, None, expect


@pytest.mark.parametrize("name,param,expect", list(_reflection_cases()))
def test_reflection_classification(name, param, expect):
    g = generate_group(_GENERATED[name][0]) if name in _GENERATED else build_family(name, param)
    assert is_reflection_group(g) is expect
    # referee: a reflection group has chi = 1, so every sampled S-set has
    # one cell; each non-reflection case here shows a larger one
    est = voronoi_characteristic(g, 200, seed=11)
    assert bool((est.sizes == 1).all()) is expect


def test_trivial_group_is_reflection_case(trivial2, rng):
    # generated by no reflection; the quadratic form is a plain Gram matrix
    assert is_reflection_group(trivial2)
    X = rng.standard_normal((5, 2))
    assert gram_audit(trivial2, X).verdict == "psd"


def test_one_reflection_closure_per_group(tmp_path, monkeypatch, rng):
    # proven_chi, optimality_witness and a bounds run, which proves chi
    # twice, all ask; the group keeps its verdict after the first closure
    closures = []
    real = groups.generate_group

    def counting(gens):
        closures.append(len(gens))
        return real(gens)

    g = build_family("permutations", 4)
    monkeypatch.setattr(groups, "generate_group", counting)
    assert proven_chi(g) == (1, "reflection_group")
    assert optimality_witness(MaxFilterBank(g, rng.standard_normal((5, 4)))).case == "reflection"
    assert is_reflection_group(g)
    assert len(closures) == 1
    closures.clear()
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"group_spec": {"family": "permutations", "param": 3},
                               "templates": {"sampler": "gaussian", "n": 4},
                               "n_pairs": 20, "seed": 1}))
    assert cli.run("bounds", str(cfg), out=str(tmp_path / "out")) == 0
    assert len(closures) == 1


def test_audit_sanitize_round_trip(c5, rng):
    X = rng.standard_normal((4, 2))
    audit = gram_audit(c5, X)
    d = json.loads(json.dumps(sanitize(audit)))
    assert set(d) == {"points", "gram", "min_eig", "verdict", "coeffs"}
    assert isinstance(d["min_eig"], float)
    for name in ("points", "gram", "coeffs"):
        assert np.array_equal(np.array(d[name]), getattr(audit, name))


def test_max_filter_consistency_with_gram(dih4, rng):
    X = rng.standard_normal((3, 2))
    G = gram_matrix(dih4, X)
    for i in range(3):
        for j in range(3):
            assert abs(G[i, j] - max_filter(dih4, X[i], X[j])) < 1e-12


@pytest.mark.parametrize("name,param", BACKEND_CASES)
def test_backend_gram_matches_dense_and_brute(name, param, rng):
    g = build_family(name, param)
    P = degenerate_points(g, rng)
    G = gram_matrix(g, P)
    assert G.shape == (len(P), len(P))
    assert np.abs(G - G.T).max() == 0.0
    for i in range(len(P)):
        for j in range(len(P)):
            assert abs(G[i, j] - max_filter(g, P[i], P[j], allow_fft=False)) < 1e-10
            assert abs(G[i, j] - brute_max_filter(g.stack, P[i], P[j])) < 1e-10


@pytest.mark.parametrize("name,param", [c for c in BACKEND_CASES
                                        if c[0] in ("permutations", "sign_flips", "dihedral_2d")])
def test_reflection_gram_is_psd_by_construction(name, param, rng):
    # a chamber-projected Gram matrix is pi(P) pi(P)^T: no eigenvalue below float noise
    g = build_family(name, param)
    P = np.concatenate([degenerate_points(g, rng), rng.standard_normal((20, g.dim))])
    G = gram_matrix(g, P)
    assert np.linalg.eigvalsh(G)[0] >= -1e-12 * (1.0 + np.diag(G).max())


@given(st.sampled_from(BACKEND_CASES), st.integers(0, 2 ** 32 - 1))
def test_backend_gram_property(spec, seed):
    g = build_family(*spec)
    P = np.random.default_rng(seed).standard_normal((6, g.dim))
    G = gram_matrix(g, P)
    for i in range(6):
        for j in range(6):
            assert abs(G[i, j] - max_filter(g, P[i], P[j], allow_fft=False)) < 1e-10
