"""Positive-semidefiniteness audits for the max-filter kernel.

The similarity K(x, y) = max_g <g x, y> defines a kernel on orbit space.
This module builds Gram matrices of that kernel on finite point sets,
checks them for negative eigenvalues, and searches for certificates that
the kernel fails to be positive semidefinite.  For reflection groups
no such certificate exists; for every other group a random search finds
one quickly at small dimension.  ``groups.is_reflection_group`` decides
which case a group is in, exactly, from its element stack.

The Gram matrix comes from the family-keyed filter backend in
``filtering``.  For a reflection family it is pi(P) pi(P)^T, with pi the
projection onto the closed fundamental chamber (sort, absolute value or
angle fold), so it is a plain Gram matrix of feature vectors and
positive semidefinite by construction; only float noise can give it a
negative eigenvalue.  ``direct_quadratic_form`` re-evaluates entries on
the dense element stack instead, independent of that backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import _filter_values, max_filter
from .groups import FiniteGroup
from .streams import STREAMS
from .tolerances import DEFAULT_TOL

_POINTS_PER_TRIAL = 6   # search_psd_violation: the points, so the Gram size, of one trial


@dataclass(frozen=True)
class GramAudit:
    """Eigenvalue audit of a max-filter Gram matrix.

    ``coeffs`` is the unit eigenvector attaining ``min_eig``; when the
    verdict is "not_psd" it certifies sum_ij c_i c_j K(x_i, x_j) < 0.
    """

    points: np.ndarray
    gram: np.ndarray
    min_eig: float
    verdict: str
    coeffs: np.ndarray


def gram_matrix(group: FiniteGroup, points: np.ndarray) -> np.ndarray:
    """Pairwise max-filter similarities, symmetrized.

    Entry (i, j) is max_g <g x_i, x_j>.  The max filter is symmetric in
    its arguments, so averaging with the transpose only removes float
    noise from the two evaluation orders.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError("points must be a 2d array (k, dim)")
    if X.shape[1] != group.dim:
        raise ValueError(
            f"points have dim {X.shape[1]}, group acts on dim {group.dim}")
    gram = _filter_values(group, X, X, paired=False)
    return 0.5 * (gram + gram.T)


def gram_audit(group: FiniteGroup, points: np.ndarray) -> GramAudit:
    """Audit the max-filter Gram matrix of a point set.

    Verdict is "not_psd" exactly when the smallest eigenvalue drops below
    -psd_tol * (1 + max diagonal entry); otherwise "psd".  Accepts any
    point set with at least one row (a single point always audits psd).
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need at least one point")
    gram = gram_matrix(group, X)
    eigvals, eigvecs = np.linalg.eigh(gram)
    min_eig = float(eigvals[0])
    scale = 1.0 + float(np.max(np.diag(gram)))
    verdict = "not_psd" if min_eig < -DEFAULT_TOL.psd_tol * scale else "psd"
    return GramAudit(points=X.copy(), gram=gram, min_eig=min_eig,
                     verdict=verdict, coeffs=eigvecs[:, 0].copy())


def direct_quadratic_form(
    group: FiniteGroup,
    points: np.ndarray,
    coeffs: np.ndarray,
) -> float:
    """sum_ij c_i c_j K(x_i, x_j) evaluated entry by entry.

    Independent of the batched Gram construction: each kernel value goes
    through the scalar max_filter on the matrix path.  Used to re-verify
    negativity certificates.
    """
    X = np.asarray(points, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if X.shape[0] != c.shape[0]:
        raise ValueError("one coefficient per point required")
    total = 0.0
    for i in range(X.shape[0]):
        for j in range(X.shape[0]):
            total += c[i] * c[j] * max_filter(group, X[i], X[j], allow_fft=False)
    return total


@dataclass(frozen=True)
class PsdSearchResult:
    """Outcome of a random search for a non-psd Gram matrix."""

    found: bool
    certificate: GramAudit | None
    trials_run: int
    seed: int


def search_psd_violation(
    group: FiniteGroup,
    n_trials: int,
    seed: int,
) -> PsdSearchResult:
    """Search Gaussian point sets for a Gram matrix with a negative eigenvalue.

    Trial t draws _POINTS_PER_TRIAL points from default_rng((seed, tag,
    t)), so results are reproducible and prefix-stable in n_trials.
    Stops at the first certificate.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    for trial in range(n_trials):
        rng = np.random.default_rng((seed, STREAMS["psd_search"], trial))
        X = rng.standard_normal((_POINTS_PER_TRIAL, group.dim))
        audit = gram_audit(group, X)
        if audit.verdict == "not_psd":
            return PsdSearchResult(found=True, certificate=audit,
                                   trials_run=trial + 1, seed=seed)
    return PsdSearchResult(found=False, certificate=None,
                           trials_run=n_trials, seed=seed)
