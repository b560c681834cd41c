"""Max filtering and the induced quotient metric.

The filter value of two orbits is max_g <g.x, y>; the quotient distance
follows by polarization:  d([x],[y])^2 = |x|^2 + |y|^2 - 2 max_g <g.x, y>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, NegativeRadicand
from .groups import _BLOCK, FiniteGroup, Orbit, _orbits
from .tolerances import DEFAULT_TOL

__all__ = [
    "MaxFilterBank",
    "max_filter",
    "quotient_distance",
    "apply_bank",
    "apply_bank_batch",
    "max_filter_pairs",
    "max_filter_circular_fft",
    "max_filter_circular_brute",
    "save_templates",
    "load_templates",
]


@dataclass(frozen=True)
class MaxFilterBank:
    """Templates z_1..z_n (rows) filtered against a common group."""

    group: FiniteGroup
    templates: np.ndarray

    def __post_init__(self):
        Z = np.array(self.templates, dtype=float)     # a copy, frozen below
        if Z.ndim != 2:
            raise ValueError(f"templates must be 2-D (n, d), got shape {Z.shape}")
        if Z.shape[0] < 1:
            raise ValueError("need at least one template")
        if Z.shape[1] != self.group.dim:
            raise ValueError(
                f"template dimension {Z.shape[1]} != group dimension {self.group.dim}")
        if not np.isfinite(Z).all():
            raise ValueError("template entries must be finite")
        Z.setflags(write=False)
        object.__setattr__(self, "templates", Z)

    @property
    def n_templates(self) -> int:
        return self.templates.shape[0]

    @property
    def dim(self) -> int:
        return self.group.dim

    @cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        """Template orbits, as ``orbit_of(group, z)`` keeps them, built once
        per bank by one ``_orbits`` call."""
        return tuple(_orbits(self.group, self.templates))


def max_filter(group: FiniteGroup, x, y, allow_fft: bool = True) -> float:
    """max over g in G of <g.x, y>.

    The value comes from the family-keyed backend: a chamber projection,
    the FFT or one GEMM, chosen by ``group.family`` only and never
    inferred from the matrices.  ``allow_fft=False`` skips every backend
    route and scores the dense element stack, all g.x against y; that
    evaluation is the independent reference the routes are tested against.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (group.dim,) or y.shape != (group.dim,):
        raise ValueError("x and y must be vectors of the group dimension")
    if not allow_fft:
        return float((group.apply_all(x) @ y).max())
    return float(_filter_values(group, x[None, :], y[None, :], paired=True)[0])


def quotient_distance(group: FiniteGroup, x, y) -> float:
    """min over g of |x - g.y|, computed by polarization; the one-row case
    of ``_pair_distances``."""
    X, Y = (np.asarray(v, dtype=float).reshape(1, -1) for v in (x, y))
    return float(_pair_distances(group, X, Y)[0])


def apply_bank(bank: MaxFilterBank, x) -> np.ndarray:
    """Bank image (max_filter(z_i, x))_i as an (n,) array."""
    return apply_bank_batch(bank, np.asarray(x, dtype=float)[None, :])[0]


def apply_bank_batch(bank: MaxFilterBank, X) -> np.ndarray:
    """Bank images for a batch of points, shape (batch, n)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != bank.dim:
        raise ValueError(f"expected batch shape (b, {bank.dim}), got {X.shape}")
    return _filter_values(bank.group, X, bank.templates, paired=False)


def max_filter_pairs(group: FiniteGroup, X, Y) -> np.ndarray:
    """Row-wise filter values max_g <g.x_b, y_b> for paired batches."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[1] != group.dim:
        raise ValueError(
            f"X and Y must be equal-shape (b, {group.dim}) batches, got {X.shape} and {Y.shape}")
    return _filter_values(group, X, Y, paired=True)


def _pair_distances(group: FiniteGroup, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise quotient distances by polarization; radicands in [-eq_tol, 0)
    clamp to 0, and a lower one raises NegativeRadicand."""
    rad = (X * X).sum(axis=1) + (Y * Y).sum(axis=1) - 2.0 * max_filter_pairs(group, X, Y)
    if rad.min() < -DEFAULT_TOL.eq_tol:
        raise NegativeRadicand(
            f"polarization radicand {rad.min():.3e} < -eq_tol; group data inconsistent")
    return np.sqrt(np.maximum(rad, 0.0))


# ---------------------------------------------------------------------------
# the backend: one dispatch on group.family
#
# Every route returns max_g <g.x, z> for the rows x of X and z of Z: row by
# row when paired, shape (b,), and every x against every z otherwise, shape
# (b, n).  Scalar, pairs, bank and Gram matrix are all calls of this one
# function.


def _fold_angles(group: FiniteGroup, X: np.ndarray) -> np.ndarray:
    """Fold each polar angle into [0, pi/m], between the mirrors at 0 and pi/m."""
    wedge = 2.0 * np.pi / (group.order // 2)
    theta = np.mod(np.arctan2(X[:, 1], X[:, 0]), wedge)
    phi = np.minimum(theta, wedge - theta)
    r = np.hypot(X[:, 0], X[:, 1])
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


# Projections onto the closed fundamental chamber of each reflection family.
# Every orbit meets that chamber exactly once, and max_g <g.x, z> equals
# <pi(x), pi(z)>: the filter is a linear inner product after a feature map.
_CHAMBERS = {
    "permutations": lambda group, X: np.sort(X, axis=1),
    "sign_flips": lambda group, X: np.abs(X),
    "dihedral_2d": _fold_angles,
}

def _filter_values(group: FiniteGroup, X: np.ndarray, Z: np.ndarray, paired: bool) -> np.ndarray:
    project = _CHAMBERS.get(group.family)
    if project is not None:
        PX, PZ = project(group, X), project(group, Z)
        return np.einsum("bd,bd->b", PX, PZ) if paired else PX @ PZ.T
    if group.family == "circular_shifts":
        # one length-d correlation per (x, z)
        route, per_row = _circular_values, group.dim * (1 if paired else len(Z))
    else:
        # one inner product per (g, x, z), plus the d*d outer product when paired
        route = _gemm_values
        per_row = group.order + group.dim ** 2 if paired else group.order * len(Z)
    step = max(1, _BLOCK // per_row)
    if len(X) <= step:
        return route(group, X, Z, paired)
    return np.concatenate([route(group, X[lo:lo + step], Z[lo:lo + step] if paired else Z, paired)
                           for lo in range(0, len(X), step)])


def _circular_values(group: FiniteGroup | None, X: np.ndarray, Z: np.ndarray,
                     paired: bool) -> np.ndarray:
    """Cross-correlations by a length-d real FFT; the max over shifts."""
    d = X.shape[1]
    F, G = np.fft.rfft(X, axis=1), np.conj(np.fft.rfft(Z, axis=1))
    if paired:
        return np.fft.irfft(F * G, n=d, axis=1).max(axis=1)
    return np.fft.irfft(F[:, None, :] * G[None, :, :], n=d, axis=2).max(axis=2)


def _gemm_values(group: FiniteGroup, X: np.ndarray, Z: np.ndarray, paired: bool) -> np.ndarray:
    """Inner products against the element stack in one matrix product."""
    m, d = group.order, group.dim
    if paired:
        # <g.x, z> = sum_ij g_ij z_i x_j: the outer products z x^T against the flat elements
        outer = (Z[:, :, None] * X[:, None, :]).reshape(len(X), d * d)
        return (outer @ group.stack.reshape(m, d * d).T).max(axis=1)
    # <g.x, z> = <x, g^T z>: every x against the orbit rows g^T z, then the max per |G| block
    rows = (Z @ group.stack).reshape(m * len(Z), d)
    return (X @ rows.T).reshape(len(X), m, len(Z)).max(axis=1)


# ---------------------------------------------------------------------------
# circular shifts via FFT


def _check_signals(f, g) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.ndim != 1 or g.ndim != 1:
        raise ValueError("signals must be 1-D")
    if f.shape[0] != g.shape[0]:
        raise LengthMismatch(f"signal lengths differ: {f.shape[0]} vs {g.shape[0]}")
    if f.shape[0] == 0:
        raise ValueError("signals must be nonempty")
    return f, g


def max_filter_circular_fft(f, g) -> float:
    """max over shifts a of sum_x f(x) g(x - a), length-d DFT, no padding."""
    f, g = _check_signals(f, g)
    return float(_circular_values(None, f[None, :], g[None, :], paired=True)[0])


def max_filter_circular_brute(f, g) -> float:
    """Shift-domain oracle for the FFT path: O(d^2), one dot per shift.
    ff[d - a:2d - a] is np.roll(f, a) element for element, so each dot
    has the roll's bits without building it."""
    f, g = _check_signals(f, g)
    d = f.shape[0]
    ff = np.concatenate([f, f])
    best = -np.inf
    for a in range(d):
        best = max(best, float(ff[d - a:2 * d - a] @ g))
    return best


# ---------------------------------------------------------------------------
# template files: CSV, one template per row


def save_templates(templates, path) -> None:
    Z = np.asarray(templates, dtype=float)
    np.savetxt(path, Z, delimiter=",", fmt="%.17g")


def load_templates(path) -> np.ndarray:
    return np.loadtxt(Path(path), delimiter=",", ndmin=2)
