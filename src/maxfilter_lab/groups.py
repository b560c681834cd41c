"""Finite subgroups of O(d): construction, closure, orbits, stabilizers.

Groups are stored as one read-only stack of their element matrices in a
canonical order (lexicographic on flattened matrix entries) so that every
enumeration downstream is deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ClosureOverflow, NotOrthogonal, SizeOverflow
from .tolerances import DEFAULT_TOL

__all__ = [
    "FiniteGroup",
    "Orbit",
    "generate_group",
    "build_family",
    "cyclic_rotation_2d",
    "axis_rotation_3d",
    "dihedral_2d",
    "sign_flips",
    "permutations",
    "plus_minus_id",
    "circular_shifts",
    "orbit_of",
    "stabilizer_order",
    "save_group",
    "load_group",
    "FAMILIES",
    "MAX_ORDER",
    "MAX_DIM",
    "MAX_STACK",
    "is_reflection_group",
]


def _as_matrix(matrix, dim: int | None = None) -> np.ndarray:
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if dim is not None and M.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {M.shape[0]}")
    return M


def _check_orthogonal(M: np.ndarray) -> None:
    with np.errstate(invalid="ignore"):    # an inf entry gives a NaN defect, which fails
        defect = np.abs(M.T @ M - np.eye(M.shape[0])).max()
    if not defect <= DEFAULT_TOL.eq_tol:
        raise NotOrthogonal(f"matrix is not orthogonal: |Q^T Q - I|_max = {defect:.3e}")


def _canonical_order(stack: np.ndarray) -> np.ndarray:
    """Indices sorting matrices lexicographically on flattened entries."""
    flat = stack.reshape(stack.shape[0], -1)
    return np.lexsort(flat.T[::-1])


# float64 entries one block of an intermediate may hold (8 MiB)
_BLOCK = 1 << 20
# largest group order any constructor builds or any closure reaches
MAX_ORDER = 100_000
# largest dimension of a group's matrices, checked before any is built: an
# element holds d^2 entries and the canonical sort takes d^2 keys of the
# whole stack
MAX_DIM = 256
# largest element stack, in entries, that a closure may grow: the largest any
# family builds within MAX_ORDER and MAX_DIM (sign_flips(16), circular_shifts(256))
MAX_STACK = 1 << 24


def _check_dim(dim: int) -> None:
    """Raise SizeOverflow past MAX_DIM, read at call time."""
    if dim > MAX_DIM:
        raise SizeOverflow(f"dimension {dim} exceeds MAX_DIM={MAX_DIM}")


def _projection(k: int) -> np.ndarray:
    """(sin 1, ..., sin k): no small integer relation ties these together."""
    return np.sin(np.arange(1.0, k + 1))


def _window(u: np.ndarray, thresh, top, ord=2):
    """The run window of ``_first_seen``: rows within ``thresh`` of each
    other in the norm ``ord``, with no |entry| above ``top``, have
    projections on u within it.  Elementwise over arrays of thresh and top."""
    # a projection's rounding error is below (k+1)*eps*|u|_1*max|entry|;
    # the factor 1.001 covers the rounding of the norms and of the gaps
    rounding = 2 * (len(u) + 2) * np.finfo(float).eps * np.abs(u).sum() * top
    return 1.001 * (np.linalg.norm(u, 1 if ord == np.inf else 2) * thresh + rounding)


def _first_seen(rows: np.ndarray, thresh, ord=2) -> np.ndarray:
    """Indices of the rows kept by the tolerant first-seen rule, in input order.

    Row i is kept unless an earlier kept row lies within ``thresh`` (a
    scalar, or one value per row i) of it in the norm ``ord``.  The rule
    is greedy, so the kept rows depend on the input order, which feeds
    the S-sets, argmax tuples and reports.  Every caller scales the fixed
    DEFAULT_TOL.eq_tol: ``_orbits`` passes the images g.x of one point,
    Euclidean, at eq_tol*(1+|x|), when they fail the early return below,
    which it tests on many points at once; ``generate_group`` flattened
    matrices, max-abs (ord=inf), at eq_tol; ``stability.alpha_tilde``
    [p0, -p0, p1, -p1, ...] over an orbit, Euclidean, at eq_tol*(1+|p|),
    keeping the even rows.

    As |<u, a - b>| <= |u|_2 |a - b|_2 and <= |u|_1 |a - b|_inf for the
    fixed u = _projection(k), a pair the exact test accepts lies in one run
    of sorted projections with gaps within that window, padded for
    rounding.  A run's first row is kept and drops the rows within their
    threshold of it; the others are tested one by one against their run's kept rows.
    """
    n, k = rows.shape
    u = _projection(k)
    proj = rows @ u
    width = _window(u, np.max(thresh), max(rows.max(), -rows.min()), ord)
    order = np.argsort(proj, kind="stable")
    starts = np.concatenate(([True], np.diff(proj[order]) > width))
    if starts.all():              # every row alone in its run
        return np.arange(n)
    thresh = np.broadcast_to(thresh, (n,))
    run = np.empty(n, dtype=int)
    run[order] = np.cumsum(starts) - 1
    lead = np.minimum.reduceat(order, np.flatnonzero(starts))[run]
    keep = lead == np.arange(n)
    rest = np.flatnonzero(~keep)
    kept = {}                     # run -> its kept rows so far
    for i in rest[np.linalg.norm(rows[lead[rest]] - rows[rest], ord=ord, axis=1) > thresh[rest]]:
        near = kept.setdefault(run[i], [lead[i]])
        if np.linalg.norm(rows[near] - rows[i], ord=ord, axis=1).min() > thresh[i]:
            keep[i] = True
            near.append(i)
    return np.flatnonzero(keep)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite subgroup of O(dim) with explicit elements.

    ``stack`` holds all matrices as one read-only (order, dim, dim)
    array, copied in the order given; ``from_matrices`` sorts them into
    canonical order first, and its sorted copy, read-only and owning its
    memory, is taken without a second copy.  ``family`` names the
    constructor in FAMILIES that built the group, and it selects the
    filter routes only: the chamber projections of the reflection
    families and the circular-shift FFT.  ``param`` is that
    constructor's parameter, m for the rotation families and d for the
    coordinate families.  Only those constructors set the two, through
    ``_from_stack``; every other group is untagged and its filter takes
    the dense route.  The cell geometry (``_cells``) and chi are read
    off the elements, tagged or not.
    """

    stack: np.ndarray = field(repr=False)
    family: str | None = field(default=None, init=False)
    param: int | None = field(default=None, init=False)

    def __post_init__(self):
        stack = self.stack
        if not (isinstance(stack, np.ndarray) and stack.dtype == float
                and stack.flags.owndata and not stack.flags.writeable):
            stack = np.array(stack, dtype=float)
        if stack.ndim != 3 or stack.shape[0] == 0 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"expected a nonempty (order, dim, dim) stack, got shape {stack.shape}")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    @property
    def order(self) -> int:
        return self.stack.shape[0]

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def apply_all(self, x: np.ndarray) -> np.ndarray:
        """All images g.x, shape (order, dim), in canonical element order."""
        return self.stack @ np.asarray(x, dtype=float)

    def contains(self, matrix) -> bool:
        M = _as_matrix(matrix, self.dim)
        return bool(np.abs(self.stack - M).max(axis=(1, 2)).min() <= DEFAULT_TOL.eq_tol)

    @cached_property
    def _cells(self) -> tuple[str | None, np.ndarray | None]:
        """The shape of a principal orbit's open cells, read off the elements
        and cached, so the closure runs once per group: ("reflection",
        None), chambers, when ``is_reflection_group`` holds; else
        ("planar", B), sectors, when G moves at most a plane, where it acts
        as a cyclic group: I minus the mean element projects onto that
        plane, so its trace is at most 2, and its top two eigenvectors are
        the orthonormal basis B; else (None, None)."""
        stack, eq_tol = self.stack, DEFAULT_TOL.eq_tol
        symmetric = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) <= eq_tol
        hyperplane = np.abs(np.trace(stack, axis1=1, axis2=2) - (self.dim - 2)) <= eq_tol
        reflections = stack[symmetric & hyperplane]
        if generate_group([np.eye(self.dim), *reflections]).order == self.order:
            return "reflection", None
        moving = np.eye(self.dim) - stack.mean(axis=0)
        if round(float(np.trace(moving))) > 2:
            return None, None
        return "planar", np.linalg.eigh(moving)[1][:, -2:]

    @classmethod
    def from_matrices(cls, mats: np.ndarray) -> "FiniteGroup":
        stack = np.asarray(mats, dtype=float)
        _check_dim(stack.shape[-1])
        stack = stack[_canonical_order(stack)]
        stack.setflags(write=False)
        return cls(stack)

    @classmethod
    def _from_stack(cls, mats: np.ndarray, family: str, param: int) -> "FiniteGroup":
        """from_matrices plus the family tag and its constructor parameter;
        the family constructors are its only callers."""
        group = cls.from_matrices(mats)
        object.__setattr__(group, "family", family)
        object.__setattr__(group, "param", param)
        return group


def is_reflection_group(group: FiniteGroup) -> bool:
    """Whether G is generated by its reflections (Humphreys 1990, 1.1).

    The reflections in G are its symmetric elements with trace d - 2,
    both within eq_tol: orthogonal involutions with a single eigenvalue
    -1.  G is a reflection group exactly when they close to all |G|
    elements; the trivial group, generated by no reflection, is one.
    Exact and deterministic: no sampling.  The group caches the verdict
    with the rest of its cell classification (``FiniteGroup._cells``).
    """
    return group._cells[0] == "reflection"


@dataclass(frozen=True, eq=False)
class Orbit:
    """Deduplicated orbit of a point x; ``rep_elements[k]`` is the index of
    one group element sending x to ``points[k]``."""

    points: np.ndarray
    rep_elements: np.ndarray

    def __post_init__(self):
        for name in ("points", "rep_elements"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def generate_group(generators) -> FiniteGroup:
    """Close a generator list under multiplication.

    Every element of a finite matrix group is a positive power of the
    generators, so right-multiplication BFS without explicit inverses
    reaches the full group.  ``_first_seen`` deduplicates the generators,
    then each level's products f @ g (frontier-major) behind the elements
    found so far, in slices of frontier rows; the rule only looks back, so
    slicing keeps the elements and their order.  Each slice re-reads the
    elements, so it holds up to _BLOCK entries or as many as they have.
    Raises ClosureOverflow past MAX_ORDER elements, SizeOverflow past
    MAX_DIM before any product is formed, and SizeOverflow once the stack
    passes MAX_STACK entries; every cap is read at call time.
    The group is untagged, so its filter takes the dense route even when
    it equals a named family; build a family with its constructor to get
    that route.  Its cell geometry and chi are those of its elements, as
    for a tagged group.
    """
    gens = [_as_matrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].shape[0]
    _check_dim(dim)
    for g in gens:
        _as_matrix(g, dim)
        _check_orthogonal(g)

    eq_tol = DEFAULT_TOL.eq_tol
    gen_stack = np.stack(gens)[_first_seen(np.reshape(gens, (len(gens), -1)), eq_tol, np.inf)]
    elements, level = np.eye(dim)[None], [gen_stack]
    while True:
        start = len(elements)
        for cands in level:
            n = len(elements)
            kept = _first_seen(np.concatenate([elements, cands]).reshape(n + len(cands), -1),
                               eq_tol, np.inf)
            # every element found so far is kept, so only the new rows are appended
            elements = np.concatenate([elements, cands[kept[kept >= n] - n]])
            if len(elements) > MAX_ORDER:
                raise ClosureOverflow(f"closure exceeded MAX_ORDER={MAX_ORDER}")
            if elements.size > MAX_STACK:
                raise SizeOverflow(f"closure stack exceeded MAX_STACK={MAX_STACK} entries")
        if len(elements) == start:
            return FiniteGroup.from_matrices(elements)
        frontier = elements[start:].copy()    # a view would keep this level's whole array alive
        step = max(1, max(_BLOCK, elements.size) // (len(gen_stack) * dim * dim))
        level = (np.matmul(frontier[lo:lo + step, None], gen_stack[None]).reshape(-1, dim, dim)
                 for lo in range(0, len(frontier), step))


# ---------------------------------------------------------------------------
# named families


def _rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _family_cap(name: str, param: int, dim: int, factors) -> None:
    """A family parameter must be positive and give an order within
    MAX_ORDER and a dimension ``dim`` within MAX_DIM.  The order is the
    product of ``factors``, multiplied only until it passes the cap, so a
    huge order is never built or printed."""
    if param < 1:
        raise ValueError(f"{name} needs a parameter >= 1, got {param}")
    order = 1
    for f in factors:
        order *= f
        if order > MAX_ORDER:
            raise SizeOverflow(f"{name}({param}) would have order > MAX_ORDER={MAX_ORDER}")
    _check_dim(dim)


def cyclic_rotation_2d(m: int) -> FiniteGroup:
    """Planar rotations by multiples of 2*pi/m."""
    _family_cap("cyclic_rotation_2d", m, 2, (m,))
    mats = np.stack([_rotation_2d(2 * math.pi * k / m) for k in range(m)])
    return FiniteGroup._from_stack(mats, "cyclic_rotation_2d", m)


def axis_rotation_3d(m: int) -> FiniteGroup:
    """Rotations about the e3 axis by multiples of 2*pi/m; e3 is fixed."""
    _family_cap("axis_rotation_3d", m, 3, (m,))
    mats = []
    for k in range(m):
        M = np.eye(3)
        M[:2, :2] = _rotation_2d(2 * math.pi * k / m)
        mats.append(M)
    return FiniteGroup._from_stack(np.stack(mats), "axis_rotation_3d", m)


def dihedral_2d(m: int) -> FiniteGroup:
    """Order-2m dihedral group: m rotations and m reflections."""
    _family_cap("dihedral_2d", m, 2, (2, m))
    flip = np.diag([1.0, -1.0])
    rots = [_rotation_2d(2 * math.pi * k / m) for k in range(m)]
    mats = np.stack(rots + [R @ flip for R in rots])
    return FiniteGroup._from_stack(mats, "dihedral_2d", m)


def sign_flips(d: int) -> FiniteGroup:
    """All 2^d diagonal matrices with +-1 entries."""
    _family_cap("sign_flips", d, d, itertools.repeat(2, d))
    mats = np.stack([np.diag(np.array(s, dtype=float))
                     for s in itertools.product((1.0, -1.0), repeat=d)])
    return FiniteGroup._from_stack(mats, "sign_flips", d)


def permutations(d: int) -> FiniteGroup:
    """All d! coordinate-permutation matrices."""
    _family_cap("permutations", d, d, range(2, d + 1))
    mats = []
    for p in itertools.permutations(range(d)):
        M = np.zeros((d, d))
        M[np.arange(d), p] = 1.0
        mats.append(M)
    return FiniteGroup._from_stack(np.stack(mats), "permutations", d)


def plus_minus_id(d: int) -> FiniteGroup:
    """The two-element group {I, -I} on R^d."""
    _family_cap("plus_minus_id", d, d, (2,))
    return FiniteGroup._from_stack(np.stack([np.eye(d), -np.eye(d)]), "plus_minus_id", d)


def circular_shifts(d: int) -> FiniteGroup:
    """Cyclic shifts of coordinates; max filtering runs as an FFT cross-correlation."""
    _family_cap("circular_shifts", d, d, (d,))
    # the k-th element maps x to x shifted by k: (S^k x)[i] = x[i-k]
    mats = np.stack([np.roll(np.eye(d), k, axis=0) for k in range(d)])
    return FiniteGroup._from_stack(mats, "circular_shifts", d)


FAMILIES = {
    "cyclic_rotation_2d": cyclic_rotation_2d,
    "axis_rotation_3d": axis_rotation_3d,
    "dihedral_2d": dihedral_2d,
    "sign_flips": sign_flips,
    "permutations": permutations,
    "plus_minus_id": plus_minus_id,
    "circular_shifts": circular_shifts,
}


def build_family(name: str, param: int) -> FiniteGroup:
    """Build a named family; ``param`` is m for the rotation families and
    d for the coordinate families.  Raises SizeOverflow past MAX_ORDER
    or MAX_DIM."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[name](param)


# ---------------------------------------------------------------------------
# orbits and stabilizers


def _orbits(group: FiniteGroup, X) -> list[Orbit]:
    """Deduplicated orbits of the rows of X, (N, d): ``_first_seen`` over the
    images g.x of the canonical elements, as ``orbit_of`` keeps them.

    One image product serves a slice of points, and ``_first_seen``'s early
    return, every sorted projection more than its window from the next, is
    tested on all of them at once with the same expressions.  A point that
    passes keeps its |G| images, as ``_first_seen`` would; the images of a
    point that fails go through ``_first_seen``.  A slice holds at least
    one point and at most _BLOCK image entries, or one point's.
    """
    X = np.asarray(X, dtype=float)
    order, d = group.order, group.dim
    u = _projection(d)
    step = max(1, _BLOCK // (order * d))
    everyone = np.arange(order)
    orbits = []
    for lo in range(0, len(X), step):
        xs = X[lo:lo + step]
        images = np.matmul(group.stack[None], xs[:, None, :, None])[..., 0]
        thresh = DEFAULT_TOL.eq_tol * (1.0 + np.linalg.norm(xs, axis=1))
        width = _window(u, thresh, np.abs(images).max(axis=(1, 2)))
        distinct = (np.diff(np.sort(images @ u, axis=1), axis=1) > width[:, None]).all(axis=1)
        for x, rows, alone in zip(xs, images, distinct):
            reps = everyone if alone else _first_seen(
                rows, DEFAULT_TOL.eq_tol * (1.0 + float(np.linalg.norm(x))))
            orbits.append(Orbit(points=rows if alone else rows[reps], rep_elements=reps))
    return orbits


def orbit_of(group: FiniteGroup, x) -> Orbit:
    """Deduplicated orbit of x, the one-point case of ``_orbits``."""
    return _orbits(group, [x])[0]


def stabilizer_order(group: FiniteGroup, x) -> int:
    """Number of elements fixing x, within eq_tol*(1+|x|).  The referee of
    the principal rule: it is 1 exactly when ``orbit_of`` keeps |G| points."""
    x = np.asarray(x, dtype=float)
    thresh = DEFAULT_TOL.eq_tol * (1.0 + float(np.linalg.norm(x)))
    return int((np.linalg.norm(group.apply_all(x) - x, axis=1) <= thresh).sum())


# ---------------------------------------------------------------------------
# file format: {"dim": d, "generators": [[row-major d*d reals], ...],
#               "family": name or null, "param": int or null}

def save_group(group: FiniteGroup, path) -> None:
    """Write every element, plus the family tag and its parameter, both
    null for an untagged group."""
    payload = {
        "dim": group.dim,
        "generators": group.stack.reshape(group.order, -1).tolist(),
        "family": group.family,
        "param": group.param,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_group(path) -> FiniteGroup:
    """Read a group file.

    A tagged file is rebuilt by its family constructor, which keeps the
    family's filter routes, and its stored elements must equal the
    constructor's within eq_tol.  An untagged file is closed again from
    its stored elements.  Either way the order is capped at MAX_ORDER and
    the dimension at MAX_DIM, and a closure's stack at MAX_STACK entries.
    ``dim``, and ``param`` in a tagged file, must be integers, not bools.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"the JSON root must be an object, got {type(payload).__name__}")
    family = payload.get("family")
    for key in ("dim",) if family is None else ("dim", "param"):
        if not isinstance(payload[key], int) or isinstance(payload[key], bool):
            raise ValueError(f"{key} must be an integer, got {payload[key]!r}")
    dim = payload["dim"]
    gens = np.array(payload["generators"], dtype=float).reshape(-1, dim, dim)
    if family is None:
        return generate_group(gens)
    group = build_family(family, payload["param"])
    if gens.shape != group.stack.shape or np.abs(gens - group.stack).max() > DEFAULT_TOL.eq_tol:
        raise ValueError(
            f"stored elements differ from {family}({payload['param']}) beyond eq_tol")
    return group
