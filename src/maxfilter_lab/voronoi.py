"""Voronoi cells of orbits, S-sets, choice assignments, and the Voronoi
characteristic chi.

The open cell V_x collects the points whose best orbit representative is
x itself and nobody else, so whether a point lies in it is read off its
orbit scores (``strictly_inside``).  Which open cells of several orbits
meet a pinned cell is read off the closed-form cell geometry of the
tagged reflection and planar rotation families (``_geometric_leaves``)
for β and the sharp bound's S-sets; every other group, every question
that geometry hands back, and ``s_set`` and χ, which check the rules
that geometry rests on, ask a small margin LP.  Every margin LP starts
here: β's LP route is the level search of ``_pinned_leaves``, one batch
per level, and the S-set pairs of a χ run share one lazy stream
(``_s_sets``).  A cell is named by its orbit and its centre's index
there (``VoronoiCellSpec``); ``cell_of`` alone looks a centre up from a
point.  No LP solver runs: each margin LP's verdict is read off a
certificate that is checked with a few flops, a witness point in the box
or Gordan weights on its rows (``ConeFeasibility``).  A chunk holds
blocks of one shape, and one loop runs the finders of ``_FINDERS`` in
turn on its blocks still open, all checked at one ``_certify`` call: a
vectorized screen (a witness and a pair of rows), a vectorized pass
adding a third row to that pair, which in the plane settles every block
whose rows surround the origin, and Wolfe's minimum-norm point, one
block at a time; a block none settles raises LpNumericalFailure.  Each
verdict reads its block alone, so it is the one the block would have by
itself; ``strict_cones_feasible`` is the one-problem case.
``proven_chi`` is the one proof of an upper bound on χ, read off the
group's elements; ``voronoi_characteristic`` only samples a lower bound.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import BUDGETS, BudgetExceeded, LpNumericalFailure, NotNicePoint
from .filtering import _CHAMBERS, MaxFilterBank
from .groups import _BLOCK, FiniteGroup, Orbit, is_reflection_group, orbit_of, stabilizer_order
from .streams import STREAMS
from .tolerances import DEFAULT_TOL

__all__ = [
    "VoronoiCellSpec",
    "strictly_inside",
    "ConeFeasibility",
    "SSet",
    "ChoiceEnumeration",
    "ChiEstimate",
    "cell_of",
    "in_Q",
    "is_principal",
    "sample_principal",
    "sample_nice",
    "s_set",
    "choice_assignments",
    "proven_chi",
    "voronoi_characteristic",
]


@dataclass(frozen=True, eq=False)
class VoronoiCellSpec:
    """Open cell {y : <p, y> > <q, y> for all other orbit points q}, p = orbit.points[index]."""

    orbit: Orbit
    index: int

    def __post_init__(self):
        if not isinstance(self.index, (int, np.integer)) or not 0 <= self.index < self.orbit.size:
            raise ValueError(f"cell index {self.index!r} is not in range({self.orbit.size})")

    @property
    def center(self) -> np.ndarray:
        return self.orbit.points[self.index]

    @cached_property
    def rows(self) -> np.ndarray:
        """Constraint normals center - p, one per non-center orbit point;
        built once per cell and read-only."""
        pts, i = self.orbit.points, self.index
        rows = self.center - np.concatenate((pts[:i], pts[i + 1:]))
        rows.setflags(write=False)
        return rows

    def contains(self, y) -> bool:
        """``strictly_inside`` for the one probe y and this cell."""
        y = np.asarray(y, dtype=float)
        return bool(strictly_inside((self.orbit.points @ y)[None, None],
                                    np.array([[self.index]]), y[None])[0])


def strictly_inside(scores: np.ndarray, centers: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Strict membership as the margin LP decides it, one verdict per probe.

    ``scores[j, k]`` holds <p, probes[j]> for every point p of the orbit
    of the k-th cell probe j is tested against, shape (m, K, |orbit|) for
    (m, d) probes, and ``centers[j, k]`` the index of that cell's centre.
    A probe is inside when, in every cell, its centre's score beats the
    best other score by more than lp_tol * |y|_inf, the LP's box scaling;
    a one-point orbit contains every probe.
    """
    own = np.take_along_axis(scores, centers[..., None], axis=-1)[..., 0]
    others = np.where(np.arange(scores.shape[-1]) == centers[..., None], -np.inf, scores)
    margins = (own - others.max(axis=-1)).min(axis=-1)
    return margins > DEFAULT_TOL.lp_tol * np.abs(probes).max(axis=-1)


def _geometric_leaves(group: FiniteGroup, orbits, pin: int) -> list[tuple[int, ...]] | None:
    """Sorted feasible leaves from the cell geometry, or None to fall back.

    A leaf holds one point index per orbit, orbit 0 pinned at ``pin``.
    Applies when every orbit has size |G| and the family's open cells are
    known in closed form at principal points: the open chamber of a
    reflection group, one per key of filtering._CHAMBERS (Humphreys,
    Reflection Groups and Coxeter Groups, 1990, ch. 1), and for a planar
    rotation the open sector of width 2*pi/m centred on the point, times
    the axis in 3-D.  One probe lies in each jointly feasible
    intersection: the pinned point itself for a reflection group, whose
    chamber meets one chamber of every orbit; for a planar rotation, the
    midpoint of each arc that the other orbits' sector cuts make inside
    the sector centred on the pinned point.  One product scores every probe against every orbit; a
    probe's leaf is its argmax point per orbit.  It stands only if the
    probe keeps ``pin`` and, by those same scores, lies in every cell of
    the leaf by ``strictly_inside``, the margin LP's own rule.  No cell
    is built.
    """
    if (group.family not in (*_CHAMBERS, "cyclic_rotation_2d", "axis_rotation_3d")
            or any(orb.size != group.order for orb in orbits)):
        return None
    firsts = np.stack([orbits[0].points[pin]] + [orb.points[0] for orb in orbits[1:]])
    if group.family in _CHAMBERS:
        probes = firsts[:1]
    else:
        # the cut of orbit t lies at theta_t + w/2 (mod w); offsets from
        # the pinned sector's lower edge, then the arc midpoints between them
        w = 2.0 * np.pi / group.order
        theta = np.arctan2(firsts[:, 1], firsts[:, 0])
        low = theta[0] - w / 2
        edges = np.concatenate(([0.0], np.sort(np.mod(theta[1:] + w / 2 - low, w)), [w]))
        phi = low + (edges[:-1] + edges[1:]) / 2
        probes = np.zeros((phi.shape[0], group.dim))
        probes[:, 0], probes[:, 1] = np.cos(phi), np.sin(phi)
    scores = np.einsum("md,kgd->mkg", probes, np.stack([orb.points for orb in orbits]))
    keys = scores.argmax(axis=-1)
    if (keys[:, 0] != pin).any() or not strictly_inside(scores, keys, probes).all():
        return None
    return sorted(set(map(tuple, keys.tolist())))


def _pinned_leaves(group: FiniteGroup, orbits) -> tuple[list[tuple[int, ...]], int, bool]:
    """Feasible leaves of the orbits in lexicographic order, orbit 0 pinned
    at its point 0; the margin-LP problems solved; and whether the search
    finished within BUDGETS["lp_solves"].

    ``_geometric_leaves`` answers first and solves no LP.  Otherwise a
    level-synchronous search runs over the orbits in the order given.
    Level k extends every jointly feasible k-tuple by each point of the
    next orbit, in lexicographic order; the children of a level are
    decided together as one stream of margin LPs, and only the feasible
    ones form the next level.  Pruning is safe because adding a cell only
    shrinks the intersection.  Every child's verdict depends on its own
    tuple alone, so the LPs solved, the feasible tuples and the leaf
    order are exactly those of a depth-first search with the same child
    order.  Each cell is built on first use, looked up by (orbit, index).
    When a level would pass the budget, exactly that many problems are
    solved; the leaves returned are then the feasible children decided
    so far if that level is the last, and none otherwise.
    """
    leaves = _geometric_leaves(group, orbits, 0)
    if leaves is not None:
        return leaves, 0, True
    cell = cache(lambda t, c: VoronoiCellSpec(orbits[t], c))
    frontier: list[tuple[int, ...]] = [()]
    solves = 0
    for t, orb in enumerate(orbits):
        n_cand = 1 if t == 0 else orb.size
        needed = len(frontier) * n_cand
        take = min(needed, max(BUDGETS["lp_solves"] - solves, 0))
        kids = [frontier[i // n_cand] + (i % n_cand,) for i in range(take)]
        verdicts = _margin_lps([cell(*tc) for tc in enumerate(kid)] for kid in kids)
        frontier = [kid for kid, v in zip(kids, verdicts) if v.feasible]
        solves += take
        if take < needed:
            return (frontier if t == len(orbits) - 1 else []), solves, False
    return frontier, solves, True


def cell_of(group: FiniteGroup, x) -> VoronoiCellSpec:
    """Cell of the point of [x] nearest x: x itself, bit for bit, if x is principal
    (its identity image is exact), else the orbit point within eq_tol of x."""
    x = np.asarray(x, dtype=float)
    orbit = orbit_of(group, x)
    return VoronoiCellSpec(orbit, int(np.argmin(np.linalg.norm(orbit.points - x, axis=1))))


@dataclass(frozen=True)
class ConeFeasibility:
    """The verdict on one margin LP, max t subject to R y >= t and
    |y|_inf <= 1 with R the stacked rows of its cells, and the checked
    certificate it rests on (``_certify``).  The LP's optimum t* is at
    least 0 (y = 0), and the verdict is t* > lp_tol.

    Feasible: ``witness`` is a y with |y|_inf <= 1, and ``margin`` =
    min R y > lp_tol is a lower bound on t*.  Infeasible: ``weights`` is
    a lambda >= 0 with sum 1, one entry per row of R, and ``margin`` =
    -|R^T lambda|_1 >= -lp_tol; by weak duality, t* <= |R^T lambda|_1
    (Gordan's alternative with a tolerance).  A problem without rows is
    feasible at y = 0 with margin inf.
    """

    feasible: bool
    witness: np.ndarray | None
    margin: float
    weights: np.ndarray | None = None


# Entries of one chunk of margin LPs, m * (m + d) per problem of m rows in
# R^d: its rows and the pair screen's cosines.  It bounds how many pairs a
# chi run holds at once: 8 sign_flips(3) pairs, where _BLOCK would hold 550.
# On a 2-core host a `chi` benchmark op took 13.8 ms at this value, 15.9 ms
# at 1 << 13 and 12.5 ms at _BLOCK (op p50 of three 15 s runs at seed 1).
_LP_CHUNK = 1 << 14
_SAMPLE_TRIES = 100    # Gaussian draws per call of sample_principal and sample_nice
_WOLFE_STEPS = 1000    # major cycles per block in _wolfe; the test banks need at most 11


def _margin_lps(problems: Iterable[Sequence[VoronoiCellSpec]]) -> Iterator[ConeFeasibility]:
    """One ConeFeasibility per list of cells, in input order.

    Problems are read lazily and decided in chunks of one block shape and
    at most _LP_CHUNK entries, unless one problem exceeds it alone, so a
    long iterable is never held at once.  A new shape closes the chunk.
    """
    blocks: list[np.ndarray] = []
    size = 0
    for cells in problems:
        R = np.concatenate([c.rows for c in cells]) if cells else np.zeros((0, 0))
        entries = R.shape[0] * sum(R.shape)
        if blocks and (size + entries > _LP_CHUNK or R.shape != blocks[0].shape):
            yield from _solve_blocks(blocks)
            blocks, size = [], 0
        blocks.append(R)
        size += entries
    if blocks:
        yield from _solve_blocks(blocks)


def _solve_blocks(blocks: list[np.ndarray]) -> list[ConeFeasibility]:
    """One verdict per block of rows, all of one shape, each read off a
    certificate that ``_certify`` checks.

    The finders of _FINDERS run in turn, each on the sub-stack of the
    blocks still open, and ``_certify`` checks what each returns.  A block
    is settled by a witness margin > lp_tol or a Gordan gap <= lp_tol; a
    block without rows starts settled, feasible at y = 0 with margin inf.
    A block that no finder settles raises LpNumericalFailure, before any
    verdict of its chunk is given.  Every step reads its block alone, so
    a verdict does not depend on the chunk.
    """
    tol = DEFAULT_TOL.lp_tol
    stack = np.stack(blocks)
    k, m, d = stack.shape
    Y, L = np.zeros((k, d)), np.zeros((k, m))
    # the margin of y = 0, min R y: 0 with rows, inf (an empty min) without
    margins, gaps = np.zeros((k, m)).min(axis=1, initial=np.inf), np.full(k, np.inf)
    b = np.flatnonzero(margins <= tol)
    for find in _FINDERS:
        if not b.size:
            break
        Y[b], L[b], margins[b], gaps[b] = _certify(stack[b], *find(stack[b]))
        b = b[(margins[b] <= tol) & (gaps[b] > tol)]
    if b.size:
        raise LpNumericalFailure(
            f"margin LP undecided: witness margin {margins[b[0]]:.3g} and Gordan gap "
            f"{gaps[b[0]]:.3g} both miss lp_tol {tol:.3g}")
    return [ConeFeasibility(feasible=True, witness=y, margin=float(t)) if t > tol else
            ConeFeasibility(feasible=False, witness=None, margin=-float(g), weights=lam)
            for y, lam, t, g in zip(Y, L, margins, gaps)]


def _certify(stack: np.ndarray, Y: np.ndarray, L: np.ndarray):
    """Check candidate certificates for a (k, m, d) stack of blocks, one
    witness row of Y and one weight row of L per block, whatever found
    them.  Returns (Y, L, margins, gaps): each nonzero y scaled to
    |y|_inf = 1, each lambda scaled to sum 1, margins = min R y and
    gaps = |R^T lambda|_1; a lambda with a negative entry or zero sum
    gets gap inf, so it certifies nothing."""
    top = np.abs(Y).max(axis=1, keepdims=True)
    Y = np.divide(Y, top, out=np.zeros_like(Y), where=top > 0)
    total = L.sum(axis=1, keepdims=True)
    simplex = (L >= 0).all(axis=1) & (total[:, 0] > 0)
    L = np.divide(L, total, out=np.zeros_like(L), where=total > 0)
    margins = np.einsum("kmd,kd->km", stack, Y).min(axis=1)
    gaps = np.where(simplex, np.abs(np.einsum("km,kmd->kd", L, stack)).sum(axis=1), np.inf)
    return Y, L, margins, gaps


def _pair(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block's most antiparallel pair of rows (i, j), from a (k, m, d)
    stack of unit rows.  When the stack's cosines would pass _BLOCK
    entries, every pair is (0, 0), which certifies nothing."""
    k, m, _ = unit.shape
    if k * m * m > _BLOCK:
        return np.zeros(k, dtype=np.intp), np.zeros(k, dtype=np.intp)
    return np.divmod(np.matmul(unit, unit.transpose(0, 2, 1)).reshape(k, -1).argmin(axis=1), m)


def _screen(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate certificates (Y, L) for a (k, m, d) stack of blocks, found
    together: the witness is the mean of each block's unit rows; lambda
    sits on its most antiparallel pair of rows i and j (``_pair``), in
    proportion |r_j| to |r_i|, so R^T lambda vanishes when the two rows
    are opposite.  In a reflection group two cells on opposite sides of a
    mirror carry such rows."""
    norms = np.linalg.norm(stack, axis=2)
    unit = stack / norms[..., None]
    i, j = _pair(unit)
    b = np.arange(stack.shape[0])
    L = np.zeros(stack.shape[:2])
    L[b, i] = norms[b, j]
    L[b, j] += norms[b, i]
    return unit.mean(axis=1), L


def _triples(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate Gordan weights on three rows for a (k, m, d) stack of
    blocks, found together, with zero witnesses.  Each block keeps the
    screen's pair i, j (``_pair``).  For every third row r_k, the point
    of least norm on the plane through r_i, r_j and r_k,
    p = r_i + mu (r_j - r_i) + nu (r_k - r_i), comes from a 2x2 system
    solved by Cramer's rule, with barycentric weights (1 - mu - nu, mu,
    nu).  The k whose three weights are all >= 0 and whose p has the
    least |p|_1 is kept.  In R^2, three rows suffice when the block's
    rows surround the origin (Caratheodory), and one set of three holds
    the screen's pair: as it is the most antiparallel pair, some r_k
    then lies in the cone opposite r_i and r_j, and the triangle holds
    the origin, p = 0.  A block with no such k gets zero weights, which
    certify nothing."""
    i, j = _pair(stack / np.linalg.norm(stack, axis=2, keepdims=True))
    b = np.arange(stack.shape[0])
    ri = stack[b, i]
    a = stack[b, j] - ri
    B = stack - ri[:, None]
    aa = np.einsum("kd,kd->k", a, a)[:, None]
    ar = np.einsum("kd,kd->k", a, ri)[:, None]
    ab = np.einsum("kmd,kd->km", B, a)
    bb = np.einsum("kmd,kmd->km", B, B)
    br = np.einsum("kmd,kd->km", B, ri)
    det = aa * bb - ab * ab
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = (ab * br - ar * bb) / det
        nu = (ab * ar - aa * br) / det
        p = ri[:, None] + mu[..., None] * a[:, None] + nu[..., None] * B
    w = np.stack((1.0 - mu - nu, mu, nu))
    norm1 = np.where((det > 0) & (w >= 0).all(axis=0), np.abs(p).sum(axis=2), np.inf)
    k = norm1.argmin(axis=1)
    ok = np.flatnonzero(np.isfinite(norm1[b, k]))
    L = np.zeros(stack.shape[:2])
    L[ok, i[ok]], L[ok, j[ok]], L[ok, k[ok]] = w[:, ok, k[ok]]
    return np.zeros((stack.shape[0], stack.shape[2])), L


def _wolfe(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate certificates (Y, L) for a (k, m, d) stack, one block at a
    time: convex weights over a block's rows R of Wolfe's minimum-norm
    point of their hull (P. Wolfe, "Finding the nearest point in a
    polytope", Math. Programming 11, 1976), and p = R^T w as the witness.
    A block stops as soon as p gives a certificate: min R p > lp_tol *
    |p|_inf, so y = p / |p|_inf is a witness, or |p|_1 <= lp_tol.  At the
    minimum-norm point, <r, p> >= |p|^2 for every row r, so min R y >= |p|;
    and t* <= |p|_1.  It also stops when the most violating row is already
    in the corral or after _WOLFE_STEPS major cycles; ``_certify`` checks
    what it returns either way.
    """
    tol = DEFAULT_TOL.lp_tol
    L = np.zeros(stack.shape[:2])
    for R, lam in zip(stack, L):
        corral = [int(np.argmin(np.einsum("md,md->m", R, R)))]
        w = np.ones(1)
        for _ in range(_WOLFE_STEPS):
            p = w @ R[corral]
            v = R @ p
            j = int(np.argmin(v))
            if (v[j] > tol * np.abs(p).max() or np.abs(p).sum() <= tol
                    or v[j] >= p @ p or j in corral):
                break
            corral.append(j)
            w = np.append(w, 0.0)
            while True:
                # the point of least norm on the affine hull of the corral
                P = R[corral]
                a = np.linalg.lstsq((P[1:] - P[0]).T, -P[0], rcond=None)[0]
                alpha = np.concatenate(([1.0 - a.sum()], a))
                if (alpha > 0).all():
                    w = alpha
                    break
                # step from w toward alpha until a weight reaches 0, and drop it
                neg = np.flatnonzero(alpha <= 0)
                drop = w[neg] - alpha[neg]
                ratios = np.divide(w[neg], drop, out=np.zeros(neg.size), where=drop > 0)
                w = w + ratios.min() * (alpha - w)
                w[neg[np.argmin(ratios)]] = 0.0
                keep = w > 0
                corral = [c for c, k in zip(corral, keep) if k]
                w = w[keep]
        lam[corral] = w
    return np.stack([lam @ R for R, lam in zip(stack, L)]), L


# the order in which _solve_blocks asks for candidates: the cheapest first
_FINDERS = (_screen, _triples, _wolfe)


def strict_cones_feasible(
    cells: list[VoronoiCellSpec] | tuple[VoronoiCellSpec, ...],
) -> ConeFeasibility:
    """Decide whether the open cells intersect.

    The margin LP is  max t  s.t.  <c_k - p, y> >= t  for every cell k
    and every non-center orbit point p of that cell, with |y|_inf <= 1.
    The zero point is always feasible at t = 0, so the LP is bounded and
    feasible; the intersection is nonempty iff the optimum exceeds
    lp_tol.  The verdict comes with the certificate that decides it
    (``ConeFeasibility``).  This is the one-problem case of the margin
    LPs that ``s_set`` and the LP route of ``upper_bound_exact`` decide
    in chunks; every path shares one decision.  Nothing in the package
    calls it and it is not exported; it stays because the benchmark
    tracer wraps it by name on install.
    """
    return next(_margin_lps([cells]))


def in_Q(orbit: Orbit, y) -> bool:
    """Unique-argmax test: the top inner product beats the runner-up by
    more than sample_tol * (1 + |y|)."""
    y = np.asarray(y, dtype=float)
    vals = orbit.points @ y
    if vals.shape[0] == 1:
        return True
    top2 = np.partition(vals, vals.shape[0] - 2)[-2:]
    gap = float(top2[1] - top2[0])
    return gap > DEFAULT_TOL.sample_tol * (1.0 + float(np.linalg.norm(y)))


def is_principal(group: FiniteGroup, x) -> bool:
    """Trivial stabilizer, i.e. the orbit has full size |G|."""
    return stabilizer_order(group, x) == 1


def sample_principal(group: FiniteGroup, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian draw, rejected until the point is principal."""
    for _ in range(_SAMPLE_TRIES):
        x = rng.standard_normal(group.dim)
        if is_principal(group, x):
            return x
    raise NotNicePoint(f"no principal point found in {_SAMPLE_TRIES} Gaussian draws")


def sample_nice(bank: MaxFilterBank, rng: np.random.Generator) -> np.ndarray:
    """Principal point that also has a unique best representative in every
    template orbit."""
    for _ in range(_SAMPLE_TRIES):
        x = rng.standard_normal(bank.dim)
        if is_principal(bank.group, x) and all(in_Q(o, x) for o in bank.orbits):
            return x
    raise NotNicePoint(f"no nice point found in {_SAMPLE_TRIES} Gaussian draws")


@dataclass(frozen=True)
class SSet:
    """Orbit points of y whose open cells meet V_x, with LP witnesses."""

    members: np.ndarray
    witnesses: np.ndarray

    @property
    def size(self) -> int:
        return self.members.shape[0]


def _s_sets(group: FiniteGroup, pairs: Iterable) -> Iterator[tuple[Orbit, list]]:
    """(orbit of y, verdicts "V_q meets V_x" for q in [y]) per (x, y) of
    ``pairs``, from one lazy ``_margin_lps`` stream: a pair's cells are
    built when the stream reaches them and dropped after their chunk."""
    started: deque[Orbit] = deque()

    def problems():
        for x, y in pairs:
            cell_x, orbit_y = cell_of(group, x), orbit_of(group, y)
            started.append(orbit_y)
            yield from ([VoronoiCellSpec(orbit_y, k), cell_x] for k in range(orbit_y.size))

    verdicts = _margin_lps(problems())
    for first in verdicts:
        orbit_y = started.popleft()
        yield orbit_y, [first, *itertools.islice(verdicts, orbit_y.size - 1)]


def s_set(group: FiniteGroup, x, y) -> SSet:
    """S(x, y) = {q in [y] : V_q meets V_x}, in canonical orbit order.

    V_x is ``cell_of(group, x)``, centred on the orbit point within eq_tol
    of x if x is not principal.  The one-pair case of ``_s_sets``: the
    |[y]| questions "does V_q meet V_x" are independent margin LPs, each
    decided on its own.
    """
    for name, pt in (("x", x), ("y", y)):
        if not is_principal(group, pt):
            warnings.warn(f"s_set: {name} is not principal; result may be degenerate",
                          stacklevel=2)
    orbit_y, verdicts = next(_s_sets(group, [(x, y)]))
    return SSet(members=orbit_y.points[[r.feasible for r in verdicts]],
                witnesses=np.stack([r.witness for r in verdicts if r.feasible]))


@dataclass(frozen=True)
class ChoiceEnumeration:
    """F(x, y) of a nice pair.  Row k of ``assignments`` maps template i to
    members[assignments[k, i]], in itertools.product order."""

    aligned: np.ndarray           # v_i(x), the unique best representative of [z_i]
    members: np.ndarray           # points of S(x, y) near some v_i's best, orbit order
    assignments: np.ndarray       # (|F(x, y)|, n_templates) indices into members


def choice_assignments(bank: MaxFilterBank, x, y) -> ChoiceEnumeration:
    """Enumerate F(x, y): maps f with f(i) in S(x, y) attaining the best
    score of v_i(x) against the orbit of y, up to a sample_tol tie.

    Only the cells of those points of [y] are decided: by the cell
    geometry of ``_geometric_leaves``, pinned at V_x, for the tagged
    families, else by one margin LP each.  Requires x
    principal with a unique best representative in every template orbit;
    raises NotNicePoint otherwise, and warns if y is not principal.
    |F(x, y)| is the product of the per-template candidate counts; when
    it exceeds BUDGETS["choice_cap"] nothing is enumerated and
    BudgetExceeded is raised, without a partial.
    """
    x = np.asarray(x, dtype=float)
    group = bank.group
    if not is_principal(group, x):
        raise NotNicePoint("x is not principal")
    if not all(in_Q(orb, x) for orb in bank.orbits):
        raise NotNicePoint("x has a tied best representative for a template orbit")
    if not is_principal(group, y):
        warnings.warn("y is not principal; F(x, y) may be degenerate", stacklevel=2)
    aligned = np.stack([orb.points[int(np.argmax(orb.points @ x))] for orb in bank.orbits])

    cell_x, orbit_y = cell_of(group, x), orbit_of(group, y)
    scores = orbit_y.points @ aligned.T
    near = scores >= scores.max(axis=0) - DEFAULT_TOL.sample_tol
    picks = np.flatnonzero(near.any(axis=1))
    leaves = _geometric_leaves(group, (cell_x.orbit, orbit_y), cell_x.index)
    if leaves is None:
        verdicts = _margin_lps([[VoronoiCellSpec(orbit_y, k), cell_x] for k in picks])
        inside = picks[[r.feasible for r in verdicts]]
    else:
        inside = picks[np.isin(picks, [k for _, k in leaves])]
    candidates = [np.flatnonzero(col) for col in near[inside].T]
    if not all(c.size for c in candidates):
        raise NotNicePoint("no S-set member attains the best score for a template")

    total = math.prod(c.size for c in candidates)
    cap = BUDGETS["choice_cap"]
    if total > cap:
        raise BudgetExceeded(f"choice_assignments: {total} assignments exceed the cap of {cap}")
    return ChoiceEnumeration(aligned=aligned, members=orbit_y.points[inside],
                             assignments=np.array(list(itertools.product(*candidates))))


def proven_chi(group: FiniteGroup) -> tuple[int, str]:
    """A proven upper bound on chi(G) and its rule, read off the elements:
    1, "reflection_group", if ``is_reflection_group`` holds, the chambers
    being the cells; else 2, "planar_sectors", if G moves at most a plane
    (the mean element projects onto the fixed space, so the mean trace is
    its dimension): a finite subgroup of O(2) not generated by reflections
    is cyclic, and an open sector of width 2*pi/|G| meets at most two of
    another orbit's; else |G|, "order_bound".  A larger chi only lowers alpha_tilde."""
    if is_reflection_group(group):
        return 1, "reflection_group"
    if group.dim - round(float(np.trace(group.stack, axis1=1, axis2=2).mean())) <= 2:
        return 2, "planar_sectors"
    return group.order, "order_bound"


@dataclass(frozen=True)
class ChiEstimate:
    """Sampled lower bound for chi(G) = max |S(x, y)| over principal pairs."""

    chi_lower: int
    saturated: bool
    witness_x: np.ndarray
    witness_y: np.ndarray
    sizes: np.ndarray


def voronoi_characteristic(group: FiniteGroup, n_samples: int, seed: int) -> ChiEstimate:
    """Monte Carlo lower bound on chi(G) over seeded Gaussian principal
    pairs.  Sample k is driven by default_rng((seed, tag, k)), so prefixes
    of the sample stream agree across n_samples.  All pairs share one LP
    stream; the witness pair, the first with the largest S-set, is drawn again.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    def pair(k: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng((seed, STREAMS["chi_sampling"], k))
        return sample_principal(group, rng), sample_principal(group, rng)

    sizes = np.array([sum(r.feasible for r in verdicts)
                      for _, verdicts in _s_sets(group, map(pair, range(n_samples)))])
    k = int(np.argmax(sizes))
    wx, wy = pair(k)
    return ChiEstimate(chi_lower=int(sizes[k]), saturated=bool(sizes[k] == group.order),
                       witness_x=wx, witness_y=wy, sizes=sizes)
