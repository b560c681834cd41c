"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: plain loops, full
enumerations, and high-precision arithmetic.  The package is never
allowed to import from this module.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

from maxfilter_lab.errors import BudgetExceeded
from maxfilter_lab.filtering import MaxFilterBank
from maxfilter_lab.groups import FiniteGroup, orbit_of
from maxfilter_lab.stability import UpperBound, _lam_min_batch
from maxfilter_lab.tolerances import DEFAULT_TOL
from maxfilter_lab.voronoi import VoronoiCellSpec, strict_cones_feasible


def brute_max_filter(stack: np.ndarray, x, y) -> float:
    """max_g <g x, y> by an explicit loop over elements."""
    best = -math.inf
    for M in stack:
        best = max(best, float(np.dot(M @ np.asarray(x, float), np.asarray(y, float))))
    return best


def brute_orbit_min_distance(stack: np.ndarray, x, y) -> float:
    """min_g |x - g y| by an explicit loop; no polarization."""
    x = np.asarray(x, float)
    best = math.inf
    for M in stack:
        best = min(best, float(np.linalg.norm(x - M @ np.asarray(y, float))))
    return best


def brute_circular_max(f, g) -> float:
    """max over shifts a of sum_i f[(i - a) % d] * g[i], pure index loops."""
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    d = f.shape[0]
    best = -math.inf
    for a in range(d):
        acc = 0.0
        for i in range(d):
            acc += f[(i - a) % d] * g[i]
        best = max(best, acc)
    return best


def roll_circular_max(f, g) -> float:
    """max over shifts a of np.roll(f, a) @ g, one rolled copy per shift:
    the referee for the bits of max_filter_circular_brute."""
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    best = -math.inf
    for a in range(f.shape[0]):
        best = max(best, float(np.roll(f, a) @ g))
    return best


def brute_beta_relaxed(bank) -> float:
    """Full |G|^n enumeration of template-image tuples; no pinning."""
    stack = bank.group.stack
    Z = bank.templates
    n = Z.shape[0]
    best = 0.0
    for combo in itertools.product(range(stack.shape[0]), repeat=n):
        cols = np.stack([stack[g] @ Z[i] for i, g in enumerate(combo)], axis=1)
        best = max(best, float(np.linalg.norm(cols, 2)))
    return best


def realized_tuples(bank, n_samples: int, rng) -> set:
    """Tuples of per-template argmax representatives realized by random
    directions.  A tuple appears iff its open-cell intersection has
    positive measure, so with enough samples this is exactly the feasible
    set of the exact upper bound."""
    group = bank.group
    orbits = [orbit_of(group, z) for z in bank.templates]
    seen = set()
    for _ in range(n_samples):
        y = rng.standard_normal(group.dim)
        key = tuple(int(np.argmax(o.points @ y)) for o in orbits)
        seen.add(key)
    return seen


def brute_beta_exact_sampled(bank, n_samples: int, rng) -> float:
    """Sampled feasible-tuple version of the exact upper bound."""
    orbits = [orbit_of(bank.group, z) for z in bank.templates]
    best = 0.0
    for key in realized_tuples(bank, n_samples, rng):
        cols = np.stack([orbits[i].points[k] for i, k in enumerate(key)], axis=1)
        best = max(best, float(np.linalg.norm(cols, 2)))
    return best


def dfs_upper_bound_exact(bank, max_lp_solves: int = 500_000) -> UpperBound:
    """Referee for upper_bound_exact: recursive depth-first search with
    one strict_cones_feasible LP per child, same pinning, visit order
    and child order.  Ties go to the first leaf reached."""
    group = bank.group
    n = bank.n_templates
    orbits = [orbit_of(group, z) for z in bank.templates]
    cells = [[VoronoiCellSpec(orb, c) for c in range(orb.size)] for orb in orbits]
    pin = int(np.argmax([orb.size for orb in orbits]))
    visit = [pin] + [i for i in range(n) if i != pin]

    best = -math.inf
    best_choice = None
    solves = 0
    leaves = 0

    def extend(pos: int, cur_cells: list, choice: dict) -> None:
        nonlocal best, best_choice, solves, leaves
        if pos == n:
            leaves += 1
            cols = np.stack([orbits[t].points[c] for t, c in choice.items()], axis=1)
            sigma = float(np.linalg.svd(cols, compute_uv=False)[0])
            if sigma > best:
                best = sigma
                best_choice = dict(choice)
            return
        t = visit[pos]
        for c in range(1 if pos == 0 else orbits[t].size):
            if solves >= max_lp_solves:
                raise BudgetExceeded("referee LP budget exhausted",
                                     partial=None if best == -math.inf else best)
            solves += 1
            trial = cur_cells + [cells[t][c]]
            if strict_cones_feasible(trial).feasible:
                choice[t] = c
                extend(pos + 1, trial, choice)
                del choice[t]

    extend(0, [], {})
    elems = tuple(int(orbits[i].rep_elements[best_choice[i]]) for i in range(n))
    return UpperBound(beta=float(best), argmax_tuple=elems,
                      lp_solves=solves, feasible_tuples=leaves)


def lp_route(bank) -> MaxFilterBank:
    """The same bank on an untagged copy of its group, which sends
    upper_bound_exact down the LP route.  The copy keeps the element
    order, so element indices mean the same in both banks."""
    group = FiniteGroup.from_matrices(bank.group.stack)
    assert group.family is None and np.array_equal(group.stack, bank.group.stack)
    return MaxFilterBank(group, bank.templates)


def brute_alpha_tilde(bank, chi: int) -> float:
    """Direct min over size-ceil(n/chi) subsets and all orbit assignments
    of sqrt(lambda_min) of the summed outer products."""
    Z = bank.templates
    n, d = Z.shape
    k = math.ceil(n / chi)
    if k <= d - 1:
        return 0.0
    orbits = [orbit_of(bank.group, z) for z in Z]
    best = math.inf
    for subset in itertools.combinations(range(n), k):
        pts = [orbits[i].points for i in subset]
        for choice in itertools.product(*[range(p.shape[0]) for p in pts]):
            M = np.zeros((d, d))
            for p, c in zip(pts, choice):
                v = p[c]
                M += np.outer(v, v)
            best = min(best, float(np.linalg.eigvalsh(M)[0]))
    return math.sqrt(max(best, 0.0))


def dfs_alpha_tilde(bank, chi: int) -> float:
    """Referee for alpha_tilde: the same depth-first search over subset
    prefixes and ± representatives, with no pinned template and no first
    incumbent, so every branch is pruned against leaves it reached."""
    n, d = bank.n_templates, bank.dim
    k = math.ceil(n / chi)
    if k <= d - 1:
        return 0.0
    outers = []
    for z in bank.templates:
        R = loop_pm_representatives(orbit_of(bank.group, z).points)
        outers.append(np.einsum("rd,re->rde", R, R))
    best = math.inf

    def descend(start: int, left: int, partial: np.ndarray) -> None:
        nonlocal best
        lam = np.linalg.eigvalsh(partial)[:, 0]
        if left == 0:
            best = min(best, float(lam.min()))
            return
        live = partial[lam < best]
        if live.shape[0] == 0:
            return
        for nxt in range(start, n - left + 1):
            child = (live[:, None, :, :] + outers[nxt][None, :, :, :]).reshape(-1, d, d)
            descend(nxt + 1, left - 1, child)

    descend(0, k, np.zeros((1, d, d)))
    return math.sqrt(max(best, 0.0))


def grid_alpha_tilde(bank, chi: int, n_grid: int) -> np.ndarray:
    """s_k(u) at n_grid angles t = j*pi/(n_grid - 1), u = (cos t, sin t),
    for a planar bank: the sum of the k = ceil(n/chi) smallest, over the
    templates, of min over orbit points p of <p, u>^2.  By Rayleigh-Ritz
    alpha_tilde^2 is the min of s_k over the whole circle."""
    n = bank.n_templates
    k = math.ceil(n / chi)
    orbits = [orbit_of(bank.group, z).points for z in bank.templates]
    t = np.linspace(0.0, math.pi, n_grid)
    out = np.empty(n_grid)
    for lo in range(0, n_grid, 1000):
        u = np.stack([np.cos(t[lo:lo + 1000]), np.sin(t[lo:lo + 1000])], axis=1)
        c = np.stack([((u @ P.T) ** 2).min(axis=1) for P in orbits], axis=1)
        out[lo:lo + 1000] = np.sort(c, axis=1)[:, :k].sum(axis=1)
    return out


def rows_strictly_inside(rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The constraint-row rule for strict cell membership: probe j is inside
    when every margin <r, probes[j]> over its stacked normals rows[j]
    (center - q for every other orbit point q of each of its cells) exceeds
    lp_tol * |probes[j]|_inf; with no rows every probe is."""
    verdicts = []
    for R, y in zip(rows, probes):
        floor = DEFAULT_TOL.lp_tol * float(np.abs(y).max())
        verdicts.append(all(float(r @ y) > floor for r in R))
    return np.array(verdicts, dtype=bool)


def brute_s_members(group, x, y, n_samples: int, rng) -> set:
    """Indices (into the orbit of y) of cells hit by random points of V_x.

    Misses members whose shared region with V_x is thin, so compare as a
    subset; with generous sampling it equals the LP answer on generic
    desk-scale instances.
    """
    orbit_x = orbit_of(group, x)
    orbit_y = orbit_of(group, y)
    ix = int(np.argmin(np.linalg.norm(orbit_x.points - np.asarray(x, float), axis=1)))
    seen = set()
    for _ in range(n_samples):
        w = rng.standard_normal(group.dim)
        if int(np.argmax(orbit_x.points @ w)) != ix:
            continue
        seen.add(int(np.argmax(orbit_y.points @ w)))
    return seen


def sigma_mpmath(ell: int, lam: float, t: float) -> float:
    """High-precision evaluation of the closed-form lower-tail constant."""
    with mpmath.workdps(60):
        ell_, lam_, t_ = mpmath.mpf(ell), mpmath.mpf(lam), mpmath.mpf(t)
        e = mpmath.e
        inv = 1 / (lam_ - 1)
        val = (1 / mpmath.sqrt(e)) * (1 - 1 / lam_) \
            * (1 / (2 * (2 + mpmath.sqrt(2)) * mpmath.sqrt(e) * lam_)) ** inv \
            * (1 / mpmath.sqrt(t_)) ** inv \
            * mpmath.exp(-t_ * lam_ * inv) \
            * mpmath.sqrt(ell_)
        return float(val)


def distortion_bound_mpmath(m: int, chi: int, d: int, n: int,
                            lambda0: float) -> float:
    """High-precision evaluation of the closed-form distortion bound."""
    with mpmath.workdps(60):
        m_, chi_ = mpmath.mpf(m), mpmath.mpf(chi)
        lam = mpmath.mpf(n) / (chi_ * d)
        lam0 = mpmath.mpf(lambda0)
        C = 4 * mpmath.e ** mpmath.mpf("1.5")
        c = 2 + (mpmath.sqrt(lam0) + 2) / (lam0 - 1)
        base = C * chi_ ** mpmath.mpf("1.5") * m_ * mpmath.sqrt(mpmath.log(mpmath.e * m_))
        return float(base ** (1 + c / mpmath.sqrt(lam)))


# every family in FAMILIES, with dihedral_2d at m = 1, 2 and 3
BACKEND_CASES = [("cyclic_rotation_2d", 5), ("axis_rotation_3d", 4),
                 ("dihedral_2d", 1), ("dihedral_2d", 2), ("dihedral_2d", 3),
                 ("sign_flips", 3), ("permutations", 4), ("plus_minus_id", 3),
                 ("circular_shifts", 6)]


def degenerate_points(group, rng) -> np.ndarray:
    """Rows where a backend route could slip: the zero vector, repeated
    coordinates, points exactly on every mirror at angle k*pi/m of a
    planar dihedral group, and a few Gaussian rows."""
    d = group.dim
    rows = [np.zeros(d), np.ones(d), -2.0 * np.ones(d),
            np.repeat([0.5, -1.5], [d - d // 2, d // 2]),
            np.where(np.arange(d) % 2 == 0, 0.0, -0.75)]
    if group.family == "dihedral_2d":
        m = group.order // 2
        rows += [r * np.array([math.cos(k * math.pi / m), math.sin(k * math.pi / m)])
                 for k in range(2 * m) for r in (1.0, 2.5)]
    rows += list(rng.standard_normal((4, d)))
    return np.stack(rows)


# ---------------------------------------------------------------------------
# the one-candidate-at-a-time dedup loops that groups._first_seen replaced;
# each keeps a row unless an earlier kept row lies within the threshold


def loop_orbit_of(group, x) -> tuple[np.ndarray, np.ndarray]:
    """(points, rep_elements) of the orbit of x, one image at a time
    against the stacked points kept so far, Euclidean, eq_tol*(1+|x|)."""
    x = np.asarray(x, dtype=float)
    images = group.apply_all(x)
    thresh = DEFAULT_TOL.eq_tol * (1.0 + float(np.linalg.norm(x)))
    points, reps = [], []
    for gi, p in enumerate(images):
        if not points or np.linalg.norm(np.stack(points) - p, axis=1).min() > thresh:
            points.append(p)
            reps.append(gi)
    return np.stack(points), np.array(reps, dtype=int)


def loop_dedup_stack(stack: np.ndarray, eq_tol: float) -> np.ndarray:
    """First matrix of each eq_tol cluster in max-abs norm, in given order."""
    kept: list[np.ndarray] = []
    for M in stack:
        if not any(np.abs(M - K).max() <= eq_tol for K in kept):
            kept.append(M)
    return np.stack(kept) if kept else stack[:0]


def loop_closure(generators) -> np.ndarray:
    """Right-multiplication BFS closure, in discovery order (not the
    canonical order): each product f @ g, frontier-major and
    generator-minor, is tested alone against every element and every
    new product so far."""
    eq_tol = DEFAULT_TOL.eq_tol
    gen_stack = loop_dedup_stack(np.stack([np.asarray(g, float) for g in generators]), eq_tol)
    elements = [np.eye(gen_stack.shape[1])]

    def known(M) -> bool:
        return bool(np.abs(np.stack(elements) - M).max(axis=(1, 2)).min() <= eq_tol)

    frontier = [g for g in gen_stack if not known(g)]
    elements.extend(frontier)
    while frontier:
        new: list[np.ndarray] = []
        for f in frontier:
            for g in gen_stack:
                cand = f @ g
                if not known(cand) and not any(np.abs(cand - M).max() <= eq_tol for M in new):
                    new.append(cand)
        elements.extend(new)
        frontier = new
    return np.stack(elements)


def loop_pm_representatives(points: np.ndarray) -> np.ndarray:
    """alpha_tilde's representatives of the orbit points up to sign: p is
    kept unless a kept q has |p + q| <= eq_tol*(1+|p|)."""
    reps: list[np.ndarray] = []
    for p in points:
        thresh = DEFAULT_TOL.eq_tol * (1.0 + float(np.linalg.norm(p)))
        if not any(np.linalg.norm(p + q) <= thresh for q in reps):
            reps.append(p)
    return np.stack(reps)


def loop_pm_id_witness(Z: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, float]:
    """(mask, x, y, target_alpha) of the pm_id witness, one partition at a
    time over all 2^n masks; the first strictly least mask wins."""
    n, d = Z.shape
    best = (math.inf, None, None)
    for mask in range(2 ** n):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        A = Z[sel].T @ Z[sel] if sel.any() else np.zeros((d, d))
        B = Z[~sel].T @ Z[~sel] if (~sel).any() else np.zeros((d, d))
        val = float(_lam_min_batch(np.stack([A, B])).sum())
        if val < best[0]:
            best = (val, mask, (A, B))
    delta_sq, mask, (A, B) = best
    u = np.linalg.eigh(A)[1][:, 0]
    v = np.linalg.eigh(B)[1][:, 0]
    return mask, u + v, u - v, math.sqrt(max(delta_sq, 0.0))


def dense_closure_defect(stack: np.ndarray) -> float:
    """Max over all |G|^2 products, built at once, of the max-abs distance
    to the nearest element."""
    m, d = stack.shape[0], stack.shape[1]
    prods = np.einsum("aij,bjk->abik", stack, stack).reshape(m * m, d, d)
    dist = np.abs(prods[:, None, :, :] - stack[None, :, :, :]).max(axis=(2, 3))
    return float(dist.min(axis=1).max())
