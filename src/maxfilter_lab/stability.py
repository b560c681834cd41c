"""Lipschitz bounds for max filter banks.

Four bounds are computed per bank: the exact upper constant over finite
groups (max spectral norm over jointly realizable tuples), the relaxed
upper constant (all tuples), a sampled estimate of the sharp lower
constant, and the certified pigeonhole lower constant alpha_tilde.
Closed-form distortion predictions for Gaussian templates and the two
optimality witness constructions round out the module.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import BUDGETS, BudgetExceeded, CaseMismatch, DomainError, NotNicePoint
from .filtering import (MaxFilterBank, _pair_distances, apply_bank, apply_bank_batch,
                        quotient_distance)
from .groups import _BLOCK, _first_seen, is_reflection_group
from .streams import STREAMS
from .tolerances import DEFAULT_TOL
from .voronoi import _pinned_leaves, cell_of, choice_assignments, proven_chi, sample_nice

__all__ = [
    "UpperBound",
    "AlphaSharp",
    "EmpiricalLipschitz",
    "DistortionBoundParams",
    "WitnessPair",
    "StabilityReport",
    "upper_bound_exact",
    "upper_bound_relaxed",
    "pair_lower_value",
    "lower_bound_sharp",
    "alpha_tilde",
    "empirical_lipschitz",
    "theoretical_sigma",
    "theoretical_distortion_bound",
    "optimality_witness",
    "compute_stability_report",
    "ordering_audit",
]

_RELAXED_CHUNK = 4096    # tuples per vectorized step of upper_bound_relaxed
_NICE_ATTEMPTS = 10      # draws per nice pair in lower_bound_sharp
_MIN_SEPARATION = 1e-6   # quotient distance below which empirical_lipschitz drops a pair
_PAIR_BATCH = 1024       # smallest Gaussian batch of empirical_lipschitz
_AUDIT_SLACK = 1e-7      # slack of each ordering_audit step and of the CLI's sandwich checks


def _lam_min_batch(S: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of a batch of symmetric (N, d, d) matrices."""
    d = S.shape[-1]
    if d == 1:
        return S[:, 0, 0]
    if d == 2:
        a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
        half = 0.5 * (a + c)
        return half - np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return np.linalg.eigvalsh(S)[:, 0]


# ---------------------------------------------------------------------------
# upper bounds


@dataclass(frozen=True)
class UpperBound:
    beta: float
    argmax_tuple: tuple[int, ...]   # one group-element index per template
    lp_solves: int                  # margin-LP problems of the LP route; 0 on the geometric route
    feasible_tuples: int


def upper_bound_exact(bank: MaxFilterBank) -> UpperBound:
    """Max of |{g_i z_i}|_2->2 over tuples whose open cells intersect.

    One template is pinned to a single orbit point: left-multiplying a
    whole tuple by any group element maps feasible tuples to feasible
    tuples and preserves the spectral norm.  The pinned template's orbit
    goes first, the others follow in template order, and
    ``voronoi._pinned_leaves`` supplies the feasible leaves in
    lexicographic order: from the cell geometry for the tagged families,
    which solves no LP, else, and whenever that geometry hands a bank
    back, from the margin-LP search.  Ties in beta go to the first leaf.
    ``lp_solves`` counts the LP problems (0 on the geometric route), and
    only the LP search is bound by BUDGETS["lp_solves"]: BudgetExceeded
    is raised exactly when it needs more LPs, after solving that many and
    no more.  Its ``partial`` is the best leaf scored so far, so it is
    None unless the budget runs out on the last level.
    """
    n = bank.n_templates
    pin = int(np.argmax([orb.size for orb in bank.orbits]))
    visit = [pin] + [i for i in range(n) if i != pin]
    orbits = [bank.orbits[t] for t in visit]
    leaves, solves, finished = _pinned_leaves(bank.group, orbits)
    sigma = _spectral_norms(orbits, np.array(leaves)) if leaves else None
    if not finished:
        raise BudgetExceeded("upper_bound_exact LP budget exhausted",
                             partial=None if sigma is None else float(sigma.max()))
    if sigma is None:
        raise RuntimeError("no feasible tuple found; tolerances are inconsistent")
    i = int(np.argmax(sigma))
    choice = dict(zip(visit, leaves[i]))
    elems = tuple(int(bank.orbits[t].rep_elements[choice[t]]) for t in range(n))
    return UpperBound(beta=float(sigma[i]), argmax_tuple=elems,
                      lp_solves=solves, feasible_tuples=len(leaves))


def _spectral_norms(orbits, idx: np.ndarray) -> np.ndarray:
    """Spectral norm of each tuple of an (L, n) index array: row l takes
    point idx[l, i] of orbits[i] as column i."""
    cols = np.stack([orb.points[idx[:, i]] for i, orb in enumerate(orbits)], axis=2)
    return np.linalg.svd(cols, compute_uv=False)[:, 0]


def upper_bound_relaxed(bank: MaxFilterBank) -> float:
    """Max spectral norm over ALL tuples, no cell-feasibility filter.

    Same pinning symmetry as the exact search; enumeration is vectorized
    over chunks of the remaining index product, last orbit fastest.  The
    count is exact however large, and a chunk's rows are decoded digit by
    digit, so no array shape holds the whole product.  Raises
    BudgetExceeded before any chunk that would pass
    BUDGETS["tuple_leaves"] tuples.
    """
    orbits = bank.orbits
    pin = int(np.argmax([orb.size for orb in orbits]))
    sizes = [1 if i == pin else orbits[i].size for i in range(len(orbits))]
    total = math.prod(sizes)
    best = -math.inf
    for lo in range(0, total, _RELAXED_CHUNK):
        hi = min(lo + _RELAXED_CHUNK, total)
        if hi > BUDGETS["tuple_leaves"]:
            raise BudgetExceeded("upper_bound_relaxed tuple budget exhausted",
                                 partial=None if best == -math.inf else best)
        rest, digits = np.arange(lo, hi), []
        for size in reversed(sizes):
            rest, digit = np.divmod(rest, size)
            digits.append(digit)
        idx = np.stack(digits[::-1], axis=1)
        best = max(best, float(_spectral_norms(orbits, idx).max()))
    return float(best)


# ---------------------------------------------------------------------------
# lower bounds


def pair_lower_value(bank: MaxFilterBank, x, y) -> float:
    """Inner value of the sharp lower bound at one nice pair:
    max over admissible assignments f of
    sqrt( sum over S-members w of lambda_min( sum_{i in f^-1(w)} v_i v_i^T ) ).
    Raises BudgetExceeded when |F(x, y)| exceeds BUDGETS["choice_cap"].
    """
    enum = choice_assignments(bank, x, y)
    best = -math.inf
    for f in enum.assignments:
        blocks = [enum.aligned[f == w] for w in np.unique(f)]
        lam = _lam_min_batch(np.stack([V.T @ V for V in blocks]))
        best = max(best, float(lam.sum()))
    return float(math.sqrt(max(best, 0.0)))


@dataclass(frozen=True)
class AlphaSharp:
    alpha: float
    witness_x: np.ndarray
    witness_y: np.ndarray


def lower_bound_sharp(bank: MaxFilterBank, n_pairs: int, seed: int) -> AlphaSharp:
    """Sampled estimate of the sharp lower constant: min of pair_lower_value
    over seeded Gaussian nice pairs.  An upper estimate of the true inf;
    the certified lower bound is alpha_tilde.  Each pair's S-set members
    come from ``choice_assignments``: the cell geometry for the tagged
    families, which solves no LP, else the margin LP.  A pair with more
    than BUDGETS["choice_cap"] choice assignments raises BudgetExceeded.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    best = math.inf
    wx = wy = None
    for k in range(n_pairs):
        val = None
        for attempt in range(_NICE_ATTEMPTS):
            rng = np.random.default_rng((seed, STREAMS["alpha_sharp"], k, attempt))
            try:
                x = sample_nice(bank, rng)
                y = sample_nice(bank, rng)
                val = pair_lower_value(bank, x, y)
                break
            except NotNicePoint:
                continue
        if val is None:
            raise NotNicePoint(f"pair {k}: no nice pair found in {_NICE_ATTEMPTS} attempts")
        if val < best:
            best, wx, wy = val, x, y
    return AlphaSharp(alpha=float(best), witness_x=wx, witness_y=wy)


def alpha_tilde(bank: MaxFilterBank, chi: int) -> float:
    """Pigeonhole lower bound: exact min of sqrt(lambda_min) of
    sum_{i in I} (g_i z_i)(g_i z_i)^T over subsets of size k = ceil(n/chi)
    and all assignments.  Larger subsets cannot do better since
    lambda_min is superadditive over PSD sums.  It is certified only when
    ``chi`` is an upper bound on the Voronoi characteristic chi(G).

    At d = 2 the minimum is read off the unit circle (``_circle_sweep``):
    by Rayleigh-Ritz it is the min over unit u of the sum of the k
    smallest min_{p in orbit i} <p, u>^2.  In higher dimensions a subset
    search finds it.  Assignments are deduplicated by the rank-1 summand
    they induce (p and -p agree; see ``groups._first_seen``).  The search
    shares partial sums along subset prefixes, builds the children of
    its live prefixes at most _BLOCK entries at a time, and prunes
    branches whose partial lambda_min already meets the incumbent
    (adding PSD terms never lowers lambda_min).  The first template of
    every subset is pinned to its first representative: left-multiplying
    every g_i by one h in G permutes each orbit up to sign and keeps
    lambda_min, as the pin of ``upper_bound_exact``.  The first incumbent
    is the leaf of one greedy pinned dive, which at each level keeps the
    child of smallest lambda_min; it is attained by a real assignment.

    BUDGETS["alpha_tilde_evals"] counts every lambda_min evaluation: the
    sweep's pieces and the search's partial sums, the dive's included.
    BudgetExceeded is raised before the count would pass the cap, with
    the incumbent as ``partial``: None before the sweep's first block or
    inside the dive (always so at caps 0 and 1).
    """
    if chi < 1:
        raise ValueError("chi must be >= 1")
    n, d = bank.n_templates, bank.dim
    k = math.ceil(n / chi)
    if k <= d - 1:
        return 0.0

    best = math.inf
    used = 0

    def evaluate(partial: np.ndarray) -> np.ndarray:
        nonlocal used
        if used + partial.shape[0] > BUDGETS["alpha_tilde_evals"]:
            raise BudgetExceeded(
                "alpha_tilde evaluation budget exhausted",
                partial=None if best == math.inf else float(math.sqrt(max(best, 0.0))))
        used += partial.shape[0]
        return _lam_min_batch(partial)

    if d == 2:
        for S in _circle_sweep(bank.orbits, k):
            best = min(best, float(evaluate(S).min()))
        return float(math.sqrt(max(best, 0.0)))

    outers: list[np.ndarray] = []
    for orb in bank.orbits:
        signed = np.stack([orb.points, -orb.points], axis=1).reshape(-1, d)
        kept = _first_seen(signed, DEFAULT_TOL.eq_tol * (1.0 + np.linalg.norm(signed, axis=1)))
        R = signed[kept[kept % 2 == 0]]
        outers.append(np.einsum("rd,re->rde", R, R))

    def terms(nxt: int, left: int) -> np.ndarray:
        return outers[nxt][:1] if left == k else outers[nxt]

    def descend(start: int, left: int, partial: np.ndarray) -> None:
        nonlocal best
        lam = evaluate(partial)
        if left == 0:
            best = min(best, float(lam.min()))
            return
        live = partial[lam < best]
        for nxt in range(start, n - left + 1):
            term = terms(nxt, left)
            step = max(1, _BLOCK // term.size)
            # built inline, so a block is freed before the next one is built
            for lo in range(0, live.shape[0], step):
                descend(nxt + 1, left - 1, (live[lo:lo + step, None] + term).reshape(-1, d, d))

    # the greedy dive: (template, summand) children of the one kept prefix
    start, acc = 0, np.zeros((d, d))
    for left in range(k, 0, -1):
        cand = [(nxt, term) for nxt in range(start, n - left + 1) for term in terms(nxt, left)]
        kids = acc + np.stack([term for _, term in cand])
        lam = evaluate(kids)
        j = int(np.argmin(lam))
        start, acc = cand[j][0] + 1, kids[j]
    best = float(lam[j])

    descend(0, k, np.zeros((1, d, d)))
    return float(math.sqrt(max(best, 0.0)))


def _circle_sweep(orbits, k: int) -> Iterator[np.ndarray]:
    """Subset sums S of a planar bank whose least lambda_min is alpha_tilde^2,
    the min over u = (cos t, sin t) of s_k(t), the sum of the k smallest
    c_i(t) = min_{p in orbit i} <p, u>^2.

    As <p, u>^2 = |p|^2 sin^2(t - psi_p) with psi_p the angle of p plus
    pi/2, and all points of an orbit share one norm, c_i takes the point
    whose psi is nearest to t (mod pi), and switches point only at the
    bisectors of neighbouring psi.  Between two consecutive switches of
    any template, c_i and c_j cross only where u is orthogonal to p_i - p_j
    or to p_i + p_j.  Inside each piece so cut, the k smallest templates
    and their points are fixed, so s_k(t) = u^T S u for one real subset
    sum S, read at the piece's midpoint.  Every lambda_min(S) is at least
    alpha_tilde^2, and the piece holding a minimizer of s_k attains it.
    Yields one (pieces, 2, 2) array of S per block of switches.
    """
    n = len(orbits)
    pts, bis = [], []
    for orb in orbits:
        psi = np.mod(np.arctan2(orb.points[:, 1], orb.points[:, 0]) + np.pi / 2, np.pi)
        order = np.argsort(psi)
        # one neighbour across the wrap on each side, so searchsorted on the
        # m + 1 bisectors gives the active point of every t in [0, pi]
        wrap = np.concatenate((order[-1:], order, order[:1]))
        ext = np.concatenate((psi[order[-1:]] - np.pi, psi[order], psi[order[:1]] + np.pi))
        pts.append(orb.points[wrap])
        bis.append((ext[:-1] + ext[1:]) / 2)
    edges = np.unique(np.concatenate([[0.0, np.pi]] + [np.mod(b[:-1], np.pi) for b in bis]))
    ii, jj = np.triu_indices(n, 1)
    # switch intervals per block: each cuts into at most 2*pairs + 1 pieces of n points
    step = max(1, _BLOCK // (2 * n * (2 * ii.size + 1)))
    for lo in range(0, edges.size - 1, step):
        hi = min(lo + step, edges.size - 1)
        a, b = edges[lo:hi], edges[lo + 1:hi + 1]
        act = np.stack([p[np.searchsorted(c, (a + b) / 2)] for p, c in zip(pts, bis)], axis=1)
        w = np.concatenate((act[:, ii] - act[:, jj], act[:, ii] + act[:, jj]), axis=1)
        cross = np.mod(np.arctan2(w[..., 1], w[..., 0]) + np.pi / 2, np.pi)
        inner = np.where((cross > a[:, None]) & (cross < b[:, None]), cross, b[:, None])
        cuts = np.sort(np.concatenate((a[:, None], inner, b[:, None]), axis=1), axis=1)
        piece = np.diff(cuts, axis=1) > 0
        t = ((cuts[:, :-1] + cuts[:, 1:]) / 2)[piece]
        V = act[np.nonzero(piece)[0]]
        c = np.einsum("mnd,md->mn", V, np.stack((np.cos(t), np.sin(t)), axis=1)) ** 2
        V = np.take_along_axis(V, np.argpartition(c, k - 1, axis=1)[:, :k, None], axis=1)
        yield np.einsum("mki,mkj->mij", V, V)


@dataclass(frozen=True)
class EmpiricalLipschitz:
    alpha_emp: float
    beta_emp: float
    min_pair: np.ndarray       # (2, d): the pair attaining the min ratio
    max_pair: np.ndarray
    ratios: np.ndarray
    distances: np.ndarray
    image_distances: np.ndarray


def empirical_lipschitz(
    bank: MaxFilterBank,
    n_pairs: int,
    seed: int,
    stream: int = 0,
) -> EmpiricalLipschitz:
    """Min and max of |Phi x - Phi y| / d([x],[y]) over seeded Gaussian
    pairs; pairs closer than _MIN_SEPARATION in the quotient are rejected
    to avoid ratio instability near the diagonal.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    group, d = bank.group, bank.dim
    rng = np.random.default_rng((seed, STREAMS["empirical_pairs"], stream))
    Xs, Ys, dist_all, dphi_all = [], [], [], []
    collected = 0
    while collected < n_pairs:
        b = max(_PAIR_BATCH, 2 * (n_pairs - collected))
        X = rng.standard_normal((b, d))
        Y = rng.standard_normal((b, d))
        dist = _pair_distances(group, X, Y)
        keep = dist > _MIN_SEPARATION
        X, Y, dist = X[keep], Y[keep], dist[keep]
        dphi = np.linalg.norm(apply_bank_batch(bank, X) - apply_bank_batch(bank, Y), axis=1)
        Xs.append(X); Ys.append(Y); dist_all.append(dist); dphi_all.append(dphi)
        collected += X.shape[0]
    X = np.concatenate(Xs)[:n_pairs]
    Y = np.concatenate(Ys)[:n_pairs]
    dist = np.concatenate(dist_all)[:n_pairs]
    dphi = np.concatenate(dphi_all)[:n_pairs]
    ratios = dphi / dist
    lo, hi = int(np.argmin(ratios)), int(np.argmax(ratios))
    return EmpiricalLipschitz(
        alpha_emp=float(ratios[lo]), beta_emp=float(ratios[hi]),
        min_pair=np.stack([X[lo], Y[lo]]), max_pair=np.stack([X[hi], Y[hi]]),
        ratios=ratios, distances=dist, image_distances=dphi)


# ---------------------------------------------------------------------------
# closed-form distortion predictions for Gaussian templates


def theoretical_sigma(ell: int, lam: float, t: float) -> float:
    """(1/sqrt(e)) (1 - 1/lam) (1/(2(2+sqrt(2)) sqrt(e) lam))^{1/(lam-1)}
    (1/sqrt(t))^{1/(lam-1)} e^{-t lam/(lam-1)} sqrt(ell)."""
    if lam <= 1:
        raise DomainError("lam must exceed 1")
    if t < 1:
        raise DomainError("t must be >= 1")
    if ell < 1:
        raise DomainError("ell must be >= 1")
    expo = 1.0 / (lam - 1.0)
    return (
        (1.0 / math.sqrt(math.e))
        * (1.0 - 1.0 / lam)
        * (1.0 / (2.0 * (2.0 + math.sqrt(2.0)) * math.sqrt(math.e) * lam)) ** expo
        * (1.0 / math.sqrt(t)) ** expo
        * math.exp(-t * lam / (lam - 1.0))
        * math.sqrt(ell)
    )


@dataclass(frozen=True)
class DistortionBoundParams:
    """Inputs of the random-template distortion bound.  lam = n/(chi d)
    must dominate the reference level lambda0 > 1; the constants C and c
    are closed forms with no free knobs."""

    m: int          # group order
    chi: int
    d: int
    n: int
    lambda0: float

    def __post_init__(self):
        if self.m < 1 or self.chi < 1 or self.d < 1 or self.n < 1:
            raise DomainError("m, chi, d, n must all be >= 1")
        if self.lambda0 <= 1:
            raise DomainError("lambda0 must exceed 1")

    @property
    def lam(self) -> float:
        return self.n / (self.chi * self.d)

    @property
    def C(self) -> float:
        return 4.0 * math.e ** 1.5

    @property
    def c(self) -> float:
        return 2.0 + (math.sqrt(self.lambda0) + 2.0) / (self.lambda0 - 1.0)

    @property
    def success_probability(self) -> float:
        return 1.0 - 3.0 * math.exp(-self.d * math.sqrt(self.lam))


def theoretical_distortion_bound(params: DistortionBoundParams) -> float:
    """(C chi^{3/2} m log^{1/2}(e m))^{1 + c/sqrt(lam)}; DomainError when
    lam is below lambda0 or the bound passes the float range."""
    if params.lam < params.lambda0:
        raise DomainError(f"lam = {params.lam:.6g} below lambda0 = {params.lambda0:.6g}")
    base = params.C * params.chi ** 1.5 * params.m * math.sqrt(math.log(math.e * params.m))
    try:
        return base ** (1.0 + params.c / math.sqrt(params.lam))
    except OverflowError:
        raise DomainError(f"the bound passes the float range at lam = {params.lam!r}, "
                          f"lambda0 = {params.lambda0!r}") from None


# ---------------------------------------------------------------------------
# optimality witnesses


@dataclass(frozen=True)
class WitnessPair:
    x: np.ndarray
    y: np.ndarray
    achieved_ratio: float
    target_alpha: float
    case: str


def _best_partition(Z: np.ndarray) -> int:
    """Mask (bit i: template i in I) of the first partition I | J, in mask
    order, least in lambda_min(sum_I z z^T) + lambda_min(sum_J z z^T).  A
    mask and its complement score alike, so only masks below 2^(n-1) are
    scored, in blocks of at most _BLOCK entries."""
    n, d = Z.shape
    outer = np.einsum("ni,nj->nij", Z, Z).reshape(n, d * d)
    step = max(1, _BLOCK // (n + 2 * d * d))
    best = (math.inf, 0)
    for lo in range(0, 2 ** (n - 1), step):
        masks = np.arange(lo, min(lo + step, 2 ** (n - 1)))
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        score = (_lam_min_batch((bits @ outer).reshape(-1, d, d))
                 + _lam_min_batch(((1.0 - bits) @ outer).reshape(-1, d, d)))
        j = int(np.argmin(score))
        best = min(best, (float(score[j]), lo + j))   # a tie keeps the earlier mask
    return best[1]


def _pm_id_witness(bank: MaxFilterBank) -> WitnessPair:
    """Best partition I | J of the templates; x = u + v, y = u - v with u, v
    unit bottom eigenvectors of the two partial Gram sums."""
    Z = bank.templates
    n = Z.shape[0]
    if 2 ** n > BUDGETS["pm_id_partitions"]:
        raise BudgetExceeded(f"pm_id witness: {2 ** n} partitions exceed the cap of "
                             f"{BUDGETS['pm_id_partitions']}")
    sel = ((_best_partition(Z) >> np.arange(n)) & 1).astype(bool)
    A, B = (Z[part].T @ Z[part] for part in (sel, ~sel))
    delta_sq = float(_lam_min_batch(np.stack([A, B])).sum())
    u = np.linalg.eigh(A)[1][:, 0]
    v = np.linalg.eigh(B)[1][:, 0]
    x, y = u + v, u - v
    target = math.sqrt(max(delta_sq, 0.0))
    dq = quotient_distance(bank.group, x, y)
    dphi = float(np.linalg.norm(apply_bank(bank, x) - apply_bank(bank, y)))
    return WitnessPair(x=x, y=y, achieved_ratio=dphi / dq, target_alpha=target, case="pm_id")


def _reflection_witness(bank: MaxFilterBank, seed: int) -> WitnessPair:
    """x in an open chamber aligned with every template, y = x + t v for a
    bottom eigenvector v of sum v_i v_i^T and t small enough to stay in V_x."""
    group = bank.group
    rng = np.random.default_rng((seed, STREAMS["witness"]))
    x = sample_nice(bank, rng)
    V = np.stack([orb.points[int(np.argmax(orb.points @ x))] for orb in bank.orbits])
    M = V.T @ V
    lam, vecs = np.linalg.eigh(M)
    bottom = vecs[:, 0]
    target = math.sqrt(max(float(lam[0]), 0.0))

    cell = cell_of(group, x)
    rows = cell.rows
    a = rows @ x
    b = rows @ bottom
    neg = b < 0
    t = 0.5 * float((a[neg] / -b[neg]).min()) if neg.any() else 0.5 * float(np.linalg.norm(x))
    for _ in range(60):
        if cell.contains(x + t * bottom):
            break
        t *= 0.5
    else:
        raise NotNicePoint("could not place the witness inside the open cell")
    y = x + t * bottom
    dq = quotient_distance(group, x, y)
    dphi = float(np.linalg.norm(apply_bank(bank, x) - apply_bank(bank, y)))
    return WitnessPair(x=x, y=y, achieved_ratio=dphi / dq, target_alpha=target, case="reflection")


def optimality_witness(bank: MaxFilterBank, seed: int = 0) -> WitnessPair:
    """Construct a pair whose ratio attains the closed-form sharp lower
    constant of the bank's group, the case read off its elements: 'pm_id'
    when G = {+I, -I}, else 'reflection' when G is generated by its
    reflections (``groups.is_reflection_group``), else CaseMismatch.
    On R^1, {+1, -1} is both, and both give the norm of the templates."""
    group = bank.group
    eye = np.eye(group.dim)
    if group.order == 2 and group.contains(-eye) and group.contains(eye):
        return _pm_id_witness(bank)
    if is_reflection_group(group):
        return _reflection_witness(bank, seed)
    raise CaseMismatch("a witness needs the group {+I, -I} or a group generated by its reflections")


# ---------------------------------------------------------------------------
# consolidated report


@dataclass(frozen=True)
class StabilityReport:
    beta_exact: float
    beta_relaxed: float
    alpha_sharp: float
    alpha_tilde: float
    alpha_empirical: float
    beta_empirical: float
    kappa_certified: float
    kappa_empirical: float
    witnesses: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


_CHAIN = ("alpha_tilde", "alpha_sharp", "alpha_empirical", "beta_empirical", "beta_exact",
          "beta_relaxed")


def ordering_audit(report: StabilityReport) -> list[tuple[str, bool, float, float]]:
    """The chain alpha_tilde <= alpha_sharp <= alpha_empirical <=
    beta_empirical <= beta_exact <= beta_relaxed, each step with _AUDIT_SLACK,
    then nonnegativity.  Only certified values take part: a value whose
    ``<name>_certified`` flag in the provenance is false (a budget miss)
    skips both of its steps, as the CLI's sandwich checks do."""
    values = {name: float(getattr(report, name)) for name in _CHAIN
              if report.provenance.get(f"{name}_certified", True)}
    out = [(f"{lo}_le_{hi}", values[lo] <= values[hi] + _AUDIT_SLACK, values[lo], values[hi])
           for lo, hi in zip(_CHAIN, _CHAIN[1:]) if lo in values and hi in values]
    out.append(("all_fields_nonnegative", all(v >= 0 for v in values.values()), 0.0, 0.0))
    return out


def _within_budget(search, *args, **kwargs):
    """(search(*args, **kwargs), True), or on a budget miss (its partial
    value, or NaN without one, False): the one place a miss is caught."""
    try:
        return search(*args, **kwargs), True
    except BudgetExceeded as e:
        return (math.nan if e.partial is None else e.partial), False


def compute_stability_report(
    bank: MaxFilterBank,
    n_pairs: int = 200,
    seed: int = 0,
) -> tuple[StabilityReport, EmpiricalLipschitz]:
    """All bounds for one bank, plus the raw empirical sample so callers
    can dump per-pair ratios without recomputation; alpha_sharp samples
    min(n_pairs, 200) nice pairs; alpha_tilde takes ``proven_chi`` of the
    group.  Budget misses against errors.BUDGETS do not raise here; they
    are recorded as certified=False flags with the partial values
    (alpha_sharp has none: NaN, and no witness pair)."""
    ub, exact_ok = _within_budget(upper_bound_exact, bank)
    beta_exact = ub.beta if exact_ok else ub
    beta_relaxed, relaxed_ok = _within_budget(upper_bound_relaxed, bank)
    chi, _ = proven_chi(bank.group)
    a_tilde, tilde_ok = _within_budget(alpha_tilde, bank, chi)

    a_pairs = min(n_pairs, 200)
    sharp, sharp_ok = _within_budget(lower_bound_sharp, bank, a_pairs, seed=seed)
    alpha_sharp = sharp.alpha if sharp_ok else sharp
    emp = empirical_lipschitz(bank, n_pairs, seed=seed)

    kappa_certified = math.inf if a_tilde == 0 else beta_exact / a_tilde
    kappa_empirical = math.inf if emp.alpha_emp == 0 else emp.beta_emp / emp.alpha_emp
    witnesses = {
        "alpha_sharp_pair": (
            [sharp.witness_x.tolist(), sharp.witness_y.tolist()] if sharp_ok else None),
        "alpha_empirical_pair": emp.min_pair.tolist(),
        "beta_empirical_pair": emp.max_pair.tolist(),
    }
    provenance = {
        "seed": seed,
        "n_pairs": n_pairs,
        "alpha_pairs": a_pairs,
        "chi": chi,
        "budgets": {"lp": BUDGETS["lp_solves"], "tuples": BUDGETS["tuple_leaves"],
                    "assignments": BUDGETS["alpha_tilde_evals"],
                    "choice_cap": BUDGETS["choice_cap"]},
        "beta_argmax_tuple": list(ub.argmax_tuple) if exact_ok else None,
        "beta_exact_certified": exact_ok,
        "beta_relaxed_certified": relaxed_ok,
        "alpha_tilde_certified": tilde_ok,
        "alpha_sharp_certified": sharp_ok,
    }
    return StabilityReport(
        beta_exact=float(beta_exact), beta_relaxed=float(beta_relaxed),
        alpha_sharp=float(alpha_sharp), alpha_tilde=float(a_tilde),
        alpha_empirical=float(emp.alpha_emp), beta_empirical=float(emp.beta_emp),
        kappa_certified=float(kappa_certified), kappa_empirical=float(kappa_empirical),
        witnesses=witnesses, provenance=provenance), emp
