"""Exception types shared across the package."""

from __future__ import annotations


class MaxFilterError(Exception):
    """Base class for all package errors."""


class NotOrthogonal(MaxFilterError):
    """A supplied matrix is not orthogonal within tolerance."""


class ClosureOverflow(MaxFilterError):
    """Group closure did not stabilize below the element cap."""


class SizeOverflow(MaxFilterError):
    """A requested group would exceed groups.MAX_ORDER or groups.MAX_DIM,
    or a closure's element stack groups.MAX_STACK entries."""


class LengthMismatch(MaxFilterError):
    """Signals of different lengths passed to a circular operation."""


class NegativeRadicand(MaxFilterError):
    """Polarization radicand fell below -eq_tol; group data is inconsistent."""


class LpNumericalFailure(MaxFilterError):
    """A margin LP was settled by neither checked certificate: no witness
    point in the box and no Gordan weights on its rows."""


class NotNicePoint(MaxFilterError):
    """Point fails the principal / unique-argmax preconditions."""


class CaseMismatch(MaxFilterError):
    """Witness construction requested for a group outside its case."""


class DomainError(MaxFilterError):
    """Parameter outside the domain of a closed-form bound."""


class ConfigError(MaxFilterError):
    """Experiment configuration is missing, malformed, or inconsistent."""


# The fixed cap of each exact search, read when the search runs (like groups.MAX_ORDER):
# LPs of upper_bound_exact, tuples of upper_bound_relaxed, alpha_tilde subset sums,
# assignments per choice_assignments, partitions of the pm_id witness.
BUDGETS = {
    "lp_solves": 500_000,
    "tuple_leaves": 2_000_000,
    "alpha_tilde_evals": 30_000_000,
    "choice_cap": 100_000,
    "pm_id_partitions": 2 ** 22,
}


class BudgetExceeded(MaxFilterError):
    """Search budget exhausted.  Carries the best value found so far.

    ``partial`` is a lower bound for maximization searches and an upper
    bound for minimization searches; either way it is not certified.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
