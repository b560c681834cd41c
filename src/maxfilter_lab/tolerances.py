"""The fixed numerical thresholds: every comparison reads ``DEFAULT_TOL``.

No function, method or config takes its own policy, so one run never
mixes two.  TolerancePolicy is only the type of DEFAULT_TOL and checks
its invariants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical thresholds for equality, PSD, LP and argmax-gap tests.

    eq_tol     exact-identity checks (group closure, orbit dedup, radicands)
    psd_tol    eigenvalue threshold for Gram verdicts, relative to max diagonal
    lp_tol     strict-interior margin for cone feasibility
    sample_tol argmax-gap threshold for unique-maximizer tests
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-8
    lp_tol: float = 1e-9
    sample_tol: float = 1e-9

    def __post_init__(self):
        for name in ("eq_tol", "psd_tol", "lp_tol", "sample_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # argmax gaps may not be tighter than exact-equality resolution
        if self.eq_tol > self.sample_tol:
            raise ValueError("eq_tol must not exceed sample_tol")


DEFAULT_TOL = TolerancePolicy()
