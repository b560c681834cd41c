"""Max filtering over finite subgroups of the orthogonal group.

The quotient of R^d by a finite group G of orthogonal matrices carries
the metric d([x],[y]) = min_g |g x - y|.  Max filtering compares orbits
through the invariant similarity max_g <g x, y>, and a bank of template
orbits embeds the quotient into Euclidean space.  This package computes
that embedding together with certified two-sided Lipschitz bounds,
Voronoi-cell combinatorics, distortion estimates for random templates,
and positive-semidefiniteness audits of the induced kernel.
"""

from .errors import (BudgetExceeded, CaseMismatch, ClosureOverflow,
                     ConfigError, DomainError, LengthMismatch,
                     LpNumericalFailure, MaxFilterError, NegativeRadicand,
                     NotNicePoint, NotOrthogonal, SizeOverflow)
from .filtering import (MaxFilterBank, apply_bank, apply_bank_batch,
                        load_templates, max_filter, max_filter_circular_brute,
                        max_filter_circular_fft, max_filter_pairs,
                        quotient_distance, save_templates)
from .groups import (FAMILIES, FiniteGroup, Orbit, build_family,
                     generate_group, is_reflection_group, load_group,
                     orbit_of, save_group, stabilizer_order)
from .kernels import (GramAudit, PsdSearchResult, direct_quadratic_form,
                      gram_audit, gram_matrix, search_psd_violation)
from .stability import (AlphaSharp, DistortionBoundParams, EmpiricalLipschitz,
                        StabilityReport, UpperBound, WitnessPair, alpha_tilde,
                        compute_stability_report, empirical_lipschitz,
                        lower_bound_sharp, optimality_witness, ordering_audit,
                        theoretical_distortion_bound, theoretical_sigma,
                        upper_bound_exact, upper_bound_relaxed)
from .tolerances import DEFAULT_TOL
from .voronoi import (ChiEstimate, ChoiceEnumeration, SSet, VoronoiCellSpec,
                      cell_of, choice_assignments, in_Q, is_principal,
                      proven_chi, s_set, sample_nice, sample_principal,
                      voronoi_characteristic)

__version__ = "0.1.0"

__all__ = [
    "AlphaSharp", "BudgetExceeded", "CaseMismatch", "ChiEstimate",
    "ChoiceEnumeration", "ClosureOverflow", "ConfigError", "DEFAULT_TOL",
    "DistortionBoundParams", "DomainError", "EmpiricalLipschitz", "FAMILIES",
    "FiniteGroup", "GramAudit", "LengthMismatch", "LpNumericalFailure",
    "MaxFilterBank", "MaxFilterError", "NegativeRadicand", "NotNicePoint",
    "NotOrthogonal", "Orbit", "PsdSearchResult", "SSet", "SizeOverflow",
    "StabilityReport", "UpperBound", "VoronoiCellSpec", "WitnessPair",
    "alpha_tilde", "apply_bank", "apply_bank_batch", "build_family", "cell_of",
    "choice_assignments", "compute_stability_report", "direct_quadratic_form",
    "empirical_lipschitz", "generate_group", "gram_audit", "gram_matrix",
    "in_Q", "is_principal", "is_reflection_group", "load_group",
    "load_templates", "lower_bound_sharp", "max_filter",
    "max_filter_circular_brute", "max_filter_circular_fft", "max_filter_pairs",
    "optimality_witness", "orbit_of", "ordering_audit", "proven_chi",
    "quotient_distance", "s_set", "sample_nice", "sample_principal",
    "save_group", "save_templates", "search_psd_violation", "stabilizer_order",
    "theoretical_distortion_bound", "theoretical_sigma", "upper_bound_exact",
    "upper_bound_relaxed", "voronoi_characteristic",
]
