"""The stage tags of the seeded random streams.

Every seeded stage draws from ``numpy.random.default_rng((seed, tag, ...))``
with its own tag from ``STREAMS``, so no two stages share a Gaussian draw
for the same run seed.  CLI reports record this map as
``seed_provenance.streams``.
"""

import numbers

STREAMS = {
    "chi_sampling": 211,
    "alpha_sharp": 311,
    "template_sampler": 401,
    "distortion_trials": 499,
    "witness": 541,
    "psd_search": 613,
    "injectivity_templates": 733,
    "injectivity_pairs": 811,
    "maxfilter_pairs": 877,
    "empirical_pairs": 977,
}


def _check_count(name: str, count) -> None:
    """Raise ValueError unless a stage's count of draws is an integer >= 1."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
