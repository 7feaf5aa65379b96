"""Profile-based inference for discrete distributions.

Approximate profile maximum likelihood via MCMC-EM, plug-in property
estimation (Shannon and Renyi entropy, support size and coverage, distance
to uniformity), distribution estimation under sorted and unsorted l1, a
PML-based uniformity tester, and a reproducible benchmark harness.
"""

from .core import (
    Distribution,
    Profile,
    Sample,
    lp_distance,
    profile_of,
    remd_truncated,
    sorted_l1,
    wasserstein1_multiset,
)
from .dist_est import (
    default_tpml_thresholds,
    denoise,
    estimate_unsorted_l1,
    plug_in,
    tpml_distribution,
    weighted_median,
)
from .distributions import (
    FAMILIES,
    RngSeed,
    draw_sample,
    make,
    make_geometric,
    make_log_series,
    make_three_step,
    make_two_step,
    make_uniform,
    make_zipf,
)
from .likelihood import (
    enumerate_profiles,
    exact_pml_oracle,
    profile_probability,
    profile_probability_bruteforce,
)
from .pml_em import (
    EmConfig,
    SplitResult,
    approximate_pml,
    em_pml,
    em_pml_trace,
    estimate_support,
    sample_of_profile,
    split_large,
)
from .properties import (
    LinearEstimator,
    empirical_distribution,
    falling_factorial_power_sum,
    linear_apply,
    linear_sensitivity_bound,
    missing_mass_estimate,
    property_value,
)
from .uniformity import t_pml_test

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "EmConfig",
    "FAMILIES",
    "LinearEstimator",
    "Profile",
    "RngSeed",
    "Sample",
    "SplitResult",
    "approximate_pml",
    "default_tpml_thresholds",
    "denoise",
    "draw_sample",
    "em_pml",
    "em_pml_trace",
    "empirical_distribution",
    "enumerate_profiles",
    "estimate_support",
    "estimate_unsorted_l1",
    "exact_pml_oracle",
    "falling_factorial_power_sum",
    "linear_apply",
    "linear_sensitivity_bound",
    "lp_distance",
    "make",
    "make_geometric",
    "make_log_series",
    "make_three_step",
    "make_two_step",
    "make_uniform",
    "make_zipf",
    "missing_mass_estimate",
    "plug_in",
    "profile_of",
    "profile_probability",
    "profile_probability_bruteforce",
    "property_value",
    "remd_truncated",
    "sample_of_profile",
    "sorted_l1",
    "split_large",
    "t_pml_test",
    "tpml_distribution",
    "wasserstein1_multiset",
]
