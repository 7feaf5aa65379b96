"""Property functionals on distributions, plug-in estimation, and the
linear-estimator sensitivity machinery.

Conventions: natural logarithms everywhere, 0 * log 0 = 0, and 0^alpha = 0
for alpha < 1 so Renyi entropies never produce infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, Profile, Sample, _integer, profile_of

PROPERTY_TAGS = ("entropy", "renyi", "support", "coverage", "dist_uniform", "power_sum")


def property_value(dist: Distribution, which: str, param=None) -> float:
    """Exact value of a property functional.

    ``param`` is the Renyi / power-sum order alpha, or the fresh-sample size
    m for support coverage; it must be finite. Renyi at alpha -> 1 is not
    interpolated; use ``entropy``.
    """
    param = _checked_param(which, param)
    p = dist.as_array()
    nz = p[p > 0.0]
    if which == "entropy":
        return float(-(nz * np.log(nz)).sum())
    if which == "renyi":
        return float(math.log((nz**param).sum()) / (1.0 - param))
    if which == "power_sum":
        return float((nz**param).sum())
    if which == "support":
        return float(nz.size)
    if which == "coverage":
        return float((1.0 - (1.0 - p) ** param).sum())
    return float(np.abs(p - 1.0 / dist.k).sum())  # dist_uniform


def _checked_param(which: str, param) -> float | None:
    """The parameter of property ``which`` as a float, or None if it takes
    none; raises ``ValueError`` for an unknown tag or a parameter out of
    range, NaN and infinities included."""
    if which not in PROPERTY_TAGS:
        raise ValueError(f"unknown property tag {which!r}")
    if which == "renyi":
        if param is None:
            raise ValueError("Renyi entropy needs an order alpha")
        alpha = float(param)
        if not (math.isfinite(alpha) and alpha >= 0.0 and alpha != 1.0):
            raise ValueError(f"Renyi order must be finite, >= 0 and != 1, got {alpha}")
        return alpha
    if which == "power_sum":
        alpha = math.nan if param is None else float(param)
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(f"power sum needs a finite positive order, got {param}")
        return alpha
    if which == "coverage":
        m = math.nan if param is None else float(param)
        if not (math.isfinite(m) and m >= 1.0):
            raise ValueError(f"coverage needs a finite sample-size parameter m >= 1, got {param}")
        return m
    return None


def empirical_distribution(sample: Sample, k: int | None = None) -> Distribution:
    """Relative frequencies; zeros appended for unseen symbols when k is given."""
    if sample.n < 1:
        raise ValueError("need a non-empty sample")
    if k is None:
        return Distribution([sample.counts[s] / sample.n for s in sorted(sample.counts)])
    k = _integer(k, "alphabet size")
    if max(sample.counts) >= k:
        raise ValueError(f"alphabet size {k} does not cover symbol {max(sample.counts)}")
    vec = [0.0] * k
    for s, c in sample.counts.items():
        vec[s] = c / sample.n
    return Distribution(vec)


def plug_in(
    sample: Sample,
    which: str,
    estimator: str = "empirical",
    param=None,
    *,
    k: int | None = None,
    cfg=None,
) -> float:
    """Evaluate a property at a distribution estimate of the sample.

    ``estimator`` is one of empirical / pml / tpml; ``k`` is an optional
    alphabet size (padding for empirical, support hint for PML). The
    property and its parameter are checked before the estimate is made.
    """
    _checked_param(which, param)
    if estimator == "empirical":
        est = empirical_distribution(sample, k)
    elif estimator == "pml":
        from .pml_em import approximate_pml

        est = approximate_pml(sample, k_hint=k, cfg=cfg)
    elif estimator == "tpml":
        from .dist_est import tpml_distribution

        est = tpml_distribution(sample, cfg=cfg)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return property_value(est, which, param)


def missing_mass_estimate(sample: Sample) -> float:
    """Singleton-based estimate of the total unseen-symbol mass.

    The denominator walks the prevalences and takes, at each multiplicity j,
    either j * phi_j or (j+1) * phi_{j+1} depending on whether j exceeds
    phi_{j+1}. Zero when there are no singletons; the raw ratio can exceed 1
    on degenerate profiles (all singletons), so the result is clamped to
    [0, 1].
    """
    prof = profile_of(sample)
    singles = prof.phi(1)
    if singles == 0:
        return 0.0
    relevant: set[int] = set()
    for i in prof.prevalences:
        relevant.add(i)
        if i > 1:
            relevant.add(i - 1)
    denom = 0
    for j in sorted(relevant):
        nxt = prof.phi(j + 1)
        denom += (j + 1) * nxt if j <= nxt else j * prof.phi(j)
    return min(1.0, singles / denom)


def falling_factorial_power_sum(sample: Sample, alpha: int) -> float:
    """Unbiased estimator of the alpha-th power sum for integer alpha >= 2.

    Sums mu^(falling alpha) / n^(falling alpha) over symbols; multiplicities
    below alpha contribute nothing.
    """
    alpha = _integer(alpha, "order")
    if alpha < 2:
        raise ValueError(f"order must be an integer >= 2, got {alpha}")
    if sample.n < alpha:
        raise ValueError(f"need at least alpha={alpha} draws, have {sample.n}")
    denom = math.perm(sample.n, alpha)
    num = sum(math.perm(mult, alpha) for mult in sample.counts.values() if mult >= alpha)
    return num / denom


@dataclass(frozen=True)
class LinearEstimator:
    """Estimator of the form sum_i coeffs[i-1] * phi_i, with coefficient 0 at i=0."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        vals = tuple(float(c) for c in coeffs)
        if any(not math.isfinite(c) for c in vals):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", vals)


def linear_apply(est: LinearEstimator, profile: Profile) -> float:
    """Dot product of the coefficient sequence with the prevalence vector."""
    if profile.max_multiplicity > len(est.coeffs):
        raise ValueError(
            f"coefficients cover multiplicities up to {len(est.coeffs)}, "
            f"profile reaches {profile.max_multiplicity}"
        )
    return math.fsum(est.coeffs[i - 1] * phi for i, phi in profile.prevalences.items())


def linear_sensitivity_bound(est: LinearEstimator) -> float:
    """2 * max_i |coeffs[i] - coeffs[i-1]|, an upper bound on how much the
    estimate can change when one sample point is altered."""
    best = 0.0
    prev = 0.0
    for c in est.coeffs:
        best = max(best, abs(c - prev))
        prev = c
    return 2.0 * best
