"""Distribution estimators built on the PML pipeline.

Two estimators live here: the per-symbol denoising route for plain l1
recovery (PML multiset -> weighted-median symbol assignments -> equal-split
missing mass over unseen symbols), and the truncated-profile estimator that
runs EM on low multiplicities only, patches frequent symbols empirically,
and pads the tail to restore unit mass.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Distribution, Sample, profile_of
from .pml_em import EmConfig, approximate_pml, em_pml, estimate_support
from .properties import missing_mass_estimate


def _augment_count(j: int, n: int) -> int:
    """Copies of the candidate value j/n added to the denoising pool."""
    return max(0, round(n / (j * math.log(n) ** 4)))


def weighted_median(values, weights) -> float:
    """Smallest value whose cumulative weight reaches half the total weight.

    Ties resolve by value order (the lower median).
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0 or v.size != w.size:
        raise ValueError("values and weights must be non-empty and equally long")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if w.sum() <= 0.0:
        raise ValueError("weights must not all be zero")
    order = np.argsort(v, kind="stable")
    return _sorted_weighted_median(v[order], order, w)


def _sorted_weighted_median(sorted_values, order, weights) -> float:
    """:func:`weighted_median` of ``sorted_values[i] = values[order[i]]``,
    without checks, for callers that sort once and weigh many times."""
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, 0.5 * weights.sum(), side="left"))
    return float(sorted_values[idx])


def denoise(pml_vector: Distribution, sample: Sample) -> dict[int, float]:
    """Per-symbol probability assignment from a PML multiset estimate.

    (i) removes 1/ln(n)^2 of probability mass from the largest pool entries
    first, (ii) augments the pool with candidate values j/n for j up to
    ln(n)^2 (n / (j ln(n)^4) copies each, rounded), (iii) assigns each
    observed symbol either its empirical frequency (multiplicity at least
    ln(n)^2) or the binomial-likelihood weighted median of the pool. The
    output is one value per observed symbol, not yet normalized.
    """
    n = sample.n
    cutoff = math.log(n) ** 2
    # the 1/ln(n)^2 mass exceeds 1 only at n = 2; cap it there
    mass_out = min(1.0 / cutoff, 0.999999)
    horizon = math.ceil(cutoff)

    pool = sorted(pml_vector.probs, reverse=True)
    remaining = min(mass_out, math.fsum(pool))
    i = 0
    while remaining > 1e-15 and i < len(pool):
        take = min(pool[i], remaining)
        pool[i] -= take
        remaining -= take
        i += 1
    for j in range(1, horizon + 1):
        pool.extend([j / n] * _augment_count(j, n))

    arr = np.asarray(pool)
    neg_inf = np.full(arr.shape, -np.inf)
    log_v = np.log(arr, out=neg_inf.copy(), where=arr > 0.0)
    log_1mv = np.log1p(-arr, out=neg_inf.copy(), where=arr < 1.0)
    order = np.argsort(arr, kind="stable")
    sorted_pool = arr[order]

    value_for: dict[int, float] = {}
    for mult in sorted(set(sample.counts.values())):
        if mult >= cutoff:
            value_for[mult] = mult / n
            continue
        # the binomial coefficient is constant across pool entries and
        # cancels out of the weighted median
        logw = mult * log_v + (n - mult) * log_1mv
        top = logw.max()
        if top == -np.inf:
            value_for[mult] = mult / n  # pool fully depleted at small n
            continue
        value_for[mult] = _sorted_weighted_median(sorted_pool, order, np.exp(logw - top))
    return {sym: value_for[mult] for sym, mult in sample.counts.items()}


def estimate_unsorted_l1(
    sample: Sample,
    alphabet: int | None = None,
    cfg: EmConfig | None = None,
) -> Distribution:
    """Distribution estimate under plain l1: PML, denoise, then equal-split
    missing mass over unseen symbols.

    ``alphabet`` is the alphabet size; when given, every unseen symbol of
    ``0..alphabet-1`` receives missing_mass / #unseen and the observed block
    is scaled to the complementary mass, so the total is exactly 1. Without
    it, the observed assignments are simply normalized.
    """
    cfg = cfg or EmConfig()
    if sample.n < 2:
        raise ValueError("need at least two draws")
    if alphabet is not None and max(sample.counts) >= alphabet:
        raise ValueError("alphabet smaller than the observed support")
    pml = approximate_pml(sample, k_hint=alphabet, cfg=cfg)
    assigned = denoise(pml, sample)
    unseen = 0 if alphabet is None else alphabet - len(assigned)
    if not unseen:
        # with every symbol of range(alphabet) seen, sorted(assigned) is that range
        total = math.fsum(assigned.values())
        return Distribution([assigned[s] / total for s in sorted(assigned)])
    miss = missing_mass_estimate(sample)
    share = miss / unseen
    seen_total = math.fsum(assigned.values())
    scale = (1.0 - miss) / seen_total
    return Distribution([assigned[s] * scale if s in assigned else share for s in range(alphabet)])


def default_tpml_thresholds(n: int) -> tuple[float, float, float]:
    """Truncation, empirical-patch, and padding thresholds.

    The defaults (n^0.03 + n^0.01, n^0.03 + 2 n^0.01, and the first divided
    by n) are asymptotic constants: at n = 10^4 the truncation point is
    about 2.6, a deliberately degenerate desk-scale regime, so tests pass
    scaled-up thresholds explicitly.
    """
    a = n**0.03 + n**0.01
    return a, n**0.03 + 2 * n**0.01, a / n


def tpml_distribution(
    sample: Sample,
    thresholds: tuple[float, float, float] | None = None,
    cfg: EmConfig | None = None,
) -> Distribution:
    """Truncated-profile distribution estimator.

    Runs EM on the profile of symbols with multiplicity at most
    floor(alpha_n), scaled to the mass those symbols carry; symbols with
    multiplicity above beta_n keep their empirical frequencies (the thin
    band in between is dropped), so beta_n must be at least alpha_n.
    Entries of value gamma_n are appended while the total is below 1, the
    last one is dropped if it overshoots 1, and one final entry restores
    the total to exactly 1.
    """
    cfg = cfg or EmConfig()
    n = sample.n
    if n < 2:
        raise ValueError("need at least two draws")
    alpha_n, beta_n, gamma_n = thresholds or default_tpml_thresholds(n)
    if not all(math.isfinite(v) for v in (alpha_n, beta_n, gamma_n)):
        raise ValueError(f"TPML thresholds must be finite, got {(alpha_n, beta_n, gamma_n)}")
    if alpha_n < 1:
        raise ValueError("truncation threshold must be >= 1")
    if beta_n < alpha_n:
        # a symbol with beta_n < c <= alpha_n would count in both parts
        raise ValueError(f"beta_n ({beta_n}) must be >= alpha_n ({alpha_n})")
    if gamma_n <= 0:
        raise ValueError("padding value must be positive")
    t = math.floor(alpha_n)

    entries: list[float] = []
    light_sample = sample.rarer_than(t + 1)
    if light_sample.n:
        K = estimate_support(light_sample)
        scale = light_sample.n / n
        est = em_pml(profile_of(light_sample), K, cfg)
        p = est.as_array()
        entries.extend((scale * p[p > 0.0]).tolist())
    for s in sorted(sample.counts):
        c = sample.counts[s]
        if c > beta_n:
            entries.append(c / n)

    total = math.fsum(entries)
    while total < 1.0 - 1e-12:
        entries.append(gamma_n)
        total += gamma_n
    if total > 1.0 + 1e-12:
        # the two parts hold disjoint symbols, so their total is at most 1
        # and only the last pad can overshoot
        entries.pop()
        total = math.fsum(entries)
    leftover = 1.0 - total
    if leftover > 1e-15:
        entries.append(leftover)
    return Distribution(entries)
