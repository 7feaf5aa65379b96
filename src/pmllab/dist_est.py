"""Distribution estimators built on the PML pipeline, and plug-in estimation.

Two estimators live here: the per-symbol denoising route for plain l1
recovery (PML multiset -> weighted-median symbol assignments -> equal-split
missing mass over unseen symbols), and the truncated-profile estimator that
runs EM on low multiplicities only, patches frequent symbols empirically,
and pads the tail to restore unit mass. :func:`estimate` maps each name in
``ESTIMATORS`` to its estimate; :func:`plug_in` evaluates a property there.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Distribution, Sample, _integer
# em_pml is not called here: perfbench's tests check that tracing rebinds it
# in this module too
from .pml_em import EmConfig, _light_em, _split, approximate_pml, em_pml  # noqa: F401
from .properties import _checked_param, empirical_distribution, missing_mass_estimate, property_value

ESTIMATORS = ("empirical", "pml", "tpml")

#: TPML refuses a padding value that would take more than max(n, _MAX_PADS)
#: entries to fill the missing mass; the default thresholds need fewer than
#: n / alpha_n.
_MAX_PADS = 2**20


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
    if not (np.isfinite(v).all() and np.isfinite(w).all()):
        raise ValueError("values and weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    top = w.max()
    if top <= 0.0:
        raise ValueError("weights must not all be zero")
    order = np.argsort(v, kind="stable")
    # scaled exactly, by a power of two, to a largest weight in [1/2, 1):
    # finite weights then cannot sum past the float range, and a tie stays
    return _sorted_weighted_median(v[order], order, np.ldexp(w, -np.frexp(top)[1]))


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
    ln(n)^2) or the binomial-likelihood weighted median of the pool. Each
    candidate is held once, its copy count a factor of its weight, so the
    pool grows with ln(n)^2 rather than with n. The output is one value per
    observed symbol, in ascending symbol order, not yet normalized.
    """
    n = sample.n
    if n < 2:
        raise ValueError("need at least two draws")
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
    copies = [1] * len(pool)
    for j in range(1, horizon + 1):
        c = _augment_count(j, n)
        if c:
            pool.append(j / n)
            copies.append(c)

    arr = np.asarray(pool)
    copies = np.asarray(copies, dtype=float)
    neg_inf = np.full(arr.shape, -np.inf)
    log_v = np.log(arr, out=neg_inf.copy(), where=arr > 0.0)
    log_1mv = np.log1p(-arr, out=neg_inf.copy(), where=arr < 1.0)
    order = np.argsort(arr, kind="stable")
    sorted_pool = arr[order]

    mults, which = np.unique(sample.mults, return_inverse=True)
    value_for: list[float] = []
    for mult in mults.tolist():
        if mult >= cutoff:
            value_for.append(mult / n)
            continue
        # the binomial coefficient is constant across pool entries and
        # cancels out of the weighted median; the removal leaves a pool
        # entry in (0, 1), so the largest weight is finite
        logw = mult * log_v + (n - mult) * log_1mv
        weights = np.exp(logw - logw.max()) * copies
        value_for.append(_sorted_weighted_median(sorted_pool, order, weights))
    return dict(zip(sample.symbols.tolist(), np.array(value_for)[which].tolist()))


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
    if alphabet is not None:
        alphabet = _integer(alphabet, "alphabet")
        if int(sample.symbols[-1]) >= alphabet:
            raise ValueError("alphabet smaller than the observed support")
    pml = approximate_pml(sample, k_hint=alphabet, cfg=cfg)
    # one value per symbol of sample.symbols, in that (ascending) order
    assigned = np.fromiter(denoise(pml, sample).values(), float, sample.distinct)
    total = math.fsum(assigned.tolist())
    unseen = 0 if alphabet is None else alphabet - sample.distinct
    if not unseen:
        # with every symbol of range(alphabet) seen, sample.symbols is that range
        return Distribution(assigned / total)
    miss = missing_mass_estimate(sample)
    out = np.full(alphabet, miss / unseen)
    out[sample.symbols] = assigned * ((1.0 - miss) / total)
    return Distribution(out)


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
    the total to exactly 1. A gamma_n too small to fill the missing mass in
    max(n, 2**20) entries, or to move a total near 1, is a ``ValueError``.

    The split and the EM are :mod:`pml_em`'s core, shared with
    ``approximate_pml``. That is a gap from TPML's definition, which
    maximizes the probability of the truncated profile at sample size n:
    the EM here runs on the light sub-sample at its own size.
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

    # for an integer count c, c > beta_n exactly when c >= floor(beta_n) + 1
    split = _split(sample, math.floor(alpha_n) + 1, math.floor(beta_n) + 1)
    entries: list[float] = []
    p = _light_em(split, None, cfg)
    if p is not None:
        entries.extend((split.reduced_sample.n / n * p[p > 0.0]).tolist())
    entries.extend(split.large_symbols.values())

    total = math.fsum(entries)
    if total < 1.0 - 1e-12 and ((1.0 - total) / gamma_n > max(n, _MAX_PADS) or 1.0 - gamma_n == 1.0):
        # past the first bound the pads exhaust memory; past the second,
        # total + gamma_n == total once the total nears 1 and the loop stalls
        raise ValueError(f"padding value {gamma_n} is too small to fill the missing mass {1.0 - total}")
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


def estimate(sample: Sample, estimator: str = "empirical", *, k: int | None = None,
             cfg: EmConfig | None = None) -> Distribution:
    """The sample's estimate by one of ``ESTIMATORS``. ``k`` is an optional
    alphabet size: padding for empirical, the support hint for PML; TPML ignores it."""
    if estimator == "empirical":
        return empirical_distribution(sample, k)
    if estimator == "pml":
        return approximate_pml(sample, k_hint=k, cfg=cfg)
    if estimator == "tpml":
        return tpml_distribution(sample, cfg=cfg)
    raise ValueError(f"unknown estimator {estimator!r}")


def plug_in(sample: Sample, which: str, estimator: str = "empirical", param=None, *,
            k: int | None = None, cfg: EmConfig | None = None) -> float:
    """Evaluate a property at the sample's :func:`estimate`; the property and
    its parameter are checked before the estimate is made."""
    _checked_param(which, param)
    return property_value(estimate(sample, estimator, k=k, cfg=cfg), which, param)
