"""Approximate profile maximum likelihood via EM over latent symbol
assignments.

The pipeline has four stages: split off frequent symbols and keep their
empirical estimates, pick an output support size for the remainder, run EM
on the remaining profile, then reassemble and renormalize.

The EM treats the injective assignment of observed distinct symbols to
output support points as the latent variable. The E-step is exact on small
instances (the log-space dynamic program of the profile likelihood, run once
per left-out support point) and Metropolis-sampled at scale. The sampled
E-step draws its randomness once per E-step: one random symbol order fixes
which symbols meet in swap and relocation proposals, and one offset per
sweep and block rotates the pairing. The M-step reweights each support
point by its expected assigned multiplicity mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import Distribution, Profile, Sample, profile_of
from .distributions import RngSeed
from .likelihood import _log_monomial_table, profile_probability

#: Take the E-step exactly up to these sizes, sample beyond them.
_EXACT_M_LIMIT = 8
_EXACT_K_LIMIT = 10

#: Relative tilt of the starting point. An exactly uniform start is a fixed
#: point of the update on symmetric profiles and never escapes, so the
#: initialization is uniform with a strictly decreasing deterministic tilt.
_INIT_TILT = 1e-3

_LOG_FLOOR = 1e-300

#: Symbols with multiplicity at least this times ln(n)^2 count as frequent.
_TAU_MULTIPLIER = 1.5


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM solver and the surrounding pipeline."""

    em_iterations: int = 30
    max_support: int = 10000
    mcmc_sweeps_per_estep: int = 60
    seed: RngSeed = field(default_factory=RngSeed)

    def __post_init__(self):
        if isinstance(self.seed, int):
            object.__setattr__(self, "seed", RngSeed(self.seed))
        if self.em_iterations < 0:
            raise ValueError("em_iterations must be >= 0")
        if self.max_support < 1:
            raise ValueError("max_support must be >= 1")
        if self.mcmc_sweeps_per_estep < 1:
            raise ValueError("mcmc_sweeps_per_estep must be >= 1")


def split_threshold(n: int) -> float:
    """Multiplicity threshold for the frequent-symbol split (natural log)."""
    return _TAU_MULTIPLIER * math.log(n) ** 2


@dataclass(frozen=True)
class SplitResult:
    """Outcome of separating frequent symbols from a sample."""

    large_symbols: Mapping[int, float]
    reduced_sample: Sample
    removed_mass: float

    def __post_init__(self):
        object.__setattr__(self, "large_symbols", MappingProxyType(dict(self.large_symbols)))
        if not -1e-12 <= self.removed_mass <= 1.0 + 1e-12:
            raise ValueError(f"removed mass {self.removed_mass} outside [0, 1]")


def split_large(sample: Sample) -> SplitResult:
    """Move symbols with multiplicity >= 1.5 * ln(n)^2 to
    empirical estimates and keep the rest."""
    if sample.n < 2:
        raise ValueError("need at least two draws")
    tau = split_threshold(sample.n)
    large: dict[int, float] = {}
    kept: dict[int, int] = {}
    for sym in sorted(sample.counts):
        mult = sample.counts[sym]
        if mult >= tau:
            large[sym] = mult / sample.n
        else:
            kept[sym] = mult
    return SplitResult(large, Sample(kept), math.fsum(large.values()))


def estimate_support(sample: Sample, max_support: int = 10000) -> int:
    """Support-size estimate with alternating-sign smoothing of the profile.

    Each prevalence phi_j is weighted by 1 - (-(t-1))^j * Pr(L >= j) with
    t = ln(r) and L binomial over ceil(log2(r t^2 / (t-1)) / 2) trials at
    success probability 1/(t+1); binomial tails are exact pmf sums. The
    result is rounded and clamped to [distinct count, max_support]. Samples
    with fewer than 3 draws make t - 1 non-positive, so they fall back to
    the distinct count.
    """
    if sample.n < 1:
        raise ValueError("need a non-empty sample")
    distinct = sample.distinct
    r = sample.n
    if r < 3:
        return min(max(distinct, 1), max_support)
    t = math.log(r)
    trials = math.ceil(0.5 * math.log2(r * t * t / (t - 1.0)))
    theta = 1.0 / (t + 1.0)
    pmf = [math.comb(trials, i) * theta**i * (1.0 - theta) ** (trials - i) for i in range(trials + 1)]
    tail = [0.0] * (trials + 2)
    for i in range(trials, -1, -1):
        tail[i] = tail[i + 1] + pmf[i]
    est = 0.0
    for j, phi in profile_of(sample).prevalences.items():
        if j <= trials and tail[j] > 0.0:
            weight = 1.0 - (-(t - 1.0)) ** j * tail[j]
        else:
            weight = 1.0
        est += weight * phi
    return min(max(round(est), distinct), max_support)


def _tilted_uniform(K: int) -> np.ndarray:
    if K == 1:
        return np.ones(1)
    tilt = 1.0 + _INIT_TILT * (np.arange(K - 1, -1, -1, dtype=float) / (K - 1))
    return tilt / tilt.sum()


def _empirical_start(mults: np.ndarray, K: int) -> np.ndarray:
    """Start proportional to the observed multiplicities, with a small floor
    on the unassigned support points.

    The EM update has two kinds of attractors: a near-uniform interior
    stationary point and concentrated boundary ones. Starting from both this
    and the tilted uniform point and keeping the higher-likelihood endpoint
    covers instances where either basin holds the maximizer.
    """
    floor = float(mults.min()) / (4.0 * K)
    q = np.full(K, floor)
    q[: mults.size] = mults
    return q / q.sum()


def _exact_estep_mass(q: np.ndarray, mults: np.ndarray, K: int) -> np.ndarray:
    """Expected multiplicity mass per support point, exactly.

    Point s hosts a symbol of multiplicity v with probability q_s^v times
    the monomial sum of the rest of the multiset over the other points,
    divided by the monomial sum of the whole multiset over all points.
    """
    lq = np.log(np.maximum(q, _LOG_FLOOR))
    vals, counts = np.unique(mults, return_counts=True)
    # index of the sub-count vector c - e_g, for every group g
    drop = tuple((counts - np.eye(len(vals), dtype=int)).T)
    total = _log_monomial_table(lq, mults).flat[-1]
    mass = np.empty(K)
    for s in range(K):
        rest = _log_monomial_table(np.delete(lq, s), mults)[drop]
        mass[s] = vals @ np.exp(vals * lq[s] + rest - total)
    return mass


@np.errstate(divide="ignore")  # np.log of a uniform draw of exactly 0.0
def _mcmc_estep_mass(
    q: np.ndarray,
    mults: np.ndarray,
    K: int,
    sweeps: int,
    gen: np.random.Generator,
    sigma: np.ndarray,
    unassigned: np.ndarray,
    burn: int,
) -> np.ndarray:
    """Expected multiplicity mass per support point, by Metropolis sampling
    of the latent assignment.

    Each sweep applies two blocks of disjoint pairwise proposals: swaps of
    the targets of two observed symbols, then relocations of symbols to
    unassigned support points. Within a block the pairs are disjoint and
    chosen independently of the state, so every acceptance ratio is exact
    and the block updates vectorize.

    The pairings are drawn once per E-step. One random symbol order splits
    the symbols into halves A and B; sweep t pairs A[i] with
    B[(i + r_t) mod |B|]. Relocations pair the free slots with symbols of
    the same order shifted by s_t (or each symbol with a shifted slot when
    the slots outnumber the symbols). The offsets r_t, s_t and all
    acceptance uniforms come from one draw each. No symbol sits out a
    whole E-step (with odd m, one B symbol rests per sweep), and over the
    sweeps every A x B pair can be proposed; those transpositions generate
    every assignment, so the stationary law stays prod_j q_sigma(j)^mult_j.

    ``sigma`` and ``unassigned`` are the chain state and are advanced in
    place, so the chain persists across E-steps.
    """
    m = int(mults.size)
    free = int(unassigned.size)
    steps = sweeps + burn
    lq = np.log(np.maximum(q, _LOG_FLOOR))
    order = gen.permutation(m)
    # the state in symbol-order coordinates: symbol order[i] sits at x[i]
    x = sigma[order]
    mo = mults[order]
    half = m // 2
    nb = m - half
    swap_at = gen.integers(nb, size=steps)
    swap_logu = gen.random((steps, half))
    np.log(swap_logu, out=swap_logu)  # in place: these arrays are the E-step's largest
    # B listed twice, so that each sweep's partners are one slice of it
    b_twice = np.tile(np.arange(half, m), 2)
    mb_twice = np.tile(mo[half:], 2)
    ma = mo[:half]
    if free:
        nmoves = min(m, free)
        span = max(m, free)
        move_at = gen.integers(span, size=steps)
        move_logu = gen.random((steps, nmoves))
        np.log(move_logu, out=move_logu)
        # the longer of symbols and free slots, listed twice
        ring_twice = np.tile(np.arange(span), 2)
    mass = np.zeros(K)
    # Accepted moves are applied as x + accept * (y - x): a blend without
    # branches, which beats np.where on random masks. Each side's new
    # values are computed from its own old values and the step, so a view
    # read before the write cannot leak a point into both sides.
    for t in range(steps):
        if half:
            r = swap_at[t]
            pb = b_twice[r : r + half]
            xa = x[:half]
            xb = x[pb]
            accept = swap_logu[t] < (ma - mb_twice[r : r + half]) * (lq[xb] - lq[xa])
            step = (xb - xa) * accept
            x[pb] = xb - step
            x[:half] += step
        if free:
            s = move_at[t]
            window = ring_twice[s : s + nmoves]
            # free slot j faces the symbol at position j + s, or, when the
            # slots outnumber the symbols, symbol i faces slot i + s
            pos, slot = (window, slice(None)) if free <= m else (slice(None), window)
            xs = x[pos]
            us = unassigned[slot]
            accept = move_logu[t] < mo[pos] * (lq[us] - lq[xs])
            step = (us - xs) * accept
            x[pos] = xs + step
            unassigned[slot] = us - step
        if t >= burn:
            mass += np.bincount(x, weights=mo, minlength=K)
    sigma[order] = x
    return mass / sweeps


#: The sampled-E-step solver returns the mean of the descending-sorted
#: iterates over this many final EM iterations. The output is a multiset
#: estimate, so sorting loses nothing, and averaging quantile functions
#: strips Monte Carlo jitter without blurring the converged shape.
_AVG_WINDOW = 20


def _em_iterate(profile: Profile, mults: np.ndarray, K: int, cfg: EmConfig,
                q: np.ndarray, exact: bool, record_likelihood: bool):
    m = int(mults.size)
    trace: list[float] = []
    if exact:
        for _ in range(cfg.em_iterations):
            if record_likelihood:
                trace.append(profile_probability(Distribution(q), profile))
            mass = _exact_estep_mass(q, mults, K)
            q = mass / mass.sum()
        dist = Distribution(q)
        if record_likelihood:
            trace.append(profile_probability(dist, profile))
        return dist, trace

    gen = cfg.seed.generator()
    # The pseudo-count keeps support points that the sampled E-step missed
    # alive; the exact E-step gives every point positive mass already, and
    # any smoothing there would break likelihood monotonicity.
    kappa = 1.0 / (K * profile.n)
    order = np.argsort(-q, kind="stable")
    sigma = order[:m].copy()  # mults are descending, so this is a greedy matching
    unassigned = order[m:].copy()
    window = min(_AVG_WINDOW, cfg.em_iterations)
    averaged = np.zeros(K)
    kept = 0
    for it in range(cfg.em_iterations):
        if record_likelihood:
            trace.append(profile_probability(Distribution(q), profile))
        burn = max(1, cfg.mcmc_sweeps_per_estep // 4) if it == 0 else 0
        mass = _mcmc_estep_mass(
            q, mults, K, cfg.mcmc_sweeps_per_estep, gen, sigma, unassigned, burn
        )
        q = mass + kappa
        q = q / q.sum()
        if it >= cfg.em_iterations - window:
            averaged += np.sort(q)[::-1]
            kept += 1
    dist = Distribution(averaged / kept)
    if record_likelihood:
        trace.append(profile_probability(dist, profile))
    return dist, trace


def _em_run(profile: Profile, K: int, cfg: EmConfig, record_likelihood: bool):
    K = int(K)
    if K < 1:
        raise ValueError("support size must be >= 1")
    mults = np.asarray(profile.multiplicities(), dtype=float)
    m = int(mults.size)
    if m > K:
        raise ValueError(f"support size {K} cannot host {m} distinct symbols")
    if m == 0 or cfg.em_iterations == 0:
        dist = Distribution(_tilted_uniform(K))
        trace = [profile_probability(dist, profile)] if record_likelihood else []
        return dist, trace
    exact = m <= _EXACT_M_LIMIT and K <= _EXACT_K_LIMIT
    starts = [_tilted_uniform(K)]
    if exact and K >= 2:
        # desk scale is cheap enough to certify both basins by likelihood
        starts.append(_empirical_start(mults, K))
    if len(starts) == 1:
        return _em_iterate(profile, mults, K, cfg, starts[0], exact, record_likelihood)
    best = None
    for q0 in starts:
        dist, trace = _em_iterate(profile, mults, K, cfg, q0, exact, record_likelihood)
        score = trace[-1] if record_likelihood else profile_probability(dist, profile)
        if best is None or score > best[0]:
            best = (score, dist, trace)
    return best[1], best[2]


def em_pml(profile: Profile, K: int, cfg: EmConfig | None = None) -> Distribution:
    """EM iteration for the PML distribution of a profile over K support
    points (trailing zeros allowed).

    With the exact E-step the profile probability is non-decreasing across
    iterations; with the sampled E-step it is non-decreasing in expectation
    and can be monitored via :func:`em_pml_trace`. The sampled path keeps
    one Metropolis chain alive across E-steps and returns the mean of the
    sorted final iterates, which strips most of the Monte Carlo jitter from
    the returned multiset.
    """
    dist, _ = _em_run(profile, K, cfg or EmConfig(), record_likelihood=False)
    return dist


def em_pml_trace(profile: Profile, K: int, cfg: EmConfig | None = None):
    """Like :func:`em_pml`, but also returns the profile probability of every
    iterate (initialization included)."""
    return _em_run(profile, K, cfg or EmConfig(), record_likelihood=True)


def approximate_pml(
    sample: Sample,
    k_hint: int | None = None,
    cfg: EmConfig | None = None,
) -> Distribution:
    """Full approximate-PML pipeline.

    Splits off frequent symbols, estimates the output support size for the
    remainder (or uses ``k_hint - #removed`` when the true alphabet size is
    supplied), runs EM on the reduced profile, scales the result by the
    unremoved mass, appends the empirical probabilities of the removed
    symbols, and renormalizes exactly.
    """
    cfg = cfg or EmConfig()
    if sample.n < 2:
        raise ValueError("need at least two draws")
    split = split_large(sample)
    reduced = split.reduced_sample
    big = sorted(split.large_symbols)
    if k_hint is not None and int(k_hint) < len(big) + reduced.distinct:
        raise ValueError(
            f"alphabet hint {k_hint} is smaller than the {len(big) + reduced.distinct} "
            "distinct symbols observed"
        )
    entries: list[float] = []
    if reduced.n:
        if k_hint is not None:
            K = int(k_hint) - len(big)
        else:
            K = estimate_support(reduced, cfg.max_support)
        scale = 1.0 - split.removed_mass
        p_r = em_pml(profile_of(reduced), K, cfg)
        entries.extend(scale * v for v in p_r.probs)
    entries.extend(split.large_symbols[s] for s in big)
    total = math.fsum(entries)
    return Distribution([v / total for v in entries])


def sample_of_profile(profile: Profile) -> Sample:
    """A canonical sample with the given profile (symbols relabeled 0..m-1).

    Profiles are symmetric sufficient statistics, so any relabeling is
    equivalent for everything computed here.
    """
    return Sample({j: mult for j, mult in enumerate(profile.multiplicities())})
