"""Approximate profile maximum likelihood via EM over latent symbol
assignments.

The pipeline has four stages: split off frequent symbols and keep their
empirical estimates, pick an output support size for the remainder, run EM
on the remaining profile, then reassemble and renormalize.

The EM treats the injective assignment of observed distinct symbols to
output support points as the latent variable. The E-step is exact on small
instances (the log-space dynamic program of the profile likelihood, over
K + 1 rows per start: each support point left out, then none) and
Metropolis-sampled at scale. The exact path runs two starts, and they
advance together: one pass of the program per EM iteration covers both.
Symbols of equal multiplicity are exchangeable, so the sampled E-step runs
its chain on the multiplicity each support point holds: one block of
pairwise content exchanges per sweep covers both symbol swaps and moves to
empty points. Its randomness is drawn once per E-step: one random slot
order fixes which points meet, and one offset per sweep rotates the
pairing. That randomness comes from an SFC64 generator under the EM seed,
not from the Philox streams of sampling: one serial chain needs no
counter-based streams, and SFC64 draws its uniforms about three times as
fast. The M-step reweights each support point by its expected assigned
multiplicity mass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .core import Distribution, Profile, Sample, _integer, profile_of
from .distributions import RngSeed, as_seed
from .likelihood import _log_monomial_sums, _multiplicity_groups, _profile_probabilities

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

#: Cap on the extrapolated support size; it never cuts below the distinct count.
_MAX_SUPPORT = 10_000


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM solver and the surrounding pipeline."""

    em_iterations: int = 30
    mcmc_sweeps_per_estep: int = 60
    seed: RngSeed = field(default_factory=RngSeed)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "em_iterations", _integer(self.em_iterations, "em_iterations"))
        object.__setattr__(
            self, "mcmc_sweeps_per_estep", _integer(self.mcmc_sweeps_per_estep, "mcmc_sweeps_per_estep")
        )
        if self.em_iterations < 0:
            raise ValueError("em_iterations must be >= 0")
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
    large = {s: c / sample.n for s, c in sorted(sample.counts.items()) if c >= tau}
    return SplitResult(large, sample.rarer_than(tau), math.fsum(large.values()))


def estimate_support(sample: Sample) -> int:
    """Support-size estimate with alternating-sign smoothing of the profile.

    Each prevalence phi_j is weighted by 1 - (-(t-1))^j * Pr(L >= j) with
    t = ln(r) and L binomial over ceil(log2(r t^2 / (t-1)) / 2) trials at
    success probability 1/(t+1); binomial tails are exact pmf sums. The
    result is max(distinct, min(round(est), _MAX_SUPPORT)) with
    _MAX_SUPPORT = 10,000: the cap bounds only the extrapolated unseen
    symbols, so every observed symbol keeps a support point. Samples with
    fewer than 3 draws make t - 1 non-positive, so they fall back to the
    distinct count.
    """
    if sample.n < 1:
        raise ValueError("need a non-empty sample")
    distinct = sample.distinct
    r = sample.n
    if r < 3:
        return distinct
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
    return max(distinct, min(round(est), _MAX_SUPPORT))


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


def _exact_estep_mass(q: np.ndarray, vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Expected multiplicity mass per support point, exactly, for each row
    of ``q`` (S starts over K points).

    Point s hosts a symbol of multiplicity v with probability q_s^v times
    the monomial sum of the rest of the multiset over the other points,
    divided by the monomial sum of the whole multiset over all points. One
    pass of the dynamic program gives both for every start, over K + 1 rows
    of log q per start: row s leaves point s out (log q_s = -inf) and the
    last row keeps every point. ``vals`` and ``counts`` are the multiplicity
    groups of the profile.
    """
    lq = np.log(np.maximum(q, _LOG_FLOOR))
    S, K = lq.shape
    rows = np.repeat(lq, K + 1, axis=0)
    rows.reshape(S, -1)[:, :: K + 1] = -np.inf  # row s of each start, point s
    full, short = _log_monomial_sums(rows, vals, counts)
    full = full[K :: K + 1, None, None]
    short = short.reshape(S, K + 1, -1)[:, :K]
    return np.exp(vals * lq[..., None] + short - full) @ vals


@np.errstate(divide="ignore")  # np.log of a uniform draw of exactly 0.0
def _mcmc_estep_mass(
    q: np.ndarray, y: np.ndarray, sweeps: int, gen: np.random.Generator, burn: int
) -> np.ndarray:
    """Expected multiplicity mass per support point, by Metropolis sampling
    of the latent assignment.

    Symbols of equal multiplicity are exchangeable, so the chain runs on
    slot contents: ``y[s]`` is the multiplicity held by support point s, 0
    if the point is empty. The target is proportional to prod_s q_s^y_s,
    the image of the law prod_j q_sigma(j)^mult_j of the assignment sigma.
    A move exchanges the contents of two points a and b and is accepted
    when log u < (y_a - y_b) * (lq_b - lq_a). That one rule covers a swap of
    two symbols and a relocation of a symbol to an empty point, so each
    sweep is a single block of disjoint pairs, chosen independently of the
    state: every acceptance ratio is exact and the block vectorizes. One
    block per sweep, over all K points, is what keeps a sweep cheap; it
    proposes about m(K - m)/K moves to empty points per sweep.

    The pairing is drawn once per E-step. One random slot order splits the
    points into halves A and B; sweep t pairs A[i] with B[(i + r_t) mod |B|].
    The offsets and all acceptance uniforms come from one draw each of
    ``gen`` (SFC64 on the EM path). No point sits out a whole E-step (with
    odd K, one B point rests per sweep), and over the sweeps every A x B
    pair can be proposed; those transpositions reach every arrangement of
    the contents. Each sweep writes its differences, gains and acceptance
    mask into three arrays of length K // 2 made once per call.

    ``y`` is the chain state and is advanced in place, so the chain
    persists across E-steps. The mass sums integer-valued contents, so it
    is exact up to the final division by ``sweeps``.
    """
    K = int(y.size)
    steps = sweeps + burn
    order = gen.permutation(K)
    half = K // 2
    nb = K - half
    # The state in slot-order coordinates, with B listed twice so that each
    # sweep's partners are one slice: point order[i] holds w[i], and B's
    # copy w[K:] mirrors w[half:K] between sweeps.
    w = y[np.concatenate((order, order[half:]))]
    lw = np.log(np.maximum(q[order], _LOG_FLOOR))
    la = lw[:half]
    lb_twice = np.tile(lw[half:], 2)
    at = gen.integers(nb, size=steps)
    logu = gen.random((steps, half))
    np.log(logu, out=logu)  # in place: this is the E-step's largest array
    za = w[:half]
    acc = np.zeros(K)
    step = np.empty(half)
    gain = np.empty(half)
    ok = np.empty(half, dtype=bool)
    for t, r in enumerate(at.tolist()):
        e = r + half
        zb = w[half + r : half + e]
        # Accepted exchanges are applied as a blend without branches, which
        # beats np.where on random masks.
        np.subtract(zb, za, out=step)
        np.subtract(la, lb_twice[r:e], out=gain)
        gain *= step
        np.less(logu[t], gain, out=ok)
        step *= ok
        za += step
        zb -= step
        wrap = e - nb
        if wrap > 0:  # the window ran into the copy; write that part back to B
            w[half : half + wrap] = w[K : K + wrap]
        w[K:] = w[half:K]
        if t >= burn:
            acc += w[:K]
    y[order] = w[:K]
    mass = np.empty(K)
    mass[order] = acc / sweeps
    return mass


#: The sampled-E-step solver returns the mean of the descending-sorted
#: iterates over this many final EM iterations. The output is a multiset
#: estimate, so sorting loses nothing, and averaging quantile functions
#: strips Monte Carlo jitter without blurring the converged shape.
_AVG_WINDOW = 20


def _scores(q, profile: Profile) -> list[float]:
    """The profile probability of each row of ``q`` as a :class:`Distribution`."""
    return _profile_probabilities(np.stack([Distribution(row).as_array() for row in q]),
                                  profile).tolist()


def _em_exact(profile: Profile, mults: np.ndarray, K: int, cfg: EmConfig):
    """EM with the exact E-step from the tilted uniform start and, when
    K >= 2, the empirical one; the starts advance together, one pass of the
    dynamic program per iteration. Yields the iterates of the start whose
    endpoint has the higher likelihood (the first on a tie)."""
    vals, counts = _multiplicity_groups(profile)
    starts = [_tilted_uniform(K)]
    if K >= 2:
        # desk scale is cheap enough to certify both basins by likelihood
        starts.append(_empirical_start(mults, K))
    iterates = [np.stack(starts)]
    for _ in range(cfg.em_iterations):
        mass = _exact_estep_mass(iterates[-1], vals, counts)
        iterates.append(mass / mass.sum(axis=1, keepdims=True))
    best = int(np.argmax(_scores(iterates[-1], profile)))  # the first start on a tie
    for q in iterates:
        yield q[best]


def _em_sampled(profile: Profile, mults: np.ndarray, K: int, cfg: EmConfig):
    """EM with the sampled E-step from the tilted uniform start. Yields the
    iterate before each E-step, then the average of the sorted final ones."""
    q = _tilted_uniform(K)
    # One serial chain gains nothing from Philox's counter-based streams and
    # pays about three times per word for them; SFC64 under the same seed
    # draws the E-step's uniforms, sampling stays on Philox.
    gen = np.random.Generator(np.random.SFC64(cfg.seed.seed))
    # The pseudo-count keeps support points that the sampled E-step missed
    # alive; the exact E-step gives every point positive mass already, and
    # any smoothing there would break likelihood monotonicity.
    kappa = 1.0 / (K * profile.n)
    # the chain state: the multiplicity each support point holds, starting
    # from the greedy matching (mults and the tilted uniform start are both
    # descending)
    y = np.zeros(K)
    y[: mults.size] = mults
    window = min(_AVG_WINDOW, cfg.em_iterations)
    averaged = np.zeros(K)
    for it in range(cfg.em_iterations):
        yield q
        burn = max(1, cfg.mcmc_sweeps_per_estep // 4) if it == 0 else 0
        mass = _mcmc_estep_mass(q, y, cfg.mcmc_sweeps_per_estep, gen, burn)
        q = mass + kappa
        q = q / q.sum()
        if it >= cfg.em_iterations - window:
            averaged += np.sort(q)[::-1]
    yield averaged / window


def _em_run(profile: Profile, K: int, cfg: EmConfig) -> Iterator[np.ndarray]:
    """Check the inputs now and return the EM iterates, the initialization
    first and the estimate last."""
    K = _integer(K, "support size")
    if K < 1:
        raise ValueError("support size must be >= 1")
    mults = np.asarray(profile.multiplicities(), dtype=float)
    m = int(mults.size)
    if m > K:
        raise ValueError(f"support size {K} cannot host {m} distinct symbols")
    if m == 0 or cfg.em_iterations == 0:
        return iter([_tilted_uniform(K)])
    if m > _EXACT_M_LIMIT or K > _EXACT_K_LIMIT:
        return _em_sampled(profile, mults, K, cfg)
    return _em_exact(profile, mults, K, cfg)


def em_pml(profile: Profile, K: int, cfg: EmConfig | None = None) -> Distribution:
    """EM iteration for the PML distribution of a profile over K support
    points (trailing zeros allowed).

    With the exact E-step the profile probability is non-decreasing across
    iterations; with the sampled E-step it is non-decreasing in expectation
    and can be monitored via :func:`em_pml_trace`. The sampled path keeps
    one Metropolis chain alive across E-steps and returns the mean of the
    sorted final iterates, which strips most of the Monte Carlo jitter from
    the returned multiset. Only the last iterate is kept.
    """
    return Distribution(deque(_em_run(profile, K, cfg or EmConfig()), maxlen=1).pop())


def em_pml_trace(profile: Profile, K: int, cfg: EmConfig | None = None):
    """Like :func:`em_pml`, but also returns the profile probability of every
    iterate (initialization included), scored after the EM in one pass of
    the dynamic program. A profile too large for that program raises
    ``ValueError`` once the EM has run."""
    iterates = list(_em_run(profile, K, cfg or EmConfig()))
    return Distribution(iterates[-1]), _scores(iterates, profile)


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
    if k_hint is not None:
        k_hint = _integer(k_hint, "alphabet hint")
    split = split_large(sample)
    reduced = split.reduced_sample
    big = sorted(split.large_symbols)
    if k_hint is not None and k_hint < len(big) + reduced.distinct:
        raise ValueError(
            f"alphabet hint {k_hint} is smaller than the {len(big) + reduced.distinct} "
            "distinct symbols observed"
        )
    parts = []
    if reduced.n:
        if k_hint is not None:
            K = k_hint - len(big)
        else:
            K = estimate_support(reduced)
        scale = 1.0 - split.removed_mass
        parts.append(scale * em_pml(profile_of(reduced), K, cfg).as_array())
    parts.append(np.array([split.large_symbols[s] for s in big], dtype=float))
    entries = np.concatenate(parts)
    return Distribution(entries / math.fsum(entries.tolist()))


def sample_of_profile(profile: Profile) -> Sample:
    """A canonical sample with the given profile (symbols relabeled 0..m-1).

    Profiles are symmetric sufficient statistics, so any relabeling is
    equivalent for everything computed here.
    """
    return Sample({j: mult for j, mult in enumerate(profile.multiplicities())})
