"""Approximate profile maximum likelihood via EM over latent symbol
assignments.

Both PML estimators, :func:`approximate_pml` here and
``dist_est.tpml_distribution``, share one core: split the sample by
multiplicity into a light part and the empirical frequencies of its heavy
symbols, pick an output support size for the light part, and run EM on the
light profile. Each estimator keeps only its finish: :func:`approximate_pml`
scales the EM estimate by the light mass, appends the heavy frequencies and
renormalizes; TPML drops the band between its two thresholds and pads.

The EM treats the injective assignment of observed distinct symbols to
output support points as the latent variable. The E-step is exact on small
instances and Metropolis-sampled at scale. The exact path runs two starts,
which advance together. Up to _PLACEMENT_LIMIT distinct placements of the
multiset on the points, its E-step is one weighted sum over them; above
it, one pass per iteration of the log-space dynamic program of the profile
likelihood, over K + 1 rows per start (each point left out, then none).
Neither form depends on the scale of an iterate, so the exact EM
normalises its iterates once per run.
Symbols of equal multiplicity are exchangeable, so the sampled E-step runs
its chains on the multiplicity each support point holds: one block of
pairwise content exchanges per sweep covers both symbol swaps and moves to
empty points. Below about 2,000 points it advances up to eight chains as
one array, splitting the E-step's sweep budget among them, because there
NumPy's per-call overhead, not the arithmetic, sets the cost of a sweep.
Its pairing is drawn once per E-step: one random slot order, shared by
the chains, fixes which points meet, and one offset per sweep rotates the
pairing; each chain gets its own acceptance uniforms, drawn in blocks of
whole sweeps of at most 8 MiB (or one sweep), not all at once. That randomness
comes from an SFC64 generator under the EM seed, not from the Philox
streams of sampling: the chains advance in one serial computation that
needs no counter-based streams, and SFC64 draws its uniforms about three
times as fast. The M-step reweights each support point by its expected
assigned multiplicity mass.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import Distribution, Profile, Sample, _below, _integer, profile_of
from .distributions import RngSeed, as_seed
from .likelihood import _MonomialPass, _dp_states, _multiplicity_groups, _profile_probabilities

#: Take the E-step exactly up to these sizes, sample beyond them.
_EXACT_M_LIMIT = 8
_EXACT_K_LIMIT = 10

#: An exact EM run over at most this many distinct placements of the
#: multiset takes its E-step as a sum over them, and through the dynamic
#: program above it. Timed as whole em_pml calls, the placements' build
#: included, the sum won on every profile measured up to 10,080 placements
#: and lost on some from 12,600 on (BENCH_one_normalisation.json).
_PLACEMENT_LIMIT = 10_080

#: Relative tilt of the starting point. An exactly uniform start is a fixed
#: point of the update on symmetric profiles and never escapes, so the
#: initialization is uniform with a strictly decreasing deterministic tilt.
_INIT_TILT = 1e-3

_LOG_FLOOR = 1e-300

#: Symbols with multiplicity at least this times ln(n)^2 count as frequent.
_TAU_MULTIPLIER = 1.5

#: Cap on the extrapolated support size; it never cuts below the distinct count.
_MAX_SUPPORT = 10_000

#: Cap on the sampled E-step's sweep budget: it draws one pairing offset per
#: sweep at once, and past this many the offsets alone take over 128 MiB.
_MAX_SWEEPS = 2**24


@dataclass(frozen=True)
class EmConfig:
    """Knobs for the EM solver and the surrounding pipeline."""

    em_iterations: int = 30
    #: the sampled E-step's budget of sampled sweeps, split among its chains
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
        if not 1 <= self.mcmc_sweeps_per_estep <= _MAX_SWEEPS:
            raise ValueError(f"mcmc_sweeps_per_estep must be in [1, 2**24], got {self.mcmc_sweeps_per_estep}")


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


def _split(sample: Sample, light_below: float, heavy_from: float) -> SplitResult:
    """The symbols seen fewer than ``light_below`` times, and the empirical
    frequencies, in symbol order, of those seen at least ``heavy_from``
    times; a band in between belongs to neither."""
    heavy = ~_below(sample.mults, heavy_from)
    n = sample.n
    # int / int division: n can pass 2**53, where a float64 n rounds
    freqs = {s: c / n for s, c in zip(sample.symbols[heavy].tolist(), sample.mults[heavy].tolist())}
    return SplitResult(freqs, sample.rarer_than(light_below), math.fsum(freqs.values()))


def split_large(sample: Sample) -> SplitResult:
    """Move symbols with multiplicity >= 1.5 * ln(n)^2 to
    empirical estimates and keep the rest."""
    if sample.n < 2:
        raise ValueError("need at least two draws")
    tau = split_threshold(sample.n)
    return _split(sample, tau, tau)


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
        if j <= trials:
            weight = 1.0 - (-(t - 1.0)) ** j * tail[j]
        else:
            weight = 1.0
        est += weight * phi
    return max(distinct, min(round(est), _MAX_SUPPORT))


def _tilted_uniform(K: int) -> np.ndarray:
    tilt = 1.0 + _INIT_TILT * (np.arange(K - 1, -1, -1, dtype=float) / max(K - 1, 1))
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


def _exact_estep(vals: np.ndarray, counts: np.ndarray, S: int, K: int):
    """The exact E-step for S starts over K points: ``mass`` maps the (S, K)
    iterate to the expected multiplicity mass per support point (into
    ``out`` when given), whatever the scale of each row of the iterate.

    Point s hosts a symbol of multiplicity v with probability q_s^v times
    the monomial sum of the rest of the multiset over the other points,
    divided by the monomial sum of the whole multiset over all points; a
    scale c of a row of q multiplies both by c^n. One pass of the dynamic
    program gives both for every start, over K + 1 rows of log q per start:
    row s leaves point s out (log q_s = -inf) and the last row keeps every
    point. ``vals`` and ``counts`` are the multiplicity groups of the
    profile. The rows, their -inf diagonal and the program's tables are
    made here, once; each call overwrites every cell it reads.
    """
    dp = _MonomialPass(vals, counts, S * (K + 1))
    rows = np.full((S, K + 1, K), -np.inf)
    kept = ~np.eye(K + 1, K, dtype=bool)  # row s of each start drops point s

    def mass(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        lq = np.log(np.maximum(q, _LOG_FLOOR))
        np.copyto(rows, lq[:, None, :], where=kept)
        full, short = dp.run(rows.reshape(S * (K + 1), K))
        full = full[K :: K + 1, None, None]
        short = short.reshape(S, K + 1, -1)[:, :K]
        # einsum, not @, whose bits follow the BLAS kernel, picked by the CPU
        return np.einsum("skg,g->sk", np.exp(vals * lq[..., None] + short - full), vals, out=out)

    return mass


def _placement_count(counts: np.ndarray, K: int) -> int:
    """The distinct placements of the multiset on K points, K! / ((K - m)!
    prod_g c_g!), for ``counts[g]`` symbols in group g and m in all."""
    m = int(counts.sum())
    return math.factorial(K) // (math.factorial(K - m) * math.prod(math.factorial(c) for c in counts.tolist()))


def _placements(vals: np.ndarray, counts: np.ndarray, K: int) -> np.ndarray:
    """The (N, K) matrix of the distinct placements of the multiset on K
    points: each row is the multiplicities padded with K - m zeros, in one
    of its N distinct orders. Group g goes, in each row so far, on every
    choice of ``counts[g]`` of the points that row leaves empty."""
    rows = np.zeros((1, K))
    for v, c in zip(vals.tolist(), counts.tolist()):
        empty = np.nonzero(rows == 0)[1].reshape(len(rows), -1)  # every multiplicity is >= 1
        picks = np.array(list(itertools.combinations(range(empty.shape[1]), c)), dtype=np.intp)
        chosen = empty[:, picks].reshape(-1, c)
        rows = np.repeat(rows, len(picks), axis=0)
        rows[np.arange(len(rows))[:, None], chosen] = v
    return rows


def _placement_estep(vals: np.ndarray, counts: np.ndarray, S: int, K: int):
    """The exact E-step as a weighted sum over the N placements of the
    multiset, for S starts: ``mass`` maps an (S, K) iterate, at any scale
    per row, to the expected multiplicity mass per point times a factor per
    row (into ``out`` when given); ``loglik`` gives each row's log monomial
    sum, the log profile probability less a constant.

    Placement a has weight prod_s q_s^a_s; with lw = log q . A^T and w =
    exp(lw - max lw), the mass is w . A, undivided by sum(w), so its rows
    sum to between n and N n. The matrix, as (K, N) so that both einsums
    (not BLAS, as in _exact_estep) run over contiguous placements, and the
    buffers are made here, once: an E-step is seven NumPy calls.
    """
    placed = np.ascontiguousarray(_placements(vals, counts, K).T)
    lq, lw, top = np.empty((S, K)), np.empty((S, placed.shape[1])), np.empty((S, 1))

    def weights(q: np.ndarray) -> np.ndarray:  # w in lw, and max lw in top
        np.maximum(q, _LOG_FLOOR, out=lq)
        np.log(lq, out=lq)
        np.einsum("sk,kn->sn", lq, placed, out=lw)
        np.max(lw, axis=1, keepdims=True, out=top)
        np.subtract(lw, top, out=lw)
        return np.exp(lw, out=lw)

    def mass(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.einsum("sn,kn->sk", weights(q), placed, out=out)

    def loglik(q: np.ndarray) -> np.ndarray:
        return (np.log(weights(q).sum(axis=1, keepdims=True)) + top)[:, 0]

    return mass, loglik


@np.errstate(divide="ignore")  # np.log of a uniform draw of exactly 0.0
def _mcmc_estep_mass(
    q: np.ndarray, y: np.ndarray, sweeps: int, gen: np.random.Generator, burn: int
) -> np.ndarray:
    """Expected multiplicity mass per support point, by Metropolis sampling
    of the latent assignment with C chains at once.

    Symbols of equal multiplicity are exchangeable, so each chain runs on
    slot contents: ``y[s, c]`` is the multiplicity that support point s
    holds in chain c, 0 if the point is empty. The target is proportional to
    prod_s q_s^y_s, the image of the law prod_j q_sigma(j)^mult_j of the
    assignment sigma. A move exchanges the contents of two points a and b
    and is accepted when log u < (y_a - y_b) * (lq_b - lq_a). That one rule
    covers a swap of two symbols and a relocation of a symbol to an empty
    point, so each sweep is a single block of disjoint pairs, chosen
    independently of the state: every acceptance ratio is exact and the
    block vectorizes. One block per sweep, over all K points, is what keeps
    a sweep cheap; it proposes about m(K - m)/K moves to empty points per
    sweep.

    The pairing is drawn once per E-step and shared by the chains. One
    random slot order splits the points into halves A and B; sweep t pairs
    A[i] with B[(i + r_t) mod |B|]. Then come the offsets, one draw of
    ``gen`` (SFC64 on the EM path), and last the acceptance uniforms, each
    chain its own. The uniforms are drawn as the sweeps reach them, in
    blocks of whole sweeps of at most _UNIFORM_BLOCK_ENTRIES entries (one
    sweep if that is larger): the generator fills a row-major array in
    order and the sweeps draw nothing else, so the blocks give the bits of
    one (sweeps, K // 2 * C) draw while holding 8 MiB of it at most, or
    one sweep's worth when that is more. The offsets become Python ints a
    block at a time too, so past their 8 bytes per sweep they hold one
    block's list. No point sits out a whole E-step (with odd K, one B point rests per
    sweep), and over the sweeps every A x B pair can be proposed; those
    transpositions reach every arrangement of the contents.

    The ``sweeps`` budget is split among the chains: each runs ``burn``
    unsampled sweeps, then ceil(sweeps / C) sampled ones. The chain axis is
    last, so a sweep's C * (K // 2) pairs are one contiguous run of every
    ufunc, and the per-point log q values are repeated C times to match
    (broadcasting them instead would make every inner loop only C entries
    long). With C = 1 this is the plain serial chain: the same draws, the
    same arithmetic, the same bits. Each sweep writes its differences, gains
    and acceptance mask into three arrays made once per call, and its B
    window into B's second copy, which it then refreshes over that window
    alone: one slice, or two when the window wraps.

    ``y`` is the (K, C) chain state and is advanced in place, so the chains
    persist across E-steps. The call ends in slot order: the state's rows
    and the mass are gathered into point order through the inverse of the
    slot order, which is cheaper than scattering them through the order
    itself. The mass, the mean over chains and sampled sweeps, sums
    integer-valued contents, so it is exact, whatever the order of the
    sums, up to the final division.
    """
    K, C = y.shape
    sampled = -(-sweeps // C)
    steps = sampled + burn
    order = gen.permutation(K)
    half = K // 2
    nb = K - half
    # The state in slot-order coordinates, with B listed twice so that each
    # sweep's partners are one slice: point order[i] holds the C entries
    # from w[i * C], and B's copy w[K * C:] mirrors w[half * C:K * C]
    # between sweeps. Offsets below are in entries, points times C.
    w = y.take(np.concatenate((order, order[half:])), axis=0).ravel()
    hc, bc, kc = half * C, nb * C, K * C
    lw = np.log(np.maximum(q[order], _LOG_FLOOR))
    if C > 1:
        lw = lw.repeat(C)
    la = lw[:hc]
    lb_twice = np.concatenate((lw[hc:], lw[hc:]))
    at = gen.integers(nb, size=steps)
    rows = min(steps, max(1, _UNIFORM_BLOCK_ENTRIES // max(hc, 1)))
    logu = np.empty((rows, hc))
    za = w[:hc]
    acc = np.zeros(kc)
    step = np.empty(hc)
    gain = np.empty(hc)
    ok = np.empty(hc, dtype=bool)
    for t0 in range(0, steps, rows):
        # the next block of uniforms, the last maybe shorter, and its sweeps'
        # offsets as Python ints, a block at a time
        block = logu[: steps - t0]
        gen.random(out=block)
        np.log(block, out=block)
        for t, (u, r) in enumerate(zip(block, (at[t0 : t0 + rows] * C).tolist()), t0):
            e = r + hc
            zb = w[hc + r : hc + e]
            # Accepted exchanges are applied as a blend without branches,
            # which beats np.where on random masks.
            np.subtract(zb, za, out=step)
            np.subtract(la, lb_twice[r:e], out=gain)
            gain *= step
            np.less(u, gain, out=ok)
            step *= ok
            za += step
            zb -= step
            # B and its copy agree again over the window alone: when the
            # window ran into the copy, that part goes back to B and the
            # rest forward
            wrap = e - bc
            if wrap > 0:
                w[hc : hc + wrap] = w[kc : kc + wrap]
                w[kc + r :] = w[hc + r : kc]
            else:
                w[kc + r : kc + e] = zb
            if t >= burn:
                acc += w[:kc]
    inv = np.empty(K, dtype=np.intp)
    inv[order] = np.arange(K)
    # every index is in range; "clip" spares take the buffer that "raise" needs
    w[:kc].reshape(K, C).take(inv, axis=0, out=y, mode="clip")
    if C > 1:
        acc = acc.reshape(K, C) @ np.ones(C)
    return acc.take(inv) / (C * sampled)


#: The sampled-E-step solver returns the mean of the descending-sorted
#: iterates over this many final EM iterations. The output is a multiset
#: estimate, so sorting loses nothing, and averaging quantile functions
#: strips Monte Carlo jitter without blurring the converged shape.
_AVG_WINDOW = 20

#: The sampled E-step adds chains while their state holds at most
#: _BATCH_ENTRIES entries (C * K), up to _MAX_CHAINS; past that a sweep's
#: cost is its arithmetic, not NumPy's per-call overhead. With more than one
#: chain, every E-step after the first starts with _REBURN unsampled sweeps
#: per chain.
_MAX_CHAINS = 8
_BATCH_ENTRIES = 4096
_REBURN = 4

#: The sampled E-step draws its acceptance uniforms in blocks of whole
#: sweeps of at most this many float64 entries (8 MiB), or one sweep when
#: that is larger, so their memory does not grow with the sweep count.
_UNIFORM_BLOCK_ENTRIES = 2**20


def _em_exact(profile: Profile, mults: np.ndarray, K: int, cfg: EmConfig):
    """EM with the exact E-step from the tilted uniform start and the
    empirical one, advancing together: one E-step for both per iteration,
    on the last one's raw output, and every iterate normalised once, at the
    end. On placements the E-step also scores the endpoints, on the dynamic
    program the profile likelihood does. Returns the iterates of the start
    whose endpoint is likelier (the first on a tie)."""
    vals, counts = _multiplicity_groups(profile)
    iterates = np.empty((cfg.em_iterations + 1, 2, K))
    # desk scale is cheap enough to certify both basins by likelihood
    iterates[0] = _tilted_uniform(K), _empirical_start(mults, K)
    if _placement_count(counts, K) <= _PLACEMENT_LIMIT:
        estep, score = _placement_estep(vals, counts, 2, K)
    else:
        estep = _exact_estep(vals, counts, 2, K)
        score = partial(_profile_probabilities, profile=profile)
    for t in range(cfg.em_iterations):
        estep(iterates[t], out=iterates[t + 1])
    iterates[1:] /= iterates[1:].sum(axis=2, keepdims=True)
    best = int(np.argmax(score(iterates[-1])))  # the first start on a tie
    return list(iterates[:, best])


def _chain_count(K: int, sweeps: int) -> int:
    """How many Metropolis chains the sampled E-step advances at once over K
    points. Batching pays only where NumPy's per-call overhead dominates a
    sweep, so the count shrinks as K grows and is 1 from K = 2,049 on; it
    never exceeds the sweep budget, which the chains split."""
    return min(_MAX_CHAINS, sweeps, max(1, _BATCH_ENTRIES // K))


def _em_sampled(profile: Profile, mults: np.ndarray, K: int, cfg: EmConfig):
    """EM with the sampled E-step from the tilted uniform start. Yields the
    iterate before each E-step, then the average of the sorted final ones."""
    q = _tilted_uniform(K)
    # The chains of one E-step are a single serial computation, which gains
    # nothing from Philox's counter-based streams and pays about three times
    # per word for them; SFC64 under the same seed draws the E-step's
    # uniforms, sampling stays on Philox.
    gen = np.random.Generator(np.random.SFC64(cfg.seed.seed))
    # The pseudo-count keeps support points that the sampled E-step missed
    # alive; the exact E-step gives every point positive mass already, and
    # any smoothing there would break likelihood monotonicity.
    kappa = 1.0 / (K * profile.n)
    # the chain states: the multiplicity each support point holds in each
    # chain, every chain starting from the greedy matching (mults and the
    # tilted uniform start are both descending)
    sweeps = cfg.mcmc_sweeps_per_estep
    chains = _chain_count(K, sweeps)
    y = np.zeros((K, chains))
    y[: mults.size] = mults[:, None]
    # A short chain spends most of its sweeps near where the previous
    # iterate left it, so with several chains every E-step burns in first.
    reburn = _REBURN if chains > 1 else 0
    window = min(_AVG_WINDOW, cfg.em_iterations)
    averaged = np.zeros(K)
    for it in range(cfg.em_iterations):
        yield q
        burn = max(1, sweeps // 4) if it == 0 else reburn
        mass = _mcmc_estep_mass(q, y, sweeps, gen, burn)
        q = mass + kappa
        q = q / q.sum()
        if it >= cfg.em_iterations - window:
            averaged += np.sort(q)[::-1]
    yield averaged / window


def _em_run(profile: Profile, K: int, cfg: EmConfig):
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
    its Metropolis chains alive across E-steps, one chain from K = 2,049
    on and up to eight below, which split ``cfg.mcmc_sweeps_per_estep``
    sampled sweeps among them. It returns the mean of the sorted final
    iterates, which strips most of the Monte Carlo jitter from the returned
    multiset. Only the last iterate is kept.
    """
    return Distribution(deque(_em_run(profile, K, cfg or EmConfig()), maxlen=1).pop())


def em_pml_trace(profile: Profile, K: int, cfg: EmConfig | None = None):
    """Like :func:`em_pml`, but also returns the profile probability of every
    iterate (initialization included), scored after the EM by one pass of
    the dynamic program of its own. A profile too large for that program
    raises ``ValueError`` before the EM runs."""
    _dp_states(_multiplicity_groups(profile)[1])
    iterates = [Distribution(q) for q in _em_run(profile, K, cfg or EmConfig())]
    points = np.stack([q.as_array() for q in iterates])
    return iterates[-1], _profile_probabilities(points, profile).tolist()


def _light_em(split: SplitResult, k_hint: int | None, cfg: EmConfig) -> np.ndarray | None:
    """The EM estimate on the light part's profile, not yet scaled to the
    light mass; None when the light part is empty. Its support size is
    ``k_hint`` less the heavy symbols when a hint is given, else
    :func:`estimate_support` of the light part."""
    light = split.reduced_sample
    if not light.n:
        return None
    K = estimate_support(light) if k_hint is None else k_hint - len(split.large_symbols)
    return em_pml(profile_of(light), K, cfg).as_array()


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
    symbols, and renormalizes exactly. With ``k_hint`` the output has
    ``k_hint`` entries, zeros in place of the EM part when every symbol is
    frequent.
    """
    cfg = cfg or EmConfig()
    if sample.n < 2:
        raise ValueError("need at least two draws")
    if k_hint is not None:
        k_hint = _integer(k_hint, "alphabet hint")
        if k_hint < sample.distinct:
            raise ValueError(
                f"alphabet hint {k_hint} is smaller than the {sample.distinct} distinct symbols observed"
            )
    split = split_large(sample)
    light = _light_em(split, k_hint, cfg)
    if light is not None:
        light = (1.0 - split.removed_mass) * light
    else:
        # every symbol is frequent: the unseen rest of the alphabet gets zeros
        light = np.zeros(0 if k_hint is None else k_hint - len(split.large_symbols))
    entries = np.concatenate((light, np.fromiter(split.large_symbols.values(), float)))
    return Distribution(entries / math.fsum(entries.tolist()))


def sample_of_profile(profile: Profile) -> Sample:
    """A canonical sample with the given profile (symbols relabeled 0..m-1).

    Profiles are symmetric sufficient statistics, so any relabeling is
    equivalent for everything computed here.
    """
    return Sample({j: mult for j, mult in enumerate(profile.multiplicities())})
