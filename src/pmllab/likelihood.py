"""Exact profile probabilities and a brute-force PML oracle.

The probability of observing a given profile comes from a log-space dynamic
program over the remaining count per multiplicity group, which the exact
E-step of the EM solver shares. Alongside it are desk-scale ground truths:
exhaustive enumeration oracles and a grid-search maximizer used to validate
the EM solver.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .core import Distribution, Profile

_BRUTE_FORCE_LIMIT = 10**7
_MAX_DP_STATES = 2**20
_PARTITION_LIMIT = 40
_ORACLE_MAX_K = 4
_ORACLE_MAX_N = 8


def _partition_coefficient(profile: Profile) -> int:
    """n! / prod_i (i!)^phi_i, the number of sequences per symbol assignment."""
    coef = math.factorial(profile.n)
    for i, phi in profile.prevalences.items():
        coef //= math.factorial(i) ** phi
    return coef


def _log_monomial_sums(lp: np.ndarray, mults):
    """Log monomial symmetric polynomials of ``mults``, whole and less one symbol.

    ``lp`` holds rows of log probabilities over the points (1-D: one row).
    ``full[r]`` logs the sum, over the ways to give c_g distinct points each
    multiplicity ``vals[g]`` (ascending), of exp(sum_s mult(s) * lp[r, s]);
    ``short[r, g]`` has c_g - 1 for c_g. One pass over the points fills a
    table with a row axis and one axis of length c_g + 1 per group.
    """
    lp = np.atleast_2d(lp)
    vals, counts = np.unique(np.asarray(mults), return_counts=True)
    states = math.prod(int(c) + 1 for c in counts)
    if states > _MAX_DP_STATES:
        raise ValueError(f"instance too large: {states} dynamic-program states")
    rows = (slice(None),)
    table = np.full((lp.shape[0], *(counts + 1)), -np.inf)
    table[rows + (0,) * counts.size] = 0.0
    for lps in lp.T[(...,) + (None,) * counts.size]:
        prev = table.copy()
        for g, v in enumerate(vals):
            dst = rows * (g + 1) + (slice(1, None),)
            src = rows * (g + 1) + (slice(None, -1),)
            table[dst] = np.logaddexp(table[dst], prev[src] + v * lps)
    short = table[rows + tuple(counts[:, None] - np.eye(counts.size, dtype=int))]
    return vals, table[rows + tuple(counts)], short


def profile_probability(dist: Distribution, profile: Profile) -> float:
    """Probability that an i.i.d. sample of size profile.n from dist has
    exactly this profile.

    Exact up to floating error, in log space throughout, so any n works; the
    cost grows with the product of (count + 1) over the distinct
    multiplicities, which is capped at ``_MAX_DP_STATES``.
    """
    mults = profile.multiplicities()
    if len(mults) > dist.k:
        raise ValueError(
            f"profile has {len(mults)} distinct symbols but the alphabet has {dist.k}"
        )
    if not mults:
        return 1.0
    log_coef = math.lgamma(profile.n + 1) - sum(
        phi * math.lgamma(i + 1) for i, phi in profile.prevalences.items()
    )
    p = dist.as_array()
    lp = np.log(p[p > 0.0])
    return math.exp(log_coef + _log_monomial_sums(lp, mults)[1][0])


def profile_probability_bruteforce(dist: Distribution, profile: Profile) -> float:
    """Direct sum over all k^n sequences; the enumeration oracle for
    :func:`profile_probability`."""
    n, k = profile.n, dist.k
    if k**n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large: {k}^{n} sequences")
    if n == 0:
        return 1.0
    target = tuple(sorted(profile.multiplicities()))
    probs = dist.probs
    total = 0.0
    for seq in itertools.product(range(k), repeat=n):
        mult = Counter(seq)
        if tuple(sorted(mult.values())) != target:
            continue
        pr = 1.0
        for sym, c in mult.items():
            pr *= probs[sym] ** c
        total += pr
    return total


def enumerate_profiles(n: int) -> list[Profile]:
    """All profiles of sample size n, one per integer partition of n."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if n > _PARTITION_LIMIT:
        raise ValueError(f"n={n} exceeds the enumeration guard ({_PARTITION_LIMIT})")
    out: list[Profile] = []
    acc: list[int] = []

    def descend(remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(Profile(Counter(acc), n))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            descend(remaining - part, part)
            acc.pop()

    descend(n, n)
    return out


def _set_partitions(items: tuple[int, ...]):
    """All partitions of a tuple of items into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def _profile_prob_batch(points: np.ndarray, profile: Profile) -> np.ndarray:
    """Profile probability at many distributions at once.

    Expands the monomial symmetric polynomial in power sums via the Moebius
    function of the partition lattice, which vectorizes over the grid. An
    independent route from the dynamic program in
    :func:`profile_probability`.
    """
    mults = profile.multiplicities()
    m = len(mults)
    if m == 0:
        return np.ones(points.shape[0])
    coef = _partition_coefficient(profile)
    sym = 1
    for c in Counter(mults).values():
        sym *= math.factorial(c)
    power_cache: dict[int, np.ndarray] = {}

    def power_sum(s: int) -> np.ndarray:
        if s not in power_cache:
            power_cache[s] = (points**s).sum(axis=1)
        return power_cache[s]

    acc = np.zeros(points.shape[0])
    for partition in _set_partitions(tuple(range(m))):
        term = np.ones(points.shape[0])
        sign = 1.0
        for block in partition:
            s = sum(mults[j] for j in block)
            term = term * power_sum(s)
            sign *= (-1.0) ** (len(block) - 1) * math.factorial(len(block) - 1)
        acc += sign * term
    return (coef / sym) * acc


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    """All compositions of ``steps`` into k parts, scaled to the simplex."""
    rows = []
    for bars in itertools.combinations(range(steps + k - 1), k - 1):
        prev = -1
        row = []
        for b in (*bars, steps + k - 1):
            row.append(b - prev - 1)
            prev = b
        rows.append(row)
    return np.asarray(rows, dtype=float) / steps


def _class_ok(probs, min_prob: float) -> bool:
    return all(v == 0.0 or v >= min_prob - 1e-12 for v in probs)


def exact_pml_oracle(
    profile: Profile,
    k: int,
    grid_steps: int = 60,
    min_prob: float = 0.0,
) -> tuple[Distribution, float]:
    """Exhaustive grid maximizer of the profile probability over the simplex.

    Evaluates every composition of ``grid_steps`` into k coordinates, then
    tightens the winner with 5 rounds of pairwise mass transfers at halved
    steps. The returned value is a certified lower bound on the true
    maximum. ``min_prob > 0`` restricts the search to distributions whose
    nonzero entries are at least ``min_prob`` (a support-size-capped class
    with a probability floor). Ties go to the lexicographically smallest
    ascending-sorted probability vector.
    """
    if k < 1 or k > _ORACLE_MAX_K or profile.n > _ORACLE_MAX_N:
        raise ValueError(
            f"oracle is desk-scale only (k <= {_ORACLE_MAX_K}, n <= {_ORACLE_MAX_N})"
        )
    if profile.m > k:
        raise ValueError(f"profile needs {profile.m} symbols, alphabet has {k}")
    pts = _simplex_grid(k, grid_steps)
    if min_prob > 0.0:
        keep = np.array([_class_ok(row, min_prob) for row in pts])
        pts = pts[keep]
        if pts.size == 0:
            raise ValueError("no grid point satisfies the probability floor")
    vals = _profile_prob_batch(pts, profile)
    top = vals.max()
    ties = np.nonzero(vals == top)[0]
    best_idx = min(ties, key=lambda i: tuple(sorted(pts[i])))
    best = [float(v) for v in pts[best_idx]]
    best_val = profile_probability(Distribution(best), profile)

    step = 1.0 / grid_steps
    for _ in range(5):
        step *= 0.5
        for i in range(k):
            for j in range(k):
                if i == j or best[i] < step:
                    continue
                cand = list(best)
                cand[i] -= step
                cand[j] += step
                if min_prob > 0.0 and not _class_ok(cand, min_prob):
                    continue
                val = profile_probability(Distribution(cand), profile)
                if val > best_val or (
                    val == best_val and tuple(sorted(cand)) < tuple(sorted(best))
                ):
                    best, best_val = cand, val
    return Distribution(best), best_val
