"""Exact profile probabilities and a grid-search PML oracle.

The probability of observing a given profile comes from one log-space
dynamic program over the remaining count per multiplicity group. A pass
takes any number of rows of probabilities: the exact E-step of the EM
solver, its likelihood scores and the oracle's grid each run one pass over
all their rows. Its tables are small, so a pass costs NumPy calls more than
arithmetic: each call builds its views and buffers once and runs two
in-place ufunc calls per point and group. Sequence enumeration is the
independent reference for the program; the grid-search maximizer, which
validates the EM solver, scores through it.
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
_ORACLE_GRID_STEPS = 60


def _multiplicity_groups(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """The distinct multiplicities (ascending, float) and the number of
    symbols with each: the groups of :func:`_log_monomial_sums`."""
    vals = sorted(profile.prevalences)
    counts = [profile.prevalences[v] for v in vals]
    return np.asarray(vals, dtype=float), np.asarray(counts, dtype=int)


def _log_monomial_sums(lp: np.ndarray, vals: np.ndarray, counts: np.ndarray):
    """Log monomial symmetric polynomials of a multiset, whole and less one symbol.

    The multiset has ``counts[g]`` symbols of multiplicity ``vals[g]``
    (ascending). ``lp`` holds rows of log probabilities over the points
    (1-D: one row). ``full[r]`` logs the sum, over the ways to give c_g
    distinct points each multiplicity ``vals[g]``, of
    exp(sum_s mult(s) * lp[r, s]); ``short[r, g]`` has c_g - 1 for c_g. One
    pass over the points fills a table with a row axis and one axis of
    length c_g + 1 per group.

    The pass is almost all NumPy call overhead on small tables, so every
    array it touches is made before it: the products vals x lp, each
    group's view of the table and of the previous point's copy, and one
    scratch buffer that every group reads through a view of its own shape
    (one buffer per group would multiply the peak memory by up to G).
    """
    lp = np.atleast_2d(lp)
    states = math.prod(int(c) + 1 for c in counts)
    if states > _MAX_DP_STATES:
        raise ValueError(f"instance too large: {states} dynamic-program states")
    groups = counts.size
    rows = (slice(None),)
    table = np.full((lp.shape[0], *(counts + 1)), -np.inf)
    table[rows + (0,) * groups] = 0.0
    prev = np.empty_like(table)
    scratch = np.empty(table.size)
    dst, src, tmp = [], [], []
    for g in range(groups):
        dst.append(table[rows * (g + 1) + (slice(1, None),)])
        src.append(prev[rows * (g + 1) + (slice(None, -1),)])
        tmp.append(scratch[: src[g].size].reshape(src[g].shape))
    # vl[s, g] is vals[g] * lp[:, s], shaped to broadcast over a group's view
    vl = (lp.T[:, None, :] * vals[:, None])[(...,) + (None,) * groups]
    for point in vl:
        np.copyto(prev, table)
        for d, s, t, v in zip(dst, src, tmp, point):
            np.add(s, v, out=t)
            np.logaddexp(d, t, out=d)
    # the cell of counts c, and of c less one symbol of group g, per row
    flat = table.reshape(lp.shape[0], -1)
    stride = np.asarray(table.strides[1:]) // table.itemsize
    at = int(counts @ stride)
    return flat[:, at], flat[:, at - stride]


@np.errstate(divide="ignore")  # np.log of a zero entry
def _profile_probabilities(points: np.ndarray, profile: Profile) -> np.ndarray:
    """Profile probability at every row of a probability matrix, through one
    pass of the dynamic program.

    A zero entry enters as log 0 = -inf, and ``np.logaddexp(x, -inf) == x``,
    so it gives the same bits as a dropped point. Each value is capped at 1,
    which the rounding of the exponential can pass by one ulp.
    """
    points = np.atleast_2d(points)
    if not profile.m:
        return np.ones(points.shape[0])
    log_coef = math.lgamma(profile.n + 1) - sum(
        phi * math.lgamma(i + 1) for i, phi in profile.prevalences.items()
    )
    full, _ = _log_monomial_sums(np.log(points), *_multiplicity_groups(profile))
    return np.array([min(1.0, math.exp(log_coef + v)) for v in full.tolist()])


def profile_probability(dist: Distribution, profile: Profile) -> float:
    """Probability that an i.i.d. sample of size profile.n from dist has
    exactly this profile.

    Exact up to floating error, in log space throughout, so any n works; the
    cost grows with the product of (count + 1) over the distinct
    multiplicities, which is capped at ``_MAX_DP_STATES``.
    """
    if profile.m > dist.k:
        raise ValueError(f"profile has {profile.m} distinct symbols but the alphabet has {dist.k}")
    return float(_profile_probabilities(dist.as_array(), profile)[0])


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


def exact_pml_oracle(profile: Profile, k: int) -> tuple[Distribution, float]:
    """Exhaustive grid maximizer of the profile probability over the simplex.

    Evaluates every composition of 60 steps into k coordinates, then
    tightens the winner with 5 rounds of pairwise mass transfers at halved
    steps. The returned value is a certified lower bound on the true
    maximum. Ties go to the lexicographically smallest ascending-sorted
    probability vector. The whole grid is scored with one pass of the
    dynamic program behind :func:`profile_probability`;
    :func:`profile_probability_bruteforce` stays its independent reference.
    """
    if k < 1 or k > _ORACLE_MAX_K or profile.n > _ORACLE_MAX_N:
        raise ValueError(
            f"oracle is desk-scale only (k <= {_ORACLE_MAX_K}, n <= {_ORACLE_MAX_N})"
        )
    if profile.m > k:
        raise ValueError(f"profile needs {profile.m} symbols, alphabet has {k}")
    pts = _simplex_grid(k, _ORACLE_GRID_STEPS)
    vals = _profile_probabilities(pts, profile)
    top = vals.max()
    ties = np.nonzero(vals == top)[0]
    best_idx = min(ties, key=lambda i: tuple(sorted(pts[i])))
    best = [float(v) for v in pts[best_idx]]
    best_val = profile_probability(Distribution(best), profile)

    step = 1.0 / _ORACLE_GRID_STEPS
    for _ in range(5):
        step *= 0.5
        for i in range(k):
            for j in range(k):
                if i == j or best[i] < step:
                    continue
                cand = list(best)
                cand[i] -= step
                cand[j] += step
                val = profile_probability(Distribution(cand), profile)
                if val > best_val or (
                    val == best_val and tuple(sorted(cand)) < tuple(sorted(best))
                ):
                    best, best_val = cand, val
    return Distribution(best), best_val
