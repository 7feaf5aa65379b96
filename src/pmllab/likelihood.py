"""Exact profile probabilities and a grid-search PML oracle.

The probability of observing a given profile comes from one log-space
dynamic program over the remaining count per multiplicity group, run by
one pass (:class:`_MonomialPass`) over a fixed number of rows of
probabilities. The pass runs any number of rows in blocks of that many,
which bounds the tables' memory: a trace's iterates, the exact EM's
endpoints and the oracle's grid each score all their rows through one
pass, and the exact EM, where its placements pass
``pml_em._PLACEMENT_LIMIT``, runs every E-step through one pass of its own.
The table keeps the row axis last, so every call runs its inner loop over
contiguous rows, and the table, its views and buffers are made once per
pass. Each point after the first takes one group at a time through a copy
of the table and one shared scratch buffer, about three tables in all;
the first point is written directly. Sequence enumeration is the
independent reference for the program; the grid-search maximizer, which
validates the EM solver, scores through it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .core import Distribution, Profile, _integer

_BRUTE_FORCE_LIMIT = 10**7
_MAX_DP_STATES = 2**20
_PARTITION_LIMIT = 40
_ORACLE_MAX_K = 4
_ORACLE_MAX_N = 8
_ORACLE_GRID_STEPS = 60


def _multiplicity_groups(profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """The distinct multiplicities (ascending, float) and the number of
    symbols with each: the groups of :class:`_MonomialPass`."""
    vals = sorted(profile.prevalences)
    counts = [profile.prevalences[v] for v in vals]
    return np.asarray(vals, dtype=float), np.asarray(counts, dtype=int)


def _dp_states(counts: np.ndarray) -> int:
    """Cells per row of the dynamic program's table; above ``_MAX_DP_STATES``
    the instance is refused."""
    states = math.prod(int(c) + 1 for c in counts)
    if states > _MAX_DP_STATES:
        raise ValueError(f"instance too large: {states} dynamic-program states")
    return states


class _MonomialPass:
    """Log monomial symmetric polynomials of a multiset, whole and less one
    symbol, at rows of log probabilities over the points, through tables
    made once for ``rows`` rows.

    The multiset has ``counts[g]`` symbols of multiplicity ``vals[g]``
    (ascending). At row r, ``full`` logs the sum, over the ways to give c_g
    distinct points each multiplicity ``vals[g]``, of exp(sum_s mult(s) *
    lp[r, s]); ``short[r, g]`` has c_g - 1 for c_g. :meth:`run` takes
    ``rows`` rows, :meth:`full` any number.

    Everything a pass touches is made here. The table's row axis is last,
    so that every group's shifted view runs its inner loop over contiguous
    rows. It keeps a copy of itself for the previous point and one scratch
    buffer that every group reads through a view of its own shape, about
    three tables in all (one buffer per group would multiply that by up to
    G).
    """

    def __init__(self, vals: np.ndarray, counts: np.ndarray, rows: int):
        states = _dp_states(counts)
        groups = counts.size
        self.vals = vals[:, None]
        # a point's terms as G tables of one cell per row
        self.point = (groups, *(1,) * groups, rows)
        self.table = np.empty((*(counts + 1), rows))
        self.flat = self.table.reshape(states, rows)
        self.prev = np.empty_like(self.table)
        scratch = np.empty(self.table.size)
        lead = (slice(None),) * groups
        self.views = []
        for g in range(groups):
            s = self.prev[lead[:g] + (slice(None, -1),)]
            d = self.table[lead[:g] + (slice(1, None),)]
            self.views.append((d, s, scratch[: s.size].reshape(s.shape)))
        # cell units[g] holds one symbol of group g; the pass returns the
        # cell of the counts and the cells of the counts less one symbol of
        # each group
        self.units = np.asarray(self.table.strides[:-1]) // (rows * self.table.itemsize)
        at = int(counts @ self.units)
        self.cells = np.concatenate(([at], at - self.units))

    def run(self, lp: np.ndarray):
        """(full, short) for the rows of ``lp`` (2-D, one row per table
        row); both are fresh arrays, not views of the table.

        Point s updates every cell c, group after group, to logaddexp(c,
        c' + vals[g] * lp[:, s]), with c' the previous point's cell c less
        one symbol of g. Of two or more points, the first writes term g into
        the cell of one symbol of g: that is logaddexp(-inf, 0.0 + term g)
        but for the sign of a zero, which no later logaddexp tells apart.
        """
        table, flat = self.table, self.flat
        table.fill(-np.inf)
        flat[0] = 0.0
        # terms[s, g] is vals[g] * lp[:, s]
        terms = lp.T[:, None, :] * self.vals
        points = terms.reshape(-1, *self.point)
        if len(points) > 1:
            flat[self.units] = terms[0]
            points = points[1:]
        for point in points:
            np.copyto(self.prev, table)
            for (d, s, t), v in zip(self.views, point):
                np.add(s, v, out=t)
                np.logaddexp(d, t, out=d)
        out = flat[self.cells]
        return out[0], np.ascontiguousarray(out[1:].T)

    def full(self, lp: np.ndarray) -> np.ndarray:
        """The whole multiset's sums at any number of rows of ``lp`` (2-D),
        run this pass's row count at a time, the last block padded with
        zeros. Each row's bits do not depend on its block."""
        rows = self.table.shape[-1]
        padded = np.zeros((-(-len(lp) // rows) * rows, lp.shape[1]))
        padded[: len(lp)] = lp
        blocks = [self.run(padded[i : i + rows])[0] for i in range(0, len(padded), rows)]
        return np.concatenate(blocks)[: len(lp)]


@np.errstate(divide="ignore")  # np.log of a zero entry
def _profile_probabilities(points: np.ndarray, profile: Profile) -> np.ndarray:
    """Profile probability at every row of a probability matrix, through one
    pass of as many rows as ``_MAX_DP_STATES`` cells hold.

    A zero entry enters as log 0 = -inf, and ``np.logaddexp(x, -inf) == x``,
    so it gives the same bits as a dropped point. Each value is capped at 1,
    which the rounding of the exponential can pass by one ulp.
    """
    points = np.atleast_2d(points)
    if not profile.m:
        return np.ones(points.shape[0])
    vals, counts = _multiplicity_groups(profile)
    dp = _MonomialPass(vals, counts, min(len(points), _MAX_DP_STATES // _dp_states(counts)))
    log_coef = math.lgamma(profile.n + 1) - sum(
        phi * math.lgamma(i + 1) for i, phi in profile.prevalences.items()
    )
    return np.array([min(1.0, math.exp(log_coef + v)) for v in dp.full(np.log(points)).tolist()])


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
    n = _integer(n, "sample size")
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
    probability vector. The whole grid is scored with one call of the
    dynamic program behind :func:`profile_probability`;
    :func:`profile_probability_bruteforce` stays its independent reference.
    """
    k = _integer(k, "alphabet size")
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
