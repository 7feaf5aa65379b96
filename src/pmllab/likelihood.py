"""Exact profile probabilities and a grid-search PML oracle.

The probability of observing a given profile comes from one log-space
dynamic program over the remaining count per multiplicity group. A pass
takes any number of rows of probabilities: the exact E-step of the EM
solver, its likelihood scores and the oracle's grid each make one call over
all their rows, which runs them in blocks that bound the tables' memory.
Its tables are small, so a pass costs NumPy calls more than arithmetic. The
table keeps the row axis last, so every call runs its inner loop over
contiguous rows, and the table, its views and buffers are made once per
block, or once per EM run for the exact E-step, which reuses them on every
iteration. While a point's sums over all G groups take at most a sixteenth
of ``_MAX_DP_STATES`` cells, a middle point costs one broadcast add and one
``logaddexp`` per group; a larger table takes one group at a time through a
copy of itself and one shared scratch buffer, about three tables in all.
The first point is written directly and the last one computed only at the
cells the pass returns. Sequence enumeration is the independent reference
for the program; the grid-search maximizer, which validates the EM solver,
scores through it.
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
    pass over the points fills a table with one axis of length c_g + 1 per
    group and the row axis last (see :class:`_MonomialPass`). The rows run
    in blocks of at most ``_MAX_DP_STATES`` table cells, each block through
    tables built for it, so memory stays bounded however many rows there
    are; each row's bits do not depend on its block.
    """
    lp = np.atleast_2d(lp)
    block = _MAX_DP_STATES // _dp_states(counts)
    parts = [_MonomialPass(vals, counts, rows.shape[0]).run(rows)
             for rows in (lp[i:i + block] for i in range(0, lp.shape[0], block))]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _dp_states(counts: np.ndarray) -> int:
    """Cells per row of the dynamic program's table; above ``_MAX_DP_STATES``
    the instance is refused."""
    states = math.prod(int(c) + 1 for c in counts)
    if states > _MAX_DP_STATES:
        raise ValueError(f"instance too large: {states} dynamic-program states")
    return states


class _MonomialPass:
    """The tables of :func:`_log_monomial_sums` for a fixed multiset and
    number of rows, made once and reused by every :meth:`run`.

    A pass costs NumPy calls more than arithmetic on these small tables, so
    everything it touches is made here. The table's row axis is last, so
    that every group's shifted view runs its inner loop over contiguous
    rows. A point's G group sums are held at once while they are small,
    16 * G * cells <= ``_MAX_DP_STATES`` (at most 512 KiB): one G-table
    buffer that one broadcast add fills, and each group's view of it, with
    the last point gathered at the returned cells. A larger table keeps a
    copy of itself for the previous point and one scratch buffer that every
    group reads through a view of its own shape, about three tables in all
    (one buffer per group would multiply that by up to G). The exact EM
    makes one pass per run and calls :meth:`run` once per E-step.
    """

    def __init__(self, vals: np.ndarray, counts: np.ndarray, rows: int):
        states = _dp_states(counts)
        groups = counts.size
        self.vals = vals[:, None]
        # a point's terms as G tables of one cell per row
        self.point = (groups, *(1,) * groups, rows)
        held = 16 * groups * states * rows <= _MAX_DP_STATES
        # the table, then, for the gather, one cell of -inf for a returned
        # cell less one symbol of a group that has none left
        self.flat = np.empty((states + held, rows))
        self.flat[states:] = -np.inf
        self.table = self.flat[:states].reshape(*(counts + 1), rows)
        lead = (slice(None),) * groups
        dst = [self.table[lead[:g] + (slice(1, None),)] for g in range(groups)]
        src = [lead[:g] + (slice(None, -1),) for g in range(groups)]
        if held:
            self.prev = None
            self.sums = np.empty((groups, *self.table.shape))
            self.views = [(d, self.sums[g][s]) for g, (d, s) in enumerate(zip(dst, src))]
        else:
            self.prev, self.sums = np.empty_like(self.table), None
            scratch = np.empty(self.table.size)
            self.views = []
            for d, s in zip(dst, src):
                s = self.prev[s]
                self.views.append((d, s, scratch[: s.size].reshape(s.shape)))
        # cell units[g] holds one symbol of group g; the pass returns the
        # cell of the counts and the cells of the counts less one symbol of
        # each group. near[0, i] is returned cell i, near[g + 1, i] that
        # cell less one symbol of group g, or the -inf cell where g has
        # none; rows past the first are read only while the sums are held.
        self.units = np.asarray(self.table.strides[:-1]) // (rows * self.table.itemsize)
        at = int(counts @ self.units)
        cells = np.concatenate(([at], at - self.units))
        self.near = np.vstack((cells, cells - self.units[:, None]))
        spent = np.flatnonzero(counts == 1)
        self.near[spent + 1, spent + 1] = states

    def run(self, lp: np.ndarray):
        """(full, short) of :func:`_log_monomial_sums` for the rows of ``lp``
        (2-D, one row per table row); both are fresh arrays, not views of
        the table.

        Point s updates every cell c, group after group, to logaddexp(c,
        c' + vals[g] * lp[:, s]), with c' the previous point's cell c less
        one symbol of g. Of two or more points, the first writes term g into
        the cell of one symbol of g: that is logaddexp(-inf, 0.0 + term g)
        but for the sign of a zero, which no later logaddexp tells apart.
        While the sums are held at once, each later point but the last
        takes one broadcast add and one logaddexp per group, and the last
        point is made only at the G + 1 returned cells: their terms are
        gathered, the cell itself first, and reduced in group order, a
        missing cell reading -inf, where logaddexp(x, -inf) == x. A larger
        table makes each group's sum in turn at every later point, the last
        one too, since the gather would take up to twice the table. Every
        bit is that of the update run at every cell and point.
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
        if self.sums is None:
            for point in points:
                np.copyto(self.prev, table)
                for (d, s, t), v in zip(self.views, point):
                    np.add(s, v, out=t)
                    np.logaddexp(d, t, out=d)
            out = flat[self.near[0]]
        else:
            for point in points[:-1]:
                np.add(table, point, out=self.sums)
                for d, s in self.views:
                    np.logaddexp(d, s, out=d)
            out = flat[self.near]
            if len(points):
                out[1:] += terms[-1][:, None, :]
                out = np.logaddexp.reduce(out, axis=0)
            else:
                out = out[0]
        return out[0], np.ascontiguousarray(out[1:].T)


@np.errstate(divide="ignore")  # np.log of a zero entry
def _profile_probabilities(points: np.ndarray, profile: Profile) -> np.ndarray:
    """Profile probability at every row of a probability matrix, through one
    call of the dynamic program.

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
    probability vector. The whole grid is scored with one call of the
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
