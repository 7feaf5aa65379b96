"""Core types and distances for profile-based inference.

Distributions, samples, and profiles are immutable after construction and
every operation here is a pure function, so all of it is safe to share
across threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

#: Absolute tolerance on the total probability mass. Deviations below this
#: are renormalized away (floating accumulation across thousands of
#: entries), larger ones are rejected.
PROB_TOL = 1e-9

#: Mass smaller than this is treated as exhausted when walking transport
#: couplings.
_MASS_DUST = 1e-15


def _integer(x, what: str) -> int:
    """``x`` as an int. Integral floats and NumPy integers pass; a fraction,
    NaN or infinity is a ValueError rather than a silent truncation."""
    if type(x) is int:
        return x
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if v != x:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return v


class Distribution:
    """A finite discrete probability mass function over symbols ``0..k-1``.

    The entries live in one read-only float64 array (8 bytes each);
    ``probs`` builds a tuple of them on each access.
    """

    def __init__(self, probs: Iterable[float]):
        if isinstance(probs, np.ndarray):
            vals = probs.astype(float)
        else:
            vals = np.fromiter(probs, dtype=float)
        if vals.ndim != 1 or not vals.size:
            raise ValueError("a distribution needs a flat sequence of at least one entry")
        if np.isnan(vals).any():
            raise ValueError("NaN probability entry")
        lo = vals.min()
        if lo < -1e-12:
            raise ValueError(f"negative probability entry: {lo}")
        if lo < 0.0:
            vals = np.where(vals > 0.0, vals, 0.0)
        total = math.fsum(vals.tolist())
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        if total != 1.0:
            vals = vals / total
        vals.flags.writeable = False
        object.__setattr__(self, "_p", vals)

    def __setattr__(self, name, value):
        raise AttributeError(f"Distribution is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Distribution is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return bool(np.array_equal(self._p, other._p))

    def __hash__(self):
        return hash(self.probs)

    def __repr__(self):
        return f"Distribution(probs={self.probs!r})"

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(self._p.tolist())

    @property
    def k(self) -> int:
        """Alphabet size."""
        return int(self._p.size)

    def as_array(self) -> np.ndarray:
        """The entries as a read-only array (no copy)."""
        return self._p

    def min_nonzero(self) -> float:
        """Smallest positive entry; 1.0 for a point mass."""
        return float(self._p[self._p > 0.0].min())


@dataclass(frozen=True, eq=False)
class Sample:
    """A multiset of draws, stored as symbol -> multiplicity plus total size."""

    counts: Mapping[int, int]
    n: int

    def __init__(self, counts: Mapping[int, int]):
        clean: dict[int, int] = {}
        for sym, mult in counts.items():
            m = _integer(mult, "multiplicity")
            if m < 1:
                raise ValueError(f"multiplicity of symbol {sym} must be >= 1, got {mult}")
            clean[_integer(sym, "symbol")] = m
        if clean and min(clean) < 0:
            raise ValueError(f"symbols must be >= 0, got {min(clean)}")
        object.__setattr__(self, "counts", MappingProxyType(clean))
        object.__setattr__(self, "n", sum(clean.values()))

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return dict(self.counts) == dict(other.counts)

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def multiplicity(self, symbol: int) -> int:
        return self.counts.get(symbol, 0)


@dataclass(frozen=True, eq=False)
class Profile:
    """The prevalence vector of a sample, stored sparsely.

    ``prevalences[i]`` is the number of distinct symbols appearing exactly
    ``i`` times; only positive entries are kept, and the integer identity
    ``sum(i * phi_i) == n`` always holds.
    """

    prevalences: Mapping[int, int]
    n: int

    def __init__(self, prevalences: Mapping[int, int], n: int | None = None):
        clean: dict[int, int] = {}
        for i, phi in prevalences.items():
            ii, cc = _integer(i, "multiplicity index"), _integer(phi, "prevalence")
            if ii < 1:
                raise ValueError(f"multiplicity index must be >= 1, got {i}")
            if cc < 0:
                raise ValueError(f"prevalence phi_{i} must be >= 0, got {phi}")
            if cc:
                clean[ii] = cc
        mass = sum(i * c for i, c in clean.items())
        if n is not None and _integer(n, "sample size n") != mass:
            raise ValueError(f"sum of i * phi_i is {mass}, inconsistent with n={n}")
        object.__setattr__(self, "prevalences", MappingProxyType(clean))
        object.__setattr__(self, "n", mass)

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return self.n == other.n and dict(self.prevalences) == dict(other.prevalences)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.prevalences.items()))))

    @property
    def m(self) -> int:
        """Number of distinct observed symbols."""
        return sum(self.prevalences.values())

    @property
    def max_multiplicity(self) -> int:
        return max(self.prevalences, default=0)

    def phi(self, i: int) -> int:
        return self.prevalences.get(i, 0)

    def multiplicities(self) -> tuple[int, ...]:
        """One multiplicity per distinct symbol, in descending order."""
        out: list[int] = []
        for i in sorted(self.prevalences, reverse=True):
            out.extend([i] * self.prevalences[i])
        return tuple(out)

    def dense(self, length: int | None = None) -> tuple[int, ...]:
        top = self.max_multiplicity if length is None else _integer(length, "profile length")
        return tuple(self.phi(i) for i in range(1, top + 1))

    @classmethod
    def from_multiplicities(cls, mults: Iterable[int]) -> "Profile":
        return cls(Counter(mults))

    @classmethod
    def from_dense(cls, phis: Iterable[int]) -> "Profile":
        return cls({i: c for i, c in enumerate(phis, start=1)})


@dataclass(frozen=True)
class TruncatedProfile:
    """The first ``t`` prevalences of a profile, with the original sample size."""

    t: int
    prevalences: tuple[int, ...]
    n: int

    def __init__(self, t: int, prevalences: Iterable[int], n: int):
        t = _integer(t, "truncation index")
        if t < 1:
            raise ValueError("truncation index must be >= 1")
        n = _integer(n, "sample size n")
        prevs = tuple(_integer(c, "prevalence") for c in prevalences)
        if len(prevs) != t:
            raise ValueError(f"expected {t} prevalences, got {len(prevs)}")
        if any(c < 0 for c in prevs):
            raise ValueError("prevalences must be non-negative")
        mass = sum(i * c for i, c in enumerate(prevs, start=1))
        if mass > n:
            raise ValueError(f"truncated mass {mass} exceeds sample size {n}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "prevalences", prevs)
        object.__setattr__(self, "n", n)

    def phi(self, i: int) -> int:
        return self.prevalences[i - 1] if 1 <= i <= self.t else 0


def profile_of(sample: Sample) -> Profile:
    """Prevalence vector of a sample: phi_i = #symbols seen exactly i times."""
    return Profile(Counter(sample.counts.values()), sample.n)


def truncate_profile(profile: Profile, t: int) -> TruncatedProfile:
    """First ``t`` prevalences, zero-padded; the sample size is preserved."""
    if t < 1:
        raise ValueError("truncation index must be >= 1")
    return TruncatedProfile(t, profile.dense(t), profile.n)


def lp_distance(p: Distribution, q: Distribution, order: int) -> float:
    """Plain l1 or l2 norm of the difference of two same-alphabet pmfs."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    diff = p.as_array() - q.as_array()
    if order == 1:
        return float(np.abs(diff).sum())
    return float(math.sqrt(float((diff * diff).sum())))


def sorted_l1(p: Distribution, q: Distribution) -> float:
    """Smallest l1 distance between q and any relabeling of p.

    Both probability multisets are zero-padded to a common length, sorted
    in descending order, and compared entrywise; this attains the minimum
    over all symbol permutations of p.
    """
    size = max(p.k, q.k)
    a = np.zeros(size)
    a[: p.k] = p.as_array()
    b = np.zeros(size)
    b[: q.k] = q.as_array()
    a = np.sort(a)[::-1]
    b = np.sort(b)[::-1]
    return float(np.abs(a - b).sum())


def wasserstein1_multiset(p: Distribution, q: Distribution) -> float:
    """1-Wasserstein distance between the uniform measures on the two
    probability multisets.

    Computed by integrating the gap between the two empirical CDFs over the
    value axis, deliberately a different route than :func:`sorted_l1`; the
    identity ``sorted_l1(p, q) == k * wasserstein1_multiset(p, q)`` is a
    cross-validated theorem, not a shared code path.
    """
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    k = p.k
    locs = np.concatenate([p.as_array(), q.as_array()])
    steps = np.concatenate([np.full(k, 1.0 / k), np.full(k, -1.0 / k)])
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    cdf_gap = np.cumsum(steps[order])[:-1]
    return float((np.abs(cdf_gap) * np.diff(locs)).sum())


def remd_truncated(p: Distribution, q: Distribution, tau: float) -> float:
    """Relative earth-mover distance with probabilities floored at ``tau``.

    Each symbol contributes an atom of mass p(x) at location p(x); the
    ground cost between locations u and v is |log(max(u, tau)) -
    log(max(v, tau))|. The optimum is computed by the monotone (quantile)
    coupling of the two mass profiles sorted by probability value, which is
    optimal because the cost is convex in the difference of
    log-coordinates (see docs/metrics.md).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    atoms_p = sorted(v for v in p.probs if v > 0.0)
    atoms_q = sorted(v for v in q.probs if v > 0.0)
    i = j = 0
    left_p = atoms_p[0]
    left_q = atoms_q[0]
    cost = 0.0
    while i < len(atoms_p) and j < len(atoms_q):
        move = min(left_p, left_q)
        cost += move * abs(math.log(max(atoms_p[i], tau)) - math.log(max(atoms_q[j], tau)))
        left_p -= move
        left_q -= move
        if left_p <= _MASS_DUST:
            i += 1
            left_p = atoms_p[i] if i < len(atoms_p) else 0.0
        if left_q <= _MASS_DUST:
            j += 1
            left_q = atoms_q[j] if j < len(atoms_q) else 0.0
    return cost
