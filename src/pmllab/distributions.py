"""The six benchmark distribution families and reproducible i.i.d. sampling.

The counts of n i.i.d. draws are multinomial(n, p), so a sample is one
multinomial draw over NumPy's Philox counter-based generator
(Philox4x32-10, a fixed published algorithm): it costs O(k) whatever n is,
and a 64-bit seed alone pins the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _INT64_END, Distribution, Sample, _integer

_UINT64 = 2**64
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) % _UINT64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % _UINT64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % _UINT64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed naming one deterministic random stream."""

    seed: int = 0

    def __post_init__(self):
        seed = _integer(self.seed, "seed")
        if not 0 <= seed < _UINT64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        object.__setattr__(self, "seed", seed)

    def derive(self, *indices: int) -> "RngSeed":
        """Child seed for a trial or grid cell.

        Xor-mixes each index through splitmix64 so that derived streams for
        nearby indices do not collide or correlate.
        """
        s = self.seed
        for ix in indices:
            s = _splitmix64(s ^ (_integer(ix, "seed index") % _UINT64))
        return RngSeed(s)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))


def as_seed(seed: "RngSeed | int") -> RngSeed:
    """``seed`` as an RngSeed; any other value goes through RngSeed's checks."""
    return seed if isinstance(seed, RngSeed) else RngSeed(seed)


def draw_sample(dist: Distribution, n: int, seed: "RngSeed | int") -> Sample:
    """n i.i.d. draws from dist, returned as the symbols seen and their
    multiplicities.

    The same seed always yields the same sample. Time and memory are O(k),
    whatever n is, up to ``n < 2**63``; the sample keeps 16 bytes per
    distinct symbol.
    """
    n = _integer(n, "sample size")
    if not 1 <= n < _INT64_END:
        raise ValueError(f"sample size must be in [1, 2**63), got {n}")
    p = dist.as_array()
    # multinomial gives its last entry whatever the others leave, float dust
    # included, so the vector ends at the last symbol of positive mass
    p = p[: np.flatnonzero(p)[-1] + 1]
    counts = as_seed(seed).generator().multinomial(n, p)
    seen = np.flatnonzero(counts)
    return Sample._unchecked(seen, counts[seen], n)


def _normalized(weights) -> Distribution:
    total = math.fsum(weights)
    if total <= 0.0:
        raise ValueError("weights must have positive total")
    return Distribution([w / total for w in weights])


def _alphabet_size(k: int) -> int:
    """``k`` as an alphabet size in [1, 2**63): past that range a family would
    fail in the building of its list, or never finish it."""
    k = _integer(k, "alphabet size")
    if not 1 <= k < _INT64_END:
        raise ValueError(f"alphabet size must be in [1, 2**63), got {k}")
    return k


def make_uniform(k: int) -> Distribution:
    k = _alphabet_size(k)
    return Distribution([1.0 / k] * k)


def make_two_step(k: int) -> Distribution:
    """Half the symbols at 2/(5k), the other half at 8/(5k)."""
    k = _alphabet_size(k)
    if k < 2 or k % 2:
        raise ValueError(f"two-step needs an even alphabet size, got {k}")
    half = k // 2
    return Distribution([2.0 / (5 * k)] * half + [8.0 / (5 * k)] * half)


def make_three_step(k: int) -> Distribution:
    """Thirds of the symbols at 3/(13k), 9/(13k), and 27/(13k)."""
    k = _alphabet_size(k)
    if k < 3 or k % 3:
        raise ValueError(f"three-step needs an alphabet size divisible by 3, got {k}")
    third = k // 3
    return Distribution(
        [3.0 / (13 * k)] * third + [9.0 / (13 * k)] * third + [27.0 / (13 * k)] * third
    )


def make_geometric(k: int) -> Distribution:
    """p_i proportional to (1 - g)^i with g = 1/k, truncated at k and renormalized."""
    k = _alphabet_size(k)
    if k == 1:
        return Distribution([1.0])
    g = 1.0 / k
    return _normalized([(1.0 - g) ** i for i in range(1, k + 1)])


def make_zipf(k: int) -> Distribution:
    """p_i proportional to i^(-1/2), truncated at k and renormalized."""
    k = _alphabet_size(k)
    return _normalized([i ** -0.5 for i in range(1, k + 1)])


def make_log_series(k: int) -> Distribution:
    """p_i proportional to (1 - gamma)^i / i with gamma = 2/k.

    For k <= 2 the weights degenerate (gamma >= 1); the limit distribution
    concentrates on the first symbol, which is what we return.
    """
    k = _alphabet_size(k)
    if k <= 2:
        return Distribution([1.0] + [0.0] * (k - 1))
    gamma = 2.0 / k
    return _normalized([(1.0 - gamma) ** i / i for i in range(1, k + 1)])


FAMILIES = {
    "uniform": make_uniform,
    "two_step": make_two_step,
    "three_step": make_three_step,
    "geometric": make_geometric,
    "zipf": make_zipf,
    "log_series": make_log_series,
}


def make(name: str, k: int) -> Distribution:
    """Construct a benchmark family by name."""
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown distribution family {name!r}") from None
    return builder(k)
