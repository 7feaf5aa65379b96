"""The six benchmark distribution families and reproducible i.i.d. sampling.

Sampling runs on Walker alias tables (O(1) per draw) over NumPy's Philox
counter-based generator (Philox4x32-10, a fixed published algorithm), so
million-draw trials are fast and a 64-bit seed alone pins the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, Sample, _integer

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


class AliasTable:
    """Walker/Vose alias structure for O(1) categorical draws."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need a non-empty probability vector")
        k = p.size
        scaled = (p / p.sum()) * k
        self.k = k
        self.accept = np.ones(k)
        self.alias = np.arange(k, dtype=np.int64)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            self.accept[s] = scaled[s]
            self.alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            (small if scaled[g] < 1.0 else large).append(g)
        # float dust can leave columns unpaired; they keep accept = 1

    def draw_counts(self, gen: np.random.Generator, n: int) -> np.ndarray:
        cols = gen.integers(0, self.k, size=n)
        keep = gen.random(n) < self.accept[cols]
        symbols = np.where(keep, cols, self.alias[cols])
        return np.bincount(symbols, minlength=self.k)


def draw_sample(dist: Distribution, n: int, seed: "RngSeed | int") -> Sample:
    """n i.i.d. draws from dist, returned as a multiplicity map.

    The same seed always yields the same sample.
    """
    n = _integer(n, "sample size")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    gen = as_seed(seed).generator()
    counts = AliasTable(dist.probs).draw_counts(gen, n)
    return Sample({int(s): int(c) for s, c in enumerate(counts) if c})


def _normalized(weights) -> Distribution:
    total = math.fsum(weights)
    if total <= 0.0:
        raise ValueError("weights must have positive total")
    return Distribution([w / total for w in weights])


def make_uniform(k: int) -> Distribution:
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return Distribution([1.0 / k] * k)


def make_two_step(k: int) -> Distribution:
    """Half the symbols at 2/(5k), the other half at 8/(5k)."""
    if k < 2 or k % 2:
        raise ValueError(f"two-step needs an even alphabet size, got {k}")
    half = k // 2
    return Distribution([2.0 / (5 * k)] * half + [8.0 / (5 * k)] * half)


def make_three_step(k: int) -> Distribution:
    """Thirds of the symbols at 3/(13k), 9/(13k), and 27/(13k)."""
    if k < 3 or k % 3:
        raise ValueError(f"three-step needs an alphabet size divisible by 3, got {k}")
    third = k // 3
    return Distribution(
        [3.0 / (13 * k)] * third + [9.0 / (13 * k)] * third + [27.0 / (13 * k)] * third
    )


def make_geometric(k: int) -> Distribution:
    """p_i proportional to (1 - g)^i with g = 1/k, truncated at k and renormalized."""
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    if k == 1:
        return Distribution([1.0])
    g = 1.0 / k
    return _normalized([(1.0 - g) ** i for i in range(1, k + 1)])


def make_zipf(k: int, s: float = 0.5) -> Distribution:
    """p_i proportional to i^(-s), truncated at k and renormalized."""
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return _normalized([i ** (-s) for i in range(1, k + 1)])


def make_log_series(k: int) -> Distribution:
    """p_i proportional to (1 - gamma)^i / i with gamma = 2/k.

    For k <= 2 the weights degenerate (gamma >= 1); the limit distribution
    concentrates on the first symbol, which is what we return.
    """
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
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


def make(name: str, k: int, **kwargs) -> Distribution:
    """Construct a benchmark family by name."""
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown distribution family {name!r}") from None
    return builder(k, **kwargs)
