"""PML-based uniformity testing."""

from __future__ import annotations

import math

import numpy as np

from .core import Distribution, Sample, _integer


def t_pml_test(sample: Sample, k: int, epsilon: float, pml: Distribution) -> int:
    """Two-branch uniformity tester; 1 rejects uniformity, 0 accepts it.

    Branch 1 rejects when the largest multiplicity reaches
    3 * max(1, n/k) * ln(k). Branch 2 rejects when the l2 distance between
    the supplied PML estimate (zero-padded or truncated to length k) and
    the uniform distribution reaches 3 * epsilon / (4 * sqrt(k)). Natural
    logarithms in both thresholds.

    ``pml`` is normally the approximate PML of the sample's profile
    computed with the alphabet size as support hint; passing the true
    distribution instead gives the oracle mode, which separates tester
    logic errors from PML approximation error.
    """
    k = _integer(k, "alphabet size")
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if not 0.0 < epsilon < 2.0:
        raise ValueError(f"epsilon must lie in (0, 2), got {epsilon}")
    n = sample.n
    top = max(sample.counts.values(), default=0)
    if top >= 3.0 * max(1.0, n / k) * math.log(k):
        return 1
    padded = np.zeros(k)
    use = min(pml.k, k)
    padded[:use] = pml.as_array()[:use]
    gap = math.sqrt(float(((padded - 1.0 / k) ** 2).sum()))
    return 1 if gap >= 3.0 * epsilon / (4.0 * math.sqrt(k)) else 0
