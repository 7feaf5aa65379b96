"""Property-based tests: invariants checked on generated inputs."""

import math

from hypothesis import given, settings, strategies as st

from pmllab import EmConfig, RngSeed, Sample, tpml_distribution

_counts = st.dictionaries(st.integers(0, 40), st.integers(1, 8), min_size=1, max_size=10).filter(
    lambda c: sum(c.values()) >= 2
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    counts=_counts,
    alpha=st.floats(1.0, 8.0),
    band=st.floats(0.0, 8.0),
    gamma=st.floats(1e-3, 2.0),
)
def test_tpml_is_a_distribution(counts, alpha, band, gamma):
    est = tpml_distribution(
        Sample(counts), (alpha, alpha + band, gamma), cfg=EmConfig(em_iterations=5, seed=RngSeed(0))
    )
    assert min(est.probs) >= 0.0
    assert math.isclose(math.fsum(est.probs), 1.0, abs_tol=1e-9)
