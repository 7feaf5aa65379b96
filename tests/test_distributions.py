import math
import tracemalloc

import numpy as np
import pytest

from pmllab import (
    Distribution,
    RngSeed,
    draw_sample,
    make,
    make_geometric,
    make_log_series,
    make_three_step,
    make_two_step,
    make_uniform,
    make_zipf,
)
from pmllab.distributions import FAMILIES


class TestFamilies:
    def test_uniform(self):
        assert make_uniform(4).probs == (0.25, 0.25, 0.25, 0.25)

    def test_two_step_k2(self):
        assert make_two_step(2).probs == pytest.approx((0.2, 0.8))

    def test_two_step_rejects_odd(self):
        with pytest.raises(ValueError):
            make_two_step(5)

    def test_three_step_k3(self):
        got = make_three_step(3).probs
        assert got == pytest.approx((3 / 39, 9 / 39, 27 / 39))
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-15)

    def test_three_step_rejects_indivisible(self):
        with pytest.raises(ValueError):
            make_three_step(4)

    def test_zipf_k2(self):
        inv_sqrt2 = 2 ** -0.5
        want = (1 / (1 + inv_sqrt2), inv_sqrt2 / (1 + inv_sqrt2))
        assert make_zipf(2).probs == pytest.approx(want, abs=1e-15)

    def test_geometric_point(self):
        assert make_geometric(1).probs == (1.0,)

    def test_log_series_decreasing(self):
        probs = make_log_series(50).probs
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_all_families_are_valid_distributions(self):
        for name, build in FAMILIES.items():
            k = 12 if name not in ("two_step", "three_step") else 12
            d = build(k)
            assert d.k == k
            assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)
            assert min(d.probs) >= 0.0

    def test_alphabet_size_bounds(self):
        # from 2**63 on, a ValueError before any list is built (uniform used
        # to raise OverflowError there, geometric and zipf never finished);
        # 3 * 2**63 is even and divisible by 3, so only the bound refuses it
        for name, build in FAMILIES.items():
            for k in (0, -6, 3 * 2**63):
                with pytest.raises(ValueError, match="alphabet size"):
                    build(k)

    def test_make_registry(self):
        assert make("uniform", 3).probs == make_uniform(3).probs
        with pytest.raises(ValueError):
            make("cauchy", 3)


class TestRngSeed:
    def test_range_check(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)

    def test_derive_changes_stream(self):
        s = RngSeed(123)
        assert s.derive(0).seed != s.derive(1).seed
        assert s.derive(1, 2).seed != s.derive(2, 1).seed

    def test_derive_deterministic(self):
        assert RngSeed(5).derive(9).seed == RngSeed(5).derive(9).seed


class TestDrawSample:
    def test_degenerate(self):
        sample = draw_sample(Distribution([1.0]), 7, RngSeed(0))
        assert dict(sample.counts) == {0: 7}

    def test_reproducible(self):
        d = make("zipf", 50)
        a = draw_sample(d, 2000, RngSeed(42))
        b = draw_sample(d, 2000, RngSeed(42))
        assert a == b
        c = draw_sample(d, 2000, RngSeed(43))
        assert a != c

    def test_size(self):
        sample = draw_sample(make("uniform", 10), 999, RngSeed(1))
        assert sample.n == 999

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            draw_sample(Distribution([1.0]), 0, RngSeed(0))

    def test_size_bounds(self):
        # the multinomial counts in signed 64 bits; one more is a ValueError,
        # not an OverflowError from inside NumPy
        with pytest.raises(ValueError, match="sample size"):
            draw_sample(make("uniform", 5), 2**63, RngSeed(0))
        sample = draw_sample(make("zipf", 5000), 2**63 - 1, RngSeed(0))
        assert sample.n == 2**63 - 1
        assert sum(sample.counts.values()) == sample.n

    def test_memory_does_not_grow_with_n(self):
        d = make("zipf", 5000)
        tracemalloc.start()
        try:
            sample = draw_sample(d, 10**7, RngSeed(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == 10**7
        # one length-n array of draws would be 80 MB
        assert peak < 4 * 2**20

    def test_sample_holds_two_int64_per_distinct_symbol(self):
        # the symbols and their multiplicities, 8 bytes each, where a dict
        # of them took about 77 bytes per symbol
        d = make("uniform", 10**6)
        tracemalloc.start()
        try:
            sample = draw_sample(d, 10**7, RngSeed(11))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sample.distinct > 999_000
        assert held <= 24 * sample.distinct

    def test_large_alphabet(self):
        n = 10**6
        sample = draw_sample(make("zipf", 200_000), n, RngSeed(4))
        assert sample.n == n
        assert sum(sample.counts.values()) == n
        assert max(sample.counts) < 200_000

    def test_weights_off_by_the_tolerance(self):
        # Distribution accepts a total within PROB_TOL; NumPy's multinomial
        # alone allows only 1e-12 over
        for total in (1.0 + 9e-10, 1.0 - 9e-10):
            d = Distribution(np.full(1000, total / 1000))
            assert draw_sample(d, 5000, RngSeed(5)).n == 5000

    def test_zero_mass_symbols_never_drawn(self):
        # sequential float subtraction of 1/3 three times leaves 1.1e-16,
        # which the multinomial would give to a trailing entry: about 500
        # draws at n = 2**62
        for probs in ([1 / 3] * 3 + [0.0], [0.0, 0.5, 0.0, 0.5, 0.0]):
            sample = draw_sample(Distribution(probs), 2**62, RngSeed(6))
            assert all(probs[s] > 0.0 for s in sample.counts)
            assert sample.n == 2**62

    def test_binomial_concentration_two_symbols(self):
        n = 10**6
        sample = draw_sample(Distribution([0.5, 0.5]), n, RngSeed(7))
        sigma = math.sqrt(n * 0.25)
        for sym in (0, 1):
            assert abs(sample.counts[sym] - n / 2) <= 5 * sigma

    def test_empirical_convergence_large_sample(self):
        # allow one reseed: a 5-sigma union bound over k symbols is tight
        d = make("zipf", 100)
        n = 10**6
        for seed in (11, 12):
            sample = draw_sample(d, n, RngSeed(seed))
            ok = all(
                abs(sample.counts.get(x, 0) / n - p) <= 5 * math.sqrt(p * (1 - p) / n) + 1e-6
                for x, p in enumerate(d.probs)
            )
            if ok:
                break
        assert ok
