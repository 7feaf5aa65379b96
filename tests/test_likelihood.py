import math
import random

import numpy as np
import pytest

from pmllab import (
    Distribution,
    Profile,
    enumerate_profiles,
    exact_pml_oracle,
    make,
    profile_probability,
    profile_probability_bruteforce,
)
from pmllab.likelihood import _MAX_DP_STATES, _log_monomial_sums, _profile_prob_batch


def random_distribution(rng, k):
    w = [rng.random() + 1e-3 for _ in range(k)]
    t = sum(w)
    return Distribution([v / t for v in w])


def partition_count(n):
    """Independent oracle: integer-partition counting by dynamic programming."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestProfileProbability:
    def test_fair_coin_doubleton(self):
        d = Distribution([0.5, 0.5])
        assert profile_probability(d, Profile({2: 1})) == pytest.approx(0.5, abs=1e-15)

    def test_fair_coin_two_singletons(self):
        d = Distribution([0.5, 0.5])
        assert profile_probability(d, Profile({1: 2})) == pytest.approx(0.5, abs=1e-15)

    def test_point_mass(self):
        assert profile_probability(Distribution([1.0]), Profile({1: 1})) == 1.0

    def test_zero_probability_symbol(self):
        d = Distribution([1.0, 0.0])
        assert profile_probability(d, Profile({1: 2})) == 0.0

    def test_large_alphabet_two_singletons(self):
        got = profile_probability(make("uniform", 2000), Profile({1: 2}))
        assert got == pytest.approx(1.0 - 1.0 / 2000, rel=1e-12)

    def test_state_bound(self):
        # one group per distinct multiplicity, two states each
        prof = Profile.from_multiplicities(range(1, _MAX_DP_STATES.bit_length() + 1))
        with pytest.raises(ValueError):
            profile_probability(make("uniform", prof.m), prof)

    def test_infeasible_alphabet(self):
        with pytest.raises(ValueError):
            profile_probability(Distribution([1.0]), Profile({1: 2}))

    def test_against_bruteforce_random(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(1, 5)
            k = rng.randint(1, 3)
            d = random_distribution(rng, k)
            for prof in enumerate_profiles(n):
                if prof.m > k:
                    continue
                want = profile_probability_bruteforce(d, prof)
                assert profile_probability(d, prof) == pytest.approx(want, abs=1e-12)

    def test_total_probability(self):
        rng = random.Random(29)
        d = random_distribution(rng, 3)
        total = sum(
            profile_probability(d, prof)
            for prof in enumerate_profiles(4)
            if prof.m <= 3
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_batch_route_agrees(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 6)
            k = rng.randint(2, 4)
            d = random_distribution(rng, k)
            pts = np.asarray([d.probs])
            for prof in enumerate_profiles(n):
                if prof.m > k:
                    continue
                got = _profile_prob_batch(pts, prof)[0]
                assert got == pytest.approx(profile_probability(d, prof), abs=1e-12)


def _dp_instances():
    """Seeded rows of log probabilities (K <= 10 points, m <= 8 symbols),
    with one entry at 1e-320 per instance."""
    rng = np.random.default_rng(43)
    for _ in range(100):
        K = int(rng.integers(1, 11))
        mults = rng.integers(1, 5, size=int(rng.integers(1, min(K, 8) + 1)))
        q = rng.random((3, K)) + 1e-3
        q[rng.integers(3), rng.integers(K)] = 1e-320
        yield np.log(q / q.sum(axis=1, keepdims=True)), mults


def _same_bits(got, want):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))


class TestLogMonomialSums:
    """The exact E-step runs the DP once over many rows; each row must give
    the bits of a run on that row alone."""

    def test_batched_rows_equal_single_rows(self):
        for lp, mults in _dp_instances():
            vals, full, short = _log_monomial_sums(lp, mults)
            for r, row in enumerate(lp):
                assert _same_bits((vals, full[r:r + 1], short[r:r + 1]), _log_monomial_sums(row, mults))

    def test_minus_inf_point_equals_deleted_point(self):
        for lp, mults in _dp_instances():
            for s in range(lp.shape[1]):
                cut = lp[0].copy()
                cut[s] = -np.inf
                want = _log_monomial_sums(np.delete(lp[0], s), mults)
                assert _same_bits(_log_monomial_sums(cut, mults), want)


class TestBruteforceGuard:
    def test_too_large(self):
        with pytest.raises(ValueError):
            profile_probability_bruteforce(Distribution([0.1] * 10), Profile({1: 8}))


class TestEnumerateProfiles:
    def test_small_counts(self):
        assert len(enumerate_profiles(4)) == 5
        assert len(enumerate_profiles(10)) == 42

    def test_matches_partition_dp(self):
        for n in range(1, 21):
            assert len(enumerate_profiles(n)) == partition_count(n)

    def test_growth_bound(self):
        for n in range(1, 41):
            assert len(enumerate_profiles(n)) <= math.exp(3 * math.sqrt(n))

    def test_profiles_consistent(self):
        for prof in enumerate_profiles(7):
            assert sum(i * c for i, c in prof.prevalences.items()) == 7

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_profiles(41)


class TestExactPmlOracle:
    def test_doubleton_prefers_point_mass(self):
        dist, val = exact_pml_oracle(Profile({2: 1}), 2)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert sorted(dist.probs) == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_two_singletons_prefer_fair_coin(self):
        dist, val = exact_pml_oracle(Profile({1: 2}), 2)
        assert val == pytest.approx(0.5, abs=1e-9)
        assert sorted(dist.probs) == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_single_draw_attains_one(self):
        _, val = exact_pml_oracle(Profile({1: 1}), 3)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_dominates_random_candidates(self):
        rng = random.Random(37)
        for prof in enumerate_profiles(5):
            if prof.m > 3:
                continue
            _, val = exact_pml_oracle(prof, 3)
            for _ in range(20):
                cand = random_distribution(rng, 3)
                assert val >= profile_probability(cand, prof) - 1e-9

    def test_min_prob_class(self):
        dist, _ = exact_pml_oracle(Profile({1: 2}), 3, min_prob=1 / 3)
        assert all(v == 0.0 or v >= 1 / 3 - 1e-9 for v in dist.probs)

    def test_guards(self):
        with pytest.raises(ValueError):
            exact_pml_oracle(Profile({1: 9}), 3)
        with pytest.raises(ValueError):
            exact_pml_oracle(Profile({1: 2}), 5)
        with pytest.raises(ValueError):
            exact_pml_oracle(Profile({1: 3}), 2)
