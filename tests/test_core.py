import copy
import itertools
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pmllab import (
    FAMILIES,
    Distribution,
    EmConfig,
    Profile,
    RngSeed,
    Sample,
    approximate_pml,
    draw_sample,
    em_pml,
    empirical_distribution,
    enumerate_profiles,
    estimate_unsorted_l1,
    exact_pml_oracle,
    falling_factorial_power_sum,
    lp_distance,
    make,
    profile_of,
    remd_truncated,
    sorted_l1,
    t_pml_test,
    wasserstein1_multiset,
)
from pmllab.bench import ExperimentConfig
from pmllab.distributions import as_seed


def random_distribution(rng, k):
    w = [rng.random() + 1e-3 for _ in range(k)]
    t = sum(w)
    return Distribution([v / t for v in w])


def brute_sorted_l1(p, q):
    """Independent oracle: minimum over all permutations of p, zero-padded."""
    size = max(p.k, q.k)
    a = list(p.probs) + [0.0] * (size - p.k)
    b = list(q.probs) + [0.0] * (size - q.k)
    return min(
        sum(abs(x - y) for x, y in zip(perm, b))
        for perm in itertools.permutations(a)
    )


class TestDistribution:
    def test_renormalizes_small_deviation(self):
        d = Distribution([0.5 + 2e-10, 0.5])
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            Distribution([0.6, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([1.1, -0.1])

    def test_immutable(self):
        d = Distribution([1.0])
        with pytest.raises(AttributeError):
            d.probs = (0.5, 0.5)

    def test_k(self):
        assert Distribution([0.25] * 4).k == 4

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Distribution([0.5, float("nan")])

    def test_rejects_nan_next_to_negative_dust(self):
        # the clamp of tiny negative entries must not turn the NaN into 0.0
        with pytest.raises(ValueError):
            Distribution([-1e-13, float("nan"), 1.0])

    def test_value_semantics(self):
        a = Distribution([0.25, 0.75])
        b = Distribution(np.array([0.25, 0.75]))
        assert a == b and hash(a) == hash(b)
        assert a != Distribution([0.75, 0.25])
        assert repr(a) == "Distribution(probs=(0.25, 0.75))"
        assert a.probs == (0.25, 0.75)
        with pytest.raises(ValueError):
            a.as_array()[0] = 0.5

    def test_does_not_freeze_the_callers_array(self):
        q = np.array([0.5, 0.5])
        Distribution(q)
        q[0] = 0.25
        assert q[0] == 0.25


class TestSampleAndProfile:
    def test_profile_of_repeated_letters(self):
        # the multiset {a:3, l:2, f:2} has two doubletons and one tripleton
        prof = profile_of(Sample({0: 3, 1: 2, 2: 2}))
        assert prof.dense(7) == (0, 2, 1, 0, 0, 0, 0)
        assert prof.n == 7

    def test_profile_dense_refuses_a_negative_length(self):
        prof = Profile.from_multiplicities([5, 1, 1])
        with pytest.raises(ValueError, match=">= 0"):
            prof.dense(-3)
        assert prof.dense(0) == ()

    def test_profile_single_symbol(self):
        prof = profile_of(Sample({5: 5}))
        assert dict(prof.prevalences) == {5: 1}

    def test_profile_mixed(self):
        prof = profile_of(Sample({0: 1, 1: 1, 2: 2}))
        assert dict(prof.prevalences) == {1: 2, 2: 1}

    def test_mass_identity_random(self):
        rng = random.Random(7)
        for _ in range(50):
            counts = {s: rng.randint(1, 9) for s in range(rng.randint(1, 12))}
            sample = Sample(counts)
            prof = profile_of(sample)
            assert sum(i * c for i, c in prof.prevalences.items()) == sample.n

    def test_sample_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            Sample({0: 0})

    def test_sample_rejects_negative_symbol(self):
        with pytest.raises(ValueError):
            Sample({-1: 3, 0: 2})

    def test_sample_rejects_fractions(self):
        with pytest.raises(ValueError):
            Sample({0: 2.7})
        with pytest.raises(ValueError):
            Sample({1.5: 2})

    def test_sample_refuses_values_past_int64(self):
        # symbols and multiplicities are int64 entries
        for counts in ({2**63: 1}, {0: 2**63}, {1: 2, 2**64: 1}, {3: 2**70}):
            with pytest.raises(ValueError):
                Sample(counts)
        assert Sample({2**63 - 1: 2**63 - 1}).n == 2**63 - 1

    def test_sample_size_is_exact_past_int64(self):
        sample = Sample({0: 2**62, 1: 2**62})
        assert sample.n == 2**63
        assert type(sample.n) is int
        assert sample.rarer_than(2**62 + 1).n == 2**63
        assert sample.rarer_than(float(2**62)).n == 0
        assert Sample({0: 2**63 - 1, 5: 2**63 - 1, 9: 1}).rarer_than(2).n == 1
        # compared exactly, not in float64, where 2**54 + 3 rounds to 2**54 + 4
        assert Sample({0: 2**54 + 3}).rarer_than(float(2**54 + 4)).n == 2**54 + 3

    def test_sample_storage(self):
        sample = Sample({7: 1, 0: 3, 2: 5})
        for arr in (sample.symbols, sample.mults):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable
        assert sample.symbols.tolist() == [0, 2, 7]
        assert sample.mults.tolist() == [3, 5, 1]
        # a dict in ascending symbol order, of Python ints
        assert list(sample.counts.items()) == [(0, 3), (2, 5), (7, 1)]
        assert all(type(v) is int for pair in sample.counts.items() for v in pair)
        assert type(sample.counts[2]) is int
        assert sample.counts.get(np.int64(7)) == 1
        # an integral float finds its symbol, as a dict key would
        assert sample.counts[7.0] == 1
        assert sample.multiplicity(np.float64(2.0)) == 5
        assert sample.multiplicity(2.5) == 0
        # a key that Sample() takes as a symbol finds that symbol
        odd = Sample({Decimal(7): 2, np.True_: 3})
        assert odd == Sample({1: 3, 7: 2})
        for key, mult in ((Decimal(7), 2), (Fraction(14, 2), 2), (Fraction(7), 2), (np.True_, 3)):
            assert odd.counts.get(key) == mult
            assert odd.multiplicity(key) == mult
        for absent in (1, -1, 2**63, 2**80, "7", 2.5, 1.0, -0.5, 2.0**63, math.inf, math.nan):
            assert absent not in sample.counts
        with pytest.raises(TypeError):
            sample.counts[1] = 4
        with pytest.raises(AttributeError):
            sample.n = 5
        assert repr(sample) == "Sample({0: 3, 2: 5, 7: 1})"
        for copied in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample), copy.copy(sample)):
            assert copied == sample
            assert not copied.mults.flags.writeable

    def test_profile_rejects_fractional_prevalence(self):
        with pytest.raises(ValueError):
            Profile({1: 1.5})

    def test_integral_floats_and_numpy_integers_accepted(self):
        assert Sample({np.int64(3): np.int64(2), 4.0: 2.0}) == Sample({3: 2, 4: 2})
        assert Profile({np.int64(1): 3.0}) == Profile({1: 3})

    def test_profile_rejects_inconsistent_n(self):
        with pytest.raises(ValueError):
            Profile({1: 2}, n=3)

    def test_profile_hash_eq(self):
        assert Profile({1: 2, 2: 1}) == Profile({2: 1, 1: 2})
        assert hash(Profile({1: 2})) == hash(Profile({1: 2, 3: 0}))


class TestLpDistance:
    def test_identity(self):
        p = Distribution([0.3, 0.7])
        assert lp_distance(p, p, 1) == 0.0

    def test_disjoint_support(self):
        p, q = Distribution([1.0, 0.0]), Distribution([0.0, 1.0])
        assert lp_distance(p, q, 1) == pytest.approx(2.0)
        assert lp_distance(p, q, 2) == pytest.approx(math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_distance(Distribution([1.0]), Distribution([0.5, 0.5]), 1)

    def test_bad_order(self):
        p = Distribution([1.0])
        with pytest.raises(ValueError):
            lp_distance(p, p, 3)


class TestSortedL1:
    def test_same_multiset(self):
        assert sorted_l1(Distribution([0.7, 0.3]), Distribution([0.3, 0.7])) == 0.0

    def test_frozen_examples(self):
        assert sorted_l1(Distribution([0.6, 0.4]), Distribution([0.5, 0.5])) == pytest.approx(0.2)
        assert sorted_l1(Distribution([1.0]), Distribution([0.5, 0.5])) == pytest.approx(1.0)

    def test_matches_bruteforce(self):
        rng = random.Random(3)
        for _ in range(30):
            p = random_distribution(rng, rng.randint(1, 4))
            q = random_distribution(rng, rng.randint(1, 4))
            assert sorted_l1(p, q) == pytest.approx(brute_sorted_l1(p, q), abs=1e-12)

    def test_pseudometric(self):
        rng = random.Random(11)
        for _ in range(30):
            k = rng.randint(2, 6)
            p, q, r = (random_distribution(rng, k) for _ in range(3))
            assert sorted_l1(p, q) == pytest.approx(sorted_l1(q, p), abs=1e-12)
            assert sorted_l1(p, r) <= sorted_l1(p, q) + sorted_l1(q, r) + 1e-9
        p = Distribution([0.2, 0.8])
        assert sorted_l1(p, Distribution([0.8, 0.2])) == 0.0
        assert sorted_l1(p, Distribution([0.7, 0.3])) > 0.0

    def test_at_most_plain_l1(self):
        rng = random.Random(13)
        for _ in range(30):
            k = rng.randint(2, 8)
            p, q = random_distribution(rng, k), random_distribution(rng, k)
            assert sorted_l1(p, q) <= lp_distance(p, q, 1) + 1e-12


class TestWasserstein:
    def test_identity(self):
        p = Distribution([0.3, 0.7])
        assert wasserstein1_multiset(p, p) == 0.0

    def test_frozen_example(self):
        assert wasserstein1_multiset(
            Distribution([0.6, 0.4]), Distribution([0.5, 0.5])
        ) == pytest.approx(0.1)

    def test_duality_with_sorted_l1(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(2, 12)
            p, q = random_distribution(rng, k), random_distribution(rng, k)
            assert k * wasserstein1_multiset(p, q) == pytest.approx(sorted_l1(p, q), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein1_multiset(Distribution([1.0]), Distribution([0.5, 0.5]))


class TestRemdTruncated:
    def test_identity(self):
        p = Distribution([0.4, 0.6])
        for tau in (0.0, 1e-6, 0.5, 1.0):
            assert remd_truncated(p, p, tau) == 0.0

    def test_full_floor_kills_cost(self):
        assert remd_truncated(Distribution([1.0]), Distribution([0.5, 0.5]), 1.0) == 0.0

    def test_halving_example(self):
        got = remd_truncated(Distribution([0.5, 0.5]), Distribution([0.25] * 4), 1e-6)
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_non_increasing_in_tau(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_distribution(rng, rng.randint(2, 8))
            q = random_distribution(rng, rng.randint(2, 8))
            taus = [0.0, 1e-4, 1e-2, 0.1, 0.5, 1.0]
            vals = [remd_truncated(p, q, t) for t in taus]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-12

    def test_rejects_bad_tau(self):
        p = Distribution([1.0])
        with pytest.raises(ValueError):
            remd_truncated(p, p, 1.5)


_SMALL = Sample({0: 3, 1: 2, 2: 1})

#: (call, an integral value it accepts); the call must refuse that value plus 0.5
_INTEGER_BOUNDARIES = {
    "RngSeed": (RngSeed, 2),
    "as_seed": (as_seed, 2),
    "derive_index": (lambda x: RngSeed(1).derive(x), 2),
    "profile_dense": (lambda x: Profile({1: 2, 2: 1, 3: 1}).dense(x), 2),
    "power_sum_order": (lambda x: falling_factorial_power_sum(_SMALL, x), 2),
    "from_multiplicities": (lambda x: Profile.from_multiplicities([x, 2]), 1),
    "draw_sample_n": (lambda x: draw_sample(make("uniform", 5), x, RngSeed(1)), 20),
    "experiment_n_grid": (
        lambda x: ExperimentConfig(task="entropy", distributions=("uniform",), k=10, n_grid=(x,)),
        100,
    ),
    "experiment_trials": (
        lambda x: ExperimentConfig(task="entropy", distributions=("uniform",), k=10, n_grid=(100,), trials=x),
        3,
    ),
    "experiment_coverage_m": (
        lambda x: ExperimentConfig(
            task="coverage", distributions=("uniform",), k=10, n_grid=(100,), coverage_m=x
        ),
        2,
    ),
    "experiment_k": (
        lambda x: ExperimentConfig(task="entropy", distributions=("uniform",), k=x, n_grid=(100,)),
        10,
    ),
    "experiment_em_iterations": (
        lambda x: ExperimentConfig(
            task="entropy", distributions=("uniform",), k=10, n_grid=(100,), em_iterations=x
        ),
        2,
    ),
    "experiment_mcmc_sweeps": (
        lambda x: ExperimentConfig(
            task="entropy", distributions=("uniform",), k=10, n_grid=(100,), mcmc_sweeps=x
        ),
        2,
    ),
    "em_config_em_iterations": (lambda x: EmConfig(em_iterations=x), 2),
    "em_config_mcmc_sweeps": (lambda x: EmConfig(mcmc_sweeps_per_estep=x), 2),
    "em_pml_K": (lambda x: em_pml(profile_of(_SMALL), x, EmConfig(em_iterations=3)), 4),
    "approximate_pml_k_hint": (lambda x: approximate_pml(_SMALL, x, EmConfig(em_iterations=3)), 4),
    "empirical_k": (lambda x: empirical_distribution(_SMALL, x), 4),
    "estimate_unsorted_l1_alphabet": (
        lambda x: estimate_unsorted_l1(_SMALL, x, EmConfig(em_iterations=3)),
        6,
    ),
    "t_pml_test_k": (lambda x: t_pml_test(_SMALL, x, 0.5, make("uniform", 4)), 4),
    "enumerate_profiles_n": (enumerate_profiles, 4),
    "exact_pml_oracle_k": (lambda x: exact_pml_oracle(Profile({1: 1, 2: 1}), x), 2),
    **{f"make_{name}": (lambda x, name=name: make(name, x), 6) for name in FAMILIES},
}


@pytest.mark.parametrize("call, value", list(_INTEGER_BOUNDARIES.values()), ids=list(_INTEGER_BOUNDARIES))
def test_fractional_integers_refused(call, value):
    with pytest.raises(ValueError, match="integer"):
        call(value + 0.5)
    assert call(float(value)) == call(np.int64(value)) == call(value)
