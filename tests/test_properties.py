import itertools
import math
import random

import pytest

from pmllab import (
    Distribution,
    EmConfig,
    LinearEstimator,
    Profile,
    RngSeed,
    Sample,
    draw_sample,
    empirical_distribution,
    falling_factorial_power_sum,
    linear_apply,
    linear_sensitivity_bound,
    make,
    missing_mass_estimate,
    plug_in,
    profile_of,
    property_value,
    tpml_distribution,
)


def random_distribution(rng, k):
    w = [rng.random() + 1e-3 for _ in range(k)]
    t = sum(w)
    return Distribution([v / t for v in w])


class TestPropertyValue:
    def test_uniform_entropies(self):
        u = make("uniform", 64)
        assert property_value(u, "entropy") == pytest.approx(math.log(64), abs=1e-12)
        # from alpha = 200 on, the plain sum of p^alpha underflows to 0
        for alpha in (0.5, 2.0, 3.0, 200.0, 1e300, 1.7e308):
            assert property_value(u, "renyi", alpha) == pytest.approx(math.log(64), abs=1e-12)
        assert property_value(make("uniform", 5000), "renyi", 90) == pytest.approx(
            math.log(5000), abs=1e-12)

    def test_renyi_at_a_huge_order_is_the_min_entropy(self):
        d = make("zipf", 100)
        assert property_value(d, "renyi", 1e300) == pytest.approx(
            -math.log(max(d.probs)), abs=1e-12)

    def test_power_sum_uniform(self):
        assert property_value(make("uniform", 10), "power_sum", 2) == pytest.approx(0.1)

    def test_distance_to_uniformity_two_step(self):
        assert property_value(make("two_step", 100), "dist_uniform") == pytest.approx(0.6)

    def test_support(self):
        assert property_value(Distribution([0.5, 0.5, 0.0]), "support") == 2.0

    def test_coverage_support_relation(self):
        # for min prob 1/k', taking m = k' * ln(1/eps) brings the expected
        # coverage within eps * k' of the support size
        eps = 1e-3
        for dist in (make("uniform", 50), make("two_step", 50)):
            k_eff = 1.0 / min(p for p in dist.probs if p > 0.0)
            m = k_eff * math.log(1 / eps)
            s_norm = property_value(dist, "support") / k_eff
            c_norm = property_value(dist, "coverage", m) / m
            assert abs(s_norm - c_norm * math.log(1 / eps)) <= eps

    def test_zero_entries_in_renyi_below_one(self):
        d = Distribution([0.5, 0.5, 0.0])
        assert math.isfinite(property_value(d, "renyi", 0.5))

    def test_renyi_tends_to_shannon(self):
        rng = random.Random(2)
        for _ in range(5):
            d = random_distribution(rng, 50)
            h = property_value(d, "entropy")
            assert abs(property_value(d, "renyi", 1.001) - h) <= 0.01

    def test_invalid_parameters(self):
        u = make("uniform", 4)
        with pytest.raises(ValueError):
            property_value(u, "renyi", 1.0)
        with pytest.raises(ValueError):
            property_value(u, "renyi", -0.5)
        with pytest.raises(ValueError):
            property_value(u, "coverage", 0)
        with pytest.raises(ValueError):
            property_value(u, "sharpness")

    @pytest.mark.parametrize("which", ["renyi", "power_sum", "coverage"])
    @pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_refused(self, which, param):
        with pytest.raises(ValueError, match="finite"):
            property_value(make("uniform", 4), which, param)


class TestEmpiricalDistribution:
    def test_ratios(self):
        assert empirical_distribution(Sample({0: 3, 1: 1})).probs == (0.75, 0.25)

    def test_single_symbol(self):
        assert empirical_distribution(Sample({4: 5})).probs == (1.0,)

    def test_padding(self):
        got = empirical_distribution(Sample({0: 1, 2: 1}), k=4)
        assert got.probs == (0.5, 0.0, 0.5, 0.0)

    def test_alphabet_too_small(self):
        with pytest.raises(ValueError):
            empirical_distribution(Sample({5: 1}), k=3)


class TestPlugIn:
    def test_entropy_empirical(self):
        assert plug_in(Sample({0: 1, 1: 1}), "entropy") == pytest.approx(math.log(2))

    def test_support_empirical(self):
        assert plug_in(Sample({0: 2, 1: 1, 5: 1}), "support") == 3.0

    def test_entropy_pml_small(self):
        got = plug_in(Sample({0: 1, 1: 1}), "entropy", "pml", k=2)
        assert got == pytest.approx(math.log(2), abs=1e-2)

    def test_entropy_tpml_is_the_tpml_estimate(self):
        sample = draw_sample(make("zipf", 40), 200, RngSeed(17))
        cfg = EmConfig(em_iterations=5, mcmc_sweeps_per_estep=6, seed=RngSeed(18))
        want = property_value(tpml_distribution(sample, cfg=cfg), "entropy")
        assert plug_in(sample, "entropy", "tpml", cfg=cfg) == want

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            plug_in(Sample({0: 1}), "entropy", "bayes")

    def test_entropy_plugin_consistency(self):
        truth = make("uniform", 100)
        sample = draw_sample(truth, 10**6, RngSeed(31))
        got = plug_in(sample, "entropy")
        assert abs(got - math.log(100)) <= 0.01


class TestMissingMass:
    def test_no_singletons(self):
        assert missing_mass_estimate(Sample({0: 2, 1: 3})) == 0.0

    def test_hand_worked_profile(self):
        # phi = (2, 1): j=1 contributes 2*phi_2, j=2 contributes 2*phi_2
        assert missing_mass_estimate(Sample({0: 1, 1: 1, 2: 2})) == pytest.approx(0.5)

    def test_all_singletons_clamped(self):
        assert missing_mass_estimate(Sample({i: 1 for i in range(30)})) == 1.0

    def test_range(self):
        rng = random.Random(6)
        for _ in range(40):
            counts = {s: rng.randint(1, 5) for s in range(rng.randint(1, 20))}
            assert 0.0 <= missing_mass_estimate(Sample(counts)) <= 1.0


class TestFallingFactorialPowerSum:
    def test_hand_worked(self):
        assert falling_factorial_power_sum(Sample({0: 2, 1: 1}), 2) == pytest.approx(1 / 3)

    def test_single_symbol(self):
        assert falling_factorial_power_sum(Sample({0: 9}), 2) == 1.0

    def test_exhaustive_expectation_fair_coin(self):
        # sum over all 8 length-3 sequences equals the true second power sum
        probs = (0.5, 0.5)
        total = 0.0
        for seq in itertools.product(range(2), repeat=3):
            counts = {}
            for s in seq:
                counts[s] = counts.get(s, 0) + 1
            pr = 1.0
            for s, c in counts.items():
                pr *= probs[s] ** c
            total += pr * falling_factorial_power_sum(Sample(counts), 2)
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_needs_enough_draws(self):
        with pytest.raises(ValueError):
            falling_factorial_power_sum(Sample({0: 1}), 2)
        with pytest.raises(ValueError):
            falling_factorial_power_sum(Sample({0: 5}), 1)


class TestLinearEstimator:
    def test_mass_identity_coefficients(self):
        prof = Profile({1: 2, 3: 1})
        est = LinearEstimator([i / prof.n for i in range(1, prof.n + 1)])
        assert linear_apply(est, prof) == pytest.approx(1.0)

    def test_distinct_count(self):
        prof = Profile({1: 2, 2: 1})
        assert linear_apply(LinearEstimator([1, 1, 1, 1]), prof) == 3.0

    def test_small_dot_product(self):
        assert linear_apply(LinearEstimator([1, 2]), Profile({1: 2, 2: 1})) == 4.0

    def test_missing_coefficients(self):
        with pytest.raises(ValueError):
            linear_apply(LinearEstimator([1.0]), Profile({3: 1}))

    def test_sensitivity_constant(self):
        assert linear_sensitivity_bound(LinearEstimator([0.7, 0.7, 0.7])) == pytest.approx(1.4)

    def test_sensitivity_arithmetic(self):
        assert linear_sensitivity_bound(LinearEstimator([1, 2, 3])) == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearEstimator([math.inf])

    def test_bound_attained_by_singleton_counter(self):
        # counting singletons: replacing a singleton by a copy of another
        # singleton destroys two of them, hitting the 2 * gap bound exactly
        est = LinearEstimator([1.0, 0.0, 0.0, 0.0])
        seqs = list(itertools.product(range(3), repeat=4))
        values = {
            seq: linear_apply(est, profile_of(Sample(dict(
                (s, seq.count(s)) for s in set(seq)
            ))))
            for seq in seqs
        }
        worst = 0.0
        for seq in seqs:
            for pos in range(4):
                for sub in range(3):
                    if sub == seq[pos]:
                        continue
                    other = seq[:pos] + (sub,) + seq[pos + 1 :]
                    worst = max(worst, abs(values[seq] - values[other]))
        assert worst == linear_sensitivity_bound(est)

    def test_bound_dominates_bruteforce(self):
        # exhaustive neighbor pairs over all length-4 ternary sequences
        rng = random.Random(8)
        seqs = list(itertools.product(range(3), repeat=4))
        for _ in range(10):
            est = LinearEstimator([rng.uniform(-2, 2) for _ in range(4)])
            values = {
                seq: linear_apply(est, profile_of(Sample({
                    s: seq.count(s) for s in set(seq)
                })))
                for seq in seqs
            }
            worst = 0.0
            for seq in seqs:
                for pos in range(4):
                    for sub in range(3):
                        if sub == seq[pos]:
                            continue
                        other = seq[:pos] + (sub,) + seq[pos + 1 :]
                        worst = max(worst, abs(values[seq] - values[other]))
            assert worst <= linear_sensitivity_bound(est) + 1e-12
