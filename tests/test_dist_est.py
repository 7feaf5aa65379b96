import math

import pytest

from pmllab import (
    Distribution,
    EmConfig,
    RngSeed,
    Sample,
    default_tpml_thresholds,
    denoise,
    draw_sample,
    empirical_distribution,
    estimate_unsorted_l1,
    lp_distance,
    make,
    missing_mass_estimate,
    remd_truncated,
    tpml_distribution,
    weighted_median,
)


class TestWeightedMedian:
    def test_plain_median(self):
        assert weighted_median([1, 2, 3], [1, 1, 1]) == 2.0

    def test_dominant_weight(self):
        assert weighted_median([1, 2], [3, 1]) == 1.0

    def test_tie_takes_lower(self):
        assert weighted_median([1, 2], [1, 1]) == 1.0

    def test_order_independent(self):
        assert weighted_median([3, 1, 2], [1, 1, 1]) == 2.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            weighted_median([], [])
        with pytest.raises(ValueError):
            weighted_median([1.0], [0.0])
        with pytest.raises(ValueError):
            weighted_median([1.0], [-1.0])


class TestDenoise:
    def test_frequent_symbols_keep_empirical(self):
        counts = {0: 70}
        counts.update({i: 1 for i in range(1, 31)})
        sample = Sample(counts)
        pml = empirical_distribution(sample)
        # n = 100: the empirical cutoff ln(100)^2 is about 21.2, below 70
        assigned = denoise(pml, sample)
        assert assigned[0] == pytest.approx(0.7)

    def test_every_observed_symbol_assigned(self):
        sample = draw_sample(make("zipf", 60), 800, RngSeed(4))
        pml = empirical_distribution(sample)
        assigned = denoise(pml, sample)
        assert set(assigned) == set(sample.counts)

    def test_matches_independent_binomial_median(self):
        # reconstruct the pool of the default schedule by hand and recompute
        # the weighted median with exact binomial pmf weights
        n = 100
        sample = Sample({0: 1, 1: 1, 2: n - 2})
        pml = Distribution([0.01] * 100)
        assigned = denoise(pml, sample)

        ln2 = math.log(n) ** 2
        pool = [0.01] * 100
        to_remove = 1 / ln2  # about 0.047: four entries emptied, a fifth cut
        for i in range(len(pool)):
            take = min(pool[i], to_remove)
            pool[i] -= take
            to_remove -= take
        assert pool[3] == 0.0 and 0.0 < pool[4] < 0.01
        for j in range(1, math.ceil(ln2) + 1):
            # n / (j ln(n)^4) < 0.25 at n = 100: no candidate is added
            pool.extend([j / n] * round(n / (j * ln2 * ln2)))
        assert len(pool) == 100
        weights = [math.comb(n, 1) * v * (1 - v) ** (n - 1) for v in pool]
        total = sum(weights)
        acc = 0.0
        expect = None
        for v, w in sorted(zip(pool, weights)):
            acc += w
            if acc >= total / 2:
                expect = v
                break
        assert assigned[0] == pytest.approx(expect, abs=1e-15)
        assert assigned[1] == assigned[0]
        assert assigned[2] == pytest.approx((n - 2) / n)


class TestEstimateUnsortedL1:
    def test_valid_distribution_with_alphabet(self):
        sample = draw_sample(make("uniform", 50), 400, RngSeed(10))
        est = estimate_unsorted_l1(sample, alphabet=50, cfg=EmConfig(seed=RngSeed(1)))
        assert est.k == 50
        assert math.fsum(est.probs) == pytest.approx(1.0, abs=1e-9)
        assert min(est.probs) >= 0.0

    def test_unseen_get_equal_share(self):
        sample = Sample({0: 3, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1})
        est = estimate_unsorted_l1(sample, alphabet=10, cfg=EmConfig(seed=RngSeed(2)))
        unseen_values = {est.probs[s] for s in range(6, 10)}
        assert len(unseen_values) == 1
        share = unseen_values.pop()
        miss = missing_mass_estimate(sample)
        assert share <= miss / 4 + 1e-12

    def test_alphabet_must_cover_support(self):
        with pytest.raises(ValueError):
            estimate_unsorted_l1(Sample({9: 2, 0: 2}), alphabet=5)

    def test_without_alphabet_normalizes_observed(self):
        sample = Sample({0: 2, 1: 2, 2: 4})
        est = estimate_unsorted_l1(sample, cfg=EmConfig(seed=RngSeed(3)))
        assert est.k == 3
        assert math.fsum(est.probs) == pytest.approx(1.0, abs=1e-9)

    def test_beats_empirical_on_undersampled_uniform(self):
        truth = make("uniform", 200)
        ep, ee = [], []
        for trial in range(10):
            seed = RngSeed(88).derive(trial)
            sample = draw_sample(truth, 5000, seed.derive(1))
            est = estimate_unsorted_l1(sample, alphabet=200, cfg=EmConfig(seed=seed.derive(2)))
            ep.append(lp_distance(est, truth, 1))
            ee.append(lp_distance(empirical_distribution(sample, 200), truth, 1))
        assert sum(ep) / 10 <= sum(ee) / 10


class TestTpmlDistribution:
    def test_total_mass_exactly_one(self):
        sample = draw_sample(make("zipf", 80), 3000, RngSeed(14))
        est = tpml_distribution(sample, (6.0, 12.0, 0.002), cfg=EmConfig(seed=RngSeed(5)))
        assert math.fsum(est.probs) == pytest.approx(1.0, abs=1e-9)
        assert min(est.probs) >= 0.0

    def test_degenerate_single_symbol(self):
        est = tpml_distribution(Sample({0: 50}), (2.0, 10.0, 0.01))
        assert est.probs == (1.0,)

    def test_default_thresholds_shape(self):
        a, b, g = default_tpml_thresholds(10**4)
        assert a == pytest.approx(10**0.12 + 10**0.04, abs=1e-12)
        assert b > a
        assert g == pytest.approx(a / 10**4)

    def test_pre_append_balance(self):
        # every appended pad is gamma, so the final fix-up entry never exceeds it
        sample = draw_sample(make("uniform", 100), 2000, RngSeed(15))
        gamma = 0.004
        est = tpml_distribution(sample, (8.0, 16.0, gamma), cfg=EmConfig(seed=RngSeed(6)))
        assert math.fsum(est.probs) == pytest.approx(1.0, abs=1e-9)
        assert min(est.probs) >= 0.0
        assert min(v for v in est.probs if v > 0) <= gamma + 1e-12

    def test_earth_mover_recovery_on_uniform(self):
        truth = make("uniform", 100)
        n = 10**4
        w = math.log(n)
        tau = w / (n * math.log(n))
        bound = 2 / math.sqrt(w)
        hits = 0
        for trial in range(10):
            seed = RngSeed(99).derive(trial)
            sample = draw_sample(truth, n, seed.derive(1))
            est = tpml_distribution(sample, (20.0, 40.0, 20.0 / n), cfg=EmConfig(seed=seed.derive(2)))
            hits += remd_truncated(est, truth, tau) <= bound
        assert hits >= 8

    def test_light_part_goes_through_em(self):
        # all multiplicities below the truncation point: EM output plus pads
        sample = draw_sample(make("uniform", 40), 120, RngSeed(16))
        est = tpml_distribution(sample, (10.0, 20.0, 0.01), cfg=EmConfig(seed=RngSeed(7)))
        assert math.fsum(est.probs) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_tiny_threshold(self):
        with pytest.raises(ValueError):
            tpml_distribution(Sample({0: 5, 1: 5}), (0.5, 1.0, 0.1))

    @pytest.mark.parametrize("thresholds", [(2.0, math.nan, 0.01), (math.inf, math.inf, 0.01),
                                            (2.0, 2.5, math.nan), (2.0, math.inf, 0.01)])
    def test_rejects_non_finite_thresholds(self, thresholds):
        sample = Sample({0: 1, 1: 2, 2: 3, 3: 7})
        with pytest.raises(ValueError, match="finite"):
            tpml_distribution(sample, thresholds)

    def test_rejects_patch_threshold_below_truncation(self):
        # the two 3-count symbols would be both light (3 <= 3) and heavy (3 > 2)
        sample = Sample({i: 1 for i in range(40)} | {100: 3, 101: 3})
        with pytest.raises(ValueError, match="beta_n"):
            tpml_distribution(sample, (3.0, 2.0, 0.01))

    def test_truncated_likelihood_against_enumeration(self):
        # at n = 6 the extensions of a truncated profile are enumerable, so
        # the heavy-residual surrogate can be scored exactly
        import itertools

        from pmllab import (
            enumerate_profiles,
            profile_of,
            profile_probability,
            truncate_profile,
        )

        def truncated_likelihood(dist, tprof):
            total = 0.0
            for prof in enumerate_profiles(tprof.n):
                if prof.m > dist.k:
                    continue
                if all(prof.phi(i) == tprof.phi(i) for i in range(1, tprof.t + 1)):
                    total += profile_probability(dist, prof)
            return total

        sample = Sample({0: 3, 1: 2, 2: 1})
        tprof = truncate_profile(profile_of(sample), 2)
        est = tpml_distribution(sample, (2.0, 2.5, 0.2), cfg=EmConfig(seed=RngSeed(1), em_iterations=100))
        got = truncated_likelihood(est, tprof)

        empirical = Distribution([3 / 6, 2 / 6, 1 / 6])
        assert got >= truncated_likelihood(empirical, tprof)

        steps = 12
        best = 0.0
        for bars in itertools.combinations(range(steps + 3), 3):
            prev = -1
            row = []
            for b in (*bars, steps + 3):
                row.append((b - prev - 1) / steps)
                prev = b
            best = max(best, truncated_likelihood(Distribution(row), tprof))
        assert got >= 0.5 * best
