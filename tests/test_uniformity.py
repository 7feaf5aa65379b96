import math

import pytest

from pmllab import (
    Distribution,
    EmConfig,
    RngSeed,
    Sample,
    approximate_pml,
    draw_sample,
    make,
    t_pml_test,
)


def uniform_pml(k):
    return Distribution([1.0 / k] * k)


class TestBranches:
    def test_heavy_multiplicity_rejects(self):
        k, n = 50, 40
        assert n >= 3 * max(1, n / k) * math.log(k)
        sample = Sample({0: n})
        assert t_pml_test(sample, k, 0.5, uniform_pml(k)) == 1

    def test_uniform_pml_accepts(self):
        k = 100
        sample = Sample({i: 1 for i in range(20)})
        assert t_pml_test(sample, k, 0.5, uniform_pml(k)) == 0

    def test_l2_branch_rejects(self):
        k = 100
        sample = Sample({i: 1 for i in range(20)})
        spread = Distribution([2.0 / k] * (k // 2) + [0.0] * (k // 2))
        assert t_pml_test(sample, k, 0.5, spread) == 1

    def test_monotone_in_max_multiplicity(self):
        k = 64
        eps = 0.5
        n = 50
        pml = uniform_pml(k)
        for top in range(2, 40):
            lo = {0: top, **{i: 1 for i in range(1, n - top + 1)}}
            hi = {0: top + 3, **{i: 1 for i in range(1, n - top - 2)}}
            assert Sample(lo).n == Sample(hi).n == n
            if t_pml_test(Sample(lo), k, eps, pml) == 1:
                assert t_pml_test(Sample(hi), k, eps, pml) == 1

    def test_oracle_mode_separates_l2_alternative(self):
        # feeding the true distribution isolates the decision rule: any p with
        # l2 gap at least eps/sqrt(k) crosses the 3 eps / (4 sqrt k) threshold
        k, eps = 2000, 0.4
        p = make("two_step", k)
        gap = math.sqrt(sum((v - 1.0 / k) ** 2 for v in p.probs))
        assert gap >= eps / math.sqrt(k)
        benign = Sample({i: 1 for i in range(50)})
        assert t_pml_test(benign, k, eps, p) == 1
        assert t_pml_test(benign, k, eps, uniform_pml(k)) == 0

    def test_validation(self):
        sample = Sample({0: 1})
        with pytest.raises(ValueError):
            t_pml_test(sample, 0, 0.5, uniform_pml(2))
        with pytest.raises(ValueError):
            t_pml_test(sample, 2, 2.5, uniform_pml(2))

    def test_one_symbol_alphabet_accepts(self):
        # the only distribution over one symbol is uniform
        for n in (1, 5, 1000):
            assert t_pml_test(Sample({0: n}), 1, 0.5, uniform_pml(1)) == 0

    def test_pml_shorter_than_alphabet_is_padded(self):
        k = 10
        sample = Sample({i: 1 for i in range(3)})
        assert t_pml_test(sample, k, 0.5, Distribution([1.0])) == 1


class TestMonteCarloSmoke:
    def test_small_scale_rates(self):
        k, eps = 200, 0.5
        n = math.ceil(8 * math.sqrt(k * math.log(k)) / eps**2)
        wrong = {"uniform": 0, "two_step": 0}
        for name, want in (("uniform", 0), ("two_step", 1)):
            truth = make(name, k)
            for trial in range(20):
                seed = RngSeed(140).derive(hash(name) % 997, trial)
                sample = draw_sample(truth, n, seed.derive(1))
                pml = approximate_pml(sample, k_hint=k, cfg=EmConfig(seed=seed.derive(2)))
                wrong[name] += t_pml_test(sample, k, eps, pml) != want
        assert wrong["uniform"] <= 3
        assert wrong["two_step"] <= 3
