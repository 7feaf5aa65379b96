import itertools
import math
import random

import numpy as np
import pytest

from pmllab import (
    Distribution,
    EmConfig,
    Profile,
    RngSeed,
    Sample,
    approximate_pml,
    draw_sample,
    em_pml,
    em_pml_trace,
    empirical_distribution,
    estimate_support,
    exact_pml_oracle,
    make,
    plug_in,
    profile_of,
    sample_of_profile,
    sorted_l1,
    split_large,
    tpml_distribution,
)
from pmllab.likelihood import _MAX_DP_STATES, _log_monomial_sums, profile_probability
from pmllab.pml_em import (
    _LOG_FLOOR,
    _em_run,
    _empirical_start,
    _exact_estep_mass,
    _mcmc_estep_mass,
    _tilted_uniform,
    split_threshold,
)


class TestEmConfig:
    def test_defaults(self):
        cfg = EmConfig()
        assert cfg.em_iterations == 30
        assert cfg.mcmc_sweeps_per_estep == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(em_iterations=-1)
        with pytest.raises(ValueError):
            EmConfig(mcmc_sweeps_per_estep=0)

    def test_int_seed_coerced(self):
        assert EmConfig(seed=5).seed == RngSeed(5)
        assert EmConfig(seed=np.int64(5)).seed == RngSeed(5)

    def test_split_threshold(self):
        # 1.5 * ln(10^4)^2 is about 127.2
        assert split_threshold(10**4) == pytest.approx(127.24, abs=0.01)


class TestSplitLarge:
    def test_threshold_at_ten_thousand(self):
        counts = {0: 200, 1: 100}
        counts.update({i: 1 for i in range(2, 9702)})
        sample = Sample(counts)
        assert sample.n == 10**4
        split = split_large(sample)
        assert 0 in split.large_symbols
        assert 1 not in split.large_symbols
        assert split.large_symbols[0] == pytest.approx(0.02)
        assert split.reduced_sample.multiplicity(1) == 100

    def test_all_singletons_kept(self):
        split = split_large(Sample({i: 1 for i in range(20)}))
        assert not split.large_symbols
        assert split.removed_mass == 0.0

    def test_single_heavy_symbol_fully_removed(self):
        split = split_large(Sample({3: 50}))
        assert split.removed_mass == pytest.approx(1.0)
        assert split.reduced_sample.n == 0

    def test_mass_accounting(self):
        sample = Sample({0: 40, 1: 3, 2: 2})
        split = split_large(sample)
        kept = split.reduced_sample.n
        removed = sum(round(p * sample.n) for p in split.large_symbols.values())
        assert kept + removed == sample.n

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            split_large(Sample({0: 1}))


class TestEstimateSupport:
    def test_clamped_to_distinct(self):
        rng = random.Random(3)
        for _ in range(20):
            counts = {s: rng.randint(1, 6) for s in range(rng.randint(3, 30))}
            sample = Sample(counts)
            assert estimate_support(sample) >= sample.distinct

    def test_cap_bounds_the_extrapolation(self):
        # 3,000 singletons extrapolate to 15,821 points; the cap keeps 10,000
        assert estimate_support(Sample({i: 1 for i in range(3000)})) == 10_000

    def test_cap_never_cuts_below_distinct(self):
        assert estimate_support(Sample({i: 1 for i in range(12_000)})) == 12_000

    def test_tiny_sample_falls_back_to_distinct(self):
        assert estimate_support(Sample({0: 1, 1: 1})) == 2

    def test_all_singletons_formula(self):
        # independent evaluation of the weighting at phi_1 = r = 1000
        r = 1000
        t = math.log(r)
        trials = math.ceil(0.5 * math.log2(r * t * t / (t - 1)))
        theta = 1.0 / (t + 1.0)
        tail1 = 1.0 - (1.0 - theta) ** trials
        want = round((1.0 + (t - 1.0) * tail1) * r)
        got = estimate_support(Sample({i: 1 for i in range(r)}))
        assert got == want

    def test_well_sampled_uniform_recovers_k(self):
        sample = draw_sample(make("uniform", 100), 10**4, RngSeed(5))
        assert estimate_support(sample) == 100

    def test_undersampled_uniform_band(self):
        # median over seeds should land within a factor two of the truth
        k, r = 5000, 10**4
        truth = make("uniform", k)
        estimates = sorted(
            estimate_support(draw_sample(truth, r, RngSeed(100).derive(t)))
            for t in range(30)
        )
        median = estimates[15]
        print(f"support estimates: median {median}, range [{estimates[0]}, {estimates[-1]}]")
        assert 0.5 * k <= median <= 2 * k


class TestEmPml:
    def test_zero_iterations_returns_init(self):
        cfg = EmConfig(em_iterations=0)
        a = em_pml(Profile({2: 1}), 4, cfg)
        b = em_pml(Profile({1: 3}), 4, cfg)
        assert a.probs == b.probs

    def test_two_singletons_converges_to_fair_coin(self):
        d = em_pml(Profile({1: 2}), 2, EmConfig(em_iterations=200))
        assert sorted(d.probs) == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_doubleton_converges_to_point_mass(self):
        d = em_pml(Profile({2: 1}), 2, EmConfig(em_iterations=200))
        assert max(d.probs) == pytest.approx(1.0, abs=1e-3)

    def test_infeasible_support(self):
        with pytest.raises(ValueError):
            em_pml(Profile({1: 3}), 2)

    def test_exact_path_monotone_likelihood(self):
        rng = random.Random(41)
        for _ in range(10):
            mults = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
            prof = Profile.from_multiplicities(mults)
            K = rng.randint(len(mults), 8)
            _, trace = em_pml_trace(prof, K, EmConfig(em_iterations=40))
            for a, b in zip(trace, trace[1:]):
                assert b >= a - 1e-12

    def test_exact_estep_matches_permutation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            K = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(K, 6) + 1))
            mults = np.sort(rng.integers(1, 6, m))[::-1].astype(float)
            q = rng.dirichlet(np.ones(K))
            perms = list(itertools.permutations(range(K), m))
            logw = np.array([sum(mults[j] * math.log(q[s]) for j, s in enumerate(p))
                             for p in perms])
            w = np.exp(logw - logw.max())
            want = np.zeros(K)
            for wi, p in zip(w, perms):
                want[list(p)] += wi * mults
            want /= w.sum()
            got = _exact_estep_mass(q[None], *np.unique(mults, return_counts=True))[0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert got.sum() == pytest.approx(mults.sum(), rel=1e-12)

    def test_stacked_estep_equals_one_call_per_start(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            K = int(rng.integers(1, 11))
            mults = np.sort(rng.integers(1, 6, int(rng.integers(1, min(K, 8) + 1))))[::-1]
            groups = np.unique(mults.astype(float), return_counts=True)
            q = rng.dirichlet(np.ones(K), size=int(rng.integers(1, 4)))
            q[0, -1] = 1e-320
            got = _exact_estep_mass(q, *groups)
            assert got.shape == q.shape
            for row_got, row in zip(got, q):
                assert row_got.tobytes() == _exact_estep_mass(row[None], *groups)[0].tobytes()

    def test_leave_one_out_rows_match_an_identity_mask(self):
        # the rows built with np.where over np.eye, as a reference for the
        # strided fill of -inf
        rng = np.random.default_rng(23)
        for _ in range(40):
            K = int(rng.integers(1, 11))
            mults = np.sort(rng.integers(1, 6, int(rng.integers(1, min(K, 8) + 1))))[::-1]
            vals, counts = np.unique(mults.astype(float), return_counts=True)
            q = rng.dirichlet(np.ones(K), size=int(rng.integers(1, 4)))
            q[0, -1] = 1e-320
            S = q.shape[0]
            lq = np.log(np.maximum(q, _LOG_FLOOR))
            rows = np.where(np.eye(K + 1, K, dtype=bool), -np.inf, lq[:, None, :])
            full, short = _log_monomial_sums(rows.reshape(S * (K + 1), K), vals, counts)
            full = full.reshape(S, K + 1)[:, K, None, None]
            short = short.reshape(S, K + 1, -1)[:, :K]
            want = np.exp(vals * lq[..., None] + short - full) @ vals
            assert _exact_estep_mass(q, vals, counts).tobytes() == want.tobytes()

    @staticmethod
    def _sequential_starts(profile, K, cfg):
        """The exact path with each start run to the end before the next, as
        a reference for the starts advancing together."""
        mults = np.asarray(profile.multiplicities(), dtype=float)
        groups = np.unique(mults, return_counts=True)
        starts = [_tilted_uniform(K)] + ([_empirical_start(mults, K)] if K >= 2 else [])
        best = None
        for q in starts:
            trace = []
            for _ in range(cfg.em_iterations):
                trace.append(profile_probability(Distribution(q), profile))
                mass = _exact_estep_mass(q[None], *groups)[0]
                q = mass / mass.sum()
            dist = Distribution(q)
            trace.append(profile_probability(dist, profile))
            if best is None or trace[-1] > best[0]:
                best = (trace[-1], dist, trace)
        return best[1], best[2]

    def test_starts_advancing_together_match_sequential_starts(self):
        rng = random.Random(61)
        for K in range(1, 11):
            for _ in range(6):
                prof = Profile.from_multiplicities(
                    [rng.randint(1, 5) for _ in range(rng.randint(1, min(K, 8)))]
                )
                cfg = EmConfig(em_iterations=rng.randint(1, 25))
                want, want_trace = self._sequential_starts(prof, K, cfg)
                got, got_trace = em_pml_trace(prof, K, cfg)
                assert got.as_array().tobytes() == want.as_array().tobytes(), (K, prof)
                assert got_trace == want_trace, (K, prof)
                assert em_pml(prof, K, cfg).as_array().tobytes() == want.as_array().tobytes()

    def test_sampled_trace_ends_at_the_estimate(self):
        rng = random.Random(67)
        for _ in range(8):
            m = rng.randint(1, 8)
            prof = Profile.from_multiplicities([rng.randint(1, 6) for _ in range(m)])
            K = rng.randint(11, 14)  # above _EXACT_K_LIMIT: the sampled E-step
            cfg = EmConfig(em_iterations=rng.randint(1, 25), mcmc_sweeps_per_estep=5,
                           seed=RngSeed(rng.randint(0, 99)))
            dist, trace = em_pml_trace(prof, K, cfg)
            assert dist.as_array().tobytes() == em_pml(prof, K, cfg).as_array().tobytes()
            assert len(trace) == cfg.em_iterations + 1
            assert trace[-1] == profile_probability(dist, prof)

    def test_yielded_iterates_are_not_changed_later(self):
        # both E-step paths
        for prof, K in ((Profile({1: 3, 2: 1}), 6), (Profile({1: 9, 3: 2}), 14)):
            cfg = EmConfig(em_iterations=6, mcmc_sweeps_per_estep=4)
            seen = [(q, q.copy()) for q in _em_run(prof, K, cfg)]
            assert len(seen) == cfg.em_iterations + 1
            assert all(np.array_equal(q, c) for q, c in seen)

    def test_trace_refuses_a_profile_beyond_the_dynamic_program(self):
        prof = Profile.from_multiplicities(range(1, _MAX_DP_STATES.bit_length() + 1))
        cfg = EmConfig(em_iterations=2, mcmc_sweeps_per_estep=2)
        em_pml(prof, prof.m, cfg)
        with pytest.raises(ValueError, match="dynamic-program states"):
            em_pml_trace(prof, prof.m, cfg)

    def test_trace_without_iterations_scores_the_start(self):
        for prof, K in ((Profile({1: 2, 3: 1}), 4), (Profile({2: 12}), 15), (Profile({}), 3)):
            dist, trace = em_pml_trace(prof, K, EmConfig(em_iterations=0))
            assert dist == Distribution(_tilted_uniform(K))
            assert trace == [profile_probability(dist, prof)]

    @staticmethod
    def _chain(mults, K, gen):
        y = np.zeros(K)
        y[gen.permutation(K)[: mults.size]] = mults
        return y

    def test_mcmc_estep_is_exact_in_law(self):
        # odd and even K, K = m (no empty point), few and many empty points
        cases = ((7, 7), (6, 6), (5, 8), (6, 9), (5, 14), (4, 11), (1, 3), (2, 2))
        for i, (m, K) in enumerate(cases):
            rng = np.random.default_rng(300 + i)
            mults = np.sort(rng.integers(1, 5, m))[::-1].astype(float)
            q = rng.dirichlet(np.ones(K))
            gen = np.random.Generator(np.random.SFC64(i))
            got = _mcmc_estep_mass(q, self._chain(mults, K, gen), 20000, gen, 10)
            want = _exact_estep_mass(q[None], *np.unique(mults, return_counts=True))[0]
            assert np.abs(got - want).max() <= 0.01 * mults.sum(), (m, K)

    def test_mcmc_chain_state_stays_a_matching(self):
        # the slot contents stay a rearrangement of the multiplicities and
        # K - m empty points, and the mass averages whole contents
        for i, (m, K) in enumerate(((41, 41), (40, 55), (41, 90), (1, 3), (2, 2))):
            rng = np.random.default_rng(400 + i)
            mults = np.sort(rng.integers(1, 9, m))[::-1].astype(float)
            held = np.sort(np.concatenate((mults, np.zeros(K - m))))
            gen = np.random.Generator(np.random.SFC64(i))
            y = self._chain(mults, K, gen)
            for _ in range(4):
                q = rng.dirichlet(np.ones(K))
                mass = _mcmc_estep_mass(q, y, 7, gen, 2)
                assert np.array_equal(np.sort(y), held)
                assert mass.sum() == pytest.approx(mults.sum(), rel=1e-12)
                np.testing.assert_allclose(mass * 7, np.round(mass * 7), rtol=0, atol=1e-9)

    @staticmethod
    @np.errstate(divide="ignore")
    def _allocating_estep_mass(q, y, sweeps, gen, burn):
        """The sweep written with fresh arrays per sweep, as a reference for
        the buffered loop; also counts the sweeps whose window wraps."""
        K = int(y.size)
        steps = sweeps + burn
        order = gen.permutation(K)
        half = K // 2
        nb = K - half
        w = y[np.concatenate((order, order[half:]))]
        lw = np.log(np.maximum(q[order], _LOG_FLOOR))
        la = lw[:half]
        lb_twice = np.tile(lw[half:], 2)
        at = gen.integers(nb, size=steps)
        logu = gen.random((steps, half))
        np.log(logu, out=logu)
        za = w[:half]
        acc = np.zeros(K)
        wraps = 0
        for t in range(steps):
            r = at[t]
            e = r + half
            zb = w[half + r : half + e]
            step = zb - za
            step *= logu[t] < step * (la - lb_twice[r:e])
            za += step
            zb -= step
            wrap = e - nb
            if wrap > 0:
                wraps += 1
                w[half : half + wrap] = w[K : K + wrap]
            w[K:] = w[half:K]
            if t >= burn:
                acc += w[:K]
        y[order] = w[:K]
        mass = np.empty(K)
        mass[order] = acc / sweeps
        return mass, wraps

    def test_mcmc_estep_matches_the_allocating_sweep_bit_for_bit(self):
        # odd and even K, K = m and K > m, with and without burn-in, over
        # three E-steps of one chain
        wraps = 0
        for i, (m, K, burn) in enumerate(((7, 7, 0), (6, 6, 3), (5, 8, 2), (4, 11, 0), (40, 55, 5),
                                           (41, 90, 0), (1, 3, 1), (2, 2, 0), (1, 1, 2))):
            rng = np.random.default_rng(500 + i)
            mults = np.sort(rng.integers(1, 9, m))[::-1].astype(float)
            y = self._chain(mults, K, rng)
            y_ref = y.copy()
            gen = np.random.Generator(np.random.SFC64(i))
            gen_ref = np.random.Generator(np.random.SFC64(i))
            for _ in range(3):
                q = rng.dirichlet(np.ones(K))
                got = _mcmc_estep_mass(q, y, 13, gen, burn)
                want, wrapped = self._allocating_estep_mass(q, y_ref, 13, gen_ref, burn)
                wraps += wrapped
                assert got.tobytes() == want.tobytes(), (m, K, burn)
                assert y.tobytes() == y_ref.tobytes(), (m, K, burn)
        assert wraps > 0

    def test_trace_at_large_n(self):
        # m=10 takes the sampled E-step, monotone only in expectation
        _, trace = em_pml_trace(Profile({300: 10}), 10, EmConfig(em_iterations=3))
        assert all(math.isfinite(v) and v > 0.0 for v in trace)
        for a, b in zip(trace, trace[1:]):
            assert b >= a * (1.0 - 1e-9)

    def test_exact_path_beta_approximates_oracle(self):
        cfg = EmConfig(em_iterations=300)
        for prevs, k in (({2: 1, 1: 1}, 3), ({3: 1}, 2), ({1: 2, 2: 1}, 3)):
            prof = Profile(prevs)
            _, oracle_val = exact_pml_oracle(prof, k)
            _, trace = em_pml_trace(prof, k, cfg)
            assert trace[-1] >= 0.9 * oracle_val

    def test_mcmc_path_deterministic(self):
        prof = Profile({1: 9, 2: 3})
        cfg = EmConfig(em_iterations=8, mcmc_sweeps_per_estep=10, seed=RngSeed(9))
        assert em_pml(prof, 20, cfg).probs == em_pml(prof, 20, cfg).probs

    def test_mcmc_output_sums_to_one(self):
        prof = Profile({1: 12, 3: 2})
        d = em_pml(prof, 30, EmConfig(em_iterations=6, mcmc_sweeps_per_estep=10))
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-9)
        assert min(d.probs) >= 0.0


class TestApproximatePml:
    def test_degenerate_sample(self):
        d = approximate_pml(Sample({0: 10}), k_hint=1)
        assert d.probs == (1.0,)

    def test_mass_and_large_symbol_entries(self):
        counts = {0: 500}
        counts.update({i: 2 for i in range(1, 40)})
        counts.update({i: 1 for i in range(40, 100)})
        sample = Sample(counts)
        d = approximate_pml(sample, cfg=EmConfig(seed=RngSeed(3)))
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)
        assert min(d.probs) >= 0.0
        # the heavy symbol keeps its empirical share up to the final renormalization
        want = 500 / sample.n
        assert min(abs(v - want) for v in d.probs) <= 1e-9 * want

    def test_k_hint_too_small(self):
        sample = Sample({0: 1, 1: 1, 2: 2})
        with pytest.raises(ValueError):
            approximate_pml(sample, k_hint=2)

    def test_deterministic(self):
        sample = draw_sample(make("zipf", 200), 4000, RngSeed(8))
        cfg = EmConfig(seed=RngSeed(21))
        assert approximate_pml(sample, cfg=cfg).probs == approximate_pml(sample, cfg=cfg).probs

    def test_beats_empirical_on_undersampled_uniform(self):
        truth = make("uniform", 100)
        wins = 0
        for trial in range(10):
            seed = RngSeed(60).derive(trial)
            sample = draw_sample(truth, 10**4, seed.derive(1))
            pml = approximate_pml(sample, cfg=EmConfig(seed=seed.derive(2)))
            emp = empirical_distribution(sample)
            wins += sorted_l1(pml, truth) <= sorted_l1(emp, truth)
        assert wins >= 7


_SINGLETONS = Sample({i: 1 for i in range(12_000)})


@pytest.mark.parametrize(
    "estimate, sample",
    [
        (lambda s: approximate_pml(s).k, _SINGLETONS),
        (lambda s: tpml_distribution(s).k, _SINGLETONS),
        (lambda s: plug_in(s, "support", "pml"), _SINGLETONS),
        (lambda s: approximate_pml(s).k, draw_sample(make("uniform", 50_000), 30_000, RngSeed(1))),
    ],
    ids=["approximate_pml", "tpml_distribution", "plug_in_support", "uniform_k50000"],
)
def test_more_distinct_symbols_than_the_support_cap(estimate, sample):
    # past 10,000 light distinct symbols every one of them still gets a point
    assert sample.distinct > 10_000
    assert estimate(sample) >= sample.distinct


class TestSampleOfProfile:
    def test_round_trip(self):
        prof = Profile({1: 3, 4: 1})
        assert profile_of(sample_of_profile(prof)) == prof
