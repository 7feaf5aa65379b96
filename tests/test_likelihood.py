import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmllab import (
    Distribution,
    Profile,
    enumerate_profiles,
    exact_pml_oracle,
    make,
    profile_probability,
    profile_probability_bruteforce,
)
from pmllab.likelihood import (
    _MAX_DP_STATES,
    _dp_states,
    _log_monomial_sums,
    _MonomialPass,
    _multiplicity_groups,
    _profile_probabilities,
)


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

    def test_zero_entry_equals_dropped_entry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            p = rng.random(k) + 1e-3
            p[1:][rng.random(k - 1) < 0.4] = 0.0
            kept = p[p > 0.0]
            prof = Profile.from_multiplicities(rng.integers(1, 4, size=int(rng.integers(1, k + 1))).tolist())
            want = _profile_probabilities(kept, prof)[0] if prof.m <= kept.size else 0.0
            assert _profile_probabilities(p, prof)[0] == want

    def test_grid_rows_equal_single_calls(self):
        rng = random.Random(41)
        pts = np.asarray([random_distribution(rng, 3).probs for _ in range(20)] + [[0.5, 0.5, 0.0]])
        for prof in enumerate_profiles(4):
            if prof.m <= 3:
                want = [profile_probability(Distribution(row), prof) for row in pts]
                assert _profile_probabilities(pts, prof).tolist() == want


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


def _groups(mults):
    return np.unique(mults, return_counts=True)


def _reference_log_monomial_sums(lp, mults):
    """The DP as first written, one group at a time, as the reference for
    the pass: groups from np.unique, and per point a fresh copy of the
    table, then one add and one logaddexp per group, into fresh
    temporaries."""
    lp = np.atleast_2d(lp)
    vals, counts = np.unique(np.asarray(mults), return_counts=True)
    rows = (slice(None),)
    table = np.full((lp.shape[0], *(counts + 1)), -np.inf)
    table[rows + (0,) * counts.size] = 0.0
    for lps in lp.T[(...,) + (None,) * counts.size]:
        prev = table.copy()
        for g, v in enumerate(vals):
            dst = rows * (g + 1) + (slice(1, None),)
            src = rows * (g + 1) + (slice(None, -1),)
            table[dst] = np.logaddexp(table[dst], prev[src] + v * lps)
    short = table[rows + tuple(counts[:, None] - np.eye(counts.size, dtype=int))]
    return vals, table[rows + tuple(counts)], short


def _reference_instances():
    """Multiplicities with one group, six groups and a few in between, each
    as int and as float, over 1-D rows and over E-step-like stacks that
    hold -inf."""
    rng = np.random.default_rng(47)
    shapes = [[3], [1, 1, 1], [1, 2, 3, 4, 5, 6], [6, 5, 5, 3, 2, 2, 1, 4]]
    shapes += [list(rng.integers(1, 5, size=int(rng.integers(1, 9)))) for _ in range(30)]
    for mults in shapes:
        K = int(rng.integers(len(mults), 11))
        q = rng.random(K) + 1e-3
        lq = np.log(q / q.sum())
        stack = np.where(np.eye(K + 1, K, dtype=bool), -np.inf, lq)
        for dtype in (int, float):
            m = np.asarray(mults, dtype=dtype)
            yield lq, m
            yield stack, m


def _check_pass(lp, mults, one_group_at_a_time):
    """Both entry points of the pass against the per-group loop, byte for
    byte, with every group's sums at once or, under a state limit patched
    to the table's size, one group at a time."""
    want = _reference_log_monomial_sums(lp, mults)[1:]
    vals, counts = _groups(mults)
    vals = vals.astype(float)
    with pytest.MonkeyPatch.context() as mp:
        if one_group_at_a_time:
            # one block of every row, whose sums exceed 1/16 of the limit
            mp.setattr("pmllab.likelihood._MAX_DP_STATES", _dp_states(counts) * lp.shape[0])
        dp = _MonomialPass(vals, counts, lp.shape[0])
        assert (dp.prev is not None) == one_group_at_a_time
        assert _same_bits(dp.run(lp), want)
        assert _same_bits(dp.run(lp), want)  # a second run starts afresh
        assert _same_bits(_log_monomial_sums(lp, vals, counts), want)


@st.composite
def _pass_instances(draw):
    """Rows of log entries, -inf and -0.0 among them, for 1-4 groups of 1-3
    symbols over m to m + 3 points, or over 0-2 points."""
    vals = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(vals), max_size=len(vals)))
    m = sum(counts)
    K = draw(st.one_of(st.integers(m, m + 3), st.integers(0, 2)))
    rows = draw(st.integers(1, 12))
    entry = st.one_of(st.floats(-40.0, 0.0), st.sampled_from([-np.inf, -0.0]))
    lp = draw(st.lists(entry, min_size=rows * K, max_size=rows * K))
    return np.asarray(lp, dtype=float).reshape(rows, K), np.repeat(vals, counts)


class TestLogMonomialSums:
    """The exact E-step runs the DP once over many rows; each row must give
    the bits of a run on that row alone, and the buffered pass the bits of
    the pass that allocates per point."""

    def test_matches_the_allocating_pass_bit_for_bit(self):
        groups_seen = set()
        for lp, mults in _reference_instances():
            vals, full, short = _reference_log_monomial_sums(lp, mults)
            got_vals, counts = _multiplicity_groups(Profile.from_multiplicities(mults.tolist()))
            got_vals = got_vals.astype(mults.dtype)
            got = (got_vals, *_log_monomial_sums(lp, got_vals, counts))
            assert _same_bits(got, (vals, full, short)), (lp.shape, mults)
            assert got_vals.dtype == vals.dtype
            groups_seen.add(counts.size)
        assert {1, 6} <= groups_seen

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instance=_pass_instances(), one_group_at_a_time=st.booleans())
    def test_pass_matches_the_per_group_loop_bit_for_bit(self, instance, one_group_at_a_time):
        _check_pass(*instance, one_group_at_a_time)

    @pytest.mark.parametrize("one_group_at_a_time", [False, True])
    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_zero_one_and_two_points(self, points, one_group_at_a_time):
        # the first of two or more points is written directly, and the last
        # one gathered while the sums are held: with up to two points no
        # point is a middle one, and with none the pass returns the
        # starting table
        rng = np.random.default_rng(67)
        for mults in ([1], [2, 2], [1, 3, 3], [1, 2, 3, 4], [5, 5, 5, 1]):
            lp = np.log(rng.random((4, points)))
            lp[0, :1] = -np.inf
            _check_pass(lp, np.asarray(mults), one_group_at_a_time)

    def test_profile_probability_matches_the_allocating_pass(self):
        rng = random.Random(53)
        for _ in range(30):
            k = rng.randint(1, 9)
            d = random_distribution(rng, k)
            prof = Profile.from_multiplicities([rng.randint(1, 4) for _ in range(rng.randint(1, k))])
            log_coef = math.lgamma(prof.n + 1) - sum(
                phi * math.lgamma(i + 1) for i, phi in prof.prevalences.items()
            )
            full = _reference_log_monomial_sums(np.log(d.as_array()), prof.multiplicities())[1]
            assert profile_probability(d, prof) == math.exp(log_coef + full[0])

    def test_batched_rows_equal_single_rows(self):
        for lp, mults in _dp_instances():
            full, short = _log_monomial_sums(lp, *_groups(mults))
            for r, row in enumerate(lp):
                assert _same_bits((full[r:r + 1], short[r:r + 1]), _log_monomial_sums(row, *_groups(mults)))

    def test_minus_inf_point_equals_deleted_point(self):
        for lp, mults in _dp_instances():
            for s in range(lp.shape[1]):
                cut = lp[0].copy()
                cut[s] = -np.inf
                want = _log_monomial_sums(np.delete(lp[0], s), *_groups(mults))
                assert _same_bits(_log_monomial_sums(cut, *_groups(mults)), want)

    def test_peak_memory_stays_near_the_table(self):
        # 16 groups of one symbol: 2^16 states, a 512 KiB table, far past
        # the size at which the pass holds every group's sums at once
        # (16 * G * cells <= _MAX_DP_STATES). So it takes one group at a
        # time, from the table, the previous point's copy and one shared
        # scratch buffer; all 16 sums, or a buffer per group, would take
        # several times the table.
        prof = Profile({i: 1 for i in range(1, 17)})
        table_bytes = 2**16 * 8
        tracemalloc.start()
        try:
            profile_probability(make("uniform", 40), prof)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * table_bytes


    def test_rows_run_in_blocks_under_the_state_limit(self, monkeypatch):
        # 2^8 states under a 2^12-cell limit: 256 rows run as 16 blocks of
        # 16, so the peak is one block's tables, not 256 rows' (about 1.8 MiB)
        monkeypatch.setattr("pmllab.likelihood._MAX_DP_STATES", 2**12)
        prof = Profile.from_multiplicities(range(1, 9))
        rng = np.random.default_rng(61)
        points = rng.random((256, 10)) + 1e-3
        points /= points.sum(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            got = _profile_probabilities(points, prof)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 1024
        for r, row in enumerate(points):
            assert got[r:r + 1].tobytes() == _profile_probabilities(row, prof).tobytes()


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

    def test_single_draw_is_capped_at_one(self):
        # the exponential of the log-space value rounds to 1 + 1 ulp on some
        # of these; a probability never exceeds 1
        rng = np.random.default_rng(43)
        for q in rng.dirichlet(np.ones(3), size=2000):
            assert profile_probability(Distribution(q), Profile({1: 1})) <= 1.0
        assert exact_pml_oracle(Profile({1: 1}), 3)[1] <= 1.0

    def test_guards(self):
        with pytest.raises(ValueError):
            exact_pml_oracle(Profile({1: 9}), 3)
        with pytest.raises(ValueError):
            exact_pml_oracle(Profile({1: 2}), 5)
        with pytest.raises(ValueError):
            exact_pml_oracle(Profile({1: 3}), 2)
