"""Property-based tests: invariants checked on generated inputs."""

import contextlib
import io
import math
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmllab import (
    Distribution,
    EmConfig,
    Profile,
    RngSeed,
    Sample,
    approximate_pml,
    em_pml_trace,
    empirical_distribution,
    estimate_support,
    plug_in,
    profile_of,
    profile_probability,
    profile_probability_bruteforce,
    remd_truncated,
    sorted_l1,
    tpml_distribution,
    wasserstein1_multiset,
)
from pmllab.bench import (
    _CONFIG_KEYS,
    ExperimentConfig,
    parse_config,
    read_pml_file,
    read_profile_file,
    read_sample_file,
    write_profile_file,
    write_sample_file,
)
from pmllab.cli import main
from pmllab.core import PROB_TOL
from pmllab.dist_est import ESTIMATORS
from pmllab.distributions import FAMILIES
from pmllab.properties import PROPERTY_TAGS, _checked_param
from pmllab.likelihood import _multiplicity_groups
from pmllab.pml_em import _PLACEMENT_LIMIT, _exact_estep, _mcmc_estep_mass, _placement_count, _placement_estep

_examples = settings(max_examples=50, deadline=None, derandomize=True)

_counts = st.dictionaries(st.integers(0, 40), st.integers(1, 8), min_size=1, max_size=10).filter(
    lambda c: sum(c.values()) >= 2
)

_weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda w: sum(w) > 1e-3)


def _normalised(weights):
    total = math.fsum(weights)
    return Distribution([w / total for w in weights])


@st.composite
def _distribution_pair(draw):
    k = draw(st.integers(1, 12))
    same_k = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda w: sum(w) > 1e-3)
    return _normalised(draw(same_k)), _normalised(draw(same_k))


@_examples
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


@_examples
@given(counts=_counts)
def test_profile_mass_identity(counts):
    sample = Sample(counts)
    prof = profile_of(sample)
    assert sum(i * phi for i, phi in prof.prevalences.items()) == sample.n
    assert sum(prof.prevalences.values()) == sample.distinct
    assert Profile.from_multiplicities(prof.multiplicities()) == prof


@_examples
@given(counts=_counts, bound=st.one_of(st.integers(0, 10), st.floats(0.0, 10.0)))
def test_rarer_than_is_the_checked_sub_sample(counts, bound):
    sample = Sample(counts)
    want = Sample({s: c for s, c in sample.counts.items() if c < bound})
    got = sample.rarer_than(bound)
    assert got == want
    assert list(got.counts.items()) == list(want.counts.items())
    assert got.n == want.n


# Count dicts for the storage model: small symbols and counts, and values
# across the whole int64 range, whose total can pass 2**63.
_wide_counts = st.dictionaries(
    st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1)),
    st.one_of(st.integers(1, 8), st.integers(1, 2**63 - 1)),
    max_size=12,
)


@_examples
@given(counts=_wide_counts, absent=st.one_of(st.integers(-2, 50), st.integers(2**62, 2**65)),
       bound=st.one_of(st.integers(0, 10), st.floats(), st.integers(-2, 2**65)))
def test_sample_arrays_match_a_dict_model(counts, absent, bound):
    # a Sample keeps two int64 arrays; each view of it must read as the
    # symbol -> multiplicity dict it was built from, walked in ascending
    # symbol order
    sample = Sample(counts)
    ordered = {s: counts[s] for s in sorted(counts)}
    assert dict(sample.counts) == counts
    assert list(sample.counts.items()) == list(ordered.items())
    assert sample.n == sum(counts.values())
    assert sample.distinct == len(counts)
    for sym, mult in counts.items():
        assert sample.multiplicity(sym) == mult
    assert sample.multiplicity(absent) == counts.get(absent, 0)
    kept = {s: c for s, c in ordered.items() if c < bound}
    rare = sample.rarer_than(bound)
    assert list(rare.counts.items()) == list(kept.items())
    assert rare.n == sum(kept.values())
    # the prevalences in the order a Counter gives over ascending symbols:
    # estimate_support and the profile likelihood sum floats in that order
    assert list(profile_of(sample).prevalences.items()) == list(Counter(ordered.values()).items())
    if counts:
        want = Distribution([c / sample.n for c in ordered.values()])
        assert empirical_distribution(sample).as_array().tobytes() == want.as_array().tobytes()
        top = max(counts)
        if top < 100:
            vec = [0.0] * (top + 3)
            for s, c in counts.items():
                vec[s] = c / sample.n
            got = empirical_distribution(sample, top + 3).as_array().tobytes()
            assert got == Distribution(vec).as_array().tobytes()


@_examples
@given(pair=_distribution_pair())
def test_sorted_l1_is_k_times_wasserstein(pair):
    p, q = pair
    assert sorted_l1(p, q) == pytest.approx(p.k * wasserstein1_multiset(p, q), rel=1e-9, abs=1e-12)


@_examples
@given(pair=_distribution_pair(), taus=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_remd_truncated_non_increasing_in_tau(pair, taus):
    p, q = pair
    costs = [remd_truncated(p, q, tau) for tau in sorted(taus)]
    for lower, higher in zip(costs, costs[1:]):
        assert higher <= lower + 1e-12


@_examples
@given(counts=_counts)
def test_sample_file_round_trip(counts):
    sample = Sample(counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.txt"
        write_sample_file(sample, path)
        assert read_sample_file(path) == sample


@_examples
@given(counts=_counts)
def test_profile_file_round_trip(counts):
    prof = profile_of(Sample(counts))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "proFile"
        write_profile_file(prof, path)
        assert read_profile_file(path) == prof


@_examples
@given(weights=_weights, drift=st.floats(-0.5 * PROB_TOL, 0.5 * PROB_TOL))
def test_distribution_normalisation(weights, drift):
    # entries whose total is off from 1 by less than PROB_TOL are accepted
    # and renormalised
    total = math.fsum(weights)
    dist = Distribution([w / total * (1.0 + drift) for w in weights])
    assert min(dist.probs) >= 0.0
    assert math.isclose(math.fsum(dist.probs), 1.0, abs_tol=1e-12)


@st.composite
def _exact_em_instance(draw):
    """A profile of m <= 8 symbols and a support size K in [m, 10]: the
    exact E-step's range."""
    mults = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    return Profile.from_multiplicities(mults), draw(st.integers(len(mults), 10))


@_examples
@given(instance=_exact_em_instance(), iterations=st.integers(1, 6))
def test_exact_em_likelihood_never_decreases(instance, iterations):
    # EM cannot lower the likelihood; only the rounding of the exponential,
    # a few ulps, may
    profile, K = instance
    _, trace = em_pml_trace(profile, K, EmConfig(em_iterations=iterations))
    assert all(b >= a * (1 - 1e-12) for a, b in zip(trace, trace[1:])), trace


@st.composite
def _scaled_iterate(draw):
    """An exact E-step's profile and K, an iterate of two rows with entries
    in [0.01, 1], and a scale for each row, from 2^-40 to 2^40."""
    profile, K = draw(_exact_em_instance())
    rows = st.lists(st.floats(0.01, 1.0), min_size=K, max_size=K)
    q = np.array([draw(rows), draw(rows)])
    scale = 2.0 ** np.array(draw(st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2)))
    return profile, K, q, scale[:, None]


@_examples
@given(instance=_scaled_iterate())
def test_exact_esteps_ignore_the_scale_of_the_iterate(instance):
    # The exact EM runs each E-step on the last one's raw output and
    # normalises once per run, which holds because each row of mass(c q) is
    # the same row of mass(q) times one factor, on both forms
    profile, K, q, scale = instance
    vals, counts = _multiplicity_groups(profile)
    forms = [_exact_estep(vals, counts, *q.shape)]
    if _placement_count(counts, K) <= _PLACEMENT_LIMIT:
        forms.append(_placement_estep(vals, counts, *q.shape)[0])
    for mass in forms:
        plain, scaled = mass(q), mass(scale * q)
        factor = scaled.sum(axis=1, keepdims=True) / plain.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(scaled, plain * factor, rtol=1e-12, atol=0)


#: With counts up to 60, most samples have symbols past the frequent-symbol
#: split, and some have nothing else.
_pml_counts = st.dictionaries(st.integers(0, 60), st.integers(1, 60), min_size=1, max_size=12).filter(
    lambda c: sum(c.values()) >= 2
)

_tiny_em = EmConfig(em_iterations=3, mcmc_sweeps_per_estep=2, seed=RngSeed(0))


@st.composite
def _relabelled(draw):
    """A sample and the same sample with its symbols mapped injectively to
    other non-negative ints."""
    counts = draw(_pml_counts)
    labels = draw(st.lists(st.integers(0, 10**6), min_size=len(counts), max_size=len(counts), unique=True))
    return Sample(counts), Sample(dict(zip(labels, counts.values())))


def _assert_valid_and_label_free(estimator, pair):
    est, other = (estimator(sample) for sample in pair)
    for dist in (est, other):
        assert min(dist.probs) >= 0.0
        assert math.isclose(math.fsum(dist.probs), 1.0, abs_tol=PROB_TOL)
    assert np.sort(est.as_array()).tobytes() == np.sort(other.as_array()).tobytes()
    return est


@_examples
@given(pair=_relabelled(), extra=st.one_of(st.none(), st.integers(0, 4)))
def test_pml_is_label_free_and_keeps_the_hint_length(pair, extra):
    k_hint = None if extra is None else pair[0].distinct + extra
    est = _assert_valid_and_label_free(lambda s: approximate_pml(s, k_hint, _tiny_em), pair)
    if k_hint is not None:
        assert est.k == k_hint


@_examples
@given(
    pair=_relabelled(),
    thresholds=st.one_of(
        st.none(),
        st.tuples(st.floats(1.0, 8.0), st.floats(0.0, 8.0), st.floats(1e-3, 2.0)).map(
            lambda t: (t[0], t[0] + t[1], t[2])
        ),
    ),
)
def test_tpml_is_label_free(pair, thresholds):
    _assert_valid_and_label_free(lambda s: tpml_distribution(s, thresholds, _tiny_em), pair)


@st.composite
def _sampled_estep(draw):
    """A sampled E-step's inputs: m <= K <= 40 multiplicities, 1 to 8 chains
    each holding a random placement of them, a point distribution (zeros
    allowed), 1 to 6 sweeps and a burn-in, and the generator."""
    K = draw(st.integers(1, 40))
    mults = np.array(draw(st.lists(st.integers(1, 8), min_size=1, max_size=K)), dtype=float)
    q = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K).filter(lambda w: sum(w) > 0)))
    C = draw(st.integers(1, 8))
    gen = np.random.Generator(np.random.SFC64(draw(st.integers(0, 2**32 - 1))))
    y = np.zeros((K, C))
    for c in range(C):
        y[gen.permutation(K)[: mults.size], c] = mults
    return mults, q / q.sum(), y, draw(st.integers(1, 6)), gen, draw(st.integers(0, 2))


@_examples
@given(instance=_sampled_estep())
def test_sampled_estep_mass_is_the_multiplicity_mass(instance):
    mults, q, y, sweeps, gen, burn = instance
    mass = _mcmc_estep_mass(q, y, sweeps, gen, burn)
    assert mass.shape == q.shape
    assert mass.min() >= 0.0
    assert math.isclose(math.fsum(mass), mults.sum(), rel_tol=1e-12)


@_examples
@given(instance=_sampled_estep())
def test_sampled_estep_chains_stay_matchings(instance):
    # every chain still holds each multiplicity at one point, the rest empty
    mults, q, y, sweeps, gen, burn = instance
    held = np.sort(y, axis=0)
    for _ in range(3):
        _mcmc_estep_mass(q, y, sweeps, gen, burn)
        assert np.array_equal(np.sort(y, axis=0), held)


@_examples
@given(counts=st.dictionaries(st.integers(0, 10**6), st.integers(1, 200), min_size=1, max_size=300))
def test_support_estimate_keeps_a_point_per_seen_symbol(counts):
    sample = Sample(counts)
    assert estimate_support(sample) >= sample.distinct


@st.composite
def _enumerable_instance(draw):
    """A distribution over k <= 10 symbols and a profile of n draws with at
    most k distinct symbols, k^n <= 1e5: small enough to sum over every
    sequence. A weight is 0 or at least 1e-3, so that no sequence's
    probability, which the sum forms in linear space, is subnormal."""
    k = draw(st.integers(1, 10))
    most = 12 if k == 1 else max(n for n in range(1, 18) if k**n <= 10**5)
    n = draw(st.integers(1, most))
    # cuts of 1..n into at most k runs: the multiplicities
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=min(k, n) - 1))) if n > 1 else []
    mults = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = draw(st.lists(weight, min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
    return _normalised(weights), Profile.from_multiplicities(mults)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instance=_enumerable_instance())
def test_profile_probability_is_the_sum_over_sequences(instance):
    dist, profile = instance
    assert profile_probability(dist, profile) == pytest.approx(
        profile_probability_bruteforce(dist, profile), rel=1e-12, abs=0.0)


_params = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1e300),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 90.0, 1e300, 1.7e308]),
)


@pytest.mark.parametrize("which", PROPERTY_TAGS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(counts=_counts, estimator=st.sampled_from(ESTIMATORS), param=_params)
def test_plug_in_is_finite_for_every_accepted_parameter(which, counts, estimator, param):
    def value():
        return plug_in(Sample(counts), which, estimator, param, cfg=_tiny_em)

    try:
        _checked_param(which, param)
    except ValueError:
        with pytest.raises(ValueError):
            value()
        return
    assert math.isfinite(value())


# Generated inputs for the readers: mostly near-valid, so that the checks
# past the first malformed token run too.
_numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(0, 2**80).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0.5", "1", "1.0", "-0", "1e-400", "1e999", "nan", "inf", "-inf", "1_0", "\u0663", "\u00b2"]),
)
_token = st.one_of(_numbers, st.text(max_size=6))
_file_lines = st.one_of(
    # sample, profile and PML files as written, then lines of any tokens
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)).map("{0[0]} {0[1]}".format), max_size=5),
    st.lists(st.integers(0, 3).map(str), max_size=5).map(lambda phis: [" ".join(phis)]),
    _weights.map(lambda w: [repr(v) for v in _normalised(w).probs]),
    st.lists(st.lists(_token, max_size=3).map(" ".join) | st.text(max_size=10), max_size=8),
)
_file_contents = st.one_of(
    _file_lines.map(lambda lines: "\n".join(lines).encode("utf-8")), st.binary(max_size=40)
)


@pytest.mark.parametrize("reader", [read_sample_file, read_profile_file, read_pml_file])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(contents=_file_contents)
def test_a_malformed_file_raises_value_error(reader, contents):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(contents)
        try:
            reader(path)
        except ValueError:
            pass


_VALID_CONFIG = ["task = entropy", "distributions = uniform, zipf", "k = 10", "n_grid = 40, 80"]
_config_values = st.one_of(
    _numbers,
    st.lists(_numbers, min_size=1, max_size=3).map(", ".join),
    st.sampled_from(["entropy", "renyi", "coverage", "uniformity", "l1", "sorted_l1", "uniform, zipf",
                     "pml, empirical", "tpml", "empirical", "uniform, uniform", ","]),
    st.text(max_size=8),
)


@st.composite
def _config_texts(draw):
    """A valid config with lines dropped, replaced and added: keys known
    and unknown, values of every type, and lines that are not key = value."""
    lines = [line for line in _VALID_CONFIG if draw(st.booleans()) or draw(st.booleans())]
    key = st.sampled_from([*_CONFIG_KEYS, "what", ""])
    line = st.one_of(
        st.builds("{}{}{}".format, key, st.sampled_from([" = ", "=", " "]), _config_values),
        st.text(max_size=16),
    )
    lines += draw(st.lists(line, max_size=4))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_config_texts())
def test_a_malformed_config_raises_value_error(text):
    try:
        assert isinstance(parse_config(text), ExperimentConfig)
    except ValueError:
        pass


_FAILING_PROPERTY = """
from hypothesis import example, given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # under this repository's pytest settings, a failing hypothesis test
    # prints its falsifying example instead of ending in INTERNALERROR
    # while hypothesis prepares the report
    (tmp_path / "test_fails.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in run.stdout
    assert run.returncode == 1, out


# Generated pmllab command lines. A value is valid and small three times in
# four, else invalid: negative, zero, past 64 bits, NaN, infinite, -0.0 or
# non-numeric. The EM budgets are at most 2 when valid and are given nine
# times in ten (their defaults are cheap here too), so that a valid line
# finishes in milliseconds, on at most 20 symbols and 50 draws. Paths name
# files made once per module ({in}), missing files and the directory among
# them, or paths in a fresh output directory per example ({out}).
def _mostly(valid, invalid):
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


def _cli_names(names, bad):
    return _mostly(st.sampled_from(names), st.sampled_from(bad))


_cli_bad_ints = st.one_of(
    st.integers(-3, 0), st.integers(2**63, 2**80), st.sampled_from(["1.5", "1e3", "0x10", "abc", ""]),
)
_cli_bad_floats = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0.0", "0", "1e308", "5e-324", "-1", "abc", ""]),
    st.floats().map(repr),
)
_cli_k = _mostly(st.integers(1, 20), _cli_bad_ints)
_cli_n = _mostly(st.integers(1, 50), _cli_bad_ints)
_cli_budget = _mostly(st.integers(1, 2), st.integers(-2, 0))
_cli_seed = _mostly(st.integers(0, 2**64 - 1), _cli_bad_ints)
_CLI_CONFIGS = ["entropy.cfg", "uniformity.cfg", "l1.cfg", "coverage.cfg", "renyi.cfg"]


def _cli_input(*names):
    """One of the named input files three times in four, else another kind
    of file, an empty, binary or missing one, or a directory."""
    other = ["sample.txt", "profile.txt", "pml.txt", *_CLI_CONFIGS,
             "empty.txt", "binary.txt", "missing.txt", ""]
    return _mostly(st.sampled_from(names), st.sampled_from(other)).map("{{in}}/{}".format)


_cli_outs = _mostly(st.sampled_from(["{out}/result.txt", "{out}/grid"]),
                    st.sampled_from(["{out}", "{out}/missing/result.txt"]))
#: The paths that name a missing file, or a directory where a file belongs:
#: the only lines that may end in a runtime failure (exit 2).
_CLI_FILE_FAULTS = {"{in}/missing.txt", "{in}/", "{out}", "{out}/missing/result.txt"}
_cli_em_flags = {"--em-iters": (_cli_budget, True), "--sweeps": (_cli_budget, True),
                 "--seed": (_cli_seed, False)}
#: Each command's flags: the value strategy (None for a switch), and
#: whether the flag is given nine times in ten rather than one in two.
_cli_flags = {
    "sample": {"--dist": (_cli_names(sorted(FAMILIES), ["zipf2", ""]), True), "--k": (_cli_k, True),
               "--n": (_cli_n, True), "--seed": (_cli_seed, False), "--out": (_cli_outs, True)},
    "pml": {**_cli_em_flags, "--profile": (_cli_input("profile.txt"), True), "--out": (_cli_outs, True),
            "--k": (_cli_k, False)},
    "estimate": {**_cli_em_flags, "--sample": (_cli_input("sample.txt"), True),
                 "--property": (_cli_names(PROPERTY_TAGS, ["mean"]), True),
                 "--estimator": (_cli_names(ESTIMATORS, ["mle"]), False),
                 "--alpha": (_mostly(st.sampled_from(["0.5", "2", "1e300"]), _cli_bad_floats), False),
                 "--coverage-m": (_cli_k, False), "--k": (_cli_k, False)},
    "test-uniformity": {**_cli_em_flags, "--k": (_cli_k, True),
                        "--epsilon": (_mostly(st.sampled_from(["0.5", "1", "1.9"]), _cli_bad_floats), True),
                        "--sample": (_cli_input("sample.txt"), False),
                        "--dist": (_cli_names(sorted(FAMILIES), ["zipf2"]), True), "--n": (_cli_n, True)},
    "bench": {"--config": (_cli_input(*_CLI_CONFIGS), True), "--out": (_cli_outs, True),
              "--svg": (None, False),
              "--max-seconds": (_mostly(st.sampled_from(["0", "60", "inf"]), _cli_bad_floats), False)},
}

_CLI_INPUTS = {
    "sample.txt": "0 3\n1 1\n4 2\n7 1\n9 1\n12 2\n",
    "profile.txt": "3 2 1\n",
    "pml.txt": "0.5\n0.25\n0.25\n",
    "empty.txt": "",
    "entropy.cfg": "task = entropy\ndistributions = uniform, zipf\nk = 10\nn_grid = 20, 40\ntrials = 1\n"
                   "estimators = pml, empirical, tpml, empirical_nlogn\nem_iterations = 2\nmcmc_sweeps = 2\n",
    "uniformity.cfg": "task = uniformity\ndistributions = uniform, two_step\nk = 10\nn_grid = 40\n"
                      "trials = 1\nepsilon = 0.5\nestimators = pml\nem_iterations = 1\nmcmc_sweeps = 1\n",
    "l1.cfg": "task = l1\ndistributions = geometric\nk = 12\nn_grid = 30\ntrials = 1\n"
              "estimators = pml, empirical\nem_iterations = 2\nmcmc_sweeps = 2\n",
    "coverage.cfg": "task = coverage\ndistributions = log_series\nk = 9\nn_grid = 25\ntrials = 1\n"
                    "coverage_m = 50\nem_iterations = 1\nmcmc_sweeps = 2\n",
    "renyi.cfg": "task = renyi\ndistributions = three_step\nk = 6\nn_grid = 10\ntrials = 1\nalpha = 1e300\n"
                 "estimators = empirical\n",
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for name, text in _CLI_INPUTS.items():
        (root / name).write_text(text)
    (root / "binary.txt").write_bytes(b"\xff\xfe\x00 3\n\x80")
    return root


@st.composite
def _cli_lines(draw):
    """A pmllab argument list: a command (or none, or an unknown one), then
    its flags in any order, each with a generated value; a flag may be left
    out or lack its value, and one in five lines gains an unknown flag or a
    free token."""
    command = draw(st.sampled_from([*_cli_flags, "fit", None]))
    flags = _cli_flags.get(command, {})
    args = [] if command is None else [command]
    for flag in draw(st.permutations(sorted(flags))):
        values, usual = flags[flag]
        if draw(st.integers(0, 9)) >= (9 if usual else 5):
            continue
        args.append(flag)
        if values is not None and draw(st.integers(0, 19)):
            args.append(str(draw(values)))
    if not draw(st.integers(0, 4)):
        token = draw(st.sampled_from(["--bogus", "-x", "--k=3", "--", "-h", "extra", "--n"]))
        args.insert(draw(st.integers(0, len(args))), token)
    return args


@settings(max_examples=250, deadline=None, derandomize=True)
@given(line=_cli_lines())
# alphabet sizes past 64 bits: uniform used to fail in its list building
# (exit 2), and geometric and zipf never finished building theirs
@example(line=["sample", "--dist", "uniform", "--k", str(2**63), "--n", "5", "--out", "{out}/s.txt"])
@example(line=["sample", "--dist", "geometric", "--k", str(2**64), "--n", "5", "--out", "{out}/s.txt"])
@example(line=["test-uniformity", "--dist", "zipf", "--k", str(2**70), "--n", "9", "--epsilon", "0.5",
               "--em-iters", "1", "--sweeps", "1"])
def test_a_generated_command_line_exits_0_1_or_2(cli_inputs, line):
    # every command line ends in a success, invalid input (1) or, when it
    # names a missing file or a directory for a file, a runtime failure (2);
    # never in a traceback
    with tempfile.TemporaryDirectory() as out:
        argv = [arg.replace("{in}", str(cli_inputs)).replace("{out}", out) for arg in line]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    assert code in (0, 1) or code == 2 and _CLI_FILE_FAULTS.intersection(line), (
        argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
