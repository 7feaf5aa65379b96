"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. The whole suite is Monte Carlo at fixed seeds, so reruns are
deterministic. Expect 12 to 14 seconds end to end on 2 vCPUs, where the
bench grids of criteria 7-9 run their trials in two worker processes (17 to
20 seconds with every trial in one process).
"""

import itertools
import math
import random
from collections import Counter

from pmllab import (
    Distribution,
    EmConfig,
    RngSeed,
    Sample,
    em_pml_trace,
    enumerate_profiles,
    exact_pml_oracle,
    falling_factorial_power_sum,
    linear_apply,
    linear_sensitivity_bound,
    LinearEstimator,
    profile_of,
    profile_probability,
    property_value,
    sorted_l1,
    wasserstein1_multiset,
)
from pmllab.bench import (
    ExperimentConfig,
    read_profile_file,
    read_pml_file,
    write_pml_file,
    write_profile_file,
    run_experiment,
)
from pmllab.cli import main


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number} failed: {description}"


def random_distribution(rng, k):
    w = [rng.random() + 1e-3 for _ in range(k)]
    t = sum(w)
    return Distribution([v / t for v in w])


def sequence_profile_table(dist, n):
    """Independent oracle: enumerate all k^n sequences once and accumulate
    the probability of every profile."""
    table = {}
    for seq in itertools.product(range(dist.k), repeat=n):
        mults = Counter(seq)
        key = tuple(sorted(mults.values()))
        pr = 1.0
        for sym, c in mults.items():
            pr *= dist.probs[sym] ** c
        table[key] = table.get(key, 0.0) + pr
    return table


def test_criterion_1_profile_probability_exactness():
    rng = random.Random(20240801)
    ok = True
    for n in range(1, 7):
        profiles = enumerate_profiles(n)
        for k in range(1, 5):
            for _ in range(20):
                dist = random_distribution(rng, k)
                table = sequence_profile_table(dist, n)
                total = 0.0
                for prof in profiles:
                    if prof.m > k:
                        continue
                    got = profile_probability(dist, prof)
                    total += got
                    want = table.get(tuple(sorted(prof.multiplicities())), 0.0)
                    ok &= abs(got - want) <= 1e-12
                ok &= abs(total - 1.0) <= 1e-9
    report(1, "profile probability matches sequence enumeration (1e-12), totals 1 (1e-9)", ok)


def test_criterion_2_partition_identity():
    table = [1] + [0] * 30
    for part in range(1, 31):
        for total in range(part, 31):
            table[total] += table[total - part]
    ok = True
    for n in range(1, 31):
        count = len(enumerate_profiles(n))
        ok &= count == table[n]
        ok &= count <= math.exp(3 * math.sqrt(n))
    report(2, "profile enumeration matches partition counts for n <= 30, growth bounded", ok)


def test_criterion_3_em_certifies_approximate_maximum():
    cfg = EmConfig(em_iterations=300, seed=RngSeed(11))
    ok = True
    worst = 1.0
    for n in range(1, 7):
        for prof in enumerate_profiles(n):
            for k in range(1, 4):
                if prof.m > k:
                    continue
                _, oracle_val = exact_pml_oracle(prof, k)
                _, trace = em_pml_trace(prof, k, cfg)
                ratio = trace[-1] / oracle_val
                worst = min(worst, ratio)
                ok &= ratio >= 0.9
                ok &= all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    report(3, f"exact-E-step EM attains >= 0.9 of the oracle (worst {worst:.4f}), monotone", ok)


def test_criterion_4_power_sum_unbiasedness():
    rng = random.Random(77)
    ok = True
    for alpha in (2, 3):
        for n in range(alpha, 7):
            for k in range(1, 4):
                for _ in range(20):
                    dist = random_distribution(rng, k)
                    expect = 0.0
                    for seq in itertools.product(range(k), repeat=n):
                        mults = Counter(seq)
                        pr = 1.0
                        for sym, c in mults.items():
                            pr *= dist.probs[sym] ** c
                        expect += pr * falling_factorial_power_sum(Sample(mults), alpha)
                    truth = property_value(dist, "power_sum", alpha)
                    ok &= abs(expect - truth) <= 1e-12
    report(4, "falling-factorial power-sum estimator is exactly unbiased (1e-12)", ok)


def test_criterion_5_sensitivity_bound():
    rng = random.Random(55)
    n, k = 4, 3
    seqs = list(itertools.product(range(k), repeat=n))
    ok = True
    for _ in range(50):
        est = LinearEstimator([rng.uniform(-3, 3) for _ in range(n)])
        value = {
            seq: linear_apply(est, profile_of(Sample(Counter(seq))))
            for seq in seqs
        }
        worst = 0.0
        for seq in seqs:
            for pos in range(n):
                for sub in range(k):
                    if sub == seq[pos]:
                        continue
                    other = seq[:pos] + (sub,) + seq[pos + 1 :]
                    worst = max(worst, abs(value[seq] - value[other]))
        ok &= worst <= linear_sensitivity_bound(est) + 1e-12
    report(5, "brute-force sensitivity never exceeds the coefficient-gap bound", ok)


def test_criterion_6_sorted_l1_wasserstein_duality():
    rng = random.Random(66)
    ok = True
    for _ in range(200):
        k = rng.randint(2, 20)
        p = random_distribution(rng, k)
        q = random_distribution(rng, k)
        ok &= abs(sorted_l1(p, q) - k * wasserstein1_multiset(p, q)) <= 1e-12
    report(6, "sorted l1 equals k times the multiset Wasserstein distance (1e-12)", ok)


def test_criterion_7_entropy_grid():
    cfg = ExperimentConfig(
        task="entropy",
        distributions=("uniform", "zipf", "geometric"),
        k=500,
        n_grid=(2000, 10000, 50000),
        trials=30,
        seed=RngSeed(20240807),
        estimators=("pml", "empirical", "empirical_nlogn"),
    )
    rows = {(r.distribution, r.n, r.estimator): r.mean_error for r in run_experiment(cfg)}
    ok = True
    for dist_name in cfg.distributions:
        for n in cfg.n_grid:
            pml = rows[(dist_name, n, "pml")]
            emp = rows[(dist_name, n, "empirical")]
            ok &= pml <= emp
            if n == 50000:
                ok &= pml <= rows[(dist_name, n, "empirical_nlogn")] + 0.05
    report(7, "entropy error: PML beats empirical on the whole grid, near nlogn at 50k", ok)


def test_criterion_8_sorted_l1_grid():
    cfg = ExperimentConfig(
        task="sorted_l1",
        distributions=("two_step", "log_series"),
        k=500,
        n_grid=(2000, 20000),
        trials=30,
        seed=RngSeed(20240808),
        estimators=("pml", "empirical"),
    )
    rows = {(r.distribution, r.n, r.estimator): r.mean_error for r in run_experiment(cfg)}
    ok = True
    for dist_name in cfg.distributions:
        for n in cfg.n_grid:
            ok &= rows[(dist_name, n, "pml")] <= rows[(dist_name, n, "empirical")]
    report(8, "sorted-l1 error: PML beats empirical on the whole grid", ok)


def test_criterion_9_uniformity_tester_rates():
    k, eps = 2000, 0.4
    n = math.ceil(8 * math.sqrt(k * math.log(k)) / eps**2)
    cfg = ExperimentConfig(
        task="uniformity",
        distributions=("uniform", "two_step"),
        k=k,
        n_grid=(n,),
        trials=100,
        seed=RngSeed(20240809),
        epsilon=eps,
        estimators=("pml",),
    )
    rows = {r.distribution: r.mean_error for r in run_experiment(cfg)}
    false_reject = rows["uniform"]
    missed_detect = rows["two_step"]
    ok = false_reject <= 0.10 and missed_detect <= 0.10
    report(
        9,
        f"uniformity tester: false-reject {false_reject:.2f} <= 0.10, "
        f"detection {1 - missed_detect:.2f} >= 0.90 at n={n}",
        ok,
    )


def test_criterion_10_file_formats(tmp_path):
    ok = True
    pro = tmp_path / "proFile"
    pro.write_text("1 4 7 10")
    prof = read_profile_file(pro)
    ok &= prof.n == 70 and prof.dense(4) == (1, 4, 7, 10)
    copy = tmp_path / "pro2"
    write_profile_file(prof, copy)
    ok &= copy.read_text().split() == pro.read_text().split()
    ok &= read_profile_file(copy) == prof

    vec = Distribution([1 / 7] * 7)
    pml1, pml2 = tmp_path / "PMLFile", tmp_path / "PMLFile2"
    write_pml_file(vec, pml1)
    write_pml_file(read_pml_file(pml1), pml2)
    ok &= pml1.read_bytes() == pml2.read_bytes()
    report(10, "profile and probability-vector files round-trip byte-stably", ok)


def test_criterion_11_cli_determinism(tmp_path):
    config = tmp_path / "grid.cfg"
    config.write_text(
        "task = sorted_l1\n"
        "distributions = uniform, two_step\n"
        "k = 30\n"
        "n_grid = 100, 300\n"
        "trials = 3\n"
        "seed = 17\n"
        "estimators = pml, empirical\n"
        "em_iterations = 8\n"
        "mcmc_sweeps = 10\n"
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["bench", "--config", str(config), "--out", str(out), "--svg"])
        assert code == 0
        outs.append(
            (out / "sorted_l1.csv").read_bytes()
            + (out / "sorted_l1_uniform.svg").read_bytes()
            + (out / "sorted_l1_two_step.svg").read_bytes()
        )
    report(11, "repeated CLI runs produce byte-identical CSV and SVG", outs[0] == outs[1])
