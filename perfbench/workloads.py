"""The benchmark's three workloads: inputs, ops, output checks and scores.

Each workload is a fixed list of ops built from the workload seed. A run
repeats the list in passes ("cycles") and each op counts once in the
metrics, so the mix of ops measured is the same on every run and every
commit; an op marked ``once`` runs in the first pass only. The library only ever sees the generated inputs and runs
with its own defaults (``EmConfig()``).

Library functions are looked up as module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pmllab
from pmllab import bench, core, likelihood, properties

WORKLOADS = ("pml_k5000", "desk_grid", "exact_small")

# pml_k5000: the paper's large-alphabet regime.
PML_K = 5000
PML_FAMILIES = ("uniform", "two_step", "zipf")
PML_SIZES = (10_000, 100_000, 1_000_000)
# Independent samples per (family, n). Whether the support estimate is
# clamped to the distinct count changes an op's cost about twofold, and it
# varies with the sample, so more samples keep a pass's cost steady; two
# keep a pass short enough that two whole passes fit in a run.
PML_SAMPLES = 2

# desk_grid: every single-(distribution, n) cell of the desk configs.
DESK_CONFIGS = ("desk_entropy.cfg", "desk_sorted_l1.cfg", "desk_uniformity.cfg")
# Each cell runs at a reduced trial count, two trials so that both of the
# default workers get one, with independently seeded copies of the cell so
# that a pass has enough ops for a tail percentile.
DESK_TRIALS = 2
DESK_REPLICAS = 3

# exact_small: instances on the exact E-step. An instance with m distinct
# symbols over K support points costs K!/(K-m)! assignments per E-step; the
# bound admits the m=7, K=8 cliff (8! = 40320) and excludes m=6, K=10
# (151200, about 42 s per call) and everything at m=8 (minutes per call).
EXACT_MAX_M = 7
EXACT_MAX_ASSIGNMENTS = 40_320
EXACT_N_RANGE = (8, 30)
# (K, m, count) classes of em_pml instances in one pass. Fixing the classes
# fixes the pass's cost, which depends on K!/(K-m)! far more than on the
# seed. Most instances are (6, 4), tens of milliseconds each, so that the
# median and the tail rank of a pass fall well inside that one class instead
# of on a boundary between classes of different cost, and so that a pass is
# short enough for every op to run several times beside the cliff cell.
# Six cheaper m=3 instances lie below it, and four dearer ones up to K=10
# and m=5, with the cliff cell, beyond the tail. The error of one estimate
# from n <= 30 draws varies by about 60% of its mean with the sample, so
# sorted_l1_err needs about fifty instances to vary little with the seed.
EXACT_CLASSES = (
    (6, 3, 3), (7, 3, 2), (8, 3, 1), (6, 4, 40),
    (9, 3, 1), (10, 3, 1), (7, 4, 1), (6, 5, 1),
)
_EXACT_MAX_TRIES = 20_000
# The real cliff cell: tpml_distribution on zipf k=5000, n=1e5. Its light
# profile is (m=7, K=8) only for rare samples (about 1 seed in 60), so the
# sample is pinned rather than drawn from the workload seed. One call takes
# longer than a pass of every other op, so it runs once per run.
CLIFF_K = 5000
CLIFF_N = 100_000
CLIFF_SAMPLE_SEED = 1

# Starting point of the exact EM path (pml_em's tilted uniform), the
# reference for the monotonicity check.
_INIT_TILT = 1e-3


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    key: str  # the op's inputs, as text; equal keys mean equal inputs
    run: Callable[[], object]
    check: Callable[[object], list]
    score: Callable[[object], dict]
    once: bool = False  # runs in the first pass only


def keep_exact_instance(m: int, K: int) -> bool:
    """The exact_small filter: m <= 7 and K!/(K-m)! <= 40320."""
    return 1 <= m <= EXACT_MAX_M and m <= K and math.perm(K, m) <= EXACT_MAX_ASSIGNMENTS


def build(name: str, seed: int, root: Path) -> list[Op]:
    """The ops of one pass of workload ``name`` for workload seed ``seed``."""
    rng_seed = pmllab.RngSeed(seed)
    if name == "pml_k5000":
        ops = _pml_k5000(rng_seed)
    elif name == "desk_grid":
        ops = _desk_grid(rng_seed, root)
    elif name == "exact_small":
        ops = _exact_small(rng_seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # Interleave the kinds of op across the pass. The machine's speed drifts
    # over seconds; ops of one kind run back to back would all see the same
    # stretch of it and carry that into the median.
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def inputs_digest(ops: list[Op]) -> str:
    return digest_of(op.key for op in ops)


# ---------------------------------------------------------------------------
# Outputs: digests, checks, scores
# ---------------------------------------------------------------------------

def digest_of(parts) -> str:
    """Short sha256 of a sequence of strings or bytes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()[:16]


def output_digest(out) -> str:
    """Bit-exact digest of an op's output."""
    if isinstance(out, core.Distribution):
        return digest_of([np.asarray(out.probs, dtype=np.float64).tobytes()])
    return digest_of([repr(out)])


def _sample_key(sample: core.Sample) -> str:
    return repr(sorted(sample.counts.items()))


def dist_problems(out, length: int | None = None) -> list[str]:
    if not isinstance(out, core.Distribution):
        return [f"returned {type(out).__name__}, not a Distribution"]
    probs = np.asarray(out.probs, dtype=float)
    problems = []
    if np.isnan(probs).any():
        problems.append("NaN entry")
    total = math.fsum(out.probs)
    if not abs(total - 1.0) <= core.PROB_TOL:
        problems.append(f"sums to {total!r}")
    if length is not None and out.k != length:
        problems.append(f"{out.k} entries, expected {length}")
    return problems


def _entropy_err(est: core.Distribution, truth_entropy: float) -> float:
    return abs(properties.property_value(est, "entropy") - truth_entropy)


# ---------------------------------------------------------------------------
# pml_k5000
# ---------------------------------------------------------------------------

def _pml_k5000(seed) -> list[Op]:
    ops = []
    for f_ix, fam in enumerate(PML_FAMILIES):
        truth = pmllab.make(fam, PML_K)
        h_truth = properties.property_value(truth, "entropy")
        for n_ix, n in enumerate(PML_SIZES):
            for rep in range(PML_SAMPLES):
                sample = pmllab.draw_sample(truth, n, seed.derive(f_ix, n_ix, rep))
                key = f"{fam} {n} {_sample_key(sample)}"
                ops.append(Op(
                    "approximate_pml", f"approximate_pml/{fam}/n={n}", "pml " + key,
                    lambda s=sample: pmllab.approximate_pml(s),
                    dist_problems,
                    lambda out, t=truth, h=h_truth: {
                        "sorted_l1_err": core.sorted_l1(out, t),
                        "entropy_abs_err": _entropy_err(out, h),
                    },
                ))
                ops.append(Op(
                    "estimate_unsorted_l1", f"estimate_unsorted_l1/{fam}/n={n}", "ul1 " + key,
                    lambda s=sample: pmllab.estimate_unsorted_l1(s, alphabet=PML_K),
                    lambda out: dist_problems(out, PML_K),
                    # its multiset is an estimate of the sorted distribution too
                    lambda out, t=truth: {"l1_err": core.lp_distance(out, t, 1),
                                          "sorted_l1_err": core.sorted_l1(out, t)},
                ))
    return ops


# ---------------------------------------------------------------------------
# desk_grid
# ---------------------------------------------------------------------------

_DESK_SCORE = {"sorted_l1": "sorted_l1_err", "entropy": "entropy_abs_err",
               "uniformity": "uniformity_err_rate"}


def _desk_grid(seed, root: Path) -> list[Op]:
    ops = []
    for c_ix, cfg_name in enumerate(DESK_CONFIGS):
        cfg = bench.parse_config((root / "configs" / cfg_name).read_text(encoding="utf-8"))
        for d_ix, dist in enumerate(cfg.distributions):
            for n_ix, n in enumerate(cfg.n_grid):
                for rep in range(DESK_REPLICAS):
                    cell = dataclasses.replace(
                        cfg, distributions=(dist,), n_grid=(n,), trials=DESK_TRIALS,
                        seed=seed.derive(c_ix, d_ix, n_ix, rep))
                    ops.append(Op(
                        "run_experiment", f"{cfg.task}/{dist}/n={n}", repr(cell),
                        lambda c=cell: bench.run_experiment(c),
                        lambda rows, c=cell: _desk_problems(rows, c),
                        lambda rows, c=cell: _desk_score(rows, c),
                    ))
    return ops


def _desk_problems(rows, cell) -> list[str]:
    fields = tuple(bench.CSV_HEADER.split(","))
    problems = []
    if sorted(r.estimator for r in rows) != sorted(cell.estimators):
        problems.append(f"estimators {[r.estimator for r in rows]}, expected {cell.estimators}")
    for r in rows:
        if getattr(r, "_fields", None) != fields:
            problems.append(f"row fields {getattr(r, '_fields', None)} differ from CSV_HEADER")
            continue
        if (r.distribution, r.n) != (cell.distributions[0], cell.n_grid[0]):
            problems.append(f"row for {r.distribution}/{r.n}")
        if r.trials != cell.trials:
            problems.append(f"{r.trials} trials, expected {cell.trials}")
        if not (math.isfinite(r.mean_error) and math.isfinite(r.std_error)):
            problems.append(f"non-finite error in {r}")
    return problems


def _desk_score(rows, cell) -> dict:
    pml = [r.mean_error for r in rows if r.estimator == "pml"]
    return {_DESK_SCORE[cell.task]: pml[0]} if pml else {}


# ---------------------------------------------------------------------------
# exact_small
# ---------------------------------------------------------------------------

def _families_at(k: int) -> list[str]:
    fams = ["uniform", "geometric", "zipf", "log_series"]
    if k % 2 == 0:
        fams.append("two_step")
    if k % 3 == 0:
        fams.append("three_step")
    return fams


def tilted_uniform(K: int) -> core.Distribution:
    if K == 1:
        return core.Distribution([1.0])
    tilt = 1.0 + _INIT_TILT * (np.arange(K - 1, -1, -1, dtype=float) / (K - 1))
    return core.Distribution(tilt / tilt.sum())


def _exact_small(seed) -> list[Op]:
    ops = []
    truths = {}
    for c_ix, (K, m, count) in enumerate(EXACT_CLASSES):
        if not keep_exact_instance(m, K):
            raise ValueError(f"class m={m}, K={K} fails the exact_small filter")
        fams = _families_at(K)
        found = 0
        for i in range(_EXACT_MAX_TRIES):
            if found == count:
                break
            fam = fams[i % len(fams)]
            n = int(seed.derive(c_ix, i).generator().integers(EXACT_N_RANGE[0], EXACT_N_RANGE[1] + 1))
            if (fam, K) not in truths:
                truth = pmllab.make(fam, K)
                truths[fam, K] = (truth, properties.property_value(truth, "entropy"))
            truth, h_truth = truths[fam, K]
            sample = pmllab.draw_sample(truth, n, seed.derive(c_ix, i, 1))
            if sample.distinct != m:
                continue
            profile = core.profile_of(sample)
            found += 1
            ops.append(Op(
                "em_pml", f"em_pml/{fam}/K={K}/m={m}/n={n}",
                f"em {K} {sorted(profile.prevalences.items())}",
                lambda p=profile, k=K: pmllab.em_pml(p, k),
                lambda out, p=profile, k=K: _exact_problems(out, p, k),
                lambda out, p=profile, t=truth, h=h_truth: {
                    "sorted_l1_err": core.sorted_l1(out, t),
                    "entropy_abs_err": _entropy_err(out, h),
                    "exact_loglik": math.log(likelihood.profile_probability(out, p)),
                },
            ))
        if found < count:
            raise RuntimeError(f"no {count} samples with m={m} at K={K} in {_EXACT_MAX_TRIES} draws")

    truth = pmllab.make("zipf", CLIFF_K)
    h_truth = properties.property_value(truth, "entropy")
    sample = pmllab.draw_sample(truth, CLIFF_N, pmllab.RngSeed(CLIFF_SAMPLE_SEED))
    ops.append(Op(
        "tpml_distribution", f"tpml_distribution/zipf/k={CLIFF_K}/n={CLIFF_N}",
        "tpml " + _sample_key(sample),
        lambda s=sample: pmllab.tpml_distribution(s),
        dist_problems,
        lambda out, t=truth, h=h_truth: {
            "sorted_l1_err": core.sorted_l1(out, t),
            "entropy_abs_err": _entropy_err(out, h),
        },
        once=True,
    ))
    return ops


def _exact_problems(out, profile, K) -> list[str]:
    problems = dist_problems(out, K)
    if problems:
        return problems
    # EM monotonicity on the exact path: never below its starting point.
    start = likelihood.profile_probability(tilted_uniform(K), profile)
    end = likelihood.profile_probability(out, profile)
    if end < start * (1.0 - 1e-12):
        problems.append(f"profile probability {end!r} below the start's {start!r}")
    return problems
