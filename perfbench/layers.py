"""Layers of the traced run: which functions are wrapped, and the per-layer
metrics computed from their spans.

The layers are the package modules. Each metric below names the end-to-end
metric it should move, and on which workload:

- ``pml_em.em_pml.large.*`` (m > 7 or K > 10): ops_per_s and op_p50_s on
  pml_k5000, ops_per_s on desk_grid, nothing on exact_small.
  ``us_per_symbol_sweep`` is self time / (m x E-steps x sweeps), the last
  two taken from the call's EmConfig, so it is computed, not counted.
- ``pml_em.em_pml.small.*`` and ``likelihood.profile_probability.*``:
  ops_per_s and op_tail_s on exact_small, nothing elsewhere; the cliff
  cell's share, which ops_per_s leaves out, shows only in the detail line's
  ``once_s``.
  ``input_assignments`` sums K!/(K-m)!, a property of the inputs alone.
- ``bench.run_experiment.*``: ops_per_s on desk_grid only.
  ``child_overlap`` is summed child time over the union of child intervals
  (1.0 when trials run serially).
- ``distributions.draw_sample.*``: ops_per_s on desk_grid; ``setup_self_s``
  (per set-up) moves setup_s on the other workloads.
- ``pml_em.estimate_support.clamped_ratio``: sorted_l1_err on pml_k5000,
  not speed.
- the remaining self times are expected to move nothing; they are recorded
  so that a regression shows.

Counts and times are per pass over the workload's op list: a span counts
as one over the number of times its op ran, so runs that get through a
different number of passes compare directly, and an op that runs once per
run (the exact_small cliff cell) counts in full.
"""

from __future__ import annotations

import math
import statistics

from pmllab import pml_em

import spans as sp

#: Inputs above either bound take the sampled E-step at this commit; the
#: split is fixed on the inputs so it keeps its meaning if that changes.
SMALL_MAX_M = 7
SMALL_MAX_K = 10


def _em_pml(name, args, kwargs, result):
    profile = args[0] if args else kwargs["profile"]
    K = int(args[1] if len(args) > 1 else kwargs["K"])
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or pml_em.EmConfig()
    m = profile.m
    attrs = {"m": m, "K": K, "sweeps": cfg.em_iterations * cfg.mcmc_sweeps_per_estep}
    if m <= SMALL_MAX_M and K <= SMALL_MAX_K:
        attrs["assignments"] = math.perm(K, m)
        return name + ".small", attrs
    return name + ".large", attrs


def _estimate_support(name, args, kwargs, result):
    sample = args[0] if args else kwargs["sample"]
    max_support = args[1] if len(args) > 1 else kwargs.get("max_support", 10000)
    return name, {"clamped": result in (sample.distinct, max_support)}


def _draw_sample(name, args, kwargs, result):
    return name, {"draws": int(args[1] if len(args) > 1 else kwargs["n"])}


TARGETS = (
    ("distributions", "draw_sample", _draw_sample),
    ("core", "profile_of", None),
    ("core", "sorted_l1", None),
    ("core", "lp_distance", None),
    ("likelihood", "profile_probability", None),
    ("pml_em", "split_large", None),
    ("pml_em", "estimate_support", _estimate_support),
    ("pml_em", "em_pml", _em_pml),
    ("pml_em", "approximate_pml", None),
    ("dist_est", "denoise", None),
    ("dist_est", "estimate_unsorted_l1", None),
    ("dist_est", "tpml_distribution", None),
    ("properties", "property_value", None),
    ("properties", "empirical_distribution", None),
    ("uniformity", "t_pml_test", None),
    ("bench", "run_experiment", None),
)

#: Layers whose only per-layer metric is self time.
SELF_ONLY = (
    "pml_em.split_large", "pml_em.approximate_pml", "dist_est.denoise",
    "dist_est.estimate_unsorted_l1", "dist_est.tpml_distribution",
    "properties.property_value", "properties.empirical_distribution",
    "core.profile_of", "core.sorted_l1", "core.lp_distance", "uniformity.t_pml_test",
)


def per_layer(op_spans, setup_spans, weights: dict, setups: int) -> dict:
    """Per-layer metrics from the spans of the measured ops and of set-up.

    ``op_spans`` holds the layer spans and the op root spans (name "op").
    ``weights`` maps a span's op id to one over the number of times that
    op ran. An ``op_share`` is a layer's self time over the summed self time
    of all spans: the ops' wall time, plus the time trials overlapped in the
    bench harness's threads.
    """
    selfs = sp.self_times(op_spans)

    def weighted(spans, value):
        return sum(weights[s.op] * value(s) for s in spans)

    op_seconds = weighted(op_spans, lambda s: selfs[s.id])
    by_name: dict = {}
    for s in op_spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name):
        return weighted(by_name.get(name, ()), lambda s: selfs[s.id])

    def count(name):
        return weighted(by_name.get(name, ()), lambda s: 1.0)

    out = {}
    large = by_name.get("pml_em.em_pml.large", [])
    sweeps = weighted(large, lambda s: s.attrs["m"] * s.attrs["sweeps"])
    large_self = self_s("pml_em.em_pml.large")
    out["pml_em.em_pml.large.calls"] = count("pml_em.em_pml.large")
    out["pml_em.em_pml.large.self_s"] = large_self
    out["pml_em.em_pml.large.symbols"] = weighted(large, lambda s: s.attrs["m"])
    out["pml_em.em_pml.large.us_per_symbol_sweep"] = 1e6 * large_self / sweeps if sweeps else 0.0
    out["pml_em.em_pml.large.k_eq_m_ratio"] = (
        sum(s.attrs["K"] == s.attrs["m"] for s in large) / len(large) if large else 0.0)
    out["pml_em.em_pml.large.op_share"] = large_self / op_seconds

    small = by_name.get("pml_em.em_pml.small", [])
    out["pml_em.em_pml.small.calls"] = count("pml_em.em_pml.small")
    out["pml_em.em_pml.small.self_s"] = self_s("pml_em.em_pml.small")
    out["pml_em.em_pml.small.input_assignments"] = weighted(small, lambda s: s.attrs["assignments"])
    out["pml_em.em_pml.small.op_share"] = self_s("pml_em.em_pml.small") / op_seconds

    out["likelihood.profile_probability.calls"] = count("likelihood.profile_probability")
    out["likelihood.profile_probability.self_s"] = self_s("likelihood.profile_probability")

    runs = by_name.get("bench.run_experiment", [])
    out["bench.run_experiment.self_s"] = self_s("bench.run_experiment")
    out["bench.run_experiment.op_share"] = self_s("bench.run_experiment") / op_seconds
    threads = [len({c.thread for c in op_spans if c.parent == r.id}) for r in runs]
    out["bench.run_experiment.workers"] = float(statistics.median(threads)) if threads else 0.0
    summed = union = 0.0
    for r in runs:
        a, b = sp.child_overlap(r, op_spans)
        summed += a
        union += b
    out["bench.run_experiment.child_overlap"] = summed / union if union else 0.0

    draws = by_name.get("distributions.draw_sample", [])
    out["distributions.draw_sample.calls"] = count("distributions.draw_sample")
    out["distributions.draw_sample.self_s"] = self_s("distributions.draw_sample")
    out["distributions.draw_sample.draws"] = weighted(draws, lambda s: s.attrs["draws"])
    setup_selfs = sp.self_times(setup_spans)
    out["distributions.draw_sample.setup_self_s"] = sum(
        setup_selfs[s.id] for s in setup_spans if s.name == "distributions.draw_sample") / setups

    support = by_name.get("pml_em.estimate_support", [])
    out["pml_em.estimate_support.self_s"] = self_s("pml_em.estimate_support")
    out["pml_em.estimate_support.clamped_ratio"] = (
        sum(s.attrs["clamped"] for s in support) / len(support) if support else 0.0)

    for name in SELF_ONLY:
        out[name + ".self_s"] = self_s(name)
    out["trace.glue_share"] = self_s("op") / op_seconds
    return out

