"""Tests of the benchmark's own arithmetic, rules and workload generation.

    python3 -m pytest perfbench/tests
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
import run
import spans as sp
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _span(id, start, end, parent=None, thread=0, name="x"):
    return sp.Span(id, name, start, end, parent=parent, op=0, thread=thread)


def test_self_time_of_nested_spans():
    op = _span(1, 0.0, 10.0, name="op")
    a = _span(2, 1.0, 6.0, parent=1)
    b = _span(3, 2.0, 3.0, parent=2)
    c = _span(4, 7.0, 9.0, parent=1)
    spans = [op, a, b, c]
    assert sp.self_times(spans) == {1: 3.0, 2: 4.0, 3: 1.0, 4: 2.0}
    assert sp.parallel_excess(spans) == 0.0
    assert sp.accounting_error(op, spans) == 0.0


def test_self_time_of_overlapping_spans_from_threads():
    op = _span(1, 0.0, 10.0, name="op")
    run_exp = _span(2, 0.5, 9.5, parent=1)
    t1 = _span(3, 1.0, 6.0, parent=2, thread=1)
    t2 = _span(4, 2.0, 8.0, parent=2, thread=2)
    inner = _span(5, 3.0, 4.0, parent=4, thread=2)
    spans = [op, run_exp, t1, t2, inner]
    selfs = sp.self_times(spans)
    assert selfs[2] == pytest.approx(9.0 - 7.0)  # union of [1, 6] and [2, 8]
    assert selfs[4] == pytest.approx(5.0)
    assert sp.child_overlap(run_exp, spans) == (11.0, 7.0)
    assert sp.parallel_excess(spans) == pytest.approx(4.0)
    assert sp.accounting_error(op, spans) == pytest.approx(0.0, abs=1e-12)


def test_accounting_catches_a_child_outside_its_parent():
    op = _span(1, 0.0, 10.0, name="op")
    a = _span(2, 1.0, 12.0, parent=1)
    assert sp.accounting_error(op, [op, a]) >= 2.0
    orphan = _span(3, 1.0, 2.0, parent=99)
    assert sp.accounting_error(op, [op, orphan]) == math.inf


def test_union_length():
    assert sp.union_length([]) == 0.0
    assert sp.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == 3.0


def test_tracer_links_worker_threads_to_the_open_span():
    tracer = sp.Tracer()
    tracer.op = 0
    outer = tracer.open("outer")
    seen = []

    def work(i):
        s = tracer.open("inner")
        seen.append(threading.get_ident())
        tracer.close(s)

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(4)))
    tracer.close(outer)
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 4
    assert {s.parent for s in inner} == {outer.id}
    assert {s.thread for s in inner} == set(seen)
    assert sp.accounting_error(outer, tracer.spans) < 1e-9


def test_installed_wraps_every_binding_and_restores_it():
    import pmllab
    from pmllab import dist_est, pml_em

    orig = pml_em.em_pml
    tracer = sp.Tracer()
    with sp.installed(tracer, [("pml_em", "em_pml", layers._em_pml)]):
        assert pml_em.em_pml is not orig
        assert dist_est.em_pml is pml_em.em_pml is pmllab.em_pml
        prof = pmllab.Profile.from_multiplicities([2, 1])
        pmllab.em_pml(prof, 3)
    assert pml_em.em_pml is orig and dist_est.em_pml is orig and pmllab.em_pml is orig
    [span] = tracer.spans
    assert span.name == "pml_em.em_pml.small"
    assert span.attrs["assignments"] == 6


def test_tail_percentile_keeps_ten_samples_beyond():
    for count in range(11, 400):
        pct, rank = run.tail_rank(count)
        assert count - rank >= 10
        # the next whole percentile would leave fewer than ten beyond it
        assert count - math.ceil((pct + 1) * count / 100) < 10


def test_tail_percentile_values():
    assert run.tail_rank(20) == (50, 10)
    assert run.tail_rank(100) == (90, 90)
    summary = run.latency_summary([float(i) for i in range(1, 41)])
    assert summary["tail_percentile"] == 75
    assert summary["op_tail_s"] == 30.0
    assert summary["beyond_tail"] == 10
    with pytest.raises(ValueError):
        run.tail_rank(10)


def test_latency_of_an_op_is_the_median_of_its_runs():
    records = [(0, 0.0, 3.0), (1, 3.0, 4.0), (0, 4.0, 6.0), (1, 6.0, 7.5), (0, 8.0, 8.5)]
    assert run.median_latencies(records, lambda r: r[2] - r[1]) == {0: 2.0, 1: 1.25}


def test_intervals_scale_by_the_nearby_reference_runs():
    nominal = run.REF_NOMINAL_S
    refs = run.References()
    refs.mids = [0.0, 1.0, 2.0, 10.0, 20.0]
    refs.times = [nominal, 2 * nominal, 3 * nominal, 4 * nominal, nominal]
    # runs at 0, 1 and 2 lie within WINDOW_S of [0.5, 1.0]: twice as slow on average
    assert refs.scaled(0.5, 1.0) == pytest.approx(0.25)
    # none within WINDOW_S of [14.0, 15.0]: the nearest, at 10, counts
    assert refs.scaled(14.0, 15.0) == pytest.approx(0.25)
    # a 5-second interval looks 5 seconds around it: runs at 2 and 10
    assert refs.scaled(7.0, 12.0) == pytest.approx(5.0 / 3.5)
    assert run.reference_seconds() > 0


def test_one_interrupted_reference_run_does_not_count():
    refs = run.References()
    refs.mids = [float(i) for i in range(10)]
    refs.times = [run.REF_NOMINAL_S] * 9 + [100 * run.REF_NOMINAL_S]
    assert refs.scaled(0.0, 9.0) == pytest.approx(9.0)


def test_per_layer_counts_each_op_once_per_pass():
    # op 0 ran twice (ids 0 and 1), op 1 once (id 2): one pass is half of
    # each run of op 0 plus all of op 1
    spans = [
        sp.Span(1, "op", 0.0, 2.0, op=0, thread=0),
        sp.Span(2, "core.profile_of", 0.5, 1.5, parent=1, op=0, thread=0),
        sp.Span(3, "op", 2.0, 3.0, op=1, thread=0),
        sp.Span(4, "core.profile_of", 2.0, 2.5, parent=3, op=1, thread=0),
        sp.Span(5, "op", 3.0, 7.0, op=2, thread=0),
        sp.Span(6, "core.profile_of", 3.0, 6.0, parent=5, op=2, thread=0),
    ]
    out = layers.per_layer(spans, [], {0: 0.5, 1: 0.5, 2: 1.0}, setups=1)
    assert out["core.profile_of.self_s"] == pytest.approx(0.5 * 1.0 + 0.5 * 0.5 + 3.0)
    assert out["trace.glue_share"] == pytest.approx((0.5 * 1.0 + 0.5 * 0.5 + 1.0) / 5.5)


def test_exact_small_filter():
    keep = workloads.keep_exact_instance
    assert keep(7, 8)  # 8! = 40320, the cliff instance
    assert keep(5, 10)  # 30240
    assert keep(7, 7)
    assert not keep(6, 9)  # 60480
    assert not keep(6, 10)  # 151200
    assert not keep(8, 8)
    assert not keep(0, 6)
    for K, m, _ in workloads.EXACT_CLASSES:
        assert keep(m, K)


@pytest.mark.parametrize("name", ["exact_small", "desk_grid", "pml_k5000"])
def test_workload_generation_is_deterministic_in_the_seed(name):
    first = workloads.inputs_digest(workloads.build(name, 11, ROOT))
    again = workloads.inputs_digest(workloads.build(name, 11, ROOT))
    other = workloads.inputs_digest(workloads.build(name, 12, ROOT))
    assert first == again
    assert first != other


def test_exact_small_instances_match_their_classes():
    ops = workloads.build("exact_small", 3, ROOT)
    ems = [op for op in ops if op.kind == "em_pml"]
    assert len(ems) == sum(count for _, _, count in workloads.EXACT_CLASSES)
    for op in ems:
        fields = dict(part.split("=") for part in op.label.split("/")[2:])
        assert workloads.keep_exact_instance(int(fields["m"]), int(fields["K"]))
        assert 8 <= int(fields["n"]) <= 30
    assert [op.kind for op in ops].count("tpml_distribution") == 1
    assert [op.kind for op in ops if op.once] == ["tpml_distribution"]


def test_per_layer_metrics_match_benchmark_json():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = _span(1, 0.0, 1.0, name="op")
    emitted = set(layers.per_layer([op], [], {0: 1.0}, setups=1)) | {"trace.ops_per_s"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
