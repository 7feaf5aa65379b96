"""The library names that the benchmark's traced run looks up.

perfbench wraps library functions by module and name, reads fields of the
EmConfig passed to em_pml, and records bench.worker_count(). A rename or
deletion in the library fails here, not in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from pmllab import EmConfig, Profile, bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_every_traced_target_resolves(perfbench):
    layers, spans = perfbench
    for mod_name, fn_name, _ in layers.TARGETS:
        module = importlib.import_module(f"pmllab.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    with spans.installed(spans.Tracer(), layers.TARGETS):
        pass


def test_em_pml_span_reads_em_config(perfbench):
    layers, _ = perfbench
    prof = Profile({1: 2, 2: 1})
    cfg = EmConfig(em_iterations=3, mcmc_sweeps_per_estep=4)
    name, attrs = layers._em_pml("pml_em.em_pml", (prof, 4, cfg), {}, None)
    assert (name, attrs["sweeps"]) == ("pml_em.em_pml.small", 12)
    _, attrs = layers._em_pml("pml_em.em_pml", (prof,), {"K": 4}, None)
    assert attrs["sweeps"] == EmConfig().em_iterations * EmConfig().mcmc_sweeps_per_estep


def test_worker_count_resolves():
    assert bench.worker_count() >= 1
