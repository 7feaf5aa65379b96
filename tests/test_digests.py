"""Recorded output digests: the SHA-256 of the output bytes of seeded calls.

A change that keeps every bit passes these; a change that moves bits on
purpose records the new digests in the same commit and says which moved and
why. NumPy does not promise the same random streams across releases (NEP
19), so the table is keyed by the NumPy version it was recorded with; under
another version the tests skip and say so, rather than pass or fail on a
stream that nobody recorded. Each skip reason ends with the table entry for
that version, so the skip lines of a run (``pytest -rs``) give the table to
record.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pmllab import (
    EmConfig,
    Profile,
    RngSeed,
    approximate_pml,
    draw_sample,
    em_pml,
    em_pml_trace,
    estimate_unsorted_l1,
    make,
    plug_in,
    tpml_distribution,
)
from pmllab.bench import ExperimentConfig, run_experiment, write_csv


def _sample_bytes(sample) -> bytes:
    return np.array(sorted(sample.counts.items()), dtype=np.int64).tobytes()


def _desk_grid_csv() -> bytes:
    # three trials, so that the cell runs through the worker pool
    cfg = ExperimentConfig(task="sorted_l1", distributions=("two_step",), k=200, n_grid=(1000,),
                           seed=RngSeed(7), trials=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        write_csv(run_experiment(cfg), path)
        return path.read_bytes()


def _trace_bytes(profile: Profile, K: int) -> bytes:
    dist, scores = em_pml_trace(profile, K)
    return dist.as_array().tobytes() + np.array(scores).tobytes()


_CALLS = {
    "draw_sample": lambda: _sample_bytes(draw_sample(make("zipf", 1000), 5000, RngSeed(1))),
    # K = 4,710: one chain
    "approximate_pml_one_chain": lambda: approximate_pml(
        draw_sample(make("uniform", 5000), 10_000, RngSeed(1)), cfg=EmConfig(seed=RngSeed(2))
    ).as_array().tobytes(),
    # K = 429: eight chains
    "approximate_pml_eight_chains": lambda: approximate_pml(
        draw_sample(make("log_series", 500), 2000, RngSeed(3)), cfg=EmConfig(seed=RngSeed(4))
    ).as_array().tobytes(),
    # the exact E-step on placements (1,680, 6 and 180 of them); the tilted
    # uniform start wins here, the empirical one in the trace below, and the
    # two tie on the last
    "em_pml_exact": lambda: em_pml(Profile.from_multiplicities([2, 2, 2, 1, 1, 1]), 9).as_array().tobytes(),
    "em_pml_exact_tie": lambda: em_pml(Profile.from_multiplicities([7, 2]), 3).as_array().tobytes(),
    "em_pml_trace_exact": lambda: _trace_bytes(Profile.from_multiplicities([3, 2, 2, 1]), 6),
    # the exact E-step on the dynamic program: 15,120 placements
    "em_pml_exact_dp": lambda: em_pml(Profile.from_multiplicities([4, 3, 2, 2, 1, 1]), 9).as_array().tobytes(),
    "em_pml_trace_exact_dp": lambda: _trace_bytes(Profile.from_multiplicities([4, 3, 2, 2, 1, 1]), 9),
    "tpml_distribution": lambda: tpml_distribution(
        draw_sample(make("zipf", 2000), 20_000, RngSeed(5)), cfg=EmConfig(seed=RngSeed(6))
    ).as_array().tobytes(),
    "estimate_unsorted_l1": lambda: estimate_unsorted_l1(
        draw_sample(make("geometric", 300), 1500, RngSeed(8)), alphabet=300, cfg=EmConfig(seed=RngSeed(9))
    ).as_array().tobytes(),
    "plug_in_renyi": lambda: np.float64(plug_in(
        draw_sample(make("two_step", 400), 3000, RngSeed(10)), "renyi", "pml", 1.5, cfg=EmConfig(seed=RngSeed(11))
    )).tobytes(),
    "desk_grid_csv": _desk_grid_csv,
}

#: NumPy version -> call -> SHA-256 of its output bytes
_DIGESTS = {
    "2.4.6": {
        "approximate_pml_eight_chains": "11dde44334b479cfce44b3681d6f316f2e93684f8ce7659577b147999914c464",
        "approximate_pml_one_chain": "e4033f901940e5b727182aeb6daf800171966921f8119d9768a16d0655e90a5a",
        "desk_grid_csv": "2d081ac5927a9c1ad754e08a76c98147321e3e1ecdd6052b8b79979fdcfe3840",
        "draw_sample": "51420824753c803c0a122a34c22224d35b226918c8bdc53924f92c0179627cbf",
        "em_pml_exact": "4197103ced3abdff4101557f1434fb90259e41dcbd565f992b94335dd423e3fe",
        "em_pml_exact_dp": "e6117845125c05d004bbef4a60ceeae7e76c3ab1db72cf2992dae6be6a8b4779",
        "em_pml_exact_tie": "c576a93e2a380dbfece730b8f057f1f4a44cafc0f20e44ac41323f0d0f2d2411",
        "em_pml_trace_exact": "798e8af8e6ab4e7aea69b5e44c95bfc5d99d63814384bf055bd777d4cf3743d8",
        "em_pml_trace_exact_dp": "85f01071ec0210f0882dd7900c3d3de57270e2e6e3b01d073b84bed62cb055d9",
        "estimate_unsorted_l1": "04a3203ced256c92bb5beb10cc9ede31ebbbeb6ef9d021291680cccee2299e58",
        "plug_in_renyi": "3346cd14a25df02b086b769322eefcaa82fbee1ab23a035d94ba5fda12d44f6a",
        "tpml_distribution": "6f029a594593c77ba97afa7fb9ac48de2d45c35b93a02cd87b14ef8abebd6cf0",
    },
}


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_output_digest(name):
    digest = hashlib.sha256(_CALLS[name]()).hexdigest()
    table = _DIGESTS.get(np.__version__)
    if table is None:
        pytest.skip(f"digests recorded with NumPy {', '.join(sorted(_DIGESTS))}, not {np.__version__};"
                    f' here "{name}": "{digest}",')
    assert digest == table[name]


def test_every_call_has_a_digest():
    for table in _DIGESTS.values():
        assert sorted(table) == sorted(_CALLS)
