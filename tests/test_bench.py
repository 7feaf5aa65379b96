import math
from pathlib import Path

import numpy as np
import pytest

from pmllab import Distribution, EmConfig, RngSeed, Sample, make
from pmllab.bench import (
    ExperimentConfig,
    parse_config,
    read_pml_file,
    read_profile_file,
    read_sample_file,
    run_experiment,
    write_csv,
    write_pml_file,
    write_profile_file,
    write_sample_file,
    write_svg_charts,
)
from pmllab.cli import _build_parser, _em_config, main

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


class TestProfileFile:
    def test_documented_example(self, tmp_path):
        path = tmp_path / "proFile"
        path.write_text("1 4 7 10")
        prof = read_profile_file(path)
        assert prof.dense(4) == (1, 4, 7, 10)
        assert prof.n == 70

    def test_leading_zeros(self, tmp_path):
        path = tmp_path / "proFile"
        path.write_text("0 0 1")
        prof = read_profile_file(path)
        assert dict(prof.prevalences) == {3: 1}
        assert prof.n == 3

    def test_round_trip(self, tmp_path):
        path = tmp_path / "proFile"
        path.write_text("1 4 7 10")
        prof = read_profile_file(path)
        out = tmp_path / "copy"
        write_profile_file(prof, out)
        assert out.read_text().strip() == "1 4 7 10"

    def test_malformed_token(self, tmp_path):
        path = tmp_path / "proFile"
        path.write_text("1 -4 7")
        with pytest.raises(ValueError):
            read_profile_file(path)


class TestPmlFile:
    def test_write_format(self, tmp_path):
        path = tmp_path / "PMLFile"
        write_pml_file(Distribution([0.5, 0.5]), path)
        assert path.read_text() == "0.5\n0.5\n"

    def test_round_trip_precision(self, tmp_path):
        d = make("zipf", 17)
        path = tmp_path / "PMLFile"
        write_pml_file(d, path)
        back = read_pml_file(path)
        for a, b in zip(d.probs, back.probs):
            assert a == pytest.approx(b, abs=1e-15)
        # a second write is byte-identical
        again = tmp_path / "again"
        write_pml_file(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "PMLFile"
        path.write_text("0.5\n-0.1\n0.6\n")
        with pytest.raises(ValueError):
            read_pml_file(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "PMLFile"
        path.write_text("0.5\nhalf\n")
        with pytest.raises(ValueError):
            read_pml_file(path)


class TestSampleFile:
    def test_round_trip(self, tmp_path):
        sample = Sample({0: 3, 7: 1, 2: 5})
        path = tmp_path / "sample.txt"
        write_sample_file(sample, path)
        assert read_sample_file(path) == sample

    def test_malformed(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("0 x\n")
        with pytest.raises(ValueError):
            read_sample_file(path)

    def test_negative_symbol_rejected(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("-1 3\n0 2\n")
        with pytest.raises(ValueError):
            read_sample_file(path)


class TestConfig:
    def test_parse_full(self):
        cfg = parse_config(
            """
            # comment
            task = entropy
            distributions = uniform, zipf
            k = 100
            n_grid = 500, 1000
            trials = 3
            seed = 7
            estimators = pml, empirical
            em_iterations = 10
            mcmc_sweeps = 12
            """
        )
        assert cfg.task == "entropy"
        assert cfg.distributions == ("uniform", "zipf")
        assert cfg.n_grid == (500, 1000)
        assert cfg.seed == RngSeed(7)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_parses(self, path):
        cfg = parse_config(path.read_text(encoding="utf-8"))
        for name in cfg.distributions:
            make(name, cfg.k)

    def test_em_defaults_match_library(self):
        cfg = ExperimentConfig(task="entropy", distributions=("uniform",), k=10, n_grid=(100,))
        seed = RngSeed(4)
        assert cfg.em_config(seed) == EmConfig(seed=seed)

    def test_numpy_integer_seed_coerced(self):
        cfg = ExperimentConfig(task="entropy", distributions=("uniform",), k=10, n_grid=(100,),
                               seed=np.int64(5))
        assert cfg.seed == RngSeed(5)

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("task = entropy\ncolor = red\n")

    def test_max_support_is_not_a_key(self):
        with pytest.raises(ValueError, match="max_support"):
            parse_config("task = entropy\ndistributions = uniform\nk = 10\n"
                         "n_grid = 100\nmax_support = 5\n")

    def test_missing_required_keys_named(self):
        with pytest.raises(ValueError, match="distributions, n_grid"):
            parse_config("task = entropy\nk = 10\n")

    def test_validation(self):
        base = dict(task="entropy", distributions=("uniform",), k=10, n_grid=(100,))
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "task": "magic"})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "n_grid": (200, 100)})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "trials": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**base, "estimators": ("oracle",)})
        with pytest.raises(ValueError, match="em_iterations"):
            ExperimentConfig(**{**base, "em_iterations": -1})
        with pytest.raises(ValueError, match="mcmc_sweeps"):
            ExperimentConfig(**{**base, "mcmc_sweeps": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(task="renyi", distributions=("uniform",), k=10, n_grid=(100,))
        with pytest.raises(ValueError):
            ExperimentConfig(task="uniformity", distributions=("uniform",), k=10, n_grid=(100,))
        with pytest.raises(ValueError):
            ExperimentConfig(task="l1", distributions=("uniform",), k=10, n_grid=(100,),
                             estimators=("tpml",))


class TestRunExperiment:
    def _small_cfg(self, **overrides):
        base = dict(
            task="entropy",
            distributions=("uniform", "zipf"),
            k=12,
            n_grid=(60, 120),
            trials=2,
            seed=RngSeed(99),
            estimators=("pml", "empirical"),
            em_iterations=5,
            mcmc_sweeps=6,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_row_shape_and_order(self):
        rows = run_experiment(self._small_cfg())
        assert len(rows) == 2 * 2 * 2
        keys = [(r.distribution, r.n, r.estimator) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.mean_error >= 0.0
            assert r.std_error >= 0.0
            assert r.trials == 2

    def test_deterministic(self):
        a = run_experiment(self._small_cfg())
        b = run_experiment(self._small_cfg())
        assert a == b

    def test_sorted_l1_error_range(self):
        rows = run_experiment(self._small_cfg(task="sorted_l1"))
        for r in rows:
            assert 0.0 <= r.mean_error <= 2.0

    def test_uniformity_task(self):
        cfg = self._small_cfg(
            task="uniformity",
            distributions=("uniform", "two_step"),
            estimators=("pml",),
            epsilon=0.6,
            k=20,
            n_grid=(200,),
        )
        rows = run_experiment(cfg)
        for r in rows:
            assert 0.0 <= r.mean_error <= 1.0

    def test_unbuildable_family_fails_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr("pmllab.bench._trial_errors", lambda *args: ran.append(args))
        with pytest.raises(ValueError):
            run_experiment(self._small_cfg(distributions=("uniform", "three_step"), k=10))
        assert not ran

    def test_non_finite_renyi_order_fails_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr("pmllab.bench._trial_errors", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="finite"):
            run_experiment(self._small_cfg(task="renyi", alpha=math.nan))
        assert not ran

    def test_uniformity_family_inside_epsilon_fails_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr("pmllab.bench._trial_errors", lambda *args: ran.append(args))
        cfg = self._small_cfg(task="uniformity", distributions=("uniform", "two_step"),
                              estimators=("pml",), epsilon=0.9, k=20, n_grid=(200,))
        with pytest.raises(ValueError, match="two_step"):
            run_experiment(cfg)
        assert not ran

    @pytest.mark.parametrize("task, estimators", [
        ("l1", ("pml", "empirical", "empirical_nlogn")),
        ("sorted_l1", ("tpml",)),
    ])
    def test_estimator_paths(self, task, estimators):
        cfg = self._small_cfg(task=task, estimators=estimators, n_grid=(60,))
        rows = run_experiment(cfg)
        assert [(r.distribution, r.estimator) for r in rows] == [
            (d, e) for d in sorted(cfg.distributions) for e in sorted(estimators)
        ]
        assert all(math.isfinite(r.mean_error) and r.trials == 2 for r in rows)
        assert run_experiment(cfg) == rows

    def test_budget_sentinels(self):
        cfg = self._small_cfg(max_seconds=0.0)
        rows = run_experiment(cfg)
        assert all(math.isnan(r.mean_error) and r.trials == 0 for r in rows)

    def test_large_sample_empirical_entropy_converges(self):
        cfg = ExperimentConfig(
            task="entropy", distributions=("uniform",), k=100, n_grid=(10**6,),
            trials=2, seed=RngSeed(6), estimators=("empirical",),
        )
        (row,) = run_experiment(cfg)
        assert row.mean_error <= 0.01


class TestReports:
    def test_csv_layout(self, tmp_path):
        rows = run_experiment(
            ExperimentConfig(
                task="entropy", distributions=("uniform",), k=8, n_grid=(50,),
                trials=2, seed=RngSeed(3), estimators=("empirical",),
            )
        )
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "distribution,n,estimator,mean_error,std_error,trials"
        assert len(lines) == 2
        assert lines[1].startswith("uniform,50,empirical,")
        assert lines[1].split(",")[5] == "2"

    def test_svg_written(self, tmp_path):
        cfg = ExperimentConfig(
            task="entropy", distributions=("uniform",), k=8, n_grid=(50, 100),
            trials=2, seed=RngSeed(3), estimators=("empirical",),
        )
        rows = run_experiment(cfg)
        paths = write_svg_charts(cfg, rows, tmp_path)
        text = paths[0].read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--dist", "uniform"])
        assert err.value.code == 1

    def test_sample_then_estimate(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["sample", "--dist", "uniform", "--k", "20", "--n", "200",
                     "--seed", "5", "--out", str(out)]) == 0
        assert main(["estimate", "--sample", str(out), "--property", "entropy"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 < value <= math.log(20) + 1e-9

    def test_non_finite_order_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["sample", "--dist", "uniform", "--k", "20", "--n", "200",
                     "--seed", "5", "--out", str(out)]) == 0
        assert main(["estimate", "--sample", str(out), "--property", "renyi",
                     "--alpha", "nan"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_sample_size_past_int64_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["sample", "--dist", "uniform", "--k", "5", "--n", str(2**63),
                     "--out", str(out)]) == 1
        assert "sample size" in capsys.readouterr().err
        assert not out.exists()

    def test_pml_subcommand_files(self, tmp_path):
        prof = tmp_path / "proFile"
        prof.write_text("3 1\n")
        out = tmp_path / "PMLFile"
        assert main(["pml", "--profile", str(prof), "--out", str(out),
                     "--k", "6", "--em-iters", "40", "--seed", "2"]) == 0
        est = read_pml_file(out)
        assert est.k >= 1
        assert math.fsum(est.probs) == pytest.approx(1.0, abs=1e-9)

    def test_test_uniformity_runs(self, capsys):
        code = main(["test-uniformity", "--k", "50", "--epsilon", "0.8",
                     "--dist", "uniform", "--n", "120", "--seed", "3",
                     "--em-iters", "5", "--sweeps", "6"])
        assert code == 0
        assert capsys.readouterr().out.strip() in {"0", "1"}

    def test_test_uniformity_one_symbol_accepts(self, capsys):
        assert main(["test-uniformity", "--k", "1", "--epsilon", "0.5",
                     "--dist", "uniform", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        assert main(["estimate", "--sample", str(missing), "--property", "entropy"]) == 2
        assert main(["bench", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bench_deterministic_outputs(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(
            "task = entropy\n"
            "distributions = uniform\n"
            "k = 10\n"
            "n_grid = 40, 80\n"
            "trials = 2\n"
            "seed = 11\n"
            "estimators = pml, empirical\n"
            "em_iterations = 4\n"
            "mcmc_sweeps = 5\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["bench", "--config", str(config), "--out", str(out), "--svg"]) == 0
        assert (out1 / "entropy.csv").read_bytes() == (out2 / "entropy.csv").read_bytes()
        assert (out1 / "entropy_uniform.svg").read_bytes() == (out2 / "entropy_uniform.svg").read_bytes()

    def test_em_defaults_match_library(self):
        lib = EmConfig()
        assert _em_config(_build_parser().parse_args(
            ["test-uniformity", "--k", "5", "--epsilon", "0.5"]), lib.seed) == lib
        for argv in (["pml", "--profile", "p", "--out", "o"],
                     ["estimate", "--sample", "s", "--property", "entropy"]):
            args = _build_parser().parse_args(argv)
            assert args.sweeps == lib.mcmc_sweeps_per_estep
            assert _em_config(args, lib.seed) == lib

    def test_bench_bad_config_is_usage_error(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text("task = entropy\nwhat = no\n")
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    def test_bench_config_without_task_is_invalid_input(self, tmp_path, capsys):
        config = tmp_path / "grid.cfg"
        config.write_text("distributions = uniform\nk = 10\nn_grid = 100\n")
        assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "task" in capsys.readouterr().err

    def test_malformed_sample_file_is_invalid_input(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        sample.write_text("0 x\n")
        assert main(["estimate", "--sample", str(sample), "--property", "entropy"]) == 1

    def test_malformed_profile_file_is_invalid_input(self, tmp_path, capsys):
        prof = tmp_path / "proFile"
        prof.write_text("1 -4 7\n")
        assert main(["pml", "--profile", str(prof), "--out", str(tmp_path / "o")]) == 1

    def test_uniformity_without_sample_source_is_invalid_input(self, capsys):
        assert main(["test-uniformity", "--k", "5", "--epsilon", "0.5"]) == 1
