import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from pmllab import (
    Distribution, EmConfig, RngSeed, Sample, approximate_pml, draw_sample, make, t_pml_test,
)
from pmllab import bench
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
        # sizes below what the estimators need: draw_sample needs one draw,
        # and PML, TPML and the n ln n sample (0 draws at n = 1) need two
        for estimators, n in [(("empirical",), 0), (("pml",), 1), (("empirical", "tpml"), 1),
                              (("empirical_nlogn",), 1)]:
            with pytest.raises(ValueError, match=f">= {n + 1}"):
                ExperimentConfig(**{**base, "estimators": estimators, "n_grid": (n, 100)})
        ExperimentConfig(**{**base, "estimators": ("empirical",), "n_grid": (1,)})  # n = 1 suffices
        # a NaN budget never runs out and a negative one writes only NaN rows;
        # zero runs no cell and inf every one
        for budget in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="max_seconds"):
                ExperimentConfig(**{**base, "max_seconds": budget})
        for budget in (0.0, math.inf, None):
            assert ExperimentConfig(**{**base, "max_seconds": budget}).max_seconds == budget
        # repeats would write duplicate (distribution, n, estimator) rows
        for key, value in [("distributions", ("uniform", "uniform")),
                           ("estimators", ("empirical", "empirical")),
                           ("n_grid", (50, 50))]:
            with pytest.raises(ValueError, match=f"{key} repeats"):
                ExperimentConfig(**{**base, key: value})


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

    def test_uniformity_tester_gets_the_k_hinted_pml(self, monkeypatch):
        calls = []

        def recording(sample, k, epsilon, pml):
            calls.append((sample, pml))
            return t_pml_test(sample, k, epsilon, pml)

        monkeypatch.setattr("pmllab.bench.t_pml_test", recording)
        monkeypatch.setattr("pmllab.bench.worker_count", lambda: 1)  # patches miss workers
        cfg = self._small_cfg(task="uniformity", distributions=("uniform", "two_step"),
                              estimators=("pml",), epsilon=0.6, k=20, n_grid=(200,))
        run_experiment(cfg)
        want = []
        for d_ix, name in enumerate(cfg.distributions):
            for t in range(cfg.trials):
                seed = cfg.seed.derive(d_ix, 0, t)
                sample = draw_sample(make(name, cfg.k), 200, seed.derive(1))
                pml = approximate_pml(sample, k_hint=cfg.k, cfg=cfg.em_config(seed.derive(2)))
                want.append((sample, pml))
        assert calls == want

    def test_unbuildable_family_fails_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr("pmllab.bench._trial", lambda *args: ran.append(args))
        monkeypatch.setattr("pmllab.bench.worker_count", lambda: 1)
        with pytest.raises(ValueError):
            run_experiment(self._small_cfg(distributions=("uniform", "three_step"), k=10))
        assert not ran

    def test_non_finite_renyi_order_fails_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr("pmllab.bench._trial", lambda *args: ran.append(args))
        monkeypatch.setattr("pmllab.bench.worker_count", lambda: 1)
        with pytest.raises(ValueError, match="finite"):
            run_experiment(self._small_cfg(task="renyi", alpha=math.nan))
        assert not ran

    def test_uniformity_family_inside_epsilon_fails_before_any_trial(self, monkeypatch):
        ran = []
        monkeypatch.setattr("pmllab.bench._trial", lambda *args: ran.append(args))
        monkeypatch.setattr("pmllab.bench.worker_count", lambda: 1)
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


@pytest.fixture
def workers(monkeypatch):
    """The trial workers, two of them even where this machine has one CPU."""
    monkeypatch.setattr("pmllab.bench.worker_count", lambda: 2)
    return bench._WORKERS


def _in_process(cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr("pmllab.bench.worker_count", lambda: 1)
        return run_experiment(cfg)


class TestTrialWorkers:
    _small_cfg = TestRunExperiment._small_cfg

    @pytest.mark.parametrize("task, estimators, extra", [
        ("l1", ("pml", "empirical", "empirical_nlogn"), {}),
        ("sorted_l1", ("tpml",), {}),
        ("uniformity", ("pml",), dict(distributions=("uniform", "two_step"), epsilon=0.6, k=20)),
        ("entropy", ("pml", "empirical_nlogn"), {}),
    ])
    def test_pooled_rows_are_the_in_process_rows(self, workers, monkeypatch, task, estimators,
                                                 extra):
        # three trials on two workers: one worker runs two of the cell's trials
        cfg = self._small_cfg(task=task, estimators=estimators, n_grid=(60,), trials=3, **extra)
        pooled = run_experiment(cfg)
        assert len(workers.procs) == 2
        assert all(p.poll() is None for p in workers.procs)
        assert [tuple(map(repr, r)) for r in pooled] == [
            tuple(map(repr, r)) for r in _in_process(cfg, monkeypatch)]

    def test_replies_come_in_task_order(self, workers):
        # five tasks on two workers: the first takes tasks 0, 2 and 4, the
        # second 1 and 3, and the replies are put back in task order
        cfg = self._small_cfg(n_grid=(60,))
        tasks = [(cfg, name, n, RngSeed(t)) for t, (name, n) in enumerate(
            [("uniform", 60), ("zipf", 200), ("uniform", 30), ("zipf", 60), ("uniform", 90)])]
        want = [bench._trial(*task) for task in tasks]
        assert workers.run([(bench._trial, task) for task in tasks]) == want

    def test_batches_larger_than_a_pipe_buffer_go_through(self, workers):
        # each worker gets two calls whose replies hold 100 kB, more than a
        # pipe's buffer, then two whose arguments do: a worker that wrote a
        # reply before it had read the rest of its calls would block on it,
        # and so would the caller, sending those calls
        calls = [(bytes, (100_000,))] * 4 + [(len, (bytes([t]) * 100_000,)) for t in range(4)]
        got = []
        runner = threading.Thread(target=lambda: got.append(workers.run(calls)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        if runner.is_alive():
            workers.close(kill=True)
            pytest.fail("a pipe filled")
        assert got == [[bytes(100_000)] * 4 + [100_000] * 4]

    def test_worker_count_is_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert bench.worker_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert bench.worker_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bench.worker_count() == 1

    def test_a_warning_the_caller_makes_an_error_fails_the_trial(self, workers, monkeypatch):
        # as under pytest's filterwarnings: a NumPy overflow that fails a
        # trial in this process must fail it in a worker too
        warn = (warnings.warn, ("overflow in a trial", RuntimeWarning))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow in a trial"):
                workers.run([warn] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert workers.run([warn] * 3) == [None] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(UserWarning, match="in a worker"):
                workers.run([(warnings.warn, ("in a worker",))] * 2)

        class LocalWarning(UserWarning):  # a category no worker can import
            pass

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LocalWarning)
            cfg = self._small_cfg(n_grid=(60,))
            assert run_experiment(cfg) == _in_process(cfg, monkeypatch)

    def test_a_worker_leaves_out_a_filter_it_cannot_load(self):
        error = ("error", None, RuntimeWarning, None, 0)
        with warnings.catch_warnings():
            bench._set_filters((b"not a pickle", pickle.dumps(error)))
            assert warnings.filters == [error]

    def test_a_worker_takes_the_callers_filters(self):
        def plain(filters):  # the interpreter's own defaults hold module names as str
            return [(action, getattr(msg, "pattern", msg), cat, getattr(mod, "pattern", mod), n)
                    for action, msg, cat, mod, n in filters]

        with warnings.catch_warnings():
            warnings.filterwarnings("error", "over.*flow", RuntimeWarning, r"pmllab\.", 7)
            warnings.simplefilter("ignore", UserWarning)
            want = plain(warnings.filters)
            blobs = bench._pickled_filters()
        with warnings.catch_warnings():
            bench._set_filters(blobs)
            assert plain(warnings.filters) == want

    def test_trial_error_is_raised_and_leaves_no_reply_behind(self, workers, monkeypatch):
        cfg = self._small_cfg(n_grid=(60,))
        seed = RngSeed(5)
        # the unknown family raises in make, inside the worker
        with pytest.raises(ValueError, match="unknown distribution family 'nope'"):
            workers.run([(bench._trial, (cfg, name, 60, seed))
                         for name in ("uniform", "nope", "uniform", "zipf")])
        procs = list(workers.procs)
        assert run_experiment(cfg) == _in_process(cfg, monkeypatch)
        assert workers.procs == procs  # a trial's error keeps the workers

    def test_the_first_call_that_raised_is_raised(self, workers):
        # the first worker fails at call 2, the second at call 1
        with pytest.raises(ValueError, match="'x1'"):
            workers.run([(int, (text,)) for text in ("0", "x1", "x2", "3")])
        assert workers.run([(int, (text,)) for text in ("0", "1", "2")]) == [0, 1, 2]

    def test_dead_worker_is_a_runtime_error_and_the_pool_restarts(self, workers, monkeypatch):
        cfg = self._small_cfg(n_grid=(60,))
        run_experiment(cfg)
        dead = workers.procs[0]
        dead.kill()
        dead.wait()
        with pytest.raises(RuntimeError, match="trial worker exited"):
            run_experiment(cfg)
        assert workers.procs == []
        assert run_experiment(cfg) == _in_process(cfg, monkeypatch)
        assert dead not in workers.procs

    def test_exit_hook_ends_every_worker(self, workers):
        run_experiment(self._small_cfg(n_grid=(60,)))
        procs = list(workers.procs)
        assert len(procs) == 2
        bench._close_workers()
        assert [p.returncode for p in procs] == [0, 0]
        assert workers.procs == []

    def test_interpreter_exit_leaves_no_worker_running(self):
        script = (
            "from pmllab import bench, RngSeed\n"
            "bench.worker_count = lambda: 2\n"
            "bench.run_experiment(bench.ExperimentConfig(task='entropy', distributions=('uniform',),"
            " k=12, n_grid=(60,), trials=2, seed=RngSeed(1), em_iterations=3, mcmc_sweeps=3))\n"
            "print(*(p.pid for p in bench._WORKERS.procs))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=bench._worker_env(), timeout=120, check=True).stdout
        pids = [int(tok) for tok in out.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


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

    def test_zipf_exponent_is_not_a_sample_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--dist", "zipf", "--k", "20", "--n", "200", "--zipf-s", "-1000",
                  "--out", str(tmp_path / "s.txt")])
        assert err.value.code == 1
        assert "--zipf-s" in capsys.readouterr().err
        assert not (tmp_path / "s.txt").exists()

    def test_renyi_at_a_large_order_is_finite(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main(["sample", "--dist", "uniform", "--k", "5000", "--n", "200",
                     "--out", str(out)]) == 0
        assert main(["estimate", "--sample", str(out), "--property", "renyi",
                     "--alpha", "1e300"]) == 0
        # the largest empirical frequency is 2/200 or more
        assert 0.0 < float(capsys.readouterr().out.strip()) <= math.log(100)

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

    def test_test_uniformity_reads_a_sample_file(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        assert main(["sample", "--dist", "two_step", "--k", "40", "--n", "150",
                     "--seed", "8", "--out", str(path)]) == 0
        assert main(["test-uniformity", "--sample", str(path), "--k", "40", "--epsilon", "0.5",
                     "--seed", "4", "--em-iters", "5", "--sweeps", "6"]) == 0
        sample = read_sample_file(path)
        pml = approximate_pml(sample, k_hint=40, cfg=EmConfig(5, 6, RngSeed(4).derive(2)))
        assert capsys.readouterr().out.strip() == str(t_pml_test(sample, 40, 0.5, pml))

    def test_estimator_choices(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        assert main(["sample", "--dist", "zipf", "--k", "30", "--n", "200",
                     "--seed", "2", "--out", str(path)]) == 0
        assert main(["estimate", "--sample", str(path), "--property", "entropy",
                     "--estimator", "tpml", "--em-iters", "5", "--sweeps", "6"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--sample", str(path), "--property", "entropy",
                  "--estimator", "bayes"])
        assert err.value.code == 1

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

    def test_bench_max_seconds_flag(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text("task = entropy\ndistributions = uniform\nk = 10\nn_grid = 40, 80\n"
                          "trials = 2\nseed = 11\nestimators = empirical\n")
        rows = {}
        for flags in ([], ["--max-seconds", "0"]):
            out = tmp_path / f"out{len(flags)}"
            assert main(["bench", "--config", str(config), "--out", str(out), *flags]) == 0
            lines = (out / "entropy.csv").read_text().splitlines()[1:]
            rows[len(flags)] = [line.split(",") for line in lines]
        assert len(rows[0]) == len(rows[2]) == 2
        assert all(r[3] != "nan" and r[5] == "2" for r in rows[0])
        assert all(r[3] == r[4] == "nan" and r[5] == "0" for r in rows[2])

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bench_rejects_a_budget_that_cannot_run_out_or_runs_nothing(self, tmp_path, budget):
        config = tmp_path / "grid.cfg"
        config.write_text("task = entropy\ndistributions = uniform\nk = 10\nn_grid = 40\n"
                          "trials = 2\nestimators = empirical\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--out", str(out), "--max-seconds", budget]) == 1
        assert not out.exists()

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
