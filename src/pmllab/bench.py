"""Experiment harness: on-disk formats, grid runner, CSV and SVG reports.

All randomness flows from the configured seed through per-cell, per-trial
derived seeds, so reruns are bit-identical. A cell's trials go to W =
min(CPUs, trials) worker processes, worker i taking trials i, i + W, ...
as one batch, or run one at a time in this process when W is 1. A trial's
errors depend on its seed alone, so the rows are the same bits either way,
and a worker runs its batch under this process's warning filters.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .core import Distribution, Profile, Sample, _integer, sorted_l1, lp_distance
from .dist_est import ESTIMATORS as _PLUG_IN_ESTIMATORS, estimate, estimate_unsorted_l1
from .distributions import FAMILIES, RngSeed, as_seed, draw_sample, make
from .pml_em import EmConfig
from .properties import empirical_distribution, property_value
from .uniformity import t_pml_test

TASKS = ("l1", "sorted_l1", "entropy", "renyi", "support", "coverage", "uniformity")
ESTIMATORS = (*_PLUG_IN_ESTIMATORS, "empirical_nlogn")  # the last on n ln n draws

CSV_HEADER = "distribution,n,estimator,mean_error,std_error,trials"


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_profile_file(path) -> Profile:
    """Profile file: space-separated non-negative integers, the i-th being
    phi_i; the sample size is inferred as sum(i * phi_i)."""
    tokens = Path(path).read_text(encoding="utf-8").split()
    phis = []
    for tok in tokens:
        if not tok.isdigit():
            raise ValueError(f"malformed profile token {tok!r}")
        phis.append(int(tok))
    return Profile.from_dense(phis)


def write_profile_file(profile: Profile, path) -> None:
    dense = profile.dense()
    Path(path).write_text(" ".join(str(c) for c in dense) + "\n", encoding="utf-8")


def write_pml_file(dist: Distribution, path) -> None:
    """Probability-vector file: one decimal per line, 17 significant digits."""
    Path(path).write_text("".join(f"{v:.17g}\n" for v in dist.probs), encoding="utf-8")


def read_pml_file(path) -> Distribution:
    vals = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise ValueError(f"non-numeric probability on line {ln}: {line!r}") from None
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"invalid probability on line {ln}: {line!r}")
        vals.append(v)
    return Distribution(vals)


def write_sample_file(sample: Sample, path) -> None:
    """Sample file: one 'symbol multiplicity' pair per line, sorted by symbol."""
    lines = [f"{s} {c}" for s, c in zip(sample.symbols.tolist(), sample.mults.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_sample_file(path) -> Sample:
    counts: dict[int, int] = {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or not parts[0].isdigit() or not parts[1].isdigit():
            raise ValueError(f"malformed sample line {ln}: {line!r}")
        sym, mult = int(parts[0]), int(parts[1])
        if sym in counts:
            raise ValueError(f"duplicate symbol {sym} on line {ln}")
        counts[sym] = mult
    return Sample(counts)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid: a task evaluated per (distribution, n, estimator)."""

    task: str
    distributions: tuple[str, ...]
    k: int
    n_grid: tuple[int, ...]
    seed: RngSeed = field(default_factory=RngSeed)
    trials: int = 30
    alpha: float | None = None
    coverage_m: int | None = None
    epsilon: float | None = None
    estimators: tuple[str, ...] = ("pml", "empirical")
    max_seconds: float | None = None
    em_iterations: int = EmConfig.em_iterations
    mcmc_sweeps: int = EmConfig.mcmc_sweeps_per_estep

    def __post_init__(self):
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "distributions", tuple(self.distributions))
        object.__setattr__(self, "k", _integer(self.k, "k"))
        object.__setattr__(self, "n_grid", tuple(_integer(n, "n_grid entry") for n in self.n_grid))
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        object.__setattr__(self, "em_iterations", _integer(self.em_iterations, "em_iterations"))
        object.__setattr__(self, "mcmc_sweeps", _integer(self.mcmc_sweeps, "mcmc_sweeps"))
        self.em_config(self.seed)  # EmConfig owns the range rules of the EM settings
        if self.coverage_m is not None:
            object.__setattr__(self, "coverage_m", _integer(self.coverage_m, "coverage_m"))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        for d in self.distributions:
            if d not in FAMILIES:
                raise ValueError(f"unknown distribution {d!r}")
        if not self.distributions:
            raise ValueError("need at least one distribution")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        for key in ("distributions", "estimators", "n_grid"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                # repeats would write rows with the same (distribution, n, estimator) key
                raise ValueError(f"{key} repeats a value: {values}")
        if not self.n_grid or list(self.n_grid) != sorted(self.n_grid):
            raise ValueError("n_grid must be non-empty and ascending")
        least_n = 1 if self.estimators == ("empirical",) else 2  # PML, TPML and n ln n need 2
        if self.n_grid[0] < least_n:
            raise ValueError(f"n_grid entries must be >= {least_n} with estimators {self.estimators}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # a NaN budget would never run out, and a negative one skips every cell
        if self.max_seconds is not None and not self.max_seconds >= 0.0:
            raise ValueError(f"max_seconds must be >= 0, not {self.max_seconds}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.task == "renyi" and self.alpha is None:
            raise ValueError("renyi task needs alpha")
        if self.task == "coverage" and self.coverage_m is None:
            raise ValueError("coverage task needs coverage_m")
        # t_pml_test's range, checked here rather than after a trial's PML
        if self.epsilon is not None and not 0.0 < self.epsilon < 2.0:
            raise ValueError(f"epsilon must lie in (0, 2), got {self.epsilon}")
        if self.task == "uniformity":
            if self.epsilon is None:
                raise ValueError("uniformity task needs epsilon")
            if set(self.estimators) != {"pml"}:
                raise ValueError("uniformity task supports only the pml estimator")
        if self.task == "l1" and "tpml" in self.estimators:
            raise ValueError("tpml is a multiset estimator; it has no unsorted-l1 form")

    def em_config(self, seed: RngSeed) -> EmConfig:
        return EmConfig(
            em_iterations=self.em_iterations,
            mcmc_sweeps_per_estep=self.mcmc_sweeps,
            seed=seed,
        )


_CONFIG_KEYS = {
    "task": str,
    "distributions": "strlist",
    "k": int,
    "n_grid": "intlist",
    "seed": int,
    "trials": int,
    "alpha": float,
    "coverage_m": int,
    "epsilon": float,
    "estimators": "strlist",
    "max_seconds": float,
    "em_iterations": int,
    "mcmc_sweeps": int,
}

_REQUIRED_KEYS = ("task", "distributions", "k", "n_grid")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a 'key = value' config; list values are comma-separated."""
    kwargs = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config line {ln}: unknown key {key!r}")
        conv = _CONFIG_KEYS[key]
        if conv == "strlist":
            kwargs[key] = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        elif conv == "intlist":
            kwargs[key] = tuple(int(tok) for tok in value.split(",") if tok.strip())
        else:
            kwargs[key] = conv(value)
    missing = [key for key in _REQUIRED_KEYS if key not in kwargs]
    if missing:
        raise ValueError(f"config lacks required key(s): {', '.join(missing)}")
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class ResultRow(NamedTuple):
    distribution: str
    n: int
    estimator: str
    mean_error: float
    std_error: float
    trials: int


def _estimate_dist(cfg: ExperimentConfig, est: str, sample: Sample, big: Sample | None,
                   em_cfg: EmConfig) -> Distribution:
    # the l1 task pads to the alphabet and the uniformity tester takes the
    # k-hinted PML; the other tasks use multiset estimates
    k = cfg.k if cfg.task in ("l1", "uniformity") else None
    if est == "empirical_nlogn":
        return empirical_distribution(big, k)
    if cfg.task == "l1" and est == "pml":
        return estimate_unsorted_l1(sample, alphabet=cfg.k, cfg=em_cfg)
    return estimate(sample, est, k=k, cfg=em_cfg)


def _error_of(cfg: ExperimentConfig, name: str, truth: Distribution):
    """``error(estimate, sample) -> float`` of ``cfg.task`` on the family
    ``name``, whose distribution at k is ``truth``.

    The work that depends on the family alone happens here, not in
    ``error``: the true property value on the property tasks, and on the
    uniformity task the check that a non-uniform family is at least epsilon
    from uniform in l1, which makes its label 1 the right answer.
    """
    if cfg.task == "l1":
        return lambda est, sample: lp_distance(est, truth, 1)
    if cfg.task == "sorted_l1":
        return lambda est, sample: sorted_l1(est, truth)
    if cfg.task == "uniformity":
        label = int(name != "uniform")
        gap = property_value(truth, "dist_uniform")
        if label and gap < cfg.epsilon:
            raise ValueError(
                f"{name} at k={cfg.k} is {gap:.4g} from uniform in l1, below epsilon "
                f"{cfg.epsilon}: its label 1 would be wrong"
            )
        return lambda est, sample: float(t_pml_test(sample, cfg.k, cfg.epsilon, est) != label)
    # _checked_param ignores the parameter on the tasks that take none
    param = cfg.alpha if cfg.task == "renyi" else cfg.coverage_m
    target = property_value(truth, cfg.task, param)
    return lambda est, sample: abs(property_value(est, cfg.task, param) - target)


def worker_count() -> int:
    """The number of worker processes that run the trials of a cell with at
    least that many trials: the CPUs this process may run on. 1 means that
    trials run in this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _trial(cfg: ExperimentConfig, name: str, n: int, trial_seed: RngSeed) -> dict[str, float]:
    """One trial's error per estimator on the family ``name``."""
    truth = make(name, cfg.k)
    error = _error_of(cfg, name, truth)
    sample = draw_sample(truth, n, trial_seed.derive(1))
    em_cfg = cfg.em_config(trial_seed.derive(2))
    big = None
    if "empirical_nlogn" in cfg.estimators:
        big = draw_sample(truth, math.ceil(n * math.log(n)), trial_seed.derive(3))
    return {est: error(_estimate_dist(cfg, est, sample, big, em_cfg), sample)
            for est in cfg.estimators}


def _pickled_filters() -> tuple[bytes, ...]:
    """This process's warning filters, each pickled on its own. A filter
    whose category does not pickle here, or cannot be imported in a worker,
    is left out: no code that a worker runs can raise such a warning."""
    blobs = []
    for item in warnings.filters:
        with contextlib.suppress(Exception):
            blobs.append(pickle.dumps(item))
    return tuple(blobs)


def _set_filters(blobs: tuple[bytes, ...]) -> None:
    """Make the filters of :func:`_pickled_filters` this process's own."""
    def pattern(regex) -> str:  # a filter holds None, a str or a compiled pattern
        return getattr(regex, "pattern", regex) or ""

    warnings.resetwarnings()
    for blob in blobs:
        try:
            action, message, category, module, lineno = pickle.loads(blob)
        except Exception:  # see _pickled_filters
            continue
        warnings.filterwarnings(action, pattern(message), category, pattern(module), lineno,
                                append=True)


def _serve() -> None:
    """Loop of a worker: read pickled ``(filters, calls)`` batches from stdin
    until it closes, and write one pickled reply per batch to stdout:
    ``(True, values)``, ``values`` being what each ``fn(*args)`` of ``calls``
    returned, or ``(False, (i, exc))`` where the i-th call raised ``exc``;
    the calls after it do not run. The calls run under the caller's warning
    filters, so a warning that the caller turns into an error fails one."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)  # Ctrl-C ends the worker quietly
    batches = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into the replies
    while True:
        try:
            filters, calls = pickle.load(batches)
        except EOFError:
            return
        values = []
        try:
            _set_filters(filters)
            for fn, args in calls:
                values.append(fn(*args))
            reply = (True, values)
        except Exception as exc:  # the caller raises it
            reply = (False, (len(values), exc))
        pickle.dump(reply, replies)
        replies.flush()


def _worker_env() -> dict[str, str]:
    """This process's environment, with the directory that holds this copy
    of pmllab first on PYTHONPATH, so that a child imports the same copy."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class _Workers:
    """Worker interpreters, each running :func:`_serve` on the copy of
    pmllab that this process imported, one batch of calls at a time. They
    are started when a cell first needs them and live until the interpreter
    exits.

    Not ``multiprocessing``: its spawn and forkserver methods start a
    resource tracker process that can outlive the caller, and re-import the
    caller's ``__main__``; fork warns, and may deadlock, in a process with
    threads, and NumPy starts its BLAS threads at import.
    """

    def __init__(self):
        self.procs: list[subprocess.Popen] = []
        self.lock = threading.Lock()

    def _grow(self, size: int) -> None:
        # the -W options also cover what a worker does before its first call
        argv = [sys.executable, *(f"-W{opt}" for opt in sys.warnoptions),
                "-c", "from pmllab.bench import _serve; _serve()"]
        while len(self.procs) < size:
            self.procs.append(subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env()))

    def run(self, calls: list) -> list:
        """The value of ``fn(*args)`` for each ``(fn, args)`` of ``calls``, in
        order. With W = min(worker_count(), len(calls)) below 2 the calls run
        here; otherwise worker i makes calls i, i + W, ..., sent as one batch.
        ``fn`` must pickle by reference, and runs under this process's
        warning filters.

        Every batch is sent before any reply is read, and a worker reads its
        whole batch before it writes its reply, so no pipe fills. The first
        call that raised is raised here once every reply is read, so none is
        left for the next run. A worker that dies raises RuntimeError, and
        every worker is stopped.
        """
        size = min(worker_count(), len(calls))
        if size < 2:
            return [fn(*args) for fn, args in calls]
        filters = _pickled_filters()
        with self.lock:
            self._grow(size)
            procs = self.procs[:size]
            try:
                for i, proc in enumerate(procs):
                    pickle.dump((filters, calls[i::size]), proc.stdin)
                    proc.stdin.flush()
                replies = [pickle.load(proc.stdout) for proc in procs]
            except (EOFError, OSError, pickle.UnpicklingError) as exc:
                codes = [p.poll() for p in procs]
                self.close(kill=True)
                raise RuntimeError(f"a trial worker exited (exit codes {codes})") from exc
            except BaseException:  # an interrupt leaves replies unread
                self.close(kill=True)
                raise
        # the j-th call of worker i is call i + j * size
        failed = {i + value[0] * size: value[1] for i, (ok, value) in enumerate(replies) if not ok}
        if failed:
            raise failed[min(failed)]
        values = [None] * len(calls)
        for i, (_, batch) in enumerate(replies):
            values[i::size] = batch
        return values

    def close(self, kill: bool = False) -> None:
        """Stop every worker: end its input and wait, or kill it."""
        for proc in self.procs:
            if kill:
                proc.kill()
            with contextlib.suppress(BrokenPipeError):  # a dead worker's unread batch
                proc.stdin.close()
            proc.wait()
            proc.stdout.close()
        self.procs = []


_WORKERS = _Workers()


def _close_workers() -> None:
    _WORKERS.close()


def _forget_workers() -> None:  # a forked child must not share its parent's workers
    global _WORKERS
    _WORKERS = _Workers()


atexit.register(_close_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _mean_std(errors: list[float]) -> tuple[float, float]:
    mean = math.fsum(errors) / len(errors)
    if len(errors) < 2:
        return mean, 0.0
    var = math.fsum((e - mean) ** 2 for e in errors) / (len(errors) - 1)
    return mean, math.sqrt(var / len(errors))


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the grid and return one row per (distribution, n, estimator).

    Cells that would start after the max_seconds budget is spent are
    written as sentinel rows (NaN errors, zero trials). Every family is built
    at k and its error function made by :func:`_error_of` before the first
    cell runs, so a bad grid fails at once rather than after hours of cells.
    """
    started = time.monotonic()
    for name in cfg.distributions:
        _error_of(cfg, name, make(name, cfg.k))
    rows: list[ResultRow] = []
    for d_ix, dist_name in enumerate(cfg.distributions):
        for n_ix, n in enumerate(cfg.n_grid):
            if cfg.max_seconds is not None and time.monotonic() - started > cfg.max_seconds:
                for est in cfg.estimators:
                    rows.append(ResultRow(dist_name, n, est, math.nan, math.nan, 0))
                continue
            per_trial = _WORKERS.run([(_trial, (cfg, dist_name, n, cfg.seed.derive(d_ix, n_ix, t)))
                                      for t in range(cfg.trials)])
            for est in cfg.estimators:
                mean, std = _mean_std([errs[est] for errs in per_trial])
                rows.append(ResultRow(dist_name, n, est, mean, std, cfg.trials))
    rows.sort(key=lambda r: (r.distribution, r.n, r.estimator))
    return rows


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(rows: list[ResultRow], path) -> None:
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: (r.distribution, r.n, r.estimator)):
        lines.append(
            f"{r.distribution},{r.n},{r.estimator},{_fmt(r.mean_error)},{_fmt(r.std_error)},{r.trials}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_PALETTE = {
    "pml": "#d62728",
    "empirical": "#1f77b4",
    "empirical_nlogn": "#2ca02c",
    "tpml": "#9467bd",
}

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _svg_chart(task: str, dist_name: str, series: dict[str, list[tuple[int, float]]]) -> str:
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts if math.isfinite(y)]
    if not xs or not ys:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}"></svg>'
    x0, x1 = math.log10(xs[0]), math.log10(xs[-1])
    if x1 == x0:
        x1 = x0 + 1.0
    y1 = max(ys) or 1.0
    span_x = _W - _ML - _MR
    span_y = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (math.log10(x) - x0) / (x1 - x0) * span_x

    def py(y: float) -> float:
        return _MT + (1.0 - y / y1) * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle">{task} error, {dist_name}</text>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_ML - 8}" y="{_MT + 4}" text-anchor="end">{y1:.3g}</text>',
        f'<text x="{_ML - 8}" y="{_H - _MB + 4}" text-anchor="end">0</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle">sample size n (log scale)</text>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{x}</text>'
        )
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{_H - _MB}" x2="{px(x):.1f}" y2="{_H - _MB + 4}" stroke="black"/>'
        )
    legend_y = _MT + 10
    for est in sorted(series):
        pts = [(x, y) for x, y in series[est] if math.isfinite(y)]
        if not pts:
            continue
        color = _PALETTE.get(est, "#7f7f7f")
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{legend_y}" x2="{_W - _MR - 110}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{_W - _MR - 104}" y="{legend_y + 4}">{est}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg_charts(cfg: ExperimentConfig, rows: list[ResultRow], out_dir) -> list[Path]:
    """One line chart per distribution (mean error vs n, log-scaled x)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for dist_name in cfg.distributions:
        series: dict[str, list[tuple[int, float]]] = {}
        for r in rows:
            if r.distribution == dist_name:
                series.setdefault(r.estimator, []).append((r.n, r.mean_error))
        for pts in series.values():
            pts.sort()
        path = out_dir / f"{cfg.task}_{dist_name}.svg"
        path.write_text(_svg_chart(cfg.task, dist_name, series), encoding="utf-8")
        written.append(path)
    return written
