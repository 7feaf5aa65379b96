"""Run one workload of the pmllab benchmark and print its metrics.

    python3 perfbench/run.py --workload pml_k5000 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the library is imported from ./src and the
desk configs are read from ./configs. The workload's inputs are made from
--seed in set-up. The measured phase then runs the workload's op list in
passes until --seconds are up: two whole passes at least, so that every op
runs at least twice, and then as far as time allows. Each op counts once
in the metrics, with its median latency, so every run measures the same mix
of ops. Outputs are checked after the measured phase.

Times are reported at a fixed machine speed. The speed of a shared host's
virtual CPUs comes and goes, in bursts of seconds and in spells that can
cover a whole run, and it slows whatever runs in them. So a fixed piece of
reference work (Python loops over numpy scalars and short numpy calls, as
in the library) runs between every two ops and between the steps of
set-up, and each timed interval is scaled by REF_NOMINAL_S over the mean
time of the reference runs near it: within WINDOW_S, or as far as the
interval lasts if that is longer. An op's latency is the median of its
scaled runs. The raw figures, and the reference's median time, are on the
detail line.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 a
tracer wraps the library's public functions (see layers.py) and the last
line holds the per-layer metrics instead, and the spans are written to
perfbench/out/. The line before the last, prefixed with "detail", holds the
environment, the output digests and the metrics no gate applies to.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()  # before numpy and pmllab are imported

SETUP_REPEATS = 7
TAIL_BEYOND = 10
OUT_DIR = Path("perfbench") / "out"
# The reference work's usual time on the 2-vCPU x86 virtual machine the
# first baseline was taken on; times are reported at the speed at which the
# reference work takes this long.
REF_NOMINAL_S = 0.0035
# How far from a timed interval reference runs count towards its scale.
WINDOW_S = 2.0


def tail_rank(count: int) -> tuple[int, int]:
    """(percentile, 1-based nearest rank) of the highest whole percentile
    that has at least TAIL_BEYOND samples beyond it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} samples leave no percentile with {TAIL_BEYOND} beyond it")
    pct = 100 * (count - TAIL_BEYOND) // count
    return pct, max(1, math.ceil(pct * count / 100))


def reference_seconds() -> float:
    """Time one run of the reference work: sums of numpy scalars over the
    injective assignments of 4 symbols to 8 points, as the exact E-step
    does, then short numpy calls on a small array, as the sampled E-step
    does."""
    import numpy as np
    lq = np.log(np.linspace(0.05, 0.3, 8))
    mults = np.array([3.0, 2.0, 1.0, 1.0])
    a = np.linspace(0.0, 1.0, 512)
    t = time.perf_counter()
    np.fromiter((sum(mults[j] * lq[s] for j, s in enumerate(perm))
                 for perm in itertools.permutations(range(8), 4)), dtype=float)
    for _ in range(40):
        a = np.maximum(a * 0.999, 1e-9)
        a = a / a.sum()
    return time.perf_counter() - t


class References:
    """Reference runs, kept in time order, that scale timed intervals to
    the nominal machine speed."""

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []

    def run(self) -> float:
        """Run the reference work once and record it; returns its wall time."""
        t = time.perf_counter()
        took = reference_seconds()
        self.mids.append(t + took / 2)
        self.times.append(took)
        return time.perf_counter() - t

    def scaled(self, start: float, end: float) -> float:
        """end - start at nominal speed: scaled by REF_NOMINAL_S over the
        trimmed mean time of the reference runs within WINDOW_S of
        [start, end], or within its own length if that is longer, or of the
        nearest run if none is that close.

        A long interval looks as far to each side as it lasts: the speed
        changes within it, which its edges alone miss. The mean, not the
        median, because the machine flips between a fast and a slow speed
        and an interval takes the mean of the two over its length; the
        slowest and fastest tenth are dropped, so that one reference run
        that was interrupted does not count."""
        reach = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.mids, start - reach)
        hi = bisect.bisect_right(self.mids, end + reach)
        near = sorted(self.times[lo:hi])
        if not near:
            i = min(range(len(self.mids)), key=lambda i: abs(self.mids[i] - (start + end) / 2))
            near = [self.times[i]]
        cut = len(near) // 10
        return (end - start) * REF_NOMINAL_S / statistics.fmean(near[cut:len(near) - cut])


def median_latencies(records, latency) -> dict:
    """Op index -> the median of latency(record) over the op's records."""
    runs: dict = {}
    for rec in records:
        runs.setdefault(rec[0], []).append(latency(rec))
    return {ix: statistics.median(v) for ix, v in runs.items()}


def latency_summary(latencies) -> dict:
    ordered = sorted(latencies)
    pct, rank = tail_rank(len(ordered))
    return {"op_p50_s": statistics.median(ordered), "op_tail_s": ordered[rank - 1],
            "tail_percentile": pct, "samples": len(ordered),
            "beyond_tail": len(ordered) - rank}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(src: Path) -> float:
    """Time a fresh interpreter's import of numpy and every pmllab module."""
    probe = (f"import sys, time; sys.path.insert(0, {str(src)!r}); t = time.perf_counter(); "
             "import numpy, pmllab, pmllab.bench, pmllab.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def _import_library(root: Path):
    src = root / "src"
    if not (src / "pmllab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no pmllab package under {src}; run from a checkout's root")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import pmllab
    if Path(pmllab.__file__).resolve().parent != (src / "pmllab").resolve():
        raise SystemExit(f"run.py: imported pmllab from {pmllab.__file__}, not from {src}")
    import pmllab.bench  # noqa: F401  (every module, so the tracer sees every binding)
    import pmllab.cli  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_library(root)
    imported = time.perf_counter()
    # BENCHMARK.json names the metrics of the last line, and their units.
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    import numpy
    from pmllab import bench

    import layers
    import spans as sp
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    tracer = sp.Tracer() if args.trace else None
    with (sp.installed(tracer, layers.TARGETS) if tracer else contextlib.nullcontext()):
        # Set-up: build the inputs several times and keep the median.
        refs = References()
        refs.run()
        builds, digests = [], set()
        for rep in range(SETUP_REPEATS):
            if tracer:
                tracer.op = f"setup{rep}"
            t = time.perf_counter()
            ops = workloads.build(args.workload, args.seed, root)
            builds.append((t, time.perf_counter()))
            digests.add(workloads.inputs_digest(ops))
            refs.run()
        # The process imports once; fresh interpreters repeat the import.
        imports = [(_T0, imported)]
        for _ in range(SETUP_REPEATS - 1):
            t = time.perf_counter()
            took = import_seconds(root / "src")
            imports.append((t, t + took))
            refs.run()
        setup_s = (statistics.median(refs.scaled(*i) for i in imports)
                   + statistics.median(refs.scaled(*b) for b in builds))
        setup_raw_s = (statistics.median(e - s for s, e in imports)
                       + statistics.median(e - s for s, e in builds))

        # Measured phase: passes over the op list until the next op is
        # expected to end after --seconds. The first two passes always run
        # whole, so every op runs at least twice; ops marked once run in the
        # first pass only. The reference work runs after every op.
        records = []  # (op index, start, end, output or None, error or None)
        last_s: dict = {}  # op index -> its last run, with the reference after it
        cycles = 0  # whole passes
        started = time.perf_counter()
        while True:
            for ix, op in enumerate(ops):
                if op.once and cycles:
                    continue
                if cycles >= 2 and time.perf_counter() - started + last_s[ix] > args.seconds:
                    break
                root_span = None
                if tracer:
                    tracer.op = len(records)
                    root_span = tracer.open("op")
                t = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # an op that raises is a failed op
                    out, err = None, f"{type(exc).__name__}: {exc}"
                t_end = time.perf_counter()
                if tracer:
                    tracer.close(root_span)
                    root_span.start, root_span.end = t, t_end
                records.append((ix, t, t_end, out, err))
                last_s[ix] = t_end - t + refs.run()
            else:
                cycles += 1
                continue
            break
        measured_s = time.perf_counter() - started
        if tracer:
            tracer.enabled = False

        # Checks and scores, outside the measured phase.
        problems = []
        if len(digests) != 1:
            problems.append("set-up built different inputs from the same seed")
        first_digest: dict = {}
        scores: dict = {}
        failed = 0
        failed_ops = set()
        for n, (ix, _, _, out, err) in enumerate(records):
            op = ops[ix]
            bad = [err] if err else []
            if not bad:
                try:
                    bad = op.check(out)
                except Exception as exc:
                    bad = [f"check raised {type(exc).__name__}: {exc}"]
            if not bad:
                d = workloads.output_digest(out)
                if first_digest.setdefault(ix, d) != d:
                    bad = [f"output differs from pass 1 ({d} != {first_digest[ix]})"]
                elif n < len(ops):
                    for key, value in op.score(out).items():
                        scores.setdefault(key, []).append(value)
            if bad:
                failed += 1
                failed_ops.add(ix)
                problems.append(f"op {n} {op.label}: {'; '.join(map(str, bad))}")

    attempted = len(records)
    latencies = median_latencies(records, lambda r: refs.scaled(r[1], r[2]))
    lat = latency_summary(latencies.values())
    raw_latencies = median_latencies(records, lambda r: r[2] - r[1])
    raw = latency_summary(raw_latencies.values())
    # Ops per second of a pass at nominal speed, each op taking its median
    # latency; an op that failed in any pass does not count as completed.
    # Ops that run once per run are left out: one run of the exact_small
    # cliff cell (11-18 s) is three quarters of a pass's time, and no
    # scaling timed a single run of it steadily. Their times are on the
    # detail line.
    every_pass = [ix for ix in latencies if not ops[ix].once]

    def throughput(lat):
        return (sum(ix not in failed_ops for ix in every_pass)
                / math.fsum(lat[ix] for ix in every_pass))

    ops_per_s = throughput(latencies)
    accuracy = {k: statistics.fmean(v) for k, v in sorted(scores.items())}

    units = {"sorted_l1_err": "l1", "entropy_abs_err": "nats", "l1_err": "l1",
             "uniformity_err_rate": "ratio", "exact_loglik": "nats"}
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_s": (lat["op_p50_s"], "s"),
        "op_tail_s": (lat["op_tail_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    for key, value in accuracy.items():
        end_to_end[key] = (value, units[key])

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "worker_count": bench.worker_count(),
        "PMLLAB_THREADS": os.environ.get("PMLLAB_THREADS"),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
    }

    per_layer = {}
    if tracer:
        op_ids = set(range(attempted))
        op_spans = [s for s in tracer.spans if s.op in op_ids]
        setup_spans = [s for s in tracer.spans if s.op not in op_ids]
        by_op: dict = {}
        for s in op_spans:
            by_op.setdefault(s.op, []).append(s)
        worst = max(sp.accounting_error(next(s for s in group if s.name == "op"), group)
                    for group in by_op.values())
        if worst > 1e-6:
            problems.append(f"spans do not account for an op: off by {worst:.3g} s")
        runs = {}
        for ix, *_ in records:
            runs[ix] = runs.get(ix, 0) + 1
        weights = {n: 1.0 / runs[ix] for n, (ix, *_) in enumerate(records)}
        per_layer = layers.per_layer(op_spans, setup_spans, weights, SETUP_REPEATS)
        per_layer["trace.ops_per_s"] = ops_per_s
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans_{args.workload}_{args.seed}.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")

    values = per_layer if tracer else {k: v for k, (v, _) in end_to_end.items()}
    metrics = {}
    for m in spec["per_layer" if tracer else "end_to_end"]:
        if m["name"] not in values:
            problems.append(f"no value for {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}

    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"{args.workload}: {attempted} ops in {cycles} whole passes of {len(ops)}, "
          f"{measured_s:.2f} s measured, {failed} failed")
    for name, (value, unit) in end_to_end.items():
        extra = ""
        if name == "op_tail_s":
            extra = (f"  (p{lat['tail_percentile']} of {lat['samples']} ops, "
                     f"{lat['beyond_tail']} beyond)")
        print(f"  {name} = {value:.6g} {unit}{extra}")
    for ix in latencies:
        if ops[ix].once:
            print(f"  once: {ops[ix].label} = {latencies[ix]:.6g} s ({raw_latencies[ix]:.6g} s unscaled)")
    for name, value in per_layer.items():
        print(f"  {name} = {value:.6g}")

    detail = {
        "env": env,
        "cycles": cycles,
        "ops_per_cycle": len(ops),
        "measured_s": measured_s,
        "inputs_digest": digests.pop() if len(digests) == 1 else None,
        "output_digest": workloads.digest_of(first_digest[ix] for ix in sorted(first_digest)),
        "tail": {k: lat[k] for k in ("tail_percentile", "samples", "beyond_tail")},
        # the same figures unscaled, and the reference work's median time
        "once_s": {ops[ix].label: {"scaled": latencies[ix], "raw": raw_latencies[ix]}
                   for ix in latencies if ops[ix].once},
        "raw": {"setup_s": setup_raw_s,
                "ops_per_s": throughput(raw_latencies),
                "op_p50_s": raw["op_p50_s"], "op_tail_s": raw["op_tail_s"],
                "reference_s": statistics.median(refs.times)},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "problems": problems,
    }
    print("detail " + json.dumps(detail))

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
