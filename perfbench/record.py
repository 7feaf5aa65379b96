"""Run every workload untraced and traced, check determinism, and record the
numbers as one point of the benchmark trajectory.

    python3 perfbench/record.py [--seed 1] [--seconds 15]

Run from the root of a checkout. For each workload this runs run.py twice
with the same seed, untraced then traced, and requires identical output
digests: the two runs must compute the same results, and tracing must not
change a bit. desk_grid runs a third time with PMLLAB_THREADS=1, whose digest
must match the default worker count's. The tracing overhead is the untraced
minus the traced ops_per_s.

The point is appended to perfbench/results/trajectory.json; the tables are
printed. Exits 1 if any run is incorrect or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "results" / "trajectory.json"
WORKLOADS = ("pml_k5000", "desk_grid", "exact_small")


def run_workload(workload: str, seed: int, seconds: int, trace: int, env=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    base = {k: v for k, v in os.environ.items() if k != "PMLLAB_THREADS"}
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          env={**base, **(env or {})})
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    return {"result": json.loads(lines[-1]), "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    point = {"date": time.strftime("%Y-%m-%d"), "seed": args.seed, "seconds": args.seconds,
             "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0)
        traced = run_workload(workload, args.seed, args.seconds, 1)
        digests = {"default": plain["detail"]["output_digest"],
                   "traced": traced["detail"]["output_digest"]}
        if workload == "desk_grid":
            serial = run_workload(workload, args.seed, args.seconds, 0, {"PMLLAB_THREADS": "1"})
            digests["PMLLAB_THREADS=1"] = serial["detail"]["output_digest"]
        same = len(set(digests.values())) == 1
        correct = plain["result"]["correct"] and traced["result"]["correct"]
        ok = ok and same and correct
        e2e = plain["detail"]["end_to_end"]
        layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        point["env"] = plain["detail"]["env"]
        point["workloads"][workload] = {
            "correct": correct,
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"],
            "whole_passes": plain["detail"]["cycles"],
            "tail": plain["detail"]["tail"],
            "end_to_end": e2e,
            "raw": plain["detail"]["raw"],
            "once_s": plain["detail"]["once_s"],
            "per_layer": layer,
            "trace_overhead_ops_per_s": e2e["ops_per_s"]["value"] - layer["trace.ops_per_s"],
            "digests": digests,
            "digests_match": same,
        }
        if plain["detail"]["problems"] or traced["detail"]["problems"]:
            point["workloads"][workload]["problems"] = (
                plain["detail"]["problems"] + traced["detail"]["problems"])[:20]
    point["commit"] = point["env"].pop("commit")
    for key in ("workload", "seed", "PMLLAB_THREADS"):
        point["env"].pop(key)

    for name, w in point["workloads"].items():
        print(f"{name}: correct={w['correct']} digests_match={w['digests_match']} "
              f"{w['attempted']} ops in {w['whole_passes']} whole passes")
        for metric, v in w["end_to_end"].items():
            extra = ""
            if metric == "op_tail_s":
                extra = f"  (p{w['tail']['tail_percentile']} of {w['tail']['samples']} ops)"
            print(f"  {metric:<22} {v['value']:>14.6g} {v['unit']}{extra}")
        print(f"  {'trace overhead':<22} {w['trace_overhead_ops_per_s']:>14.6g} 1/s")
    names = list(next(iter(point["workloads"].values()))["per_layer"])
    print(f"\n{'per-layer (traced, per pass)':<46}" + "".join(f"{n:>14}" for n in point["workloads"]))
    for metric in names:
        label = metric + (" (computed)" if metric.endswith("us_per_symbol_sweep") else "")
        print(f"{label:<46}" + "".join(
            f"{w['per_layer'][metric]:>14.6g}" for w in point["workloads"].values()))

    TRAJECTORY.parent.mkdir(parents=True, exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
    history.append(point)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    print(f"\nappended to {TRAJECTORY.relative_to(HERE.parent)}; all correct and deterministic: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
