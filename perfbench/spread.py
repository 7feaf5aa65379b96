"""Run one workload on several seeds and print each metric's median and
spread, the distance between its quartiles as a share of its median.

    python3 perfbench/spread.py --workload pml_k5000 --seeds 1 2 3 4 5

Run from the root of a checkout. --trace 1 gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from record import HERE, run_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    values: dict = {}
    for seed in args.seeds:
        result = run_workload(args.workload, seed, args.seconds, args.trace)["result"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for key, v in result["metrics"].items():
            values.setdefault(key, []).append(v["value"])
    print(f"{'metric':<46}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{key:<46}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
