"""Command line interface.

Exit codes: 0 on success; 1 on invalid input (bad flags, and any
ValueError, which covers malformed sample, profile and config files);
2 on runtime failures, including missing or unreadable files.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench
from .dist_est import ESTIMATORS, estimate, plug_in
from .distributions import RngSeed, draw_sample, make
from .pml_em import EmConfig, sample_of_profile
from .properties import PROPERTY_TAGS
from .uniformity import t_pml_test


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pmllab", description="Profile-based inference toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    # the EM flags of pml, estimate and test-uniformity, with EmConfig's defaults
    em = argparse.ArgumentParser(add_help=False)
    em.add_argument("--em-iters", type=int, default=EmConfig.em_iterations)
    em.add_argument("--sweeps", type=int, default=EmConfig.mcmc_sweeps_per_estep,
                    help="sampled sweeps per E-step, split among its chains")
    em.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sample", help="draw a sample from a benchmark distribution")
    p.add_argument("--dist", required=True, help="family name (uniform, two_step, ...)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sample file to write")

    p = sub.add_parser("pml", parents=[em], help="profile file in, probability-vector file out")
    p.add_argument("--profile", required=True, help="input profile file")
    p.add_argument("--out", required=True, help="output probability-vector file")
    p.add_argument("--k", type=int, default=None, help="true alphabet size, if known")

    p = sub.add_parser("estimate", parents=[em], help="property estimate from a sample file")
    p.add_argument("--sample", required=True, help="input sample file")
    p.add_argument("--property", required=True, choices=PROPERTY_TAGS)
    p.add_argument("--estimator", default="empirical", choices=ESTIMATORS)
    p.add_argument("--alpha", type=float, default=None, help="renyi / power-sum order")
    p.add_argument("--coverage-m", type=int, default=None, help="coverage sample-size parameter")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("test-uniformity", parents=[em], help="run the PML uniformity tester")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sample", default=None, help="existing sample file to test")
    p.add_argument("--dist", default=None, help="family to simulate when no sample is given")
    p.add_argument("--n", type=int, default=None, help="sample size when simulating")

    p = sub.add_parser("bench", help="run an experiment grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also write per-distribution charts")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="abort grid cells starting after this budget, in seconds (>= 0)")
    return parser


def _em_config(args, seed: RngSeed) -> EmConfig:
    return EmConfig(em_iterations=args.em_iters, mcmc_sweeps_per_estep=args.sweeps, seed=seed)


def _cmd_sample(args) -> int:
    sample = draw_sample(make(args.dist, args.k), args.n, RngSeed(args.seed))
    bench.write_sample_file(sample, args.out)
    return 0


def _cmd_pml(args) -> int:
    profile = bench.read_profile_file(args.profile)
    cfg = _em_config(args, RngSeed(args.seed))
    dist = estimate(sample_of_profile(profile), "pml", k=args.k, cfg=cfg)
    bench.write_pml_file(dist, args.out)
    return 0


def _cmd_estimate(args) -> int:
    sample = bench.read_sample_file(args.sample)
    cfg = _em_config(args, RngSeed(args.seed))
    param = args.coverage_m if args.property == "coverage" else args.alpha
    value = plug_in(sample, args.property, args.estimator, param, k=args.k, cfg=cfg)
    print(f"{value:.17g}")
    return 0


def _cmd_test_uniformity(args) -> int:
    if args.sample is not None:
        sample = bench.read_sample_file(args.sample)
    else:
        if args.dist is None or args.n is None:
            raise ValueError("test-uniformity needs either --sample or both --dist and --n")
        sample = draw_sample(make(args.dist, args.k), args.n, RngSeed(args.seed).derive(1))
    cfg = _em_config(args, RngSeed(args.seed).derive(2))
    pml = estimate(sample, "pml", k=args.k, cfg=cfg)
    print(t_pml_test(sample, args.k, args.epsilon, pml))
    return 0


def _cmd_bench(args) -> int:
    cfg = bench.parse_config(Path(args.config).read_text(encoding="utf-8"))
    if args.max_seconds is not None:
        cfg = dataclasses.replace(cfg, max_seconds=args.max_seconds)
    rows = bench.run_experiment(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench.write_csv(rows, out_dir / f"{cfg.task}.csv")
    if args.svg:
        bench.write_svg_charts(cfg, rows, out_dir)
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "pml": _cmd_pml,
    "estimate": _cmd_estimate,
    "test-uniformity": _cmd_test_uniformity,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"pmllab: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"pmllab: failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
