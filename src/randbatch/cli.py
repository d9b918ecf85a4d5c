"""Command-line entry point: validate, run, bench."""

import argparse
import json
import sys

import yaml

from . import __version__
from .runner import ConfigError, run, run_bench, validate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randbatch",
        description="Random-batch simulations of interacting particle systems",
    )
    parser.add_argument("--version", action="version", version=f"randbatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a config file and echo the resolved form")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.add_argument("--replicas", type=int, default=None, help="override replica count")
    p_run.add_argument("--threads", type=int, default=1,
                       help="cap on numpy's BLAS threads for the run (default 1)")

    p_bench = sub.add_parser("bench", help="per-step scaling benchmark (direct vs RBM)")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = validate(args.config)
    except ConfigError as exc:
        print(json.dumps({"error": "invalid-config", "details": exc.errors}, indent=2),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "unreadable-config", "details": [str(exc)]}, indent=2),
              file=sys.stderr)
        return 2

    if args.command == "validate":
        yaml.safe_dump(cfg, sys.stdout, sort_keys=True)
        return 0

    if args.command == "run":
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.replicas is not None:
            cfg["run"]["replicas"] = args.replicas
        try:
            outdir = run(cfg, out_root=args.out, threads=args.threads)
        except Exception as exc:  # structured failure report, nonzero exit
            print(json.dumps({"error": type(exc).__name__, "details": [str(exc)]}, indent=2),
                  file=sys.stderr)
            return 1
        print(outdir)
        return 0

    if args.command == "bench":
        outdir = run_bench(cfg, out_root=args.out)
        print(outdir)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
