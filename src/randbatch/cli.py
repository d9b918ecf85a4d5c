"""Command-line entry point: validate, run.

``validate`` echoes a config resolved against the model registry in
``runner``: every default filled in, and any field that the chosen model,
method or thermostat kind would not use rejected rather than ignored.
``run`` applies its ``--seed`` and ``--replicas`` overrides before that
validation, so an override is checked like the field it replaces.  An
invalid config exits with code 2; a run that fails exits with code 1.
Either failure writes one JSON report to stderr; the warnings a failed run
raised (numpy's overflow warnings on the way to a blow-up, say) go into it
under ``"warnings"``, and a run that succeeds prints its warnings when done.
"""

import argparse
import json
import sys
import warnings

import yaml

from . import __version__
from .runner import ConfigError, run, validate


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
                       help="cap on numpy's BLAS threads for the run (default 1); it caps "
                            "BLAS only: a first-order step fills a large noise draw on "
                            "one more thread")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "replicas": args.replicas} if args.command == "run" else {}
    try:
        cfg = validate(args.config, **overrides)
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

    try:
        with warnings.catch_warnings(record=True) as caught:
            outdir = run(cfg, out_root=args.out, threads=args.threads)
    except Exception as exc:  # structured failure report, nonzero exit
        report = {"error": type(exc).__name__, "details": [str(exc)],
                  "warnings": [f"{w.filename}:{w.lineno}: {w.category.__name__}: {w.message}"
                               for w in caught]}
        print(json.dumps(report, indent=2), file=sys.stderr)
        return 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    print(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
