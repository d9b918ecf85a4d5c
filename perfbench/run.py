"""Benchmark entry point.

    python3 perfbench/run.py --workload electrolyte-rbe --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times whole episodes with tracing off for about ``--seconds``
(at least two episodes) and prints the end-to-end metrics; ``--trace 1`` runs
the traced pass of ``layers.py``, whose length is fixed, and prints the
per-layer metrics.
``--workload all`` runs every workload untraced, each in a fresh process.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and a table with the raw value of every timing.

Timings are probe-normalised (see ``probe.py``).  The program is imported
from ``src/`` of the checkout this file sits in; without it the benchmark
exits with a non-zero status and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Single-threaded workloads: pin BLAS before numpy is imported.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("electrolyte-rbe", "wealth-rbm", "lj-split")


def _import_program():
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (SRC / "randbatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'randbatch'}")
    sys.path.insert(0, str(SRC))
    import randbatch

    if Path(randbatch.__file__).resolve().parent != (SRC / "randbatch").resolve():
        raise SystemExit(f"error: randbatch imported from {randbatch.__file__}, not {SRC}")
    return randbatch


def environment(randbatch, probe_kind: str, probes) -> dict:
    import numpy
    import scipy

    from probe import PROBE_REF_S

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba": bool(randbatch.HAVE_NUMBA),
        "njit_kernels": "compiled" if randbatch.USE_NUMBA else "interpreted",
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "probe_kind": probe_kind,
        "probe_ref_s": PROBE_REF_S[probe_kind],
        "probe_s": [round(p, 6) for p in probes],
    }


def print_report(header: str, env: dict, rows, tally, metrics_out: dict, checks=()):
    print(header)
    print("env " + json.dumps(env, sort_keys=True))
    for c in checks:
        print(f"check {c.name} = {c.value:.6g} {'ok' if c.ok else 'FAILED'}")
    print(f"{'metric':<52} {'value':>14} {'unit':<6} {'raw':>14}")
    for name, (value, unit, raw) in rows.items():
        raw_s = "" if raw is None else f"{raw:14.6g}"
        print(f"{name:<52} {value:14.6g} {unit:<6} {raw_s}")
    print(f"attempted {tally.attempted} failed {tally.failed}")
    for f in tally.failures:
        print(f"  failed: {f}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics_out.items()},
    }))


def run_untraced(workload: str, seed: int, seconds: float) -> int:
    import resource

    randbatch = _import_program()
    import measure
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tally = measure.Tally()
    samples = measure.Samples(probe_kind=wl.probe_kind)
    try:
        cfg = wl.config(seed)
    except Exception as exc:
        measure.fail(tally, "config", exc)
        cfg = None
    done = measure.run_episodes(wl, cfg, seconds, samples, tally) if cfg else []
    if not done:
        print(f"error: no episode of {workload} completed", file=sys.stderr)
        return 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = measure.summarise(samples, rss_mb)
    if not measure.finite_metrics(rows):
        tally.record(False, "a metric is not finite and positive")
    out = {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()}
    header = (f"workload {workload} seed {seed} seconds {seconds} trace 0 "
              f"episodes {len(done)} steps/episode {done[0].episode.steps}")
    print_report(header, environment(randbatch, wl.probe_kind, samples.probes), rows, tally, out,
                 done[0].checks)
    return 0


def run_traced(workload: str, seed: int) -> int:
    randbatch = _import_program()
    import layers
    from workloads import WORKLOADS

    metrics, tally, probes = layers.traced_run(workload, seed, ROOT)
    rows = {k: (v, u, None) for k, (v, u) in metrics.items()}
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    header = f"workload {workload} seed {seed} trace 1"
    print_report(header, environment(randbatch, WORKLOADS[workload].probe_kind, probes), rows,
                 tally, out)
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a fresh process; one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced only")
        return run_all(args.seed, args.seconds)
    if args.trace:
        return run_traced(args.workload, args.seed)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
