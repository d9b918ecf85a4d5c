"""SHA-256 of every metrics.json and CSV that a fixed list of runs writes.

    python tests/outputs.py                   # one line per file: hash, then path
    python tests/outputs.py --against HEAD~1  # the files whose bytes differ at HEAD~1

The list (``RUNS``) holds each model's default config, shortened where a
run takes more than a few seconds, with every method of every model; consensus
at d = 1, d = 2 and with nu; lj-fluid under each thermostat kind and both
schedules; the electrolyte under each thermostat kind; ``configs/*.yaml``;
``perfbench/configs/*.yaml``; and the tiny configs of the CI's rerun steps.
Each entry is one ``randbatch run`` in its own process.  ``BENCH_EPISODES``
adds the final state of one benchmark episode per workload and seed, from
``perfbench/workloads.py``, under ``bench/<workload>-seed<s>``.

``--against REV`` extracts REV with ``git archive`` into a temporary
directory, runs the same list (this checkout's configs) on both trees' code,
and prints each path whose bytes differ or that only one tree wrote; it exits
1 if there is one.  The runs go one at a time, and nothing leaves the machine.
pytest does not collect this file: its name does not start with ``test_``.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]

_TINY_ELECTROLYTE = {"model": {"id": "electrolyte", "N": 20, "L": 8.0},
                     "run": {"p": 10, "steps": 20, "warmup": 2},
                     "output": {"trajectory_every": 5}}
_TINY_LJ = {"model": {"id": "lj-fluid", "N": 27}, "run": {"steps": 8}}

# name -> config; a name is also the run's output directory
RUNS = {
    "toy": {"model": {"id": "toy"}},
    "toy-rbm": {"method": "rbm", "model": {"id": "toy"}, "diagnostics": []},
    "toy-rbm-r": {"method": "rbm-r", "model": {"id": "toy"}, "diagnostics": []},
    "toy-convergence": {"model": {"id": "toy", "N": 4}, "diagnostics": ["convergence"]},
    "toy-replicas": {"model": {"id": "toy", "N": 8}, "run": {"replicas": 2}, "diagnostics": []},
    "toy-tiny": {"model": {"id": "toy", "N": 6}, "diagnostics": []},
    "wealth": {"model": {"id": "wealth"}},
    "wealth-direct": {"method": "direct", "model": {"id": "wealth", "N": 300},
                      "run": {"T": 0.2}},
    "wealth-tiny": {"model": {"id": "wealth", "N": 40}, "run": {"T": 0.01}},
    "cucker-smale": {"model": {"id": "cucker-smale"}},
    "cucker-smale-direct": {"method": "direct", "model": {"id": "cucker-smale", "N": 64},
                            "run": {"steps": 100}},
    "cucker-smale-tiny": {"model": {"id": "cucker-smale", "N": 8}, "run": {"steps": 10}},
    "consensus": {"model": {"id": "consensus"}},
    "consensus-direct": {"method": "direct", "model": {"id": "consensus"}},
    "consensus-d2": {"model": {"id": "consensus", "dim": 2}},
    "consensus-d2-tiny": {"model": {"id": "consensus", "N": 8, "dim": 2}, "run": {"steps": 10}},
    "consensus-nu": {"model": {"id": "consensus", "N": 6, "nu": [1.0, -2.0, 0.5, 0.5, 1.5, -1.5]},
                     "run": {"p": 3}},
    "lj-fluid": {"model": {"id": "lj-fluid"}},
    "lj-andersen": {**_TINY_LJ, "thermostat": {"kind": "andersen", "nu": 50.0}},
    "lj-langevin": {**_TINY_LJ, "thermostat": {"kind": "langevin"}},
    "lj-log-decay": {**_TINY_LJ, "run": {"steps": 8, "schedule": {"kind": "log-decay"}}},
    "lj-inverse": {**_TINY_LJ, "run": {"steps": 20, "schedule": {"kind": "inverse", "k0": 500.0}}},
    "electrolyte": {"model": {"id": "electrolyte"}, "run": {"steps": 400}},
    "electrolyte-andersen": {**_TINY_ELECTROLYTE, "thermostat": {"kind": "andersen"}},
    "electrolyte-langevin": {**_TINY_ELECTROLYTE, "thermostat": {"kind": "langevin"}},
    "electrolyte-nose-hoover": {**_TINY_ELECTROLYTE, "thermostat": {"kind": "nose-hoover"}},
    "dyson": {"model": {"id": "dyson"}},
    "dyson-small": {"seed": 1, "model": {"id": "dyson", "N": 100}, "run": {"sweeps": 3000}},
    "gaussian": {"model": {"id": "gaussian"}},
    "gaussian-d2": {"model": {"id": "gaussian", "N": 32, "dim": 2}, "run": {"steps": 200}},
    "gaussian-tiny": {"model": {"id": "gaussian", "N": 8}, "run": {"steps": 10}},
}
CONFIG_FILES = sorted((ROOT / "configs").glob("*.yaml")) + sorted(
    (ROOT / "perfbench" / "configs").glob("*.yaml"))
BENCH_EPISODES = [(w, s) for w in ("electrolyte-rbe", "wealth-rbm", "lj-split") for s in (0, 3)]

# one benchmark episode, run in the tree given as argv[1]; prints its final state's hash
_EPISODE = """
import hashlib, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from workloads import WORKLOADS
wl = WORKLOADS[sys.argv[2]]
ep = wl.setup(wl.config(int(sys.argv[3])))
while ep.k < ep.steps:
    ep.step_fn(ep)
print(hashlib.sha256(ep.final_bytes()).hexdigest())
"""


def _run(cmd, tree: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout


def hashes(tree: Path, work: Path) -> dict:
    """{relative path: SHA-256} of the list's outputs, run on ``tree``'s code."""
    work.mkdir(parents=True)
    configs = list(CONFIG_FILES)
    for name, cfg in RUNS.items():
        configs.append(work / f"{name}.yaml")
        configs[-1].write_text(yaml.safe_dump({"name": name, **cfg}))
    for path in configs:
        _run([sys.executable, "-m", "randbatch.cli", "run", str(path), "--out", str(work / "out")],
             tree)
    out = {str(f.relative_to(work / "out")): hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted((work / "out").rglob("*")) if f.name == "metrics.json"
           or f.suffix == ".csv"}
    for name, seed in BENCH_EPISODES:
        out[f"bench/{name}-seed{seed}"] = _run(
            [sys.executable, "-c", _EPISODE, str(tree), name, str(seed)], tree).strip()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with this git revision")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        here = hashes(ROOT, Path(tmp) / "here")
        if args.against is None:
            for path, digest in here.items():
                print(digest, path)
            return 0
        tree = Path(tmp) / "rev"
        tree.mkdir()
        archive = Path(tmp) / "rev.tar"
        with open(archive, "wb") as fh:
            subprocess.run(["git", "-C", str(ROOT), "archive", args.against], stdout=fh,
                           check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        there = hashes(tree, Path(tmp) / "there")
    differ = sorted(p for p in here.keys() | there.keys() if here.get(p) != there.get(p))
    equal = len(here.keys() | there.keys()) - len(differ)
    for path in differ:
        print("differs:" if path in here and path in there else
              f"only {'here' if path in here else 'at ' + args.against}:", path)
    print(f"{equal} files equal, {len(differ)} differ "
          f"against {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
