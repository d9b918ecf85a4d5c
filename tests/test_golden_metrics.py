"""Each model's default run, cut short, writes the metrics in ``golden_metrics.json``.

Every model runs its default config with only the run's length cut (``SHORT``),
so its default diagnostics are all computed.  Integers, booleans, strings and
nulls must be equal; floats must agree within ``RTOL``, or within ``ATOL`` of
zero, where a sum such as the electrolyte's total momentum is roundoff.  A
one-ulp change of every initial coordinate (velocities too, and the Dyson
chain's list) moves no metric by more than 2.5e-13 of its size, and the
electrolyte's momentum sums, about 3e-15, by up to 53%: well inside both bounds,
which leave room for another BLAS or libm, while a change of method shows.
The gaussian run stops at 20 steps: its default Stein flow spreads without
bound, so by step 50 a one-ulp change moves its variance by 1e-9.

    python tests/test_golden_metrics.py   # rewrite golden_metrics.json from this tree
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from randbatch.runner import run, validate_dict

GOLDEN = Path(__file__).with_name("golden_metrics.json")
RTOL = 1e-9
ATOL = 1e-12

# model -> the run fields that shorten its default run
SHORT = {
    "toy": {"model": {"id": "toy", "N": 4}},
    "wealth": {"model": {"id": "wealth"}, "run": {"T": 0.05}},
    "cucker-smale": {"model": {"id": "cucker-smale"}, "run": {"steps": 50}},
    "consensus": {"model": {"id": "consensus"}, "run": {"steps": 50}},
    "lj-fluid": {"model": {"id": "lj-fluid"}, "run": {"steps": 50}},
    "electrolyte": {"model": {"id": "electrolyte"}, "run": {"steps": 40}},
    "dyson": {"model": {"id": "dyson"}, "run": {"sweeps": 20_000}},
    "gaussian": {"model": {"id": "gaussian"}, "run": {"steps": 20}},
}


def short_metrics(model: str, out_root) -> dict:
    outdir = run(validate_dict({"name": model, **SHORT[model]}), out_root)
    return json.loads((outdir / "metrics.json").read_text())


def _mismatches(got, want, path="") -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        close = math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("model", sorted(SHORT))
def test_a_short_default_run_writes_the_golden_metrics(model, tmp_path):
    want = json.loads(GOLDEN.read_text())[model]
    assert _mismatches(short_metrics(model, tmp_path), want) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        golden = {model: short_metrics(model, out) for model in sorted(SHORT)}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")
    sys.exit(0)
