"""The benchmark's step loops run what ``randbatch run`` runs, bit for bit."""

import sys
from pathlib import Path

import numpy as np
import pytest

from randbatch import runner
from randbatch.rng import SimStreams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # as perfbench/tests/conftest.py does
    import workloads

    return workloads.WORKLOADS


# the electrolyte bench banks 5000 frequencies and the runner 4096; 40 steps draw
# 4000, so both loops use the same ones
@pytest.mark.parametrize("name, seed", [("electrolyte-rbe", 0), ("electrolyte-rbe", 5),
                                        ("lj-split", 3), ("wealth-rbm", 3)])
def test_the_bench_steps_what_the_runner_runs(workloads, name, seed):
    wl = workloads[name]
    cfg = wl.config(seed)
    ep = wl.setup(cfg)
    for _ in range(ep.steps):
        ep.step_fn(ep)

    sim = runner._simulate(cfg, SimStreams(cfg["seed"]))

    assert runner._n_steps(cfg["run"]) == ep.steps
    np.testing.assert_array_equal(sim.state.positions, ep.state.positions)
    if ep.state.velocities is None:
        assert sim.state.velocities is None
    else:
        np.testing.assert_array_equal(sim.state.velocities, ep.state.velocities)
