"""Time steppers: reference coupling, RBM variants, splitting, schedules."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import randbatch
from randbatch import forces, integrators, runner
from randbatch.batching import random_division
from randbatch.integrators import (
    FirstOrderSystem,
    IntegrationError,
    SecondOrderSystem,
    direct_step,
    kick_drift,
    rbm_split_step,
    rbm_step_first_order,
    rbmr_step,
)
from randbatch.models import WealthModel, lj_kernel_spec
from randbatch.rng import SimStreams
from randbatch.state import BatchDivision, KernelSpec, ParticleState, RadialKernel, minimum_image

ZERO = lambda x: np.zeros_like(x)


def _state1(N=8, d=1, seed=0, box=None):
    gen = SimStreams(seed).init
    return ParticleState(positions=gen.standard_normal((N, d)), box_length=box)


def _state2(N=8, d=1, seed=0, box=None):
    gen = SimStreams(seed).init
    pos = gen.standard_normal((N, d))
    if box is not None:
        pos = gen.uniform(0, box, size=(N, d))
    return ParticleState(positions=pos, velocities=gen.standard_normal((N, d)), box_length=box)


def test_direct_step_identity_when_everything_vanishes():
    state = _state1()
    system = FirstOrderSystem(kernel=ZERO, alpha_N=1.0)
    out = direct_step(state, system, 0.1, SimStreams(1))
    np.testing.assert_array_equal(out.positions, state.positions)


def test_direct_step_free_flight():
    state = _state2(seed=2)
    system = SecondOrderSystem(kernel=ZERO, alpha_N=1.0)
    out = direct_step(state, system, 0.25, SimStreams(1))
    np.testing.assert_array_equal(out.positions, state.positions + 0.25 * state.velocities)
    np.testing.assert_array_equal(out.velocities, state.velocities)


def test_direct_step_explicit_euler_decay():
    state = ParticleState(positions=np.array([[1.0], [2.0]]))
    system = FirstOrderSystem(kernel=ZERO, alpha_N=1.0, drift=lambda x: -x)
    out = direct_step(state, system, 0.1, SimStreams(1))
    np.testing.assert_allclose(out.positions, [[0.9], [1.8]], atol=1e-15)


@pytest.mark.parametrize("sigma", [0.0, 0.4])
def test_rbm_full_batch_is_bit_identical_to_direct(sigma):
    N = 8
    system = FirstOrderSystem(kernel=np.sin, alpha_N=1 / (N - 1), drift=lambda x: -x, sigma=sigma)
    a = _state1(N, seed=5)
    b = _state1(N, seed=5)
    sa, sb = SimStreams(42), SimStreams(42)
    for _ in range(5):
        a = direct_step(a, system, 0.05, sa)
        b = rbm_step_first_order(b, system, N, 0.05, sb)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_rbm_second_order_full_batch_matches_direct():
    N = 6
    system = SecondOrderSystem(kernel=np.sin, alpha_N=1 / (N - 1), drift=lambda x: -x,
                               gamma=0.5, sigma=0.3)
    a = _state2(N, seed=7)
    b = _state2(N, seed=7)
    sa, sb = SimStreams(3), SimStreams(3)
    for _ in range(4):
        a = direct_step(a, system, 0.02, sa)
        b = rbm_step_first_order(b, system, N, 0.02, sb)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)


def test_rbm_zero_kernel_matches_direct_under_same_noise():
    N = 8
    system = FirstOrderSystem(kernel=ZERO, alpha_N=1.0, drift=lambda x: -x, sigma=0.7)
    a = _state1(N, seed=6)
    b = _state1(N, seed=6)
    out_a = direct_step(a, system, 0.1, SimStreams(9))
    out_b = rbm_step_first_order(b, system, 2, 0.1, SimStreams(9))
    np.testing.assert_array_equal(out_a.positions, out_b.positions)


def _wealth(N):
    model = WealthModel(N=N)
    return ParticleState(positions=model.initial(SimStreams(0).init)[:, None]), model.system()


def _count_worker_draws(monkeypatch):
    made = []

    class Counted(integrators._Draw):
        def __init__(self, rng, shape):
            made.append(shape)
            super().__init__(rng, shape)

    monkeypatch.setattr(integrators, "_Draw", Counted)
    return made


STEPS = {
    "rbm": lambda state, system, streams: rbm_step_first_order(state, system, 2, 1e-3, streams),
    "direct": lambda state, system, streams: direct_step(state, system, 1e-3, streams),
}


def _steps(step, state, system, k, seed):
    streams = SimStreams(seed)
    for _ in range(k):
        state = STEPS[step](state, system, streams)
    return state


@pytest.mark.parametrize("step, N, gate, cpus, on_worker", [
    ("rbm", 10_000, None, {0, 1}, True),  # wealth-rbm's size under the gate as it is
    ("rbm", 3000, 1 << 10, {0, 1}, True),
    ("direct", 300, 1 << 8, {0, 1}, True),
    ("rbm", 10_000, None, {0}, False),  # one CPU: in line
    ("rbm", 5000, None, {0, 1}, False),  # below the gate
    ("second-order", 10_000, None, {0, 1}, False),
])
def test_a_noise_draw_on_the_worker_gives_the_in_line_bits(monkeypatch, step, N, gate, cpus,
                                                           on_worker):
    state, system = _wealth(N)
    if step == "second-order":
        step = "rbm"
        state = state.replace(velocities=np.zeros_like(state.positions))
        system = SecondOrderSystem(kernel=system.kernel, alpha_N=system.alpha_N, gamma=1.0,
                                   sigma=1.0)
    if gate is not None:
        monkeypatch.setattr(integrators, "_CONCURRENT_DRAW", gate)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    made = _count_worker_draws(monkeypatch)
    got = _steps(step, state, system, 5, seed=7)
    assert made == ([(N, 1)] * 5 if on_worker else [])
    monkeypatch.setattr(integrators, "_CONCURRENT_DRAW", sys.maxsize)
    expected = _steps(step, state, system, 5, seed=7)
    assert len(made) == (5 if on_worker else 0)
    np.testing.assert_array_equal(got.positions, expected.positions)


class _SlowNoise:
    """A noise generator whose draws finish late and say when they have."""

    def __init__(self, gen):
        self.gen, self.done = gen, threading.Event()

    def standard_normal(self, shape):
        time.sleep(0.2)
        out = self.gen.standard_normal(shape)
        self.done.set()
        return out


@pytest.mark.parametrize("step", ["rbm", "direct"])
def test_a_step_whose_forces_raise_waits_for_its_draw(monkeypatch, step):
    class Failing(FirstOrderSystem):
        def batch_forces(self, state, division=None):
            raise RuntimeError("forces failed")

    N = 1 << 13
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    made = _count_worker_draws(monkeypatch)
    streams = SimStreams(3)
    streams.noise = _SlowNoise(streams.noise)
    with pytest.raises(RuntimeError, match="forces failed"):
        STEPS[step](_state1(N), Failing(kernel=ZERO, alpha_N=1.0, sigma=1.0), streams)
    assert made == [(N, 1)]
    assert streams.noise.done.is_set()  # no draw outlives its step
    fresh = SimStreams(3).noise
    fresh.standard_normal((N, 1))
    np.testing.assert_array_equal(streams.noise.gen.standard_normal((N, 1)),
                                  fresh.standard_normal((N, 1)))


class _ThreadNoise:
    """A noise generator that records the thread of each draw."""

    def __init__(self, gen):
        self.gen, self.threads = gen, []

    def standard_normal(self, shape):
        self.threads.append(threading.current_thread())
        return self.gen.standard_normal(shape)


def test_a_step_draws_in_line_what_the_busy_worker_has_not_started(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    state, system = _wealth(10_000)
    expected = _steps("rbm", state, system, 5, seed=8).positions
    busy = _SlowNoise(np.random.default_rng(0))
    with integrators._Draw(busy, (2,)):  # holds the worker for 0.2 s
        streams = SimStreams(8)
        streams.noise = _ThreadNoise(streams.noise)
        got = state
        for _ in range(5):
            got = rbm_step_first_order(got, system, 2, 1e-3, streams)
        assert not busy.done.is_set()
    assert streams.noise.threads == [threading.main_thread()] * 5
    np.testing.assert_array_equal(got.positions, expected)


def test_a_draw_that_raises_on_the_worker_raises_from_its_step(monkeypatch):
    class Broken:
        def standard_normal(self, shape):
            raise FloatingPointError("draw failed")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    state, system = _wealth(10_000)
    streams = SimStreams(0)
    streams.noise = Broken()
    with pytest.raises(FloatingPointError, match="draw failed"):
        rbm_step_first_order(state, system, 2, 1e-3, streams)


def test_importing_starts_no_thread_and_the_first_large_draw_starts_one():
    code = ("import os, sys, threading; sys.path.insert(0, sys.argv[1]); "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "import randbatch.cli, randbatch.runner; "
            "from randbatch import integrators, models; from randbatch.rng import SimStreams; "
            "from randbatch.state import ParticleState; counts = [threading.active_count()]; "
            "streams = SimStreams(0)\n"
            "for N in (1000, 10000, 10000):\n"
            "    model = models.WealthModel(N=N)\n"
            "    state = ParticleState(positions=model.initial(streams.init)[:, None])\n"
            "    integrators.rbm_step_first_order(state, model.system(), 2, 1e-3, streams)\n"
            "    counts.append(threading.active_count())\n"
            "print(*counts)")
    src = str(Path(randbatch.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert out == ["1", "1", "2", "2"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_on_a_worker_of_its_own(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    state, system = _wealth(10_000)
    expected = _steps("rbm", state, system, 2, seed=4).positions  # the worker runs by now
    pid = os.fork()
    if pid == 0:  # the child: its parent's worker thread did not come along
        status = 2
        try:
            status = int(not np.array_equal(_steps("rbm", state, system, 2, seed=4).positions,
                                            expected))
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the child's step waited on its parent's worker")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_rbmr_full_batch_is_single_inner_update():
    N = 6
    system = FirstOrderSystem(kernel=np.sin, alpha_N=1 / (N - 1), sigma=0.2)
    a = _state1(N, seed=8)
    b = _state1(N, seed=8)
    out_r = rbmr_step(a, system, N, 0.05, SimStreams(4))
    out_b = rbm_step_first_order(b, system, N, 0.05, SimStreams(4))
    np.testing.assert_array_equal(out_r.positions, out_b.positions)


def test_rbmr_updates_average_one_per_particle():
    gen = SimStreams(13).division
    N, p, outer = 12, 3, 10_000
    counts = np.zeros(N)
    from randbatch.batching import sample_batch_with_replacement

    for _ in range(outer):
        for _ in range(N // p):
            counts[sample_batch_with_replacement(N, p, gen)] += 1
    np.testing.assert_allclose(counts / outer, 1.0, atol=0.02)


def test_rbmr_zero_kernel_moves_only_selected():
    N = 9
    system = FirstOrderSystem(kernel=ZERO, alpha_N=1.0, drift=lambda x: -x)
    state = _state1(N, seed=10)
    out = rbmr_step(state, system, 3, 0.1, SimStreams(5))
    moved = ~np.isclose(out.positions, state.positions).all(axis=1)
    decayed = np.isclose(out.positions, 0.9 * state.positions).all(axis=1)
    # every moved particle took plain Euler steps; possibly several of them
    for i in range(N):
        if moved[i] and not decayed[i]:
            assert np.allclose(out.positions[i], 0.81 * state.positions[i]) or np.allclose(
                out.positions[i], 0.729 * state.positions[i]
            )


def test_split_step_with_zero_smooth_part_is_deterministic():
    spec = KernelSpec(
        force=RadialKernel(lambda r2: np.exp(-r2)),
        split_radius=1.5,
        short_part=RadialKernel(lambda r2: np.where(r2 < 1.5**2, np.exp(-r2), 0.0)),
        smooth_part=ZERO,
    )
    state = _state2(N=16, d=3, seed=11, box=6.0)
    system = SecondOrderSystem(kernel=spec, alpha_N=1.0)
    out1 = rbm_split_step(state, system, 4, 0.01, SimStreams(1))
    out2 = rbm_split_step(state, system, 4, 0.01, SimStreams(2))  # different division stream
    np.testing.assert_array_equal(out1.positions, out2.positions)
    np.testing.assert_array_equal(out1.velocities, out2.velocities)


def test_split_step_with_zero_short_part_matches_plain_rbm():
    smooth = lambda x: np.sin(x)
    spec = KernelSpec(force=smooth, split_radius=1.0, short_part=RadialKernel(np.zeros_like),
                      smooth_part=smooth)
    state = _state2(N=8, d=3, seed=12, box=7.0)
    system = SecondOrderSystem(kernel=spec, alpha_N=1 / 7, gamma=0.1, sigma=0.2)
    plain_system = SecondOrderSystem(kernel=smooth, alpha_N=1 / 7, gamma=0.1, sigma=0.2)
    a = rbm_split_step(state, system, 2, 0.01, SimStreams(21))
    b = rbm_step_first_order(state, plain_system, 2, 0.01, SimStreams(21))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)


def test_lj_split_reconstructs_total_force():
    spec = lj_kernel_spec(sigma=1.0, epsilon=1.0, r0=1.6)
    gen = SimStreams(14).init
    radii = gen.uniform(0.8, 3.0, size=100)
    dirs = gen.standard_normal((100, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = radii[:, None] * dirs
    total = spec.force(x)
    recomposed = spec.short_part(x) + spec.smooth_part(x)
    assert np.all(np.abs(recomposed - total) <= 1e-10 * (1 + np.abs(total)))
    far = x[radii >= 1.6]
    np.testing.assert_allclose(spec.short_part(far), 0.0, atol=1e-15)


def _lj_fluid(N, seed, beta=0.5):
    """LJ fluid at density 0.3 on a cubic lattice, with velocities at temperature 1/beta."""
    n_side = round(N ** (1 / 3))
    L = (N / 0.3) ** (1 / 3)
    coords = np.stack(np.meshgrid(*([np.arange(n_side)] * 3), indexing="ij"), -1).reshape(-1, 3)
    streams = SimStreams(seed)
    velocities = math.sqrt(1 / beta) * streams.init.standard_normal((N, 3))
    return ParticleState(positions=(coords + 0.5) * (L / n_side), box_length=L,
                         velocities=velocities), streams


def test_split_smooth_part_takes_the_minimum_image_of_mates_half_a_box_apart():
    # on the lj-split lattice start (10 sites per side) sites 5 and 0 of a row are
    # exactly L/2 apart; the minimum image keeps each mate's d_x = +-L/2 as it is,
    # so the two displacements, and the two smooth forces, are exact negatives
    state, _ = _lj_fluid(1000, seed=0)
    L, pos = state.box_length, state.positions
    assert (pos[500, 0] - pos[0, 0]) / L == 0.5 and np.all(pos[500, 1:] == pos[0, 1:])
    order = np.concatenate([[0, 500], np.delete(np.arange(1000), [0, 500])])
    spec = lj_kernel_spec()
    smooth = forces.division_forces(state, BatchDivision(order=order, batch_size=2),
                                    spec.smooth_part, 1.0)
    for i, j, sign in ((0, 500, -1.0), (500, 0, 1.0)):
        d = minimum_image(pos[i] - pos[j], L)
        assert d[0] == sign * L / 2
        expected = forces.batch_prefactor(1.0, 1000, 2) * spec.smooth_part(d[None, :])[0]
        np.testing.assert_allclose(smooth[i], expected, rtol=1e-14)
    assert smooth[0, 0] != 0.0
    assert np.array_equal(smooth[500], -smooth[0])


def test_split_batch_forces_conserve_momentum_at_the_lattice_start():
    # each batch of the random-batch force is a sum of pair terms of an odd kernel,
    # so the forces of any division sum to zero up to rounding; on the lj-split
    # lattice a quarter of the batches of two hold mates with a component L/2 apart
    state, _ = _lj_fluid(1000, seed=0)
    system = SecondOrderSystem(kernel=lj_kernel_spec(), alpha_N=1.0)
    L, pos = state.box_length, state.positions
    for seed in range(4):
        division = random_division(1000, 2, np.random.default_rng(seed))
        a, b = division.order[0::2], division.order[1::2]
        assert np.any(np.abs(pos[a] - pos[b]) == L / 2)  # ties the image must keep opposite
        total = system.batch_forces(state, division).sum(axis=0)
        assert np.all(np.abs(total) <= 1e-10), total


def test_split_step_short_force_matches_a_fresh_search_across_list_rebuilds(monkeypatch):
    seen = []
    short_range = integrators.short_range_force_all

    def recording(state, K1, r0, alpha_N, pairs=None):
        out = short_range(state, K1, r0, alpha_N, pairs)
        seen.append((state.positions.copy(), out))
        return out

    monkeypatch.setattr(integrators, "short_range_force_all", recording)
    state, streams = _lj_fluid(125, seed=3)
    spec = lj_kernel_spec()
    system = SecondOrderSystem(kernel=spec, alpha_N=1.0, gamma=1.0, sigma=2.0)  # beta = 0.5
    for _ in range(40):
        state = rbm_split_step(state, system, 2, 2e-3, streams)
    assert 2 <= system.pairs.builds < 40
    assert len(seen) == 40
    L = state.box_length
    for pos, out in seen:
        disp = minimum_image(pos[:, None] - pos[None], L)
        near = (np.einsum("ijk,ijk->ij", disp, disp) < 1.6**2) & ~np.eye(len(pos), dtype=bool)
        expected = np.zeros_like(pos)
        for i in range(len(pos)):
            expected[i] = spec.short_part(disp[i, near[i]]).sum(axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_split_step_evaluates_k1_once_per_pair_and_refuses_a_non_radial_k1():
    spec = lj_kernel_spec()
    calls = []

    def counting(r2):
        calls.append(r2.copy())
        return spec.short_part.coef(r2)

    state, streams = _lj_fluid(125, seed=6)
    kernel = KernelSpec(force=spec.force, split_radius=1.6, short_part=RadialKernel(counting),
                        smooth_part=spec.smooth_part)
    system = SecondOrderSystem(kernel=kernel, alpha_N=1.0, gamma=1.0, sigma=2.0)
    for _ in range(40):
        pos = state.positions
        state = rbm_split_step(state, system, 2, 2e-3, streams)
        disp = minimum_image(pos[:, None] - pos[None], state.box_length)
        r2 = np.einsum("ijk,ijk->ij", disp, disp)[np.triu_indices(len(pos), 1)]
        # one coefficient per kept pair i < j, on a list build or not
        np.testing.assert_allclose(np.sort(calls[-1]), np.sort(r2[r2 < 1.6**2]), rtol=1e-12)
    assert 2 <= system.pairs.builds < 40
    assert len(calls) == 40
    # the short part is summed once per pair, so it must be odd: a split is built
    # with a radial one only, and refused where it is built, not at its first step
    with pytest.raises(TypeError, match="RadialKernel"):
        KernelSpec(force=spec.force, split_radius=1.6, short_part=lambda x: spec.short_part(x),
                   smooth_part=spec.smooth_part)


def test_split_list_searches_only_on_builds_over_the_benchmark_episode(monkeypatch):
    calls = []
    search = forces._search_pairs
    monkeypatch.setattr(forces, "_search_pairs", lambda *a: calls.append(1) or search(*a))
    cfg = runner.validate(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                          / "lj-split.yaml")
    spec = runner.MODELS["lj-fluid"]
    sim = spec.build(cfg, SimStreams(cfg["seed"]))
    for k in range(1, cfg["run"]["steps"] + 1):
        sim.state = spec.steppers["rbm-split"](sim, k, cfg["run"]["dt"])
    assert cfg["run"]["steps"] == 60
    assert 1 <= sim.system.pairs.builds < cfg["run"]["steps"]
    assert len(calls) == sim.system.pairs.builds


def test_kernel_splitting_is_the_rbm_step_on_a_split_kernels_forces():
    assert rbm_split_step is rbm_step_first_order
    assert runner.MODELS["lj-fluid"].steppers["rbm-split"] is runner._STEPPERS["rbm"]
    state, _ = _lj_fluid(64, seed=5)
    spec = lj_kernel_spec()
    system = SecondOrderSystem(kernel=spec, alpha_N=0.5)
    division = integrators.random_division(64, 4, SimStreams(2).division)
    short = forces.short_range_force_all(state, spec.short_part, 1.6, 0.5, forces.PairList(1.6))
    smooth = forces.division_forces(state, division, spec.smooth_part, 0.5)
    np.testing.assert_array_equal(system.batch_forces(state, division), short + smooth)
    # without a division, and for a plain kernel, the kernel sum
    np.testing.assert_array_equal(system.batch_forces(state),
                                  forces.full_force_all(state, spec, 0.5))
    plain = SecondOrderSystem(kernel=spec.force, alpha_N=0.5)
    np.testing.assert_array_equal(plain.batch_forces(state, division),
                                  forces.division_forces(state, division, spec.force, 0.5))
    assert plain.pairs is None


def test_split_step_makes_a_new_pair_list_for_a_new_split_radius():
    state, _ = _lj_fluid(64, seed=4)
    system = SecondOrderSystem(kernel=lj_kernel_spec(r0=1.6), alpha_N=1.0)
    rbm_split_step(state, system, 2, 1e-3, SimStreams(1))
    first = system.pairs
    rbm_split_step(state, system, 2, 1e-3, SimStreams(1))
    assert system.pairs is first and first.cutoff == 1.6 and first.builds == 1
    assert "pairs" not in repr(system)
    assert system == SecondOrderSystem(kernel=system.kernel, alpha_N=1.0)
    system.kernel = lj_kernel_spec(r0=1.2)
    out = rbm_split_step(state, system, 2, 1e-3, SimStreams(1))
    assert system.pairs is not first and system.pairs.cutoff == 1.2
    fresh = SecondOrderSystem(kernel=system.kernel, alpha_N=1.0)
    np.testing.assert_array_equal(
        out.velocities, rbm_split_step(state, fresh, 2, 1e-3, SimStreams(1)).velocities)


def test_non_finite_state_raises():
    state = ParticleState(positions=np.array([[0.0], [0.0]]))  # overlapping pair

    def singular(x):
        with np.errstate(divide="ignore"):
            return 1.0 / x

    system = FirstOrderSystem(kernel=singular, alpha_N=1.0)
    with pytest.raises(IntegrationError):
        direct_step(state, system, 0.1, SimStreams(1))


def test_a_state_with_a_nan_position_is_refused():
    with pytest.raises(ValueError, match="finite"):
        ParticleState(positions=np.array([[0.0], [np.nan]]))


@pytest.mark.parametrize("order", [1, 2])
def test_a_step_checks_its_new_positions_once(monkeypatch, order):
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
    state = _state1(N=6, d=2)
    if order == 1:
        system = FirstOrderSystem(kernel=ZERO, alpha_N=1.0, drift=lambda x: -x, sigma=0.3)
    else:
        state = state.replace(velocities=np.ones((6, 2)))
        system = SecondOrderSystem(kernel=ZERO, alpha_N=1.0, drift=lambda x: -x)
    calls.clear()
    integrators._advance(state, system, np.zeros((6, 2)), 0.1, SimStreams(2).noise)
    assert calls == [(6, 2)]


def test_a_kick_drift_step_names_the_first_non_finite_particle():
    # a NaN velocity at particle 3 is found through its position, ahead of particle 4
    velocities = np.ones((6, 2))
    velocities[3, 1] = np.nan
    state = _state1(N=6, d=2).replace(velocities=velocities)
    force = np.zeros((6, 2))
    force[4, 0] = np.inf
    with pytest.raises(IntegrationError, match="at particle 3$"):
        kick_drift(state, force, 0.1)


def _lj_energy(state):
    """Kinetic plus Lennard-Jones energy (sigma = epsilon = 1) over minimum-image pairs."""
    x = state.positions
    disp = minimum_image(x[:, None] - x[None], state.box_length)
    r2 = np.einsum("ijk,ijk->ij", disp, disp)[np.triu_indices(len(x), 1)]
    s6 = r2**-3
    return 0.5 * np.sum(state.velocities**2) + 4.0 * np.sum(s6 * s6 - s6)


def test_nve_energy_error_stays_bounded_at_full_batch():
    # LJ fluid, N = 64 at density 0.3 and T = 2; moving x with the old v
    # (explicit Euler) blows the energy up by many orders of magnitude here
    N, dt = 64, 2e-3
    L = (N / 0.3) ** (1 / 3)
    coords = np.stack(np.meshgrid(*([np.arange(4)] * 3), indexing="ij"), -1).reshape(-1, 3)
    streams = SimStreams(0)
    state = ParticleState(positions=(coords + 0.5) * (L / 4), box_length=L,
                          velocities=math.sqrt(2.0) * streams.init.standard_normal((N, 3)))
    system = SecondOrderSystem(kernel=lj_kernel_spec(), alpha_N=1.0)
    e0 = _lj_energy(state)
    worst = 0.0
    for k in range(2000):
        state = rbm_split_step(state, system, N, dt, streams)
        if k % 10 == 9:
            worst = max(worst, abs(_lj_energy(state) - e0) / abs(e0))
    assert worst < 0.05


def test_langevin_velocity_variance_on_stiff_oscillators():
    # independent oscillators with omega dt = 0.1: <v^2> beta -> 1 up to an
    # O(dt) splitting bias; explicit Euler heats them about twentyfold
    N, k_spring, dt = 4000, 100.0, 0.01
    streams = SimStreams(0)
    system = SecondOrderSystem(kernel=ZERO, alpha_N=1.0, drift=lambda x: -k_spring * x,
                               gamma=1.0, sigma=math.sqrt(2.0))  # beta = 1
    state = ParticleState(positions=streams.init.standard_normal((N, 1)) / 10,
                          velocities=streams.init.standard_normal((N, 1)))
    v2 = []
    for k in range(3000):
        state = rbm_step_first_order(state, system, 2, dt, streams)
        if k >= 500:
            v2.append(np.mean(state.velocities**2))
    assert abs(np.mean(v2) - 1.0) < 0.03


def test_kick_drift_moves_positions_with_the_new_velocity():
    state = _state2(N=5, d=2, seed=15, box=3.0)
    force = SimStreams(16).init.standard_normal((5, 2))
    out = kick_drift(state, force, 0.1, friction=0.3)
    v = state.velocities + 0.1 * (force - 0.3 * state.velocities)
    np.testing.assert_array_equal(out.velocities, v)
    np.testing.assert_array_equal(out.positions, np.mod(state.positions + 0.1 * v, 3.0))


def test_rbmr_second_order_full_batch_matches_direct():
    # with one inner batch of all N, rbm-r is the direct step
    N = 6
    system = SecondOrderSystem(kernel=np.sin, alpha_N=1 / (N - 1), gamma=0.2, sigma=0.3)
    a = rbmr_step(_state2(N, seed=17), system, N, 0.05, SimStreams(18))
    b = direct_step(_state2(N, seed=17), system, 0.05, SimStreams(18))
    np.testing.assert_allclose(a.positions, b.positions, rtol=1e-14)
    np.testing.assert_allclose(a.velocities, b.velocities, rtol=1e-14)


def _rbmr_copy_per_batch(state, system, p, dt, streams):
    """The RBM-r step as a loop that copies the whole state after each inner batch."""
    from randbatch.batching import sample_batch_with_replacement
    from randbatch.forces import batch_prefactor, full_force_all

    N = state.n_particles
    current = state
    for _ in range(-(-N // p)):
        batch = sample_batch_with_replacement(N, p, streams.division)
        sub = ParticleState(
            positions=current.positions[batch],
            velocities=None if current.velocities is None else current.velocities[batch],
            box_length=current.box_length)
        force = full_force_all(sub, system.kernel, batch_prefactor(system.alpha_N, N, batch.size))
        advanced = integrators._advance(sub, system, force, dt, streams.noise)
        positions = current.positions.copy()
        positions[batch] = advanced.positions
        velocities = current.velocities
        if velocities is not None:
            velocities = velocities.copy()
            velocities[batch] = advanced.velocities
        current = current.replace(positions=positions, velocities=velocities)
    return current


@pytest.mark.parametrize("order, N, p", [(1, 10, 2), (1, 33, 3), (1, 64, 64), (2, 50, 4)])
def test_rbmr_advances_its_batches_on_one_copy_as_the_copy_per_batch_loop_does(order, N, p):
    # p < N: the batches of one step overlap, so particles picked twice move twice
    if order == 1:
        system = FirstOrderSystem(kernel=np.sin, alpha_N=1 / (N - 1), drift=lambda x: -x,
                                  sigma=0.5)
        state = _state1(N, seed=N)
    else:
        system = SecondOrderSystem(kernel=np.sin, alpha_N=1 / (N - 1), gamma=0.5, sigma=0.4)
        state = _state2(N, d=2, seed=N, box=4.0)
    got, expected = state, state
    s_got, s_expected = SimStreams(p), SimStreams(p)
    for _ in range(5):
        got = rbmr_step(got, system, p, 0.05, s_got)
        expected = _rbmr_copy_per_batch(expected, system, p, 0.05, s_expected)
    np.testing.assert_array_equal(got.positions, expected.positions)
    if order == 2:
        np.testing.assert_array_equal(got.velocities, expected.velocities)


def test_multiplicative_noise_uses_state_scale():
    state = ParticleState(positions=np.full((4, 1), 2.0))
    system = FirstOrderSystem(kernel=ZERO, alpha_N=1.0, sigma=1.0, noise_scale=lambda x: x)
    reference = FirstOrderSystem(kernel=ZERO, alpha_N=1.0, sigma=2.0)
    a = direct_step(state, system, 0.04, SimStreams(33))
    b = direct_step(state, reference, 0.04, SimStreams(33))
    np.testing.assert_allclose(a.positions, b.positions, atol=1e-15)
