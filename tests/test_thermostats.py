"""Thermostat behavior: collision statistics, invariant measures, Nose-Hoover."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from randbatch.integrators import SecondOrderSystem, direct_step
from randbatch.rng import SimStreams
from randbatch.runner import _couple
from randbatch.state import ParticleState
from randbatch.thermostats import Andersen, Langevin, NoseHoover, apply_andersen


def test_andersen_zero_frequency_is_identity():
    state = ParticleState(positions=np.zeros((10, 3)), velocities=np.ones((10, 3)))
    out = apply_andersen(state, 0.0, 1.0, 0.1, SimStreams(1).thermostat)
    np.testing.assert_array_equal(out.velocities, state.velocities)


def test_andersen_infinite_rate_redraws_everything():
    gen = SimStreams(2).thermostat
    state = ParticleState(positions=np.zeros((50_000, 3)), velocities=np.zeros((50_000, 3)))
    out = apply_andersen(state, 1e9, 2.0, 1.0, gen)
    assert np.all(out.velocities != 0.0)
    assert abs(out.velocities.var() - 2.0) < 0.05


def test_andersen_collision_fraction():
    # nu dt = 0.1 -> collision probability 1 - e^{-0.1} = 0.09516
    gen = SimStreams(3).thermostat
    state = ParticleState(positions=np.zeros((100_000, 1)),
                          velocities=np.full((100_000, 1), 123.0))
    out = apply_andersen(state, 10.0, 2.0, 0.01, gen)
    fraction = float(np.mean(out.velocities != 123.0))
    assert abs(fraction - (1 - math.exp(-0.1))) < 0.003


def test_andersen_invariant_measure_harmonic_trap():
    # ensemble of independent 1-d oscillators; <v^2> must equal T
    T, dt, nu = 1.7, 0.02, 1.0
    streams = SimStreams(4)
    M = 2000
    x = streams.init.standard_normal((M, 1))
    v = np.zeros((M, 1))
    vsq = []
    for k in range(1500):
        v = v - dt * x
        x = x + dt * v
        hit = streams.thermostat.random((M, 1)) < (1 - math.exp(-nu * dt))
        fresh = math.sqrt(T) * streams.thermostat.standard_normal((M, 1))
        v = np.where(hit, fresh, v)
        if k > 500:
            vsq.append(float(np.mean(v**2)))
    assert abs(np.mean(vsq) - T) / T < 0.03


def test_langevin_fluctuation_dissipation_positional_variance():
    # harmonic trap, sigma = sqrt(2 gamma / beta): Var(x) -> 1/beta
    beta, gamma = 2.0, 1.0
    system = SecondOrderSystem(
        kernel=lambda x: np.zeros_like(x), alpha_N=1.0, drift=lambda x: -x,
        gamma=gamma, sigma=Langevin(gamma, beta).sigma,
    )
    streams = SimStreams(5)
    M, dt = 64, 0.01
    state = ParticleState(positions=streams.init.standard_normal((M, 1)) / math.sqrt(beta),
                          velocities=np.zeros((M, 1)))
    xsq = []
    for k in range(25_000):
        state = direct_step(state, system, dt, streams)
        if k > 5000:
            xsq.append(float(np.mean(state.positions**2)))
    assert abs(np.mean(xsq) - 1 / beta) * beta < 0.03


def _nose_hoover_step(state, xi, Q, beta, dt, forces):
    """One step under the runner's Nose-Hoover coupling and a constant force: (state, new xi)."""
    thermostat = NoseHoover(Q=Q, beta=beta, xi=xi)
    gamma, sigma, hooks = _couple(thermostat, state)
    system = SecondOrderSystem(kernel=lambda x: np.zeros_like(x), alpha_N=1.0,
                               drift=lambda x: forces, gamma=gamma, sigma=sigma)
    sim = SimpleNamespace(state=state, system=system)
    sim.state = direct_step(state, system, dt, SimStreams(0))
    for hook in hooks:
        hook(sim, 1, dt)
    assert system.gamma == thermostat.xi  # the next step's friction
    return sim.state, thermostat.xi


def test_nose_hoover_fixed_point_and_sign():
    N, d, beta, Q = 4, 3, 2.0, 1.5
    target = d * N / beta
    v = np.full((N, d), math.sqrt(target / (N * d)))
    state = ParticleState(positions=np.zeros((N, d)), velocities=v)
    forces = np.zeros((N, d))
    _, xi = _nose_hoover_step(state, 0.3, Q, beta, 0.01, forces)
    assert xi == pytest.approx(0.3)  # kinetic sum exactly at target: xi frozen

    hot = ParticleState(positions=np.zeros((N, d)), velocities=2 * v)
    _, xi_hot = _nose_hoover_step(hot, 0.3, Q, beta, 0.01, forces)
    assert xi_hot > 0.3
    cold = ParticleState(positions=np.zeros((N, d)), velocities=0.5 * v)
    _, xi_cold = _nose_hoover_step(cold, 0.3, Q, beta, 0.01, forces)
    assert xi_cold < 0.3


def test_nose_hoover_deterministic():
    state = ParticleState(positions=np.ones((3, 3)), velocities=np.full((3, 3), 0.7))
    forces = np.full((3, 3), -0.2)
    a = _nose_hoover_step(state, 0.1, 1.0, 1.0, 0.05, forces)
    b = _nose_hoover_step(state, 0.1, 1.0, 1.0, 0.05, forces)
    np.testing.assert_array_equal(a[0].positions, b[0].positions)
    np.testing.assert_array_equal(a[0].velocities, b[0].velocities)
    assert a[1] == b[1]


def test_friction_may_be_negative_only_without_noise():
    SecondOrderSystem(kernel=None, alpha_N=1.0, gamma=-0.5)  # a cold Nose-Hoover xi
    for gamma, sigma in ((-0.5, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            SecondOrderSystem(kernel=None, alpha_N=1.0, gamma=gamma, sigma=sigma)


def test_thermostat_parameter_validation():
    with pytest.raises(ValueError):
        Andersen(nu=-1.0, temperature=1.0)
    with pytest.raises(ValueError):
        Langevin(gamma=0.0, beta=1.0)
    with pytest.raises(ValueError):
        NoseHoover(Q=0.0, beta=1.0)
    assert Langevin(gamma=2.0, beta=0.5).sigma == pytest.approx(math.sqrt(8.0))
