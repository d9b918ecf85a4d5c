"""Time steppers: full-batch reference, RBM variants, splitting.

First-order systems take Euler-Maruyama steps.  Every second-order path, RBE
and Nose-Hoover included, takes the symplectic Euler step ``kick_drift``: x
moves with the *new* v (with the old v an oscillator's energy would grow by
1 + (omega dt)^2 per step).

Every stepper is a pure function of (state, rng streams) and returns a new
state.  The full-batch ``direct_step`` and the random-batch steppers share the
same update expression and the same per-step noise draw, so a random-batch
step with p = N reproduces the direct step bit for bit under identical
streams; that coupling also underlies the strong-error measurements.

A ``SecondOrderSystem`` carries the Verlet list (``forces.PairList``) of the
kernel-splitting step's exact short-range sum from step to step.  The list
changes only how the pairs within the split radius are found and the order
in which they are summed, not which pairs are summed.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .forces import (
    PairList,
    batch_prefactor,
    division_forces,
    full_force_all,
    short_range_force_all,
)
from .batching import random_division, sample_batch_with_replacement
from .rng import SimStreams
from .state import KernelSpec, ParticleState


class IntegrationError(RuntimeError):
    """Raised when a step produces non-finite coordinates; names the particle."""


@dataclass
class FirstOrderSystem:
    """dx = [b(x) + alpha_N sum K] dt + noise."""

    kernel: object
    alpha_N: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sigma: float = 0.0
    noise_mode: str = "additive"  # "additive" | "multiplicative"
    noise_scale: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.noise_mode not in ("additive", "multiplicative"):
            raise ValueError("noise_mode must be additive or multiplicative")
        if self.noise_mode == "multiplicative" and self.noise_scale is None:
            raise ValueError("multiplicative noise needs a noise_scale function")


@dataclass
class SecondOrderSystem:
    """dr = v dt, dv = [(b + alpha_N sum K)/m - gamma v] dt + (sigma/sqrt(m)) dW.

    sigma = sqrt(2 gamma / beta) makes the Gibbs measure at inverse
    temperature beta invariant; ``thermostats.Langevin`` builds that pair.
    ``pairs`` is the short-range pair list that ``rbm_split_step`` creates at
    the kernel's split radius and reuses on later steps.
    """

    kernel: object
    alpha_N: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gamma: float = 0.0
    sigma: float = 0.0
    masses: Optional[np.ndarray] = None
    pairs: Optional[PairList] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma < 0 or self.sigma < 0:
            raise ValueError("gamma and sigma must be nonnegative")
        if self.masses is not None:
            self.masses = np.asarray(self.masses, dtype=np.float64)
            if np.any(self.masses <= 0):
                raise ValueError("masses must be positive")


@dataclass
class StepSchedule:
    """Step sizes: constant dt, c/log(k+1) decay, or 1/(k+k0)."""

    kind: str = "constant"
    dt: float = 1e-3
    c: float = 1e-3
    k0: float = 1.0

    def __call__(self, k: int) -> float:
        """Step size for 1-based step index k."""
        if self.kind == "constant":
            return self.dt
        if self.kind == "log_decay":
            return self.c / math.log(k + 1)
        if self.kind == "inverse":
            return 1.0 / (k + self.k0)
        raise ValueError(f"unknown schedule kind {self.kind!r}")


def _check_finite(positions: np.ndarray, velocities: Optional[np.ndarray], label: str):
    """Raise IntegrationError naming the first particle with a non-finite coordinate."""
    if np.all(np.isfinite(positions)) and (velocities is None or np.all(np.isfinite(velocities))):
        return
    bad = ~np.isfinite(positions).all(axis=1)
    if velocities is not None:
        bad |= ~np.isfinite(velocities).all(axis=1)
    raise IntegrationError(f"non-finite state after {label} at particle {int(np.argmax(bad))}")


def _noise_increment(system: FirstOrderSystem, x: np.ndarray, dt: float, noise_rng) -> np.ndarray:
    if system.sigma == 0.0:
        return np.zeros_like(x)
    dW = math.sqrt(dt) * noise_rng.standard_normal(x.shape)
    if system.noise_mode == "multiplicative":
        return system.sigma * system.noise_scale(x) * dW
    return system.sigma * dW


def kick_drift(state: ParticleState, force: np.ndarray, dt: float, friction: float = 0.0,
               sigma: float = 0.0, noise_rng=None, masses=None) -> ParticleState:
    """new_v = v + dt (F/m - c v) + sigma sqrt(dt/m) xi, then new_x = x + dt new_v.

    ``friction`` c is a Langevin gamma or the Nose-Hoover xi; xi ~ N(0, I)
    comes from ``noise_rng`` when sigma > 0; ``masses`` (N,) default to 1.
    """
    v = state.velocities
    if v is None:
        raise ValueError("second-order step needs velocities")
    accel = force if masses is None else force / masses[:, None]
    if friction:
        accel = accel - friction * v
    new_v = v + dt * accel
    if sigma > 0.0:
        scale = sigma * math.sqrt(dt) if masses is None else sigma * np.sqrt(dt / masses)[:, None]
        new_v = new_v + scale * noise_rng.standard_normal(v.shape)
    new_x = state.positions + dt * new_v
    _check_finite(new_x, new_v, "second-order step")
    return state.replace(positions=new_x, velocities=new_v, time=state.time + dt)


def _advance(state, system, force, dt, noise_rng, batch=None) -> ParticleState:
    """Euler-Maruyama or ``kick_drift`` under ``force`` plus the system's drift.

    ``batch`` picks the masses of a sub-state that holds only those particles."""
    x = state.positions
    if system.drift is not None:
        force = system.drift(x) + force
    if not isinstance(system, FirstOrderSystem):
        m = system.masses
        return kick_drift(state, force, dt, system.gamma, system.sigma, noise_rng,
                          m if m is None or batch is None else m[batch])
    new = x + dt * force + _noise_increment(system, x, dt, noise_rng)
    _check_finite(new, None, "first-order step")
    return state.replace(positions=new, time=state.time + dt)


def direct_step(state: ParticleState, system, dt: float, streams: SimStreams) -> ParticleState:
    """Full-batch step with exact O(N^2) forces."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    force = full_force_all(state, system.kernel, system.alpha_N)
    return _advance(state, system, force, dt, streams.noise)


def rbm_step_first_order(
    state: ParticleState, system: FirstOrderSystem, p: int, dt: float, streams: SimStreams
) -> ParticleState:
    """One random division, then an Euler-Maruyama substep with batch forces."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    division = random_division(state.n_particles, p, streams.division)
    force = division_forces(state, division, system.kernel, system.alpha_N)
    return _advance(state, system, force, dt, streams.noise)


def rbm_step_second_order(
    state: ParticleState, system: SecondOrderSystem, p: int, dt: float, streams: SimStreams
) -> ParticleState:
    """Second-order RBM step: batch force in the velocity kick."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    division = random_division(state.n_particles, p, streams.division)
    force = division_forces(state, division, system.kernel, system.alpha_N)
    return _advance(state, system, force, dt, streams.noise)


def rbmr_step(state: ParticleState, system, p: int, dt: float, streams: SimStreams) -> ParticleState:
    """Random batches with replacement: ceil(N/p) sequential inner updates.

    Each inner update draws a fresh p-subset and advances only those particles
    by dt, writing the result back before the next draw; a particle picked
    twice in one outer step therefore moves twice.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    N = state.n_particles
    n_inner = -(-N // p)
    current = state
    for _ in range(n_inner):
        batch = sample_batch_with_replacement(N, p, streams.division)
        sub = ParticleState(
            positions=current.positions[batch],
            velocities=None if current.velocities is None else current.velocities[batch],
            box_length=current.box_length,
            time=current.time,
        )
        pref = batch_prefactor(system.alpha_N, N, batch.size)
        force = full_force_all(sub, system.kernel, pref)
        advanced = _advance(sub, system, force, dt, streams.noise, batch)
        positions = current.positions.copy()
        positions[batch] = advanced.positions
        velocities = current.velocities
        if velocities is not None:
            velocities = velocities.copy()
            velocities[batch] = advanced.velocities
        current = current.replace(positions=positions, velocities=velocities)
    return current.replace(time=state.time + dt)


def rbm_split_step(
    state: ParticleState, system: SecondOrderSystem, p: int, dt: float, streams: SimStreams
) -> ParticleState:
    """Kernel-splitting RBM: exact short-range sum plus random-batch smooth part.

    The short-range pairs come from ``system.pairs``, which is created here
    when the system has no list yet or one for another split radius.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    kernel = system.kernel
    if not isinstance(kernel, KernelSpec) or not kernel.has_split:
        raise ValueError("rbm_split_step needs a kernel with a declared split")
    if state.box_length is None:
        raise ValueError("rbm_split_step needs a periodic box")
    if system.pairs is None or system.pairs.cutoff != kernel.split_radius:
        system.pairs = PairList(kernel.split_radius)
    short = short_range_force_all(state, kernel.short_part, kernel.split_radius, system.alpha_N,
                                  system.pairs)
    division = random_division(state.n_particles, p, streams.division)
    smooth = division_forces(state, division, kernel.smooth_part, system.alpha_N)
    return _advance(state, system, short + smooth, dt, streams.noise)
