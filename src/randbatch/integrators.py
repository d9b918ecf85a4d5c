"""Time steppers: full-batch reference, RBM variants, splitting.

First-order systems (toy, wealth, consensus, and the noiseless Stein flow of
SVGD, ``samplers.stein_system``) take Euler-Maruyama steps.  Every
second-order one (Cucker-Smale, the split LJ fluid, ``ewald.CoulombSystem``)
takes the symplectic Euler step ``kick_drift``: x moves with the *new* v
(with the old v an oscillator's energy would grow by 1 + (omega dt)^2 per
step).  A non-finite result raises ``IntegrationError`` naming its first
such particle.  The force comes from the system's ``batch_forces``: a kernel
sum, which the Cucker-Smale, consensus, Stein and Coulomb systems replace.

Every stepper is a pure function of (state, rng streams) and returns a new
state.  The full-batch ``direct_step`` and the random-batch steppers share the
same update expression and the same per-step noise draw, so a random-batch
step with p = N reproduces the direct step bit for bit under identical
streams; that coupling also underlies the strong-error measurements.

A ``SecondOrderSystem`` carries the Verlet list (``forces.PairList``) of the
kernel-splitting step's exact short-range sum from step to step.  The list
changes only how the pairs within the split radius are found: it hands them
on in the anti-diagonal order of a fresh search (by i + j, then i), so they
are summed in the same order whenever the list was built.
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


class _KernelForces:
    def batch_forces(self, state: ParticleState, division=None) -> np.ndarray:
        """alpha_N times the kernel sum over each particle's batch (None: all N)."""
        if division is None:
            return full_force_all(state, self.kernel, self.alpha_N)
        return division_forces(state, division, self.kernel, self.alpha_N)


@dataclass
class FirstOrderSystem(_KernelForces):
    """dx = [b(x) + alpha_N sum K] dt + sigma g(x) dW; g is ``noise_scale``, 1 when unset."""

    kernel: object
    alpha_N: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sigma: float = 0.0
    noise_scale: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass
class SecondOrderSystem(_KernelForces):
    """dr = v dt, dv = [b + alpha_N sum K - gamma v] dt + sigma dW, with unit masses.

    sigma = sqrt(2 gamma / beta) makes the Gibbs measure at inverse
    temperature beta invariant; ``thermostats.Langevin`` builds that pair.
    Without noise gamma may be negative, as the Nose-Hoover xi of a cold system is.
    ``pairs`` is the short-range pair list that ``rbm_split_step`` creates at
    the kernel's split radius and reuses on later steps.
    """

    kernel: object
    alpha_N: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gamma: float = 0.0
    sigma: float = 0.0
    pairs: Optional[PairList] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma < 0 or (self.sigma > 0 and self.gamma < 0):
            raise ValueError("sigma must be nonnegative, and gamma too when sigma > 0")


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


def _stepped(state: ParticleState, label: str, **fields) -> ParticleState:
    """``state.replace(**fields)``, with a non-finite position raised as IntegrationError
    naming the first bad particle.

    ``ParticleState``'s own check is the step's one pass over the new
    positions.  A non-finite velocity makes its particle's position x + dt v
    non-finite too, so that check catches it as well.
    """
    try:
        return state.replace(**fields)
    except ValueError:
        _check_finite(fields["positions"], fields.get("velocities"), label)
        raise


def kick_drift(state: ParticleState, force: np.ndarray, dt: float, friction: float = 0.0,
               sigma: float = 0.0, noise_rng=None) -> ParticleState:
    """new_v = v + dt (F - c v) + sigma sqrt(dt) xi, then new_x = x + dt new_v (unit masses).

    ``friction`` c is a Langevin gamma or the Nose-Hoover xi; xi ~ N(0, I)
    comes from ``noise_rng`` when sigma > 0.
    """
    v = state.velocities
    if v is None:
        raise ValueError("second-order step needs velocities")
    # in place: the products and sums of v + dt (F - c v) + (sigma sqrt(dt)) xi and
    # x + dt new_v in that order, so the same bits
    if friction:
        new_v = np.multiply(friction, v)
        np.subtract(force, new_v, out=new_v)
        new_v *= dt
    else:
        new_v = np.multiply(force, dt)
    new_v += v
    if sigma > 0.0:
        xi = noise_rng.standard_normal(v.shape)
        xi *= sigma * math.sqrt(dt)
        new_v += xi
    new_x = np.multiply(new_v, dt)
    new_x += state.positions
    return _stepped(state, "second-order step", positions=new_x, velocities=new_v,
                    time=state.time + dt)


def _advance(state, system, force, dt, noise_rng) -> ParticleState:
    """Euler-Maruyama or ``kick_drift`` under ``force`` plus the system's drift."""
    x = state.positions
    if system.drift is not None:
        force = system.drift(x) + force
    if not isinstance(system, FirstOrderSystem):
        return kick_drift(state, force, dt, system.gamma, system.sigma, noise_rng)
    # in place: the products and sums of x + dt F + scale (sqrt(dt) xi), so the same bits
    new = dt * force
    new += x
    if system.sigma:
        scale = system.sigma if system.noise_scale is None else system.sigma * system.noise_scale(x)
        xi = noise_rng.standard_normal(x.shape)
        xi *= math.sqrt(dt)
        xi *= scale
        new += xi
    return _stepped(state, "first-order step", positions=new, time=state.time + dt)


def direct_step(state: ParticleState, system, dt: float, streams: SimStreams) -> ParticleState:
    """Full-batch step with exact O(N^2) forces."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _advance(state, system, system.batch_forces(state), dt, streams.noise)


def rbm_step_first_order(state: ParticleState, system, p: int, dt: float,
                         streams: SimStreams) -> ParticleState:
    """One random division, then ``_advance`` with the batch forces.

    ``_advance`` serves both orders: an Euler-Maruyama step for a
    ``FirstOrderSystem``, the ``kick_drift`` velocity kick for a
    ``SecondOrderSystem``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    division = random_division(state.n_particles, p, streams.division)
    return _advance(state, system, system.batch_forces(state, division), dt, streams.noise)


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
    x = state.positions.copy()
    v = None if state.velocities is None else state.velocities.copy()
    for _ in range(n_inner):
        batch = sample_batch_with_replacement(N, p, streams.division)
        sub = ParticleState(positions=x[batch], velocities=None if v is None else v[batch],
                            box_length=state.box_length, time=state.time)
        force = full_force_all(sub, system.kernel, batch_prefactor(system.alpha_N, N, batch.size))
        advanced = _advance(sub, system, force, dt, streams.noise)
        x[batch] = advanced.positions
        if v is not None:
            v[batch] = advanced.velocities
    return state.replace(positions=x, velocities=v, time=state.time + dt)


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
