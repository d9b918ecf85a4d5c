"""Time steppers: the full-batch reference, RBM and RBM with replacement.

First-order systems (toy, wealth, consensus, and the noiseless Stein flow of
SVGD, ``samplers.stein_system``) take Euler-Maruyama steps.  Every
second-order one (Cucker-Smale, the split LJ fluid, ``ewald.CoulombSystem``)
takes the symplectic Euler step ``kick_drift``: x moves with the *new* v
(with the old v an oscillator's energy would grow by 1 + (omega dt)^2 per
step).  A non-finite result raises ``IntegrationError`` naming its first
such particle.  The force comes from the system's ``batch_forces``: a kernel
sum, which the Cucker-Smale, consensus, Stein and Coulomb systems replace.
Kernel-splitting RBM is the RBM step on a ``SecondOrderSystem`` whose kernel
is a ``state.KernelSpec``, which is always split: its ``batch_forces`` sums
the short part K1 exactly and the smooth part K2 over the random batches
(Jin, Li & Liu, JCP 2020), and ``rbm_split_step`` is another name for
``rbm_step_first_order``.

Every stepper is a pure function of (state, rng streams) and returns a new
state.  ``direct_step`` and ``rbm_step_first_order`` are one step,
``_step``, with and without a random division, so they share the update
expression and the per-step noise draw: a random-batch step with p = N
reproduces the direct step bit for bit under identical streams, and that
coupling also underlies the strong-error measurements.

At p = 2 a large first-order step spends a large share of its time filling
the Brownian increments.  ``direct_step`` and ``rbm_step_first_order``
therefore hand an Euler-Maruyama draw of at least ``_CONCURRENT_DRAW``
values to one worker thread, when the process may run on more than one CPU,
and divide and sum the forces while numpy fills it without the interpreter
lock; ``_advance`` takes the finished array.  The draw comes from the same
``noise`` generator, which nothing else in the step reads, so its bits do not
change.  Smaller draws are drawn in line: a round trip to the thread costs
about as much as drawing 10^3 normals, and a step at N = 10^3 gained nothing
from it.  Second-order steps draw their noise in line too.  The worker is
made on the first large draw, dropped in a forked child, and runs nothing but
the generator.  A step that needs its draw before the worker has started it
makes the draw itself, and each step waits for its draw before it returns or
raises.

A ``SecondOrderSystem`` carries the Verlet list (``forces.PairList``) of a
split kernel's exact short-range sum from step to step.  The list
changes only how the pairs within the split radius are found: it hands them
on in the anti-diagonal order of a fresh search (by i + j, then i), so they
are summed in the same order whenever the list was built.
"""

import math
import os
import queue
import threading
from contextlib import nullcontext
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
    ``pairs`` is the short-range pair list that ``batch_forces`` creates at a
    split kernel's radius, on first use or for a new radius, and reuses.
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

    def batch_forces(self, state: ParticleState, division=None) -> np.ndarray:
        """The kernel sum; for a ``KernelSpec``, the exact short-range sum over
        ``pairs`` plus the smooth part's sum over the division (None: over all N)."""
        kernel = self.kernel
        if not isinstance(kernel, KernelSpec):
            return super().batch_forces(state, division)
        if self.pairs is None or self.pairs.cutoff != kernel.split_radius:
            self.pairs = PairList(kernel.split_radius)
        short = short_range_force_all(state, kernel.short_part, kernel.split_radius, self.alpha_N,
                                      self.pairs)
        return short + division_forces(state, division, kernel.smooth_part, self.alpha_N)


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
        bad = ~np.isfinite(fields["positions"]).all(axis=1)
        if bad.any():
            raise IntegrationError(f"non-finite state after {label} at particle "
                                   f"{int(np.argmax(bad))}")
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
    return _stepped(state, "second-order step", positions=new_x, velocities=new_v)


# the smallest Euler-Maruyama draw that goes to the worker thread
_CONCURRENT_DRAW = 1 << 13
_jobs = None  # the worker thread's queue of _Draw jobs, made on first use


def _drop_worker():
    global _jobs
    _jobs = None


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_drop_worker)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill(claim, rng, shape, box):
    """Put ``rng.standard_normal(shape)``, or what it raised, into ``box``, unless
    the other thread has taken ``claim`` first."""
    if claim.acquire(blocking=False):
        try:
            box.put(rng.standard_normal(shape))
        except BaseException as exc:  # handed to the step, which raises it
            box.put(exc)


def _serve_draws(jobs):
    while True:
        _fill(*jobs.get())


class _Draw:
    """``rng.standard_normal(shape)`` queued for the worker thread.

    A step that needs the draw before the worker has started it makes it in
    line, so a worker that wakes late costs the step little more than the
    in-line draw would.  Leaving a ``with`` block on it waits for the draw, so
    none outlives its step.
    """

    def __init__(self, rng, shape):
        global _jobs
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve_draws, args=(_jobs,), name="randbatch-noise",
                             daemon=True).start()
        self._job = (threading.Lock(), rng, shape, queue.SimpleQueue())
        _jobs.put(self._job)

    def _wait(self):
        if self._job is not None:
            _fill(*self._job)
            self._value, self._job = self._job[3].get(), None

    def result(self) -> np.ndarray:
        """The drawn array."""
        self._wait()
        if isinstance(self._value, BaseException):
            raise self._value
        return self._value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._wait()


def _noise_alongside(system, shape, noise_rng):
    """A ``_Draw`` of the Euler-Maruyama step's ``noise_rng.standard_normal(shape)``,
    or a context yielding None when the step draws it in line.

    The worker takes a noisy ``FirstOrderSystem``'s draw of at least
    ``_CONCURRENT_DRAW`` values, when the process may use more than one CPU.
    """
    if (isinstance(system, FirstOrderSystem) and system.sigma
            and math.prod(shape) >= _CONCURRENT_DRAW and _cpus() > 1):
        return _Draw(noise_rng, shape)
    return nullcontext()


def _advance(state, system, force, dt, noise_rng, drawn=None) -> ParticleState:
    """Euler-Maruyama or ``kick_drift`` under ``force`` plus the system's drift.

    ``drawn``, when given, is the ``_Draw`` of the Euler-Maruyama step's
    N(0, I) increments from ``noise_rng``.
    """
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
        xi = noise_rng.standard_normal(x.shape) if drawn is None else drawn.result()
        xi *= math.sqrt(dt)
        xi *= scale
        new += xi
    return _stepped(state, "first-order step", positions=new)


def _step(state: ParticleState, system, p, dt: float, streams: SimStreams) -> ParticleState:
    """A random division into batches of p (None: one batch of all N), then ``_advance``
    under the system's batch forces: an Euler-Maruyama step for a ``FirstOrderSystem``,
    the ``kick_drift`` velocity kick for a ``SecondOrderSystem``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    with _noise_alongside(system, state.positions.shape, streams.noise) as drawn:
        division = None if p is None else random_division(state.n_particles, p, streams.division)
        return _advance(state, system, system.batch_forces(state, division), dt, streams.noise,
                        drawn)


def direct_step(state: ParticleState, system, dt: float, streams: SimStreams) -> ParticleState:
    """Full-batch step with exact O(N^2) forces."""
    return _step(state, system, None, dt, streams)


def rbm_step_first_order(state: ParticleState, system, p: int, dt: float,
                         streams: SimStreams) -> ParticleState:
    """One random division into batches of p, then the step under their forces."""
    return _step(state, system, p, dt, streams)


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
                            box_length=state.box_length)
        force = full_force_all(sub, system.kernel, batch_prefactor(system.alpha_N, N, batch.size))
        advanced = _advance(sub, system, force, dt, streams.noise)
        x[batch] = advanced.positions
        if v is not None:
            v[batch] = advanced.velocities
    return state.replace(positions=x, velocities=v)


rbm_split_step = rbm_step_first_order  # on a split kernel: SecondOrderSystem.batch_forces
