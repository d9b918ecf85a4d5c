"""Heat-bath couplings: Andersen collisions, Langevin friction, Nose-Hoover.

Each couples to the one step ``integrators.kick_drift``: Langevin is its
friction/noise pair (gamma, sigma = sqrt(2 gamma / beta)), Nose-Hoover's xi
is its friction, and Andersen collisions follow it.
"""

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .integrators import kick_drift
from .state import ParticleState


@dataclass(frozen=True)
class Andersen:
    """Collisions with frequency nu redraw velocities from a Maxwellian at T."""

    nu: float
    temperature: float

    def __post_init__(self):
        if self.nu < 0 or self.temperature <= 0:
            raise ValueError("need nu >= 0 and temperature > 0")


@dataclass(frozen=True)
class Langevin:
    gamma: float
    beta: float

    def __post_init__(self):
        if self.gamma <= 0 or self.beta <= 0:
            raise ValueError("need gamma > 0 and beta > 0")

    @property
    def sigma(self) -> float:
        return math.sqrt(2.0 * self.gamma / self.beta)


@dataclass
class NoseHoover:
    """Deterministic thermostat with thermal mass Q and auxiliary variable xi."""

    Q: float
    beta: float
    xi: float = 0.0

    def __post_init__(self):
        if self.Q <= 0 or self.beta <= 0:
            raise ValueError("need Q > 0 and beta > 0")


Thermostat = Union[Andersen, Langevin, NoseHoover, None]


def apply_andersen(
    state: ParticleState,
    nu: float,
    temperature: float,
    dt: float,
    rng: np.random.Generator,
) -> ParticleState:
    """Redraw each velocity from N(0, T I_d) with probability 1 - exp(-nu dt) (unit masses)."""
    if state.velocities is None:
        raise ValueError("Andersen thermostat needs velocities")
    if nu == 0.0:
        return state
    p_collide = 1.0 - math.exp(-nu * dt)
    hit = rng.random(state.n_particles) < p_collide
    fresh = rng.standard_normal(state.positions.shape) * math.sqrt(temperature)
    velocities = np.where(hit[:, None], fresh, state.velocities)
    return state.replace(velocities=velocities)


def nose_hoover_step(
    state: ParticleState,
    xi: float,
    Q: float,
    beta: float,
    dt: float,
    forces: np.ndarray,
) -> Tuple[ParticleState, float]:
    """One step of the real-variable Nose-Hoover ODEs.

    r' = v, v' = F - xi v, xi' = (sum |v|^2 - d N / beta) / Q (unit masses), with the
    force array supplied by the caller.  xi takes an Euler step from the
    pre-kick kinetic energy; the particles take ``kick_drift`` with friction xi.
    """
    if state.velocities is None:
        raise ValueError("Nose-Hoover thermostat needs velocities")
    v = state.velocities
    kinetic_sum = float(np.sum(v * v))
    new_xi = xi + dt / Q * (kinetic_sum - state.dim * state.n_particles / beta)
    return kick_drift(state, forces, dt, friction=xi), new_xi
