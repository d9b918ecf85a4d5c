"""Heat-bath couplings: Andersen collisions, Langevin friction, Nose-Hoover.

``runner._couple`` maps each to the friction and noise of the one
second-order step ``integrators.kick_drift`` and to hooks after the step:
Langevin is the pair (gamma, sigma = sqrt(2 gamma / beta)), Andersen
collisions are a hook, and Nose-Hoover's xi is the friction, which a hook advances.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    """Deterministic thermostat with thermal mass Q and auxiliary variable xi.

    r' = v, v' = F - xi v, xi' = (sum |v|^2 - d N / beta) / Q (unit masses):
    each step kicks with friction xi, then xi takes an Euler step in place.
    """

    Q: float
    beta: float
    xi: float = 0.0

    def __post_init__(self):
        if self.Q <= 0 or self.beta <= 0:
            raise ValueError("need Q > 0 and beta > 0")


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
