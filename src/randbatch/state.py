"""Particle state (positions and optional velocities; a run's clock is its
loop counter), interaction kernels and batch divisions, built from their order."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Kernel = Callable[[np.ndarray], np.ndarray]
"""Vectorized pair kernel: maps an (M, d) array of displacements to (M, d) forces."""


def wrap_positions(positions: np.ndarray, box_length: float) -> np.ndarray:
    """Map coordinates into the primary box [0, L); an array inside (0, L) is
    returned as is, so a periodic ``ParticleState`` may share its caller's array."""
    if positions.size and positions.min() > 0 and positions.max() < box_length:
        return positions  # np.mod would return these unchanged; 0 and -0.0 still go through it
    wrapped = np.mod(positions, box_length)
    # np.mod rounds a coordinate just below 0 up to L itself
    return np.where(wrapped < box_length, wrapped, 0.0)


def minimum_image(disp: np.ndarray, box_length: Optional[float],
                  work: Optional[np.ndarray] = None) -> np.ndarray:
    """Wrap displacement components into [-L/2, L/2]: disp - L rint(disp (1/L)).

    rint is odd, so an exact +-L/2 stays as it is and the displacements
    x_i - x_j and x_j - x_i of a pair stay exact negatives.  With ``work``, a
    float array of disp's shape, disp is wrapped in place and returned.
    """
    if box_length is None:
        return disp
    shift = np.multiply(disp, 1.0 / box_length, out=work)
    np.rint(shift, out=shift)
    shift *= box_length
    return np.subtract(disp, shift, out=shift if work is None else disp)


@dataclass
class ParticleState:
    """Positions (and optionally velocities) of N particles in d dimensions.

    Positions must be finite, and a periodic state's are wrapped into [0, L).
    A periodic state first takes the positions' min and max: when both lie in
    (0, L), the positions are finite and inside the box, and the state keeps
    the array as is.  Only when that test fails (a NaN fails it too) are the
    positions checked with ``isfinite`` and wrapped by ``wrap_positions``.  A
    state with no box checks ``isfinite`` on every construction.
    """

    positions: np.ndarray
    velocities: Optional[np.ndarray] = None
    box_length: Optional[float] = None

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=np.float64)))
        if pos.ndim != 2:
            raise ValueError("positions must be an (N, d) array")
        L = self.box_length
        # min and max inside (0, L): finite and in the box (a NaN fails the test,
        # and so does every position when L <= 0)
        if L is None or not (pos.size and pos.min() > 0 and pos.max() < L):
            if not np.all(np.isfinite(pos)):
                raise ValueError("positions must be finite")
            if L is not None:
                if L <= 0:
                    raise ValueError("box_length must be positive")
                pos = wrap_positions(pos, L)
        self.positions = pos
        if self.velocities is not None:
            vel = np.ascontiguousarray(np.asarray(self.velocities, dtype=np.float64))
            if vel.shape != pos.shape:
                raise ValueError("velocities must have the same shape as positions")
            self.velocities = vel

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def replace(self, positions=None, velocities=None) -> "ParticleState":
        return ParticleState(
            positions=self.positions if positions is None else positions,
            velocities=self.velocities if velocities is None else velocities,
            box_length=self.box_length,
        )


@dataclass(frozen=True)
class RadialKernel:
    """Radial pair kernel K(x) = x c(|x|^2), with the coefficient c given as a function of r^2.

    A call maps (M, d) displacements to (M, d) forces like any ``Kernel``; a
    pair sum that already holds each pair's r^2 scales the displacements by
    ``coef(r2)`` instead.  K(-x) = -K(x) for every x, so a radial kernel is
    odd by construction.
    """

    coef: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x * self.coef(np.einsum("ij,ij->i", x, x))[:, None]


@dataclass
class KernelSpec:
    """Pairwise force kernel split at ``split_radius`` into short + smooth parts.

    ``short_part`` K1 must vanish for |x| >= split_radius, and ``short_part +
    smooth_part`` must reproduce ``force``.  A second-order system's batch
    forces sum K1 once per pair, so it must be a ``RadialKernel``, whose
    oddness K1(-x) = -K1(x) holds by construction; any other is refused with
    TypeError here, where the split is built.
    """

    force: Kernel
    split_radius: float
    short_part: RadialKernel
    smooth_part: Kernel

    def __post_init__(self):
        if self.split_radius <= 0:
            raise ValueError("split_radius must be positive")
        if not isinstance(self.short_part, RadialKernel):
            raise TypeError("the short part K1 must be a RadialKernel, x c(|x|^2)")


class BatchDivision:
    """A random partition of {0..N-1} into batches of (nominal) size p.

    ``order`` lists the particles grouped by batch: batch b is
    ``order[b*p:(b+1)*p]`` and the last batch takes the tail, which holds a
    remainder of at least 2, or p + 1 particles when one is left over.
    ``random_division`` builds a division from the permutation it drew alone,
    and ``assignment`` (particle -> batch) is derived from it on first read.
    """

    def __init__(self, order: np.ndarray, batch_size: int):
        if batch_size < 2:
            raise ValueError("batch size must be >= 2")
        self.order = order
        self.batch_size = batch_size
        self.n_batches = order.size // batch_size + (order.size % batch_size >= 2)
        self._assignment = None

    @property
    def assignment(self) -> np.ndarray:
        """Each particle's batch, derived from ``order`` on first read and then kept."""
        if self._assignment is None:
            self._assignment = np.empty(self.order.size, dtype=np.int64)
            self._assignment[self.order] = np.minimum(
                np.arange(self.order.size) // self.batch_size, self.n_batches - 1)
        return self._assignment
