"""Particle state (positions and optional velocities; a run's clock is its
loop counter), interaction kernels and batch divisions, built from their order."""

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

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


def minimum_image(disp: np.ndarray, box_length: Optional[float]) -> np.ndarray:
    """Wrap displacement components into [-L/2, L/2)."""
    if box_length is None:
        return disp
    return disp - box_length * np.floor(disp / box_length + 0.5)


@dataclass
class ParticleState:
    """Positions (and optionally velocities) of N particles in d dimensions."""

    positions: np.ndarray
    velocities: Optional[np.ndarray] = None
    box_length: Optional[float] = None

    def __post_init__(self):
        pos = np.ascontiguousarray(np.atleast_2d(np.asarray(self.positions, dtype=np.float64)))
        if pos.ndim != 2:
            raise ValueError("positions must be an (N, d) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if self.box_length is not None:
            if self.box_length <= 0:
                raise ValueError("box_length must be positive")
            pos = wrap_positions(pos, self.box_length)
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
    """Pairwise force kernel, optionally split into short + smooth parts.

    When a split is declared, ``short_part`` must vanish for |x| >= split_radius
    and ``short_part + smooth_part`` must reproduce ``force``.  The split step
    sums the short part once per pair, so the short part must be a
    ``RadialKernel``, whose oddness K1(-x) = -K1(x) holds by construction; any
    other is refused with TypeError here, where the split is built.
    """

    force: Kernel
    split_radius: Optional[float] = None
    short_part: Optional[Kernel] = None
    smooth_part: Optional[Kernel] = None

    def __post_init__(self):
        if self.split_radius is not None:
            if self.split_radius <= 0:
                raise ValueError("split_radius must be positive")
            if self.short_part is None or self.smooth_part is None:
                raise ValueError("a split kernel needs both short_part and smooth_part")
            if not isinstance(self.short_part, RadialKernel):
                raise TypeError("the short part K1 must be a RadialKernel, x c(|x|^2)")

    @property
    def has_split(self) -> bool:
        return self.split_radius is not None

    def check_split(self, rng: np.random.Generator, dim: int = 1, n_samples: int = 200):
        """Verify the split identities on random sample points; raises on failure."""
        if not self.has_split:
            return
        r0 = self.split_radius
        # short part must vanish outside the cutoff
        radii = rng.uniform(r0, 2 * r0, size=n_samples)
        dirs = rng.standard_normal((n_samples, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = radii[:, None] * dirs
        k1 = np.asarray(self.short_part(x))
        if np.max(np.abs(k1)) > 1e-12:
            raise ValueError("short_part does not vanish beyond split_radius")
        # K = K1 + K2 on points spanning both ranges
        radii = rng.uniform(0.05 * r0, 2 * r0, size=n_samples)
        x = radii[:, None] * dirs
        total = np.asarray(self.force(x))
        recomposed = np.asarray(self.short_part(x)) + np.asarray(self.smooth_part(x))
        bound = 1e-12 * (1.0 + np.abs(total))
        if np.any(np.abs(total - recomposed) > bound):
            raise ValueError("short_part + smooth_part does not reproduce force")


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

    @property
    def n_particles(self) -> int:
        return self.order.size

    def batch_of(self, i: int) -> np.ndarray:
        """Sorted indices of the batch containing particle i."""
        return np.flatnonzero(self.assignment == self.assignment[i])

    def iter_batches(self) -> Iterator[np.ndarray]:
        """Yield each batch as a sorted index array, in batch order."""
        from .batching import batch_index_matrices  # batching imports this module

        for _, idx in batch_index_matrices(self):
            yield from idx

    def validate(self):
        """Check that ``order`` is a permutation of 0..N-1 and the partition
        property; raises on violation."""
        n = self.order.size
        if not (np.issubdtype(self.order.dtype, np.integer)
                and np.array_equal(np.sort(self.order), np.arange(n))):
            raise ValueError(f"order is not a permutation of 0..{n - 1}")
        counts = np.bincount(self.assignment, minlength=self.n_batches)
        small = np.flatnonzero(counts != self.batch_size)
        # at most one remainder batch, and it must be the last one
        if small.size > 1 or (small.size == 1 and small[0] != self.n_batches - 1):
            raise ValueError("batches are not of uniform size p (plus one remainder)")
        if small.size == 1 and not (2 <= counts[small[0]] <= self.batch_size + 1):
            raise ValueError("remainder batch has invalid size")
