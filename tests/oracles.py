"""Exact references that the tests check the package against and no run reports.

The closed forms a run could report, ``forces.interaction_spread`` and
``chi_variance_exact``, stay in the package.  So do the types whose checks
and views live here as functions: ``BatchDivision``, ``KernelSpec`` and
``WealthModel``.
"""

import math
from typing import Callable, Iterator, List, Tuple

import numpy as np

from randbatch.batching import batch_index_matrices
from randbatch.ewald import (TWO_PI, EwaldParams, PeriodicChargeSystem, _lattice_phases,
                             cube_m_max, fourier_energy, real_space_force_all, self_energy)
from randbatch.forces import _kernel_fn, _pairs_within, _search_pairs, batch_prefactor
from randbatch.models import ETA_WEALTH, WealthModel
from randbatch.samplers import GaussianKernel
from randbatch.state import BatchDivision, KernelSpec, ParticleState, minimum_image


def pair_sum(i: int, others: np.ndarray, state: ParticleState, kernel) -> np.ndarray:
    """Sum of K(x_i - x_j) over the given indices (self excluded)."""
    K = _kernel_fn(kernel)
    others = np.asarray(others)
    others = others[others != i]
    if others.size == 0:
        return np.zeros(state.dim)
    disp = minimum_image(state.positions[i] - state.positions[others], state.box_length)
    return np.asarray(K(disp)).sum(axis=0)


def batch_force(i: int, state: ParticleState, batch: np.ndarray, kernel, alpha_N: float) -> np.ndarray:
    """Random-batch force alpha_N (N-1)/(p-1) * sum over the batch."""
    batch = np.sort(np.asarray(batch))
    if i not in batch:
        raise ValueError("particle must belong to its batch")
    if batch.size < 2:
        raise ValueError("batch must contain at least 2 particles")
    pref = batch_prefactor(alpha_N, state.n_particles, batch.size)
    return pref * pair_sum(i, batch, state, kernel)


def full_force(i: int, state: ParticleState, kernel, alpha_N: float) -> np.ndarray:
    """Exact interaction force alpha_N * sum over all j != i."""
    if state.n_particles < 2:
        raise ValueError("need at least 2 particles")
    return alpha_N * pair_sum(i, np.arange(state.n_particles), state, kernel)


def chi(i: int, state: ParticleState, batch: np.ndarray, kernel) -> np.ndarray:
    """Force-estimator error: batch average minus full average of K around i."""
    batch = np.asarray(batch)
    if i not in batch:
        raise ValueError("particle must belong to its batch")
    N = state.n_particles
    batch_avg = pair_sum(i, batch, state, kernel) / (batch.size - 1)
    full_avg = pair_sum(i, np.arange(N), state, kernel) / (N - 1)
    return batch_avg - full_avg


def neighbor_pairs(
    positions: np.ndarray, box_length: float, cutoff: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unordered pairs i < j closer than ``cutoff`` in a periodic box.

    Returns ``(i, j, disp, r2)``: the index arrays, the (M, d) minimum-image
    displacements x_i - x_j and their squared lengths, in anti-diagonal
    order (ascending i + j, then ascending i; see ``randbatch.forces``), so the
    answer depends on the positions alone: the (i, j) of ``_search_pairs``,
    then one ``_pairs_within`` pass at the same cutoff, which keeps them all.
    """
    pos = np.asarray(positions, dtype=np.float64)
    return _pairs_within(pos, box_length, *_search_pairs(pos, box_length, cutoff), cutoff)



def _offdiag_sq_dists(X: np.ndarray) -> np.ndarray:
    diffs = X[:, None, :] - X[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diffs, diffs)
    return sq[~np.eye(X.shape[0], dtype=bool)]


def _svgd_term_sum(X: np.ndarray, i: int, js: np.ndarray, h: float, gv: np.ndarray) -> np.ndarray:
    """sum over js of grad_y K(x_i, x_j) - K(x_i, x_j) grad V(x_j)."""
    diffs = X[i] - X[js]
    k = np.exp(-np.einsum("ij,ij->i", diffs, diffs) / h)
    return ((2.0 / h) * diffs * k[:, None] - k[:, None] * gv[js]).sum(axis=0)


def svgd_velocity(i: int, X: np.ndarray, grad_V: Callable, kernel: GaussianKernel) -> np.ndarray:
    """Full-batch Stein flow velocity (1/N) sum_j [grad_y K - K grad V] of particle i."""
    N = X.shape[0]
    h = kernel.resolve(_offdiag_sq_dists(X), N)
    return _svgd_term_sum(X, i, np.arange(N), h, grad_V(X)) / N



def kvectors_in_ball(L: float, k_c: float) -> np.ndarray:
    """All nonzero lattice frequencies k = 2 pi m / L with |k| <= k_c."""
    m_max = cube_m_max(L, k_c)
    g = np.arange(-m_max, m_max + 1)
    mm = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    k = TWO_PI * mm[np.any(mm != 0, axis=1)] / L
    return np.ascontiguousarray(k[np.einsum("ij,ij->i", k, k) <= k_c**2 * (1 + 1e-12)])


def discrete_gaussian_moments(alpha: float, L: float) -> Tuple[float, float]:
    """Exact per-component (mean, variance) of m under the zero-excluded target.

    With h = sum_{m != 0} w(m) and V1 = sum_m m^2 w(m), the variance is
    V1 (1 + h)^2 / S and S = (1 + h)^3 - 1 = h (3 + h (3 + h)), which keeps
    full precision when h is tiny.  The sums run to the m where c m^2 >= 200
    (m^2 w(m) is then below 1e-80 of its peak), taken relative to w(1) so
    that they do not underflow either.
    """
    c = math.pi**2 / (alpha * L**2)
    m2 = np.arange(1, math.ceil(math.sqrt(200.0 / c)) + 2) ** 2
    u = np.exp(-c * (m2 - 1))  # w(m) / w(1) for m >= 1
    h = 2.0 * math.exp(-c) * u.sum()
    return 0.0, float((m2 * u).sum() * (1.0 + h) ** 2 / (u.sum() * (3.0 + h * (3.0 + h))))


def structure_factors(system: PeriodicChargeSystem, kvecs: np.ndarray) -> np.ndarray:
    """rho(k) = sum_n q_n exp(i k.r_n) for each lattice frequency k in ``kvecs``."""
    # not a BLAS product, which rounds a lone row unlike a row of a longer kvecs
    return np.einsum("kn,n->k", _lattice_phases(system, np.atleast_2d(kvecs)), system.charges)


def ewald_energy(system: PeriodicChargeSystem, params: EwaldParams) -> float:
    """Total Coulomb energy U_real + U_fourier + U_self (reference value)."""
    return (real_space_force_all(system, params)[1] + fourier_energy(system, params)
            + self_energy(system, params))



def enumerate_divisions(N: int, p: int) -> Iterator[BatchDivision]:
    """Yield every partition of {0..N-1} into batches of size p, exactly once.

    Exhaustive-enumeration oracle for the batch-estimator statistics; only
    sensible for small N.  Requires p | N.
    """
    if N % p != 0:
        raise ValueError("enumeration requires p to divide N")

    def rec(remaining: List[int]) -> Iterator[List[List[int]]]:
        if not remaining:
            yield []
            return
        first = remaining[0]
        rest = remaining[1:]
        from itertools import combinations

        for others in combinations(rest, p - 1):
            batch = [first, *others]
            leftover = [x for x in rest if x not in others]
            for tail in rec(leftover):
                yield [batch, *tail]

    for batches in rec(list(range(N))):
        yield BatchDivision(np.concatenate(batches), p)  # each batch ascending


def count_divisions(N: int, p: int) -> int:
    """Number of distinct partitions ``random_division(N, p, ...)`` can draw.

    N // p batches of size p, except that a lone leftover makes the last one
    p + 1, and a remainder of at least 2 forms one more batch of its own.
    """
    from math import factorial

    n_p = N // p - (N % p == 1)  # batches of exactly p; at most one other batch
    return factorial(N) // (factorial(p) ** n_p * factorial(n_p) * factorial(N - n_p * p))


def batch_of(division: BatchDivision, i: int) -> np.ndarray:
    """Sorted indices of the batch containing particle i."""
    return np.flatnonzero(division.assignment == division.assignment[i])


def iter_batches(division: BatchDivision) -> Iterator[np.ndarray]:
    """Yield each batch as a sorted index array, in batch order."""
    for _, idx in batch_index_matrices(division):
        yield from idx


def validate_division(division: BatchDivision):
    """Check that ``order`` is a permutation of 0..N-1 and the partition
    property; raises on violation."""
    n = division.order.size
    if not (np.issubdtype(division.order.dtype, np.integer)
            and np.array_equal(np.sort(division.order), np.arange(n))):
        raise ValueError(f"order is not a permutation of 0..{n - 1}")
    counts = np.bincount(division.assignment, minlength=division.n_batches)
    small = np.flatnonzero(counts != division.batch_size)
    # at most one remainder batch, and it must be the last one
    if small.size > 1 or (small.size == 1 and small[0] != division.n_batches - 1):
        raise ValueError("batches are not of uniform size p (plus one remainder)")
    if small.size == 1 and not (2 <= counts[small[0]] <= division.batch_size + 1):
        raise ValueError("remainder batch has invalid size")


def check_split(spec: KernelSpec, rng: np.random.Generator, dim: int = 1, n_samples: int = 200):
    """Verify a kernel's split identities on random sample points; raises on failure."""
    r0 = spec.split_radius
    # short part must vanish outside the cutoff
    radii = rng.uniform(r0, 2 * r0, size=n_samples)
    dirs = rng.standard_normal((n_samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = radii[:, None] * dirs
    k1 = np.asarray(spec.short_part(x))
    if np.max(np.abs(k1)) > 1e-12:
        raise ValueError("short_part does not vanish beyond split_radius")
    # K = K1 + K2 on points spanning both ranges
    radii = rng.uniform(0.05 * r0, 2 * r0, size=n_samples)
    x = radii[:, None] * dirs
    total = np.asarray(spec.force(x))
    recomposed = np.asarray(spec.short_part(x)) + np.asarray(spec.smooth_part(x))
    bound = 1e-12 * (1.0 + np.abs(total))
    if np.any(np.abs(total - recomposed) > bound):
        raise ValueError("short_part + smooth_part does not reproduce force")


def equilibrium_mode(model: WealthModel) -> float:
    """Mode of the wealth model's inverse-Gamma equilibrium."""
    return model.kappa * ETA_WEALTH / (model.kappa + 2.0 * model.D)


def equilibrium_density(model: WealthModel, y) -> np.ndarray:
    """Inverse-Gamma density with shape kappa/D + 1 and scale kappa eta / D."""
    y = np.asarray(y, dtype=np.float64)
    a, b = model.shape, model.scale
    out = np.zeros_like(y)
    pos = y > 0
    yp = y[pos]
    out[pos] = np.exp(a * math.log(b) - math.lgamma(a) - (a + 1) * np.log(yp) - b / yp)
    return out
