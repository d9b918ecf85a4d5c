"""Pairwise-force evaluation: exact sums, random-batch estimators, pair search.

All kernels are vectorized callables mapping an (M, d) displacement array to
(M, d) force rows; displacements use the minimum-image convention whenever the
state carries a periodic box.  ``batch_pair_sum`` is the one sum over batch
mates: the random-batch forces here, the Cucker-Smale and consensus
right-hand sides and the RBM-SVGD update all run through it.  It takes a
``BatchDivision`` (or None for one batch of all N), groups the batches from
its order and gathers each field by ``np.take``, once for batches of two,
whose mates are the same rows reversed.  Summation within a batch
runs in ascending particle order so that the p = N random-batch step
reproduces the full-batch step bit for bit.

Short-range sums find their pairs with ``neighbor_pairs``, one cell search
per call, which returns them in ascending (i, j) order.  ``PairList`` is the
Verlet list on top of it (Verlet, Phys. Rev. 159, 98, 1967): it searches once
at cutoff + skin and, until some particle has moved skin/2 since, answers each
call by filtering the listed pairs in order.  Every answer is therefore the
array a fresh search would return, so forces depend on the positions alone,
not on the skin, the cell grid or when the list was last built.
All three short-range sums (split-step K1, Coulomb real space, electrolyte LJ
core) are Newton pairs: one evaluation per pair i < j, summed by ``pair_force_sum``.
"""

from typing import Callable, Optional, Tuple

import numpy as np

from .batching import batch_index_matrices
from .state import BatchDivision, Kernel, KernelSpec, ParticleState, minimum_image


def _kernel_fn(kernel) -> Kernel:
    return kernel.force if isinstance(kernel, KernelSpec) else kernel


def _kernel_term(kernel, state: ParticleState) -> Callable:
    """Pair term K(x_i - x_j) over minimum-image displacements, as (M, d) rows."""
    K = _kernel_fn(kernel)
    return lambda xi, xj: K(minimum_image(xi - xj, state.box_length).reshape(-1, state.dim))


def batch_prefactor(alpha_N: float, N: int, batch_size: int) -> float:
    """Unbiased random-batch weight alpha_N (N-1)/(q-1) for a batch of size q."""
    return alpha_N * (N - 1) / (batch_size - 1)


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


def full_force_all(state: ParticleState, kernel, alpha_N: float) -> np.ndarray:
    """Exact forces on every particle, one vectorized O(N^2) evaluation."""
    return batch_pair_sum(None, _kernel_term(kernel, state), (state.positions,), lambda q: alpha_N)


# pair terms per block chunk in ``batch_pair_sum``; candidates per block of ``neighbor_pairs``
_CHUNK_PAIRS = 1 << 18


def batch_pair_sum(
    division: Optional[BatchDivision], pair_term: Callable, fields, weight: Callable
) -> np.ndarray:
    """weight(q) * sum over the mates j != i in i's batch of pair_term, for every i.

    ``division`` splits the particles into batches (None: one batch of all N)
    and ``fields`` are per-particle arrays.  Each block of B batches of size q
    comes in calls ``pair_term(f_i, f_j, g_i, g_j, ...)`` over c of the q
    particles i per batch (c = q unless that exceeds about 2^18 pair terms):
    each gets every field as (B, c, 1, ...) rows of i and (B, c, q-1, ...) rows
    of their mates, j ascending (``np.take`` of the field's rows), and returns
    the B c (q-1) pair terms in that order; a term may use only its own pair.
    A block of batches of two is never chunked and gathers each field once:
    its mate rows are the reversed view of the rows of i.
    """
    N = len(fields[0])
    blocks = [(N, np.arange(N)[None, :])] if division is None else batch_index_matrices(division)
    out = None
    for size, idx in blocks:
        if size < 2:
            raise ValueError("degenerate batch of size < 2")
        # rows k0..k1-1 of every batch at a time; a row sums the same terms in
        # the same order whatever the chunk, so the result is bit-identical.
        # A block of two is one chunk: its 2B terms are O(N), like the fields.
        step = size if size == 2 else max(1, _CHUNK_PAIRS // (idx.shape[0] * (size - 1)))
        for k0 in range(0, size, step):
            k1 = min(k0 + step, size)
            I, rows = idx[:, k0:k1], []
            if size > 2:
                cols = np.arange(size - 1)
                J = idx[:, cols + (cols >= np.arange(k0, k1)[:, None])]  # row k: all columns but k
            for f in fields:
                fi = np.take(f, I[:, :, None], axis=0)
                # in a batch of two, the mate of row 0 is row 1 and vice versa
                rows += [fi, fi[:, ::-1] if size == 2 else np.take(f, J, axis=0)]
            values = np.asarray(pair_term(*rows)).reshape(idx.shape[0], k1 - k0, size - 1, -1)
            if out is None:
                out = np.zeros((N, values.shape[-1]))
            out[I] = weight(size) * (values[:, :, 0] if size == 2 else values.sum(axis=2))
    return out


def division_forces(state: ParticleState, division: BatchDivision, kernel, alpha_N: float) -> np.ndarray:
    """Random-batch forces on every particle for one shared division.

    Each batch of size q carries the unbiased weight alpha_N (N-1)/(q-1), so a
    remainder batch gets its own size-matched prefactor.
    """
    N = state.n_particles
    return batch_pair_sum(division, _kernel_term(kernel, state), (state.positions,),
                          lambda q: batch_prefactor(alpha_N, N, q))


def chi(i: int, state: ParticleState, batch: np.ndarray, kernel) -> np.ndarray:
    """Force-estimator error: batch average minus full average of K around i."""
    batch = np.asarray(batch)
    if i not in batch:
        raise ValueError("particle must belong to its batch")
    N = state.n_particles
    batch_avg = pair_sum(i, batch, state, kernel) / (batch.size - 1)
    full_avg = pair_sum(i, np.arange(N), state, kernel) / (N - 1)
    return batch_avg - full_avg


def interaction_spread(i: int, state: ParticleState, kernel) -> float:
    """Spread of the pair forces around their mean: the Lambda_i factor.

    (1/(N-2)) sum_{j != i} |K(x_i - x_j) - mean_l K(x_i - x_l)|^2.
    """
    K = _kernel_fn(kernel)
    N = state.n_particles
    if N < 3:
        raise ValueError("need at least 3 particles")
    others = np.delete(np.arange(N), i)
    disp = minimum_image(state.positions[i] - state.positions[others], state.box_length)
    values = np.asarray(K(disp))
    mean = values.mean(axis=0)
    return float(np.sum((values - mean) ** 2) / (N - 2))


def chi_variance_exact(i: int, state: ParticleState, p: int, kernel) -> float:
    """Closed-form scalar variance of chi_i over a uniform random division.

    (1/(p-1) - 1/(N-1)) * Lambda_i; for d > 1 this is the trace of the
    covariance.  Valid for configurations independent of the division.
    """
    N = state.n_particles
    if not 2 <= p <= N:
        raise ValueError("need 2 <= p <= N")
    if p == N:
        return 0.0
    return (1.0 / (p - 1) - 1.0 / (N - 1)) * interaction_spread(i, state, kernel)


def _cell_candidates(coords: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs i < j in the same or adjacent cells of an m^d grid, as runs.

    Returns ``(order, first, count)``: the particles sorted into cell order,
    and, for rank r and the k-th cell it is paired with, the ranks
    ``first[r, k]`` .. ``first[r, k] + count[r, k] - 1`` it pairs with.  Each
    pair is generated once: from the lower-numbered of its two cells, or,
    within a cell, from the particle that sorts first.
    """
    N, d = coords.shape
    strides = m ** np.arange(d - 1, -1, -1)
    # particles are handled by rank in cell order
    order = np.argsort(coords @ strides, kind="stable")
    coords = coords[order]
    cell = coords @ strides
    counts = np.bincount(cell, minlength=m**d)
    ends = np.cumsum(counts)
    # neigh[r, k]: the k-th cell that rank r is paired with; reducing the
    # offsets {-1, 0, 1} modulo m and de-duplicating them makes m = 1 and
    # m = 2 work like any other grid
    shifts = np.unique(np.array([-1, 0, 1]) % m)
    neigh = np.zeros((N, 1), dtype=np.int64)
    for axis in range(d):
        part = (coords[:, axis, None] + shifts) % m * strides[axis]
        neigh = (neigh[:, :, None] + part[:, None, :]).reshape(N, neigh.shape[1] * shifts.size)
    rank = np.arange(N)
    own, end = cell[:, None], ends[neigh]  # end: one past the last rank of each paired cell
    first = np.where(neigh == own, rank[:, None] + 1, end - counts[neigh])
    return order, first, np.where(neigh >= own, end - first, 0)


def _run_pairs(
    order: np.ndarray, rank: np.ndarray, n_cand: np.ndarray, first: np.ndarray, count: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j, that ranks ``rank`` list, from their rows of
    ``_cell_candidates``' ``first`` and ``count`` and their candidate totals ``n_cand``."""
    ra = np.repeat(rank, n_cand)
    count, first = count.ravel(), first.ravel()
    rb = np.arange(ra.size) - np.repeat(np.cumsum(count) - count - first, count)
    i, j = order[ra], order[rb]
    return np.minimum(i, j), np.maximum(i, j)


def _pairs_within(
    pos: np.ndarray, box_length: float, i: np.ndarray, j: np.ndarray, cutoff: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pairs (i, j) closer than ``cutoff``, as ``neighbor_pairs`` returns them."""
    # axis-major: one-dimensional gathers are several times faster than row gathers
    disp = np.empty((pos.shape[1], i.size))
    for axis, x in enumerate(np.ascontiguousarray(pos.T)):
        disp[axis] = minimum_image(x[i] - x[j], box_length)
    r2 = np.einsum("ij,ij->j", disp, disp)
    # indices rather than a boolean mask, which is several times slower to apply when
    # it keeps a scattered half of the pairs; the rows returned are a transposed view
    keep = np.flatnonzero(r2 < cutoff * cutoff)
    return i[keep], j[keep], np.take(disp, keep, axis=1).T, r2[keep]


def neighbor_pairs(
    positions: np.ndarray, box_length: float, cutoff: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unordered pairs i < j closer than ``cutoff`` in a periodic box.

    Returns ``(i, j, disp, r2)``: the index arrays, the (M, d) minimum-image
    displacements x_i - x_j and their squared lengths, in ascending (i, j)
    order, so the answer depends on the positions alone.  Particles are
    binned into about floor(L / cutoff) cells per side, so every pair within
    the cutoff lies in the same or an adjacent cell.  The candidate pairs are
    expanded and filtered in blocks of about ``_CHUNK_PAIRS``, so beyond its
    answer a search holds one block of candidates at a time.
    """
    pos = np.asarray(positions, dtype=np.float64)
    N, d = pos.shape
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")  # NaN has no cell
    # the margin keeps cell edges above the cutoff despite rounding in the binning;
    # the cap on cells per particle only coarsens the grid of a sparse system
    m = max(min(int(box_length / (cutoff * (1 + 1e-9))), int((8 * N) ** (1.0 / d))), 1)
    order, first, count = _cell_candidates(np.floor(pos * (m / box_length)).astype(np.int64) % m, m)
    # expand and filter the candidates in blocks of consecutive ranks with at most
    # _CHUNK_PAIRS candidates (or a single rank), so that beyond the kept pairs a
    # search holds one block at a time; searches of up to a few thousand
    # particles at the benchmark densities are a single block
    rank, n_cand = np.arange(N), count.sum(axis=1)
    ends, kept, start = np.cumsum(n_cand), [], 0
    while start < N or not kept:
        before = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, before + _CHUNK_PAIRS, "right")), start + 1)
        rows = slice(start, stop)
        block = _run_pairs(order, rank[rows], n_cand[rows], first[rows], count[rows])
        start = stop
        if start >= N:  # the last block: free the (N, 3^d) runs before filtering it
            order = rank = n_cand = first = count = ends = None
        kept.append(_pairs_within(pos, box_length, *block, cutoff))
        block = None  # so that two blocks of candidates are never held at once
    i, j, disp, r2 = kept[0] if len(kept) == 1 else [np.concatenate(a) for a in zip(*kept)]
    del kept
    order = np.argsort(i * N + j)  # the keys are distinct: each pair is listed once
    return i[order], j[order], disp[order], r2[order]


class PairList:
    """Verlet list: the pairs within ``cutoff`` + skin, reused across calls.

    A call returns what ``neighbor_pairs(positions, box_length, cutoff)``
    returns, array for array, by filtering the pairs listed at the last
    build in their (i, j) order.  That is exact while no particle has moved
    more than skin/2 (minimum image) since the build; otherwise, or when the
    box or the particle count changes, the call first rebuilds the list with
    one ``neighbor_pairs`` search.  ``builds`` counts those searches.

    Each build sets skin = max(0.1 cutoff, 0.3 s), with s = (L^d / N)^(1/d)
    the mean particle spacing.  The skin is sized by how far particles move
    between builds, which scales with the spacing, not with the cutoff:
    about 0.3 sigma is the usual choice (Allen & Tildesley, *Computer
    Simulation of Liquids*), and the spacing stands in for sigma.  A cutoff
    of 3 spacings or more, such as the default Ewald r_c, keeps 0.1 cutoff.
    Answers do not depend on when the list was built, so the skin sets only
    the cost: a wider one lists more pairs and builds less often.
    """

    def __init__(self, cutoff: float):
        self.cutoff = cutoff
        self.skin = 0.1 * cutoff
        self.builds = 0
        self._built = None  # (positions, box length, i, j) of the last build

    def __call__(
        self, positions: np.ndarray, box_length: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        pos = np.asarray(positions, dtype=np.float64)
        if self._stale(pos, box_length):
            # a NaN position makes the list stale, and the search raises on it
            self.skin = self._skin(box_length, *pos.shape)
            i, j, _, _ = neighbor_pairs(pos, box_length, self.cutoff + self.skin)
            self._built = (pos.copy(), box_length, i, j)
            self.builds += 1
        _, _, i, j = self._built
        if i.size == 0:  # nothing listed, so nothing to filter
            return i, j, np.empty((0, pos.shape[1])), np.empty(0)
        return _pairs_within(pos, box_length, i, j, self.cutoff)

    def _skin(self, box_length: float, n: int, d: int) -> float:
        return max(0.1 * self.cutoff, 0.3 * (box_length**d / max(n, 1)) ** (1.0 / d))

    def _stale(self, pos: np.ndarray, box_length: float) -> bool:
        if self._built is None:
            return True
        x0, L0 = self._built[:2]
        if L0 != box_length or x0.shape != pos.shape:
            return True
        moved = minimum_image(pos - x0, box_length)
        return not np.all(np.einsum("ij,ij->i", moved, moved) <= (0.5 * self.skin) ** 2)


def pair_force_sum(n: int, i: np.ndarray, j: np.ndarray, f_ij: np.ndarray) -> np.ndarray:
    """Per-particle sums of Newton pair forces: row k adds f_ij[k] to i[k], -f_ij[k] to j[k]."""
    out = np.empty((n, f_ij.shape[1]))
    for axis in range(f_ij.shape[1]):
        f = f_ij[:, axis]
        out[:, axis] = np.bincount(i, f, minlength=n) - np.bincount(j, f, minlength=n)
    return out


def short_range_force_all(
    state: ParticleState, K1: Kernel, r0: float, alpha_N: float, pairs: Optional[PairList] = None
) -> np.ndarray:
    """alpha_N * sum of K1(x_i - x_j) over the neighbours within r0, for every i.

    The pairs come from ``pairs``, a ``PairList`` at cutoff r0 that the caller
    carries across steps; None searches with a fresh list.  K1 must be odd,
    K1(-x) = -K1(x): it is evaluated once per pair and the pair's force goes
    to both particles with opposite signs.  Each call that rebuilds the list
    checks that on its pairs and raises ``ValueError`` for an odd-violating K1.
    """
    if state.box_length is None:
        raise ValueError("short-range force requires a periodic box")
    if r0 >= state.box_length / 2:
        raise ValueError("cutoff must be below half the box length")
    if pairs is None:
        pairs = PairList(r0)
    elif pairs.cutoff != r0:
        raise ValueError("pair list cutoff differs from r0")
    builds = pairs.builds
    i, j, disp, _ = pairs(state.positions, state.box_length)
    disp = np.ascontiguousarray(disp)  # an einsum in K1 may round differently on a strided view
    f_ij = np.asarray(K1(disp))
    if pairs.builds != builds and np.any(np.abs(K1(-disp) + f_ij) > 1e-12 * np.abs(f_ij)):
        raise ValueError("short-range kernel K1 must be odd: K1(-x) = -K1(x)")
    return alpha_N * pair_force_sum(state.n_particles, i, j, f_ij)
