"""Pairwise-force evaluation: exact sums, random-batch estimators, pair search.

All kernels are vectorized callables mapping an (M, d) displacement array to
(M, d) force rows.  Whenever the state carries a periodic box, every
displacement goes through ``state.minimum_image``, whose components lie in
[-L/2, L/2]; a component of exactly +-L/2 keeps its sign, so the two
displacements of a pair are exact negatives, and an odd kernel gives the mates
of a batch opposite forces at any separation.  ``batch_pair_sum`` is the one
sum over batch mates: the random-batch forces here, the Cucker-Smale and
consensus right-hand sides and the RBM-SVGD update all run through it.  It
takes a ``BatchDivision`` (or None for one batch of all N), groups the batches
from its order and gathers each field by ``np.take``.  Batches of two, the
paper's p = 2, skip the grouping: a mate array pairs each particle with its
batch mate, so each field is gathered once and the sums come out in particle
order.  Summation within a batch runs in ascending particle order so that the
p = N random-batch step reproduces the full-batch step bit for bit.

Short-range sums find their pairs with one cell search, ``_search_pairs``,
which returns only (i, j), in anti-diagonal order: by i + j, then by i.
``PairList`` is the Verlet list on top of it (Verlet, Phys. Rev. 159, 98,
1967): it searches once at cutoff + skin and, until some particle has moved
skin/2 since, answers each call by filtering the listed pairs in order.
Every answer is therefore what a fresh search at the cutoff returns, so forces
depend on the positions alone, not on the skin, the cell grid or when the
list was last built.  Searches and lists share one filter,
``_filter``, which works on the whole (d, M) displacement block at
once: both ends are gathered with ``take`` from the (d, N) coordinates, and
the difference, ``minimum_image`` in place (four passes through one shift
block) and r^2 each run once over the block rather than once per axis.
The list's staleness test takes the same image.  A search expands and
filters its candidates in blocks of ``_SEARCH_BLOCK`` = 2^13, small enough
that each block reuses the heap memory the last one freed rather than
faulting in fresh pages, which cost a build more than the extra calls per
block do.
All three short-range sums (a split kernel's K1, which
``integrators.SecondOrderSystem.batch_forces`` sums exactly, Coulomb real
space, the electrolyte's LJ core) are Newton pairs of a radial kernel: each
reads the ``PairList`` that its owner carries across steps, and passes one
coefficient per pair i < j, computed from the r^2 that the list answer
carries (K1 is a ``state.RadialKernel``, which exposes it as a function of
r^2), to ``pair_force_sum``, which scales the (d, M) displacements by it in
one product.  Its ``bincount``s add each particle's
terms in list order, and in anti-diagonal order, as in (i, j) order, the
pairs sharing i come by ascending j and those sharing j by ascending i, so
the sums have the same bits in either order.  Consecutive pairs rarely
share an end in anti-diagonal order (in (i, j) order nearly all share i),
so the ``bincount``s do not add into one location in a serial chain.
"""

from typing import Callable, Optional, Tuple

import numpy as np

from .batching import batch_index_matrices
from .state import BatchDivision, ParticleState, RadialKernel, minimum_image


def _kernel_term(kernel, state: ParticleState) -> Callable:
    """Pair term K(x_i - x_j) over minimum-image displacements, as (M, d) rows."""
    return lambda xi, xj: kernel(minimum_image(xi - xj, state.box_length).reshape(-1, state.dim))


def batch_prefactor(alpha_N: float, N: int, batch_size: int) -> float:
    """Unbiased random-batch weight alpha_N (N-1)/(q-1) for a batch of size q."""
    return alpha_N * (N - 1) / (batch_size - 1)


def full_force_all(state: ParticleState, kernel, alpha_N: float) -> np.ndarray:
    """Exact forces on every particle, one vectorized O(N^2) evaluation."""
    return batch_pair_sum(None, _kernel_term(kernel, state), (state.positions,), lambda q: alpha_N)


# pair terms per block chunk in ``batch_pair_sum``: a chunk's (B, c, q-1, d) rows
# and terms stay a few MB, whatever the batch count and size
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
    Batches of two (and N = 2 with no division) take one call with B = N and
    c = 1: mate[i] is i's batch mate, and each field comes as its own rows and
    as its rows at ``mate``, so the sums are in particle order with no sort or
    scatter.  An odd N's last batch of three then goes through the blocks.
    """
    N = len(fields[0])
    if (N if division is None else division.batch_size) == 2:
        order = np.arange(N) if division is None else division.order
        out = weight(2) * _mate_terms(order, pair_term, fields)
        # an odd N ends in a batch of three, whose mate rows were placeholders
        blocks = [(3, np.sort(order[-3:])[None, :])] if N % 2 else []
    else:
        out = None
        blocks = ([(N, np.arange(N)[None, :])] if division is None
                  else batch_index_matrices(division))
    for size, idx in blocks:
        if size < 2:
            raise ValueError("degenerate batch of size < 2")
        # rows k0..k1-1 of every batch at a time; a row sums the same terms in
        # the same order whatever the chunk, so the result is bit-identical
        step = max(1, _CHUNK_PAIRS // (idx.shape[0] * (size - 1)))
        cols = np.arange(size - 1)
        for k0 in range(0, size, step):
            k1 = min(k0 + step, size)
            I = idx[:, k0:k1]
            J = idx[:, cols + (cols >= np.arange(k0, k1)[:, None])]  # row k: all columns but k
            rows = [np.take(f, ix, axis=0) for f in fields for ix in (I[:, :, None], J)]
            values = np.asarray(pair_term(*rows)).reshape(idx.shape[0], k1 - k0, size - 1, -1)
            if out is None:
                out = np.zeros((N, values.shape[-1]))
            out[I] = weight(size) * values.sum(axis=2)
    return out


def _mate_terms(order: np.ndarray, pair_term: Callable, fields) -> np.ndarray:
    """pair_term of every particle with its mate, as (N, D) rows in particle order.

    Consecutive entries of ``order`` are mates.  An odd tail of three gets the
    3-cycle of mates, so each of its rows is a finite placeholder term.
    """
    N = order.size
    mate = np.empty_like(order)
    even = order[: N - 3] if N % 2 else order
    mate[even[0::2]], mate[even[1::2]] = even[1::2], even[0::2]
    if N % 2:
        mate[order[-3:]] = np.roll(order[-3:], 1)
    rows = []
    for f in fields:
        shape = (N, 1, 1, *np.shape(f)[1:])
        rows += [np.reshape(f, shape), np.take(f, mate, axis=0).reshape(shape)]
    return np.asarray(pair_term(*rows)).reshape(N, -1)


def division_forces(state: ParticleState, division: BatchDivision, kernel, alpha_N: float) -> np.ndarray:
    """Random-batch forces on every particle for one shared division (None: all N).

    Each batch of size q carries the unbiased weight alpha_N (N-1)/(q-1), so a
    remainder batch gets its own size-matched prefactor.
    """
    N = state.n_particles
    return batch_pair_sum(division, _kernel_term(kernel, state), (state.positions,),
                          lambda q: batch_prefactor(alpha_N, N, q))


def interaction_spread(i: int, state: ParticleState, kernel) -> float:
    """Spread of the pair forces around their mean: the Lambda_i factor.

    (1/(N-2)) sum_{j != i} |K(x_i - x_j) - mean_l K(x_i - x_l)|^2.
    """
    N = state.n_particles
    if N < 3:
        raise ValueError("need at least 3 particles")
    others = np.delete(np.arange(N), i)
    disp = minimum_image(state.positions[i] - state.positions[others], state.box_length)
    values = np.asarray(kernel(disp))
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
    coords = coords.take(order, axis=0)
    cell = coords @ strides
    counts = np.bincount(cell, minlength=m**d)
    ends = np.cumsum(counts)
    # neigh[k, r]: the k-th cell that rank r is paired with; reducing the
    # offsets {-1, 0, 1} modulo m and de-duplicating them makes m = 1 and
    # m = 2 work like any other grid.  The (k, r) arrays are built with the
    # ranks along their rows, where a broadcast runs over N rather than 3^d
    # entries, and returned transposed
    shifts = np.unique(np.array([-1, 0, 1]) % m)
    neigh = np.zeros((1, N), dtype=np.int64)
    for axis in range(d):
        part = (shifts[:, None] + coords[:, axis]) % m * strides[axis]
        neigh = (neigh[:, None, :] + part).reshape(neigh.shape[0] * shifts.size, N)
    end = ends.take(neigh)  # one past the last rank of each paired cell
    first = np.where(neigh == cell, np.arange(1, N + 1), end - counts.take(neigh))
    end -= first
    return order, first.T, np.where(neigh >= cell, end, 0).T


def _run_pairs(
    order: np.ndarray, rank: np.ndarray, n_cand: np.ndarray, first: np.ndarray, count: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j, that ranks ``rank`` list, from their rows of
    ``_cell_candidates``' ``first`` and ``count`` and their candidate totals ``n_cand``."""
    ra = np.repeat(rank, n_cand)
    count, first = count.ravel(), first.ravel()
    rb = np.arange(ra.size) - np.repeat(np.cumsum(count) - count - first, count)
    i, j = order.take(ra), order.take(rb)
    return np.minimum(i, j), np.maximum(i, j)


def _pairs_within(
    pos: np.ndarray, box_length: float, i: np.ndarray, j: np.ndarray, cutoff: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, disp, r2) of the candidate pairs closer than ``cutoff``, with the (M, d)
    minimum-image displacements x_i - x_j; from candidates that hold every such
    pair in anti-diagonal order, what a fresh search at the cutoff returns."""
    disp, r2, keep = _filter(np.ascontiguousarray(pos.T), box_length, i, j, cutoff)
    return i.take(keep), j.take(keep), disp.take(keep, axis=1).T, r2.take(keep)


def _filter(coords: np.ndarray, box_length: float, i: np.ndarray, j: np.ndarray, cutoff: float):
    """The candidates' (d, M) displacements x_i - x_j, their r^2 and the indices of
    those closer than ``cutoff``, from the (d, N) ``coords``: gathers along its
    rows are two to five times faster than gathers of (N, d) rows, and indices
    several times faster to apply than a mask that keeps a scattered half."""
    disp, shift = coords.take(i, axis=1), coords.take(j, axis=1)
    disp -= shift
    minimum_image(disp, box_length, shift)
    r2 = np.einsum("ij,ij->j", disp, disp)
    return disp, r2, np.flatnonzero(r2 < cutoff * cutoff)


# candidates per block of ``_search_pairs``: a block's rows of 2^13 entries
# (64 KiB) stay below glibc's 128 KiB mmap threshold, and its (d, M) blocks just
# above it, where the threshold moves once one is freed, so later blocks reuse
# heap memory rather than mapping fresh pages and faulting them in.  On lj-split
# (about 39 000 candidates a build) faults per build fell from about 360 in one
# block of 2^18 to about 210; the answer does not depend on the block size
_SEARCH_BLOCK = 1 << 13


def _search_pairs(pos: np.ndarray, box_length: float, cutoff: float) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs i < j closer than ``cutoff`` as (i, j), in anti-diagonal order
    (ascending i + j, then ascending i; see the module notes), from one cell search.

    Particles are binned into about floor(L / cutoff) cells per side, so
    every pair within the cutoff lies in the same or an adjacent cell.
    """
    N, d = pos.shape
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")  # NaN has no cell
    # the margin keeps cell edges above the cutoff despite rounding in the binning;
    # the cap on cells per particle only coarsens the grid of a sparse system
    m = max(min(int(box_length / (cutoff * (1 + 1e-9))), int((8 * N) ** (1.0 / d))), 1)
    order, first, count = _cell_candidates(np.floor(pos * (m / box_length)).astype(np.int64) % m, m)
    coords = np.ascontiguousarray(pos.T)
    # expand and filter the candidates in blocks of consecutive ranks with at most
    # _SEARCH_BLOCK candidates (or a single rank), so that beyond the kept (i, j) a
    # search holds one block at a time
    rank, n_cand = np.arange(N), count.sum(axis=1)
    ends, kept, start = np.cumsum(n_cand), [], 0
    while start < N or not kept:
        before = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, before + _SEARCH_BLOCK, "right")), start + 1)
        rows = slice(start, stop)
        i, j = _run_pairs(order, rank[rows], n_cand[rows], first[rows], count[rows])
        start = stop
        if start >= N:  # the last block: free the (N, 3^d) runs before filtering it
            order = rank = n_cand = first = count = ends = None
        keep = _filter(coords, box_length, i, j, cutoff)[2]
        kept.append((i.take(keep), j.take(keep)))
        i = j = None  # so that two blocks of candidates are never held at once
    i, j = kept[0] if len(kept) == 1 else [np.concatenate(a) for a in zip(*kept)]
    del kept
    order = np.argsort((i + j) * N + i)  # the keys are distinct: each pair is listed once
    return i.take(order), j.take(order)


class PairList:
    """Verlet list: the pairs within ``cutoff`` + skin, reused across calls.

    A call returns (i, j, disp, r2), what a fresh search at ``cutoff`` returns,
    array for array, by filtering the pairs listed at the last build in their
    anti-diagonal order.  That is exact while no particle has
    moved more than skin/2 (minimum image) since the build; otherwise, or when the
    box or the particle count changes, the call first rebuilds the list with
    one ``_search_pairs`` search.  ``builds`` counts those searches.  A
    build raises ``ValueError`` when the cutoff is L/2 or more, where the
    minimum image would drop a pair's second image.

    Each build sets skin = max(0.1 cutoff, 0.3 s), with s = (L^d / N)^(1/d)
    the mean particle spacing.  The skin is sized by how far particles move
    between builds, which scales with the spacing, not with the cutoff:
    about 0.3 sigma is the usual choice (Allen & Tildesley, *Computer
    Simulation of Liquids*), and the spacing stands in for sigma.  A cutoff
    of 3 spacings or more, such as the default Ewald r_c, keeps 0.1 cutoff.
    Answers do not depend on when the list was built, so the skin sets only
    the cost: a wider one lists more pairs and builds less often.  A call
    between builds gathers, minimum-images and filters the listed pairs in
    place (see the module notes); the list keeps only its build's positions
    and (i, j), and no work arrays, whose memory a long-lived list would hold.
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
            # else the minimum image drops a pair's second image; the answer's cutoff
            # is checked, as the listed radius cutoff + skin may pass L/2
            if self.cutoff >= box_length / 2:
                raise ValueError(f"pair list cutoff {self.cutoff:g} must be below "
                                 f"half the box length {box_length:g}")
            # a NaN position makes the list stale, and the search raises on it
            self.skin = self._skin(box_length, *pos.shape)
            i, j = _search_pairs(pos, box_length, self.cutoff + self.skin)
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
        # a NaN is the max, and fails the comparison
        return not np.einsum("ij,ij->i", moved, moved).max(initial=0.0) <= (0.5 * self.skin) ** 2


def pair_force_sum(
    n: int, i: np.ndarray, j: np.ndarray, f_ij: np.ndarray, scale: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-particle sums of Newton pair forces: row k adds f_ij[k] to i[k], -f_ij[k] to j[k].

    With ``scale`` the pair force is scale[k] f_ij[k], formed for all axes in
    one product over the (d, M) transpose, so a radial kernel passes its
    displacements and its coefficients; the list's displacements are the
    transpose of a (d, M) block, whose rows are contiguous.
    """
    f = f_ij.T if scale is None else np.multiply(scale, f_ij.T)
    out = np.empty((n, f_ij.shape[1]))
    for axis, f_axis in enumerate(f):
        np.subtract(np.bincount(i, f_axis, minlength=n), np.bincount(j, f_axis, minlength=n),
                    out=out[:, axis])
    return out


def short_range_force_all(
    state: ParticleState, K1: RadialKernel, r0: float, alpha_N: float, pairs: PairList
) -> np.ndarray:
    """alpha_N * sum of K1(x_i - x_j) over the neighbours within r0, for every i.

    The pairs come from ``pairs``, a ``PairList`` at cutoff r0 that the caller
    carries across steps.  K1 is evaluated once per pair and the pair's force
    goes to both particles with opposite signs, so K1 must be odd; it is taken
    only as a ``RadialKernel``, odd by construction, whose coefficient is
    evaluated on the list's own r^2.
    """
    if not isinstance(K1, RadialKernel):
        raise TypeError("the short-range kernel K1 must be a RadialKernel, x c(|x|^2)")
    if state.box_length is None:
        raise ValueError("short-range force requires a periodic box")
    if pairs.cutoff != r0:
        raise ValueError("pair list cutoff differs from r0")
    i, j, disp, r2 = pairs(state.positions, state.box_length)
    return alpha_N * pair_force_sum(state.n_particles, i, j, disp, K1.coef(r2))
