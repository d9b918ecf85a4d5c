"""Random batch divisions and with-replacement batch sampling, drawn from a
``np.random.Generator`` (``RngStream.generator()`` gives a stream's)."""

import numpy as np

from .state import BatchDivision


def random_division(N: int, p: int, rng: np.random.Generator) -> BatchDivision:
    """Uniformly random partition of {0..N-1} into batches of size p.

    Consecutive chunks of a uniform permutation form the batches, which is
    O(N).  When p does not divide N, the leftover N mod p particles form one
    smaller batch if at least 2 remain, otherwise the single leftover joins
    the last full batch.  The division holds the permutation alone, as its
    ``order``: grouping the batches needs no sort, and the per-particle
    ``assignment`` is only built if something reads it.
    """
    if p < 2:
        raise ValueError("batch size must be >= 2")
    if p > N:
        raise ValueError("batch size cannot exceed the particle count")
    return BatchDivision(rng.permutation(N), p)


def sample_batch_with_replacement(N: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """One batch of p distinct indices, uniform over all p-subsets.

    "With replacement" refers to successive calls: the same particle may
    appear in several consecutively drawn batches.
    """
    if p < 2:
        raise ValueError("batch size must be >= 2")
    if p > N:
        raise ValueError("batch size cannot exceed the particle count")
    return np.sort(rng.choice(N, size=p, replace=False))


def batch_index_matrices(division: BatchDivision):
    """A division's batches as (size, (n_batches, size) index matrix) blocks.

    The full batches of size p come first as one reshape of the division's
    ``order``, then the last batch when it holds a remainder.  Rows are
    sorted so batch sums run in ascending particle order.
    """
    order, p = division.order, division.batch_size
    tail = order.size - (division.n_batches - 1) * p  # size of the last batch
    if tail == p:
        blocks = [(p, order.reshape(-1, p))]
    else:
        blocks = [(p, order[: order.size - tail].reshape(-1, p)), (tail, order[-tail:][None, :])]
    return [(size, np.sort(idx, axis=1)) for size, idx in blocks if idx.size]

