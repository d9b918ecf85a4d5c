"""Random batch divisions and with-replacement batch sampling."""

from typing import Iterator, List, Union

import numpy as np

from .rng import RngStream
from .state import BatchDivision

GeneratorLike = Union[np.random.Generator, RngStream]


def _as_generator(rng: GeneratorLike) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def random_division(N: int, p: int, rng: GeneratorLike) -> BatchDivision:
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
    return BatchDivision(order=_as_generator(rng).permutation(N), batch_size=p)


def sample_batch_with_replacement(N: int, p: int, rng: GeneratorLike) -> np.ndarray:
    """One batch of p distinct indices, uniform over all p-subsets.

    "With replacement" refers to successive calls: the same particle may
    appear in several consecutively drawn batches.
    """
    if p < 2:
        raise ValueError("batch size must be >= 2")
    if p > N:
        raise ValueError("batch size cannot exceed the particle count")
    gen = _as_generator(rng)
    return np.sort(gen.choice(N, size=p, replace=False))


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
        assignment = np.empty(N, dtype=np.int64)
        for b, members in enumerate(batches):
            assignment[members] = b
        yield BatchDivision(assignment=assignment, batch_size=p)


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


def count_divisions(N: int, p: int) -> int:
    """Number of distinct partitions ``random_division(N, p, ...)`` can draw.

    N // p batches of size p, except that a lone leftover makes the last one
    p + 1, and a remainder of at least 2 forms one more batch of its own.
    """
    from math import factorial

    n_p = N // p - (N % p == 1)  # batches of exactly p; at most one other batch
    return factorial(N) // (factorial(p) ** n_p * factorial(n_p) * factorial(N - n_p * p))
