"""Random divisions and with-replacement batch sampling."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (batch_of, count_divisions, enumerate_divisions, iter_batches,
                     validate_division)
from randbatch.batching import batch_index_matrices, random_division, sample_batch_with_replacement
from randbatch.rng import RngStream
from randbatch.state import BatchDivision

# p | N, N mod p = 1, N mod p >= 2, p = N; then p = 2, whose rows are ordered by
# min/max, with N = 11 adding a last batch of 3 that np.sort orders
LAYOUTS = [(12, 3), (9, 4), (23, 4), (8, 8), (10, 2), (11, 2)]


def test_single_batch_when_p_equals_n():
    div = random_division(4, 4, RngStream(1).generator())
    assert div.n_batches == 1
    np.testing.assert_array_equal(np.sort(batch_of(div, 0)), np.arange(4))


def test_two_disjoint_batches_cover_everything():
    div = random_division(4, 2, RngStream(2).generator())
    assert div.n_batches == 2
    members = np.concatenate([batch_of(div, 0), *(batch_of(div, i) for i in range(4)
                                                 if div.assignment[i] != div.assignment[0])])
    b0 = batch_of(div, 0)
    b1 = np.setdiff1d(np.arange(4), b0)
    assert b0.size == 2 and b1.size == 2
    np.testing.assert_array_equal(np.sort(np.concatenate([b0, b1])), np.arange(4))


def test_pairing_frequency_is_one_third():
    # among the 3 perfect pairings of 4 elements, {0,1} share a batch in 1
    gen = RngStream(123).generator()
    hits = 0
    n_draws = 300_000
    for _ in range(n_draws):
        div = random_division(4, 2, gen)
        hits += div.assignment[0] == div.assignment[1]
    assert abs(hits / n_draws - 1 / 3) < 0.005


def test_remainder_batch_rules():
    # leftover >= 2 becomes its own batch
    div = random_division(8, 3, RngStream(3).generator())
    sizes = sorted(np.bincount(div.assignment))
    assert sizes == [2, 3, 3]
    validate_division(div)
    # a lone leftover joins the last batch instead
    div = random_division(7, 3, RngStream(4).generator())
    sizes = sorted(np.bincount(div.assignment))
    assert sizes == [3, 4]
    validate_division(div)


def test_invalid_batch_sizes_rejected():
    with pytest.raises(ValueError):
        random_division(8, 1, RngStream(0).generator())
    with pytest.raises(ValueError):
        random_division(4, 5, RngStream(0).generator())
    with pytest.raises(ValueError):
        sample_batch_with_replacement(4, 5, RngStream(0).generator())


def test_determinism_same_stream_same_division():
    a = random_division(64, 4, RngStream(seed=9, stream_id=2).generator())
    b = random_division(64, 4, RngStream(seed=9, stream_id=2).generator())
    np.testing.assert_array_equal(a.assignment, b.assignment)
    c = random_division(64, 4, RngStream(seed=9, stream_id=3).generator())
    assert not np.array_equal(a.assignment, c.assignment)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_partition_property(n_mult, p, seed):
    N = n_mult * p  # keep p | N in the property; remainders tested separately
    div = random_division(N, p, RngStream(seed).generator())
    counts = np.bincount(div.assignment, minlength=N // p)
    assert counts.sum() == N
    assert np.all(counts == p)
    validate_division(div)


def test_with_replacement_full_set():
    np.testing.assert_array_equal(sample_batch_with_replacement(5, 5, RngStream(1).generator()),
                                  np.arange(5))


def test_with_replacement_distinct_in_range():
    gen = RngStream(5).generator()
    for _ in range(200):
        batch = sample_batch_with_replacement(10, 4, gen)
        assert len(set(batch.tolist())) == 4
        assert batch.min() >= 0 and batch.max() < 10


def test_with_replacement_pair_frequencies():
    gen = RngStream(11).generator()
    counts = {}
    n_draws = 100_000
    for _ in range(n_draws):
        pair = tuple(sample_batch_with_replacement(4, 2, gen))
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 6
    for freq in counts.values():
        assert abs(freq / n_draws - 1 / 6) < 0.01


def test_validate_refuses_an_order_that_is_not_a_permutation():
    # read first, this order's assignment would hold an uninitialised entry
    with pytest.raises(ValueError, match=r"order is not a permutation of 0\.\.5"):
        validate_division(BatchDivision(np.array([0, 0, 1, 2, 3, 4]), 2))


@pytest.mark.parametrize("N,p,expected", [(4, 2, 3), (6, 2, 15), (6, 3, 10), (4, 4, 1)])
def test_enumeration_counts(N, p, expected):
    divisions = list(enumerate_divisions(N, p))
    assert len(divisions) == expected
    assert count_divisions(N, p) == expected
    seen = set()
    for div in divisions:
        validate_division(div)
        key = tuple(sorted(tuple(sorted(map(int, b))) for b in iter_batches(div)))
        seen.add(key)
    assert len(seen) == expected


def test_batch_index_matrices_roundtrip():
    gen = RngStream(21).generator()
    for N, p in [(23, 4), (10, 2), (11, 2)]:
        div = random_division(N, p, gen)
        all_members = np.concatenate([idx.ravel() for _, idx in batch_index_matrices(div)])
        np.testing.assert_array_equal(np.sort(all_members), np.arange(N))
        for size, idx in batch_index_matrices(div):
            assert idx.shape[1] == size
            assert np.all(np.diff(idx, axis=1) > 0)  # rows sorted


@pytest.mark.parametrize("N,p", LAYOUTS)
def test_kept_permutation_groups_like_the_sorted_assignment(N, p):
    div = random_division(N, p, RngStream(N + p).generator())
    bare = BatchDivision(np.argsort(div.assignment, kind="stable"), p)
    kept, sorted_ = batch_index_matrices(div), batch_index_matrices(bare)
    assert [size for size, _ in kept] == [size for size, _ in sorted_]
    for (_, a), (_, b) in zip(kept, sorted_):
        np.testing.assert_array_equal(a, b)
    batches = list(iter_batches(div))
    assert len(batches) == div.n_batches
    for batch in batches:
        np.testing.assert_array_equal(batch, batch_of(div, batch[0]))


def _assignment_formula(perm: np.ndarray, p: int) -> np.ndarray:
    """Each particle's batch, written out: consecutive chunks of ``perm`` of size p."""
    N = perm.size
    n_full, remainder = N // p, N % p
    batch_ids = np.minimum(np.arange(N) // p, n_full - (1 if remainder == 1 else 0))
    if remainder == 1:
        batch_ids[-1] = n_full - 1  # lone leftover joins the last full batch
    assignment = np.empty(N, dtype=np.int64)
    assignment[perm] = batch_ids
    return assignment


def test_derived_assignment_matches_the_explicit_formula():
    gen = RngStream(31).generator()
    for N in range(2, 41):
        for p in range(2, N + 1):  # remainders 0, 1 and >= 2
            div = random_division(N, p, gen)
            expected = _assignment_formula(div.order, p)
            assert div.assignment.dtype == expected.dtype
            assert np.array_equal(div.assignment, expected)
            assert div.n_batches == expected.max() + 1
            assert div.order.size == N
            validate_division(div)


def test_random_division_allocates_only_its_permutation():
    N, gen = 10**5, RngStream(32).generator()
    random_division(N, 2, gen)  # warm-up
    tracemalloc.start()
    try:
        div = random_division(N, 2, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * div.order.nbytes  # 800 kB; an assignment array would double it


def _set_partitions(n: int):
    """Every partition of {0..n-1}, as restricted-growth strings (block of each element)."""
    def rec(prefix, n_blocks):
        if len(prefix) == n:
            yield prefix
            return
        for b in range(n_blocks + 1):
            yield from rec(prefix + [b], max(n_blocks, b + 1))

    yield from rec([0], 1)


@pytest.mark.parametrize("N", range(2, 10))
def test_count_divisions_counts_the_layouts_random_division_draws(N):
    layouts = Counter(tuple(sorted(Counter(blocks).values())) for blocks in _set_partitions(N))
    gen = RngStream(33).generator()
    for p in range(2, N + 1):
        drawn = tuple(sorted(np.bincount(random_division(N, p, gen).assignment)))
        assert count_divisions(N, p) == layouts[drawn] > 0
