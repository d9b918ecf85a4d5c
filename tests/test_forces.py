"""Force estimators, their exact statistics, and the neighbour-pair search."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randbatch
from randbatch import forces, runner
from randbatch.batching import enumerate_divisions, random_division
from randbatch.forces import (
    PairList,
    batch_force,
    batch_prefactor,
    chi,
    chi_variance_exact,
    division_forces,
    full_force,
    full_force_all,
    interaction_spread,
    neighbor_pairs,
    pair_force_sum,
    short_range_force_all,
)
from randbatch.models import ConsensusModel, CuckerSmaleModel, consensus_rhs, cs_rhs
from randbatch.rng import RngStream, SimStreams
from randbatch.state import (
    BatchDivision,
    KernelSpec,
    ParticleState,
    RadialKernel,
    minimum_image,
    wrap_positions,
)

LINE4 = ParticleState(positions=np.arange(4.0)[:, None])


def linear(x):
    return x


def gaussian(x):
    return np.exp(-np.asarray(x) ** 2)


def test_batch_force_zero_kernel():
    out = batch_force(0, LINE4, np.array([0, 1]), lambda x: np.zeros_like(x), 1.0)
    np.testing.assert_array_equal(out, [0.0])


def test_batch_force_full_batch_reduces_to_full_force():
    state = ParticleState(positions=RngStream(0).generator().standard_normal((6, 2)))
    full = full_force(2, state, gaussian, alpha_N=1 / 5)
    batched = batch_force(2, state, np.arange(6), gaussian, alpha_N=1 / 5)
    np.testing.assert_array_equal(full, batched)


def test_batch_force_arithmetic_oracle():
    # prefactor (N-1)/(p-1) * alpha_N = 3 * (1/3); K(0-1) = -1
    out = batch_force(0, LINE4, np.array([0, 1]), linear, alpha_N=1 / 3)
    np.testing.assert_allclose(out, [-1.0], atol=1e-15)


def test_batch_force_requires_membership():
    with pytest.raises(ValueError):
        batch_force(3, LINE4, np.array([0, 1]), linear, 1.0)


def test_full_force_two_particles():
    state = ParticleState(positions=np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(full_force(0, state, linear, 1.0), [-1.0])


def test_full_force_newton_third_law():
    state = ParticleState(positions=RngStream(3).generator().standard_normal((12, 3)))
    total = sum(full_force(i, state, lambda x: x * np.exp(-np.sum(x**2, -1, keepdims=True)), 1.0)
                for i in range(12))
    np.testing.assert_allclose(total, 0.0, atol=1e-10)


def test_full_force_matches_double_loop_oracle():
    gen = RngStream(4).generator()
    state = ParticleState(positions=gen.standard_normal((16, 2)))

    def oracle(i):
        acc = np.zeros(2)
        for j in range(16):
            if j != i:
                acc += gaussian(state.positions[i] - state.positions[j])
        return acc / 15

    for i in range(16):
        np.testing.assert_allclose(full_force(i, state, gaussian, 1 / 15), oracle(i), atol=1e-14)
        np.testing.assert_allclose(full_force_all(state, gaussian, 1 / 15)[i], oracle(i),
                                   atol=1e-14)


def test_chi_zero_for_full_batch_and_constant_kernel():
    np.testing.assert_allclose(chi(1, LINE4, np.arange(4), linear), 0.0, atol=1e-15)
    const = lambda x: np.full_like(np.atleast_2d(x), 3.7)
    np.testing.assert_allclose(chi(0, LINE4, np.array([0, 2]), const), 0.0, atol=1e-15)


def test_chi_arithmetic_oracle():
    np.testing.assert_allclose(chi(0, LINE4, np.array([0, 1]), linear), [1.0], atol=1e-14)


@pytest.mark.parametrize("kernel", [linear, gaussian])
@pytest.mark.parametrize("N,p", [(4, 2), (6, 2), (6, 3)])
def test_chi_statistics_match_enumeration(N, p, kernel):
    gen = RngStream(100 + N + p).generator()
    state = ParticleState(positions=gen.standard_normal((N, 1)))
    for i in range(N):
        values = np.array([chi(i, state, div.batch_of(i), kernel)
                           for div in enumerate_divisions(N, p)])
        np.testing.assert_allclose(values.mean(axis=0), 0.0, atol=1e-12)
        enumerated_var = float(np.mean(np.sum(values**2, axis=1)))
        assert abs(enumerated_var - chi_variance_exact(i, state, p, kernel)) < 1e-12


def test_chi_variance_trace_in_higher_dimension():
    gen = RngStream(8).generator()
    state = ParticleState(positions=gen.standard_normal((6, 2)))
    kernel = lambda x: np.sin(x)
    values = np.array([chi(0, state, div.batch_of(0), kernel)
                       for div in enumerate_divisions(6, 2)])
    trace = float(np.mean(np.sum(values**2, axis=1)))
    assert abs(trace - chi_variance_exact(0, state, 2, kernel)) < 1e-12


def test_chi_variance_vanishing_cases():
    assert chi_variance_exact(0, LINE4, 4, linear) == 0.0
    const = lambda x: np.full_like(np.atleast_2d(x), 2.0)
    assert abs(chi_variance_exact(0, LINE4, 2, const)) < 1e-15


def test_interaction_spread_matches_hand_sum():
    # positions 0,1,2,3; K = identity; pair values from particle 0: -1,-2,-3
    vals = np.array([-1.0, -2.0, -3.0])
    expected = np.sum((vals - vals.mean()) ** 2) / 2
    assert abs(interaction_spread(0, LINE4, linear) - expected) < 1e-14


def test_momentum_conservation_within_shared_division():
    gen = RngStream(9).generator()
    state = ParticleState(positions=gen.standard_normal((12, 3)))
    division = random_division(12, 3, gen)
    forces = division_forces(state, division, lambda x: np.sin(x), 1 / 11)
    np.testing.assert_allclose(forces.sum(axis=0), 0.0, atol=1e-10)


def test_division_forces_match_per_particle_batch_force():
    gen = RngStream(10).generator()
    state = ParticleState(positions=gen.standard_normal((10, 2)))
    division = random_division(10, 2, gen)
    forces = division_forces(state, division, gaussian, 1 / 9)
    for i in range(10):
        np.testing.assert_array_equal(
            forces[i], batch_force(i, state, division.batch_of(i), gaussian, 1 / 9)
        )


def test_division_forces_remainder_batch():
    gen = RngStream(12).generator()
    state = ParticleState(positions=gen.standard_normal((7, 1)))
    division = random_division(7, 3, gen)
    forces = division_forces(state, division, linear, 1 / 6)
    for i in range(7):
        np.testing.assert_array_equal(
            forces[i], batch_force(i, state, division.batch_of(i), linear, 1 / 6)
        )


@pytest.mark.parametrize("N,p", [(12, 3), (9, 4), (23, 4), (8, 8)])
def test_division_forces_same_from_kept_permutation_and_bare_assignment(N, p):
    gen = RngStream(13).generator()
    state = ParticleState(positions=gen.standard_normal((N, 2)))
    division = random_division(N, p, gen)
    # the order a bare assignment gives: its stable argsort, each batch ascending
    bare = BatchDivision(np.argsort(division.assignment, kind="stable"), p)
    np.testing.assert_array_equal(division_forces(state, division, gaussian, 1 / (N - 1)),
                                  division_forces(state, bare, gaussian, 1 / (N - 1)))


def _sorted_batches(division, N):
    """The batches read off ``division.order`` (None: all N), each sorted."""
    if division is None:
        return [np.arange(N)]
    order, p, n = division.order, division.batch_size, division.n_batches
    return [np.sort(order[b * p:] if b == n - 1 else order[b * p:(b + 1) * p]) for b in range(n)]


def _per_pair_oracle(division, term, weight):
    """weight(q) times the sum of term(i, j) over i's mates j, one pair at a time.

    The batches are read off ``division.order`` and summed in ascending order.
    """
    out = {}
    for batch in _sorted_batches(division, division.n_particles):
        for i in batch:
            terms = [term(i, j) for j in batch if j != i]
            out[i] = weight(batch.size) * sum(terms[1:], terms[0])
    return np.array([out[i] for i in range(division.n_particles)])


@pytest.mark.parametrize("N", [10, 11])  # N = 11 ends in a batch of three
@pytest.mark.parametrize("d", [1, 3])
def test_pair_batches_are_bit_identical_to_a_per_pair_oracle(N, d):
    gen = RngStream(50 + N + d).generator()
    x, v, nu = gen.standard_normal((3, N, d))
    division = random_division(N, 2, gen)
    kernel = lambda r: r * np.exp(-np.sum(r * r, axis=-1, keepdims=True))
    for L in (None, 2.5):
        state = ParticleState(positions=x, box_length=L)
        pos = state.positions
        expected = _per_pair_oracle(
            division, lambda i, j: kernel(minimum_image(pos[i] - pos[j], L)[None])[0],
            lambda q: batch_prefactor(0.3, N, q))
        assert np.array_equal(division_forces(state, division, kernel, 0.3), expected)

    cs = CuckerSmaleModel(N=N, dim=d)

    def cs_term(i, j):
        dx = x[j] - x[i]
        # psi's power on an array may round differently from numpy's scalar power
        return cs.psi(np.sqrt(np.einsum("k,k->", dx, dx))[None]) * (v[j] - v[i])

    expected = _per_pair_oracle(division, cs_term, lambda q: cs.kappa / (q - 1))
    assert np.array_equal(cs_rhs(x, v, cs, division), expected)

    adjacency = gen.uniform(0.0, 1.0, (N, N))
    model = ConsensusModel(N=N, kappa=0.8, nu=nu - nu.mean(axis=0),
                           adjacency=adjacency + adjacency.T, gamma=np.tanh, dim=d)
    expected = _per_pair_oracle(
        division, lambda i, j: (model.dispersion(model.nu[i], model.nu[j])
                                + model.adjacency[i, j] * np.tanh(x[j] - x[i])),
        lambda q: model.kappa / (q - 1))
    assert np.array_equal(consensus_rhs(x, model, division), expected)


@pytest.mark.parametrize("N", [10, 11])
def test_pair_batches_ignore_the_row_chunk_size(monkeypatch, N):
    # four pair terms per chunk would split every block into one-row chunks;
    # batches of two are one call whatever the chunk, and a batch of three still chunks
    monkeypatch.setattr(forces, "_CHUNK_PAIRS", 4)
    gen = RngStream(60 + N).generator()
    pos = gen.standard_normal((N, 2))
    division = random_division(N, 2, gen)
    kernel = lambda r: r * np.exp(-np.sum(r * r, axis=-1, keepdims=True))
    expected = _per_pair_oracle(division, lambda i, j: kernel((pos[i] - pos[j])[None])[0],
                                lambda q: batch_prefactor(0.3, N, q))
    state = ParticleState(positions=pos)
    assert np.array_equal(division_forces(state, division, kernel, 0.3), expected)


def _loop_oracle(division, pair_term, fields, weight):
    """``batch_pair_sum`` one batch, one particle and one mate at a time.

    Each pair term gets the rows of i and j alone, as (1, 1, 1, ...) arrays,
    and the terms of a particle are added left to right in ascending j.
    """
    N = len(fields[0])
    rows = {}
    for batch in _sorted_batches(division, N):
        for i in batch:
            total = None
            for j in batch[batch != i]:
                args = [np.asarray(f)[k].reshape(1, 1, 1, *np.shape(f)[1:])
                        for f in fields for k in (i, j)]
                term = np.asarray(pair_term(*args)).reshape(-1)
                total = term if total is None else total + term
            rows[i] = weight(batch.size) * total
    return np.array([rows[i] for i in range(N)])


def _sine_term(xi, xj):
    return np.sin(xi - xj)


_FLOCK = CuckerSmaleModel(N=2, dim=2)


def _flocking_term(xi, xj, vi, vj):
    dx = xj - xi
    return _FLOCK.psi(np.sqrt(np.einsum("...k,...k->...", dx, dx)))[..., None] * (vj - vi)


def _svgd_term(xi, xj, gi, gj, hi, hj):
    diffs = xi - xj
    k = np.exp(-np.einsum("...k,...k->...", diffs, diffs)[..., None] / hi)
    return (2.0 / hi) * diffs * k - k * gj


@pytest.mark.parametrize("N", [2, 3, 10, 11, 1001])  # odd N ends in a batch of three
def test_batches_of_two_equal_a_per_batch_loop(N):
    from randbatch.samplers import GaussianKernel, _batch_bandwidths

    gen = RngStream(70 + N).generator()
    x, v, g = gen.standard_normal((3, N, 2))
    # N = 2 is also the one batch of all N that no division describes
    divisions = [random_division(N, 2, gen)] + ([None] if N == 2 else [])
    for division in divisions:
        h = _batch_bandwidths(x, division, GaussianKernel())
        for term, fields in ((_sine_term, (x[:, :1],)), (_flocking_term, (x, v)),
                             (_svgd_term, (x, g, h))):
            weight = lambda q: 0.7 / (q - 1)
            got = forces.batch_pair_sum(division, term, fields, weight)
            assert np.array_equal(got, _loop_oracle(division, term, fields, weight))


def test_a_remainder_batch_of_two_equals_a_per_batch_loop():
    # p = 5 on N = 12 leaves a batch of two behind two batches of five
    gen = RngStream(80).generator()
    x, v = gen.standard_normal((2, 12, 2))
    division = random_division(12, 5, gen)
    weight = lambda q: 0.7 / (q - 1)
    for term, fields in ((_sine_term, (x[:, :1],)), (_flocking_term, (x, v))):
        got = forces.batch_pair_sum(division, term, fields, weight)
        assert np.array_equal(got, _loop_oracle(division, term, fields, weight))


@settings(max_examples=30, deadline=None)
@given(st.floats(-50, 50), st.floats(0.5, 20))
def test_minimum_image_bounds(x, L):
    wrapped = float(minimum_image(np.array([[x]]), L)[0, 0])
    assert -L / 2 - 1e-12 <= wrapped < L / 2 + 1e-12
    assert abs((wrapped - x) / L - round((wrapped - x) / L)) < 1e-9


def _truncated_brute_force(state, K1, r0, alpha_N):
    N = state.n_particles
    out = np.zeros_like(state.positions)
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            d = minimum_image(state.positions[i] - state.positions[j], state.box_length)
            if np.linalg.norm(d) < r0:
                out[i] += alpha_N * np.asarray(K1(d[None, :]))[0]
    return out


# K(x) = x and K(x) = x exp(-|x|^2) as radial kernels x c(|x|^2)
IDENTITY = RadialKernel(np.ones_like)
GAUSS = RadialKernel(lambda r2: np.exp(-r2))


def test_short_range_force_empty_when_all_far():
    state = ParticleState(positions=np.array([[0.0, 0, 0], [4.0, 4, 4]]), box_length=10.0)
    out = short_range_force_all(state, IDENTITY, r0=1.0, alpha_N=1.0)[0]
    np.testing.assert_array_equal(out, np.zeros(3))


def test_short_range_force_matches_brute_force():
    gen = RngStream(13).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)
    expected = _truncated_brute_force(state, GAUSS, 1.5, 0.7)
    np.testing.assert_allclose(short_range_force_all(state, GAUSS, 1.5, 0.7), expected, atol=1e-13)


def test_short_range_force_reuses_a_pair_list_across_a_rebuild():
    gen = RngStream(31).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)
    K1 = GAUSS
    pairs = PairList(1.5)
    for _ in range(6):  # moves of up to 0.27 skin/2 per axis and step force a rebuild
        np.testing.assert_allclose(short_range_force_all(state, K1, 1.5, 0.7, pairs),
                                   _truncated_brute_force(state, K1, 1.5, 0.7), atol=1e-13)
        jitter = gen.uniform(-0.02, 0.02, (64, 3)) * (pairs.skin / 0.15)
        state = state.replace(positions=state.positions + jitter)
    assert 2 <= pairs.builds < 6
    with pytest.raises(ValueError, match="cutoff"):
        short_range_force_all(state, K1, 1.2, 0.7, pairs)


def test_short_range_force_refuses_a_non_radial_k1():
    # each pair is evaluated once, as a Newton pair, so K1 must be odd; a radial
    # kernel is odd by construction, and any other callable is refused, odd or not,
    # before the list is searched
    gen = RngStream(33).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)
    pairs = PairList(1.5)
    for K1 in (lambda x: x * np.exp(-np.sum(x**2, axis=-1, keepdims=True)),  # odd
               lambda x: x**2):  # even
        with pytest.raises(TypeError, match="RadialKernel"):
            short_range_force_all(state, K1, 1.5, 0.7, pairs)
    assert pairs.builds == 0


def test_short_range_oddness_is_checked_on_list_builds_only():
    # a RadialKernel is odd by construction, so a list build adds no K1 call of
    # its own: a build and a reuse each evaluate the coefficient once, on the
    # list's own r^2, and a K1 that is not radial is refused on a stale list too
    gen = RngStream(33).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)
    calls = []
    K1 = RadialKernel(lambda r2: calls.append(r2.size) or np.exp(-r2))
    pairs = PairList(1.5)
    moved = state.replace(positions=state.positions + 0.2)
    for s in (state, state, moved):  # a build, a reuse, a rebuild
        got = short_range_force_all(s, K1, 1.5, 0.7, pairs)
        i, j, disp, r2 = pairs(s.positions, 8.0)
        np.testing.assert_array_equal(got, 0.7 * pair_force_sum(64, i, j, disp, np.exp(-r2)))
        assert calls[-1] == i.size
    assert len(calls) == 3 and pairs.builds == 2
    stale = moved.replace(positions=moved.positions + 0.2)
    with pytest.raises(TypeError, match="RadialKernel"):
        short_range_force_all(stale, lambda x: x**2, 1.5, 0.7, pairs)
    assert pairs.builds == 2


def test_short_range_kernel_gets_c_ordered_rows():
    # the pair list keeps its displacements axis-major; K1 sees none of them:
    # its coefficient gets the list's r^2, one C-ordered row of M values
    gen = RngStream(32).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)

    def coef(r2):
        assert r2.ndim == 1 and r2.flags.c_contiguous
        return np.exp(-r2)

    K1 = RadialKernel(coef)
    np.testing.assert_allclose(short_range_force_all(state, K1, 1.5, 0.7),
                               _truncated_brute_force(state, K1, 1.5, 0.7), atol=1e-13)


def test_pair_search_on_an_empty_system_twice():
    state = ParticleState(positions=np.zeros((0, 3)), box_length=5.0)
    pairs = PairList(1.0)
    for _ in range(2):
        i, j, disp, r2 = pairs(state.positions, 5.0)
        assert i.size == j.size == r2.size == 0 and disp.shape == (0, 3)
        assert short_range_force_all(state, IDENTITY, 1.0, 1.0, pairs).shape == (0, 3)
    assert pairs.builds == 1


def test_only_forces_searches_for_neighbour_pairs():
    # every other module takes its pairs from a PairList, which searches only on
    # rebuilds; any reference to neighbor_pairs outside forces.py (a call, an
    # import) would bring a per-call search back
    offenders = []
    for path in sorted(Path(randbatch.__file__).parent.glob("*.py")):
        if path.name == "forces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "neighbor_pairs":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _pair_sums(N, d):
    gen = RngStream(N).generator()
    x, v = gen.standard_normal((2, N, d))
    state = ParticleState(positions=x)
    division = random_division(N, N // 2, gen)  # two or three large batches
    return [full_force_all(state, np.sin, 1.0 / (N - 1)),
            division_forces(state, division, np.sin, 1.0),
            cs_rhs(x, v, CuckerSmaleModel(N=N, dim=d))]


@pytest.mark.parametrize("N, d, chunk", [(77, 3, 1000), (1001, 1, None), (700, 2, None)])
def test_chunked_batch_pair_sum_is_bit_identical_to_one_block(monkeypatch, N, d, chunk):
    # chunk None keeps the default of 2^18 pair terms, which splits N = 700 and
    # 1001 into row chunks; 1000 splits N = 77 into chunks of 13 rows
    monkeypatch.setattr(forces, "_CHUNK_PAIRS", N * N)
    whole = _pair_sums(N, d)
    monkeypatch.setattr(forces, "_CHUNK_PAIRS", chunk or 1 << 18)
    assert N % max(1, forces._CHUNK_PAIRS // (N - 1)) != 0
    for a, b in zip(_pair_sums(N, d), whole):
        assert np.array_equal(a, b)


def test_full_force_memory_is_linear_in_N():
    def peak(N):
        state = ParticleState(positions=RngStream(N).generator().standard_normal((N, 1)))
        tracemalloc.start()
        try:
            full_force_all(state, np.sin, 1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one (N, N-1, 1) block would grow 16-fold from 600 to 2400 particles
    assert peak(2400) <= 4 * peak(600)


def _brute_force_pairs(pos, L, cutoff):
    """Every pair i < j within ``cutoff``, in anti-diagonal order: by i + j, then by i."""
    i, j = np.triu_indices(len(pos), k=1)
    order = np.lexsort((i, i + j))
    i, j = i[order], j[order]
    disp = minimum_image(pos[i] - pos[j], L)
    r2 = np.einsum("ij,ij->i", disp, disp)
    keep = r2 < cutoff * cutoff
    return i[keep], j[keep], disp[keep], r2[keep]


def _lattice(L, n_side, dim):
    axes = np.meshgrid(*([np.arange(n_side) * (L / n_side)] * dim), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


@pytest.mark.parametrize(
    "L, cutoff, dim, positions",
    [
        (8.0, 5.0, 3, "random"),  # one cell per side
        (8.0, 3.5, 3, "random"),  # cutoff >= L/3: two cells per side
        (8.0, 1.5, 3, "random"),  # five cells per side
        (6.0, 1.3, 2, "random"),  # 2-d box
        (8.0, 0.9, 3, "lattice"),  # spacing 1: no pair within the cutoff
    ],
)
def test_neighbor_pairs_matches_brute_force(L, cutoff, dim, positions):
    if positions == "lattice":
        pos = _lattice(L, 8, dim)
    else:
        pos = RngStream(17).generator().uniform(0, L, size=(120, dim))
        pos[0] = 0.0
        pos[1] = np.nextafter(L, 0.0)  # one ulp from pos[0] through the boundary
    # the brute-force pairs come in anti-diagonal order, and so must the search's
    expected = _brute_force_pairs(pos, L, cutoff)
    i, j, disp, r2 = neighbor_pairs(pos, L, cutoff)
    np.testing.assert_array_equal(i, expected[0])
    np.testing.assert_array_equal(j, expected[1])
    np.testing.assert_array_equal(disp, expected[2])
    np.testing.assert_allclose(r2, expected[3], rtol=1e-15, atol=0)  # summation order
    if positions == "lattice":
        assert i.size == 0
    else:
        assert (0, 1) in set(zip(i.tolist(), j.tolist()))


@pytest.mark.parametrize("n, d, M", [(300, 3, 20_000), (50, 2, 1000), (2, 1, 1), (40, 3, 0)])
def test_pair_force_sum_has_the_same_bits_in_ij_and_anti_diagonal_order(n, d, M):
    # pairs sharing i come by ascending j, and pairs sharing j by ascending i,
    # in both orders, so each particle's bincount adds the same terms in turn
    gen = RngStream(70 + n).generator()
    i, j = np.triu_indices(n, k=1)
    pick = np.sort(gen.choice(i.size, size=M, replace=False))
    i, j = i[pick], j[pick]  # (i, j) order
    f_ij, scale = gen.standard_normal((M, d)), gen.standard_normal(M)
    anti = np.lexsort((i, i + j))
    assert M < 3 or not np.array_equal(anti, np.arange(M))
    for s in (None, scale):
        ij = pair_force_sum(n, i, j, f_ij, s)
        np.testing.assert_array_equal(
            ij, pair_force_sum(n, i[anti], j[anti], f_ij[anti], None if s is None else s[anti]))
        # and summing the other way round changes bits: the test can see an order
        if M == 20_000 and s is None:
            assert not np.array_equal(ij, pair_force_sum(n, i[::-1], j[::-1], f_ij[::-1]))


@pytest.mark.parametrize("d, N, L, cutoff", [(1, 400, 50.0, 2.0), (2, 300, 12.0, 1.5),
                                             (3, 200, 6.0, 1.6)])
def test_a_search_in_many_blocks_equals_one_block(monkeypatch, d, N, L, cutoff):
    pos = RngStream(60 + d).generator().uniform(0, L, size=(N, d))
    monkeypatch.setattr(forces, "_CHUNK_PAIRS", N * N)
    whole = neighbor_pairs(pos, L, cutoff)
    blocks = []
    within = forces._pairs_within
    monkeypatch.setattr(forces, "_pairs_within", lambda *a: blocks.append(a[2].size) or within(*a))
    monkeypatch.setattr(forces, "_CHUNK_PAIRS", 40)
    split = neighbor_pairs(pos, L, cutoff)
    assert len(blocks) > 20 and max(blocks) <= 40 + N  # at most the budget, or a single rank
    assert whole[0].size > 0 and all(np.array_equal(a, b) for a, b in zip(split, whole))


@pytest.mark.parametrize(
    "d, N, L, cutoff, m",  # m: cells per side of the list's grid, at cutoff + skin
    [
        (3, 64, 8.0, 1.5, 3),
        (3, 64, 8.0, 3.0, 2),
        (3, 64, 8.0, 3.7, 1),
        (2, 100, 10.0, 1.2, 6),
        (2, 100, 10.0, 3.5, 2),
        (2, 100, 10.0, 4.8, 1),
        (1, 50, 20.0, 1.0, 17),
        (1, 50, 20.0, 7.0, 2),
        (1, 50, 20.0, 9.5, 1),
    ],
)
def test_pair_list_answers_equal_a_fresh_search_along_a_jittered_trajectory(
    monkeypatch, d, N, L, cutoff, m
):
    grids = []
    search = forces._cell_candidates
    monkeypatch.setattr(forces, "_cell_candidates", lambda c, k: grids.append(k) or search(c, k))
    gen = RngStream(40 + d).generator()
    pos = gen.uniform(0, L, size=(N, d))
    pairs = PairList(cutoff)
    for _ in range(12):
        listed = pairs(pos, L)
        n = len(grids)
        fresh = neighbor_pairs(pos, L, cutoff)
        del grids[n:]  # keep only the grids the list was built on
        assert all(np.array_equal(a, b) for a, b in zip(listed, fresh))
        # each step moves a particle by at most 0.2 sqrt(d) skin: a build every few steps
        pos = pos + gen.uniform(-0.2, 0.2, size=(N, d)) * pairs.skin
    assert set(grids) == {m} and 2 < pairs.builds < 12


@pytest.mark.parametrize("name, model, method", [("lj-split", "lj-fluid", "rbm-split"),
                                                 ("electrolyte-rbe", "electrolyte", "rbe")])
def test_the_skin_cannot_change_a_trajectory(monkeypatch, name, model, method):
    cfg = runner.validate(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                          / f"{name}.yaml")
    spec = runner.MODELS[model]

    def episode():
        sim = spec.build(cfg, SimStreams(5))
        for k in range(1, cfg["run"]["steps"] + 1):
            sim.state = spec.steppers[method](sim, k, cfg["run"]["dt"])
            for hook in sim.hooks:
                hook(sim, k, cfg["run"]["dt"])
        if model == "lj-fluid":
            return sim.state, [sim.system.pairs.builds]
        return sim.state, [sim.system.ions.pairs.builds, sim.model.pairs.builds]

    state, builds = episode()
    monkeypatch.setattr(PairList, "_skin", lambda self, *shape: 0.1 * self.cutoff)
    pinned, pinned_builds = episode()
    assert sum(builds) < sum(pinned_builds)
    np.testing.assert_array_equal(state.positions, pinned.positions)
    np.testing.assert_array_equal(state.velocities, pinned.velocities)


def test_neighbor_pairs_rejects_non_finite_positions():
    pos = np.zeros((3, 3))
    pos[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        neighbor_pairs(pos, 4.0, 1.0)


def test_short_range_force_minimum_image_across_boundary():
    L = 10.0
    state = ParticleState(positions=np.array([[0.1, 0, 0], [L - 0.1, 0, 0]]), box_length=L)
    out = short_range_force_all(state, IDENTITY, r0=0.5, alpha_N=1.0)[0]
    # interaction seen at displacement +0.2 through the boundary
    np.testing.assert_allclose(out, [0.2, 0.0, 0.0], atol=1e-13)


def test_short_range_force_rejects_wide_cutoff():
    state = ParticleState(positions=np.zeros((2, 3)), box_length=4.0)
    with pytest.raises(ValueError, match="half the box"):
        short_range_force_all(state, IDENTITY, r0=2.0, alpha_N=1.0)


def test_pair_list_refuses_a_cutoff_of_half_the_box():
    pos = RngStream(34).generator().uniform(0, 10.0, size=(20, 3))
    pairs = PairList(5.0)
    with pytest.raises(ValueError, match="half the box"):
        pairs(pos, 10.0)
    assert pairs.builds == 0
    # the box the list is asked about decides: the same list answers in a wider one
    assert all(np.array_equal(a, b)
               for a, b in zip(pairs(pos, 10.5), neighbor_pairs(pos, 10.5, 5.0)))


def test_pair_list_just_below_half_the_box_answers_equal_a_fresh_search():
    # at r_c = 0.49 L the listed radius r_c + skin passes L/2; only r_c is checked
    L = 10.0
    gen = RngStream(35).generator()
    pos = gen.uniform(0, L, size=(60, 3))
    pairs = PairList(0.49 * L)
    for _ in range(6):
        listed = pairs(pos, L)
        assert pairs.cutoff + pairs.skin > L / 2
        assert all(np.array_equal(a, b) for a, b in zip(listed, neighbor_pairs(pos, L, 0.49 * L)))
        pos = pos + gen.uniform(-0.3, 0.3, size=pos.shape) * pairs.skin
    assert pairs.builds >= 2


def test_kernel_split_invariants_checked():
    from randbatch.models import lj_kernel_spec

    spec = lj_kernel_spec(sigma=1.0, epsilon=1.0, r0=1.6)
    spec.check_split(RngStream(6).generator(), dim=3)
    zero = RadialKernel(np.zeros_like)
    # K1 = x does not vanish outside the cutoff, though K1 + K2 = K everywhere
    bad = KernelSpec(force=IDENTITY, split_radius=1.0, short_part=IDENTITY, smooth_part=zero)
    with pytest.raises(ValueError, match="does not vanish"):
        bad.check_split(RngStream(6).generator(), dim=1)
    # K1 = x inside the cutoff and 0 beyond it, but K1 + K2 misses K = x beyond it
    inside = RadialKernel(lambda r2: np.where(r2 < 1.0, 1.0, 0.0))
    bad = KernelSpec(force=IDENTITY, split_radius=1.0, short_part=inside, smooth_part=zero)
    with pytest.raises(ValueError, match="does not reproduce"):
        bad.check_split(RngStream(6).generator(), dim=1)
    # a short part that is not radial is refused where the split is built
    with pytest.raises(TypeError, match="RadialKernel"):
        KernelSpec(force=IDENTITY, split_radius=1.0, short_part=lambda x: x, smooth_part=zero)


def _np_mod_wrap(positions, L):
    """wrap_positions as the np.mod formula alone, with no in-box shortcut."""
    wrapped = np.mod(positions, L)
    return np.where(wrapped < L, wrapped, 0.0)


def test_wrap_positions_matches_np_mod_in_values_and_sign_bits():
    L = 10.0
    edge = [-0.0, 0.0, 5e-324, np.nextafter(L, 0.0), L, -1e-300, 1.5 * L]
    inside = RngStream(34).generator().uniform(0.0, L, size=(50, 3))
    cases = [np.array([[v, 1.0, 2.0]]) for v in edge]
    cases += [np.array([edge]), inside, inside[:, :1], np.array([[5e-324, np.nextafter(L, 0.0)]])]
    for pos in cases:
        expected = _np_mod_wrap(pos, L)
        out = wrap_positions(pos, L)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))
        assert np.all((out >= 0) & (out < L))
    # an array wholly inside the box is returned as is, and a state shares it
    assert wrap_positions(inside, L) is inside
    assert ParticleState(positions=inside, box_length=L).positions is inside


def test_particle_state_invariants():
    state = ParticleState(positions=np.array([[11.0, -1.0, 3.0]]), box_length=10.0)
    assert np.all((state.positions >= 0) & (state.positions < 10.0))
    with pytest.raises(ValueError):
        ParticleState(positions=np.array([[np.inf]]))
    with pytest.raises(ValueError):
        ParticleState(positions=np.zeros((3, 2)), velocities=np.zeros((2, 2)))
