"""Force estimators, their exact statistics, and the neighbour-pair search."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randbatch
from randbatch import forces
from randbatch.batching import enumerate_divisions, random_division
from randbatch.forces import (
    ClampedKernel,
    PairList,
    batch_force,
    chi,
    chi_variance_exact,
    division_forces,
    full_force,
    full_force_all,
    interaction_spread,
    neighbor_pairs,
    short_range_force_all,
    suggested_clamp_eps,
)
from randbatch.models import CuckerSmaleModel, cs_rhs
from randbatch.rng import RngStream
from randbatch.state import BatchDivision, KernelSpec, ParticleState, minimum_image

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
    bare = BatchDivision(assignment=division.assignment, batch_size=p)
    np.testing.assert_array_equal(division_forces(state, division, gaussian, 1 / (N - 1)),
                                  division_forces(state, bare, gaussian, 1 / (N - 1)))


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


def test_short_range_force_empty_when_all_far():
    state = ParticleState(positions=np.array([[0.0, 0, 0], [4.0, 4, 4]]), box_length=10.0)
    out = short_range_force_all(state, lambda x: x, r0=1.0, alpha_N=1.0)[0]
    np.testing.assert_array_equal(out, np.zeros(3))


def test_short_range_force_matches_brute_force():
    gen = RngStream(13).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)
    odd = lambda x: x * np.exp(-np.sum(x**2, axis=-1, keepdims=True))
    even = lambda x: x**2  # K1(-x) != -K1(x): each pair must be evaluated both ways
    for K1 in (odd, even):
        expected = _truncated_brute_force(state, K1, 1.5, 0.7)
        actual = short_range_force_all(state, K1, 1.5, 0.7)
        np.testing.assert_allclose(actual, expected, atol=1e-13)


def test_short_range_force_reuses_a_pair_list_across_a_rebuild():
    gen = RngStream(31).generator()
    state = ParticleState(positions=gen.uniform(0, 8.0, size=(64, 3)), box_length=8.0)
    K1 = lambda x: x * np.exp(-np.sum(x**2, axis=-1, keepdims=True))
    pairs = PairList(1.5)
    for _ in range(6):  # the list's skin/2 is 0.075: the jitter forces a rebuild
        np.testing.assert_allclose(short_range_force_all(state, K1, 1.5, 0.7, pairs),
                                   _truncated_brute_force(state, K1, 1.5, 0.7), atol=1e-13)
        state = state.replace(positions=state.positions + gen.uniform(-0.02, 0.02, (64, 3)))
    assert 2 <= pairs.builds < 6
    with pytest.raises(ValueError, match="cutoff"):
        short_range_force_all(state, K1, 1.2, 0.7, pairs)


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
    i, j = np.triu_indices(len(pos), k=1)
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
    expected = _brute_force_pairs(pos, L, cutoff)
    i, j, disp, r2 = neighbor_pairs(pos, L, cutoff)
    order = np.lexsort((j, i))
    np.testing.assert_array_equal(i[order], expected[0])
    np.testing.assert_array_equal(j[order], expected[1])
    np.testing.assert_array_equal(disp[order], expected[2])
    np.testing.assert_allclose(r2[order], expected[3], rtol=1e-15, atol=0)  # summation order
    if positions == "lattice":
        assert i.size == 0
    else:
        assert (0, 1) in set(zip(i.tolist(), j.tolist()))


def test_neighbor_pairs_rejects_non_finite_positions():
    pos = np.zeros((3, 3))
    pos[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        neighbor_pairs(pos, 4.0, 1.0)


def test_short_range_force_minimum_image_across_boundary():
    L = 10.0
    state = ParticleState(positions=np.array([[0.1, 0, 0], [L - 0.1, 0, 0]]), box_length=L)
    out = short_range_force_all(state, lambda x: x, r0=0.5, alpha_N=1.0)[0]
    # interaction seen at displacement +0.2 through the boundary
    np.testing.assert_allclose(out, [0.2, 0.0, 0.0], atol=1e-13)


def test_short_range_force_rejects_wide_cutoff():
    state = ParticleState(positions=np.zeros((2, 3)), box_length=4.0)
    with pytest.raises(ValueError):
        short_range_force_all(state, lambda x: x, r0=2.0, alpha_N=1.0)


def test_clamped_kernel_counts_and_bounds():
    clamped = ClampedKernel(lambda x: 1.0 / x, eps=1e-3)
    rows = np.array([[1.0], [1e-9], [0.0]])
    out = clamped(rows)
    assert clamped.clamp_count == 2
    assert np.all(np.isfinite(out))
    assert abs(out[1, 0]) <= 1e3 + 1e-9


def test_suggested_clamp_eps_periodic():
    state = ParticleState(positions=np.zeros((8, 2)) + 0.5, box_length=4.0)
    eps = suggested_clamp_eps(state)
    assert 0 < eps < 1e-5


def test_kernel_split_invariants_checked():
    from randbatch.models import lj_kernel_spec

    spec = lj_kernel_spec(sigma=1.0, epsilon=1.0, r0=1.6)
    spec.check_split(RngStream(6).generator(), dim=3)
    bad = KernelSpec(
        force=lambda x: x,
        split_radius=1.0,
        short_part=lambda x: x,  # does not vanish outside the cutoff
        smooth_part=lambda x: np.zeros_like(x),
    )
    with pytest.raises(ValueError):
        bad.check_split(RngStream(6).generator(), dim=1)


def test_particle_state_invariants():
    state = ParticleState(positions=np.array([[11.0, -1.0, 3.0]]), box_length=10.0)
    assert np.all((state.positions >= 0) & (state.positions < 10.0))
    with pytest.raises(ValueError):
        ParticleState(positions=np.array([[np.inf]]))
    with pytest.raises(ValueError):
        ParticleState(positions=np.zeros((3, 2)), velocities=np.zeros((2, 2)))
