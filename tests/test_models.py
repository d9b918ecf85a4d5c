"""Model zoo: analytic references and right-hand sides."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from oracles import (batch_of, equilibrium_density, equilibrium_mode, iter_batches,
                     neighbor_pairs)
from randbatch import forces
from randbatch.batching import random_division
from randbatch.forces import pair_force_sum
from randbatch.integrators import direct_step, rbm_step_first_order
from randbatch.models import (
    ConsensusModel,
    CuckerSmaleModel,
    ElectrolyteModel,
    WealthModel,
    consensus_functionals,
    consensus_rhs,
    cs_rhs,
    flocking_functionals,
    lj_kernel_spec,
    semicircle_cdf,
    semicircle_density,
)
from randbatch.rng import RngStream, SimStreams
from randbatch.runner import run, validate_dict
from randbatch.state import ParticleState


def test_semicircle_values():
    assert semicircle_density(0.0) == pytest.approx(math.sqrt(2) / math.pi)
    assert semicircle_density(math.sqrt(2)) == 0.0
    assert semicircle_density(-math.sqrt(2)) == 0.0
    assert semicircle_density(2.0) == 0.0


def test_semicircle_normalization_by_quadrature():
    val, _ = quad(lambda x: float(semicircle_density(x)), -math.sqrt(2), math.sqrt(2))
    assert abs(val - 1.0) < 1e-8
    assert semicircle_cdf(-math.sqrt(2)) == pytest.approx(0.0, abs=1e-14)
    assert semicircle_cdf(math.sqrt(2)) == pytest.approx(1.0)
    # CDF derivative is the density
    h = 1e-6
    mid = (semicircle_cdf(0.3 + h) - semicircle_cdf(0.3 - h)) / (2 * h)
    assert mid == pytest.approx(semicircle_density(0.3), abs=1e-8)


def test_wealth_density_support_and_normalization():
    model = WealthModel(N=100, kappa=1.0, D=0.5)
    np.testing.assert_array_equal(equilibrium_density(model, np.array([-1.0, 0.0])), [0.0, 0.0])
    val, _ = quad(lambda y: float(equilibrium_density(model, y)), 0, 200, limit=200)
    assert abs(val - 1.0) < 1e-6


def test_wealth_mode_matches_numeric_maximization():
    model = WealthModel(N=100, kappa=1.3, D=0.4)
    res = minimize_scalar(lambda y: -float(equilibrium_density(model, y)),
                          bounds=(1e-3, 10), method="bounded",
                          options={"xatol": 1e-10})
    assert abs(res.x - equilibrium_mode(model)) < 1e-6


def test_wealth_cdf_consistent_with_density():
    model = WealthModel(N=100, kappa=1.0, D=0.5)
    for y in (0.3, 0.8, 2.0):
        val, _ = quad(lambda u: float(equilibrium_density(model, u)), 0, y, limit=200)
        assert abs(val - float(model.equilibrium_cdf(np.array([y]))[0])) < 1e-8


def test_wealth_stability_band():
    # Y stays finite under the RBM update at dt = 1e-3, kappa = D = 1
    gen = RngStream(1).generator()
    N, dt, steps = 16, 1e-3, 1_000_000
    kappa, D = 1.0, 1.0
    y = np.abs(gen.standard_normal(N))
    sq = math.sqrt(2 * D * dt)
    for _ in range(steps):
        perm = gen.permutation(N).reshape(-1, 2)
        partner = np.empty(N, dtype=int)
        partner[perm[:, 0]] = perm[:, 1]
        partner[perm[:, 1]] = perm[:, 0]
        y = y - dt * kappa * (y - y[partner]) + sq * y * gen.standard_normal(N)
        y = np.abs(y)
    assert np.all(np.isfinite(y))


def test_cs_rhs_flocked_fixed_point():
    model = CuckerSmaleModel(N=5, kappa=1.0, beta=0.4, dim=2)
    x = RngStream(2).generator().standard_normal((5, 2))
    v = np.tile([0.3, -0.7], (5, 1))
    np.testing.assert_allclose(cs_rhs(x, v, model), 0.0, atol=1e-14)


def test_cs_rhs_two_body_linear_alignment():
    model = CuckerSmaleModel(N=2, kappa=1.5, beta=0.0, dim=1)
    x = np.array([[0.0], [5.0]])
    v = np.array([[1.0], [-1.0]])
    dv = cs_rhs(x, v, model)
    np.testing.assert_allclose(dv[0], [1.5 * (-1.0 - 1.0)], atol=1e-14)
    np.testing.assert_allclose(dv[1], [1.5 * (1.0 + 1.0)], atol=1e-14)


def test_cs_rhs_momentum_conservation_batchwise():
    model = CuckerSmaleModel(N=12, kappa=1.0, beta=0.4, dim=3)
    gen = RngStream(3).generator()
    x, v = gen.standard_normal((12, 3)), gen.standard_normal((12, 3))
    np.testing.assert_allclose(cs_rhs(x, v, model).sum(axis=0), 0.0, atol=1e-12)
    division = random_division(12, 3, gen)
    dv = cs_rhs(x, v, model, division)
    for batch in iter_batches(division):
        np.testing.assert_allclose(dv[batch].sum(axis=0), 0.0, atol=1e-12)


def test_cs_psi_monotone():
    model = CuckerSmaleModel(N=2, beta=0.7)
    r = RngStream(4).generator().uniform(0, 10, size=(50, 2))
    vals = model.psi(r)
    sign = (vals[:, 0] - vals[:, 1]) * (r[:, 0] - r[:, 1])
    assert np.all(sign <= 1e-15)
    assert np.all(vals > 0) and np.all(vals <= 1.0)


def test_flocking_functionals_values():
    x = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    v = np.zeros((2, 3))
    sx, sv = flocking_functionals(x, v)
    assert sx == pytest.approx(0.5)
    assert sv == 0.0
    same = np.tile([1.0, 2.0, 3.0], (4, 1))
    assert flocking_functionals(same, same) == (pytest.approx(0.0, abs=1e-12),
                                                pytest.approx(0.0, abs=1e-12))


def test_cucker_smale_system_takes_a_symplectic_euler_step_under_cs_rhs():
    model = CuckerSmaleModel(N=10, beta=0.4, dim=2)
    state = model.initial(RngStream(6).generator())
    stepped = rbm_step_first_order(state, model.system(), 3, 0.1, SimStreams(2))
    division = random_division(10, 3, SimStreams(2).division)
    v = state.velocities + 0.1 * cs_rhs(state.positions, state.velocities, model, division)
    assert np.array_equal(stepped.velocities, v)
    assert np.array_equal(stepped.positions, state.positions + 0.1 * v)  # x moves with the new v


def test_consensus_system_takes_an_euler_step_under_consensus_rhs():
    model = ConsensusModel(N=8, dim=2)
    state = model.initial(RngStream(7).generator())
    stepped = direct_step(state, model.system(), 0.05, SimStreams(3))
    expected = state.positions + 0.05 * consensus_rhs(state.positions, model)
    assert np.array_equal(stepped.positions, expected)


def _default_rbm_metrics(model, tmp_path):
    cfg = validate_dict({"model": {"id": model}, "method": "rbm"})
    return json.loads((run(cfg, out_root=tmp_path) / "metrics.json").read_text())


def test_cucker_smale_rbm_flocks_at_the_default_size(tmp_path):
    # the velocity spread falls monotonically by more than six decades, while the
    # position spread stays bounded (Ha, Jin & Kim, M3AS 2021)
    metrics = _default_rbm_metrics("cucker-smale", tmp_path)
    assert metrics["v_spread_monotone_after_transient"] is True
    assert metrics["v_spread_decades"] >= 6
    assert metrics["x_spread_sup_ratio"] <= 2.2


def test_consensus_rbm_contracts_at_the_default_size(tmp_path):
    assert _default_rbm_metrics("consensus", tmp_path)["m2_final_over_initial"] < 1e-15


def test_flocking_functionals_match_double_loop():
    gen = RngStream(5).generator()
    x = gen.standard_normal((7, 3))
    v = gen.standard_normal((7, 3))
    sx, sv = flocking_functionals(x, v)
    brute_x = np.mean([[np.sum((x[i] - x[j]) ** 2) for j in range(7)] for i in range(7)])
    brute_v = np.mean([[np.sum((v[i] - v[j]) ** 2) for j in range(7)] for i in range(7)])
    assert sx == pytest.approx(brute_x, rel=1e-12)
    assert sv == pytest.approx(brute_v, rel=1e-12)


def test_consensus_decomposition_reconstruction():
    gen = RngStream(6).generator()
    nu = gen.standard_normal((8, 1))
    nu -= nu.mean(axis=0)
    model = ConsensusModel(N=8, kappa=1.7, nu=nu)
    model.check_decomposition(atol_antisym=1e-12, atol_recon=1e-12)


def test_consensus_full_form_reproduces_original_equation():
    gen = RngStream(7).generator()
    nu = gen.standard_normal((6, 2))
    nu -= nu.mean(axis=0)
    model = ConsensusModel(N=6, kappa=0.9, nu=nu, dim=2)
    q = gen.standard_normal((6, 2))
    rhs = consensus_rhs(q, model)
    direct = np.empty_like(q)
    for i in range(6):
        acc = np.zeros(2)
        for j in range(6):
            if j != i:
                acc += q[j] - q[i]  # a_ij = 1 and Gamma(q) = q
        direct[i] = nu[i] + model.kappa / 5 * acc
    np.testing.assert_allclose(rhs, direct, atol=1e-12)


@pytest.mark.parametrize("N", [10, 11])
def test_batched_consensus_matches_double_loop_on_a_remainder_division(N):
    # p = 3 leaves a batch of 4 (N = 10) or of 2 (N = 11)
    gen = RngStream(20).generator()
    nu = gen.standard_normal((N, 2))
    nu -= nu.mean(axis=0)
    model = ConsensusModel(N=N, kappa=0.8, nu=nu, dim=2)
    q = gen.standard_normal((N, 2))
    division = random_division(N, 3, gen)
    assert {len(b) for b in iter_batches(division)} != {3}
    rhs = consensus_rhs(q, model, division)
    oracle = np.zeros_like(q)
    for i in range(N):
        batch = batch_of(division, i)
        for j in batch[batch != i]:
            nu_bar = (N - 1) * (nu[i] - nu[j]) / (model.kappa * N)
            oracle[i] += nu_bar + (q[j] - q[i])
        oracle[i] *= model.kappa / (len(batch) - 1)
    np.testing.assert_allclose(rhs, oracle, rtol=1e-12)


def test_consensus_zero_fixed_point():
    model = ConsensusModel(N=4, kappa=1.0)
    q = np.ones((4, 1)) * 2.5
    np.testing.assert_allclose(consensus_rhs(q, model), 0.0, atol=1e-14)


def test_consensus_functionals():
    m2, diam = consensus_functionals(np.array([[1.0], [-1.0]]))
    assert m2 == pytest.approx(1.0)
    assert diam == pytest.approx(2.0)
    assert consensus_functionals(np.zeros((5, 2))) == (0.0, 0.0)
    gen = RngStream(8).generator()
    q = gen.standard_normal((6, 2))
    perm = gen.permutation(6)
    assert consensus_functionals(q)[1] == pytest.approx(consensus_functionals(q[perm])[1])


@pytest.mark.parametrize("N, d", [(2, 1), (1000, 1), (7, 3), (1000, 3)])
def test_consensus_diameter_matches_the_dense_formula(N, d):
    q = RngStream(N + d).generator().standard_normal((N, d))
    dq = q[:, None, :] - q[None, :, :]
    dense = float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", dq, dq))))
    assert consensus_functionals(q)[1] == dense


def test_consensus_diameter_memory_is_linear():
    q = RngStream(3).generator().standard_normal((4000, 3))
    tracemalloc.start()
    try:
        consensus_functionals(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # the dense N x N x d difference array is 384 MB


def test_consensus_default_adjacency_memory_is_linear():
    # a_ij = 1 is implicit: a dense N x N adjacency would be 128 MB
    tracemalloc.start()
    try:
        model = ConsensusModel(N=4000)
        gen = RngStream(21).generator()
        q = model.initial(gen).positions
        q + 0.05 * consensus_rhs(q, model, random_division(4000, 2, gen))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_consensus_requires_zero_sum_nu():
    with pytest.raises(ValueError):
        ConsensusModel(N=3, nu=np.array([[1.0], [1.0], [1.0]]))


def test_electrolyte_construction():
    model = ElectrolyteModel(N=64, L=8.0)
    q = model.charges()
    assert q.sum() == 0.0
    state = model.initial_state(RngStream(9).generator())
    assert np.all((state.positions >= 0) & (state.positions < 8.0))
    assert state.velocities.shape == (64, 3)
    with pytest.raises(ValueError):
        ElectrolyteModel(N=63, L=8.0)


def _lj_brute_force(model, state):
    """Truncated LJ forces and energy by a double loop over minimum-image pairs."""
    N, L = state.n_particles, model.L
    sig, eps, rc = model.lj_sigma, model.lj_epsilon, model.lj_cutoff
    expected = np.zeros((N, 3))
    e_expected = 0.0
    for i in range(N):
        for j in range(i + 1, N):
            d = state.positions[i] - state.positions[j]
            d -= L * np.floor(d / L + 0.5)
            r2 = float(d @ d)
            if r2 >= rc * rc:
                continue
            s6 = (sig * sig / r2) ** 3
            e_expected += 4 * eps * (s6 * s6 - s6)
            fmag = 24 * eps * (2 * s6 * s6 - s6) / r2
            expected[i] += fmag * d
            expected[j] -= fmag * d
    return expected, e_expected


def test_electrolyte_lj_matches_brute_force():
    model = ElectrolyteModel(N=16, L=4.0, lj_sigma=0.4)
    state = model.initial_state(RngStream(10).generator())
    F, energy = model.lj_force(state)
    expected, e_expected = _lj_brute_force(model, state)
    np.testing.assert_allclose(F, expected, atol=1e-12)
    assert energy == pytest.approx(e_expected, abs=1e-12)


def test_electrolyte_lj_refuses_a_cutoff_of_half_the_box():
    # at 2.25 >= L/2 the minimum image would drop the second image of a pair
    with pytest.raises(ValueError, match="the LJ cutoff 2.5 lj_sigma must be below L/2"):
        ElectrolyteModel(N=16, L=4.0, lj_sigma=0.9)


def test_electrolyte_lj_list_matches_brute_force_across_a_rebuild():
    model = ElectrolyteModel(N=64, L=4.0, lj_sigma=0.3)
    gen = RngStream(32).generator()
    state = model.initial_state(gen)
    assert "pairs" not in repr(model) and model == ElectrolyteModel(N=64, L=4.0, lj_sigma=0.3)
    for _ in range(8):  # moves of up to 0.27 skin/2 per axis and step force rebuilds
        F, energy = model.lj_force(state)
        expected, e_expected = _lj_brute_force(model, state)
        np.testing.assert_allclose(F, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        assert energy == pytest.approx(e_expected, rel=1e-12)
        jitter = gen.uniform(-0.01, 0.01, (64, 3)) * (model.pairs.skin / 0.075)
        state = state.replace(positions=state.positions + jitter)
    assert 2 <= model.pairs.builds < 8


def test_electrolyte_lj_with_no_listed_pair_skips_the_filter_and_kernel(monkeypatch):
    model = ElectrolyteModel(N=300, L=10.0)  # the benchmark's dilute electrolyte
    state = model.initial_state(RngStream(3).generator())

    def full_path(st):
        i, j, disp, r2 = neighbor_pairs(st.positions, model.L, model.lj_cutoff)
        s6 = (model.lj_sigma**2 / r2) ** 3
        fmag = 24.0 * model.lj_epsilon * (2.0 * s6 * s6 - s6) / r2
        return (pair_force_sum(st.n_particles, i, j, fmag[:, None] * disp),
                float(4.0 * model.lj_epsilon * np.sum(s6 * s6 - s6)))

    model.lj_force(state)
    assert model.pairs.builds == 1
    filters = []
    within = forces._pairs_within
    monkeypatch.setattr(forces, "_pairs_within", lambda *a: filters.append(1) or within(*a))
    F, energy = model.lj_force(state)
    assert filters == [] and model.pairs.builds == 1
    F_full, e_full = full_path(state)
    assert np.array_equal(F, F_full) and energy == e_full == 0.0 and not F.any()
    # staleness is still checked: two ions pushed into contact rebuild the list
    pos = state.positions.copy()
    pos[1] = pos[0] + [1.5 * model.lj_sigma, 0.0, 0.0]
    state = state.replace(positions=pos)
    F, energy = model.lj_force(state)
    F_full, e_full = full_path(state)
    assert model.pairs.builds == 2 and F.any()
    assert np.array_equal(F, F_full) and energy == e_full


def test_split_short_coefficient_is_force_minus_smooth_and_the_short_part_odd_bit_for_bit():
    spec = lj_kernel_spec(sigma=1.0, epsilon=1.0, r0=1.6)
    x = RngStream(12).generator().uniform(-2.0, 2.0, size=(3000, 3))
    r2 = np.einsum("ij,ij->i", x, x)
    assert np.any(r2 < 1.6**2) and np.any(r2 >= 1.6**2)
    np.testing.assert_array_equal(spec.short_part.coef(r2),
                                  spec.force.coef(r2) - spec.smooth_part.coef(r2))
    assert np.all(spec.short_part.coef(r2[r2 >= 1.6 * 1.6]) == 0.0)
    np.testing.assert_array_equal(spec.short_part(-x), -spec.short_part(x))


def test_lj_split_parts_match_the_two_branch_formula():
    # the split written in r with powers of r, both branches on every row
    sigma, epsilon, r0 = 1.0, 1.0, 1.6
    h = lambda r: 24.0 * epsilon * (2.0 * sigma**12 / r**14 - sigma**6 / r**8)
    h_prime = lambda r: 24.0 * epsilon * (-28.0 * sigma**12 / r**15 + 8.0 * sigma**6 / r**9)
    h0 = h(r0)
    b = r0 * h_prime(r0) / (2.0 * h0)
    a = 1.0 - b
    spec = lj_kernel_spec(sigma, epsilon, r0)
    gen = RngStream(14).generator()
    dirs = gen.standard_normal((500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inside = gen.uniform(0.3, r0, 500)[:, None] * dirs
    outside = gen.uniform(r0, 3.0, 500)[:, None] * dirs
    at_r0 = np.array([[r0, 0.0, 0.0], [0.0, -r0, 0.0], [0.0, 0.0, r0]])
    for x in (inside, outside, np.concatenate([inside[:250], outside[250:]]), r0 * dirs[:3], at_r0):
        r = np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        force = x * h(r)
        smooth = x * np.where(r >= r0, h(np.maximum(r, r0)), h0 * (a + b * (r / r0) ** 2))
        # the short part cancels force against smooth near r0: an absolute tolerance
        # on the scale of the force
        atol = 1e-12 * np.abs(force).max()
        np.testing.assert_allclose(spec.force(x), force, rtol=1e-12)
        np.testing.assert_allclose(spec.smooth_part(x), smooth, rtol=1e-12)
        np.testing.assert_allclose(spec.short_part(x), force - smooth, rtol=1e-12, atol=atol)
    np.testing.assert_array_equal(spec.short_part(at_r0), 0.0)


def test_lj_kernel_split_is_c1_and_bounded():
    spec = lj_kernel_spec(sigma=1.0, epsilon=1.0, r0=1.6)
    eps = 1e-7
    inner = spec.smooth_part(np.array([[1.6 - eps, 0.0, 0.0]]))
    outer = spec.smooth_part(np.array([[1.6 + eps, 0.0, 0.0]]))
    np.testing.assert_allclose(inner, outer, atol=1e-5)
    tiny = spec.smooth_part(np.array([[1e-4, 0.0, 0.0]]))
    assert np.all(np.abs(tiny) < 1.0)  # no core singularity in the smooth part
