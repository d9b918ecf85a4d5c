"""Ewald splitting: exact sums, discrete-Gaussian sampling, RBE estimator."""

import cmath
import copy
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from oracles import (discrete_gaussian_moments, ewald_energy, kvectors_in_ball, neighbor_pairs,
                     structure_factors)
from randbatch import ewald, forces, runner
from randbatch.ewald import (
    EwaldParams,
    PeriodicChargeSystem,
    fourier_energy,
    fourier_force_exact_all,
    mh_sample_kvectors,
    rbe_force_all,
    real_space_force_all,
    self_energy,
    sum_S,
    rbe_md_step,
)
from randbatch.integrators import IntegrationError, kick_drift
from randbatch.rng import RngStream, SimStreams
from randbatch.models import ElectrolyteModel
from randbatch.state import ParticleState
from randbatch.thermostats import Andersen, Langevin, NoseHoover, apply_andersen


def _random_electroneutral(N, L, seed, velocities=False):
    gen = RngStream(seed).generator()
    pos = gen.uniform(0, L, size=(N, 3))
    vel = gen.standard_normal((N, 3)) if velocities else None
    charges = np.tile([1.0, -1.0], N // 2)
    state = ParticleState(positions=pos, velocities=vel, box_length=L)
    return PeriodicChargeSystem(state=state, charges=charges)


def test_sum_s_matches_poisson_form():
    S = sum_S(1.0, 10.0)
    H = (S + 1.0) ** (1 / 3)
    assert abs(H - math.sqrt(100 / math.pi) * (1 + 2 * math.e**-100)) < 1e-4
    assert abs(H - 5.64190) < 1e-4


def test_sum_s_matches_brute_lattice_sum():
    m = np.arange(-20, 21)
    mm = np.stack(np.meshgrid(m, m, m, indexing="ij"), -1).reshape(-1, 3)
    mm = mm[np.any(mm != 0, axis=1)]
    brute = np.exp(-np.pi**2 * (mm**2).sum(1) / 100.0).sum()
    assert abs(sum_S(1.0, 10.0) - brute) < 1e-10


def _brute_moments(alpha, L):
    """Per-component variance of m under the zero-excluded target, by plain sums."""
    c = math.pi**2 / (alpha * L**2)
    if alpha * L**2 <= 20:
        # every m with |m_c| <= 15 on the 3-d lattice; the rest weighs below e^-110
        g = np.arange(-15, 16)
        mm = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        mm = mm[np.any(mm != 0, axis=1)]
        w = np.exp(-c * (mm**2).sum(1))
        return math.fsum(mm[:, 0] ** 2 * w) / math.fsum(w)
    # H > 5 here, so H^3 - 1 cancels nothing; m runs far beyond the Gaussian's reach
    m = np.arange(-20_000, 20_001)
    w = np.exp(-c * m * m)
    H = math.fsum(w)
    return math.fsum(m * m * w) * H**2 / (H**3 - 1.0)


@pytest.mark.parametrize("alpha_L2", [0.2, 2.0, 20.0, 100.0, 4480.0, 40_000.0])
def test_discrete_gaussian_moments_match_brute_force_sums(alpha_L2):
    mean, var = discrete_gaussian_moments(alpha_L2 / 100.0, 10.0)
    assert mean == 0.0
    assert var == pytest.approx(_brute_moments(alpha_L2 / 100.0, 10.0), rel=1e-12)


def test_sum_s_positive():
    for alpha, L in [(0.1, 3.0), (2.0, 8.0), (5.0, 20.0)]:
        assert sum_S(alpha, L) > 0


def test_mh_sampler_statistics():
    bank = mh_sample_kvectors(1.0, 10.0, 100_000, RngStream(17).generator())
    m = np.rint(bank.samples * 10.0 / (2 * np.pi))
    assert not np.any(np.all(m == 0, axis=1))
    _, var_exact = discrete_gaussian_moments(1.0, 10.0)
    sigma_mean = math.sqrt(var_exact / len(m))
    assert np.all(np.abs(m.mean(axis=0)) < 3 * sigma_mean * 1.5)
    assert np.all(np.abs(m.var(axis=0) - var_exact) / var_exact < 0.05)


def test_bank_determinism_and_ordered_consumption():
    a = mh_sample_kvectors(0.8, 9.0, 2000, RngStream(5).generator())
    b = mh_sample_kvectors(0.8, 9.0, 2000, RngStream(5).generator())
    np.testing.assert_array_equal(a.samples, b.samples)
    first = a.draw(100)
    np.testing.assert_array_equal(first, b.samples[:100])
    second = a.draw(100)
    np.testing.assert_array_equal(second, b.samples[100:200])


def test_bank_refills_instead_of_reusing():
    bank = mh_sample_kvectors(0.8, 9.0, 64, RngStream(6).generator())
    bank.draw(50)
    out = bank.draw(50)  # forces a refill
    assert len(bank.samples) > 64
    assert bank.cursor == 100
    assert out.shape == (50, 3)
    assert not np.any(np.all(out == 0.0, axis=1))


def test_refilled_bank_keeps_a_bounded_size_and_reproduces_its_draws():
    def draws(seed):
        bank = mh_sample_kvectors(0.8, 9.0, 64, RngStream(seed).generator())
        out = []
        for _ in range(2000):
            out.append(bank.draw(100).copy())
            assert len(bank.samples) <= 1024 + 100  # whatever the number of draws
        assert bank.cursor == 2000 * 100
        return np.concatenate(out)

    a = draws(7)
    np.testing.assert_array_equal(a, draws(7))
    assert not np.any(np.all(a == 0.0, axis=1))
    # the first draw hands out the 64 drawn up front, in order, then fresh ones
    first = mh_sample_kvectors(0.8, 9.0, 64, RngStream(7).generator())
    np.testing.assert_array_equal(a[:64], first.samples)


def _enumerated_target(alpha, L, m_max=40):
    """Every m != 0 with |m_c| <= m_max and its probability exp(-k^2 / 4 alpha) / S."""
    g = np.arange(-m_max, m_max + 1)
    mm = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    mm = mm[np.any(mm != 0, axis=1)]
    w = np.exp(-np.pi**2 * (mm**2).sum(1) / (alpha * L**2))
    return mm, w / w.sum()


def test_sampled_shells_match_the_enumerated_pmf():
    alpha, L, n = 1.0, 10.0, 200_000
    mm, prob = _enumerated_target(alpha, L)
    shell_prob = np.bincount((mm**2).sum(1), prob)
    # pool the shells |m|^2 into bins of about 1/30 probability each, by the
    # mass below the shell, so an empty shell joins the next populated one
    label = np.minimum((np.cumsum(shell_prob) - shell_prob) * 30, 29).astype(int)
    label = np.unique(label, return_inverse=True)[1]
    expected = n * np.bincount(label, shell_prob)
    bank = mh_sample_kvectors(alpha, L, n, RngStream(19).generator())
    m = np.rint(bank.samples * L / (2 * np.pi))
    observed = np.bincount(label[(m**2).sum(1).astype(int)], minlength=len(expected))
    chi2 = np.sum((observed - expected) ** 2 / expected)
    assert scipy.stats.chi2.sf(chi2, len(expected) - 1) > 1e-3


def test_consecutive_draws_repeat_as_often_as_independent_ones():
    # i.i.d. draws repeat with probability sum_m P(m)^2; a Markov chain that
    # rejects a proposal repeats its last state and so repeats more often
    alpha, L, n = 0.3 ** (2 / 3), 10.0, 100_000
    _, prob = _enumerated_target(alpha, L)
    p_repeat = np.sum(prob**2)
    k = mh_sample_kvectors(alpha, L, n, RngStream(23).generator()).samples
    repeats = np.all(k[1:] == k[:-1], axis=1).sum()
    se = math.sqrt((n - 1) * p_repeat * (1 - p_repeat))
    assert abs(repeats - (n - 1) * p_repeat) < 4 * se


def test_sampler_rejects_a_target_with_almost_no_nonzero_mass():
    with pytest.raises(ValueError, match="frequency mass"):
        mh_sample_kvectors(0.01, 8.0, 10, RngStream(24).generator())


def test_structure_factor_point_charges():
    st = ParticleState(positions=np.zeros((2, 3)), box_length=5.0)
    sys_one = PeriodicChargeSystem(
        state=ParticleState(positions=np.array([[0.0, 0, 0], [2.0, 0, 0]]), box_length=5.0),
        charges=np.array([1.0, -1.0]),
    )
    k = np.array([2 * np.pi / 5, 0, 0])
    # single positive charge at the origin plus canceling partner far away
    sys_cancel = PeriodicChargeSystem(state=st, charges=np.array([1.0, -1.0]))
    assert abs(structure_factors(sys_cancel, k[None])[0]) < 1e-14
    rho = structure_factors(sys_one, k[None])[0]
    expected = 1.0 - cmath.exp(1j * k[0] * 2.0)
    assert abs(rho - expected) < 1e-13


def test_structure_factor_against_independent_loop():
    system = _random_electroneutral(10, 7.0, seed=21)
    kvecs = kvectors_in_ball(7.0, 3.0)[:50]
    fast = structure_factors(system, kvecs)
    for idx in range(len(kvecs)):
        slow = sum(
            system.charges[i] * cmath.exp(1j * float(np.dot(kvecs[idx], system.state.positions[i])))
            for i in range(10)
        )
        assert abs(fast[idx] - slow) < 1e-13


def test_structure_factor_conjugate_symmetry():
    system = _random_electroneutral(8, 6.0, seed=22)
    k = np.array([2 * np.pi / 6, -4 * np.pi / 6, 2 * np.pi / 6])
    assert abs(structure_factors(system, k[None])[0]
               - structure_factors(system, -k[None])[0].conjugate()) < 1e-12


def test_exact_fourier_sums_over_half_the_ball_match_the_full_ball():
    system = _random_electroneutral(40, 7.0, seed=37)
    params = EwaldParams.for_system(40, 7.0)
    kvecs = kvectors_in_ball(7.0, params.k_c)
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    weight = np.exp(-k2 / (4 * params.alpha)) / k2
    rho = structure_factors(system, kvecs)
    energy = 2 * np.pi / system.volume * np.sum(np.abs(rho) ** 2 * weight)
    assert fourier_energy(system, params) == pytest.approx(energy, rel=1e-12)
    phase = np.exp(1j * system.state.positions @ kvecs.T)
    im = np.imag(np.conj(phase) * rho)
    full = -system.charges[:, None] * (4 * np.pi / system.volume * im * weight) @ kvecs
    np.testing.assert_allclose(fourier_force_exact_all(system, params), full, rtol=1e-12,
                               atol=1e-12 * np.abs(full).max())


def _brute_phases(system, m):
    """k = 2 pi m / L, exp(i k.r) from one complex exponential per pair, and rho(k)."""
    k = 2 * np.pi * m / system.L
    eikr = np.exp(1j * system.state.positions @ k.T)
    return k, eikr, eikr.T @ system.charges


def test_exact_fourier_sums_match_a_brute_force_sum_over_the_full_ball():
    # k_c L / 2 pi = 5 is an integer, so the sphere |m| = 5 (m = (3, 4, 0), ...) is in
    system = _random_electroneutral(30, 7.0, seed=41, velocities=True)
    params = EwaldParams(alpha=1.2, r_c=3.0, k_c=2 * np.pi * 5 / 7.0, p=10)
    g = np.arange(-5, 6)
    mm = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    m2 = (mm**2).sum(1)
    mm, m2 = mm[(m2 > 0) & (m2 <= 25)], m2[(m2 > 0) & (m2 <= 25)]
    k, eikr, rho = _brute_phases(system, mm)
    k2 = (k**2).sum(1)
    weight = np.exp(-k2 / (4 * params.alpha)) / k2
    terms = 2 * np.pi / system.volume * np.abs(rho) ** 2 * weight
    energy = terms.sum()
    assert terms[m2 == 25].sum() > 1e-6 * energy  # the sphere matters at this tolerance
    forces = -system.charges[:, None] * (
        4 * np.pi / system.volume * np.imag(np.conj(eikr) * rho) * weight) @ k
    assert fourier_energy(system, params) == pytest.approx(energy, rel=1e-12)
    np.testing.assert_allclose(fourier_force_exact_all(system, params), forces, rtol=1e-12,
                               atol=1e-12 * np.abs(forces).max())
    _, info = rbe_md_step(system, params, None, None, 1e-3, SimStreams(1))
    assert info["U_fourier"] == pytest.approx(energy, rel=1e-12)


def test_rbe_force_matches_a_brute_force_sum_over_its_batch():
    system = _random_electroneutral(20, 6.0, seed=42)
    m = np.array([[1, 0, 0], [-3, 2, 1], [0, 0, -7], [4, -4, 2], [1, 0, 0], [0, 1, -1]])
    k, eikr, rho = _brute_phases(system, m)
    S, p = 3.5, len(m)
    coef = (S / p) * 4 * np.pi / system.volume / (k**2).sum(1)
    forces = -system.charges[:, None] * (np.imag(np.conj(eikr) * rho) * coef) @ k
    np.testing.assert_allclose(rbe_force_all(system, k, S), forces, rtol=1e-12,
                               atol=1e-12 * np.abs(forces).max())
    np.testing.assert_allclose(structure_factors(system, k), rho, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("call", [structure_factors, lambda s, k: rbe_force_all(s, k, 1.0)])
def test_off_lattice_frequencies_are_rejected(call):
    system = _random_electroneutral(6, 5.0, seed=43)
    k = 2 * np.pi / 5.0 * np.array([[1.0, -2.0, 0.0]])
    call(system, k * (1 + 1e-12))  # rounding off a lattice vector is accepted
    with pytest.raises(ValueError, match="lattice"):
        call(system, k * (1 + 1e-6))


def test_exact_fourier_force_memory_at_n1200():
    # at electrolyte density 0.3, one (N, K) complex array over the half ball is 234 MB
    L = (1200 / 0.3) ** (1 / 3)
    system = _random_electroneutral(1200, L, seed=44)
    params = EwaldParams.for_system(1200, L)
    tracemalloc.start()
    try:
        fourier_force_exact_all(system, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_far_frequency_phases_take_memory_independent_of_its_m():
    # the powers up to |m| = 2000 come one at a time, and only the rows the batch
    # indexes are kept; a (3, 4001, 300) table would be 55 MiB.  A far phase is
    # ill-conditioned in x (any method errs by about m |k_1 x| eps), so the ions
    # sit within L/64 of the origin, where both sides are good to about 1e-13
    base = _random_electroneutral(300, 10.0, seed=45)
    system = PeriodicChargeSystem(base.state.replace(positions=base.state.positions / 64),
                                  base.charges)
    k, _, rho = _brute_phases(system, np.array([[2000, 0, 0]]))
    tracemalloc.start()
    try:
        fast = structure_factors(system, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    np.testing.assert_allclose(fast, rho, rtol=1e-12)


def test_fourier_force_zero_charges():
    st = ParticleState(positions=RngStream(1).generator().uniform(0, 5, (6, 3)), box_length=5.0)
    system = PeriodicChargeSystem(state=st, charges=np.zeros(6))
    params = EwaldParams.for_system(6, 5.0)
    np.testing.assert_array_equal(fourier_force_exact_all(system, params), np.zeros((6, 3)))


def test_k_space_sums_of_an_empty_system():
    system = PeriodicChargeSystem(state=ParticleState(positions=np.zeros((0, 3)), box_length=5.0),
                                  charges=np.zeros(0))
    params = EwaldParams(alpha=1.0, r_c=2.0, k_c=3.0)
    k = 2 * np.pi / 5.0 * np.array([[1, 0, 0], [0, -2, 3]])
    assert fourier_energy(system, params) == 0.0
    assert fourier_force_exact_all(system, params).shape == (0, 3)
    np.testing.assert_array_equal(structure_factors(system, k), [0, 0])
    assert rbe_force_all(system, k, 1.0).shape == (0, 3)


def test_real_space_sum_of_an_empty_system_twice():
    # the second call asks the pair list whether anything moved
    system = PeriodicChargeSystem(state=ParticleState(positions=np.zeros((0, 3)), box_length=5.0),
                                  charges=np.zeros(0))
    params = EwaldParams(alpha=1.0, r_c=2.0, k_c=3.0)
    for _ in range(2):
        forces, energy = real_space_force_all(system, params)
        assert forces.shape == (0, 3) and energy == 0.0
    assert system.pairs.builds == 1


def test_a_frequency_phase_does_not_depend_on_its_batch():
    # each power is one product of the whole (3, N) block, whatever rows the batch
    # asks for, so a frequency alone and in a batch gets the same bits
    system = _random_electroneutral(300, 9.0, seed=36)
    k = 2 * np.pi / 9.0 * np.array([[2, 1, 0], [3, 0, 0]])
    alone, batched = structure_factors(system, k[:1]), structure_factors(system, k)
    np.testing.assert_array_equal(alone, batched[:1])


def _phase_chain(positions, L, top):
    """e(m) for |m| <= top as a chain of products: e(m) = e(m - 1) e(1), e(-m) = conj e(m)."""
    theta = (2 * np.pi / L) * np.ascontiguousarray(positions.T)
    e1 = np.empty(theta.shape, dtype=complex)
    e1.real, e1.imag = np.cos(theta), np.sin(theta)
    chain = {0: np.ones_like(e1), 1: e1}
    for m in range(2, top + 1):
        chain[m] = chain[m - 1] * e1
    chain.update({-m: np.conj(chain[m]) for m in range(1, top + 1)})
    return chain


@pytest.mark.parametrize("m", [[1], [3], [-7], [-2, 0, 5], list(range(-6, 7)), [-40, 1, 17]])
def test_phase_table_rows_are_a_chain_of_products_of_e1(m):
    system = _random_electroneutral(300, 9.0, seed=37)
    pos = system.state.positions
    chain = _phase_chain(pos, 9.0, 40)
    e = ewald._phase_tables(pos, 9.0, np.array(m))
    assert e.shape == (3, len(m), 300)
    for row, v in enumerate(m):
        np.testing.assert_array_equal(e[:, row], chain[v])


def test_batch_phases_are_products_of_the_chain_alone_and_in_a_batch():
    # a batch of 100 and a lone frequency each build just their distinct
    # components; both give each row the bits of the chain
    N, L = 300, 10.0
    system = _random_electroneutral(N, L, seed=38)
    params = EwaldParams.for_system(N, L, p=100)
    k = mh_sample_kvectors(params.alpha, L, 100, RngStream(39).generator()).draw(100)
    m = np.rint(k * (L / (2 * np.pi))).astype(int)
    chain = _phase_chain(system.state.positions, L, int(np.abs(m).max()))
    expected = np.array([chain[a][0] * chain[b][1] * chain[c][2] for a, b, c in m])
    np.testing.assert_array_equal(ewald._lattice_phases(system, k), expected)
    for row in (0, 1, 57, 99):
        np.testing.assert_array_equal(ewald._lattice_phases(system, k[row:row + 1]),
                                      expected[row:row + 1])


def test_fourier_forces_sum_to_zero():
    system = _random_electroneutral(16, 8.0, seed=23)
    params = EwaldParams.for_system(16, 8.0)
    F = fourier_force_exact_all(system, params)
    np.testing.assert_allclose(F.sum(axis=0), 0.0, atol=1e-10)


def test_fourier_force_matches_energy_gradient():
    system = _random_electroneutral(6, 6.0, seed=24)
    params = EwaldParams(alpha=1.0, r_c=2.5, k_c=2 * np.pi / 6.0 * 8, p=10)
    F = fourier_force_exact_all(system, params)
    h = 1e-5
    for i in (0, 3):
        for c in range(3):
            shifted_plus = system.state.positions.copy()
            shifted_plus[i, c] += h
            shifted_minus = system.state.positions.copy()
            shifted_minus[i, c] -= h
            up = fourier_energy(PeriodicChargeSystem(
                state=ParticleState(positions=shifted_plus, box_length=6.0),
                charges=system.charges), params)
            down = fourier_energy(PeriodicChargeSystem(
                state=ParticleState(positions=shifted_minus, box_length=6.0),
                charges=system.charges), params)
            assert abs(F[i, c] - (-(up - down) / (2 * h))) < 1e-6


def test_fourier_force_pair_attraction():
    # +1 and -1 separated along x: force on + points toward -
    st = ParticleState(positions=np.array([[1.0, 3.0, 3.0], [3.0, 3.0, 3.0]]), box_length=6.0)
    system = PeriodicChargeSystem(state=st, charges=np.array([1.0, -1.0]))
    params = EwaldParams.for_system(2, 6.0, alpha=1.0)
    F = fourier_force_exact_all(system, params)[0]
    assert F[0] > 0  # toward the negative charge at larger x
    np.testing.assert_allclose(F[1:], 0.0, atol=1e-12)


def test_rbe_forces_sum_to_zero_any_batch():
    system = _random_electroneutral(12, 7.0, seed=25)
    bank = mh_sample_kvectors(1.0, 7.0, 64, RngStream(7).generator())
    S = sum_S(1.0, 7.0)
    F = rbe_force_all(system, bank.draw(10), S)
    np.testing.assert_allclose(F.sum(axis=0), 0.0, atol=1e-10)


def test_rbe_force_matches_the_real_contraction_of_im_conj_e_rho():
    # the one complex product against the (p, N) real form
    # -q_n sum_k coef_k Im(conj(e_kn) rho_k) k it replaced
    N, L, p = 300, 10.0, 100
    system = _random_electroneutral(N, L, seed=92)
    params = EwaldParams.for_system(N, L, p=p)
    S = sum_S(params.alpha, L)
    bank = mh_sample_kvectors(params.alpha, L, 5 * p, RngStream(93).generator())
    q = system.charges
    for _ in range(5):
        k = bank.draw(p)
        eikr = ewald._lattice_phases(system, k)  # the same phases, so only the contraction differs
        rho = eikr @ q
        im = eikr.real * rho.imag[:, None] - eikr.imag * rho.real[:, None]
        coef = (S / p) * 4.0 * math.pi / system.volume / np.einsum("ij,ij->i", k, k)
        expected = -q[:, None] * (im.T @ (coef[:, None] * k))
        np.testing.assert_allclose(rbe_force_all(system, k, S), expected, rtol=1e-13,
                                   atol=1e-13 * np.abs(expected).max())


def test_rbe_exhaustive_weighting_is_unbiased():
    # weight every lattice vector |m| <= 6 by its target probability: the
    # weighted mean of single-frequency estimates must equal the exact force
    alpha, L = 1.0, 4.0
    system = _random_electroneutral(6, L, seed=26)
    S = sum_S(alpha, L)
    m = np.arange(-6, 7)
    mm = np.stack(np.meshgrid(m, m, m, indexing="ij"), -1).reshape(-1, 3)
    mm = mm[np.any(mm != 0, axis=1)]
    kvecs = 2 * np.pi * mm / L
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    probs = np.exp(-k2 / (4 * alpha)) / S
    assert abs(probs.sum() - 1.0) < 1e-8  # |m| <= 6 carries all the mass here
    expectation = np.zeros((6, 3))
    for kvec, prob in zip(kvecs, probs):
        expectation += prob * rbe_force_all(system, kvec[None, :], S)
    exact = fourier_force_exact_all(
        system, EwaldParams(alpha=alpha, r_c=1.9, k_c=2 * np.pi / L * 13, p=1)
    )
    np.testing.assert_allclose(expectation, exact, atol=1e-8)


def test_rbe_monte_carlo_mean_approaches_exact():
    alpha, L = 1.0, 6.0
    system = _random_electroneutral(8, L, seed=27)
    S = sum_S(alpha, L)
    n_batches, p = 100_000, 10
    bank = mh_sample_kvectors(alpha, L, n_batches * p, RngStream(8).generator())
    kall = bank.samples
    k2 = np.einsum("ij,ij->i", kall, kall)
    coef = S * 4 * np.pi / system.volume / k2
    pos, q = system.state.positions, system.charges
    i = 0
    phase = pos @ kall.T
    eikr = np.exp(1j * phase)
    rho = eikr.T @ q
    per_sample = -q[i] * (np.imag(np.conj(eikr[i]) * rho) * coef)[:, None] * kall
    batch_means = per_sample.reshape(n_batches, p, 3).mean(axis=1)
    mean = batch_means.mean(axis=0)
    se = batch_means.std(axis=0) / math.sqrt(n_batches)
    params = EwaldParams.for_system(8, L, alpha=alpha, tail=1e-12)
    exact = fourier_force_exact_all(system, params)[i]
    assert np.all(np.abs(mean - exact) < 3 * se + 1e-12)


def test_real_space_far_pair_negligible():
    st = ParticleState(positions=np.array([[0.0, 0, 0], [4.0, 0, 0]]), box_length=10.0)
    system = PeriodicChargeSystem(state=st, charges=np.array([1.0, -1.0]))
    params = EwaldParams(alpha=4.0, r_c=4.9, k_c=1.0, p=1)
    F, _ = real_space_force_all(system, params)
    assert np.max(np.abs(F)) < 1e-10


def _brute_real_space_forces(system, params):
    """O(N^2) real-space forces over every minimum-image pair within r_c."""
    pos, L, q = system.state.positions, system.L, system.charges
    d = pos[:, None, :] - pos[None, :, :]
    d -= L * np.floor(d / L + 0.5)
    r2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(r2, np.inf)
    within = r2 < params.r_c**2
    r = np.sqrt(np.where(within, r2, 1.0))
    mag = (scipy.special.erfc(math.sqrt(params.alpha) * r) / r
           + 2 * math.sqrt(params.alpha / math.pi) * np.exp(-params.alpha * r * r)) / r**2
    return np.einsum("ij,ijk->ik", np.where(within, q[:, None] * q[None, :] * mag, 0.0), d)


def _moved(system, shift):
    L = system.L
    return system.replace_state(system.state.replace(
        positions=np.mod(system.state.positions + shift, L)))


def test_pair_list_forces_match_brute_force_with_and_without_a_rebuild():
    system = _random_electroneutral(64, 6.0, seed=38)
    params = EwaldParams(alpha=1.0, r_c=2.5, k_c=1.0, p=1)
    real_space_force_all(system, params)
    pairs = system.pairs
    # skin = max(0.1 r_c, 0.3 spacings): 0.3 (6^3 / 64)^(1/3) = 0.45 here
    assert pairs.builds == 1 and pairs.skin == pytest.approx(0.45)
    # every ion moves by just under skin/2: pairs cross r_c, the list stays
    gen = RngStream(39).generator()
    shift = gen.standard_normal((64, 3))
    shift *= 0.999 * pairs.skin / 2 / np.linalg.norm(shift, axis=1)[:, None]
    moved = _moved(system, shift)
    within = [set(zip(*neighbor_pairs(s.state.positions, 6.0, 2.5)[:2]))
              for s in (system, moved)]
    assert within[0] != within[1]
    for step in (system, moved):
        F, _ = real_space_force_all(step, params)
        expected = _brute_real_space_forces(step, params)
        np.testing.assert_allclose(F, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
        assert step.pairs is pairs and pairs.builds == 1
    # one ion past skin/2 from where the list was built costs exactly one more build
    far = np.zeros((64, 3))
    far[7, 0] = 0.51 * pairs.skin
    step = _moved(system, far)
    F, _ = real_space_force_all(step, params)
    assert pairs.builds == 2
    expected = _brute_real_space_forces(step, params)
    np.testing.assert_allclose(F, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_pair_list_rebuilds_for_another_cutoff():
    system = _random_electroneutral(64, 6.0, seed=40)
    real_space_force_all(system, EwaldParams(alpha=1.0, r_c=2.5, k_c=1.0, p=1))
    first = system.pairs
    params = EwaldParams(alpha=1.0, r_c=1.8, k_c=1.0, p=1)
    F, _ = real_space_force_all(system, params)
    assert system.pairs is not first and system.pairs.cutoff == 1.8
    assert system.pairs.builds == 1
    expected = _brute_real_space_forces(system, params)
    np.testing.assert_allclose(F, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_pair_list_is_handed_on_but_not_compared():
    system = _random_electroneutral(8, 6.0, seed=41)
    real_space_force_all(system, EwaldParams(alpha=1.0, r_c=2.5, k_c=1.0, p=1))
    other = system.replace_state(system.state)
    assert other.pairs is system.pairs
    assert other == PeriodicChargeSystem(state=system.state, charges=system.charges)
    assert "pairs" not in repr(other)


def test_pair_list_raises_on_a_nan_position_after_replace_state():
    system = _random_electroneutral(16, 6.0, seed=42)
    params = EwaldParams(alpha=1.0, r_c=2.5, k_c=1.0, p=1)
    real_space_force_all(system, params)
    # ParticleState refuses NaN, so corrupt a copy after construction
    bad = copy.copy(system.state)
    bad.positions = bad.positions.copy()
    bad.positions[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        real_space_force_all(system.replace_state(bad), params)
    assert system.pairs.builds == 1


def test_pair_list_search_runs_only_on_builds_over_the_benchmark_episode(monkeypatch):
    # the Coulomb real-space list and the model's LJ list both search through _search_pairs
    calls = []
    search = forces._search_pairs
    monkeypatch.setattr(forces, "_search_pairs", lambda *a: calls.append(1) or search(*a))
    cfg = runner.validate(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                          / "electrolyte-rbe.yaml")
    spec = runner.MODELS["electrolyte"]
    sim = spec.build(cfg, SimStreams(cfg["seed"]))
    for k in range(1, cfg["run"]["steps"] + 1):
        sim.state = spec.steppers["rbe"](sim, k, cfg["run"]["dt"])
        for hook in sim.hooks:
            hook(sim, k, cfg["run"]["dt"])
    coulomb, lj = sim.system.ions.pairs, sim.model.pairs
    assert cfg["run"]["steps"] == 40
    assert 1 <= coulomb.builds <= 3
    assert 1 <= lj.builds < cfg["run"]["steps"]
    assert len(calls) == coulomb.builds + lj.builds


@pytest.mark.parametrize("N, L", [(300, 10.0), (600, 12.6), (3000, 21.5)])
def test_coulomb_list_keeps_a_skin_of_a_tenth_of_r_c_at_the_default_alpha(N, L):
    # the default r_c is 3 / sqrt(alpha) = 3 particle spacings
    system = _random_electroneutral(N, L, seed=N)
    params = EwaldParams.for_system(N, L, p=10)
    real_space_force_all(system, params)
    assert abs(system.pairs.skin - 0.1 * params.r_c) <= np.spacing(0.1 * params.r_c)


def test_coulomb_list_build_at_n_3000_peaks_at_a_few_times_the_list():
    # the candidates are expanded and filtered in blocks; all at once, the build
    # peaked at 11 times the arrays it returns
    N, L = 3000, 21.5
    pos = _random_electroneutral(N, L, seed=7).state.positions
    r_c = EwaldParams.for_system(N, L).r_c
    cutoff = r_c + forces.PairList(r_c)._skin(L, N, 3)
    tracemalloc.start()
    try:
        listed = neighbor_pairs(pos, L, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert listed[0].size > 200_000
    assert peak <= 4 * sum(a.nbytes for a in listed)


def test_real_space_matches_brute_double_loop():
    system = _random_electroneutral(32, 8.0, seed=28)
    params = EwaldParams(alpha=0.7, r_c=3.5, k_c=1.0, p=1)
    F, energy = real_space_force_all(system, params)

    expected = np.zeros((32, 3))
    e_expected = 0.0
    sa = math.sqrt(params.alpha)
    pref = 2 * math.sqrt(params.alpha / math.pi)
    for i in range(32):
        for j in range(32):
            if i == j:
                continue
            d = system.state.positions[i] - system.state.positions[j]
            d -= 8.0 * np.floor(d / 8.0 + 0.5)
            r = np.linalg.norm(d)
            if r >= params.r_c:
                continue
            qq = system.charges[i] * system.charges[j]
            e_expected += 0.5 * qq * math.erfc(sa * r) / r
            expected[i] += qq * (math.erfc(sa * r) / r + pref * math.exp(-params.alpha * r * r)) / r**2 * d
    np.testing.assert_allclose(F, expected, atol=1e-13)
    assert abs(energy - e_expected) < 1e-12


def _real_space_oracle(system, params):
    """Real-space forces and energy by the plain expressions, over every pair i < j.

    The pairs are minimum-imaged with floor(d / L + 0.5), which picks the
    image ``minimum_image`` picks for every pair closer than r_c < L/2, taken
    in the anti-diagonal order of a search (by i + j, then i), axis-major like
    the search, and the kernel is evaluated out of place: the
    bits the in-place filter and kernel must reproduce.  The energy is summed
    in that order, the forces by ``bincount``s in ascending (i, j) order, the
    order searches listed pairs in before: a force equal to these has the
    bits of either order.
    """
    pos, L, q = system.state.positions, system.L, system.charges
    i, j = np.triu_indices(len(pos), k=1)
    anti = np.lexsort((i, i + j))
    i, j = i[anti], j[anti]
    disp = np.empty((3, i.size))
    for axis, x in enumerate(np.ascontiguousarray(pos.T)):
        d = x[i] - x[j]
        disp[axis] = d - L * np.floor(d / L + 0.5)
    r2 = np.einsum("ij,ij->j", disp, disp)
    keep = np.flatnonzero(r2 < params.r_c * params.r_c)
    i, j, disp, r2 = i[keep], j[keep], np.take(disp, keep, axis=1).T, r2[keep]
    r = np.sqrt(r2)
    qq = q[i] * q[j]
    screened = qq * scipy.special.erfc(math.sqrt(params.alpha) * r) / r
    gauss = qq * 2.0 * math.sqrt(params.alpha / math.pi) * np.exp(-params.alpha * r2)
    f_ij = ((screened + gauss) / r2)[:, None] * disp
    ij = np.lexsort((j, i))
    i, j, f_ij = i[ij], j[ij], f_ij[ij]
    out = np.empty((len(pos), 3))
    for axis in range(3):
        f = f_ij[:, axis]
        out[:, axis] = (np.bincount(i, f, minlength=len(pos))
                        - np.bincount(j, f, minlength=len(pos)))
    return out, float(np.sum(screened))


@pytest.mark.parametrize("r_c_over_L", [None, 0.49])
def test_real_space_is_bit_identical_to_the_plain_expressions_along_a_trajectory(r_c_over_L):
    # ions on the box faces and pairs with a component at or within a few ulps of
    # +-L/2, where rint(d / L) and floor(d / L + 0.5) may pick different images
    N, L = 300, 10.0
    params = EwaldParams.for_system(N, L)
    if r_c_over_L is not None:
        params = EwaldParams(alpha=params.alpha, r_c=r_c_over_L * L, k_c=params.k_c)
    system = _random_electroneutral(N, L, seed=90)
    gen = RngStream(91).generator()
    half = L / 2
    for step in range(30):
        pos = system.state.positions.copy()
        pos[0:4, 0] = 0.0  # on the face x = 0
        pos[4, 1] = np.nextafter(L, 0.0)  # on the far face, one ulp inside
        pos[5:9] = pos[0:4]  # partners a half box away along x: d_x = -L/2, +L/2 and near
        pos[5:9, 0] = [half, np.nextafter(half, 0.0), np.nextafter(half, L), 0.0]
        pos[8, 2] = (pos[0, 2] + half) % L
        pos[9], pos[10] = pos[11], pos[11]  # and the other way round: d_x = +L/2
        pos[9, 0], pos[10, 0] = half, 0.0
        system = system.replace_state(system.state.replace(positions=pos))
        F, energy = real_space_force_all(system, params)
        expected, e_expected = _real_space_oracle(system, params)
        np.testing.assert_array_equal(F, expected)
        assert energy == e_expected
        # each ion moves up to 0.35 skin a step, so the list is rebuilt every few steps
        shift = gen.uniform(-0.2, 0.2, size=(N, 3)) * system.pairs.skin
        system = system.replace_state(system.state.replace(
            positions=np.mod(system.state.positions + shift, L)))
    assert system.pairs.builds > 3


def test_real_space_newton_and_single_particle_path():
    system = _random_electroneutral(20, 6.0, seed=29)
    params = EwaldParams(alpha=1.0, r_c=2.5, k_c=1.0, p=1)
    F_all, _ = real_space_force_all(system, params)
    np.testing.assert_allclose(F_all.sum(axis=0), 0.0, atol=1e-13)


def test_real_space_rejects_wide_cutoff():
    system = _random_electroneutral(4, 6.0, seed=30)
    with pytest.raises(ValueError):
        real_space_force_all(system, EwaldParams(alpha=1.0, r_c=3.0, k_c=1.0, p=1))


def test_total_energy_alpha_invariance():
    st = ParticleState(positions=np.array([[2.0, 5.0, 5.0], [4.0, 5.0, 5.0]]), box_length=10.0)
    system = PeriodicChargeSystem(state=st, charges=np.array([1.0, -1.0]))
    energies = []
    for alpha in (0.5, 1.0, 2.0):
        m_max = math.ceil(10.0 * math.sqrt(alpha * math.log(1e12)) / math.pi)
        params = EwaldParams(alpha=alpha, r_c=4.9, k_c=2 * np.pi / 10.0 * m_max, p=1)
        energies.append(ewald_energy(system, params))
    spread = max(energies) - min(energies)
    assert spread / abs(np.mean(energies)) < 1e-4


def test_total_energy_zero_charges():
    st = ParticleState(positions=RngStream(34).generator().uniform(0, 5, (4, 3)), box_length=5.0)
    system = PeriodicChargeSystem(state=st, charges=np.zeros(4))
    params = EwaldParams.for_system(4, 5.0)
    assert ewald_energy(system, params) == pytest.approx(0.0, abs=1e-14)


def test_pair_energy_free_space_limit():
    # two opposite charges separated by 1 in a huge box: U ~ -1/r
    L = 40.0
    st = ParticleState(positions=np.array([[20.0, 20, 20], [21.0, 20, 20]]), box_length=L)
    system = PeriodicChargeSystem(state=st, charges=np.array([1.0, -1.0]))
    m_max = math.ceil(L * math.sqrt(0.05 * math.log(1e10)) / math.pi)
    params = EwaldParams(alpha=0.05, r_c=19.5, k_c=2 * np.pi / L * m_max, p=1)
    U = ewald_energy(system, params)
    assert abs(U - (-1.0)) < 0.01


def test_electroneutrality_enforced():
    st = ParticleState(positions=np.zeros((2, 3)), box_length=4.0)
    with pytest.raises(ValueError):
        PeriodicChargeSystem(state=st, charges=np.array([1.0, 1.0]))


def test_md_step_exact_mode_matches_manual_direct_step():
    system = _random_electroneutral(8, 6.0, seed=31, velocities=True)
    params = EwaldParams.for_system(8, 6.0, alpha=1.0, tail=1e-10)
    dt = 1e-3
    stepped, info = rbe_md_step(system, params, None, None, dt, SimStreams(9))
    F = real_space_force_all(system, params)[0] + fourier_force_exact_all(system, params)
    v_new = system.state.velocities + dt * F
    x_new = np.mod(system.state.positions + dt * v_new, 6.0)
    np.testing.assert_allclose(stepped.state.velocities, v_new, atol=1e-14)
    np.testing.assert_allclose(stepped.state.positions, x_new, atol=1e-14)
    assert {"U_real", "U_fourier", "U_self", "kinetic", "T_inst"} <= info.keys()


def test_md_step_conserves_momentum_before_thermostat():
    system = _random_electroneutral(16, 7.0, seed=32, velocities=True)
    params = EwaldParams.for_system(16, 7.0, p=8)
    bank = mh_sample_kvectors(params.alpha, 7.0, 256, RngStream(10).generator())
    before = system.state.velocities.sum(axis=0)
    stepped, _ = rbe_md_step(system, params, None, bank, 1e-3, SimStreams(11))
    after = stepped.state.velocities.sum(axis=0)
    np.testing.assert_allclose(after, before, atol=1e-10)


def test_md_step_names_the_particle_with_a_non_finite_velocity():
    system = _random_electroneutral(8, 6.0, seed=34, velocities=True)
    velocities = system.state.velocities.copy()
    velocities[5, 1] = np.nan
    system = system.replace_state(system.state.replace(velocities=velocities))
    params = EwaldParams.for_system(8, 6.0, alpha=1.0, tail=1e-10)
    with pytest.raises(IntegrationError, match="particle 5$"):
        rbe_md_step(system, params, None, None, 1e-3, SimStreams(12))


def test_md_step_wraps_an_ion_that_crosses_the_box_edge():
    # ion 2 is uncharged, so it flies free: one lands a few 1e-19 below 0,
    # where np.mod alone would round it up to L itself, and one crosses x = L
    dt, L = 1e-3, 6.0
    charges = np.array([1.0, -1.0, 0.0, 0.0, 1.0, -1.0])
    gen = RngStream(35).generator()
    positions, velocities = gen.uniform(0, L, size=(6, 3)), gen.standard_normal((6, 3))
    positions[2:4] = [[np.nextafter(dt, 0.0), 1.0, 1.0], [L - 1e-4, 2.0, 2.0]]
    velocities[2:4] = [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    system = PeriodicChargeSystem(
        state=ParticleState(positions=positions, velocities=velocities, box_length=L),
        charges=charges)
    params = EwaldParams.for_system(6, L, alpha=1.0, tail=1e-10)
    stepped, _ = rbe_md_step(system, params, None, None, dt, SimStreams(13))
    x = stepped.state.positions
    assert np.all((x >= 0.0) & (x < L))
    assert x[2, 0] == 0.0
    np.testing.assert_allclose(x[3, 0], dt - 1e-4, rtol=1e-9)


@pytest.mark.parametrize("thermostat", [NoseHoover(Q=2.0, beta=1.5, xi=0.3),
                                        Langevin(gamma=0.7, beta=1.5)])
def test_md_step_is_the_shared_kick_drift(thermostat):
    # Nose-Hoover: friction xi, and xi advances from the pre-kick kinetic energy;
    # Langevin: friction gamma, with its noise drawn from the noise stream
    system = _random_electroneutral(8, 6.0, seed=36, velocities=True)
    params = EwaldParams.for_system(8, 6.0, alpha=1.0, tail=1e-10)
    dt, st = 1e-3, system.state
    F = real_space_force_all(system, params)[0] + fourier_force_exact_all(system, params)
    if isinstance(thermostat, NoseHoover):
        expected = kick_drift(st, F, dt, friction=thermostat.xi)
        xi = thermostat.xi + dt / thermostat.Q * (np.sum(st.velocities**2) - 3 * 8 / 1.5)
    else:
        expected = kick_drift(st, F, dt, thermostat.gamma, thermostat.sigma, SimStreams(14).noise)
    stepped, _ = rbe_md_step(system, params, thermostat, None, dt, SimStreams(14))
    np.testing.assert_allclose(stepped.state.positions, expected.positions, rtol=1e-14)
    np.testing.assert_allclose(stepped.state.velocities, expected.velocities, rtol=1e-14)
    if isinstance(thermostat, NoseHoover):
        assert thermostat.xi == pytest.approx(xi, rel=1e-14)


def _reference_nose_hoover_step(state, xi, Q, beta, dt, forces):
    """``thermostats.nose_hoover_step`` before Nose-Hoover became a runner hook."""
    if state.velocities is None:
        raise ValueError("Nose-Hoover thermostat needs velocities")
    v = state.velocities
    kinetic_sum = float(np.sum(v * v))
    new_xi = xi + dt / Q * (kinetic_sum - state.dim * state.n_particles / beta)
    return kick_drift(state, forces, dt, friction=xi), new_xi


def _reference_rbe_md_step(system, params, thermostat, bank, dt, streams, extra_force=None,
                           exact_fourier=False, S=None):
    """``rbe_md_step`` before the electrolyte stepped through ``integrators``: its own
    force sum and thermostat branches."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = system.state
    forces, u_real = real_space_force_all(system, params)
    info = {"U_real": u_real}
    if exact_fourier:
        f_fourier, info["U_fourier"] = ewald._exact_fourier(system, params)
    else:
        if S is None:
            S = sum_S(params.alpha, system.L)
        f_fourier, info["U_fourier"] = ewald._rbe_fourier(system, bank.draw(params.p), S)
    forces = forces + f_fourier
    info["U_self"] = self_energy(system, params)
    if extra_force is not None:
        forces = forces + extra_force(st)

    if isinstance(thermostat, NoseHoover):
        new_state, thermostat.xi = _reference_nose_hoover_step(
            st, thermostat.xi, thermostat.Q, thermostat.beta, dt, forces
        )
    else:
        gamma, sigma = ((thermostat.gamma, thermostat.sigma) if isinstance(thermostat, Langevin)
                        else (0.0, 0.0))
        new_state = kick_drift(st, forces, dt, gamma, sigma, streams.noise)
        if isinstance(thermostat, Andersen):
            new_state = apply_andersen(
                new_state, thermostat.nu, thermostat.temperature, dt, streams.thermostat
            )
    info["kinetic"] = float(0.5 * np.sum(new_state.velocities * new_state.velocities))
    info["T_inst"] = 2.0 * info["kinetic"] / (3.0 * system.n_particles)
    return system.replace_state(new_state), info


_THERMOSTATS = {"none": lambda: None,
                "andersen": lambda: Andersen(nu=5.0, temperature=1.0),
                "langevin": lambda: Langevin(gamma=1.0, beta=1.0),
                "nose-hoover": lambda: NoseHoover(Q=0.5, beta=1.0, xi=0.2)}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "rbe"])
@pytest.mark.parametrize("kind", sorted(_THERMOSTATS))
def test_the_step_is_bit_identical_to_the_old_rbe_md_step(kind, exact):
    # 20 ions at L = 8 move past half the Coulomb list's skin within 30 steps of dt = 0.02
    N, L, dt, steps = 20, 8.0, 0.02, 30
    params = EwaldParams.for_system(N, L, p=10)

    def start():
        model = ElectrolyteModel(N=N, L=L)
        streams = SimStreams(7)
        ions = PeriodicChargeSystem(state=model.initial_state(streams.init),
                                    charges=model.charges())
        bank = None if exact else mh_sample_kvectors(params.alpha, L, 4096, streams.proposal)
        return ions, bank, streams, _THERMOSTATS[kind](), lambda st: model.lj_force(st)[0]

    ions, bank, streams, reference, lj = start()
    old = [ions]
    for _ in range(steps):
        ions, info = _reference_rbe_md_step(ions, params, reference, bank, dt, streams, lj,
                                            exact_fourier=exact)
        old.append((ions, info, getattr(reference, "xi", None)))

    # the benchmark's step, one call per step
    ions, bank, streams, thermostat, lj = start()
    for ions_old, info_old, xi_old in old[1:]:
        ions, info = rbe_md_step(ions, params, thermostat, bank, dt, streams, lj)
        np.testing.assert_array_equal(ions.state.positions, ions_old.state.positions)
        np.testing.assert_array_equal(ions.state.velocities, ions_old.state.velocities)
        assert info == info_old and getattr(thermostat, "xi", None) == xi_old
    assert ions.pairs.builds >= 2

    # the runner's loop: the direct stepper, then the hooks, on one system
    ions, bank, streams, thermostat, lj = start()
    sim = runner._electrolyte_sim(ions, params, thermostat, bank, streams, lj)
    for k, (ions_old, info_old, xi_old) in enumerate(old[1:], start=1):
        sim.state = runner._STEPPERS["direct"](sim, k, dt)
        for hook in sim.hooks:
            hook(sim, k, dt)
        np.testing.assert_array_equal(sim.state.positions, ions_old.state.positions)
        np.testing.assert_array_equal(sim.state.velocities, ions_old.state.velocities)
        assert sim.energy[-1] == (k, *info_old.values())
        assert getattr(thermostat, "xi", None) == xi_old
    assert sim.system.ions.pairs.builds >= 2


def test_self_energy_value():
    system = _random_electroneutral(4, 5.0, seed=33)
    params = EwaldParams(alpha=2.0, r_c=2.0, k_c=1.0, p=1)
    assert self_energy(system, params) == pytest.approx(-math.sqrt(2 / math.pi) * 4)
