"""RBMC proposal/acceptance semantics, the log-gas chain, and SVGD."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import chi2

from randbatch.batching import enumerate_divisions, random_division
from randbatch.integrators import IntegrationError, direct_step, rbm_step_first_order
from randbatch.models import DysonModel
from randbatch.rng import RngStream, SimStreams
from randbatch.runner import _stop_far_svgd
from randbatch.samplers import (
    GaussianKernel,
    GibbsTarget,
    MarkovChainStats,
    log_kernel_split,
    rbmc_accept,
    rbmc_propose,
    rbmc_step,
    run_log_gas_chain,
    stein_system,
    svgd_velocity,
)
from randbatch.state import ParticleState


def _free_target(N, beta=1.0, w=1.0):
    zero = lambda d: np.zeros(np.atleast_2d(d).shape[0])
    zerov = lambda d: np.zeros_like(np.atleast_2d(d))
    return GibbsTarget(V=lambda x: np.zeros(len(x)), grad_V=lambda x: np.zeros_like(x),
                       phi1=zero, grad_phi1=zerov, phi2=zero, phi2_cutoff=None,
                       beta=beta, w=w, N=N)


def _quadratic_target(N, beta=1.0, w=1.0, phi1=None, grad_phi1=None, phi2=None, cutoff=None):
    zero = lambda d: np.zeros(np.atleast_2d(d).shape[0])
    zerov = lambda d: np.zeros_like(np.atleast_2d(d))
    return GibbsTarget(
        V=lambda x: 0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1),
        grad_V=lambda x: np.atleast_2d(x),
        phi1=phi1 or zero, grad_phi1=grad_phi1 or zerov,
        phi2=phi2 or zero, phi2_cutoff=cutoff, beta=beta, w=w, N=N,
    )


def test_propose_pure_brownian_variance():
    N, m, dt = 5, 3, 0.01
    target = _free_target(N, beta=2.0, w=0.5)
    gen = RngStream(1).generator()
    config = gen.standard_normal((N, 1))
    draws = np.array([
        rbmc_propose(0, config, target, m, 2, dt, gen)[0] for _ in range(100_000)
    ])
    expected_var = m * 2 * dt / ((N - 1) * 0.5**2 * 2.0)
    assert abs(draws.mean() - config[0, 0]) < 4 * math.sqrt(expected_var / len(draws))
    rel = abs(draws.var() - expected_var) / expected_var
    assert rel < 4 * math.sqrt(2 / len(draws))


def test_propose_full_batch_no_noise_is_deterministic_euler():
    N, dt = 4, 0.05
    smooth = lambda d: np.sum(np.atleast_2d(d) ** 2, axis=1)
    grad_smooth = lambda d: 2.0 * np.atleast_2d(d)
    target = _quadratic_target(N, phi1=smooth, grad_phi1=grad_smooth)
    gen = RngStream(2).generator()
    config = gen.standard_normal((N, 1))
    out = rbmc_propose(0, config, target, 1, N, dt, gen, include_noise=False)
    drift = config[0] / (1.0 * (N - 1)) + grad_smooth(config[0] - config[1:]).mean(axis=0)
    np.testing.assert_allclose(out, config[0] - dt * drift, atol=1e-14)


def test_propose_one_step_mean_matches_drift_formula():
    N, dt = 3, 0.02
    grad_smooth = lambda d: np.tanh(np.atleast_2d(d))
    smooth = lambda d: np.zeros(np.atleast_2d(d).shape[0])
    target = _quadratic_target(N, phi1=smooth, grad_phi1=grad_smooth)
    config = np.array([[0.3], [-0.8], [1.1]])
    gen = RngStream(3).generator()
    draws = np.array([
        rbmc_propose(0, config, target, 1, 2, dt, gen)[0] for _ in range(100_000)
    ])
    expected = config[0, 0] - dt * (
        config[0, 0] / 2
        + 0.5 * (math.tanh(0.3 + 0.8) + math.tanh(0.3 - 1.1))
    )
    noise_sd = math.sqrt(2 * dt / 2)
    assert abs(draws.mean() - expected) < 3 * noise_sd / math.sqrt(len(draws))


def test_accept_trivial_cases_and_oracle():
    gen = RngStream(4).generator()
    target = _quadratic_target(2)
    cfg = np.array([[0.0], [1.0]])
    # phi2 == 0: always accept
    _, prob = rbmc_accept(0, cfg[0], np.array([5.0]), cfg, target, gen)
    assert prob == 1.0
    # unchanged position: always accept
    inv = _quadratic_target(2, phi2=lambda d: 1.0 / np.abs(np.atleast_2d(d)).ravel())
    _, prob = rbmc_accept(0, cfg[0], cfg[0], cfg, inv, gen)
    assert prob == 1.0
    # hand-computed Coulomb-style barrier
    _, prob = rbmc_accept(0, cfg[0], np.array([0.5]), cfg, inv, gen)
    assert prob == pytest.approx(math.exp(-1.0))


def test_rbmc_step_single_particle_is_unadjusted_langevin():
    target = _quadratic_target(1, beta=4.0, w=0.5)
    gen = RngStream(5).generator()
    config = np.array([[2.0]])
    stats = MarkovChainStats()
    out = rbmc_step(config, target, 1, 2, 0.01, gen, stats)
    assert stats.proposal_count == 1 and stats.acceptance_count == 1
    assert out.shape == (1, 1) and out[0, 0] != 2.0


def test_log_kernel_split_identities():
    r0 = 0.01
    phi1, grad_phi1, phi2 = log_kernel_split(r0)
    r = np.array([[0.5 * r0], [0.9 * r0], [1.5 * r0], [3.0]])
    # phi1 + phi2 reproduces -ln|r| everywhere
    np.testing.assert_allclose(phi1(r) + phi2(r), -np.log(np.abs(r.ravel())), atol=1e-12)
    # phi2 supported strictly inside r0
    assert np.all(phi2(np.array([[r0], [2 * r0]])) == 0.0)
    # C1 continuity of phi1 at the split
    eps = 1e-9
    left = phi1(np.array([[r0 - eps]]))[0]
    right = phi1(np.array([[r0 + eps]]))[0]
    assert abs(left - right) < 1e-6
    gl = grad_phi1(np.array([[r0 - eps]]))[0, 0]
    gr = grad_phi1(np.array([[r0 + eps]]))[0, 0]
    assert abs(gl - gr) < 1e-4


def test_detailed_balance_chi_square():
    """Exact-OU proposals + phi2 Metropolis correction preserve the Gibbs pair law.

    2000 independent two-particle chains run in lockstep; their terminal
    states are independent draws compared against the numerically integrated
    marginal by a chi-square test at the 1% level.
    """
    r0 = 0.5
    _, _, phi2 = log_kernel_split(r0)
    n_chains, sweeps, dt = 2000, 600, 0.3
    gen = RngStream(6).generator()
    x = gen.standard_normal((n_chains, 2))
    decay = math.exp(-dt)
    spread = math.sqrt(1 - decay**2)
    for sweep in range(sweeps):
        who = gen.integers(0, 2, size=n_chains)
        old = x[np.arange(n_chains), who]
        other = x[np.arange(n_chains), 1 - who]
        candidate = old * decay + spread * gen.standard_normal(n_chains)
        delta = phi2((candidate - other)[:, None]) - phi2((old - other)[:, None])
        accept = gen.random(n_chains) < np.exp(np.minimum(-delta, 0.0))
        x[np.arange(n_chains), who] = np.where(accept, candidate, old)
    samples = x.ravel()

    def marginal(u):
        val, _ = quad(
            lambda v: math.exp(-0.5 * (u * u + v * v) - float(phi2(np.array([[u - v]]))[0])),
            -6, 6, limit=200, points=[u - r0, u, u + r0],
        )
        return val

    edges = np.linspace(-3.0, 3.0, 25)
    grid_probs = np.array([quad(marginal, a, b, limit=100)[0] for a, b in zip(edges, edges[1:])])
    inside = (samples >= edges[0]) & (samples <= edges[-1])
    counts, _ = np.histogram(samples[inside], bins=edges)
    grid_probs /= grid_probs.sum()
    counts_total = counts.sum()
    stat = float(np.sum((counts - counts_total * grid_probs) ** 2 / (counts_total * grid_probs)))
    assert stat < chi2.ppf(0.99, df=len(counts) - 1)


def test_accept_rule_matches_vectorized_form():
    # the package acceptance and the chi-square test's vectorized rule agree
    r0 = 0.5
    phi1, grad_phi1, phi2 = log_kernel_split(r0)
    target = _quadratic_target(2, phi1=phi1, grad_phi1=grad_phi1, phi2=phi2, cutoff=r0)
    gen = RngStream(7).generator()
    for _ in range(100):
        cfg = gen.standard_normal((2, 1))
        cand = cfg[0] + 0.3 * gen.standard_normal(1)
        _, prob = rbmc_accept(0, cfg[0], cand, cfg, target, gen)
        delta = float(phi2(cand - cfg[1])[0] - phi2(cfg[0] - cfg[1])[0])
        assert prob == pytest.approx(min(1.0, math.exp(-delta)), abs=1e-12)


def test_fast_chain_agrees_with_generic_sampler():
    N = 16
    phi1, grad_phi1, phi2 = log_kernel_split(0.05)
    target = GibbsTarget(
        V=lambda x: 0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1),
        grad_V=lambda x: np.atleast_2d(x),
        phi1=phi1, grad_phi1=grad_phi1, phi2=phi2, phi2_cutoff=0.05,
        beta=float((N - 1) ** 2), w=1.0 / (N - 1), N=N,
    )
    x0 = RngStream(8).generator().uniform(-1, 1, N)
    _, pooled_fast, stats_fast = run_log_gas_chain(
        x0, target, 30_000, m=5, dt=5e-4, streams=SimStreams(9),
        warmup=10_000, snapshot_every=2000,
    )
    gen = SimStreams(10).proposal
    config = x0[:, None].copy()
    stats = MarkovChainStats()
    pooled = []
    for k in range(30_000):
        config = rbmc_step(config, target, 5, 2, 5e-4, gen, stats)
        if k >= 10_000 and k % 2000 == 0:
            pooled.append(config[:, 0].copy())
    from randbatch.diagnostics import wasserstein1_1d

    assert abs(stats_fast.acceptance_rate - stats.acceptance_rate) < 0.05
    assert wasserstein1_1d(pooled_fast, np.concatenate(pooled)) < 0.15


def test_log_gas_chain_final_config_is_pinned():
    """Pinned bits of the chain; half the particles start outside [-4, 4], in pairs within r0."""
    N = 12
    phi1, grad_phi1, phi2 = log_kernel_split(0.05)
    target = GibbsTarget(
        V=lambda x: 0.5 * np.sum(np.atleast_2d(x) ** 2, axis=1),
        grad_V=lambda x: np.atleast_2d(x),
        phi1=phi1, grad_phi1=grad_phi1, phi2=phi2, phi2_cutoff=0.05,
        beta=float((N - 1) ** 2), w=1.0 / (N - 1), N=N,
    )
    x0 = np.concatenate([RngStream(11).generator().uniform(-1, 1, 6),
                         4.5 + 0.03 * np.arange(3), -5.0 - 0.03 * np.arange(3)])
    x, pooled, stats = run_log_gas_chain(x0, target, 4000, m=3, dt=1e-3, streams=SimStreams(12),
                                         warmup=0, snapshot_every=1000)
    expected = [
        0.9795057688346478, 0.5871028207133473, 0.00872862292552165, -0.9959566394875689,
        0.11197550741682333, -0.5515782495984912, 1.5762874919452805, 2.1128697516534465,
        2.207394553316923, -2.250527498094395, -1.608188258164005, -2.0942962060994126,
    ]
    np.testing.assert_array_equal(x, expected)
    np.testing.assert_array_equal(pooled[-N:], expected)
    assert (stats.proposal_count, stats.acceptance_count, pooled.size) == (4000, 3946, 4 * N)


@pytest.mark.parametrize("seed, accepted", [(0, 15036), (1, 15002)])
def test_dyson_chain_acceptance_counts_are_pinned(seed, accepted):
    model = DysonModel(N=500, split_radius=0.01)
    streams = SimStreams(seed)
    _, _, stats = run_log_gas_chain(model.initial(streams.init), model.gibbs_target(), 20_000,
                                    m=5, dt=1e-4, streams=streams, snapshot_every=5000)
    assert stats.acceptance_count == accepted


def test_dyson_chain_counts_the_proposals_it_drops():
    # at dt = inf every proposal is non-finite; each is dropped and counted
    model = DysonModel(N=50)
    streams = SimStreams(0)
    x0 = model.initial(streams.init)
    x, _, stats = run_log_gas_chain(x0, model.gibbs_target(), 2000, m=5, dt=math.inf,
                                    streams=streams)
    assert stats.clamp_count == stats.proposal_count == 2000
    assert stats.acceptance_count == 0
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("chunk", [5, 20_000])
def test_a_diverging_dyson_chain_stops_at_the_chunk_it_leaves_the_bound_in(chunk):
    # at dt = 1e3 accepted proposals fling particles out to about 1e300
    model = DysonModel(N=50)
    streams = SimStreams(0)
    message = r"beyond 1e6 .* by iteration \d+ at particle \d+$"
    with pytest.raises(IntegrationError, match=message) as info:
        run_log_gas_chain(model.initial(streams.init), model.gibbs_target(), 2000, m=5, dt=1e3,
                          streams=streams, snapshot_every=chunk)
    iteration = int(str(info.value).split("by iteration ")[1].split()[0])
    assert iteration % chunk == 0 or iteration == 2000


# --- SVGD --------------------------------------------------------------------


GRAD_V = lambda x: x  # V = |x|^2 / 2: the flow targets N(0, I)


def _velocity(i, particles, bandwidth=1.0):
    return svgd_velocity(i, np.asarray(particles, dtype=np.float64), GRAD_V,
                         GaussianKernel(bandwidth=bandwidth))


def _stein(X, bandwidth=1.0, grad_V=GRAD_V):
    """The start state and the Stein system of the cloud X."""
    return ParticleState(positions=X), stein_system(grad_V, GaussianKernel(bandwidth))


def test_svgd_single_particle_is_map_descent():
    np.testing.assert_allclose(_velocity(0, [[1.0]]), [-1.0], atol=1e-14)


def test_svgd_two_particle_hand_value():
    # particles at 0 and 1, K = exp(-(x-y)^2), V = x^2/2
    k = math.exp(-1.0)
    expected = 0.5 * ((0.0 - 0.0) + (2 * (0.0 - 1.0) * k - k * 1.0))
    np.testing.assert_allclose(_velocity(0, [[0.0], [1.0]]), [expected], atol=1e-14)


def test_svgd_velocity_antisymmetric_for_symmetric_cloud():
    pts = [[-1.3], [-0.4], [0.4], [1.3]]
    for i, j in ((0, 3), (1, 2)):
        np.testing.assert_allclose(_velocity(i, pts), -_velocity(j, pts), atol=1e-12)


def test_svgd_fixed_point_from_root_finding_oracle():
    # closed-form stationarity for two particles at +-c: (c/2)(5 e^{-4c^2} - 1) = 0
    c_star = brentq(lambda c: 5 * math.exp(-4 * c * c) - 1.0, 0.1, 2.0, xtol=1e-14)
    assert c_star == pytest.approx(math.sqrt(math.log(5.0)) / 2, abs=1e-12)
    pts = [[+c_star], [-c_star]]
    np.testing.assert_allclose(_velocity(0, pts), 0.0, atol=1e-10)
    np.testing.assert_allclose(_velocity(1, pts), 0.0, atol=1e-10)


def test_rbm_svgd_full_batch_matches_svgd_step_exactly():
    gen = RngStream(15).generator()
    for bandwidth in (0.7, "median"):
        a, system = _stein(gen.standard_normal((16, 2)), bandwidth)
        b = ParticleState(positions=a.positions.copy())
        for _ in range(5):
            a = direct_step(a, system, 0.2, SimStreams(16))
            b = rbm_step_first_order(b, system, 16, 0.2, SimStreams(16))
        np.testing.assert_array_equal(a.positions, b.positions)


@pytest.mark.parametrize("N", [10, 11])
def test_rbm_svgd_step_matches_per_particle_oracle_on_a_remainder_division(N):
    # p = 3 leaves a batch of 4 (N = 10) or of 2 (N = 11); each batch has its own bandwidth
    from randbatch.samplers import _offdiag_sq_dists, _svgd_term_sum

    gen = RngStream(21).generator()
    X = gen.standard_normal((N, 2))
    state, system = _stein(X, "median")
    eta = 0.2
    gv = GRAD_V(X)
    out = rbm_step_first_order(state, system, 3, eta, SimStreams(22))
    division = random_division(N, 3, SimStreams(22).division)
    assert {len(b) for b in division.iter_batches()} != {3}
    velocity = np.empty_like(X)
    for batch in division.iter_batches():
        h = system.kernel.resolve(_offdiag_sq_dists(X[batch]), len(batch))
        for i in batch:
            mates = batch[batch != i]
            pref = (N - 1) / (N * (len(batch) - 1))
            velocity[i] = (_svgd_term_sum(X, i, np.array([i]), h, gv) / N
                           + pref * _svgd_term_sum(X, i, mates, h, gv))
    np.testing.assert_allclose(out.positions, X + eta * velocity, rtol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 16])
def test_a_stein_step_evaluates_grad_v_once(p):
    calls = []
    state, system = _stein(RngStream(24).generator().standard_normal((16, 2)), "median",
                           grad_V=lambda x: calls.append(1) or GRAD_V(x))
    for k in range(3):
        state = (direct_step(state, system, 0.1, SimStreams(25)) if p == 16
                 else rbm_step_first_order(state, system, p, 0.1, SimStreams(25)))
        assert len(calls) == k + 1


def test_svgd_step_takes_the_median_over_all_pairs_when_chunked():
    # 600 x 599 pair terms exceed one chunk of 2^18, so the sum and the median
    # distances come in row chunks; the bandwidth must still be the global one
    gen = RngStream(23).generator()
    X = gen.standard_normal((600, 2))
    state, system = _stein(X, "median")
    eta = 0.1
    out = direct_step(state, system, eta, SimStreams(0))
    for i in (0, 299, 599):
        expected = X[i] + eta * _velocity(i, X, "median")
        np.testing.assert_allclose(out.positions[i], expected, rtol=1e-12, atol=1e-14)


def test_rbm_svgd_batch_term_unbiased_by_enumeration():
    # mean over all divisions of the batch term equals the full off-diagonal sum
    gen = RngStream(17).generator()
    X = gen.standard_normal((4, 1))
    gv = X
    h = 0.9

    from randbatch.samplers import _svgd_term_sum

    N = 4
    full_offdiag = np.array([
        _svgd_term_sum(X, i, np.setdiff1d(np.arange(N), [i]), h, gv) / N for i in range(N)
    ])
    divisions = list(enumerate_divisions(4, 2))
    batch_terms = np.zeros((len(divisions), N, 1))
    for d_idx, div in enumerate(divisions):
        for i in range(N):
            js = div.batch_of(i)
            js = js[js != i]
            batch_terms[d_idx, i] = (N - 1) / (N * (2 - 1)) * _svgd_term_sum(X, i, js, h, gv)
    np.testing.assert_allclose(batch_terms.mean(axis=0), full_offdiag, atol=1e-12)


def _guard(state):
    """The gaussian run's per-step hook on ``state``."""
    _stop_far_svgd(SimpleNamespace(state=state), None, None)


def test_rbm_svgd_divergence_guard():
    state, system = _stein(np.array([[1e5], [-1e5]]), grad_V=lambda x: -x * 1e4)  # explosive
    _guard(state)
    with pytest.raises(IntegrationError, match="beyond 1e6"):
        _guard(rbm_step_first_order(state, system, 2, 10.0, SimStreams(18)))


def test_svgd_divergence_is_an_integration_error_naming_the_first_particle_beyond_1e6():
    # particle 0 lands at 50, particle 1 near 5e9; the kernel between them is exp(-1e10) = 0
    state, system = _stein(np.array([[1e-3], [1e5]]), grad_V=lambda x: -x * 1e4)
    out = direct_step(state, system, 10.0, SimStreams(0))
    assert abs(out.positions[0, 0]) < 1e6 < abs(out.positions[1, 0])
    with pytest.raises(IntegrationError, match="at particle 1$"):
        _guard(out)


def test_svgd_converges_to_standard_normal_moments():
    gen = RngStream(19).generator()
    state, system = _stein(-2.0 + gen.standard_normal((64, 1)), "median")
    for _ in range(600):
        state = direct_step(state, system, 0.3, SimStreams(0))
    assert abs(state.positions.mean()) < 0.05
    assert abs(state.positions.var() - 1.0) < 0.1
