"""The log-gas RBMC chain against an exact Metropolis oracle, and SVGD."""

import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import chi2

from oracles import (_offdiag_sq_dists, _svgd_term_sum, batch_of, enumerate_divisions,
                     iter_batches, svgd_velocity)
from randbatch.batching import random_division
from randbatch.diagnostics import wasserstein1_1d
from randbatch.integrators import IntegrationError, direct_step, rbm_step_first_order
from randbatch.models import DysonModel
from randbatch.rng import RngStream, SimStreams
from randbatch.runner import MODELS, _simulate, _stop_far, validate_dict
from randbatch.samplers import GaussianKernel, MarkovChainStats, run_log_gas_chain, stein_system
from randbatch.state import ParticleState


def _log_gas_chain(x0, model, n_moves, dt, rng, block, warmup=0):
    """``run_log_gas_chain`` from x0, ``block`` moves a call as the runner's loop calls it:
    (final x, the snapshots after each call that ends past ``warmup`` moves, stats)."""
    x = np.asarray(x0, dtype=np.float64).tolist()
    chain = SimpleNamespace(x=x, ordered=sorted(x), stats=MarkovChainStats(), model=model)
    snapshots = []
    for start in range(0, n_moves, block):
        moves = min(block, n_moves - start)
        run_log_gas_chain(chain, moves, dt, rng)
        if start + moves > warmup:
            snapshots.append(np.array(x))
    return np.array(x), np.concatenate(snapshots), chain.stats


def _exact_log_gas_chain(x0, n_moves, step, rng, warmup=0, snapshot_every=1):
    """Random-walk Metropolis on exp(-H), H = (N-1)/2 sum x_i^2 - sum_{i<j} ln|x_i - x_j|.

    Each move shifts one random particle by step * N(0, 1) and accepts with
    min(1, exp(-dH)), dH summed over the N - 1 pairs it is in, so the chain
    samples the Gibbs measure exactly.  Returns the (n, N) snapshots taken
    every ``snapshot_every`` moves after ``warmup``.
    """
    x = np.asarray(x0, dtype=np.float64).tolist()
    N = len(x)
    picks = rng.integers(0, N, n_moves).tolist()
    shifts = (step * rng.standard_normal(n_moves)).tolist()
    log_u = np.log(rng.random(n_moves)).tolist()
    snapshots = []
    for k, (i, dx, lu) in enumerate(zip(picks, shifts, log_u), 1):
        xi, y = x[i], x[i] + dx
        dH = 0.5 * (N - 1) * (y * y - xi * xi)
        for j, xj in enumerate(x):
            if j != i:
                dH -= math.log(abs((y - xj) / (xi - xj)))
        if lu <= -dH:
            x[i] = y
        if k > warmup and k % snapshot_every == 0:
            snapshots.append(list(x))
    return np.array(snapshots)


@pytest.mark.parametrize("field, value, message", [("N", 1, "N must be >= 2"),
                                                   ("m", 0, "m must be an integer >= 1"),
                                                   ("split_radius", 0.0, "split radius")])
def test_dyson_model_refuses_what_the_chain_cannot_run(field, value, message):
    fields = {"N": 4, "split_radius": 0.01, "m": 5, field: value}
    with pytest.raises(ValueError, match=message):
        DysonModel(**fields)


def test_exact_chain_pair_spread_at_n_2_is_the_closed_form():
    # at N = 2 the gap d = x1 - x2 has density |d| exp(-d^2 / 4), so E d^2 = 4
    x = _exact_log_gas_chain([0.5, -0.5], 200_000, 1.5, SimStreams(3).proposal, warmup=1000)
    d2 = (x[:, 0] - x[:, 1]) ** 2
    batches = d2[: d2.size // 40 * 40].reshape(40, -1).mean(axis=1)  # batch means
    assert abs(d2.mean() - 4.0) < 4 * batches.std(ddof=1) / math.sqrt(batches.size)


def test_detailed_balance_chi_square():
    """Exact-OU proposals + phi2 Metropolis correction preserve the Gibbs pair law.

    2000 independent two-particle chains run in lockstep; their terminal
    states are independent draws compared against the numerically integrated
    marginal by a chi-square test at the 1% level.
    """
    r0 = 0.5

    def phi2(r):
        """The singular part of -ln|r| split at r0: -ln|r| minus its C^1 parabola inside r0."""
        r = np.abs(r)
        with np.errstate(divide="ignore"):
            full = -np.log(r)
        return np.where(r < r0, full - (-math.log(r0) + 0.5 - r * r / (2 * r0 * r0)), 0.0)

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
        delta = phi2(candidate - other) - phi2(old - other)
        accept = gen.random(n_chains) < np.exp(np.minimum(-delta, 0.0))
        x[np.arange(n_chains), who] = np.where(accept, candidate, old)
    samples = x.ravel()

    def marginal(u):
        val, _ = quad(
            lambda v: math.exp(-0.5 * (u * u + v * v) - float(phi2(u - v))),
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


def _log_gas_energy(snapshots):
    """H = (N-1)/2 sum x_i^2 - sum_{i<j} ln|x_i - x_j| of each row of an (n, N) array."""
    i, j = np.triu_indices(snapshots.shape[1], 1)
    return (0.5 * (snapshots.shape[1] - 1) * np.sum(snapshots**2, axis=1)
            - np.sum(np.log(np.abs(snapshots[:, i] - snapshots[:, j])), axis=1))


def test_fast_chain_agrees_with_exact_metropolis():
    # the exact chain moves by the spread of the RBMC proposal's m steps, so both
    # mix at about the same rate.  Over 10 seed pairs two exact runs read W1 =
    # 0.019 +- 0.0053 (max 0.031); the bound is that mean plus 4 sd.  At dt = 2e-2
    # the fast chain's bias reads 0.061-0.072 against exact runs.
    # The one-particle marginal hardly moves with the temperature at this N, and
    # near-collisions are rare, so the snapshots' energies H are compared too.
    # Over 12 seed pairs two exact runs read their W1 = 0.29 +- 0.10 (max 0.47);
    # the bound is that mean plus 4 sd.  The proposal noise x1.3 reads 2.97-3.49
    # and a dropped phi2 acceptance 0.87-1.68 over 6 seeds
    N, dt, m = 16, 5e-4, 5
    model = DysonModel(N=N, split_radius=0.05, m=m)
    x0 = RngStream(8).generator().uniform(-1, 1, N)
    _, fast, _ = _log_gas_chain(x0, model, 400_000, dt, SimStreams(9).proposal, block=1000,
                                warmup=100_000)
    exact = _exact_log_gas_chain(x0, 400_000, math.sqrt(m * 2 * dt / (N - 1)),
                                 SimStreams(10).proposal, warmup=100_000, snapshot_every=1000)
    assert fast.size == exact.size == 300 * N
    assert wasserstein1_1d(fast, exact.ravel()) < 0.04
    assert wasserstein1_1d(_log_gas_energy(fast.reshape(-1, N)), _log_gas_energy(exact)) < 0.69


def test_log_gas_chain_final_config_is_pinned():
    """Pinned bits of the chain; half the particles start outside [-4, 4], in pairs within r0."""
    N = 12
    model = DysonModel(N=N, split_radius=0.05, m=3)
    x0 = np.concatenate([RngStream(11).generator().uniform(-1, 1, 6),
                         4.5 + 0.03 * np.arange(3), -5.0 - 0.03 * np.arange(3)])
    x, pooled, stats = _log_gas_chain(x0, model, 4000, 1e-3, SimStreams(12).proposal,
                                      block=1000)
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
    _, _, stats = _log_gas_chain(model.initial(streams.init), model, 20_000, 1e-4,
                                 streams.proposal, block=5000)
    assert stats.acceptance_count == accepted


def test_a_long_dyson_chain_call_holds_one_chunk_of_draws():
    # the draws come in chunks of 2^13 moves, about 3.8 MB of Python lists at N = 500
    # and m = 5 (3.85 MB for 10^5 moves); one up-front draw of 20 000 moves peaks at
    # 9.4 MB, and of 10^5 moves at 47 MB.  Under tracemalloc a move costs about 70 us,
    # so the call is kept to two chunks and part of a third
    model = DysonModel(N=500)
    streams = SimStreams(0)
    x = model.initial(streams.init).tolist()
    chain = SimpleNamespace(x=x, ordered=sorted(x), stats=MarkovChainStats(), model=model)
    tracemalloc.start()
    try:
        run_log_gas_chain(chain, 20_000, 1e-4, streams.proposal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.stats.proposal_count == 20_000
    assert peak < 5e6


def test_dyson_chain_counts_the_proposals_it_drops():
    # at dt = inf every proposal is non-finite; each is dropped and counted
    model = DysonModel(N=50)
    streams = SimStreams(0)
    x0 = model.initial(streams.init)
    x, _, stats = _log_gas_chain(x0, model, 2000, math.inf, streams.proposal, block=2000)
    assert stats.clamp_count == stats.proposal_count == 2000
    assert stats.acceptance_count == 0
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("sweeps", [399, 2000])  # blocks of one move and of five
def test_a_diverging_dyson_chain_stops_at_the_block_it_leaves_the_bound_in(sweeps):
    # at dt = 3 the proposals overshoot, and the chain passes 1e6 after a few blocks
    cfg = validate_dict({"model": {"id": "dyson", "N": 50}, "run": {"dt": 3, "sweeps": sweeps}})
    message = r"beyond 1e6 .* at particle \d+ at step \d+$"
    with pytest.raises(IntegrationError, match=message) as info:
        _simulate(cfg, SimStreams(0))
    particle, step = (int(n) for n in re.findall(r"at (?:particle|step) (\d+)", str(info.value)))
    assert step > 1
    sim = MODELS["dyson"].build(cfg, SimStreams(0))
    for k in range(1, step + 1):
        run_log_gas_chain(sim, sim.block, 3, sim.streams.proposal)
        far = np.flatnonzero(np.abs(sim.x) > 1e6)
        assert (far.size > 0) == (k == step)
    assert far[0] == particle


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
    gen = RngStream(21).generator()
    X = gen.standard_normal((N, 2))
    state, system = _stein(X, "median")
    eta = 0.2
    gv = GRAD_V(X)
    out = rbm_step_first_order(state, system, 3, eta, SimStreams(22))
    division = random_division(N, 3, SimStreams(22).division)
    assert {len(b) for b in iter_batches(division)} != {3}
    velocity = np.empty_like(X)
    for batch in iter_batches(division):
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

    N = 4
    full_offdiag = np.array([
        _svgd_term_sum(X, i, np.setdiff1d(np.arange(N), [i]), h, gv) / N for i in range(N)
    ])
    divisions = list(enumerate_divisions(4, 2))
    batch_terms = np.zeros((len(divisions), N, 1))
    for d_idx, div in enumerate(divisions):
        for i in range(N):
            js = batch_of(div, i)
            js = js[js != i]
            batch_terms[d_idx, i] = (N - 1) / (N * (2 - 1)) * _svgd_term_sum(X, i, js, h, gv)
    np.testing.assert_allclose(batch_terms.mean(axis=0), full_offdiag, atol=1e-12)


def _guard(state):
    """The gaussian run's per-step hook on ``state``."""
    _stop_far(SimpleNamespace(state=state), None, None)


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
