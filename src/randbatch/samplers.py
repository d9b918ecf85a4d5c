"""Random Batch Monte Carlo and RBM-SVGD.

RBMC is a splitting Metropolis-Hastings chain for N-particle Gibbs measures
exp(-beta H): the smooth long-range pair part phi1 drives a mini-batched
overdamped-Langevin proposal (never rejected on its own), and the short-range
singular part phi2 enters only through the Metropolis accept/reject, made
cheap by its cutoff.  RBM-SVGD applies random batching to the Stein
variational particle flow: ``stein_system`` makes that flow a
``FirstOrderSystem``, so the ``integrators`` steppers take its explicit Euler
steps, one random division per step for RBM-SVGD.
"""

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .batching import batch_index_matrices
from .forces import batch_pair_sum
from .integrators import FirstOrderSystem, IntegrationError
from .rng import SimStreams
from .state import BatchDivision

# |x| past which a chain has diverged
_FAR = 1e6


@dataclass
class GibbsTarget:
    """exp(-beta [sum_i w V(x_i) + sum_{i<j} w^2 phi(x_i - x_j)]) with phi = phi1 + phi2.

    ``phi1``/``grad_phi1`` must be smooth and bounded (the proposal sees
    them); ``phi2`` is the short-range singular remainder with support inside
    ``phi2_cutoff``.  Callables are vectorized over rows.
    """

    V: Callable
    grad_V: Callable
    phi1: Callable
    grad_phi1: Callable
    phi2: Callable
    phi2_cutoff: Optional[float]
    beta: float
    w: float
    N: int

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.N < 1:
            raise ValueError("N must be >= 1")


@dataclass
class MarkovChainStats:
    proposal_count: int = 0
    acceptance_count: int = 0
    clamp_count: int = 0

    @property
    def acceptance_rate(self) -> float:
        if self.proposal_count == 0:
            return 0.0
        rate = self.acceptance_count / self.proposal_count
        if not 0.0 <= rate <= 1.0:
            raise ValueError("acceptance rate outside [0, 1]")
        return rate


def rbmc_propose(
    i: int,
    config: np.ndarray,
    target: GibbsTarget,
    m: int,
    p: int,
    schedule,
    rng: np.random.Generator,
    include_noise: bool = True,
) -> Optional[np.ndarray]:
    """m mini-batched Euler-Maruyama steps of the single-particle Langevin.

    All particles but i stay frozen; each inner step estimates the phi1 force
    from a fresh batch of p-1 distinct other particles.  Returns the candidate
    position, or None if it left the finite range.
    """
    N, w, beta = target.N, target.w, target.beta
    r = config[i].astype(np.float64).copy()
    if N == 1:
        # no interactions: unadjusted Langevin on V (time unit 1/w)
        for k in range(1, m + 1):
            dt = schedule(k) if callable(schedule) else schedule
            r = r - dt * target.grad_V(r[None, :])[0]
            if include_noise:
                r = r + math.sqrt(2.0 * dt / (w * beta)) * rng.standard_normal(r.shape)
        return r if np.all(np.isfinite(r)) else None
    if not 2 <= p <= N:
        raise ValueError("need 2 <= p <= N")
    others = np.delete(np.arange(N), i)
    noise_scale = math.sqrt(2.0 / ((N - 1) * w * w * beta))
    for k in range(1, m + 1):
        dt = schedule(k) if callable(schedule) else schedule
        batch = rng.choice(others, size=p - 1, replace=False)
        drift = target.grad_V(r[None, :])[0] / (w * (N - 1))
        drift = drift + target.grad_phi1(r[None, :] - config[batch]).sum(axis=0) / (p - 1)
        r = r - dt * drift
        if include_noise:
            r = r + noise_scale * math.sqrt(dt) * rng.standard_normal(r.shape)
    if not np.all(np.isfinite(r)):
        return None
    return r


def _phi2_sum(x: np.ndarray, others: np.ndarray, target: GibbsTarget) -> float:
    disp = x[None, :] - others
    if target.phi2_cutoff is not None:
        within = np.einsum("ij,ij->i", disp, disp) < target.phi2_cutoff**2
        disp = disp[within]
        if disp.size == 0:
            return 0.0
    return float(np.sum(target.phi2(disp)))


def rbmc_accept(
    i: int,
    old: np.ndarray,
    candidate: np.ndarray,
    config: np.ndarray,
    target: GibbsTarget,
    rng: np.random.Generator,
) -> Tuple[bool, float]:
    """Metropolis correction from the short-range part phi2 alone."""
    others = np.delete(config, i, axis=0)
    delta = _phi2_sum(candidate, others, target) - _phi2_sum(old, others, target)
    log_acc = -target.beta * target.w**2 * delta
    prob = 1.0 if log_acc >= 0 else math.exp(max(log_acc, -745.0))
    return bool(rng.random() < prob), prob


def rbmc_step(
    config: np.ndarray,
    target: GibbsTarget,
    m: int,
    p: int,
    schedule,
    rng: np.random.Generator,
    stats: Optional[MarkovChainStats] = None,
) -> np.ndarray:
    """One Markov jump: pick a particle, propose via phi1, accept via phi2."""
    config = np.asarray(config, dtype=np.float64)
    i = int(rng.integers(target.N))
    candidate = rbmc_propose(i, config, target, m, p, schedule, rng)
    if stats is not None:
        stats.proposal_count += 1
    if candidate is None:
        if stats is not None:
            stats.clamp_count += 1
        return config
    accepted, _ = rbmc_accept(i, config[i], candidate, config, target, rng)
    if accepted:
        config = config.copy()
        config[i] = candidate
        if stats is not None:
            stats.acceptance_count += 1
    return config


# --- smoothed-log pair potential (Dyson-type log gases) ----------------------


def log_kernel_split(r0: float):
    """Split -ln|r| at r0 into a C^1 smooth part and a short-range remainder.

    phi1 equals -ln|r| outside r0 and continues as a parabola inside, matching
    value and slope at r0; phi2 = -ln|r| - phi1 is singular with support in
    [0, r0).  Returns (phi1, grad_phi1, phi2) as vectorized callables.
    """
    if r0 <= 0:
        raise ValueError("split radius must be positive")
    a = -math.log(r0) + 0.5

    def phi1(disp):
        r = np.abs(np.asarray(disp, dtype=np.float64)).reshape(-1)
        out = np.where(r >= r0, -np.log(np.maximum(r, 1e-300)), a - r * r / (2 * r0 * r0))
        return out

    def grad_phi1(disp):
        disp = np.asarray(disp, dtype=np.float64)
        r = np.abs(disp)
        inner = -disp / (r0 * r0)
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = -1.0 / disp
        return np.where(r >= r0, outer, inner)

    def phi2(disp):
        r = np.abs(np.asarray(disp, dtype=np.float64)).reshape(-1)
        with np.errstate(divide="ignore"):
            full = -np.log(r)
        short = full - (a - r * r / (2 * r0 * r0))
        return np.where(r < r0, short, 0.0)

    return phi1, grad_phi1, phi2


def run_log_gas_chain(
    x0: np.ndarray,
    target: GibbsTarget,
    n_iterations: int,
    m: int,
    dt: float,
    streams: SimStreams,
    warmup: int = 0,
    snapshot_every: int = 20_000,
) -> Tuple[np.ndarray, np.ndarray, MarkovChainStats]:
    """RBMC chain for 1-d log-gas targets (V quadratic, p = 2), split at ``target.phi2_cutoff``.

    The m proposal steps each take the phi1 force of one random other
    particle; the phi2 acceptance reads the neighbours within the cutoff off a
    sorted list of positions.  A proposal that is not finite is dropped and
    counted in ``clamp_count``.  Returns (final config, pooled post-warmup
    snapshots, stats).  Randomness is pre-drawn from ``streams.proposal`` in
    chunks of ``snapshot_every`` iterations.  If a position has left
    |x| <= 1e6 by the end of a chunk, the chain raises ``IntegrationError``
    naming that iteration and the first such particle.
    """
    x = np.asarray(x0, dtype=np.float64).tolist()
    N = len(x)
    if target.N != N:
        raise ValueError("config size does not match target")
    dt, r0 = float(dt), float(target.phi2_cutoff)
    v_coef = 1.0 / (target.w * (N - 1))
    noise_std = math.sqrt(2.0 * dt / ((N - 1) * target.w**2 * target.beta))
    beta_w2 = target.beta * target.w**2
    r0_sq, phi1_at_0 = r0 * r0, -math.log(r0) + 0.5
    ordered = sorted(x)

    rng = streams.proposal
    stats = MarkovChainStats()
    snapshots = []
    done = 0
    while done < n_iterations:
        size = min(snapshot_every, n_iterations - done)
        picks = rng.integers(0, N, size=size).tolist()
        batch_ints = rng.integers(0, N - 1, size=(size, m)).tolist()
        normals = rng.standard_normal((size, m)).tolist()
        accept_u = rng.random(size).tolist()
        for i, mates, noise, u in zip(picks, batch_ints, normals, accept_u):
            xi = x[i]
            r = xi
            for j, z in zip(mates, noise):
                y = r - x[j if j < i else j + 1]
                drift = v_coef * r + (-1.0 / y if abs(y) >= r0 else -y / r0_sq)
                r = r - dt * drift + noise_std * z
            if not math.isfinite(r):
                stats.clamp_count += 1  # dropped, as in rbmc_step
                continue
            # sum_j phi2(r - x_j) - phi2(xi - x_j) over j != i; one entry xi is i's own
            delta = 0.0
            for pos, sign in ((r, 1.0), (xi, -1.0)):
                own = True
                for xj in ordered[bisect_left(ordered, pos - r0):bisect_right(ordered, pos + r0)]:
                    if own and xj == xi:
                        own = False
                        continue
                    ay = abs(pos - xj)
                    if ay >= r0:
                        continue
                    # 1e300: a hard core for a position exactly on another particle
                    phi2 = (-math.log(ay) - phi1_at_0 + ay * ay / (2.0 * r0_sq) if ay > 0.0
                            else 1e300)
                    delta += sign * phi2
            log_acc = -beta_w2 * delta
            if log_acc >= 0.0 or math.log(max(u, 1e-300)) <= log_acc:
                del ordered[bisect_left(ordered, xi)]
                insort(ordered, r)
                x[i] = r
                stats.acceptance_count += 1
        stats.proposal_count += size
        done += size
        if ordered[0] < -_FAR or ordered[-1] > _FAR:
            far = next(k for k, xk in enumerate(x) if abs(xk) > _FAR)
            raise IntegrationError(f"position beyond 1e6 (decrease the step size) by iteration "
                                   f"{done} at particle {far}")
        if done > warmup:
            snapshots.append(np.array(x))
    pooled = np.concatenate(snapshots) if snapshots else np.empty(0)
    return np.array(x), pooled, stats


# --- Stein variational gradient descent --------------------------------------


@dataclass
class GaussianKernel:
    """K(x, y) = exp(-|x - y|^2 / h); bandwidth fixed or by median heuristic."""

    bandwidth: float | str = "median"

    def __post_init__(self):
        if self.bandwidth != "median" and not (isinstance(self.bandwidth, (int, float))
                                               and self.bandwidth > 0):
            raise ValueError("bandwidth must be 'median' or a positive number")

    def resolve(self, sq_dists: np.ndarray, n: int):
        """Bandwidth for groups of n particles; the median runs over the last axis."""
        if self.bandwidth == "median":
            med = np.median(sq_dists, axis=-1) if sq_dists.size else 1.0
            return np.maximum(med / max(math.log(max(n, 2)), 1.0), 1e-12)
        return float(self.bandwidth)


def _offdiag_sq_dists(X: np.ndarray) -> np.ndarray:
    diffs = X[:, None, :] - X[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diffs, diffs)
    return sq[~np.eye(X.shape[0], dtype=bool)]


def _svgd_term_sum(X: np.ndarray, i: int, js: np.ndarray, h: float, gv: np.ndarray) -> np.ndarray:
    """sum over js of grad_y K(x_i, x_j) - K(x_i, x_j) grad V(x_j)."""
    diffs = X[i] - X[js]
    k = np.exp(-np.einsum("ij,ij->i", diffs, diffs) / h)
    return ((2.0 / h) * diffs * k[:, None] - k[:, None] * gv[js]).sum(axis=0)


def svgd_velocity(i: int, X: np.ndarray, grad_V: Callable, kernel: GaussianKernel) -> np.ndarray:
    """Full-batch Stein flow velocity (1/N) sum_j [grad_y K - K grad V] of particle i."""
    N = X.shape[0]
    h = kernel.resolve(_offdiag_sq_dists(X), N)
    return _svgd_term_sum(X, i, np.arange(N), h, grad_V(X)) / N


def _batch_bandwidths(X: np.ndarray, division: Optional[BatchDivision], kernel: GaussianKernel):
    """Each particle's bandwidth, resolved over every pair of its batch (None: all N).

    The squared distances come in chunks of rows of about 2^18 entries, so the
    (q, q, d) differences of a large batch never exist at once.
    """
    N = X.shape[0]
    if kernel.bandwidth != "median":
        return np.full((N, 1), float(kernel.bandwidth))
    h = np.empty((N, 1))
    blocks = [(N, np.arange(N)[None, :])] if division is None else batch_index_matrices(division)
    for size, idx in blocks:
        xb = X[idx]
        step = max(1, (1 << 18) // idx.size)
        sq = np.concatenate([np.einsum("...k,...k->...", d, d) for d in
                             (xb[:, s:s + step, None] - xb[:, None] for s in range(0, size, step))],
                            axis=1)
        h[idx] = kernel.resolve(sq[:, ~np.eye(size, dtype=bool)], size)[:, None, None]
    return h


def _stein_term(xi, xj, gi, gj, hi, hj):
    """grad_y K(x_i, x_j) - K(x_i, x_j) grad V(x_j) at i's bandwidth."""
    diffs = xi - xj
    k = np.exp(-np.einsum("...k,...k->...", diffs, diffs)[..., None] / hi)
    return (2.0 / hi) * diffs * k - k * gj


@dataclass
class _SteinSystem(FirstOrderSystem):
    grad_V: Optional[Callable] = None

    def batch_forces(self, state, division=None) -> np.ndarray:
        """The Stein velocity over each particle's batch, bandwidth per batch: the pair
        sum plus the self term -grad V(x_i) / N, from one evaluation of grad V."""
        X = state.positions
        N = X.shape[0]
        gv = self.grad_V(X)
        fields = (X, gv, _batch_bandwidths(X, division, self.kernel))
        pairs = batch_pair_sum(division, _stein_term, fields, lambda q: (N - 1) / (N * (q - 1)))
        return -gv / N + pairs


def stein_system(grad_V: Callable, kernel: GaussianKernel) -> FirstOrderSystem:
    """The Stein variational flow of N particles toward exp(-V) as a noiseless first-order system.

    dx_i/dt = -grad V(x_i) / N + (1/N) sum_{j != i} [grad_y K(x_i, x_j) - K grad V(x_j)]:
    ``batch_forces`` gives the self term plus the sum over j, which over a
    batch of q takes weight (N - 1) / (N (q - 1)); the system has no separate
    drift, so one grad V evaluation serves both.  ``direct_step`` is then an
    explicit Euler step of SVGD and ``rbm_step_first_order`` is RBM-SVGD,
    with dt as the step size eta.
    """
    return _SteinSystem(kernel=kernel, alpha_N=1.0, grad_V=grad_V)
