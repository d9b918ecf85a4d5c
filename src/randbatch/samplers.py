"""Random Batch Monte Carlo and RBM-SVGD.

RBMC is a splitting Metropolis-Hastings chain for N-particle Gibbs measures
exp(-beta H): the smooth long-range pair part phi1 drives a mini-batched
overdamped-Langevin proposal (never rejected on its own), and the short-range
singular part phi2 enters only through the Metropolis accept/reject, made
cheap by its cutoff.  RBM-SVGD applies random batching to the Stein
variational particle flow.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .backend import njit
from .batching import random_division
from .forces import batch_pair_sum
from .rng import SimStreams
from .state import BatchDivision


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
    energy_trace: list = field(default_factory=list)

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


@njit(inline="always")
def _grad_phi1_scalar(y, r0, use_phi1):
    if use_phi1 == 0:
        return 0.0
    ay = abs(y)
    if ay >= r0:
        return -1.0 / y
    return -y / (r0 * r0)


@njit(inline="always")
def _phi2_scalar(y, r0):
    ay = abs(y)
    if ay >= r0:
        return 0.0
    if ay <= 0.0:
        return 1e300  # hard-core: candidate sitting exactly on a particle
    return -math.log(ay) - (-math.log(r0) + 0.5) + ay * ay / (2.0 * r0 * r0)


@njit
def _bin_of(x, lo, inv_width, n_bins):
    b = int((x - lo) * inv_width)
    if b < 0:
        b = 0
    elif b >= n_bins:
        b = n_bins - 1
    return b


@njit
def _bins_build(x, lo, inv_width, n_bins, members, counts):
    counts[:] = 0
    for idx in range(x.shape[0]):
        b = _bin_of(x[idx], lo, inv_width, n_bins)
        members[b, counts[b]] = idx
        counts[b] += 1


@njit
def _bins_remove(members, counts, b, idx):
    c = counts[b]
    for s in range(c):
        if members[b, s] == idx:
            members[b, s] = members[b, c - 1]
            counts[b] = c - 1
            return
    raise RuntimeError("particle missing from its bin")


@njit
def _phi2_delta(x, i, x_old, x_new, r0, lo, inv_width, n_bins, members, counts):
    """sum_j phi2(x_new - x_j) - phi2(x_old - x_j) via the neighbor bins."""
    delta = 0.0
    for which in range(2):
        pos = x_new if which == 0 else x_old
        sign = 1.0 if which == 0 else -1.0
        b0 = _bin_of(pos, lo, inv_width, n_bins)
        for b in range(max(b0 - 1, 0), min(b0 + 2, n_bins)):
            for s in range(counts[b]):
                j = members[b, s]
                if j == i:
                    continue
                delta += sign * _phi2_scalar(pos - x[j], r0)
    return delta


@njit
def _log_gas_chunk(
    x,
    picks,
    batch_ints,
    normals,
    accept_u,
    dt,
    r0,
    v_coef,
    noise_std,
    beta_w2,
    use_phi1,
    lo,
    inv_width,
    n_bins,
    members,
    counts,
    cap,
):
    """Process one chunk of single-particle RBMC updates (p = 2 fast path)."""
    n_iter, m = batch_ints.shape
    accepted = 0
    for t in range(n_iter):
        i = picks[t]
        xi = x[i]
        r = xi
        for k in range(m):
            u = batch_ints[t, k]
            j = u if u < i else u + 1
            drift = v_coef * r + _grad_phi1_scalar(r - x[j], r0, use_phi1)
            r = r - dt * drift + noise_std * normals[t, k]
        if not math.isfinite(r):
            continue
        delta = _phi2_delta(x, i, xi, r, r0, lo, inv_width, n_bins, members, counts)
        log_acc = -beta_w2 * delta
        if log_acc >= 0.0 or math.log(max(accept_u[t], 1e-300)) <= log_acc:
            b_old = _bin_of(xi, lo, inv_width, n_bins)
            b_new = _bin_of(r, lo, inv_width, n_bins)
            if b_new != b_old:
                if counts[b_new] >= cap:
                    raise RuntimeError("neighbor bin overflow; increase capacity")
                _bins_remove(members, counts, b_old, i)
                members[b_new, counts[b_new]] = i
                counts[b_new] += 1
            x[i] = r
            accepted += 1
    return accepted


def run_log_gas_chain(
    x0: np.ndarray,
    target: GibbsTarget,
    n_iterations: int,
    m: int,
    dt: float,
    streams: SimStreams,
    warmup: int = 0,
    snapshot_every: int = 20_000,
    r0: Optional[float] = None,
    use_phi1: bool = True,
    domain_halfwidth: float = 4.0,
) -> Tuple[np.ndarray, np.ndarray, MarkovChainStats]:
    """Compiled RBMC chain for 1-d log-gas targets (V quadratic, p = 2).

    The short-range acceptance uses a uniform bin grid of width r0, the 1-d
    cell list.  Returns (final config, pooled post-warmup snapshots, stats).
    Randomness is pre-drawn per chunk from ``streams.proposal`` so the numba
    and pure-python backends walk identical chains.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    N = x.shape[0]
    if target.N != N:
        raise ValueError("config size does not match target")
    if r0 is None:
        r0 = target.phi2_cutoff
    v_coef = 1.0 / (target.w * (N - 1))
    noise_std = math.sqrt(2.0 * dt / ((N - 1) * target.w**2 * target.beta))
    beta_w2 = target.beta * target.w**2
    lo = -domain_halfwidth
    bin_width = max(r0, 1e-6)
    n_bins = max(int((2 * domain_halfwidth) / bin_width), 1)
    inv_width = 1.0 / bin_width
    cap = max(64, 4 * N // n_bins + 8)
    members = np.zeros((n_bins, cap), dtype=np.int64)
    counts = np.zeros(n_bins, dtype=np.int64)
    _bins_build(x, lo, inv_width, n_bins, members, counts)

    rng = streams.proposal
    stats = MarkovChainStats()
    snapshots = []
    chunk = snapshot_every
    done = 0
    while done < n_iterations:
        size = min(chunk, n_iterations - done)
        picks = rng.integers(0, N, size=size)
        batch_ints = rng.integers(0, N - 1, size=(size, m))
        normals = rng.standard_normal((size, m))
        accept_u = rng.random(size)
        accepted = _log_gas_chunk(
            x, picks, batch_ints, normals, accept_u,
            dt, r0, v_coef, noise_std, beta_w2, 1 if use_phi1 else 0,
            lo, inv_width, n_bins, members, counts, cap,
        )
        stats.proposal_count += size
        stats.acceptance_count += int(accepted)
        done += size
        if done > warmup:
            snapshots.append(x.copy())
    pooled = np.concatenate(snapshots) if snapshots else np.empty(0)
    return x, pooled, stats


# --- Stein variational gradient descent --------------------------------------


class SvgdDivergence(RuntimeError):
    """Raised when particles blow up; use a smaller or decaying step size."""


@dataclass
class GaussianKernel:
    """K(x, y) = exp(-|x - y|^2 / h); bandwidth fixed or by median heuristic."""

    bandwidth: float | str = "median"

    def resolve(self, sq_dists: np.ndarray, n: int):
        """Bandwidth for groups of n particles; the median runs over the last axis."""
        if self.bandwidth == "median":
            med = np.median(sq_dists, axis=-1) if sq_dists.size else 1.0
            return np.maximum(med / max(math.log(max(n, 2)), 1.0), 1e-12)
        return float(self.bandwidth)


@dataclass
class SvgdState:
    """Particle cloud descending the KL gradient toward exp(-V)."""

    particles: np.ndarray
    grad_V: Callable
    kernel: GaussianKernel = field(default_factory=GaussianKernel)

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=np.float64))


def _offdiag_sq_dists(X: np.ndarray) -> np.ndarray:
    diffs = X[:, None, :] - X[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diffs, diffs)
    return sq[~np.eye(X.shape[0], dtype=bool)]


def _svgd_term_sum(X: np.ndarray, i: int, js: np.ndarray, h: float, gv: np.ndarray) -> np.ndarray:
    """sum over js of grad_y K(x_i, x_j) - K(x_i, x_j) grad V(x_j)."""
    diffs = X[i] - X[js]
    k = np.exp(-np.einsum("ij,ij->i", diffs, diffs) / h)
    return ((2.0 / h) * diffs * k[:, None] - k[:, None] * gv[js]).sum(axis=0)


def svgd_velocity(i: int, state: SvgdState) -> np.ndarray:
    """Full-batch Stein flow velocity (1/N) sum_j [grad_y K - K grad V]."""
    X = state.particles
    N = X.shape[0]
    h = state.kernel.resolve(_offdiag_sq_dists(X), N)
    gv = state.grad_V(X)
    return _svgd_term_sum(X, i, np.arange(N), h, gv) / N


def _svgd_update(X, gv, division: Optional[BatchDivision], kernel: GaussianKernel, eta):
    """Self-term -gv/N plus the weighted sum over batch mates, bandwidth per batch."""
    N = X.shape[0]

    def term(xi, xj, gi, gj):
        diffs = xi - xj
        sq = np.einsum("...k,...k->...", diffs, diffs)
        B, q = sq.shape[:2]
        h = np.reshape(kernel.resolve(sq.reshape(B, -1), q), (-1, 1, 1, 1))
        k = np.exp(-sq[..., None] / h)
        return (2.0 / h) * diffs * k - k * gj

    pairs = 0.0
    if N > 1:
        pairs = batch_pair_sum(division, term, (X, gv), lambda q: (N - 1) / (N * (q - 1)))
    new = X + eta * (-gv / N + pairs)
    if np.max(np.abs(new)) > 1e6:
        raise SvgdDivergence("particles exceeded 1e6; decrease the step size")
    return new


def svgd_step(state: SvgdState, eta: float) -> SvgdState:
    """Explicit Euler step of the full Stein flow."""
    X = state.particles
    gv = state.grad_V(X)
    new = _svgd_update(X, gv, None, state.kernel, eta)
    return SvgdState(particles=new, grad_V=state.grad_V, kernel=state.kernel)


def rbm_svgd_step(state: SvgdState, p: int, eta: float, streams: SimStreams) -> SvgdState:
    """Random-batch Stein step: one division, batch-local kernel interactions."""
    X = state.particles
    N = X.shape[0]
    division = random_division(N, p, streams.division)
    gv = state.grad_V(X)
    new = _svgd_update(X, gv, division, state.kernel, eta)
    return SvgdState(particles=new, grad_V=state.grad_V, kernel=state.kernel)
