"""Random Batch Monte Carlo for 1-d log gases, and RBM-SVGD.

RBMC is a splitting Metropolis-Hastings chain for N-particle Gibbs measures
exp(-beta H): the smooth long-range pair part phi1 drives a mini-batched
overdamped-Langevin proposal (never rejected on its own), and the short-range
singular part phi2 enters only through the Metropolis accept/reject, made
cheap by its cutoff.  ``run_log_gas_chain``, the package's one RBMC chain,
advances the 1-d log gas of a ``models.DysonModel`` by a block of moves, and
the runner's experiment loop steps it one block per step.  RBM-SVGD applies
random batching to the Stein variational particle flow: ``stein_system`` makes
that flow a ``FirstOrderSystem``, so the ``integrators`` steppers take its
explicit Euler steps, one random division per step for RBM-SVGD.
"""

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .batching import batch_index_matrices
from .forces import batch_pair_sum
from .integrators import FirstOrderSystem
from .state import BatchDivision


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


# moves whose randomness is drawn at once: as Python lists a move's draws take about
# 470 bytes at m = 5, so a call holds about 4 MB of them however many moves it makes
_CHUNK_MOVES = 1 << 13


def run_log_gas_chain(chain, n_moves: int, dt: float, rng: np.random.Generator):
    """``n_moves`` moves of the RBMC chain (p = 2) for the 1-d log gas of ``chain.model``.

    The target is exp(-beta [sum_i w x_i^2 / 2 - sum_{i<j} w^2 ln|x_i - x_j|])
    with w = 1/(N-1) and beta = (N-1)^2, the Dyson model's invariant measure.
    -ln|r| splits at r0 = ``model.split_radius``: phi1 is -ln|r| outside r0
    and the parabola matching its value and slope at r0 inside, and the
    singular remainder phi2 = -ln|r| - phi1 has support in [0, r0).
    ``chain`` carries the positions ``x``, a list of floats, the same values
    sorted in ``ordered``, and a ``MarkovChainStats``; the moves update all
    three in place.  Each move picks one particle, so a sweep of all N is N
    moves.  The ``model.m`` proposal steps each take the phi1 force of one
    random other particle; the phi2 acceptance reads the neighbours within r0
    off ``ordered``.  A proposal that is not finite is dropped and counted in
    ``clamp_count``.  The moves' randomness is drawn from ``rng`` a chunk of
    at most ``_CHUNK_MOVES`` moves at a time, so a run's bits depend on how
    its moves are split into calls.
    """
    x, ordered, stats, model = chain.x, chain.ordered, chain.stats, chain.model
    N = len(x)
    w, beta = 1.0 / (N - 1), float((N - 1) ** 2)
    dt, r0, m = float(dt), float(model.split_radius), model.m
    v_coef = 1.0 / (w * (N - 1))
    noise_std = math.sqrt(2.0 * dt / ((N - 1) * w**2 * beta))
    beta_w2 = beta * w**2
    r0_sq, phi1_at_0 = r0 * r0, -math.log(r0) + 0.5

    # each chunk's picks, mates, normals and uniforms, drawn when the moves reach it
    chunks = (min(_CHUNK_MOVES, n_moves - s) for s in range(0, n_moves, _CHUNK_MOVES))
    draws = itertools.chain.from_iterable(
        zip(rng.integers(0, N, size=n).tolist(), rng.integers(0, N - 1, size=(n, m)).tolist(),
            rng.standard_normal((n, m)).tolist(), rng.random(n).tolist()) for n in chunks)
    for i, mates, noise, u in draws:
        xi = x[i]
        r = xi
        for j, z in zip(mates, noise):
            y = r - x[j if j < i else j + 1]
            drift = v_coef * r + (-1.0 / y if abs(y) >= r0 else -y / r0_sq)
            r = r - dt * drift + noise_std * z
        if not math.isfinite(r):
            stats.clamp_count += 1  # dropped: the particle stays put
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
    stats.proposal_count += n_moves


# --- Stein variational gradient descent --------------------------------------


@dataclass
class GaussianKernel:
    """K(x, y) = exp(-|x - y|^2 / h); bandwidth fixed or by median heuristic."""

    bandwidth: float | str = "median"

    def __post_init__(self):
        h = self.bandwidth
        if h != "median" and not (isinstance(h, (int, float)) and not isinstance(h, bool)
                                  and math.isfinite(h) and h > 0):
            raise ValueError("bandwidth must be 'median' or a positive finite number")

    def resolve(self, sq_dists: np.ndarray, n: int):
        """Bandwidth for groups of n particles; the median runs over the last axis."""
        if self.bandwidth == "median":
            med = np.median(sq_dists, axis=-1) if sq_dists.size else 1.0
            return np.maximum(med / max(math.log(max(n, 2)), 1.0), 1e-12)
        return float(self.bandwidth)


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
