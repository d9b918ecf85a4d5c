"""Built-in models binding the generic machinery to concrete systems.

Each model carries its analytic reference (semicircle law, inverse-Gamma
wealth equilibrium, Debye-Hueckel screening line) so simulations can be
checked quantitatively without external data.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from .backend import special
from .forces import PairList, batch_pair_sum, pair_force_sum
from .integrators import FirstOrderSystem, SecondOrderSystem
from .state import BatchDivision, KernelSpec, ParticleState, RadialKernel

ETA_WEALTH = math.sqrt(2.0 / math.pi)  # mean of |N(0,1)| initial wealth


# --- Dyson Brownian motion ----------------------------------------------------


@dataclass(frozen=True)
class DysonModel:
    """Eigenvalue gas: drift -x, kernel 1/x, noise 1/sqrt(N-1), d = 1.

    Its invariant Gibbs measure exp(-[(N-1)/2 sum x^2 - sum_{i<j} ln|x_i-x_j|])
    is what ``samplers.run_log_gas_chain`` samples, a block of moves at a
    time, splitting -ln|r| at ``split_radius`` and taking ``m`` proposal
    steps per move.
    """

    N: int
    split_radius: float = 0.01
    m: int = 5

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError("m must be an integer >= 1")
        if self.N < 2:  # the chain's proposal weighs the N - 1 others
            raise ValueError("N must be >= 2")
        if self.split_radius <= 0:
            raise ValueError("split radius must be positive")

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.2, 1.2, size=self.N)


def semicircle_density(x) -> np.ndarray:
    """Equilibrium eigenvalue density (1/pi) sqrt(2 - x^2) on |x| <= sqrt(2)."""
    x = np.asarray(x, dtype=np.float64)
    inside = 2.0 - x * x
    return np.where(inside > 0, np.sqrt(np.maximum(inside, 0.0)) / math.pi, 0.0)


def semicircle_cdf(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=np.float64), -math.sqrt(2.0), math.sqrt(2.0))
    inside = np.maximum(2.0 - x * x, 0.0)
    return 0.5 + (x * np.sqrt(inside) + 2.0 * np.arcsin(np.clip(x / math.sqrt(2.0), -1, 1))) / (
        2.0 * math.pi
    )


# --- wealth exchange ----------------------------------------------------------


@dataclass(frozen=True)
class WealthModel:
    """Homogeneous trading dY = -kappa mean_k (Y_i - Y_k) dt + sqrt(2D) Y dW.

    The quadratic trading potential gives the linear exchange drift; the noise
    is multiplicative, so the mean wealth is conserved.  Starting from
    |N(0,1)| wealth the conserved mean is sqrt(2/pi), which fixes the
    inverse-Gamma equilibrium completely.
    """

    N: int
    kappa: float = 1.0
    D: float = 0.5

    def __post_init__(self):
        if self.kappa <= 0 or self.D <= 0:
            raise ValueError("kappa and D must be positive")
        special("gammaincc")  # for equilibrium_cdf

    def system(self) -> FirstOrderSystem:
        kappa = self.kappa
        return FirstOrderSystem(
            kernel=lambda y: -kappa * y,
            alpha_N=1.0 / (self.N - 1),
            sigma=math.sqrt(2.0 * self.D),
            noise_scale=lambda y: y,
        )

    @property
    def shape(self) -> float:
        return self.kappa / self.D + 1.0

    @property
    def scale(self) -> float:
        return self.kappa * ETA_WEALTH / self.D

    def equilibrium_cdf(self, y) -> np.ndarray:
        """Inverse-Gamma CDF, elementwise: 0 wherever y is not positive."""
        y = np.asarray(y, dtype=np.float64)
        pos = y > 0
        z = np.divide(self.scale, y, out=np.ones_like(y), where=pos)
        return special("gammaincc")(self.shape, z, out=np.zeros_like(y), where=pos)

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        return np.abs(rng.standard_normal(self.N))


# --- Cucker-Smale flocking ----------------------------------------------------


@dataclass(frozen=True)
class CuckerSmaleModel:
    """Velocity alignment with communication psi(r) = (1 + r^2)^(-beta/2)."""

    N: int
    kappa: float = 1.0
    beta: float = 0.4
    dim: int = 3

    def __post_init__(self):
        if not 0 <= self.beta < 1:
            raise ValueError("beta must lie in [0, 1)")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")

    def psi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return (1.0 + r * r) ** (-self.beta / 2.0)

    def initial(self, rng: np.random.Generator) -> ParticleState:
        x = rng.standard_normal((self.N, self.dim))
        return ParticleState(positions=x, velocities=rng.standard_normal((self.N, self.dim)))

    def system(self) -> SecondOrderSystem:
        """``kick_drift`` flocking: the force on v_i is ``cs_rhs`` over i's batch."""
        return _FlockingSystem(kernel=self, alpha_N=1.0)


def cs_rhs(
    positions: np.ndarray,
    velocities: np.ndarray,
    model: CuckerSmaleModel,
    division: Optional[BatchDivision] = None,
) -> np.ndarray:
    """Velocity derivatives (kappa / (q-1)) sum psi(|x_j - x_i|) (v_j - v_i).

    The sum runs over each particle's batch of size q, or over all N
    particles (one batch) when no division is given.
    """

    def term(xi, xj, vi, vj):
        dx = xj - xi
        return model.psi(np.sqrt(np.einsum("...k,...k->...", dx, dx)))[..., None] * (vj - vi)

    return batch_pair_sum(division, term, (positions, velocities),
                          lambda q: model.kappa / (q - 1))


class _FlockingSystem(SecondOrderSystem):
    def batch_forces(self, state: ParticleState, division=None) -> np.ndarray:
        return cs_rhs(state.positions, state.velocities, self.kernel, division)  # kernel: the model


def flocking_functionals(positions: np.ndarray, velocities: np.ndarray):
    """Mean-square spreads (1/N^2) sum_{ij} |x_i - x_j|^2 and same for v."""

    def spread(a):
        mean = a.mean(axis=0)
        return 2.0 * float(np.mean(np.sum((a - mean) ** 2, axis=1)))

    return spread(positions), spread(velocities)


# --- consensus dynamics -------------------------------------------------------


@dataclass
class ConsensusModel:
    """Agents with intrinsic velocities nu_i seeking consensus; a_ij = 1 and Gamma(q) = q.

    The dispersion term is decomposed as antisymmetric nu_bar with
    (kappa/(N-1)) sum_j nu_bar[i, j] = nu_i, so random batching can sample
    dispersion and interaction proportionally.  The decomposition is
    nu_bar[i, j] = (N-1) (nu_i - nu_j) / (kappa N), valid when sum nu = 0; it
    is computed per batch from the nu rows (``dispersion``), never stored.
    ``nu`` must be N finite rows of ``dim`` numbers (N numbers when dim is 1).
    """

    N: int
    kappa: float = 1.0
    nu: Optional[np.ndarray] = None
    dim: int = 1

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        nu = np.zeros((self.N, self.dim)) if self.nu is None else np.asarray(self.nu, float)
        if nu.shape not in [(self.N, self.dim)] + ([(self.N,)] if self.dim == 1 else []):
            raise ValueError(f"intrinsic velocities nu must be N = {self.N} rows of "
                             f"dim = {self.dim} numbers")
        if not np.all(np.isfinite(nu)):
            raise ValueError("intrinsic velocities nu must be finite")
        self.nu = nu.reshape(self.N, self.dim)
        if abs(self.nu.sum(axis=0)).max() > 1e-10:
            raise ValueError("intrinsic velocities nu must sum to zero")

    def dispersion(self, nu_i: np.ndarray, nu_j: np.ndarray) -> np.ndarray:
        """nu_bar[i, j] = (N-1) (nu_i - nu_j) / (kappa N) for the given rows."""
        return (self.N - 1) * (nu_i - nu_j) / (self.kappa * self.N)

    def check_decomposition(self, atol_antisym=1e-12, atol_recon=1e-10):
        """Verify antisymmetry and the reconstruction identity of nu_bar in O(N).

        Antisymmetry is checked on the pairs (i, i+1 mod N); the row sums use
        sum_j (nu_i - nu_j) = N nu_i - sum_j nu_j.
        """
        nu, N = self.nu, self.N
        ahead = np.roll(nu, -1, axis=0)
        if np.max(np.abs(self.dispersion(nu, ahead) + self.dispersion(ahead, nu))) > atol_antisym:
            raise ValueError("dispersion decomposition is not antisymmetric")
        recon = self.kappa / (N - 1) * self.dispersion(N * nu, nu.sum(axis=0))
        if np.max(np.abs(recon - nu)) > atol_recon:
            raise ValueError("dispersion decomposition does not reconstruct nu")

    def initial(self, rng: np.random.Generator) -> ParticleState:
        """Centered Gaussian start (zero mean, so consensus targets the origin)."""
        q = rng.standard_normal((self.N, self.dim))
        return ParticleState(positions=q - q.mean(axis=0))

    def system(self) -> FirstOrderSystem:
        """Euler steps whose force on q_i is ``consensus_rhs`` over i's batch."""
        return _ConsensusSystem(kernel=self, alpha_N=1.0)


def consensus_rhs(
    q: np.ndarray,
    model: ConsensusModel,
    division: Optional[BatchDivision] = None,
) -> np.ndarray:
    """dq_i = (kappa/(s-1)) sum_j (nu_bar_ij + q_j - q_i) over the s agents of i's batch.

    ``q`` is (N, d).  With no division the sum runs over all N agents (weight
    kappa/(N-1)); a division samples the dispersion and the interaction together.
    """

    def term(qi, qj, nu_i, nu_j):
        return model.dispersion(nu_i, nu_j) + (qj - qi)

    return batch_pair_sum(division, term, (q, model.nu), lambda size: model.kappa / (size - 1))


class _ConsensusSystem(FirstOrderSystem):
    def batch_forces(self, state: ParticleState, division=None) -> np.ndarray:
        return consensus_rhs(state.positions, self.kernel, division)  # kernel: the model


def consensus_functionals(q: np.ndarray):
    """(M2, D) of the (N, d) positions q: mean squared norm, maximal pairwise distance.

    D takes O(N) memory (max - min in 1-d, else blocks of about 2^18 pair
    differences) and equals the dense N x N formula bit for bit.
    """
    m2 = float(np.mean(np.sum(q * q, axis=1)))
    N, d = q.shape
    if d == 1:
        return m2, float(q.max() - q.min())
    rows = max(1, (1 << 18) // (N * d))
    blocks = (q[s:s + rows, None, :] - q[None, :, :] for s in range(0, N, rows))
    sq = np.max([np.einsum("ijk,ijk->ij", dq, dq).max() for dq in blocks])
    return m2, float(np.sqrt(sq))


# --- electrolyte --------------------------------------------------------------


def cubic_lattice(N: int, L: float):
    """(positions, spacing): the first N cell centres of the smallest cubic
    lattice in the box [0, L)^3 with at least N cells, in row-major order."""
    n_side = math.ceil(N ** (1.0 / 3.0))
    coords = np.stack(np.meshgrid(*([np.arange(n_side)] * 3), indexing="ij"), -1).reshape(-1, 3)
    return (coords[:N] + 0.5) * (L / n_side), L / n_side


@dataclass(frozen=True)
class ElectrolyteModel:
    """Monovalent binary electrolyte: +-1 charges with a Lennard-Jones core.

    Reduced units with dielectric 1/(4 pi), so a unit charge has potential
    q/r.  The LJ diameter plays the role of the effective ion size; the
    core's depth and its cutoff in diameters are fixed.
    ``pairs`` is the Verlet list of the LJ core, at cutoff ``lj_cutoff``.
    """

    lj_epsilon: ClassVar[float] = 1.0
    lj_cutoff_factor: ClassVar[float] = 2.5

    N: int
    L: float
    lj_sigma: float = 0.2
    temperature: float = 1.0

    pairs: PairList = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N % 2 != 0:
            raise ValueError("N must be even for electroneutrality: half +1, half -1 charges")
        if self.lj_cutoff >= self.L / 2:  # else the minimum image drops a pair's second image
            raise ValueError(f"the LJ cutoff {self.lj_cutoff_factor:g} lj_sigma must be below L/2")
        object.__setattr__(self, "pairs", PairList(self.lj_cutoff))

    @property
    def rho_r(self) -> float:
        return self.N / self.L**3

    @property
    def lj_cutoff(self) -> float:
        return self.lj_cutoff_factor * self.lj_sigma

    def charges(self) -> np.ndarray:
        q = np.empty(self.N)
        q[0::2] = 1.0
        q[1::2] = -1.0
        return q

    def initial_state(self, rng: np.random.Generator) -> ParticleState:
        """Charges alternating on a cubic lattice with a small jitter."""
        pos, spacing = cubic_lattice(self.N, self.L)
        pos = pos + 0.05 * spacing * rng.standard_normal(pos.shape)
        vel = math.sqrt(self.temperature) * rng.standard_normal(pos.shape)
        vel -= vel.mean(axis=0)
        return ParticleState(positions=pos, velocities=vel, box_length=self.L)

    def lj_force(self, state: ParticleState):
        """Truncated (unshifted) Lennard-Jones forces and energy.

        The pairs within the cutoff come from the model's ``pairs`` list, which
        is kept from call to call, so a trajectory searches only on rebuilds.
        """
        i, j, disp, r2 = self.pairs(state.positions, self.L)
        if i.size == 0:  # the usual case in a dilute electrolyte: no ion inside the core cutoff
            return np.zeros((state.n_particles, state.dim)), 0.0
        s6 = (self.lj_sigma**2 / r2) ** 3
        fmag = 24.0 * self.lj_epsilon * (2.0 * s6 * s6 - s6) / r2
        forces = pair_force_sum(state.n_particles, i, j, disp, fmag)
        return forces, float(4.0 * self.lj_epsilon * np.sum(s6 * s6 - s6))


def dh_kappa(rho_r: float, beta: float = 1.0, q: float = 1.0) -> float:
    """Inverse screening length kappa = sqrt(4 pi beta q^2 rho_r)."""
    return math.sqrt(4.0 * math.pi * beta * q * q * rho_r)


def split_radial_force(c: Callable, c_prime: Callable, r0: float) -> KernelSpec:
    """Split a radial force K(x) = x c(|x|^2) at r0 into short + smooth parts.

    ``c`` is the force over r as a function of r^2, and ``c_prime`` its
    derivative in r^2.  The smooth coefficient continues c inside r0 as
    c(r0^2) (1 - b + b r^2 / r0^2), with b matching the slope at r0, so the
    smooth part is C^1, bounded and free of the core singularity.  The short
    coefficient is the force's minus the smooth one, exactly 0 for r >= r0,
    where both are c(r^2).  All three parts are ``RadialKernel``s, so the
    short part is odd by construction.
    """
    r0sq = r0 * r0
    c0 = float(c(r0sq))
    b = r0sq * float(c_prime(r0sq)) / c0
    c0a, c0b = c0 * (1.0 - b), c0 * b / r0sq  # inside: c0a + c0b r^2

    def smooth(r2):
        inner, far = c0a + c0b * r2, r2 >= r0sq
        # c costs a few products per row; the short part's listed pairs never need it
        return np.where(far, c(np.maximum(r2, r0sq)), inner) if far.any() else inner

    return KernelSpec(force=RadialKernel(c), split_radius=r0,
                      short_part=RadialKernel(lambda r2: c(r2) - smooth(r2)),
                      smooth_part=RadialKernel(smooth))


def lj_kernel_spec(sigma: float = 1.0, epsilon: float = 1.0, r0: float = 1.6) -> KernelSpec:
    """Lennard-Jones pair force split for the kernel-splitting RBM.

    The force over r is 24 eps (2 u^6 - u^3) / r^2 with u = sigma^2 / r^2,
    in inverse powers of r^2 as ``ElectrolyteModel.lj_force`` takes it.
    """
    s2 = sigma * sigma

    def c(r2):
        u = s2 / r2
        u3 = u * u * u
        return 24.0 * epsilon * (2.0 * u3 * u3 - u3) / r2

    def c_prime(r2):
        u = s2 / r2
        u3 = u * u * u
        return -24.0 * epsilon * (14.0 * u3 * u3 - 4.0 * u3) / (r2 * r2)

    return split_radial_force(c, c_prime, r0)


# --- toy Lipschitz system -----------------------------------------------------


def toy_lipschitz_system(N: int, sigma: float = 0.5) -> FirstOrderSystem:
    """dx = [-x + mean_j sin(x_i - x_j)] dt + sigma dW; Lipschitz throughout."""
    return FirstOrderSystem(
        kernel=np.sin,
        alpha_N=1.0 / (N - 1),
        drift=lambda x: -x,
        sigma=sigma,
    )
