"""Built-in models binding the generic machinery to concrete systems.

Each model carries its analytic reference (semicircle law, inverse-Gamma
wealth equilibrium, Debye-Hueckel screening line) so simulations can be
checked quantitatively without external data.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .backend import special
from .forces import PairList, batch_pair_sum, pair_force_sum
from .integrators import FirstOrderSystem
from .samplers import GibbsTarget, log_kernel_split
from .state import BatchDivision, ParticleState

ETA_WEALTH = math.sqrt(2.0 / math.pi)  # mean of |N(0,1)| initial wealth


# --- Dyson Brownian motion ----------------------------------------------------


@dataclass(frozen=True)
class DysonModel:
    """Eigenvalue gas: drift -x, kernel 1/x, noise 1/sqrt(N-1), d = 1."""

    N: int
    split_radius: float = 0.01

    def gibbs_target(self) -> GibbsTarget:
        """Invariant Gibbs measure exp(-[(N-1)/2 sum x^2 - sum_{i<j} ln|x_i-x_j|]).

        In the (beta, w) normal form this is w = 1/(N-1), beta = (N-1)^2 with
        V(x) = x^2/2 and phi(r) = -ln|r| split at the model's radius.
        """
        phi1, grad_phi1, phi2 = log_kernel_split(self.split_radius)
        N = self.N
        return GibbsTarget(
            V=lambda x: 0.5 * np.sum(x * x, axis=1),
            grad_V=lambda x: x,
            phi1=phi1,
            grad_phi1=grad_phi1,
            phi2=phi2,
            phi2_cutoff=self.split_radius,
            beta=float((N - 1) ** 2),
            w=1.0 / (N - 1),
            N=N,
        )

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
            noise_mode="multiplicative",
            noise_scale=lambda y: y,
        )

    @property
    def shape(self) -> float:
        return self.kappa / self.D + 1.0

    @property
    def scale(self) -> float:
        return self.kappa * ETA_WEALTH / self.D

    @property
    def mode(self) -> float:
        return self.kappa * ETA_WEALTH / (self.kappa + 2.0 * self.D)

    def equilibrium_density(self, y) -> np.ndarray:
        """Inverse-Gamma density with shape kappa/D + 1 and scale kappa eta / D."""
        y = np.asarray(y, dtype=np.float64)
        a, b = self.shape, self.scale
        out = np.zeros_like(y)
        pos = y > 0
        yp = y[pos]
        out[pos] = np.exp(a * math.log(b) - math.lgamma(a) - (a + 1) * np.log(yp) - b / yp)
        return out

    def equilibrium_cdf(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros_like(y)
        pos = y > 0
        out[pos] = special("gammaincc")(self.shape, self.scale / y[pos])
        return out

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

    def initial(self, rng: np.random.Generator):
        x = rng.standard_normal((self.N, self.dim))
        v = rng.standard_normal((self.N, self.dim))
        return x, v


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


def flocking_functionals(positions: np.ndarray, velocities: np.ndarray):
    """Mean-square spreads (1/N^2) sum_{ij} |x_i - x_j|^2 and same for v."""

    def spread(a):
        mean = a.mean(axis=0)
        return 2.0 * float(np.mean(np.sum((a - mean) ** 2, axis=1)))

    return spread(positions), spread(velocities)


# --- consensus dynamics -------------------------------------------------------


@dataclass
class ConsensusModel:
    """Agents with intrinsic velocities nu_i seeking consensus through Gamma.

    The dispersion term is decomposed as antisymmetric nu_bar with
    (kappa/(N-1)) sum_j nu_bar[i, j] = nu_i, so random batching can sample
    dispersion and interaction proportionally.  The decomposition is
    nu_bar[i, j] = (N-1) (nu_i - nu_j) / (kappa N), valid when sum nu = 0; it
    is computed per batch from the nu rows (``dispersion``), never stored.
    ``adjacency=None`` means a_ij = 1 for every pair, with no N x N array.
    """

    N: int
    kappa: float = 1.0
    nu: Optional[np.ndarray] = None
    adjacency: Optional[np.ndarray] = None
    gamma: Callable = field(default=lambda q: q)
    dim: int = 1

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.nu is None:
            self.nu = np.zeros((self.N, self.dim))
        self.nu = np.asarray(self.nu, dtype=np.float64).reshape(self.N, -1)
        self.dim = self.nu.shape[1]
        if abs(self.nu.sum(axis=0)).max() > 1e-10:
            raise ValueError("intrinsic velocities must sum to zero")
        if self.adjacency is not None:
            self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
            if not np.allclose(self.adjacency, self.adjacency.T):
                raise ValueError("adjacency must be symmetric")
            if np.any(self.adjacency < 0):
                raise ValueError("adjacency must be nonnegative")

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

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        """Centered Gaussian start (zero mean, so consensus targets the origin)."""
        q = rng.standard_normal((self.N, self.dim))
        return q - q.mean(axis=0)


def consensus_rhs(
    q: np.ndarray,
    model: ConsensusModel,
    division: Optional[BatchDivision] = None,
) -> np.ndarray:
    """dq_i = (kappa/(q-1)) sum_j (nu_bar_ij + a_ij Gamma(q_j - q_i)) over i's batch.

    With no division the sum runs over all N agents (weight kappa/(N-1));
    a division samples the dispersion and the interaction together.
    """
    q = np.atleast_2d(q)

    def term(qi, qj, nu_i, nu_j, *ij):  # ij: index rows, given for an explicit adjacency
        interaction = model.gamma(qj - qi)
        if ij:
            interaction = model.adjacency[ij][..., None] * interaction
        return model.dispersion(nu_i, nu_j) + interaction

    fields = (q, model.nu) if model.adjacency is None else (q, model.nu, np.arange(model.N))
    return batch_pair_sum(division, term, fields, lambda size: model.kappa / (size - 1))


def consensus_functionals(q: np.ndarray):
    """(M2, D): mean squared norm and maximal pairwise distance.

    D takes O(N) memory (max - min in 1-d, else blocks of about 2^18 pair
    differences) and equals the dense N x N formula bit for bit.
    """
    q = np.atleast_2d(q)
    m2 = float(np.mean(np.sum(q * q, axis=1)))
    N, d = q.shape
    if d == 1:
        return m2, float(q.max() - q.min())
    rows = max(1, (1 << 18) // (N * d))
    blocks = (q[s:s + rows, None, :] - q[None, :, :] for s in range(0, N, rows))
    sq = np.max([np.einsum("ijk,ijk->ij", dq, dq).max() for dq in blocks])
    return m2, float(np.sqrt(sq))


# --- electrolyte --------------------------------------------------------------


@dataclass(frozen=True)
class ElectrolyteModel:
    """Monovalent binary electrolyte: +-1 charges with a Lennard-Jones core.

    Reduced units with dielectric 1/(4 pi), so a unit charge has potential
    q/r.  The LJ diameter plays the role of the effective ion size.
    ``pairs`` is the Verlet list of the LJ core, at cutoff ``lj_cutoff``.
    """

    N: int
    L: float
    lj_sigma: float = 0.2
    lj_epsilon: float = 1.0
    lj_cutoff_factor: float = 2.5
    temperature: float = 1.0

    pairs: PairList = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N % 2 != 0:
            raise ValueError("need an even particle count (half cations, half anions)")
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
        n_side = math.ceil(self.N ** (1.0 / 3.0))
        spacing = self.L / n_side
        coords = np.stack(
            np.meshgrid(*([np.arange(n_side)] * 3), indexing="ij"), axis=-1
        ).reshape(-1, 3)[: self.N]
        pos = (coords + 0.5) * spacing
        pos = pos + 0.05 * spacing * rng.standard_normal(pos.shape)
        vel = math.sqrt(self.temperature) * rng.standard_normal(pos.shape)
        vel -= vel.mean(axis=0)
        return ParticleState(positions=pos, velocities=vel, box_length=self.L)

    def lj_force(self, state: ParticleState):
        """Truncated (unshifted) Lennard-Jones forces and energy.

        The pairs within the cutoff come from the model's ``pairs`` list, which
        is kept from call to call, so a trajectory searches only on rebuilds.
        """
        if self.lj_cutoff >= self.L / 2:
            raise ValueError("LJ cutoff must be below half the box length")
        i, j, disp, r2 = self.pairs(state.positions, self.L)
        if i.size == 0:  # the usual case in a dilute electrolyte: no ion inside the core cutoff
            return np.zeros((state.n_particles, state.dim)), 0.0
        s6 = (self.lj_sigma**2 / r2) ** 3
        fmag = 24.0 * self.lj_epsilon * (2.0 * s6 * s6 - s6) / r2
        forces = pair_force_sum(state.n_particles, i, j, fmag[:, None] * disp)
        return forces, float(4.0 * self.lj_epsilon * np.sum(s6 * s6 - s6))


def dh_reference(r) -> np.ndarray:
    """Debye-Hueckel screening line ln(r rho(r)) = -1.941 r - 1.144."""
    return -1.941 * np.asarray(r, dtype=np.float64) - 1.144


def dh_kappa(rho_r: float, beta: float = 1.0, q: float = 1.0) -> float:
    """Inverse screening length kappa = sqrt(4 pi beta q^2 rho_r)."""
    return math.sqrt(4.0 * math.pi * beta * q * q * rho_r)


def split_radial_force(h: Callable, h_prime: Callable, r0: float) -> "KernelSpec":
    """Split a radial force K(x) = x h(|x|) at r0 into short + smooth parts.

    The smooth part continues h inside r0 as h(r0) (a + b (r/r0)^2) with value
    and slope matched at r0, so it is C^1, bounded and free of the core
    singularity; the short part K - K2 vanishes identically beyond r0.
    """
    from .state import KernelSpec

    h0 = float(h(r0))
    b = r0 * float(h_prime(r0)) / (2.0 * h0)
    a = 1.0 - b

    def radial(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        r = np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        return x, r

    def smooth_h(r):
        inner, far = h0 * (a + b * (r / r0) ** 2), r >= r0
        # h costs two powers per row; the short part's listed pairs never need it
        return np.where(far, h(np.maximum(r, r0)), inner) if far.any() else inner

    def force(x):
        x, r = radial(x)
        return x * h(np.maximum(r, 1e-300))

    def smooth(x):
        x, r = radial(x)
        return x * smooth_h(r)

    def short(x):
        x, r = radial(x)  # one |x| for both parts
        return x * h(np.maximum(r, 1e-300)) - x * smooth_h(r)

    return KernelSpec(force=force, split_radius=r0, short_part=short, smooth_part=smooth)


def lj_kernel_spec(sigma: float = 1.0, epsilon: float = 1.0, r0: float = 1.6):
    """Lennard-Jones pair force split for the kernel-splitting RBM."""
    s6 = sigma**6
    s12 = s6 * s6

    def h(r):
        return 24.0 * epsilon * (2.0 * s12 / r**14 - s6 / r**8)

    def h_prime(r):
        return 24.0 * epsilon * (-28.0 * s12 / r**15 + 8.0 * s6 / r**9)

    return split_radial_force(h, h_prime, r0)


# --- toy Lipschitz system -----------------------------------------------------


def toy_lipschitz_system(N: int, sigma: float = 0.5) -> FirstOrderSystem:
    """dx = [-x + mean_j sin(x_i - x_j)] dt + sigma dW; Lipschitz throughout."""
    return FirstOrderSystem(
        kernel=np.sin,
        alpha_N=1.0 / (N - 1),
        drift=lambda x: -x,
        sigma=sigma,
    )
