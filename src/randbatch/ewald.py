"""Random Batch Ewald for periodic Coulomb systems.

The Coulomb kernel splits as 1/r = erf(sqrt(alpha) r)/r + erfc(sqrt(alpha) r)/r.
The erfc part is short-ranged and summed in real space over the neighbour
pairs within r_c (``forces.neighbor_pairs``); the smooth part is
summed in Fourier space, where the random-batch estimator importance-samples
frequency vectors from the discrete Gaussian ~ exp(-k^2 / 4 alpha).  Frequency
samples are exact i.i.d. draws from that target, made in blocks ahead of use
and consumed from a bank in order.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.special import erfc as _erfc

from .forces import neighbor_pairs, pair_force_sum
from .integrators import kick_drift
from .rng import SimStreams
from .state import ParticleState
from .thermostats import Andersen, Langevin, NoseHoover, apply_andersen, nose_hoover_step

TWO_PI = 2.0 * math.pi


@dataclass
class PeriodicChargeSystem:
    """Point charges in a periodic cubic box; must be electroneutral."""

    state: ParticleState
    charges: np.ndarray

    def __post_init__(self):
        if self.state.box_length is None:
            raise ValueError("charge system needs a periodic box")
        self.charges = np.ascontiguousarray(np.asarray(self.charges, dtype=np.float64))
        if self.charges.shape != (self.state.n_particles,):
            raise ValueError("need one charge per particle")
        if abs(self.charges.sum()) > 1e-12:
            raise ValueError("system must be electroneutral")

    @property
    def L(self) -> float:
        return self.state.box_length

    @property
    def volume(self) -> float:
        return self.L**3

    @property
    def n_particles(self) -> int:
        return self.state.n_particles

    def replace_state(self, state: ParticleState) -> "PeriodicChargeSystem":
        return PeriodicChargeSystem(state=state, charges=self.charges)


@dataclass(frozen=True)
class EwaldParams:
    """Splitting parameter, real/Fourier cutoffs and frequency batch size."""

    alpha: float
    r_c: float
    k_c: float
    p: int = 10

    def __post_init__(self):
        if self.alpha <= 0 or self.r_c <= 0 or self.k_c <= 0:
            raise ValueError("alpha, r_c and k_c must be positive")
        if self.p < 1:
            raise ValueError("frequency batch size must be >= 1")

    def validate_box(self, L: float):
        if self.r_c >= L / 2:
            raise ValueError("real-space cutoff must be below half the box length")

    @classmethod
    def for_system(
        cls,
        N: int,
        L: float,
        p: int = 10,
        alpha: Optional[float] = None,
        tail: float = 1e-12,
    ) -> "EwaldParams":
        """Defaults: sqrt(alpha) = (N/L^3)^(1/3); cutoffs from the tail bound."""
        if alpha is None:
            alpha = (N / L**3) ** (2.0 / 3.0)
        r_c = min(0.49 * L, 3.0 / math.sqrt(alpha))
        m_max = math.ceil(L * math.sqrt(alpha * math.log(1.0 / tail)) / math.pi)
        return cls(alpha=alpha, r_c=r_c, k_c=TWO_PI * m_max / L, p=p)


def _weight_table(alpha: float, L: float) -> Tuple[np.ndarray, np.ndarray]:
    """Integers |m| <= m_max and their weights w(m) = exp(-pi^2 m^2 / (alpha L^2)).

    exp(-k^2 / 4 alpha) on Z^3 is the product w(m_x) w(m_y) w(m_z).
    """
    if alpha <= 0 or L <= 0:
        raise ValueError("alpha and L must be positive")
    c = math.pi**2 / (alpha * L**2)
    m_max = math.ceil(10.0 / math.sqrt(c))  # c m_max^2 >= 100: each dropped w is below 4e-44
    m = np.arange(-m_max, m_max + 1)
    return m, np.exp(-c * m * m)


def sum_S(alpha: float, L: float) -> float:
    """S = H^3 - 1 with H = sum_m w(m), the normaliser of the frequency target."""
    m, w = _weight_table(alpha, L)
    h = 2.0 * w[m > 0].sum()  # H - 1; (1 + h)^3 - 1 expanded, free of cancellation
    return float(h * (3.0 + h * (3.0 + h)))


def _sample_m(alpha: float, L: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. integer vectors m != 0 with probability w(m_x) w(m_y) w(m_z) / S.

    Each component is drawn by inverse CDF from the 1-d table; all-zero rows
    are dropped and redrawn.
    """
    m, w = _weight_table(alpha, L)
    cdf = np.cumsum(w)
    keep = 1.0 - cdf[-1] ** -3.0  # P(m != 0), as w(0) = 1
    if keep < 1e-4:
        raise ValueError(f"alpha L^2 = {alpha * L**2:g} leaves P(m != 0) = {keep:.1e}: "
                         "too little frequency mass to sample")
    blocks, need = [], count
    while need > 0:
        u = rng.random((min(int(need / keep) + 16, 1 << 18), 3)) * cdf[-1]
        block = m[np.searchsorted(cdf[:-1], u, side="right")]
        blocks.append(block[np.any(block != 0, axis=1)][:need])
        need -= len(blocks[-1])
    return np.concatenate(blocks)


_KVEC_CACHE: dict = {}


def kvectors_in_ball(L: float, k_c: float) -> np.ndarray:
    """All nonzero lattice frequencies k = 2 pi m / L with |k| <= k_c."""
    key = (float(L), float(k_c))
    if key in _KVEC_CACHE:
        return _KVEC_CACHE[key]
    m_max = int(math.floor(k_c * L / TWO_PI + 1e-9))
    rng = np.arange(-m_max, m_max + 1)
    mm = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    mm = mm[np.any(mm != 0, axis=1)]
    k = TWO_PI * mm / L
    k = k[np.einsum("ij,ij->i", k, k) <= k_c**2 * (1 + 1e-12)]
    _KVEC_CACHE[key] = np.ascontiguousarray(k)
    return _KVEC_CACHE[key]


@dataclass
class KSampleBank:
    """Pre-sampled frequency vectors, consumed in order; refills on demand."""

    alpha: float
    L: float
    samples: np.ndarray
    cursor: int = 0
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    @property
    def remaining(self) -> int:
        return len(self.samples) - self.cursor

    def draw(self, p: int) -> np.ndarray:
        """Next p unused samples; extends the bank rather than reusing any."""
        while self.remaining < p:
            self.refill()
        out = self.samples[self.cursor: self.cursor + p]
        self.cursor += p
        return out

    def refill(self):
        """Append max(len(samples), 1024) fresh draws."""
        if self._rng is None:
            raise RuntimeError("bank exhausted and no generator attached for refills")
        more = _sample_m(self.alpha, self.L, max(len(self.samples), 1024), self._rng)
        self.samples = np.concatenate([self.samples, TWO_PI * more / self.L])


def mh_sample_kvectors(alpha: float, L: float, count: int, rng) -> KSampleBank:
    """A bank of ``count`` i.i.d. frequencies k = 2 pi m / L drawn by ``_sample_m``.

    ``rng`` is a generator or an ``RngStream``; the bank keeps the generator
    for refills.  The name predates the exact sampler; it stays because the
    benchmark's layer trace reports this function as ``ewald.mh_sample_kvectors``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = rng.generator() if hasattr(rng, "generator") else rng
    m = _sample_m(alpha, L, count, gen)
    return KSampleBank(alpha=alpha, L=L, samples=TWO_PI * m / L, _rng=gen)


def discrete_gaussian_moments(alpha: float, L: float, m_max: int = 60) -> Tuple[float, float]:
    """Exact per-component (mean, variance) of the zero-excluded target."""
    c = math.pi**2 / (alpha * L**2)
    m = np.arange(-m_max, m_max + 1)
    w = np.exp(-c * m**2)
    H = w.sum()
    V1 = (m**2 * w).sum()
    S = H**3 - 1.0
    return 0.0, float(V1 * H**2 / S)


def structure_factor(system: PeriodicChargeSystem, k: np.ndarray) -> complex:
    """rho(k) = sum_i q_i exp(i k . r_i) for a single frequency."""
    k = np.asarray(k, dtype=np.float64)
    if np.all(k == 0):
        raise ValueError("k must be nonzero")
    phase = system.state.positions @ k
    return complex(np.sum(system.charges * np.exp(1j * phase)))


def structure_factors(system: PeriodicChargeSystem, kvecs: np.ndarray) -> np.ndarray:
    """Vectorized rho(k) for a batch of frequencies, chunked for memory."""
    pos, q = system.state.positions, system.charges
    M = len(kvecs)
    out = np.empty(M, dtype=np.complex128)
    chunk = max(1, int(4_000_000 // max(pos.shape[0], 1)))
    for s in range(0, M, chunk):
        phase = pos @ kvecs[s: s + chunk].T
        out[s: s + chunk] = np.exp(1j * phase).T @ q
    return out


def _fourier_forces(system, kvecs, coef) -> Tuple[np.ndarray, np.ndarray]:
    """F_i = -q_i sum_k coef_k k Im(exp(-i k.r_i) rho(k)), chunked over k; also returns rho."""
    pos, q = system.state.positions, system.charges
    N = pos.shape[0]
    out = np.zeros((N, 3))
    rho = np.empty(len(kvecs), dtype=np.complex128)
    chunk = max(1, int(4_000_000 // max(N, 1)))
    for s in range(0, len(kvecs), chunk):
        kc = kvecs[s: s + chunk]
        phase = pos @ kc.T  # (N, chunk)
        eikr = np.exp(1j * phase)
        rho[s: s + chunk] = eikr.T @ q
        im = np.imag(np.conj(eikr) * rho[None, s: s + chunk])
        out -= (im * coef[s: s + chunk][None, :]) @ kc
    return q[:, None] * out, rho


def fourier_force_exact_all(system: PeriodicChargeSystem, params: EwaldParams) -> np.ndarray:
    """Exact Fourier-space Ewald forces with cutoff |k| <= k_c."""
    params.validate_box(system.L)
    kvecs = kvectors_in_ball(system.L, params.k_c)
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    coef = 4.0 * math.pi / system.volume * np.exp(-k2 / (4.0 * params.alpha)) / k2
    return _fourier_forces(system, kvecs, coef)[0]


def rbe_force_all(system: PeriodicChargeSystem, kbatch: np.ndarray, S: float) -> np.ndarray:
    """Random-batch Fourier forces: (S/p) importance-sampled over the batch.

    The same frequency batch must be shared by all particles within a step.
    """
    return _rbe_fourier(system, kbatch, S)[0]


def _rbe_fourier(system: PeriodicChargeSystem, kbatch, S: float, forces: bool = True):
    """Random-batch Fourier forces (None unless ``forces``) and k-space energy, one rho pass."""
    kbatch = np.atleast_2d(np.asarray(kbatch, dtype=np.float64))
    p = len(kbatch)
    k2 = np.einsum("ij,ij->i", kbatch, kbatch)
    if forces:
        f, rho = _fourier_forces(system, kbatch, (S / p) * 4.0 * math.pi / system.volume / k2)
    else:
        f, rho = None, structure_factors(system, kbatch)
    rho2 = np.abs(rho) ** 2
    return f, float(2.0 * math.pi / system.volume * (S / p) * np.sum(rho2 / k2))


def real_space_force_all(system: PeriodicChargeSystem, params: EwaldParams) -> Tuple[np.ndarray, float]:
    """All short-range Coulomb forces plus the real-space energy."""
    params.validate_box(system.L)
    i, j, disp, r2 = neighbor_pairs(system.state.positions, system.L, params.r_c)
    r = np.sqrt(r2)
    qq = system.charges[i] * system.charges[j]
    screened = qq * _erfc(math.sqrt(params.alpha) * r) / r
    gauss = qq * 2.0 * math.sqrt(params.alpha / math.pi) * np.exp(-params.alpha * r2)
    forces = pair_force_sum(system.n_particles, i, j, ((screened + gauss) / r2)[:, None] * disp)
    return forces, float(np.sum(screened))


def fourier_energy(system: PeriodicChargeSystem, params: EwaldParams) -> float:
    """k-space sum (2 pi / V) sum_k |rho(k)|^2 exp(-k^2/4 alpha)/k^2."""
    kvecs = kvectors_in_ball(system.L, params.k_c)
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    rho2 = np.abs(structure_factors(system, kvecs)) ** 2
    return float(2.0 * math.pi / system.volume * np.sum(rho2 * np.exp(-k2 / (4 * params.alpha)) / k2))


def self_energy(system: PeriodicChargeSystem, params: EwaldParams) -> float:
    return float(-math.sqrt(params.alpha / math.pi) * np.sum(system.charges**2))


def rbe_fourier_energy(system: PeriodicChargeSystem, kbatch: np.ndarray, S: float) -> float:
    """Random-batch estimate of the k-space energy sum from one frequency batch."""
    return _rbe_fourier(system, kbatch, S, forces=False)[1]


def ewald_energy_parts(system: PeriodicChargeSystem, params: EwaldParams) -> dict:
    _, u_real = real_space_force_all(system, params)
    return {
        "U_real": u_real,
        "U_fourier": fourier_energy(system, params),
        "U_self": self_energy(system, params),
    }


def ewald_energy(system: PeriodicChargeSystem, params: EwaldParams) -> float:
    """Total Coulomb energy U_real + U_fourier + U_self (reference value)."""
    return float(sum(ewald_energy_parts(system, params).values()))


def kinetic_energy(state: ParticleState) -> float:
    return float(0.5 * np.sum(state.velocities * state.velocities))


def rbe_md_step(
    system: PeriodicChargeSystem,
    params: EwaldParams,
    thermostat,
    bank: Optional[KSampleBank],
    dt: float,
    streams: SimStreams,
    extra_force=None,
    exact_fourier: bool = False,
    S: Optional[float] = None,
) -> Tuple[PeriodicChargeSystem, dict]:
    """One ``integrators.kick_drift`` step of Newton's equations (unit masses).

    Fourier forces come from the random-batch estimator fed by the bank
    (``exact_fourier=True`` switches to the full cutoff sum, the validation
    mode in which the method degenerates to direct Ewald stepping).
    ``extra_force(state) -> (N, 3)`` lets callers add non-Coulomb forces such
    as a Lennard-Jones core.  ``Langevin`` noise comes from ``streams.noise``
    and ``Andersen`` collisions from ``streams.thermostat``; ``NoseHoover``
    advances its xi in place.  Returns the new system plus a log record.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    st = system.state
    forces, u_real = real_space_force_all(system, params)
    info = {"U_real": u_real}
    if exact_fourier:
        forces = forces + fourier_force_exact_all(system, params)
        info["U_fourier"] = fourier_energy(system, params)
    else:
        if S is None:
            S = sum_S(params.alpha, system.L)
        kbatch = bank.draw(params.p)
        f_fourier, info["U_fourier"] = _rbe_fourier(system, kbatch, S)
        forces = forces + f_fourier
    info["U_self"] = self_energy(system, params)
    if extra_force is not None:
        forces = forces + extra_force(st)

    if isinstance(thermostat, NoseHoover):
        new_state, thermostat.xi = nose_hoover_step(
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
    info["kinetic"] = kinetic_energy(new_state)
    info["T_inst"] = 2.0 * info["kinetic"] / (3.0 * system.n_particles)
    return system.replace_state(new_state), info
