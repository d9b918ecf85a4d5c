"""Random Batch Ewald for periodic Coulomb systems.

The Coulomb kernel splits as 1/r = erf(sqrt(alpha) r)/r + erfc(sqrt(alpha) r)/r.
The erfc part is short-ranged and summed in real space over the neighbour
pairs within r_c.  Those come from a ``forces.PairList`` that the system
carries from step to step: it lists the pairs within r_c + skin (skin =
0.1 r_c at the default alpha, where r_c is 3 particle spacings) and repeats
the cell search only once some ion has moved skin/2, so most steps filter the
listed pairs, in place, instead of searching.  The real-space kernel also
works in place, with the operations of its plain expression in their order,
so its forces keep the same bits.  The electrolyte's
Lennard-Jones core, a ``CoulombSystem``'s ``extra_force``, filters a list of
its own at its own cutoff, held by ``models.ElectrolyteModel``.  The smooth part is
summed in Fourier space, where the random-batch estimator importance-samples
frequency vectors from the discrete Gaussian ~ exp(-k^2 / 4 alpha).  Frequency
samples are exact i.i.d. draws from that target, made in blocks ahead of use
and consumed from a bank in order.  The target is a product of 1-d weights,
so each component is the count of the weights' running sums at or below a
uniform draw.  A guide table, cached per (alpha, L), splits the draws' range
into 1024 equal cells and holds, per cell, the count of sums in the cells
before it; a draw adds one comparison with the next sum, and only a cell
holding two sums or more, in the Gaussian's far tails, falls back to a binary
search.  The cells are rounded products of the draw and so never decrease as
it grows, which makes every answer the binary search's.

Every frequency is a lattice vector k = 2 pi m / L, so exp(i k.r) is the
product e_x[m_x] e_y[m_y] e_z[m_z] of per-axis phase tables
e_a[m, n] = exp(2 pi i m x_na / L), |m| <= m_max, built as powers of the
m = 1 entry: 3N cosines and sines replace one complex exponential per
particle and frequency.  Each power is one vectorised product of all 3N
phases, e(m) = e(m - 1) e(1), and a table keeps only the rows it is asked
for (a batch's distinct components), so a far frequency costs time, not
memory, in proportion to its |m|.
The exact k-space sums, kept as references, run over the half cube
m_x >= 0 with weight zero outside half the ball
(rho(-k) is the conjugate of rho(k) for real charges, so k and -k
contribute alike), as two matrix products: rho on the cube is
(e_x e_y) (q e_z)^T, and the forces contract e_x e_y with coef conj(rho) k,
then with e_z.  Both Fourier paths take the force as
F_n = q_n Im(sum_k e_kn coef_k conj(rho_k) k): the random-batch one as a
single (N, p) @ (p, 3) complex product over its batch.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .backend import special
from .forces import PairList, pair_force_sum
from .integrators import SecondOrderSystem
from .rng import SimStreams
from .state import ParticleState

TWO_PI = 2.0 * math.pi


@dataclass
class PeriodicChargeSystem:
    """Point charges in a periodic cubic box; must be electroneutral.

    ``pairs`` is the real-space pair list that ``real_space_force_all``
    creates and ``replace_state`` hands on to the system at another state.
    """

    state: ParticleState
    charges: np.ndarray
    pairs: Optional[PairList] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.state.box_length is None:
            raise ValueError("charge system needs a periodic box")
        self.charges = np.ascontiguousarray(np.asarray(self.charges, dtype=np.float64))
        if self.charges.shape != (self.state.n_particles,):
            raise ValueError("need one charge per particle")
        if abs(self.charges.sum()) > 1e-12:
            raise ValueError("system must be electroneutral")
        special("erfc")  # for real_space_force_all

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
        return PeriodicChargeSystem(state=state, charges=self.charges, pairs=self.pairs)


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
            raise ValueError("the real-space cutoff r_c must be below L/2")

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

    exp(-k^2 / 4 alpha) on Z^3 is the product w(m_x) w(m_y) w(m_z).  Raises
    ValueError past 2^20 weights (8 MiB of them; the default alpha gives
    about 6.4 N^(1/3)).
    """
    if alpha <= 0 or L <= 0:
        raise ValueError("alpha and L must be positive")
    c = math.pi**2 / (alpha * L**2)
    # c m_max^2 >= 100: each dropped w is below 4e-44
    reach = 10.0 / math.sqrt(c) if c > 0 else math.inf
    if reach > (1 << 19) - 1:
        raise ValueError(f"the frequency weight table at alpha = {alpha:g}, L = {L:g} holds more "
                         "than 2^20 weights: lower alpha")
    m_max = math.ceil(reach)
    m = np.arange(-m_max, m_max + 1)
    return m, np.exp(-c * m * m)


def sum_S(alpha: float, L: float) -> float:
    """S = H^3 - 1 with H = sum_m w(m), the normaliser of the frequency target."""
    m, w = _weight_table(alpha, L)
    h = 2.0 * w[m > 0].sum()  # H - 1; (1 + h)^3 - 1 expanded, free of cancellation
    return float(h * (3.0 + h * (3.0 + h)))


_GUIDE_CELLS = 1 << 10  # cells of the frequency sampler's guide table


class _Guide(NamedTuple):
    """The 1-d weights' running sums c_j and their guide table, for ``_guide_lookup``.

    A draw u in [0, H) lies in cell int(u * scale) of the table, scale = G / H,
    and a sum c_j in cell int(c_j * scale).
    """

    H: float  # the weights' total
    scale: float
    cdf: np.ndarray  # c_j for j < 2 m_max, then +inf
    lo: np.ndarray  # per cell, the count of sums in the cells before it
    crowded: np.ndarray  # per cell, True where it holds two sums or more
    m_max: int


@functools.lru_cache(maxsize=8)
def _guide_table(alpha: float, L: float) -> _Guide:
    """The ``_Guide`` of ``_weight_table``'s weights, over G = ``_GUIDE_CELLS`` cells.

    Its arrays are read-only, as the cache hands the same ones to every caller.
    """
    m, w = _weight_table(alpha, L)
    cdf = np.cumsum(w)
    H = float(cdf[-1])
    scale = _GUIDE_CELLS / H
    cells = (cdf[:-1] * scale).astype(np.intp)  # at most G, as c_j <= H
    lo = np.searchsorted(cells, np.arange(_GUIDE_CELLS + 1), "left")
    crowded = np.bincount(cells, minlength=_GUIDE_CELLS + 1) > 1
    cdf[-1] = np.inf
    for a in (cdf, lo, crowded):
        a.flags.writeable = False
    return _Guide(H, scale, cdf, lo, crowded, len(m) // 2)


def _guide_lookup(guide: _Guide, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(c, u, "right") for draws 0 <= u < H, through the guide table.

    A rounded product never decreases as its factor grows, so in u's cell g
    every sum of an earlier cell lies below u and every sum of a later cell
    above it.  The answer is thus lo[g] plus the count of cell g's sums at or
    below u, which is (u >= cdf[lo[g]]) when the cell holds at most one:
    cdf[lo[g]] is then that sum, or a later cell's, or +inf.  The draws in
    crowded cells, the Gaussian's far tails, take the binary search.
    """
    cell = (u * guide.scale).astype(np.intp)
    j = guide.lo[cell]
    idx = j + (u >= guide.cdf[j])
    crowded = np.flatnonzero(guide.crowded[cell])
    if len(crowded):
        idx[crowded] = np.searchsorted(guide.cdf, u[crowded], "right")
    return idx


def _sample_m(alpha: float, L: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. integer vectors m != 0 with probability w(m_x) w(m_y) w(m_z) / S.

    Each component is j - m_max, with j the count of the 1-d weights' running
    sums at or below a uniform u in [0, H): ``_guide_lookup`` reads j from a
    guide table, with the binary search's answer at every u.  The u are drawn
    in order from ``rng.random``; all-zero rows are dropped and redrawn.
    Raises ValueError when P(m != 0) is below 1e-4, where all-zero draws
    would be redrawn thousands of times per sample.
    """
    guide = _guide_table(alpha, L)
    keep = 1.0 - guide.H ** -3.0  # P(m != 0), as w(0) = 1
    if keep < 1e-4:
        raise ValueError(f"alpha L^2 = {alpha * L**2:g} leaves P(m != 0) = {keep:.1e}: "
                         "too little frequency mass to sample")
    blocks, need = [], count
    while need > 0:
        u = rng.random(3 * min(int(need / keep) + 16, 1 << 18)) * guide.H
        block = (_guide_lookup(guide, u) - guide.m_max).reshape(-1, 3)
        nonzero = (block[:, 0] != 0) | (block[:, 1] != 0) | (block[:, 2] != 0)
        blocks.append(block.take(np.flatnonzero(nonzero)[:need], axis=0))
        need -= len(blocks[-1])
    return np.concatenate(blocks)


def cube_m_max(L: float, k_c: float) -> int:
    """The largest |m| of a lattice frequency 2 pi m / L with |k| <= k_c; raises
    ValueError past 2^24 frequencies in the exact sums' half cube (128 MiB of
    ``_cube_weights``; the default alpha gives about 19 N)."""
    m_max = int(math.floor(k_c * L / TWO_PI + 1e-9))
    size = (m_max + 1) * (2 * m_max + 1) ** 2
    if size > 1 << 24:
        raise ValueError(f"the exact Fourier sums' half cube at m_max = {m_max} holds "
                         f"{size:.3g} frequencies, more than 2^24: lower alpha")
    return m_max


@functools.lru_cache(maxsize=8)
def _cube_weights(L: float, k_c: float, alpha: float) -> Tuple[int, np.ndarray]:
    """m_max and exp(-k^2 / 4 alpha) / k^2 on the half cube 0 <= m_x, |m_y|, |m_z| <= m_max.

    w[m_x, m_max + m_y, m_max + m_z] is zero outside the half ball, i.e.
    where |k| > k_c or the first nonzero m is not positive.  The array is
    read-only, as the cache hands the same one to every caller.
    """
    m_max = cube_m_max(L, k_c)
    k = TWO_PI * np.arange(-m_max, m_max + 1) / L
    kx, ky, kz = k[m_max:, None, None], k[:, None], k
    k2 = kx * kx + ky * ky + kz * kz
    half = (kx > 0) | ((kx == 0) & ((ky > 0) | ((ky == 0) & (kz > 0))))
    keep = half & (k2 <= k_c**2 * (1 + 1e-12))
    w = np.zeros(k2.shape)
    w[keep] = np.exp(-k2[keep] / (4.0 * alpha)) / k2[keep]
    w.flags.writeable = False
    return m_max, w


def _phase_tables(positions: np.ndarray, L: float, m: np.ndarray) -> np.ndarray:
    """e[a, k, n] = exp(2 pi i m[k] x_na / L) for distinct integers m, shape (3, len(m), N).

    Built as powers of the m = 1 entry, for 3N cosines and sines: e(m) is
    e(m - 1) e(1), one product of the contiguous (3, N) block per power, and
    e(-m) its conjugate, so a row has the same bits whatever other rows are
    asked for.  The phase error of the m-th power grows like m eps, as that
    of cos(m theta) does from the rounding of m theta.  Only the rows of m
    are kept, beyond one (3, N) power.
    """
    theta = (TWO_PI / L) * np.ascontiguousarray(positions.T)
    e1 = np.empty(theta.shape, dtype=np.complex128)
    e1.real, e1.imag = np.cos(theta), np.sin(theta)
    e = np.empty((3, len(m), e1.shape[1]), dtype=np.complex128)
    row = {int(v): r for r, v in enumerate(m)}
    if 0 in row:
        e[:, row[0]] = 1.0
    power = e1.copy()
    for k in range(1, int(np.abs(m).max(initial=0)) + 1):
        if k > 1:
            power *= e1
        if k in row:
            e[:, row[k]] = power
        if -k in row:
            np.conj(power, out=e[:, row[-k]])
    return e


@dataclass
class KSampleBank:
    """Pre-sampled frequency vectors, consumed in order; refills on demand.

    ``cursor`` counts every sample drawn; ``samples`` holds the unconsumed
    ones, from the ``cursor - _dropped``-th on, and refills drop the rest.
    """

    alpha: float
    L: float
    samples: np.ndarray
    cursor: int = 0
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _dropped: int = field(default=0, repr=False)  # consumed samples no longer held

    @property
    def remaining(self) -> int:
        return len(self.samples) + self._dropped - self.cursor

    def draw(self, p: int) -> np.ndarray:
        """Next p unused samples; extends the bank rather than reusing any."""
        if self.remaining < p:
            self.refill(p)
        out = self.samples[self.cursor - self._dropped: self.cursor - self._dropped + p]
        self.cursor += p
        return out

    def refill(self, need: int = 0):
        """Replace the consumed samples by max(their count, 1024) fresh draws, then
        draw 1024 more at a time until ``need`` samples are unconsumed.

        The draws are those of as many one-draw refills, joined once.  A bank
        drawn p at a time thus never holds more than max(its first size,
        1024 + p) samples, however many it has handed out.
        """
        if self._rng is None:
            raise RuntimeError("bank exhausted and no generator attached for refills")
        used = self.cursor - self._dropped
        held, size, more = self.remaining, max(used, 1024), []
        while not more or held < need:
            more.append(_sample_m(self.alpha, self.L, size, self._rng))
            held, size = held + size, 1024
        self.samples = np.concatenate([self.samples[used:], TWO_PI * np.concatenate(more) / self.L])
        self._dropped = self.cursor


def mh_sample_kvectors(alpha: float, L: float, count: int, rng: np.random.Generator) -> KSampleBank:
    """A bank of ``count`` i.i.d. frequencies k = 2 pi m / L drawn by ``_sample_m``.

    The bank keeps ``rng`` for refills.  The name predates the exact sampler;
    it stays because the benchmark's layer trace reports this function as
    ``ewald.mh_sample_kvectors``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    m = _sample_m(alpha, L, count, rng)
    return KSampleBank(alpha=alpha, L=L, samples=TWO_PI * m / L, _rng=rng)


def _lattice_phases(system: PeriodicChargeSystem, kvecs: np.ndarray) -> np.ndarray:
    """exp(i k.r_n) for every frequency k and particle n, shape (len(kvecs), N).

    Raises ValueError unless each k is 2 pi m / L for an integer m, within
    1e-9 2 pi / L: the periodic box has no other modes.
    """
    mf = np.asarray(kvecs, dtype=np.float64) * (system.L / TWO_PI)
    m = np.rint(mf)
    if not np.all(np.abs(mf - m) <= 1e-9):
        raise ValueError("frequencies must be lattice vectors 2 pi m / L of the box")
    m = m.astype(np.intp)
    rows = np.unique(m)
    idx = np.searchsorted(rows, m)
    e = _phase_tables(system.state.positions, system.L, rows)
    out = e[0][idx[:, 0]]
    return np.multiply(np.multiply(out, e[1][idx[:, 1]], out=out), e[2][idx[:, 2]], out=out)


def _exact_fourier(system: PeriodicChargeSystem, params: EwaldParams, forces: bool = True):
    """Exact Fourier forces (None unless ``forces``) and k-space energy over |k| <= k_c, one rho pass."""
    m_max, w = _cube_weights(system.L, params.k_c, params.alpha)
    q = system.charges
    e = _phase_tables(system.state.positions, system.L, np.arange(-m_max, m_max + 1))
    exy = (e[0][m_max:, None] * e[1]).reshape(w.shape[0] * w.shape[1], len(q))  # rows (m_x, m_y)
    rho = (exy @ (q * e[2]).T).reshape(w.shape)
    energy = float(4.0 * math.pi / system.volume * np.sum(w * np.abs(rho) ** 2))
    if not forces:
        return None, energy
    # F_n = -q_n sum_k coef k Im(conj(e_nk) rho) = q_n Im(sum_k e_nk coef conj(rho) k):
    # conjugating rho, not the (cube, N) phases, spares a copy of exy
    wr = (8.0 * math.pi / system.volume) * w * np.conj(rho)
    k = TWO_PI * np.arange(-m_max, m_max + 1) / system.L
    wk = np.stack([wr * k[m_max:, None, None], wr * k[:, None], wr * k], axis=-1)
    t = (exy.T @ wk.reshape(len(exy), -1)).reshape(len(q), w.shape[2], 3)
    return q[:, None] * np.einsum("nmc,mn->nc", t, e[2]).imag, energy


def fourier_force_exact_all(system: PeriodicChargeSystem, params: EwaldParams) -> np.ndarray:
    """Exact Fourier-space Ewald forces with cutoff |k| <= k_c."""
    return _exact_fourier(system, params)[0]


def rbe_force_all(system: PeriodicChargeSystem, kbatch: np.ndarray, S: float) -> np.ndarray:
    """Random-batch Fourier forces: (S/p) importance-sampled over the batch.

    The same frequency batch must be shared by all particles within a step.
    """
    return _rbe_fourier(system, kbatch, S)[0]


def _rbe_fourier(system: PeriodicChargeSystem, kbatch, S: float):
    """Random-batch Fourier forces and k-space energy, one rho pass."""
    kbatch = np.atleast_2d(np.asarray(kbatch, dtype=np.float64))
    p, q = len(kbatch), system.charges
    k2 = np.einsum("ij,ij->i", kbatch, kbatch)
    eikr = _lattice_phases(system, kbatch)
    rho = eikr @ q
    coef = (S / p) * 4.0 * math.pi / system.volume / k2
    # F_n = q_n Im(sum_k e_kn coef_k conj(rho_k) k), as in ``_exact_fourier``: one (N, p) @ (p, 3)
    f = q[:, None] * (eikr.T @ ((coef * np.conj(rho))[:, None] * kbatch)).imag
    rho2 = np.abs(rho) ** 2
    return f, float(2.0 * math.pi / system.volume * (S / p) * np.sum(rho2 / k2))


def real_space_force_all(system: PeriodicChargeSystem, params: EwaldParams) -> Tuple[np.ndarray, float]:
    """All short-range Coulomb forces plus the real-space energy.

    The pairs come from ``system.pairs``, which is created here when the
    system has no list yet or one for another cutoff; the list refuses an
    r_c of L/2 or more.
    """
    if system.pairs is None or system.pairs.cutoff != params.r_c:
        system.pairs = PairList(params.r_c)
    i, j, disp, r2 = system.pairs(system.state.positions, system.L)
    # in place, with the operations of qq erfc(sqrt(alpha) r) / r and
    # qq 2 sqrt(alpha / pi) exp(-alpha r2) in that order, so the same bits
    r = np.sqrt(r2)
    qq = system.charges.take(i)
    qq *= system.charges.take(j)
    screened = np.multiply(r, math.sqrt(params.alpha))
    special("erfc")(screened, out=screened)
    screened *= qq
    screened /= r
    coef = np.multiply(r2, -params.alpha, out=r)
    np.exp(coef, out=coef)
    qq *= 2.0
    qq *= math.sqrt(params.alpha / math.pi)
    coef *= qq
    coef += screened
    coef /= r2  # (screened + gauss) / r2, the radial force over r
    return pair_force_sum(system.n_particles, i, j, disp, coef), float(np.sum(screened))


def fourier_energy(system: PeriodicChargeSystem, params: EwaldParams) -> float:
    """k-space sum (2 pi / V) sum_k |rho(k)|^2 exp(-k^2/4 alpha)/k^2 over |k| <= k_c."""
    return _exact_fourier(system, params, forces=False)[1]


def self_energy(system: PeriodicChargeSystem, params: EwaldParams) -> float:
    return float(-math.sqrt(params.alpha / math.pi) * np.sum(system.charges**2))


class CoulombSystem(SecondOrderSystem):
    """The charges of ``ions`` as a second-order system (unit masses).

    ``batch_forces(state)`` is real space plus the Fourier part, plus
    ``extra_force(state)`` when given (the electrolyte's LJ core), in that
    order.  The Fourier part is the random-batch sum over ``params.p``
    frequencies from ``bank`` (S is ``sum_S`` when not given), or the exact
    sum when there is no bank.  ``U_real`` and ``U_fourier`` are the last
    call's, for the energy log.  ``batch_forces`` points ``ions``, which keeps
    the real-space pair list, at its state.
    """

    def __init__(self, ions, params, bank=None, extra_force=None, S=None, gamma=0.0, sigma=0.0):
        params.validate_box(ions.L)
        super().__init__(kernel=None, alpha_N=1.0, gamma=gamma, sigma=sigma)
        self.ions, self.params, self.bank, self.extra_force = ions, params, bank, extra_force
        self.S = sum_S(params.alpha, ions.L) if S is None and bank is not None else S
        self.U_self, self.U_real, self.U_fourier = self_energy(ions, params), None, None

    def batch_forces(self, state: ParticleState, division=None) -> np.ndarray:
        ions = self.ions
        ions.state = state
        forces, self.U_real = real_space_force_all(ions, self.params)
        if self.bank is None:
            fourier, self.U_fourier = _exact_fourier(ions, self.params)
        else:
            fourier, self.U_fourier = _rbe_fourier(ions, self.bank.draw(self.params.p), self.S)
        forces += fourier
        if self.extra_force is not None:
            forces += self.extra_force(state)
        return forces


def rbe_md_step(
    system: PeriodicChargeSystem,
    params: EwaldParams,
    thermostat,
    bank: Optional[KSampleBank],
    dt: float,
    streams: SimStreams,
    extra_force=None,
    S: Optional[float] = None,
) -> Tuple[PeriodicChargeSystem, dict]:
    """The electrolyte's step in ``randbatch run``: the ``direct`` stepper on a
    ``CoulombSystem`` (no bank: the exact Fourier sum), then the thermostat's
    hooks and the energy log.  Returns the system at the new state, with its
    pair list, and the energies by their ``energy.csv`` names.  Kept for the
    benchmark's layer names until a benchmark change renames
    ``ewald.rbe_md_step.self_ms`` and ``scaling.rbe_md_step.ratio_2N``.
    """
    from . import runner  # which imports this module

    sim = runner._electrolyte_sim(system, params, thermostat, bank, streams, extra_force, S)
    runner._take_step(sim, runner._STEPPERS["direct"], 1, dt)
    return (system.replace_state(sim.state),
            dict(zip(runner.ENERGY_COLUMNS[1:], sim.energy[0][1:])))
