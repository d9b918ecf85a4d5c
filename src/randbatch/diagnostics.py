"""Metrics comparing simulations against oracles and analytic references."""

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from .integrators import direct_step, rbm_step_first_order
from .models import toy_lipschitz_system
from .rng import SimStreams
from .state import ParticleState, minimum_image


@dataclass
class EmpiricalMeasure:
    """Weighted sample cloud standing in for a probability measure."""

    samples: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        self.samples = np.atleast_1d(np.asarray(self.samples, dtype=np.float64))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1")
            self.weights = w


@dataclass
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray = field(init=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.float64)
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        self.counts = np.asarray(self.counts, dtype=np.float64)
        widths = np.diff(self.edges)
        total = self.counts.sum()
        self.density = self.counts / (total * widths) if total > 0 else np.zeros_like(widths)

    @classmethod
    def from_samples(cls, samples: np.ndarray, edges: np.ndarray) -> "Histogram":
        counts, _ = np.histogram(samples, bins=edges)
        return cls(edges=edges, counts=counts)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def _as_weighted(measure) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(measure, EmpiricalMeasure):
        samples = measure.samples.reshape(-1)
        w = measure.weights
        if w is None:
            w = np.full(samples.size, 1.0 / samples.size)
    else:
        samples = np.asarray(measure, dtype=np.float64).reshape(-1)
        w = np.full(samples.size, 1.0 / samples.size)
    order = np.argsort(samples, kind="stable")
    return samples[order], w[order]


def _step_cdf(x_sorted: np.ndarray, w_sorted: np.ndarray, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(x_sorted, grid, side="right")
    cw = np.concatenate([[0.0], np.cumsum(w_sorted)])
    return cw[idx]


def wasserstein1_1d(
    a,
    b,
    support: Optional[Tuple[float, float]] = None,
    grid_points: int = 200_001,
) -> float:
    """W1 distance between two 1-d measures via their CDFs.

    ``a`` is samples (or an EmpiricalMeasure); ``b`` is either samples or a
    callable CDF.  The two-sample case integrates |F_a - F_b| exactly between
    merged sample points.  Against a callable CDF the integral runs over
    ``support`` (default: padded sample range) on a dense grid.
    """
    xa, wa = _as_weighted(a)
    if callable(b):
        lo, hi = support if support is not None else (xa[0] - 1.0, xa[-1] + 1.0)
        grid = np.union1d(np.linspace(lo, hi, grid_points), xa[(xa >= lo) & (xa <= hi)])
        diff = np.abs(_step_cdf(xa, wa, grid) - np.asarray(b(grid), dtype=np.float64))
        return float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(grid)))
    xb, wb = _as_weighted(b)
    grid = np.concatenate([xa, xb])
    grid.sort(kind="stable")
    diff = np.abs(_step_cdf(xa, wa, grid) - _step_cdf(xb, wb, grid))
    return float(np.sum(diff[:-1] * np.diff(grid)))


@dataclass
class StrongError:
    """Root-mean-square coupled trajectory difference, per time and sup."""

    per_time: np.ndarray
    sup: float


def strong_error(traj_a, traj_b, vel_a=None, vel_b=None) -> StrongError:
    """sqrt(E |r_a - r_b|^2 [+ E |v_a - v_b|^2]) over replicas and particles.

    Trajectories are arrays shaped (replicas, times, N, d) or (times, N, d);
    both must share initial data and noise streams for the result to measure
    the batching error alone.
    """
    a = np.asarray(traj_a, dtype=np.float64)
    b = np.asarray(traj_b, dtype=np.float64)
    if a.ndim == 3:
        a, b = a[None], b[None]
    if a.shape != b.shape:
        raise ValueError("trajectories must have identical shapes")
    sq = np.sum((a - b) ** 2, axis=3)
    if vel_a is not None:
        va = np.asarray(vel_a, dtype=np.float64)
        vb = np.asarray(vel_b, dtype=np.float64)
        if va.ndim == 3:
            va, vb = va[None], vb[None]
        sq = sq + np.sum((va - vb) ** 2, axis=3)
    per_time = np.sqrt(sq.mean(axis=(0, 2)))
    return StrongError(per_time=per_time, sup=float(per_time.max()))


# cation-ion pairs per chunk of the radial scan
_RADIAL_CHUNK = 1 << 18


@dataclass
class RadialChargeProfile:
    r: np.ndarray
    net_density: np.ndarray
    counts: np.ndarray
    ln_r_rho: np.ndarray
    slope: float
    intercept: float
    fit_window: Tuple[float, float]


def radial_net_charge(
    frames: np.ndarray,
    charges: np.ndarray,
    box_length: float,
    bin_width: float = 0.1,
    fit_window: Tuple[float, float] = (0.5, 2.5),
) -> RadialChargeProfile:
    """Time-averaged net (screening) charge density around the positive ions.

    Bins the opposite-charge excess radially, normalizes by shell volume,
    frame count and cation count, and least-squares fits ln(r rho(r)) over the
    fit window.  The screening cloud of an electrolyte follows
    ln(r rho) = -kappa r + const.
    """
    frames = np.ascontiguousarray(np.asarray(frames, dtype=np.float64))
    if frames.ndim == 2:
        frames = frames[None]
    charges = np.ascontiguousarray(np.asarray(charges, dtype=np.float64))
    if not np.all(np.isfinite(frames)):
        raise ValueError("frames must be finite")
    n_bins = int((0.5 * box_length) / bin_width)
    acc = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    cations = np.flatnonzero(charges > 0)
    N = frames.shape[1]
    rows = max(1, _RADIAL_CHUNK // max(N, 1))
    for frame in frames:
        for s in range(0, cations.size, rows):
            c = cations[s: s + rows]
            r2 = np.zeros((c.size, N))
            for axis in range(frame.shape[1]):
                dx = minimum_image(frame[c, axis][:, None] - frame[None, :, axis], box_length)
                r2 += dx * dx
            r = np.sqrt(r2)
            near = r < 0.5 * box_length
            near[np.arange(c.size), c] = False  # no self pairs
            k = (r[near] / bin_width).astype(np.int64)
            j = np.nonzero(near)[1]
            keep = k < n_bins
            acc -= np.bincount(k[keep], charges[j[keep]], minlength=n_bins)
            counts += np.bincount(k[keep], minlength=n_bins)
    edges = bin_width * np.arange(n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    shell_vol = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    n_cations = int(np.sum(charges > 0))
    norm = frames.shape[0] * max(n_cations, 1) * shell_vol
    net_density = acc / norm
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_r_rho = np.where(net_density > 0, np.log(centers * net_density), np.nan)
    lo, hi = fit_window
    ok = (centers >= lo) & (centers <= hi) & np.isfinite(ln_r_rho)
    if ok.sum() >= 2:
        slope, intercept = np.polyfit(centers[ok], ln_r_rho[ok], 1)
    else:
        slope, intercept = math.nan, math.nan
    return RadialChargeProfile(
        r=centers,
        net_density=net_density,
        counts=counts,
        ln_r_rho=ln_r_rho,
        slope=float(slope),
        intercept=float(intercept),
        fit_window=fit_window,
    )


# --- per-step cost of the library steppers on the sin-kernel toy system ------


def scaling_benchmark(
    method: str,
    sizes: Sequence[int],
    p: int = 2,
    steps: int = 100,
    repeats: int = 3,
    dt: float = 0.01,
    sigma: float = 0.5,
    seed: int = 0,
) -> list:
    """Wall-clock seconds per step of ``direct_step`` or ``rbm_step_first_order``.

    Both run on ``models.toy_lipschitz_system`` at each size.  Returns
    [(N, seconds_per_step), ...] using the fastest of ``repeats`` timed runs
    of ``steps`` consecutive steps.
    """
    if method not in ("rbm", "direct"):
        raise ValueError("method must be 'rbm' or 'direct'")
    rng = np.random.default_rng(seed)
    results = []
    for N in sizes:
        system = toy_lipschitz_system(N, sigma=sigma)
        step = (partial(direct_step, system=system, dt=dt) if method == "direct"
                else partial(rbm_step_first_order, system=system, p=p, dt=dt))
        x0 = ParticleState(positions=rng.standard_normal((N, 1)))
        step(x0, streams=SimStreams(seed))  # warm-up
        best = math.inf
        for rep in range(repeats):
            state, streams = x0, SimStreams(seed, replica=rep)
            t0 = time.perf_counter()
            for _ in range(steps):
                state = step(state, streams=streams)
            best = min(best, (time.perf_counter() - t0) / steps)
        results.append((int(N), best))
    return results
