"""Metrics comparing simulations against oracles and analytic references."""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .state import minimum_image


def _as_weighted(samples) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted samples, each with weight 1/n."""
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1), kind="stable")
    return x, np.full(x.size, 1.0 / x.size)


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

    ``a`` is samples; ``b`` is either samples or a callable CDF.  The
    two-sample case integrates |F_a - F_b| exactly between merged sample
    points.  Against a callable CDF the integral runs over ``support``
    (default: padded sample range) on a dense grid.
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
