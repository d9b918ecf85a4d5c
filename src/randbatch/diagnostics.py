"""Metrics comparing simulations against oracles and analytic references.

Both scans here run in blocks, so their memory does not grow with the grid
or the pair count.  ``wasserstein1_1d`` against a CDF integrates on the grid
lo + k h (k = 0 .. 200 000, formed as ``np.linspace`` forms it) merged with
the samples inside the support, and evaluates the CDF, which must be
elementwise, on a few thousand of those points at a time; only its trapezoid
terms span the whole grid.  ``radial_net_charge`` bins the cation-ion pairs a
chunk of about 2^15 at a time into reused work arrays.  Both give the bits of
the whole-array formulas.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .state import minimum_image


def _as_weighted(samples) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted samples, each with weight 1/n.

    Only the sorted values are read, so numpy's default sort serves: it can
    differ from a stable sort only in the order of equal values (-0.0 and
    +0.0), which the CDFs built from them cannot see.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    return x, np.full(x.size, 1.0 / x.size)


def _step_cdf(x_sorted: np.ndarray, w_sorted: np.ndarray, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(x_sorted, grid, side="right")
    cw = np.concatenate([[0.0], np.cumsum(w_sorted)])
    return cw[idx]


def wasserstein1_1d(a, b, support: Optional[Tuple[float, float]] = None) -> float:
    """W1 distance between two 1-d measures via their CDFs.

    ``a`` is samples; ``b`` is either samples or a callable CDF.  The
    two-sample case integrates |F_a - F_b| exactly between merged sample
    points.  Against a callable CDF the integral is the trapezoid rule over
    ``support`` (default: padded sample range) on the 200 001 points lo + k h,
    formed as ``np.linspace`` forms them, merged with the distinct samples
    inside the support.  The CDF must be elementwise: it is called on one
    block of that grid at a time, a block of at most ``_W1_BLOCK`` grid
    points and about as many samples.  Beyond a sorted copy of the samples
    and their cumulative weights, only the trapezoid terms span the whole
    grid: 1.6 MB, plus 8 bytes per sample inside the support.
    ``ValueError`` if the support is not finite, not increasing, or too
    narrow for its 200 000 steps to be distinct floats.
    """
    xa, wa = _as_weighted(a)
    if callable(b):
        lo, hi = support if support is not None else (xa[0] - 1.0, xa[-1] + 1.0)
        return _w1_against_cdf(xa, wa, b, float(lo), float(hi))
    xb, wb = _as_weighted(b)
    grid = np.concatenate([xa, xb])
    grid.sort(kind="stable")
    diff = np.abs(_step_cdf(xa, wa, grid) - _step_cdf(xb, wb, grid))
    return float(np.sum(diff[:-1] * np.diff(grid)))


# points of the W1 grid against a CDF, and the most grid points and samples
# in one block of its scan: 2^12 doubles keep a block's arrays well below
# glibc's 128 KiB mmap threshold, so they come from the heap
_W1_POINTS = 200_001
_W1_BLOCK = 1 << 12


def _w1_against_cdf(xa: np.ndarray, wa: np.ndarray, cdf, lo: float, hi: float) -> float:
    """Trapezoid W1 of the sorted samples ``xa`` (weights ``wa``) against ``cdf``.

    Walks the grid in blocks.  F_N at a merged point is the cumulative weight
    of the samples at or below it, whose count is the samples before the
    block plus a running count of the block's samples.  Each block writes its trapezoid terms, and the
    one before its first point, into a single array whose ``np.sum`` is the
    integral, so the result has the bits of the whole-grid formula.
    """
    step = (hi - lo) / (_W1_POINTS - 1)  # np.linspace's step
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"support must be finite with lo < hi, got {(lo, hi)}")
    if not step > 2.0 * np.spacing(2.0 * max(abs(lo), abs(hi))):
        raise ValueError(f"support {(lo, hi)} is too narrow for {_W1_POINTS} distinct points")
    cw = np.concatenate([[0.0], np.cumsum(wa)])
    s0, s_end = int(xa.searchsorted(lo)), int(xa.searchsorted(hi, "right"))
    terms = np.empty(_W1_POINTS - 1 + s_end - s0)
    t = k0 = 0
    x_prev = d_prev = None  # the last point of the block before, and its |F_N - F|
    while k0 < _W1_POINTS:
        k1 = min(k0 + _W1_BLOCK, _W1_POINTS)
        if s_end - s0 > _W1_BLOCK:  # end the block near its _W1_BLOCK-th sample
            k1 = min(k1, max(k0 + 1, int((xa[s0 + _W1_BLOCK] - lo) / step)))
        x = np.arange(k0, k1, dtype=np.float64)
        x *= step
        x += lo
        if k1 == _W1_POINTS:
            x[-1] = hi
            s1 = s_end
        else:
            s1 = int(xa.searchsorted(k1 * step + lo))  # samples before the next block
        if s1 > s0:
            xs = xa[s0:s1]
            x = np.union1d(x, xs)
            F = cw[s0 + np.cumsum(np.bincount(x.searchsorted(xs), minlength=x.size))]
        else:
            F = cw[s0]
        d = np.abs(F - np.asarray(cdf(x), dtype=np.float64))
        if x_prev is not None:
            terms[t] = 0.5 * (d[0] + d_prev) * (x[0] - x_prev)
            t += 1
        seg = terms[t: t + x.size - 1]
        np.add(d[1:], d[:-1], out=seg)
        seg *= 0.5
        seg *= np.diff(x)
        t += seg.size
        x_prev, d_prev = x[-1], d[-1]
        k0, s0 = k1, s1
    return float(np.sum(terms[:t]))


# cation-ion pairs per chunk of the radial scan
_RADIAL_CHUNK = 1 << 15


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

    Cations are taken a chunk of rows at a time, about ``_RADIAL_CHUNK`` =
    2^15 cation-ion pairs, into work arrays reused across chunks and frames.
    Every pair of a chunk gets a bin without masks: those at r >= L/2, past
    the last whole bin, or of an ion with itself go to one extra bin, which
    is dropped at the end.
    """
    frames = np.ascontiguousarray(np.asarray(frames, dtype=np.float64))
    if frames.ndim == 2:
        frames = frames[None]
    charges = np.ascontiguousarray(np.asarray(charges, dtype=np.float64))
    if not np.all(np.isfinite(frames)):
        raise ValueError("frames must be finite")
    n_bins = int((0.5 * box_length) / bin_width)
    # bin n_bins takes the pairs at r >= L/2, the self pairs and those past the
    # last whole bin, and is dropped at the end
    acc = np.zeros(n_bins + 1)
    counts = np.zeros(n_bins + 1, dtype=np.int64)
    cations = np.flatnonzero(charges > 0)
    N = frames.shape[1]
    rows = max(1, min(_RADIAL_CHUNK // max(N, 1), cations.size))
    work = np.empty((3, rows, N))
    bins = np.empty((rows, N), dtype=np.int64)
    weights = np.tile(charges, rows)
    for frame in frames:
        for s in range(0, cations.size, rows):
            c = cations[s: s + rows]
            dx, wrap, r = work[:, :c.size]
            for axis in range(frame.shape[1]):
                np.subtract(frame[c, axis][:, None], frame[:, axis], out=dx)
                minimum_image(dx, box_length, wrap)
                if axis:
                    dx *= dx
                    r += dx
                else:
                    np.multiply(dx, dx, out=r)
            np.sqrt(r, out=r)
            r /= bin_width
            np.minimum(r, n_bins, out=r)  # every pair at r >= L/2 reaches n_bins
            k = bins[:c.size]
            np.copyto(k, r, casting="unsafe")  # truncates, as astype does
            k[np.arange(c.size), c] = n_bins  # self pairs
            k = k.reshape(-1)
            acc -= np.bincount(k, weights[:k.size], minlength=n_bins + 1)
            counts += np.bincount(k, minlength=n_bins + 1)
    acc, counts = acc[:n_bins], counts[:n_bins]
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
