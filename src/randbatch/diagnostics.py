"""Metrics comparing simulations against oracles and analytic references.

``wasserstein1_1d`` against a law (a ``CDF``: its CDF F and an
antiderivative G) integrates |F_N - F| exactly from F and G, with F called on
the samples inside the support, its two ends and the points of its crossing
solves; its arrays are a few of the samples' size.  ``radial_net_charge``
bins the cation-ion pairs a chunk of about 2^15 at a time into reused work
arrays, so its memory does not grow with the pair count, and gives the bits
of the whole-array formula.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

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


@dataclass(frozen=True)
class CDF:
    """A continuous law on the line: its CDF F and an antiderivative G of F.

    Calling it evaluates F.  Both take and return arrays elementwise, and F
    must be nondecreasing; ``wasserstein1_1d`` integrates |F_N - F| with G.
    """

    cdf: Callable[[np.ndarray], np.ndarray]
    integral: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        return self.cdf(x)


def wasserstein1_1d(a, b, support: Optional[Tuple[float, float]] = None) -> float:
    """W1 distance between two 1-d measures via their CDFs.

    ``a`` is samples; ``b`` is either samples or a law, a ``CDF``.  The
    two-sample case integrates |F_a - F_b| exactly between merged sample
    points.  Against a law the integral of |F_N - F| over ``support``
    (default: the sample range padded by 1) is exact too, up to roundoff: see
    ``_w1_against_law``.  ``TypeError`` for a callable that is not a ``CDF``,
    as it carries no antiderivative; ``ValueError`` if the support is not
    finite or not increasing.
    """
    xa, wa = _as_weighted(a)
    if callable(b):
        if not isinstance(b, CDF):
            raise TypeError("a law needs its antiderivative: pass diagnostics.CDF(cdf, integral)")
        lo, hi = support if support is not None else (xa[0] - 1.0, xa[-1] + 1.0)
        return _w1_against_law(xa, b, float(lo), float(hi))
    xb, wb = _as_weighted(b)
    grid = np.concatenate([xa, xb])
    grid.sort(kind="stable")
    diff = np.abs(_step_cdf(xa, wa, grid) - _step_cdf(xb, wb, grid))
    return float(np.sum(diff[:-1] * np.diff(grid)))


def _w1_against_law(x: np.ndarray, law: CDF, lo: float, hi: float) -> float:
    """The integral of |F_N - F| over [lo, hi] for the n sorted samples ``x``.

    The points P are lo, the samples inside [lo, hi] and hi; F_N is
    c_k = (s0 + k) / n on [P_k, P_{k+1}), where s0 samples lie below lo.  As F
    rises, c_k - F has one sign on an interval unless F(P_k) < c_k < F(P_{k+1}),
    where it changes sign at x* = F^-1(c_k).  An interval of sign s, or a
    piece of one, adds s (c_k length - (G(end) - G(start))).  The G terms
    cancel within each run of one sign, so F is called once on P and then
    in the crossing solves, and G once, on the run ends and the x*.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"support must be finite with lo < hi, got {(lo, hi)}")
    s0, s1 = int(x.searchsorted(lo)), int(x.searchsorted(hi, "right"))
    P = np.concatenate(([lo], x[s0:s1], [hi]))
    F = np.asarray(law(P), dtype=np.float64)
    c = np.arange(s0, s1 + 1) / x.size
    above = c >= F[1:]  # c - F >= 0 on the whole interval
    cross = ~above & (c > F[:-1])
    start, end = np.where(above | cross, 1.0, -1.0), np.where(above, 1.0, -1.0)
    cx, right = c[cross], P[1:][cross]
    xs = _crossings(law, cx, P[:-1][cross], right)
    # G(P_k) enters with the sign after P_k less the sign before it, G(x*) with -2
    weight = np.append(start, 0.0) - np.insert(end, 0, 0.0)
    ends = weight != 0
    G = np.asarray(law.integral(np.concatenate((P[ends], xs))), dtype=np.float64)
    weight = np.concatenate((weight[ends], np.full(xs.size, -2.0)))
    total = np.dot(start * c, np.diff(P)) - 2.0 * np.dot(cx, right - xs)
    return float(total + np.dot(weight, G))


def _crossings(law: CDF, c, a, b) -> np.ndarray:
    """x in (a, b) with F(x) = c, given F(a) < c < F(b): bisection on all the
    brackets at once, until each is at most 4 ulps wide."""
    tol = 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
    while np.any(b - a > tol):
        m = 0.5 * (a + b)
        low = np.asarray(law(m), dtype=np.float64) < c
        a, b = np.where(low, m, a), np.where(low, b, m)
    return 0.5 * (a + b)


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
