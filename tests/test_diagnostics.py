"""Wasserstein distance and radial profiles."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import gammaincc
from scipy.stats import norm

from randbatch import diagnostics
from randbatch.diagnostics import radial_net_charge, wasserstein1_1d
from randbatch.models import WealthModel, semicircle_cdf
from randbatch.rng import RngStream
from randbatch.runner import run, validate


def _w1_lp_oracle(a, b):
    """Optimal-transport LP between two equal-weight point sets."""
    n, m = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    A_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1
        A_eq.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1
        A_eq.append(row.ravel())
    b_eq = np.concatenate([np.full(n, 1 / n), np.full(m, 1 / m)])
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def test_w1_identical_samples_zero():
    x = RngStream(1).generator().standard_normal(50)
    assert wasserstein1_1d(x, x.copy()) == 0.0


def test_w1_translation():
    x = RngStream(2).generator().standard_normal(200)
    assert abs(wasserstein1_1d(x, x + 0.37) - 0.37) < 1e-12


def test_w1_matches_lp_oracle():
    a = np.array([0.0, 1.0, 2.5, 4.0])
    b = np.array([0.5, 0.9, 3.0, 3.1])
    assert abs(wasserstein1_1d(a, b) - _w1_lp_oracle(a, b)) < 1e-10
    gen = RngStream(3).generator()
    for _ in range(5):
        a = gen.standard_normal(4)
        b = gen.standard_normal(4)
        assert abs(wasserstein1_1d(a, b) - _w1_lp_oracle(a, b)) < 1e-10


def test_w1_unequal_sample_counts():
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 0.5, 1.0])
    # CDFs differ by 1/6 on [0, 0.5) and (0.5, 1]... direct integral = 1/3 - 1/6
    assert abs(wasserstein1_1d(a, b) - _w1_lp_oracle(a, b)) < 1e-12


def test_w1_symmetry_and_triangle():
    gen = RngStream(4).generator()
    for _ in range(10):
        a, b, c = (gen.standard_normal(30) for _ in range(3))
        assert abs(wasserstein1_1d(a, b) - wasserstein1_1d(b, a)) < 1e-12
        assert wasserstein1_1d(a, c) <= wasserstein1_1d(a, b) + wasserstein1_1d(b, c) + 1e-10


def test_w1_against_callable_cdf():
    gen = RngStream(5).generator()
    x = gen.standard_normal(5000)
    against_cdf = wasserstein1_1d(x, norm.cdf, support=(-8, 8))
    quantiles = norm.ppf((np.arange(200_000) + 0.5) / 200_000)
    against_samples = wasserstein1_1d(x, quantiles)
    assert abs(against_cdf - against_samples) < 1e-3
    assert against_cdf < 0.05


def test_radial_profile_symmetric_noise_is_near_zero():
    gen = RngStream(7).generator()
    L = 10.0
    frames = gen.uniform(0, L, size=(40, 100, 3))
    charges = np.tile([1.0, -1.0], 50)
    prof = radial_net_charge(frames, charges, L, bin_width=0.5)
    assert np.max(np.abs(prof.net_density[1:])) < 0.05


def test_radial_profile_counts_conservation():
    gen = RngStream(8).generator()
    L = 8.0
    frames = gen.uniform(0, L, size=(5, 40, 3))
    charges = np.tile([1.0, -1.0], 20)
    prof = radial_net_charge(frames, charges, L, bin_width=0.25)
    # every counted pair fell into some bin; count only pairs within the binned range
    total = 0
    half = L / 2
    nbins = len(prof.counts)
    for f in range(5):
        for i in range(40):
            if charges[i] <= 0:
                continue
            d = frames[f, i] - frames[f]
            d -= L * np.floor(d / L + 0.5)
            r = np.linalg.norm(d, axis=1)
            r = r[(r > 0) & (r < half)]
            total += int(np.sum((r / 0.25).astype(int) < nbins))
    assert prof.counts.sum() == total


def test_radial_profile_synthetic_screening_roundtrip():
    # draw radii with shell density 4 pi r^2 rho(r) ~ r e^{-kappa r}: Gamma(2, 1/kappa)
    gen = RngStream(9).generator()
    kappa, L = 1.941, 12.0
    n_points = 400_000
    radii = gen.gamma(2.0, 1.0 / kappa, size=n_points)
    radii = radii[radii < 3.5]
    dirs = gen.standard_normal((len(radii), 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    center = np.array([L / 2, L / 2, L / 2])
    frames = np.concatenate([center[None, :], center + radii[:, None] * dirs])[None, :, :]
    charges = np.concatenate([[1.0], -np.ones(len(radii))])
    prof = radial_net_charge(frames, charges, L, bin_width=0.1, fit_window=(0.5, 2.5))
    assert abs(prof.slope - (-kappa)) < 0.05


# --- the blocked W1 scan and the mask-free radial scan, exactly against the
# whole-array formulas they replace

ROOT = Path(__file__).resolve().parents[1]
GRID = np.linspace(-3.0, 5.0, 200_001)


def _w1_whole_grid(a, cdf, support=None):
    """W1 against a CDF with every array spanning the merged grid."""
    x = np.sort(np.asarray(a, dtype=np.float64).reshape(-1), kind="stable")
    lo, hi = support if support is not None else (x[0] - 1.0, x[-1] + 1.0)
    grid = np.union1d(np.linspace(lo, hi, 200_001), x[(x >= lo) & (x <= hi)])
    cw = np.concatenate([[0.0], np.cumsum(np.full(x.size, 1.0 / x.size))])
    f_n = cw[np.searchsorted(x, grid, side="right")]
    diff = np.abs(f_n - np.asarray(cdf(grid), dtype=np.float64))
    return float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(grid)))


@pytest.fixture(scope="module")
def wealth_final(tmp_path_factory):
    """The wealth-rbm bench config's final wealth, its model and its w1_equilibrium."""
    cfg = validate(ROOT / "perfbench" / "configs" / "wealth-rbm.yaml")
    outdir = run(cfg, out_root=tmp_path_factory.mktemp("wealth-rbm"))
    wealth = np.loadtxt(outdir / "samples.csv", delimiter=",", skiprows=1, usecols=2)
    metrics = json.loads((outdir / "metrics.json").read_text())
    return wealth, WealthModel(N=wealth.size), metrics["w1_equilibrium"]


def _wealth_support(wealth):
    return (0.0, max(60.0, wealth.max() * 2))


def test_w1_against_the_wealth_equilibrium_has_the_whole_grid_bits(wealth_final):
    wealth, model, written = wealth_final
    support = _wealth_support(wealth)
    got = wasserstein1_1d(wealth, model.equilibrium_cdf, support=support)
    assert got == _w1_whole_grid(wealth, model.equilibrium_cdf, support) == written


def _on_grid_points():
    block = diagnostics._W1_BLOCK
    idx = [0, 1, block - 1, block, block + 1, 2 * block, 3 * block - 1, 199_999, 200_000]
    return np.concatenate([GRID[idx], RngStream(11).generator().uniform(-3.0, 5.0, 200)])


W1_CASES = {
    "on-grid-points": lambda: (_on_grid_points(), norm.cdf, (-3.0, 5.0)),
    "duplicates": lambda: (np.repeat(_on_grid_points()[::3], 4), norm.cdf, (-3.0, 5.0)),
    "outside-support": lambda: (RngStream(12).generator().uniform(-6.0, 8.0, 500), norm.cdf,
                                (-3.0, 5.0)),
    "none-in-support": lambda: (RngStream(13).generator().uniform(6.0, 9.0, 50), norm.cdf,
                                (-3.0, 5.0)),
    "single-sample": lambda: (np.array([0.3]), norm.cdf, (-3.0, 5.0)),
    "integer-support": lambda: (RngStream(14).generator().standard_normal(5000), norm.cdf, (-8, 8)),
    "support-none": lambda: (RngStream(15).generator().standard_normal(3000), norm.cdf, None),
    "many-samples-per-grid-step": lambda: (1e-6 * RngStream(16).generator().standard_normal(
        20_000), norm.cdf, (-1.0, 1.0)),
    "semicircle-2e5": lambda: (
        math.sqrt(2.0) * (2.0 * RngStream(17).generator().beta(1.5, 1.5, 200_000) - 1.0),
        semicircle_cdf, (-2.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(W1_CASES))
def test_w1_against_a_cdf_has_the_whole_grid_bits(case):
    a, cdf, support = W1_CASES[case]()
    assert wasserstein1_1d(a, cdf, support=support) == _w1_whole_grid(a, cdf, support)


@pytest.mark.parametrize("case", ["wealth", "on-grid-points", "duplicates", "semicircle-2e5",
                                  "many-samples-per-grid-step"])
def test_w1_calls_the_cdf_once_per_point_on_block_sized_arrays(case, wealth_final):
    if case == "wealth":
        wealth, model, _ = wealth_final
        a, cdf, support = wealth, model.equilibrium_cdf, _wealth_support(wealth)
    else:
        a, cdf, support = W1_CASES[case]()
    sizes = []

    def recording(x):
        sizes.append(x.size)
        return cdf(x)

    wasserstein1_1d(a, recording, support=support)
    inside = a[(a >= support[0]) & (a <= support[1])]
    assert sum(sizes) == np.union1d(np.linspace(*support, 200_001), inside).size
    # samples piled into one grid step cannot be split further
    limit = 2 * diagnostics._W1_BLOCK + 1 if case != "many-samples-per-grid-step" else a.size + 2
    assert max(sizes) <= limit


def test_w1_against_the_wealth_equilibrium_peaks_under_4_mb(wealth_final):
    wealth, model, _ = wealth_final
    support = _wealth_support(wealth)
    wasserstein1_1d(wealth, model.equilibrium_cdf, support=support)  # warm caches
    tracemalloc.start()
    try:
        wasserstein1_1d(wealth, model.equilibrium_cdf, support=support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _stable_sorted(samples):
    """``_as_weighted`` with a stable sort, which keeps -0.0 and +0.0 in input order."""
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1), kind="stable")
    return x, np.full(x.size, 1.0 / x.size)


def test_w1_with_the_default_sort_equals_the_stable_sort_on_signed_zeros_ties_and_duplicates(
    monkeypatch
):
    gen = RngStream(19).generator()
    zeros = np.array([0.0, -0.0] * 40)
    a = np.concatenate([zeros, np.round(gen.standard_normal(400), 1), [1.5] * 30, GRID[:50:7]])
    b = np.concatenate([zeros[:30], np.round(gen.standard_normal(300) + 0.2, 2), [-0.0] * 9])
    gen.shuffle(a)
    gen.shuffle(b)
    cases = [(a, b, None), (b, a, None), (a, a[::-1].copy(), None), (a, norm.cdf, (-3.0, 5.0)),
             (b, norm.cdf, None), (0.5 * a, semicircle_cdf, (-2.0, 2.0)),
             (np.concatenate([zeros, [1.0]]), norm.cdf, (-1.0, 1.0))]
    got = [wasserstein1_1d(x, y, support=s) for x, y, s in cases]
    monkeypatch.setattr(diagnostics, "_as_weighted", _stable_sorted)
    want = [wasserstein1_1d(x, y, support=s) for x, y, s in cases]
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("support", [(1.0, 1.0), (2.0, -2.0), (math.nan, 1.0), (0.0, math.nan),
                                     (0.0, math.inf), (-math.inf, 0.0), (1e6, 1e6 + 1e-9)])
def test_w1_refuses_a_reversed_non_finite_or_unresolvable_support(support):
    with pytest.raises(ValueError, match="support"):
        wasserstein1_1d(np.array([0.5, 1.5]), norm.cdf, support=support)


def test_w1_with_a_nan_sample_and_no_support_refuses_the_nan_range():
    with pytest.raises(ValueError, match="support"):
        wasserstein1_1d(np.array([0.5, math.nan]), norm.cdf)


def _radial_masked(frames, charges, box_length, bin_width=0.1, fit_window=(0.5, 2.5)):
    """The radial profile with boolean masks over each (cations x N) chunk."""
    frames = np.asarray(frames, dtype=np.float64)
    frames = frames[None] if frames.ndim == 2 else frames
    n_bins = int((0.5 * box_length) / bin_width)
    acc = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    cations = np.flatnonzero(charges > 0)
    N = frames.shape[1]
    rows = max(1, diagnostics._RADIAL_CHUNK // N)  # the same chunks: the same float sums
    for frame in frames:
        for s in range(0, cations.size, rows):
            c = cations[s: s + rows]
            r2 = np.zeros((c.size, N))
            for axis in range(frame.shape[1]):
                d = frame[c, axis][:, None] - frame[None, :, axis]
                d = d - box_length * np.floor(d / box_length + 0.5)
                r2 += d * d
            r = np.sqrt(r2)
            near = r < 0.5 * box_length
            near[np.arange(c.size), c] = False
            k = (r[near] / bin_width).astype(np.int64)
            j = np.nonzero(near)[1]
            keep = k < n_bins
            acc -= np.bincount(k[keep], charges[j[keep]], minlength=n_bins)
            counts += np.bincount(k[keep], minlength=n_bins)
    edges = bin_width * np.arange(n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    shell_vol = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    net_density = acc / (frames.shape[0] * max(int(np.sum(charges > 0)), 1) * shell_vol)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_r_rho = np.where(net_density > 0, np.log(centers * net_density), np.nan)
    ok = (centers >= fit_window[0]) & (centers <= fit_window[1]) & np.isfinite(ln_r_rho)
    slope, intercept = np.polyfit(centers[ok], ln_r_rho[ok], 1) if ok.sum() >= 2 else (math.nan,
                                                                                         math.nan)
    return counts, net_density, float(slope), float(intercept)


def _ions(seed, n_frames, N, L, charges):
    return RngStream(seed).generator().uniform(0.0, L, size=(n_frames, N, 3)), np.asarray(charges)


def _half_box_apart():
    """Ions 0 and 1 exactly L/2 apart along x, ions 2 and 3 along z."""
    frames, q = _ions(21, 2, 40, 8.0, np.tile([1.0, -1.0], 20))
    frames[:, 1] = frames[:, 0]
    frames[:, 0, 0], frames[:, 1, 0] = 1.25, 5.25
    frames[:, 3] = frames[:, 2]
    frames[:, 2, 2], frames[:, 3, 2] = 7.5, 3.5
    return frames, q, 8.0


RADIAL_CASES = {
    "non-unit-charges": lambda: (*_ions(22, 3, 60, 7.0, np.tile([2.0, -1.0, 0.3, -0.7, 0.5, -1.1],
                                                                  10)), 7.0),
    "odd-n": lambda: (*_ions(23, 2, 41, 6.5, np.r_[np.tile([1.0, -1.0], 20), 1.0]), 6.5),
    "half-box-apart": _half_box_apart,
    "two-ions-at-one-position": lambda: (lambda f, q: (np.concatenate(
        [f, f[:, :1]], axis=1), np.r_[q, -1.0], 8.0))(*_ions(24, 2, 40, 8.0,
                                                            np.tile([1.0, -1.0], 20))),
    "several-chunks": lambda: (*_ions(25, 4, 300, 6.69, np.tile([1.0, -1.0], 150)), 6.69),
    "one-2d-frame": lambda: (lambda f, q: (f[0], q, 6.0))(*_ions(26, 1, 30, 6.0,
                                                                np.tile([1.0, -1.0], 15))),
}


@pytest.mark.parametrize("case", sorted(RADIAL_CASES))
def test_radial_net_charge_has_the_masked_scans_bits(case):
    frames, charges, L = RADIAL_CASES[case]()
    prof = radial_net_charge(frames, charges, L)
    counts, net_density, slope, intercept = _radial_masked(frames, charges, L)
    assert np.array_equal(prof.counts, counts)
    assert np.array_equal(prof.net_density, net_density)
    assert np.array_equal([prof.slope, prof.intercept], [slope, intercept], equal_nan=True)


def test_the_several_chunks_case_spans_more_than_one_chunk():
    frames, charges, _ = RADIAL_CASES["several-chunks"]()
    assert np.sum(charges > 0) > diagnostics._RADIAL_CHUNK // frames.shape[1]


def test_the_equilibrium_cdf_equals_the_masked_formula_everywhere():
    model = WealthModel(N=10)
    y = np.array([-1.0, 0.0, math.nan, 1e-300, 0.5, 3.0, 1e300, math.inf])
    masked = np.zeros_like(y)
    pos = y > 0
    masked[pos] = gammaincc(model.shape, model.scale / y[pos])
    assert np.array_equal(model.equilibrium_cdf(y), masked)
