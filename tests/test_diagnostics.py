"""Wasserstein distance and radial profiles."""

import numpy as np
from scipy.optimize import linprog
from scipy.stats import norm

from randbatch.diagnostics import radial_net_charge, wasserstein1_1d
from randbatch.rng import RngStream


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
