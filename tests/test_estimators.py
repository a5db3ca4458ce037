import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from slow_paths import knn_distances_ckdtree

from ulakit import (
    GaussianMoments,
    InitDensity,
    InputError,
    SampleEnsemble,
    em_moments_linear,
    girsanov_pathwise_kl,
    knn_kl,
    make_model,
    moment_estimate,
    rate_fit,
    simulate_ensemble,
    tv_histogram,
    w2_empirical_1d,
    w2_gaussian,
)
from ulakit import estimators as est
from ulakit.estimators import fits_rate

OU1 = make_model("ou", dim=1)


def gaussian_samples(rng, mean, cov, n):
    mean = np.atleast_1d(np.asarray(mean, float))
    cov = np.atleast_2d(np.asarray(cov, float))
    return rng.multivariate_normal(mean, cov, size=n)


# --- rate_fit -----------------------------------------------------------------


def test_rate_fit_exact_quadratic():
    fit = rate_fit([(0.1, 0.01), (0.2, 0.04), (0.4, 0.16)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_exact_linear():
    fit = rate_fit([(0.1, 0.1), (0.2, 0.2), (0.4, 0.4)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_rejects_bad_input():
    with pytest.raises(InputError):
        rate_fit([(0.1, 0.01), (0.2, 0.04)])
    # Three points on one step size span no slope.
    with pytest.raises(InputError, match="3 distinct step sizes"):
        rate_fit([(0.1, 2e-4), (0.1, 2.1e-4), (0.1, 2.2e-4)])
    with pytest.raises(InputError):
        rate_fit([(0.1, 0.0), (0.2, 0.04), (0.4, 0.16)])
    with pytest.raises(InputError):
        rate_fit([(-0.1, 0.01), (0.2, 0.04), (0.4, 0.16)])


# (step sizes, whether they span a rate fit): 3 distinct step sizes, however
# many points repeat one.
STEP_GRIDS = [
    ([], False),
    ([0.1], False),
    ([0.2, 0.1], False),
    ([0.1, 0.1, 0.1], False),
    ([0.2, 0.1, 0.2], False),
    ([0.2, 0.2, 0.1, 0.1], False),
    ([0.4, 0.2, 0.1], True),
    ([0.4, 0.2, 0.2, 0.1], True),
    ([0.1, 0.1, 0.1, 0.2, 0.3], True),
    ([0.1, math.nextafter(0.1, 1.0), 0.2], True),
]


@pytest.mark.parametrize("etas, fits", STEP_GRIDS, ids=lambda v: repr(v) if isinstance(v, list) else None)
def test_rate_fit_needs_3_distinct_step_sizes(etas, fits):
    points = [(eta, eta * eta) for eta in etas]
    assert fits_rate(points) is fits
    if fits:
        assert rate_fit(points).slope == pytest.approx(2.0, abs=1e-6)
    else:
        with pytest.raises(InputError, match="3 distinct step sizes"):
            rate_fit(points)


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_rate_fit_slope_invariant_under_rescaling(eta_scale, val_scale):
    pts = [(0.1, 0.02), (0.2, 0.09), (0.4, 0.35)]
    base = rate_fit(pts)
    scaled = rate_fit([(e * eta_scale, v * val_scale) for e, v in pts])
    assert scaled.slope == pytest.approx(base.slope, rel=1e-9, abs=1e-9)


# --- knn_kl ---------------------------------------------------------------------


def test_knn_kl_same_distribution_seed_split():
    rng = np.random.default_rng(101)
    pool = rng.standard_normal((40_000, 1))
    val = knn_kl(pool[:20_000], pool[20_000:], k=5)
    assert abs(val) <= 0.05
    assert val >= -0.1


def test_knn_kl_mean_shift_1d():
    rng = np.random.default_rng(103)
    p = rng.standard_normal((20_000, 1))
    q = rng.standard_normal((20_000, 1)) + 1.0
    val = knn_kl(p, q, k=5)
    assert abs(val - 0.5) <= 0.08
    assert val >= -0.1


def test_knn_kl_mean_shift_2d():
    rng = np.random.default_rng(107)
    p = rng.standard_normal((20_000, 2))
    q = rng.standard_normal((20_000, 2)) + np.array([1.0, 0.0])
    val = knn_kl(p, q, k=5)
    assert abs(val - 0.5) <= 0.08


def test_knn_kl_duplicates_jittered_with_warning():
    rng = np.random.default_rng(109)
    p = np.repeat(rng.standard_normal((100, 1)), 2, axis=0)
    q = rng.standard_normal((200, 1))
    with pytest.warns(UserWarning):
        val = knn_kl(p, q, k=1)
    assert np.isfinite(val)


def test_knn_kl_input_validation():
    rng = np.random.default_rng(1)
    small = rng.standard_normal((50, 1))
    big = rng.standard_normal((200, 1))
    with pytest.raises(InputError):
        knn_kl(small, big)
    with pytest.raises(InputError):
        knn_kl(big, big[:, :1].repeat(2, axis=1))
    with pytest.raises(InputError):
        knn_kl(big, big, k=0)


@st.composite
def knn_1d_cases(draw):
    """(p, q, k) of 1-D samples near the 100-point minimum, k one of 1, m and
    n - 1, unsorted, optionally rounded so that ties and duplicates
    occur, with q inside, across, above or below p's range."""
    kind = draw(st.sampled_from(["1", "m", "n-1"]))
    size = draw(st.integers(100, 130))
    extra = draw(st.integers(0, 30))
    if kind == "m":
        m, n = size, size + 1 + extra
    elif kind == "n-1":
        n, m = size + 1, size + extra
    else:
        n, m = size, draw(st.integers(100, 130))
    k = {"1": 1, "m": m, "n-1": n - 1}[kind]
    scale, shift = draw(st.sampled_from([(0.3, 0.0), (1.0, 1.5), (1.0, 10.0), (1.0, -10.0)]))
    decimals = draw(st.sampled_from([None, 2, 1, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.standard_normal((n, 1))
    q = scale * rng.standard_normal((m, 1)) + shift
    if decimals is not None:
        p, q = np.round(p, decimals), np.round(q, decimals)
    return p, q, k


@settings(deadline=None)
@given(knn_1d_cases())
def test_knn_distances_1d_equal_ckdtree_bitwise(case):
    p, q, k = case
    rho, nu = est._knn_distances(p, q, k)
    tree_rho, tree_nu = knn_distances_ckdtree(p, q, k)
    assert np.array_equal(rho, tree_rho)
    assert np.array_equal(nu, tree_nu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rounded draws repeat points
        value = knn_kl(p, q, k=k)
        with mock.patch.object(est, "_knn_distances", knn_distances_ckdtree):
            tree_value = knn_kl(p, q, k=k)
    assert value == tree_value


def test_knn_distances_1d_exact_where_tree_square_underflows():
    # Gaps of 1e-160 and 2e-160 square to subnormals, which the tree's
    # sqrt(fl(r^2)) does not invert; the sorted path gives |fl(x - y)|.
    tiny = np.array([0.0, 1e-160])
    p = np.concatenate([tiny, 10.0 + np.arange(98.0)])[:, None]
    q = np.concatenate([[3e-160], -10.0 - np.arange(99.0)])[:, None]
    assert 2e-160**2 < np.finfo(float).tiny
    rho, nu = est._knn_distances(p, q, 1)
    assert rho[0] == rho[1] == 1e-160
    assert nu[0] == 3e-160 and nu[1] == 3e-160 - 1e-160
    tree_rho, tree_nu = knn_distances_ckdtree(p, q, 1)
    assert np.array_equal(rho[2:], tree_rho[2:]) and np.array_equal(nu[2:], tree_nu[2:])


def test_knn_kl_accepts_ensembles():
    rng = np.random.default_rng(113)
    p = SampleEnsemble(time=0.0, eta=0.1, points=rng.standard_normal((500, 1)), master_seed=0)
    q = SampleEnsemble(time=0.0, eta=0.1, points=rng.standard_normal((500, 1)), master_seed=1)
    assert np.isfinite(knn_kl(p, q))


# --- non-finite samples -----------------------------------------------------------

SAMPLE_ESTIMATORS = {
    "knn_kl": lambda p, q: knn_kl(p, q),
    "w2_empirical_1d": w2_empirical_1d,
    "tv_histogram": tv_histogram,
    "moment_estimate": lambda p, q: moment_estimate(p, 2),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(SAMPLE_ESTIMATORS))
def test_estimators_reject_non_finite_samples(name, bad):
    # The parent gave TV 0.0 and W2 and moments of nan for one nan point.
    rng = np.random.default_rng(191)
    p = rng.standard_normal((200, 1))
    p[17, 0] = bad
    with pytest.raises(InputError, match="samples must be finite"):
        SAMPLE_ESTIMATORS[name](p, rng.standard_normal((200, 1)))


# --- one shape rule for arrays and ensembles ---------------------------------------


@pytest.mark.parametrize("name", list(SAMPLE_ESTIMATORS))
def test_a_1d_array_is_n_points_of_dimension_1_for_ensembles_and_estimators(name):
    # An ensemble once read a 1-D array as one point of dimension n: the
    # moment of these 200 values gave 67.3 through it and 0.337 without.
    x = np.linspace(-1.0, 1.0, 200)
    ensemble = SampleEnsemble(0.0, 0.1, x, 0)
    assert ensemble.points.shape == (x.size, 1)
    q = 0.5 * x + 0.1
    values = [SAMPLE_ESTIMATORS[name](p, q) for p in (x, x[:, None], ensemble)]
    assert values[0] == values[1] == values[2]
    assert moment_estimate(ensemble, 2) == moment_estimate(x, 2)


@pytest.mark.parametrize("shape", [(), (50, 2, 1)])
@pytest.mark.parametrize("name", list(SAMPLE_ESTIMATORS))
def test_a_0d_or_3d_array_is_rejected_by_ensembles_and_estimators(name, shape):
    points = np.zeros(shape)
    with pytest.raises(InputError, match="samples must be an"):
        SampleEnsemble(0.0, 0.1, points, 0)
    with pytest.raises(InputError, match="samples must be an"):
        SAMPLE_ESTIMATORS[name](points, np.zeros((200, 1)))


# cKDTree is imported where knn_kl queries it, at d >= 2 only; ndtri where
# noise is drawn, ndtr where a Gaussian TV is taken and solve_triangular where
# a Gaussian KL is.
@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.special", "scipy.linalg"])
def test_importing_the_cli_leaves_scipy_unloaded(module):
    src = str(Path(est.__file__).parents[1])
    probe = f"import sys, ulakit, ulakit.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


# --- w2_empirical_1d ---------------------------------------------------------------


def test_w2_empirical_identical():
    x = np.arange(10.0)[:, None]
    assert w2_empirical_1d(x, x.copy()) == 0.0


def test_w2_empirical_point_masses():
    assert w2_empirical_1d(np.array([[0.0]]), np.array([[1.0]])) == pytest.approx(1.0)


def test_w2_empirical_vs_gaussian_oracle():
    rng = np.random.default_rng(127)
    n = 100_000
    p = rng.standard_normal((n, 1))
    q = rng.standard_normal((n, 1)) + 2.0
    oracle = w2_gaussian(GaussianMoments([0.0], [[1.0]]), GaussianMoments([2.0], [[1.0]]))
    assert oracle == pytest.approx(2.0)
    assert abs(w2_empirical_1d(p, q) - 2.0) < 0.02


def test_w2_empirical_dim_and_count_checks():
    rng = np.random.default_rng(1)
    with pytest.raises(InputError, match="implemented for dim 1 only"):
        w2_empirical_1d(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)))
    with pytest.raises(InputError):
        w2_empirical_1d(rng.standard_normal((50, 1)), rng.standard_normal((40, 1)))


def test_w2_empirical_pair_of_other_dimensions_is_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(InputError, match="sample dimensions differ"):
        w2_empirical_1d(rng.standard_normal((50, 1)), rng.standard_normal((50, 2)))


def test_w2_empirical_metric_properties():
    rng = np.random.default_rng(131)
    for _ in range(20):
        a, b, c = rng.standard_normal((3, 64, 1)) * rng.uniform(0.5, 2.0)
        dab = w2_empirical_1d(a, b)
        dba = w2_empirical_1d(b, a)
        assert dab == pytest.approx(dba, abs=1e-15)
        dac = w2_empirical_1d(a, c)
        dcb = w2_empirical_1d(c, b)
        assert dab <= dac + dcb + 1e-12


# --- tv_histogram ---------------------------------------------------------------


def tv_quadrature(mp, vp, mq, vq):
    def pdf(x, m, v):
        return math.exp(-((x - m) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)

    val, _ = quad(lambda x: abs(pdf(x, mp, vp) - pdf(x, mq, vq)), -15, 15, limit=400)
    return 0.5 * val


def test_tv_histogram_identical():
    rng = np.random.default_rng(137)
    x = rng.standard_normal((5_000, 1))
    assert tv_histogram(x, x.copy()) == 0.0


def test_tv_histogram_disjoint_supports():
    rng = np.random.default_rng(139)
    p = rng.uniform(-10, -9, size=(5_000, 1))
    q = rng.uniform(9, 10, size=(5_000, 1))
    assert tv_histogram(p, q) == pytest.approx(1.0, abs=1e-12)


def test_tv_histogram_gaussian_calibration():
    rng = np.random.default_rng(149)
    n = 100_000
    p = rng.standard_normal((n, 1))
    q = rng.standard_normal((n, 1)) + 1.0
    oracle = tv_quadrature(0.0, 1.0, 1.0, 1.0)
    assert oracle == pytest.approx(0.3829249, abs=1e-6)
    assert abs(tv_histogram(p, q, bins_per_dim=64) - oracle) < 0.02


def test_tv_histogram_2d_supported_3d_not():
    rng = np.random.default_rng(151)
    p = rng.standard_normal((2_000, 2))
    q = rng.standard_normal((2_000, 2))
    assert 0.0 <= tv_histogram(p, q) <= 1.0
    with pytest.raises(InputError, match="implemented for dim <= 2 only"):
        tv_histogram(rng.standard_normal((100, 3)), rng.standard_normal((100, 3)))


# --- moment_estimate --------------------------------------------------------------


def test_moment_estimate_standard_normal():
    rng = np.random.default_rng(157)
    x = rng.standard_normal((100_000, 1))
    assert abs(moment_estimate(x, 2) - 1.0) < 0.02
    assert abs(moment_estimate(x, 4) - 3.0) < 0.1


def test_moment_estimate_stationary_em_chain():
    ens = simulate_ensemble(OU1, InitDensity([0.0], 1.0), 0.1, 20.0, 100_000, master_seed=163)
    assert abs(moment_estimate(ens, 2) - 1 / 1.9) < 0.01


def test_moment_estimate_rejects_other_orders():
    with pytest.raises(InputError):
        moment_estimate(np.ones((10, 1)), 3)


# --- girsanov_pathwise_kl ----------------------------------------------------------


def test_girsanov_zero_drift_is_exactly_zero():
    z = make_model("zero", dim=1)
    [val] = girsanov_pathwise_kl(z, InitDensity([0.0], 1.0), [0.2], [5], 500, master_seed=7)
    assert val == 0.0


def test_girsanov_ou_scan_first_order_slope():
    init = InitDensity([1.0], 1.0)
    etas = (0.2, 0.1, 0.05, 0.025)
    values = girsanov_pathwise_kl(OU1, init, etas, [10, 20, 40, 80], 20_000, master_seed=167)
    fit = rate_fit(zip(etas, values))
    assert 0.85 <= fit.slope <= 1.15


def test_girsanov_ou_matches_per_step_expectation():
    # for b(x) = Ax + c the within-step drift mismatch has the closed form
    #   E||b(X_k) - b(X_t)||^2 = tau^2 (tr(A S_k A^T) + ||A m_k + c||^2) + tau * d
    # so the midpoint-rule total is computable from the grid moments
    eta, T, n = 0.1, 1.0, 200_000
    init = InitDensity([1.0], 1.0)
    [mc] = girsanov_pathwise_kl(OU1, init, [eta], [round(T / eta)], n, master_seed=173, quad_points_per_step=4)
    A = OU1.linear.A
    c = OU1.linear.c
    total = 0.0
    steps = round(T / eta)
    for k in range(steps):
        g = em_moments_linear(OU1.linear, init.moments(), eta, k)
        drift_sq = float(np.trace(A @ g.cov @ A.T) + np.sum((A @ g.mean + c) ** 2))
        for j in range(4):
            tau = (j + 0.5) * eta / 4
            total += (eta / 4) * (tau**2 * drift_sq + tau * 1)
    expected = 0.5 * total
    assert mc == pytest.approx(expected, rel=0.02)


def test_girsanov_window_and_quad_validation():
    init = InitDensity([1.0], 1.0)
    with pytest.raises(InputError, match="step size 0.6 outside"):
        girsanov_pathwise_kl(OU1, init, [0.6], [1], 100, master_seed=1)
    with pytest.raises(InputError):
        girsanov_pathwise_kl(OU1, init, [0.1], [10], 100, master_seed=1, quad_points_per_step=0)


def test_girsanov_deterministic():
    init = InitDensity([1.0], 1.0)
    a = girsanov_pathwise_kl(OU1, init, [0.1], [10], 1_000, master_seed=181)
    b = girsanov_pathwise_kl(OU1, init, [0.1], [10], 1_000, master_seed=181)
    assert a == b
