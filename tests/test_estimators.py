import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from ulakit import (
    GaussianMoments,
    InitDensity,
    InputError,
    SampleEnsemble,
    UnsupportedError,
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
    with pytest.raises(InputError):
        rate_fit([(0.1, 0.0), (0.2, 0.04), (0.4, 0.16)])
    with pytest.raises(InputError):
        rate_fit([(-0.1, 0.01), (0.2, 0.04), (0.4, 0.16)])


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


def test_knn_kl_accepts_ensembles():
    rng = np.random.default_rng(113)
    p = SampleEnsemble(time=0.0, eta=0.1, points=rng.standard_normal((500, 1)), master_seed=0)
    q = SampleEnsemble(time=0.0, eta=0.1, points=rng.standard_normal((500, 1)), master_seed=1)
    assert np.isfinite(knn_kl(p, q))


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
    with pytest.raises(UnsupportedError):
        w2_empirical_1d(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)))
    with pytest.raises(InputError):
        w2_empirical_1d(rng.standard_normal((50, 1)), rng.standard_normal((40, 1)))


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
    with pytest.raises(UnsupportedError):
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
    val = girsanov_pathwise_kl(z, InitDensity([0.0], 1.0), 0.2, 1.0, 500, master_seed=7)
    assert val == 0.0


def test_girsanov_ou_scan_first_order_slope():
    init = InitDensity([1.0], 1.0)
    pairs = []
    for eta in (0.2, 0.1, 0.05, 0.025):
        pairs.append(
            (eta, girsanov_pathwise_kl(OU1, init, eta, 2.0, 20_000, master_seed=167))
        )
    fit = rate_fit(pairs)
    assert 0.85 <= fit.slope <= 1.15


def test_girsanov_ou_matches_per_step_expectation():
    # for b(x) = Ax + c the within-step drift mismatch has the closed form
    #   E||b(X_k) - b(X_t)||^2 = tau^2 (tr(A S_k A^T) + ||A m_k + c||^2) + tau * d
    # so the midpoint-rule total is computable from the grid moments
    eta, T, n = 0.1, 1.0, 200_000
    init = InitDensity([1.0], 1.0)
    mc = girsanov_pathwise_kl(OU1, init, eta, T, n, master_seed=173, quad_points_per_step=4)
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
    from ulakit import ConfigurationError

    with pytest.raises(ConfigurationError):
        girsanov_pathwise_kl(OU1, init, 0.6, 1.0, 100, master_seed=1)
    with pytest.raises(InputError):
        girsanov_pathwise_kl(OU1, init, 0.1, 1.0, 100, master_seed=1, quad_points_per_step=0)


def test_girsanov_deterministic():
    init = InitDensity([1.0], 1.0)
    a = girsanov_pathwise_kl(OU1, init, 0.1, 1.0, 1_000, master_seed=181)
    b = girsanov_pathwise_kl(OU1, init, 0.1, 1.0, 1_000, master_seed=181)
    assert a == b
