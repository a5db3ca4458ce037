import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ulakit import (
    GaussianMoments,
    InputError,
    LinearDrift,
    continuous_moments_linear,
    em_moments_linear,
    entropy_gaussian,
    fisher_info_gaussian,
    kl_gaussian,
    tv_gaussian_1d,
    w2_gaussian,
)
from ulakit.gaussian_analytics import kl_gaussian_diag, tv_gaussian_diag, w2_gaussian_diag

from slow_paths import em_moments_by_recursion

# --- independent test-side oracles -----------------------------------------


def rk4_moments(A, c, m0, S0, t, steps=4000):
    """Plain RK4 on m' = A m + c, S' = A S + S A^T + I (oracle, not library)."""
    A = np.atleast_2d(np.asarray(A, float))
    c = np.atleast_1d(np.asarray(c, float))
    m = np.array(m0, float)
    S = np.array(S0, float)
    h = t / steps
    eye = np.eye(len(c))
    for _ in range(steps):
        def fm(mm):
            return A @ mm + c

        def fS(SS):
            return A @ SS + SS @ A.T + eye

        k1m, k1S = fm(m), fS(S)
        k2m, k2S = fm(m + 0.5 * h * k1m), fS(S + 0.5 * h * k1S)
        k3m, k3S = fm(m + 0.5 * h * k2m), fS(S + 0.5 * h * k2S)
        k4m, k4S = fm(m + h * k3m), fS(S + h * k3S)
        m = m + h / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        S = S + h / 6 * (k1S + 2 * k2S + 2 * k3S + k4S)
    return m, S


def gauss_pdf(x, mean, var):
    return np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def kl_quadrature_1d(p, q):
    mp, vp = p.mean[0], p.cov[0, 0]
    mq, vq = q.mean[0], q.cov[0, 0]

    def integrand(x):
        fp = gauss_pdf(x, mp, vp)
        if fp == 0.0:
            return 0.0
        return fp * (math.log(fp) - math.log(gauss_pdf(x, mq, vq)))

    span = 12 * math.sqrt(max(vp, vq)) + abs(mp - mq)
    lo, hi = min(mp, mq) - span, max(mp, mq) + span
    val, _ = quad(integrand, lo, hi, limit=200)
    return val


def tv_quadrature_1d(p, q):
    mp, vp = p.mean[0], p.cov[0, 0]
    mq, vq = q.mean[0], q.cov[0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kinks at density crossings trip quad's roundoff check
        val, _ = quad(
            lambda x: abs(gauss_pdf(x, mp, vp) - gauss_pdf(x, mq, vq)),
            -30, 30, limit=3000, epsabs=1e-13, epsrel=1e-13,
        )
    return 0.5 * val


def random_spd(rng, d, scale=1.0):
    B = rng.standard_normal((d, d))
    return scale * (B @ B.T + d * np.eye(d))


def random_linear_config(rng, d):
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    eigs = rng.uniform(-2.0, -0.05, size=d)
    A = (Q * eigs) @ Q.T
    c = rng.standard_normal(d)
    init = GaussianMoments(rng.standard_normal(d), random_spd(rng, d, 0.3))
    return LinearDrift(A, c), init


# --- types ------------------------------------------------------------------


def test_moments_require_symmetric_pd():
    with pytest.raises(InputError):
        GaussianMoments([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InputError):
        GaussianMoments([0.0], [[-1.0]])
    with pytest.raises(InputError):
        GaussianMoments([0.0], [[1.0, 0.0], [0.0, 1.0]])


def test_linear_drift_requires_symmetric():
    with pytest.raises(InputError, match="closed forms require symmetric A"):
        LinearDrift([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])


# --- continuous moments -----------------------------------------------------


def test_continuous_ou_stationary_point():
    ld = LinearDrift([[-1.0]], [0.0])
    out = continuous_moments_linear(ld, GaussianMoments([1.0], [[0.5]]), math.log(2.0))
    assert out.mean[0] == pytest.approx(0.5, abs=1e-14)
    assert out.cov[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_continuous_ou_half_time_against_rk4():
    ld = LinearDrift([[-1.0]], [0.0])
    out = continuous_moments_linear(ld, GaussianMoments([1.0], [[1.0]]), 0.5)
    assert out.cov[0, 0] == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-12)
    _, S = rk4_moments([[-1.0]], [0.0], [1.0], [[1.0]], 0.5)
    assert out.cov[0, 0] == pytest.approx(S[0, 0], abs=1e-10)


def test_continuous_heat_flow():
    ld = LinearDrift(np.zeros((2, 2)), np.zeros(2))
    out = continuous_moments_linear(ld, GaussianMoments(np.zeros(2), np.eye(2)), 2.0)
    assert np.allclose(out.cov, 3.0 * np.eye(2), atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_continuous_matches_rk4_oracle(d):
    rng = np.random.default_rng(2 + d)
    drift, init = random_linear_config(rng, d)
    t = 0.8
    out = continuous_moments_linear(drift, init, t)
    m, S = rk4_moments(drift.A, drift.c, init.mean, init.cov, t)
    assert np.allclose(out.mean, m, atol=1e-8)
    assert np.allclose(out.cov, S, atol=1e-8)


def test_moments_dict_round_trip():
    p = GaussianMoments([0.3, -0.4], [[1.0, 0.2], [0.2, 2.0]])
    q = GaussianMoments(**p.to_dict())
    assert np.array_equal(p.mean, q.mean)
    assert np.array_equal(p.cov, q.cov)


def test_semigroup_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        drift, init = random_linear_config(rng, 3)
        s, t = 0.3, 0.9
        one = continuous_moments_linear(drift, init, s + t)
        two = continuous_moments_linear(drift, continuous_moments_linear(drift, init, s), t)
        assert np.allclose(one.mean, two.mean, atol=1e-10)
        assert np.allclose(one.cov, two.cov, atol=1e-10)


def test_lyapunov_fixed_point_is_stationary():
    rng = np.random.default_rng(29)
    for _ in range(5):
        d = 3
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        eigs = rng.uniform(-3.0, -0.2, size=d)
        A = (Q * eigs) @ Q.T
        # solve A S + S A^T + I = 0 in the eigenbasis
        pair = eigs[:, None] + eigs[None, :]
        S_star = Q @ np.diag(-1.0 / np.diag(pair)) @ Q.T
        drift = LinearDrift(A, np.zeros(d))
        init = GaussianMoments(np.zeros(d), S_star)
        for t in (0.1, 1.0, 5.0):
            out = continuous_moments_linear(drift, init, t)
            assert np.allclose(out.cov, S_star, atol=1e-10)


# --- forward-Euler moments --------------------------------------------------


def test_em_one_step_arithmetic():
    ld = LinearDrift([[-1.0]], [0.0])
    out = em_moments_linear(ld, GaussianMoments([1.0], [[1.0]]), 0.1, 1)
    assert out.cov[0, 0] == pytest.approx(0.81 + 0.1, abs=1e-15)


def test_em_fixed_point_iterated_to_convergence():
    ld = LinearDrift([[-1.0]], [0.0])
    eta = 0.1
    # oracle: iterate the one-step variance map until it stops moving
    v, prev = 1.0, None
    while prev is None or abs(v - prev) > 1e-14:
        prev, v = v, (1 - eta) ** 2 * v + eta
    assert v == pytest.approx(1 / (2 - eta), abs=1e-12)
    out = em_moments_linear(ld, GaussianMoments([0.0], [[1.0]]), eta, 2000)
    assert out.cov[0, 0] == pytest.approx(v, abs=1e-12)


def test_em_zero_drift_matches_heat_flow():
    ld = LinearDrift(np.zeros((2, 2)), np.zeros(2))
    out = em_moments_linear(ld, GaussianMoments(np.zeros(2), np.eye(2)), 0.5, 4)
    assert np.allclose(out.cov, 3.0 * np.eye(2), atol=1e-15)


# Per-step factors lam = 1 + eta w: anywhere in [-1.5, 1.5] (negative, zero and
# positive w), plus the exact edge cases lam = 0, -1 (steps outside the window)
# and 1 (w = 0).
STEP_FACTORS = st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, -1.0, 1.0]))


@given(
    seed=st.integers(0, 10_000),
    lams=st.lists(STEP_FACTORS, min_size=1, max_size=4),
    eta=st.one_of(st.sampled_from([1.0, 0.5, 0.125]), st.floats(0.01, 1.0)),
    k=st.integers(0, 2000),
)
def test_em_closed_form_matches_recursion(seed, lams, eta, k):
    rng = np.random.default_rng(seed)
    d = len(lams)
    w = (np.asarray(lams) - 1.0) / eta
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    A = (Q * w) @ Q.T
    drift = LinearDrift(0.5 * (A + A.T), rng.standard_normal(d))
    init = GaussianMoments(rng.standard_normal(d), random_spd(rng, d, rng.uniform(0.1, 2.0)))
    # Growing modes: keep |lam|^(2k) <= 1e8, so the covariance stays well
    # conditioned enough to be positive definite in floating point.
    top = max(abs(x) for x in lams)
    if top > 1.0:
        k = min(k, int(4 / math.log10(top)))
    m, S = em_moments_by_recursion(drift, init, eta, k)
    out = em_moments_linear(drift, init, eta, k)
    assert np.max(np.abs(out.mean - m)) <= 1e-9 * (np.max(np.abs(m)) + 1.0)
    assert np.max(np.abs(out.cov - S)) <= 1e-9 * np.max(np.abs(S))


def test_em_closed_form_d50_long_run_matches_scalar_modes():
    rng = np.random.default_rng(50)
    d, eta, k = 50, 6.25e-5, 32_000
    w = rng.uniform(-1.5, -0.05, d)
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    A = (Q * w) @ Q.T
    c, m0, v0 = rng.standard_normal(d), rng.standard_normal(d), rng.uniform(0.2, 2.0, d)
    init = GaussianMoments(Q @ m0, (Q * v0) @ Q.T)
    out = em_moments_linear(LinearDrift(0.5 * (A + A.T), Q @ c), init, eta, k)
    mean_q, cov_q = Q.T @ out.mean, Q.T @ out.cov @ Q
    for i in range(d):
        lam = 1.0 + eta * w[i]
        p = lam**k
        mean = p * m0[i] + eta * c[i] * (1.0 - p) / (1.0 - lam)
        var = p * p * v0[i] + eta * (1.0 - p * p) / (1.0 - lam * lam)
        assert mean_q[i] == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert cov_q[i, i] == pytest.approx(var, rel=1e-9)
    assert np.max(np.abs(cov_q - np.diag(np.diag(cov_q)))) < 1e-12


def test_em_step_outside_window_flips_sign():
    ld = LinearDrift([[-3.0]], [0.0])  # lam = 1 - 3 * 0.5 = -0.5
    out = em_moments_linear(ld, GaussianMoments([1.0], [[1.0]]), 0.5, 3)
    assert out.mean[0] == pytest.approx(-0.125, abs=1e-15)
    assert out.cov[0, 0] == pytest.approx(0.5**6 + 0.5 * (1 + 0.25 + 0.0625), abs=1e-15)


# --- within-step interpolation: the bridge at offset tau is one step of size tau


def test_interp_tau_zero_is_identity():
    ld = LinearDrift([[-1.0]], [0.0])
    g = GaussianMoments([1.0], [[0.5]])
    out = em_moments_linear(ld, g, 0.1, 0)
    assert out.mean[0] == g.mean[0] and out.cov[0, 0] == g.cov[0, 0]


def test_interp_hand_value():
    ld = LinearDrift([[-1.0]], [0.0])
    out = em_moments_linear(ld, GaussianMoments([1.0], [[0.5]]), 0.05, 1)
    assert out.mean[0] == pytest.approx(0.95, abs=1e-15)
    assert out.cov[0, 0] == pytest.approx(0.95**2 * 0.5 + 0.05, abs=1e-15)


def test_interp_hand_value_monte_carlo():
    rng = np.random.default_rng(31)
    n = 1_000_000
    x = 1.0 + math.sqrt(0.5) * rng.standard_normal(n)
    xt = x + 0.05 * (-x) + math.sqrt(0.05) * rng.standard_normal(n)
    se_mean = xt.std() / math.sqrt(n)
    se_var = xt.var() * math.sqrt(2.0 / (n - 1))
    assert abs(xt.mean() - 0.95) < 4 * se_mean
    assert abs(xt.var() - 0.50125) < 4 * se_var


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_grid_equality_interp_at_eta_matches_next_em_step(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    drift, init = random_linear_config(rng, d)
    eta = float(rng.uniform(0.01, 0.4))
    k = int(rng.integers(0, 6))
    grid = em_moments_linear(drift, init, eta, k)
    lhs = em_moments_linear(drift, grid, eta, 1)
    rhs = em_moments_linear(drift, init, eta, k + 1)
    assert np.allclose(lhs.mean, rhs.mean, atol=1e-12)
    assert np.allclose(lhs.cov, rhs.cov, atol=1e-12)


# --- KL ----------------------------------------------------------------------


def test_kl_identical_is_zero():
    p = GaussianMoments([0.3, -0.4], [[1.0, 0.2], [0.2, 2.0]])
    assert kl_gaussian(p, p) == 0.0


def test_kl_mean_shift():
    p = GaussianMoments([0.0], [[1.0]])
    q = GaussianMoments([1.0], [[1.0]])
    assert kl_gaussian(p, q) == pytest.approx(0.5, abs=1e-15)


def test_kl_variance_mismatch_vs_quadrature():
    p = GaussianMoments([0.0], [[1 / 1.9]])
    q = GaussianMoments([0.0], [[0.5]])
    closed = kl_gaussian(p, q)
    assert closed == pytest.approx(6.691423e-4, abs=1e-9)
    assert closed == pytest.approx(kl_quadrature_1d(p, q), abs=1e-8)


def test_kl_quadrature_agreement_random_pairs():
    rng = np.random.default_rng(37)
    for _ in range(20):
        p = GaussianMoments([rng.uniform(-2, 2)], [[rng.uniform(0.2, 3.0)]])
        q = GaussianMoments([rng.uniform(-2, 2)], [[rng.uniform(0.2, 3.0)]])
        assert kl_gaussian(p, q) == pytest.approx(kl_quadrature_1d(p, q), abs=1e-8)


def test_kl_has_no_cancellation_near_equal_covariances():
    # tr - d - log det cancels to nothing at this scale; the whitened
    # eigenvalue form keeps every digit: KL = d (r - log1p r) / 2.
    d, r = 20, 1e-9
    p = GaussianMoments(np.zeros(d), (1.0 + r) * np.eye(d))
    q = GaussianMoments(np.zeros(d), np.eye(d))
    assert kl_gaussian(p, q) == pytest.approx(d * (r - math.log1p(r)) / 2, rel=1e-6)
    assert kl_gaussian(q, p) > 0.0


def test_rate_scan_d50_kl_matches_50_digit_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(5)
    mean0 = rng.uniform(-1.0, 1.0, 50)
    drift = LinearDrift(-np.eye(50), np.zeros(50))
    init = GaussianMoments(mean0, np.eye(50))
    norm2 = sum(mp.mpf(float(x)) ** 2 for x in mean0)
    for eta in (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5):
        k = int(math.floor(2.0 / eta + 1e-9))
        kl = kl_gaussian(em_moments_linear(drift, init, eta, k),
                         continuous_moments_linear(drift, init, k * eta))
        lam, t = 1 - mp.mpf(eta), mp.mpf(k * eta)
        v_em = lam ** (2 * k) + mp.mpf(eta) * (1 - lam ** (2 * k)) / (1 - lam**2)
        v_ct = mp.exp(-2 * t) + (1 - mp.exp(-2 * t)) / 2
        ratio = v_em / v_ct
        want = 25 * (ratio - 1 - mp.log(ratio)) + (lam**k - mp.exp(-t)) ** 2 * norm2 / (2 * v_ct)
        assert abs(kl - want) <= 1e-9 * want


@given(st.integers(0, 10_000))
def test_diag_kernels_match_full_matrix_distances(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    dm = rng.standard_normal(d)
    vp, vq = rng.uniform(0.1, 3.0, d), rng.uniform(0.1, 3.0, d)
    p, q = GaussianMoments(dm, np.diag(vp)), GaussianMoments(np.zeros(d), np.diag(vq))
    assert kl_gaussian_diag(dm, vp, vq) == pytest.approx(kl_gaussian(p, q), rel=1e-12)
    assert w2_gaussian_diag(dm, vp, vq) == pytest.approx(w2_gaussian(p, q), rel=1e-9)
    # Rows are independent evaluations.
    rows = kl_gaussian_diag(np.stack([dm, 2 * dm]), vp, vq)
    assert rows[1] == pytest.approx(kl_gaussian(GaussianMoments(2 * dm, np.diag(vp)), q), rel=1e-12)
    if d == 1:
        assert tv_gaussian_diag(dm, vp, vq) == pytest.approx(tv_gaussian_1d(p, q), abs=1e-15)


def test_tv_diag_rejects_more_than_one_coordinate():
    with pytest.raises(InputError, match="closed-form TV implemented for 1D only"):
        tv_gaussian_diag(np.zeros(2), np.ones(2), np.ones(2))


def test_tv_equal_variances_and_identical_laws():
    assert tv_gaussian_diag([0.0], [1.0], [1.0]) == 0.0
    # Equal variances: TV = 2 Phi(|dm| / 2) - 1.
    assert tv_gaussian_diag([1.0], [1.0], [1.0]) == pytest.approx(math.erf(0.5 / math.sqrt(2)), abs=1e-15)


@given(st.integers(0, 10_000))
def test_kl_nonnegative_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    p = GaussianMoments(rng.standard_normal(d), random_spd(rng, d))
    q = GaussianMoments(rng.standard_normal(d), random_spd(rng, d))
    assert kl_gaussian(p, q) >= 0.0
    assert kl_gaussian(p, p) == 0.0
    if not (np.allclose(p.mean, q.mean) and np.allclose(p.cov, q.cov)):
        assert kl_gaussian(p, q) > 0.0


def test_pinsker_at_gaussian_scale():
    rng = np.random.default_rng(41)
    for _ in range(15):
        p = GaussianMoments([rng.uniform(-2, 2)], [[rng.uniform(0.2, 3.0)]])
        q = GaussianMoments([rng.uniform(-2, 2)], [[rng.uniform(0.2, 3.0)]])
        tv = tv_quadrature_1d(p, q)
        assert tv <= math.sqrt(kl_gaussian(p, q) / 2.0) + 1e-9


def test_tv_closed_form_matches_quadrature():
    rng = np.random.default_rng(43)
    for _ in range(15):
        p = GaussianMoments([rng.uniform(-2, 2)], [[rng.uniform(0.2, 3.0)]])
        q = GaussianMoments([rng.uniform(-2, 2)], [[rng.uniform(0.2, 3.0)]])
        assert tv_gaussian_1d(p, q) == pytest.approx(tv_quadrature_1d(p, q), abs=1e-9)


# --- W2 ----------------------------------------------------------------------


def test_w2_identical_is_zero():
    p = GaussianMoments([0.1, 0.2], [[1.0, 0.3], [0.3, 1.5]])
    assert w2_gaussian(p, p) == pytest.approx(0.0, abs=1e-7)


def test_w2_pure_mean_shift():
    p = GaussianMoments([0.0, 0.0], np.eye(2))
    q = GaussianMoments([2.0, 0.0], np.eye(2))
    assert w2_gaussian(p, q) == pytest.approx(2.0, abs=1e-12)


def test_w2_1d_scale():
    p = GaussianMoments([0.0], [[1.0]])
    q = GaussianMoments([0.0], [[4.0]])
    assert w2_gaussian(p, q) == pytest.approx(1.0, abs=1e-12)


# --- Fisher information and entropy ------------------------------------------


def test_fisher_standard_normal():
    for d in (1, 2, 5):
        p = GaussianMoments(np.zeros(d), np.eye(d))
        assert fisher_info_gaussian(p) == pytest.approx(d)


def test_fisher_scaled():
    p = GaussianMoments([3.0, -1.0], 2.0 * np.eye(2))
    assert fisher_info_gaussian(p) == pytest.approx(1.0)


def test_fisher_heat_flow_values():
    vals = [fisher_info_gaussian(GaussianMoments([0.0], [[1.0 + t]])) for t in (0, 1, 3)]
    assert vals == pytest.approx([1.0, 0.5, 0.25])
    assert vals[0] > vals[1] > vals[2]


def test_fisher_nonincreasing_under_heat_flow_random():
    rng = np.random.default_rng(47)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        S = random_spd(rng, d)
        ts = np.sort(rng.uniform(0, 5, size=8))
        vals = [fisher_info_gaussian(GaussianMoments(np.zeros(d), S + t * np.eye(d))) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_entropy_standard_normal():
    p = GaussianMoments([0.0], [[1.0]])
    expected = 0.5 * (1 + math.log(2 * math.pi))
    assert entropy_gaussian(p) == pytest.approx(expected, abs=1e-12)
    # Monte Carlo cross-check of -E log p
    rng = np.random.default_rng(53)
    xs = rng.standard_normal(200_000)
    mc = np.mean(0.5 * math.log(2 * math.pi) + 0.5 * xs**2)
    assert entropy_gaussian(p) == pytest.approx(mc, abs=0.01)


def test_entropy_logdet_shift():
    base = entropy_gaussian(GaussianMoments([0.0], [[1.0]]))
    wide = entropy_gaussian(GaussianMoments([0.0], [[math.e**2]]))
    assert wide == pytest.approx(base + 1.0, abs=1e-12)


def test_entropy_additivity():
    one = entropy_gaussian(GaussianMoments([0.0], [[1.0]]))
    two = entropy_gaussian(GaussianMoments([0.0, 0.0], np.eye(2)))
    assert two == pytest.approx(2 * one, abs=1e-12)
