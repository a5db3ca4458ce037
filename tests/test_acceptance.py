"""Acceptance suite: one test per claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from ulakit import (
    BoundConstants,
    DivergenceError,
    GaussianMoments,
    InitDensity,
    LinearDrift,
    continuous_moments_linear,
    em_moments_linear,
    girsanov_pathwise_kl,
    kl_bound_dissipative_terms,
    kl_bound_nonneg_potential_terms,
    kl_gaussian,
    knn_kl,
    make_model,
    moment_estimate,
    noise_block,
    rate_fit,
    simulate_ensemble,
    step_size_rule,
    tv_histogram,
    w2_empirical_1d,
    w2_gaussian,
)

OU1 = make_model("ou", dim=1)
ETA_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)


def report(name, ok, detail, elapsed, limit):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.2f}s / limit {limit:.0f}s)"
    print(line)
    assert ok and elapsed < limit, line


def exact_kl_scan(T=2.0, dim=1, etas=ETA_GRID):
    drift = LinearDrift(-np.eye(dim), np.zeros(dim))
    init = GaussianMoments(np.ones(dim), np.eye(dim))
    ref = continuous_moments_linear(drift, init, T)
    out = []
    for eta in etas:
        hat = em_moments_linear(drift, init, eta, round(T / eta))
        out.append((eta, kl_gaussian(hat, ref)))
    return out


def test_criterion_1_second_order_kl_rate():
    t0 = time.perf_counter()
    fit = rate_fit(exact_kl_scan())
    elapsed = time.perf_counter() - t0
    ok = 1.85 <= fit.slope <= 2.15 and fit.r_squared >= 0.999
    report(
        "1 second-order KL rate",
        ok,
        f"slope={fit.slope:.4f} r2={fit.r_squared:.6f}",
        elapsed,
        1.0,
    )


def test_criterion_2_first_order_girsanov_comparator():
    t0 = time.perf_counter()
    init = InitDensity(mean=[1.0], sigma0=1.0)
    values = girsanov_pathwise_kl(OU1, init, ETA_GRID, [10, 20, 40, 80, 160], 100_000, master_seed=12345)
    fit_g = rate_fit(zip(ETA_GRID, values))
    fit_exact = rate_fit(exact_kl_scan())
    gap = fit_exact.slope - fit_g.slope
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= fit_g.slope <= 1.15 and gap >= 0.7
    report(
        "2 first-order pathwise comparator",
        ok,
        f"girsanov slope={fit_g.slope:.4f} gap={gap:.4f}",
        elapsed,
        30.0,
    )


def test_criterion_3_dimension_envelope():
    t0 = time.perf_counter()
    eta, T = 0.05, 2.0
    kls = {}
    for d in (1, 2, 4, 8):
        drift = LinearDrift(-np.eye(d), np.zeros(d))
        init = GaussianMoments(np.ones(d), np.eye(d))
        hat = em_moments_linear(drift, init, eta, round(T / eta))
        ref = continuous_moments_linear(drift, init, T)
        kls[d] = kl_gaussian(hat, ref)
    ok = all(kls[d] <= 4.0 * d * d * kls[1] for d in (2, 4, 8))
    elapsed = time.perf_counter() - t0
    report(
        "3 dimension envelope",
        ok,
        "KL(d)/KL(1)=" + ", ".join(f"{d}:{kls[d] / kls[1]:.2f}" for d in (2, 4, 8)),
        elapsed,
        5.0,
    )


def test_criterion_4_mixing_time_eps_scaling():
    t0 = time.perf_counter()
    rho = 0.5
    target = GaussianMoments([0.0], [[0.5]])
    drift = LinearDrift([[-1.0]], [0.0])  # b = -grad(U)/2 for U = x^2
    init = GaussianMoments([6.0], [[1.0]])
    pairs = []
    ns = []
    for eps in (1e-1, 3e-2, 1e-2, 3e-3):
        eta = step_size_rule(eps, rho, 1)
        m = init
        n_measured = None
        for k in range(10**6):
            if kl_gaussian(m, target) <= eps:
                n_measured = k
                break
            m = em_moments_linear(drift, m, eta, 1)
        assert n_measured is not None
        ns.append(n_measured)
        pairs.append((eps, float(n_measured)))
    fit = rate_fit(pairs)
    elapsed = time.perf_counter() - t0
    ok = -0.75 <= fit.slope <= -0.40
    report(
        "4 mixing-time eps scaling",
        ok,
        f"N={ns} slope={fit.slope:.4f}",
        elapsed,
        10.0,
    )


def test_criterion_5_grid_equality_and_interpolated_samples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        A = (Q * rng.uniform(-2.0, -0.05, size=d)) @ Q.T
        drift = LinearDrift(A, rng.standard_normal(d))
        init = GaussianMoments(rng.standard_normal(d), np.eye(d) * rng.uniform(0.3, 2.0))
        eta = float(rng.uniform(0.01, 0.4))
        k = int(rng.integers(0, 6))
        grid = em_moments_linear(drift, init, eta, k)
        # The bridge at offset eta is one forward-Euler step from the grid law.
        lhs = em_moments_linear(drift, grid, eta, 1)
        rhs = em_moments_linear(drift, init, eta, k + 1)
        worst = max(
            worst,
            float(np.max(np.abs(lhs.mean - rhs.mean))),
            float(np.max(np.abs(lhs.cov - rhs.cov))),
        )
    algebra_ok = worst <= 1e-12

    # Monte Carlo side: the chain's states one step past grid step k against
    # the next grid law
    n = 100_000
    eta, k = 0.1, 4
    init_d = InitDensity(mean=[1.0], sigma0=1.0)
    pts = simulate_ensemble(OU1, init_d, eta, (k + 1) * eta, n, master_seed=555).points
    target = em_moments_linear(OU1.linear, init_d.moments(), eta, k + 1)
    se_mean = math.sqrt(target.cov[0, 0] / n)
    se_var = target.cov[0, 0] * math.sqrt(2.0 / (n - 1))
    mc_ok = (
        abs(pts.mean() - target.mean[0]) <= 4 * se_mean
        and abs(pts.var() - target.cov[0, 0]) <= 4 * se_var
    )
    elapsed = time.perf_counter() - t0
    report(
        "5 grid equality",
        algebra_ok and mc_ok,
        f"max moment gap={worst:.2e}, MC moments within 4 SE: {mc_ok}",
        elapsed,
        30.0,
    )


def test_criterion_7_moment_boundedness_and_divergence():
    def moment_bound(sigma0, p, d, mu, beta):  # C (sigma0 sqrt(p d) + sqrt((p + beta + d)/mu)), C = 10
        return 10.0 * (sigma0 * math.sqrt(p * d) + math.sqrt((p + beta + d) / mu))

    t0 = time.perf_counter()
    eta, T, n = 0.05, 50.0, 10_000
    snaps = [5.0 * i for i in range(1, 11)]
    details = []
    ok = True
    for name, enforce in (("ou", True), ("double-well", False)):
        model = make_model(name, dim=1)
        init = InitDensity(mean=[0.0], sigma0=1.0)
        _, snapshots = simulate_ensemble(
            model, init, eta, T, n, master_seed=77, snapshot_times=snaps,
            enforce_window=enforce,
        )
        mu, beta = model.constants.dissipativity
        worst_ratio = 0.0
        for snap in snapshots:
            for p in (1, 2, 4):
                emp = moment_estimate(snap, p) ** (1.0 / p)
                bound = moment_bound(init.sigma0, p, 1, mu, beta)
                worst_ratio = max(worst_ratio, emp / bound)
        ok = ok and worst_ratio < 1.0
        details.append(f"{name} max emp/bound={worst_ratio:.3f}")

    try:
        simulate_ensemble(make_model("expansive", dim=1), InitDensity([0.0], 1.0), eta, T, 200, master_seed=78)
        diverged = False
    except DivergenceError as exc:
        diverged = exc.chain is not None and exc.step is not None
    ok = ok and diverged
    details.append(f"expansive divergence error={diverged}")
    elapsed = time.perf_counter() - t0
    report("7 moment boundedness", ok, "; ".join(details), elapsed, 60.0)


def test_criterion_8_estimator_calibration():
    t0 = time.perf_counter()
    checks = []

    # k-NN KL on the three oracle pairs
    same = knn_kl(noise_block(81, 0, 2, 20_000, 1), noise_block(81, 1, 2, 20_000, 1), k=5)
    checks.append(("knn same", abs(same) <= 0.05))
    p = noise_block(82, 0, 2, 20_000, 1)
    q = noise_block(82, 1, 2, 20_000, 1) + 1.0
    kl_true = kl_gaussian(GaussianMoments([0.0], [[1.0]]), GaussianMoments([1.0], [[1.0]]))
    shift1 = knn_kl(p, q, k=5)
    checks.append(("knn 1d shift", abs(shift1 - kl_true) <= 0.15 * kl_true))
    p2 = noise_block(83, 0, 2, 20_000, 2)
    q2 = noise_block(83, 1, 2, 20_000, 2) + np.array([1.0, 0.0])
    shift2 = knn_kl(p2, q2, k=5)
    checks.append(("knn 2d shift", abs(shift2 - 0.5) <= 0.15 * 0.5))

    # empirical quantile-coupling W2 within 1% of the closed form
    n = 100_000
    w_emp = w2_empirical_1d(noise_block(84, 0, 2, n, 1), noise_block(84, 1, 2, n, 1) + 2.0)
    w_true = w2_gaussian(GaussianMoments([0.0], [[1.0]]), GaussianMoments([2.0], [[1.0]]))
    checks.append(("w2 1d", abs(w_emp - w_true) <= 0.01 * w_true))

    # histogram TV within 0.02 of the quadrature value
    from scipy.integrate import quad

    def pdf(x, m):
        return math.exp(-((x - m) ** 2) / 2) / math.sqrt(2 * math.pi)

    tv_true = 0.5 * quad(lambda x: abs(pdf(x, 0.0) - pdf(x, 1.0)), -12, 13, limit=400)[0]
    tv_est = tv_histogram(noise_block(85, 0, 2, n, 1), noise_block(85, 1, 2, n, 1) + 1.0)
    checks.append(("tv hist", abs(tv_est - tv_true) <= 0.02))

    ok = all(flag for _, flag in checks)
    elapsed = time.perf_counter() - t0
    report(
        "8 estimator calibration",
        ok,
        ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks),
        elapsed,
        60.0,
    )


def test_criterion_9_bound_evaluator_audit():
    t0 = time.perf_counter()
    ones = BoundConstants(
        L1=1.0, L2=1.0, A0=1.0, sigma0=1.0, h0=1.0, entropy0=1.0, mu=1.0, beta=1.0, f0=1.0
    )
    ok = abs(kl_bound_dissipative_terms(ones, 0.1, 1.0, 1)["total"] - 0.1007) < 1e-12

    # independent re-transcriptions, term order deliberately different
    def retrans_one(c, eta, T, d):
        tail = T * c.L2**2 * d**2
        mid = (c.sigma0**2 * d + (c.beta + d) / c.mu) * (1.0 / c.sigma0**2 + T * c.L1**2)
        head = c.h0 + c.entropy0 + c.A0**2
        quart = c.A0**4 + c.L1**4 * (c.sigma0**2 * d + (c.beta + d) ** 2 / c.mu + d**2)
        return c.c0 * eta**2 * (head + mid + tail) + c.c1 * eta**4 * c.L2**2 * quart

    def retrans_two(c, eta, T, d):
        mid = c.sigma0**2 * d + c.f0 + c.L1 * T * c.sigma0**2 * (c.h0 + c.entropy0 + d)
        lead = c.A0**2 + mid * (1.0 / c.sigma0**2 + T * c.L1**2) + T * c.L2**2 * d**2
        quart = c.A0**4 + c.L1**4 * (
            c.f0**2 + c.L1**2 * T**2 * c.sigma0**4 * (c.h0 + d) ** 2 + c.L1**2 * T**4 * d**2
        )
        return c.c0 * eta**2 * lead + c.c1 * eta**4 * c.L2**2 * quart

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(200):
        c = BoundConstants(
            L1=float(rng.uniform(0.1, 2)), L2=float(rng.uniform(0, 2)),
            A0=float(rng.uniform(0, 2)), sigma0=float(rng.uniform(0.3, 2)),
            h0=float(rng.uniform(0, 3)), entropy0=float(rng.uniform(-1, 3)),
            mu=float(rng.uniform(0.1, 2)), beta=float(rng.uniform(0, 2)),
            f0=float(rng.uniform(0, 2)),
        )
        eta = float(rng.uniform(0.01, 0.9)) / (2 * c.L1)
        T = float(rng.uniform(0.1, 8))
        d = int(rng.integers(1, 9))
        v1 = kl_bound_dissipative_terms(c, eta, T, d)["total"]
        v2 = kl_bound_nonneg_potential_terms(c, eta, T, d)["total"]
        worst = max(
            worst,
            abs(v1 - retrans_one(c, eta, T, d)) / max(v1, 1e-300),
            abs(v2 - retrans_two(c, eta, T, d)) / max(v2, 1e-300),
        )
    ok = ok and worst <= 1e-12

    slopes = []
    for fn in (kl_bound_dissipative_terms, kl_bound_nonneg_potential_terms):
        pairs = [(eta, fn(ones, eta, 1.0, 1)["total"]) for eta in (1e-4, 5e-5, 2.5e-5)]
        slopes.append(rate_fit(pairs).slope)
    ok = ok and all(abs(s - 2.0) < 1e-6 for s in slopes)
    elapsed = time.perf_counter() - t0
    report(
        "9 bound evaluator audit",
        ok,
        f"all-ones=0.1007, retranscription gap={worst:.2e}, sweep slopes={[f'{s:.6f}' for s in slopes]}",
        elapsed,
        10.0,
    )
