import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ulakit import (
    BoundConstants,
    GaussianMoments,
    InputError,
    LinearDrift,
    SmoothnessCert,
    avg_fisher_bound,
    continuous_moments_linear,
    double_well_drift,
    em_moments_linear,
    expansive_drift,
    fisher_info_gaussian,
    gaussian_mixture_drift,
    kl_bound_dissipative_terms,
    kl_bound_nonneg_potential_terms,
    kl_derivative_bound,
    kl_gaussian,
    mixing_time_predict,
    moment_bound_dissipative,
    noise_block,
    ou_drift,
    step_size_rule,
    zero_drift,
)
from ulakit.bounds import LOG_FACTOR_NOTE
from ulakit.cli import MIXING_METRICS

ALL_ONES = BoundConstants(
    L1=1.0, L2=1.0, A0=1.0, sigma0=1.0, h0=1.0, entropy0=1.0, mu=1.0, beta=1.0, f0=1.0
)


def transcription_one(c, eta, T, d):
    """Independent re-transcription of the dissipative bound (expanded form)."""
    a = c.h0 + c.entropy0 + c.A0 * c.A0
    a += (c.sigma0**2 * d) / c.sigma0**2 + (c.sigma0**2 * d) * T * c.L1**2
    a += ((c.beta + d) / c.mu) / c.sigma0**2 + ((c.beta + d) / c.mu) * T * c.L1**2
    a += T * c.L2 * c.L2 * d * d
    b = c.L2**2 * c.A0**4
    b += c.L2**2 * c.L1**4 * (c.sigma0**2 * d)
    b += c.L2**2 * c.L1**4 * ((c.beta + d) ** 2 / c.mu)
    b += c.L2**2 * c.L1**4 * d**2
    return c.c0 * eta * eta * a + c.c1 * eta**4 * b


def transcription_two(c, eta, T, d):
    """Independent re-transcription of the non-negative-potential bound."""
    inner = c.sigma0**2 * d + c.f0 + c.L1 * T * c.sigma0**2 * (c.h0 + c.entropy0 + d)
    a = c.A0**2 + inner / c.sigma0**2 + inner * T * c.L1**2 + T * (c.L2 * d) ** 2
    b = c.A0**4
    b += c.L1**4 * c.f0**2
    b += c.L1**6 * T**2 * c.sigma0**4 * (c.h0 + d) ** 2
    b += c.L1**6 * T**4 * d**2
    return c.c0 * eta**2 * a + c.c1 * eta**4 * c.L2**2 * b


def random_constants(rng):
    return BoundConstants(
        L1=float(rng.uniform(0.1, 2.0)),
        L2=float(rng.uniform(0.0, 2.0)),
        A0=float(rng.uniform(0.0, 2.0)),
        sigma0=float(rng.uniform(0.3, 2.0)),
        h0=float(rng.uniform(0.0, 3.0)),
        entropy0=float(rng.uniform(-1.0, 3.0)),
        mu=float(rng.uniform(0.1, 2.0)),
        beta=float(rng.uniform(0.0, 2.0)),
        f0=float(rng.uniform(0.0, 2.0)),
        c0=float(rng.uniform(0.5, 2.0)),
        c1=float(rng.uniform(0.5, 2.0)),
    )


# --- headline bounds -----------------------------------------------------------


def test_dissipative_bound_all_ones_value():
    total = kl_bound_dissipative_terms(ALL_ONES, 0.1, 1.0, 1)["total"]
    assert total == pytest.approx(0.1007, abs=1e-12)


def test_dissipative_bound_matches_retranscription():
    rng = np.random.default_rng(211)
    for _ in range(50):
        c = random_constants(rng)
        eta = float(rng.uniform(0.01, 0.9)) / (2 * c.L1)
        T = float(rng.uniform(0.1, 10.0))
        d = int(rng.integers(1, 9))
        assert kl_bound_dissipative_terms(c, eta, T, d)["total"] == pytest.approx(
            transcription_one(c, eta, T, d), rel=1e-12
        )


def test_nonneg_potential_bound_all_ones_and_retranscription():
    total = kl_bound_nonneg_potential_terms(ALL_ONES, 0.1, 1.0, 1)["total"]
    assert total == pytest.approx(0.1207, abs=1e-12)
    rng = np.random.default_rng(223)
    for _ in range(50):
        c = random_constants(rng)
        eta = float(rng.uniform(0.01, 0.9)) / (2 * c.L1)
        T = float(rng.uniform(0.1, 10.0))
        d = int(rng.integers(1, 9))
        assert kl_bound_nonneg_potential_terms(c, eta, T, d)["total"] == pytest.approx(
            transcription_two(c, eta, T, d), rel=1e-12
        )


@pytest.mark.parametrize("fn", [
    pytest.param(kl_bound_dissipative_terms, id="kl_bound_dissipative"),
    pytest.param(kl_bound_nonneg_potential_terms, id="kl_bound_nonneg_potential"),
])
def test_small_step_ratio_approaches_four(fn):
    eta = 1e-5
    r = fn(ALL_ONES, 2 * eta, 1.0, 1)["total"] / fn(ALL_ONES, eta, 1.0, 1)["total"]
    assert r == pytest.approx(4.0, abs=1e-6)


def test_dissipative_bound_monotone_in_horizon():
    two = kl_bound_dissipative_terms(ALL_ONES, 0.1, 2.0, 1)["total"]
    assert two > kl_bound_dissipative_terms(ALL_ONES, 0.1, 1.0, 1)["total"]


def test_nonneg_bound_superlinear_in_horizon():
    one = kl_bound_nonneg_potential_terms(ALL_ONES, 0.1, 1.0, 1)["total"]
    two = kl_bound_nonneg_potential_terms(ALL_ONES, 0.1, 2.0, 1)["total"]
    assert two > 2 * one


def test_bounds_require_window_and_constants():
    with pytest.raises(InputError, match="step size 0.5 outside the admissible window"):
        kl_bound_dissipative_terms(ALL_ONES, 0.5, 1.0, 1)
    no_diss = BoundConstants(L1=1, L2=1, A0=1, sigma0=1, h0=1, entropy0=1, f0=1)
    with pytest.raises(InputError, match="mu"):
        kl_bound_dissipative_terms(no_diss, 0.1, 1.0, 1)
    no_f0 = BoundConstants(L1=1, L2=1, A0=1, sigma0=1, h0=1, entropy0=1, mu=1, beta=1)
    with pytest.raises(InputError, match="f0"):
        kl_bound_nonneg_potential_terms(no_f0, 0.1, 1.0, 1)


def test_dissipative_bound_eta2_shape_limit():
    # bound / eta^2 converges to the order-2 coefficient as eta -> 0
    terms = kl_bound_dissipative_terms(ALL_ONES, 1e-8, 1.0, 1)
    assert terms["total"] / 1e-16 == pytest.approx(terms["order2_coefficient"], rel=1e-9)


@given(
    st.floats(min_value=0.001, max_value=0.2),
    st.floats(min_value=0.002, max_value=0.24),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.2, max_value=8.0),
    st.integers(min_value=1, max_value=8),
)
def test_bounds_nonnegative_finite_monotone(eta, eta_hi, T, T_hi, d):
    eta_hi = max(eta_hi, eta)
    T_hi = max(T_hi, T)
    for fn in (kl_bound_dissipative_terms, kl_bound_nonneg_potential_terms):
        v = fn(ALL_ONES, eta, T, d)["total"]
        assert np.isfinite(v) and v >= 0
        assert fn(ALL_ONES, eta_hi, T, d)["total"] >= v
        assert fn(ALL_ONES, eta, T_hi, d)["total"] >= v


def test_exact_kl_to_bound_ratio_bounded_on_ou():
    # rate agreement: exact KL / bound stays bounded across the step grid
    ld = LinearDrift([[-1.0]], [0.0])
    init = GaussianMoments([1.0], [[1.0]])
    c = BoundConstants(
        L1=1.0, L2=0.0, A0=0.0, sigma0=1.0,
        h0=0.5 * math.log(2 * math.pi) + 1.0,
        entropy0=0.5 * (1 + math.log(2 * math.pi)),
        mu=1.0, beta=0.0,
    )
    T = 2.0
    ratios = []
    for eta in (0.2, 0.1, 0.05, 0.025, 0.0125):
        k = round(T / eta)
        exact = kl_gaussian(
            em_moments_linear(ld, init, eta, k), continuous_moments_linear(ld, init, T)
        )
        ratios.append(exact / kl_bound_dissipative_terms(c, eta, T, 1)["total"])
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) <= 2.0


# --- within-step derivative envelope ---------------------------------------------


def test_derivative_bound_zero_offset():
    assert kl_derivative_bound(ALL_ONES, 0.0, 1, 5.0, 7.0) == 0.0


def test_derivative_bound_hand_value():
    c = BoundConstants(L1=1.0, L2=0.0, A0=1.0, sigma0=1.0, h0=1.0, entropy0=1.0)
    assert kl_derivative_bound(c, 0.1, 1, 1.0, 0.0) == pytest.approx(0.052, abs=1e-15)


def test_derivative_bound_dominates_exact_one_step_increments():
    # integrate the envelope across each step with exact grid inputs and
    # compare against the exact KL increment from the oracles
    ld = LinearDrift([[-1.0]], [0.0])
    init = GaussianMoments([1.0], [[1.0]])
    c = BoundConstants(
        L1=1.0, L2=0.0, A0=0.0, sigma0=1.0,
        h0=0.5 * math.log(2 * math.pi) + 1.0,
        entropy0=0.5 * (1 + math.log(2 * math.pi)),
        mu=1.0, beta=0.0,
    )
    for eta in (0.05, 0.025):
        steps = round(1.0 / eta)
        for k in range(steps):
            g = em_moments_linear(ld, init, eta, k)
            fisher = fisher_info_gaussian(g)
            m4 = 3 * g.cov[0, 0] ** 2 + 6 * g.cov[0, 0] * g.mean[0] ** 2 + g.mean[0] ** 4
            # midpoint quadrature of the envelope over the step
            npts = 64
            taus = (np.arange(npts) + 0.5) * eta / npts
            envelope = sum(
                (eta / npts) * kl_derivative_bound(c, t, 1, fisher, float(m4), eta=eta)
                for t in taus
            )
            kl_now = kl_gaussian(g, continuous_moments_linear(ld, init, k * eta))
            kl_next = kl_gaussian(
                em_moments_linear(ld, init, eta, k + 1),
                continuous_moments_linear(ld, init, (k + 1) * eta),
            )
            assert kl_next - kl_now <= envelope + 1e-12


def test_derivative_bound_offset_validation():
    with pytest.raises(InputError):
        kl_derivative_bound(ALL_ONES, -0.1, 1, 1.0, 1.0)
    with pytest.raises(InputError):
        kl_derivative_bound(ALL_ONES, 0.2, 1, 1.0, 1.0, eta=0.1)


# --- averaged score-energy bound ---------------------------------------------------


def test_avg_fisher_bound_surviving_terms():
    c = BoundConstants(L1=2.0, L2=0.0, A0=0.0, sigma0=1.0, h0=0.7, entropy0=1.3)
    assert avg_fisher_bound(c, 1.0, 0.0, 0.0, 0.1, 1) == pytest.approx(32 * 0.7 + 1.3)


def test_avg_fisher_bound_dominates_exact_average_on_ou():
    ld = LinearDrift([[-1.0]], [0.0])
    init = GaussianMoments([0.0], [[1.0]])
    c = BoundConstants(
        L1=1.0, L2=0.0, A0=0.0, sigma0=1.0,
        h0=0.5 * math.log(2 * math.pi),
        entropy0=0.5 * (1 + math.log(2 * math.pi)),
    )
    for eta, T in ((0.1, 10.0), (0.05, 5.0)):
        N = round(T / eta)
        grid = [em_moments_linear(ld, init, eta, k) for k in range(N + 1)]
        avg_fisher = float(np.mean([fisher_info_gaussian(g) for g in grid[1:]]))
        second_sup = max(float(g.cov[0, 0] + g.mean[0] ** 2) for g in grid)
        # within-step moments via the interpolation, midpoint rule
        integral = 0.0
        for k in range(N):
            for j in range(8):
                tau = (j + 0.5) * eta / 8
                gm = em_moments_linear(ld, grid[k], tau, 1)
                integral += (eta / 8) * float(gm.cov[0, 0] + gm.mean[0] ** 2)
        bound = avg_fisher_bound(c, T, second_sup, integral, eta, 1)
        assert bound >= avg_fisher


def test_avg_fisher_bound_eta_squared_isolation():
    c = BoundConstants(L1=1.0, L2=1.5, A0=0.5, sigma0=1.0, h0=1.0, entropy0=1.0)
    d, T = 3, 2.0
    base = avg_fisher_bound(c, T, 1.0, 1.0, 0.1, d)
    doubled = avg_fisher_bound(c, T, 1.0, 1.0, 0.2, d)
    last_term = 32 * 0.1**2 * d**2 * c.L2**2 * T
    assert doubled - base == pytest.approx(3 * last_term, rel=1e-9)


def test_avg_fisher_bound_requires_grid_horizon():
    with pytest.raises(InputError):
        avg_fisher_bound(ALL_ONES, 1.05, 1.0, 1.0, 0.1, 1)


# --- step-size and mixing-time rules -----------------------------------------------


def test_step_size_worked_example():
    assert step_size_rule(0.01, 0.5, 2) == pytest.approx(
        math.sqrt(0.005) / (2 * math.log(2)), abs=1e-15
    )
    assert step_size_rule(0.01, 0.5, 2) == pytest.approx(0.05101, abs=1e-5)


def test_step_size_scalings():
    base = step_size_rule(0.01, 0.5, 2)
    assert step_size_rule(0.04, 0.5, 2) == pytest.approx(2 * base)
    assert step_size_rule(0.01, 0.5, 4) == pytest.approx(base / 2)


def test_step_size_rejects_rho_outside_unit_interval():
    with pytest.raises(InputError, match=r"requires rho in \(0, 1\)"):
        step_size_rule(0.01, 1.0, 1)
    with pytest.raises(InputError, match=r"requires rho in \(0, 1\)"):
        step_size_rule(0.01, 1.5, 1)
    with pytest.raises(InputError, match="accuracy eps must be positive"):
        step_size_rule(-0.01, 0.5, 1)


def test_mixing_time_predict_takes_exact_metric_spellings():
    for metric in MIXING_METRICS:
        assert mixing_time_predict(0.01, 0.5, 1, metric) > 0
    with pytest.raises(InputError, match="unknown metric 'kl'; choose from KL, TV, W2"):
        mixing_time_predict(0.01, 0.5, 1, "kl")


def test_mixing_time_scalings():
    kl = mixing_time_predict(0.01, 0.5, 1, "KL")
    kl_tight = mixing_time_predict(0.0025, 0.5, 1, "KL")
    assert kl_tight == pytest.approx(2 * kl)

    tv = mixing_time_predict(0.01, 0.5, 1, "TV")
    tv_2d = mixing_time_predict(0.01, 0.5, 2, "TV")
    assert tv_2d == pytest.approx(2 * tv)

    w2 = mixing_time_predict(0.01, 0.5, 1, "W2")
    assert w2 / tv == pytest.approx(1 / 0.5)


def test_mixing_time_rejects_unknown_metric():
    with pytest.raises(InputError):
        mixing_time_predict(0.01, 0.5, 1, "hellinger")
    with pytest.raises(InputError):
        mixing_time_predict(0.01, 0.5, 1, "W1")


def test_mixing_time_reports_log_annotation():
    assert "log" in LOG_FACTOR_NOTE


# --- moment bound under dissipativity ----------------------------------------------


def test_moment_bound_worked_example():
    assert moment_bound_dissipative(1.0, 2, 1, 1.0, 1.0) == pytest.approx(
        math.sqrt(2) + 2.0, abs=1e-12
    )


def test_moment_bound_monotonicities():
    base = moment_bound_dissipative(1.0, 2, 2, 1.0, 1.0)
    assert moment_bound_dissipative(1.0, 4, 2, 1.0, 1.0) > base
    assert moment_bound_dissipative(1.0, 2, 4, 1.0, 1.0) > base
    assert moment_bound_dissipative(1.0, 2, 2, 1.0, 2.0) > base
    assert moment_bound_dissipative(1.0, 2, 2, 2.0, 1.0) < base


# --- non-finite lemma inputs ---------------------------------------------------------


# Each lemma evaluator with valid arguments, as keywords.
LEMMA_CALLS = {
    "kl_derivative_bound": (kl_derivative_bound, dict(
        c=ALL_ONES, t_offset=0.01, d=1, fisher_prev=1.0, fourth_moment_prev=1.0, eta=0.1)),
    "avg_fisher_bound": (avg_fisher_bound, dict(
        c=ALL_ONES, T=1.0, second_moment_sup=1.0, second_moment_integral=1.0, eta=0.1, d=1)),
    "moment_bound_dissipative": (moment_bound_dissipative, dict(
        sigma0=1.0, p=2, d=1, mu=1.0, beta=1.0, scale_constant=1.0)),
}
# The horizon and the dimension go through their own shared rules, and a step
# size must be positive too.
OWN_RULE = {
    "T": "horizon must be finite and positive",
    "d": "dimension must be a positive integer",
    "eta": "eta must be finite and positive",
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("function, argument", [
    (name, arg) for name, (_, kwargs) in LEMMA_CALLS.items() for arg in kwargs if arg != "c"
])
def test_lemma_evaluators_reject_a_non_finite_argument_naming_it(function, argument, value):
    fn, kwargs = LEMMA_CALLS[function]
    assert math.isfinite(fn(**kwargs))
    message = OWN_RULE.get(argument, f"{argument} must be finite")
    with pytest.raises(InputError, match=f"^{message}$"):
        fn(**{**kwargs, argument: value})


@pytest.mark.parametrize("function", ["kl_derivative_bound", "avg_fisher_bound"])
@pytest.mark.parametrize("eta", [0.0, -1.0])
def test_lemma_evaluators_reject_a_nonpositive_step(function, eta):
    fn, kwargs = LEMMA_CALLS[function]
    # A zero offset lies in [0, eta] for eta = 0 too.
    offset = {"t_offset": 0.0} if "t_offset" in kwargs else {}
    with pytest.raises(InputError, match="^eta must be finite and positive$"):
        fn(**{**kwargs, **offset, "eta": eta})


# Finite arguments whose result leaves the float range: through a sum that
# overflows to inf, or through a float power that raises OverflowError.
HUGE_L1 = BoundConstants(L1=1e100, L2=1.0, A0=1.0, sigma0=1.0, h0=1.0, entropy0=1.0)
OVERFLOWING_CALLS = {
    "kl_derivative_bound": lambda: kl_derivative_bound(HUGE_L1, 0.01, 1, 1.0, 1.0),
    "avg_fisher_bound": lambda: avg_fisher_bound(ALL_ONES, 1.0, 1e308, 1e308, 0.1, 1),
    "moment_bound_dissipative-sum": lambda: moment_bound_dissipative(1e300, 2, 1, 1e-300, 1e300),
    "moment_bound_dissipative-scale": lambda: moment_bound_dissipative(1.0, 2, 1, 1.0, 1.0, scale_constant=1e308),
}


@pytest.mark.parametrize("case", OVERFLOWING_CALLS)
def test_lemma_evaluators_reject_a_result_outside_the_float_range(case):
    evaluator = case.split("-")[0]
    with pytest.raises(InputError, match=f"^{evaluator} leaves the float range for these inputs$"):
        OVERFLOWING_CALLS[case]()


# The headline bounds: a float power out of range raises InputError naming
# the theorem, while a total that overflows through its sum stays inf for the
# CLI's bound_finite claim to report.
HEADLINE_BOUNDS = [
    pytest.param(kl_bound_dissipative_terms, "the theorem 1 bound", id="theorem-1"),
    pytest.param(kl_bound_nonneg_potential_terms, "the theorem 2 bound", id="theorem-2"),
]


@pytest.mark.parametrize("fn, named", HEADLINE_BOUNDS)
@pytest.mark.parametrize("field, value, eta", [("A0", 1e300, 0.1), ("L1", 1e200, 1e-201)])
def test_headline_bounds_reject_a_power_outside_the_float_range(fn, named, field, value, eta):
    constants = dataclasses.replace(ALL_ONES, **{field: value})
    with pytest.raises(InputError, match=f"^{named} leaves the float range for these inputs$"):
        fn(constants, eta, 1.0, 1)


@pytest.mark.parametrize("fn", [kl_bound_dissipative_terms, kl_bound_nonneg_potential_terms])
def test_headline_bound_total_overflowing_in_its_sum_is_inf(fn):
    constants = dataclasses.replace(ALL_ONES, entropy0=1e308, c0=1e10)
    assert fn(constants, 0.1, 1.0, 1)["total"] == math.inf


# --- constants container -------------------------------------------------------------


def test_constants_validation():
    with pytest.raises(InputError):
        BoundConstants(L1=-1, L2=1, A0=1, sigma0=1, h0=1, entropy0=1)
    with pytest.raises(InputError):
        BoundConstants(L1=1, L2=1, A0=1, sigma0=0.0, h0=1, entropy0=1)
    with pytest.raises(InputError):
        BoundConstants(L1=1, L2=1, A0=1, sigma0=1, h0=1, entropy0=1, mu=-0.1, beta=1)


@pytest.mark.parametrize("field, value, message", [
    ("L1", -1.0, "L1 must be finite and nonnegative"),
    ("A0", math.nan, "A0 must be finite and nonnegative"),
    ("mu", 0.0, "mu must be finite and positive"),
    ("beta", math.inf, "beta must be finite and nonnegative"),
])
def test_cert_and_constants_share_field_rules(field, value, message):
    drift = {"L1": 1.0, "L2": 1.0, "A0": 1.0, "mu": 1.0, "beta": 1.0, field: value}
    with pytest.raises(InputError, match=f"^{message}$"):
        SmoothnessCert(**drift)
    with pytest.raises(InputError, match=f"^{message}$"):
        BoundConstants(sigma0=1.0, h0=1.0, entropy0=1.0, **drift)


# --- one dimension rule ----------------------------------------------------------------


# Every public function that takes a dimension d or dim, called with d and
# otherwise valid arguments.
DIMENSION_TAKERS = {
    "kl_bound_dissipative_terms": lambda d: kl_bound_dissipative_terms(ALL_ONES, 0.1, 1.0, d),
    "kl_bound_nonneg_potential_terms": lambda d: kl_bound_nonneg_potential_terms(ALL_ONES, 0.1, 1.0, d),
    "kl_derivative_bound": lambda d: kl_derivative_bound(ALL_ONES, 0.01, d, 1.0, 1.0),
    "avg_fisher_bound": lambda d: avg_fisher_bound(ALL_ONES, 1.0, 1.0, 1.0, 0.1, d),
    "moment_bound_dissipative": lambda d: moment_bound_dissipative(1.0, 2, d, 1.0, 1.0),
    "step_size_rule": lambda d: step_size_rule(0.01, 0.5, d),
    "mixing_time_predict": lambda d: mixing_time_predict(0.01, 0.5, d, "KL"),
    "zero_drift": zero_drift,
    "ou_drift": ou_drift,
    "double_well_drift": double_well_drift,
    "gaussian_mixture_drift": gaussian_mixture_drift,
    "expansive_drift": expansive_drift,
    "noise_block": lambda d: noise_block(0, 0, 0, 5, d),
}


@pytest.mark.parametrize("name", DIMENSION_TAKERS)
def test_every_dimension_taker_rejects_zero_and_fractions_alike(name):
    DIMENSION_TAKERS[name](2)
    for d in (0, 1.5):
        with pytest.raises(InputError, match="^dimension must be a positive integer$"):
            DIMENSION_TAKERS[name](d)
