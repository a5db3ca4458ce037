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
    continuous_moments_linear,
    double_well_drift,
    em_moments_linear,
    expansive_drift,
    gaussian_mixture_drift,
    kl_bound_dissipative_terms,
    kl_bound_nonneg_potential_terms,
    kl_gaussian,
    mixing_time_predict,
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


# A non-finite accuracy or log-Sobolev constant once gave a nan, inf or zero
# step size or prediction in place of an error.
RULE_CALLS = {
    "step_size_rule": lambda eps, rho: step_size_rule(eps, rho, 1),
    "mixing_time_predict": lambda eps, rho: mixing_time_predict(eps, rho, 1, "TV"),
}
RULE_MESSAGES = {
    ("step_size_rule", "eps"): "accuracy eps must be positive",
    ("step_size_rule", "rho"): r"requires rho in \(0, 1\)",
    ("mixing_time_predict", "eps"): "eps and rho must be positive",
    ("mixing_time_predict", "rho"): "eps and rho must be positive",
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("rule, argument", RULE_MESSAGES)
def test_rules_reject_a_non_finite_eps_or_rho(rule, argument, value):
    args = {"eps": 0.01, "rho": 0.5}
    assert 0 < RULE_CALLS[rule](**args) < math.inf
    with pytest.raises(InputError, match=RULE_MESSAGES[rule, argument]):
        RULE_CALLS[rule](**{**args, argument: value})


# --- headline bounds outside the float range ------------------------------------------


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


# The step, the horizon and the dimension of a headline bound each go through
# their shared rule.
ARGUMENT_RULES = {
    "eta": "step size must be positive",
    "T": "horizon must be finite and positive",
    "d": "dimension must be a positive integer",
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("argument", ARGUMENT_RULES)
@pytest.mark.parametrize("fn, named", HEADLINE_BOUNDS)
def test_headline_bounds_reject_a_non_finite_argument(fn, named, argument, value):
    args = {"eta": 0.1, "T": 1.0, "d": 1}
    with pytest.raises(InputError, match=f"^{ARGUMENT_RULES[argument]}$"):
        fn(ALL_ONES, **{**args, argument: value})


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("argument", ["eta", "T"])
@pytest.mark.parametrize("fn, named", HEADLINE_BOUNDS)
def test_headline_bounds_reject_a_nonpositive_step_or_horizon(fn, named, argument, value):
    args = {"eta": 0.1, "T": 1.0, "d": 1}
    with pytest.raises(InputError, match=f"^{ARGUMENT_RULES[argument]}$"):
        fn(ALL_ONES, **{**args, argument: value})


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


# Each field of BoundConstants with the rule check_fields holds it to.
FIELD_RULES = {
    "L1": "nonnegative", "L2": "nonnegative", "A0": "nonnegative", "beta": "nonnegative", "f0": "nonnegative",
    "sigma0": "positive", "mu": "positive", "c0": "positive", "c1": "positive",
    "h0": "finite", "entropy0": "finite",
}


def test_field_rules_cover_every_constant():
    assert set(FIELD_RULES) == {f.name for f in dataclasses.fields(BoundConstants)}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", FIELD_RULES)
def test_constants_reject_a_non_finite_field_naming_it(field, value):
    rule = FIELD_RULES[field]
    message = f"{field} must be finite" + (rule != "finite") * f" and {rule}"
    with pytest.raises(InputError, match=f"^{message}$"):
        dataclasses.replace(ALL_ONES, **{field: value})


@pytest.mark.parametrize("field", [f for f, rule in FIELD_RULES.items() if rule != "finite"])
def test_constants_reject_a_field_below_its_rule(field):
    rule = FIELD_RULES[field]
    dataclasses.replace(ALL_ONES, **{field: 0.0 if rule == "nonnegative" else 1e-3})
    with pytest.raises(InputError, match=f"^{field} must be finite and {rule}$"):
        dataclasses.replace(ALL_ONES, **{field: -1.0 if rule == "nonnegative" else 0.0})


def test_constants_take_a_negative_finite_entropy_and_leave_optional_fields_unset():
    c = BoundConstants(L1=1.0, L2=1.0, A0=1.0, sigma0=1.0, h0=-2.0, entropy0=-3.0)
    assert (c.mu, c.beta, c.f0) == (None, None, None)


# --- one dimension rule ----------------------------------------------------------------


# Every public function that takes a dimension d or dim, called with d and
# otherwise valid arguments.
DIMENSION_TAKERS = {
    "kl_bound_dissipative_terms": lambda d: kl_bound_dissipative_terms(ALL_ONES, 0.1, 1.0, d),
    "kl_bound_nonneg_potential_terms": lambda d: kl_bound_nonneg_potential_terms(ALL_ONES, 0.1, 1.0, d),
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
