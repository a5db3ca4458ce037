import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulakit import (
    CERT_RADIUS,
    InitDensity,
    InputError,
    ModelError,
    dissipativity_fit,
    drift_eval,
    drift_jacobian,
    grad_check,
    make_model,
    registered_models,
    verify_init,
)
from ulakit.drift_models import FIT_RADII, OUTER_RADIUS, lipschitz_ratios

from slow_paths import grad_check_per_column

BUILTINS = ["zero", "ou", "double-well", "gauss-mix", "expansive"]


def builtin_instances(dim=2):
    return [make_model(name, dim=dim) for name in BUILTINS]


# --- drift_eval -------------------------------------------------------------


def test_ou_drift_value():
    m = make_model("ou", dim=1)
    assert drift_eval(m, [1.0]) == pytest.approx([-1.0])


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]
COORDS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
OFFSETS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@settings(max_examples=300)
@given(
    xs=st.lists(COORDS, min_size=1, max_size=40),
    rate=st.one_of(st.sampled_from([1.0, 1e-30, 1e30]), st.floats(1e-6, 1e6)),
    offset=OFFSETS,
    shape=st.sampled_from(["column", "point"]),
)
def test_ou_1d_drift_is_bitwise_the_matmul(xs, rate, offset, shape):
    # The 1-D OU drift is a scalar multiply; it must give the bits of
    # x @ A.T + c, signed zeros, subnormals and overflow included.
    m = make_model("ou", dim=1, rate=rate, offset=[offset])
    A, c = m.linear.A, m.linear.c
    x = np.array(xs)[:, None] if shape == "column" else np.array(xs[:1])
    with np.errstate(over="ignore"):
        want = x @ A.T + c
        got = m.drift(x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_ou_drift_in_higher_dimension_is_row_by_row(dim):
    # Each row of a 1000-row call is bitwise its one-point call and its row
    # of a 7-row prefix call, signed zeros included.
    rng = np.random.default_rng(dim)
    B = rng.standard_normal((dim, dim))
    A = -(B @ B.T) - np.eye(dim)
    c = np.array([-0.0] + [0.5] * (dim - 1))
    m = make_model("ou", matrix=A, offset=c)
    x = np.vstack([np.zeros((1, dim)), [[-0.0] * dim], rng.standard_normal((998, dim))])
    got = m.drift(x)
    assert got.shape == x.shape and got[:7].tobytes() == m.drift(x[:7]).tobytes()
    for row, point in zip(got, x):
        assert row.tobytes() == m.drift(point).tobytes()


@pytest.mark.parametrize("name", BUILTINS)
def test_drift_at_origin_has_norm_a0(name):
    m = make_model(name, dim=3)
    a0 = float(np.linalg.norm(drift_eval(m, np.zeros(3))))
    assert a0 == pytest.approx(m.constants.A0, abs=1e-12)


def test_double_well_hand_value():
    m = make_model("double-well", dim=1)
    # -0.5 * 2 * (4 - 1)
    assert drift_eval(m, [2.0]) == pytest.approx([-3.0])


def test_drift_eval_dimension_mismatch():
    m = make_model("ou", dim=2)
    with pytest.raises(InputError):
        drift_eval(m, [1.0, 2.0, 3.0])


def test_drift_eval_deterministic():
    m = make_model("gauss-mix", dim=2)
    x = np.array([0.3, -0.4])
    assert np.array_equal(drift_eval(m, x), drift_eval(m, x))


# --- drift_jacobian ---------------------------------------------------------


def test_ou_jacobian_constant():
    m = make_model("ou", dim=2)
    assert np.allclose(drift_jacobian(m, [0.3, 0.7]), -np.eye(2))


def test_double_well_jacobian_symbolic():
    # d/dx of -(x^3 - x)/2 is -(3x^2 - 1)/2 = -5.5 at x = 2
    m = make_model("double-well", dim=1)
    assert drift_jacobian(m, [2.0])[0, 0] == pytest.approx(-5.5)


def test_zero_jacobian():
    m = make_model("zero", dim=3)
    assert np.array_equal(drift_jacobian(m, np.ones(3)), np.zeros((3, 3)))


# --- grad_check -------------------------------------------------------------


def test_grad_check_linear_drift_exact():
    m = make_model("ou", dim=2)
    assert grad_check(m, [0.4, -1.2]) < 1e-9


def test_grad_check_double_well():
    m = make_model("double-well", dim=1)
    assert grad_check(m, [0.7]) < 1e-6


def test_grad_check_gauss_mix():
    m = make_model("gauss-mix", dim=2)
    assert grad_check(m, [0.3, -0.2]) < 1e-6


@pytest.mark.parametrize("name", BUILTINS)
def test_grad_check_twenty_random_points(name):
    m = make_model(name, dim=2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=2)
        assert grad_check(m, x) < 1e-5


# --- stacked evaluation -----------------------------------------------------


def coupled_ou(dim, seed):
    """An ou model with a drawn symmetric negative-definite matrix with
    off-diagonal terms, and a nonzero offset: its products are inexact."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    S = B @ B.T
    return make_model("ou", matrix=-(0.5 * (S + S.T) + 0.25 * np.eye(dim)), offset=rng.standard_normal(dim))


def stack_points(dim, seed):
    """40 drawn points in the certificate ball, then the origin, -0.0 and
    subnormal coordinates."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.uniform(-CERT_RADIUS, CERT_RADIUS, (40, dim)), np.zeros((1, dim)),
                      np.full((1, dim), -0.0), np.full((1, dim), 5e-324), np.full((1, dim), -1e-310)])


def stack_models(dim):
    return [make_model(name, dim=dim) for name in BUILTINS] + [coupled_ou(dim, seed=dim)]


@pytest.mark.parametrize("m", [*(m for dim in range(1, 6) for m in stack_models(dim)), coupled_ou(50, seed=50)],
                         ids=lambda m: f"{m.name}-d{m.dim}")
def test_stacked_evaluators_are_the_one_point_calls_bit_for_bit(m):
    X = stack_points(m.dim, seed=m.dim)
    for evaluate, shape in ((drift_eval, (m.dim,)), (drift_jacobian, (m.dim, m.dim))):
        ones = [evaluate(m, x) for x in X]
        assert {one.shape for one in ones} == {shape}
        stack = evaluate(m, X)
        assert stack.shape == (len(X), *shape)
        assert np.array_equal(stack.view(np.int64), np.array(ones).view(np.int64))


@pytest.mark.parametrize("m", [*stack_models(3), coupled_ou(50, seed=50)], ids=lambda m: f"{m.name}-d{m.dim}")
def test_grad_check_of_a_stack_is_the_per_column_check_of_its_worst_point(m):
    X = stack_points(m.dim, seed=7)[:20] / 3.0
    got = grad_check(m, X)
    assert got == max(grad_check_per_column(m, x) for x in X)
    assert got == max(grad_check(m, x) for x in X)


def nan_beyond(radius, fn, shape):
    """fn(x), with nan at the points farther than radius from the origin."""
    return lambda x: np.where(
        (np.sum(np.square(x), axis=-1) > radius**2).reshape(np.shape(x)[:-1] + (1,) * len(shape)), np.nan, fn(x))


@pytest.mark.parametrize("drift_radius, jacobian_radius", [(2.5, None), (None, 2.5), (2.9, 2.5), (2.5, 2.9)])
def test_grad_check_raises_the_per_point_model_error(drift_radius, jacobian_radius):
    ou = make_model("ou", dim=2)
    drift = ou.drift if drift_radius is None else nan_beyond(drift_radius, ou.drift, (2,))
    jacobian = ou.jacobian if jacobian_radius is None else nan_beyond(jacobian_radius, ou.jacobian, (2, 2))
    m = dataclasses.replace(ou, drift=drift, jacobian=jacobian)
    X = np.random.default_rng(3).uniform(-3.0, 3.0, (20, 2))
    with pytest.raises(ModelError) as want:
        max(grad_check_per_column(m, x) for x in X)
    with pytest.raises(ModelError) as got:
        grad_check(m, X)
    assert str(got.value) == str(want.value)


def test_a_failing_stack_names_its_first_failing_point():
    ou = make_model("ou", dim=2)
    X = np.array([[0.5, 0.5], [3.0, 0.0], [0.0, 0.5], [0.0, 4.0]])
    m = dataclasses.replace(ou, drift=nan_beyond(2.0, ou.drift, (2,)), jacobian=nan_beyond(3.5, ou.jacobian, (2, 2)))
    with pytest.raises(ModelError, match=r"^drift returned non-finite values at \[3\.0, 0\.0\]$"):
        drift_eval(m, X)
    with pytest.raises(ModelError, match=r"^jacobian returned non-finite values at \[0\.0, 4\.0\]$"):
        drift_jacobian(m, X)


# --- Lipschitz certificates -------------------------------------------------


@pytest.mark.parametrize("name", BUILTINS)
def test_lipschitz_constants_on_cert_ball(name):
    m = make_model(name, dim=2)
    rng = np.random.default_rng(11)
    L1, L2 = m.constants.L1, m.constants.L2
    for _ in range(100):
        x, y = rng.uniform(-1, 1, size=(2, 2))
        x *= CERT_RADIUS / math.sqrt(2)
        y *= CERT_RADIUS / math.sqrt(2)
        gap = np.linalg.norm(x - y)
        if gap == 0:
            continue
        d_b = np.linalg.norm(drift_eval(m, x) - drift_eval(m, y))
        assert d_b <= L1 * gap * (1 + 1e-9) + 1e-12
        d_j = np.linalg.norm(drift_jacobian(m, x) - drift_jacobian(m, y), 2)
        assert d_j <= L2 * gap * (1 + 1e-9) + 1e-12


# Drift and Jacobian word a shape mismatch alike, at one point and on a stack.
@pytest.mark.parametrize("kind", ["drift", "jacobian"])
def test_a_shape_mismatch_names_the_shape_it_expected(kind):
    m = dataclasses.replace(make_model("ou", dim=2), **{kind: lambda x: np.zeros(3)})
    evaluate = drift_eval if kind == "drift" else drift_jacobian
    tail = "2," if kind == "drift" else "2, 2"
    with pytest.raises(ModelError, match=rf"^{kind} returned shape \(3,\), expected \({tail}\)$"):
        evaluate(m, [0.5, 0.5])
    with pytest.raises(ModelError, match=rf"^{kind} returned shape \(3,\), expected \(4, {tail.rstrip(',')}\)$"):
        evaluate(m, np.zeros((4, 2)))


# A drift gap or a point gap that overflows is refused, with no warning,
# rather than read as an infinite or null ratio.
@pytest.mark.parametrize("case", ["drift-gap", "point-gap"])
def test_lipschitz_ratios_outside_float_range_is_an_input_error(case):
    if case == "drift-gap":
        m = make_model("ou", matrix=[[-1e200, 1e199], [1e199, -1e200]])
        xs, ys = [[1.0, 0.0]], [[0.0, 1.0]]
    else:
        m = make_model("ou", dim=2)
        xs, ys = [[1e300, 0.0]], [[-1e300, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^the Lipschitz ratios leave the float range for this model$"):
            lipschitz_ratios(m, xs, ys)


# --- dissipativity_fit ------------------------------------------------------


def test_dissipativity_fit_ou():
    beta, outer_g = dissipativity_fit(make_model("ou", dim=1), seed=0)
    assert beta == pytest.approx(0.0, abs=1e-12) and outer_g == 0.0


def test_dissipativity_fit_double_well_witnesses_its_declared_beta():
    # analytic optimum: sup of <b(x),x> + mu ||x||^2 is (mu + 1/2)^2 / 2,
    # which at the declared mu = 1/2 is the declared beta = 1/2 (contact on
    # the unit sphere); on the outer shell R, g = R^2 - R^4 / 2
    m = make_model("double-well", dim=1)
    assert m.constants.dissipativity == (0.5, 0.5)
    beta, outer_g = dissipativity_fit(m, seed=0)
    assert beta == pytest.approx(0.5) and outer_g == OUTER_RADIUS**2 - OUTER_RADIUS**4 / 2


@pytest.mark.parametrize("name", ["zero", "expansive"])
def test_dissipativity_fit_is_none_without_a_declared_pair(name):
    assert dissipativity_fit(make_model(name, dim=1), seed=0) is None


@pytest.mark.parametrize("name", ["ou", "double-well", "gauss-mix"])
def test_dissipativity_fit_holds_on_fresh_points(name):
    m = make_model(name, dim=2)
    mu = m.constants.mu
    beta, _ = dissipativity_fit(m, seed=0)
    rng = np.random.default_rng(99)
    dirs = rng.standard_normal((10_000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * (FIT_RADII.max() * rng.random((10_000, 1)))
    inner = np.sum(m.drift(pts) * pts, axis=1)
    assert np.all(inner <= -mu * np.sum(pts**2, axis=1) + beta + 1e-9)


# --- verify_init ------------------------------------------------------------


def test_verify_init_standard_normal():
    cert = verify_init(InitDensity(mean=[0.0], sigma0=1.0))
    assert cert.h0 == pytest.approx(0.5 * math.log(2 * math.pi))
    assert cert.sigma == pytest.approx(math.sqrt(2.0))


def test_verify_init_wide_2d():
    cert = verify_init(InitDensity(mean=[0.0, 0.0], sigma0=2.0))
    assert cert.h0 == pytest.approx(math.log(8 * math.pi))
    assert cert.sigma == pytest.approx(2 * math.sqrt(2.0))


def test_verify_init_centered_is_tight():
    init = InitDensity(mean=[0.0], sigma0=1.0)
    cert = verify_init(init)
    lhs = -float(init.log_density(np.array([3.0])))
    rhs = cert.h0 + 9.0 / cert.sigma**2
    assert lhs == pytest.approx(rhs)


@pytest.mark.parametrize("mean,sigma0", [([0.0], 1.0), ([0.0, 0.0], 2.0), ([1.5, -2.0], 0.7)])
def test_verify_init_certificate_holds_on_grid(mean, sigma0):
    init = InitDensity(mean=mean, sigma0=sigma0)
    cert = verify_init(init)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-20, 20, size=(2000, init.dim))
    lhs = -init.log_density(xs)
    rhs = cert.h0 + np.sum(xs**2, axis=1) / cert.sigma**2
    assert np.all(lhs <= rhs + 1e-9)


def test_verify_init_rejects_non_gaussian():
    with pytest.raises(InputError, match="only isotropic Gaussian initializations"):
        verify_init(object())


# --- registry ---------------------------------------------------------------


def test_registry_names():
    assert set(registered_models()) == set(BUILTINS)


def test_registry_unknown_model():
    with pytest.raises(InputError):
        make_model("quartic")


def test_ou_with_matrix_and_offset():
    A = np.array([[-2.0, 0.5], [0.5, -1.0]])
    m = make_model("ou", matrix=A, offset=[0.3, 0.0])
    assert m.constants.L1 == pytest.approx(np.abs(np.linalg.eigvalsh(A)).max())
    assert m.constants.A0 == pytest.approx(0.3)
    mu, beta = m.constants.dissipativity
    lam = -np.linalg.eigvalsh(A).max()
    assert mu == pytest.approx(lam / 2)
    assert beta == pytest.approx(0.09 / (2 * lam))


def ou_offset_params(dim):
    B = np.random.default_rng(dim).standard_normal((dim, dim))
    return {"matrix": -(B @ B.T) - np.eye(dim), "offset": np.linspace(0.3, -0.2, dim)}


def hand_typed_ou_cert(matrix, offset):
    # The ou certificate written out: L1 = -lambda_min and, with
    # s = -lambda_max, (mu, beta) = (s, 0), or (s/2, ||c||^2/(2 s)) with an offset.
    lam = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    a0, slow = float(np.linalg.norm(offset)), float(-lam.max())
    mu, beta = (slow, 0.0) if a0 == 0.0 else (slow / 2.0, a0**2 / (2.0 * slow))
    return (float(-lam.min()), 0.0, a0, mu, beta)


# (name, its params at dimension dim, its certificate written out by hand)
LINEAR_CERTS = {
    "zero": ("zero", lambda dim: {"dim": dim}, lambda dim: (0.0, 0.0, 0.0, None, None)),
    "expansive": ("expansive", lambda dim: {"dim": dim, "rate": 0.7}, lambda dim: (0.7, 0.0, 0.0, None, None)),
    "ou-rate": ("ou", lambda dim: {"dim": dim, "rate": 0.7}, lambda dim: (0.7, 0.0, 0.0, 0.7, 0.0)),
    "ou-matrix-offset": ("ou", ou_offset_params, lambda dim: hand_typed_ou_cert(**ou_offset_params(dim))),
}


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("case", list(LINEAR_CERTS))
def test_linear_certificate_from_the_spectrum_is_the_hand_typed_one(case, dim):
    name, params, expected = LINEAR_CERTS[case]
    cert = make_model(name, **params(dim)).constants

    def bits(values):
        return [None if v is None else float(v).hex() for v in values]

    assert bits((cert.L1, cert.L2, cert.A0, cert.mu, cert.beta)) == bits(expected(dim))


def test_ou_rejects_non_negative_definite():
    with pytest.raises(InputError):
        make_model("ou", matrix=[[1.0]])


def test_ou_with_a_matrix_rejects_the_parameters_it_would_ignore():
    A = [[-2.0, 0.5], [0.5, -1.0]]
    assert make_model("ou", dim=2, matrix=A).params == make_model("ou", matrix=A).params
    with pytest.raises(InputError, match="ou dim 3 differs from the matrix size 2"):
        make_model("ou", dim=3, matrix=A)
    with pytest.raises(InputError, match="rate or matrix"):
        make_model("ou", rate=1.0, matrix=A)


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
def test_double_well_drift_is_odd(a, b):
    m = make_model("double-well", dim=2)
    x = np.array([a, b])
    assert np.allclose(m.drift(x), -m.drift(-x), atol=1e-12)


# nan, or a separation whose ||a||^2 (1e200, inf) or certified L2 (1e120)
# leaves the float range, is refused naming it, with no warning.
@pytest.mark.parametrize("separation", [0.0, -1.0, math.nan, math.inf, 1e120, 1e200])
def test_gauss_mix_rejects_a_bad_separation_naming_it(separation):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="separation"):
            make_model("gauss-mix", dim=3, separation=separation)


@given(st.floats(min_value=0.5, max_value=3.0))
def test_gauss_mix_separation_parameter(sep):
    m = make_model("gauss-mix", dim=1, separation=sep)
    a2 = sep**2
    assert m.constants.L1 == pytest.approx(max(0.5, 0.5 * (a2 - 1)))
    mu, beta = m.constants.dissipativity
    assert (mu, beta) == pytest.approx((0.25, a2 / 4))
