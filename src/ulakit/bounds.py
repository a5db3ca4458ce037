"""Closed-form evaluators for the discretization-error bounds and the ULA
step-size / mixing-time rules.

Two headline bounds on KL(hat_pi_T || pi_T) are evaluated term for term: the
second-order bound for dissipative drifts and its variant for non-negative
potentials.  Both carry unspecified universal constants, housed here as the
configurable fields c0 and c1 (default 1), so absolute values are shape-only
and every report echoes c0/c1.  Supporting evaluators cover the within-step
KL-derivative envelope, the averaged score-energy (Fisher information)
bound at grid times, the moment bound under dissipativity, and the
step-size / mixing-time scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError

# The order predictions hide polylogarithmic factors; they are reported as an
# annotation, never multiplied in.
LOG_FACTOR_NOTE = "times unspecified polylog factors log(1/eps) * log(1/rho)"


@dataclass(frozen=True)
class BoundConstants:
    """Constants feeding the bound evaluators.

    L1/L2/A0 describe the drift, (mu, beta) its dissipativity, sigma0/h0 the
    initialization tail certificate, entropy0 the initialization entropy,
    f0 the potential value at the origin for the non-negative-potential
    bound, and c0/c1 the user-configurable universal constants (default 1:
    shape-only).  The mixing rules take their log-Sobolev constant rho as
    an argument of their own.
    """

    L1: float
    L2: float
    A0: float
    sigma0: float
    h0: float
    entropy0: float
    mu: Optional[float] = None
    beta: Optional[float] = None
    f0: Optional[float] = None
    c0: float = 1.0
    c1: float = 1.0

    def __post_init__(self):
        check_fields(self, "nonnegative", "L1", "L2", "A0", "beta", "f0")
        check_fields(self, "positive", "sigma0", "mu", "c0", "c1")
        check_fields(self, "finite", "h0", "entropy0")
        finite_square(self.sigma0, "sigma0")

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise InputError("missing constants: " + ", ".join(missing))


def check_values(rule: str, **values) -> None:
    """InputError naming the first of the keyword values that is not finite
    or breaks rule: "finite" asks nothing more, "nonnegative" asks >= 0 and
    "positive" > 0."""
    for name, value in values.items():
        if not (np.isfinite(value) and {"finite": True, "nonnegative": value >= 0, "positive": value > 0}[rule]):
            raise InputError(f"{name} must be finite" + (rule != "finite") * f" and {rule}")


def power_in_range(evaluator: str, compute: Callable):
    """compute(), a formula on inputs checked finite; InputError naming the
    evaluator when a float power in it leaves the float range, which raises
    OverflowError rather than giving inf."""
    try:
        return compute()
    except OverflowError:
        raise InputError(f"{evaluator} leaves the float range for these inputs") from None


def finite_result(evaluator: str, compute: Callable[[], float]) -> float:
    """power_in_range, and InputError as well when the result overflows to
    inf through a sum."""
    value = power_in_range(evaluator, compute)
    if not math.isfinite(value):
        raise InputError(f"{evaluator} leaves the float range for these inputs")
    return value


def check_fields(constants, rule: str, *names: str) -> None:
    """check_values on the named fields of the dataclass constants; a field
    left at its default None passes."""
    for name in names:
        value = getattr(constants, name)
        if value is not None or constants.__dataclass_fields__[name].default is not None:
            check_values(rule, **{name: value})


def finite_square(value: float, name: str) -> float:
    """value^2; InputError naming the value when it overflows or underflows
    to zero."""
    sq = float(value) * float(value)
    if not 0.0 < sq < math.inf:
        raise InputError(f"{name}^2 = {value!r}^2 is not a finite positive number")
    return sq


def step_window(L1: float) -> tuple[float, float]:
    """Admissible step sizes (0, 1/(2 L1)) for a drift with Lipschitz
    constant L1; unbounded for L1 = 0."""
    return (0.0, math.inf if L1 == 0 else 1.0 / (2.0 * L1))


def check_step(eta: float, L1: float, enforce_window: bool = True) -> None:
    """Reject a nonpositive step, and (when enforced) one outside step_window."""
    if not (np.isfinite(eta) and eta > 0):
        raise InputError("step size must be positive")
    hi = step_window(L1)[1]
    if enforce_window and eta >= hi:
        raise InputError(
            f"step size {eta} outside the admissible window (0, {hi}) for L1={L1}"
        )


def check_dim(d) -> int:
    """d as an int; InputError unless it is a positive integer."""
    if not (1 <= d < math.inf and int(d) == d):
        raise InputError("dimension must be a positive integer")
    return int(d)


def check_horizon(T: float) -> None:
    """InputError unless the horizon T is finite and positive."""
    if not (np.isfinite(T) and T > 0):
        raise InputError("horizon must be finite and positive")


def _bound_terms(c: BoundConstants, eta: float, T: float, d: int, extra: dict,
                 moment_factor: float, fourth_moment_proxy: float) -> dict:
    """The term dict both bounds share, from a variant's extra order-2 terms
    (summed first, in order), moment factor and fourth-moment proxy."""
    time_factor = c.sigma0**-2 + T * c.L1**2
    smooth_tail = T * c.L2**2 * d**2
    order2_coeff = sum(extra.values()) + c.A0**2 + moment_factor * time_factor + smooth_tail
    order4_coeff = c.L2**2 * (c.A0**4 + c.L1**4 * fourth_moment_proxy)
    order2 = c.c0 * eta**2 * order2_coeff
    order4 = c.c1 * eta**4 * order4_coeff
    return {
        **extra,
        "A0_sq": c.A0**2,
        "moment_factor": moment_factor,
        "time_factor": time_factor,
        "smooth_tail": smooth_tail,
        "order2_coefficient": order2_coeff,
        "order2_term": order2,
        "fourth_moment_proxy": fourth_moment_proxy,
        "order4_coefficient": order4_coeff,
        "order4_term": order4,
        "total": order2 + order4,
    }


def kl_bound_dissipative_terms(c: BoundConstants, eta: float, T: float, d: int) -> dict:
    """KL(hat_pi_T || pi_T) bound for dissipative drifts (variant 1), term
    by term; "total" is

        c0 eta^2 [ h0 + H0 + A0^2
                   + (sigma0^2 d + (beta + d)/mu)(sigma0^-2 + T L1^2)
                   + T L2^2 d^2 ]
        + c1 eta^4 L2^2 [ A0^4 + L1^4 (sigma0^2 d + (beta + d)^2/mu + d^2) ].
    """
    check_step(eta, c.L1)
    check_horizon(T)
    check_dim(d)
    c.require("mu", "beta")
    return power_in_range("the theorem 1 bound", lambda: _bound_terms(
        c, eta, T, d, {"h0": c.h0, "entropy0": c.entropy0},
        moment_factor=c.sigma0**2 * d + (c.beta + d) / c.mu,
        fourth_moment_proxy=c.sigma0**2 * d + (c.beta + d) ** 2 / c.mu + d**2,
    ))


def kl_bound_nonneg_potential_terms(c: BoundConstants, eta: float, T: float, d: int) -> dict:
    """KL(hat_pi_T || pi_T) bound for b = -grad f with f >= 0 (variant 2),
    term by term; "total" is

        c0 eta^2 [ A0^2
                   + (sigma0^2 d + f0 + L1 T sigma0^2 (h0 + H0 + d))
                     (sigma0^-2 + T L1^2)
                   + T L2^2 d^2 ]
        + c1 eta^4 L2^2 [ A0^4 + L1^4 (f0^2 + L1^2 T^2 sigma0^4 (h0 + d)^2
                                        + L1^2 T^4 d^2) ].
    """
    check_step(eta, c.L1)
    check_horizon(T)
    check_dim(d)
    c.require("f0")
    return power_in_range("the theorem 2 bound", lambda: _bound_terms(
        c, eta, T, d, {},
        moment_factor=c.sigma0**2 * d + c.f0 + c.L1 * T * c.sigma0**2 * (c.h0 + c.entropy0 + d),
        fourth_moment_proxy=c.f0**2 + c.L1**2 * T**2 * c.sigma0**4 * (c.h0 + d) ** 2 + c.L1**2 * T**4 * d**2,
    ))


def kl_derivative_bound(
    c: BoundConstants,
    t_offset: float,
    d: int,
    fisher_prev: float,
    fourth_moment_prev: float,
    eta: float | None = None,
) -> float:
    """Within-step envelope on d/dt KL(hat_pi_t || pi_t) at offset tau from
    the last grid point:

        4 L1^2 tau^2 F + 12 L1^4 tau^3 d
        + 16 tau^4 L2^2 (A0^4 + L1^4 M4) + 48 tau^2 L2^2 d^2,

    where F is the score energy of the grid marginal and M4 its fourth
    moment.
    """
    check_values("finite", t_offset=t_offset, fisher_prev=fisher_prev, fourth_moment_prev=fourth_moment_prev)
    if eta is not None:
        check_values("positive", eta=eta)
    tau = float(t_offset)
    if tau < 0 or (eta is not None and tau > eta * (1 + 1e-12)):
        raise InputError("t_offset must lie in [0, eta]")
    check_dim(d)
    if fisher_prev < 0 or fourth_moment_prev < 0:
        raise InputError("moment inputs must be nonnegative")
    return finite_result("kl_derivative_bound", lambda: (
        4.0 * c.L1**2 * tau**2 * fisher_prev
        + 12.0 * c.L1**4 * tau**3 * d
        + 16.0 * tau**4 * c.L2**2 * (c.A0**4 + c.L1**4 * fourth_moment_prev)
        + 48.0 * tau**2 * c.L2**2 * d**2
    ))


def avg_fisher_bound(
    c: BoundConstants,
    T: float,
    second_moment_sup: float,
    second_moment_integral: float,
    eta: float,
    d: int,
) -> float:
    """Bound on the grid-time average of the score energy
    (1/N) sum_k int hat_pi_{k eta} ||grad log hat_pi_{k eta}||^2:

        (32 h0 + 128 A0^2 T + H0) + 32 sigma0^-2 sup_t E||X_t||^2
        + 128 L1^2 int_0^T E||X_t||^2 dt + 32 eta^2 d^2 L2^2 T.
    """
    check_values("finite", second_moment_sup=second_moment_sup, second_moment_integral=second_moment_integral)
    check_values("positive", eta=eta)
    check_horizon(T)
    check_dim(d)
    ratio = T / eta
    if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
        raise InputError("horizon must be a positive integer multiple of eta")
    if second_moment_sup < 0 or second_moment_integral < 0:
        raise InputError("moment inputs must be nonnegative")
    return finite_result("avg_fisher_bound", lambda: (
        32.0 * c.h0
        + 128.0 * c.A0**2 * T
        + c.entropy0
        + 32.0 * c.sigma0**-2 * second_moment_sup
        + 128.0 * c.L1**2 * second_moment_integral
        + 32.0 * eta**2 * d**2 * c.L2**2 * T
    ))


def step_size_rule(eps: float, rho: float, d: int) -> float:
    """ULA step size sqrt(eps rho) / (d log(1/rho)) for KL accuracy eps under
    a log-Sobolev constant rho in (0, 1).

    rho >= 1 is rejected: log(1/rho) is then nonpositive and the rule is
    undefined; supply the step size directly in that regime.
    """
    if eps <= 0:
        raise InputError("accuracy eps must be positive")
    check_dim(d)
    if not 0.0 < rho < 1.0:
        raise InputError(
            "step-size rule requires rho in (0, 1); for rho >= 1 supply eta directly"
        )
    return math.sqrt(eps * rho) / (d * math.log(1.0 / rho))


def mixing_time_predict(eps: float, rho: float, d: int, metric: str) -> float:
    """Order prediction of the steps to the first grid index with
    dist(hat_pi, target) <= eps, for metric spelled exactly KL, TV or W2:

        KL: eps^-1/2 d rho^-3/2        TV: d eps^-1 rho^-3/2
        W2: d eps^-1 rho^-5/2

    Polylog factors are not folded in; LOG_FACTOR_NOTE names them.
    """
    if eps <= 0 or rho <= 0:
        raise InputError("eps and rho must be positive")
    check_dim(d)
    if metric == "KL":
        return eps**-0.5 * d * rho**-1.5
    if metric == "TV":
        return d * eps**-1.0 * rho**-1.5
    if metric == "W2":
        return d * eps**-1.0 * rho**-2.5
    raise InputError(f"unknown metric {metric!r}; choose from KL, TV, W2")


def moment_bound_dissipative(
    sigma0: float, p: float, d: int, mu: float, beta: float, scale_constant: float = 1.0
) -> float:
    """Root moment bound sup_t (E ||X_t||^p)^(1/p) <= C (sigma0 sqrt(p d)
    + sqrt((p + beta + d)/mu)) under dissipativity, with C = scale_constant."""
    check_values("finite", sigma0=sigma0, p=p, mu=mu, beta=beta, scale_constant=scale_constant)
    if p < 1:
        raise InputError("moment order must be >= 1")
    if mu <= 0 or beta < 0:
        raise InputError("need mu > 0 and beta >= 0")
    if sigma0 <= 0:
        raise InputError("sigma0 must be positive")
    check_dim(d)
    if scale_constant <= 0:
        raise InputError("scale_constant must be positive")
    return finite_result("moment_bound_dissipative", lambda: (
        scale_constant * (sigma0 * math.sqrt(p * d) + math.sqrt((p + beta + d) / mu))
    ))
