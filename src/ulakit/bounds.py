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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError

MIXING_METRICS = ("KL", "TV", "W2", "W1")

# The order predictions hide polylogarithmic factors; they are reported as an
# annotation, never multiplied in.
LOG_FACTOR_NOTE = "times unspecified polylog factors log(1/eps) * log(1/rho)"


@dataclass(frozen=True)
class BoundConstants:
    """Constants feeding the bound evaluators.

    L1/L2/A0 describe the drift, (mu, beta) its dissipativity, sigma0/h0 the
    initialization tail certificate, entropy0 the initialization entropy,
    rho a log-Sobolev constant for mixing rules, f0 the potential value at
    the origin for the non-negative-potential bound, and c0/c1 the
    user-configurable universal constants (default 1: shape-only).
    """

    L1: float
    L2: float
    A0: float
    sigma0: float
    h0: float
    entropy0: float
    mu: Optional[float] = None
    beta: Optional[float] = None
    rho: Optional[float] = None
    f0: Optional[float] = None
    c0: float = 1.0
    c1: float = 1.0

    def __post_init__(self):
        for name in ("L1", "L2", "A0"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise InputError(f"{name} must be finite and nonnegative")
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise InputError("sigma0 must be positive")
        finite_square(self.sigma0, "sigma0")
        for name in ("h0", "entropy0"):
            if not np.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.mu is not None and not (np.isfinite(self.mu) and self.mu > 0):
            raise InputError("mu must be positive")
        if self.beta is not None and not (np.isfinite(self.beta) and self.beta >= 0):
            raise InputError("beta must be nonnegative")
        if self.rho is not None and not (np.isfinite(self.rho) and self.rho > 0):
            raise InputError("rho must be positive")
        if self.f0 is not None and not (np.isfinite(self.f0) and self.f0 >= 0):
            raise InputError("f0 must be nonnegative")
        for name in ("c0", "c1"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise InputError(f"{name} must be positive")

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise ConfigurationError("missing constants: " + ", ".join(missing))

    @staticmethod
    def from_dict(d: dict) -> "BoundConstants":
        unknown = set(d) - {f.name for f in fields(BoundConstants)}
        if unknown:
            raise ConfigurationError("unknown constants: " + ", ".join(sorted(unknown)))
        required = ["L1", "L2", "A0", "sigma0", "h0", "entropy0"]
        missing = [k for k in required if k not in d]
        if missing:
            raise ConfigurationError("missing constants: " + ", ".join(missing))
        return BoundConstants(**{k: float(v) for k, v in d.items()})

    def to_dict(self) -> dict:
        out = {
            "L1": self.L1, "L2": self.L2, "A0": self.A0,
            "sigma0": self.sigma0, "h0": self.h0, "entropy0": self.entropy0,
            "c0": self.c0, "c1": self.c1,
        }
        for k in ("mu", "beta", "rho", "f0"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


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
        raise ConfigurationError("step size must be positive")
    hi = step_window(L1)[1]
    if enforce_window and eta >= hi:
        raise ConfigurationError(
            f"step size {eta} outside the admissible window (0, {hi}) for L1={L1}"
        )


def _check_horizon_dim(T: float, d: int) -> None:
    if not (np.isfinite(T) and T > 0):
        raise ConfigurationError("horizon must be positive")
    if d < 1 or int(d) != d:
        raise ConfigurationError("dimension must be a positive integer")


def kl_bound_dissipative_terms(c: BoundConstants, eta: float, T: float, d: int) -> dict:
    """Term decomposition of the dissipative-drift KL bound (variant 1)."""
    check_step(eta, c.L1)
    _check_horizon_dim(T, d)
    c.require("mu", "beta")
    moment_factor = c.sigma0**2 * d + (c.beta + d) / c.mu
    time_factor = c.sigma0**-2 + T * c.L1**2
    smooth_tail = T * c.L2**2 * d**2
    order2_coeff = c.h0 + c.entropy0 + c.A0**2 + moment_factor * time_factor + smooth_tail
    fourth_moment_proxy = c.sigma0**2 * d + (c.beta + d) ** 2 / c.mu + d**2
    order4_coeff = c.L2**2 * (c.A0**4 + c.L1**4 * fourth_moment_proxy)
    order2 = c.c0 * eta**2 * order2_coeff
    order4 = c.c1 * eta**4 * order4_coeff
    return {
        "h0": c.h0,
        "entropy0": c.entropy0,
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


def kl_bound_dissipative(c: BoundConstants, eta: float, T: float, d: int) -> float:
    """KL(hat_pi_T || pi_T) bound for dissipative drifts:

        c0 eta^2 [ h0 + H0 + A0^2
                   + (sigma0^2 d + (beta + d)/mu)(sigma0^-2 + T L1^2)
                   + T L2^2 d^2 ]
        + c1 eta^4 L2^2 [ A0^4 + L1^4 (sigma0^2 d + (beta + d)^2/mu + d^2) ].
    """
    return kl_bound_dissipative_terms(c, eta, T, d)["total"]


def kl_bound_nonneg_potential_terms(c: BoundConstants, eta: float, T: float, d: int) -> dict:
    """Term decomposition of the non-negative-potential KL bound (variant 2)."""
    check_step(eta, c.L1)
    _check_horizon_dim(T, d)
    c.require("f0")
    moment_factor = c.sigma0**2 * d + c.f0 + c.L1 * T * c.sigma0**2 * (c.h0 + c.entropy0 + d)
    time_factor = c.sigma0**-2 + T * c.L1**2
    smooth_tail = T * c.L2**2 * d**2
    order2_coeff = c.A0**2 + moment_factor * time_factor + smooth_tail
    fourth_moment_proxy = (
        c.f0**2 + c.L1**2 * T**2 * c.sigma0**4 * (c.h0 + d) ** 2 + c.L1**2 * T**4 * d**2
    )
    order4_coeff = c.L2**2 * (c.A0**4 + c.L1**4 * fourth_moment_proxy)
    order2 = c.c0 * eta**2 * order2_coeff
    order4 = c.c1 * eta**4 * order4_coeff
    return {
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


def kl_bound_nonneg_potential(c: BoundConstants, eta: float, T: float, d: int) -> float:
    """KL(hat_pi_T || pi_T) bound for b = -grad f with f >= 0:

        c0 eta^2 [ A0^2
                   + (sigma0^2 d + f0 + L1 T sigma0^2 (h0 + H0 + d))
                     (sigma0^-2 + T L1^2)
                   + T L2^2 d^2 ]
        + c1 eta^4 L2^2 [ A0^4 + L1^4 (f0^2 + L1^2 T^2 sigma0^4 (h0 + d)^2
                                        + L1^2 T^4 d^2) ].
    """
    return kl_bound_nonneg_potential_terms(c, eta, T, d)["total"]


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
    tau = float(t_offset)
    if tau < 0 or (eta is not None and tau > eta * (1 + 1e-12)):
        raise InputError("t_offset must lie in [0, eta]")
    if d < 1:
        raise InputError("dimension must be positive")
    if fisher_prev < 0 or fourth_moment_prev < 0:
        raise InputError("moment inputs must be nonnegative")
    return (
        4.0 * c.L1**2 * tau**2 * fisher_prev
        + 12.0 * c.L1**4 * tau**3 * d
        + 16.0 * tau**4 * c.L2**2 * (c.A0**4 + c.L1**4 * fourth_moment_prev)
        + 48.0 * tau**2 * c.L2**2 * d**2
    )


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
    _check_horizon_dim(T, d)
    if eta <= 0:
        raise InputError("step size must be positive")
    ratio = T / eta
    if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
        raise InputError("horizon must be a positive integer multiple of eta")
    if second_moment_sup < 0 or second_moment_integral < 0:
        raise InputError("moment inputs must be nonnegative")
    return (
        32.0 * c.h0
        + 128.0 * c.A0**2 * T
        + c.entropy0
        + 32.0 * c.sigma0**-2 * second_moment_sup
        + 128.0 * c.L1**2 * second_moment_integral
        + 32.0 * eta**2 * d**2 * c.L2**2 * T
    )


def step_size_rule(eps: float, rho: float, d: int) -> float:
    """ULA step size sqrt(eps rho) / (d log(1/rho)) for KL accuracy eps under
    a log-Sobolev constant rho in (0, 1).

    rho >= 1 is rejected: log(1/rho) is then nonpositive and the rule is
    undefined; supply the step size directly in that regime.
    """
    if eps <= 0:
        raise ConfigurationError("accuracy eps must be positive")
    if d < 1 or int(d) != d:
        raise ConfigurationError("dimension must be a positive integer")
    if not 0.0 < rho < 1.0:
        raise ConfigurationError(
            "step-size rule requires rho in (0, 1); for rho >= 1 supply eta directly"
        )
    return math.sqrt(eps * rho) / (d * math.log(1.0 / rho))


@dataclass(frozen=True)
class MixingPrediction:
    steps: float
    metric: str
    note: str = LOG_FACTOR_NOTE


def mixing_time_predict(
    eps: float, rho: float, d: int, metric: str, scale_constant: float = 1.0
) -> MixingPrediction:
    """Order prediction for the first grid index with dist(hat_pi, target) <= eps:

        KL: eps^-1/2 d rho^-3/2        TV: d eps^-1 rho^-3/2
        W2: d eps^-1 rho^-5/2          W1: d^3/2 eps^-1 rho^-3/2

    scaled by scale_constant.  Polylog factors are reported in the note, not
    folded in.
    """
    if eps <= 0 or rho <= 0:
        raise ConfigurationError("eps and rho must be positive")
    if d < 1 or int(d) != d:
        raise ConfigurationError("dimension must be a positive integer")
    if scale_constant <= 0:
        raise InputError("scale_constant must be positive")
    key = metric.upper()
    if key == "KL":
        val = eps**-0.5 * d * rho**-1.5
    elif key == "TV":
        val = d * eps**-1.0 * rho**-1.5
    elif key == "W2":
        val = d * eps**-1.0 * rho**-2.5
    elif key == "W1":
        val = d**1.5 * eps**-1.0 * rho**-1.5
    else:
        raise InputError(f"unknown metric {metric!r}; choose from {MIXING_METRICS}")
    return MixingPrediction(steps=scale_constant * val, metric=key)


def moment_bound_dissipative(
    sigma0: float, p: float, d: int, mu: float, beta: float, scale_constant: float = 1.0
) -> float:
    """Root moment bound sup_t (E ||X_t||^p)^(1/p) <= C (sigma0 sqrt(p d)
    + sqrt((p + beta + d)/mu)) under dissipativity, with C = scale_constant."""
    if p < 1:
        raise InputError("moment order must be >= 1")
    if mu <= 0 or beta < 0:
        raise InputError("need mu > 0 and beta >= 0")
    if sigma0 <= 0 or d < 1:
        raise InputError("need sigma0 > 0 and d >= 1")
    if scale_constant <= 0:
        raise InputError("scale_constant must be positive")
    return scale_constant * (sigma0 * math.sqrt(p * d) + math.sqrt((p + beta + d) / mu))
