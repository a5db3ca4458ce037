"""Drift fields for dX_t = b(X_t) dt + dB_t, with machine-checkable certificates.

A model bundles the drift b, its Jacobian, and declared constants: a
Lipschitz bound L1 on b, a Lipschitz bound L2 on the Jacobian, the drift
magnitude A0 = ||b(0)||, and optionally distant-dissipativity constants
(mu, beta) certifying <b(x), x> <= -mu ||x||^2 + beta.

Built-in models ship analytic constants; the linear ones (zero, ou,
expansive) derive theirs from the spectrum of A.  The polynomially growing
drifts are not globally Lipschitz, so their L1/L2 are certified on the ball
||x|| <= CERT_RADIUS; dissipativity constants are global where declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import check_dim, check_fields
from .errors import InputError, ModelError
from .gaussian_analytics import LinearDrift

Array = np.ndarray

# Ball on which built-in L1/L2 constants are certified (and sampled-pair
# verification is run).
CERT_RADIUS = 10.0

# Candidate dissipativity rates tried by dissipativity_fit, and the random
# directions it samples on each shell.
MU_LADDER = tuple(2.0**k for k in range(-10, 4))
FIT_DIRECTIONS = 16


@dataclass(frozen=True)
class SmoothnessCert:
    """Declared constants for a drift field.

    L1 bounds ||b(x) - b(y)|| / ||x - y||, L2 bounds the operator-norm
    Lipschitz constant of the Jacobian, A0 = ||b(0)||.  mu/beta, when
    present, certify <b(x), x> <= -mu ||x||^2 + beta.
    """

    L1: float
    L2: float
    A0: float
    mu: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        check_fields(self, "nonnegative", "L1", "L2", "A0", "beta")
        check_fields(self, "positive", "mu")
        if (self.mu is None) != (self.beta is None):
            raise InputError("mu and beta must be declared together")

    @property
    def dissipativity(self) -> Optional[tuple[float, float]]:
        if self.mu is None:
            return None
        return (self.mu, self.beta)


@dataclass(frozen=True)
class DriftModel:
    """A drift field with derivatives and certificate.

    ``drift`` must broadcast over leading axes: it maps arrays of shape
    (..., dim) to arrays of the same shape (ensemble code relies on this).
    ``jacobian`` acts on single points.  Both are deterministic pure
    functions; models are immutable and safe to share.
    """

    name: str
    dim: int
    drift: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    constants: SmoothnessCert
    params: dict = field(default_factory=dict)
    linear: Optional[LinearDrift] = None


def _as_point(x, dim: int) -> Array:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 and dim == 1:
        arr = arr.reshape(1)
    if arr.shape != (dim,):
        raise InputError(f"expected a point of dimension {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("point must be finite")
    return arr


def drift_eval(model: DriftModel, x) -> Array:
    """Evaluate b(x) at a single point, validating shape and finiteness."""
    xp = _as_point(x, model.dim)
    out = np.asarray(model.drift(xp), dtype=float)
    if out.shape != (model.dim,):
        raise ModelError(f"drift returned shape {out.shape}, expected ({model.dim},)")
    if not np.all(np.isfinite(out)):
        raise ModelError(f"drift returned non-finite values at {xp.tolist()}")
    return out


def drift_jacobian(model: DriftModel, x) -> Array:
    """Evaluate the Jacobian of b at a single point."""
    xp = _as_point(x, model.dim)
    out = np.asarray(model.jacobian(xp), dtype=float)
    if out.shape != (model.dim, model.dim):
        raise ModelError(f"jacobian returned shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ModelError(f"jacobian returned non-finite values at {xp.tolist()}")
    return out


def grad_check(model: DriftModel, x, h: float) -> float:
    """Max relative disagreement between the declared Jacobian and central
    differences of the drift: max_ij |FD_ij - J_ij| / (1 + |J_ij|)."""
    if h <= 0:
        raise InputError("finite-difference step must be positive")
    xp = _as_point(x, model.dim)
    J = drift_jacobian(model, xp)
    worst = 0.0
    for i in range(model.dim):
        e = np.zeros(model.dim)
        e[i] = h
        fd = (drift_eval(model, xp + e) - drift_eval(model, xp - e)) / (2.0 * h)
        col = J[:, i]
        worst = max(worst, float(np.max(np.abs(fd - col) / (1.0 + np.abs(col)))))
    return worst


def _polish_beta(model: DriftModel, mu: float, starts: Array, r_max: float) -> float:
    """Sharpen the sampled beta by gradient ascent on
    g(x) = <b(x), x> + mu ||x||^2 from the best sampled points, projected to
    the sampled ball.  Uses grad g = b(x) + Jb(x)^T x + 2 mu x."""
    best = -math.inf
    for start in starts:
        x = np.array(start, dtype=float)
        val = float(model.drift(x) @ x + mu * (x @ x))
        step = 0.1 * (1.0 + float(np.linalg.norm(x)))
        for _ in range(200):
            grad = model.drift(x) + model.jacobian(x).T @ x + 2.0 * mu * x
            norm = float(np.linalg.norm(grad))
            if norm < 1e-13 or step < 1e-13:
                break
            cand = x + step * grad / norm
            r = float(np.linalg.norm(cand))
            if r > r_max:
                cand = cand * (r_max / r)
            cval = float(model.drift(cand) @ cand + mu * (cand @ cand))
            if cval > val:
                x, val = cand, cval
                step *= 1.5
            else:
                step *= 0.5
        best = max(best, val)
    return best


def dissipativity_fit(model: DriftModel, radius_grid, seed: int = 0) -> Optional[tuple[float, float]]:
    """Fit (mu, beta) with <b(x), x> <= -mu ||x||^2 + beta on sampled shells
    of FIT_DIRECTIONS random directions each.

    On a finite sample any mu admits some beta, so candidate rates are
    screened by a tail test: the per-radius maximum of
    g(x) = <b(x), x> + mu ||x||^2 must not keep growing at the outer radii.
    For tail-feasible rates, beta is the sampled maximum of g sharpened by a
    local ascent (so the pair holds on fresh points inside the sampled
    ball, not just at the sampled ones).  Among feasible rates the largest
    mu with beta <= mu is preferred (a balanced certificate); if no rate
    balances, the largest tail-feasible mu is returned with its minimal
    beta.  Returns None when no ladder rate passes (expansive drifts).
    """
    radii = np.asarray(sorted(float(r) for r in np.atleast_1d(radius_grid)), dtype=float)
    if radii.size == 0 or radii.min() <= 0:
        raise InputError("radius grid must be nonempty with positive radii")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((radii.size, FIT_DIRECTIONS, model.dim))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    points = radii[:, None, None] * raw
    inner = np.sum(model.drift(points) * points, axis=-1)
    r2 = radii**2
    flat_pts = points.reshape(-1, model.dim)
    fallback = None
    for mu in sorted(MU_LADDER, reverse=True):
        g = inner + mu * r2[:, None]
        per_radius = g.max(axis=1)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(per_radius))))
        if radii.size >= 2:
            tail_ok = per_radius[-1] <= per_radius[:-1].max() + tol
            tail_ok = tail_ok and per_radius[-1] <= per_radius[-2] + tol
        else:
            tail_ok = True
        if not tail_ok:
            continue
        top = flat_pts[np.argsort(g.reshape(-1))[-3:]]
        beta = max(0.0, _polish_beta(model, mu, top, float(radii[-1])))
        if beta <= mu * (1 + 1e-9) + 1e-12:
            return (mu, beta)
        if fallback is None:
            fallback = (mu, beta)
    return fallback


class InitCertificate(NamedTuple):
    h0: float
    sigma: float


def verify_init(density) -> InitCertificate:
    """Quadratic-tail certificate (h0, sigma') for an isotropic Gaussian init.

    Guarantees -log pi0(x) <= h0 + ||x||^2 / sigma'^2 with
    h0 = (d/2) log(2 pi sigma0^2) + ||m0||^2 / sigma0^2.  For centered
    initializations the bound is tight with sigma' = sigma0 sqrt(2); for
    off-center ones the split ||x - m0||^2 <= 2||x||^2 + 2||m0||^2 yields
    sigma' = sigma0.
    """
    # The init's own h0 (through InitDensity.variance, which raises
    # InputError when sigma0^2 leaves the float range).
    h0 = getattr(density, "h0", None)
    if h0 is None:
        raise InputError("only isotropic Gaussian initializations are supported")
    s = density.sigma0
    sigma = s * math.sqrt(2.0) if not np.any(density.mean != 0.0) else s
    return InitCertificate(h0=h0, sigma=sigma)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _linear_model(name: str, linear: LinearDrift, params: dict) -> DriftModel:
    """The registry model of the linear drift b(x) = A x + c.

    Its certificate comes from the spectrum w of A: L1 = max |w|, L2 = 0,
    A0 = ||c||, and, when A is negative definite with s = -max w, the pair
    (mu, beta) = (s, 0) without an offset, (s/2, ||c||^2/(2 s)) with one.
    """
    A, c = linear.A, linear.c
    w = np.linalg.eigvalsh(A)
    a0 = float(np.linalg.norm(c))
    pair = {}
    if w.max() < 0:
        slow = float(-w.max())
        pair = {"mu": slow, "beta": 0.0} if a0 == 0.0 else {"mu": slow / 2.0, "beta": a0**2 / (2.0 * slow)}
    if linear.dim == 1:
        # x @ A.T + c is (0.0 + x a) + c, which is bitwise x a + (c + 0.0):
        # the scalar form, without the matmul and the broadcast add over a
        # length-1 axis.
        a, c0 = float(A[0, 0]), float(c[0]) + 0.0

        def drift(x):
            return np.asarray(x, dtype=float) * a + c0
    else:
        def drift(x):
            return np.asarray(x, dtype=float) @ A.T + c
    cert = SmoothnessCert(L1=float(np.max(np.abs(w))), L2=0.0, A0=a0, **pair)
    return DriftModel(name, linear.dim, drift, lambda x: A.copy(), cert, params, linear)


def zero_drift(dim: int = 1) -> DriftModel:
    """b(x) = 0: pure Brownian motion, discretized exactly by forward Euler."""
    dim = check_dim(dim)
    return _linear_model("zero", LinearDrift(np.zeros((dim, dim)), np.zeros(dim)), {"dim": dim})


def ou_drift(dim: int | None = None, matrix=None, offset=None, rate: float | None = None) -> DriftModel:
    """Linear drift b(x) = A x + c with A symmetric negative definite.

    Defaults to A = -rate I (rate 1); a given matrix takes no rate, and a
    dim given with it must be its size.  This is the drift -grad(U)/2 of the
    Gaussian target with potential U(x) = x^T (-A) x - 2 c^T x (up to
    constants), and the one model family on which every quantity here has a
    closed form.
    """
    if matrix is None:
        if dim is None:
            raise InputError("ou model needs either dim or an explicit matrix")
        dim = check_dim(dim)
        rate = 1.0 if rate is None else rate
        if rate <= 0:
            raise InputError("rate must be positive")
        matrix = -float(rate) * np.eye(dim)
    elif rate is not None:
        raise InputError("ou model takes rate or matrix, not both")
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    linear = LinearDrift(A, np.zeros(len(A)) if offset is None else offset)
    if dim is not None and dim != linear.dim:
        raise InputError(f"ou dim {dim} differs from the matrix size {linear.dim}")
    params = {"dim": linear.dim, "matrix": linear.A.tolist(), "offset": linear.c.tolist()}
    model = _linear_model("ou", linear, params)
    if model.constants.dissipativity is None:
        raise InputError("ou matrix must be negative definite")
    return model


def double_well_drift(dim: int = 1) -> DriftModel:
    """b(x) = -x (||x||^2 - 1)/2 = -grad f with f(x) = (||x||^2 - 1)^2 / 8.

    Non-convex with wells on the unit sphere.  Dissipativity holds globally
    with (mu, beta) = (1/2, 1/2) (equality on the unit sphere); L1/L2 are
    ball-certified since the drift grows cubically.
    """
    dim = check_dim(dim)

    def drift(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1, keepdims=True)
        return -0.5 * x * (r2 - 1.0)

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return -0.5 * ((r2 - 1.0) * np.eye(dim) + 2.0 * np.outer(x, x))

    R = CERT_RADIUS
    return DriftModel(
        name="double-well",
        dim=dim,
        drift=drift,
        jacobian=jacobian,
        constants=SmoothnessCert(
            L1=0.5 * (3.0 * R * R - 1.0),
            L2=3.0 * R,
            A0=0.0,
            mu=0.5,
            beta=0.5,
        ),
        params={"dim": dim},
    )


def gaussian_mixture_drift(dim: int = 1, separation: float = 1.5) -> DriftModel:
    """Score drift of a symmetric two-component Gaussian mixture.

    With a = separation * ones(d) and target density proportional to
    N(-a, I)/2 + N(a, I)/2, the drift is b(x) = (-x + a tanh(a.x))/2:
    globally Lipschitz, non-log-concave between the modes, dissipative with
    (mu, beta) = (1/4, ||a||^2/4).
    """
    dim = check_dim(dim)
    if separation <= 0:
        raise InputError("separation must be positive")
    a = float(separation) * np.ones(dim)
    a.setflags(write=False)
    a2 = float(a @ a)

    def drift(x):
        x = np.asarray(x, dtype=float)
        s = x @ a
        return 0.5 * (-x + np.tanh(s)[..., None] * a)

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        t = math.tanh(float(x @ a))
        return 0.5 * (-np.eye(dim) + (1.0 - t * t) * np.outer(a, a))

    return DriftModel(
        name="gauss-mix",
        dim=dim,
        drift=drift,
        jacobian=jacobian,
        constants=SmoothnessCert(
            L1=max(0.5, 0.5 * (a2 - 1.0)),
            L2=(2.0 / (3.0 * math.sqrt(3.0))) * a2**1.5,
            A0=0.0,
            mu=0.25,
            beta=a2 / 4.0,
        ),
        params={"dim": dim, "separation": float(separation)},
    )


def expansive_drift(dim: int = 1, rate: float = 1.0) -> DriftModel:
    """b(x) = rate * x: outward drift violating every dissipativity pair.

    Counterexample model: chains blow up like e^{rate * t} and trip the
    divergence guard; kept in the registry so failure paths are exercisable.
    """
    dim = check_dim(dim)
    if rate <= 0:
        raise InputError("rate must be positive")
    r = float(rate)
    return _linear_model("expansive", LinearDrift(r * np.eye(dim), np.zeros(dim)), {"dim": dim, "rate": r})


_BUILDERS = {
    "zero": zero_drift,
    "ou": ou_drift,
    "double-well": double_well_drift,
    "gauss-mix": gaussian_mixture_drift,
    "expansive": expansive_drift,
}


def registered_models() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def make_model(name: str, **params) -> DriftModel:
    """Build a registry model by name ("zero", "ou", "double-well",
    "gauss-mix", "expansive") with its parameter map."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(
            f"unknown model {name!r}; registered: {', '.join(registered_models())}"
        ) from None
    return builder(**params)
