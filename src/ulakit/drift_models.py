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

from .bounds import check_dim, check_fields, power_in_range
from .errors import InputError, ModelError
from .gaussian_analytics import LinearDrift

Array = np.ndarray

# Ball on which built-in L1/L2 constants are certified (and sampled-pair
# verification is run).
CERT_RADIUS = 10.0

# The shell radii (0.25 to 8, and 1) on which dissipativity_fit witnesses
# beta, the random directions it samples on each shell and its outer shell's
# radius; grad_check's central-difference step.
FIT_RADII = np.unique(np.concatenate([np.geomspace(0.25, 8.0, 12), [1.0]]))
FIT_DIRECTIONS = 16
OUTER_RADIUS = 64.0
FD_STEP = 1e-5


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

    ``drift`` and ``jacobian`` map arrays of shape (..., dim) row by row:
    ``drift`` to arrays of the same shape, ``jacobian`` to (..., dim, dim),
    each row bit for bit what that point gives alone, so a chain keeps its
    path at any chain count and a checked stack is its one-point calls.
    Both are deterministic pure functions; models are immutable and safe to
    share.
    """

    name: str
    dim: int
    drift: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    constants: SmoothnessCert
    params: dict = field(default_factory=dict)
    linear: Optional[LinearDrift] = None


def _as_points(x, dim: int) -> Array:
    """x as a checked point, shape (dim,), or stack of points, shape (n, dim)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 and dim == 1:
        arr = arr.reshape(1)
    if arr.ndim not in (1, 2) or arr.shape[-1] != dim:
        raise InputError(f"expected a point of dimension {dim} or a stack of them, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("point must be finite")
    return arr


def _checked(model: DriftModel, kind: str, xp: Array) -> Array:
    """b (kind "drift") or its Jacobian (kind "jacobian") at the checked point
    or stack xp, as one call, its output checked for shape and finiteness.

    A non-finite output names the first point, in stack order, whose row is
    not finite; every row is that point's own call.
    """
    fn, tail = (model.drift, (model.dim,)) if kind == "drift" else (model.jacobian, (model.dim, model.dim))
    out = np.asarray(fn(xp), dtype=float)
    want = xp.shape[:-1] + tail
    if out.shape != want:
        raise ModelError(f"{kind} returned shape {out.shape}, expected {want}")
    if not np.isfinite(out).all():
        first = np.argmin(np.isfinite(out.reshape(-1, math.prod(tail))).all(axis=1))
        raise ModelError(f"{kind} returned non-finite values at {xp.reshape(-1, model.dim)[first].tolist()}")
    return out


def drift_eval(model: DriftModel, x) -> Array:
    """b at a point, shape (dim,), or at each point of a stack, shape
    (n, dim), checked for shape and finiteness.  A stack's rows equal the
    one-point calls bit for bit."""
    return _checked(model, "drift", _as_points(x, model.dim))


def drift_jacobian(model: DriftModel, x) -> Array:
    """The Jacobian of b at a point, shape (dim, dim), or at each point of a
    stack, shape (n, dim, dim), checked as drift_eval checks b."""
    return _checked(model, "jacobian", _as_points(x, model.dim))


def _row_dots(v: Array) -> Array:
    """v_i . v_i for each row v_i of v, each as one point's own dot product."""
    return (v[:, None, :] @ v[:, :, None]).ravel()


def lipschitz_ratios(model: DriftModel, xs, ys) -> tuple[float, float]:
    """The largest ||b(x) - b(y)|| / ||x - y|| and ||Jb(x) - Jb(y)||_2 / ||x - y||
    over the pairs of rows (x, y) of xs and ys with x != y; 0 without any.

    The points are checked once, as a batch.  b on the xs, b on the ys, then
    the Jacobian on each are evaluated as one stack apiece, in that order, so
    a ModelError names the first failing point of the first failing stack.
    A gap or ratio outside the float range is an InputError.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.dim or xs.shape != ys.shape:
        raise InputError(f"expected two (n, {model.dim}) point arrays, got shapes {xs.shape} and {ys.shape}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InputError("point must be finite")
    with np.errstate(over="ignore"):
        gaps = np.sqrt(_row_dots(xs - ys))
    apart = gaps != 0.0
    xs, ys, gaps = xs[apart], ys[apart], gaps[apart]
    if not gaps.size:
        return 0.0, 0.0
    bx, by = drift_eval(model, xs), drift_eval(model, ys)
    jx, jy = drift_jacobian(model, xs), drift_jacobian(model, ys)
    with np.errstate(over="ignore", invalid="ignore"):
        # One LAPACK singular-value call per matrix, as np.linalg.norm(dj, 2) makes.
        ratios = np.array([np.max(np.sqrt(_row_dots(bx - by)) / gaps),
                           np.max(np.linalg.norm(jx - jy, 2, axis=(1, 2)) / gaps)])
    if not (np.isfinite(gaps).all() and np.isfinite(ratios).all()):
        raise InputError("the Lipschitz ratios leave the float range for this model")
    return float(ratios[0]), float(ratios[1])


def grad_check(model: DriftModel, x) -> float:
    """Max relative disagreement between the declared Jacobian and central
    differences of the drift with step FD_STEP, max_ij |FD_ij - J_ij| / (1 + |J_ij|),
    at a point or over every point of a stack.

    The Jacobians, then b at every x + FD_STEP e_i, then at every
    x - FD_STEP e_i, are evaluated as one stack apiece, in that order, so a
    ModelError names the first failing point of the first failing stack.
    """
    pts = _as_points(x, model.dim).reshape(-1, model.dim)
    steps = FD_STEP * np.eye(model.dim)
    plus, minus = pts[:, None, :] + steps, pts[:, None, :] - steps
    J = drift_jacobian(model, pts)
    diff = drift_eval(model, plus.reshape(-1, model.dim)) - drift_eval(model, minus.reshape(-1, model.dim))
    # Row i of each point's block, b(x + FD_STEP e_i) - b(x - FD_STEP e_i), is column i of FD.
    fd = (diff / (2.0 * FD_STEP)).reshape(-1, model.dim, model.dim).swapaxes(1, 2)
    return float(np.max(np.abs(fd - J) / (1.0 + np.abs(J)), initial=0.0))


def _polish_beta(model: DriftModel, mu: float, starts: Array, r_max: float) -> float:
    """Sharpen the sampled beta by gradient ascent on
    g(x) = <b(x), x> + mu ||x||^2 from the best sampled points, projected to
    the sampled ball.  Uses grad g = b(x) + Jb(x)^T x + 2 mu x.  The result
    is at least g at every start: a step is taken only when it raises g."""
    def g(x):
        return float(model.drift(x) @ x + mu * (x @ x))

    best = -math.inf
    for start in starts:
        x = np.array(start, dtype=float)
        val = g(x)
        step = 0.1 * (1.0 + math.sqrt(x.dot(x)))
        for _ in range(200):
            grad = model.drift(x) + model.jacobian(x).T @ x + 2.0 * mu * x
            norm = math.sqrt(grad.dot(grad))
            if norm < 1e-13 or step < 1e-13:
                break
            cand = x + step * grad / norm
            r = math.sqrt(cand.dot(cand))
            if r > r_max:
                cand = cand * (r_max / r)
            cval = g(cand)
            if cval > val:
                x, val = cand, cval
                step *= 1.5
            else:
                step *= 0.5
        best = max(best, val)
    return best


def dissipativity_fit(model: DriftModel, seed: int = 0) -> Optional[tuple[float, float]]:
    """(beta, outer_g) at the declared rate mu, g(x) = <b(x), x> + mu ||x||^2
    sampled on shells of FIT_DIRECTIONS random directions each: beta is the
    largest g on the shells of radius FIT_RADII, sharpened by a local ascent
    from the three best points within the largest of them and clamped at
    g(0) = 0; outer_g is the largest g on a shell of radius OUTER_RADIUS, with
    no ascent, which grows when the declared mu is too large.  None when the
    model declares no pair.
    """
    if model.constants.dissipativity is None:
        return None
    mu = model.constants.mu
    shells = np.append(FIT_RADII, OUTER_RADIUS)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((shells.size, FIT_DIRECTIONS, model.dim))
    raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
    points = shells[:, None, None] * raw
    g = np.sum(model.drift(points) * points, axis=-1) + mu * shells[:, None] ** 2
    top = points[:-1].reshape(-1, model.dim)[np.argsort(g[:-1].reshape(-1))[-3:]]
    return max(0.0, _polish_beta(model, mu, top, float(FIT_RADII[-1]))), float(g[-1].max())


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
            # Each point's own product: a gemm's rounding of a row depends on the row count.
            return (np.asarray(x, dtype=float)[..., None, :] @ A.T)[..., 0, :] + c

    def jacobian(x):
        return np.broadcast_to(A, np.shape(x)[:-1] + A.shape).copy()

    cert = SmoothnessCert(L1=float(np.max(np.abs(w))), L2=0.0, A0=a0, **pair)
    return DriftModel(name, linear.dim, drift, jacobian, cert, params, linear)


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
        r2 = np.sum(x * x, axis=-1)[..., None, None]
        return -0.5 * ((r2 - 1.0) * np.eye(dim) + 2.0 * (x[..., :, None] * x[..., None, :]))

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
    (mu, beta) = (1/4, ||a||^2/4).  A separation whose ||a||^2 or L2 leaves
    the float range is an InputError.
    """
    dim = check_dim(dim)
    if not separation > 0:
        raise InputError("separation must be positive")
    a = float(separation) * np.ones(dim)
    a.setflags(write=False)

    with np.errstate(over="ignore"):
        a2 = float(a @ a)
    if not math.isfinite(a2):
        raise InputError("gauss-mix separation leaves the float range for these inputs")
    l2 = power_in_range("gauss-mix separation", lambda: (2.0 / (3.0 * math.sqrt(3.0))) * a2**1.5)

    def drift(x):
        x = np.asarray(x, dtype=float)
        # Each point's own dot product: a gemv's rounding of a row depends on the row count.
        return 0.5 * (-x + np.tanh((x[..., None, :] @ a)[..., 0])[..., None] * a)

    def jacobian(x):
        t = np.tanh((np.asarray(x, dtype=float)[..., None, :] @ a)[..., 0])
        return 0.5 * (-np.eye(dim) + (1.0 - t * t)[..., None, None] * np.outer(a, a))

    return DriftModel(
        name="gauss-mix",
        dim=dim,
        drift=drift,
        jacobian=jacobian,
        constants=SmoothnessCert(
            L1=max(0.5, 0.5 * (a2 - 1.0)),
            L2=l2,
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
