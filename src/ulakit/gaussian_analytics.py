"""Exact Gaussian moment propagation and closed-form divergences.

For a linear drift b(x) = A x + c with symmetric A, the SDE
dX_t = b(X_t) dt + dB_t keeps Gaussian marginals Gaussian, and so does the
forward-Euler chain X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k.  This module
propagates (mean, covariance) exactly along both, which makes every rate
claim checkable without Monte Carlo error: the mean solves m' = A m + c and
the covariance solves the Lyapunov ODE S' = A S + S A^T + I, both in closed
form in the eigenbasis of A.

Also provides closed-form KL, 2-Wasserstein, total variation (1D), entropy,
and Fisher information for Gaussian measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedError

_SYM_TOL = 1e-12
_EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and symmetric positive-definite covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise InputError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise InputError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InputError("moments must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > _SYM_TOL * scale:
            raise InputError("covariance must be symmetric within 1e-12")
        cov = 0.5 * (cov + cov.T)
        if float(np.linalg.eigvalsh(cov).min()) <= 0.0:
            raise InputError("covariance must be positive definite")
        mean = mean.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "GaussianMoments":
        return GaussianMoments(np.asarray(d["mean"], float), np.asarray(d["cov"], float))


@dataclass(frozen=True)
class LinearDrift:
    """Affine drift b(x) = A x + c with symmetric A.

    Symmetry is required so the moment ODEs decouple in the eigenbasis of A
    and admit exact solutions.  Non-symmetric drifts are served by the
    oracle-grade integrator :func:`moment_ode_rk4` instead.
    """

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("A must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(A))))
        if float(np.max(np.abs(A - A.T))) > _SYM_TOL * scale:
            raise UnsupportedError("closed forms require symmetric A; see moment_ode_rk4")
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.shape != (A.shape[0],):
            raise InputError("offset dimension does not match A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(c))):
            raise InputError("drift coefficients must be finite")
        A = 0.5 * (A + A.T)
        A.setflags(write=False)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.size


def _phi(a: np.ndarray, t: float) -> np.ndarray:
    """(exp(a t) - 1) / a, with the a -> 0 limit t."""
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape, t, dtype=float)
    nz = np.abs(a) > 1e-14
    out[nz] = np.expm1(a[nz] * t) / a[nz]
    return out


def continuous_moments_linear(drift: LinearDrift, init: GaussianMoments, t: float) -> GaussianMoments:
    """Exact marginal moments of the diffusion at time t >= 0.

    In the eigenbasis of A the mean solves m' = w m + c coordinate-wise and
    the covariance solves S' = w_i S + S w_j + I entry-wise, so

        m_i(t) = e^{w_i t} m_i(0) + c_i (e^{w_i t} - 1)/w_i
        S_ij(t) = e^{(w_i+w_j) t} S_ij(0) + delta_ij (e^{2 w_i t} - 1)/(2 w_i)

    with the obvious limits for zero eigenvalues (heat flow adds t I).
    """
    if drift.dim != init.dim:
        raise InputError("drift and init dimensions differ")
    if t < 0:
        raise InputError("time must be nonnegative")
    w, Q = np.linalg.eigh(drift.A)
    m_q = Q.T @ init.mean
    c_q = Q.T @ drift.c
    S_q = Q.T @ init.cov @ Q
    e_wt = np.exp(w * t)
    mean_q = e_wt * m_q + _phi(w, t) * c_q
    pair = w[:, None] + w[None, :]
    S_t = np.exp(pair * t) * S_q + np.diag(_phi(2.0 * w, t))
    mean = Q @ mean_q
    cov = Q @ S_t @ Q.T
    return GaussianMoments(mean, 0.5 * (cov + cov.T))


def em_moment_steps(drift: LinearDrift, init: GaussianMoments, eta: float):
    """Endless iterator over the forward-Euler moments (m_k, S_k), k = 1, 2, ...:
    m <- (I + eta A) m + eta c and S <- (I + eta A) S (I + eta A)^T + eta I."""
    if drift.dim != init.dim:
        raise InputError("drift and init dimensions differ")
    if eta <= 0:
        raise InputError("step size must be positive")
    M = np.eye(drift.dim) + eta * drift.A
    step_cov = eta * np.eye(drift.dim)

    def steps():
        m, S = init.mean, init.cov
        while True:
            m = M @ m + eta * drift.c
            S = M @ S @ M.T + step_cov
            yield m, S

    return steps()


def em_moments_linear(drift: LinearDrift, init: GaussianMoments, eta: float, k: int) -> GaussianMoments:
    """Moments after k forward-Euler steps (see em_moment_steps)."""
    steps = em_moment_steps(drift, init, eta)
    if k < 0 or int(k) != k:
        raise InputError("step count must be a nonnegative integer")
    m, S = init.mean, init.cov
    for m, S in itertools.islice(steps, int(k)):
        pass
    return GaussianMoments(m, 0.5 * (S + S.T))


def interp_moments_linear(
    drift: LinearDrift, grid_moments: GaussianMoments, tau: float, eta: float | None = None
) -> GaussianMoments:
    """Moments of X + tau b(X) + sqrt(tau) xi for X ~ grid_moments.

    This is the within-step bridge that freezes the drift at its grid value;
    at tau = eta it lands exactly on the next forward-Euler marginal.
    """
    if tau < 0 or (eta is not None and tau > eta * (1 + 1e-12)):
        raise InputError("interpolation offset must lie in [0, eta]")
    if drift.dim != grid_moments.dim:
        raise InputError("drift and moments dimensions differ")
    d = drift.dim
    J = np.eye(d) + tau * drift.A
    mean = J @ grid_moments.mean + tau * drift.c
    cov = J @ grid_moments.cov @ J.T + tau * np.eye(d)
    return GaussianMoments(mean, 0.5 * (cov + cov.T))


def moment_ode_rk4(
    A: np.ndarray, c: np.ndarray, init: GaussianMoments, t: float, n_steps: int = 1000
) -> GaussianMoments:
    """RK4 integration of m' = A m + c and S' = A S + S A^T + I.

    Oracle-grade fallback (not closed form) for general square A; accuracy is
    O((t/n_steps)^4).  Used for cross-checks and for non-symmetric drifts.
    """
    A = np.atleast_2d(np.asarray(A, float))
    c = np.atleast_1d(np.asarray(c, float))
    d = c.size
    if A.shape != (d, d) or init.dim != d:
        raise InputError("inconsistent dimensions")
    if t < 0 or n_steps < 1:
        raise InputError("need t >= 0 and n_steps >= 1")
    h = t / n_steps
    eye = np.eye(d)
    m = init.mean.copy()
    S = init.cov.copy()

    def f(state):
        m_, S_ = state
        return A @ m_ + c, A @ S_ + S_ @ A.T + eye

    for _ in range(n_steps):
        k1 = f((m, S))
        k2 = f((m + 0.5 * h * k1[0], S + 0.5 * h * k1[1]))
        k3 = f((m + 0.5 * h * k2[0], S + 0.5 * h * k2[1]))
        k4 = f((m + h * k3[0], S + h * k3[1]))
        m = m + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        S = S + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return GaussianMoments(m, 0.5 * (S + S.T))


def kl_gaussian(p: GaussianMoments, q: GaussianMoments) -> float:
    """KL(p || q) = (tr(Sq^-1 Sp) + dm^T Sq^-1 dm - d + ln det Sq - ln det Sp)/2."""
    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    if np.array_equal(p.mean, q.mean) and np.array_equal(p.cov, q.cov):
        return 0.0
    d = p.dim
    try:
        trace = float(np.trace(np.linalg.solve(q.cov, p.cov)))
        dm = q.mean - p.mean
        quad = float(dm @ np.linalg.solve(q.cov, dm))
    except np.linalg.LinAlgError as exc:
        raise InputError("singular covariance") from exc
    _, logdet_p = np.linalg.slogdet(p.cov)
    _, logdet_q = np.linalg.slogdet(q.cov)
    val = 0.5 * (trace + quad - d + float(logdet_q) - float(logdet_p))
    return max(val, 0.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, Q = np.linalg.eigh(mat)
    w = np.maximum(w, _EIG_FLOOR)
    return (Q * np.sqrt(w)) @ Q.T


def w2_gaussian(p: GaussianMoments, q: GaussianMoments) -> float:
    """2-Wasserstein distance between Gaussians (Bures metric on covariances)."""
    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    sq = _psd_sqrt(q.cov)
    cross = _psd_sqrt(sq @ p.cov @ sq)
    trace_term = float(np.trace(p.cov) + np.trace(q.cov) - 2.0 * np.trace(cross))
    dm = p.mean - q.mean
    return math.sqrt(max(float(dm @ dm) + max(trace_term, 0.0), 0.0))


def fisher_info_gaussian(p: GaussianMoments) -> float:
    """Score energy int p ||grad log p||^2 of a Gaussian, which is tr(Sigma^-1)."""
    w = np.linalg.eigvalsh(p.cov)
    if w.min() <= 0:
        raise InputError("singular covariance")
    return float(np.sum(1.0 / w))


def entropy_gaussian(p: GaussianMoments) -> float:
    """Differential entropy (d/2)(1 + ln 2 pi) + (1/2) ln det Sigma."""
    sign, logdet = np.linalg.slogdet(p.cov)
    if sign <= 0:
        raise InputError("singular covariance")
    return 0.5 * p.dim * (1.0 + math.log(2.0 * math.pi)) + 0.5 * float(logdet)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def tv_gaussian_1d(p: GaussianMoments, q: GaussianMoments) -> float:
    """Exact total variation between two 1D Gaussians.

    The density log-ratio is quadratic, so |p - q| integrates in closed form
    through the (at most two) crossing points via the normal CDF.
    """
    if p.dim != 1 or q.dim != 1:
        raise UnsupportedError("closed-form TV implemented for 1D only")
    m1 = float(p.mean[0])
    m2 = float(q.mean[0])
    s1 = math.sqrt(float(p.cov[0, 0]))
    s2 = math.sqrt(float(q.cov[0, 0]))
    if m1 == m2 and s1 == s2:
        return 0.0
    a = 0.5 / s2**2 - 0.5 / s1**2
    b = m1 / s1**2 - m2 / s2**2
    cc = m2**2 / (2 * s2**2) - m1**2 / (2 * s1**2) + math.log(s2 / s1)
    if abs(a) < 1e-300:
        roots = [] if b == 0 else [-cc / b]
    else:
        disc = b * b - 4 * a * cc
        if disc <= 0:
            roots = [-b / (2 * a)]
        else:
            r = math.sqrt(disc)
            roots = sorted([(-b - r) / (2 * a), (-b + r) / (2 * a)])
    cuts = [-math.inf] + roots + [math.inf]

    def cdfs(x):
        if x == -math.inf:
            return 0.0, 0.0
        if x == math.inf:
            return 1.0, 1.0
        return _norm_cdf((x - m1) / s1), _norm_cdf((x - m2) / s2)

    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        fp_lo, fq_lo = cdfs(lo)
        fp_hi, fq_hi = cdfs(hi)
        total += abs((fp_hi - fp_lo) - (fq_hi - fq_lo))
    return 0.5 * total
