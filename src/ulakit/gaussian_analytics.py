"""Exact Gaussian moment propagation and closed-form divergences.

For a linear drift b(x) = A x + c with symmetric A, the SDE
dX_t = b(X_t) dt + dB_t keeps Gaussian marginals Gaussian, and so does the
forward-Euler chain X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k.  This module
propagates (mean, covariance) exactly along both, which makes every rate
claim checkable without Monte Carlo error: the mean solves m' = A m + c and
the covariance solves the Lyapunov ODE S' = A S + S A^T + I, both in closed
form in the eigenbasis of A.  The chain is closed-form there too: each mode
is scaled by 1 + eta w per step, so k steps cost O(d^3) whatever k is.

Also provides closed-form KL (through the whitened covariance's eigenvalues,
free of cancellation), 2-Wasserstein and total variation (1D) for Gaussian
measures, and KL / W2 / TV kernels for Gaussians with diagonal covariances
that evaluate whole arrays of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import check_count, check_step
from .errors import InputError

_SYM_TOL = 1e-12
_EIG_FLOOR = 1e-14


def _symmetrized(M: np.ndarray, message: str) -> np.ndarray:
    """0.5 (M + M^T), once M is symmetric within _SYM_TOL times its largest
    entry (at least 1); InputError(message) when it is not."""
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > _SYM_TOL * scale:
        raise InputError(message)
    return 0.5 * (M + M.T)


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
        cov = _symmetrized(cov, "covariance must be symmetric within 1e-12")
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


@dataclass(frozen=True)
class LinearDrift:
    """Affine drift b(x) = A x + c with symmetric A.

    Symmetry is required so the moment ODEs decouple in the eigenbasis of A
    and admit exact solutions.
    """

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("A must be a square matrix")
        A = _symmetrized(A, "closed forms require symmetric A")
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.shape != (A.shape[0],):
            raise InputError("offset dimension does not match A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(c))):
            raise InputError("drift coefficients must be finite")
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


def _eigenbasis_map(drift: LinearDrift, init: GaussianMoments, modes) -> GaussianMoments:
    """The Gaussian map m -> s m + g c, S -> P * S + diag(v) in the
    eigenbasis of A, where modes(w) gives (s, g, P, v) for A's eigenvalues w."""
    if drift.dim != init.dim:
        raise InputError("drift and init dimensions differ")
    w, Q = np.linalg.eigh(drift.A)
    scale, gain, cov_scale, noise = modes(w)
    mean_q = scale * (Q.T @ init.mean) + gain * (Q.T @ drift.c)
    S_q = cov_scale * (Q.T @ init.cov @ Q) + np.diag(noise)
    return GaussianMoments(Q @ mean_q, Q @ S_q @ Q.T)


def continuous_moments_linear(drift: LinearDrift, init: GaussianMoments, t: float) -> GaussianMoments:
    """Exact marginal moments of the diffusion at time t >= 0.

    In the eigenbasis of A the mean solves m' = w m + c coordinate-wise and
    the covariance solves S' = w_i S + S w_j + I entry-wise, so

        m_i(t) = e^{w_i t} m_i(0) + c_i (e^{w_i t} - 1)/w_i
        S_ij(t) = e^{(w_i+w_j) t} S_ij(0) + delta_ij (e^{2 w_i t} - 1)/(2 w_i)

    with the obvious limits for zero eigenvalues (heat flow adds t I).
    """
    if t < 0:
        raise InputError("time must be nonnegative")
    return _eigenbasis_map(drift, init, lambda w: (
        np.exp(w * t), _phi(w, t), np.exp((w[:, None] + w[None, :]) * t), _phi(2.0 * w, t)
    ))


def em_mode_sums(eta_w, k):
    """For the forward-Euler factor lam = 1 + eta_w and step counts k, as floats
    (broadcast against each other): lam^k, sum_{j<k} lam^j and sum_{j<k} lam^(2j).

    Powers go through exp(k log|lam|) with log|lam| = log1p(eta_w) for lam > 0,
    and the sums through expm1, with the limit k where the ratio is 0/0
    (lam = 1 for the first sum, lam^2 = 1 for the second).  Factors lam <= 0,
    from steps outside the stability window, keep the sign of lam^k.
    """
    eta_w = np.asarray(eta_w, dtype=float)
    k = np.asarray(k, dtype=float)
    lam = 1.0 + eta_w
    pos = lam > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_abs = np.where(pos, np.log1p(eta_w), np.log(np.abs(lam)))
        # 0 * log(0) is nan; lam^0 = 1 also for lam = 0.
        x = np.where(k == 0, 0.0, k * log_abs)
        grow = np.expm1(x)  # |lam|^k - 1
        power = np.where(pos | (k % 2 == 0), grow + 1.0, -(grow + 1.0))
        mean_sum = np.where(eta_w == 0, k, np.where(pos, grow, power - 1.0) / eta_w)
        # |lam|^(2k) - 1 = (|lam|^k - 1)(|lam|^k + 1)
        sq = np.expm1(2.0 * log_abs)
        var_sum = np.where(sq == 0, k, grow * (grow + 2.0) / sq)
    return power, mean_sum, var_sum


def em_moments_linear(drift: LinearDrift, init: GaussianMoments, eta: float, k: int) -> GaussianMoments:
    """Moments after k forward-Euler steps m <- (I + eta A) m + eta c and
    S <- (I + eta A) S (I + eta A)^T + eta I, in closed form.

    In the eigenbasis of A each mode is scaled by lam_i = 1 + eta w_i per step:
    m_k = lam^k m_0 + eta c sum_{j<k} lam^j and
    S_k[i, l] = (lam_i lam_l)^k S_0[i, l] + delta_il eta sum_{j<k} lam_i^(2j)
    (see em_mode_sums), so the cost is O(d^3) whatever k is, 2^70 included.
    One step of size tau (k = 1) is the law of the frozen-drift bridge
    X + tau b(X) + sqrt(tau) xi at offset tau inside a step.
    """
    check_step(eta, 0.0, enforce_window=False)
    k = check_count(k, "step count k")

    def modes(w):
        power, mean_sum, var_sum = em_mode_sums(eta * w, k)
        return power, eta * mean_sum, np.outer(power, power), eta * var_sum

    return _eigenbasis_map(drift, init, modes)


def _kl_terms(r, quad) -> np.ndarray:
    """(sum over the last axis of (r - log1p r) + quad) / 2, where r are the
    eigenvalues of the whitened covariance minus 1 and quad the whitened
    squared mean gap; free of the cancellation in tr - d - log det."""
    return 0.5 * (np.sum(r - np.log1p(r), axis=-1) + quad)


def kl_gaussian(p: GaussianMoments, q: GaussianMoments) -> float:
    """KL(p || q) = (sum_i (r_i - log1p r_i) + ||L^-1 dm||^2) / 2, where L is
    the Cholesky factor of Sq and r_i the eigenvalues of L^-1 (Sp - Sq) L^-T."""
    from scipy.linalg import solve_triangular  # imported here: no other path needs it

    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    try:
        L = np.linalg.cholesky(q.cov)
    except np.linalg.LinAlgError as exc:
        raise InputError("singular covariance") from exc
    half = solve_triangular(L, p.cov - q.cov, lower=True)
    whitened = solve_triangular(L, half.T, lower=True)
    r = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))
    z = solve_triangular(L, p.mean - q.mean, lower=True)
    return float(_kl_terms(r, z @ z))


def kl_gaussian_diag(dm, var_p, var_q) -> np.ndarray:
    """KL(N(dm, diag var_p) || N(0, diag var_q)) over the last axis, for
    arrays of mean gaps and variances broadcast against each other."""
    dm, var_p, var_q = np.broadcast_arrays(dm, var_p, var_q)
    return _kl_terms((var_p - var_q) / var_q, np.sum(dm * dm / var_q, axis=-1))


def w2_gaussian_diag(dm, var_p, var_q) -> np.ndarray:
    """2-Wasserstein distance between N(dm, diag var_p) and N(0, diag var_q)
    over the last axis."""
    gap = np.sqrt(var_p) - np.sqrt(var_q)
    dm, gap = np.broadcast_arrays(dm, gap)
    return np.sqrt(np.sum(dm * dm + gap * gap, axis=-1))


def tv_gaussian_diag(dm, var_p, var_q) -> np.ndarray:
    """Total variation between the 1D Gaussians N(dm, var_p) and N(0, var_q);
    the last axis is the coordinate and must have length 1.

    The density log-ratio a x^2 + b x + c is quadratic, so |p - q| integrates
    in closed form between its (at most two) zeros x1 <= x2 via the normal CDF.
    """
    from scipy.special import ndtr  # imported here: no other path needs it

    dm, var_p, var_q = np.broadcast_arrays(
        np.asarray(dm, float), np.asarray(var_p, float), np.asarray(var_q, float)
    )
    if dm.shape[-1:] != (1,):
        raise InputError("closed-form TV implemented for 1D only")
    dm, var_p, var_q = dm[..., 0], var_p[..., 0], var_q[..., 0]
    a = 0.5 / var_q - 0.5 / var_p
    b = dm / var_p
    c = 0.5 * np.log(var_q / var_p) - 0.5 * dm * dm / var_p
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        # Stable quadratic roots t/a and c/t; a double root when disc <= 0.
        t = -0.5 * (b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b))
        lo = np.where(disc > 0, np.minimum(t / a, c / t), -b / (2.0 * a))
        hi = np.where(disc > 0, np.maximum(t / a, c / t), lo)
        # Equal variances: one zero (none when the laws coincide).
        line = np.where(b == 0, np.inf, -c / b)
        flat = np.abs(a) < 1e-300
        x1 = np.where(flat, line, lo)
        x2 = np.where(flat, line, hi)

    def gap_cdf(x):  # P(X <= x) - Q(X <= x)
        return ndtr((x - dm) / np.sqrt(var_p)) - ndtr(x / np.sqrt(var_q))

    d1, d2 = gap_cdf(x1), gap_cdf(x2)
    return 0.5 * (np.abs(d1) + np.abs(d2 - d1) + np.abs(d2))


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


def tv_gaussian_1d(p: GaussianMoments, q: GaussianMoments) -> float:
    """Exact total variation between two 1D Gaussians (see tv_gaussian_diag)."""
    if p.dim != 1 or q.dim != 1:
        raise InputError("closed-form TV implemented for 1D only")
    return float(tv_gaussian_diag(p.mean - q.mean, p.cov[0], q.cov[0]))
