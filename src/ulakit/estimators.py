"""Sample-based divergences, moments, log-log rate fits, and the pathwise
Girsanov comparator.

Estimators act on ensembles (or raw (n, d) arrays) and reduce in a fixed
deterministic order, so repeated runs on the same inputs agree bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .drift_models import DriftModel
from .errors import InputError, UnsupportedError
# perfbench's tracer wraps estimators.noise_block and estimators._guard by name; keep both importable.
from .samplers import MAX_QUAD_POINTS, SUB_QUAD_BASE, InitDensity, _guard, em_chain, noise_block  # noqa: F401

KNN_JITTER = 1e-12


def _points(samples) -> np.ndarray:
    pts = getattr(samples, "points", samples)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InputError("samples must be an (n, d) array or SampleEnsemble")
    return pts


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(value) against log(eta)."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "points": [list(p) for p in self.points],
        }


def rate_fit(points) -> RateFit:
    """Fit value ~ C * eta^slope by least squares in log-log coordinates."""
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 3:
        raise InputError("rate fit needs at least 3 points")
    if any(e <= 0 or v <= 0 for e, v in pts):
        raise InputError("rate fit needs strictly positive steps and values")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=min(max(r2, 0.0), 1.0), points=tuple(pts))


def knn_kl(samples_p, samples_q, k: int = 5) -> float:
    """k-nearest-neighbor two-sample KL estimate.

    With rho_k the k-th neighbor distance within the p-sample (self excluded)
    and nu_k the k-th neighbor distance into the q-sample,

        KL ~ (d/n) sum_i log(nu_k(i) / rho_k(i)) + log(m / (n - 1)).

    Mildly negative values are expected for nearby distributions.  Duplicate
    points that give zero distances are jittered (with a warning).
    """
    p = _points(samples_p)
    q = _points(samples_q)
    if p.shape[1] != q.shape[1]:
        raise InputError("sample dimensions differ")
    n, d = p.shape
    m = q.shape[0]
    if n < 100 or m < 100:
        raise InputError("need at least 100 samples on each side")
    if not 1 <= k < n or k > m:
        raise InputError("neighbor count must satisfy 1 <= k < n and k <= m")
    rho = cKDTree(p).query(p, k=k + 1)[0][:, k]
    nu = cKDTree(q).query(p, k=k)[0]
    nu = nu[:, k - 1] if nu.ndim == 2 else nu
    if float(rho.min()) == 0.0 or float(nu.min()) == 0.0:
        warnings.warn("duplicate points produced zero k-NN distances; jittering", stacklevel=2)
        rho = rho + KNN_JITTER
        nu = nu + KNN_JITTER
    return float(d / n * np.sum(np.log(nu / rho)) + math.log(m / (n - 1.0)))


def w2_empirical_1d(samples_p, samples_q) -> float:
    """Exact empirical 2-Wasserstein distance in 1D via the quantile coupling
    (sorted samples matched index by index).  Requires equal sample counts."""
    p = _points(samples_p)
    q = _points(samples_q)
    if p.shape[1] != 1 or q.shape[1] != 1:
        raise UnsupportedError("empirical W2 is implemented for dim 1 only")
    if p.shape[0] != q.shape[0]:
        raise InputError("equal sample counts required")
    ps = np.sort(p[:, 0])
    qs = np.sort(q[:, 0])
    return float(np.sqrt(np.mean((ps - qs) ** 2)))


def tv_histogram(samples_p, samples_q, bins_per_dim: int = 64) -> float:
    """Histogram total-variation estimate on a common binning (dim <= 2).

    Bin range per axis is the pooled [min, max] intersected with the pooled
    mean +- 6 standard deviations; outliers are clipped into the edge bins.
    """
    p = _points(samples_p)
    q = _points(samples_q)
    if p.shape[1] != q.shape[1]:
        raise InputError("sample dimensions differ")
    d = p.shape[1]
    if d > 2:
        raise UnsupportedError("histogram TV is implemented for dim <= 2 only")
    if bins_per_dim < 2:
        raise InputError("need at least 2 bins per dim")
    pooled = np.vstack([p, q])
    lo = np.maximum(pooled.min(axis=0), pooled.mean(axis=0) - 6.0 * pooled.std(axis=0))
    hi = np.minimum(pooled.max(axis=0), pooled.mean(axis=0) + 6.0 * pooled.std(axis=0))
    hi = np.where(hi > lo, hi, lo + 1.0)
    edges = [np.linspace(lo[j], hi[j], bins_per_dim + 1) for j in range(d)]
    p_clip = np.clip(p, lo, hi)
    q_clip = np.clip(q, lo, hi)
    hp, _ = np.histogramdd(p_clip, bins=edges)
    hq, _ = np.histogramdd(q_clip, bins=edges)
    hp = hp / p.shape[0]
    hq = hq / q.shape[0]
    return float(0.5 * np.sum(np.abs(hp - hq)))


def moment_estimate(samples, p: int) -> float:
    """Empirical moment (1/n) sum ||x_i||^p for p in {1, 2, 4}."""
    if p not in (1, 2, 4):
        raise InputError("moment order must be one of {1, 2, 4}")
    pts = _points(samples)
    norms = np.linalg.norm(pts, axis=1)
    return float(np.mean(norms**p))


def girsanov_pathwise_kl(
    model: DriftModel,
    init: InitDensity,
    eta: float,
    T: float,
    n: int,
    master_seed: int,
    quad_points_per_step: int = 4,
) -> float:
    """Pathwise drift-mismatch KL quantity of the frozen-drift comparison:

        (1/2) * integral_0^T E || b(X_{k eta}) - b(X_t) ||^2 dt,

    estimated by Monte Carlo over the chains of samplers.em_chain with a
    midpoint rule inside each step; within-step states come from the
    frozen-drift bridge, its noise drawn on substream SUB_QUAD_BASE + j for
    quadrature point j.  Scales as O(eta) on linear drifts, which is the
    first-order benchmark the exact marginal KL is measured against.
    """
    m = quad_points_per_step
    if not 1 <= m <= MAX_QUAD_POINTS:
        raise InputError(f"quad_points_per_step must be in [1, {MAX_QUAD_POINTS}]")
    total = 0.0
    for k, x, bx in em_chain(model, init, eta, T, n, master_seed):
        if bx is None:
            break
        for j in range(m):
            tau = (j + 0.5) * eta / m
            xi = noise_block(master_seed, k, SUB_QUAD_BASE + j, n, model.dim)
            xt = x + tau * bx + math.sqrt(tau) * xi
            diff = bx - model.drift(xt)
            total += (eta / m) * float(np.mean(np.sum(diff * diff, axis=1)))
    return 0.5 * total
