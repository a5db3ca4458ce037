"""Sample-based divergences, moments, log-log rate fits, and the pathwise
Girsanov comparator.

Estimators act on ensembles or raw arrays, both shaped by sample_points (a
1-D array is n points of dimension 1), and reduce in a fixed deterministic
order, so repeated runs on the same inputs agree bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .drift_models import DriftModel
from .errors import InputError
# perfbench's tracer wraps estimators.noise_block and estimators._guard by name; keep both importable.
from .samplers import MAX_QUAD_POINTS, InitDensity, _guard, em_chain, noise_block, sample_points  # noqa: F401

KNN_JITTER = 1e-12


def _points(samples) -> np.ndarray:
    """The finite points of an ensemble or array, shaped by sample_points."""
    pts = sample_points(getattr(samples, "points", samples))
    if not np.all(np.isfinite(pts)):
        raise InputError("samples must be finite")
    return pts


def _pair(samples_p, samples_q) -> tuple[np.ndarray, np.ndarray]:
    """The points of two samples of one dimension."""
    p, q = _points(samples_p), _points(samples_q)
    if p.shape[1] != q.shape[1]:
        raise InputError("sample dimensions differ")
    return p, q


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


def fits_rate(points) -> bool:
    """Whether (eta, value) points span the 3 distinct step sizes a rate fit needs."""
    return len({float(e) for e, _ in points}) >= 3


def rate_fit(points) -> RateFit:
    """Fit value ~ C * eta^slope by least squares in log-log coordinates."""
    pts = [(float(e), float(v)) for e, v in points]
    if not fits_rate(pts):
        raise InputError("rate fit needs at least 3 distinct step sizes")
    if not all(0 < e < math.inf and 0 < v < math.inf for e, v in pts):
        raise InputError("rate fit needs finite, strictly positive steps and values")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=min(max(r2, 0.0), 1.0), points=tuple(pts))


def _kth_of_union(left, right, k: int) -> np.ndarray:
    """Per point, the k-th smallest of the union of the gaps left(1..k) and
    right(1..k), each ascending in j: min over j = 0..k of
    max(left(j), right(k - j)), a side's gap 0 being -inf."""
    kth = np.minimum(left(k), right(k))
    for j in range(1, k):
        kth = np.minimum(kth, np.maximum(left(j), right(k - j)))
    return kth


def _knn_distances(p: np.ndarray, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point of p, in p's order: (rho, nu), the k-th neighbour distance
    within p (self excluded) and into q.

    In dimension 1 they come from sorted arrays: the k nearest points on
    either side of x are the k sorted neighbours on that side, so the k-th
    distance is the k-th smallest of k left and k right gaps (+inf past an
    end).  A gap is |fl(x - y)|; cKDTree's distance sqrt(fl((x - y)^2))
    equals it exactly while the square is a normal float (gaps from about
    1.5e-154 to 1.3e154), so there the two agree bitwise, ties and
    duplicates included.  Below that (|x - y| < 1e-154, say) the tree's
    square underflows and loses bits or becomes 0, while this path keeps the
    exact gap.  Other dimensions query cKDTree.
    """
    if p.shape[1] > 1:
        from scipy.spatial import cKDTree  # imported here: no other path needs it
        rho = cKDTree(p).query(p, k=k + 1)[0][:, k]
        nu = cKDTree(q).query(p, k=k)[0]
        return rho, nu[:, k - 1] if nu.ndim == 2 else nu
    order = np.argsort(p[:, 0])
    x = p[order, 0]
    n = x.size
    pad = np.full(k, np.inf)
    # Padded so that a neighbour past either end is at distance +inf.
    xs = np.concatenate([-pad, x, pad])
    qs = np.concatenate([-pad, np.sort(q[:, 0]), pad])
    # qs[at] is the first q point >= x, qs[at - 1] the last one below it.
    at = np.searchsorted(qs, x, side="left")
    rho_sorted = _kth_of_union(lambda j: x - xs[k - j : k - j + n], lambda j: xs[k + j : k + j + n] - x, k)
    nu_sorted = _kth_of_union(lambda j: x - qs[at - j], lambda j: qs[at + j - 1] - x, k)
    rho, nu = np.empty(n), np.empty(n)
    rho[order], nu[order] = rho_sorted, nu_sorted
    return rho, nu


def knn_kl(samples_p, samples_q, k: int = 5) -> float:
    """k-nearest-neighbor two-sample KL estimate.

    With rho_k the k-th neighbor distance within the p-sample (self excluded)
    and nu_k the k-th neighbor distance into the q-sample,

        KL ~ (d/n) sum_i log(nu_k(i) / rho_k(i)) + log(m / (n - 1)).

    Mildly negative values are expected for nearby distributions.  Duplicate
    points that give zero distances are jittered (with a warning).  The
    distances come from a sorted-array search in dimension 1 and from cKDTree
    otherwise (see _knn_distances).
    """
    p, q = _pair(samples_p, samples_q)
    n, d = p.shape
    m = q.shape[0]
    if n < 100 or m < 100:
        raise InputError("need at least 100 samples on each side")
    if not 1 <= k < n or k > m:
        raise InputError("neighbor count must satisfy 1 <= k < n and k <= m")
    rho, nu = _knn_distances(p, q, k)
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
        raise InputError("empirical W2 is implemented for dim 1 only")
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
    p, q = _pair(samples_p, samples_q)
    d = p.shape[1]
    if d > 2:
        raise InputError("histogram TV is implemented for dim <= 2 only")
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
    etas,
    T: float,
    n: int,
    master_seed: int,
    quad_points_per_step: int = 4,
) -> list[float]:
    """Pathwise drift-mismatch KL quantity of the frozen-drift comparison,

        (1/2) * integral_0^T E || b(X_{k eta}) - b(X_t) ||^2 dt,

    for each step size eta of the grid etas, in grid order.

    Estimated by Monte Carlo over the chains of samplers.em_chain, which
    steps the grid in lockstep, with a midpoint rule inside each step;
    within-step states come from the frozen-drift bridge, its noise drawn by
    the chain on substream SUB_QUAD_BASE + j for quadrature point j.  The
    block of step k and point j is drawn once and shared by every eta still
    stepping at k, so each value is bitwise the one a one-element grid gives.
    Scales as O(eta) on linear drifts, which is the first-order benchmark the
    exact marginal KL is measured against.
    """
    m = quad_points_per_step
    if not 1 <= m <= MAX_QUAD_POINTS:
        raise InputError(f"quad_points_per_step must be in [1, {MAX_QUAD_POINTS}]")
    etas = list(etas)
    totals = [0.0] * len(etas)
    for k, states, bridge in em_chain(model, init, etas, T, n, master_seed, bridge_points=m):
        live = [(i, x, bx) for i, x, bx in states if bx is not None]
        for j, xi in enumerate(bridge):
            for i, x, bx in live:
                tau = (j + 0.5) * etas[i] / m
                xt = x + tau * bx + math.sqrt(tau) * xi
                sq = np.square(bx - model.drift(xt))
                # At d = 1 the row sum is the identity; the mean is bitwise the same without it.
                totals[i] += (etas[i] / m) * float(np.mean(sq if model.dim == 1 else np.sum(sq, axis=1)))
    return [0.5 * total for total in totals]
