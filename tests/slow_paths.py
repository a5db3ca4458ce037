"""Slow reference paths that the closed forms and fast paths are checked against.

The forward-Euler moment recursion, stepped one matrix product at a time;
the mixing-scan first-crossing search done one step at a time on full
moment matrices with the general-purpose distances; the noise block drawn
from a freshly built Philox generator; the ensemble CSV written and read
one value at a time; the forward-Euler ensemble and the pathwise
comparator each stepped by its own hand-written loop; the k-NN
distances queried from cKDTree in every dimension; and verify's checks as
they were first written: the Lipschitz audit one pair and one norm at a
time, the finite-difference check one column at a time, and beta witnessed
at the declared dissipativity rate by an ascent with np.linalg.norm
lengths; and the JSON artifact text as json's pure-Python indenting
encoder writes it.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

from ulakit import bounds as bnd
from ulakit import drift_models as dm
from ulakit import gaussian_analytics as ga
from ulakit.errors import InputError
from ulakit.samplers import DIVERGENCE_LIMIT, NUM_SUBSTREAMS, SUB_EM, SUB_QUAD_BASE, noise_block


def em_moment_steps(drift: ga.LinearDrift, init: ga.GaussianMoments, eta: float):
    """Endless iterator over the forward-Euler moments (m_k, S_k), k = 1, 2, ...:
    m <- (I + eta A) m + eta c and S <- (I + eta A) S (I + eta A)^T + eta I."""
    M = np.eye(drift.dim) + eta * drift.A
    m, S = init.mean, init.cov
    while True:
        m = M @ m + eta * drift.c
        S = M @ S @ M.T + eta * np.eye(drift.dim)
        yield m, S


def em_moments_by_recursion(drift, init, eta, k):
    """(m_k, S_k) after k recursion steps, unvalidated."""
    m, S = init.mean, init.cov
    for m, S in itertools.islice(em_moment_steps(drift, init, eta), k):
        pass
    return m, S


DISTANCES = {"KL": ga.kl_gaussian, "TV": ga.tv_gaussian_1d, "W2": ga.w2_gaussian}
KL_TOLERANCE = {
    "KL": lambda eps, rho: eps,
    "TV": lambda eps, rho: 2.0 * eps**2,
    "W2": lambda eps, rho: rho * eps**2 / 2.0,
}


def mixing_scan_by_recursion(cfg: dict) -> list[int]:
    """First-crossing step per eps of a mixing-scan config, one recursion step
    and one validated GaussianMoments at a time.  Raises the errors the
    command exits 2 on."""
    target = ga.GaussianMoments(np.asarray(cfg["target"]["mean"], float),
                                np.asarray(cfg["target"]["cov"], float))
    precision = np.linalg.inv(target.cov)
    drift = ga.LinearDrift(-0.5 * precision, 0.5 * precision @ target.mean)
    L1 = float(np.max(np.abs(np.linalg.eigvalsh(drift.A))))
    d = target.dim
    with np.errstate(over="ignore"):  # a sigma0 whose square overflows gives inf, which start rejects
        var0 = np.square(float(cfg["init"]["sigma0"]))
    mean0 = np.zeros(d) + np.asarray(cfg["init"].get("mean", 0.0), float)
    start = ga.GaussianMoments(mean0, var0 * np.eye(d))
    metric = cfg.get("metric", "KL").upper()
    distance, rho = DISTANCES[metric], float(cfg["rho"])
    max_steps = int(cfg.get("max_steps", 10**6))
    found = []
    for eps in cfg["eps_grid"]:
        eta = bnd.step_size_rule(KL_TOLERANCE[metric](eps, rho), rho, d)
        if distance(start, target) <= eps:
            found.append(0)
            continue
        bnd.check_step(eta, L1)
        steps = itertools.islice(em_moment_steps(drift, start, eta), max_steps)
        for k, (m, S) in enumerate(steps, start=1):
            if distance(ga.GaussianMoments(m, S), target) <= eps:
                found.append(k)
                break
        else:
            raise InputError(f"no crossing within max_steps={max_steps} for eps={eps}")
    return found


def noise_block_fresh_philox(master_seed, step, substream, n, dim):
    """The noise block from a Philox generator built for this one call."""
    offset = ((step + 1) * NUM_SUBSTREAMS + substream) << 120
    gen = np.random.Generator(np.random.Philox(key=np.uint64(master_seed), counter=offset))
    return ndtri(gen.random((n, dim)) + 2.0**-54)


def noise_rows_fresh_philox(master_seed, step, substream, first_row, n, dim):
    """Rows first_row .. first_row + n - 1 of the noise block, from a Philox
    generator built for this one call and advanced past the earlier rows."""
    offset = ((step + 1) * NUM_SUBSTREAMS + substream) << 120
    bits = np.random.Philox(key=np.uint64(master_seed), counter=offset)
    bits.advance(first_row * dim // 4)
    bits.random_raw(first_row * dim % 4)
    return ndtri(np.random.Generator(bits).random((n, dim)) + 2.0**-54)


def _strict_json(value):
    """value with every non-finite float replaced by None, since strict JSON
    has no Infinity or NaN."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def json_text_indented(value) -> str:
    """value as strict JSON text from json's indenting encoder, a non-finite
    float as null."""
    return json.dumps(_strict_json(value), sort_keys=True, indent=2, allow_nan=False)


def write_ensemble_csv_per_value(points, time, path) -> None:
    """The ensemble CSV formatted one value at a time with "%.17g"."""
    d = points.shape[1]
    lines = ["chain," + ",".join(f"coord{j}" for j in range(d)) + ",time"]
    t = "%.17g" % float(time)
    for i in range(points.shape[0]):
        coords = ",".join("%.17g" % float(v) for v in points[i])
        lines.append(f"{i},{coords},{t}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_ensemble_csv_per_value(path):
    """(points, time) of an ensemble CSV, parsed one value at a time with float()."""
    rows = Path(path).read_text().strip().split("\n")
    d = len(rows[0].split(",")) - 2
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return data[:, 1 : 1 + d], float(data[0, -1])


def _in_range(x):
    assert np.all(np.isfinite(x) & (np.abs(x) <= DIVERGENCE_LIMIT)), "chain left the range"


def simulate_ensemble_loop(model, init, eta, T, n, master_seed, snapshot_times=()):
    """(final states, {step: states at each snapshot step}) of the forward-Euler
    ensemble, stepped by its own loop; unvalidated."""
    steps = int(math.floor(T / eta + 1e-9))
    snap_steps = {min(int(math.floor(t / eta + 1e-9)), steps) for t in snapshot_times}
    x = init.sample(n, master_seed)
    snaps = {0: x} if 0 in snap_steps else {}
    for k in range(steps):
        x = x + eta * model.drift(x) + math.sqrt(eta) * noise_block(master_seed, k, SUB_EM, n, model.dim)
        _in_range(x)
        if k + 1 in snap_steps:
            snaps[k + 1] = x
    return x, snaps


def girsanov_pathwise_kl_loop(model, init, eta, T, n, master_seed, quad_points_per_step=4):
    """The pathwise comparator with its own copy of the forward-Euler loop;
    unvalidated."""
    steps = int(math.floor(T / eta + 1e-9))
    m = quad_points_per_step
    d = model.dim
    x = init.sample(n, master_seed)
    total = 0.0
    for k in range(steps):
        bx = model.drift(x)
        for j in range(m):
            tau = (j + 0.5) * eta / m
            xi = noise_block(master_seed, k, SUB_QUAD_BASE + j, n, d)
            xt = x + tau * bx + math.sqrt(tau) * xi
            diff = bx - model.drift(xt)
            total += (eta / m) * float(np.mean(np.sum(diff * diff, axis=1)))
        x = x + eta * bx + math.sqrt(eta) * noise_block(master_seed, k, SUB_EM, n, d)
        _in_range(x)
    return 0.5 * total


def knn_distances_ckdtree(p, q, k):
    """(rho, nu) of estimators._knn_distances, queried from cKDTree in any dimension."""
    rho = cKDTree(p).query(p, k=k + 1)[0][:, k]
    nu = cKDTree(q).query(p, k=k)[0]
    return rho, nu[:, k - 1] if nu.ndim == 2 else nu


def lipschitz_ratios_per_pair(model, xs, ys):
    """(worst L1 ratio, worst L2 ratio) of drift_models.lipschitz_ratios, one
    pair, one checked evaluation and one np.linalg.norm at a time."""
    worst_l1 = worst_l2 = 0.0
    for x, y in zip(xs, ys):
        gap = float(np.linalg.norm(x - y))
        if gap == 0.0:
            continue
        db = dm.drift_eval(model, x) - dm.drift_eval(model, y)
        dj = dm.drift_jacobian(model, x) - dm.drift_jacobian(model, y)
        worst_l1 = max(worst_l1, float(np.linalg.norm(db)) / gap)
        worst_l2 = max(worst_l2, float(np.linalg.norm(dj, 2)) / gap)
    return worst_l1, worst_l2


def grad_check_per_column(model, x, h):
    """drift_models.grad_check, reduced one Jacobian column at a time."""
    if h <= 0:
        raise InputError("finite-difference step must be positive")
    xp = np.asarray(x, dtype=float)
    J = dm.drift_jacobian(model, xp)
    worst = 0.0
    for i in range(model.dim):
        e = np.zeros(model.dim)
        e[i] = h
        fd = (dm.drift_eval(model, xp + e) - dm.drift_eval(model, xp - e)) / (2.0 * h)
        col = J[:, i]
        worst = max(worst, float(np.max(np.abs(fd - col) / (1.0 + np.abs(col)))))
    return worst


def _polish_beta_by_norms(model, mu, starts, r_max):
    """The ascent of drift_models._polish_beta with np.linalg.norm lengths."""
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


def dissipativity_fit_by_norms(model, radius_grid, seed=0):
    """drift_models.dissipativity_fit, beta witnessed at the declared mu, with
    the ascent of _polish_beta_by_norms."""
    radii = np.sort(np.atleast_1d(np.asarray(radius_grid, dtype=float)))
    if radii.size == 0 or radii[0] <= 0:
        raise InputError("radius grid must be nonempty with positive radii")
    if model.constants.dissipativity is None:
        return None
    mu = model.constants.mu
    raw = np.random.default_rng(seed).standard_normal((radii.size, dm.FIT_DIRECTIONS, model.dim))
    points = radii[:, None, None] * (raw / np.linalg.norm(raw, axis=-1, keepdims=True))
    g = np.sum(model.drift(points) * points, axis=-1) + mu * radii[:, None] ** 2
    top = points.reshape(-1, model.dim)[np.argsort(g.reshape(-1))[-3:]]
    return max(0.0, _polish_beta_by_norms(model, mu, top, float(radii[-1])))
