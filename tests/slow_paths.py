"""Slow reference paths that the closed forms and fast paths are checked against.

The forward-Euler moment recursion, stepped one matrix product at a time;
the mixing-scan first-crossing search done one step at a time on full
moment matrices with the general-purpose distances; the noise block drawn
from a freshly built Philox generator; the ensemble CSV written and read
one value at a time; the forward-Euler ensemble and the pathwise
comparator each stepped by its own hand-written loop; and the k-NN
distances queried from cKDTree in every dimension.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtri

from ulakit import bounds as bnd
from ulakit import gaussian_analytics as ga
from ulakit.errors import ConfigurationError
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
            raise ConfigurationError(f"no crossing within max_steps={max_steps} for eps={eps}")
    return found


def noise_block_fresh_philox(master_seed, step, substream, n, dim):
    """The noise block from a Philox generator built for this one call."""
    offset = ((step + 1) * NUM_SUBSTREAMS + substream) << 120
    gen = np.random.Generator(np.random.Philox(key=np.uint64(master_seed), counter=offset))
    return ndtri(gen.random((n, dim)) + 2.0**-54)


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
