"""Per-layer size sweep: the sampler's per-step pieces and the EM moment
oracle timed on their own, untraced, at fixed sizes.

Bytes are computed from array sizes (float64 in and out of each call), not
measured, so they ignore cache traffic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (100, 10_000, 100_000)
EM_STEPS = 20_000
EM_DIMS = (1, 50)
# Each timing is the median of REPS batches of calls, each batch lasting
# at least BATCH_S seconds.
REPS = 5
BATCH_S = 0.02


def _per_call(fn, reps: int = REPS) -> float:
    """Median seconds per call of fn() over reps batches."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    calls = max(1, int(BATCH_S / max(once, 1e-7)))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def run(ulakit, master_seed: int) -> tuple[dict[str, float], dict[str, int]]:
    """Return (timings, computed bytes) keyed by ``sweep.<layer>.<size>``."""
    from scipy.special import ndtri

    sp, ga, dm = ulakit.samplers, ulakit.gaussian_analytics, ulakit.drift_models
    model = dm.make_model("ou", dim=1)
    init = sp.InitDensity(mean=np.zeros(1), sigma0=1.0)
    times: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    for n in SIZES:
        tag = f"n{n}"
        u = np.random.default_rng(master_seed).random((n, 1)) + 2.0**-54
        block = _per_call(lambda: sp.noise_block(master_seed, 7, sp.SUB_EM, n, 1))
        inverse = _per_call(lambda: ndtri(u))
        times[f"sweep.noise_block.{tag}.us"] = block * 1e6
        times[f"sweep.ndtri.{tag}.us"] = inverse * 1e6
        times[f"sweep.philox.{tag}.us"] = (block - inverse) * 1e6
        nbytes[f"sweep.noise_block.{tag}.bytes_computed"] = 8 * n * 2  # uniforms + normals
        # 10 steps per call; the time per step includes the initial draw.
        steps = 10
        per_run = _per_call(
            lambda: sp.simulate_ensemble(model, init, 0.1, 0.1 * steps, n, master_seed), reps=3
        )
        times[f"sweep.simulate_ensemble.{tag}.us_per_step"] = per_run / steps * 1e6
        # state in, drift out, noise block, state out per step
        nbytes[f"sweep.simulate_ensemble.{tag}.bytes_computed_per_step"] = 8 * n * 4
    for d in EM_DIMS:
        A = -np.eye(d)
        drift = ga.LinearDrift(A, np.zeros(d))
        m0 = ga.GaussianMoments(np.ones(d), np.eye(d))
        times[f"sweep.em_moments_linear.d{d}.ms"] = 1e3 * _per_call(
            lambda: ga.em_moments_linear(drift, m0, 1e-4, EM_STEPS), reps=3
        )
        # per step: two d x d products reading and writing d x d matrices
        nbytes[f"sweep.em_moments_linear.d{d}.bytes_computed"] = EM_STEPS * 2 * 3 * 8 * d * d
    return times, nbytes
