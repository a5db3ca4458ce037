"""Forward-Euler Langevin chains with reproducible counter-based noise.

The chain is X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k with i.i.d. standard
Gaussian xi_k, run as an ensemble of independent chains.  Noise is derived
from a Philox counter so that the draw for (chain i, step k, coordinate j) is
a pure function of (master_seed, i, k, j): each (step, substream) pair owns a
disjoint 2^120-block slice of the counter space, uniforms consume exactly one
64-bit word per value, and normals come from the inverse CDF.  Results are
therefore bitwise reproducible and independent of chain count, scheduling,
or execution order, which is what lets em_chain draw a step's noise ahead of
time on a helper thread.
"""

from __future__ import annotations

import json
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .bounds import check_horizon, check_step, finite_square
from .drift_models import DriftModel
from .errors import DivergenceError, InputError
from .gaussian_analytics import GaussianMoments

DIVERGENCE_LIMIT = 1e12

NUM_SUBSTREAMS = 16
SUB_EM = 0
SUB_INIT = 1
SUB_QUAD_BASE = 2
MAX_QUAD_POINTS = NUM_SUBSTREAMS - SUB_QUAD_BASE

_WORD = (1 << 64) - 1
# One Philox generator per thread, rekeyed on every call, so no call sees
# another's state.
_philox = threading.local()


def _philox_generator() -> np.random.Generator:
    """This thread's reusable generator: building one per call would pull OS
    entropy that the rekeying discards."""
    gen = getattr(_philox, "gen", None)
    if gen is None:
        gen = _philox.gen = np.random.Generator(np.random.Philox())
    return gen


def noise_block(master_seed: int, step: int, substream: int, n: int, dim: int) -> np.ndarray:
    """Standard-normal block of shape (n, dim) for one (step, substream).

    Entry (i, j) is a pure function of (master_seed, step, substream, i, j);
    in particular it does not depend on n.
    """
    seed = check_seed(master_seed)
    if step < -1:
        raise InputError("step index must be >= -1")
    if not 0 <= substream < NUM_SUBSTREAMS:
        raise InputError(f"substream must be in [0, {NUM_SUBSTREAMS})")
    offset = ((step + 1) * NUM_SUBSTREAMS + substream) << 120
    gen = _philox_generator()
    # Key, counter and an emptied output buffer: the state of a fresh
    # Philox(key=seed, counter=offset).
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(offset >> s) & _WORD for s in (0, 64, 128, 192)], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    u = gen.random((n, dim))
    u += 2.0**-54
    return ndtri(u, out=u)


def check_seed(master_seed) -> int:
    """master_seed as an int; InputError unless it is an integer in [0, 2^64)."""
    seed = int(master_seed)
    if seed != master_seed or not 0 <= seed < 2**64:
        raise InputError("master_seed must be an integer in [0, 2^64)")
    return seed


@dataclass(frozen=True)
class InitDensity:
    """Isotropic Gaussian initialization N(m0, sigma0^2 I).

    Carries its quadratic-tail certificate h0; its entropy is
    gaussian_analytics.entropy_gaussian of its moments().
    """

    mean: np.ndarray
    sigma0: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1 or not np.all(np.isfinite(mean)):
            raise InputError("mean must be a finite vector")
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise InputError("sigma0 must be positive")
        mean = mean.copy()
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sigma0", float(self.sigma0))

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def variance(self) -> float:
        """sigma0^2; InputError when it overflows or underflows to zero."""
        return finite_square(self.sigma0, "sigma0")

    @property
    def h0(self) -> float:
        s2 = self.variance
        return 0.5 * self.dim * math.log(2.0 * math.pi * s2) + float(self.mean @ self.mean) / s2

    def moments(self) -> GaussianMoments:
        return GaussianMoments(self.mean, self.variance * np.eye(self.dim))

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - self.mean) ** 2, axis=-1)
        s2 = self.variance
        return -0.5 * self.dim * math.log(2.0 * math.pi * s2) - d2 / (2.0 * s2)

    def sample(self, n: int, master_seed: int) -> np.ndarray:
        return self.mean + self.sigma0 * noise_block(master_seed, -1, SUB_INIT, n, self.dim)


def sample_points(points) -> np.ndarray:
    """points as a float (n, d) array of n points: a 1-D array is n points
    of dimension 1, and any rank other than 1 or 2 is an InputError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return pts[:, None]
    if pts.ndim != 2:
        raise InputError("samples must be an (n, d) array or SampleEnsemble")
    return pts


@dataclass(frozen=True)
class SampleEnsemble:
    """n i.i.d. chain states at a fixed time, with seed lineage (None for
    an ensemble read back without its sidecar).  points are read by
    sample_points, so a 1-D array is n chains of dimension 1."""

    time: float
    eta: float | None
    points: np.ndarray
    master_seed: int | None
    label: str = "em"

    def __post_init__(self):
        pts = sample_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def chain_count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _guard(points: np.ndarray, step: int, time: float, eta: float) -> None:
    """Raise DivergenceError naming the step size, and the first chain (row)
    with a coordinate that is not finite or exceeds DIVERGENCE_LIMIT in
    absolute value."""
    bad = ~np.isfinite(points) | (np.abs(points) > DIVERGENCE_LIMIT)
    if bad.any():
        chain = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DivergenceError(
            f"chain {chain} diverged at step {step} (eta={eta:g}, t={time:g})",
            chain=chain,
            step=step,
            state=np.array(points[chain]),
            eta=eta,
        )


def grid_steps(t: float, eta: float, what: str = "horizon") -> int:
    """The grid index floor(t/eta + 1e-9) of time t, with a warning when t
    is off the grid."""
    k = int(math.floor(t / eta + 1e-9))
    if abs(k * eta - t) > 1e-9 * max(1.0, abs(t)):
        warnings.warn(
            f"{what} {t} is not a multiple of eta={eta}; rounded down to {k} steps",
            stacklevel=3,
        )
    return k


# Normals one step draws (chains x dimension x blocks) from which em_chain
# draws the next step's blocks on a helper thread while it computes this
# step.  On a 2-CPU machine the hand-off cost more than the overlap saved
# below about 2e4 normals per step and won above about 3e4.
PREFETCH_VALUES = 1 << 15


def _prefetch_pool(values: int) -> ThreadPoolExecutor | None:
    """A one-worker pool for a step of `values` normals, or None when the step
    is too small or this process may run on only one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if values < PREFETCH_VALUES or cpus < 2:
        return None
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="ulakit-noise")


def em_chain(
    model: DriftModel,
    init: InitDensity,
    etas,
    T: float,
    n: int,
    master_seed: int,
    enforce_window: bool = True,
    bridge_points: int = 0,
):
    """The forward-Euler chains X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k of
    n independent chains over floor(T/eta) steps, for every step size eta of
    the grid etas in lockstep.

    xi_k is a pure function of (master_seed, k), so every eta of the grid
    takes the same block at step k: it is drawn once on SUB_EM and applied to
    each eta with k < steps(eta).  Each eta keeps its own state, drift, guard
    and step count, so its chain is bitwise the one it would run alone.
    Step k also draws bridge_points blocks on substreams SUB_QUAD_BASE + j
    for the pathwise comparator's within-step bridge.

    When a step draws at least PREFETCH_VALUES normals and the process may
    run on two CPUs, step k+1's blocks are drawn on a helper thread while
    step k computes; a block the helper has not started when the chain needs
    it is drawn inline instead.  The blocks are the same either way, and the
    helper thread ends with the iterator (exhausted, closed or raising).

    Checks every step (against bounds.step_window unless enforce_window is
    False), dimensions, chain count, seed and horizon, and draws the initial
    states once, before it returns, so a bad configuration fails before any
    stepping.  An initial state beyond the divergence limit is an InputError
    naming init; a later one a DivergenceError naming the step size, chain
    and step, raised at the first step, in grid order within a step, where
    any eta diverges.  Returns an iterator over (k, states, bridge) for
    k = 0 .. max steps(eta): states lists (i, x_k, b(x_k)) in grid order for
    each eta_i with k <= steps(eta_i), with b(x_k) None at k = steps(eta_i),
    and bridge holds step k's bridge blocks, none at k = max steps(eta).
    """
    etas = list(etas)
    if not etas:
        raise InputError("the step-size grid is empty")
    for eta in etas:
        check_step(eta, model.constants.L1, enforce_window)
    if init.dim != model.dim:
        raise InputError("init dimension does not match model")
    if n < 1:
        raise InputError("need at least one chain")
    if not 0 <= bridge_points <= MAX_QUAD_POINTS:
        raise InputError(f"bridge_points must be in [0, {MAX_QUAD_POINTS}]")
    seed = check_seed(master_seed)
    check_horizon(T)
    steps = [grid_steps(T, eta) for eta in etas]
    last = max(steps)
    x = init.sample(n, seed)
    try:
        _guard(x, step=0, time=0.0, eta=etas[0])
    except DivergenceError as exc:
        raise InputError(
            f"init draws chain {exc.chain} at {exc.state.tolist()}, beyond the divergence "
            f"limit {DIVERGENCE_LIMIT:g}: check its mean and sigma0"
        ) from None
    dim = model.dim
    # A step's blocks in the order the chain takes them.  The helper draws
    # them in reverse, so a chain that catches up with it draws the first
    # blocks it needs itself while the helper draws the last.
    subs = [SUB_QUAD_BASE + j for j in range(bridge_points)] + [SUB_EM]

    def run(xs):
        pool = _prefetch_pool(n * dim * len(subs))

        def submit(k):
            """substream -> the helper's draw of step k's block; {} when
            there is no helper or no step k."""
            if pool is None or k >= last:
                return {}
            return {sub: pool.submit(noise_block, seed, k, sub, n, dim) for sub in reversed(subs)}

        def block(drawn, k, sub):
            """Step k's block on sub: the helper's draw, or drawn here when
            the helper has not started it (cancel() succeeds) or there is none."""
            future = drawn.pop(sub, None)
            if future is None or future.cancel():
                return noise_block(seed, k, sub, n, dim)
            return future.result()

        drawn = {}
        try:
            for k in range(last):
                upcoming = submit(k + 1)
                bxs = [model.drift(x) if k < s else None for x, s in zip(xs, steps)]
                bridge = [block(drawn, k, sub) for sub in subs[:-1]]
                yield k, [(i, xs[i], bxs[i]) for i, s in enumerate(steps) if k <= s], bridge
                xi = block(drawn, k, SUB_EM)
                for i, (eta, bx) in enumerate(zip(etas, bxs)):
                    if bx is not None:
                        xs[i] = xs[i] + eta * bx + math.sqrt(eta) * xi
                        _guard(xs[i], step=k + 1, time=(k + 1) * eta, eta=eta)
                # Drop this step's blocks before the next step's drift, while
                # the helper holds the next step's and draws the one after.
                del xi, bridge
                drawn = upcoming
            yield last, [(i, xs[i], None) for i, s in enumerate(steps) if s == last], []
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    return run([x] * len(etas))


def simulate_ensemble(
    model: DriftModel,
    init: InitDensity,
    eta: float,
    T: float,
    n: int,
    master_seed: int,
    snapshot_times=None,
    enforce_window: bool = True,
):
    """Run n independent chains of em_chain, on the one-element grid [eta],
    for floor(T/eta) steps.

    Returns the final SampleEnsemble, or (final, snapshots) when
    snapshot_times is given.  Snapshots land on grid times only (requested
    times are rounded down, with a warning when off-grid); times outside
    [0, T], and two times on one grid step, are rejected before the initial
    states are drawn.
    """
    check_step(eta, model.constants.L1, enforce_window)
    snap_steps = set()
    for t_req in snapshot_times or ():
        if not 0 <= t_req <= T:
            raise InputError(f"snapshot time {t_req} outside [0, horizon={T}]")
        k = grid_steps(t_req, eta, "snapshot time")
        if k in snap_steps:
            raise InputError(f"snapshot_times {snapshot_times} name one grid step of eta={eta} twice")
        snap_steps.add(k)
    chain = em_chain(model, init, [eta], T, n, master_seed, enforce_window)
    seed = int(master_seed)

    snapshots = []
    for k, [(_, x, _)], _ in chain:
        if k in snap_steps:
            snapshots.append(SampleEnsemble(time=k * eta, eta=eta, points=x, master_seed=seed))
    final = SampleEnsemble(time=k * eta, eta=eta, points=x, master_seed=seed)
    if snapshot_times is None:
        return final
    return final, snapshots


# ---------------------------------------------------------------------------
# On-disk format: columnar CSV  chain,coord0..coord{d-1},time  plus a JSON
# sidecar carrying seed lineage and model identity.  Floats are written with
# 17 significant digits, which round-trips every double.
# ---------------------------------------------------------------------------


FLOAT_FORMAT = "%.17g"
# Rows per formatted block of write_ensemble_csv, which bounds its memory.
CSV_CHUNK_ROWS = 16384


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


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


def write_json(path, payload: dict) -> None:
    """Write payload as strict JSON, a non-finite float as null."""
    text = json.dumps(_strict_json(payload), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write rows under header; string cells are written as they are."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_ensemble_csv(ensemble: SampleEnsemble, path) -> None:
    """Write the ensemble as chain,coord0..coord{d-1},time rows, formatting
    CSV_CHUNK_ROWS rows at a time with one row template per block."""
    d, n = ensemble.dim, ensemble.chain_count
    header = "chain," + ",".join(f"coord{j}" for j in range(d)) + ",time\n"
    row = "%d," + ",".join([FLOAT_FORMAT] * d) + "," + _fmt(ensemble.time) + "\n"
    with Path(path).open("w") as fh:
        fh.write(header)
        for a in range(0, n, CSV_CHUNK_ROWS):
            block = ensemble.points[a : a + CSV_CHUNK_ROWS]
            rows = block.shape[0]
            # Row-major template arguments: chain index, then the d coordinates.
            args = [None] * (rows * (d + 1))
            args[:: d + 1] = range(a, a + rows)
            for j in range(d):
                args[j + 1 :: d + 1] = block[:, j].tolist()
            fh.write((row * rows) % tuple(args))


def ensemble_sidecar(ensemble: SampleEnsemble, model: DriftModel | None = None) -> dict:
    """ensemble's seed lineage, shape and label, and the model's identity."""
    payload = {
        "master_seed": ensemble.master_seed,
        "eta": ensemble.eta,
        "time": ensemble.time,
        "chain_count": ensemble.chain_count,
        "dim": ensemble.dim,
        "label": ensemble.label,
    }
    if model is not None:
        payload["model"] = {"name": model.name, "params": model.params}
    return payload


def write_ensemble_sidecar(ensemble: SampleEnsemble, path, model: DriftModel | None = None) -> None:
    write_json(path, ensemble_sidecar(ensemble, model))


def read_ensemble_sidecar(path) -> dict:
    """The JSON sidecar of an ensemble CSV, the same path with suffix .json;
    {} when there is none, InputError when it is not a JSON object."""
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        return {}
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:
        raise InputError(f"{sidecar} is not a JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise InputError(f"{sidecar} is not a JSON sidecar: not an object")
    return meta


def read_ensemble_csv(path, sidecar: dict | None = None) -> SampleEnsemble:
    """Read an ensemble CSV and its JSON sidecar, unless the sidecar is given;
    without a sidecar the seed and step size are None.

    A file that is not an ensemble CSV, has no data rows, or has a blank,
    ragged, commented or non-numeric row raises InputError naming it.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.readline().decode("ascii", "replace").rstrip("\r\n").split(",")
        # loadtxt skips blank lines, so count the rows it must return.
        lines = sum(1 for _ in fh)
    d = len(header) - 2
    if d < 1 or header[0] != "chain" or header[-1] != "time":
        raise InputError(f"{path} is not an ensemble CSV")
    if lines == 0:
        raise InputError(f"{path} has no data rows")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if data.shape != (lines, d + 2):
        raise InputError(
            f"{path}: {lines} data lines under a {d + 2}-column header, "
            f"but {data.shape[0]} rows of {data.shape[1]} fields parsed"
        )
    meta = read_ensemble_sidecar(path) if sidecar is None else sidecar
    return SampleEnsemble(
        time=meta.get("time", float(data[0, -1])),
        eta=meta.get("eta"),
        points=data[:, 1 : 1 + d],
        master_seed=meta.get("master_seed"),
        label=meta.get("label", "em"),
    )
