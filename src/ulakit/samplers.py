"""Forward-Euler Langevin chains with reproducible counter-based noise.

The chain is X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k with i.i.d. standard
Gaussian xi_k, run as an ensemble of independent chains.  Noise is derived
from a Philox counter so that the draw for (chain i, step k, coordinate j) is
a pure function of (master_seed, i, k, j): each (step, substream) pair owns a
disjoint 2^120-block slice of the counter space, uniforms consume exactly one
64-bit word per value, and normals come from the inverse CDF.  Results are
therefore bitwise reproducible and independent of chain count, scheduling,
or execution order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .bounds import check_step, finite_square, step_window
from .drift_models import DriftModel
from .errors import ConfigurationError, DivergenceError, InputError
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
    seed = _check_seed(master_seed)
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
    u = gen.random((n, dim)) + 2.0**-54
    return ndtri(u)


def _check_seed(master_seed) -> int:
    seed = int(master_seed)
    if seed != master_seed or not 0 <= seed < 2**64:
        raise InputError("master_seed must be an integer in [0, 2^64)")
    return seed


@dataclass(frozen=True)
class InitDensity:
    """Isotropic Gaussian initialization N(m0, sigma0^2 I).

    Carries its quadratic-tail certificate h0 and closed-form entropy, the
    two initialization quantities the bound evaluators consume.
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

    @property
    def entropy(self) -> float:
        return 0.5 * self.dim * (1.0 + math.log(2.0 * math.pi * self.variance))

    def moments(self) -> GaussianMoments:
        return GaussianMoments(self.mean, self.variance * np.eye(self.dim))

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - self.mean) ** 2, axis=-1)
        s2 = self.variance
        return -0.5 * self.dim * math.log(2.0 * math.pi * s2) - d2 / (2.0 * s2)

    def sample(self, n: int, master_seed: int) -> np.ndarray:
        return self.mean + self.sigma0 * noise_block(master_seed, -1, SUB_INIT, n, self.dim)


@dataclass(frozen=True)
class SampleEnsemble:
    """n i.i.d. chain states at a fixed time, with seed lineage (None for
    an ensemble read back without its sidecar)."""

    time: float
    eta: float | None
    points: np.ndarray
    master_seed: int | None
    label: str = "em"

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def chain_count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def step_size_window(model: DriftModel) -> tuple[float, float]:
    """Admissible step sizes (0, 1/(2 L1)); unbounded for L1 = 0."""
    return step_window(model.constants.L1)


def _guard(points: np.ndarray, step: int, time: float) -> None:
    """Raise DivergenceError naming the first chain (row) with a coordinate
    that is not finite or exceeds DIVERGENCE_LIMIT in absolute value."""
    bad = ~np.isfinite(points) | (np.abs(points) > DIVERGENCE_LIMIT)
    if bad.any():
        chain = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise DivergenceError(
            f"chain {chain} diverged at step {step} (t={time:g})",
            chain=chain,
            step=step,
            state=np.array(points[chain]),
        )


def em_step(x, model: DriftModel, eta: float, noise) -> np.ndarray:
    """One forward-Euler update x + eta b(x) + sqrt(eta) noise at one point."""
    if eta <= 0:
        raise InputError("step size must be positive")
    x = np.asarray(x, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if x.shape != (model.dim,) or noise.shape != (model.dim,):
        raise InputError(f"point and noise must have shape ({model.dim},)")
    out = x + eta * model.drift(x) + math.sqrt(eta) * noise
    _guard(out[None], step=1, time=eta)
    return out


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


def em_chain(
    model: DriftModel,
    init: InitDensity,
    eta: float,
    T: float,
    n: int,
    master_seed: int,
    enforce_window: bool = True,
):
    """The forward-Euler chain X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k of
    n independent chains over floor(T/eta) steps, xi_k drawn on SUB_EM.

    Checks the step (against step_size_window unless enforce_window is
    False), dimensions, chain count, seed and horizon, and draws the initial
    states, before it returns, so a bad configuration fails before any
    stepping.  An initial state beyond the divergence limit is an InputError
    naming init; a later one a DivergenceError naming chain and step.
    Returns an iterator over (k, x_k, b(x_k)) for k < steps, then
    (steps, x_steps, None).
    """
    check_step(eta, model.constants.L1, enforce_window)
    if init.dim != model.dim:
        raise InputError("init dimension does not match model")
    if n < 1:
        raise InputError("need at least one chain")
    seed = _check_seed(master_seed)
    if not T > 0:
        raise ConfigurationError("horizon must be positive")
    steps = grid_steps(T, eta)
    x = init.sample(n, seed)
    try:
        _guard(x, step=0, time=0.0)
    except DivergenceError as exc:
        raise InputError(
            f"init draws chain {exc.chain} at {exc.state.tolist()}, beyond the divergence "
            f"limit {DIVERGENCE_LIMIT:g}: check its mean and sigma0"
        ) from None

    def run(x):
        for k in range(steps):
            bx = model.drift(x)
            yield k, x, bx
            x = x + eta * bx + math.sqrt(eta) * noise_block(seed, k, SUB_EM, n, model.dim)
            _guard(x, step=k + 1, time=(k + 1) * eta)
        yield steps, x, None

    return run(x)


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
    """Run n independent chains of em_chain for floor(T/eta) steps.

    Returns the final SampleEnsemble, or (final, snapshots) when
    snapshot_times is given.  Snapshots land on grid times only (requested
    times are rounded down, with a warning when off-grid); times outside
    [0, T] are rejected.
    """
    chain = em_chain(model, init, eta, T, n, master_seed, enforce_window)
    seed = int(master_seed)
    snap_steps = set()
    for t_req in snapshot_times or ():
        if not 0 <= t_req <= T:
            raise ConfigurationError(f"snapshot time {t_req} outside [0, horizon={T}]")
        snap_steps.add(grid_steps(t_req, eta, "snapshot time"))

    snapshots = []
    for k, x, _ in chain:
        if k in snap_steps:
            snapshots.append(SampleEnsemble(time=k * eta, eta=eta, points=x, master_seed=seed))
    final = SampleEnsemble(time=k * eta, eta=eta, points=x, master_seed=seed)
    if snapshot_times is None:
        return final
    return final, snapshots


def interpolated_sample(x_grid, model: DriftModel, tau: float, noise, eta: float | None = None) -> np.ndarray:
    """Within-step bridge state x + tau b(x) + sqrt(tau) noise.

    Holds the drift at its grid value; at tau = eta this is exactly the next
    forward-Euler state for the same noise draw.
    """
    if tau < 0 or (eta is not None and tau > eta * (1 + 1e-12)):
        raise InputError("interpolation offset must lie in [0, eta]")
    x = np.asarray(x_grid, dtype=float)
    noise = np.asarray(noise, dtype=float)
    return x + tau * model.drift(x) + math.sqrt(tau) * noise


def fine_reference_ensemble(
    model: DriftModel,
    init: InitDensity,
    eta_fine: float,
    T: float,
    n: int,
    master_seed: int,
    coarse_eta: float | None = None,
    snapshot_times=None,
    enforce_window: bool = True,
):
    """Fine-step chain standing in for the continuous-time law.

    Requires eta_fine <= coarse_eta / 32 when the coarse step it serves is
    given.  The reference carries its own second-order KL bias in eta_fine,
    which the step ratio makes negligible next to the coarse run's error.
    """
    if coarse_eta is not None and eta_fine > coarse_eta / 32.0 * (1 + 1e-12):
        raise ConfigurationError(
            f"reference step {eta_fine} must be at most coarse step / 32 = {coarse_eta / 32.0}"
        )
    out = simulate_ensemble(
        model, init, eta_fine, T, n, master_seed,
        snapshot_times=snapshot_times, enforce_window=enforce_window,
    )
    if snapshot_times is None:
        return dataclasses.replace(out, label="reference")
    final, snaps = out
    return (
        dataclasses.replace(final, label="reference"),
        [dataclasses.replace(s, label="reference") for s in snaps],
    )


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


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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


def write_ensemble_sidecar(ensemble: SampleEnsemble, path, model: DriftModel | None = None, extra: dict | None = None) -> None:
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
    if extra:
        payload.update(extra)
    write_json(path, payload)


def read_ensemble_sidecar(path, sidecar_path=None) -> dict:
    """The JSON sidecar of an ensemble CSV (default: the same path with suffix
    .json); {} when there is none, InputError when it is not a JSON object."""
    sidecar = Path(sidecar_path) if sidecar_path else Path(path).with_suffix(".json")
    if not sidecar.exists():
        return {}
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as exc:
        raise InputError(f"{sidecar} is not a JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise InputError(f"{sidecar} is not a JSON sidecar: not an object")
    return meta


def read_ensemble_csv(path, sidecar_path=None) -> SampleEnsemble:
    """Read an ensemble CSV and its JSON sidecar; without a sidecar the seed
    and step size are None.

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
    meta = read_ensemble_sidecar(path, sidecar_path)
    return SampleEnsemble(
        time=meta.get("time", float(data[0, -1])),
        eta=meta.get("eta"),
        points=data[:, 1 : 1 + d],
        master_seed=meta.get("master_seed"),
        label=meta.get("label", "em"),
    )
