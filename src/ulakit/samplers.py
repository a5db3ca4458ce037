"""Forward-Euler Langevin chains with reproducible counter-based noise.

The chain is X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k with i.i.d. standard
Gaussian xi_k, run as an ensemble of independent chains.  Noise is derived
from a Philox counter so that the draw for (chain i, step k, coordinate j) is
a pure function of (master_seed, i, k, j): each (step, substream) pair owns a
disjoint 2^120-block slice of the counter space, uniforms consume exactly one
64-bit word per value, and normals come from the inverse CDF.  The noise is
therefore bitwise reproducible and independent of chain count, scheduling,
or execution order, which is what lets em_chain draw any row range of a
step's noise ahead of time on a helper thread.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import check_count, check_dim, check_horizon, check_step, finite_square, is_count
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


@functools.cache
def _inverse_cdf():
    """scipy's ndtri, imported once: the import statement costs more per
    call than the transform of a small tile."""
    from scipy.special import ndtri as inverse_cdf

    return inverse_cdf


def ndtri(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The standard-normal inverse CDF of u, written to out; scipy.special
    is imported on the first call, so a process that draws no noise never
    loads it."""
    return _inverse_cdf()(u, out=out)


def noise_block(
    master_seed: int, step: int, substream: int, n: int, dim: int, *, first_row: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows first_row .. first_row + n - 1 of the standard-normal block of
    one (step, substream), shape (n, dim), written into out when it is given.

    Entry (i, j) of the block is a pure function of (master_seed, step,
    substream, i, j); in particular it does not depend on n or first_row, so
    any row range of a block is bitwise those rows of the whole block.  Each
    argument is an integer (an integral float is taken as its int) in its
    range, and out an aligned, writable, C-contiguous float64 array of shape
    (n, dim), or an InputError names it.
    """
    seed = check_seed(master_seed)
    if not (step == -1 or is_count(step)):
        raise InputError("step index must be an integer >= -1")
    if not (is_count(substream) and substream < NUM_SUBSTREAMS):
        raise InputError(f"substream must be an integer in [0, {NUM_SUBSTREAMS})")
    n, dim = check_count(n, "block row count n"), check_dim(dim)
    first = check_count(first_row, "first_row")
    # A block owns 2^120 Philox counters of 4 words each, one word per value.
    if (first + n) * dim > 1 << 122:
        raise InputError(f"rows {first} .. {first + n - 1} of dimension {dim} lie past the block's 2^122 values")
    # flags.carray: C-contiguous, aligned and writable.
    if out is not None and not (
        isinstance(out, np.ndarray) and out.shape == (n, dim) and out.dtype == float and out.flags.carray
    ):
        raise InputError(f"out must be an aligned, writable, C-contiguous float64 array of shape ({n}, {dim})")
    word = first * dim
    counter = (((int(step) + 1) * NUM_SUBSTREAMS + int(substream)) << 120) + word // 4
    gen = _philox_generator()
    # Key, counter and an emptied output buffer: the state of a fresh
    # Philox(key=seed, counter=counter), whose next word is the block's
    # word - word % 4; the words before the first row's are drawn and dropped.
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [(counter >> s) & _WORD for s in (0, 64, 128, 192)], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if word % 4:
        gen.bit_generator.random_raw(word % 4)
    u = gen.random((n, dim)) if out is None else gen.random(out=out)
    u += 2.0**-54
    return ndtri(u, out=u)


def check_seed(master_seed) -> int:
    """master_seed as an int; InputError unless it is an integer in [0, 2^64)."""
    if not (is_count(master_seed) and master_seed < 2**64):
        raise InputError("master_seed must be an integer in [0, 2^64)")
    return int(master_seed)


@dataclass(frozen=True)
class InitDensity:
    """Isotropic Gaussian initialization N(m0, sigma0^2 I), with its
    quadratic-tail certificate h0."""

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
    absolute value: two reductions test the state, and a NaN fails them."""
    if not (-DIVERGENCE_LIMIT <= points.min() and points.max() <= DIVERGENCE_LIMIT):
        bad = ~np.isfinite(points) | (np.abs(points) > DIVERGENCE_LIMIT)
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


def step_counts(etas, T: float, L1: float, enforce_window: bool = True) -> list[int]:
    """Per step size eta of etas, its steps floor(T/eta + 1e-9) within horizon
    T, after bounds.check_horizon and check_step, with a warning when T is off
    eta's grid; an InputError for an eta that takes no step."""
    check_horizon(T)
    counts = []
    for eta in etas:
        check_step(eta, L1, enforce_window)
        if T / eta + 1e-9 < 1:  # grid_steps would round down to 0
            raise InputError(f"step size {eta} takes no step within horizon={T}")
        counts.append(grid_steps(T, eta))
    return counts


# Normals one step draws (chains x dimension x blocks) from which em_chain
# draws the next step's blocks on a helper thread while it computes this
# step.  On a 2-CPU machine the hand-off cost more than the overlap saved
# below about 2e4 normals per step and won above about 3e4.  It is also the
# size of em_chain's row tiles: a tile of this many normals (256 KiB) is
# drawn and stepped while it is still in cache.
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
    steps,
    n: int,
    master_seed: int,
    enforce_window: bool = True,
    bridge_points: int = 0,
):
    """The forward-Euler chains X_{k+1} = X_k + eta b(X_k) + sqrt(eta) xi_k of
    n independent chains, over steps[i] steps of each step size etas[i] of the
    grid, in lockstep (step_counts turns a horizon into such counts).

    xi_k is a pure function of (master_seed, k), so every eta of the grid
    takes the same block at step k: it is drawn once on SUB_EM and applied to
    each eta with k < steps(eta).  Each eta keeps its own state, drift, guard
    and step count, so its chain is bitwise the one it would run alone.
    Step k also draws bridge_points blocks on substreams SUB_QUAD_BASE + j
    for the pathwise comparator's within-step bridge.

    Each block is drawn in row tiles of PREFETCH_VALUES normals (one row at
    the least), with noise_block's first_row, into a buffer the chain owns,
    and the state is stepped tile by tile into each eta's second state
    buffer, by the operations of x + eta * bx + sqrt(eta) * xi in their
    order, so the states are bitwise that expression's.  The drift is one
    call per stepping eta on the whole state, and the guard one call per
    stepping eta on the whole new state.

    When a step draws at least PREFETCH_VALUES normals and the process may
    run on two CPUs, a helper thread draws step k+1's tiles, last first,
    while the chain computes step k.  The two share the work: the chain
    takes step k's tiles in order, draws each one the helper has not started
    (cancel() succeeds) and waits for one it has.  The tiles are the same
    either way, and the helper thread ends with the iterator (exhausted,
    closed or raising).

    Checks every step (against bounds.step_window unless enforce_window is
    False), its count (a positive integer), dimensions, chain count and seed,
    and draws the initial states once, before it returns, so a bad
    configuration fails before any stepping.  An initial state beyond the
    divergence limit is an InputError naming init; a later one a
    DivergenceError naming the step size, chain and step, raised at the first
    step, in grid order within a step, where any eta diverges.  Returns an
    iterator over (k, states, bridge) for k = 0 .. max steps(eta): states lists
    (i, x_k, b(x_k)) in grid order for each eta_i with k <= steps(eta_i), with
    b(x_k) None at k = steps(eta_i), and bridge holds step k's bridge blocks,
    none at k = max steps(eta).  The states and bridge blocks are the chain's
    own buffers, valid until the next item is requested (the last item's
    stay valid): a caller that keeps one copies it.
    """
    etas, steps = list(etas), [check_count(s, "step count") for s in steps]
    if not etas or len(steps) != len(etas) or min(steps) < 1:
        raise InputError(f"need a nonempty grid with one positive step count per step size, got {steps} for {etas}")
    for eta in etas:
        check_step(eta, model.constants.L1, enforce_window)
    if init.dim != model.dim:
        raise InputError("init dimension does not match model")
    if not (is_count(n) and n >= 1):
        raise InputError(f"chain count n must be a positive integer, got {n!r}")
    if not (is_count(bridge_points) and bridge_points <= MAX_QUAD_POINTS):
        raise InputError(f"bridge_points must be an integer in [0, {MAX_QUAD_POINTS}]")
    seed = check_seed(master_seed)
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
    # A step's blocks in the order the chain takes them, each in tiles of
    # `rows` rows.  The helper draws the tiles in reverse, so a chain that
    # catches up with it draws the first tiles it needs itself while the
    # helper draws the last.
    bridge_subs = [SUB_QUAD_BASE + j for j in range(bridge_points)]
    subs = bridge_subs + [SUB_EM]
    roots = [math.sqrt(eta) for eta in etas]
    rows = max(1, PREFETCH_VALUES // dim)
    tiles = [(a, min(a + rows, n)) for a in range(0, n, rows)]

    def run(x):
        def views(block):
            return [block[a:b] for a, b in tiles]

        pool = _prefetch_pool(n * dim * len(subs))
        # Step k's block of each substream is ring[sub][k % slots], which the
        # helper fills while the chain takes step k - 1's from the other slot.
        slots = 1 if pool is None else 2
        ring = {sub: [np.empty((n, dim)) for _ in range(slots)] for sub in subs}
        ring_tiles = {sub: [views(block) for block in blocks] for sub, blocks in ring.items()}
        # Each eta's two state buffers, with their tiles: its state at step k
        # is states[i][k % 2] and its next state goes into the other.  The
        # first eta takes the initial draw as one of its two.
        states = [(block, np.empty((n, dim))) for block in [x] + [x.copy() for _ in etas[1:]]]
        state_tiles = [[views(block) for block in pair] for pair in states]
        scaled = np.empty((min(rows, n), dim))
        scaled_tiles = [scaled[: b - a] for a, b in tiles]

        def submit(k):
            """(substream, tile) -> the helper's draw of that tile of step k,
            in reverse order; {} when there is no helper or no step k."""
            if pool is None or k >= last:
                return {}
            return {
                (sub, t): pool.submit(noise_block, seed, k, sub, b - a, dim, first_row=a, out=ring_tiles[sub][k % slots][t])
                for sub in reversed(subs) for t, (a, b) in reversed(list(enumerate(tiles)))
            }

        def take(drawn, k, sub, t):
            """Tile t of step k's block on sub, in the ring: the helper's
            draw, or drawn here when the helper has not started it (cancel()
            succeeds) or there is none."""
            out = ring_tiles[sub][k % slots][t]
            future = drawn.pop((sub, t), None)
            if future is None or future.cancel():
                noise_block(seed, k, sub, len(out), dim, first_row=tiles[t][0], out=out)
            else:
                future.result()
            return out

        drawn = {}
        try:
            for k in range(last):
                upcoming = submit(k + 1)
                now, after = k % 2, (k + 1) % 2
                bxs = [model.drift(pair[now]) if k < s else None for pair, s in zip(states, steps)]
                for sub in bridge_subs:
                    for t in range(len(tiles)):
                        take(drawn, k, sub, t)
                bridge = [ring[sub][k % slots] for sub in bridge_subs]
                yield k, [(i, states[i][now], bxs[i]) for i, s in enumerate(steps) if k <= s], bridge
                for t, (a, b) in enumerate(tiles):
                    xi, scaled_xi = take(drawn, k, SUB_EM, t), scaled_tiles[t]
                    for i, bx in enumerate(bxs):
                        if bx is not None:
                            # x + eta * bx + sqrt(eta) * xi, operation for operation.
                            new = state_tiles[i][after][t]
                            np.multiply(etas[i], bx[a:b], new)
                            np.add(state_tiles[i][now][t], new, new)
                            np.multiply(roots[i], xi, scaled_xi)
                            np.add(new, scaled_xi, new)
                for i, bx in enumerate(bxs):
                    if bx is not None:
                        _guard(states[i][after], step=k + 1, time=(k + 1) * etas[i], eta=etas[i])
                del bxs  # the drifts, freed before the next step's
                drawn = upcoming
            yield last, [(i, states[i][last % 2], None) for i, s in enumerate(steps) if s == last], []
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

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
    """Run n independent chains of em_chain, on the one-element grid [eta],
    for the step_counts count of eta within horizon T.

    Returns the final SampleEnsemble, or (final, snapshots) when
    snapshot_times is given.  Snapshots land on grid times only (requested
    times are rounded down, with a warning when off-grid); times outside
    [0, T], and two times on one grid step, are rejected before the initial
    states are drawn.
    """
    steps = step_counts([eta], T, model.constants.L1, enforce_window)
    snap_steps = set()
    for t_req in snapshot_times or ():
        if not 0 <= t_req <= T:
            raise InputError(f"snapshot time {t_req} outside [0, horizon={T}]")
        k = grid_steps(t_req, eta, "snapshot time")
        if k in snap_steps:
            raise InputError(f"snapshot_times {snapshot_times} name one grid step of eta={eta} twice")
        snap_steps.add(k)
    chain = em_chain(model, init, [eta], steps, n, master_seed, enforce_window)
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
# 17 significant digits, which round-trips every finite double.  FLOAT_FORMAT defines them; write_ensemble_csv
# has a checked numpy path for 1e-4 <= |x| < 1e15, which "%.17g" writes in fixed notation.  There
# Dekker's two-product gives |x| 10^(16-E) = p + err exactly (E the decimal exponent, 10^(16-E) exact
# in binary64), and p >= 2^53 is an even integer, so p + rint(err) is the half-even rounding: the 17
# digits dtoa gives "%.17g".  0, -0, subnormals, non-finite values and other |x| take FLOAT_FORMAT.
# Beside a CSV whose points are all finite, write_ensemble_csv writes its binary twin, the CSV path plus
# TWIN_SUFFIX: 32 bytes of SHA-256 over the CSV's bytes followed by the payload, then the payload, the
# points as little-endian float64, row-major.  The CSV is a function of the points, so a twin whose digest
# matches holds bitwise the points that parsing the CSV gives, and read_ensemble_csv takes them from it;
# otherwise it parses the CSV.  A non-finite point gets no twin: "%.17g" writes -nan as nan, parsed as +nan.
# ---------------------------------------------------------------------------


FLOAT_FORMAT = "%.17g"
TWIN_SUFFIX = ".f64"
# Rows per formatted block of write_ensemble_csv, which bounds its memory.
CSV_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


# The item types a list may hold for one C-encoder call to write it, and that encoder per item separator,
# as json.dumps(..., allow_nan=False) builds it less the circular-reference check, which scalars never need.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_scalar_list_encoder = functools.cache(lambda separator: json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", separator, False, False, False))


def _json_key(key) -> str:
    """key as json writes a dict key: a str quoted, an int, float, bool or
    None first converted to its JSON text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key, allow_nan=False)
    return json.dumps(key)


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    writes it at a nesting whose lines start with indent, but with every
    non-finite float written as null.  json's indenting encoder is pure
    Python, so a list of scalars is written by one call to the C encoder
    with the newline and indent as its item separator, built once per indent."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= _SCALAR_TYPES:
            try:
                body = "".join(_scalar_list_encoder(",\n" + inner)(value, 0))
            except ValueError:  # a non-finite float, written as null below
                pass
            else:
                return f"[\n{inner}{body[1:-1]}\n{indent}]"
        return f"[\n{inner}" + f",\n{inner}".join(_json_text(v, inner) for v in value) + f"\n{indent}]"
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return json.dumps(value)


def write_json(path, payload: dict) -> None:
    """Write payload as strict JSON: sorted keys, a two-space indent, ASCII
    escapes, and a non-finite float as null."""
    Path(path).write_text(_json_text(payload, "") + "\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """Write rows under header; string cells are written as they are."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


# One fast value's bytes: ',', sign, "0.000", 17 digits each but the last followed by a point slot.
_FIELD = np.frombuffer(b",-0.000" + b"0." * 16 + b"0", np.uint8)


@functools.cache
def _digit_tables():
    """Built on first use: the ASCII digits of 0000..9999 as uint32s, their trailing zero counts, 10^s for
    s <= 22 with its Veltkamp head, and _FIELD's keep-mask as one record per ((E + 4) * 18 + nd) * 2 + sign."""
    k = np.arange(10**4)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1).astype(np.uint8) + 48
    e, nd = np.arange(-4, 16)[:, None, None, None], np.arange(18)[:, None, None]
    keep = np.ones((20, 18, 2, _FIELD.size), bool)
    keep[..., 1] = [False, True]
    keep[..., 2:7] = np.array([0, 0, 1, 2, 3]) < -e  # "0." and -1 - E zeros
    keep[..., 7::2] = np.arange(17) < np.maximum(nd, e + 1)
    keep[..., 8::2] = (np.arange(16) == e) & (nd > e + 1)
    powers = np.array([float(10**s) for s in range(23)])
    heads = 134217729.0 * powers - (134217729.0 * powers - powers)  # Veltkamp's split, as _exact_digits splits |x|
    return (digits.view(np.uint32).ravel(), sum(k % 10**j == 0 for j in range(1, 5)).astype(np.int8),
            np.stack([powers, heads]), keep.view(f"V{_FIELD.size}").ravel())


def _exact_digits(x):
    """(D, E) of each x in the fast domain: its 17 digits as "%.17g" rounds them, D in [10^16, 10^17), and E."""
    a = np.abs(x)
    a1 = 134217729.0 * a - (134217729.0 * a - a)  # Veltkamp's split: the top 26 bits, for Dekker's two-product
    e = np.floor(np.log10(a)).astype(np.int64)
    while True:  # log10 may be one off near a power of ten: test the exact pair, not its rounding
        b, b1 = _digit_tables()[2].take(16 - e, axis=1)
        p = a * b
        err = ((a1 * b1 - p) + a1 * (b - b1) + (a - a1) * b1) + (a - a1) * (b - b1)
        shift = ((p > 1e17) | ((p == 1e17) & (err >= 0))).astype(np.int64)
        shift -= (p < 1e16) | ((p == 1e16) & (err < 0))
        if not shift.any():
            break
        e += shift
    rounded = p.astype(np.int64) + np.rint(err).astype(np.int64)
    return np.where(rounded == 10**17, 10**16, rounded), e + (rounded == 10**17)  # rounded up: 10^16 at E + 1


def _ascii(v, count: int):
    """(the 4*count ASCII digits, leading zeros included, of each int64 v < 10^(4*count), as a uint8
    matrix; its base-10^4 digits, most significant first, from int32 base-10^8 ones, cheaper to divide)."""
    groups = []
    for _ in range(count // 2):
        q = v // 10**8
        piece = (v - q * 10**8).astype(np.int32)
        high = piece // 10**4
        groups += [piece - high * 10**4, high]
        v = q
    groups = ([v.astype(np.int32)] if count % 2 else []) + groups[::-1]
    return np.stack([_digit_tables()[0].take(group) for group in groups], axis=1).view(np.uint8), groups


def _fast_rows(chains, points, suffix):
    """The rows numbered chains (ascending) of points, all in the fast domain, each ending in
    the bytes suffix, as the row template writes them: a byte matrix compressed by a keep-mask."""
    (rows, d), field, width = points.shape, _FIELD.size, len(str(chains[-1]))
    text = np.empty((rows, width + d * field + suffix.size), np.uint8)
    text[:, :width] = _ascii(chains, -(-width // 4))[0][:, -width:]
    text[:, width:] = np.concatenate([np.tile(_FIELD, d), suffix])
    keep = np.ones(text.shape, bool)
    cuts = [0, *np.searchsorted(chains, 10 ** np.arange(1, width))]
    for k in range(1, width):  # the k-digit indices drop their leading zeros
        keep[cuts[k - 1] : cuts[k], : width - k] = False
    rounded, e = _exact_digits(points.ravel())
    digits, groups = _ascii(rounded, 5)
    _, zeros, _, classes = _digit_tables()
    tz = zeros.take(groups[1])
    for group in groups[2:]:  # the trailing zeros; the first digit is never 0
        tz = zeros.take(group) + (group == 0) * tz
    text[:, width : width + d * field].reshape(rows, d, field)[..., 7::2] = digits[:, 3:].reshape(rows, d, 17)
    code = ((e + 4) * 18 + 17 - tz) * 2 + (points.ravel() < 0)
    keep[:, width : width + d * field].view(f"V{field}")[:] = classes.take(code).reshape(rows, d)
    return np.compress(keep.ravel(), text)


def _template_rows(row: str, chains, block) -> bytes:
    """block's rows, numbered by chains, as the row template writes them."""
    args = [None] * (block.size + len(block))  # row-major: chain index, then the coordinates
    args[:: block.shape[1] + 1] = chains
    for k in range(block.shape[1]):
        args[k + 1 :: block.shape[1] + 1] = block[:, k].tolist()
    return ((row * len(block)) % tuple(args)).encode()


def write_ensemble_csv(ensemble: SampleEnsemble, path) -> None:
    """Write the ensemble as chain,coord0..coord{d-1},time rows ending in "\n" on every platform,
    CSV_CHUNK_ROWS rows at a time.  _fast_rows writes the rows whose values all lie in 1e-4 <= |x| < 1e15,
    digits exact by the On-disk format argument; FLOAT_FORMAT's row template writes each run of the rest.
    Then write the binary twin of the On-disk format when every point is finite, or remove any twin there."""
    d, n = ensemble.dim, ensemble.chain_count
    header = "chain," + ",".join(f"coord{j}" for j in range(d)) + ",time\n"
    row = "%d," + ",".join([FLOAT_FORMAT] * d) + (tail := f",{_fmt(ensemble.time)}\n")
    suffix = np.frombuffer(tail.encode(), np.uint8)
    digest = hashlib.sha256()
    with Path(path).open("wb") as fh:

        def write(data):  # every byte of the CSV also goes to the twin's digest
            fh.write(data)
            digest.update(data)

        write(header.encode())
        for a in range(0, n, CSV_CHUNK_ROWS):
            block = ensemble.points[a : a + CSV_CHUNK_ROWS]
            fast = ((1e-4 <= (mag := np.abs(block))) & (mag < 1e15)).all(axis=1)
            if not fast.any():
                write(_template_rows(row, range(a, a + len(block)), block))
                continue
            out, at = _fast_rows(np.flatnonzero(fast) + a, block[fast], suffix), 0
            if not fast.all():  # the slow rows by the row template, each run i..j - 1 after the fast rows before i
                text = _template_rows(row, (np.flatnonzero(~fast) + a).tolist(), block[~fast])
                i, j = np.flatnonzero(np.diff(fast, prepend=True, append=True)).reshape(-1, 2).T
                ends = np.concatenate([[0], np.flatnonzero(out == 10) + 1])[np.cumsum(fast)[i]]
                cuts = np.concatenate([[0], np.flatnonzero(np.frombuffer(text, "u1") == 10) + 1])[np.cumsum(j - i)]
                for end, c0, c1 in zip(ends.tolist(), [0, *cuts[:-1].tolist()], cuts.tolist()):
                    write(out[at:end])
                    write(text[c0:c1])
                    at = end
            write(out[at:])
    twin = Path(f"{path}{TWIN_SUFFIX}")
    if not np.isfinite(ensemble.points).all():
        twin.unlink(missing_ok=True)
        return
    payload = np.ascontiguousarray(ensemble.points, "<f8")  # the points' own buffer on a little-endian host
    digest.update(payload)
    with twin.open("wb") as fh:
        fh.write(digest.digest())
        fh.write(payload)


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
    {} when there is none, InputError when it is unreadable or not a JSON object."""
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        return {}
    try:
        meta = json.loads(sidecar.read_text())
    except (OSError, ValueError) as exc:  # a directory, undecodable bytes, invalid JSON
        raise InputError(f"{sidecar} is not a readable JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise InputError(f"{sidecar} is not a JSON sidecar: not an object")
    return meta


def _twin_points(path, rows: int, d: int, digest) -> np.ndarray | None:
    """The rows x d points of the binary twin of the CSV at path, when the twin has their size and its
    digest matches digest, the SHA-256 of the CSV's bytes, followed by its payload; None otherwise,
    and when the twin is missing or unreadable."""
    try:
        with open(f"{path}{TWIN_SUFFIX}", "rb") as fh:
            if os.fstat(fh.fileno()).st_size != 32 + 8 * rows * d:  # before allocating: rows * d comes from the CSV
                return None
            stored, points = fh.read(32), np.empty((rows, d), "<f8")
            if fh.readinto(points) != points.nbytes:
                return None
    except OSError:
        return None
    digest.update(points)
    return points if digest.digest() == stored else None


def read_ensemble_csv(path, sidecar: dict | None = None) -> SampleEnsemble:
    """Read an ensemble CSV and its JSON sidecar, unless the sidecar is given;
    without a sidecar the seed and step size are None, and the time is the
    first row's.  The points come from the CSV's binary twin when its digest
    matches (see On-disk format), and from parsing the CSV otherwise.

    A file that is not an ensemble CSV, has no data rows, or has a blank,
    ragged, commented or non-numeric row raises InputError naming it.
    """
    path = Path(path)
    with path.open("rb") as fh:
        head, first = fh.readline(), fh.readline()
        header = head.decode("ascii", "replace").rstrip("\r\n").split(",")
        # loadtxt skips blank lines, so count the rows it must return (an unterminated last one too).
        # Every block also goes to the twin's digest.
        lines, last, digest = 0, b"\n", hashlib.sha256(head)
        for block in itertools.chain([first], iter(functools.partial(fh.read, 1 << 16), b"")):
            digest.update(block)
            lines, last = lines + block.count(b"\n"), block[-1:] or last
        lines += last != b"\n"
    d = len(header) - 2
    if d < 1 or header[0] != "chain" or header[-1] != "time":
        raise InputError(f"{path} is not an ensemble CSV")
    if lines == 0:
        raise InputError(f"{path} has no data rows")
    points = _twin_points(path, lines, d, digest)
    if points is not None:
        time = float(first.rsplit(b",", 1)[-1])
    else:
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        if data.shape != (lines, d + 2):
            raise InputError(
                f"{path}: {lines} data lines under a {d + 2}-column header, "
                f"but {data.shape[0]} rows of {data.shape[1]} fields parsed"
            )
        points, time = data[:, 1 : 1 + d], float(data[0, -1])
    meta = read_ensemble_sidecar(path) if sidecar is None else sidecar
    return SampleEnsemble(
        time=meta.get("time", time),
        eta=meta.get("eta"),
        points=points,
        master_seed=meta.get("master_seed"),
        label=meta.get("label", "em"),
    )
