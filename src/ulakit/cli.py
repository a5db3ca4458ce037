"""Experiment driver: subcommands over JSON configs, emitting CSV + JSON.

Subcommands: rate-scan, mixing-scan, verify, sample, estimate, bound-eval.
Every command is configured by its JSON config alone; the flags are
--config, --out and --seed (overrides the config seed).

Every JSON report embeds the config hash, master seed, the c0/c1 constants
in force, and a claim-check verdict.  Exit status: 0 when all claim checks
pass, 1 when any fails, 2 on configuration errors.  Reruns from the recorded
config reproduce artifacts byte for byte.

One skeleton (run_command) loads, checks and records the config and emits
the report; each cmd_* function only computes, returning an Outcome.
Config keys are declared per command, nested maps included (CONFIG_KEYS,
ESTIMATOR_KEYS, BAND_KEYS, NESTED_KEYS); an undeclared key exits 2.

The exact oracles are closed forms: rate-scan takes the chain's moments from
gaussian_analytics.em_moments_linear, and mixing-scan, whose chain stays
diagonal in the target's eigenbasis, evaluates whole blocks of steps at once
to find the exact first step within eps.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bnd
from . import drift_models as dm
from . import estimators as est
from . import gaussian_analytics as ga
from . import samplers as sp
from .errors import ConfigurationError, DivergenceError, InputError

DEFAULT_BANDS = {
    "exact_slope": (1.85, 2.15),
    "exact_r2_min": 0.999,
    "girsanov_slope": (0.85, 1.15),
    "slope_gap_min": 0.7,
    "mixing_slope": {"KL": (-0.75, -0.40), "TV": (-1.3, -0.8), "W2": (-1.3, -0.8)},
    "sweep_slope": (1.9, 2.1),
}

# Top-level config keys of each command: (required, optional).  "seed" is
# always allowed; estimate also requires the keys of its estimator.
CONFIG_KEYS = {
    "rate-scan": (
        {"model", "init", "eta_grid", "horizon"},
        {"exact", "girsanov_chains", "quad_points_per_step", "bands"},
    ),
    "mixing-scan": (
        {"target", "rho", "init", "eps_grid"},
        {"metric", "max_steps", "bands"},
    ),
    "verify": ({"model"}, {"init"}),
    "sample": (
        {"model", "init", "eta", "horizon", "chains"},
        {"snapshot_times", "allow_outside_window"},
    ),
    "estimate": ({"estimator"}, {"inputs", "params"}),
    "bound-eval": ({"constants"}, {"theorem", "eta", "eta_grid", "horizon", "dim", "bands"}),
}
# Per estimator: (the top-level keys it requires, the keys of its "params").
ESTIMATOR_KEYS = {
    "knn_kl": (set(), {"k"}),
    "w2_empirical_1d": (set(), set()),
    "tv_histogram": (set(), {"bins_per_dim"}),
    "moment_estimate": (set(), {"p"}),
    "girsanov_pathwise_kl": ({"model", "init", "eta", "horizon", "chains"}, {"quad_points_per_step"}),
    "rate_fit": ({"points"}, set()),
}
# The DEFAULT_BANDS entries each command reads from its "bands", and the keys
# of the other nested maps.
BAND_KEYS = {
    "rate-scan": {"exact_slope", "exact_r2_min", "girsanov_slope", "slope_gap_min"},
    "mixing-scan": {"mixing_slope"},
    "bound-eval": {"sweep_slope"},
}
NESTED_KEYS = {
    "model": {"name", "params"},
    "init": {"mean", "sigma0"},
    "target": {"mean", "cov"},
    "constants": {f.name for f in dataclasses.fields(bnd.BoundConstants)},
}


def load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc


def _check_keys(where: str, entry, allowed) -> None:
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = sorted(entry.keys() - allowed)
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys: {', '.join(unknown)}")


def check_config_keys(command: str, cfg) -> None:
    """Reject a config that lacks a required key of the command or carries a
    key the command does not read, at the top level or in a nested map."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    required, optional = CONFIG_KEYS[command]
    nested = {key: NESTED_KEYS[key] for key in NESTED_KEYS.keys() & cfg.keys()}
    if command in BAND_KEYS and "bands" in cfg:
        nested["bands"] = BAND_KEYS[command]
    if command == "estimate" and str(cfg.get("estimator")) in ESTIMATOR_KEYS:
        extra, nested["params"] = ESTIMATOR_KEYS[str(cfg["estimator"])]
        required = required | extra
    missing = sorted(required - cfg.keys())
    if missing:
        raise ConfigurationError(f"{command} config lacks required keys: {', '.join(missing)}")
    _check_keys(f"{command} config", cfg, required | optional | {"seed"})
    for key in sorted(nested.keys() & cfg.keys()):
        _check_keys(f"{command} config {key!r}", cfg[key], nested[key])
    slopes = cfg.get("bands", {}).get("mixing_slope", {})
    _check_keys(f"{command} config bands 'mixing_slope'", slopes, MIXING_METRICS.keys())


def config_int(entry: dict, key: str, default=None) -> int:
    """entry[key], or default when it is absent, as an int.  A boolean, a
    non-number or a number with a fractional part is a ConfigurationError
    naming the key, never truncated."""
    value = entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_bool(entry: dict, key: str, default: bool) -> bool:
    """entry[key], or default when it is absent.  Anything but a JSON boolean
    (the string "false" included) is a ConfigurationError naming the key."""
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{key} must be true or false, got {value!r}")
    return value


def config_float(entry: dict, key: str, default=None) -> float:
    """entry[key], or default when it is absent, as a float.  A boolean, a
    string or another non-number, or a value that is not finite as a float,
    is a ConfigurationError naming the key."""
    return _number(entry.get(key, default), key)


def config_floats(entry: dict, key: str, default=None, positive: bool = False) -> list[float]:
    """entry[key], or default when it is absent, as a list of floats, each
    checked as by config_float and, with positive, above zero."""
    value = entry.get(key, default)
    if not isinstance(value, list):
        raise ConfigurationError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(v, key, positive) for v in value]


def config_array(entry: dict, key: str) -> np.ndarray:
    """entry[key], a number or nested lists of numbers, as a float array,
    each number checked as by config_float."""

    def numbers(value):
        return [numbers(v) for v in value] if isinstance(value, list) else _number(value, key)

    checked = numbers(entry[key])
    try:
        return np.array(checked, dtype=float)
    except ValueError:
        raise ConfigurationError(f"{key} has rows of different lengths") from None


def _number(value, key: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or (positive and not number > 0.0):
        raise ConfigurationError(f"{key} must be finite{' and positive' * positive}, got {value!r}")
    return number


def config_bands(resolved: dict) -> dict:
    """DEFAULT_BANDS overridden by the config's "bands": each a number or a
    [low, high] pair, and mixing_slope a map of such pairs per metric."""
    given = resolved.get("bands", {})
    bands = dict(DEFAULT_BANDS)
    for key in given:
        if isinstance(DEFAULT_BANDS[key], dict):
            bands[key] = {metric: _band(given[key], metric) for metric in given[key]}
        elif isinstance(DEFAULT_BANDS[key], tuple):
            bands[key] = _band(given, key)
        else:
            bands[key] = config_float(given, key)
    return bands


def _band(entry: dict, key: str) -> tuple[float, float]:
    band = config_floats(entry, key)
    if len(band) != 2:
        raise ConfigurationError(f"{key} must be a [low, high] pair, got {entry[key]!r}")
    return tuple(band)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_model(entry: dict) -> dm.DriftModel:
    if not isinstance(entry, dict) or "name" not in entry:
        raise ConfigurationError('model config must be {"name": ..., "params": {...}}')
    try:
        return dm.make_model(entry["name"], **entry.get("params", {}))
    except TypeError as exc:
        raise ConfigurationError(f"bad model parameters: {exc}") from exc


def build_init(entry: dict, dim: int) -> sp.InitDensity:
    if not isinstance(entry, dict) or "sigma0" not in entry:
        raise ConfigurationError('init config must be {"mean": [...], "sigma0": s}')
    mean = config_array(entry, "mean") if "mean" in entry else np.zeros(dim)
    if mean.ndim == 0:
        mean = np.full(dim, mean)
    if mean.shape != (dim,):
        raise ConfigurationError(f"init mean must have dimension {dim}")
    return sp.InitDensity(mean=mean, sigma0=config_float(entry, "sigma0"))


class Outcome(NamedTuple):
    """What a command computed: report fields (they may override c0/c1), claim
    checks, and the report's writer when it does not go to <command>.json."""

    fields: dict
    claims: list[dict]
    write_report: Callable[[dict], None] | None = None


def run_command(args) -> int:
    """Load and check the config, resolve the seed, create the output
    directory, run the command, record the config it ran with, write the
    report, print the c0/c1 and verdict lines, and return the exit status."""
    cfg = load_config(args.config)
    check_config_keys(args.command, cfg)
    resolved = dict(cfg)
    if args.seed is not None:
        resolved["seed"] = args.seed
    resolved["seed"] = config_int(resolved, "seed", 0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # estimate resolves its input paths in the config, so it is hashed and
    # recorded after the command runs.
    outcome = args.func(resolved, out_dir, args)
    claims = outcome.claims
    all_pass = all(c["pass"] for c in claims)
    report = {
        "config_hash": config_hash(resolved),
        "master_seed": resolved["seed"],
        "c0": 1.0,
        "c1": 1.0,
        **outcome.fields,
        "claims": claims,
        "all_pass": all_pass,
        "verdict_line": ("PASS" if all_pass else "FAIL") + ": " + "; ".join(
            f"{c['name']}={'ok' if c['pass'] else 'FAIL'}" for c in claims
        ),
    }
    name = args.command.replace("-", "_")
    sp.write_json(out_dir / f"{name}_config.json", resolved)
    if outcome.write_report is None:
        sp.write_json(out_dir / f"{name}.json", report)
    else:
        outcome.write_report(report)
    print(f"c0={report['c0']} c1={report['c1']}")
    print(report["verdict_line"])
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# rate-scan
# ---------------------------------------------------------------------------


def cmd_rate_scan(resolved: dict, out_dir: Path, args) -> Outcome:
    model = build_model(resolved["model"])
    init = build_init(resolved["init"], model.dim)
    etas = config_floats(resolved, "eta_grid")
    if not etas:
        raise ConfigurationError("eta_grid must be nonempty")
    T = config_float(resolved, "horizon")
    use_exact = config_bool(resolved, "exact", True)
    n_chains = config_int(resolved, "girsanov_chains", 0)
    quad = config_int(resolved, "quad_points_per_step", 4)
    seed = resolved["seed"]
    bands = config_bands(resolved)

    if use_exact and model.linear is None:
        raise ConfigurationError(
            f"model {model.name!r} has no linear drift: the exact-KL column is unavailable; "
            "set exact=false and compare against a fine-step reference ensemble instead"
        )

    records = []
    for eta in etas:
        bnd.check_step(eta, model.constants.L1)
        steps = sp.grid_steps(T, eta)
        rec = {"eta": eta, "steps": steps}
        if use_exact:
            hat = ga.em_moments_linear(model.linear, init.moments(), eta, steps)
            ref = ga.continuous_moments_linear(model.linear, init.moments(), steps * eta)
            rec["kl_exact"] = ga.kl_gaussian(hat, ref)
            rec["em_moments"] = hat.to_dict()
            rec["exact_moments"] = ref.to_dict()
        records.append(rec)
    if n_chains > 0:
        # One comparator call steps the whole grid on the shared noise.
        kl_girs = est.girsanov_pathwise_kl(model, init, etas, T, n_chains, seed, quad_points_per_step=quad)
        for rec, value in zip(records, kl_girs):
            rec["kl_girsanov"] = value
    exact_pairs = [(rec["eta"], rec["kl_exact"]) for rec in records if "kl_exact" in rec]
    girs_pairs = [(rec["eta"], rec["kl_girsanov"]) for rec in records if "kl_girsanov" in rec]
    rows = [[rec["eta"], rec.get("kl_exact", ""), rec.get("kl_girsanov", "")] for rec in records]
    sp.write_csv(out_dir / "rate_scan.csv", ["eta", "kl_exact", "kl_girsanov"], rows)

    def _fit(pairs):
        if len(pairs) >= 3 and all(v > 0 for _, v in pairs):
            return est.rate_fit(pairs)
        return None

    fit_exact = _fit(exact_pairs)
    fit_girs = _fit(girs_pairs)

    claims = []
    if use_exact:
        if fit_exact is None:
            claims.append({
                "name": "exact_slope", "pass": True,
                "detail": "degenerate scan (zero KL: discretization is exact)",
            })
        else:
            lo, hi = bands["exact_slope"]
            ok = lo <= fit_exact.slope <= hi and fit_exact.r_squared >= bands["exact_r2_min"]
            claims.append({
                "name": "exact_slope", "pass": bool(ok),
                "detail": f"slope={fit_exact.slope:.4f} r2={fit_exact.r_squared:.6f} band=[{lo},{hi}]",
            })
    if n_chains > 0 and fit_girs is not None:
        lo, hi = bands["girsanov_slope"]
        claims.append({
            "name": "girsanov_slope", "pass": bool(lo <= fit_girs.slope <= hi),
            "detail": f"slope={fit_girs.slope:.4f} band=[{lo},{hi}]",
        })
    if fit_exact is not None and fit_girs is not None:
        gap = fit_exact.slope - fit_girs.slope
        claims.append({
            "name": "slope_gap", "pass": bool(gap >= bands["slope_gap_min"]),
            "detail": f"slope(exact)-slope(girsanov)={gap:.4f} >= {bands['slope_gap_min']}",
        })
    if not claims:
        claims.append({"name": "completed", "pass": True, "detail": "no claim checks requested"})

    return Outcome({
        "records": records,
        "fit_exact": fit_exact.to_dict() if fit_exact else None,
        "fit_girsanov": fit_girs.to_dict() if fit_girs else None,
    }, claims)


# ---------------------------------------------------------------------------
# mixing-scan
# ---------------------------------------------------------------------------


# Per metric: the distance to the target of a Gaussian that is diagonal in the
# target's eigenbasis, from its mean gap and variances there, and the KL
# tolerance the step-size rule (stated for KL) is given for tolerance eps,
# through Pinsker (TV <= sqrt(KL/2)) or Talagrand (W2 <= sqrt(2 KL/rho)).
MIXING_METRICS = {
    "KL": (ga.kl_gaussian_diag, lambda eps, rho: eps),
    "TV": (ga.tv_gaussian_diag, lambda eps, rho: 2.0 * eps**2),
    "W2": (ga.w2_gaussian_diag, lambda eps, rho: rho * eps**2 / 2.0),
}
# Rows (step counts) of the first search block, and the most array elements
# (rows times dimension) one block may hold.
FIRST_BLOCK_ROWS = 64
BLOCK_ELEMENTS = 1 << 12


def mixing_kl_tolerance(kl_tolerance, eps: float, rho: float) -> float:
    """The KL tolerance of accuracy eps; a ConfigurationError when it
    overflows."""
    try:
        tolerance = kl_tolerance(eps, rho)
    except OverflowError:
        tolerance = math.inf
    if tolerance == math.inf:
        raise ConfigurationError(f"the KL tolerance of eps={eps} leaves the float range")
    return tolerance


def first_crossing(distance, gap, var0, eta, w, s, eps, max_steps):
    """First k in 1..max_steps at which the forward-Euler chain for the drift
    with eigenvalues w, started at mean gap `gap` and isotropic variance var0
    in the eigenbasis of the target N(0, diag s), is within eps of the
    target; None when there is none.

    Blocks of consecutive k are evaluated at once, growing geometrically up
    to BLOCK_ELEMENTS entries, so memory is bounded whatever max_steps is.
    Every k is evaluated in order, so the first crossing is exact without
    assuming the distance decreases.  The target is the fixed point of the
    chain's mean, so the mean gap after k steps is lam^k gap.
    """
    cap = max(FIRST_BLOCK_ROWS, BLOCK_ELEMENTS // w.size)
    start, rows = 1, FIRST_BLOCK_ROWS
    while start <= max_steps:
        k = np.arange(start, min(start + rows, max_steps + 1))[:, None]
        power, _, var_sum = ga.em_mode_sums(eta * w, k)
        var = power * power * var0 + eta * var_sum
        mean_gap = power * gap
        bad = ~np.all(np.isfinite(mean_gap) & np.isfinite(var) & (var > 0), axis=1)
        stop = bad | (distance(mean_gap, var, s) <= eps)
        if stop.any():
            i = int(np.argmax(stop))
            if bad[i]:
                raise InputError(f"chain moments are not finite positive-definite at step {k[i, 0]}")
            return int(k[i, 0])
        start += k.size
        rows = min(2 * rows, cap)
    return None


def cmd_mixing_scan(resolved: dict, out_dir: Path, args) -> Outcome:
    rho = config_float(resolved, "rho")
    tgt_cfg = resolved["target"]
    if not isinstance(tgt_cfg, dict) or not {"mean", "cov"} <= tgt_cfg.keys():
        raise ConfigurationError('mixing-scan needs a Gaussian "target": {"mean": [...], "cov": [[...]]}')
    target = ga.GaussianMoments(config_array(tgt_cfg, "mean"), config_array(tgt_cfg, "cov"))
    d = target.dim
    # ULA drift for the target: b = -grad(U)/2 with U the Gaussian potential,
    # so A = -cov^-1 / 2 shares the target's eigenbasis.  The start is
    # isotropic, so every marginal is diagonal in that basis too.
    s, Q = np.linalg.eigh(target.cov)
    w = -0.5 / s
    L1 = float(np.max(np.abs(w)))
    start = build_init(resolved["init"], d)
    gap = Q.T @ (start.mean - target.mean)
    var0 = np.square(start.sigma0)  # inf, not OverflowError, for a huge sigma0
    metric = str(resolved.get("metric", "KL")).upper()
    if metric not in MIXING_METRICS:
        raise ConfigurationError(f"mixing metric must be one of KL, TV, W2 (got {metric!r})")
    distance, kl_tolerance = MIXING_METRICS[metric]
    eps_grid = config_floats(resolved, "eps_grid", positive=True)
    tolerances = [mixing_kl_tolerance(kl_tolerance, eps, rho) for eps in eps_grid]
    max_steps = config_int(resolved, "max_steps", 10**6)
    bands = config_bands(resolved)

    rows, records, fit_pairs = [], [], []
    for eps, tolerance in zip(eps_grid, tolerances):
        eta = bnd.step_size_rule(tolerance, rho, d)
        if distance(gap, var0, s) <= eps:
            n_measured = 0  # already mixed at k = 0; no stepping needed
        else:
            bnd.check_step(eta, L1)
            n_measured = first_crossing(distance, gap, var0, eta, w, s, eps, max_steps)
        if n_measured is None:
            raise ConfigurationError(
                f"no crossing within max_steps={max_steps} for eps={eps}; "
                "the discretization bias floor may exceed eps"
            )
        pred = bnd.mixing_time_predict(eps, rho, d, metric)
        rows.append([eps, eta, n_measured, pred.steps])
        records.append({
            "eps": eps, "eta": eta, "n_measured": n_measured,
            "n_predicted": pred.steps, "note": pred.note,
        })
        if n_measured > 0:
            fit_pairs.append((eps, float(n_measured)))
    sp.write_csv(out_dir / "mixing_scan.csv", ["eps", "eta_used", "N_measured", "N_predicted"], rows)

    fit = est.rate_fit(fit_pairs) if len(fit_pairs) >= 3 else None
    band = bands["mixing_slope"].get(metric)
    if fit is not None and band is not None:
        lo, hi = band
        claims = [{
            "name": "mixing_slope", "pass": bool(lo <= fit.slope <= hi),
            "detail": f"slope(log N vs log eps)={fit.slope:.4f} band=[{lo},{hi}]",
        }]
    else:
        claims = [{"name": "completed", "pass": True, "detail": "scan completed (no slope fit)"}]

    return Outcome({
        "metric": metric,
        "records": records,
        "fit": fit.to_dict() if fit else None,
        "log_factor_note": bnd.LOG_FACTOR_NOTE,
    }, claims)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Sampled point pairs for the Lipschitz checks, points for the Jacobian
# finite-difference check, and the shell radii of the dissipativity fit
# (16 directions per radius); the ball is CERT_RADIUS.
VERIFY_PAIRS = 100
VERIFY_GRAD_POINTS = 20
VERIFY_RADIUS_GRID = np.unique(np.concatenate([np.geomspace(0.25, 8.0, 12), [1.0]]))


def cmd_verify(resolved: dict, out_dir: Path, args) -> Outcome:
    model = build_model(resolved["model"])
    init = build_init(resolved["init"], model.dim) if "init" in resolved else sp.InitDensity(
        mean=np.zeros(model.dim), sigma0=1.0
    )
    seed = resolved["seed"]
    rng = np.random.default_rng(seed)
    cert = model.constants
    report_sections = {}

    def sample_ball(count):
        pts = rng.standard_normal((count, model.dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts * (dm.CERT_RADIUS * rng.random((count, 1)))

    # Drift Lipschitz constant.
    xs, ys = sample_ball(VERIFY_PAIRS), sample_ball(VERIFY_PAIRS)
    worst_l1 = 0.0
    for x, y in zip(xs, ys):
        gap = float(np.linalg.norm(x - y))
        if gap == 0.0:
            continue
        ratio = float(np.linalg.norm(dm.drift_eval(model, x) - dm.drift_eval(model, y))) / gap
        worst_l1 = max(worst_l1, ratio)
    ok_l1 = worst_l1 <= cert.L1 * (1 + 1e-9) + 1e-12
    report_sections["lipschitz_drift"] = {
        "pass": bool(ok_l1), "declared_L1": cert.L1, "witnessed_ratio": worst_l1,
    }

    # Jacobian Lipschitz constant plus finite-difference agreement.
    worst_l2 = 0.0
    for x, y in zip(xs, ys):
        gap = float(np.linalg.norm(x - y))
        if gap == 0.0:
            continue
        dj = dm.drift_jacobian(model, x) - dm.drift_jacobian(model, y)
        worst_l2 = max(worst_l2, float(np.linalg.norm(dj, 2)) / gap)
    worst_fd = max(dm.grad_check(model, x, h=1e-5) for x in sample_ball(VERIFY_GRAD_POINTS))
    ok_l2 = worst_l2 <= cert.L2 * (1 + 1e-9) + 1e-12 and worst_fd < 1e-5
    report_sections["smooth_drift"] = {
        "pass": bool(ok_l2), "declared_L2": cert.L2,
        "witnessed_ratio": worst_l2, "grad_check_max": worst_fd,
    }

    # Distant dissipativity.
    fit = dm.dissipativity_fit(model, VERIFY_RADIUS_GRID, seed=seed)
    diss = {"declared": list(cert.dissipativity) if cert.dissipativity else None}
    if fit is not None:
        diss.update({"pass": True, "witnessed_mu": fit[0], "witnessed_beta": fit[1]})
    else:
        mu_floor = min(dm.MU_LADDER)
        probe = sample_ball(512)
        g = np.sum(model.drift(probe) * probe, axis=1) + mu_floor * np.sum(probe**2, axis=1)
        worst = int(np.argmax(g))
        diss.update({
            "pass": False,
            "witness_point": probe[worst].tolist(),
            "witness_value": float(g[worst]),
            "detail": "no ladder rate certifies <b(x),x> <= -mu||x||^2 + beta on the sampled shells",
        })
    report_sections["dissipativity"] = diss

    # Initialization tail certificate.
    h0, sig = dm.verify_init(init)
    grid = rng.standard_normal((512, model.dim)) * 3.0 * init.sigma0 + init.mean
    lhs = -init.log_density(grid)
    rhs = h0 + np.sum(grid**2, axis=1) / sig**2
    ok_init = bool(np.all(lhs <= rhs + 1e-9))
    report_sections["smooth_init"] = {
        "pass": ok_init, "h0": h0, "sigma_cert": sig,
        "max_violation": float(np.max(lhs - rhs)),
    }

    claims = [
        {"name": name, "pass": bool(sec["pass"]), "detail": ""}
        for name, sec in report_sections.items()
    ]
    return Outcome({"assumptions": report_sections}, claims)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(resolved: dict, out_dir: Path, args) -> Outcome:
    """Writes ensemble.csv, snapshot CSVs each with its lineage sidecar, and
    the ensemble.json sidecar, which carries the report; a divergence leaves
    only the report, in sample.json."""
    model = build_model(resolved["model"])
    init = build_init(resolved["init"], model.dim)
    eta = config_float(resolved, "eta")
    T = config_float(resolved, "horizon")
    n = config_int(resolved, "chains")
    seed = resolved["seed"]
    snaps = config_floats(resolved, "snapshot_times") if "snapshot_times" in resolved else None
    enforce = not config_bool(resolved, "allow_outside_window", False)

    lo, hi = bnd.step_window(model.constants.L1)
    print(f"master_seed={seed} step_window=({lo:g}, {hi:g}) eta={eta:g}")
    try:
        result = sp.simulate_ensemble(
            model, init, eta, T, n, seed, snapshot_times=snaps, enforce_window=enforce
        )
    except DivergenceError as exc:
        return Outcome({}, [{
            "name": "simulation", "pass": False,
            "detail": f"divergence: {exc} (chain={exc.chain}, step={exc.step})",
        }])

    final, snapshots = (result, []) if snaps is None else result
    sp.write_ensemble_csv(final, out_dir / "ensemble.csv")
    snap_files = []
    for i, snap in enumerate(snapshots):
        name = f"snapshot_{i:03d}"
        sp.write_ensemble_csv(snap, out_dir / f"{name}.csv")
        sp.write_ensemble_sidecar(snap, out_dir / f"{name}.json", model=model)
        snap_files.append({"file": f"{name}.csv", "time": snap.time})
    claims = [{
        "name": "window_check", "pass": True,
        "detail": f"eta={eta} inside ({lo:g}, {hi:g})" if eta < hi else "window check overridden",
    }]

    def write_sidecar(report):
        sp.write_ensemble_sidecar(
            final, out_dir / "ensemble.json", model=model,
            extra={**report, "snapshots": snap_files},
        )

    return Outcome({}, claims, write_sidecar)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


# Sidecar fields each CSV input's entry in estimate.json's inputs_lineage carries.
LINEAGE_FIELDS = ("master_seed", "eta", "time", "label", "chain_count")


def cmd_estimate(resolved: dict, out_dir: Path, args) -> Outcome:
    name = resolved["estimator"]
    params = dict(resolved.get("params", {}))
    # Input paths resolve against the config's directory; they are recorded
    # as the absolute paths read, so a rerun from the recorded config (which
    # sits in the output directory) reads the same files.
    if "inputs" in resolved:
        if not isinstance(resolved["inputs"], dict):
            raise ConfigurationError('estimate "inputs" must map input names to CSV paths')
        base = Path(args.config).parent
        resolved["inputs"] = {k: str((base / p).resolve()) for k, p in resolved["inputs"].items()}
    inputs = resolved.get("inputs", {})
    lineage = {}

    def load(key):
        if key not in inputs:
            raise ConfigurationError(f"estimator {name!r} needs input {key!r}")
        if not Path(inputs[key]).is_file():
            raise ConfigurationError(f"estimator input {key!r} not found: {inputs[key]}")
        # Lineage comes from the input's sidecar alone: null where it has none.
        meta = sp.read_ensemble_sidecar(inputs[key])
        lineage[key] = {f: meta.get(f) for f in LINEAGE_FIELDS}
        return sp.read_ensemble_csv(inputs[key])

    if name == "knn_kl":
        value = est.knn_kl(load("p"), load("q"), k=config_int(params, "k", 5))
    elif name == "w2_empirical_1d":
        value = est.w2_empirical_1d(load("p"), load("q"))
    elif name == "tv_histogram":
        value = est.tv_histogram(load("p"), load("q"), bins_per_dim=config_int(params, "bins_per_dim", 64))
    elif name == "moment_estimate":
        value = est.moment_estimate(load("samples"), p=config_int(params, "p", 2))
    elif name == "girsanov_pathwise_kl":
        model = build_model(resolved["model"])
        init = build_init(resolved["init"], model.dim)
        [value] = est.girsanov_pathwise_kl(
            model, init,
            etas=[config_float(resolved, "eta")], T=config_float(resolved, "horizon"),
            n=config_int(resolved, "chains"), master_seed=resolved["seed"],
            quad_points_per_step=config_int(params, "quad_points_per_step", 4),
        )
    elif name == "rate_fit":
        fit = est.rate_fit(config_array(resolved, "points"))
        value = fit.slope
        params["fit"] = fit.to_dict()
    else:
        raise ConfigurationError(f"unknown estimator {name!r}")

    claims = [{"name": "estimate", "pass": bool(np.isfinite(value)), "detail": f"{name}={value:.6g}"}]
    return Outcome(
        {"estimator": name, "parameters": params, "value": value, "inputs_lineage": lineage}, claims
    )


# ---------------------------------------------------------------------------
# bound-eval
# ---------------------------------------------------------------------------


def cmd_bound_eval(resolved: dict, out_dir: Path, args) -> Outcome:
    theorem = config_int(resolved, "theorem", 1)
    if theorem not in (1, 2):
        raise ConfigurationError("theorem must be 1 (dissipative) or 2 (non-negative potential)")
    given = resolved["constants"]
    constants = bnd.BoundConstants.from_dict({key: config_float(given, key) for key in given})

    T = config_float(resolved, "horizon", 1.0)
    d = config_int(resolved, "dim", 1)
    terms_of = bnd.kl_bound_dissipative_terms if theorem == 1 else bnd.kl_bound_nonneg_potential_terms

    def evaluator(eta):
        # A total that overflows through addition is inf, which bound_finite
        # reports; a power that overflows raises.
        try:
            return terms_of(constants, eta, T, d)
        except OverflowError:
            raise InputError(
                f"the theorem {theorem} bound leaves the float range for these constants"
            ) from None

    fields = {"c0": constants.c0, "c1": constants.c1, "theorem": theorem, "horizon": T, "dim": d}
    if "eta" in resolved:
        eta = config_float(resolved, "eta")
        terms = evaluator(eta)
        fields.update({"eta": eta, "terms": terms, "value": terms["total"]})
        claims = [{
            "name": "bound_finite", "pass": bool(np.isfinite(terms["total"])),
            "detail": f"value={terms['total']:.6g}",
        }]
    elif "eta_grid" in resolved:
        pairs = []
        sweep = []
        for eta in config_floats(resolved, "eta_grid"):
            terms = evaluator(eta)
            pairs.append((eta, terms["total"]))
            sweep.append({"eta": eta, "value": terms["total"]})
        fit = est.rate_fit(pairs)
        lo, hi = config_bands(resolved)["sweep_slope"]
        fields.update({"sweep": sweep, "fit": fit.to_dict()})
        claims = [{
            "name": "sweep_slope", "pass": bool(lo <= fit.slope <= hi),
            "detail": f"slope={fit.slope:.6f} band=[{lo},{hi}]",
        }]
    else:
        raise ConfigurationError("bound-eval needs an eta or an eta_grid in the config")
    return Outcome(fields, claims)


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulakit",
        description="Euler-Maruyama Langevin experiments with exact Gaussian oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The cmd_* functions are looked up here, once per parse, so that a
    # replaced module attribute takes effect on the next call of main().
    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.set_defaults(func=func)

    command("rate-scan", cmd_rate_scan, "KL discretization error vs step size")
    command("mixing-scan", cmd_mixing_scan, "first-crossing mixing times vs accuracy")
    command("verify", cmd_verify, "check declared drift/init certificates by sampling")
    command("sample", cmd_sample, "run a seeded chain ensemble to CSV")
    command("estimate", cmd_estimate, "run a sample-based estimator on ensemble CSVs")
    command("bound-eval", cmd_bound_eval, "evaluate a KL error bound with term audit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except (TypeError, ValueError) as exc:
        # The library's input errors (ConfigurationError, InputError,
        # UnsupportedError) are ValueErrors; float() and numpy raise a
        # ValueError or TypeError for a config value of the wrong type.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc} (chain={exc.chain}, step={exc.step})", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
