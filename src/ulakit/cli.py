"""Experiment driver: subcommands over JSON configs, emitting CSV + JSON.

Subcommands: rate-scan, mixing-scan, verify, sample, estimate, bound-eval.
Every command is configured by its JSON config alone; the flags are
--config, --out and --seed (overrides the config seed).

Every JSON report embeds the config hash, master seed, the c0/c1 constants
in force, and a claim-check verdict.  Exit status: 0 when all claim checks
pass, 1 when any fails, 2 on configuration errors.  Reruns from the recorded
config reproduce artifacts byte for byte.

One skeleton (run_command) reads, records and writes; each cmd_* function
only computes from the typed config, returning an Outcome with its files'
writers, so the output directory appears only once a command has returned.
COMMANDS (and ESTIMATORS, one table per estimator) declares every config
key once, nested maps included, with the reader that types it and its
default; a missing, undeclared or wrongly typed key exits 2 before any
output.

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
import warnings
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import bounds as bnd
from . import drift_models as dm
from . import estimators as est
from . import gaussian_analytics as ga
from . import samplers as sp
from .errors import DivergenceError, InputError

# The default of a key the config must give.
REQUIRED = object()


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise InputError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config must be a JSON object")
    return cfg


def read_config(command: str, cfg: dict) -> dict:
    """cfg typed through the table of command, or for estimate through the
    table of its estimator."""
    table = COMMANDS[command]
    if command == "estimate" and "estimator" in cfg:
        table = ESTIMATORS[read_choice(cfg["estimator"], "estimator", ESTIMATORS)]
    return read_table(table, cfg)


def read_table(table: dict, entry, path: str = "") -> dict:
    """entry typed through table, which maps each key to (reader, default),
    or to (reader,) for a key without a default, which then stays absent.

    A reader is a function (value, key) -> typed value, or the table of a
    nested map.  A default is read like a given value; REQUIRED marks a key
    entry must hold.  A missing or undeclared key, or a value its reader
    rejects, is an InputError naming its dotted path.
    """
    where = path or "config"
    if not isinstance(entry, dict):
        raise InputError(f"{where} must be a JSON object")
    missing = sorted(key for key, (_, *default) in table.items() if default == [REQUIRED] and key not in entry)
    if missing:
        raise InputError(f"{where} lacks required keys: {', '.join(missing)}")
    unknown = sorted(entry.keys() - table.keys())
    if unknown:
        raise InputError(f"{where} has unknown keys: {', '.join(unknown)}")
    typed = {}
    for key, (reader, *default) in table.items():
        if key in entry or default:
            value = entry[key] if key in entry else default[0]
            key_path = f"{path}.{key}" if path else key
            typed[key] = read_table(reader, value, key_path) if isinstance(reader, dict) else reader(value, key_path)
    return typed


def read_int(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as an int.  A boolean, a non-number, a number with a fractional
    part, or one below minimum or above maximum, is rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ) or (minimum is not None and value < minimum) or (maximum is not None and value > maximum):
        bounds = "" if minimum is None else f" >= {minimum}" if maximum is None else f" in [{minimum}, {maximum}]"
        raise InputError(f"{key} must be an integer{bounds}, got {value!r}")
    return int(value)


def read_seed(value, key: str) -> int:
    """value as a master seed, in the range samplers.check_seed accepts."""
    return sp.check_seed(read_int(value, key))


def read_bool(value, key: str) -> bool:
    """value, a JSON boolean; anything else, "false" included, is rejected."""
    if not isinstance(value, bool):
        raise InputError(f"{key} must be true or false, got {value!r}")
    return value


def read_number(value, key: str, positive: bool = False) -> float:
    """value as a float.  A boolean, a string or another non-number, a value
    that is not finite as a float, or with positive one not above zero, is
    rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or (positive and not number > 0.0):
        raise InputError(f"{key} must be finite{' and positive' * positive}, got {value!r}")
    return number


def read_floats(value, key: str, positive: bool = False) -> list[float]:
    """value, a list, as floats each read by read_number."""
    if not isinstance(value, list):
        raise InputError(f"{key} must be a list of numbers, got {value!r}")
    return [read_number(v, key, positive) for v in value]


def read_array(value, key: str) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float array, each
    number read by read_number."""

    def numbers(value):
        return [numbers(v) for v in value] if isinstance(value, list) else read_number(value, key)

    checked = numbers(value)
    try:
        return np.array(checked, dtype=float)
    except ValueError:
        raise InputError(f"{key} has rows of different lengths") from None


def read_choice(value, key: str, choices) -> str:
    """value, a string spelled exactly as one of choices; anything else,
    another case or type included, is rejected."""
    if not (isinstance(value, str) and value in choices):
        raise InputError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def read_inputs(value, key: str, names: tuple[str, ...] = ()) -> dict[str, str]:
    """value, a map from exactly the input names an estimator reads to CSV
    paths, in the order of names."""
    if not (isinstance(value, dict) and value.keys() == set(names) and all(isinstance(p, str) for p in value.values())):
        raise InputError(f"{key} must map exactly {list(names)} to CSV paths, got {value!r}")
    return {name: value[name] for name in names}


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_model(entry: dict) -> dm.DriftModel:
    try:
        return dm.make_model(entry["name"], **entry["params"])
    except TypeError as exc:
        raise InputError(f"bad model parameters: {exc}") from exc


def chain_steps(eta: float, T: float, L1: float, key: str, enforce_window: bool = True) -> int:
    """The steps of size eta within horizon T, after bounds.check_step; an
    InputError naming key when eta takes no step."""
    bnd.check_step(eta, L1, enforce_window)
    steps = sp.grid_steps(T, eta)
    if steps < 1:
        raise InputError(f"{key} value {eta} takes no step within horizon={T}")
    return steps


def build_init(entry: dict, dim: int) -> sp.InitDensity:
    mean = entry.get("mean", np.zeros(dim))
    if mean.ndim == 0:
        mean = np.full(dim, mean)
    if mean.shape != (dim,):
        raise InputError(f"init mean must have dimension {dim}")
    return sp.InitDensity(mean=mean, sigma0=entry["sigma0"])


def slope_fit(pairs) -> est.RateFit | None:
    """The rate fit of (step, value) pairs; None for a scan too short to fit
    (see estimators.fits_rate) or with a value that is not positive."""
    return est.rate_fit(pairs) if est.fits_rate(pairs) and all(v > 0 for _, v in pairs) else None


class Outcome(NamedTuple):
    """What a command computed: report fields (they may override c0/c1), claim
    checks, its files as (name, writer) pairs, each writer called with the
    file's path, and the report's file name when it is not <command>.json."""

    fields: dict
    claims: list[dict]
    files: Sequence = ()
    report_file: str | None = None


def run_command(args) -> int:
    """Read the config through its command's table, resolve the seed and the
    input paths, run the command on the typed config; then create the output
    directory, write the command's files, the config it ran with and the
    report, print the c0/c1 and verdict lines, and return the exit status."""
    resolved = load_config(args.config)
    if args.seed is not None:
        resolved["seed"] = args.seed
    cfg = read_config(args.command, resolved)
    resolved["seed"] = cfg["seed"]
    if "inputs" in resolved:
        # Input paths resolve against the config's directory; they are
        # recorded as the absolute paths read, so a rerun from the recorded
        # config (which sits in the output directory) reads the same files.
        base = Path(args.config).parent
        resolved["inputs"] = cfg["inputs"] = {k: str((base / p).resolve()) for k, p in cfg["inputs"].items()}

    outcome = args.func(cfg)
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for file_name, write in outcome.files:
        write(out_dir / file_name)
    sp.write_json(out_dir / f"{name}_config.json", resolved)
    sp.write_json(out_dir / (outcome.report_file or f"{name}.json"), report)
    print(f"c0={report['c0']} c1={report['c1']}")
    print(report["verdict_line"])
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# rate-scan
# ---------------------------------------------------------------------------


# The paper's orders as claim bands no config changes: slope 2 (with a least
# r^2) for the exact KL, slope 1 for the pathwise comparator, and their least gap.
EXACT_SLOPE = (1.85, 2.15)
EXACT_R2_MIN = 0.999
GIRSANOV_SLOPE = (0.85, 1.15)
SLOPE_GAP_MIN = 0.7


def cmd_rate_scan(cfg: dict) -> Outcome:
    model = build_model(cfg["model"])
    init = build_init(cfg["init"], model.dim)
    etas = cfg["eta_grid"]
    if not etas:
        raise InputError("eta_grid must be nonempty")
    T, n_chains = cfg["horizon"], cfg["girsanov_chains"]

    if cfg["exact"] and model.linear is None:
        raise InputError(
            f"model {model.name!r} has no linear drift: the exact-KL column is unavailable; "
            "set exact=false and compare against a fine-step reference ensemble instead"
        )

    with warnings.catch_warnings():
        if n_chains > 0:
            warnings.simplefilter("ignore")  # the comparator warns of an off-grid horizon itself
        step_counts = [chain_steps(eta, T, model.constants.L1, "eta_grid") for eta in etas]
    records = []
    for eta, steps in zip(etas, step_counts):
        rec = {"eta": eta, "steps": steps}
        if cfg["exact"]:
            hat = ga.em_moments_linear(model.linear, init.moments(), eta, steps)
            ref = ga.continuous_moments_linear(model.linear, init.moments(), steps * eta)
            rec["kl_exact"] = ga.kl_gaussian(hat, ref)
            rec["em_moments"] = hat.to_dict()
            rec["exact_moments"] = ref.to_dict()
        records.append(rec)
    if n_chains > 0:
        # One comparator call steps the whole grid on the shared noise.
        kl_girs = est.girsanov_pathwise_kl(
            model, init, etas, T, n_chains, cfg["seed"], quad_points_per_step=cfg["quad_points_per_step"]
        )
        for rec, value in zip(records, kl_girs):
            rec["kl_girsanov"] = value
    exact_pairs = [(rec["eta"], rec["kl_exact"]) for rec in records if "kl_exact" in rec]
    girs_pairs = [(rec["eta"], rec["kl_girsanov"]) for rec in records if "kl_girsanov" in rec]
    rows = [[rec["eta"], rec.get("kl_exact", ""), rec.get("kl_girsanov", "")] for rec in records]
    csv = ("rate_scan.csv", lambda path: sp.write_csv(path, ["eta", "kl_exact", "kl_girsanov"], rows))
    fit_exact = slope_fit(exact_pairs)
    fit_girs = slope_fit(girs_pairs)

    claims = []
    if cfg["exact"]:
        if all(v == 0.0 for _, v in exact_pairs):
            claims.append({
                "name": "exact_slope", "pass": True,
                "detail": "degenerate scan (zero KL: discretization is exact)",
            })
        elif fit_exact is not None:
            lo, hi = EXACT_SLOPE
            ok = lo <= fit_exact.slope <= hi and fit_exact.r_squared >= EXACT_R2_MIN
            claims.append({
                "name": "exact_slope", "pass": bool(ok),
                "detail": f"slope={fit_exact.slope:.4f} r2={fit_exact.r_squared:.6f} band=[{lo},{hi}]",
            })
    if n_chains > 0 and fit_girs is not None:
        lo, hi = GIRSANOV_SLOPE
        claims.append({
            "name": "girsanov_slope", "pass": bool(lo <= fit_girs.slope <= hi),
            "detail": f"slope={fit_girs.slope:.4f} band=[{lo},{hi}]",
        })
    if fit_exact is not None and fit_girs is not None:
        gap = fit_exact.slope - fit_girs.slope
        claims.append({
            "name": "slope_gap", "pass": bool(gap >= SLOPE_GAP_MIN),
            "detail": f"slope(exact)-slope(girsanov)={gap:.4f} >= {SLOPE_GAP_MIN}",
        })
    if not claims:
        claims.append({"name": "completed", "pass": True, "detail": "no slope claim applies"})

    return Outcome({
        "records": records,
        "fit_exact": fit_exact.to_dict() if fit_exact else None,
        "fit_girsanov": fit_girs.to_dict() if fit_girs else None,
    }, claims, [csv])


# ---------------------------------------------------------------------------
# mixing-scan
# ---------------------------------------------------------------------------


# Per metric: the distance to the target of a Gaussian that is diagonal in the
# target's eigenbasis, from its mean gap and variances there; the KL
# tolerance the step-size rule (stated for KL) is given for tolerance eps,
# through Pinsker (TV <= sqrt(KL/2)) or Talagrand (W2 <= sqrt(2 KL/rho)); and
# the band of the slope of log N against log eps, which no config changes.
MIXING_METRICS = {
    "KL": (ga.kl_gaussian_diag, lambda eps, rho: eps, (-0.75, -0.40)),
    "TV": (ga.tv_gaussian_diag, lambda eps, rho: 2.0 * eps**2, (-1.3, -0.8)),
    "W2": (ga.w2_gaussian_diag, lambda eps, rho: rho * eps**2 / 2.0, (-1.3, -0.8)),
}
# The fewest rows (step counts) of a search block, and the most array
# elements (rows times dimension) a block holds beyond that.
MIN_BLOCK_ROWS = 64
BLOCK_ELEMENTS = 1 << 12


def mixing_kl_tolerance(kl_tolerance, eps: float, rho: float) -> float:
    """The KL tolerance of accuracy eps; an InputError when it
    overflows."""
    try:
        tolerance = kl_tolerance(eps, rho)
    except OverflowError:
        tolerance = math.inf
    if tolerance == math.inf:
        raise InputError(f"the KL tolerance of eps={eps} leaves the float range")
    return tolerance


def first_crossing(distance, gap, var0, eta, w, s, eps, max_steps):
    """First k in 1..max_steps at which the forward-Euler chain for the drift
    with eigenvalues w, started at mean gap `gap` and isotropic variance var0
    in the eigenbasis of the target N(0, diag s), is within eps of the
    target; None when there is none.

    Blocks of max(MIN_BLOCK_ROWS, BLOCK_ELEMENTS // d) consecutive k are
    evaluated at once, so memory is bounded whatever max_steps is.  Every k
    is evaluated in order, so the first crossing is exact without assuming
    the distance decreases.  The target is the fixed point of the chain's
    mean, so the mean gap after k steps is lam^k gap.
    """
    rows = max(MIN_BLOCK_ROWS, BLOCK_ELEMENTS // w.size)
    for start in range(1, max_steps + 1, rows):
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
    return None


def cmd_mixing_scan(cfg: dict) -> Outcome:
    rho = cfg["rho"]
    target = ga.GaussianMoments(cfg["target"]["mean"], cfg["target"]["cov"])
    d = target.dim
    # ULA drift for the target: b = -grad(U)/2 with U the Gaussian potential,
    # so A = -cov^-1 / 2 shares the target's eigenbasis.  The start is
    # isotropic, so every marginal is diagonal in that basis too.
    s, Q = np.linalg.eigh(target.cov)
    w = -0.5 / s
    L1 = float(np.max(np.abs(w)))
    start = build_init(cfg["init"], d)
    gap = Q.T @ (start.mean - target.mean)
    var0 = np.square(start.sigma0)  # inf, not OverflowError, for a huge sigma0
    metric = cfg["metric"]
    distance, kl_tolerance, (lo, hi) = MIXING_METRICS[metric]
    eps_grid, max_steps = cfg["eps_grid"], cfg["max_steps"]
    tolerances = [mixing_kl_tolerance(kl_tolerance, eps, rho) for eps in eps_grid]

    records = []
    for eps, tolerance in zip(eps_grid, tolerances):
        eta = bnd.step_size_rule(tolerance, rho, d)
        if distance(gap, var0, s) <= eps:
            n_measured = 0  # already mixed at k = 0; no stepping needed
        else:
            bnd.check_step(eta, L1)
            n_measured = first_crossing(distance, gap, var0, eta, w, s, eps, max_steps)
        if n_measured is None:
            raise InputError(
                f"no crossing within max_steps={max_steps} for eps={eps}; "
                "the discretization bias floor may exceed eps"
            )
        records.append({
            "eps": eps, "eta": eta, "n_measured": n_measured,
            "n_predicted": bnd.mixing_time_predict(eps, rho, d, metric), "note": bnd.LOG_FACTOR_NOTE,
        })
    rows = [[rec["eps"], rec["eta"], rec["n_measured"], rec["n_predicted"]] for rec in records]
    csv = ("mixing_scan.csv", lambda path: sp.write_csv(path, ["eps", "eta_used", "N_measured", "N_predicted"], rows))

    # An eps already mixed at k = 0 is left out of the fit.
    fit = slope_fit([(rec["eps"], float(rec["n_measured"])) for rec in records if rec["n_measured"] > 0])
    claims = [{
        "name": "mixing_slope", "pass": bool(lo <= fit.slope <= hi),
        "detail": f"slope(log N vs log eps)={fit.slope:.4f} band=[{lo},{hi}]",
    }] if fit is not None else [{"name": "completed", "pass": True, "detail": "scan completed (no slope fit)"}]

    return Outcome({
        "metric": metric,
        "records": records,
        "fit": fit.to_dict() if fit else None,
        "log_factor_note": bnd.LOG_FACTOR_NOTE,
    }, claims, [csv])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# Sampled point pairs for the Lipschitz checks, points for the Jacobian
# finite-difference check, and the shell radii of the dissipativity fit
# (dm.FIT_DIRECTIONS directions per radius); the ball is CERT_RADIUS.
VERIFY_PAIRS = 100
VERIFY_GRAD_POINTS = 20
VERIFY_RADIUS_GRID = np.unique(np.concatenate([np.geomspace(0.25, 8.0, 12), [1.0]]))


def cmd_verify(cfg: dict) -> Outcome:
    model = build_model(cfg["model"])
    init = build_init(cfg["init"], model.dim)
    rng = np.random.default_rng(cfg["seed"])
    cert = model.constants
    report_sections = {}

    def sample_ball(count):
        pts = rng.standard_normal((count, model.dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts * (dm.CERT_RADIUS * rng.random((count, 1)))

    # Lipschitz constants of the drift and its Jacobian, on the same pairs.
    worst_l1 = worst_l2 = 0.0
    for x, y in zip(sample_ball(VERIFY_PAIRS), sample_ball(VERIFY_PAIRS)):
        gap = float(np.linalg.norm(x - y))
        if gap == 0.0:
            continue
        db = dm.drift_eval(model, x) - dm.drift_eval(model, y)
        dj = dm.drift_jacobian(model, x) - dm.drift_jacobian(model, y)
        worst_l1 = max(worst_l1, float(np.linalg.norm(db)) / gap)
        worst_l2 = max(worst_l2, float(np.linalg.norm(dj, 2)) / gap)
    ok_l1 = worst_l1 <= cert.L1 * (1 + 1e-9) + 1e-12
    report_sections["lipschitz_drift"] = {
        "pass": bool(ok_l1), "declared_L1": cert.L1, "witnessed_ratio": worst_l1,
    }

    # The Jacobian's Lipschitz ratio, with finite-difference agreement.
    worst_fd = max(dm.grad_check(model, x, h=1e-5) for x in sample_ball(VERIFY_GRAD_POINTS))
    ok_l2 = worst_l2 <= cert.L2 * (1 + 1e-9) + 1e-12 and worst_fd < 1e-5
    report_sections["smooth_drift"] = {
        "pass": bool(ok_l2), "declared_L2": cert.L2,
        "witnessed_ratio": worst_l2, "grad_check_max": worst_fd,
    }

    # Distant dissipativity.
    fit = dm.dissipativity_fit(model, VERIFY_RADIUS_GRID, seed=cfg["seed"])
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


def cmd_sample(cfg: dict) -> Outcome:
    """The final ensemble as ensemble.csv, and each snapshot as a CSV with its
    lineage sidecar; the report is ensemble.csv's sidecar, ensemble.json.  A
    divergence gives only the report, sample.json."""
    model = build_model(cfg["model"])
    init = build_init(cfg["init"], model.dim)
    eta, seed = cfg["eta"], cfg["seed"]
    snaps = cfg.get("snapshot_times")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # simulate_ensemble warns of an off-grid horizon itself
        chain_steps(eta, cfg["horizon"], model.constants.L1, "eta", not cfg["allow_outside_window"])
    lo, hi = bnd.step_window(model.constants.L1)
    print(f"master_seed={seed} step_window=({lo:g}, {hi:g}) eta={eta:g}")
    try:
        result = sp.simulate_ensemble(
            model, init, eta, cfg["horizon"], cfg["chains"], seed,
            snapshot_times=snaps, enforce_window=not cfg["allow_outside_window"],
        )
    except DivergenceError as exc:
        return Outcome({}, [{
            "name": "simulation", "pass": False,
            "detail": f"divergence: {exc} (chain={exc.chain}, step={exc.step})",
        }])

    final, snapshots = (result, []) if snaps is None else result
    files = [("ensemble.csv", partial(sp.write_ensemble_csv, final))]
    snap_files = []
    for i, snap in enumerate(snapshots):
        name = f"snapshot_{i:03d}"
        files.append((f"{name}.csv", partial(sp.write_ensemble_csv, snap)))
        files.append((f"{name}.json", partial(sp.write_ensemble_sidecar, snap, model=model)))
        snap_files.append({"file": f"{name}.csv", "time": snap.time})
    claims = [{
        "name": "window_check", "pass": True,
        "detail": f"eta={eta} inside ({lo:g}, {hi:g})" if eta < hi else "window check overridden",
    }]
    fields = {**sp.ensemble_sidecar(final, model), "snapshots": snap_files}
    return Outcome(fields, claims, files, "ensemble.json")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


# Sidecar fields each CSV input's entry in estimate.json's inputs_lineage carries.
LINEAGE_FIELDS = ("master_seed", "eta", "time", "label", "chain_count")


def cmd_estimate(cfg: dict) -> Outcome:
    name, params = cfg["estimator"], cfg["params"]
    parameters = dict(params)
    lineage = {}

    def load(key):
        path = cfg["inputs"][key]
        if not Path(path).is_file():
            raise InputError(f"estimator input {key!r} not found: {path}")
        # Lineage comes from the input's sidecar alone: null where it has none.
        meta = sp.read_ensemble_sidecar(path)
        lineage[key] = {f: meta.get(f) for f in LINEAGE_FIELDS}
        return sp.read_ensemble_csv(path, meta)

    if name == "rate_fit":
        fit = est.rate_fit(cfg["points"])
        value = fit.slope
        parameters["fit"] = fit.to_dict()
    else:
        # An input estimator takes its inputs in the order its table declares
        # them, then its typed params as keyword arguments.
        value = getattr(est, name)(*map(load, cfg["inputs"]), **params)

    claims = [{"name": "estimate", "pass": bool(np.isfinite(value)), "detail": f"{name}={value:.6g}"}]
    return Outcome(
        {"estimator": name, "parameters": parameters, "value": value, "inputs_lineage": lineage}, claims
    )


# ---------------------------------------------------------------------------
# bound-eval
# ---------------------------------------------------------------------------


SWEEP_SLOPE = (1.9, 2.1)  # a bound sweep's slope band: the bounds are second order in eta


def cmd_bound_eval(cfg: dict) -> Outcome:
    theorem = cfg["theorem"]
    constants = bnd.BoundConstants(**cfg["constants"])
    T, d = cfg["horizon"], cfg["dim"]
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

    if ("eta" in cfg) == ("eta_grid" in cfg):
        raise InputError("bound-eval needs exactly one of eta and eta_grid in the config")
    fields = {"c0": constants.c0, "c1": constants.c1, "theorem": theorem, "horizon": T, "dim": d}
    if "eta" in cfg:
        terms = evaluator(cfg["eta"])
        fields.update({"eta": cfg["eta"], "terms": terms, "value": terms["total"]})
        claims = [{
            "name": "bound_finite", "pass": bool(np.isfinite(terms["total"])),
            "detail": f"value={terms['total']:.6g}",
        }]
    else:
        sweep = [{"eta": eta, "value": evaluator(eta)["total"]} for eta in cfg["eta_grid"]]
        fit = est.rate_fit([(rec["eta"], rec["value"]) for rec in sweep])
        lo, hi = SWEEP_SLOPE
        fields.update({"sweep": sweep, "fit": fit.to_dict()})
        claims = [{
            "name": "sweep_slope", "pass": bool(lo <= fit.slope <= hi),
            "detail": f"slope={fit.slope:.6f} band=[{lo},{hi}]",
        }]
    return Outcome(fields, claims)


# ---------------------------------------------------------------------------
# config tables: key -> (reader, default), or (reader,) without a default
# ---------------------------------------------------------------------------


SEED = (read_seed, 0)
# The builders' own defaults apply to the params a config leaves out, as the
# estimators' do to theirs.  The model registry and ESTIMATORS (defined
# below) are looked up when a config is read.
MODEL = {"name": (lambda value, key: read_choice(value, key, dm.registered_models()), REQUIRED), "params": ({
    "dim": (read_int,), "rate": (read_number,), "separation": (read_number,),
    "matrix": (read_array,), "offset": (read_array,),
}, {})}
INIT = {"mean": (read_array,), "sigma0": (read_number, REQUIRED)}

COMMANDS = {
    "rate-scan": {
        "model": (MODEL, REQUIRED), "init": (INIT, REQUIRED),
        "eta_grid": (read_floats, REQUIRED), "horizon": (partial(read_number, positive=True), REQUIRED),
        "exact": (read_bool, True), "girsanov_chains": (partial(read_int, minimum=0), 0),
        "quad_points_per_step": (partial(read_int, minimum=1, maximum=sp.MAX_QUAD_POINTS), 4),
        "seed": SEED,
    },
    "mixing-scan": {
        "target": ({"mean": (read_array, REQUIRED), "cov": (read_array, REQUIRED)}, REQUIRED),
        "rho": (read_number, REQUIRED), "init": (INIT, REQUIRED),
        "eps_grid": (partial(read_floats, positive=True), REQUIRED),
        "metric": (partial(read_choice, choices=MIXING_METRICS), "KL"),
        "max_steps": (partial(read_int, minimum=1), 10**6),
        "seed": SEED,
    },
    "verify": {"model": (MODEL, REQUIRED), "init": (INIT, {"sigma0": 1.0}), "seed": SEED},
    "sample": {
        "model": (MODEL, REQUIRED), "init": (INIT, REQUIRED), "eta": (read_number, REQUIRED),
        "horizon": (partial(read_number, positive=True), REQUIRED), "chains": (partial(read_int, minimum=1), REQUIRED),
        "snapshot_times": (read_floats,), "allow_outside_window": (read_bool, False), "seed": SEED,
    },
    "estimate": {"estimator": (lambda value, key: read_choice(value, key, ESTIMATORS), REQUIRED),
                 "inputs": (read_inputs,), "params": ({}, {}), "seed": SEED},
    "bound-eval": {
        "constants": ({
            f.name: (read_number, REQUIRED) if f.default is dataclasses.MISSING else (read_number,)
            for f in dataclasses.fields(bnd.BoundConstants)
        }, REQUIRED),
        "theorem": (partial(read_int, minimum=1, maximum=2), 1), "eta": (read_number,), "eta_grid": (read_floats,),
        "horizon": (read_number, 1.0), "dim": (partial(read_int, minimum=1), 1),
        "seed": SEED,
    },
}

# estimate's table per estimator (read_config picks it): its keys, the names
# of the CSV inputs it reads, in the order it takes them (none unless given),
# and its params.
ESTIMATE = COMMANDS["estimate"]
PQ = {**ESTIMATE, "inputs": (partial(read_inputs, names=("p", "q")), REQUIRED)}
SAMPLES = {**ESTIMATE, "inputs": (partial(read_inputs, names=("samples",)), REQUIRED)}
ESTIMATORS = {
    "knn_kl": {**PQ, "params": ({"k": (read_int,)}, {})},
    "w2_empirical_1d": PQ,
    "tv_histogram": {**PQ, "params": ({"bins_per_dim": (read_int,)}, {})},
    "moment_estimate": {**SAMPLES, "params": ({"p": (read_int, 2)}, {})},
    "rate_fit": {**ESTIMATE, "points": (read_array, REQUIRED)},
}


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
        # The library's InputError is a ValueError; float() and numpy raise
        # a ValueError or TypeError for a config value of the wrong type.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc} (chain={exc.chain}, step={exc.step})", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
