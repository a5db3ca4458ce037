import dataclasses
import hashlib
import importlib.util
import json
import math
import resource
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulakit
from ulakit import (
    BoundConstants,
    InitDensity,
    InputError,
    RateFit,
    SampleEnsemble,
    girsanov_pathwise_kl,
    knn_kl,
    make_model,
    read_ensemble_csv,
    write_ensemble_csv,
)
from ulakit import cli
from ulakit.cli import COMMANDS, ESTIMATORS, main, read_bool, read_config

from slow_paths import mixing_scan_by_recursion


def run(tmp_path, command, config, out="out", extra=()):
    cfg = tmp_path / f"{command.replace('-', '_')}_cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / out
    return main([command, "--config", str(cfg), "--out", str(out_dir), *extra]), out_dir


SAMPLE_CFG = {
    "model": {"name": "ou", "params": {"dim": 1}},
    "init": {"mean": [0.0], "sigma0": 1.0},
    "eta": 0.1,
    "horizon": 1.0,
    "chains": 1000,
    "seed": 7,
}


# --- sample -------------------------------------------------------------------


def test_sample_rerun_is_byte_identical(tmp_path):
    code1, out1 = run(tmp_path, "sample", SAMPLE_CFG, out="a")
    code2, out2 = run(tmp_path, "sample", SAMPLE_CFG, out="b")
    assert code1 == 0 and code2 == 0
    assert (out1 / "ensemble.csv").read_bytes() == (out2 / "ensemble.csv").read_bytes()
    assert (out1 / "ensemble.json").read_bytes() == (out2 / "ensemble.json").read_bytes()


def test_sample_window_refusal_is_config_error(tmp_path):
    cfg = dict(SAMPLE_CFG, eta=0.6)
    code, _ = run(tmp_path, "sample", cfg)
    assert code == 2


def test_sample_seed_flag_overrides_config(tmp_path):
    code1, out1 = run(tmp_path, "sample", SAMPLE_CFG, out="a", extra=("--seed", "9"))
    code2, out2 = run(tmp_path, "sample", dict(SAMPLE_CFG, seed=9), out="b")
    assert code1 == code2 == 0
    assert (out1 / "ensemble.csv").read_bytes() == (out2 / "ensemble.csv").read_bytes()


def test_sample_gauss_mix_smoke(tmp_path):
    cfg = {
        "model": {"name": "gauss-mix", "params": {"dim": 2}},
        "init": {"mean": [0.0, 0.0], "sigma0": 1.0},
        "eta": 0.1,
        "horizon": 1.0,
        "chains": 10_000,
        "seed": 3,
    }
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    data = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(data))
    assert data.shape == (10_000, 4)


DIVERGING_SAMPLE_CFG = {
    "model": {"name": "expansive", "params": {"dim": 1}},
    "init": {"mean": [0.0], "sigma0": 1.0},
    "eta": 0.05,
    "horizon": 50.0,
    "chains": 100,
    "seed": 5,
}


def test_sample_divergence_reports_failure(tmp_path):
    code, out = run(tmp_path, "sample", DIVERGING_SAMPLE_CFG)
    assert code == 1
    report = json.loads((out / "sample.json").read_text())
    assert not report["all_pass"]
    assert "divergence" in report["claims"][0]["detail"]


def test_sample_snapshot_outside_horizon_is_config_error(tmp_path):
    code, _ = run(tmp_path, "sample", dict(SAMPLE_CFG, snapshot_times=[-3, 5, 7]))
    assert code == 2


def test_sample_snapshots_written(tmp_path):
    cfg = dict(SAMPLE_CFG, snapshot_times=[0.5, 1.0])
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    sidecar = json.loads((out / "ensemble.json").read_text())
    assert [s["time"] for s in sidecar["snapshots"]] == [0.5, 1.0]
    assert (out / "snapshot_000.csv").exists()


def test_sample_snapshot_read_back_carries_run_lineage(tmp_path):
    code, out = run(tmp_path, "sample", dict(SAMPLE_CFG, snapshot_times=[0.5], seed=3))
    assert code == 0
    snap = read_ensemble_csv(out / "snapshot_000.csv")
    assert (snap.master_seed, snap.eta, snap.time, snap.label) == (3, 0.1, 0.5, "em")


# --- verify -------------------------------------------------------------------


def test_verify_ou_all_pass(tmp_path):
    cfg = {"model": {"name": "ou", "params": {"dim": 1}}, "init": {"mean": [0.0], "sigma0": 1.0}, "seed": 1}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    rep = json.loads((out / "verify.json").read_text())
    assert all(sec["pass"] for sec in rep["assumptions"].values())
    diss = rep["assumptions"]["dissipativity"]
    assert diss["witnessed_mu"] == pytest.approx(1.0)
    assert diss["witnessed_beta"] == pytest.approx(0.0, abs=1e-12)


def test_verify_expansive_fails_dissipativity_with_witness(tmp_path):
    cfg = {"model": {"name": "expansive", "params": {"dim": 1}}, "init": {"mean": [0.0], "sigma0": 1.0}, "seed": 1}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 1
    rep = json.loads((out / "verify.json").read_text())
    diss = rep["assumptions"]["dissipativity"]
    assert not diss["pass"]
    assert "witness_point" in diss and diss["witness_value"] > 0
    assert rep["assumptions"]["lipschitz_drift"]["pass"]


def test_verify_double_well_witnessed_constants(tmp_path):
    cfg = {"model": {"name": "double-well", "params": {"dim": 1}}, "init": {"mean": [0.0], "sigma0": 1.0}, "seed": 1}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    diss = json.loads((out / "verify.json").read_text())["assumptions"]["dissipativity"]
    assert diss["witnessed_mu"] == pytest.approx(0.5)
    assert diss["witnessed_beta"] == pytest.approx(0.5, abs=1e-9)


# --- rate-scan ----------------------------------------------------------------


def test_rate_scan_zero_drift_exact_zero(tmp_path):
    cfg = {
        "model": {"name": "zero", "params": {"dim": 1}},
        "init": {"mean": [0.0], "sigma0": 1.0},
        "horizon": 2.0,
        "eta_grid": [0.5, 0.25, 0.125],
        "exact": True,
        "girsanov_chains": 0,
        "seed": 1,
    }
    code, out = run(tmp_path, "rate-scan", cfg)
    assert code == 0
    rows = (out / "rate_scan.csv").read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)
    rep = json.loads((out / "rate_scan.json").read_text())
    assert rep["fit_exact"] is None
    assert rep["all_pass"]
    assert [c["name"] for c in rep["claims"]] == ["exact_slope"]


def test_rate_scan_ou_small(tmp_path):
    cfg = {
        "model": {"name": "ou", "params": {"dim": 1}},
        "init": {"mean": [1.0], "sigma0": 1.0},
        "horizon": 2.0,
        "eta_grid": [0.2, 0.1, 0.05, 0.025],
        "exact": True,
        "girsanov_chains": 5000,
        "quad_points_per_step": 4,
        "seed": 123,
    }
    code, out = run(tmp_path, "rate-scan", cfg)
    assert code == 0
    rep = json.loads((out / "rate_scan.json").read_text())
    assert 1.85 <= rep["fit_exact"]["slope"] <= 2.15
    assert 0.85 <= rep["fit_girsanov"]["slope"] <= 1.15
    assert rep["all_pass"]
    assert "c0" in rep and "config_hash" in rep and "master_seed" in rep
    # exact-moment serialization rides along on the exact path
    assert "em_moments" in rep["records"][0]


def test_rate_scan_girsanov_only_for_nonlinear_model(tmp_path):
    cfg = {
        "model": {"name": "gauss-mix", "params": {"dim": 1}},
        "init": {"mean": [0.0], "sigma0": 1.0},
        "horizon": 1.0,
        "eta_grid": [0.2, 0.1, 0.05, 0.025],
        "exact": False,
        "girsanov_chains": 2000,
        "seed": 2,
    }
    code, out = run(tmp_path, "rate-scan", cfg)
    assert code == 0
    rep = json.loads((out / "rate_scan.json").read_text())
    assert rep["fit_exact"] is None
    assert rep["fit_girsanov"] is not None
    rows = (out / "rate_scan.csv").read_text().strip().split("\n")[1:]
    assert all(r.split(",")[1] == "" for r in rows)


def test_rate_scan_nonlinear_model_with_exact_is_config_error(tmp_path):
    cfg = {
        "model": {"name": "double-well", "params": {"dim": 1}},
        "init": {"mean": [0.0], "sigma0": 1.0},
        "horizon": 1.0,
        "eta_grid": [0.002, 0.001],
        "exact": True,
        "seed": 1,
    }
    code, _ = run(tmp_path, "rate-scan", cfg)
    assert code == 2


def test_rate_scan_comparator_divergence_exits_1_naming_eta_chain_and_step(tmp_path, capsys):
    # The grid steps in lockstep; 0.05, the largest step, diverges first.
    cfg = {
        "model": {"name": "expansive", "params": {"dim": 1}},
        "init": {"mean": [0.0], "sigma0": 1.0},
        "horizon": 48.0,
        "eta_grid": [0.02, 0.05, 0.04],
        "exact": False,
        "girsanov_chains": 100,
        "seed": 5,
    }
    code, out = run(tmp_path, "rate-scan", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "diverged at step" in err and "(eta=0.05, t=" in err
    assert not out.exists()


# The pathwise comparator's one CLI path: a rate-scan with a one-element eta_grid.
COMPARATOR_CFG = {
    "model": {"name": "ou", "params": {"dim": 1}},
    "init": {"mean": [1.0], "sigma0": 1.0},
    "horizon": 1.0,
    "eta_grid": [0.1],
    "girsanov_chains": 200,
    "seed": 21,
}
# Keys over COMPARATOR_CFG's: every registry model, an off-grid horizon, the
# ends of the quadrature range and of the seed range, one chain, a fine step.
COMPARATOR_CASES = {
    "ou": {},
    "ou-rate": {"model": {"name": "ou", "params": {"dim": 1, "rate": 2.5}}},
    "ou-2d-offset": {"model": {"name": "ou", "params": {"matrix": [[-1.0, 0.3], [0.3, -0.6]], "offset": [0.2, -0.1]}},
                     "init": {"mean": [0.5, -0.5], "sigma0": 0.7}},
    "zero-2d": {"model": {"name": "zero", "params": {"dim": 2}}, "init": {"mean": [0.0, 1.0], "sigma0": 1.0}},
    "expansive": {"model": {"name": "expansive", "params": {"dim": 1, "rate": 0.5}}},
    "double-well": {"model": {"name": "double-well", "params": {"dim": 1}}, "exact": False,
                    "eta_grid": [0.002], "horizon": 0.02},
    "gauss-mix-2d": {"model": {"name": "gauss-mix", "params": {"dim": 2, "separation": 2.0}}, "exact": False,
                     "init": {"mean": [0.5, 0.5], "sigma0": 1.0}},
    "off-grid-horizon": {"horizon": 1.05},
    "quad-1": {"quad_points_per_step": 1},
    "quad-14": {"quad_points_per_step": 14},
    "seed-0": {"seed": 0},
    "seed-max": {"seed": 2**64 - 1},
    "one-chain": {"girsanov_chains": 1},
    "fine-step": {"eta_grid": [0.01], "horizon": 0.2},
}


@pytest.mark.parametrize("case", list(COMPARATOR_CASES))
def test_one_eta_rate_scan_writes_the_library_comparator_value(tmp_path, case):
    cfg = dict(COMPARATOR_CFG, **COMPARATOR_CASES[case])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the off-grid horizon is warned of
        code, out = run(tmp_path, "rate-scan", cfg)
        [want] = girsanov_pathwise_kl(
            make_model(cfg["model"]["name"], **cfg["model"]["params"]),
            InitDensity(cfg["init"]["mean"], cfg["init"]["sigma0"]),
            cfg["eta_grid"], cfg["horizon"], cfg["girsanov_chains"], cfg["seed"],
            quad_points_per_step=cfg.get("quad_points_per_step", 4),
        )
    assert code == 0
    rep = json.loads((out / "rate_scan.json").read_text())
    [record] = rep["records"]
    assert record["kl_girsanov"] == want
    rows = (out / "rate_scan.csv").read_text().strip().split("\n")[1:]
    assert [float(r.split(",")[2]) for r in rows] == [want]
    # One step size fits no slope: no claim is made about one, unless the
    # exact KL is 0 (the degenerate scan of test_rate_scan_zero_drift_exact_zero).
    claims = ["exact_slope"] if record.get("kl_exact") == 0.0 else ["completed"]
    assert [c["name"] for c in rep["claims"]] == claims


# The comparator draws one noise block per step and quadrature point for the
# whole grid, so each step size's value is the one its one-eta scan writes.
RATE_GRID = [0.2, 0.1, 0.05]


@pytest.mark.parametrize("eta", RATE_GRID)
def test_grid_rate_scan_value_is_the_one_eta_scan_value(tmp_path, eta):
    code_grid, out_grid = run(tmp_path, "rate-scan", dict(COMPARATOR_CFG, eta_grid=RATE_GRID), out="grid")
    code_one, out_one = run(tmp_path, "rate-scan", dict(COMPARATOR_CFG, eta_grid=[eta]), out="one")
    assert code_grid == code_one == 0
    grid = json.loads((out_grid / "rate_scan.json").read_text())["records"]
    [one] = json.loads((out_one / "rate_scan.json").read_text())["records"]
    assert grid[RATE_GRID.index(eta)]["kl_girsanov"] == one["kl_girsanov"]


# A scan too short for a slope fit, with fewer than 3 distinct step sizes,
# makes no exact_slope claim; only an exact KL of 0 everywhere
# (test_rate_scan_zero_drift_exact_zero) makes one.  A least-squares fit to
# one step size, repeated, reads noise: slope 2.76, a failed claim.
@pytest.mark.parametrize("eta_grid", [[0.1], [0.2, 0.1], [0.1, 0.1, 0.1]])
def test_rate_scan_short_grid_makes_no_exact_slope_claim(tmp_path, eta_grid):
    cfg = {"model": {"name": "ou", "params": {"dim": 1}}, "init": {"mean": [1.0], "sigma0": 1.0},
           "horizon": 1.0, "eta_grid": eta_grid}
    code, out = run(tmp_path, "rate-scan", cfg)
    assert code == 0
    assert [c["name"] for c in json.loads((out / "rate_scan.json").read_text())["claims"]] == ["completed"]


# Nor is a fit made of a scan with a value that is not positive.
@pytest.mark.parametrize("values, fits", [
    ([0.04, 0.01, 0.0025], True),
    ([0.04, 0.0, 0.0025], False),
    ([0.04, -0.01, 0.0025], False),
])
def test_slope_fit_needs_positive_values(values, fits):
    fit = cli.slope_fit(list(zip([0.2, 0.1, 0.05], values)))
    assert (fit is not None) is fits


def test_rate_scan_warns_once_per_off_grid_eta(tmp_path):
    # The horizon 1.05 is off the grids of 0.2 and 0.1, on that of 0.05.
    cfg = {"model": {"name": "ou", "params": {"dim": 1}}, "init": {"mean": [1.0], "sigma0": 1.0},
           "horizon": 1.05, "eta_grid": [0.2, 0.1, 0.05], "girsanov_chains": 50}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, "rate-scan", cfg)
    assert code == 0
    off_grid = sorted(str(w.message) for w in caught if "is not a multiple of eta" in str(w.message))
    assert len(off_grid) == 2
    assert "eta=0.1;" in off_grid[0] and "eta=0.2;" in off_grid[1]


# --- mixing-scan ----------------------------------------------------------------


MIX_CFG = {
    "target": {"mean": [0.0], "cov": [[0.5]]},
    "rho": 0.5,
    "metric": "KL",
    "eps_grid": [0.1, 0.03, 0.01, 0.003],
    "init": {"mean": [6.0], "sigma0": 1.0},
    "seed": 1,
}


def test_mixing_scan_kl_slope(tmp_path):
    code, out = run(tmp_path, "mixing-scan", MIX_CFG)
    assert code == 0
    rep = json.loads((out / "mixing_scan.json").read_text())
    assert -0.75 <= rep["fit"]["slope"] <= -0.40
    ns = [r["n_measured"] for r in rep["records"]]
    assert ns == sorted(ns)


MIX_CASES = {
    "kl": MIX_CFG,
    "already-mixed": dict(MIX_CFG, eps_grid=[1000.0], init={"mean": [0.1], "sigma0": 1.0}),
    "w2": dict(MIX_CFG, metric="W2", eps_grid=[0.3, 0.1, 0.03, 0.01]),
    "tv": dict(MIX_CFG, metric="TV", eps_grid=[0.3, 0.1, 0.03, 0.01]),
    # sigma0^2 overflows: the moments are not finite (exit 2).
    "non-finite-start": dict(MIX_CFG, init={"mean": [6.0], "sigma0": 1e200}),
    "2d-non-isotropic": {
        "target": {"mean": [0.0, 0.5], "cov": [[0.5, 0.1], [0.1, 0.8]]},
        "rho": 0.5,
        "metric": "KL",
        "eps_grid": [0.1, 0.03, 0.01],
        "init": {"mean": [4.0, -4.0], "sigma0": 1.0},
        "seed": 1,
    },
}


def test_mixing_scan_already_mixed_gives_zero(tmp_path):
    code, out = run(tmp_path, "mixing-scan", MIX_CASES["already-mixed"])
    assert code == 0
    rep = json.loads((out / "mixing_scan.json").read_text())
    assert rep["records"][0]["n_measured"] == 0


def test_mixing_scan_w2_metric(tmp_path):
    code, out = run(tmp_path, "mixing-scan", MIX_CASES["w2"])
    assert code == 0
    rep = json.loads((out / "mixing_scan.json").read_text())
    assert -1.3 <= rep["fit"]["slope"] <= -0.8


def test_mixing_scan_tv_metric(tmp_path):
    code, out = run(tmp_path, "mixing-scan", MIX_CASES["tv"])
    assert code == 0
    rep = json.loads((out / "mixing_scan.json").read_text())
    ns = [r["n_measured"] for r in rep["records"]]
    assert ns == sorted(ns) and ns[-1] > ns[0]
    assert -1.3 <= rep["fit"]["slope"] <= -0.8


def test_mixing_scan_repeated_eps_makes_no_slope_claim(tmp_path):
    # One eps, repeated, spans no slope: a least-squares fit read -0.76, a failed claim.
    code, out = run(tmp_path, "mixing-scan", dict(MIX_CFG, eps_grid=[0.01, 0.01, 0.01]))
    assert code == 0
    assert [c["name"] for c in json.loads((out / "mixing_scan.json").read_text())["claims"]] == ["completed"]


def test_mixing_scan_missing_rho_is_config_error(tmp_path):
    cfg = {k: v for k, v in MIX_CFG.items() if k != "rho"}
    code, _ = run(tmp_path, "mixing-scan", cfg)
    assert code == 2


def test_mixing_scan_2d_target(tmp_path):
    code, out = run(tmp_path, "mixing-scan", MIX_CASES["2d-non-isotropic"])
    assert code == 0
    rep = json.loads((out / "mixing_scan.json").read_text())
    ns = [r["n_measured"] for r in rep["records"]]
    assert ns == sorted(ns) and ns[-1] > ns[0] > 0


@pytest.mark.parametrize("metric, eps, message", [
    ("TV", 1e200, "leaves the float range"),
    ("W2", 1e200, "leaves the float range"),
    ("KL", math.inf, "finite and positive"),
    ("KL", math.nan, "finite and positive"),
    ("TV", 0.0, "finite and positive"),
    ("W2", -0.1, "finite and positive"),
])
def test_mixing_scan_bad_eps_exits_2_before_any_output(tmp_path, capsys, metric, eps, message):
    code, out = run(tmp_path, "mixing-scan", dict(MIX_CFG, metric=metric, eps_grid=[0.1, eps]))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mixing_scan_non_finite_moments_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "mixing-scan", MIX_CASES["non-finite-start"])
    assert code == 2
    assert "not finite positive-definite at step 1" in capsys.readouterr().err


def test_mixing_scan_below_bias_floor_exits_2_in_bounded_memory(tmp_path, capsys):
    # rho near 1 makes the rule's step so large that the chain's stationary
    # KL bias (about d eta^2 / 16) stays far above eps: there is no crossing.
    d = 8
    cfg = {
        "target": {"mean": [0.0] * d, "cov": (0.5 * np.eye(d)).tolist()},
        "rho": 0.99, "metric": "KL", "eps_grid": [1e-5],
        "init": {"mean": [1.0] * d, "sigma0": 1.0},
    }
    assert run(tmp_path, "mixing-scan", dict(cfg, max_steps=10**4), out="short")[0] == 2
    peak_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    code, _ = run(tmp_path, "mixing-scan", dict(cfg, max_steps=10**6), out="long")
    elapsed = time.perf_counter() - t0
    grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_before) / 1024.0
    assert code == 2
    assert "no crossing within max_steps=1000000" in capsys.readouterr().err
    assert elapsed < 2.0
    # One array over all 10^6 steps would take 64 MB.
    assert grown_mb < 16.0


# (d, first crossing step) at the seams of first_crossing's blocks of
# max(64, 4096 // d) rows.
BLOCK_SEAMS = [(1, 1), (1, 4096), (1, 4097), (2, 2048), (2, 2049), (32, 128), (32, 129),
               (65, 64), (65, 65), (100, 128), (100, 129)]


@pytest.mark.parametrize("d, step", BLOCK_SEAMS)
def test_first_crossing_is_exact_at_block_seams(d, step):
    # The mean gap shrinks by lam = 0.999 a step, and eps lies half a step
    # past the gap at step - 1, so step is the first crossing.
    lam, eta = 0.999, 0.002
    w = np.full(d, (lam - 1.0) / eta)
    gap = np.zeros(d)
    gap[-1] = 1.0

    def largest_gap(mean_gap, var, s):
        return np.max(np.abs(mean_gap), axis=-1)

    args = (largest_gap, gap, 1.0, eta, w, np.ones(d), lam ** (step - 0.5))
    assert cli.first_crossing(*args, max_steps=step + 5000) == step
    assert cli.first_crossing(*args, max_steps=step) == step
    assert cli.first_crossing(*args, max_steps=step - 1) is None


def test_mixing_scan_tv_rejected_beyond_1d(tmp_path):
    cfg = {
        "target": {"mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]]},
        "rho": 0.5,
        "metric": "TV",
        "eps_grid": [0.1],
        "init": {"mean": [1.0, 1.0], "sigma0": 1.0},
        "seed": 1,
    }
    code, _ = run(tmp_path, "mixing-scan", cfg)
    assert code == 2


# --- estimate -------------------------------------------------------------------


def test_estimate_roundtrip_through_csv(tmp_path):
    code, out = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=5000), out="ens_a")
    assert code == 0
    code, out_b = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=5000, seed=8), out="ens_b")
    assert code == 0
    est_cfg = {
        "estimator": "knn_kl",
        "inputs": {"p": str(out / "ensemble.csv"), "q": str(out_b / "ensemble.csv")},
        "params": {"k": 5},
        "seed": 0,
    }
    code, est_out = run(tmp_path, "estimate", est_cfg, out="est")
    assert code == 0
    rep = json.loads((est_out / "estimate.json").read_text())
    assert rep["estimator"] == "knn_kl"
    assert abs(rep["value"]) < 0.25


def test_estimate_moment(tmp_path):
    code, out = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=5000), out="ens")
    assert code == 0
    est_cfg = {
        "estimator": "moment_estimate",
        "inputs": {"samples": str(out / "ensemble.csv")},
        "params": {"p": 2},
        "seed": 0,
    }
    code, est_out = run(tmp_path, "estimate", est_cfg, out="est")
    assert code == 0
    rep = json.loads((est_out / "estimate.json").read_text())
    assert rep["value"] == pytest.approx(0.62, abs=0.1)


def test_estimate_w2_empirical(tmp_path):
    code, out_a = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=2000), out="wa")
    assert code == 0
    code, out_b = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=2000, seed=11), out="wb")
    assert code == 0
    est_cfg = {
        "estimator": "w2_empirical_1d",
        "inputs": {"p": str(out_a / "ensemble.csv"), "q": str(out_b / "ensemble.csv")},
        "seed": 0,
    }
    code, est_out = run(tmp_path, "estimate", est_cfg, out="est_w2")
    assert code == 0
    rep = json.loads((est_out / "estimate.json").read_text())
    assert 0.0 <= rep["value"] < 0.2


def test_estimate_reports_typed_params_and_takes_inputs_in_declared_order(tmp_path):
    assert run(tmp_path, "sample", dict(SAMPLE_CFG, chains=300), out="p")[0] == 0
    assert run(tmp_path, "sample", dict(SAMPLE_CFG, chains=300, eta=0.05, seed=8), out="q")[0] == 0
    p, q = (read_ensemble_csv(tmp_path / name / "ensemble.csv") for name in "pq")
    # moment_estimate's p defaults to 2; knn_kl's k is left to the estimator.
    # knn_kl is not symmetric: a config that lists q first still passes p first.
    for i, (cfg, want_params, want_value) in enumerate([
        ({"estimator": "moment_estimate", "inputs": {"samples": "p/ensemble.csv"}}, {"p": 2}, None),
        ({"estimator": "moment_estimate", "inputs": {"samples": "p/ensemble.csv"}, "params": {"p": 4.0}},
         {"p": 4}, None),
        ({"estimator": "knn_kl", "inputs": {"q": "q/ensemble.csv", "p": "p/ensemble.csv"}}, {}, knn_kl(p, q)),
    ]):
        code, out = run(tmp_path, "estimate", cfg, out=f"est{i}")
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        assert report["parameters"] == want_params
        assert want_value is None or report["value"] == want_value


def test_estimate_missing_input_file_is_config_error(tmp_path, capsys):
    cfg = {"estimator": "moment_estimate", "inputs": {"samples": "nope/ensemble.csv"}}
    code, _ = run(tmp_path, "estimate", cfg)
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_estimate_inputs_not_a_map_is_config_error(tmp_path):
    code, _ = run(tmp_path, "estimate", {"estimator": "moment_estimate", "inputs": ["a.csv"]})
    assert code == 2


def test_estimate_reports_input_lineage_from_sidecars(tmp_path):
    code, out = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=500, seed=5), out="ens")
    assert code == 0
    # The same CSV without its sidecar: no lineage, same value.
    bare = tmp_path / "bare" / "ensemble.csv"
    bare.parent.mkdir()
    bare.write_bytes((out / "ensemble.csv").read_bytes())
    reports = []
    for csv in (out / "ensemble.csv", bare):
        cfg = {"estimator": "moment_estimate", "inputs": {"samples": str(csv)}, "params": {"p": 2}}
        code, est_out = run(tmp_path, "estimate", cfg, out=f"est_{csv.parent.name}")
        assert code == 0
        reports.append(json.loads((est_out / "estimate.json").read_text()))
    assert reports[0]["inputs_lineage"] == {
        "samples": {"master_seed": 5, "eta": 0.1, "time": 1.0, "label": "em", "chain_count": 500},
    }
    assert reports[1]["inputs_lineage"] == {
        "samples": dict.fromkeys(["master_seed", "eta", "time", "label", "chain_count"]),
    }
    assert reports[0]["value"] == reports[1]["value"]


ENSEMBLE_HEAD = "chain,coord0,time\n"
MALFORMED_CSVS = {
    "header-only": ENSEMBLE_HEAD,
    "ragged": ENSEMBLE_HEAD + "0,1.5,1\n1,2.5\n",
    "non-numeric": ENSEMBLE_HEAD + "0,1.5,1\n1,abc,1\n",
    "blank-line": ENSEMBLE_HEAD + "0,1.5,1\n\n1,2.5,1\n",
    "comment-line": ENSEMBLE_HEAD + "0,1.5,1\n# 1,2.5,1\n1,2.5,1\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_CSVS))
def test_estimate_malformed_input_csv_exits_2(tmp_path, capsys, case):
    csv = tmp_path / "bad.csv"
    csv.write_text(MALFORMED_CSVS[case])
    code, _ = run(tmp_path, "estimate", {"estimator": "moment_estimate", "inputs": {"samples": str(csv)}})
    assert code == 2
    assert str(csv) in capsys.readouterr().err


@pytest.mark.parametrize("sidecar", ['{"master_seed": 1,', "[1, 2]"])
def test_estimate_malformed_sidecar_exits_2(tmp_path, capsys, sidecar):
    assert run(tmp_path, "sample", SAMPLE_CFG, out="ens")[0] == 0
    (tmp_path / "ens" / "ensemble.json").write_text(sidecar)
    code, _ = run(tmp_path, "estimate", {"estimator": "moment_estimate", "inputs": {"samples": "ens/ensemble.csv"}})
    assert code == 2
    assert "ensemble.json" in capsys.readouterr().err


def test_estimate_unknown_estimator(tmp_path):
    code, _ = run(tmp_path, "estimate", {"estimator": "mmd", "inputs": {}})
    assert code == 2


# --- bound-eval -----------------------------------------------------------------


ALL_ONES_CONSTANTS = {
    "L1": 1.0, "L2": 1.0, "A0": 1.0, "sigma0": 1.0,
    "h0": 1.0, "entropy0": 1.0, "mu": 1.0, "beta": 1.0, "f0": 1.0,
}


def test_bound_eval_all_ones(tmp_path):
    cfg = {"theorem": 1, "eta": 0.1, "horizon": 1.0, "dim": 1, "constants": ALL_ONES_CONSTANTS}
    code, out = run(tmp_path, "bound-eval", cfg)
    assert code == 0
    rep = json.loads((out / "bound_eval.json").read_text())
    assert rep["value"] == pytest.approx(0.1007, abs=1e-12)
    assert rep["terms"]["order2_term"] == pytest.approx(0.1, abs=1e-12)
    assert rep["terms"]["order4_term"] == pytest.approx(0.0007, abs=1e-12)
    assert rep["c0"] == 1.0 and rep["c1"] == 1.0


def test_bound_eval_takes_every_constants_field(tmp_path):
    constants = dict(ALL_ONES_CONSTANTS, c0=1.0, c1=1.0)
    assert constants.keys() == {f.name for f in dataclasses.fields(BoundConstants)}
    code, out = run(tmp_path, "bound-eval", {"theorem": 1, "eta": 0.1, "constants": constants})
    assert code == 0
    assert json.loads((out / "bound_eval.json").read_text())["value"] == pytest.approx(0.1007, abs=1e-12)


def test_bound_eval_missing_f0_names_it(tmp_path, capsys):
    constants = {k: v for k, v in ALL_ONES_CONSTANTS.items() if k != "f0"}
    code, _ = run(tmp_path, "bound-eval", {"theorem": 2, "eta": 0.1, "constants": constants})
    assert code == 2
    assert "f0" in capsys.readouterr().err


def test_bound_eval_sweep_slope(tmp_path):
    cfg = {"theorem": 1, "eta_grid": [1e-4, 5e-5, 2.5e-5], "horizon": 1.0, "dim": 1,
           "constants": ALL_ONES_CONSTANTS}
    code, out = run(tmp_path, "bound-eval", cfg)
    assert code == 0
    rep = json.loads((out / "bound_eval.json").read_text())
    assert rep["fit"]["slope"] == pytest.approx(2.0, abs=1e-6)


def test_bound_eval_inline_constants_and_theorem_2(tmp_path):
    cfg = {"theorem": 2, "eta": 0.1, "horizon": 1.0, "dim": 1,
           "constants": ALL_ONES_CONSTANTS}
    code, out = run(tmp_path, "bound-eval", cfg)
    assert code == 0
    rep = json.loads((out / "bound_eval.json").read_text())
    assert rep["value"] == pytest.approx(0.1207, abs=1e-12)


def test_bound_eval_window_rejection(tmp_path):
    code, _ = run(tmp_path, "bound-eval", {"theorem": 1, "eta": 0.5, "constants": ALL_ONES_CONSTANTS})
    assert code == 2


def test_bound_eval_constants_path_exits_2(tmp_path, capsys):
    # constants are an inline map; a file path is not read.
    (tmp_path / "constants.json").write_text(json.dumps(ALL_ONES_CONSTANTS))
    code, out = run(tmp_path, "bound-eval", {"eta": 0.1, "constants": "constants.json"})
    assert code == 2
    assert "constants" in capsys.readouterr().err
    assert not out.exists()


# --- claim bands: fixed, their edges inside -----------------------------------------


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


def fit_with(slope, r_squared=1.0):
    return RateFit(slope=slope, intercept=0.0, r_squared=r_squared, points=())


def claim_passes(claims, name):
    (verdict,) = [claim["pass"] for claim in claims if claim["name"] == name]
    return verdict


# (exact KL fit, comparator fit, claim, whether it passes): each band's edge
# passes and the next float outside it fails.
RATE_BAND_CASES = {
    "exact-slope-at-low-edge": (fit_with(1.85), fit_with(1.0), "exact_slope", True),
    "exact-slope-below-band": (fit_with(below(1.85)), fit_with(1.0), "exact_slope", False),
    "exact-slope-at-high-edge": (fit_with(2.15), fit_with(1.0), "exact_slope", True),
    "exact-slope-above-band": (fit_with(above(2.15)), fit_with(1.0), "exact_slope", False),
    "exact-r2-at-least": (fit_with(2.0, 0.999), fit_with(1.0), "exact_slope", True),
    "exact-r2-below-least": (fit_with(2.0, below(0.999)), fit_with(1.0), "exact_slope", False),
    "girsanov-slope-at-low-edge": (fit_with(2.0), fit_with(0.85), "girsanov_slope", True),
    "girsanov-slope-below-band": (fit_with(2.0), fit_with(below(0.85)), "girsanov_slope", False),
    "girsanov-slope-at-high-edge": (fit_with(2.0), fit_with(1.15), "girsanov_slope", True),
    "girsanov-slope-above-band": (fit_with(2.0), fit_with(above(1.15)), "girsanov_slope", False),
    # 1.7 - 1.0 is 0.7 exactly.
    "slope-gap-at-least": (fit_with(1.7), fit_with(1.0), "slope_gap", True),
    "slope-gap-below-least": (fit_with(1.7), fit_with(above(1.0)), "slope_gap", False),
}


@pytest.mark.parametrize("case", list(RATE_BAND_CASES))
def test_rate_scan_claim_bands_are_fixed(monkeypatch, case):
    exact, girsanov, name, passes = RATE_BAND_CASES[case]
    # The comparator gives 1.0 per step size, and each slope fit is replaced.
    monkeypatch.setattr(cli.est, "girsanov_pathwise_kl", lambda model, init, etas, *args, **kwargs: [1.0] * len(etas))
    monkeypatch.setattr(cli, "slope_fit", lambda pairs: girsanov if pairs[0][1] == 1.0 else exact)
    outcome = cli.cmd_rate_scan(read_config("rate-scan", RATE_CFG))
    assert claim_passes(outcome.claims, name) is passes


@pytest.mark.parametrize("metric, slope, passes", [
    (metric, slope, passes)
    for metric, (lo, hi) in [("KL", (-0.75, -0.40)), ("TV", (-1.3, -0.8)), ("W2", (-1.3, -0.8))]
    for slope, passes in [(lo, True), (below(lo), False), (hi, True), (above(hi), False)]
])
def test_mixing_scan_slope_band_is_fixed(monkeypatch, metric, slope, passes):
    monkeypatch.setattr(cli, "slope_fit", lambda pairs: fit_with(slope))
    cfg = {"KL": MIX_CFG, "TV": MIX_CASES["tv"], "W2": MIX_CASES["w2"]}[metric]
    outcome = cli.cmd_mixing_scan(read_config("mixing-scan", cfg))
    assert claim_passes(outcome.claims, "mixing_slope") is passes


@pytest.mark.parametrize("slope, passes", [(1.9, True), (below(1.9), False), (2.1, True), (above(2.1), False)])
def test_bound_eval_sweep_band_is_fixed(monkeypatch, slope, passes):
    monkeypatch.setattr(cli.est, "rate_fit", lambda points: fit_with(slope))
    outcome = cli.cmd_bound_eval(read_config("bound-eval", BOUND_CFG))
    assert claim_passes(outcome.claims, "sweep_slope") is passes


# --- misc -----------------------------------------------------------------------


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["sample", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2


# --- one skeleton: rerun identity and declared config keys ------------------------


RATE_CFG = {
    "model": {"name": "ou", "params": {"dim": 1}},
    "init": {"mean": [1.0], "sigma0": 1.0},
    "horizon": 1.0,
    "eta_grid": [0.2, 0.1, 0.05],
    "girsanov_chains": 500,
    "seed": 4,
}
VERIFY_CFG = {"model": {"name": "ou", "params": {"dim": 1}}, "init": {"mean": [0.0], "sigma0": 1.0}, "seed": 1}
BOUND_CFG = {"theorem": 1, "eta_grid": [1e-4, 5e-5, 2.5e-5], "horizon": 1.0, "dim": 1,
             "constants": ALL_ONES_CONSTANTS}
RATE_FIT_CFG = {"estimator": "rate_fit", "points": [[0.1, 0.01], [0.05, 0.0025], [0.025, 0.000625]]}
# The estimate config sits in tmp_path; its input path is relative to it.
ESTIMATE_CFG = {"estimator": "moment_estimate", "inputs": {"samples": "ens/ensemble.csv"}, "params": {"p": 2}}


# sigma0^2 overflows (1e200) or underflows to 0 (1e-200).
@pytest.mark.parametrize("command, cfg", [
    ("rate-scan", dict(RATE_CFG, init={"mean": [1.0], "sigma0": 1e200})),
    ("verify", dict(VERIFY_CFG, init={"mean": [0.0], "sigma0": 1e-200})),
    ("bound-eval", dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, sigma0=1e200))),
    ("bound-eval", dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, sigma0=1e-200))),
])
def test_init_variance_outside_float_range_exits_2(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert "sigma0" in capsys.readouterr().err


# Every chain's initial state lies beyond the divergence limit: a bad init,
# not a divergence of the chain.
@pytest.mark.parametrize("command, cfg", [
    ("sample", dict(SAMPLE_CFG, init={"mean": [0.0], "sigma0": 1e200})),
    ("sample", dict(SAMPLE_CFG, init={"mean": [1e13], "sigma0": 1.0})),
    ("rate-scan", dict(COMPARATOR_CFG, init={"mean": [1e13], "sigma0": 1.0})),
])
def test_init_out_of_range_exits_2_without_output(tmp_path, capsys, command, cfg):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "init" in err and "diverged" not in err
    assert not out.exists()


# A bound that overflows in a power exits 2 naming its theorem; a sweep whose
# totals overflow in the sum to inf exits 2 from the rate fit.
@pytest.mark.parametrize("cfg, named", [
    pytest.param({"theorem": 1, "eta": 0.1, "constants": dict(ALL_ONES_CONSTANTS, A0=1e100)},
                 "theorem 1", id="theorem-1-A0"),
    pytest.param({"theorem": 1, "eta": 1e-102, "constants": dict(ALL_ONES_CONSTANTS, L1=1e100)},
                 "theorem 1", id="theorem-1-L1"),
    pytest.param({"theorem": 2, "eta": 0.1, "constants": dict(ALL_ONES_CONSTANTS, sigma0=1e100)},
                 "theorem 2", id="theorem-2-sigma0"),
    pytest.param(dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, h0=1e308, entropy0=1e308)),
                 "finite", id="sweep-h0-entropy0"),
])
def test_bound_outside_float_range_exits_2(tmp_path, capsys, cfg, named):
    code, out = run(tmp_path, "bound-eval", cfg)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_bound_sum_overflow_fails_bound_finite(tmp_path):
    constants = dict(ALL_ONES_CONSTANTS, h0=1e308, entropy0=1e308)
    code, out = run(tmp_path, "bound-eval", {"theorem": 1, "eta": 0.1, "constants": constants})
    assert code == 1
    claims = json.loads((out / "bound_eval.json").read_text())["claims"]
    assert [(c["name"], c["pass"]) for c in claims] == [("bound_finite", False)]


def reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_non_finite_report_value_is_strict_json_null(tmp_path):
    constants = dict(ALL_ONES_CONSTANTS, h0=1e308, entropy0=1e308)
    code, out = run(tmp_path, "bound-eval", {"theorem": 1, "eta": 0.1, "constants": constants})
    assert code == 1
    report = json.loads((out / "bound_eval.json").read_text(), parse_constant=reject_constant)
    assert report["value"] is None and report["terms"]["total"] is None
    assert report["claims"][0]["detail"] == "value=inf"


# The estimators' inputs, relative to the config: written by sample into "ens".
ENS_PQ = {"p": "ens/ensemble.csv", "q": "ens/ensemble.csv"}
def with_value(cfg, path, value):
    """A copy of cfg holding value at the key path, its missing maps made."""
    cfg = json.loads(json.dumps(cfg))
    *parents, key = path
    entry = cfg
    for step in parents:
        entry = entry.setdefault(step, {})
    entry[key] = value
    return cfg


def command_id(command, cfg):
    """A test id's command part: the one-eta comparator scan is told apart."""
    return "one-eta-rate-scan" if cfg is COMPARATOR_CFG else command


# (command, a valid config, an integer field: a dotted key path)
INTEGER_FIELDS = [
    ("sample", SAMPLE_CFG, "chains"),
    ("sample", SAMPLE_CFG, "seed"),
    ("rate-scan", RATE_CFG, "girsanov_chains"),
    ("rate-scan", RATE_CFG, "quad_points_per_step"),
    ("rate-scan", COMPARATOR_CFG, "girsanov_chains"),
    ("rate-scan", COMPARATOR_CFG, "quad_points_per_step"),
    ("mixing-scan", MIX_CFG, "max_steps"),
    ("bound-eval", BOUND_CFG, "theorem"),
    ("bound-eval", BOUND_CFG, "dim"),
    ("estimate", {"estimator": "knn_kl", "inputs": ENS_PQ}, "params.k"),
    ("estimate", {"estimator": "tv_histogram", "inputs": ENS_PQ}, "params.bins_per_dim"),
    ("estimate", ESTIMATE_CFG, "params.p"),
    ("sample", SAMPLE_CFG, "model.params.dim"),
]


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "command, cfg, field",
    [pytest.param(*case, id=f"{case[1].get('estimator', command_id(*case[:2]))}-{case[2]}") for case in INTEGER_FIELDS],
)
def test_non_integer_integer_field_exits_2_before_any_output(tmp_path, capsys, command, cfg, field, value):
    if command == "estimate":
        assert run(tmp_path, "sample", SAMPLE_CFG, out="ens")[0] == 0
    code, out = run(tmp_path, command, with_value(cfg, field.split("."), value))
    assert code == 2
    assert f"{field.split('.')[-1]} must be an integer" in capsys.readouterr().err
    assert not out.exists()


# (command, a valid config, a boolean flag)
BOOLEAN_FLAGS = [("rate-scan", RATE_CFG, "exact"), ("sample", SAMPLE_CFG, "allow_outside_window")]
NON_BOOLEANS = ["false", "true", 0, 1, None, [False]]


@pytest.mark.parametrize("value", NON_BOOLEANS)
@pytest.mark.parametrize("command, cfg, key", BOOLEAN_FLAGS, ids=[key for _, _, key in BOOLEAN_FLAGS])
def test_non_boolean_flag_exits_2_before_any_output(tmp_path, capsys, command, cfg, key, value):
    code, out = run(tmp_path, command, dict(cfg, **{key: value}))
    assert code == 2
    assert f"{key} must be true or false" in capsys.readouterr().err
    assert not out.exists()


# (command, a valid config, the path of a float field in it)
FLOAT_FIELDS = [
    ("rate-scan", RATE_CFG, ("horizon",)),
    ("rate-scan", RATE_CFG, ("eta_grid", 1)),
    ("rate-scan", RATE_CFG, ("init", "sigma0")),
    ("rate-scan", RATE_CFG, ("init", "mean", 0)),
    ("rate-scan", COMPARATOR_CFG, ("eta_grid", 0)),
    ("rate-scan", COMPARATOR_CFG, ("horizon",)),
    ("mixing-scan", MIX_CFG, ("rho",)),
    ("mixing-scan", MIX_CFG, ("eps_grid", 2)),
    ("mixing-scan", MIX_CFG, ("target", "mean", 0)),
    ("mixing-scan", MIX_CFG, ("target", "cov", 0, 0)),
    ("verify", VERIFY_CFG, ("init", "sigma0")),
    ("sample", SAMPLE_CFG, ("eta",)),
    ("sample", SAMPLE_CFG, ("horizon",)),
    ("sample", SAMPLE_CFG, ("init", "mean")),
    ("sample", dict(SAMPLE_CFG, snapshot_times=[0.5]), ("snapshot_times", 0)),
    ("estimate", RATE_FIT_CFG, ("points", 1, 1)),
    ("bound-eval", BOUND_CFG, ("horizon",)),
    ("bound-eval", BOUND_CFG, ("eta_grid", 0)),
    ("bound-eval", {"theorem": 1, "eta": 0.1, "constants": ALL_ONES_CONSTANTS}, ("eta",)),
    ("bound-eval", BOUND_CFG, ("constants", "L1")),
    ("bound-eval", BOUND_CFG, ("constants", "mu")),
    ("rate-scan", dict(RATE_CFG, model={"name": "ou", "params": {"dim": 1, "rate": 1.0}}), ("model", "params", "rate")),
    ("sample", dict(SAMPLE_CFG, model={"name": "gauss-mix", "params": {"separation": 1.5}}),
     ("model", "params", "separation")),
]
NON_FLOATS = [True, False, "0.1", "abc", None, math.nan, math.inf, -math.inf, 10**400]


@pytest.mark.parametrize("value", NON_FLOATS, ids=repr)
@pytest.mark.parametrize(
    "command, cfg, path",
    FLOAT_FIELDS,
    ids=[f"{command_id(command, cfg)}-{'.'.join(map(str, path))}" for command, cfg, path in FLOAT_FIELDS],
)
def test_non_float_float_field_exits_2_naming_the_key(tmp_path, capsys, command, cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path
    entry = cfg
    for step in parents:
        entry = entry[step]
    entry[last] = value
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    key = [step for step in path if isinstance(step, str)][-1]
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_float_fields_take_any_json_number(tmp_path):
    # An integer is the same float; a 1-D Gaussian target may be scalars.
    code_a, out_a = run(tmp_path, "sample", dict(SAMPLE_CFG, horizon=1, init={"mean": 0, "sigma0": 1}), out="a")
    code_b, out_b = run(tmp_path, "sample", SAMPLE_CFG, out="b")
    assert code_a == code_b == 0
    assert (out_a / "ensemble.csv").read_bytes() == (out_b / "ensemble.csv").read_bytes()
    code, _ = run(tmp_path, "mixing-scan", dict(MIX_CFG, target={"mean": 0.0, "cov": 0.5}))
    assert code == 0


def test_integral_float_is_an_integer(tmp_path):
    code, out = run(tmp_path, "sample", dict(SAMPLE_CFG, chains=10.0, seed=7.0))
    assert code == 0
    assert read_ensemble_csv(out / "ensemble.csv").chain_count == 10
    seed = json.loads((out / "ensemble.json").read_text())["master_seed"]
    assert seed == 7 and isinstance(seed, int)


RERUN_CASES = {
    "rate-scan": RATE_CFG,
    "mixing-scan": MIX_CFG,
    "verify": VERIFY_CFG,
    "sample": SAMPLE_CFG,
    "estimate": ESTIMATE_CFG,
    "bound-eval": BOUND_CFG,
}


@pytest.mark.parametrize("command", list(RERUN_CASES))
def test_rerun_from_recorded_config_is_byte_identical(tmp_path, command):
    if command == "estimate":
        assert run(tmp_path, "sample", SAMPLE_CFG, out="ens")[0] == 0
    code1, out1 = run(tmp_path, command, RERUN_CASES[command], out="a")
    # Rerun from the recorded config where it was written, in the output directory.
    recorded = out1 / f"{command.replace('-', '_')}_config.json"
    out2 = tmp_path / "b"
    code2 = main([command, "--config", str(recorded), "--out", str(out2)])
    assert code1 == code2 == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# The runs whose every output file is hashed: the rerun cases, more samples,
# a non-diagonal ou with an offset through rate-scan, sample and verify,
# bound-eval on both theorems with non-unit constants, and the checked-in
# configs cheap enough for tier 1.  estimate is left out, since its recorded
# config holds the absolute paths of its inputs.
GOLDEN_DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
OU_OFFSET_MODEL = {"name": "ou", "params": {"matrix": [[-1.0, 0.3], [0.3, -0.6]], "offset": [0.2, -0.1]}}
D2_INIT = {"mean": [0.5, -0.25], "sigma0": 0.8}
NON_UNIT_CONSTANTS = {
    "L1": 1.5, "L2": 0.3, "A0": 0.7, "sigma0": 1.2,
    "h0": 0.9, "entropy0": 2.1, "mu": 0.6, "beta": 1.7, "f0": 0.4, "c0": 2.0, "c1": 0.5,
}
GOLDEN_RUNS = {
    **{command: (command, cfg) for command, cfg in RERUN_CASES.items() if command != "estimate"},
    "sample-snapshots": ("sample", dict(SAMPLE_CFG, snapshot_times=[0.5, 1.0])),
    "sample-divergence": ("sample", DIVERGING_SAMPLE_CFG),
    "rate-scan-ou-offset": (
        "rate-scan", dict(RATE_CFG, model=OU_OFFSET_MODEL, init=D2_INIT, girsanov_chains=200),
    ),
    "sample-ou-offset": ("sample", dict(SAMPLE_CFG, model=OU_OFFSET_MODEL, init=D2_INIT, chains=200)),
    "verify-ou-offset": ("verify", dict(VERIFY_CFG, model=OU_OFFSET_MODEL, init=D2_INIT)),
    "sample-zero-d2": ("sample", dict(SAMPLE_CFG, model={"name": "zero", "params": {"dim": 2}}, init=D2_INIT)),
    "sample-expansive-d2": (
        "sample", dict(SAMPLE_CFG, model={"name": "expansive", "params": {"dim": 2, "rate": 0.7}}, init=D2_INIT),
    ),
    "bound-eval-theorem-2-sweep": (
        "bound-eval", {"theorem": 2, "eta_grid": [1e-3, 5e-4, 2.5e-4], "horizon": 2.5, "dim": 3,
                       "constants": NON_UNIT_CONSTANTS},
    ),
    "bound-eval-theorem-1-eta": (
        "bound-eval", {"theorem": 1, "eta": 0.05, "horizon": 2.5, "dim": 3, "constants": NON_UNIT_CONSTANTS},
    ),
    **{
        path.stem: (path.name.split(".")[0], json.loads(path.read_text()))
        for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        if not path.name.startswith("rate-scan.")
    },
}


def golden_digests(tmp_path: Path) -> dict:
    """{run/file: sha256 of its bytes} over every output file of GOLDEN_RUNS."""
    digests = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case, (command, cfg) in GOLDEN_RUNS.items():
            _, out = run(tmp_path, command, cfg, out=case)
            for path in sorted(out.iterdir()):
                digests[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# A change that alters output bits on purpose re-records the digests with
# PYTHONPATH=src python tests/test_cli.py
def test_output_files_match_golden_digests(tmp_path):
    assert golden_digests(tmp_path) == json.loads(GOLDEN_DIGESTS.read_text())


def test_estimate_records_absolute_input_paths(tmp_path):
    assert run(tmp_path, "sample", SAMPLE_CFG, out="ens")[0] == 0
    code, out = run(tmp_path, "estimate", ESTIMATE_CFG, out="est")
    assert code == 0
    recorded = json.loads((out / "estimate_config.json").read_text())
    assert recorded["inputs"] == {"samples": str((tmp_path / "ens" / "ensemble.csv").resolve())}


# Configs a command rejects, as (command, config, a fragment of the message);
# each exits 2 before --out exists.  "s.csv" is an ensemble CSV next to the
# config, built from a 1-D array and so 20 chains of dimension 1, and
# "nan.csv" one whose last point is nan.
REJECTED_CONFIGS = {
    "rate-scan-empty-grid": ("rate-scan", dict(RATE_CFG, eta_grid=[]), "eta_grid"),
    "rate-scan-eta-outside-window": ("rate-scan", dict(RATE_CFG, eta_grid=[0.2, 0.1, 0.6]), "step size 0.6"),
    "rate-scan-exact-nonlinear": (
        "rate-scan", dict(RATE_CFG, model={"name": "double-well", "params": {"dim": 1}}), "exact=false",
    ),
    "rate-scan-negative-rate": (
        "rate-scan", dict(RATE_CFG, model={"name": "ou", "params": {"dim": 1, "rate": -1}}), "rate",
    ),
    "rate-scan-init-mean-dimension": (
        "rate-scan", dict(RATE_CFG, init={"mean": [1.0, 2.0], "sigma0": 1.0}), "init mean",
    ),
    # An eta above the horizon would take no step and report KL 0, which
    # turned a failing slope claim into a pass.
    "rate-scan-eta-above-horizon": (
        "rate-scan",
        dict(RATE_CFG, model={"name": "ou", "params": {"dim": 1, "rate": 0.2}}, eta_grid=[2.0, 0.4, 0.2, 0.1]),
        "eta_grid value 2.0",
    ),
    "rate-scan-negative-horizon": ("rate-scan", dict(RATE_CFG, horizon=-1.0, exact=False), "horizon"),
    "rate-scan-negative-chains": (
        "rate-scan", dict(RATE_CFG, girsanov_chains=-5), "girsanov_chains must be an integer >= 0",
    ),
    "sample-no-chains": ("sample", dict(SAMPLE_CFG, chains=0), "chains must be an integer >= 1"),
    "mixing-scan-no-steps": ("mixing-scan", dict(MIX_CFG, max_steps=0), "max_steps must be an integer >= 1"),
    "bound-eval-dim-0": ("bound-eval", dict(BOUND_CFG, dim=0), "dim must be an integer >= 1"),
    # The pathwise comparator runs from rate-scan alone.
    "estimate-girsanov": (
        "estimate",
        {"estimator": "girsanov_pathwise_kl", "model": {"name": "ou", "params": {"dim": 1}},
         "init": {"mean": [1.0], "sigma0": 1.0}, "eta": 0.1, "horizon": 1.0, "chains": 200},
        "estimator must be one of knn_kl, w2_empirical_1d, tv_histogram, moment_estimate, rate_fit",
    ),
    "sample-snapshot-past-horizon": ("sample", dict(SAMPLE_CFG, snapshot_times=[0.5, 2.0]), "snapshot time 2.0"),
    "sample-negative-horizon": ("sample", dict(SAMPLE_CFG, horizon=-1.0), "horizon"),
    "estimate-missing-input-name": ("estimate", {"estimator": "knn_kl", "inputs": {"p": "s.csv"}}, "'q'"),
    "estimate-missing-input-file": (
        "estimate", {"estimator": "moment_estimate", "inputs": {"samples": "nope.csv"}}, "nope.csv",
    ),
    "bound-eval-no-eta": ("bound-eval", {"constants": ALL_ONES_CONSTANTS}, "eta_grid"),
    "bound-eval-eta-and-grid": ("bound-eval", dict(BOUND_CFG, eta=1e-4), "eta_grid"),
    "bound-eval-missing-mu-beta": (
        "bound-eval",
        dict(BOUND_CFG, constants={k: v for k, v in ALL_ONES_CONSTANTS.items() if k not in ("mu", "beta")}),
        "mu, beta",
    ),
    "mixing-scan-rho-above-1": ("mixing-scan", dict(MIX_CFG, rho=2.0), "rho"),
    # An eta above the horizon would take no step: sample would write the
    # initial draw.
    "sample-eta-above-horizon": ("sample", dict(SAMPLE_CFG, eta=0.4, horizon=0.1), "eta value 0.4"),
    # An input name the estimator never reads.
    "estimate-unread-input": (
        "estimate", {"estimator": "knn_kl", "inputs": {"p": "s.csv", "q": "s.csv", "samples": "nope.csv"}}, "inputs",
    ),
    "estimate-rate-fit-inputs": ("estimate", dict(RATE_FIT_CFG, inputs={"samples": "s.csv"}), "inputs"),
    # Two snapshot times on one grid step of eta = 0.1 (0.55 rounds down to 0.5).
    "sample-snapshots-on-one-step": ("sample", dict(SAMPLE_CFG, snapshot_times=[0.5, 0.5, 0.55]), "snapshot_times"),
    # Read by the table, so rejected also when the comparator does not run.
    "rate-scan-no-quad-points": (
        "rate-scan", dict(RATE_CFG, girsanov_chains=0, quad_points_per_step=0),
        "quad_points_per_step must be an integer in [1, 14]",
    ),
    "rate-scan-too-many-quad-points": (
        "rate-scan", dict(RATE_CFG, girsanov_chains=0, quad_points_per_step=15),
        "quad_points_per_step must be an integer in [1, 14]",
    ),
    # One step size, repeated, spans no slope.
    "bound-eval-repeated-eta": ("bound-eval", dict(BOUND_CFG, eta_grid=[0.1, 0.1, 0.1]), "3 distinct step sizes"),
    "estimate-rate-fit-repeated-eta": (
        "estimate", dict(RATE_FIT_CFG, points=[[0.1, 0.01], [0.1, 0.011], [0.1, 0.012]]), "3 distinct step sizes",
    ),
    # The histogram binned the nan nowhere and reported TV 0.
    "estimate-tv-histogram-nan": (
        "estimate", {"estimator": "tv_histogram", "inputs": {"p": "nan.csv", "q": "nan.csv"}}, "samples must be finite",
    ),
    # A choice is spelled exactly: "kl" once ran as KL.
    "mixing-scan-lowercase-metric": ("mixing-scan", dict(MIX_CFG, metric="kl"), "metric must be one of KL, TV, W2"),
    "estimate-list-estimator": (
        "estimate", {"estimator": ["knn_kl"], "inputs": {"p": "s.csv", "q": "s.csv"}}, "estimator must be one of",
    ),
    "bound-eval-theorem-3": ("bound-eval", dict(BOUND_CFG, theorem=3), "theorem must be an integer in [1, 2]"),
    # ou with a matrix once dropped dim and rate, running at d=1 and rate 1.
    "rate-scan-ou-dim-and-matrix": (
        "rate-scan", dict(RATE_CFG, model={"name": "ou", "params": {"dim": 3, "matrix": [[-1.0]]}}),
        "ou dim 3 differs from the matrix size 1",
    ),
    "rate-scan-ou-rate-and-matrix": (
        "rate-scan", dict(RATE_CFG, model={"name": "ou", "params": {"rate": 5.0, "matrix": [[-1.0]]}}),
        "rate or matrix",
    ),
}


@pytest.mark.parametrize("case", list(REJECTED_CONFIGS))
def test_rejected_config_exits_2_without_output_directory(tmp_path, capsys, case):
    command, cfg, named = REJECTED_CONFIGS[case]
    write_ensemble_csv(SampleEnsemble(1.0, 0.1, np.linspace(-1.0, 1.0, 20), 0), tmp_path / "s.csv")
    nan_points = np.append(np.linspace(-1.0, 1.0, 19), np.nan)[:, None]
    write_ensemble_csv(SampleEnsemble(1.0, 0.1, nan_points, 0), tmp_path / "nan.csv")
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# (command, a valid config, the top-level keys it must not run without)
REQUIRED_KEYS = [
    ("rate-scan", RATE_CFG, ["model", "init", "eta_grid", "horizon"]),
    ("rate-scan", COMPARATOR_CFG, ["model", "init", "eta_grid", "horizon"]),
    ("mixing-scan", MIX_CFG, ["target", "rho", "init", "eps_grid"]),
    ("verify", VERIFY_CFG, ["model"]),
    ("sample", SAMPLE_CFG, ["model", "init", "eta", "horizon", "chains"]),
    ("estimate", RATE_FIT_CFG, ["points"]),
    ("estimate", ESTIMATE_CFG, ["estimator"]),
    ("bound-eval", BOUND_CFG, ["constants"]),
]
BAD_CONFIGS = [
    pytest.param(command, {k: v for k, v in cfg.items() if k != key}, key,
                 id=f"{cfg.get('estimator', command_id(command, cfg))}-without-{key}")
    for command, cfg, keys in REQUIRED_KEYS
    for key in keys
] + [
    pytest.param(command, dict(cfg, girsanov_chain=1000), "girsanov_chain",
                 id=f"{cfg.get('estimator', command_id(command, cfg))}-unknown-key")
    for command, cfg, _keys in REQUIRED_KEYS
] + [
    # Keys the commands no longer read; a claim band is fixed, not configured.
    pytest.param(command, dict(cfg, **{key: value}), key, id=f"{command}-removed-{key}")
    for command, cfg, key, value in [
        ("rate-scan", RATE_CFG, "bands", {"exact_slope": [1.85, 2.15]}),
        ("mixing-scan", MIX_CFG, "bands", {"mixing_slope": {"KL": [-0.75, -0.40]}}),
        ("bound-eval", BOUND_CFG, "bands", {"sweep_slope": [1.9, 2.1]}),
        ("verify", VERIFY_CFG, "ball_radius", 10.0),
        ("verify", VERIFY_CFG, "pair_count", 100),
        ("verify", VERIFY_CFG, "grad_points", 20),
        ("verify", VERIFY_CFG, "radius_grid", [0.5, 1.0, 2.0]),
        ("verify", VERIFY_CFG, "directions_per_radius", 16),
        ("mixing-scan", MIX_CFG, "scale_constant", 1.0),
    ]
] + [
    pytest.param("bound-eval", dict(BOUND_CFG, constants={k: v for k, v in ALL_ONES_CONSTANTS.items() if k != "sigma0"}),
                 "sigma0", id="bound-eval-constants-without-sigma0"),
    # No bound reads a log-Sobolev constant; the mixing rules take mixing-scan's rho.
    pytest.param("bound-eval", dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, rho=0.5)), "rho",
                 id="bound-eval-removed-constants.rho"),
]


@pytest.mark.parametrize("command, cfg, key", BAD_CONFIGS)
def test_bad_config_keys_exit_2_before_any_output(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# Each claim-band leaf the tables once declared, and bound-eval's rho, at its
# old default or a valid value: (command, config, key path, value, the
# unknown key named).  A band is fixed, so each exits 2 before any output.
BOUND_ONE_ETA_CFG = {"theorem": 1, "eta": 0.1, "constants": ALL_ONES_CONSTANTS}
REMOVED_LEAVES = [
    pytest.param(command, cfg, path, value, named,
                 id=f"{'one-eta-bound-eval' if cfg is BOUND_ONE_ETA_CFG else command_id(command, cfg)}-{'.'.join(path)}")
    for command, cfg, path, value, named in [
        *[(command, cfg, ("bands", leaf), value, "bands")
          for command, cfg in [("rate-scan", RATE_CFG), ("rate-scan", COMPARATOR_CFG)]
          for leaf, value in [("exact_slope", [1.85, 2.15]), ("exact_r2_min", 0.999),
                              ("girsanov_slope", [0.85, 1.15]), ("slope_gap_min", 0.7)]],
        *[("mixing-scan", MIX_CFG, ("bands", "mixing_slope", metric), band, "bands")
          for metric, band in [("KL", [-0.75, -0.40]), ("TV", [-1.3, -0.8]), ("W2", [-1.3, -0.8])]],
        *[("bound-eval", cfg, path, value, named)
          for cfg in [BOUND_CFG, BOUND_ONE_ETA_CFG]
          for path, value, named in [(("bands", "sweep_slope"), [1.9, 2.1], "bands"),
                                     (("constants", "rho"), 0.5, "rho")]],
    ]
]


@pytest.mark.parametrize("command, cfg, path, value, named", REMOVED_LEAVES)
def test_removed_band_or_rho_leaf_exits_2_before_any_output(tmp_path, capsys, command, cfg, path, value, named):
    code, out = run(tmp_path, command, with_value(cfg, path, value))
    assert code == 2
    assert f"unknown keys: {named}" in capsys.readouterr().err
    assert not out.exists()


INPUTS_PQ = {"p": "p.csv", "q": "q.csv"}
# (command, a config with one misspelled nested key, that key)
MISSPELLED_NESTED = [
    ("rate-scan", dict(COMPARATOR_CFG, model={"name": "ou", "params": {"dims": 1}}), "dims"),
    ("verify", dict(VERIFY_CFG, init={"means": [0.0], "sigma0": 1.0}), "means"),
    ("sample", dict(SAMPLE_CFG, model={"name": "ou", "param": {"dim": 1}}), "param"),
    ("bound-eval", dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, LI=1.0)), "LI"),
    ("bound-eval", dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, zeta=3.0)), "zeta"),
    ("estimate", {"estimator": "knn_kl", "inputs": INPUTS_PQ, "params": {"kk": 1}}, "kk"),
    ("estimate", {"estimator": "w2_empirical_1d", "inputs": INPUTS_PQ, "params": {"k": 5}}, "k"),
    ("estimate", {"estimator": "tv_histogram", "inputs": INPUTS_PQ, "params": {"bins": 16}}, "bins"),
    ("estimate", {"estimator": "moment_estimate", "inputs": {"samples": "s.csv"}, "params": {"q": 2}}, "q"),
    ("estimate", dict(RATE_FIT_CFG, params={"slope": 2}), "slope"),
]


@pytest.mark.parametrize(
    "command, cfg, key",
    [pytest.param(*case, id=f"{case[1].get('estimator', case[0])}-{case[2]}") for case in MISSPELLED_NESTED],
)
def test_misspelled_nested_key_exits_2_before_any_output(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# A wrongly typed model param used to reach the builder: "rate": true ran an
# OU model at rate 1 and passed, and "separation": "2" exited 2 naming no key.
@pytest.mark.parametrize("command, cfg, key", [
    ("rate-scan", dict(RATE_CFG, model={"name": "ou", "params": {"dim": 1, "rate": True}}), "model.params.rate"),
    ("sample", dict(SAMPLE_CFG, model={"name": "gauss-mix", "params": {"dim": 1, "separation": "2"}}),
     "model.params.separation"),
], ids=["ou-rate-true", "gauss-mix-separation-string"])
def test_wrongly_typed_model_param_exits_2_naming_it(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert f"{key} must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, extra", [
    ("bound-eval", BOUND_CFG, ("--seed=-1",)),
    ("rate-scan", dict(RATE_CFG, girsanov_chains=0, seed=-1), ()),
    ("sample", dict(SAMPLE_CFG, seed=2**64), ()),
    ("verify", VERIFY_CFG, ("--seed", str(2**64))),
], ids=["bound-eval-flag", "rate-scan-config", "sample-config", "verify-flag"])
def test_seed_outside_range_exits_2_before_any_output(tmp_path, capsys, command, cfg, extra):
    code, out = run(tmp_path, command, cfg, extra=extra)
    assert code == 2
    assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_recorded(tmp_path):
    code, out = run(tmp_path, "bound-eval", BOUND_CFG, extra=(f"--seed={2**64 - 1}",))
    assert code == 0
    assert json.loads((out / "bound_eval.json").read_text())["master_seed"] == 2**64 - 1


# --- the config tables: every declared leaf is typed before any output ---------------


# A valid config per command, the one-eta comparator scan beside rate-scan, and per estimator.
TABLE_CONFIGS = [(command, COMMANDS[command], cfg) for command, cfg in [
    ("rate-scan", RATE_CFG), ("rate-scan", COMPARATOR_CFG), ("mixing-scan", MIX_CFG), ("verify", VERIFY_CFG),
    ("sample", SAMPLE_CFG), ("bound-eval", BOUND_CFG),
]] + [("estimate", ESTIMATORS[name], cfg) for name, cfg in {
    "knn_kl": {"estimator": "knn_kl", "inputs": INPUTS_PQ},
    "w2_empirical_1d": {"estimator": "w2_empirical_1d", "inputs": INPUTS_PQ},
    "tv_histogram": {"estimator": "tv_histogram", "inputs": INPUTS_PQ},
    "moment_estimate": ESTIMATE_CFG,
    "rate_fit": RATE_FIT_CFG,
}.items()]


def table_leaves(table, path=()):
    """(key path, reader) for every key of table that is not a nested map."""
    for key, (reader, *_default) in table.items():
        if isinstance(reader, dict):
            yield from table_leaves(reader, path + (key,))
        else:
            yield path + (key,), reader


def test_every_estimator_has_a_table_config():
    assert sorted(cfg["estimator"] for command, _, cfg in TABLE_CONFIGS if command == "estimate") == sorted(ESTIMATORS)


@pytest.mark.parametrize("command, cfg, path, value", [
    pytest.param(command, cfg, path, value,
                 id=f"{cfg.get('estimator', command_id(command, cfg))}-{'.'.join(path)}-{value!r}")
    for command, table, cfg in TABLE_CONFIGS
    for path, reader in table_leaves(table)
    for value in ([1, "x", None] if reader is read_bool else [True, "x", None])
])
def test_wrongly_typed_leaf_exits_2_naming_it_before_any_output(tmp_path, capsys, command, cfg, path, value):
    code, out = run(tmp_path, command, with_value(cfg, path, value))
    assert code == 2
    assert ".".join(path) in capsys.readouterr().err
    assert not out.exists()


# The benchmark's generated configs must pass the tables, and its tracer find
# every name it wraps, or a change would show only as a failed benchmark run.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py imported from its file, registered as dataclasses
    require, and without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_pass_the_config_tables(monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    assert sorted(workloads.WORKLOADS) == ["oracle-scan", "rate-scan-ou1d", "sample-estimate"]
    for workload in workloads.WORKLOADS.values():
        for inv in workload.build(0):
            read_config(inv.command, json.loads(json.dumps(inv.config)))


def test_benchmark_tracer_wraps_existing_names_and_restores_them(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
    targets = [(obj, attr) for obj, attr, *_ in tracer._targets(ulakit)]
    assert [f"{obj.__name__}.{attr}" for obj, attr in targets if not hasattr(obj, attr)] == []
    originals = [getattr(obj, attr) for obj, attr in targets]
    with tracer.traced(ulakit, tracer.Tracer()):
        assert all(getattr(obj, attr) is not fn for (obj, attr), fn in zip(targets, originals))
    assert all(getattr(obj, attr) is fn for (obj, attr), fn in zip(targets, originals))


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# verify fails dissipativity, by design, on the drifts without inward pull.
CONFIG_EXIT = {"verify.zero.json": 1, "verify.expansive.json": 1}


def _command(path: Path) -> str:
    return path.name.split(".")[0]


def test_checked_in_configs_cover_the_experiments():
    assert {_command(p) for p in CONFIGS} == {"rate-scan", "mixing-scan", "verify", "bound-eval"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_checked_in_config_keys_are_declared(path):
    read_config(_command(path), json.loads(path.read_text()))


@pytest.mark.parametrize(
    "path", [p for p in CONFIGS if _command(p) in ("verify", "bound-eval", "mixing-scan")],
    ids=lambda p: p.name,
)
def test_cheap_checked_in_config_runs(tmp_path, path):
    code = main([_command(path), "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == CONFIG_EXIT.get(path.name, 0)


# --- mixing-scan against the per-step recursion -------------------------------------


def assert_mixing_scan_matches_recursion(tmp_path, cfg):
    """The closed-form block search finds the same first-crossing step for
    every eps as stepping the moment recursion, or fails where it fails."""
    try:
        want = mixing_scan_by_recursion(cfg)
    except InputError:
        want = None
    code, out = run(tmp_path, "mixing-scan", cfg)
    if want is None:
        assert code == 2
        return
    assert code in (0, 1)
    records = json.loads((out / "mixing_scan.json").read_text())["records"]
    assert [r["n_measured"] for r in records] == want


@pytest.mark.parametrize(
    "cfg",
    [pytest.param(json.loads(p.read_text()), id=p.name) for p in CONFIGS if _command(p) == "mixing-scan"]
    + [pytest.param(cfg, id=name) for name, cfg in MIX_CASES.items()],
)
def test_mixing_scan_matches_per_step_recursion(tmp_path, cfg):
    assert_mixing_scan_matches_recursion(tmp_path, cfg)


@given(seed=st.integers(0, 10_000), d=st.integers(1, 3), metric=st.sampled_from(["KL", "TV", "W2"]))
@settings(max_examples=25)
def test_mixing_scan_matches_per_step_recursion_on_drawn_targets(seed, d, metric):
    rng = np.random.default_rng(seed)
    d = 1 if metric == "TV" else d
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    cov = (Q * rng.uniform(0.2, 2.0, d)) @ Q.T
    cfg = {
        "target": {"mean": rng.uniform(-1.0, 1.0, d).tolist(), "cov": (0.5 * (cov + cov.T)).tolist()},
        "rho": float(rng.uniform(0.1, 0.9)),
        "metric": metric,
        "eps_grid": sorted(rng.uniform(0.005, 0.3, 2).tolist(), reverse=True),
        "init": {"mean": rng.uniform(-4.0, 4.0, d).tolist(), "sigma0": float(rng.uniform(0.3, 2.0))},
        "max_steps": 3000,
    }
    with tempfile.TemporaryDirectory() as tmp:
        assert_mixing_scan_matches_recursion(Path(tmp), cfg)


# --- mutated configs: every mutation is a clean exit --------------------------------


# A tiny config per command, and per kind of estimate; "s.csv" sits next to it.
TINY_CONFIGS = [
    ("rate-scan", dict(RATE_CFG, girsanov_chains=20, quad_points_per_step=2, exact=True)),
    ("mixing-scan", dict(MIX_CFG, max_steps=5000)),
    ("verify", VERIFY_CFG),
    ("sample", dict(SAMPLE_CFG, chains=20, horizon=0.3, snapshot_times=[0.1], allow_outside_window=False)),
    ("estimate", {"estimator": "moment_estimate", "inputs": {"samples": "s.csv"}, "params": {"p": 2}}),
    ("estimate", RATE_FIT_CFG),
    ("bound-eval", BOUND_CFG),
]
INTEGER_KEYS = {field.split(".")[-1] for _command, _cfg, field in INTEGER_FIELDS}
BOOLEAN_KEYS = {key for _command, _cfg, key in BOOLEAN_FLAGS}
WRONG_TYPES = ["x", None, True, [], {}, [0.5], -1, 0]


def key_paths(cfg):
    """(key,) for every top-level key and (key, sub) for every key of a nested map."""
    for key, value in cfg.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


@given(data=st.data())
@settings(max_examples=60)
def test_mutated_configs_exit_0_1_or_2(data):
    command, cfg = data.draw(st.sampled_from(TINY_CONFIGS))
    cfg = json.loads(json.dumps(cfg))
    kind = data.draw(st.sampled_from(["drop", "swap", "misspell", "fraction", "flag"]))
    paths = list(key_paths(cfg))
    if kind == "misspell":
        paths = [p for p in paths if len(p) == 2] or paths
    elif kind == "fraction":
        paths = [p for p in paths if p[-1] in INTEGER_KEYS] or [("seed",)]
    elif kind == "flag":
        paths = [p for p in paths if p[-1] in BOOLEAN_KEYS] or [("seed",)]
    *where, key = data.draw(st.sampled_from(paths))
    entry = cfg[where[0]] if where else cfg
    if kind == "drop":
        del entry[key]
    elif kind == "swap":
        entry[key] = data.draw(st.sampled_from(WRONG_TYPES))
    elif kind == "misspell":
        entry[key + "x"] = entry.pop(key)
    elif kind == "fraction":
        entry[key] = entry.get(key, 0) + 0.5
    else:
        entry[key] = data.draw(st.sampled_from(NON_BOOLEANS))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tmp = Path(tmp)
        write_ensemble_csv(SampleEnsemble(0.3, 0.1, np.linspace(-1.0, 1.0, 20), 0), tmp / "s.csv")
        code, _ = run(tmp, command, cfg)
    assert code in (0, 1, 2)
    if key in BOOLEAN_KEYS and key in entry and not isinstance(entry[key], bool):
        assert code == 2  # a flag is never read by truthiness


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_DIGESTS.write_text(json.dumps(golden_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
