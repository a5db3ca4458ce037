import json
import resource
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulakit import ConfigurationError, InputError, UnsupportedError, read_ensemble_csv
from ulakit.cli import check_config_keys, main

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


def test_sample_divergence_reports_failure(tmp_path):
    cfg = {
        "model": {"name": "expansive", "params": {"dim": 1}},
        "init": {"mean": [0.0], "sigma0": 1.0},
        "eta": 0.05,
        "horizon": 50.0,
        "chains": 100,
        "seed": 5,
    }
    code, out = run(tmp_path, "sample", cfg)
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
        "bands": {"girsanov_slope": [0.5, 1.5]},
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


def test_estimate_girsanov_runs_simulation(tmp_path):
    est_cfg = {
        "estimator": "girsanov_pathwise_kl",
        "model": {"name": "ou", "params": {"dim": 1}},
        "init": {"mean": [1.0], "sigma0": 1.0},
        "eta": 0.1,
        "horizon": 1.0,
        "chains": 2000,
        "seed": 21,
        "inputs": {},
    }
    code, est_out = run(tmp_path, "estimate", est_cfg, out="est_g")
    assert code == 0
    rep = json.loads((est_out / "estimate.json").read_text())
    assert rep["value"] > 0


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
GIRSANOV_CFG = {
    "estimator": "girsanov_pathwise_kl",
    "model": {"name": "ou", "params": {"dim": 1}},
    "init": {"mean": [1.0], "sigma0": 1.0},
    "eta": 0.1,
    "horizon": 1.0,
    "chains": 200,
    "seed": 21,
}
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
    ("estimate", dict(GIRSANOV_CFG, init={"mean": [1.0], "sigma0": 1e200})),
])
def test_init_out_of_range_exits_2_without_output(tmp_path, capsys, command, cfg):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "init" in err and "diverged" not in err
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))


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


def test_estimate_records_absolute_input_paths(tmp_path):
    assert run(tmp_path, "sample", SAMPLE_CFG, out="ens")[0] == 0
    code, out = run(tmp_path, "estimate", ESTIMATE_CFG, out="est")
    assert code == 0
    recorded = json.loads((out / "estimate_config.json").read_text())
    assert recorded["inputs"] == {"samples": str((tmp_path / "ens" / "ensemble.csv").resolve())}


# (command, a valid config, the top-level keys it must not run without)
REQUIRED_KEYS = [
    ("rate-scan", RATE_CFG, ["model", "init", "eta_grid", "horizon"]),
    ("mixing-scan", MIX_CFG, ["target", "rho", "init", "eps_grid"]),
    ("verify", VERIFY_CFG, ["model"]),
    ("sample", SAMPLE_CFG, ["model", "init", "eta", "horizon", "chains"]),
    ("estimate", GIRSANOV_CFG, ["estimator", "model", "init", "eta", "horizon", "chains"]),
    ("estimate", RATE_FIT_CFG, ["points"]),
    ("estimate", ESTIMATE_CFG, ["estimator"]),
    ("bound-eval", BOUND_CFG, ["constants"]),
]
BAD_CONFIGS = [
    pytest.param(command, {k: v for k, v in cfg.items() if k != key}, key,
                 id=f"{cfg.get('estimator', command)}-without-{key}")
    for command, cfg, keys in REQUIRED_KEYS
    for key in keys
] + [
    pytest.param(command, dict(cfg, girsanov_chain=1000), "girsanov_chain",
                 id=f"{cfg.get('estimator', command)}-unknown-key")
    for command, cfg, _keys in REQUIRED_KEYS
]


@pytest.mark.parametrize("command, cfg, key", BAD_CONFIGS)
def test_bad_config_keys_exit_2_before_any_output(tmp_path, capsys, command, cfg, key):
    code, out = run(tmp_path, command, cfg)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


INPUTS_PQ = {"p": "p.csv", "q": "q.csv"}
# (command, a config with one misspelled nested key, that key)
MISSPELLED_NESTED = [
    ("rate-scan", dict(RATE_CFG, bands={"exact_slop": [5, 6]}), "exact_slop"),
    ("mixing-scan", dict(MIX_CFG, bands={"mixing_slop": [-1, 0]}), "mixing_slop"),
    ("mixing-scan", dict(MIX_CFG, bands={"mixing_slope": {"kl": [-1, 0]}}), "kl"),
    ("verify", dict(VERIFY_CFG, init={"means": [0.0], "sigma0": 1.0}), "means"),
    ("sample", dict(SAMPLE_CFG, model={"name": "ou", "param": {"dim": 1}}), "param"),
    ("bound-eval", dict(BOUND_CFG, bands={"sweep_slop": [0, 1]}), "sweep_slop"),
    ("bound-eval", dict(BOUND_CFG, constants=dict(ALL_ONES_CONSTANTS, LI=1.0)), "LI"),
    ("estimate", {"estimator": "knn_kl", "inputs": INPUTS_PQ, "params": {"kk": 1}}, "kk"),
    ("estimate", {"estimator": "w2_empirical_1d", "inputs": INPUTS_PQ, "params": {"k": 5}}, "k"),
    ("estimate", {"estimator": "tv_histogram", "inputs": INPUTS_PQ, "params": {"bins": 16}}, "bins"),
    ("estimate", {"estimator": "moment_estimate", "inputs": {"samples": "s.csv"}, "params": {"q": 2}}, "q"),
    ("estimate", dict(GIRSANOV_CFG, params={"quad_points": 4}), "quad_points"),
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


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# verify fails dissipativity, by design, on the drifts without inward pull.
CONFIG_EXIT = {"verify.zero.json": 1, "verify.expansive.json": 1}


def _command(path: Path) -> str:
    return path.name.split(".")[0]


def test_checked_in_configs_cover_the_experiments():
    assert {_command(p) for p in CONFIGS} == {"rate-scan", "mixing-scan", "verify", "bound-eval"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_checked_in_config_keys_are_declared(path):
    check_config_keys(_command(path), json.loads(path.read_text()))


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
    except (ConfigurationError, InputError, UnsupportedError):
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
