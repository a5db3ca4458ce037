"""Public-surface census: every function that ulakit exports is reached by a
CLI command, apart from a listed few that can only leave the list.

Each command runs on tiny configs under sys.setprofile, which records the
code object of every Python function called.  The runs cover all five
registry models, both bound theorems and every estimator.
"""

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import ulakit
from ulakit.cli import main

# Exports no command reaches.  Both stay: perfbench/tracer.py wraps them by
# name, tests/slow_paths.py uses them as the oracles of the mixing-scan
# kernels, and an exact-oracle audit of the sampled pipelines (ROADMAP item 3)
# is their future caller.
UNREACHED = {"w2_gaussian", "tv_gaussian_1d"}

INIT = {"mean": [0.5], "sigma0": 1.0}
CONSTANTS = {"L1": 1.0, "L2": 1.0, "A0": 1.0, "sigma0": 1.0, "h0": 1.0, "entropy0": 1.0,
             "mu": 1.0, "beta": 1.0, "f0": 1.0}
PQ = {"p": "p/ensemble.csv", "q": "q/ensemble.csv"}


def model(name):
    return {"name": name, "params": {"dim": 1}}


# (command, config, output directory, whether it runs to a verdict, exit 0
# or 1, or exits 2); the estimates read the ensembles the two samples write.
RUNS = [
    ("sample", {"model": model("ou"), "init": INIT, "eta": 0.1, "horizon": 0.3, "chains": 200,
                "snapshot_times": [0.1]}, "p", True),
    ("sample", {"model": model("double-well"), "init": INIT, "eta": 0.002, "horizon": 0.006,
                "chains": 200}, "q", True),
    ("sample", {"model": model("no-such-model"), "init": INIT, "eta": 0.1, "horizon": 0.3,
                "chains": 2}, "none", False),
    ("estimate", {"estimator": "knn_kl", "inputs": PQ}, "knn", True),
    ("estimate", {"estimator": "w2_empirical_1d", "inputs": PQ}, "w2", True),
    ("estimate", {"estimator": "tv_histogram", "inputs": PQ}, "tv", True),
    ("estimate", {"estimator": "moment_estimate", "inputs": {"samples": PQ["p"]}}, "moment", True),
    ("estimate", {"estimator": "rate_fit", "points": [[0.1, 0.01], [0.05, 0.0025], [0.025, 0.000625]]},
     "fit", True),
    ("rate-scan", {"model": model("ou"), "init": INIT, "eta_grid": [0.2, 0.1, 0.05], "horizon": 0.4,
                   "girsanov_chains": 20}, "rate-ou", True),
    ("rate-scan", {"model": model("zero"), "init": INIT, "eta_grid": [0.2, 0.1, 0.05], "horizon": 0.4},
     "rate-zero", True),
    ("mixing-scan", {"target": {"mean": [0.0], "cov": [[0.5]]}, "rho": 0.5,
                     "eps_grid": [0.1, 0.03, 0.01], "init": {"mean": [6.0], "sigma0": 1.0}}, "mix", True),
    *[("verify", {"model": model(name)}, f"verify-{name}", True)
      for name in ("zero", "ou", "double-well", "gauss-mix", "expansive")],
    ("bound-eval", {"theorem": 1, "eta_grid": [1e-4, 5e-5, 2.5e-5], "constants": CONSTANTS}, "bound-1", True),
    ("bound-eval", {"theorem": 2, "eta": 0.1, "constants": CONSTANTS}, "bound-2", True),
]


def reached_code(tmp_path: Path) -> set:
    """Code objects of the Python functions the RUNS call."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for i, (command, cfg, out, runs) in enumerate(RUNS):
        path = tmp_path / f"config_{i}.json"
        path.write_text(json.dumps(cfg))
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--config", str(path), "--out", str(tmp_path / out)])
        finally:
            sys.setprofile(None)
        assert (code != 2) == runs, (command, out, code)
    return codes


def test_every_export_is_reached_by_a_command_or_listed(tmp_path):
    exported = {name: fn for name, fn in vars(ulakit).items() if inspect.isfunction(fn)}
    assert UNREACHED <= exported.keys()
    codes = reached_code(tmp_path)
    reached = {name for name, fn in exported.items() if fn.__code__ in codes}
    assert sorted(exported.keys() - reached - UNREACHED) == [], "unreached and not listed"
    assert sorted(reached & UNREACHED) == [], "listed but reached: drop it from UNREACHED"


def test_exported_exceptions_are_exactly_the_three_error_classes():
    exported = {name: obj for name, obj in vars(ulakit).items()
                if isinstance(obj, type) and issubclass(obj, Exception)}
    assert exported == {
        "InputError": ulakit.InputError, "ModelError": ulakit.ModelError, "DivergenceError": ulakit.DivergenceError,
    }
    defined = {name for name, obj in vars(ulakit.errors).items()
               if isinstance(obj, type) and obj.__module__ == ulakit.errors.__name__}
    assert defined == exported.keys()
    assert issubclass(ulakit.InputError, ValueError)
