#!/usr/bin/env python3
"""ulakit benchmark: CLI workloads end to end, and per layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload rate-scan-ou1d --seed 1 --seconds 30 --trace 0

One process drives ``ulakit.cli.main`` in-process as a closed loop with one
client: each invocation starts when the previous one returns.  The generated
JSON configs are the program's only input.  Every invocation is checked for
its exit code and claim verdicts, and every artifact is hashed; a pass whose
artifacts differ from the first pass counts as failed.

The gated times are the fastest observed ones: ``wall_s`` sums each
invocation's fastest time over the timed passes and ``setup_s`` is the
fastest set-up.  On a core shared with other tenants the throughput switches
between levels about 40% apart for seconds to a minute at a time, so a median
of a few multi-second passes lands on whichever level held during the run;
interference only ever adds time, so the fastest time estimates the
program's own cost.  Medians with sample counts stay in the report.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from a traced run (see
tracer.py) and the size sweep (see sweep.py).  The line before it is a
detailed report: every timing as a median with its sample count, per-command
times, the per-layer breakdown, digests and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "reference_digests.json"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ulakit, ulakit.cli; "
    "print(time.perf_counter() - t)"
)


def load_ulakit():
    """Import ulakit from this checkout's src/ and nowhere else."""
    if not (SRC / "ulakit" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'ulakit'} not found; run from a ulakit checkout")
    sys.path.insert(0, str(SRC))
    import ulakit
    import ulakit.cli

    if Path(ulakit.__file__).resolve().parent != (SRC / "ulakit").resolve():
        raise SystemExit(f"error: imported ulakit from {ulakit.__file__}, not from {SRC}")
    return ulakit


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile with at least
    ten samples beyond it when there are enough samples."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = vals[math.ceil(p / 100.0 * n) - 1]  # nearest rank
            break
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def tree_digest(directory: Path) -> str:
    """sha256 over (relative path, file sha256) of every file below directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def write_inputs(invocations, inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for inv in invocations:
        (inputs / f"{inv.name}.json").write_text(json.dumps(inv.config, indent=1) + "\n")


def verdict_errors(inv, code: int, out: Path) -> str | None:
    """Why an invocation's exit code or claim verdicts are not the expected ones."""
    if code != inv.expect_code:
        return f"exit code {code}, expected {inv.expect_code}"
    path = out / inv.name / inv.report
    if not path.is_file():
        return f"missing report {inv.report}"
    report = json.loads(path.read_text())
    claims = {c["name"]: c["pass"] for c in report.get("claims", [])}
    if claims != inv.expect_claims:
        return f"claims {claims}, expected {inv.expect_claims}"
    if report.get("all_pass") != all(inv.expect_claims.values()):
        return f"all_pass is {report.get('all_pass')}"
    return None


class Runner:
    """Runs passes of one workload and keeps their timings and failures."""

    def __init__(self, ulakit, workload, seed: int, work: Path):
        self.cli = ulakit.cli
        self.workload = workload
        self.seed = seed
        self.invocations = workload.build(seed)
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def run_pass(self) -> tuple[float, dict[str, float]]:
        """One timed pass over the invocation sequence, then its checks.

        Returns the pass wall time and each invocation's time.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        codes, times = {}, {}
        sink = io.StringIO()
        t_pass = time.perf_counter()
        for inv in self.invocations:
            argv = inv.argv(self.inputs, self.out)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    codes[inv.name] = self.cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a dead benchmark
                codes[inv.name] = None
                traceback.print_exc(file=sys.stderr)
            times[inv.name] = time.perf_counter() - t0
            sink.seek(0)
            sink.truncate()
        wall = time.perf_counter() - t_pass
        self._check(codes)
        return wall, times

    def _check(self, codes: dict) -> None:
        digests = {}
        errors = {}
        for inv in self.invocations:
            self.attempted += 1
            err = verdict_errors(inv, codes[inv.name], self.out)
            if err:
                errors[inv.name] = err
            digests[inv.name] = tree_digest(self.out / inv.name)
        if self.reference is None:
            # First pass: independent checks of the numbers; later passes
            # must reproduce its artifacts bit for bit.
            if not errors:
                errors.update(self.workload.check(self.out, self.invocations))
            self.reference = digests
        else:
            for name, digest in digests.items():
                if digest != self.reference[name] and name not in errors:
                    errors[name] = "artifacts differ from the first pass"
        self.failures += [f"{name}: {err}" for name, err in errors.items()]

    def timed_passes(self, seconds: float, between=None) -> list[tuple[float, dict[str, float]]]:
        """Passes for at least seconds; between() runs untimed after each one."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(self.run_pass())
            if between is not None:
                between()
        return passes


def fastest_pass(runner: Runner, passes) -> float:
    """Sum over invocations of each one's fastest time in the passes, in seconds."""
    return sum(min(times[inv.name] for _, times in passes) for inv in runner.invocations)


def command_times(runner: Runner, passes) -> dict:
    """Per-command time summed per pass, and per-invocation latency, in seconds."""
    by_cmd: dict[str, list[float]] = {}
    latency: dict[str, list[float]] = {}
    for _wall, times in passes:
        per_pass: dict[str, float] = {}
        for inv in runner.invocations:
            per_pass[inv.command] = per_pass.get(inv.command, 0.0) + times[inv.name]
            latency.setdefault(inv.command, []).append(times[inv.name])
        for cmd, t in per_pass.items():
            by_cmd.setdefault(cmd, []).append(t)
    report = {f"cmd.{c}_s": summary(v) for c, v in by_cmd.items()}
    report.update({f"latency.{c}_s": summary(v) for c, v in latency.items()})
    return report


# ---------------------------------------------------------------------------
# set-up, machine, digests
# ---------------------------------------------------------------------------


def measure_setup(runner: Runner) -> float:
    """Fresh-interpreter import of ulakit plus input generation, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    t0 = time.perf_counter()
    shutil.rmtree(runner.inputs, ignore_errors=True)
    runner.invocations = runner.workload.build(runner.seed)
    write_inputs(runner.invocations, runner.inputs)
    return float(probe.stdout.strip().splitlines()[-1]) + time.perf_counter() - t0


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be queried."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l3_cache": l3.strip() if l3 else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def load_reference_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def compare_reference(workload: str, seed: int, digests: dict[str, str]) -> dict:
    """Digests of this seed against the recorded ones; information only."""
    recorded = load_reference_digests().get("workloads", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return {"status": "no reference for this seed"}
    differing = sorted(k for k in recorded.keys() | digests.keys() if recorded.get(k) != digests.get(k))
    return {"status": "mismatch" if differing else "match", "differing": differing}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def end_to_end(ulakit, runner: Runner, seconds: float) -> tuple[dict, dict]:
    # Set-up is measured once before the warm-up and after every timed pass,
    # so its samples spread over the run like the passes do.
    setup = [measure_setup(runner)]
    runner.run_pass()  # warm-up; its artifacts are the reference for every later pass
    passes = runner.timed_passes(seconds, between=lambda: setup.append(measure_setup(runner)))
    walls = [w for w, _ in passes]
    cmd = command_times(runner, passes)
    sampling = [inv for inv in runner.invocations if inv.chain_steps]
    detail = {
        "setup_s": summary(setup),
        "setup_s_fastest": min(setup),
        "wall_s": summary(walls),
        "wall_s_fastest_sum": fastest_pass(runner, passes),
        **cmd,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if sampling:
        steps = sum(inv.chain_steps for inv in sampling)
        per_pass = [sum(times[inv.name] for inv in sampling) for _, times in passes]
        detail["chain_steps_per_s"] = summary([steps / t for t in per_pass])
        detail["chain_steps_per_pass"] = steps
    values = {
        "setup_s": detail["setup_s_fastest"],
        "wall_s": detail["wall_s_fastest_sum"],
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    return values, detail


def write_spans(tracer, path: Path) -> None:
    """One JSON line per span: invocation, id, parent, name, start, end, work."""
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def layer_metrics(ulakit, tracer) -> dict[str, float]:
    """Per-layer numbers for one traced pass, under their reported names."""
    from tracer import layer_names

    agg = tracer.aggregate()
    out: dict[str, float] = {}
    cli_self = 0.0
    for name, label in layer_names(ulakit):
        a = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.s"] = a["s"]
        out[f"{name}.self_s"] = a["self_s"]
        if label:
            out[f"{name}.{label}"] = a["work"]
        if name.startswith("cli."):
            cli_self += a["self_s"]
    out["cli.self_s"] = cli_self
    out["samplers.philox.s"] = out["samplers.noise_block.self_s"]
    return out


def per_layer(ulakit, runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    import sweep
    from tracer import Tracer, traced
    from workloads import master_seeds

    write_inputs(runner.invocations, runner.inputs)
    runner.run_pass()  # warm-up and reference artifacts, untraced
    plain = runner.timed_passes(seconds / 2)
    tracer = Tracer()
    layers: list[dict[str, float]] = []
    traced_passes = []
    identical = True
    deadline = time.perf_counter() + seconds / 2
    with traced(ulakit, tracer):
        while len(layers) < MIN_PASSES or time.perf_counter() < deadline:
            tracer.clear()
            failed_before = len(runner.failures)
            traced_passes.append(runner.run_pass())
            layers.append(layer_metrics(ulakit, tracer))
            identical = identical and len(runner.failures) == failed_before
    write_spans(tracer, runner.out.parent / "spans_last_pass.jsonl")
    sweep_times, sweep_bytes = sweep.run(ulakit, master_seeds(seed, 1)[0])

    plain_wall = fastest_pass(runner, plain)
    traced_wall = fastest_pass(runner, traced_passes)
    layer_median = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    layer_median["trace.overhead_s"] = traced_wall - plain_wall
    detail = {
        "untraced_wall_s": summary([w for w, _ in plain]),
        "traced_wall_s": summary([w for w, _ in traced_passes]),
        "untraced_wall_s_fastest_sum": plain_wall,
        "traced_wall_s_fastest_sum": traced_wall,
        "trace_overhead_s": traced_wall - plain_wall,
        "traced_passes": len(layers),
        "spans_last_pass": len(tracer.spans),
        "traced_artifacts_identical": identical,
        "layers_per_pass_median": layer_median,
        "sweep": sweep_times,
        "sweep_bytes_computed": sweep_bytes,
    }
    return {**layer_median, **sweep_times}, detail


def record_digests(runner: Runner, workload: str, seed: int) -> int:
    write_inputs(runner.invocations, runner.inputs)
    runner.run_pass()
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    data = load_reference_digests()
    data["about"] = ("sha256 tree digest of each invocation's output directory, "
                     "per workload and seed; recorded with --record-digests")
    data.setdefault("workloads", {}).setdefault(workload, {})[str(seed)] = runner.reference
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one pass and record its artifact digests as the reference")
    args = ap.parse_args(argv)

    ulakit = load_ulakit()
    work = WORK / args.workload
    runner = Runner(ulakit, WORKLOADS[args.workload], args.seed, work)
    if args.record_digests:
        return record_digests(runner, args.workload, args.seed)
    if args.trace:
        values, detail = per_layer(ulakit, runner, args.seconds, args.seed)
    else:
        values, detail = end_to_end(ulakit, runner, args.seconds)
    # BENCHMARK.json names the metrics the result line carries, with units.
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]

    attempted, failed = runner.attempted, len(runner.failures)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "client": "closed loop, 1 client, in-process ulakit.cli.main, no worker threads",
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": runner.failures[:20],
        "digests": runner.reference,
        "reference_digests": compare_reference(args.workload, args.seed, runner.reference),
        "machine": machine_info(),
    })
    (work / f"report_trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"report": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
