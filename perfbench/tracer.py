"""Span tracing of ulakit layers from outside the package.

The traced run replaces public module attributes (and the few private
helpers the sampler loops call by global name) with thin wrappers that
record one span per call: (invocation id, span id, parent span id, name,
start, end, work count).  Nothing under ``src/`` changes; every wrapper is
removed again when the ``traced`` context exits.

Span names are ``<module>.<function>``; a layer's self time is its span
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _rows(x) -> int:
    """Number of points in an (..., dim) array: size over the last axis."""
    arr = np.asarray(x)
    return int(arr.size // arr.shape[-1]) if arr.ndim else 1


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


class Tracer:
    """In-memory span recorder.

    A span opened with no other span open starts a new invocation; its
    descendants carry the same invocation id.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count=None):
        """Wrap fn so each call records a span.

        count(args, kwargs, result) -> int gives the work done by the call.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                self.invocation += 1
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                work = count(args, kwargs, result) if count is not None else 0
                spans.append((self.invocation, sid, parent, name, t0, t1, work))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def clear(self) -> None:
        self.spans.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, summed work."""
        child_time: dict[int, float] = defaultdict(float)
        for _inv, _sid, parent, _name, t0, t1, _work in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for _inv, sid, _parent, name, t0, t1, work in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            agg["work"] += work
        return out


def _targets(ulakit):
    """(object, attribute, span name, work counter, work label) per wrapped callable."""
    cli, sp, est = ulakit.cli, ulakit.samplers, ulakit.estimators
    ga, dm, bnd = ulakit.gaussian_analytics, ulakit.drift_models, ulakit.bounds
    return [
        (cli, "cmd_rate_scan", "cli.rate-scan", None, None),
        (cli, "cmd_mixing_scan", "cli.mixing-scan", None, None),
        (cli, "cmd_verify", "cli.verify", None, None),
        (cli, "cmd_sample", "cli.sample", None, None),
        (cli, "cmd_estimate", "cli.estimate", None, None),
        (cli, "cmd_bound_eval", "cli.bound-eval", None, None),
        (sp, "noise_block", "samplers.noise_block", None, None),
        (sp, "ndtri", "samplers.ndtri", lambda a, k, r: r.size, "values"),
        (sp, "_guard", "samplers.guard", None, None),
        (sp, "simulate_ensemble", "samplers.simulate_ensemble", None, None),
        (sp, "write_ensemble_csv", "samplers.write_ensemble_csv",
         lambda a, k, r: _file_bytes(a[1] if len(a) > 1 else k["path"]), "bytes"),
        (sp, "read_ensemble_csv", "samplers.read_ensemble_csv",
         lambda a, k, r: _file_bytes(a[0] if a else k["path"]), "bytes"),
        (sp, "write_ensemble_sidecar", "samplers.write_ensemble_sidecar", None, None),
        # estimators binds these two sampler names at import time; without
        # these entries the pathwise comparator's noise and guard go untraced.
        (est, "noise_block", "samplers.noise_block", None, None),
        (est, "_guard", "samplers.guard", None, None),
        (est, "girsanov_pathwise_kl", "estimators.girsanov_pathwise_kl", None, None),
        (est, "knn_kl", "estimators.knn_kl", None, None),
        (est, "w2_empirical_1d", "estimators.w2_empirical_1d", None, None),
        (est, "tv_histogram", "estimators.tv_histogram", None, None),
        (est, "moment_estimate", "estimators.moment_estimate", None, None),
        (est, "rate_fit", "estimators.rate_fit", None, None),
        (ga, "em_moments_linear", "gaussian_analytics.em_moments_linear",
         lambda a, k, r: int(a[3] if len(a) > 3 else k["k"]), "oracle_steps"),
        (ga, "continuous_moments_linear", "gaussian_analytics.continuous_moments_linear", None, None),
        (ga, "kl_gaussian", "gaussian_analytics.kl_gaussian", None, None),
        (ga, "w2_gaussian", "gaussian_analytics.w2_gaussian", None, None),
        (ga, "tv_gaussian_1d", "gaussian_analytics.tv_gaussian_1d", None, None),
        (ga.GaussianMoments, "__post_init__", "gaussian_analytics.GaussianMoments",
         lambda a, k, r: 1, "constructions"),
        (dm, "dissipativity_fit", "drift_models.dissipativity_fit", None, None),
        (dm, "grad_check", "drift_models.grad_check", None, None),
        (dm, "verify_init", "drift_models.verify_init", None, None),
        (bnd, "step_size_rule", "bounds.step_size_rule", None, None),
        (bnd, "mixing_time_predict", "bounds.mixing_time_predict", None, None),
        (bnd, "kl_bound_dissipative_terms", "bounds.kl_bound_dissipative_terms", None, None),
        (bnd, "kl_bound_nonneg_potential_terms", "bounds.kl_bound_nonneg_potential_terms", None, None),
    ]


DRIFT_SPAN = "drift_models.drift"


def layer_names(ulakit) -> list[tuple[str, str | None]]:
    """Every span name the traced run can record, with its work label."""
    seen = {DRIFT_SPAN: "points"}
    for _obj, _attr, name, _count, label in _targets(ulakit):
        seen.setdefault(name, label)
    return sorted(seen.items())


@contextmanager
def traced(ulakit, tracer: Tracer):
    """Install span wrappers on ulakit's layers for the duration of the block.

    Drift fields are per-model closures, so ``make_model`` is wrapped to hand
    the CLI a copy of each model whose ``drift`` records spans.
    """
    dm = ulakit.drift_models
    saved = []

    def install(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    try:
        for obj, attr, name, count, _label in _targets(ulakit):
            install(obj, attr, tracer.wrap(name, getattr(obj, attr), count))
        make_model = dm.make_model

        def traced_make_model(name, **params):
            model = make_model(name, **params)
            drift = tracer.wrap(DRIFT_SPAN, model.drift, lambda a, k, r: _rows(a[0]))
            return dataclasses.replace(model, drift=drift)

        install(dm, "make_model", traced_make_model)
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
