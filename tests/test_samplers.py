import dataclasses
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from concurrent.futures import Future
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulakit import samplers as sp
from ulakit import (
    DivergenceError,
    GaussianMoments,
    InitDensity,
    InputError,
    continuous_moments_linear,
    em_moments_linear,
    kl_gaussian,
    make_model,
    noise_block,
    read_ensemble_csv,
    registered_models,
    simulate_ensemble,
    verify_init,
    write_ensemble_csv,
    write_ensemble_sidecar,
)

from ulakit.bounds import step_window
from ulakit.estimators import girsanov_pathwise_kl

from slow_paths import (
    girsanov_pathwise_kl_loop,
    json_text_indented,
    noise_block_fresh_philox,
    noise_rows_fresh_philox,
    read_ensemble_csv_per_value,
    simulate_ensemble_loop,
    write_ensemble_csv_per_value,
)

OU1 = make_model("ou", dim=1)
STD_INIT = InitDensity(mean=[0.0], sigma0=1.0)
STD_INIT_2 = InitDensity(mean=[0.0, 0.0], sigma0=1.0)


def moments_close(points, target: GaussianMoments, n):
    """First two moments within 4 standard errors of the target."""
    mean = points.mean(axis=0)
    se_mean = np.sqrt(np.diag(target.cov) / n)
    assert np.all(np.abs(mean - target.mean) <= 4 * se_mean)
    centered = points - target.mean
    cov = centered.T @ centered / n
    d = target.dim
    for i in range(d):
        for j in range(d):
            se = math.sqrt((target.cov[i, i] * target.cov[j, j] + target.cov[i, j] ** 2) / n)
            assert abs(cov[i, j] - target.cov[i, j]) <= 4 * se


# --- the forward-Euler step ----------------------------------------------------


def constant_noise(value):
    """A stand-in for noise_block, with its signature, whose every row is
    value(step, substream), written into out when out is given."""
    def draw(master_seed, step, substream, n, dim, *, first_row=0, out=None):
        block = np.empty((n, dim)) if out is None else out
        block[...] = value(step, substream)
        return block

    return draw


def one_step(model, x0, eta, noise):
    """The state after one step of em_chain from x0, with every noise draw
    (the init's and the step's) replaced by `noise`."""
    init = InitDensity(mean=x0 - np.asarray(noise, float), sigma0=1.0)
    with mock.patch.object(sp, "noise_block", constant_noise(lambda step, substream: noise)):
        (_, [(_, x, _)], _), (_, [(_, x1, _)], _) = sp.em_chain(model, init, [eta], [1], 1, master_seed=0)
    assert np.array_equal(x[0], x0)
    return x1[0]


def test_em_step_zero_everything():
    z = make_model("zero", dim=1)
    assert one_step(z, [0.0], 0.3, [0.0]) == pytest.approx([0.0])


def test_em_step_deterministic_euler():
    assert one_step(OU1, [1.0], 0.1, [0.0]) == pytest.approx([0.9])


def test_em_step_with_noise():
    # 1 - 0.04 + sqrt(0.04) * 0.5
    assert one_step(OU1, [1.0], 0.04, [0.5]) == pytest.approx([1.06])


def test_em_step_divergence_is_the_chain_guard():
    # The init lands on 1; the step draws 1e13.
    draw = constant_noise(lambda step, substream: 0.0 if substream == sp.SUB_INIT else 1e13)
    init = InitDensity(mean=[1.0], sigma0=1.0)
    with mock.patch.object(sp, "noise_block", draw), pytest.raises(DivergenceError) as err:
        list(sp.em_chain(OU1, init, [0.1], [1], 1, master_seed=0))
    assert err.value.chain == 0 and err.value.step == 1 and err.value.eta == 0.1
    assert err.value.state.tolist() == [0.9 + math.sqrt(0.1) * 1e13]


def test_em_step_rejects_bad_eta():
    with pytest.raises(InputError, match="step size must be positive"):
        sp.em_chain(OU1, STD_INIT, [0.0], [1], 1, master_seed=0)


def test_em_chain_checks_every_eta_before_it_returns():
    with pytest.raises(InputError, match="step size 0.6 outside"):
        sp.em_chain(OU1, STD_INIT, [0.1, 0.05, 0.6], [10, 20, 1], 1, master_seed=0)
    with pytest.raises(InputError, match="empty"):
        sp.em_chain(OU1, STD_INIT, [], [], 1, master_seed=0)


# A zero count, and a list shorter or longer than the grid.
@pytest.mark.parametrize("steps", [[0, 20], [10, 0], [10], [10, 20, 5]])
def test_em_chain_needs_one_positive_count_per_step_size(steps):
    with pytest.raises(InputError, match="one positive step count per step size"):
        sp.em_chain(OU1, STD_INIT, [0.1, 0.05], steps, 1, master_seed=0)


@pytest.mark.parametrize("count", [2.5, -1, math.inf, math.nan])
def test_em_chain_count_must_be_an_integer(count):
    with pytest.raises(InputError, match="step count must be a nonnegative integer"):
        sp.em_chain(OU1, STD_INIT, [0.1], [count], 1, master_seed=0)


# --- step counts: the one conversion of a horizon ----------------------------------


def test_step_size_above_the_horizon_is_rejected():
    # Such a step size once took no step: the chain returned its initial
    # draw, and the comparator a KL of 0.
    with pytest.raises(InputError, match="step size 0.4 takes no step within horizon=0.1"):
        simulate_ensemble(OU1, STD_INIT, eta=0.4, T=0.1, n=10, master_seed=3)
    with pytest.raises(InputError, match="step size 0.4 takes no step within horizon=0.1"):
        sp.step_counts([0.4, 0.2, 0.05], 0.1, OU1.constants.L1)


def test_step_counts_warn_once_per_off_grid_step_size():
    # 1.05 is off the grids of 0.2 and 0.1 and on that of 0.05.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert sp.step_counts([0.2, 0.1, 0.05], 1.05, OU1.constants.L1) == [5, 10, 21]
    assert sorted(str(w.message) for w in caught) == [
        "horizon 1.05 is not a multiple of eta=0.1; rounded down to 10 steps",
        "horizon 1.05 is not a multiple of eta=0.2; rounded down to 5 steps",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.step_counts([0.2, 0.1, 0.05], 1.0, OU1.constants.L1) == [5, 10, 20]


def test_step_counts_check_the_window_unless_told_not_to():
    with pytest.raises(InputError, match="step size 0.6 outside"):
        sp.step_counts([0.1, 0.6], 1.2, OU1.constants.L1)
    assert sp.step_counts([0.1, 0.6], 1.2, OU1.constants.L1, enforce_window=False) == [12, 2]
    with pytest.raises(InputError, match="horizon must be finite and positive"):
        sp.step_counts([0.1], 0.0, OU1.constants.L1)


# --- step-size window ----------------------------------------------------------


def test_window_refuses_large_step_before_any_computation():
    with pytest.raises(InputError, match="step size 0.6 outside"):
        simulate_ensemble(OU1, STD_INIT, eta=0.6, T=1.0, n=10, master_seed=1)
    with pytest.raises(InputError, match="step size 0.5 outside"):
        simulate_ensemble(OU1, STD_INIT, eta=0.5, T=1.0, n=10, master_seed=1)


def test_window_unbounded_for_zero_lipschitz():
    z = make_model("zero", dim=1)
    assert step_window(z.constants.L1) == (0.0, math.inf)
    simulate_ensemble(z, STD_INIT, eta=0.5, T=1.0, n=10, master_seed=1)


def test_window_values():
    assert step_window(OU1.constants.L1) == (0.0, 0.5)


# --- reproducibility -----------------------------------------------------------


def test_bitwise_determinism():
    a = simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 500, master_seed=7)
    b = simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 500, master_seed=7)
    assert np.array_equal(a.points, b.points)
    c = simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 500, master_seed=8)
    assert not np.array_equal(a.points, c.points)


def coupled_ou(dim):
    """ou params with a drawn coupled negative definite matrix."""
    B = np.random.default_rng(dim).standard_normal((dim, dim))
    return {"matrix": (-(B @ B.T) - np.eye(dim)).tolist()}


# Every registry drift maps its rows one by one: each model at d = 1-4, an ou
# with a coupled matrix and an offset, and drawn coupled ou at d = 4 and 10.
ROWWISE_DRIFTS = [pytest.param(name, {"dim": dim}, id=f"{name}-{dim}")
                  for name in registered_models() for dim in (1, 2, 3, 4)] + [
    pytest.param("ou", {"matrix": [[-1.0, 0.3], [0.3, -0.6]], "offset": [0.2, -0.1]}, id="ou-offset"),
    pytest.param("ou", coupled_ou(4), id="ou-coupled-4"),
    pytest.param("ou", coupled_ou(10), id="ou-coupled-10"),
]


@pytest.mark.parametrize("name, params", ROWWISE_DRIFTS)
def test_chain_purity_prefix_property(name, params):
    # chain i's path is a pure function of (seed, i, step): shrinking the
    # ensemble must not change surviving chains, in whole-block tiles or in
    # one-row tiles, which is the observable form of execution-order
    # independence
    model = make_model(name, **params)
    init = InitDensity(mean=[0.5] * model.dim, sigma0=1.0)
    eta = min(0.05, 0.5 * step_window(model.constants.L1)[1])
    big = final_states(model, init, [eta], [12], 1000, 7)[0]
    for tiles in (nullcontext, prefetched):
        for n in (1, 2, 5, 17):
            with tiles():
                assert final_states(model, init, [eta], [12], n, 7)[0].tobytes() == big[:n].tobytes()


def test_noise_block_purity():
    a = noise_block(9, 3, 0, 40, 2)
    b = noise_block(9, 3, 0, 25, 2)
    assert np.array_equal(a[:25], b)
    assert not np.array_equal(noise_block(9, 4, 0, 25, 2), b)
    assert not np.array_equal(noise_block(9, 3, 1, 25, 2), b)


@pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf])
def test_noise_block_rejects_a_row_count_that_is_not_a_nonnegative_integer(n):
    with pytest.raises(InputError, match="^block row count n must be a nonnegative integer$"):
        noise_block(0, 0, 0, n, 1)


def test_noise_block_takes_zero_rows_and_integral_floats():
    assert noise_block(0, 0, 0, 0, 2).shape == (0, 2)
    assert noise_block(3, 1, 0, 4.0, 2.0).tobytes() == noise_block(3, 1, 0, 4, 2).tobytes()
    assert noise_block(0, 1.0, 0, 4, 1).tobytes() == noise_block(0, 1, 0, 4, 1).tobytes()
    assert noise_block(0, -1.0, 1.0, 4, 1).tobytes() == noise_block(0, -1, 1, 4, 1).tobytes()
    assert noise_block(5.0, 2, 0, 4, 1).tobytes() == noise_block(5, 2, 0, 4, 1).tobytes()


# One integer rule for every argument of the noise and chain layer: a
# non-integer, non-finite, out-of-range or None value is an InputError naming
# the argument, never a TypeError, ValueError or OverflowError from the
# counter arithmetic.
@pytest.mark.parametrize("args, message", [
    *[((0, step, 0, 4, 1), "step index must be an integer >= -1") for step in (0.5, 1.5, -2, math.nan, math.inf, None)],
    *[((0, 1, sub, 4, 1), r"substream must be an integer in \[0, 16\)") for sub in (0.5, -1, 16, math.nan, None)],
    *[((seed, 1, 0, 4, 1), r"master_seed must be an integer in \[0, 2\^64\)")
      for seed in (0.5, -1, 2**64, math.inf, math.nan, None, "1")],
    ((0, 1, 0, None, 1), "block row count n must be a nonnegative integer"),
    ((0, 1, 0, 4, None), "dimension must be a positive integer"),
])
def test_noise_block_names_the_argument_it_rejects(args, message):
    with pytest.raises(InputError, match=message):
        noise_block(*args)


@pytest.mark.parametrize("n", [0, 2.5, -1, math.inf, math.nan, None])
def test_em_chain_chain_count_must_be_a_positive_integer(n):
    with pytest.raises(InputError, match="chain count n must be a positive integer"):
        sp.em_chain(OU1, STD_INIT, [0.1], [1], n, master_seed=0)


@pytest.mark.parametrize("m", [2.5, -1, sp.MAX_QUAD_POINTS + 1, None])
def test_em_chain_bridge_points_must_be_an_integer_in_range(m):
    with pytest.raises(InputError, match="bridge_points must be an integer in"):
        sp.em_chain(OU1, STD_INIT, [0.1], [1], 1, master_seed=0, bridge_points=m)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    step=st.integers(-1, 2**40),
    substream=st.integers(0, sp.NUM_SUBSTREAMS - 1),
    n=st.integers(1, 50),
    dim=st.integers(1, 4),
)
def test_noise_block_matches_fresh_philox(seed, step, substream, n, dim):
    # Successive examples share this thread's rekeyed generator.
    want = noise_block_fresh_philox(seed, step, substream, n, dim)
    assert noise_block(seed, step, substream, n, dim).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    step=st.integers(-1, 2**40),
    substream=st.integers(0, sp.NUM_SUBSTREAMS - 1),
    n=st.integers(0, 30),
    dim=st.integers(1, 5),
    first_row=st.one_of(st.integers(0, 64), st.integers(0, 2**60)),
)
@example(seed=0, step=0, substream=0, n=3, dim=3, first_row=1)  # a row that starts mid-counter
def test_noise_block_rows_are_the_whole_blocks_rows(seed, step, substream, n, dim, first_row):
    want = noise_rows_fresh_philox(seed, step, substream, first_row, n, dim)
    if first_row <= 64:
        whole = noise_block(seed, step, substream, first_row + n, dim)
        assert whole[first_row:].tobytes() == want.tobytes()
    assert noise_block(seed, step, substream, n, dim, first_row=first_row).tobytes() == want.tobytes()
    out = np.full((n, dim), np.nan)
    assert noise_block(seed, step, substream, n, dim, first_row=first_row, out=out) is out
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("where, message", [
    *[({"first_row": bad}, "^first_row must be a nonnegative integer$") for bad in (-1, 0.5, math.nan, math.inf, None, "1")],
    ({"first_row": 2**121 - 3}, r"^rows \d+ \.\. \d+ of dimension 2 lie past the block's 2\^122 values$"),
    *[({"out": bad}, r"^out must be an aligned, writable, C-contiguous float64 array of shape \(4, 2\)$") for bad in (
        np.empty((4, 1)),  # wrong shape
        np.empty((2, 4)),
        np.empty((4, 2), np.float32),  # wrong dtype
        np.empty((8, 2))[::2],  # every other row: not C-contiguous
        np.asfortranarray(np.empty((4, 2))),
        np.broadcast_to(0.0, (4, 2)),  # read-only
        np.frombuffer(bytearray(65), np.float64, 8, 1).reshape(4, 2),  # not aligned
        [[0.0, 0.0]] * 4,  # not an array
    )],
])
def test_noise_block_names_a_bad_row_range_or_output(where, message):
    with pytest.raises(InputError, match=message):
        noise_block(0, 1, 0, 4, 2, **where)


def test_seed_validation():
    with pytest.raises(InputError):
        simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 10, master_seed=-1)
    with pytest.raises(InputError):
        simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 10, master_seed=2**64)


def test_init_density_validation_and_derived_quantities():
    with pytest.raises(InputError):
        InitDensity(mean=[0.0], sigma0=0.0)
    with pytest.raises(InputError):
        InitDensity(mean=[float("nan")], sigma0=1.0)
    init = InitDensity(mean=[0.0, 0.0], sigma0=2.0)
    assert init.h0 == pytest.approx(math.log(8 * math.pi))
    m = init.moments()
    assert np.allclose(m.cov, 4.0 * np.eye(2))


@pytest.mark.parametrize("sigma0", [1e200, 1e-200])
def test_init_variance_outside_float_range_is_input_error(sigma0):
    # sigma0^2 overflows (1e200) or underflows to 0 (1e-200).
    init = InitDensity(mean=[0.0], sigma0=sigma0)
    for derived in (lambda: init.h0, init.moments, lambda: verify_init(init)):
        with pytest.raises(InputError, match="sigma0"):
            derived()


# --- ensemble moments vs oracles -------------------------------------------------


def test_brownian_motion_variance():
    z = make_model("zero", dim=1)
    ens = simulate_ensemble(z, STD_INIT, eta=0.5, T=2.0, n=100_000, master_seed=11)
    assert abs(ens.points.var() - 3.0) < 0.05


def test_ou_stationary_variance():
    ens = simulate_ensemble(OU1, STD_INIT, eta=0.1, T=20.0, n=100_000, master_seed=13)
    assert abs(ens.points.var() - 1 / 1.9) < 0.01


def test_linear_ensemble_matches_em_moments():
    rng = np.random.default_rng(3)
    A = np.array([[-1.2, 0.3], [0.3, -0.8]])
    m = make_model("ou", matrix=A, offset=[0.5, -0.2])
    init = InitDensity(mean=[1.0, -1.0], sigma0=0.8)
    n = 100_000
    ens = simulate_ensemble(m, init, eta=0.1, T=1.0, n=n, master_seed=17)
    target = em_moments_linear(m.linear, init.moments(), 0.1, 10)
    moments_close(ens.points, target, n)


# --- the within-step bridge of the pathwise comparator ---------------------------


def test_interpolated_sample_deterministic_value():
    # One step of eta = 0.1 with one quadrature point: the bridge at
    # tau = 0.05 sits at 0.95, so the comparator is 0.5 * 0.1 * (-1 + 0.95)^2.
    init = InitDensity(mean=[1.0], sigma0=1.0)
    zeros = constant_noise(lambda step, substream: 0.0)
    with mock.patch.object(sp, "noise_block", zeros), mock.patch("ulakit.estimators.noise_block", zeros):
        [value] = girsanov_pathwise_kl(OU1, init, [0.1], [1], 1, master_seed=0, quad_points_per_step=1)
    assert value == pytest.approx(0.5 * 0.1 * 0.05**2)


# --- divergence -------------------------------------------------------------------


def test_expansive_drift_diverges_with_chain_and_step():
    m = make_model("expansive", dim=1)
    with pytest.raises(DivergenceError) as err:
        simulate_ensemble(m, STD_INIT, eta=0.05, T=50.0, n=200, master_seed=23)
    assert err.value.chain is not None
    assert err.value.step is not None
    assert err.value.state is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, math.nextafter(1e12, math.inf), -1e13])
def test_guard_names_a_nonfinite_or_out_of_range_coordinate(bad):
    points = np.zeros((4, 2))
    points[2, 1] = bad
    with pytest.raises(DivergenceError, match=r"chain 2 diverged at step 5 \(eta=0.1, t=0.5\)") as err:
        sp._guard(points, step=5, time=0.5, eta=0.1)
    assert (err.value.chain, err.value.step, err.value.eta) == (2, 5, 0.1)
    assert np.array_equal(err.value.state, points[2], equal_nan=True)


def test_guard_passes_the_limit_itself():
    sp._guard(np.array([[1e12, -1e12], [0.0, -0.0]]), step=1, time=0.1, eta=0.1)


def test_guard_names_the_lowest_bad_row():
    points = np.ones((6, 3))
    points[4, 0], points[1, 2], points[3, 1] = math.inf, math.nan, -2e12
    with pytest.raises(DivergenceError) as err:
        sp._guard(points, step=1, time=0.1, eta=0.1)
    assert err.value.chain == 1


# --- snapshots and horizon rounding ------------------------------------------------


def test_snapshots_on_grid():
    final, snaps = simulate_ensemble(
        OU1, STD_INIT, 0.1, 1.0, 50, master_seed=29, snapshot_times=[0.0, 0.5, 1.0]
    )
    assert [s.time for s in snaps] == pytest.approx([0.0, 0.5, 1.0])
    assert np.array_equal(snaps[-1].points, final.points)


@pytest.mark.parametrize("times", [[-3, 5, 7], [-0.1], [1.5]])
def test_snapshot_times_outside_horizon_rejected(times):
    with pytest.raises(InputError, match="outside"):
        simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 10, master_seed=29, snapshot_times=times)


# 0.55 rounds down to step 5 of eta = 0.1, the step 0.5 names.
@pytest.mark.parametrize("times, message", [
    ([0.5, 0.55], r"snapshot_times \[0.5, 0.55\] name one grid step of eta=0.1 twice"),
    ([0.5, 0.5, 0.55], "twice"),
    ([0.5, 1.5], "snapshot time 1.5 outside"),
])
@pytest.mark.filterwarnings("ignore:snapshot time 0.55 is not a multiple")
def test_bad_snapshot_times_rejected_before_the_initial_draw(times, message):
    with mock.patch.object(sp, "noise_block", side_effect=AssertionError("initial states drawn")), \
            pytest.raises(InputError, match=message):
        simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 10, master_seed=29, snapshot_times=times)


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
def test_horizon_must_be_finite_and_positive(T):
    with pytest.raises(InputError, match="horizon must be finite and positive"):
        simulate_ensemble(OU1, STD_INIT, 0.1, T, 10, master_seed=29)


def test_off_grid_horizon_warns_and_rounds_down():
    with pytest.warns(UserWarning):
        ens = simulate_ensemble(OU1, STD_INIT, 0.3, 1.0, 10, master_seed=31)
    assert ens.time == pytest.approx(0.9)


# --- one forward-Euler chain against the hand-written loops ------------------------


CHAIN_MODELS = [(name, dim) for name in ("ou", "double-well", "gauss-mix") for dim in (1, 2)]


def final_states(model, init, etas, steps, n, seed):
    """Each eta's final states from one lockstep em_chain over the grid."""
    finals = {}
    for _, states, _ in sp.em_chain(model, init, etas, steps, n, seed):
        finals.update((i, x.copy()) for i, x, bx in states if bx is None)
    return [finals[i] for i in range(len(etas))]


@contextmanager
def prefetched(cpus=2, tile_values=1):
    """em_chain on its helper-thread path whatever the step's size, in tiles
    of tile_values normals (one row at the least), on a process that may run
    on `cpus` CPUs."""
    pool = sp._prefetch_pool
    with mock.patch.object(sp, "PREFETCH_VALUES", tile_values), \
            mock.patch.object(sp, "_prefetch_pool", lambda values: pool(max(values, tile_values))), \
            mock.patch.object(sp.os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        yield


CHAIN_CASES = dict(
    case=st.sampled_from(CHAIN_MODELS),
    fracs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
    duplicate=st.booleans(),
    steps=st.integers(0, 12),
    off_grid=st.sampled_from([0.0, 0.37]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    snap_fracs=st.lists(st.floats(0.0, 1.0), max_size=4),
    quad=st.integers(1, sp.MAX_QUAD_POINTS),
    center=st.floats(-1.0, 1.0),
    sigma0=st.floats(0.1, 2.0),
)


def check_chain_and_comparator(case, fracs, duplicate, steps, off_grid, n, seed, snap_fracs, quad, center, sigma0):
    name, dim = case
    model = make_model(name, dim=dim)
    init = InitDensity(mean=[center] * dim, sigma0=sigma0)
    etas = [f * step_window(model.constants.L1)[1] for f in fracs]
    if duplicate and len(etas) < 4:
        etas.append(etas[0])  # a duplicate step size
    eta = etas[0]
    T = (steps + off_grid) * eta
    if T < eta:
        T = eta  # a horizon that gives eta no step is rejected
    times = [f * T for f in snap_fracs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-grid horizons and snapshot times
        # So is a grid with a step size that takes no step within T; the
        # chain and the comparator run on the step sizes that take one.
        taking = [e for e in etas if math.floor(T / e + 1e-9) >= 1]
        if len(taking) < len(etas):
            with pytest.raises(InputError, match="takes no step within horizon"):
                sp.step_counts(etas, T, model.constants.L1)
            etas = taking
        counts = sp.step_counts(etas, T, model.constants.L1)
        # Two times on one grid step are rejected; the rest of the check runs
        # on the first time of each step.
        first_per_step = {}
        for t in times:
            first_per_step.setdefault(math.floor(t / eta + 1e-9), t)
        if len(first_per_step) < len(times):
            with pytest.raises(InputError, match="name one grid step of eta=.* twice"):
                simulate_ensemble(model, init, eta, T, n, seed, snapshot_times=times)
            times = list(first_per_step.values())
        final, snaps = simulate_ensemble(model, init, eta, T, n, seed, snapshot_times=times)
        x_ref, snaps_ref = simulate_ensemble_loop(model, init, eta, T, n, seed, times)
        finals = final_states(model, init, etas, counts, n, seed)
        values = girsanov_pathwise_kl(model, init, etas, counts, n, seed, quad_points_per_step=quad)
        for e, x, value in zip(etas, finals, values, strict=True):
            assert np.array_equal(x, simulate_ensemble_loop(model, init, e, T, n, seed)[0])
            assert value == girsanov_pathwise_kl_loop(model, init, e, T, n, seed, quad_points_per_step=quad)
    assert np.array_equal(final.points, x_ref)
    assert final.master_seed == seed and final.eta == eta
    assert [s.time for s in snaps] == [k * eta for k in sorted(snaps_ref)]
    for snap, k in zip(snaps, sorted(snaps_ref)):
        assert np.array_equal(snap.points, snaps_ref[k])


@settings(max_examples=40, deadline=None)
@given(**CHAIN_CASES)
def test_chain_and_comparator_match_loop_oracles(**case):
    check_chain_and_comparator(**case)


@settings(max_examples=40, deadline=None)
@given(**CHAIN_CASES, tile_values=st.integers(1, 50))
def test_chain_and_comparator_match_loop_oracles_prefetched(tile_values, **case):
    # n <= 40 never reaches PREFETCH_VALUES, so the helper is forced on; the
    # tiles run from one row to whole blocks, most not aligned to Philox's
    # four words.
    with prefetched(tile_values=tile_values):
        check_chain_and_comparator(**case)


def test_grid_draws_each_noise_block_once():
    # Steps: 20 (0.05, twice), 5 (0.2), 10 (0.1); the grid draws the init
    # once and, for each step below the longest, one SUB_EM block and one
    # block per quadrature point, on either path: nothing is drawn past the
    # last step, and a tile the helper does not start is drawn inline once.
    # The helper path takes one-row tiles, so each of those blocks is ten draws.
    etas, quad, n = [0.05, 0.2, 0.1, 0.05], 3, 10
    want = [girsanov_pathwise_kl_loop(OU1, STD_INIT, eta, 1.0, n, 5, quad_points_per_step=quad) for eta in etas]
    blocks = [(-1, sp.SUB_INIT)] + [(k, sub) for k in range(20) for sub in [sp.SUB_EM, *range(2, 2 + quad)]]
    for path, tiles in ((nullcontext, 1), (prefetched, n)):
        drawn = []  # appended from both threads

        def counting(master_seed, step, substream, rows, dim, first_row=0, **where):
            drawn.append((step, substream, first_row, rows))
            return noise_block(master_seed, step, substream, rows, dim, first_row=first_row, **where)

        with path(), mock.patch.object(sp, "noise_block", counting), \
                mock.patch("ulakit.estimators.noise_block", counting):
            values = girsanov_pathwise_kl(OU1, STD_INIT, etas, [20, 5, 10, 20], n, master_seed=5, quad_points_per_step=quad)
        assert len(drawn) == 1 + (len(blocks) - 1) * tiles
        assert len(set(d[:3] for d in drawn)) == len(drawn)
        rows = sorted((step, sub, r) for step, sub, a, count in drawn for r in range(a, a + count))
        assert rows == sorted((step, sub, r) for step, sub in blocks for r in range(n))
        assert values == want


# --- the helper thread that draws the next step's noise -----------------------------


def test_prefetch_thread_ends_with_a_full_run():
    baseline = threading.active_count()
    with prefetched():
        chain = sp.em_chain(OU1, STD_INIT, [0.1], [10], 5, master_seed=3, bridge_points=2)
        next(chain)
        assert threading.active_count() == baseline + 1
        list(chain)
    assert threading.active_count() == baseline


def test_prefetch_thread_ends_with_a_divergence():
    m = make_model("expansive", dim=1)
    baseline = threading.active_count()
    with prefetched(tile_values=64), pytest.raises(DivergenceError):
        girsanov_pathwise_kl(m, STD_INIT, [0.05], [960], 200, master_seed=23)
    assert threading.active_count() == baseline


def test_prefetch_thread_ends_with_a_chain_closed_early():
    baseline = threading.active_count()
    with prefetched():
        chain = sp.em_chain(OU1, STD_INIT, [0.1, 0.05], [10, 20], 5, master_seed=3, bridge_points=3)
        for k, _, _ in chain:
            if k == 4:
                break
        assert threading.active_count() == baseline + 1
        chain.close()
    assert threading.active_count() == baseline


def test_noise_error_raised_in_the_helper_is_the_same_error_at_the_same_step():
    failed = threading.Event()
    raised_on = []

    def failing(master_seed, step, substream, n, dim, **where):
        if (step, substream) == (6, sp.SUB_QUAD_BASE + 1):
            raised_on.append(threading.current_thread())
            failed.set()
            raise RuntimeError(f"no noise for step {step}")
        return noise_block(master_seed, step, substream, n, dim, **where)

    drifts = []

    def waiting_drift(x):
        # Step 6 starts once the helper, given its blocks during step 5,
        # has failed to draw one.
        drifts.append(x)
        if len(drifts) == 7:
            assert failed.wait(timeout=30)
        return OU1.drift(x)

    models = {nullcontext: OU1, prefetched: dataclasses.replace(OU1, drift=waiting_drift)}
    seen = {}
    for path, model in models.items():
        failed.clear()
        baseline = threading.active_count()
        steps = []
        with path(), mock.patch.object(sp, "noise_block", failing), \
                pytest.raises(RuntimeError, match="no noise for step 6"):
            for k, _, _ in sp.em_chain(model, STD_INIT, [0.1], [10], 5, master_seed=3, bridge_points=2):
                steps.append(k)
        assert threading.active_count() == baseline
        seen[path] = steps
    assert seen[nullcontext] == seen[prefetched] == [0, 1, 2, 3, 4, 5]
    # Inline on the caller's thread, then on the helper.
    assert raised_on[0] is threading.main_thread() and raised_on[1] is not threading.main_thread()


def test_concurrent_prefetched_chains_are_bitwise_the_serial_ones():
    # Each thread, helpers included, rekeys its own Philox generator; with
    # more threads than cores and a short switch interval, a shared one
    # would hand some block another's counter.
    model = make_model("ou", dim=2)
    seeds = list(range(6))
    want = {s: girsanov_pathwise_kl(model, STD_INIT_2, [0.05, 0.02], [8, 20], 30, s, 3) for s in seeds}
    got, errors = {}, []

    def work(seed):
        try:
            got[seed] = girsanov_pathwise_kl(model, STD_INIT_2, [0.05, 0.02], [8, 20], 30, seed, 3)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with prefetched(tile_values=8):
            threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert got == want


def chain_states(model, etas, steps, n, seed):
    """Every (k, eta index, state) em_chain yields, each state copied at the
    yield, since the chain owns its buffers."""
    return [(k, i, x.copy()) for k, states, _ in sp.em_chain(model, STD_INIT, etas, steps, n, seed) for i, x, _ in states]


def test_held_helper_leaves_every_tile_to_the_chain():
    # The helper's one worker waits on `held` before it takes any tile, so
    # every tile is still pending when the chain needs it: the chain cancels
    # each one and draws it itself, and releases the helper at the last item.
    etas, steps, n = [0.1, 0.05], [10, 20], 10
    want = chain_states(OU1, etas, steps, n, 3)
    held, drawn_on = threading.Event(), []

    def drawing(master_seed, step, substream, rows, dim, **where):
        drawn_on.append(threading.current_thread())
        return noise_block(master_seed, step, substream, rows, dim, **where)

    baseline = threading.active_count()
    with prefetched(tile_values=4):
        pool = sp._prefetch_pool

        def held_pool(values):
            helper = pool(values)
            helper.submit(held.wait, 30)
            return helper

        with mock.patch.object(sp, "_prefetch_pool", held_pool), mock.patch.object(sp, "noise_block", drawing):
            got = []
            for k, states, _ in sp.em_chain(OU1, STD_INIT, etas, steps, n, 3):
                got += [(k, i, x.copy()) for i, x, _ in states]
                if k == max(steps):
                    held.set()
    assert threading.active_count() == baseline
    assert len(drawn_on) == 1 + 20 * 3 and set(drawn_on) == {threading.main_thread()}
    assert len(got) == len(want) and all(
        (k, i) == (k0, i0) and x.tobytes() == x0.tobytes() for (k, i, x), (k0, i0, x0) in zip(got, want))


def test_chain_waits_on_a_tile_the_helper_has_started():
    # Tiles of four rows: 0..3, 4..7, 8..9.  The helper takes step 3's last
    # tile first and holds it until the chain, having drawn the two before
    # it, asks for its result: the chain cannot cancel a started tile, so it
    # waits for the helper's draw.
    n, last_tile, before = 10, (3, sp.SUB_EM, 8), (3, sp.SUB_EM, 4)
    want = chain_states(OU1, [0.1], [6], n, 3)
    in_tile, reached, waiting = threading.Event(), threading.Event(), threading.Event()
    drawn_by = {}

    def drawing(master_seed, step, substream, rows, dim, first_row=0, **where):
        tile = (step, substream, first_row)
        drawn_by[tile] = threading.current_thread()
        if tile == last_tile and threading.current_thread() is not threading.main_thread():
            in_tile.set()
            assert reached.wait(timeout=30) and waiting.wait(timeout=30)
        if tile == before:
            reached.set()
        return noise_block(master_seed, step, substream, rows, dim, first_row=first_row, **where)

    result = Future.result

    def watched_result(future, timeout=None):
        if threading.current_thread() is threading.main_thread() and reached.is_set():
            waiting.set()
        return result(future, timeout)

    drifts = []

    def waiting_drift(x):
        drifts.append(x)
        if len(drifts) == 4:  # step 3 starts once the helper holds its last tile
            assert in_tile.wait(timeout=30)
        return OU1.drift(x)

    baseline = threading.active_count()
    with prefetched(tile_values=4), mock.patch.object(sp, "noise_block", drawing), \
            mock.patch.object(Future, "result", watched_result):
        got = [(k, i, x.copy()) for k, states, _ in sp.em_chain(
            dataclasses.replace(OU1, drift=waiting_drift), STD_INIT, [0.1], [6], n, 3) for i, x, _ in states]
    assert threading.active_count() == baseline
    assert waiting.is_set() and drawn_by[last_tile] is not threading.main_thread()
    assert drawn_by[before] is threading.main_thread() and drawn_by[(3, sp.SUB_EM, 0)] is threading.main_thread()
    assert len(got) == len(want) and all(
        (k, i) == (k0, i0) and x.tobytes() == x0.tobytes() for (k, i, x), (k0, i0, x0) in zip(got, want))


def test_one_cpu_starts_no_helper_thread():
    baseline = threading.active_count()
    started = mock.Mock(wraps=sp.ThreadPoolExecutor)
    with prefetched(cpus=1), mock.patch.object(sp, "ThreadPoolExecutor", started):
        chain = sp.em_chain(OU1, STD_INIT, [0.1], [10], 5, master_seed=3, bridge_points=2)
        next(chain)
        assert threading.active_count() == baseline
        list(chain)
    started.assert_not_called()


def test_grid_divergence_names_the_first_diverging_eta_chain_and_step():
    m = make_model("expansive", dim=1)
    etas = [0.02, 0.05, 0.03]
    alone = []
    for eta in etas:
        with pytest.raises(DivergenceError) as err:
            simulate_ensemble(m, STD_INIT, eta, 48.0, 200, master_seed=23)
        alone.append(err.value)
    # The largest step diverges in the fewest steps, though it is not first
    # in the grid.
    first = min(range(len(etas)), key=lambda i: alone[i].step)
    assert first == 1 and alone[1].step < min(alone[0].step, alone[2].step)
    for run in (
        lambda: list(sp.em_chain(m, STD_INIT, etas, [2400, 960, 1600], 200, master_seed=23)),
        lambda: girsanov_pathwise_kl(m, STD_INIT, etas, [2400, 960, 1600], 200, master_seed=23),
    ):
        with pytest.raises(DivergenceError) as err:
            run()
        assert (err.value.eta, err.value.chain, err.value.step) == (0.05, alone[1].chain, alone[1].step)
        assert np.array_equal(err.value.state, alone[1].state)
        assert f"chain {alone[1].chain} diverged at step {alone[1].step} (eta=0.05," in str(err.value)


@pytest.mark.parametrize("mean, sigma0", [(0.0, 1e200), (1e13, 1.0)])
def test_init_out_of_range_is_input_error(mean, sigma0):
    init = InitDensity(mean=[mean], sigma0=sigma0)
    for run in (
        lambda: simulate_ensemble(OU1, init, 0.1, 1.0, 10, master_seed=3),
        lambda: girsanov_pathwise_kl(OU1, init, [0.1], [10], 10, master_seed=3),
    ):
        with pytest.raises(InputError, match="init"):
            run()


def test_em_chain_yields_each_state_with_its_drift():
    chain = sp.em_chain(OU1, STD_INIT, [0.1], [3], 5, master_seed=37)
    # The yielded state is the chain's own buffer, valid until the next item.
    seen = [(k, x.copy(), bx) for k, [(_, x, bx)], _ in chain]
    assert [k for k, _, _ in seen] == [0, 1, 2, 3]
    for _, x, bx in seen[:-1]:
        assert np.array_equal(bx, OU1.drift(x))
    assert seen[-1][2] is None


def test_em_chain_grid_yields_each_eta_up_to_its_own_steps():
    # T = 0.3 is 3 steps of 0.1 and 2 of 0.15.
    seen = [(k, [(i, x.copy(), bx) for i, x, bx in states], bridge)
            for k, states, bridge in sp.em_chain(OU1, STD_INIT, [0.1, 0.15], [3, 2], 5, master_seed=37)]
    assert [(k, [i for i, _, _ in states]) for k, states, _ in seen] == [
        (0, [0, 1]), (1, [0, 1]), (2, [0, 1]), (3, [0])
    ]
    for k, states, _ in seen:
        for i, x, bx in states:
            if k == (3, 2)[i]:
                assert bx is None
            else:
                assert np.array_equal(bx, OU1.drift(x))


# --- fine-step reference: the chain at a step well below the coarse one -------------


def test_fine_reference_zero_drift_matches_heat_flow():
    z = make_model("zero", dim=1)
    n = 50_000
    ref = simulate_ensemble(z, STD_INIT, eta=0.25, T=2.0, n=n, master_seed=41)
    target = continuous_moments_linear(z.linear, STD_INIT.moments(), 2.0)
    moments_close(ref.points, target, n)


def test_fine_reference_closer_to_continuous_than_coarse_run():
    # Gaussian fit of sampled points, compared against the exact marginal
    eta = 0.2
    T = 2.0
    n = 10_000
    init = InitDensity(mean=[1.0], sigma0=1.0)
    exact = continuous_moments_linear(OU1.linear, init.moments(), T)

    def fitted_kl(points):
        fit = GaussianMoments([points.mean()], [[points.var()]])
        return kl_gaussian(fit, exact)

    coarse = simulate_ensemble(OU1, init, eta, T, n, master_seed=43)
    fine = simulate_ensemble(OU1, init, eta / 64, T, n, master_seed=43)
    assert fitted_kl(fine.points) < fitted_kl(coarse.points)


# --- CSV round trip -----------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    ens = simulate_ensemble(OU1, STD_INIT, 0.1, 0.5, 25, master_seed=47)
    csv = tmp_path / "ens.csv"
    write_ensemble_csv(ens, csv)
    write_ensemble_sidecar(ens, tmp_path / "ens.json", model=OU1)
    back = read_ensemble_csv(csv)
    assert back.points.tobytes() == ens.points.tobytes()
    assert back.time == ens.time
    assert back.eta == ens.eta
    assert back.master_seed == ens.master_seed
    # byte-identical rewrite
    first = csv.read_bytes()
    write_ensemble_csv(ens, csv)
    assert csv.read_bytes() == first


def test_csv_without_sidecar_has_no_lineage(tmp_path):
    ens = simulate_ensemble(OU1, STD_INIT, 0.1, 0.5, 5, master_seed=47)
    write_ensemble_csv(ens, tmp_path / "ens.csv")
    back = read_ensemble_csv(tmp_path / "ens.csv")
    assert back.master_seed is None and back.eta is None
    assert back.time == ens.time


# The bytes of a written ensemble CSV as another writer may end its lines; a blank
# last line is rejected (tests/test_cli.py MALFORMED_CSVS).
LINE_ENDS = {
    "unterminated": lambda text: text[:-1],
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "crlf-unterminated": lambda text: text.replace(b"\n", b"\r\n")[:-2],
}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("ends", list(LINE_ENDS))
def test_csv_read_takes_an_unterminated_last_line_and_crlf(tmp_path, ends, rows):
    points = np.array([[0.1, -2.5e-300]]) * np.arange(1, rows + 1)[:, None]
    ens = sp.SampleEnsemble(time=0.5, eta=0.1, points=points, master_seed=1)
    csv = tmp_path / "ens.csv"
    write_ensemble_csv(ens, csv)
    csv.write_bytes(LINE_ENDS[ends](csv.read_bytes()))
    back = read_ensemble_csv(csv)
    assert back.points.tobytes() == ens.points.tobytes() and back.time == 0.5


def _tie_17():
    """Doubles k / 2^j whose exact decimal expansion has 18 significant
    digits ending in 5: "%.17g" must round them half to even."""
    return st.integers(2, 25).flatmap(
        lambda j: st.integers(
            math.ceil(10**17 / 5**j) // 2, (min(2**53 - 1, (10**18 - 1) // 5**j) - 1) // 2
        ).map(lambda h: (2 * h + 1) / 2**j)
    )


CSV_SPECIAL = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3]
)
CSV_FLOATS = st.one_of(
    CSV_SPECIAL,
    _tie_17(),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=25, deadline=None)
# The edges of the block writer's domain 1e-4 <= |x| < 1e15, and the largest
# doubles below powers of ten, among fast values and in the time column.
@example(d=1, chunk=7, rows=(2, 3), seed=0, time=1e-4, values=[
    1e-4, math.nextafter(1e-4, 0.0), -1e-4, 1e15, math.nextafter(1e15, 0.0), -math.nextafter(1e15, 0.0),
    math.nextafter(1.0, 0.0), math.nextafter(10.0, 0.0), math.nextafter(1e14, 0.0), 123456789012345.12], non_finite=[])
@example(d=3, chunk=2, rows=(2, 3), seed=1, time=math.nextafter(1e15, 0.0), values=[
    math.nextafter(1e-4, 1.0), 9.999999999999999e-05, -1e15, 999999999999999.9, 0.1, 1e-5, -5e-324, 0.0001], non_finite=[])
# Infinities and a nan among fast values: no twin.
@example(d=2, chunk=2, rows=(1, 1), seed=2, time=0.5, values=[1.5, -0.25], non_finite=[math.inf, math.nan])
@given(
    d=st.integers(1, 3),
    chunk=st.sampled_from([1, 2, 7, sp.CSV_CHUNK_ROWS]),
    # n = blocks * chunk + extra: 1, chunk - 1, chunk, chunk + 1, 2 chunk + 3
    rows=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)]),
    values=st.lists(CSV_FLOATS, min_size=1, max_size=40),
    time=CSV_FLOATS,
    seed=st.integers(0, 2**32 - 1),
    # Points that get no binary twin; nan is +nan, which "%.17g" and float() round-trip.
    non_finite=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=2),
)
def test_csv_io_matches_per_value_oracle(d, chunk, rows, values, time, seed, non_finite):
    blocks, extra = rows
    n = max(1, blocks * chunk + extra)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-20, 20, (n, d))
    flat = points.reshape(-1)
    values = [*non_finite, *values]
    at = rng.choice(flat.size, size=min(len(values), flat.size), replace=False)
    flat[at] = values[: at.size]
    ens = sp.SampleEnsemble(time=time, eta=0.1, points=points, master_seed=1)
    finite = bool(np.isfinite(points).all())
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        with mock.patch.object(sp, "CSV_CHUNK_ROWS", chunk):
            write_ensemble_csv(ens, new)
        write_ensemble_csv_per_value(points, time, old)
        assert new.read_bytes() == old.read_bytes()
        twin = Path(f"{new}{sp.TWIN_SUFFIX}")
        assert twin.is_file() == finite
        # With a twin, the read must take it: parsing would raise.
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed")) if finite else nullcontext():
            back = read_ensemble_csv(new)
        twin.unlink(missing_ok=True)
        parsed = read_ensemble_csv(new)
        want_points, want_time = read_ensemble_csv_per_value(old)
    for got in (back, parsed):
        assert got.points.tobytes() == points.tobytes() == want_points.tobytes()
        assert np.float64(got.time).tobytes() == np.float64(time).tobytes() == np.float64(want_time).tobytes()


def _flip_bit(path: Path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at] ^= 1
    path.write_bytes(bytes(data))


def _foreign_twin(csv: Path, twin: Path) -> None:
    """twin replaced by the twin of another ensemble of csv's shape."""
    other = csv.with_name("other.csv")
    write_ensemble_csv(sp.SampleEnsemble(time=0.5, eta=0.1, points=[[0.2, -2.5], [0.4, -5.0]], master_seed=1), other)
    twin.write_bytes(Path(f"{other}{sp.TWIN_SUFFIX}").read_bytes())


# Edits to a written CSV or its binary twin after which the twin must be ignored.
TWIN_FAULTS = {
    "csv-digit-edited": lambda csv, twin: csv.write_bytes(csv.read_bytes().replace(b"-2.5", b"-2.7", 1)),
    **{f"csv-{ends}": (lambda edit: lambda csv, twin: csv.write_bytes(edit(csv.read_bytes())))(edit)
       for ends, edit in LINE_ENDS.items()},
    "twin-truncated": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:-1]),
    "twin-extended": lambda csv, twin: twin.write_bytes(twin.read_bytes() + b"\0"),
    "payload-byte-flipped": lambda csv, twin: _flip_bit(twin, -1),
    "digest-byte-flipped": lambda csv, twin: _flip_bit(twin, 0),
    "twin-empty": lambda csv, twin: twin.write_bytes(b""),
    "twin-of-another-ensemble": _foreign_twin,
    "twin-is-a-directory": lambda csv, twin: (twin.unlink(), twin.mkdir()),
}


@pytest.mark.parametrize("fault", list(TWIN_FAULTS))
def test_csv_read_ignores_a_twin_that_fails_a_check(tmp_path, fault):
    csv = tmp_path / "ens.csv"
    twin = Path(f"{csv}{sp.TWIN_SUFFIX}")
    write_ensemble_csv(sp.SampleEnsemble(time=0.5, eta=0.1, points=[[0.1, -2.5], [0.3, 7.25]], master_seed=1), csv)
    TWIN_FAULTS[fault](csv, twin)
    bare = tmp_path / "bare" / "ens.csv"  # the same CSV bytes with no twin: the parse path
    bare.parent.mkdir()
    bare.write_bytes(csv.read_bytes())
    want = read_ensemble_csv(bare)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parse:
        got = read_ensemble_csv(csv)
    assert parse.call_count == 1
    assert got.points.tobytes() == want.points.tobytes() and got.time == want.time


def test_rewriting_a_non_finite_ensemble_removes_the_old_twin(tmp_path):
    csv = tmp_path / "ens.csv"
    twin = Path(f"{csv}{sp.TWIN_SUFFIX}")
    write_ensemble_csv(sp.SampleEnsemble(time=0.5, eta=0.1, points=[0.25, 1.5], master_seed=1), csv)
    assert twin.is_file()
    # "%.17g" writes -nan as nan, which parses as +nan: no twin could hold the parsed bits.
    write_ensemble_csv(sp.SampleEnsemble(time=0.5, eta=0.1, points=[0.25, -math.nan], master_seed=1), csv)
    assert not twin.exists()
    back = read_ensemble_csv(csv).points
    assert back[0, 0] == 0.25 and np.float64(back[1, 0]).tobytes() == np.float64(math.nan).tobytes()


def _powers_of_ten_neighbours():
    """The 40 doubles on each side of each power of ten from 1e-6 to 1e17, and
    the power itself."""
    out = []
    for k in range(-6, 18):
        below = above = float(f"1e{k}")
        out.append(below)
        for _ in range(40):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
    return out


def test_block_formatting_is_percent_17g_per_value(tmp_path):
    """Each field the block writer formats equals "%.17g" % v: near every power of
    ten, at the largest doubles below 1, 10 and 1e14, at 17-digit ties of both
    parities (n + k/8 with 15 digits in n, n + k/16 with 14) and at 10^6
    log-uniform doubles over [1e-6, 1e17] with random signs."""
    rng = np.random.default_rng(20261020)
    ties = [rng.integers(10**14, 10**15, 4000) + np.arange(4000) % 8 / 8,
            rng.integers(10**13, 10**14, 4000) + np.arange(4000) % 16 / 16]
    values = np.concatenate([
        _powers_of_ten_neighbours(),
        [math.nextafter(1.0, 0.0), math.nextafter(10.0, 0.0), math.nextafter(1e14, 0.0)],
        *ties,
        10.0 ** rng.uniform(-6, 17, 10**6) * rng.choice([-1.0, 1.0], 10**6),
    ])
    values = np.concatenate([values, -values[: -(10**6)]])
    fast = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e15)
    values, fast = np.concatenate([values[fast], values[~fast]]), np.sort(fast)[::-1]  # one run of slow rows
    with mock.patch.object(sp, "_fast_rows", wraps=sp._fast_rows) as block_path:
        write_ensemble_csv(sp.SampleEnsemble(0.0, None, values, None), tmp_path / "v.csv")
    assert sum(len(call.args[0]) for call in block_path.call_args_list) == fast.sum() > 8 * 10**5
    args = [None] * (2 * values.size)
    args[::2], args[1::2] = range(values.size), values.tolist()
    got, want = (tmp_path / "v.csv").read_text(), "chain,coord0,time\n" + ("%d,%.17g,0\n" * values.size) % tuple(args)
    if got != want:
        row = next(i for i, (g, w) in enumerate(zip(got.split(), want.split())) if g != w)
        pytest.fail(f"row {row}: the block writer wrote {got.split()[row]!r}, %.17g gives {want.split()[row]!r}")


def test_digit_tables_are_built_on_the_first_write_not_at_import(tmp_path):
    probe = ("import ulakit.cli, ulakit.samplers as sp; built = sp._digit_tables.cache_info().currsize; "
             f"sp.write_ensemble_csv(sp.SampleEnsemble(0.5, 0.1, [0.25], 0), {str(tmp_path / 'e.csv')!r}); "
             "print(built, sp._digit_tables.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["0", "1"]
    assert (tmp_path / "e.csv").read_bytes() == b"chain,coord0,time\n0,0.25,0.5\n"


# Values outside the block writer's domain, which the row template formats.
SLOW_VALUES = [0.0, -0.0, 5e-324, 1e-7, 1e16, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("chunk", [1, 7, sp.CSV_CHUNK_ROWS])
def test_mixed_blocks_match_per_value_writer(tmp_path, d, chunk):
    """Blocks in which no value, one value, every value, and the first, last and
    two adjacent middle rows' values fall back to the row template."""
    rng = np.random.default_rng(chunk * 10 + d)
    blocks = rng.uniform(1.0, 10.0, (4, chunk, d)) * 10.0 ** rng.integers(-4, 15, (4, chunk, d))
    blocks *= rng.choice([-1.0, 1.0], blocks.shape)
    blocks[1].flat[rng.integers(chunk * d)] = SLOW_VALUES[3]
    blocks[2].flat = np.resize(SLOW_VALUES, chunk * d)
    for r in {0, chunk // 2, chunk // 2 + 1, chunk - 1} & set(range(chunk)):
        blocks[3, r, rng.integers(d)] = SLOW_VALUES[r % len(SLOW_VALUES)]
    points = blocks.reshape(-1, d)
    with mock.patch.object(sp, "CSV_CHUNK_ROWS", chunk):
        write_ensemble_csv(sp.SampleEnsemble(0.25, 0.05, points, 1), tmp_path / "new.csv")
    write_ensemble_csv_per_value(points, 0.25, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# JSON artifacts: the writer's text is the indenting encoder's, byte for byte.
EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308])
JSON_FLOATS = st.floats() | EDGE_FLOATS
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), JSON_FLOATS, JSON_FLOATS.map(np.float64),
    st.text() | st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f", "π ≈ 3.14", "\U0001f600"]),
)
# The keys of one dict must sort against each other: str keys, or numeric
# ones (bool is an int).
NUMERIC_KEYS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans())


def json_payloads(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.dictionaries(NUMERIC_KEYS, children, max_size=5),
    )


@settings(max_examples=100, deadline=None)
@given(st.recursive(JSON_SCALARS, json_payloads, max_leaves=25))
@example({"records": [{"cov": [[1.0, -0.0], [5e-324, 1e308]], "mean": (math.nan, math.inf, -math.inf)}]})
@example({"a": {}, "b": [], "c": [[], {}, ()], "d": [{"e": [[]]}]})
@example([np.float64(0.1), 0.1, np.float64(math.nan), 2, True, None, "x"])
@example({2: "int", 1.5: "float", True: "bool", 10: [1.0, math.inf]})
# One indent's cached list encoder writes a finite list, raises on nan (the
# item-by-item writer then gives null), and writes a finite list again.
@example({"a": [1.0, 2.0], "b": [3.0, math.nan], "c": [4.0, 5.0]})
# Lists of scalars at nesting depths 1 to 4, np.float64 items among them.
@example([0.5, np.float64(0.25), -1, "s"])
@example({"a": [np.float64(1e308), 5e-324]})
@example([[[np.float64(-0.0), 0.1], [math.inf, 2]], [[np.float64(math.nan)]]])
@example({"a": [[[0.1, 0.2], [np.float64(0.3)]], [[math.nan, 1.0], [1.0, 2.0]]], "b": [[[1.0, 2.0]]]})
def test_json_text_is_the_indenting_encoders_text(payload):
    assert sp._json_text(payload, "") == json_text_indented(payload)


@pytest.mark.parametrize("payload, error", [
    ({math.nan: 1}, ValueError),
    ({1: 1, "1": 2}, TypeError),
    ({(1, 2): 1}, TypeError),
    ({"x": object()}, TypeError),
    ([np.int64(3)], TypeError),
])
def test_json_text_raises_what_the_indenting_encoder_raises(payload, error):
    with pytest.raises(error):
        json_text_indented(payload)
    with pytest.raises(error):
        sp._json_text(payload, "")
