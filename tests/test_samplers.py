import dataclasses
import math
import sys
import tempfile
import threading
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulakit import samplers as sp
from ulakit import (
    DivergenceError,
    GaussianMoments,
    InitDensity,
    InputError,
    continuous_moments_linear,
    em_moments_linear,
    entropy_gaussian,
    kl_gaussian,
    make_model,
    noise_block,
    read_ensemble_csv,
    simulate_ensemble,
    verify_init,
    write_ensemble_csv,
    write_ensemble_sidecar,
)

from ulakit.bounds import step_window
from ulakit.estimators import girsanov_pathwise_kl

from slow_paths import (
    girsanov_pathwise_kl_loop,
    noise_block_fresh_philox,
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


def one_step(model, x0, eta, noise):
    """The state after one step of em_chain from x0, with every noise draw
    (the init's and the step's) replaced by `noise`."""
    init = InitDensity(mean=x0 - np.asarray(noise, float), sigma0=1.0)
    with mock.patch.object(sp, "noise_block", lambda *a: np.array([noise], float)):
        (_, [(_, x, _)], _), (_, [(_, x1, _)], _) = sp.em_chain(model, init, [eta], eta, 1, master_seed=0)
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
    def draw(seed, step, substream, n, dim):  # the init lands on 1; the step draws 1e13
        return np.full((n, dim), 0.0 if substream == sp.SUB_INIT else 1e13)

    init = InitDensity(mean=[1.0], sigma0=1.0)
    with mock.patch.object(sp, "noise_block", draw), pytest.raises(DivergenceError) as err:
        list(sp.em_chain(OU1, init, [0.1], 0.1, 1, master_seed=0))
    assert err.value.chain == 0 and err.value.step == 1 and err.value.eta == 0.1
    assert err.value.state.tolist() == [0.9 + math.sqrt(0.1) * 1e13]


def test_em_step_rejects_bad_eta():
    with pytest.raises(InputError, match="step size must be positive"):
        sp.em_chain(OU1, STD_INIT, [0.0], 1.0, 1, master_seed=0)


def test_em_chain_checks_every_eta_before_it_returns():
    with pytest.raises(InputError, match="step size 0.6 outside"):
        sp.em_chain(OU1, STD_INIT, [0.1, 0.05, 0.6], 1.0, 1, master_seed=0)
    with pytest.raises(InputError, match="empty"):
        sp.em_chain(OU1, STD_INIT, [], 1.0, 1, master_seed=0)


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


def test_chain_purity_prefix_property():
    # chain i's path is a pure function of (seed, i, step): shrinking the
    # ensemble must not change surviving chains, which is the observable
    # form of execution-order independence
    big = simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 50, master_seed=7)
    small = simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 30, master_seed=7)
    assert np.array_equal(big.points[:30], small.points)


def test_noise_block_purity():
    a = noise_block(9, 3, 0, 40, 2)
    b = noise_block(9, 3, 0, 25, 2)
    assert np.array_equal(a[:25], b)
    assert not np.array_equal(noise_block(9, 4, 0, 25, 2), b)
    assert not np.array_equal(noise_block(9, 3, 1, 25, 2), b)


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
    assert entropy_gaussian(init.moments()) == pytest.approx(1 + math.log(8 * math.pi))
    m = init.moments()
    assert np.allclose(m.cov, 4.0 * np.eye(2))


@pytest.mark.parametrize("sigma0", [1e200, 1e-200])
def test_init_variance_outside_float_range_is_input_error(sigma0):
    # sigma0^2 overflows (1e200) or underflows to 0 (1e-200).
    init = InitDensity(mean=[0.0], sigma0=sigma0)
    for derived in (lambda: init.h0, lambda: entropy_gaussian(init.moments()), init.moments, lambda: verify_init(init)):
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
    with mock.patch.object(sp, "noise_block", lambda *a: np.zeros((1, 1))), \
            mock.patch("ulakit.estimators.noise_block", lambda *a: np.zeros((1, 1))):
        [value] = girsanov_pathwise_kl(OU1, init, [0.1], 0.1, 1, master_seed=0, quad_points_per_step=1)
    assert value == pytest.approx(0.5 * 0.1 * 0.05**2)


# --- divergence -------------------------------------------------------------------


def test_expansive_drift_diverges_with_chain_and_step():
    m = make_model("expansive", dim=1)
    with pytest.raises(DivergenceError) as err:
        simulate_ensemble(m, STD_INIT, eta=0.05, T=50.0, n=200, master_seed=23)
    assert err.value.chain is not None
    assert err.value.step is not None
    assert err.value.state is not None


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


def final_states(model, init, etas, T, n, seed):
    """Each eta's final states from one lockstep em_chain over the grid."""
    finals = {}
    for _, states, _ in sp.em_chain(model, init, etas, T, n, seed):
        finals.update((i, x) for i, x, bx in states if bx is None)
    return [finals[i] for i in range(len(etas))]


@contextmanager
def prefetched(cpus=2):
    """em_chain on its helper-thread path whatever the step's size, on a
    process that may run on `cpus` CPUs."""
    with mock.patch.object(sp, "PREFETCH_VALUES", 1), \
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
    if T <= 0:
        T = eta
    times = [f * T for f in snap_fracs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-grid horizons and snapshot times
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
        finals = final_states(model, init, etas, T, n, seed)
        values = girsanov_pathwise_kl(model, init, etas, T, n, seed, quad_points_per_step=quad)
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
@given(**CHAIN_CASES)
def test_chain_and_comparator_match_loop_oracles_prefetched(**case):
    # n <= 40 never reaches PREFETCH_VALUES, so the helper is forced on.
    with prefetched():
        check_chain_and_comparator(**case)


def test_grid_draws_each_noise_block_once():
    # Steps: 20 (0.05, twice), 5 (0.2), 10 (0.1); the grid draws the init
    # once and, for each step below the longest, one SUB_EM block and one
    # block per quadrature point, on either path: nothing is drawn past the
    # last step, and a draw the helper does not start is drawn inline once.
    etas, quad = [0.05, 0.2, 0.1, 0.05], 3
    want = [girsanov_pathwise_kl_loop(OU1, STD_INIT, eta, 1.0, 10, 5, quad_points_per_step=quad) for eta in etas]
    for path in (nullcontext, prefetched):
        drawn = []

        def counting(master_seed, step, substream, n, dim):
            drawn.append((step, substream))
            return noise_block(master_seed, step, substream, n, dim)

        with path(), mock.patch.object(sp, "noise_block", counting), \
                mock.patch("ulakit.estimators.noise_block", counting):
            values = girsanov_pathwise_kl(OU1, STD_INIT, etas, 1.0, 10, master_seed=5, quad_points_per_step=quad)
        assert len(drawn) == 20 * (1 + quad) + 1
        assert len(set(drawn)) == len(drawn)
        assert values == want


# --- the helper thread that draws the next step's noise -----------------------------


def test_prefetch_thread_ends_with_a_full_run():
    baseline = threading.active_count()
    with prefetched():
        chain = sp.em_chain(OU1, STD_INIT, [0.1], 1.0, 5, master_seed=3, bridge_points=2)
        next(chain)
        assert threading.active_count() == baseline + 1
        list(chain)
    assert threading.active_count() == baseline


def test_prefetch_thread_ends_with_a_divergence():
    m = make_model("expansive", dim=1)
    baseline = threading.active_count()
    with prefetched(), pytest.raises(DivergenceError):
        girsanov_pathwise_kl(m, STD_INIT, [0.05], 48.0, 200, master_seed=23)
    assert threading.active_count() == baseline


def test_prefetch_thread_ends_with_a_chain_closed_early():
    baseline = threading.active_count()
    with prefetched():
        chain = sp.em_chain(OU1, STD_INIT, [0.1, 0.05], 1.0, 5, master_seed=3, bridge_points=3)
        for k, _, _ in chain:
            if k == 4:
                break
        assert threading.active_count() == baseline + 1
        chain.close()
    assert threading.active_count() == baseline


def test_noise_error_raised_in_the_helper_is_the_same_error_at_the_same_step():
    failed = threading.Event()
    raised_on = []

    def failing(master_seed, step, substream, n, dim):
        if (step, substream) == (6, sp.SUB_QUAD_BASE + 1):
            raised_on.append(threading.current_thread())
            failed.set()
            raise RuntimeError(f"no noise for step {step}")
        return noise_block(master_seed, step, substream, n, dim)

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
            for k, _, _ in sp.em_chain(model, STD_INIT, [0.1], 1.0, 5, master_seed=3, bridge_points=2):
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
    want = {s: girsanov_pathwise_kl(model, STD_INIT_2, [0.05, 0.02], 0.4, 30, s, 3) for s in seeds}
    got, errors = {}, []

    def work(seed):
        try:
            got[seed] = girsanov_pathwise_kl(model, STD_INIT_2, [0.05, 0.02], 0.4, 30, seed, 3)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with prefetched():
            threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert got == want


def test_one_cpu_starts_no_helper_thread():
    baseline = threading.active_count()
    started = mock.Mock(wraps=sp.ThreadPoolExecutor)
    with prefetched(cpus=1), mock.patch.object(sp, "ThreadPoolExecutor", started):
        chain = sp.em_chain(OU1, STD_INIT, [0.1], 1.0, 5, master_seed=3, bridge_points=2)
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
        lambda: list(sp.em_chain(m, STD_INIT, etas, 48.0, 200, master_seed=23)),
        lambda: girsanov_pathwise_kl(m, STD_INIT, etas, 48.0, 200, master_seed=23),
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
        lambda: girsanov_pathwise_kl(OU1, init, [0.1], 1.0, 10, master_seed=3),
    ):
        with pytest.raises(InputError, match="init"):
            run()


def test_em_chain_yields_each_state_with_its_drift():
    chain = sp.em_chain(OU1, STD_INIT, [0.1], 0.3, 5, master_seed=37)
    seen = [(k, x, bx) for k, [(_, x, bx)], _ in chain]
    assert [k for k, _, _ in seen] == [0, 1, 2, 3]
    for _, x, bx in seen[:-1]:
        assert np.array_equal(bx, OU1.drift(x))
    assert seen[-1][2] is None


def test_em_chain_grid_yields_each_eta_up_to_its_own_steps():
    # T = 0.3 is 3 steps of 0.1 and 2 of 0.15.
    seen = list(sp.em_chain(OU1, STD_INIT, [0.1, 0.15], 0.3, 5, master_seed=37))
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
@given(
    d=st.integers(1, 3),
    chunk=st.sampled_from([1, 2, 7, sp.CSV_CHUNK_ROWS]),
    # n = blocks * chunk + extra: 1, chunk - 1, chunk, chunk + 1, 2 chunk + 3
    rows=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)]),
    values=st.lists(CSV_FLOATS, min_size=1, max_size=40),
    time=CSV_FLOATS,
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_io_matches_per_value_oracle(d, chunk, rows, values, time, seed):
    blocks, extra = rows
    n = max(1, blocks * chunk + extra)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-20, 20, (n, d))
    flat = points.reshape(-1)
    at = rng.choice(flat.size, size=min(len(values), flat.size), replace=False)
    flat[at] = values[: at.size]
    ens = sp.SampleEnsemble(time=time, eta=0.1, points=points, master_seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        with mock.patch.object(sp, "CSV_CHUNK_ROWS", chunk):
            write_ensemble_csv(ens, new)
        write_ensemble_csv_per_value(points, time, old)
        assert new.read_bytes() == old.read_bytes()
        back = read_ensemble_csv(new)
        want_points, want_time = read_ensemble_csv_per_value(old)
    assert back.points.tobytes() == points.tobytes() == want_points.tobytes()
    assert np.float64(back.time).tobytes() == np.float64(time).tobytes() == np.float64(want_time).tobytes()
