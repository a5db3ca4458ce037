import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulakit import samplers as sp
from ulakit import (
    ConfigurationError,
    DivergenceError,
    GaussianMoments,
    InitDensity,
    InputError,
    continuous_moments_linear,
    em_moments_linear,
    em_step,
    fine_reference_ensemble,
    interpolated_sample,
    kl_gaussian,
    make_model,
    noise_block,
    read_ensemble_csv,
    simulate_ensemble,
    step_size_window,
    verify_init,
    write_ensemble_csv,
    write_ensemble_sidecar,
)

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


# --- em_step ------------------------------------------------------------------


def test_em_step_zero_everything():
    z = make_model("zero", dim=1)
    assert em_step([0.0], z, 0.3, [0.0]) == pytest.approx([0.0])


def test_em_step_deterministic_euler():
    assert em_step([1.0], OU1, 0.1, [0.0]) == pytest.approx([0.9])


def test_em_step_with_noise():
    # 1 - 0.04 + sqrt(0.04) * 0.5
    assert em_step([1.0], OU1, 0.04, [0.5]) == pytest.approx([1.06])


def test_em_step_divergence_is_the_chain_guard():
    with pytest.raises(DivergenceError) as err:
        em_step([1.0], OU1, 0.1, [1e13])
    assert err.value.chain == 0 and err.value.step == 1
    assert err.value.state.tolist() == [0.9 + math.sqrt(0.1) * 1e13]


def test_em_step_rejects_bad_eta():
    with pytest.raises(InputError):
        em_step([1.0], OU1, 0.0, [0.0])


# --- step-size window ----------------------------------------------------------


def test_window_refuses_large_step_before_any_computation():
    with pytest.raises(ConfigurationError):
        simulate_ensemble(OU1, STD_INIT, eta=0.6, T=1.0, n=10, master_seed=1)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(OU1, STD_INIT, eta=0.5, T=1.0, n=10, master_seed=1)


def test_window_unbounded_for_zero_lipschitz():
    z = make_model("zero", dim=1)
    assert step_size_window(z) == (0.0, math.inf)
    simulate_ensemble(z, STD_INIT, eta=0.5, T=1.0, n=10, master_seed=1)


def test_window_values():
    assert step_size_window(OU1) == (0.0, 0.5)


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
    assert init.entropy == pytest.approx(1 + math.log(8 * math.pi))
    m = init.moments()
    assert np.allclose(m.cov, 4.0 * np.eye(2))


@pytest.mark.parametrize("sigma0", [1e200, 1e-200])
def test_init_variance_outside_float_range_is_input_error(sigma0):
    # sigma0^2 overflows (1e200) or underflows to 0 (1e-200).
    init = InitDensity(mean=[0.0], sigma0=sigma0)
    for derived in (lambda: init.h0, lambda: init.entropy, init.moments, lambda: verify_init(init)):
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


def test_interpolated_samples_match_next_grid_marginal():
    n = 100_000
    eta = 0.1
    k = 5
    ens = simulate_ensemble(OU1, InitDensity(mean=[1.0], sigma0=1.0), eta, k * eta, n, master_seed=19)
    xi = noise_block(12345, 99, 2, n, 1)
    pts = interpolated_sample(ens.points, OU1, tau=eta, noise=xi, eta=eta)
    target = em_moments_linear(OU1.linear, GaussianMoments([1.0], [[1.0]]), eta, k + 1)
    moments_close(pts, target, n)


# --- interpolated_sample ---------------------------------------------------------


def test_interpolated_sample_tau_zero():
    x = np.array([1.5])
    assert interpolated_sample(x, OU1, 0.0, np.array([2.0]), eta=0.1) == pytest.approx([1.5])


def test_interpolated_sample_tau_eta_equals_em_step():
    x = np.array([0.7])
    xi = np.array([-0.3])
    lhs = interpolated_sample(x, OU1, 0.1, xi, eta=0.1)
    rhs = em_step(x, OU1, 0.1, xi)
    assert lhs == pytest.approx(rhs)


def test_interpolated_sample_deterministic_value():
    assert interpolated_sample(np.array([1.0]), OU1, 0.05, np.array([0.0]), eta=0.1) == pytest.approx([0.95])


def test_interpolated_sample_range_check():
    with pytest.raises(InputError):
        interpolated_sample(np.array([1.0]), OU1, 0.2, np.array([0.0]), eta=0.1)


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
    with pytest.raises(ConfigurationError, match="outside"):
        simulate_ensemble(OU1, STD_INIT, 0.1, 1.0, 10, master_seed=29, snapshot_times=times)


def test_off_grid_horizon_warns_and_rounds_down():
    with pytest.warns(UserWarning):
        ens = simulate_ensemble(OU1, STD_INIT, 0.3, 1.0, 10, master_seed=31)
    assert ens.time == pytest.approx(0.9)


# --- one forward-Euler chain against the hand-written loops ------------------------


CHAIN_MODELS = [("ou", 1), ("ou", 2), ("double-well", 1), ("gauss-mix", 2)]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(CHAIN_MODELS),
    frac=st.floats(0.05, 0.95),
    steps=st.integers(0, 12),
    off_grid=st.sampled_from([0.0, 0.37]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    snap_fracs=st.lists(st.floats(0.0, 1.0), max_size=4),
    quad=st.integers(1, sp.MAX_QUAD_POINTS),
    center=st.floats(-1.0, 1.0),
    sigma0=st.floats(0.1, 2.0),
)
def test_chain_and_comparator_match_loop_oracles(
    case, frac, steps, off_grid, n, seed, snap_fracs, quad, center, sigma0
):
    name, dim = case
    model = make_model(name, dim=dim)
    init = InitDensity(mean=[center] * dim, sigma0=sigma0)
    eta = frac * step_size_window(model)[1]
    T = (steps + off_grid) * eta
    if T <= 0:
        T = eta
    times = [f * T for f in snap_fracs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # off-grid horizons and snapshot times
        final, snaps = simulate_ensemble(model, init, eta, T, n, seed, snapshot_times=times)
        x_ref, snaps_ref = simulate_ensemble_loop(model, init, eta, T, n, seed, times)
        value = girsanov_pathwise_kl(model, init, eta, T, n, seed, quad_points_per_step=quad)
        value_ref = girsanov_pathwise_kl_loop(model, init, eta, T, n, seed, quad_points_per_step=quad)
    assert np.array_equal(final.points, x_ref)
    assert final.master_seed == seed and final.eta == eta
    assert [s.time for s in snaps] == [k * eta for k in sorted(snaps_ref)]
    for snap, k in zip(snaps, sorted(snaps_ref)):
        assert np.array_equal(snap.points, snaps_ref[k])
    assert value == value_ref


@pytest.mark.parametrize("mean, sigma0", [(0.0, 1e200), (1e13, 1.0)])
def test_init_out_of_range_is_input_error(mean, sigma0):
    init = InitDensity(mean=[mean], sigma0=sigma0)
    for run in (
        lambda: simulate_ensemble(OU1, init, 0.1, 1.0, 10, master_seed=3),
        lambda: girsanov_pathwise_kl(OU1, init, 0.1, 1.0, 10, master_seed=3),
    ):
        with pytest.raises(InputError, match="init"):
            run()


def test_em_chain_yields_each_state_with_its_drift():
    chain = sp.em_chain(OU1, STD_INIT, 0.1, 0.3, 5, master_seed=37)
    seen = list(chain)
    assert [k for k, _, _ in seen] == [0, 1, 2, 3]
    for _, x, bx in seen[:-1]:
        assert np.array_equal(bx, OU1.drift(x))
    assert seen[-1][2] is None


# --- fine reference -----------------------------------------------------------------


def test_fine_reference_requires_step_ratio():
    with pytest.raises(ConfigurationError):
        fine_reference_ensemble(OU1, STD_INIT, eta_fine=0.01, T=1.0, n=10, master_seed=1, coarse_eta=0.2)


def test_fine_reference_deterministic_and_labeled():
    a = fine_reference_ensemble(OU1, STD_INIT, 0.005, 1.0, 100, master_seed=37, coarse_eta=0.2)
    b = fine_reference_ensemble(OU1, STD_INIT, 0.005, 1.0, 100, master_seed=37, coarse_eta=0.2)
    assert a.label == "reference"
    assert np.array_equal(a.points, b.points)


def test_fine_reference_zero_drift_matches_heat_flow():
    z = make_model("zero", dim=1)
    n = 50_000
    ref = fine_reference_ensemble(z, STD_INIT, eta_fine=0.25, T=2.0, n=n, master_seed=41, coarse_eta=8.0)
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
    fine = fine_reference_ensemble(OU1, init, eta / 64, T, n, master_seed=43, coarse_eta=eta)
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
