"""Integrator behavior: determinism, reductions, logging, and metrics."""

import numpy as np
import pytest

from thermoadapt import (
    SCENARIO_NAMES,
    DivergenceError,
    ExperimentConfig,
    Network,
    RandomSource,
    control_input,
    desired,
    drift,
    lyapunov_value,
    metrics,
    plant_drift,
    run,
)

# small network keeps single steps ~100x cheaper than the benchmark shape
FAST = ExperimentConfig(horizon=2.0, hidden_layers=2, hidden_width=8, log_stride=5)

# every step logged, with a nonzero reference for the Lyapunov proxy
ROWS = FAST.with_updates(horizon=0.2, log_stride=1)
ROWS_THETA_REF = 0.5 * ROWS.initial_theta()


@pytest.fixture(scope="module")
def fast_s2_log():
    return run(FAST, "S2", 3)


@pytest.fixture(scope="module")
def row_logs():
    return {sc: run(ROWS, sc, 5, theta_ref=ROWS_THETA_REF) for sc in SCENARIO_NAMES}


def test_run_is_deterministic(fast_s2_log):
    again = run(FAST, "S2", 3)
    assert np.array_equal(again.states, fast_s2_log.states)
    assert np.array_equal(again.final_theta, fast_s2_log.final_theta)
    assert again.sum_error_sq == fast_s2_log.sum_error_sq


def test_step_deterministic():
    one = FAST.with_updates(horizon=FAST.dt, log_stride=1)
    a, b = run(one, "S2", 5), run(one, "S2", 5)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.final_theta, b.final_theta)
    assert not np.array_equal(a.final_theta, a.initial_theta)


def test_diffusion_off_runs_are_seed_independent():
    a = run(FAST, "S1", 1)
    b = run(FAST, "S1", 2)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.final_theta, b.final_theta)
    assert a.sum_error_sq == b.sum_error_sq
    assert a.sum_func_err_sq == b.sum_func_err_sq


def test_diffusion_on_runs_differ_by_seed():
    a = run(FAST, "S2", 1)
    b = run(FAST, "S2", 2)
    assert not np.array_equal(a.final_theta, b.final_theta)


def test_logged_rows_self_consistent(row_logs):
    # each row's e, |e|, T and diffusion follow from its own t, x and |theta|
    for scenario, log in row_logs.items():
        law, gains = ROWS.law_for(scenario), ROWS.gains_for(scenario)
        assert log.times.size == round(ROWS.horizon / ROWS.dt) + 1
        for r, t in enumerate(log.times):
            x, e = log.states[r], log.errors[r]
            assert np.array_equal(e, x - desired(t)[0])
            assert log.error_norms[r] == pytest.approx(np.linalg.norm(e), rel=1e-15, abs=0)
            # the weight law sees theta only through |theta|^2
            mu = law.mu(x, np.array([log.weight_norms[r]]), e)
            temp = log.temperatures[r]
            assert temp == pytest.approx(max(float(e @ mu), 0.0), rel=1e-13, abs=0)
            assert log.diffusions[r] == pytest.approx(
                np.sqrt(gains.diffusion_gain * temp), rel=1e-15, abs=0
            )
        if scenario == "S1":
            assert np.all(log.diffusions == 0.0)


def test_last_row_follows_from_final_theta(row_logs):
    net_shape = ROWS.network_shape()
    for scenario, log in row_logs.items():
        x, e, theta = log.states[-1], log.errors[-1], log.final_theta
        assert log.weight_norms[-1] == np.linalg.norm(theta)
        assert log.weight_norms[0] == np.linalg.norm(log.initial_theta)
        assert log.lyapunov_proxies[-1] == lyapunov_value(
            e, ROWS_THETA_REF - theta, ROWS.learning_rate
        )
        model = Network(net_shape, theta).forward(x)
        assert log.func_err_norms[-1] == pytest.approx(
            np.linalg.norm(plant_drift(x) - model), rel=1e-12, abs=0
        )


def test_step_reduces_to_projected_gradient_when_diffusion_off():
    # one S1 step: theta+ = theta0 + lr dt proj(theta0, drift), x+ = x0 + (f + u) dt
    cfg = FAST.with_updates(horizon=FAST.dt, log_stride=1)
    log = run(cfg, "S1", 1)
    ball, gains, law = cfg.ball(), cfg.gains_for("S1"), cfg.law_for("S1")
    assert gains.diffusion_gain == 0.0
    net = Network(cfg.network_shape(), cfg.initial_theta())
    x, theta = cfg.x0(), net.theta
    xd, xd_rate = desired(0.0)
    e = x - xd
    mu = law.mu(x, theta, e)
    rho = drift(law, gains, net.weight_jacobian(x), x, theta, e)
    expected = theta + gains.learning_rate * cfg.dt * ball.project(theta, rho)
    assert np.array_equal(log.final_theta, expected)
    u = control_input(gains, xd_rate, e, net.forward(x), mu)
    assert np.allclose(log.states[1], x + (plant_drift(x) + u) * cfg.dt, rtol=1e-14, atol=0.0)


def test_step_rejects_nonpositive_dt():
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt"):
            FAST.with_updates(dt=dt)


def test_zero_horizon_logs_initial_state_only():
    cfg = FAST.with_updates(horizon=0.0)
    log = run(cfg, "S1", 0)
    assert log.times.size == 1
    assert log.n_states == 1
    assert np.array_equal(log.states[0], cfg.x0())
    assert np.array_equal(log.initial_theta, log.final_theta)


def test_log_grid_uniform_and_monotone(fast_s2_log):
    spacing = np.diff(fast_s2_log.times)
    assert np.all(spacing > 0)
    assert np.allclose(spacing, FAST.dt * FAST.log_stride, atol=1e-12)


def test_late_window_nan_for_short_horizon(fast_s2_log):
    assert not np.isnan(fast_s2_log.temp_mean_early)
    assert np.isnan(fast_s2_log.temp_mean_late)  # horizon < 25 s


def test_divergence_raises_with_partial_log():
    cfg = FAST.with_updates(dt=0.5, horizon=5.0)  # way past explicit-Euler stability
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as excinfo:
            run(cfg, "S1", 0)
    err = excinfo.value
    assert err.step_index >= 1
    assert err.partial_log is not None
    assert err.partial_log.times.size >= 1


def test_weights_never_leave_layered_region(fast_s2_log):
    ball = FAST.ball()
    assert fast_s2_log.max_boundary_value <= ball.layer + 1e-9


def test_temperature_bounded_by_error_envelope():
    # T <= |e|^2 * (q * B + s) with B the run maximum of the driving norm
    cfg = FAST
    for scenario, driver in (("S2", None), ("S3", "state"), ("S4", "weight")):
        log = run(cfg, scenario, 4)
        e_sq = log.error_norms**2
        if driver == "state":
            bound_factor = cfg.temp_quad_weight * np.max(
                np.sum(log.states**2, axis=1)
            ) + cfg.temp_scale
        elif driver == "weight":
            bound_factor = cfg.temp_quad_weight * np.max(log.weight_norms**2) + cfg.temp_scale
        else:
            bound_factor = cfg.temp_scale
        assert np.all(log.temperatures <= e_sq * bound_factor + 1e-12)


def test_step_size_self_consistency():
    # deterministic run: halving dt moves the tracking RMS by well under 2%
    base = FAST.with_updates(horizon=10.0)
    fine = base.with_updates(dt=base.dt / 2)
    rms = []
    for cfg in (base, fine):
        log = run(cfg, "S1", 0)
        rms.append(np.sqrt(log.sum_error_sq / log.n_states))
    assert abs(rms[1] - rms[0]) / rms[0] < 0.02


# -- metrics -------------------------------------------------------------------


class _PerfectModel:
    """Duck-typed stand-in whose forward equals the plant drift."""

    def forward(self, x):
        return plant_drift(x)


def test_metrics_off_trajectory_zero_for_perfect_model(fast_s2_log):
    report = metrics(fast_s2_log, _PerfectModel(), RandomSource(1))
    assert report.off_traj_rms == 0.0


def test_metrics_rms_values(fast_s2_log):
    report = metrics(fast_s2_log, _PerfectModel(), RandomSource(1))
    assert report.rms_error == pytest.approx(
        np.sqrt(fast_s2_log.sum_error_sq / fast_s2_log.n_states)
    )
    assert report.rms_func_err == pytest.approx(
        np.sqrt(fast_s2_log.sum_func_err_sq / fast_s2_log.n_states)
    )


def test_metrics_test_points_reproducible(fast_s2_log):
    net = Network(FAST.network_shape(), fast_s2_log.final_theta)
    a = metrics(fast_s2_log, net, RandomSource(99))
    b = metrics(fast_s2_log, net, RandomSource(99))
    assert a.off_traj_rms == b.off_traj_rms


def test_metrics_rejects_empty_log(fast_s2_log):
    import dataclasses

    empty = dataclasses.replace(fast_s2_log, n_states=0)
    with pytest.raises(ValueError):
        metrics(empty, _PerfectModel(), RandomSource(0))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run(FAST, "S9", 0)


def test_projection_clip_counted():
    # a ball that does not hold the initial weights is rejected up front
    with pytest.raises(ValueError, match="radius 0.5 .*norm is 6.18"):
        FAST.with_updates(ball_radius=0.5, ball_layer=0.01)
    # a shell right at the initial norm with a thin layer forces clips
    radius = float(np.linalg.norm(FAST.initial_theta()))
    cfg = FAST.with_updates(horizon=0.3, ball_radius=radius, ball_layer=1e-3, log_stride=1)
    log = run(cfg, "S2", 0)
    assert log.clip_count > 0
    assert int(log.clip_flags.sum()) == log.clip_count
    assert log.max_boundary_value <= cfg.ball_layer + 1e-9


def test_csv_written_rows(tmp_path, fast_s2_log):
    from thermoadapt import CSV_COLUMNS, write_csv

    path = tmp_path / "log.csv"
    write_csv(fast_s2_log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + fast_s2_log.times.size
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == len(CSV_COLUMNS)
