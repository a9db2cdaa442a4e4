"""Integrator behavior: determinism, reductions, logging, and metrics."""

import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from thermoadapt import (
    CSV_COLUMNS,
    SCENARIO_NAMES,
    DivergenceError,
    ExperimentConfig,
    Network,
    NetworkEvaluator,
    RandomSource,
    control_input,
    desired,
    diffusion_coefficient,
    drift,
    lyapunov_value,
    metrics,
    plant_drift,
    run,
    sim,
    wiener_increment,
    write_csv,
)
from oracles import column

# small network keeps single steps ~100x cheaper than the benchmark shape
FAST = ExperimentConfig(horizon=2.0, hidden_layers=2, hidden_width=8, log_stride=5)

# every step logged, with a nonzero reference for the Lyapunov proxy
ROWS = replace(FAST, horizon=0.2, log_stride=1)
ROWS_THETA_REF = 0.5 * ROWS.initial_theta()

# a shell at the initial weight norm with a thin layer: every stochastic
# scenario fades outward increments and clips back onto the shell
TIGHT = replace(
    FAST,
    horizon=0.3,
    ball_radius=float(np.linalg.norm(FAST.initial_theta())),
    ball_layer=1e-3,
    log_stride=1,
)


@pytest.fixture(scope="module")
def fast_s2_log():
    return run(FAST, "S2", 3)


@pytest.fixture(scope="module")
def row_logs():
    return {sc: run(ROWS, sc, 5, theta_ref=ROWS_THETA_REF) for sc in SCENARIO_NAMES}


def test_run_is_deterministic(fast_s2_log):
    again = run(FAST, "S2", 3)
    assert np.array_equal(column(again, "x"), column(fast_s2_log, "x"))
    assert np.array_equal(again.final_theta, fast_s2_log.final_theta)
    assert again.sum_error_sq == fast_s2_log.sum_error_sq


def test_step_deterministic():
    one = replace(FAST, horizon=FAST.dt, log_stride=1)
    a, b = run(one, "S2", 5), run(one, "S2", 5)
    assert np.array_equal(column(a, "x"), column(b, "x"))
    assert np.array_equal(a.final_theta, b.final_theta)
    assert not np.array_equal(a.final_theta, one.initial_theta())


def test_diffusion_off_runs_are_seed_independent():
    a = run(FAST, "S1", 1)
    b = run(FAST, "S1", 2)
    assert np.array_equal(column(a, "x"), column(b, "x"))
    assert np.array_equal(column(a, "e"), column(b, "e"))
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
        times, states, errors = column(log, "t"), column(log, "x"), column(log, "e")
        diffusions = column(log, "diffusion")
        assert times.size == round(ROWS.horizon / ROWS.dt) + 1
        for r, t in enumerate(times):
            x, e = states[r], errors[r]
            assert np.array_equal(e, x - desired(t)[0])
            assert column(log, "e_norm")[r] == pytest.approx(np.linalg.norm(e), rel=1e-15, abs=0)
            # the weight law sees theta only through |theta|^2
            mu = law.mu(e, float(x @ x), column(log, "theta_norm")[r] ** 2)
            temp = column(log, "temperature")[r]
            assert temp == pytest.approx(max(float(e @ mu), 0.0), rel=1e-13, abs=0)
            assert diffusions[r] == pytest.approx(
                np.sqrt(gains.diffusion_gain * temp), rel=1e-15, abs=0
            )
        if scenario == "S1":
            assert np.all(diffusions == 0.0)


def test_last_row_follows_from_final_theta(row_logs):
    net_shape = ROWS.network_shape()
    for scenario, log in row_logs.items():
        x, e, theta = column(log, "x")[-1], column(log, "e")[-1], log.final_theta
        weight_norms = column(log, "theta_norm")
        assert weight_norms[-1] == np.linalg.norm(theta)
        assert weight_norms[0] == np.linalg.norm(ROWS.initial_theta())
        theta_err = ROWS_THETA_REF - theta
        assert column(log, "lyapunov_proxy")[-1] == lyapunov_value(
            float(e @ e), float(theta_err @ theta_err), ROWS.learning_rate
        )
        model = Network(net_shape, theta).forward(x)
        assert column(log, "func_err_norm")[-1] == pytest.approx(
            np.linalg.norm(plant_drift(x) - model), rel=1e-12, abs=0
        )


def test_step_reduces_to_projected_gradient_when_diffusion_off():
    # one S1 step: theta+ = theta0 + lr dt proj(theta0, drift), x+ = x0 + (f + u) dt
    cfg = replace(FAST, horizon=FAST.dt, log_stride=1)
    log = run(cfg, "S1", 1)
    ball, gains, law = cfg.ball(), cfg.gains_for("S1"), cfg.law_for("S1")
    assert gains.diffusion_gain == 0.0
    net = Network(cfg.network_shape(), cfg.initial_theta())
    x, theta = cfg.x0(), net.theta
    xd, xd_rate = desired(0.0)
    e = x - xd
    x_sq, theta_sq, e_sq = float(x @ x), float(theta @ theta), float(e @ e)
    mu = law.mu(e, x_sq, theta_sq)
    jte = NetworkEvaluator(net.shape).evaluate(theta, x[None], e[None])[1][0]
    rho = drift(law, gains, jte, theta, e_sq)
    expected = theta + gains.learning_rate * cfg.dt * ball.project(theta, rho)
    assert np.array_equal(log.final_theta, expected)
    u = control_input(gains, xd_rate, e, net.forward(x), mu)
    x_next = x + (plant_drift(x) + u) * cfg.dt
    assert np.allclose(column(log, "x")[1], x_next, rtol=1e-14, atol=0.0)

    # one S4 step adds lr proj(theta0, intensity dW), dW the path stream's
    # first draw; built in sim.run's order of operations, it is run's bit for bit
    seed = 2
    log = run(cfg, "S4", seed)
    gains, law = cfg.gains_for("S4"), cfg.law_for("S4")
    assert law.depends_on_weights
    intensity = diffusion_coefficient(gains, law.temperature(e, law.mu(e, x_sq, theta_sq)))
    assert intensity > 0.0
    lr = gains.learning_rate
    rho = drift(law, gains, jte, theta, e_sq)
    expected = theta + ball.project(theta, rho) * (lr * cfg.dt)
    dw = wiener_increment(RandomSource(seed), theta.size, cfg.dt) * intensity
    expected = expected + ball.project(theta, dw) * lr
    assert log.final_theta.tobytes() == expected.tobytes()


def test_step_rejects_nonpositive_dt():
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt"):
            replace(FAST, dt=dt)


def test_zero_horizon_logs_initial_state_only():
    cfg = replace(FAST, horizon=0.0)
    log = run(cfg, "S1", 0)
    assert log.rows.shape[0] == 1
    assert log.n_states == 1
    assert np.array_equal(column(log, "x")[0], cfg.x0())
    assert np.array_equal(cfg.initial_theta(), log.final_theta)


def test_log_grid_uniform_and_monotone(fast_s2_log):
    spacing = np.diff(column(fast_s2_log, "t"))
    assert np.all(spacing > 0)
    assert np.allclose(spacing, FAST.dt * FAST.log_stride, atol=1e-12)


def test_late_window_nan_for_short_horizon(fast_s2_log):
    assert not np.isnan(fast_s2_log.temp_mean_early)
    assert np.isnan(fast_s2_log.temp_mean_late)  # horizon < 25 s


def test_divergence_raises_with_partial_log():
    cfg = replace(FAST, dt=0.5, horizon=5.0)  # way past explicit-Euler stability
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as excinfo:
            run(cfg, "S1", 0)
    err = excinfo.value
    assert err.step_index >= 1
    assert err.partial_log is not None
    assert err.partial_log.rows.shape[0] >= 1
    # the message names the state component and the last finite norms
    message = str(err)
    assert message.startswith(f"non-finite state at step {err.step_index} ")
    assert "x[" in message and "last finite |x| = " in message


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weight_divergence_raises_next_step(monkeypatch, bad):
    # a non-finite Wiener increment at step k poisons theta only; the run
    # stops at step k + 1 and keeps the last finite weights
    k = 7
    calls = []
    wiener_increment = sim.wiener_increment

    def poisoned(rng, p, dt):
        dw = wiener_increment(rng, p, dt)
        if len(calls) == k:
            dw[3] = bad
        calls.append(dt)
        return dw

    monkeypatch.setattr(sim, "wiener_increment", poisoned)
    cfg = replace(FAST, horizon=0.02, log_stride=1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError) as excinfo:
            run(cfg, "S2", 0)
    err = excinfo.value
    assert err.step_index == k + 1
    assert len(calls) == k + 1
    log = err.partial_log
    assert log.n_states == k + 1
    assert log.rows.shape[0] == k + 1
    assert np.isfinite(log.final_theta).all()
    before = run(replace(cfg, horizon=k * cfg.dt), "S2", 0)
    assert np.array_equal(log.final_theta, before.final_theta)
    message = str(err)
    assert f"step {k + 1} " in message
    assert "non-finite weights" in message and "theta[" in message and "x[" not in message
    assert f"|theta| = {np.linalg.norm(log.final_theta):.6g}" in message


# a huge but finite control on the KICK_STEP-th call makes |x|^2 overflow
# while every entry of x stays finite
KICK_STEP = 4
KICKED = replace(FAST, horizon=0.05, log_stride=1)


def _kicked_run(monkeypatch, scenario):
    """The DivergenceError of a KICKED run, and the calls its control made."""
    calls = []

    def kicked(gains, xd_rate, e, phi, mu):
        u = control_input(gains, xd_rate, e, phi, mu)
        calls.append(mu)
        if len(calls) == KICK_STEP:
            u[0] = 1.5e157
        return u

    monkeypatch.setattr(sim, "control_input", kicked)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError) as excinfo:
            run(KICKED, scenario, 0)
    return excinfo.value, calls


@pytest.mark.parametrize("scenario", ["S1", "S2"])
def test_overflowing_state_norm_raises_at_once(monkeypatch, scenario):
    # the run stops at the kicked step and names the state, its largest
    # entry and a finite last |x|
    k = KICK_STEP
    err, calls = _kicked_run(monkeypatch, scenario)
    assert err.step_index == k
    assert len(calls) == k
    assert err.partial_log.rows.shape[0] == k
    message = str(err)
    assert message.startswith(f"non-finite state at step {k} ")
    assert "|x|^2 = inf, largest x[0] = 1.5" in message
    last = float(re.search(r"last finite \|x\| = (\S+),", message).group(1))
    assert np.isfinite(last)
    assert last == pytest.approx(np.linalg.norm(column(err.partial_log, "x")[-1]), rel=1e-5)


def _running_sum(values):
    """The values added in order to a running total that starts at 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


def _assert_statistics_describe_rows(log, config):
    # at stride 1 the rows are every state the run visited, so each statistic
    # is a reduction of its rows: exactly where a row holds the value that is
    # reduced, to round-off where the statistic reduces a squared norm and
    # the row holds the norm
    assert config.log_stride == 1 and log.rows.shape[0] == log.n_states
    times, temps = column(log, "t").tolist(), column(log, "temperature").tolist()
    e_norms, theta_norms = column(log, "e_norm"), column(log, "theta_norm")
    assert log.sup_error_norm == max(e_norms)
    func_errs = column(log, "func_err_norm").tolist()
    assert log.sum_func_err_sq == _running_sum(v * v for v in func_errs)
    for (lo, hi), mean in (((0.0, 5.0), log.temp_mean_early), ((25.0, 30.0), log.temp_mean_late)):
        window = [temp for t, temp in zip(times, temps) if lo <= t <= hi]
        if window:
            assert mean == _running_sum(window) / len(window)
        else:
            assert np.isnan(mean)
    assert log.sup_state_norm == pytest.approx(
        np.linalg.norm(column(log, "x"), axis=1).max(), rel=1e-14, abs=0
    )
    assert log.sum_error_sq == pytest.approx(_running_sum((e_norms**2).tolist()), rel=1e-13, abs=0)
    assert log.max_boundary_value == pytest.approx(
        theta_norms.max() ** 2 - config.ball_radius**2, rel=1e-13, abs=0
    )


def test_statistics_describe_logged_states_of_finished_run():
    # 26 s reaches into the late window
    config = replace(FAST, horizon=26.0, log_stride=1)
    log = run(config, "S2", 3)
    assert not np.isnan(log.temp_mean_late)
    _assert_statistics_describe_rows(log, config)


def test_statistics_describe_logged_states_of_diverged_run(monkeypatch):
    err, _ = _kicked_run(monkeypatch, "S2")
    assert err.partial_log.n_states == KICK_STEP
    _assert_statistics_describe_rows(err.partial_log, KICKED)


def test_overflowing_weights_clipped_onto_shell(monkeypatch):
    # a huge but finite Wiener entry at step k makes |theta|^2 overflow; the
    # clip puts the weights on the outer shell and the run goes on
    k = 7
    calls = []

    def huge(rng, p, dt):
        dw = wiener_increment(rng, p, dt)
        if len(calls) == k:
            dw[3] = 1e200
        calls.append(dt)
        return dw

    monkeypatch.setattr(sim, "wiener_increment", huge)
    cfg = replace(FAST, horizon=0.02, log_stride=1)
    with np.errstate(over="ignore"):
        log = run(cfg, "S2", 0)
    assert log.n_states == round(cfg.horizon / cfg.dt) + 1
    clips = column(log, "clip_flag")
    assert clips[k + 1] == 1 and clips[: k + 1].sum() == 0
    shell_sq = cfg.ball_radius**2 + cfg.ball_layer
    assert column(log, "theta_norm")[k + 1] ** 2 == pytest.approx(shell_sq, rel=1e-12)


def test_wiener_path_unchanged(monkeypatch):
    # sim.run opens one path stream and draws p values per step from it,
    # none when exploration is off
    sources = []
    source_cls = sim.RandomSource

    def recording_source(seed):
        sources.append(source_cls(seed))
        return sources[-1]

    monkeypatch.setattr(sim, "RandomSource", recording_source)
    cfg = replace(FAST, horizon=0.05)
    p = cfg.network_shape().param_count
    steps = round(cfg.horizon / cfg.dt)
    for scenario in SCENARIO_NAMES:
        sources.clear()
        run(cfg, scenario, 4)
        assert len(sources) == 1
        assert sources[0].draws == (0 if scenario == "S1" else p * steps)


def test_desired_on_time_grid_equals_pointwise_calls():
    # sim.run sums its time grid with cumsum and evaluates desired on blocks
    # of it; both must equal the running t += dt and the per-point calls
    dt, n_steps = 1e-3, 30_000
    grid = np.concatenate(([0.0], np.cumsum(np.full(n_steps, dt))))
    t = 0.0
    for i in range(n_steps + 1):
        assert grid[i] == t
        t += dt
    value, rate = desired(grid)
    for i, ti in enumerate(grid.tolist()):
        point_value, point_rate = desired(ti)
        assert value[:, i].tobytes() == point_value.tobytes()
        assert rate[:, i].tobytes() == point_rate.tobytes()


def test_theta_ref_of_another_shape_rejected_before_stepping(monkeypatch):
    # a (3,) reference used to fail in numpy broadcasting at step 0, and a
    # (p, 1) one with a TypeError from the Lyapunov proxy
    p = FAST.network_shape().param_count
    monkeypatch.setattr(sim, "desired", lambda t: pytest.fail("run stepped"))
    for bad in (np.zeros(3), np.zeros((p, 1))):
        expected = f"theta_ref has shape {bad.shape}, the weights ({p},)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            run(FAST, "S2", 0, theta_ref=bad)


def test_weights_never_leave_layered_region(fast_s2_log):
    ball = FAST.ball()
    assert fast_s2_log.max_boundary_value <= ball.layer + 1e-9


def test_temperature_bounded_by_error_envelope():
    # T <= |e|^2 * (q * B + s) with B the run maximum of the driving norm
    cfg = FAST
    for scenario, driver in (("S2", None), ("S3", "state"), ("S4", "weight")):
        log = run(cfg, scenario, 4)
        e_sq = column(log, "e_norm")**2
        if driver == "state":
            bound_factor = cfg.temp_quad_weight * np.max(
                np.sum(column(log, "x")**2, axis=1)
            ) + cfg.temp_scale
        elif driver == "weight":
            bound_factor = (
                cfg.temp_quad_weight * np.max(column(log, "theta_norm")**2) + cfg.temp_scale
            )
        else:
            bound_factor = cfg.temp_scale
        assert np.all(column(log, "temperature") <= e_sq * bound_factor + 1e-12)


# One Wiener path on a 0.125 ms grid drives every step size of a strong-order
# fit: a run at step dt sums the path's increments over blocks of dt / 0.125 ms.
PATH_DT = 1.25e-4
ORDER_DTS = (4e-3, 2e-3, 1e-3, 5e-4)


def _final_weights_on_path(monkeypatch, cfg, scenario, path, dt):
    block = round(dt / PATH_DT)
    steps = itertools.count()

    def path_increment(rng, p, step_dt):
        k = next(steps)
        return path[k * block:(k + 1) * block].sum(axis=0)

    monkeypatch.setattr(sim, "wiener_increment", path_increment)
    return run(replace(cfg, dt=dt), scenario, 0).final_theta


@pytest.mark.slow
@pytest.mark.parametrize("scenario, min_order", [
    ("S1", 0.9), ("S2", 0.9), ("S3", 0.9), ("S4", 0.5),
])
def test_strong_convergence_order(monkeypatch, scenario, min_order):
    # RMS |theta_dt(T) - theta_ref(T)| over seeds, theta_ref on the path's own
    # grid. The noise enters theta only; in S2 and S3 its intensity depends on
    # x alone, which carries no noise, so the Milstein correction vanishes and
    # Euler-Maruyama has strong order 1 (Kloeden & Platen 1992). In S4 T
    # depends on |theta|^2, so the order is 0.5 in the limit, but the
    # correction scales with q = 0.01. The fit reads about 1.2 for all four.
    cfg = replace(FAST, horizon=0.5)
    p = cfg.network_shape().param_count
    n_fine = round(cfg.horizon / PATH_DT)
    seeds = (0,) if scenario == "S1" else (0, 1, 2)
    err_sq = np.zeros(len(ORDER_DTS))
    for seed in seeds:
        path = np.sqrt(PATH_DT) * RandomSource(seed).standard_normal(n_fine * p)
        path = path.reshape(n_fine, p)
        ref = _final_weights_on_path(monkeypatch, cfg, scenario, path, PATH_DT)
        for k, dt in enumerate(ORDER_DTS):
            theta = _final_weights_on_path(monkeypatch, cfg, scenario, path, dt)
            err_sq[k] += float((theta - ref) @ (theta - ref))
    rms = np.sqrt(err_sq / len(seeds))
    order = np.polyfit(np.log(ORDER_DTS), np.log(rms), 1)[0]
    assert order >= min_order, f"observed strong order {order:.2f}, RMS errors {rms}"


def test_step_size_self_consistency():
    # deterministic run: halving dt moves the tracking RMS by well under 2%
    base = replace(FAST, horizon=10.0)
    fine = replace(base, dt=base.dt / 2)
    rms = []
    for cfg in (base, fine):
        log = run(cfg, "S1", 0)
        rms.append(np.sqrt(log.sum_error_sq / log.n_states))
    assert abs(rms[1] - rms[0]) / rms[0] < 0.02


# -- metrics -------------------------------------------------------------------


class _PerfectModel:
    """Duck-typed stand-in whose forward equals the plant drift at each row."""

    def forward(self, points):
        return np.array([plant_drift(pt) for pt in points])


def test_metrics_off_trajectory_zero_for_perfect_model(fast_s2_log, monkeypatch):
    monkeypatch.setattr(sim, "Network", lambda shape, theta: _PerfectModel())
    report = metrics(FAST, fast_s2_log)
    assert report.off_traj_rms == 0.0


def test_metrics_rms_values(fast_s2_log):
    report = metrics(FAST, fast_s2_log)
    assert report.rms_error == pytest.approx(
        np.sqrt(fast_s2_log.sum_error_sq / fast_s2_log.n_states)
    )
    assert report.rms_func_err == pytest.approx(
        np.sqrt(fast_s2_log.sum_func_err_sq / fast_s2_log.n_states)
    )


def test_metrics_test_points_reproducible(fast_s2_log):
    cfg = replace(FAST, offtraj_seed=99)
    a = metrics(cfg, fast_s2_log)
    b = metrics(cfg, fast_s2_log)
    assert a.off_traj_rms == b.off_traj_rms


def test_metrics_uses_configured_test_set(fast_s2_log):
    # count, range and seed of the test set all come from the config
    base = metrics(FAST, fast_s2_log).off_traj_rms
    for change in ({"offtraj_count": 10}, {"offtraj_low": -0.4}, {"offtraj_high": 0.6},
                   {"offtraj_seed": 99}):
        assert metrics(replace(FAST, **change), fast_s2_log).off_traj_rms != base


@pytest.mark.parametrize("layers, width", [(9, 10), (2, 48)], ids=["paper", "wide"])
def test_metrics_off_trajectory_matches_pointwise_forward(fast_s2_log, layers, width):
    # one forward call over all test points sums exactly like one call per point
    cfg = replace(FAST, hidden_layers=layers, hidden_width=width, offtraj_seed=42)
    net = Network(cfg.network_shape(), cfg.initial_theta())
    points = RandomSource(42).uniform(-0.5, 0.5, (90, 5))
    off_sq = 0.0
    for pt in points:
        diff = plant_drift(pt) - net.forward(pt)
        off_sq += float(diff @ diff)
    report = metrics(cfg, replace(fast_s2_log, final_theta=cfg.initial_theta()))
    assert report.off_traj_rms == np.sqrt(off_sq / 90)


def test_metrics_rejects_empty_log(fast_s2_log):
    empty = replace(fast_s2_log, n_states=0)
    with pytest.raises(ValueError):
        metrics(FAST, empty)


@pytest.mark.parametrize("edit", [
    lambda theta: theta[:1],
    lambda theta: theta[:-1],
    lambda theta: np.append(theta, 0.0),
    lambda theta: theta[None],
], ids=["one", "short", "long", "2-d"])
def test_metrics_rejects_weights_not_fitting_the_network(fast_s2_log, edit):
    # the evaluator would broadcast a size-1 theta over its weight buffer
    with pytest.raises(ValueError, match="shape needs"):
        metrics(FAST, replace(fast_s2_log, final_theta=edit(fast_s2_log.final_theta)))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run(FAST, "S9", 0)


def test_projection_clip_counted():
    # a ball that does not hold the initial weights is rejected up front
    with pytest.raises(ValueError, match="radius 0.5 .*norm is 6.18"):
        replace(FAST, ball_radius=0.5, ball_layer=0.01)
    # a shell right at the initial norm with a thin layer forces clips
    log = run(TIGHT, "S2", 0)
    assert log.clip_count > 0
    assert int(column(log, "clip_flag").sum()) == log.clip_count
    assert log.max_boundary_value <= TIGHT.ball_layer + 1e-9


# SHA-256 of a TIGHT run's rows, final weights, clip count and largest
# boundary value, recorded with the integrator that computed |theta|^2 in
# each law call; the loop that computes it once per step matches it.
TIGHT_SHA256 = {
    "S2": "8c6dc53d5163a0eaebfa232e4e2ae29fb3d7271bdca39a98da03f12d3c0b4bb0",
    "S3": "799cb96cdaee67c2fc2f3e43095588e2779b120c3bfbe5d53ba591d5019869a6",
    "S4": "efd6ab2673a0bd04aeb8874373f9ebd82c0b69e7ad972443dcbef770a4c87840",
}


@pytest.mark.parametrize("scenario", sorted(TIGHT_SHA256))
def test_fade_and_clip_branches_bitwise_pinned(scenario):
    # tests/test_golden.py never enters the boundary layer; this run fades
    # and clips about 30 times in its 300 steps
    log = run(TIGHT, scenario, 0)
    digest = hashlib.sha256()
    digest.update(log.rows.tobytes())
    digest.update(log.final_theta.tobytes())
    digest.update(f"{log.clip_count} {log.max_boundary_value.hex()}".encode())
    assert digest.hexdigest() == TIGHT_SHA256[scenario]


def test_csv_written_rows(tmp_path, fast_s2_log):
    path = tmp_path / "log.csv"
    write_csv(fast_s2_log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + fast_s2_log.rows.shape[0]
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == len(CSV_COLUMNS)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_csv_reads_back_log_rows_exactly(tmp_path, scenario):
    log = run(TIGHT, scenario, 0)
    assert log.clip_count > 0
    path = tmp_path / f"{scenario}.csv"
    write_csv(log, path)
    header, *lines = path.read_text(encoding="ascii").splitlines()
    assert tuple(header.split(",")) == CSV_COLUMNS
    # 17 significant digits read back to the same doubles, bit for bit
    loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert loaded.shape == log.rows.shape
    assert loaded.tobytes() == log.rows.tobytes()
    clip_cells = [line.split(",")[CSV_COLUMNS.index("clip_flag")] for line in lines]
    assert all(cell.isdigit() for cell in clip_cells)
    assert sum(map(int, clip_cells)) == log.clip_count
