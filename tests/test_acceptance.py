"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

The heavyweight criteria share a session battery of full-length runs at the
benchmark defaults (all four scenarios, seeds 0..99, 30 s at 1 ms steps).
Criteria 3-5 use the first 30 seeds; criterion 8 uses all 100. Run with
``pytest tests/test_acceptance.py -v -rP`` to see the per-criterion lines.

Three checks are expected to be red on this implementation; their
docstrings carry the measured numbers and the causal analysis. They encode
comparison targets that the control law, as specified, does not meet; they
are kept failing rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from thermoadapt import (
    ExperimentConfig,
    LyapunovConstants,
    NetworkShape,
    RandomSource,
    Network,
    escape_risk,
    he_init,
    lyapunov_value,
    run,
    wiener_increment,
)
from thermoadapt.cli import build_summary, run_batch
from oracles import column, finite_diff_jacobian

BATTERY_SEEDS = 100
TREND_SEEDS = 30
WORKERS = 2


def gate(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def battery():
    """Full-length runs, all scenarios x 100 seeds, summaries only."""
    config = ExperimentConfig(seeds=tuple(range(BATTERY_SEEDS)), lyapunov_reference="zero")
    t0 = time.perf_counter()
    results = run_batch(config, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] battery: {len(results)} runs in {elapsed/60:.1f} min "
          f"({WORKERS} workers)")
    return config, results


@pytest.fixture(scope="session")
def trend(battery):
    """The summary rows of the first TREND_SEEDS seeds, by scenario."""
    config, results = battery
    rows = build_summary([r for r in results if r.seed < TREND_SEEDS], config.scenarios)
    return {row.scenario: row for row in rows}


@pytest.mark.slow
def test_criterion_1_jacobian_oracle():
    """Analytic weight Jacobian vs central differences on 20 random nets."""
    rng = RandomSource(314159)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 20:
        k = int(rng.uniform(0, 4, ()))
        hidden = tuple(int(rng.uniform(1, 8, ())) for _ in range(k))
        shape = NetworkShape(
            input_size=int(rng.uniform(1, 6, ())),
            hidden_sizes=hidden,
            output_size=int(rng.uniform(1, 6, ())),
        )
        if shape.param_count > 200:
            continue
        checked += 1
        net = he_init(shape, rng)
        x = rng.standard_normal(shape.input_size)
        jac = net.weight_jacobian(x)
        ref = finite_diff_jacobian(
            lambda th: Network(shape, th).forward(x), net.theta, h=1e-6
        )
        worst = max(worst, float(np.max(np.abs(jac - ref)) / max(np.max(np.abs(ref)), 1e-12)))
    elapsed = time.perf_counter() - t0
    gate(
        "criterion 1 (jacobian oracle)",
        worst <= 1e-5 and elapsed < 30.0,
        f"max relative error {worst:.2e} over {checked} nets in {elapsed:.1f} s",
    )


@pytest.mark.slow
def test_criterion_2_taylor_remainder_slope():
    """First-order remainder scales quadratically in the step size."""
    rng = RandomSource(271828)
    shape = NetworkShape(5, (8, 8), 5)
    scales = np.logspace(-3, -1, 9)
    slopes = []
    for _ in range(10):
        net = he_init(shape, rng)
        x = rng.standard_normal(5)
        d = rng.standard_normal(shape.param_count)
        d /= np.linalg.norm(d)
        base = net.forward(x)
        jac = net.weight_jacobian(x)
        remainder = [
            np.linalg.norm(Network(shape, net.theta + s * d).forward(x) - base - jac @ (s * d))
            for s in scales
        ]
        slopes.append(np.polyfit(np.log(scales), np.log(remainder), 1)[0])
    mean_slope = float(np.mean(slopes))
    gate(
        "criterion 2 (taylor remainder)",
        abs(mean_slope - 2.0) <= 0.1,
        f"mean log-log slope {mean_slope:.3f} over 10 directions",
    )


@pytest.mark.slow
def test_criterion_3_projection_safety(battery):
    """Weights never leave the layered region; zero shell clips at defaults."""
    config, results = battery
    layer = config.ball_layer
    subset = [r for r in results if r.seed < TREND_SEEDS]
    worst_boundary = max(r.max_boundary_value for r in subset)
    clips = sum(r.clip_count for r in subset)
    gate(
        "criterion 3 (projection safety)",
        worst_boundary <= layer + 1e-9 and clips == 0,
        f"max boundary value {worst_boundary:.3g} (layer {layer}), "
        f"total clips {clips} over {len(subset)} runs",
    )


@pytest.mark.slow
def test_criterion_4a_baseline_tracking_band(trend):
    """Baseline mean tracking RMS lands in the expected order of magnitude."""
    mean = trend["S1"].rms_error_mean
    gate(
        "criterion 4a (baseline band)",
        0.037 <= mean <= 0.147,
        f"S1 mean tracking RMS {mean:.4f}, band [0.037, 0.147]",
    )


@pytest.mark.slow
def test_criterion_4b_tracking_improvement(trend):
    """Each stochastic variant cuts mean tracking RMS by at least 5%."""
    imps = {s: trend[s].improvement_rms_error for s in ("S2", "S3", "S4")}
    gate(
        "criterion 4b (tracking improvement)",
        all(v >= 5.0 for v in imps.values()),
        "improvements " + ", ".join(f"{s} {v:+.1f}%" for s, v in imps.items()),
    )


@pytest.mark.slow
def test_criterion_4c_function_error_improvement(trend):
    """Comparison target: >= 5% mean on-trajectory model-error improvement.

    EXPECTED RED. Measured improvement is ~0-1% for every stochastic
    variant. Cause: the controller's thermal compensation term (coefficient
    (p+1)/2 * learning_rate * diffusion_gain = 14.94 at the default sizes,
    i.e. ~134*e extra feedback under the error-proportional law) suppresses
    the closed-loop tracking error ~2.4x in the stochastic variants. That
    same error is both the learning signal of the weight update and the
    argument of the temperature law, so adaptation slows and exploration
    shrinks together, and the learned-model quality lands where the
    baseline's does. A diagnostic variant without the compensation term
    reproduces 15-35% improvements here, and the reference comparison's own
    numbers (model-error to tracking-error ratio ~ control_gain for every
    variant, not only the baseline) are consistent only with that variant;
    the control law is pinned with the term, so this target is kept red
    rather than the law or the threshold being quietly changed.
    """
    imps = {s: trend[s].improvement_rms_func_err for s in ("S2", "S3", "S4")}
    gate(
        "criterion 4c (function-error improvement)",
        all(v >= 5.0 for v in imps.values()),
        "improvements " + ", ".join(f"{s} {v:+.1f}%" for s, v in imps.items()),
    )


@pytest.mark.slow
def test_criterion_4d_off_trajectory_non_regression(trend):
    """Comparison target: off-trajectory model error does not regress.

    EXPECTED RED (marginal). The off-trajectory outcome is dominated by the
    luck of the shared weight initialization: the deterministic baseline
    preserves initialization quality while the stochastic variants converge
    to a common level (~5.3-5.6 here) regardless of it. Across sampled
    initialization seeds the improvement swings from -1% to +15%; under
    this package's fixed default initialization seed (0) the baseline
    happens to generalize unusually well and the variants miss the bar by
    a fraction of a percent. The initialization seed was fixed a priori
    and is not tuned to the outcome in either direction.
    """
    imps = {s: trend[s].improvement_off_traj for s in ("S2", "S3", "S4")}
    gate(
        "criterion 4d (off-trajectory non-regression)",
        all(v >= 0.0 for v in imps.values()),
        "improvements " + ", ".join(f"{s} {v:+.2f}%" for s, v in imps.items()),
    )


@pytest.mark.slow
def test_criterion_5_steady_state_consistency(battery, trend):
    """Baseline tracking RMS ~ model-error RMS / control gain (factor 2)."""
    config, _ = battery
    rms_e = trend["S1"].rms_error_mean
    rms_f = trend["S1"].rms_func_err_mean
    ratio = rms_e * config.control_gain / rms_f
    gate(
        "criterion 5 (steady-state consistency)",
        0.5 <= ratio <= 2.0,
        f"rms_e * k / rms_f = {ratio:.3f} (rms_e {rms_e:.4f}, rms_f {rms_f:.4f})",
    )


@pytest.mark.slow
def test_criterion_6_stochastic_sanity():
    """Wiener variance within 5% of dt; diffusion-off runs seed-independent."""
    rng = RandomSource(555)
    dt = 1e-3
    draws = np.concatenate([wiener_increment(rng, 995, dt) for _ in range(101)])
    var_ok = 0.95 * dt < draws.var() < 1.05 * dt

    config = ExperimentConfig(lyapunov_reference="zero")
    log_a = run(config, "S1", 12345)
    log_b = run(config, "S1", 98765)
    identical = (
        np.array_equal(column(log_a, "x"), column(log_b, "x"))
        and np.array_equal(column(log_a, "e"), column(log_b, "e"))
        and np.array_equal(log_a.final_theta, log_b.final_theta)
        and log_a.sum_error_sq == log_b.sum_error_sq
    )
    gate(
        "criterion 6 (stochastic sanity)",
        var_ok and identical,
        f"wiener variance {draws.var():.3e} vs dt {dt:.0e} over {draws.size} draws; "
        f"diffusion-off bitwise identical: {identical}",
    )


@pytest.mark.slow
def test_criterion_7_lyapunov_algebra():
    """Rayleigh sandwich on 1e4 samples; escape risk against a re-derivation."""
    rng = RandomSource(777)
    sandwich_ok = True
    for _ in range(10_000):
        lr = float(rng.uniform(0.05, 20.0, ()))
        e = rng.standard_normal(5)
        te = rng.standard_normal(7)
        z_sq = float(e @ e + te @ te)
        v = lyapunov_value(e, te, lr)
        a1 = 0.5 * min(1.0, 1.0 / lr)
        a2 = 0.5 * max(1.0, 1.0 / lr)
        if not (a1 * z_sq <= v * (1 + 1e-12) and v <= a2 * z_sq * (1 + 1e-12)):
            sandwich_ok = False
            break

    # independent re-derivation: cubic root for the polynomial inverse
    def reference_risk(lr, b0, b1, b2, a0c, a1c, a2c, xd, level, v0, t):
        alpha1 = 0.5 * min(1.0, 1.0 / lr)
        alpha2 = 0.5 * max(1.0, 1.0 / lr)
        y = b0 - b2
        roots = np.roots([a2c, 2 * a2c * xd + a1c, a2c * xd * xd + a1c * xd + a0c, -y])
        real = [r.real for r in roots if abs(r.imag) < 1e-10 and r.real >= 0]
        radius = min(real)
        return (
            v0 / (alpha1 * radius**2)
            + v0 / level * math.exp(-b1 * t)
            + alpha2 * b1 / (level * b2)
        )

    params = dict(
        learning_rate=1.0, b0=10.0, b1=0.01, b2=0.5,
        rho_a0=1.0, rho_a1=1.0, rho_a2=1.0, xd_bound=3.3166, level=0.05,
    )
    constants = LyapunovConstants(**params)
    formula_ok = True
    monotone_ok = True
    for v0 in (0.0, 0.01, 0.04):
        prev = None
        for t in np.linspace(0.0, 300.0, 40):
            mine = escape_risk(constants, v0, float(t))
            ref = reference_risk(
                params["learning_rate"], params["b0"], params["b1"], params["b2"],
                params["rho_a0"], params["rho_a1"], params["rho_a2"],
                params["xd_bound"], params["level"], v0, float(t),
            )
            if not math.isclose(mine, ref, rel_tol=1e-9):
                formula_ok = False
            if prev is not None and mine > prev + 1e-15:
                monotone_ok = False
            prev = mine
    gate(
        "criterion 7 (lyapunov algebra)",
        sandwich_ok and formula_ok and monotone_ok,
        f"sandwich {sandwich_ok}, formula match {formula_ok}, nonincreasing {monotone_ok}",
    )


@pytest.mark.slow
def test_criterion_8_boundedness_in_probability(battery):
    """Every seeded run finishes the horizon with bounded state and error."""
    _, results = battery
    complete = all(not r.diverged for r in results)
    sup_x = max(r.sup_state_norm for r in results)
    sup_e = max(r.sup_error_norm for r in results)
    gate(
        "criterion 8 (boundedness)",
        complete and sup_x <= 50.0 and sup_e <= 10.0,
        f"{len(results)} runs complete: {complete}, sup|x| {sup_x:.2f} (<=50), "
        f"sup|e| {sup_e:.2f} (<=10)",
    )


@pytest.mark.slow
def test_criterion_8_temperature_decay(battery):
    """Comparison target: late temperature < 10% of early for 90% of runs.

    EXPECTED RED for the error- and state-scaled laws. Measured late/early
    window ratios concentrate at 0.08-0.11, i.e. exactly at the threshold:
    the early window is dominated by the fixed initial-transient spike and
    the late level tracks the residual error the network never learns away
    (the same suppressed-learning mechanism described in criterion 4c; the
    weight-scaled law passes because its slightly stronger compensation
    lowers the late error a little further). With learning improvements of
    ~20% the late level would sit 2-3x lower and this bar would clear; at
    the measured ~0-1% it cannot, so the threshold is left as stated.
    """
    _, results = battery
    fracs = {}
    for scenario in ("S2", "S3", "S4"):
        ratios = [
            r.temp_mean_late / r.temp_mean_early
            for r in results
            if r.scenario == scenario and not r.diverged
        ]
        fracs[scenario] = float(np.mean([ratio < 0.1 for ratio in ratios]))
    gate(
        "criterion 8 (temperature decay)",
        all(v >= 0.9 for v in fracs.values()),
        "fraction of runs with late/early < 0.1: "
        + ", ".join(f"{s} {v:.0%}" for s, v in fracs.items()),
    )
