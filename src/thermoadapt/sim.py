"""Euler-Maruyama integration of the coupled plant/weight system.

One step advances the plant state with the controller applied and the flat
weight vector with the projected drift and projected thermal-noise
increments:

    x+     = x + (f(x) + u) dt
    theta+ = theta + lr * proj(rho) dt + lr * proj(vs * dW)

with ``dW`` a Wiener increment, ``rho`` the energy-descent drift, and
``vs`` the temperature-scaled noise intensity. Both projections are taken
at the pre-step weights. If a step still overshoots the layered search
region, the weights are radially clipped back onto its outer shell and the
event is counted.

A run logs a decimated trajectory as one table whose columns are
``CSV_COLUMNS``, in that order. Every step writes one row of a per-step table
(|e|^2, |f - Phi|, |x|^2, T, |theta|^2, clip flag); when the log is built, that
table fills the time, norm, temperature, model-error and clip columns and is
reduced to the log's statistics (error sums, sup norms, window means, clips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SCENARIO_LAWS, ExperimentConfig
from .diagnostics import lyapunov_value
from .network import Network, NetworkEvaluator
from .numerics import RandomSource, wiener_increment
from .plant import STATE_DIM, control_input, desired, plant_drift
from .thermo import diffusion_coefficient, drift

__all__ = [
    "TrajectoryLog",
    "DivergenceError",
    "MetricsReport",
    "EARLY_WINDOW",
    "LATE_WINDOW",
    "run",
    "metrics",
    "write_csv",
    "CSV_COLUMNS",
]

# Columns of the logged trajectory table and of its CSV, in order.
CSV_COLUMNS = (
    "t",
    "x1", "x2", "x3", "x4", "x5",
    "e1", "e2", "e3", "e4", "e5",
    "e_norm",
    "theta_norm",
    "temperature",
    "diffusion",
    "lyapunov_proxy",
    "func_err_norm",
    "clip_flag",
)

# Windows (seconds) over which the run reports mean temperature, used to
# monitor the decay of exploration.
EARLY_WINDOW = (0.0, 5.0)
LATE_WINDOW = (25.0, 30.0)

# Steps whose desired trajectory run evaluates in one call; all 30 001 of a
# paper run would cost 2.4 MB.
_DESIRED_BLOCK = 1024


class DivergenceError(RuntimeError):
    """The state or the weights became non-finite during integration."""

    def __init__(self, message: str, step_index: int, time: float, partial_log: TrajectoryLog):
        super().__init__(message)
        self.step_index = step_index
        self.time = time
        self.partial_log = partial_log


def _divergence_message(
    step_index: int,
    time: float,
    x_new: np.ndarray,
    x_sq: float,
    theta_new: np.ndarray,
    theta_sq: float,
    last_x_sq: float,
    last_theta_sq: float,
) -> str:
    """Name what went non-finite in the stepped state and weights (the first
    non-finite entry, or the largest entry when only the squared norm
    overflowed) and the norms before the step, from their squares."""
    failed = {}
    for name, what, values, sq in (
        ("x", "state", x_new, x_sq), ("theta", "weights", theta_new, theta_sq)
    ):
        if math.isfinite(sq):
            continue
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            failed[what] = f"{name}[{bad[0]}] = {float(values[bad[0]])!r}"
        else:
            big = int(np.argmax(np.abs(values)))
            failed[what] = f"|{name}|^2 = {sq!r}, largest {name}[{big}] = {float(values[big])!r}"
    return (
        f"non-finite {' and '.join(failed)} at step {step_index} (t = {time:.6g} s): "
        f"{', '.join(failed.values())}; last finite |x| = {math.sqrt(last_x_sq):.6g}, "
        f"|theta| = {math.sqrt(last_theta_sq):.6g}"
    )


@dataclass
class TrajectoryLog:
    """Trajectory rows in ``CSV_COLUMNS`` order plus statistics. The statistics and the rows'
    time, norm, temperature, model-error and clip columns come from the run's per-step table."""

    rows: np.ndarray
    n_states: int
    sum_error_sq: float
    sum_func_err_sq: float
    sup_state_norm: float
    sup_error_norm: float
    temp_mean_early: float
    temp_mean_late: float
    clip_count: int
    max_boundary_value: float
    final_theta: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Tracking and function-approximation errors of one run."""

    rms_error: float
    rms_func_err: float
    off_traj_rms: float


def run(
    config: ExperimentConfig,
    scenario: str,
    seed: int,
    theta_ref: Optional[np.ndarray] = None,
) -> TrajectoryLog:
    """Integrate one scenario over the configured horizon.

    The weight path is driven by ``RandomSource(seed)``; the initial
    weights come from a separate source seeded by ``config.init_seed`` so
    runs differing only in ``seed`` share their initialization (and runs
    with exploration switched off do not consume the path stream at all).

    ``theta_ref`` is the reference for the logged Lyapunov proxy, shaped like
    the weights (zero vector when omitted). Raises :class:`DivergenceError`
    with the partial log attached if the state or the weights blow up; its
    message names the first non-finite entry and the last finite |x| and |theta|.
    """
    if scenario not in SCENARIO_LAWS:
        raise ValueError(f"unknown scenario {scenario!r}")
    ball = config.ball()
    gains = config.gains_for(scenario)
    law = config.law_for(scenario)
    theta = config.initial_theta()
    x = config.x0()
    if theta_ref is None:
        theta_ref = np.zeros(theta.size)
    elif np.shape(theta_ref) != theta.shape:
        raise ValueError(f"theta_ref has shape {np.shape(theta_ref)}, the weights {theta.shape}")
    rng = RandomSource(seed)
    evaluator = NetworkEvaluator(config.network_shape())

    dt = config.dt
    stride = config.log_stride
    n_steps = int(round(config.horizon / dt))
    n_rows = n_steps // stride + 1
    lr = gains.learning_rate
    explore = gains.diffusion_gain > 0.0

    rows = np.empty((n_rows, len(CSV_COLUMNS)))
    # State i's |e|^2, |f - Phi|, |x|^2, T, |theta|^2, and 1.0 if the step into it
    # clipped (also a step that diverges); _build_log lays it out and reduces it.
    steps = np.zeros((n_steps + 1, 6))
    # Summed in step order, so times[i] is the running t += dt bit for bit.
    times = np.zeros(n_steps + 1)
    np.cumsum(np.full(n_steps, dt), out=times[1:])
    # The scaled projected increment, the weights the step writes, a row's theta_ref - theta.
    increment = np.empty(theta.size)
    theta_next = np.empty(theta.size)
    theta_err = np.empty(theta.size)
    # |x|^2 and |theta|^2 of the current state, once per step.
    x_sq = float(x.dot(x))
    theta_sq = float(theta.dot(theta))

    i = 0

    def _build_log(rows_done: np.ndarray) -> TrajectoryLog:
        # Steps 0..i. np.cumsum adds in step order like a running total; np.sum
        # (pairwise) and the builtin sum (compensated) round otherwise. sqrt
        # and boundary_fn are monotone, rounding included: f(max) = max f.
        e_sqs, func_errs, x_sqs, temps, theta_sqs, clips = steps[:i + 1].T
        t_done = times[:i + 1]
        # Row r logs state r * stride and counts the clips since row r - 1.
        last = i - i % stride  # the last logged state
        rows_done[:, 0] = t_done[::stride]
        rows_done[:, 11] = np.sqrt(e_sqs[::stride])
        rows_done[:, 12] = np.sqrt(theta_sqs[::stride])
        rows_done[:, 13] = temps[::stride]
        rows_done[:, 16] = func_errs[::stride]
        rows_done[:, 17] = np.add.reduceat(clips[:last + 1], np.r_[0, 1:last + 1:stride])

        def temp_mean(lo: float, hi: float) -> float:
            window = temps[(lo <= t_done) & (t_done <= hi)]
            return float(np.cumsum(window)[-1] / window.size) if window.size else float("nan")

        return TrajectoryLog(
            rows=rows_done,
            n_states=i + 1,
            sum_error_sq=float(np.cumsum(e_sqs)[-1]),
            sum_func_err_sq=float(np.cumsum(func_errs * func_errs)[-1]),
            sup_state_norm=math.sqrt(x_sqs.max()),
            sup_error_norm=math.sqrt(e_sqs.max()),
            temp_mean_early=temp_mean(*EARLY_WINDOW),
            temp_mean_late=temp_mean(*LATE_WINDOW),
            clip_count=int(np.count_nonzero(steps[:, 5])),
            max_boundary_value=float(ball.boundary_fn(theta_sqs.max())),
            final_theta=theta.copy(),
        )

    while True:
        k = i % _DESIRED_BLOCK
        if k == 0:
            xd_block, rate_block = desired(times[i:i + _DESIRED_BLOCK])
        xd, xd_rate = xd_block[:, k], rate_block[:, k]

        # Per-state quantities, logged and used by the step.
        e = x - xd
        phi, jte = evaluator.evaluate(theta, x[None], e[None])
        phi, jte = phi[0], jte[0]
        e_sq = float(e.dot(e))
        mu = law.mu(e, x_sq, theta_sq)
        temp = law.temperature(e, mu)
        intensity = diffusion_coefficient(gains, temp)
        f_val = plant_drift(x)
        func_gap = f_val - phi
        func_err = math.sqrt(func_gap.dot(func_gap))
        steps[i, :5] = e_sq, func_err, x_sq, temp, theta_sq

        if i % stride == 0:
            out = rows[i // stride]
            out[1:6] = x
            out[6:11] = e
            out[14] = intensity
            np.subtract(theta_ref, theta, out=theta_err)
            out[15] = lyapunov_value(e_sq, float(theta_err.dot(theta_err)), lr)

        if i == n_steps:
            return _build_log(rows)

        # Euler-Maruyama update; both projections are taken at the pre-step
        # weights, and inside the ball they pass every increment through.
        x_new = x + (f_val + control_input(gains, xd_rate, e, phi, mu)) * dt
        inside = ball.is_inside(theta_sq)
        rho = drift(law, gains, jte, theta, e_sq)
        np.multiply(rho if inside else ball.project(theta, rho), lr * dt, out=increment)
        np.add(theta, increment, out=theta_next)
        if explore:
            dw = wiener_increment(rng, theta.size, dt)
            np.multiply(dw, intensity, out=dw)
            np.multiply(dw if inside else ball.project(theta, dw), lr, out=increment)
            np.add(theta_next, increment, out=theta_next)
        # One |theta|^2 of the stepped weights decides the clip and, when they
        # stay within the shell, serves the next step. A non-finite one fails
        # the shell test, so such weights are clipped and counted as before.
        theta_new = theta_next
        theta_sq = float(theta_next.dot(theta_next))
        if not ball.is_within_shell(theta_sq):
            theta_new, _ = ball.clip(theta_next, theta_sq)
            steps[i + 1, 5] = 1.0
            theta_sq = float(theta_new.dot(theta_new))
        # After the clip |theta|^2 is finite exactly when every entry is; |x|^2
        # can also overflow on finite entries. Either way the run ends here.
        x_sq = float(x_new.dot(x_new))
        if not (math.isfinite(x_sq) and math.isfinite(theta_sq)):
            message = _divergence_message(
                i + 1, times[i + 1], x_new, x_sq, theta_new, theta_sq, steps[i, 2], steps[i, 4]
            )
            partial = _build_log(rows[:i // stride + 1].copy())
            raise DivergenceError(message, i + 1, times[i + 1], partial)
        # The old weights' array takes the next step's weights.
        theta_next = theta
        x = x_new
        theta = theta_new
        i += 1


def metrics(config: ExperimentConfig, log: TrajectoryLog) -> MetricsReport:
    """Error metrics of a completed run of ``config``.

    Tracking and on-trajectory function errors are RMS values over every
    integration step (not just the decimated rows). The off-trajectory
    error evaluates the final weights, in one forward call, on the config's
    test set: ``offtraj_count`` points with coordinates uniform on
    ``[offtraj_low, offtraj_high)``, drawn from a fresh
    ``RandomSource(offtraj_seed)`` so that every run shares them. Final
    weights that do not fit the config's network are rejected.
    """
    if log.n_states < 1:
        raise ValueError("metrics requires a non-empty log")
    net_final = Network(config.network_shape(), log.final_theta)
    points = RandomSource(config.offtraj_seed).uniform(
        config.offtraj_low, config.offtraj_high, (config.offtraj_count, STATE_DIM)
    )
    model = net_final.forward(points)
    off_sq = 0.0
    for pt, phi in zip(points, model):
        diff = plant_drift(pt) - phi
        off_sq += float(diff @ diff)
    return MetricsReport(
        rms_error=float(np.sqrt(log.sum_error_sq / log.n_states)),
        rms_func_err=float(np.sqrt(log.sum_func_err_sq / log.n_states)),
        off_traj_rms=float(np.sqrt(off_sq / config.offtraj_count)),
    )


# Rows write_csv converts to Python floats at once; all of them would cost 0.6 kB a row.
_CSV_BLOCK = 1024


def write_csv(log: TrajectoryLog, path) -> None:
    """Write the decimated trajectory rows as CSV.

    Every cell carries 17 significant digits, so equal runs produce
    byte-identical files and each value reads back exactly. ``clip_flag``
    counts shell clips since the previous row and prints as an integer.
    """
    line = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, log.rows.shape[0], _CSV_BLOCK):
            for values in log.rows[start:start + _CSV_BLOCK].tolist():
                fh.write(line % tuple(values))
