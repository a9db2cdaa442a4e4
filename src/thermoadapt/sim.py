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
``CSV_COLUMNS``, in that order, and accumulates error metrics at full step
resolution.
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
    theta_new: np.ndarray,
    x_norm: float,
    theta_norm: float,
) -> Optional[str]:
    """Name the first non-finite entry of the stepped state and of the
    stepped weights, and the norms before the step; None when every entry
    is finite (a squared norm overflowed)."""
    failed = {}
    for name, what, values in (("x", "state", x_new), ("theta", "weights", theta_new)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            failed[what] = f"{name}[{bad[0]}] = {float(values[bad[0]])!r}"
    if not failed:
        return None
    return (
        f"non-finite {' and '.join(failed)} at step {step_index} (t = {time:.6g} s): "
        f"{', '.join(failed.values())}; last finite |x| = {x_norm:.6g}, "
        f"|theta| = {theta_norm:.6g}"
    )


@dataclass
class TrajectoryLog:
    """Trajectory rows in ``CSV_COLUMNS`` order plus full-resolution accumulators."""

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

    ``theta_ref`` is the reference for the logged Lyapunov proxy (zero
    vector when omitted). Raises :class:`DivergenceError` with the partial
    log attached if the state or the weights blow up; its message names the
    first non-finite entry and the last finite |x| and |theta|.
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
    rng = RandomSource(seed)
    evaluator = NetworkEvaluator(config.network_shape())

    dt = config.dt
    stride = config.log_stride
    n_steps = int(round(config.horizon / dt))
    n_rows = n_steps // stride + 1
    lr = gains.learning_rate
    explore = gains.diffusion_gain > 0.0
    radius_sq = ball.radius * ball.radius

    rows = np.empty((n_rows, len(CSV_COLUMNS)))
    # Summed in step order, so times[i] is the running t += dt bit for bit.
    times = np.zeros(n_steps + 1)
    np.cumsum(np.full(n_steps, dt), out=times[1:])
    # The scaled projected increment, and the weights the step writes.
    increment = np.empty(theta.size)
    theta_next = np.empty(theta.size)
    # |x|^2 and |theta|^2 of the current state, once per step.
    x_sq = float(x.dot(x))
    theta_sq = float(theta.dot(theta))

    sum_error_sq = 0.0
    sum_func_err_sq = 0.0
    sup_state_norm = 0.0
    sup_error_norm = 0.0
    temp_sums = [0.0, 0.0]
    temp_counts = [0, 0]
    clip_count = 0
    clips_since_row = 0
    max_boundary_value = -np.inf
    row = 0
    i = 0

    def _build_log(rows_done: np.ndarray) -> TrajectoryLog:
        early = temp_sums[0] / temp_counts[0] if temp_counts[0] else float("nan")
        late = temp_sums[1] / temp_counts[1] if temp_counts[1] else float("nan")
        return TrajectoryLog(
            rows=rows_done,
            n_states=i + 1,
            sum_error_sq=sum_error_sq,
            sum_func_err_sq=sum_func_err_sq,
            sup_state_norm=sup_state_norm,
            sup_error_norm=sup_error_norm,
            temp_mean_early=early,
            temp_mean_late=late,
            clip_count=clip_count,
            max_boundary_value=float(max_boundary_value),
            final_theta=theta.copy(),
        )

    while True:
        k = i % _DESIRED_BLOCK
        if k == 0:
            xd_block, rate_block = desired(times[i:i + _DESIRED_BLOCK])
        t = float(times[i])
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

        e_norm = math.sqrt(e_sq)
        x_norm = math.sqrt(x_sq)
        theta_norm = math.sqrt(theta_sq)
        sum_error_sq += e_sq
        sum_func_err_sq += func_err * func_err
        sup_state_norm = max(sup_state_norm, x_norm)
        sup_error_norm = max(sup_error_norm, e_norm)
        if EARLY_WINDOW[0] <= t <= EARLY_WINDOW[1]:
            temp_sums[0] += temp
            temp_counts[0] += 1
        if LATE_WINDOW[0] <= t <= LATE_WINDOW[1]:
            temp_sums[1] += temp
            temp_counts[1] += 1
        max_boundary_value = max(max_boundary_value, theta_sq - radius_sq)

        if i % stride == 0:
            out = rows[row]
            out[0] = t
            out[1:6] = x
            out[6:11] = e
            out[11] = e_norm
            out[12] = theta_norm
            out[13] = temp
            out[14] = intensity
            out[15] = lyapunov_value(e, theta_ref - theta, lr)
            out[16] = func_err
            out[17] = clips_since_row
            clips_since_row = 0
            row += 1

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
            theta_new, _ = ball.clip(theta_next)
            clip_count += 1
            clips_since_row += 1
            theta_sq = float(theta_new.dot(theta_new))
        # After the clip |theta|^2 is finite exactly when every entry is; an
        # overflowing |x|^2 is told from a non-finite entry in the check.
        x_sq = float(x_new.dot(x_new))
        if not (math.isfinite(x_sq) and math.isfinite(theta_sq)):
            message = _divergence_message(
                i + 1, t + dt, x_new, theta_new, x_norm, theta_norm
            )
            if message is not None:
                raise DivergenceError(message, i + 1, t + dt, _build_log(rows[:row].copy()))
        # The old weights' array takes the next step's weights.
        theta_next = theta
        x = x_new
        theta = theta_new
        i += 1


def metrics(
    log: TrajectoryLog,
    net_final: Network,
    rng: RandomSource,
    count: int = 90,
    low: float = -0.5,
    high: float = 0.5,
) -> MetricsReport:
    """Error metrics of a completed run.

    Tracking and on-trajectory function errors are RMS values over every
    integration step (not just the decimated rows). The off-trajectory
    error evaluates the final weights on ``count`` random points with
    coordinates uniform on ``[low, high)`` drawn from ``rng``, in one
    forward call over the rows of the point array; pass a freshly seeded
    source to share the test set across runs.
    """
    if log.n_states < 1:
        raise ValueError("metrics requires a non-empty log")
    points = rng.uniform(low, high, (count, STATE_DIM))
    model = net_final.forward(points)
    off_sq = 0.0
    for pt, phi in zip(points, model):
        diff = plant_drift(pt) - phi
        off_sq += float(diff @ diff)
    return MetricsReport(
        rms_error=float(np.sqrt(log.sum_error_sq / log.n_states)),
        rms_func_err=float(np.sqrt(log.sum_func_err_sq / log.n_states)),
        off_traj_rms=float(np.sqrt(off_sq / count)),
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
