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

A run logs a decimated trajectory but accumulates error metrics at full
step resolution.
"""

from __future__ import annotations

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

# Windows (seconds) over which the run reports mean temperature, used to
# monitor the decay of exploration.
EARLY_WINDOW = (0.0, 5.0)
LATE_WINDOW = (25.0, 30.0)


class DivergenceError(RuntimeError):
    """A state component became non-finite during integration."""

    def __init__(self, step_index: int, time: float, partial_log: TrajectoryLog):
        super().__init__(
            f"non-finite state at step {step_index} (t = {time:.6g} s)"
        )
        self.step_index = step_index
        self.time = time
        self.partial_log = partial_log


@dataclass
class TrajectoryLog:
    """Decimated trajectory rows plus full-resolution accumulators."""

    scenario: str
    seed: int
    dt: float
    stride: int
    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    error_norms: np.ndarray
    weight_norms: np.ndarray
    temperatures: np.ndarray
    diffusions: np.ndarray
    lyapunov_proxies: np.ndarray
    func_err_norms: np.ndarray
    clip_flags: np.ndarray
    n_states: int
    sum_error_sq: float
    sum_func_err_sq: float
    sup_state_norm: float
    sup_error_norm: float
    temp_mean_early: float
    temp_mean_late: float
    clip_count: int
    max_boundary_value: float
    initial_theta: np.ndarray
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
    log attached if the state blows up.
    """
    if scenario not in SCENARIO_LAWS:
        raise ValueError(f"unknown scenario {scenario!r}")
    shape = config.network_shape()
    ball = config.ball()
    gains = config.gains_for(scenario)
    law = config.law_for(scenario)
    theta0 = config.initial_theta()
    theta = theta0.copy()
    x = config.x0()
    if theta_ref is None:
        theta_ref = np.zeros(theta.size)
    rng = RandomSource(seed)
    evaluator = NetworkEvaluator(shape)

    dt = config.dt
    stride = config.log_stride
    n_steps = int(round(config.horizon / dt))
    n_rows = n_steps // stride + 1

    times = np.empty(n_rows)
    states = np.empty((n_rows, STATE_DIM))
    errors = np.empty((n_rows, STATE_DIM))
    error_norms = np.empty(n_rows)
    weight_norms = np.empty(n_rows)
    temperatures = np.empty(n_rows)
    diffusions = np.empty(n_rows)
    lyapunov_proxies = np.empty(n_rows)
    func_err_norms = np.empty(n_rows)
    clip_flags = np.zeros(n_rows, dtype=np.int64)

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
    t = 0.0

    def _build_log(rows_filled: int) -> TrajectoryLog:
        early = temp_sums[0] / temp_counts[0] if temp_counts[0] else float("nan")
        late = temp_sums[1] / temp_counts[1] if temp_counts[1] else float("nan")
        return TrajectoryLog(
            scenario=scenario,
            seed=seed,
            dt=dt,
            stride=stride,
            times=times[:rows_filled].copy(),
            states=states[:rows_filled].copy(),
            errors=errors[:rows_filled].copy(),
            error_norms=error_norms[:rows_filled].copy(),
            weight_norms=weight_norms[:rows_filled].copy(),
            temperatures=temperatures[:rows_filled].copy(),
            diffusions=diffusions[:rows_filled].copy(),
            lyapunov_proxies=lyapunov_proxies[:rows_filled].copy(),
            func_err_norms=func_err_norms[:rows_filled].copy(),
            clip_flags=clip_flags[:rows_filled].copy(),
            n_states=i + 1,
            sum_error_sq=sum_error_sq,
            sum_func_err_sq=sum_func_err_sq,
            sup_state_norm=sup_state_norm,
            sup_error_norm=sup_error_norm,
            temp_mean_early=early,
            temp_mean_late=late,
            clip_count=clip_count,
            max_boundary_value=float(max_boundary_value),
            initial_theta=theta0.copy(),
            final_theta=theta.copy(),
        )

    while True:
        # Per-state quantities, logged and used by the step. phi and jac are
        # views into the evaluator's buffers, valid until its next call.
        phi, jac = evaluator.evaluate(theta, x)
        xd, xd_rate = desired(t)
        e = x - xd
        mu = law.mu(x, theta, e)
        temp = law.temperature(e, mu)
        intensity = diffusion_coefficient(gains, temp)
        f_val = plant_drift(x)
        func_err = float(np.linalg.norm(f_val - phi))

        e_sq = float(e @ e)
        sum_error_sq += e_sq
        sum_func_err_sq += func_err * func_err
        sup_state_norm = max(sup_state_norm, float(np.linalg.norm(x)))
        sup_error_norm = max(sup_error_norm, float(np.sqrt(e_sq)))
        if EARLY_WINDOW[0] <= t <= EARLY_WINDOW[1]:
            temp_sums[0] += temp
            temp_counts[0] += 1
        if LATE_WINDOW[0] <= t <= LATE_WINDOW[1]:
            temp_sums[1] += temp
            temp_counts[1] += 1
        max_boundary_value = max(max_boundary_value, ball.boundary_fn(theta))

        if i % stride == 0:
            times[row] = t
            states[row] = x
            errors[row] = e
            error_norms[row] = np.sqrt(e_sq)
            weight_norms[row] = np.linalg.norm(theta)
            temperatures[row] = temp
            diffusions[row] = intensity
            lyapunov_proxies[row] = lyapunov_value(e, theta_ref - theta, gains.learning_rate)
            func_err_norms[row] = func_err
            clip_flags[row] = clips_since_row
            clips_since_row = 0
            row += 1

        if i == n_steps:
            return _build_log(row)

        # Euler-Maruyama update; both projections are taken at the pre-step weights.
        x_new = x + (f_val + control_input(gains, xd_rate, e, phi, mu)) * dt
        rho = drift(law, gains, jac, x, theta, e)
        theta_new = theta + (gains.learning_rate * dt) * ball.project(theta, rho)
        if gains.diffusion_gain > 0.0:
            dw = wiener_increment(rng, theta.size, dt)
            theta_new = theta_new + gains.learning_rate * ball.project(theta, intensity * dw)
        theta_new, clipped = ball.clip(theta_new)
        if clipped:
            clip_count += 1
            clips_since_row += 1
        if not (np.isfinite(x_new).all() and np.isfinite(theta_new).all()):
            raise DivergenceError(
                step_index=i + 1, time=t + dt, partial_log=_build_log(row)
            )
        x = x_new
        theta = theta_new
        i += 1
        t += dt


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
    coordinates uniform on ``[low, high)`` drawn from ``rng``; pass a
    freshly seeded source to share the test set across runs.
    """
    if log.n_states < 1:
        raise ValueError("metrics requires a non-empty log")
    points = rng.uniform(low, high, (count, STATE_DIM))
    off_sq = 0.0
    for pt in points:
        diff = plant_drift(pt) - net_final.forward(pt)
        off_sq += float(diff @ diff)
    return MetricsReport(
        rms_error=float(np.sqrt(log.sum_error_sq / log.n_states)),
        rms_func_err=float(np.sqrt(log.sum_func_err_sq / log.n_states)),
        off_traj_rms=float(np.sqrt(off_sq / count)),
    )


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


def write_csv(log: TrajectoryLog, path) -> None:
    """Write the decimated trajectory rows as CSV.

    Floats carry 17 significant digits so equal runs produce byte-identical
    files. ``clip_flag`` counts shell clips since the previous row.
    """
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in range(log.times.size):
            vals = [
                log.times[r],
                *log.states[r],
                *log.errors[r],
                log.error_norms[r],
                log.weight_norms[r],
                log.temperatures[r],
                log.diffusions[r],
                log.lyapunov_proxies[r],
                log.func_err_norms[r],
            ]
            fields = [f"{v:.17g}" for v in vals]
            fields.append(str(int(log.clip_flags[r])))
            fh.write(",".join(fields) + "\n")
