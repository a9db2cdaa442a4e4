"""Benchmark plant, desired trajectory, and the compensating controller.

The plant is a five-state system ``dx/dt = f(x) + g(x) u`` with identity
control effectiveness. The drift ``f`` is known only to the integrator and
the error metrics; the controller and the weight update see the state
alone.
"""

from __future__ import annotations

import numpy as np

from .thermo import Gains

__all__ = [
    "STATE_DIM",
    "X0_DEFAULT",
    "plant_drift",
    "desired",
    "tracking_error",
    "control_input",
]

STATE_DIM = 5

X0_DEFAULT = np.array([0.0, -1.0, 3.0, -3.0, 3.0])


def plant_drift(x: np.ndarray) -> np.ndarray:
    """Drift field of the five-state benchmark plant."""
    x = np.asarray(x, dtype=float)
    if x.shape != (STATE_DIM,):
        raise ValueError(f"state has shape {x.shape}, expected ({STATE_DIM},)")
    x1, x2, x3, x4, x5 = x
    return np.array(
        [
            5.0 * np.tanh(50.0 * x1) * x5 * x5 + np.cos(x4),
            np.cos(20.0 * x3) + 2.0 * np.sin(x1 * x2) * np.sin(x4 * x5),
            10.0 * np.exp(-25.0 * x4 * x4) * x3 - 0.1 * x3**3,
            2.0 * np.sin(15.0 * (x1 * x5 - x2 * x3)),
            -x1 * x5 + 5.0 * np.tanh(20.0 * (x2 - x4)),
        ]
    )


def desired(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Desired trajectory and its time derivative at time ``t``.

    Components are sums of low-frequency sinusoids; the derivative is the
    hand-differentiated closed form (checked against finite differences in
    the tests).
    """
    value = np.array(
        [
            np.sin(2.0 * t),
            -np.cos(t),
            np.sin(3.0 * t) + np.cos(-2.0 * t),
            np.sin(t) - np.cos(-0.5 * t),
            np.sin(-t),
        ]
    )
    rate = np.array(
        [
            2.0 * np.cos(2.0 * t),
            np.sin(t),
            3.0 * np.cos(3.0 * t) - 2.0 * np.sin(2.0 * t),
            np.cos(t) + 0.5 * np.sin(0.5 * t),
            -np.cos(t),
        ]
    )
    return value, rate


def tracking_error(x: np.ndarray, t: float) -> np.ndarray:
    """Deviation of the state from the desired trajectory."""
    return np.asarray(x, dtype=float) - desired(t)[0]


def control_input(
    gains: Gains,
    xd_rate: np.ndarray,
    e: np.ndarray,
    phi: np.ndarray,
    mu: np.ndarray,
) -> np.ndarray:
    """Tracking controller with feedforward, feedback, and thermal compensation.

    Follows the desired rate ``xd_rate``, cancels the learned model output
    ``phi``, applies proportional feedback on the tracking error ``e``, and
    subtracts the temperature-coupling term (``mu`` from the temperature
    law) that offsets the stochastic exploration. The control
    effectiveness is the identity, so this is the plant input.
    """
    return xd_rate - gains.control_gain * e - phi - gains.thermal_coeff * mu
