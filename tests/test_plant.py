"""Benchmark plant, desired trajectory, and the controller identity."""

import numpy as np
import pytest

from thermoadapt import (
    Gains,
    Network,
    NetworkShape,
    RandomSource,
    TemperatureLaw,
    X0_DEFAULT,
    control_input,
    desired,
    he_init,
    plant_drift,
    tracking_error,
)

# Per-component amplitude bounds of the desired trajectory and its rate.
DESIRED_BOUNDS = (1.0, 1.0, 2.0, 2.0, 1.0)
DESIRED_RATE_BOUNDS = (2.0, 1.0, 5.0, 1.5, 1.0)


def test_drift_at_origin():
    assert np.allclose(plant_drift(np.zeros(5)), [1.0, 1.0, 0.0, 0.0, 0.0])


def test_drift_third_component():
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    assert plant_drift(x)[2] == pytest.approx(9.9)  # 10*e^0*1 - 0.1


def test_drift_fifth_component():
    x = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
    assert plant_drift(x)[4] == pytest.approx(-2.0)


def test_drift_rejects_wrong_length():
    with pytest.raises(ValueError):
        plant_drift(np.zeros(4))


def test_desired_at_zero():
    value, rate = desired(0.0)
    assert np.allclose(value, [0.0, -1.0, 1.0, -1.0, 0.0])
    assert np.allclose(rate, [2.0, 0.0, 3.0, 1.0, -1.0])


def test_desired_rate_matches_finite_differences():
    h = 1e-7
    for t in np.linspace(0.0, 30.0, 37):
        value_hi, _ = desired(t + h)
        value_lo, _ = desired(t - h)
        _, rate = desired(t)
        assert np.allclose((value_hi - value_lo) / (2 * h), rate, atol=1e-5)


def test_desired_bounds_hold_on_horizon():
    for t in np.linspace(0.0, 30.0, 1201):
        value, rate = desired(t)
        assert np.all(np.abs(value) <= np.asarray(DESIRED_BOUNDS) + 1e-12)
        assert np.all(np.abs(rate) <= np.asarray(DESIRED_RATE_BOUNDS) + 1e-12)
        assert np.linalg.norm(value) <= np.linalg.norm(DESIRED_BOUNDS) + 1e-12
        assert np.linalg.norm(rate) <= np.linalg.norm(DESIRED_RATE_BOUNDS) + 1e-12


def test_tracking_error_zero_on_trajectory():
    for t in (0.0, 1.7, 12.3):
        x, _ = desired(t)
        assert np.allclose(tracking_error(x, t), np.zeros(5), atol=0.0)


def test_tracking_error_initial_condition():
    err = tracking_error(X0_DEFAULT, 0.0)
    assert np.allclose(err, [0.0, 0.0, 2.0, -2.0, 3.0])


def test_tracking_error_linearity():
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    delta = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
    t = 3.3
    assert np.allclose(
        tracking_error(x + delta, t) - tracking_error(x, t), delta, atol=1e-14
    )


# -- controller -------------------------------------------------------------------


def zero_network():
    shape = NetworkShape(5, (4,), 5)
    return Network(shape, np.zeros(shape.param_count)), shape


def controller(net, law, gains, x, theta, t):
    """Control input at state ``x`` and time ``t`` with weights ``theta``."""
    _, rate = desired(t)
    e = tracking_error(x, t)
    phi = net.with_theta(theta).forward(x)
    return control_input(gains, rate, e, phi, law.mu(x, theta, e))


def test_controller_perfect_tracking_feedforward():
    # e = 0 and a zero network leave only the desired rate
    net, shape = zero_network()
    gains = Gains(weight_count=shape.param_count)
    law = TemperatureLaw(kind="error")
    t = 2.0
    x, rate = desired(t)
    u = controller(net, law, gains, x, net.theta, t)
    assert np.allclose(u, rate, atol=1e-14)


def test_controller_baseline_when_diffusion_off():
    rng = RandomSource(10)
    shape = NetworkShape(5, (6,), 5)
    net = he_init(shape, rng)
    gains = Gains(diffusion_gain=0.0, weight_count=shape.param_count)
    law = TemperatureLaw(kind="error")
    t = 1.0
    x = rng.standard_normal(5)
    e = tracking_error(x, t)
    _, rate = desired(t)
    u = controller(net, law, gains, x, net.theta, t)
    expected = rate - gains.control_gain * e - net.forward(x)
    assert np.allclose(u, expected, atol=1e-12)


def test_closed_loop_error_identity():
    # plant + controller must reproduce the designed error dynamics exactly
    rng = RandomSource(14)
    shape = NetworkShape(5, (7, 6), 5)
    net = he_init(shape, rng)
    gains = Gains(weight_count=shape.param_count)
    for law_kind in ("error", "state", "weight"):
        law = TemperatureLaw(kind=law_kind)
        t = 4.2
        x = rng.standard_normal(5)
        theta = net.theta
        e = tracking_error(x, t)
        u = controller(net, law, gains, x, theta, t)
        _, rate = desired(t)
        x_dot = plant_drift(x) + u  # identity effectiveness
        lhs = x_dot - rate
        rhs = (
            plant_drift(x)
            - gains.control_gain * e
            - net.forward(x)
            - gains.thermal_coeff * law.mu(x, theta, e)
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_perfect_feedforward_tracks_to_second_order():
    # with e = 0 and exact model cancellation, one explicit-Euler step stays
    # on the reference up to O(dt^2)
    t = 1.3
    x, rate = desired(t)
    u = rate - plant_drift(x)  # perfect feedforward, zero feedback needed
    errors = []
    for dt in (1e-2, 5e-3):
        x_next = x + (plant_drift(x) + u) * dt
        errors.append(np.linalg.norm(x_next - desired(t + dt)[0]))
    assert errors[0] < 1e-3
    ratio = errors[0] / errors[1]
    assert 3.0 < ratio < 5.0  # halving dt quarters the local error
