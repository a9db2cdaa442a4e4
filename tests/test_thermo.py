"""Temperature laws, internal energy, and the drift/diffusion pieces."""

import numpy as np
import pytest

from thermoadapt import (
    Gains,
    Network,
    NetworkEvaluator,
    NetworkShape,
    RandomSource,
    TemperatureLaw,
    diffusion_coefficient,
    drift,
    he_init,
)
from oracles import finite_diff_jacobian, internal_energy

ERROR_LAW = TemperatureLaw(kind="error", scale=9.0)
STATE_LAW = TemperatureLaw(kind="state", scale=9.0, quad_weight=0.01)
WEIGHT_LAW = TemperatureLaw(kind="weight", scale=9.0, quad_weight=0.01)


def small_setup(seed=0, p_hidden=(6, 5)):
    shape = NetworkShape(5, p_hidden, 5)
    rng = RandomSource(seed)
    net = he_init(shape, rng)
    gains = Gains(weight_count=shape.param_count)
    x = rng.standard_normal(5)
    e = rng.standard_normal(5) * 0.3
    return net, gains, x, e, rng


# -- mu ------------------------------------------------------------------------


def test_mu_error_law():
    e = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    out = ERROR_LAW.mu(e, 0.0, 0.0)
    assert np.array_equal(out, np.array([9.0, 0.0, 0.0, 0.0, 0.0]))


def test_mu_state_law_reduces_at_origin():
    e = np.array([0.5, -1.0, 2.0, 0.0, 0.1])
    out = STATE_LAW.mu(e, 0.0, 0.0)
    assert np.allclose(out, 9.0 * e)


def test_mu_weight_law_example():
    theta = np.zeros(30)
    theta[0] = 10.0  # norm 10 -> factor 0.01*100 + 9 = 10
    e = np.zeros(5)
    e[0] = 1.0
    out = WEIGHT_LAW.mu(e, 0.0, float(theta @ theta))
    expected = np.zeros(5)
    expected[0] = 10.0
    assert np.allclose(out, expected)


# -- temperature -----------------------------------------------------------------


def temperature(law, x, theta, e):
    return law.temperature(e, law.mu(e, float(x @ x), float(theta @ theta)))


def test_temperature_vanishes_with_error():
    assert temperature(ERROR_LAW, np.ones(5), np.ones(8), np.zeros(5)) == 0.0


def test_temperature_error_law_unit_error():
    e = np.array([0.6, 0.8, 0.0, 0.0, 0.0])  # norm 1
    assert temperature(ERROR_LAW, np.zeros(5), np.zeros(3), e) == pytest.approx(9.0)


def test_temperature_weight_law_example():
    theta = np.zeros(12)
    theta[3] = 10.0
    e = np.array([2.0, 0.0, 0.0, 0.0, 0.0])  # norm 2
    assert temperature(WEIGHT_LAW, np.zeros(5), theta, e) == pytest.approx(40.0)


@pytest.mark.slow
def test_temperature_nonnegative_random_states():
    rng = RandomSource(5150)
    laws = (ERROR_LAW, STATE_LAW, WEIGHT_LAW)
    for _ in range(100_000 // len(laws)):
        x = rng.standard_normal(5) * 3.0
        theta = rng.standard_normal(12) * 5.0
        e = rng.standard_normal(5) * 2.0
        for law in laws:
            assert temperature(law, x, theta, e) >= 0.0


# -- mu jacobian -----------------------------------------------------------------


def test_mu_jacobian_zero_for_weight_free_laws():
    x = np.ones(5)
    theta = np.ones(7)
    e = np.ones(5)
    assert np.array_equal(ERROR_LAW.mu_jacobian_applied(float(e @ e), theta), np.zeros(7))
    assert np.array_equal(STATE_LAW.mu_jacobian_applied(float(e @ e), theta), np.zeros(7))


def test_mu_jacobian_weight_law_single_entry():
    theta = np.zeros(4)
    theta[0] = 5.0
    e = np.zeros(5)
    e[0] = 1.0
    applied = WEIGHT_LAW.mu_jacobian_applied(float(e @ e), theta)
    assert np.allclose(applied, [0.1, 0.0, 0.0, 0.0])  # 2 * 0.01 * |e|^2 * 5


def test_mu_jacobian_matches_finite_differences():
    # oracle: the weight gradient of theta -> e . mu(x, theta, e) at fixed e
    rng = RandomSource(61)
    for law in (ERROR_LAW, STATE_LAW, WEIGHT_LAW):
        x = rng.standard_normal(5)
        theta = rng.standard_normal(9)
        e = rng.standard_normal(5)
        numeric = finite_diff_jacobian(
            lambda th: e @ law.mu(e, float(x @ x), float(th @ th)), theta, h=1e-6
        )[0]
        assert np.allclose(law.mu_jacobian_applied(float(e @ e), theta), numeric, atol=1e-6)


@pytest.mark.slow
def test_weight_law_jacobian_norm_bound():
    # |(d mu / d theta).T e| <= 2 * q * radius * |e|^2 whenever |theta| <= radius
    rng = RandomSource(63)
    radius = 20.0
    q = WEIGHT_LAW.quad_weight
    for _ in range(10_000):
        theta = rng.standard_normal(12)
        theta *= rng.uniform(0.0, radius, ()) / max(np.linalg.norm(theta), 1e-12)
        e = rng.standard_normal(5) * 2.0
        applied = WEIGHT_LAW.mu_jacobian_applied(float(e @ e), theta)
        assert np.linalg.norm(applied) <= 2.0 * q * radius * float(e @ e) + 1e-12


# -- internal energy ---------------------------------------------------------------


def test_internal_energy_zero():
    assert internal_energy(np.zeros(5), np.zeros(5), np.zeros(3), 0.001) == 0.0


def test_internal_energy_aligned_error():
    e = np.array([1.0, 0.0])
    assert internal_energy(e, e, np.zeros(2), 0.5) == pytest.approx(1.0)


def test_internal_energy_weight_term():
    theta = np.zeros(6)
    theta[1] = 10.0
    assert internal_energy(np.zeros(5), np.zeros(5), theta, 0.001) == pytest.approx(0.05)


# -- drift --------------------------------------------------------------------------


def weight_drift(net, law, gains, x, theta, e):
    """Drift with the network's ``J.T e`` at ``x`` for weights ``theta``."""
    jte = NetworkEvaluator(net.shape).evaluate(theta, x[None], e[None])[1][0]
    return drift(law, gains, jte, theta, float(e @ e))


def test_drift_vanishes_at_rest():
    net, gains, x, _, _ = small_setup()
    out = weight_drift(net, ERROR_LAW, gains, x, np.zeros(gains.weight_count), np.zeros(5))
    assert np.array_equal(out, np.zeros(gains.weight_count))


def test_drift_error_law_reduction():
    net, gains, x, e, _ = small_setup(seed=3)
    theta = net.theta
    out = weight_drift(net, ERROR_LAW, gains, x, theta, e)
    expected = net.weight_jacobian(x).T @ e - gains.forgetting_factor * theta
    assert np.allclose(out, expected, atol=1e-14)


def test_drift_weight_law_coupling_term():
    net, gains, x, e, _ = small_setup(seed=4)
    theta = net.theta
    out = weight_drift(net, WEIGHT_LAW, gains, x, theta, e)
    coupling = gains.thermal_coeff * 2.0 * WEIGHT_LAW.quad_weight * float(e @ e) * theta
    expected = net.weight_jacobian(x).T @ e + coupling - gains.forgetting_factor * theta
    assert np.allclose(out, expected, rtol=1e-12)


def test_drift_is_negative_energy_gradient():
    # drift == -dU/dtheta for the closed-loop internal energy, any law
    from thermoadapt import plant_drift

    for law in (ERROR_LAW, STATE_LAW, WEIGHT_LAW):
        net, gains, x, e, _ = small_setup(seed=11)
        theta = net.theta
        f_val = plant_drift(x)

        def closed_loop_energy(th):
            phi = Network(net.shape, th).forward(x)
            mu = law.mu(e, float(x @ x), float(th @ th))
            e_dot = f_val - gains.control_gain * e - phi - gains.thermal_coeff * mu
            return np.array([internal_energy(e, e_dot, th, gains.forgetting_factor)])

        numeric = finite_diff_jacobian(closed_loop_energy, theta, h=1e-6)[0]
        analytic = weight_drift(net, law, gains, x, theta, e)
        scale = max(np.max(np.abs(analytic)), 1e-9)
        assert np.max(np.abs(analytic + numeric)) / scale < 1e-5


# -- diffusion ------------------------------------------------------------------------


def test_diffusion_zero_error():
    gains = Gains(weight_count=10)
    temp = temperature(ERROR_LAW, np.ones(5), np.ones(10), np.zeros(5))
    assert diffusion_coefficient(gains, temp) == 0.0


def test_diffusion_error_law_value():
    gains = Gains(diffusion_gain=0.03, weight_count=10)
    e = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    value = diffusion_coefficient(gains, temperature(ERROR_LAW, np.zeros(5), np.zeros(10), e))
    assert value == pytest.approx(np.sqrt(0.27))


def test_diffusion_off_when_gain_zero():
    gains = Gains(diffusion_gain=0.0, weight_count=10)
    e = np.ones(5)
    temp = temperature(WEIGHT_LAW, np.ones(5), np.ones(10), e)
    assert temp > 0.0
    assert diffusion_coefficient(gains, temp) == 0.0


# -- gains and law kinds -----------------------------------------------------------------


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(diffusion_gain=-1.0, weight_count=10)
    with pytest.raises(ValueError):
        Gains(control_gain=0.0, weight_count=10)
    with pytest.raises(ValueError):
        Gains(learning_rate=-0.1, weight_count=10)
    with pytest.raises(ValueError):
        Gains(weight_count=0)
    with pytest.raises(TypeError):
        Gains()  # p comes from the network shape; there is no default
    Gains(diffusion_gain=0.0, weight_count=10)  # the deterministic baseline is allowed


def test_thermal_coeff_value():
    gains = Gains(learning_rate=1.0, diffusion_gain=0.03, weight_count=995)
    assert gains.thermal_coeff == pytest.approx(0.5 * 996 * 0.03)


def test_unknown_law_kind_rejected():
    for kind in ("custom", "sauna"):
        with pytest.raises(ValueError, match="unknown temperature law"):
            TemperatureLaw(kind=kind)
