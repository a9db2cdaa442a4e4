"""Lyapunov-value algebra and escape risk."""

import numpy as np
import pytest

from thermoadapt import (
    InfeasibleConstantsError,
    LyapunovConstants,
    RandomSource,
    escape_risk,
    lyapunov_value,
)


def make_constants(**overrides):
    kwargs = dict(
        learning_rate=1.0,
        b0=10.0,
        b1=0.01,
        b2=0.5,
        rho_a0=1.0,
        rho_a1=1.0,
        rho_a2=1.0,
        xd_bound=3.3166,
        level=0.05,
    )
    kwargs.update(overrides)
    return LyapunovConstants(**kwargs)


def test_lyapunov_zero():
    assert lyapunov_value(0.0, 0.0, 1.0) == 0.0


def test_lyapunov_unit_example():
    e = np.array([1.0, 0.0])
    te = np.array([0.0, 1.0, 0.0])
    assert lyapunov_value(float(e @ e), float(te @ te), 1.0) == pytest.approx(1.0)


def test_lyapunov_rejects_bad_rate():
    with pytest.raises(ValueError):
        lyapunov_value(0.0, 0.0, 0.0)


def test_rayleigh_sandwich_random():
    rng = RandomSource(2718)
    for _ in range(10_000):
        lr = float(rng.uniform(0.05, 20.0, ()))
        e = rng.standard_normal(3)
        te = rng.standard_normal(5)
        z_sq = float(e @ e + te @ te)
        v = lyapunov_value(float(e @ e), float(te @ te), lr)
        a1 = 0.5 * min(1.0, 1.0 / lr)
        a2 = 0.5 * max(1.0, 1.0 / lr)
        assert a1 * z_sq <= v * (1 + 1e-12)
        assert v <= a2 * z_sq * (1 + 1e-12)


def test_rho_inverse_roundtrip():
    c = make_constants()
    for y in (0.0, 0.3, 2.0, 9.5, 120.0):
        s = c.rho_inverse(y)
        assert c.rho(s) == pytest.approx(y, abs=1e-9)


def test_escape_risk_floor_at_large_time():
    c = make_constants()
    floor = c.alpha2 * c.b1 / (c.level * c.b2)
    assert escape_risk(c, 0.0, 1e9) == pytest.approx(floor)
    assert escape_risk(c, 0.0, 0.0) == pytest.approx(floor)  # v0 = 0 kills both terms


def test_escape_risk_nonincreasing_in_time():
    c = make_constants()
    values = [escape_risk(c, 0.02, t) for t in np.linspace(0.0, 400.0, 60)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_escape_risk_level_scaling():
    # doubling the level halves the two level-scaled terms
    c1 = make_constants(level=0.05)
    c2 = make_constants(level=0.10)
    v0, t = 0.03, 2.0
    radius = c1.rho_inverse(c1.b0 - c1.b2)
    head = v0 / (c1.alpha1 * radius * radius)
    tail1 = escape_risk(c1, v0, t) - head
    tail2 = escape_risk(c2, v0, t) - head
    assert tail2 == pytest.approx(tail1 / 2.0, rel=1e-12)


def test_escape_risk_matches_formula():
    c = make_constants()
    v0, t = 0.01, 7.0
    radius = c.rho_inverse(c.b0 - c.b2)
    expected = (
        v0 / (c.alpha1 * radius * radius)
        + (v0 / c.level) * np.exp(-c.b1 * t)
        + c.alpha2 * c.b1 / (c.level * c.b2)
    )
    assert escape_risk(c, v0, t) == pytest.approx(expected, rel=1e-14)


def test_escape_risk_infeasible_margin():
    with pytest.raises(InfeasibleConstantsError):
        escape_risk(make_constants(b0=0.4), 0.0, 1.0)  # b0 <= b2


def test_escape_risk_empty_interval():
    # huge disturbance offset pushes the interval floor above its cap
    with pytest.raises(InfeasibleConstantsError):
        make_constants(b1=1000.0).level_interval()


def test_escape_risk_level_out_of_interval():
    with pytest.raises(InfeasibleConstantsError):
        escape_risk(make_constants(level=1e6), 0.0, 1.0)


def test_constants_validation():
    with pytest.raises(ValueError):
        make_constants(b2=0.0)
    with pytest.raises(ValueError):
        make_constants(b1=-0.1)
    with pytest.raises(ValueError):
        make_constants(level=0.0)
    with pytest.raises(ValueError):
        make_constants(learning_rate=0.0)
    with pytest.raises(ValueError, match="xd_bound must be nonnegative"):
        make_constants(xd_bound=-1.0)
    constants = make_constants()
    with pytest.raises(ValueError, match="rho is defined for s >= 0"):
        constants.rho(-1.0)
    with pytest.raises(ValueError, match="rho_inverse is defined for y >= 0"):
        constants.rho_inverse(-1.0)
    # with unit coefficients rho(1e12) is about 1e36, so no bracket reaches 1e40
    with pytest.raises(ValueError, match="bracket expansion failed"):
        constants.rho_inverse(1e40)
    with pytest.raises(ValueError, match="initial energy must be nonnegative"):
        escape_risk(constants, -1.0, 1.0)
    with pytest.raises(ValueError, match="time must be nonnegative"):
        escape_risk(constants, 0.0, -1.0)
    with pytest.raises(ValueError, match="escape risk needs b1 > 0"):
        escape_risk(make_constants(b1=0.0), 0.0, 1.0)
