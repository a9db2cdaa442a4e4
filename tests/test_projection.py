"""Projection operator: branch behavior, domain checks, and shell clipping."""

import numpy as np
import pytest

from thermoadapt import ConvexBall, ProjectionDomainError, RandomSource

BALL = ConvexBall(radius=20.0, layer=0.1)


def on_outer_shell(direction):
    """Point with boundary value exactly at the layer limit."""
    direction = np.asarray(direction, dtype=float)
    radius = np.sqrt(BALL.radius**2 + BALL.layer)
    return radius * direction / np.linalg.norm(direction)


def test_interior_identity():
    m = np.array([3.0, -1.0, 2.0])
    out = BALL.project(np.zeros(3), m)
    assert np.array_equal(out, m)


def test_outer_shell_radial_increment_cancelled():
    theta = on_outer_shell([1.0, 2.0, -2.0])
    grad = 2.0 * theta
    out = BALL.project(theta, grad)
    # residual is round-off from placing theta on the shell via sqrt
    assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(grad)


def test_outer_shell_tangent_increment_unchanged():
    theta = on_outer_shell([1.0, 0.0, 0.0])
    m = np.array([0.0, 1.5, -2.5])  # orthogonal to the radial gradient
    out = BALL.project(theta, m)
    assert np.array_equal(out, m)


def test_boundary_of_ball_counts_as_interior():
    # on the ball's surface the fade is zero, so even an outward increment passes
    theta = BALL.radius * np.array([0.0, 1.0])
    assert BALL.boundary_fn(theta) == 0.0
    m = np.array([0.5, 2.0])
    assert np.array_equal(BALL.project(theta, m), m)


def test_random_interior_points_identity():
    rng = RandomSource(77)
    for _ in range(1000):
        theta = rng.standard_normal(8)
        theta *= 0.9 * BALL.radius / max(np.linalg.norm(theta), 1e-9)
        m = rng.standard_normal(8)
        assert np.array_equal(BALL.project(theta, m), m)


def test_positive_scaling_fixed_branch():
    rng = RandomSource(78)
    theta = on_outer_shell(rng.standard_normal(6))
    grad = 2.0 * theta
    for _ in range(100):
        m = rng.standard_normal(6)
        if grad @ m <= 0:
            m = -m  # force the fading branch
        c = float(rng.uniform(0.1, 10.0, ()))
        left = BALL.project(theta, c * m)
        right = c * BALL.project(theta, m)
        assert np.allclose(left, right, rtol=1e-12, atol=1e-14)


def test_never_increases_outward_component():
    rng = RandomSource(79)
    for _ in range(200):
        direction = rng.standard_normal(5)
        scale = float(rng.uniform(0.0, 1.0, ()))
        theta = np.sqrt(BALL.radius**2 + scale * BALL.layer)
        theta = theta * direction / np.linalg.norm(direction)
        grad = 2.0 * theta
        m = rng.standard_normal(5)
        out = BALL.project(theta, m)
        assert grad @ out <= grad @ m + 1e-12


def test_outer_shell_never_points_outward():
    rng = RandomSource(80)
    for _ in range(200):
        theta = on_outer_shell(rng.standard_normal(5))
        m = rng.standard_normal(5)
        out = BALL.project(theta, m)
        assert 2.0 * theta @ out <= 1e-10


def test_outside_point_rejected():
    theta = np.array([BALL.radius + 1.0, 0.0])
    with pytest.raises(ProjectionDomainError):
        BALL.project(theta, np.array([1.0, 0.0]))


def test_clip_inside_noop():
    theta = np.array([1.0, 2.0])
    out, clipped = BALL.clip(theta)
    assert not clipped
    assert out is theta


def test_clip_rescales_onto_outer_shell():
    theta = np.array([30.0, 0.0, 0.0])
    out, clipped = BALL.clip(theta)
    assert clipped
    assert BALL.boundary_fn(out) == pytest.approx(BALL.layer, abs=1e-9)
    # direction preserved
    assert np.allclose(out / np.linalg.norm(out), [1.0, 0.0, 0.0])
    # clipped points are accepted by project afterwards
    BALL.project(out, np.array([1.0, 1.0, 1.0]))


def test_clip_places_overflowing_finite_point_on_outer_shell():
    # |theta|^2 overflows to inf although every entry is finite
    theta = np.array([1e200, 3e200, 0.5])
    with np.errstate(over="ignore"):
        out, clipped = BALL.clip(theta)
    assert clipped
    assert float(out @ out) == pytest.approx(BALL.radius**2 + BALL.layer, rel=1e-12)
    assert np.allclose(out[:2] / np.linalg.norm(out), [1.0, 3.0] / np.sqrt(10.0))


@pytest.mark.parametrize("norm, inside, within", [
    (19.99, True, True),
    (20.0, False, True),  # the ball's surface is in the layer
    (20.0024, False, True),  # |theta|^2 = 400.096, inside the outer shell
    (20.003, False, False),
    (np.nan, False, False),  # a non-finite point is always clipped
])
def test_squared_norm_tests_match_project_and_clip(norm, inside, within):
    theta = np.array([norm, 0.0])
    sq = float(theta @ theta)
    assert BALL.is_inside(sq) is inside
    assert BALL.is_within_shell(sq) is within
    assert BALL.clip(theta)[1] is not within
    if within:
        m = np.array([1.0, 0.0])  # outward
        assert (BALL.project(theta, m) is m) is inside


def test_infinite_squared_norm_is_past_the_shell():
    assert not BALL.is_inside(np.inf)
    assert not BALL.is_within_shell(np.inf)


def test_ball_validation():
    with pytest.raises(ValueError):
        ConvexBall(radius=0.0)
    with pytest.raises(ValueError):
        ConvexBall(radius=1.0, layer=0.0)
