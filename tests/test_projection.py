"""Projection operator: branch behavior, membership, and shell clipping."""

import numpy as np
import pytest

from thermoadapt import ConvexBall, Membership, ProjectionDomainError, RandomSource

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


def test_classify_examples():
    assert BALL.classify(np.zeros(4)) is Membership.INTERIOR
    inside_layer = np.sqrt(BALL.radius**2 + BALL.layer / 2) * np.array([1.0, 0.0])
    assert BALL.classify(inside_layer) is Membership.LAYER
    outside = np.sqrt(BALL.radius**2 + 2 * BALL.layer) * np.array([1.0, 0.0])
    assert BALL.classify(outside) is Membership.OUTSIDE


def test_boundary_of_ball_counts_as_interior():
    theta = BALL.radius * np.array([0.0, 1.0])
    assert BALL.classify(theta) is Membership.INTERIOR


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


def test_ball_validation():
    with pytest.raises(ValueError):
        ConvexBall(radius=0.0)
    with pytest.raises(ValueError):
        ConvexBall(radius=1.0, layer=0.0)
