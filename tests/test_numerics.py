"""Random-source determinism, Wiener scaling, and the FD oracle itself."""

import numpy as np
import pytest

from thermoadapt import (
    RandomSource,
    finite_diff_jacobian,
    wiener_increment,
)


def test_same_seed_same_stream():
    a = RandomSource(123).standard_normal(256)
    b = RandomSource(123).standard_normal(256)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomSource(1).standard_normal(64)
    b = RandomSource(2).standard_normal(64)
    assert not np.array_equal(a, b)


def test_seed_must_fit_64_bits():
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)


def test_draw_counter():
    rng = RandomSource(0)
    rng.standard_normal(10)
    rng.uniform(0.0, 1.0, (3, 4))
    assert rng.draws == 22


@pytest.mark.slow
def test_standard_normal_moments():
    samples = RandomSource(42).standard_normal(10**6)
    assert -0.01 < samples.mean() < 0.01
    assert 0.99 < samples.var() < 1.01


def test_wiener_entries_normal_0_dt():
    # pooled variance over ~1e5 entries of 995-dim increments
    rng = RandomSource(7)
    dt = 1e-3
    draws = np.concatenate([wiener_increment(rng, 995, dt) for _ in range(101)])
    assert draws.size >= 10**5
    assert 0.95 * dt < draws.var() < 1.05 * dt
    assert abs(draws.mean()) < 3e-4


def test_wiener_std_scaling_with_dt():
    dt = 2e-3
    a = RandomSource(11)
    b = RandomSource(12)
    std1 = np.concatenate([wiener_increment(a, 1000, dt) for _ in range(100)]).std()
    std4 = np.concatenate([wiener_increment(b, 1000, 4 * dt) for _ in range(100)]).std()
    assert abs(std4 / std1 - 2.0) < 0.06  # 2 within 3%


def test_wiener_small_dt_vanishes():
    inc = wiener_increment(RandomSource(0), 3, 1e-16)
    assert np.linalg.norm(inc) < 1e-6


def test_wiener_same_seed_identical():
    a = wiener_increment(RandomSource(5), 10, 0.1)
    b = wiener_increment(RandomSource(5), 10, 0.1)
    assert np.array_equal(a, b)


def test_wiener_rejects_bad_args():
    rng = RandomSource(0)
    with pytest.raises(ValueError):
        wiener_increment(rng, 3, 0.0)
    with pytest.raises(ValueError):
        wiener_increment(rng, 3, -1.0)
    with pytest.raises(ValueError):
        wiener_increment(rng, 0, 0.1)


def test_fd_jacobian_identity():
    jac = finite_diff_jacobian(lambda v: v, np.array([0.3, -0.7, 1.1]), h=1e-5)
    assert np.allclose(jac, np.eye(3), atol=1e-8)


def test_fd_jacobian_hand_example():
    jac = finite_diff_jacobian(
        lambda v: np.array([v[0] ** 2, v[1]]), np.array([1.0, 1.0]), h=1e-5
    )
    assert np.allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=1e-8)


def test_fd_jacobian_constant():
    jac = finite_diff_jacobian(lambda v: np.array([4.2, -1.0]), np.zeros(3), h=1e-6)
    assert np.array_equal(jac, np.zeros((2, 3)))


def test_fd_jacobian_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_jacobian(lambda v: v, np.zeros(2), h=0.0)
