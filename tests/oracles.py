"""Reference computations the tests compare the package against."""

from typing import Callable

import numpy as np


def finite_diff_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    at: np.ndarray,
    h: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of a vector function, used as a test oracle.

    Entry (i, j) is ``(f_i(at + h e_j) - f_i(at - h e_j)) / (2 h)``.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    at = np.asarray(at, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(at), dtype=float))
    jac = np.empty((f0.size, at.size))
    for j in range(at.size):
        hi = at.copy()
        lo = at.copy()
        hi[j] += h
        lo[j] -= h
        jac[:, j] = (np.atleast_1d(np.asarray(f(hi), dtype=float))
                     - np.atleast_1d(np.asarray(f(lo), dtype=float))) / (2.0 * h)
    return jac


def internal_energy(e, e_dot, theta_hat, forgetting_factor: float) -> float:
    """Generalized internal energy ``e . e_dot + forgetting/2 |theta|^2``."""
    e = np.asarray(e, dtype=float)
    e_dot = np.asarray(e_dot, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    return float(e @ e_dot) + 0.5 * forgetting_factor * float(theta_hat @ theta_hat)
