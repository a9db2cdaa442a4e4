"""Reference computations the tests compare the package against, and a
column reader for the simulator's trajectory table."""

from typing import Callable

import numpy as np
from scipy.special import expit

from thermoadapt import CSV_COLUMNS, STATE_DIM


def column(log, name: str) -> np.ndarray:
    """Column ``name`` of ``CSV_COLUMNS`` from a log's rows.

    ``"x"`` and ``"e"`` give the five state and tracking-error columns.
    """
    if name in ("x", "e"):
        start = CSV_COLUMNS.index(name + "1")
        return log.rows[:, start:start + STATE_DIM]
    return log.rows[:, CSV_COLUMNS.index(name)]


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


def _reference_swish_prime(y):
    s = expit(y)
    return s * (1.0 + y * (1.0 - s))


def _reference_tanh_prime(y):
    t = np.tanh(y)
    return 1.0 - t * t


# name -> (value, slope), each formula computed directly from y
REFERENCE_ACTIVATIONS = {
    "swish": (lambda y: y * expit(y), _reference_swish_prime),
    "tanh": (np.tanh, _reference_tanh_prime),
    "linear": (lambda y: np.asarray(y, dtype=float),
               lambda y: np.ones_like(np.asarray(y, dtype=float))),
}


def reference_evaluate(shape, theta, X, E):
    """The network evaluator as a plain per-layer loop, used as a bitwise oracle.

    Returns ``Phi`` (B, n_out) at the rows of ``X`` and ``J(x_b).T @ E[b]``
    (B, p): one forward pass that keeps each layer's augmented input and
    activation slopes, then one reverse sweep that pulls ``E`` back through
    the layers, writing each layer's gradient as the outer product of its
    input with the cotangent of its output. Fresh arrays throughout, the
    activation and its slope each computed from y.
    """
    act, act_prime = REFERENCE_ACTIVATIONS[shape.activation]
    layers = tuple(zip(shape.segments, shape.matrix_shapes))
    rows = X.shape[0]
    mats = [theta[a:b].reshape(ms, order="F") for (a, b), ms in layers]
    u = np.empty((rows, 1, X.shape[1] + 1))
    u[:, 0, :-1] = X
    u[..., -1] = 1.0
    inputs, slopes = [u], []
    h = u @ mats[0]
    for m in mats[1:]:
        slopes.append(act_prime(h).transpose(0, 2, 1))
        u = np.empty((rows, 1, m.shape[0]))
        u[..., :-1] = act(h)
        u[..., -1] = 1.0
        inputs.append(u)
        h = u @ m

    jte = np.empty((rows, theta.size))
    g = E[:, :, None]
    for j in range(len(mats) - 1, -1, -1):
        (a, b), (fan_in, fan_out) = layers[j]
        # Column-major block of layer j, viewed as (rows, fan_out, fan_in).
        np.multiply(g, inputs[j], out=jte[:, a:b].reshape(rows, fan_out, fan_in))
        if j:
            g = (mats[j][:-1] @ g) * slopes[j - 1]
    return h[:, 0], jte
