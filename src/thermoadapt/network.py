"""Fully-connected feedforward network with an analytic weight Jacobian.

The network maps an input through ``k`` hidden layers. Every layer input is
augmented with a trailing 1 so biases live in the last row of each weight
matrix: with augmented input ``u0 = [x, 1]`` the recursion is

    h_0 = V_1.T @ u0
    h_j = V_{j+1}.T @ [act(h_{j-1}), 1]      for j = 1..k

and the output is ``h_k`` (no activation or bias on the output layer).
The flat weight vector concatenates ``vec(V_1) .. vec(V_{k+1})`` using
column-major (Fortran) vectorization within each matrix.

The Jacobian of the output with respect to the flat weight vector is built
from the layer-by-layer product rule rather than autodiff; a central
finite-difference oracle in the test suite pins it down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import expit

from .numerics import RandomSource

__all__ = [
    "swish",
    "swish_prime",
    "swish_second",
    "ACTIVATIONS",
    "ActivationBounds",
    "measure_activation_bounds",
    "NetworkShape",
    "Network",
    "NetworkEvaluator",
    "he_init",
    "save_theta",
    "load_theta",
]


# ---------------------------------------------------------------------------
# Activations


def swish(y):
    """Swish activation ``y * sigmoid(y)``, a smooth ramp."""
    return y * expit(y)


def swish_prime(y):
    """First derivative of swish: ``s(y) * (1 + y * (1 - s(y)))``."""
    s = expit(y)
    return s * (1.0 + y * (1.0 - s))


def swish_second(y):
    """Second derivative of swish: ``s(1-s) * (2 + y*(1-2s))``."""
    s = expit(y)
    return s * (1.0 - s) * (2.0 + y * (1.0 - 2.0 * s))


def _linear(y):
    return np.asarray(y, dtype=float)


def _linear_prime(y):
    return np.ones_like(np.asarray(y, dtype=float))


def _linear_second(y):
    return np.zeros_like(np.asarray(y, dtype=float))


def _tanh_prime(y):
    t = np.tanh(y)
    return 1.0 - t * t


def _tanh_second(y):
    t = np.tanh(y)
    return -2.0 * t * (1.0 - t * t)


# name -> (value, first derivative, second derivative)
ACTIVATIONS: dict[str, tuple[Callable, Callable, Callable]] = {
    "swish": (swish, swish_prime, swish_second),
    "tanh": (np.tanh, _tanh_prime, _tanh_second),
    "linear": (_linear, _linear_prime, _linear_second),
}


@dataclass(frozen=True)
class ActivationBounds:
    """Measured growth/derivative bounds of a scalar activation.

    On the scanned grid: |act(y)| <= a1*|y| + a0, |act'(y)| <= b0,
    |act''(y)| <= c0.
    """

    a0: float
    a1: float
    b0: float
    c0: float


def measure_activation_bounds(
    grid_limit: float,
    step: float,
    activation: str = "swish",
) -> ActivationBounds:
    """Scan a dense grid for derivative suprema and a linear growth envelope.

    The slope ``a1`` is fixed at 1 (the asymptotic slope of ramp-like
    activations); ``a0`` absorbs whatever the scan finds above that line.
    """
    if grid_limit <= 0.0 or step <= 0.0:
        raise ValueError("grid_limit and step must be positive")
    fn, dfn, d2fn = ACTIVATIONS[activation]
    grid = np.arange(-grid_limit, grid_limit + step, step)
    vals = np.abs(fn(grid))
    b0 = float(np.max(np.abs(dfn(grid))))
    c0 = float(np.max(np.abs(d2fn(grid))))
    a1 = 1.0
    a0 = float(max(0.0, np.max(vals - a1 * np.abs(grid))))
    return ActivationBounds(a0=a0, a1=a1, b0=b0, c0=c0)


# ---------------------------------------------------------------------------
# Shape and parameter layout


@dataclass(frozen=True)
class NetworkShape:
    """Layer sizes and activation choice; fixes the flat parameter layout."""

    input_size: int
    hidden_sizes: tuple[int, ...]
    output_size: int
    activation: str = "swish"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(int(s) for s in self.hidden_sizes))
        sizes = (self.input_size, *self.hidden_sizes, self.output_size)
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def hidden_layer_count(self) -> int:
        return len(self.hidden_sizes)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_size, *self.hidden_sizes, self.output_size)

    @property
    def matrix_shapes(self) -> tuple[tuple[int, int], ...]:
        """Per-layer weight-matrix shapes, each (fan_in + 1, fan_out)."""
        sizes = self.layer_sizes
        return tuple((sizes[j] + 1, sizes[j + 1]) for j in range(len(sizes) - 1))

    @property
    def param_count(self) -> int:
        return sum(r * c for r, c in self.matrix_shapes)

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) offsets of each layer's slice of the flat vector."""
        bounds = []
        offset = 0
        for r, c in self.matrix_shapes:
            bounds.append((offset, offset + r * c))
            offset += r * c
        return tuple(bounds)


@dataclass(frozen=True)
class Network:
    """A shape plus a flat weight vector; evaluation never mutates it."""

    shape: NetworkShape
    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.shape.param_count,):
            raise ValueError(
                f"theta has {theta.size} entries, shape needs {self.shape.param_count}"
            )
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_matrices(cls, matrices, activation: str = "swish") -> "Network":
        """Build from per-layer matrices (biases in the last row of each)."""
        matrices = [np.asarray(m, dtype=float) for m in matrices]
        hidden = tuple(m.shape[1] for m in matrices[:-1])
        shape = NetworkShape(
            input_size=matrices[0].shape[0] - 1,
            hidden_sizes=hidden,
            output_size=matrices[-1].shape[1],
            activation=activation,
        )
        expected = shape.matrix_shapes
        for m, exp in zip(matrices, expected):
            if m.shape != exp:
                raise ValueError(f"matrix shape {m.shape} does not chain, expected {exp}")
        theta = np.concatenate([m.reshape(-1, order="F") for m in matrices])
        return cls(shape=shape, theta=theta)

    def with_theta(self, theta: np.ndarray) -> "Network":
        """Same shape, different weights."""
        return replace(self, theta=theta)

    def weight_matrices(self) -> list[np.ndarray]:
        """Views of the flat vector as per-layer matrices (column-major)."""
        return [
            self.theta[a:b].reshape(shape, order="F")
            for (a, b), shape in zip(self.shape.segments, self.shape.matrix_shapes)
        ]

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape.input_size,):
            raise ValueError(
                f"input has shape {x.shape}, expected ({self.shape.input_size},)"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network at input ``x``."""
        x = self._check_input(x)
        act = ACTIVATIONS[self.shape.activation][0]
        mats = self.weight_matrices()
        u = np.append(x, 1.0)
        h = mats[0].T @ u
        for v in mats[1:]:
            u = np.append(act(h), 1.0)
            h = v.T @ u
        return h

    def weight_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Jacobian of the output with respect to the flat weight vector.

        Blocks are ordered like the weight layout, one block per layer.
        Computed by :class:`NetworkEvaluator`, the path the simulator runs.
        """
        return NetworkEvaluator(self.shape).evaluate(self.theta, self._check_input(x))[1]


class NetworkEvaluator:
    """Reusable forward+Jacobian evaluator with preallocated buffers.

    Produces the same output as ``Network.forward`` and is the one
    implementation of the weight Jacobian. It avoids per-call allocation,
    for use in tight integration loops. The arrays returned by
    :meth:`evaluate` are views into internal buffers and are overwritten by
    the next call; copy them to persist.

    The Jacobian comes from a reverse sweep over the layers. The bias entry
    of each augmented layer has zero derivative, so each activation
    Jacobian is the diagonal of slopes above a zero row; that zero row drops
    out of the chained products.
    """

    def __init__(self, shape: NetworkShape):
        self.shape = shape
        self._act, self._act_prime, _ = ACTIVATIONS[shape.activation]
        sizes = shape.layer_sizes
        self._k = shape.hidden_layer_count
        self._segments = shape.segments
        self._matrix_shapes = shape.matrix_shapes
        self._jac = np.empty((shape.output_size, shape.param_count))
        self._inputs = [np.empty(sizes[j] + 1) for j in range(self._k + 1)]
        for u in self._inputs:
            u[-1] = 1.0
        self._slopes = [np.empty(sizes[j]) for j in range(1, self._k + 1)]
        self._eye = np.eye(shape.output_size)

    def evaluate(self, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (output, jacobian) of the network with weights ``theta``."""
        shape = self.shape
        mats = [
            theta[a:b].reshape(ms, order="F")
            for (a, b), ms in zip(self._segments, self._matrix_shapes)
        ]
        k = self._k
        inputs = self._inputs
        inputs[0][:-1] = x
        h = mats[0].T @ inputs[0]
        for j in range(1, k + 1):
            self._slopes[j - 1][:] = self._act_prime(h)
            inputs[j][:-1] = self._act(h)
            h = mats[j].T @ inputs[j]

        out_size = shape.output_size
        jac = self._jac
        prefix = self._eye
        a, b = self._segments[k]
        rows = self._matrix_shapes[k][0]
        blk = jac[:, a:b].reshape(out_size, -1, rows)
        np.multiply(prefix[:, :, None], inputs[k][None, None, :], out=blk)
        for j in range(k - 1, -1, -1):
            prefix = prefix @ (mats[j + 1][:-1, :].T * self._slopes[j][None, :])
            a, b = self._segments[j]
            rows = self._matrix_shapes[j][0]
            blk = jac[:, a:b].reshape(out_size, -1, rows)
            np.multiply(prefix[:, :, None], inputs[j][None, None, :], out=blk)
        return h, jac


def he_init(shape: NetworkShape, rng: RandomSource) -> Network:
    """Sample weights entrywise Normal(0, 2 / fan_in), fan_in counting the bias.

    Bias rows get the same variance as weight rows. Sampling fills the flat
    vector in layout order, so equal seeds give equal networks.
    """
    theta = rng.standard_normal(shape.param_count)
    for (a, b), (rows, _) in zip(shape.segments, shape.matrix_shapes):
        theta[a:b] *= np.sqrt(2.0 / rows)
    return Network(shape=shape, theta=theta)


def save_theta(path, theta: np.ndarray) -> None:
    """Write a flat weight vector as text, one value per line.

    Order is the network layout: first layer's matrix first, column-major
    within each matrix. Values round-trip exactly (17 significant digits).
    """
    theta = np.asarray(theta, dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        for v in theta:
            fh.write(f"{v:.17g}\n")


def load_theta(path) -> np.ndarray:
    """Read a flat weight vector written by :func:`save_theta`."""
    with open(path, "r", encoding="ascii") as fh:
        values = [float(line) for line in fh if line.strip()]
    return np.asarray(values, dtype=float)
