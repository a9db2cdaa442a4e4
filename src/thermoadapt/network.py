"""Fully-connected feedforward network and its weight vector-Jacobian product.

The network maps an input through ``k`` hidden layers. Every layer input is
augmented with a trailing 1 so biases live in the last row of each weight
matrix: with augmented input ``u0 = [x, 1]`` the recursion is

    h_0 = V_1.T @ u0
    h_j = V_{j+1}.T @ [act(h_{j-1}), 1]      for j = 1..k

and the output is ``h_k`` (no activation or bias on the output layer).
The flat weight vector concatenates ``vec(V_1) .. vec(V_{k+1})`` using
column-major (Fortran) vectorization within each matrix.

The simulator needs the weight Jacobian J only through ``J.T @ e``. That
product comes from one reverse sweep (reverse-mode differentiation): the
cotangent ``e`` of the output is pulled back layer by layer, and each
layer's weight gradient is the outer product of its augmented input with
the cotangent of its output. The full Jacobian is the same sweep with unit
cotangents; a central finite-difference oracle in the test suite pins it
down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .numerics import RandomSource

__all__ = [
    "swish",
    "swish_prime",
    "ACTIVATIONS",
    "NetworkShape",
    "Network",
    "NetworkEvaluator",
    "he_init",
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


def _linear(y):
    return np.asarray(y, dtype=float)


def _linear_prime(y):
    return np.ones_like(np.asarray(y, dtype=float))


def _tanh_prime(y):
    t = np.tanh(y)
    return 1.0 - t * t


# name -> (value, slope)
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "swish": (swish, swish_prime),
    "tanh": (np.tanh, _tanh_prime),
    "linear": (_linear, _linear_prime),
}


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

    def weight_matrices(self) -> list[np.ndarray]:
        """Views of the flat vector as per-layer matrices (column-major)."""
        return [
            self.theta[a:b].reshape(shape, order="F")
            for (a, b), shape in zip(self.shape.segments, self.shape.matrix_shapes)
        ]

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.shape.input_size:
            raise ValueError(
                f"input has shape {x.shape}, expected ({self.shape.input_size},) "
                f"or (rows, {self.shape.input_size})"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network output at input ``x``, or at each row of a 2-D ``x``.

        Rows are evaluated independently: each output row equals the output
        at that row alone, bit for bit.
        """
        x = self._check_input(x)
        rows = np.atleast_2d(x)
        out, _ = NetworkEvaluator(self.shape).evaluate(
            self.theta, rows, np.zeros((rows.shape[0], self.shape.output_size))
        )
        return out if x.ndim == 2 else out[0]

    def weight_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Jacobian of the output at one input ``x`` with respect to the weights.

        Row i is the pull-back of the i-th unit vector, so this is the
        simulator's vector-Jacobian product taken once per output.
        """
        x = self._check_input(x).reshape(self.shape.input_size)
        n_out = self.shape.output_size
        return NetworkEvaluator(self.shape).evaluate(
            self.theta, np.tile(x, (n_out, 1)), np.eye(n_out)
        )[1]


class NetworkEvaluator:
    """The one implementation of the forward pass and of the weight derivative.

    ``Network.forward`` and ``Network.weight_jacobian`` wrap it, and the
    simulator calls it once per step. Every product is a stacked matmul over
    the rows, so a row's result does not depend on the other rows.
    """

    def __init__(self, shape: NetworkShape):
        self.shape = shape
        self._act, self._act_prime = ACTIVATIONS[shape.activation]
        self._layers = tuple(zip(shape.segments, shape.matrix_shapes))

    def evaluate(
        self, theta: np.ndarray, X: np.ndarray, E: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outputs ``Phi`` (B, n_out) at the rows of ``X`` (B, n_in) and the
        products ``J(x_b).T @ E[b]`` (B, p), for weights ``theta`` (p,).

        One forward pass keeps each layer's augmented input and activation
        slopes; one reverse sweep then pulls ``E`` back through the layers.
        The gradient of layer j's matrix is the outer product of its input
        with the cotangent of its output.
        """
        rows = X.shape[0]
        mats = [theta[a:b].reshape(ms, order="F") for (a, b), ms in self._layers]
        u = np.empty((rows, 1, X.shape[1] + 1))
        u[:, 0, :-1] = X
        u[..., -1] = 1.0
        inputs, slopes = [u], []
        h = u @ mats[0]
        for m in mats[1:]:
            slopes.append(self._act_prime(h).transpose(0, 2, 1))
            u = np.empty((rows, 1, m.shape[0]))
            u[..., :-1] = self._act(h)
            u[..., -1] = 1.0
            inputs.append(u)
            h = u @ m

        jte = np.empty((rows, theta.size))
        g = E[:, :, None]
        for j in range(len(mats) - 1, -1, -1):
            (a, b), (fan_in, fan_out) = self._layers[j]
            # Column-major block of layer j, viewed as (rows, fan_out, fan_in).
            np.multiply(g, inputs[j], out=jte[:, a:b].reshape(rows, fan_out, fan_in))
            if j:
                g = (mats[j][:-1] @ g) * slopes[j - 1]
        return h[:, 0], jte


def he_init(shape: NetworkShape, rng: RandomSource) -> Network:
    """Sample weights entrywise Normal(0, 2 / fan_in), fan_in counting the bias.

    Bias rows get the same variance as weight rows. Sampling fills the flat
    vector in layout order, so equal seeds give equal networks.
    """
    theta = rng.standard_normal(shape.param_count)
    for (a, b), (rows, _) in zip(shape.segments, shape.matrix_shapes):
        theta[a:b] *= np.sqrt(2.0 / rows)
    return Network(shape=shape, theta=theta)
