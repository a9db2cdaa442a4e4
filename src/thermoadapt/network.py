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

``NetworkEvaluator`` evaluates the rows of its input one at a time on
buffers built once: a private copy of the weights with the per-layer matrix
views on it, the augmented-input buffers with their trailing 1, and flat
buffers for the hidden pre-activations, the activation's auxiliary value
(the sigmoid for swish, tanh for tanh) and the slopes. A hidden layer then
costs a dot, one transcendental and the value; the slopes of all hidden
layers come from one vectorised pass. Consecutive layers with equal matrix
shape share stacked input and cotangent buffers, so one broadcast multiply
writes all of their gradient blocks. Each element sees the same operations
in the same order as in a plain per-layer loop (kept in the tests as a
bitwise oracle), and the arrays returned are fresh, never views of the
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .numerics import RandomSource

__all__ = [
    "ACTIVATIONS",
    "NetworkShape",
    "Network",
    "NetworkEvaluator",
    "he_init",
]


# ---------------------------------------------------------------------------
# Activations
#
# Each activation is written through one auxiliary value a = aux(y): the
# logistic sigmoid for swish, tanh for tanh, a copy of y for linear. A
# formula ``f(y, a, out)`` writes the value or the slope at y into ``out``
# from y and a, so the evaluator calls the transcendental once per layer.


def _swish_value(y, s, out):
    return np.multiply(y, s, out)


def _swish_slope(y, s, out):
    # s * (1 + y * (1 - s))
    np.subtract(1.0, s, out)
    np.multiply(y, out, out)
    np.add(1.0, out, out)
    return np.multiply(s, out, out)


def _tanh_slope(y, t, out):
    # 1 - t * t
    np.multiply(t, t, out)
    return np.subtract(1.0, out, out)


def _aux_value(y, a, out):
    np.copyto(out, a)
    return out


def _unit_slope(y, a, out):
    np.copyto(out, 1.0)
    return out


# name -> (auxiliary ufunc, value formula, slope formula)
ACTIVATIONS: dict[str, tuple[Callable, Callable, Callable]] = {
    "swish": (expit, _swish_value, _swish_slope),
    "tanh": (np.tanh, _aux_value, _tanh_slope),
    "linear": (np.positive, _aux_value, _unit_slope),
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
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {self.layer_sizes}")
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network output at input ``x``, or at each row of a 2-D ``x``.

        Rows are evaluated independently: each output row equals the output
        at that row alone, bit for bit.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.shape.input_size:
            raise ValueError(
                f"input has shape {x.shape}, expected ({self.shape.input_size},) "
                f"or (rows, {self.shape.input_size})"
            )
        out, _ = NetworkEvaluator(self.shape).evaluate(self.theta, np.atleast_2d(x))
        return out if x.ndim == 2 else out[0]


class NetworkEvaluator:
    """The one implementation of the forward pass and of the weight derivative.

    ``Network.forward`` wraps it, and the simulator calls it once per step.
    A row's result does not depend on the other rows.
    """

    def __init__(self, shape: NetworkShape):
        self.shape = shape
        self._aux, self._value, self._slope = ACTIVATIONS[shape.activation]
        self._theta = np.empty(shape.param_count)
        self._jte = np.empty(shape.param_count)
        mats, inputs, cots, self._blocks = [], [], [], []
        layers = zip(shape.segments, shape.matrix_shapes)
        for (r, c), group in groupby(layers, key=lambda layer: layer[1]):
            group = list(group)
            a, b = group[0][0][0], group[-1][0][1]
            u = np.empty((len(group), 1, r))
            u[..., -1] = 1.0
            g = np.empty((len(group), c, 1))
            mats += [self._theta[lo:hi].reshape((r, c), order="F") for (lo, hi), _ in group]
            inputs += list(u[:, 0])
            cots += list(g[..., 0])
            # Column-major blocks, viewed as (layers, fan_out, fan_in + 1).
            self._blocks.append((g, u, self._jte[a:b].reshape(len(group), c, r)))
        self._x = inputs[0][:-1]
        self._e = cots[-1]
        self._last = (inputs[-1], mats[-1])

        width = sum(shape.hidden_sizes)
        self._pre = np.empty(width)
        self._aux_values = np.empty(width)
        self._slopes = np.empty(width)
        self._forward, self._reverse = [], []
        offset = 0
        for j, w in enumerate(shape.hidden_sizes):
            cut = slice(offset, offset + w)
            offset += w
            self._forward.append(
                (inputs[j], mats[j], self._pre[cut], self._aux_values[cut], inputs[j + 1][:-1])
            )
            # Layer j + 1 pulls its cotangent back to layer j's output.
            self._reverse.append((mats[j + 1][:-1], cots[j + 1], cots[j], self._slopes[cut]))
        self._reverse.reverse()

    def evaluate(
        self, theta: np.ndarray, X: np.ndarray, E: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Outputs ``Phi`` (B, n_out) at the rows of ``X`` (B, n_in) and the
        products ``J(x_b).T @ E[b]`` (B, p), for weights ``theta`` (p,).

        One forward pass keeps each layer's augmented input and activation
        slopes; one reverse sweep then pulls ``E`` back through the layers.
        The gradient of layer j's matrix is the outer product of its input
        with the cotangent of its output. With ``E`` None the reverse sweep
        is skipped and the second result is None.
        """
        rows = X.shape[0]
        phi = np.empty((rows, self.shape.output_size))
        jte = None if E is None else np.empty((rows, self._jte.size))
        np.copyto(self._theta, theta)
        aux, value = self._aux, self._value
        # out is passed positionally: the keyword costs more per call.
        for b in range(rows):
            np.copyto(self._x, X[b])
            for u, m, h, a, act in self._forward:
                np.dot(u, m, h)
                aux(h, a)
                value(h, a, act)
            np.dot(*self._last, phi[b])
            if jte is None:
                continue
            self._slope(self._pre, self._aux_values, self._slopes)
            np.copyto(self._e, E[b])
            for back, g, g_prev, slope in self._reverse:
                # np.dot here would round differently from the stacked matmul.
                np.matmul(back, g, g_prev)
                np.multiply(g_prev, slope, g_prev)
            for g, u, block in self._blocks:
                np.multiply(g, u, block)
            jte[b] = self._jte
        return phi, jte


def he_init(shape: NetworkShape, rng: RandomSource) -> Network:
    """Sample weights entrywise Normal(0, 2 / fan_in), fan_in counting the bias.

    Bias rows get the same variance as weight rows. Sampling fills the flat
    vector in layout order, so equal seeds give equal networks.
    """
    theta = rng.standard_normal(shape.param_count)
    for (a, b), (rows, _) in zip(shape.segments, shape.matrix_shapes):
        theta[a:b] *= np.sqrt(2.0 / rows)
    return Network(shape=shape, theta=theta)
