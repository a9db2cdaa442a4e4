"""Seeded randomness, Wiener increments, and dense-array test helpers.

All arithmetic is 64-bit floating point. Random streams come from numpy's
PCG64 generator (normal variates via the ziggurat method), so a fixed seed
reproduces the same stream on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "RandomSource",
    "wiener_increment",
    "finite_diff_jacobian",
]


@dataclass
class RandomSource:
    """Deterministic random stream owned by a single consumer.

    Not safe to share between threads; concurrent runs each get their own
    source. ``draws`` counts the values handed out, for auditability.
    """

    seed: int
    draws: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. standard-normal samples."""
        out = self._gen.standard_normal(int(n))
        self.draws += out.size
        return out

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Draw uniform samples on ``[low, high)`` with the given shape."""
        out = self._gen.uniform(low, high, size)
        self.draws += out.size
        return out


def wiener_increment(rng: RandomSource, p: int, dt: float) -> np.ndarray:
    """Increment of a p-dimensional Wiener process over a step of length dt.

    Entries are i.i.d. Normal(0, dt).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    return rng.standard_normal(p) * np.sqrt(dt)


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
