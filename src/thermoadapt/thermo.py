"""Temperature laws and the Langevin drift/diffusion of the weight update.

The weight estimate follows a stochastic differential update whose drift
descends the generalized internal energy

    U = e . de/dt + (forgetting/2) |theta|^2

and whose diffusion intensity is ``sqrt(diffusion_gain * T)`` for a scalar
temperature ``T = e . mu(x, theta, e) >= 0``. The temperature shrinks with
the tracking error, so stochastic exploration dies out as tracking
improves.

Three built-in choices of ``mu`` are provided, all proportional to the
tracking error:

    error:  mu = scale * e
    state:  mu = (quad_weight * |x|^2     + scale) * e
    weight: mu = (quad_weight * |theta|^2 + scale) * e

A custom law supplies its own ``mu`` and its Jacobian with respect to the
weights; :func:`validate_custom_law` cross-checks the pair against finite
differences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import RandomSource, finite_diff_jacobian

__all__ = [
    "Gains",
    "TemperatureLaw",
    "internal_energy",
    "drift",
    "diffusion_coefficient",
    "validate_custom_law",
]

LAW_KINDS = ("error", "state", "weight", "custom")


@dataclass(frozen=True)
class Gains:
    """Update-law and controller gains.

    ``diffusion_gain`` may be zero (stochastic exploration switched off,
    the deterministic baseline); everything else must be positive.
    ``weight_count`` is the size p of the flat weight vector; it has no
    default because it comes from the shape of the network in use.
    """

    learning_rate: float = 1.0
    forgetting_factor: float = 0.001
    diffusion_gain: float = 0.03
    control_gain: float = 100.0
    weight_count: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.forgetting_factor <= 0.0:
            raise ValueError(
                f"forgetting_factor must be positive, got {self.forgetting_factor}"
            )
        if self.diffusion_gain < 0.0:
            raise ValueError(
                f"diffusion_gain must be nonnegative, got {self.diffusion_gain}"
            )
        if self.control_gain <= 0.0:
            raise ValueError(f"control_gain must be positive, got {self.control_gain}")
        if self.weight_count < 1:
            raise ValueError(f"weight_count must be >= 1, got {self.weight_count}")

    @property
    def thermal_coeff(self) -> float:
        """Coefficient ``(p + 1)/2 * learning_rate * diffusion_gain`` shared by
        the controller compensation and the drift's temperature-coupling term."""
        return 0.5 * (self.weight_count + 1) * self.learning_rate * self.diffusion_gain


@dataclass(frozen=True)
class TemperatureLaw:
    """A choice of ``mu`` defining the temperature ``T = e . mu``."""

    kind: str = "error"
    scale: float = 9.0
    quad_weight: float = 0.01
    mu_fn: Optional[Callable] = None
    mu_jacobian_fn: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.kind not in LAW_KINDS:
            raise ValueError(f"unknown temperature law {self.kind!r}")
        if self.kind == "custom" and (self.mu_fn is None or self.mu_jacobian_fn is None):
            raise ValueError("custom law needs both mu_fn and mu_jacobian_fn")

    def mu(self, x: np.ndarray, theta_hat: np.ndarray, e: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        if self.kind == "error":
            return self.scale * e
        if self.kind == "state":
            return (self.quad_weight * float(x @ x) + self.scale) * e
        if self.kind == "weight":
            theta_hat = np.asarray(theta_hat, dtype=float)
            return (self.quad_weight * float(theta_hat @ theta_hat) + self.scale) * e
        return np.asarray(self.mu_fn(x, theta_hat, e), dtype=float)

    @staticmethod
    def temperature(e: np.ndarray, mu: np.ndarray) -> float:
        """Scalar temperature ``max(e . mu, 0)`` from the law's ``mu`` at ``e``.

        Nonnegative by design for the built-in laws; the clamp only guards
        floating-point round-off (and ill-behaved custom laws).
        """
        return max(float(e @ mu), 0.0)

    def mu_jacobian(self, x: np.ndarray, theta_hat: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Jacobian of ``mu`` with respect to the weights, shape (n, p)."""
        e = np.asarray(e, dtype=float)
        theta_hat = np.asarray(theta_hat, dtype=float)
        if self.kind in ("error", "state"):
            return np.zeros((e.size, theta_hat.size))
        if self.kind == "weight":
            return 2.0 * self.quad_weight * np.outer(e, theta_hat)
        return np.asarray(self.mu_jacobian_fn(x, theta_hat, e), dtype=float)

    def mu_jacobian_applied(
        self, x: np.ndarray, theta_hat: np.ndarray, e: np.ndarray
    ) -> np.ndarray:
        """The contraction ``mu_jacobian(...).T @ e`` without forming the matrix."""
        e = np.asarray(e, dtype=float)
        theta_hat = np.asarray(theta_hat, dtype=float)
        if self.kind in ("error", "state"):
            return np.zeros(theta_hat.size)
        if self.kind == "weight":
            return (2.0 * self.quad_weight * float(e @ e)) * theta_hat
        return np.asarray(self.mu_jacobian_fn(x, theta_hat, e), dtype=float).T @ e


def internal_energy(e, e_dot, theta_hat, forgetting_factor: float) -> float:
    """Generalized internal energy ``e . e_dot + forgetting/2 |theta|^2``."""
    e = np.asarray(e, dtype=float)
    e_dot = np.asarray(e_dot, dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    return float(e @ e_dot) + 0.5 * forgetting_factor * float(theta_hat @ theta_hat)


def drift(
    law: TemperatureLaw,
    gains: Gains,
    jac: np.ndarray,
    x: np.ndarray,
    theta_hat: np.ndarray,
    e: np.ndarray,
) -> np.ndarray:
    """Deterministic part of the weight update, before projection.

    Equals the negative weight-gradient of the closed-loop internal energy:
    the approximation-error pull ``J.T e`` (``jac`` is the network's weight
    Jacobian at ``x``), the temperature-coupling correction, and the
    forgetting pull toward zero.
    """
    rho = jac.T @ e
    rho += gains.thermal_coeff * law.mu_jacobian_applied(x, theta_hat, e)
    rho -= gains.forgetting_factor * theta_hat
    return rho


def diffusion_coefficient(gains: Gains, temperature: float) -> float:
    """Scalar noise intensity ``sqrt(diffusion_gain * T)``.

    The per-step stochastic increment is this scalar times a Wiener
    increment (scalar-times-identity diffusion).
    """
    return float(np.sqrt(gains.diffusion_gain * temperature))


def validate_custom_law(
    law: TemperatureLaw,
    n: int,
    p: int,
    rng: RandomSource,
    samples: int = 10,
    tol: float = 1e-4,
) -> float:
    """Cross-check a law's Jacobian against finite differences of its mu.

    Draws random (x, theta, e) triples and compares. Emits a warning when
    the worst absolute mismatch exceeds ``tol``; returns that mismatch.
    """
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(n)
        theta = rng.standard_normal(p)
        e = rng.standard_normal(n)
        analytic = law.mu_jacobian(x, theta, e)
        numeric = finite_diff_jacobian(lambda th: law.mu(x, th, e), theta, h=1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    if worst > tol:
        warnings.warn(
            f"temperature-law Jacobian disagrees with finite differences "
            f"(max abs error {worst:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return worst
