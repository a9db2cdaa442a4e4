"""Temperature laws and the Langevin drift/diffusion of the weight update.

The weight estimate follows a stochastic differential update whose drift
descends the generalized internal energy

    U = e . de/dt + (forgetting/2) |theta|^2

and whose diffusion intensity is ``sqrt(diffusion_gain * T)`` for a scalar
temperature ``T = e . mu(x, theta, e) >= 0``. The temperature shrinks with
the tracking error, so stochastic exploration dies out as tracking
improves.

Three choices of ``mu`` are provided, all proportional to the
tracking error:

    error:  mu = scale * e
    state:  mu = (quad_weight * |x|^2     + scale) * e
    weight: mu = (quad_weight * |theta|^2 + scale) * e

The laws take the squared norms |x|^2, |theta|^2 and |e|^2, not the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Gains",
    "TemperatureLaw",
    "drift",
    "diffusion_coefficient",
]

LAW_KINDS = ("error", "state", "weight")


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

    def __post_init__(self) -> None:
        if self.kind not in LAW_KINDS:
            raise ValueError(f"unknown temperature law {self.kind!r}")

    @property
    def depends_on_weights(self) -> bool:
        """Whether ``mu`` varies with the weights; only the weight law's does."""
        return self.kind == "weight"

    def mu(self, e: np.ndarray, x_sq: float, theta_sq: float) -> np.ndarray:
        """``(quad_weight * s + scale) * e``; the kind picks s = 0, x_sq or theta_sq."""
        s = 0.0 if self.kind == "error" else x_sq if self.kind == "state" else theta_sq
        return (self.quad_weight * s + self.scale) * e

    @staticmethod
    def temperature(e: np.ndarray, mu: np.ndarray) -> float:
        """Scalar temperature ``max(e . mu, 0)`` from the law's ``mu`` at ``e``.

        Nonnegative by design for every law; the clamp only guards
        floating-point round-off.
        """
        return max(float(e @ mu), 0.0)

    def mu_jacobian_applied(self, e_sq: float, theta_hat: np.ndarray) -> np.ndarray:
        """Weight gradient of ``e . mu`` at fixed ``e``, ``(d mu / d theta).T @ e``,
        from ``e_sq = |e|^2``, without forming the (n, p) Jacobian of ``mu``."""
        if not self.depends_on_weights:
            return np.zeros(theta_hat.size)
        return (2.0 * self.quad_weight * e_sq) * theta_hat


def drift(
    law: TemperatureLaw,
    gains: Gains,
    jte: np.ndarray,
    theta_hat: np.ndarray,
    e_sq: float,
) -> np.ndarray:
    """Deterministic part of the weight update, before projection.

    Equals the negative weight-gradient of the closed-loop internal energy:
    the approximation-error pull ``jte = J.T e`` (``J`` is the network's
    weight Jacobian at ``x``, the product comes from
    ``NetworkEvaluator.evaluate``), the temperature-coupling correction, and
    the forgetting pull toward zero. The correction is left out, not added
    as zeros, for laws whose ``mu`` does not depend on the weights.
    """
    pull = gains.forgetting_factor * theta_hat
    if not law.depends_on_weights:
        return jte - pull
    rho = jte + gains.thermal_coeff * law.mu_jacobian_applied(e_sq, theta_hat)
    rho -= pull
    return rho


def diffusion_coefficient(gains: Gains, temperature: float) -> float:
    """Scalar noise intensity ``sqrt(diffusion_gain * T)``.

    The per-step stochastic increment is this scalar times a Wiener
    increment (scalar-times-identity diffusion).
    """
    return float(np.sqrt(gains.diffusion_gain * temperature))
