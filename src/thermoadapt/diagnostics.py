"""Lyapunov-style diagnostics: energy value and escape risk.

These calculators evaluate the stability bookkeeping around a run. The
combined error ``z`` stacks the tracking error and a weight-error proxy;
its energy is

    V(z) = |e|^2 / 2 + |theta_err|^2 / (2 * learning_rate)

which is sandwiched between ``alpha1 |z|^2`` and ``alpha2 |z|^2``. The
escape risk bounds the probability that the energy ever exceeds a chosen
level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InfeasibleConstantsError",
    "LyapunovConstants",
    "lyapunov_value",
    "escape_risk",
]


class InfeasibleConstantsError(ValueError):
    """No admissible escape level exists for these constants."""


def lyapunov_value(e_sq: float, theta_err_sq: float, learning_rate: float) -> float:
    """Energy ``|e|^2 / 2 + |theta_err|^2 / (2 lr)`` from the two squared norms."""
    if learning_rate <= 0.0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    return 0.5 * e_sq + 0.5 / learning_rate * theta_err_sq


@dataclass(frozen=True)
class LyapunovConstants:
    """Constants of the contraction estimate.

    ``b0`` is the contraction margin, ``b1`` the disturbance offset, ``b2``
    the desired decay rate. The disturbance polynomial is
    ``rho(s) = (rho_a2 (s + xd_bound)^2 + rho_a1 (s + xd_bound) + rho_a0) * s``,
    strictly increasing on ``s >= 0``. ``level`` is the energy level whose
    exceedance probability the escape risk bounds.
    """

    learning_rate: float
    b0: float
    b1: float
    b2: float
    rho_a0: float
    rho_a1: float
    rho_a2: float
    xd_bound: float
    level: float

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        for name in ("b0", "b2", "rho_a0", "rho_a1", "rho_a2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.b1 < 0.0:
            raise ValueError("b1 must be nonnegative")
        if self.xd_bound < 0.0:
            raise ValueError("xd_bound must be nonnegative")
        if self.level <= 0.0:
            raise ValueError("level must be positive")

    @property
    def alpha1(self) -> float:
        return 0.5 * min(1.0, 1.0 / self.learning_rate)

    @property
    def alpha2(self) -> float:
        return 0.5 * max(1.0, 1.0 / self.learning_rate)

    def rho(self, s: float) -> float:
        """Disturbance polynomial, monotone on the nonnegative axis."""
        if s < 0.0:
            raise ValueError(f"rho is defined for s >= 0, got {s}")
        shifted = s + self.xd_bound
        return (self.rho_a2 * shifted * shifted + self.rho_a1 * shifted + self.rho_a0) * s

    def rho_inverse(self, y: float) -> float:
        """Inverse of :meth:`rho` on ``y >= 0`` by bracketed root finding."""
        if y < 0.0:
            raise ValueError(f"rho_inverse is defined for y >= 0, got {y}")
        if y == 0.0:
            return 0.0
        # Imported on first use: no run calls this, and scipy.optimize adds
        # about a third to every process's import time and memory.
        from scipy.optimize import brentq

        hi = 1.0
        while self.rho(hi) < y:
            hi *= 2.0
            if hi > 1e12:
                raise ValueError("rho_inverse bracket expansion failed")
        return float(brentq(lambda s: self.rho(s) - y, 0.0, hi, xtol=1e-14, rtol=1e-14))

    def level_interval(self) -> tuple[float, float]:
        """Admissible range of the escape level; raises when empty."""
        if self.b0 <= self.b2:
            raise InfeasibleConstantsError(
                f"contraction margin b0 = {self.b0:.6g} does not exceed the "
                f"decay rate b2 = {self.b2:.6g}"
            )
        radius = self.rho_inverse(self.b0 - self.b2)
        lo = self.alpha2 * self.b1 / self.b2
        hi = self.alpha1 * radius * radius
        if lo > hi:
            raise InfeasibleConstantsError(
                f"escape-level interval is empty ({lo:.6g} > {hi:.6g}); "
                f"the gain condition fails"
            )
        return lo, hi


def escape_risk(constants: LyapunovConstants, v0: float, t: float) -> float:
    """Bound on the probability that the energy ever exceeds the level.

    Decreasing in ``t``; as ``t`` grows only the floor term
    ``alpha2 b1 / (level b2)`` survives.
    """
    if v0 < 0.0:
        raise ValueError(f"initial energy must be nonnegative, got {v0}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if constants.b1 <= 0.0:
        raise ValueError("escape risk needs b1 > 0")
    lo, hi = constants.level_interval()
    level = constants.level
    if not lo <= level <= hi:
        raise InfeasibleConstantsError(
            f"level {level:.6g} outside the admissible interval "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    # The interval's upper end is the level cap alpha1 rho^{-1}(b0 - b2)^2.
    return (
        v0 / hi
        + (v0 / level) * float(np.exp(-constants.b1 * t))
        + constants.alpha2 * constants.b1 / (level * constants.b2)
    )
