"""Smooth projection of update increments onto a ball-shaped search region.

The region is ``{theta : P(theta) <= 0}`` for the boundary function
``P(theta) = |theta|^2 - radius^2``, surrounded by a thin layer
``{0 < P <= layer}``. Inside the region, or whenever an increment points
inward, it passes through untouched; in the layer an outward increment has
its radial component faded out, reaching full cancellation on the outer
shell. That keeps iterates from ever crossing the outer shell while leaving
the update law smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvexBall", "ProjectionDomainError"]


class ProjectionDomainError(ValueError):
    """The supplied point lies outside the admissible layered region."""


@dataclass(frozen=True)
class ConvexBall:
    """Ball of the given radius with a surrounding boundary layer.

    ``radius`` bounds the admissible weight norm; ``layer`` is the width of
    the fade-out region measured in units of the boundary function.
    """

    radius: float = 20.0
    layer: float = 0.1

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.layer <= 0.0:
            raise ValueError(f"layer must be positive, got {self.layer}")

    def boundary_fn(self, theta_sq: float) -> float:
        """Boundary value ``P = theta_sq - radius^2``, negative inside the ball."""
        return theta_sq - self.radius * self.radius

    def is_inside(self, theta_sq: float) -> bool:
        """Whether a point of squared norm ``theta_sq`` lies strictly inside
        the ball, where :meth:`project` passes every increment through."""
        return self.boundary_fn(theta_sq) < 0.0

    def is_within_shell(self, theta_sq: float) -> bool:
        """Whether a point of squared norm ``theta_sq`` lies within the outer
        shell, where :meth:`clip` leaves it; false for a non-finite one."""
        return self.boundary_fn(theta_sq) <= self.layer

    def project(self, theta: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Project an increment ``m`` taken at the point ``theta``.

        Returns ``m`` unchanged strictly inside the ball or when ``m`` does
        not point outward; otherwise removes a fraction
        ``min(1, P(theta)/layer)`` of the radial component. On the outer
        shell the projected increment never points outward.

        Raises :class:`ProjectionDomainError` if ``theta`` is outside the
        layered region (unreachable along projected trajectories); a small
        relative tolerance absorbs round-off from shell clipping.
        """
        value = self.boundary_fn(float(theta @ theta))
        if value > self.layer * (1.0 + 1e-9) + 1e-12 * self.radius * self.radius:
            raise ProjectionDomainError(
                f"point with boundary value {value:.6g} is outside the layer "
                f"(limit {self.layer:.6g})"
            )
        if value < 0.0:
            return m
        grad = 2.0 * theta
        outward = grad @ m
        if outward <= 0.0:
            return m
        fade = min(1.0, value / self.layer)
        return m - (fade * outward / (grad @ grad)) * grad

    def clip(self, theta: np.ndarray, theta_sq: float) -> tuple[np.ndarray, bool]:
        """Radially rescale onto the outer shell if the point escaped it.

        Discrete stepping can overshoot the layer; this restores the
        invariant the projection maintains in continuous time. ``theta_sq`` is
        the caller's ``|theta|^2``. Returns the (possibly rescaled) point and
        whether a rescale happened; a finite point whose squared norm
        overflows is first divided by its largest entry.
        """
        if self.is_within_shell(theta_sq):
            return theta, False
        if theta_sq == np.inf and np.isfinite(theta).all():
            theta = theta / np.max(np.abs(theta))
            theta_sq = float(theta @ theta)
        return theta * np.sqrt((self.radius * self.radius + self.layer) / theta_sq), True
