"""Experiment configuration: defaults, validation, and derived components.

Defaults reproduce the benchmark study: a 30 s horizon at 1 ms steps, a
5-(10x9)-5 swish network, unit learning rate, forgetting factor 1e-3,
diffusion gain 0.03, control gain 100, a radius-20 search ball with a 0.1
layer, temperature coefficients (scale 9, quadratic weight 0.01), and 90
off-trajectory test points drawn uniformly from (-0.5, 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import NetworkShape, he_init
from .numerics import RandomSource
from .plant import STATE_DIM, X0_DEFAULT
from .projection import ConvexBall
from .thermo import Gains, TemperatureLaw

__all__ = ["ExperimentConfig", "SCENARIO_NAMES", "SCENARIO_LAWS"]

SCENARIO_NAMES = ("S1", "S2", "S3", "S4")

# Scenario -> (temperature-law kind, stochastic exploration on?). S1 is the
# deterministic baseline: diffusion gain forced to zero, which also removes
# the thermal compensation and temperature-coupling terms.
SCENARIO_LAWS = {
    "S1": ("error", False),
    "S2": ("error", True),
    "S3": ("state", True),
    "S4": ("weight", True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: float = 30.0
    dt: float = 1e-3
    scenarios: tuple[str, ...] = SCENARIO_NAMES
    seeds: tuple[int, ...] = (0,)
    init_seed: int = 0
    initial_state: tuple[float, ...] = tuple(X0_DEFAULT)
    learning_rate: float = 1.0
    forgetting_factor: float = 0.001
    diffusion_gain: float = 0.03
    control_gain: float = 100.0
    hidden_layers: int = 9
    hidden_width: int = 10
    activation: str = "swish"
    ball_radius: float = 20.0
    ball_layer: float = 0.1
    temp_scale: float = 9.0
    temp_quad_weight: float = 0.01
    output_dir: str = "runs"
    log_stride: int = 10
    offtraj_count: int = 90
    offtraj_low: float = -0.5
    offtraj_high: float = 0.5
    offtraj_seed: int = 7777
    lyapunov_reference: str = "deterministic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "initial_state", tuple(float(v) for v in self.initial_state))
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():
            entries = value if name == "initial_state" else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.horizon < 0.0:
            raise ValueError(f"horizon must be nonnegative, got {self.horizon}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        # Past 2**53 round() gives no exact step count; past 2**63 numpy sizes no table.
        steps = self.horizon / self.dt
        if not steps <= 2.0**53:
            raise ValueError(f"horizon / dt must be at most 2**53, got {self.horizon} / {self.dt}")
        # sim.run takes round(horizon / dt) steps; a fraction would move the end time.
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"horizon / dt must be a whole number of steps, got {self.horizon} / {self.dt}"
            )
        unknown = [s for s in self.scenarios if s not in SCENARIO_NAMES]
        if unknown:
            raise ValueError(f"unknown scenarios {unknown}; choose from {SCENARIO_NAMES}")
        if not self.scenarios:
            raise ValueError("scenarios must name at least one scenario")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError("scenarios must not repeat")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must not repeat")
        if len(self.initial_state) != STATE_DIM:
            raise ValueError(
                f"initial_state needs {STATE_DIM} entries, got {len(self.initial_state)}"
            )
        # sim.run takes |x|^2 of the state; it must not overflow at the start.
        with np.errstate(over="ignore"):
            x0_sq = float(self.x0().dot(self.x0()))
        if not math.isfinite(x0_sq):
            raise ValueError(
                f"initial_state must have a finite squared norm, got {self.initial_state}"
            )
        if self.hidden_layers < 0:
            raise ValueError(f"hidden_layers must be >= 0, got {self.hidden_layers}")
        if self.hidden_width < 1:
            raise ValueError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.temp_scale <= 0.0:
            raise ValueError(f"temp_scale must be positive, got {self.temp_scale}")
        if self.temp_quad_weight < 0.0:
            raise ValueError(
                f"temp_quad_weight must be nonnegative, got {self.temp_quad_weight}"
            )
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")
        if self.log_stride < 1:
            raise ValueError(f"log_stride must be >= 1, got {self.log_stride}")
        if self.offtraj_count < 1:
            raise ValueError(f"offtraj_count must be >= 1, got {self.offtraj_count}")
        if not self.offtraj_low < self.offtraj_high:
            raise ValueError("offtraj_low must be below offtraj_high")
        if self.lyapunov_reference not in ("deterministic", "initial", "zero"):
            raise ValueError(
                f"lyapunov_reference must be deterministic/initial/zero, "
                f"got {self.lyapunov_reference!r}"
            )
        # The components check their own parameters; S2 has exploration on,
        # so its gains include the configured diffusion gain.
        self.gains_for("S2")
        seed_keys = [("seeds", s) for s in self.seeds]
        seed_keys += [("offtraj_seed", self.offtraj_seed), ("init_seed", self.init_seed)]
        for key, seed in seed_keys:
            try:
                RandomSource(seed)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        ball = self.ball()
        theta0 = self.initial_theta()
        theta0_sq = float(theta0.dot(theta0))
        if not ball.is_within_shell(theta0_sq):
            raise ValueError(
                f"ball radius {self.ball_radius:g} (layer {self.ball_layer:g}) does not "
                f"contain the initial weights, whose norm is {math.sqrt(theta0_sq):.2f}"
            )

    # Derived pieces -------------------------------------------------------

    def network_shape(self) -> NetworkShape:
        return NetworkShape(
            input_size=STATE_DIM,
            hidden_sizes=(self.hidden_width,) * self.hidden_layers,
            output_size=STATE_DIM,
            activation=self.activation,
        )

    def ball(self) -> ConvexBall:
        return ConvexBall(radius=self.ball_radius, layer=self.ball_layer)

    def gains_for(self, scenario: str) -> Gains:
        _, diffusion_on = SCENARIO_LAWS[scenario]
        return Gains(
            learning_rate=self.learning_rate,
            forgetting_factor=self.forgetting_factor,
            diffusion_gain=self.diffusion_gain if diffusion_on else 0.0,
            control_gain=self.control_gain,
            weight_count=self.network_shape().param_count,
        )

    def law_for(self, scenario: str) -> TemperatureLaw:
        kind, _ = SCENARIO_LAWS[scenario]
        return TemperatureLaw(
            kind=kind, scale=self.temp_scale, quad_weight=self.temp_quad_weight
        )

    def initial_theta(self) -> np.ndarray:
        """He-initialised weights shared by every run of the experiment."""
        return he_init(self.network_shape(), RandomSource(self.init_seed)).theta

    def x0(self) -> np.ndarray:
        return np.asarray(self.initial_state, dtype=float)
