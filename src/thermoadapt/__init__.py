"""Stochastic adaptive neural-network tracking control.

A tracking controller for control-affine plants whose feedforward model is
a small feedforward network adapted online. The weight update is a
stochastic differential law: a drift that descends a generalized internal
energy plus thermal noise whose intensity follows a temperature that
shrinks with the tracking error, all kept inside a bounded search region
by a smooth projection. The package bundles the network, the projection,
the update law, the benchmark plant, an Euler-Maruyama simulator with
Lyapunov diagnostics, and an experiment CLI.
"""

from .config import SCENARIO_LAWS, SCENARIO_NAMES, ExperimentConfig
from .diagnostics import (
    InfeasibleConstantsError,
    LyapunovConstants,
    escape_risk,
    lyapunov_value,
)
from .network import (
    ACTIVATIONS,
    Network,
    NetworkEvaluator,
    NetworkShape,
    he_init,
)
from .numerics import RandomSource, wiener_increment
from .plant import (
    STATE_DIM,
    X0_DEFAULT,
    control_input,
    desired,
    plant_drift,
)
from .projection import ConvexBall, ProjectionDomainError
from .sim import (
    CSV_COLUMNS,
    EARLY_WINDOW,
    LATE_WINDOW,
    DivergenceError,
    MetricsReport,
    TrajectoryLog,
    metrics,
    run,
    write_csv,
)
from .thermo import (
    Gains,
    TemperatureLaw,
    diffusion_coefficient,
    drift,
)

__version__ = "0.1.0"
