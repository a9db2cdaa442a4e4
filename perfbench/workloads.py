"""Workload definitions: every input of a benchmark run follows from its seed.

Each workload is a sweep repeated in rounds. A round is one fresh process
(``round.py``) that runs the same experiment through the package's public
entry points, with at most ``nproc`` pool workers taking the next
(scenario, seed) run as soon as one frees up (a closed loop).

The parameters are written out in full here rather than taken from the
package defaults, so a change of defaults cannot silently change the
benchmark's inputs. ``PAPER`` is the paper's setting: 5-(10x9)-5 swish
network, radius-20 ball, 30 s horizon at 1 ms steps.
"""

from __future__ import annotations

import os

WORKLOADS = ("battery", "cli", "wide")
# Layers that traced rounds time (probes.py) and report (run.py).
LAYERS = ("network", "plant", "thermo", "projection", "numerics")

PAPER = {
    "horizon": 30.0,
    "dt": 0.001,
    "init_seed": 0,
    "initial_state": (0.0, -1.0, 3.0, -3.0, 3.0),
    "log_stride": 10,
    "learning_rate": 1.0,
    "forgetting_factor": 0.001,
    "diffusion_gain": 0.03,
    "control_gain": 100.0,
    "hidden_layers": 9,
    "hidden_width": 10,
    "activation": "swish",
    "ball_radius": 20.0,
    "ball_layer": 0.1,
    "temp_scale": 9.0,
    "temp_quad_weight": 0.01,
    "offtraj_count": 90,
    "offtraj_low": -0.5,
    "offtraj_high": 0.5,
    "offtraj_seed": 7777,
    "lyapunov_reference": "zero",
}

# ExperimentConfig field -> (INI section, key), as documented in README.md.
INI_KEYS = {
    "horizon": ("experiment", "horizon"),
    "dt": ("experiment", "dt"),
    "scenarios": ("experiment", "scenarios"),
    "seeds": ("experiment", "seeds"),
    "init_seed": ("experiment", "init_seed"),
    "initial_state": ("experiment", "initial_state"),
    "output_dir": ("experiment", "output_dir"),
    "log_stride": ("experiment", "log_stride"),
    "learning_rate": ("gains", "learning_rate"),
    "forgetting_factor": ("gains", "forgetting_factor"),
    "diffusion_gain": ("gains", "diffusion_gain"),
    "control_gain": ("gains", "control_gain"),
    "hidden_layers": ("network", "hidden_layers"),
    "hidden_width": ("network", "hidden_width"),
    "activation": ("network", "activation"),
    "ball_radius": ("ball", "radius"),
    "ball_layer": ("ball", "layer"),
    "temp_scale": ("temperature", "scale"),
    "temp_quad_weight": ("temperature", "quad_weight"),
    "offtraj_count": ("offtrajectory", "count"),
    "offtraj_low": ("offtrajectory", "low"),
    "offtraj_high": ("offtrajectory", "high"),
    "offtraj_seed": ("offtrajectory", "seed"),
    "lyapunov_reference": ("lyapunov", "reference"),
}

SEEDS_PER_ROUND = 2


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def build(workload: str, seed: int, horizon: float | None = None) -> dict:
    """The full specification of one workload for a given benchmark seed.

    ``horizon`` shortens the runs (for the benchmark's own tests only).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seeds = tuple(SEEDS_PER_ROUND * seed + k for k in range(SEEDS_PER_ROUND))
    params = dict(PAPER, seeds=seeds)
    if workload == "battery":
        # The acceptance battery's make-up on a slice of its seeds.
        params["scenarios"] = ("S1", "S2", "S3", "S4")
    elif workload == "cli":
        # What a user runs: deterministic reference, full-resolution CSVs.
        params.update(
            scenarios=("S1", "S2", "S3", "S4"),
            lyapunov_reference="deterministic",
            log_stride=1,
        )
    else:
        # Shallow-wide net (p = 2885) in a ball just above the He-initialised
        # weight norm (14.3), so the projection's fade and clip branches run.
        params.update(
            scenarios=("S2", "S3", "S4"),
            hidden_layers=2,
            hidden_width=48,
            ball_radius=15.0,
        )
    if horizon is not None:
        params["horizon"] = horizon
    return {"workload": workload, "seed": seed, "workers": workers(), "params": params}


def layer_sizes(params: dict) -> tuple[int, ...]:
    return (5, *([params["hidden_width"]] * params["hidden_layers"]), 5)


def steps_per_run(params: dict) -> int:
    return int(round(params["horizon"] / params["dt"]))


def runs_per_round(params: dict) -> int:
    return len(params["scenarios"]) * len(params["seeds"])


def _ini_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def ini_text(params: dict, output_dir: str) -> str:
    """The INI file of the ``cli`` workload, every key written out."""
    sections: dict[str, list[str]] = {}
    for name, (section, key) in INI_KEYS.items():
        value = output_dir if name == "output_dir" else params[name]
        sections.setdefault(section, []).append(f"{key} = {_ini_value(value)}")
    return "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n\n" for section, lines in sections.items()
    )
