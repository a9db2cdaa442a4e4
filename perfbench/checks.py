"""Correctness checks of a workload's outputs.

Expected values are computed here from the documented equations, not with
the package's code and not from stored outputs: the reference sinusoids,
the plant drift, the temperature laws, the He initialisation and a forward
pass built from the documented weight layout (one matrix per layer,
column-major, biases in the last row). The other checks are properties the
method must have. Each check returns a list of problems; empty means
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import layer_sizes, steps_per_run

CSV_COLUMNS = (
    "t", "x1", "x2", "x3", "x4", "x5", "e1", "e2", "e3", "e4", "e5",
    "e_norm", "theta_norm", "temperature", "diffusion", "lyapunov_proxy",
    "func_err_norm", "clip_flag",
)
# Round-off allowance of a boundary value that was clipped onto the shell,
# as in the acceptance battery's projection-safety criterion.
BOUNDARY_SLACK = 1e-9
REL_TOL = 1e-9
ABS_TOL = 1e-12
# The late window of the logged mean temperature ends here (s); shorter
# runs have no late temperature to compare.
LATE_WINDOW_END = 30.0


# ---------------------------------------------------------------------------
# Independent model of the documented equations


def desired(t):
    """Reference trajectory x_d(t), rows indexed like ``t``."""
    t = np.asarray(t, dtype=float)
    return np.stack(
        [
            np.sin(2.0 * t),
            -np.cos(t),
            np.sin(3.0 * t) + np.cos(2.0 * t),
            np.sin(t) - np.cos(0.5 * t),
            -np.sin(t),
        ],
        axis=-1,
    )


def plant_drift(x):
    """Drift f(x) of the five-state plant, rows of ``x`` are states."""
    x1, x2, x3, x4, x5 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    return np.stack(
        [
            5.0 * np.tanh(50.0 * x1) * x5 * x5 + np.cos(x4),
            np.cos(20.0 * x3) + 2.0 * np.sin(x1 * x2) * np.sin(x4 * x5),
            10.0 * np.exp(-25.0 * x4 * x4) * x3 - 0.1 * x3**3,
            2.0 * np.sin(15.0 * (x1 * x5 - x2 * x3)),
            -x1 * x5 + 5.0 * np.tanh(20.0 * (x2 - x4)),
        ],
        axis=-1,
    )


def weight_matrices(theta, sizes):
    """Split the flat vector into (fan_in + 1, fan_out) matrices, column-major."""
    mats, offset = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        count = (fan_in + 1) * fan_out
        mats.append(np.reshape(theta[offset:offset + count], (fan_in + 1, fan_out), order="F"))
        offset += count
    if offset != theta.size:
        raise ValueError(f"theta has {theta.size} entries, layout needs {offset}")
    return mats


def forward(theta, sizes, x):
    """Swish network output for each row of ``x``."""
    mats = weight_matrices(np.asarray(theta, dtype=float), sizes)
    h = np.atleast_2d(x)
    for k, m in enumerate(mats):
        if k > 0:
            h = h / (1.0 + np.exp(-h))
        h = h @ m[:-1] + m[-1]
    return h


def param_count(sizes) -> int:
    return sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))


def he_init(sizes, init_seed):
    """Entrywise Normal(0, 2 / (fan_in + 1)) in layout order from PCG64(init_seed)."""
    theta = np.random.Generator(np.random.PCG64(init_seed)).standard_normal(param_count(sizes))
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        count = (fan_in + 1) * fan_out
        theta[offset:offset + count] *= math.sqrt(2.0 / (fan_in + 1))
        offset += count
    return theta


def off_traj_rms(theta, params):
    """RMS of |f - net| over the shared uniform test points."""
    points = np.random.Generator(np.random.PCG64(params["offtraj_seed"])).uniform(
        params["offtraj_low"], params["offtraj_high"], (params["offtraj_count"], 5)
    )
    diff = plant_drift(points) - forward(theta, layer_sizes(params), points)
    return math.sqrt(float(np.sum(diff * diff)) / params["offtraj_count"])


def temperature(scenario, params, x, e, theta_norm):
    """T = max(e . mu, 0) for the scenario's law (S1 and S2: mu = scale * e)."""
    scale = params["temp_scale"]
    if scenario == "S3":
        scale = params["temp_quad_weight"] * np.sum(x * x, axis=-1) + scale
    elif scenario == "S4":
        scale = params["temp_quad_weight"] * theta_norm * theta_norm + scale
    return np.maximum(scale * np.sum(e * e, axis=-1), 0.0)


def _close(a, b, rel=REL_TOL, abs_tol=ABS_TOL):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= abs_tol + rel * np.maximum(np.abs(a), np.abs(b))


# ---------------------------------------------------------------------------
# Per-run records (RunResult / runs.jsonl)

_IDENTITY_FIELDS = (
    "diverged", "rms_error", "rms_func_err", "off_traj_rms", "clip_count",
    "sup_state_norm", "sup_error_norm", "temp_mean_early", "temp_mean_late",
    "max_boundary_value",
)


def canonical(record: dict) -> str:
    """A record as sorted JSON with NaN written as null, as runs.jsonl has it."""
    return json.dumps({k: None if isinstance(v, float) and math.isnan(v) else v
                       for k, v in record.items()}, sort_keys=True)


def read_records(path) -> list[dict]:
    with open(path, "r", encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_records(records, spec) -> list[str]:
    """Properties every completed run of the workload must have."""
    params = spec["params"]
    workload = spec["workload"]
    problems = []
    expected = sorted((s, d) for s in params["scenarios"] for d in params["seeds"])
    got = sorted((r["scenario"], r["seed"]) for r in records)
    if got != expected:
        problems.append(f"runs reported {got}, expected {expected}")
    problems += [f"{r['scenario']} seed {r['seed']}: diverged" for r in records if r["diverged"]]
    ok = [r for r in records if not r["diverged"]]
    for r in ok:
        name = f"{r['scenario']} seed {r['seed']}"
        if not r["max_boundary_value"] <= params["ball_layer"] + BOUNDARY_SLACK:
            problems.append(f"{name}: boundary value {r['max_boundary_value']!r} "
                            f"exceeds the layer {params['ball_layer']}")
        if workload == "battery" and r["clip_count"] != 0:
            problems.append(f"{name}: {r['clip_count']} clips at the paper defaults")
        if (r["scenario"] != "S1" and params["horizon"] >= LATE_WINDOW_END
                and not r["temp_mean_late"] < r["temp_mean_early"]):
            problems.append(f"{name}: temperature did not decay "
                            f"({r['temp_mean_early']!r} -> {r['temp_mean_late']!r})")
    s1 = [r for r in ok if r["scenario"] == "S1"]
    for r in s1[1:]:
        # repr compares bit for bit and treats NaN (no late window) as equal.
        diff = [k for k in _IDENTITY_FIELDS if repr(r[k]) != repr(s1[0][k])]
        if diff:
            problems.append(f"S1 seed {r['seed']} differs from seed {s1[0]['seed']} in {diff}")
    if workload == "battery" and s1:
        for r in ok:
            if r["scenario"] != "S1" and not r["rms_error"] < s1[0]["rms_error"]:
                problems.append(f"{r['scenario']} seed {r['seed']}: rms_error "
                                f"{r['rms_error']!r} not below S1's {s1[0]['rms_error']!r}")
    return problems


def check_off_traj(records, theta_files: dict, params) -> list[str]:
    """Recompute off_traj_rms from the final weights of each run that has
    them; every scenario needs at least one such run."""
    problems = []
    checked = set()
    for r in records:
        path = theta_files.get((r["scenario"], r["seed"]))
        if r["diverged"] or path is None:
            continue
        checked.add(r["scenario"])
        mine = off_traj_rms(np.load(path), params)
        if not _close(mine, r["off_traj_rms"]):
            problems.append(f"{r['scenario']} seed {r['seed']}: off_traj_rms "
                            f"{r['off_traj_rms']!r}, recomputed {mine!r}")
    missing = sorted({r["scenario"] for r in records} - checked)
    if missing:
        problems.append(f"no final weights to recompute off_traj_rms of {missing}")
    return problems


def check_summary(summary_path, records, params) -> list[str]:
    """summary.json's run counts and means follow from the run records."""
    rows = json.loads(Path(summary_path).read_text(encoding="ascii"))["scenarios"]
    problems = []
    if [row["scenario"] for row in rows] != list(params["scenarios"]):
        problems.append(f"summary scenarios {[row['scenario'] for row in rows]}")
    for row in rows:
        mine = [r for r in records if r["scenario"] == row["scenario"]]
        ok = [r for r in mine if not r["diverged"]]
        if row["runs"] != len(mine) or row["diverged"] != len(mine) - len(ok):
            problems.append(f"summary {row['scenario']}: runs {row['runs']}, "
                            f"diverged {row['diverged']}")
        for key, field in (("rms_error_mean", "rms_error"),
                           ("rms_func_err_mean", "rms_func_err"),
                           ("off_traj_mean", "off_traj_rms")):
            mean = float(np.mean([r[field] for r in ok])) if ok else None
            if mean is not None and not _close(row[key], mean):
                problems.append(f"summary {row['scenario']}: {key} {row[key]!r}, "
                                f"mean of runs {mean!r}")
    return problems


def check_draws(run_events, params) -> list[str]:
    """The Wiener path draws p values per step with exploration on, none without."""
    p = param_count(layer_sizes(params))
    problems = []
    for ev in run_events:
        want = 0 if ev["scenario"] == "S1" else p * ev["steps"]
        if ev["draws"] != want:
            problems.append(f"{ev['scenario']} seed {ev['seed']}: {ev['draws']} "
                            f"path draws, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# Trajectory CSVs


def check_csv(path, scenario, params, theta_ref, theta_final=None) -> list[str]:
    """Row identities of one trajectory CSV.

    Each row's e, e_norm, temperature and diffusion follow from its own t,
    x and theta_norm. On the first row theta is the He initialisation and
    on the last row the run's final weights ``theta_final`` (when given),
    so there theta_norm, func_err_norm and the Lyapunov proxy 0.5|e|^2 +
    0.5/lr |theta_ref - theta|^2 are exact. On every row the proxy lies
    between the triangle-inequality bounds set by |theta_ref| and the row's
    theta_norm.
    """
    name = Path(path).name
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    if tuple(header) != CSV_COLUMNS:
        return [f"{name}: header {header}"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []

    def expect(label, ok):
        bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
        if bad.size:
            problems.append(f"{name}: {label} wrong on {bad.size} rows, first row {bad[0]}")

    stride, dt = params["log_stride"], params["dt"]
    n_rows = steps_per_run(params) // stride + 1
    if rows.shape != (n_rows, len(CSV_COLUMNS)):
        return [f"{name}: shape {rows.shape}, expected {(n_rows, len(CSV_COLUMNS))}"]
    t, x, e = rows[:, 0], rows[:, 1:6], rows[:, 6:11]
    e_norm, theta_norm, temp, diffusion, proxy, func_err, clips = rows[:, 11:].T
    expect("t", _close(t, np.arange(n_rows) * stride * dt, rel=0.0, abs_tol=1e-9))
    expect("e = x - x_d(t)", _close(e, x - desired(t)))
    expect("e_norm = |e|", _close(e_norm, np.linalg.norm(e, axis=1)))
    temp_ref = temperature(scenario, params, x, e, theta_norm)
    expect("temperature = e . mu", _close(temp, temp_ref))
    if scenario == "S1":
        expect("diffusion = 0", diffusion == 0.0)
    else:
        expect("diffusion = sqrt(gain T)", _close(diffusion, np.sqrt(params["diffusion_gain"] * temp)))
    expect("clip_flag = 0", clips == 0.0)

    sizes = layer_sizes(params)
    lr = params["learning_rate"]
    expect("row 0 x = initial state", _close(x[0], params["initial_state"], rel=0.0, abs_tol=0.0))
    exact_rows = [(0, he_init(sizes, params["init_seed"]))]
    if theta_final is not None:
        exact_rows.append((n_rows - 1, theta_final))
    for row, theta in exact_rows:
        expect(f"row {row} theta_norm = |theta|", _close(theta_norm[row], np.linalg.norm(theta)))
        f_err = plant_drift(x[row]) - forward(theta, sizes, x[row])[0]
        expect(f"row {row} func_err_norm", _close(func_err[row], np.linalg.norm(f_err)))
        diff = theta_ref - theta
        expect(f"row {row} lyapunov_proxy",
               _close(proxy[row], 0.5 * float(e[row] @ e[row]) + 0.5 / lr * float(diff @ diff)))
    weight_term = 2.0 * lr * (proxy - 0.5 * np.sum(e * e, axis=1))
    ref_norm = float(np.linalg.norm(theta_ref))
    slack = 1e-9 * (ref_norm + theta_norm) ** 2
    expect("lyapunov_proxy within the bounds of |theta_ref|",
           ((ref_norm - theta_norm) ** 2 - slack <= weight_term)
           & (weight_term <= (ref_norm + theta_norm) ** 2 + slack))
    return problems


# ---------------------------------------------------------------------------
# Artifacts


def digest(paths) -> dict[str, str]:
    """SHA-256 of each file, keyed by file name."""
    out = {}
    for path in sorted(paths):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[Path(path).name] = h.hexdigest()
    return out
