"""Tests of the benchmark itself: every workload at a tiny size, and every
correctness check rejecting a tampered output.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Long enough for the stochastic variants to track better than S1.
TINY_HORIZON = 0.2


def _tiny_rounds(workload, tmp_path, trace=False, horizon=TINY_HORIZON):
    spec = workloads.build(workload, seed=1, horizon=horizon)
    rounds = [run.run_round(spec, tmp_path, i, trace and i > 0) for i in range(2)]
    assert all(r["ok"] for r in rounds)
    return spec, rounds


@pytest.fixture(scope="module")
def cli_rounds(tmp_path_factory):
    return _tiny_rounds("cli", tmp_path_factory.mktemp("cli"), trace=True)


@pytest.mark.parametrize("workload", ["battery", "wide"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_tiny(workload, trace, tmp_path):
    spec, rounds = _tiny_rounds(workload, tmp_path, trace)
    assert run.check(spec, rounds) == []
    values = run.per_layer(spec, rounds) if trace else run.end_to_end(spec, rounds)
    assert set(values) == set(run.declared_units("per_layer" if trace else "end_to_end"))
    assert all(np.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())


def test_cli_tiny(cli_rounds):
    spec, rounds = cli_rounds
    assert run.check(spec, rounds) == []
    values = run.per_layer(spec, rounds)
    assert values["sim.runs_reported"] == workloads.runs_per_round(spec["params"])
    assert values["sim.run_calls"] > 0
    assert values["sim.csv_bytes"] > 0


def test_workload_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_s1_run_served_without_integrating(tmp_path):
    """An S1 record with no sim.run of its own passes every check and
    counts in steps_per_s, so reusing the S1 run shows as a speed-up."""
    spec, rounds = _tiny_rounds("battery", tmp_path)
    before = run.end_to_end(spec, rounds)
    seed = spec["params"]["seeds"][1]
    for rnd in rounds:
        rnd["events"] = [e for e in rnd["events"] if not (
            e["ev"] == "run" and e["scenario"] == "S1" and e["seed"] == seed)]
        (rnd["dir"] / f"theta-sweep-S1-{seed}.npy").unlink(missing_ok=True)
    assert run.check(spec, rounds) == []
    after = run.end_to_end(spec, rounds)
    assert after["steps_per_s"] == before["steps_per_s"]


# ---------------------------------------------------------------------------
# Tampered outputs


def _csv_problems(spec, rnd, tmp_path, column, edit):
    """check_csv on a copy of the S2 seed-2 CSV with one cell edited."""
    params = spec["params"]
    name = f"S2_seed{params['seeds'][0]:04d}.csv"
    lines = (rnd["dir"] / name).read_text(encoding="ascii").splitlines()
    col = checks.CSV_COLUMNS.index(column)
    cells = lines[5].split(",")
    cells[col] = edit(cells[col])
    lines[5] = ",".join(cells)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    weights = run.final_weights(spec, rnd)
    theta_ref = np.load(weights[("S1", params["seeds"][0])])
    theta_final = np.load(weights[("S2", params["seeds"][0])])
    return checks.check_csv(path, "S2", params, theta_ref, theta_final)


def test_untampered_csv_passes(cli_rounds, tmp_path):
    spec, rounds = cli_rounds
    assert _csv_problems(spec, rounds[0], tmp_path, "t", lambda v: v) == []


@pytest.mark.parametrize("column", ["temperature", "e3", "e_norm", "diffusion", "x2"])
def test_perturbed_csv_cell_rejected(cli_rounds, tmp_path, column):
    spec, rounds = cli_rounds
    problems = _csv_problems(spec, rounds[0], tmp_path, column,
                             lambda v: repr(float(v) * (1 + 1e-6) + 1e-9))
    assert problems


def test_lyapunov_proxy_outside_bounds_rejected(cli_rounds, tmp_path):
    spec, rounds = cli_rounds
    problems = _csv_problems(spec, rounds[0], tmp_path, "lyapunov_proxy",
                             lambda v: repr(float(v) + 1e4))
    assert any("lyapunov_proxy" in p for p in problems)


def test_wrong_final_weights_rejected_on_last_row(cli_rounds):
    spec, rounds = cli_rounds
    params = spec["params"]
    rnd = rounds[0]
    weights = run.final_weights(spec, rnd)
    theta_ref = np.load(weights[("S1", params["seeds"][0])])
    theta_final = np.load(weights[("S3", params["seeds"][1])])
    csv = rnd["dir"] / f"S3_seed{params['seeds'][1]:04d}.csv"
    assert checks.check_csv(csv, "S3", params, theta_ref, theta_final) == []
    theta_final[7] += 1e-4
    problems = " ".join(checks.check_csv(csv, "S3", params, theta_ref, theta_final))
    last = workloads.steps_per_run(params) // params["log_stride"]
    assert f"row {last} theta_norm" in problems
    assert f"row {last} lyapunov_proxy" in problems


def test_diverged_record_rejected(cli_rounds):
    spec, rounds = cli_rounds
    records = checks.read_records(rounds[0]["dir"] / "runs.jsonl")
    records[5]["diverged"] = True
    assert any("diverged" in p for p in checks.check_records(records, spec))


def test_failed_round_rejected(tmp_path):
    spec, rounds = _tiny_rounds("wide", tmp_path)
    rounds[1]["ok"] = False
    assert any("did not complete" in p for p in run.check(spec, rounds))
    rounds[0]["ok"] = False
    assert run.check(spec, rounds)


def test_record_past_ball_limit_rejected(cli_rounds):
    spec, rounds = cli_rounds
    records = checks.read_records(rounds[0]["dir"] / "runs.jsonl")
    assert checks.check_records(records, spec) == []
    records[3]["max_boundary_value"] = spec["params"]["ball_layer"] + 1e-6
    assert any("exceeds the layer" in p for p in checks.check_records(records, spec))


def test_s1_seed_difference_rejected(cli_rounds):
    spec, rounds = cli_rounds
    records = checks.read_records(rounds[0]["dir"] / "runs.jsonl")
    s1 = [r for r in records if r["scenario"] == "S1"]
    s1[1]["rms_error"] = np.nextafter(s1[1]["rms_error"], 1.0)
    assert any("S1 seed" in p for p in checks.check_records(records, spec))


def test_battery_tracking_not_better_rejected():
    spec = workloads.build("battery", seed=0)
    records = [
        {"scenario": s, "seed": d, "diverged": False, "rms_error": 0.1 if s == "S1" else 0.05,
         "clip_count": 0, "max_boundary_value": -140.0, "temp_mean_early": 0.1,
         "temp_mean_late": 0.01, **{k: 1.0 for k in ("rms_func_err", "off_traj_rms",
                                                     "sup_state_norm", "sup_error_norm")}}
        for s in spec["params"]["scenarios"] for d in spec["params"]["seeds"]
    ]
    assert checks.check_records(records, spec) == []
    records[-1]["rms_error"] = 0.1
    assert any("not below S1" in p for p in checks.check_records(records, spec))
    records[-1]["rms_error"] = 0.05
    records[-1]["temp_mean_late"] = 0.2
    assert any("did not decay" in p for p in checks.check_records(records, spec))
    records[-1]["temp_mean_late"] = 0.01
    records[-1]["clip_count"] = 1
    assert any("clips" in p for p in checks.check_records(records, spec))


def test_off_traj_mismatch_rejected(cli_rounds, tmp_path):
    spec, rounds = cli_rounds
    rnd = rounds[0]
    records = checks.read_records(rnd["dir"] / "runs.jsonl")
    files = run.final_weights(spec, rnd)
    assert checks.check_off_traj(records, files, spec["params"]) == []
    key = ("S3", spec["params"]["seeds"][1])
    theta = np.load(files[key])
    theta[-1] += 1e-3
    np.save(tmp_path / "theta.npy", theta)
    files[key] = tmp_path / "theta.npy"
    assert any("off_traj_rms" in p for p in checks.check_off_traj(records, files, spec["params"]))


def test_summary_mean_mismatch_rejected(cli_rounds, tmp_path):
    spec, rounds = cli_rounds
    rnd = rounds[0]
    records = checks.read_records(rnd["dir"] / "runs.jsonl")
    assert checks.check_summary(rnd["dir"] / "summary.json", records, spec["params"]) == []
    summary = json.loads((rnd["dir"] / "summary.json").read_text())
    summary["scenarios"][1]["rms_error_mean"] *= 1.001
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert checks.check_summary(tmp_path / "summary.json", records, spec["params"])


def test_wrong_draw_count_rejected(cli_rounds):
    spec, rounds = cli_rounds
    events = [e for r in rounds if r["trace"] for e in r["events"] if e["ev"] == "run"]
    assert checks.check_draws(events, spec["params"]) == []
    events[-1] = dict(events[-1], draws=events[-1]["draws"] + 1)
    assert checks.check_draws(events, spec["params"])


def test_round_artifacts_differing_rejected(tmp_path):
    spec, rounds = _tiny_rounds("wide", tmp_path)
    path = rounds[1]["dir"] / "summary.txt"
    path.write_text(path.read_text() + " ")
    assert any("artifacts differ" in p for p in run.check(spec, rounds))


def test_independent_model_matches_package():
    """The benchmark's own model agrees with the package on random inputs,
    so a failed check points at the package's outputs, not at the model."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from thermoadapt import Network, NetworkShape, RandomSource, desired, he_init, plant_drift

    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, 30.0, 5):
        assert np.allclose(checks.desired(t), desired(t)[0], rtol=1e-13, atol=1e-15)
    for x in rng.uniform(-3.0, 3.0, (5, 5)):
        assert np.allclose(checks.plant_drift(x), plant_drift(x), rtol=1e-13, atol=1e-13)
    sizes = (5, 7, 7, 5)
    shape = NetworkShape(input_size=5, hidden_sizes=(7, 7), output_size=5)
    theta = he_init(shape, RandomSource(11)).theta
    assert np.array_equal(checks.he_init(sizes, 11), theta)
    x = rng.uniform(-1.0, 1.0, 5)
    assert np.allclose(checks.forward(theta, sizes, x)[0], Network(shape, theta).forward(x),
                       rtol=1e-12, atol=1e-12)


def test_exits_nonzero_without_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
