"""Sweep benchmark of thermoadapt: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery|cli|wide|all
                             [--seed N] [--seconds S] [--trace 0|1]

A run repeats rounds of the workload's sweep, each in a fresh process
(``round.py``), until ``--seconds`` have passed and at least two rounds
are done. It then checks the outputs (``checks.py``), prints a table and,
as the last line, one JSON object: ``correct``, ``attempted`` and
``failed`` runs, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``; the first round is then
untraced, to give ``sim.step_us`` and the tracing overhead). ``all`` runs
every workload untraced and traced.

Exits with 2, printing no result, when the package sources are missing.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROUND_TIMEOUT_S = 150
OUT_DIR = HERE / "out"


def declared_units(kind: str) -> dict:
    """Metric name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


# ---------------------------------------------------------------------------
# Rounds


def run_round(spec: dict, out_dir: Path, index: int, trace: bool) -> dict:
    """Run one round process; return its timings, exit code and events."""
    round_dir = out_dir / f"round{index}"
    round_dir.mkdir(parents=True)
    if spec["workload"] == "cli":
        (round_dir / "experiment.ini").write_text(
            workloads.ini_text(spec["params"], str(round_dir)), encoding="ascii"
        )
    spec_path = round_dir / "spec.json"
    spec_path.write_text(json.dumps(dict(spec, round_dir=str(round_dir), trace=trace)),
                         encoding="ascii")
    with open(round_dir / "stdout.txt", "wb") as out, open(round_dir / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "round.py"), str(spec_path)],
            stdout=out, stderr=err, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The round's pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        end = time.monotonic()
    events = []
    for path in sorted(round_dir.glob("events-*.jsonl")):
        with open(path, "r", encoding="ascii") as fh:
            events.extend(json.loads(line) for line in fh if line.strip())
    ok = code in (0, 3)
    if not ok:
        tail = (round_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"round {index} failed (exit {code}):\n{tail}", file=sys.stderr)
    return {"index": index, "trace": trace, "ok": ok, "spawn": spawn, "end": end,
            "dir": round_dir, "events": events}


def _of(rnd: dict, kind: str) -> list[dict]:
    return [e for e in rnd["events"] if e["ev"] == kind]


def sweep_runs(rnd: dict) -> list[dict]:
    """Sweep runs of a round, each with the time of its sim.metrics call."""
    runs, last = [], {}
    for ev in rnd["events"]:
        if ev["ev"] == "run" and ev["role"] == "sweep":
            ev = dict(ev, metrics_s=0.0)
            runs.append(ev)
            last[ev["pid"]] = ev
        elif ev["ev"] == "metrics" and ev["pid"] in last:
            last[ev["pid"]]["metrics_s"] += ev["s"]
    return runs


def sweep_seconds(rnd: dict) -> float:
    return _of(rnd, "sweep_end")[0]["t"] - _of(rnd, "sweep_start")[0]["t"]


def records_path(spec: dict, rnd: dict) -> Path:
    name = "results.jsonl" if spec["workload"] == "battery" else "runs.jsonl"
    return rnd["dir"] / name


def artifact_paths(spec: dict, rnd: dict) -> list[Path]:
    paths = [records_path(spec, rnd)]
    if spec["workload"] != "battery":
        paths += [rnd["dir"] / "summary.json", rnd["dir"] / "summary.txt"]
    return paths + sorted(rnd["dir"].glob("S*_seed*.csv"))


def final_weights(spec: dict, rnd: dict) -> dict:
    """(scenario, seed) -> file of the final weights that sim.run returned.

    S1 runs do not depend on the seed, so every S1 record is served by one
    S1 run's weights, from the sweep or from the reference resolution.
    """
    files = {}
    for path in sorted(rnd["dir"].glob("theta-sweep-*.npy")):
        _, _, scenario, seed = path.stem.split("-")
        files[(scenario, int(seed))] = path
    s1 = sorted(rnd["dir"].glob("theta-*-S1-*.npy"))
    if s1 and "S1" in spec["params"]["scenarios"]:
        files.update({("S1", seed): s1[0] for seed in spec["params"]["seeds"]})
    return files


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(spec: dict, rounds: list[dict]) -> dict:
    rounds = [r for r in rounds if r["ok"] and not r["trace"]]
    # Steps of the reported runs, whether or not each was integrated.
    reported = sum(len(checks.read_records(records_path(spec, r))) for r in rounds)
    steps = reported * workloads.steps_per_run(spec["params"])
    runs = [run for r in rounds for run in sweep_runs(r)]
    return {
        "setup_s": statistics.median(_of(r, "sweep_start")[0]["t"] - r["spawn"]
                                     for r in rounds),
        "wall_s": statistics.median(r["end"] - r["spawn"] for r in rounds),
        "steps_per_s": steps / sum(sweep_seconds(r) for r in rounds),
        "run_s": statistics.median(run["run_s"] + run["metrics_s"] for run in runs),
        "peak_rss_mb": max(e["mib"] for r in rounds for e in _of(r, "rss")),
    }


def _per_step_us(runs: list[dict], seconds) -> float:
    steps = sum(run["steps"] for run in runs)
    return 1e6 * sum(seconds(run) for run in runs) / steps if steps else 0.0


def per_layer(spec: dict, rounds: list[dict]) -> dict:
    """Per-layer metrics; unit and meaning of each are in README.md."""
    ok = [r for r in rounds if r["ok"]]
    plain = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    plain_runs = [e for r in plain for e in _of(r, "run")]
    traced_runs = [e for r in traced for e in _of(r, "run")]

    def layer_s(run, name):
        return run["layers"][name][0]

    def per_call_us(name):
        calls = sum(run["layers"][name][1] for run in traced_runs)
        return 1e6 * sum(layer_s(run, name) for run in traced_runs) / calls if calls else 0.0

    step_us = _per_step_us(plain_runs, lambda run: run["run_s"])
    traced_step_us = _per_step_us(traced_runs, lambda run: run["run_s"])
    child_us = {name: _per_step_us(traced_runs, lambda run, n=name: layer_s(run, n))
                for name in workloads.LAYERS}
    n_traced = max(1, len(traced_runs))
    records = [rec for r in ok for rec in checks.read_records(records_path(spec, r))]
    metrics_calls = [e["s"] for r in ok for e in _of(r, "metrics")]
    csvs = [e for r in ok for e in _of(r, "csv")]
    busy = sum(run["run_s"] + run["metrics_s"] for r in ok for run in sweep_runs(r))
    busy += sum(e["s"] for e in csvs)
    sweep = sum(sweep_seconds(r) for r in ok)
    artifacts = [_of(r, "experiment_end")[0]["t"] - _of(r, "sweep_end")[0]["t"]
                 for r in ok if _of(r, "experiment_end")]
    return {
        "network.evaluate_us": per_call_us("network"),
        "plant.step_us": child_us["plant"],
        "thermo.law_us": child_us["thermo"],
        "projection.step_us": child_us["projection"],
        "projection.fade_calls": sum(run["fade_calls"] for run in traced_runs) / n_traced,
        "projection.project_calls": sum(run["project_calls"] for run in traced_runs) / n_traced,
        "projection.clips": statistics.fmean(rec["clip_count"] for rec in records),
        "numerics.normal_us": per_call_us("numerics"),
        "numerics.draws": sum(run["draws"] for run in traced_runs) / n_traced,
        "sim.step_us": step_us,
        "sim.traced_step_us": traced_step_us,
        "sim.self_us": traced_step_us - sum(child_us.values()),
        "sim.trace_overhead_pct": 100.0 * (traced_step_us - step_us) / step_us,
        "sim.run_calls": len(plain_runs + traced_runs) / len(ok),
        "sim.runs_reported": len(records) / len(ok),
        "sim.metrics_ms": 1e3 * statistics.fmean(metrics_calls),
        "sim.csv_ms": 1e3 * statistics.fmean(e["s"] for e in csvs) if csvs else 0.0,
        "sim.csv_bytes": statistics.fmean(e["bytes"] for e in csvs) if csvs else 0.0,
        "cli.theta_ref_s": statistics.median(e["s"] for r in ok for e in _of(r, "theta_ref")),
        "cli.pool_busy_ratio": busy / (spec["workers"] * sweep),
        "cli.pool_busy_s": busy / len(ok),
        "cli.pool_sweep_s": sweep / len(ok),
        "cli.artifacts_ms": 1e3 * statistics.median(artifacts) if artifacts else 0.0,
    }


# ---------------------------------------------------------------------------
# Correctness


def one_worker_check(spec: dict, rnd: dict, theta_ref) -> list[str]:
    """Rerun one (scenario, seed) of the sweep with one worker, in this process,
    and compare its record (and CSV) with the round's, byte for byte."""
    sys.path.insert(0, str(ROOT / "src"))
    from thermoadapt import ExperimentConfig, cli

    params = spec["params"]
    scenario = params["scenarios"][spec["seed"] % len(params["scenarios"])]
    seed = params["seeds"][(spec["seed"] // len(params["scenarios"])) % len(params["seeds"])]
    check_dir = rnd["dir"] / "one_worker"
    check_dir.mkdir()
    if spec["workload"] == "cli":
        config = cli.load_config(rnd["dir"] / "experiment.ini")
        out_dir = check_dir
    else:
        config = ExperimentConfig(**params)
        out_dir = None
    config = replace(config, scenarios=(scenario,), seeds=(seed,), output_dir=str(check_dir))
    (result,) = cli.run_batch(config, workers=1, out_dir=out_dir, theta_ref=theta_ref)
    mine = checks.canonical(asdict(result))
    theirs = [checks.canonical(rec) for rec in checks.read_records(records_path(spec, rnd))
              if rec["scenario"] == scenario and rec["seed"] == seed]
    problems = []
    if theirs != [mine]:
        problems.append(f"1-worker {scenario} seed {seed}: {mine} != {theirs}")
    if out_dir is not None:
        name = f"{scenario}_seed{seed:04d}.csv"
        if (check_dir / name).read_bytes() != (rnd["dir"] / name).read_bytes():
            problems.append(f"1-worker {name} differs from the sweep's")
    return problems


def check(spec: dict, rounds: list[dict]) -> list[str]:
    params = spec["params"]
    problems = [f"round {r['index']} did not complete" for r in rounds if not r["ok"]]
    ok = [r for r in rounds if r["ok"]]
    if not ok:
        return problems
    first = ok[0]
    records = checks.read_records(records_path(spec, first))
    problems += checks.check_records(records, spec)
    thetas = final_weights(spec, first)
    problems += checks.check_off_traj(records, thetas, params)
    if "S1" in params["scenarios"]:
        s1 = checks.digest(first["dir"].glob("theta-*-S1-*.npy"))
        if not s1:
            problems.append("no S1 final weights")
        elif len(set(s1.values())) > 1:
            problems.append(f"S1 final weights differ across runs: {sorted(s1)}")
    if spec["workload"] != "battery":
        problems += checks.check_summary(first["dir"] / "summary.json", records, params)
    theta_ref = None
    if spec["workload"] == "cli" and ("S1", params["seeds"][0]) in thetas:
        # The deterministic reference is the S1 run's final weights.
        theta_ref = np.load(thetas[("S1", params["seeds"][0])])
        for rec in records:
            key = (rec["scenario"], rec["seed"])
            if not rec["diverged"]:
                csv = first["dir"] / f"{rec['scenario']}_seed{rec['seed']:04d}.csv"
                theta_final = np.load(thetas[key]) if key in thetas else None
                problems += checks.check_csv(csv, rec["scenario"], params, theta_ref, theta_final)
        s1 = checks.digest(first["dir"].glob("S1_seed*.csv"))
        if len(set(s1.values())) > 1:
            problems.append(f"S1 CSVs differ across seeds: {sorted(s1)}")
    reference = checks.digest(artifact_paths(spec, first))
    for r in ok[1:]:
        if checks.digest(artifact_paths(spec, r)) != reference:
            problems.append(f"round {r['index']} artifacts differ from round {first['index']}'s")
    traced_runs = [e for r in ok if r["trace"] for e in _of(r, "run")]
    problems += checks.check_draws(traced_runs, params)
    if spec["workload"] == "battery":
        fades = sum(e["fade_calls"] for e in traced_runs)
        if fades:
            problems.append(f"{fades} projection fades at the paper defaults")
    problems += one_worker_check(spec, first, theta_ref)
    return problems


# ---------------------------------------------------------------------------
# Driver


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<26}{value:>16.6g}  {units[name]}")


def run_workload(args) -> int:
    spec = workloads.build(args.workload, args.seed)
    params = spec["params"]
    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    start = time.monotonic()
    rounds = []
    while len(rounds) < 2 or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(rounds) > 0
        rounds.append(run_round(spec, out_dir, len(rounds), traced))
        if not rounds[-1]["events"]:
            print("a round produced no events; is the package importable?", file=sys.stderr)
            return 1

    per_round = workloads.runs_per_round(params)
    attempted = per_round * len(rounds)
    failed = per_round * sum(not r["ok"] for r in rounds)
    failed += sum(rec["diverged"] for r in rounds if r["ok"]
                  for rec in checks.read_records(records_path(spec, r)))
    problems = check(spec, rounds)
    for r in rounds:
        for path in list(r["dir"].glob("*.csv")) + list(r["dir"].glob("*.npy")):
            path.unlink()
        shutil.rmtree(r["dir"] / "one_worker", ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{per_round} runs ({', '.join(params['scenarios'])} x seeds "
          f"{', '.join(map(str, params['seeds']))}), {spec['workers']} workers")
    print(f"  runs attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        values = per_layer(spec, rounds)
        units = declared_units("per_layer")
        print_table("per-layer metrics (traced rounds; sim.step_us from the untraced round):",
                    values, units)
    else:
        values = end_to_end(spec, rounds)
        units = declared_units("end_to_end")
        print_table("end-to-end metrics:", values, units)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="ascii")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own benchmark process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermoadapt" / "__init__.py").is_file():
        print(f"package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
