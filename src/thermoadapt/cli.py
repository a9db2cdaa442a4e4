"""Experiment driver and command-line interface.

Subcommands:

    run        integrate the configured scenarios over a seed sweep, write
               one CSV per (scenario, seed), a runs.jsonl record of per-run
               metrics, and a summary in machine (summary.json) and human
               (summary.txt) form
    summarize  rebuild and print the summary table from a runs.jsonl
    validate   parse and validate a config file without running anything

Exit codes: 0 success, 2 configuration error, 3 at least one run diverged.

The config file is INI-style with one section per concern; every key has a
default matching the benchmark study, so an empty file is a valid config.
Unknown sections or keys are rejected to catch typos.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import shutil
import sys
from dataclasses import dataclass, fields, replace
from multiprocessing import Pool
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import SCENARIO_NAMES, ExperimentConfig
from .network import Network
from .numerics import RandomSource
from .sim import DivergenceError, metrics, run as run_scenario, write_csv

__all__ = [
    "ConfigError",
    "load_config",
    "RunResult",
    "run_batch",
    "run_experiment",
    "ScenarioSummary",
    "SummaryTable",
    "build_summary",
    "print_summary",
    "main",
]


class ConfigError(ValueError):
    """Configuration file or override could not be parsed or validated."""


# ---------------------------------------------------------------------------
# Config file parsing


def _parse_scenarios(text: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    return items


def parse_seed_spec(text: str) -> tuple[int, ...]:
    """Parse a seed specification: a count, an inclusive range, or a list.

    ``"30"`` means seeds 0..29, ``"5..9"`` the five seeds 5..9, and
    ``"1,4,7"`` exactly those seeds.
    """
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(lo, hi + 1))
    if "," in text:
        return tuple(int(s) for s in text.split(",") if s.strip())
    count = int(text)
    if count < 1:
        raise ValueError(f"seed count must be >= 1, got {count}")
    return tuple(range(count))


def _parse_state(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(","))


# (section, key) -> (ExperimentConfig field, parser)
_SCHEMA = {
    ("experiment", "horizon"): ("horizon", float),
    ("experiment", "dt"): ("dt", float),
    ("experiment", "scenarios"): ("scenarios", _parse_scenarios),
    ("experiment", "seeds"): ("seeds", parse_seed_spec),
    ("experiment", "init_seed"): ("init_seed", int),
    ("experiment", "initial_state"): ("initial_state", _parse_state),
    ("experiment", "output_dir"): ("output_dir", str.strip),
    ("experiment", "log_stride"): ("log_stride", int),
    ("gains", "learning_rate"): ("learning_rate", float),
    ("gains", "forgetting_factor"): ("forgetting_factor", float),
    ("gains", "diffusion_gain"): ("diffusion_gain", float),
    ("gains", "control_gain"): ("control_gain", float),
    ("network", "hidden_layers"): ("hidden_layers", int),
    ("network", "hidden_width"): ("hidden_width", int),
    ("network", "activation"): ("activation", str.strip),
    ("ball", "radius"): ("ball_radius", float),
    ("ball", "layer"): ("ball_layer", float),
    ("temperature", "scale"): ("temp_scale", float),
    ("temperature", "quad_weight"): ("temp_quad_weight", float),
    ("offtrajectory", "count"): ("offtraj_count", int),
    ("offtrajectory", "low"): ("offtraj_low", float),
    ("offtrajectory", "high"): ("offtraj_high", float),
    ("offtrajectory", "seed"): ("offtraj_seed", int),
    ("lyapunov", "reference"): ("lyapunov_reference", str.strip),
}

_KNOWN_SECTIONS = {section for section, _ in _SCHEMA}


def load_config(path) -> ExperimentConfig:
    """Read a config file; missing keys take the benchmark defaults.

    Unknown sections or keys raise :class:`ConfigError` (typo protection),
    as do unparsable or out-of-range values.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            field_name, parse = _SCHEMA[(section, key)]
            try:
                overrides[field_name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {section}.{key}: {exc}") from exc
    try:
        return ExperimentConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Batch execution


@dataclass(frozen=True)
class RunResult:
    """Compact per-run record kept by the driver."""

    scenario: str
    seed: int
    diverged: bool
    error: Optional[str]
    rms_error: float
    rms_func_err: float
    off_traj_rms: float
    clip_count: int
    sup_state_norm: float
    sup_error_norm: float
    temp_mean_early: float
    temp_mean_late: float
    max_boundary_value: float


def _execute_run(payload) -> list[RunResult]:
    """Integrate one run and report it under each of the task's seeds.

    A task holds more than one seed only for a scenario whose runs do not
    depend on the seed; the first seed's run then stands for all of them,
    and its CSV is copied to every seed's path.
    """
    config, scenario, seeds, theta_ref, csv_paths = payload
    try:
        log = run_scenario(config, scenario, seeds[0], theta_ref=theta_ref)
    except DivergenceError as exc:
        partial = exc.partial_log
        result = RunResult(
            scenario=scenario,
            seed=seeds[0],
            diverged=True,
            error=str(exc),
            rms_error=float("nan"),
            rms_func_err=float("nan"),
            off_traj_rms=float("nan"),
            clip_count=partial.clip_count,
            sup_state_norm=partial.sup_state_norm,
            sup_error_norm=partial.sup_error_norm,
            temp_mean_early=float("nan"),
            temp_mean_late=float("nan"),
            max_boundary_value=partial.max_boundary_value,
        )
        return [replace(result, seed=seed) for seed in seeds]
    net_final = Network(config.network_shape(), log.final_theta)
    report = metrics(
        log,
        net_final,
        RandomSource(config.offtraj_seed),
        count=config.offtraj_count,
        low=config.offtraj_low,
        high=config.offtraj_high,
    )
    if csv_paths is not None:
        write_csv(log, csv_paths[0])
        for path in csv_paths[1:]:
            shutil.copyfile(csv_paths[0], path)
    result = RunResult(
        scenario=scenario,
        seed=seeds[0],
        diverged=False,
        error=None,
        rms_error=report.rms_error,
        rms_func_err=report.rms_func_err,
        off_traj_rms=report.off_traj_rms,
        clip_count=log.clip_count,
        sup_state_norm=log.sup_state_norm,
        sup_error_norm=log.sup_error_norm,
        temp_mean_early=log.temp_mean_early,
        temp_mean_late=log.temp_mean_late,
        max_boundary_value=log.max_boundary_value,
    )
    return [replace(result, seed=seed) for seed in seeds]


def resolve_theta_ref(config: ExperimentConfig) -> Optional[np.ndarray]:
    """Reference weights for the logged Lyapunov proxy.

    ``deterministic`` runs the exploration-free baseline once (first seed)
    and uses its final weights; ``initial`` uses the shared initialization;
    ``zero`` uses the origin.
    """
    mode = config.lyapunov_reference
    if mode == "zero":
        return None
    if mode == "initial":
        return config.initial_theta()
    ref_log = run_scenario(config, "S1", config.seeds[0], theta_ref=None)
    return ref_log.final_theta


def run_batch(
    config: ExperimentConfig,
    workers: int = 1,
    out_dir: Optional[Path] = None,
    theta_ref: Optional[np.ndarray] = None,
) -> list[RunResult]:
    """Report every (scenario, seed) pair, optionally in parallel.

    Each run owns its random sources, so parallel and sequential execution
    produce identical results; output order is scenario-major in the
    config's scenario order. A scenario with zero diffusion gain draws no
    noise, so its runs do not depend on the seed: it is integrated once and
    that run is reported for every seed. CSV logs are written only when
    ``out_dir`` is given.
    """
    tasks = []
    for scenario in config.scenarios:
        if config.gains_for(scenario).diffusion_gain == 0.0:
            groups = [config.seeds]
        else:
            groups = [(seed,) for seed in config.seeds]
        for seeds in groups:
            csv_paths = (
                [str(out_dir / f"{scenario}_seed{seed:04d}.csv") for seed in seeds]
                if out_dir is not None
                else None
            )
            tasks.append((config, scenario, seeds, theta_ref, csv_paths))
    if workers > 1 and len(tasks) > 1:
        with Pool(processes=workers) as pool:
            batches = pool.map(_execute_run, tasks, chunksize=1)
    else:
        batches = [_execute_run(t) for t in tasks]
    results = [r for batch in batches for r in batch]
    order = {name: k for k, name in enumerate(config.scenarios)}
    results.sort(key=lambda r: (order[r.scenario], r.seed))
    return results


# ---------------------------------------------------------------------------
# Summary table


@dataclass(frozen=True)
class ScenarioSummary:
    scenario: str
    runs: int
    diverged: int
    rms_error_mean: float
    rms_error_std: float
    rms_func_err_mean: float
    rms_func_err_std: float
    off_traj_mean: float
    off_traj_std: float
    improvement_rms_error: Optional[float]
    improvement_rms_func_err: Optional[float]
    improvement_off_traj: Optional[float]


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[ScenarioSummary, ...]


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


def build_summary(results: Sequence[RunResult], scenario_order: Sequence[str]) -> SummaryTable:
    """Aggregate per-run metrics into per-scenario means and improvements.

    Improvements are percentage reductions relative to the S1 means,
    computed from unrounded values; they are omitted when S1 is absent.
    """
    by_scenario = {name: [r for r in results if r.scenario == name] for name in scenario_order}
    stats = {}
    for name, rs in by_scenario.items():
        ok = [r for r in rs if not r.diverged]
        stats[name] = {
            "runs": len(rs),
            "diverged": len(rs) - len(ok),
            "rms_error": _mean_std([r.rms_error for r in ok]),
            "rms_func_err": _mean_std([r.rms_func_err for r in ok]),
            "off_traj": _mean_std([r.off_traj_rms for r in ok]),
        }
    base = stats.get("S1")

    def improvement(metric: str, name: str) -> Optional[float]:
        if base is None:
            return None
        base_mean = base[metric][0]
        mean = stats[name][metric][0]
        if math.isnan(base_mean) or math.isnan(mean) or base_mean == 0.0:
            return None
        return 100.0 * (base_mean - mean) / base_mean

    rows = []
    for name in scenario_order:
        s = stats[name]
        rows.append(
            ScenarioSummary(
                scenario=name,
                runs=s["runs"],
                diverged=s["diverged"],
                rms_error_mean=s["rms_error"][0],
                rms_error_std=s["rms_error"][1],
                rms_func_err_mean=s["rms_func_err"][0],
                rms_func_err_std=s["rms_func_err"][1],
                off_traj_mean=s["off_traj"][0],
                off_traj_std=s["off_traj"][1],
                improvement_rms_error=improvement("rms_error", name),
                improvement_rms_func_err=improvement("rms_func_err", name),
                improvement_off_traj=improvement("off_traj", name),
            )
        )
    return SummaryTable(rows=tuple(rows))


_SUMMARY_FIELDS = [f.name for f in fields(ScenarioSummary)]


def _record(obj) -> dict:
    """A dataclass instance as a JSON-ready dict, with NaN written as null."""
    rec = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in rec.items()}


def _from_record(cls, rec: dict):
    """Inverse of :func:`_record`: a null reads as NaN for a ``float`` field."""
    return cls(**{
        f.name: float("nan") if rec[f.name] is None and f.type == "float" else rec[f.name]
        for f in fields(cls)
    })


def _fmt_opt(value: Optional[float], fmt: str = ".17g") -> str:
    return "" if value is None else format(value, fmt)


def print_summary(table: SummaryTable, fmt: str = "text") -> str:
    """Render the summary table as text, CSV, or JSON lines.

    Columns follow the metric order tracking error, on-trajectory function
    error, off-trajectory function error.
    """
    if fmt == "text":
        header = (
            f"{'scenario':<9}{'runs':>5}{'div':>4}"
            f"{'rms_error':>22}{'rms_func_err':>22}{'off_traj_rms':>22}"
            f"{'impr_e%':>10}{'impr_f%':>10}{'impr_off%':>11}"
        )
        lines = [header]
        for r in table.rows:
            def pct(v: Optional[float]) -> str:
                return "n/a" if v is None else f"{v:.2f}%"

            lines.append(
                f"{r.scenario:<9}{r.runs:>5}{r.diverged:>4}"
                f"{f'{r.rms_error_mean:.4f} +- {r.rms_error_std:.4f}':>22}"
                f"{f'{r.rms_func_err_mean:.4f} +- {r.rms_func_err_std:.4f}':>22}"
                f"{f'{r.off_traj_mean:.4f} +- {r.off_traj_std:.4f}':>22}"
                f"{pct(r.improvement_rms_error):>10}"
                f"{pct(r.improvement_rms_func_err):>10}"
                f"{pct(r.improvement_off_traj):>11}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = [",".join(_SUMMARY_FIELDS)]
        for r in table.rows:
            vals = []
            for name in _SUMMARY_FIELDS:
                v = getattr(r, name)
                if isinstance(v, str):
                    vals.append(v)
                elif isinstance(v, int):
                    vals.append(str(v))
                else:
                    vals.append(_fmt_opt(v))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = []
        for r in table.rows:
            lines.append(json.dumps(_record(r), sort_keys=True))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown summary format {fmt!r}")


# ---------------------------------------------------------------------------
# Experiment driver


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    write_logs: bool = True,
) -> tuple[SummaryTable, list[RunResult]]:
    """Run the full scenario x seed sweep and write artifacts to disk.

    Produces one trajectory CSV per run (unless ``write_logs`` is false),
    a ``runs.jsonl`` with per-run metrics, and the summary as
    ``summary.json`` and ``summary.txt``. Identical configs and seeds give
    byte-identical artifacts regardless of the worker count.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    theta_ref = resolve_theta_ref(config)
    results = run_batch(
        config,
        workers=workers,
        out_dir=out_dir if write_logs else None,
        theta_ref=theta_ref,
    )
    with open(out_dir / "runs.jsonl", "w", encoding="ascii") as fh:
        for r in results:
            fh.write(json.dumps(_record(r), sort_keys=True) + "\n")
    table = build_summary(results, config.scenarios)
    with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
        rows = [_record(row) for row in table.rows]
        fh.write(json.dumps({"scenarios": rows}, sort_keys=True, indent=2) + "\n")
    with open(out_dir / "summary.txt", "w", encoding="ascii") as fh:
        fh.write(print_summary(table, "text"))
    return table, results


def load_results(out_dir) -> list[RunResult]:
    """Read back the per-run records written by :func:`run_experiment`."""
    path = Path(out_dir) / "runs.jsonl"
    results = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.strip():
                results.append(_from_record(RunResult, json.loads(line)))
    return results


# ---------------------------------------------------------------------------
# Command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoadapt",
        description="Stochastic adaptive neural-network tracking-control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run the configured scenario/seed sweep")
    runp.add_argument("--config", type=str, default=None, help="INI config file")
    runp.add_argument("--scenarios", type=str, default=None,
                      help="comma list overriding the configured scenarios")
    runp.add_argument("--seeds", type=str, default=None,
                      help="seed selection: count, inclusive range a..b, or comma list")
    runp.add_argument("--workers", type=int, default=1,
                      help="parallel worker processes (default 1: sequential)")
    runp.add_argument("--out", type=str, default=None, help="output directory")
    runp.add_argument("--no-logs", action="store_true",
                      help="skip per-run trajectory CSVs")

    sump = sub.add_parser("summarize", help="print the summary for a finished run")
    sump.add_argument("--in", dest="in_dir", type=str, required=True,
                      help="output directory of a previous run")
    sump.add_argument("--format", type=str, default="text",
                      choices=("text", "csv", "jsonl"))

    valp = sub.add_parser("validate", help="check a config file without running")
    valp.add_argument("--config", type=str, required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "summarize":
        try:
            results = load_results(args.in_dir)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load results from {args.in_dir}: {exc}", file=sys.stderr)
            return 2
        scenario_order = [s for s in SCENARIO_NAMES
                          if any(r.scenario == s for r in results)]
        table = build_summary(results, scenario_order)
        sys.stdout.write(print_summary(table, args.format))
        return 0

    # validate and run
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if args.command == "validate":
            print(f"config ok: {config}")
            return 0
        overrides = {}
        if args.scenarios:
            overrides["scenarios"] = _parse_scenarios(args.scenarios)
        if args.seeds:
            overrides["seeds"] = parse_seed_spec(args.seeds)
        if args.out:
            overrides["output_dir"] = args.out
        if overrides:
            config = replace(config, **overrides)
        if args.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {args.workers}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    table, results = run_experiment(
        config, workers=args.workers, write_logs=not args.no_logs
    )
    sys.stdout.write(print_summary(table, "text"))
    diverged = sum(r.diverged for r in results)
    if diverged:
        print(f"{diverged} run(s) diverged; see runs.jsonl", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
