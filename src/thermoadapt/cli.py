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
Values are literal; unknown sections (``[DEFAULT]`` too) or keys are rejected.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import shutil
import sys
from dataclasses import asdict, dataclass, fields, replace
from multiprocessing import Pool
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .sim import DivergenceError, MetricsReport, TrajectoryLog, metrics, write_csv
from .sim import run as run_scenario

__all__ = [
    "ConfigError",
    "load_config",
    "RunResult",
    "run_batch",
    "run_experiment",
    "ScenarioSummary",
    "build_summary",
    "print_summary",
    "main",
]


class ConfigError(ValueError):
    """Configuration file or override could not be parsed or validated."""


# ---------------------------------------------------------------------------
# Config file parsing


def _parse_scenarios(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def parse_seed_spec(text: str) -> tuple[int, ...]:
    """Parse a seed specification: a count, an inclusive range, or a list.

    ``"30"`` means seeds 0..29, ``"5..9"`` the five seeds 5..9, and
    ``"1,4,7"`` exactly those seeds.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty seed specification")
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(lo, hi + 1))
    if "," in text:
        return tuple(int(s) for s in text.split(","))
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

    Values are literal; unknown sections (``[DEFAULT]`` too) or keys raise
    :class:`ConfigError` (typo protection), as do unparsable or out-of-range values.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
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


def _integrate(config, scenario, seed, theta_ref) -> tuple[TrajectoryLog, Optional[str]]:
    """One run's log and, if it diverged, its error; the log then ends before the failing step."""
    try:
        return run_scenario(config, scenario, seed, theta_ref=theta_ref), None
    except DivergenceError as exc:
        return exc.partial_log, str(exc)


def _execute_run(task) -> list[RunResult]:
    """Integrate one run and report it under each of the task's seeds.

    A task holds more than one seed only for a scenario whose runs do not
    depend on the seed; the first seed's run then stands for all of them.
    With an output directory, its CSV is written under the first seed's
    name and copied to every other seed's.
    """
    config, scenario, seeds, theta_ref, out_dir = task
    log, error = _integrate(config, scenario, seeds[0], theta_ref)
    ok = error is None
    report = metrics(config, log) if ok else MetricsReport(math.nan, math.nan, math.nan)
    if out_dir is not None:
        first, *others = (out_dir / f"{scenario}_seed{seed:04d}.csv" for seed in seeds)
        write_csv(log, first)
        for path in others:
            shutil.copyfile(first, path)
    result = RunResult(
        scenario=scenario,
        seed=seeds[0],
        diverged=not ok,
        error=error,
        **asdict(report),
        clip_count=log.clip_count,
        sup_state_norm=log.sup_state_norm,
        sup_error_norm=log.sup_error_norm,
        temp_mean_early=log.temp_mean_early if ok else math.nan,
        temp_mean_late=log.temp_mean_late if ok else math.nan,
        max_boundary_value=log.max_boundary_value,
    )
    return [replace(result, seed=seed) for seed in seeds]


def resolve_theta_ref(config: ExperimentConfig) -> Optional[np.ndarray]:
    """Reference weights for the logged Lyapunov proxy.

    ``deterministic`` runs the exploration-free baseline once (first seed,
    logging only its first row) and uses its final weights, or its last
    finite weights if it diverges; ``initial`` uses the shared
    initialization; ``zero`` uses the origin.
    """
    mode = config.lyapunov_reference
    if mode == "zero":
        return None
    if mode == "initial":
        return config.initial_theta()
    ref_log, _ = _integrate(replace(config, log_stride=sys.maxsize), "S1", config.seeds[0], None)
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
        tasks += [(config, scenario, seeds, theta_ref, out_dir) for seeds in groups]
    workers = min(workers, len(tasks))
    if workers > 1:
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


# The summarized run metrics in column order: the RunResult field, the stem
# of its ScenarioSummary fields, and the heading of its improvement column in
# the text table, padded to that column's width.
_METRICS = (
    ("rms_error", "rms_error", f"{'impr_e%':>10}"),
    ("rms_func_err", "rms_func_err", f"{'impr_f%':>10}"),
    ("off_traj_rms", "off_traj", f"{'impr_off%':>11}"),
)


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std())


def build_summary(results: Sequence[RunResult]) -> tuple[ScenarioSummary, ...]:
    """Aggregate per-run metrics into per-scenario means and improvements.

    Rows follow the order in which the scenarios first appear in ``results``.
    Means and standard deviations are over the runs that did not diverge.
    Improvements are percentage reductions relative to the S1 means,
    computed from unrounded values; they are omitted when S1 is absent.
    """
    rows = []
    for name in dict.fromkeys(r.scenario for r in results):
        runs = [r for r in results if r.scenario == name]
        ok = [r for r in runs if not r.diverged]
        row = {"scenario": name, "runs": len(runs), "diverged": len(runs) - len(ok)}
        for metric, stem, _ in _METRICS:
            row[f"{stem}_mean"], row[f"{stem}_std"] = _mean_std([getattr(r, metric) for r in ok])
        rows.append(row)
    base = next((row for row in rows if row["scenario"] == "S1"), None)
    for row in rows:
        for _, stem, _ in _METRICS:
            base_mean = math.nan if base is None else base[f"{stem}_mean"]
            mean = row[f"{stem}_mean"]
            row[f"improvement_{stem}"] = (
                None if math.isnan(base_mean) or math.isnan(mean) or base_mean == 0.0
                else 100.0 * (base_mean - mean) / base_mean
            )
    return tuple(ScenarioSummary(**row) for row in rows)


_SUMMARY_FIELDS = [f.name for f in fields(ScenarioSummary)]


def _record(obj) -> dict:
    """A dataclass instance as a JSON-ready dict, with NaN written as null."""
    rec = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in rec.items()}


def _is_int(value) -> bool:
    # a JSON true or false reads as a bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


# A record field's annotation -> what its JSON value must be, and the test;
# float() of an integer past the float range would overflow.
_JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "Optional[str]": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "float": ("a number in the float range, or null", lambda v: (
        v is None or isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max
    )),
}


def _from_record(cls, rec: dict):
    """Inverse of :func:`_record`: a null reads as NaN for a ``float`` field.

    A missing field, or a value that does not fit its field's type, raises
    ``ValueError`` naming the field.
    """
    values = {}
    for f in fields(cls):
        if f.name not in rec:
            raise ValueError(f"field {f.name!r} is missing")
        value = rec[f.name]
        expected, fits = _JSON_TYPES[f.type]
        if not fits(value):
            raise ValueError(f"field {f.name!r} must be {expected}, got {value!r}")
        if f.type == "float":
            value = math.nan if value is None else float(value)
        values[f.name] = value
    return cls(**values)


def _csv_cell(value) -> str:
    """A summary field as a CSV cell: None is empty, a float has 17 digits."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def print_summary(rows: Sequence[ScenarioSummary], fmt: str = "text") -> str:
    """Render summary rows as text, CSV, or JSON lines.

    Columns follow the metric order tracking error, on-trajectory function
    error, off-trajectory function error.
    """
    if fmt == "text":
        lines = [
            f"{'scenario':<9}{'runs':>5}{'div':>4}"
            + "".join(f"{metric:>22}" for metric, _, _ in _METRICS)
            + "".join(heading for _, _, heading in _METRICS)
        ]
        for r in rows:
            line = f"{r.scenario:<9}{r.runs:>5}{r.diverged:>4}"
            for _, stem, _ in _METRICS:
                mean, std = getattr(r, f"{stem}_mean"), getattr(r, f"{stem}_std")
                line += f"{f'{mean:.4f} +- {std:.4f}':>22}"
            for _, stem, heading in _METRICS:
                pct = getattr(r, f"improvement_{stem}")
                line += format("n/a" if pct is None else f"{pct:.2f}%", f">{len(heading)}")
            lines.append(line)
    elif fmt == "csv":
        lines = [",".join(_SUMMARY_FIELDS)]
        lines += [",".join(_csv_cell(getattr(r, name)) for name in _SUMMARY_FIELDS) for r in rows]
    elif fmt == "jsonl":
        lines = [json.dumps(_record(r), sort_keys=True) for r in rows]
    else:
        raise ValueError(f"unknown summary format {fmt!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment driver


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    write_logs: bool = True,
) -> tuple[tuple[ScenarioSummary, ...], list[RunResult]]:
    """Run the full scenario x seed sweep and write artifacts to disk.

    Produces one trajectory CSV per run (unless ``write_logs`` is false;
    then no Lyapunov reference is resolved, as only the CSVs log it),
    a ``runs.jsonl`` with per-run metrics, and the summary as
    ``summary.json`` and ``summary.txt``, and returns the summary rows and
    the per-run records. Identical configs and seeds give byte-identical
    artifacts regardless of the worker count. An output directory that
    cannot be created raises :class:`ConfigError` before any run starts.
    """
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    theta_ref = resolve_theta_ref(
        config if write_logs else replace(config, lyapunov_reference="zero")
    )
    results = run_batch(
        config,
        workers=workers,
        out_dir=out_dir if write_logs else None,
        theta_ref=theta_ref,
    )
    with open(out_dir / "runs.jsonl", "w", encoding="ascii") as fh:
        for r in results:
            fh.write(json.dumps(_record(r), sort_keys=True) + "\n")
    rows = build_summary(results)
    with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
        records = [_record(row) for row in rows]
        fh.write(json.dumps({"scenarios": records}, sort_keys=True, indent=2) + "\n")
    with open(out_dir / "summary.txt", "w", encoding="ascii") as fh:
        fh.write(print_summary(rows, "text"))
    return rows, results


def load_results(out_dir) -> list[RunResult]:
    """Read back the per-run records written by :func:`run_experiment`.

    A ``runs.jsonl`` with no record raises ``ValueError``, and so does a line
    that is not ASCII, not valid JSON or not a JSON object, or a record with a
    field missing or of the wrong type; then the message starts with
    ``runs.jsonl line N:``.
    """
    results = []
    with open(Path(out_dir) / "runs.jsonl", "rb") as fh:
        for n, line in enumerate(fh, 1):
            try:
                text = line.decode("ascii").rstrip("\r\n")
                if not text.strip():
                    continue
                rec = json.loads(text)
                if not isinstance(rec, dict):
                    raise ValueError(f"not a JSON object: {rec!r}")
                results.append(_from_record(RunResult, rec))
            except json.JSONDecodeError as exc:
                # The line is parsed alone, so json's line number is always 1.
                raise ValueError(f"runs.jsonl line {n}: {exc.msg} at column {exc.colno}") from None
            except ValueError as exc:
                raise ValueError(f"runs.jsonl line {n}: {exc}") from None
    if not results:
        raise ValueError("runs.jsonl holds no records")
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
        except (OSError, ValueError) as exc:
            print(f"cannot load results from {args.in_dir}: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(print_summary(build_summary(results), args.format))
        return 0

    # validate and run
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if args.command == "validate":
            print(f"config ok: {config}")
            return 0
        overrides = {}
        if args.scenarios is not None:
            overrides["scenarios"] = _parse_scenarios(args.scenarios)
        if args.seeds is not None:
            try:
                overrides["seeds"] = parse_seed_spec(args.seeds)
            except ValueError as exc:
                raise ConfigError(f"--seeds: {exc}") from exc
        if args.out is not None:
            overrides["output_dir"] = args.out
        if overrides:
            config = replace(config, **overrides)
        if args.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {args.workers}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        rows, results = run_experiment(config, workers=args.workers, write_logs=not args.no_logs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(print_summary(rows, "text"))
    diverged = sum(r.diverged for r in results)
    if diverged:
        print(f"{diverged} run(s) diverged; see runs.jsonl", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
