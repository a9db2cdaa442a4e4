"""Config parsing, experiment driver artifacts, and the summary table."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import thermoadapt
from thermoadapt import CSV_COLUMNS, DivergenceError, ExperimentConfig, cli, run
from thermoadapt.cli import (
    ConfigError,
    RunResult,
    ScenarioSummary,
    build_summary,
    load_config,
    main,
    parse_seed_spec,
    print_summary,
    run_batch,
    run_experiment,
)

# benchmark-default gains but a small fast network for driver tests
FAST_OVERRIDES = """
[experiment]
horizon = 0.5
output_dir = {out}
seeds = 2

[network]
hidden_layers = 2
hidden_width = 8
"""


def write_config(tmp_path, text=""):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


# -- config --------------------------------------------------------------------


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg == ExperimentConfig()
    assert cfg.horizon == 30.0
    assert cfg.dt == 1e-3
    assert cfg.learning_rate == 1.0
    assert cfg.forgetting_factor == 0.001
    assert cfg.diffusion_gain == 0.03
    assert cfg.control_gain == 100.0
    assert cfg.hidden_layers == 9 and cfg.hidden_width == 10
    assert cfg.ball_radius == 20.0 and cfg.ball_layer == 0.1
    assert cfg.temp_scale == 9.0 and cfg.temp_quad_weight == 0.01
    assert cfg.offtraj_count == 90
    assert (cfg.offtraj_low, cfg.offtraj_high) == (-0.5, 0.5)
    assert cfg.scenarios == ("S1", "S2", "S3", "S4")
    assert cfg.network_shape().param_count == 995


def test_readme_config_block_is_the_defaults(tmp_path):
    # README.md shows the benchmark defaults as a config file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```ini\n")
    assert len(blocks) == 2
    cfg = load_config(write_config(tmp_path, blocks[1].split("```", 1)[0]))
    assert cfg == ExperimentConfig()


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[gains]\ndiffusion_gian = 0.03\n")
    with pytest.raises(ConfigError, match="diffusion_gian"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, "[thermostat]\nscale = 9\n")
    with pytest.raises(ConfigError, match="thermostat"):
        load_config(path)


def test_negative_diffusion_gain_rejected(tmp_path):
    path = write_config(tmp_path, "[gains]\ndiffusion_gain = -1\n")
    with pytest.raises(ConfigError, match="diffusion_gain"):
        load_config(path)


def test_unparsable_value_names_key(tmp_path):
    path = write_config(tmp_path, "[gains]\ncontrol_gain = fast\n")
    with pytest.raises(ConfigError, match="control_gain"):
        load_config(path)


def test_scenario_subset(tmp_path):
    path = write_config(tmp_path, "[experiment]\nscenarios = S2\n")
    cfg = load_config(path)
    assert cfg.scenarios == ("S2",)


def test_unknown_scenario_rejected(tmp_path):
    path = write_config(tmp_path, "[experiment]\nscenarios = S5\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_seed_specs(tmp_path, capsys):
    assert parse_seed_spec("30") == tuple(range(30))
    assert parse_seed_spec("5..9") == (5, 6, 7, 8, 9)
    assert parse_seed_spec("1,4,7") == (1, 4, 7)
    with pytest.raises(ValueError):
        parse_seed_spec("9..5")
    with pytest.raises(ValueError):
        parse_seed_spec("0")
    for blank in ("", "  "):
        with pytest.raises(ValueError, match="^empty seed specification$"):
            parse_seed_spec(blank)
    path = write_config(tmp_path, "[experiment]\nseeds =\n")
    with pytest.raises(ConfigError, match="experiment.seeds: empty seed specification"):
        load_config(path)
    # every listed entry is a seed: an empty one is an error, not skipped
    for spec in ("1,,2", "1,4,", ","):
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_seed_spec(spec)
        path = write_config(tmp_path, f"[experiment]\nseeds = {spec}\n")
        with pytest.raises(ConfigError, match="^invalid value for experiment.seeds: "):
            load_config(path)
        assert main(["run", "--seeds", spec, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: --seeds: invalid literal")
    assert os.listdir(tmp_path) == [path.name]
    with pytest.raises(ValueError, match="at least one seed is required"):
        ExperimentConfig(seeds=())


def test_config_full_roundtrip(tmp_path):
    text = """
[experiment]
horizon = 2.5
dt = 0.002
scenarios = S1,S3
seeds = 0..2
init_seed = 11
initial_state = 0,0,0,0,0
output_dir = out
log_stride = 4

[gains]
learning_rate = 0.5
forgetting_factor = 0.002
diffusion_gain = 0.01
control_gain = 50

[network]
hidden_layers = 3
hidden_width = 6
activation = swish

[ball]
radius = 10
layer = 0.2

[temperature]
scale = 4.5
quad_weight = 0.02

[offtrajectory]
count = 10
low = -0.2
high = 0.2
seed = 5

[lyapunov]
reference = zero
"""
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.horizon == 2.5
    assert cfg.scenarios == ("S1", "S3")
    assert cfg.seeds == (0, 1, 2)
    assert cfg.init_seed == 11
    assert cfg.learning_rate == 0.5
    assert cfg.ball_radius == 10.0
    assert cfg.temp_scale == 4.5
    assert cfg.offtraj_count == 10
    assert cfg.lyapunov_reference == "zero"


# -- driver ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg_path = out / "exp.ini"
    cfg_path.write_text(FAST_OVERRIDES.format(out=out / "results"))
    config = load_config(cfg_path)
    rows, results = run_experiment(config, workers=1)
    return config, rows, results, out / "results"


def test_artifact_files_exist(experiment_out):
    config, _, results, out_dir = experiment_out
    csvs = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csvs == [
        f"{s}_seed{seed:04d}.csv" for s in config.scenarios for seed in config.seeds
    ]
    assert (out_dir / "runs.jsonl").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "summary.txt").exists()
    assert len(results) == len(config.scenarios) * len(config.seeds)


def test_summary_improvements_reference_values():
    # feeding the reference comparison table through the improvement formula
    table_values = {
        "S1": (0.0734, 7.2575, 5.7432),
        "S2": (0.0586, 5.7656, 5.0960),
        "S3": (0.0587, 5.7743, 5.0937),
        "S4": (0.0582, 5.7412, 5.3619),
    }
    results = [
        RunResult(
            scenario=s,
            seed=0,
            diverged=False,
            error=None,
            rms_error=v[0],
            rms_func_err=v[1],
            off_traj_rms=v[2],
            clip_count=0,
            sup_state_norm=0.0,
            sup_error_norm=0.0,
            temp_mean_early=0.0,
            temp_mean_late=0.0,
            max_boundary_value=0.0,
        )
        for s, v in table_values.items()
    ]
    s1, s2, s3, s4 = build_summary(results)
    assert s1.improvement_rms_error == pytest.approx(0.0)
    assert s2.improvement_rms_error == pytest.approx(20.1635, abs=1e-3)
    assert s3.improvement_rms_error == pytest.approx(20.0272, abs=1e-3)
    assert s4.improvement_rms_error == pytest.approx(20.7084, abs=1e-3)
    assert s2.improvement_rms_func_err == pytest.approx(20.5567, abs=1e-3)
    assert s4.improvement_off_traj == pytest.approx(6.6392, abs=1e-3)


def test_summary_text_baseline_row_zero(experiment_out):
    _, rows, _, _ = experiment_out
    text = print_summary(rows, "text")
    s1_line = [ln for ln in text.splitlines() if ln.startswith("S1")][0]
    assert "0.00%" in s1_line


def test_summary_csv_roundtrip(experiment_out):
    # every field of every row reads back exactly; None is an empty cell
    _, rows, _, _ = experiment_out
    header, *lines = print_summary(rows, "csv").splitlines()
    assert header.split(",") == [f.name for f in fields(ScenarioSummary)]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        for name, text in zip(header.split(","), line.split(",")):
            value = getattr(row, name)
            if value is None:
                assert text == ""
            else:
                assert type(value)(text) == value


def test_summary_jsonl_parses(experiment_out):
    config, rows, _, _ = experiment_out
    lines = print_summary(rows, "jsonl").strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert [r["scenario"] for r in records] == list(config.scenarios)


def test_summary_unknown_format_rejected(experiment_out):
    _, rows, _, _ = experiment_out
    with pytest.raises(ValueError, match="unknown summary format 'tsv'"):
        print_summary(rows, "tsv")


def test_single_scenario_single_row(experiment_out):
    _, _, results, _ = experiment_out
    (only_s2,) = build_summary([r for r in results if r.scenario == "S2"])
    assert only_s2.improvement_rms_error is None  # no baseline present


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = ExperimentConfig(
            horizon=0.2,
            hidden_layers=1,
            hidden_width=6,
            seeds=(0, 1),
            scenarios=("S1", "S2"),
            output_dir=str(out),
            lyapunov_reference="zero",
        )
        run_experiment(cfg, workers=1)
        outs.append(out)
    for fname in ("S1_seed0000.csv", "S2_seed0001.csv", "runs.jsonl", "summary.json", "summary.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_parallel_matches_sequential(tmp_path):
    outs = []
    for name, workers in (("seq", 1), ("par", 2)):
        out = tmp_path / name
        cfg = ExperimentConfig(
            horizon=0.2,
            hidden_layers=1,
            hidden_width=6,
            seeds=(0, 1, 2),
            scenarios=("S1", "S2"),
            output_dir=str(out),
            lyapunov_reference="zero",
        )
        run_experiment(cfg, workers=workers)
        outs.append(out)
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    assert (outs[0] / "runs.jsonl").read_bytes() == (outs[1] / "runs.jsonl").read_bytes()


@pytest.mark.parametrize("scenario, diffusion_gain", [("S1", 0.03), ("S2", 0.0)])
def test_seed_independent_scenario_integrated_once(tmp_path, monkeypatch, scenario, diffusion_gain):
    # With zero diffusion gain no noise is drawn, so one run serves every seed.
    calls = []
    run_scenario = cli.run_scenario

    def counting_run(config, scenario, seed, theta_ref=None):
        calls.append((scenario, seed))
        return run_scenario(config, scenario, seed, theta_ref=theta_ref)

    monkeypatch.setattr(cli, "run_scenario", counting_run)
    cfg = ExperimentConfig(
        horizon=0.2,
        hidden_layers=1,
        hidden_width=6,
        seeds=(4, 0, 9),
        scenarios=(scenario,),
        diffusion_gain=diffusion_gain,
        output_dir=str(tmp_path),
        lyapunov_reference="zero",
    )
    results = run_batch(cfg, workers=1, out_dir=tmp_path)
    assert calls == [(scenario, 4)]
    assert [r.seed for r in results] == [0, 4, 9]
    records = {json.dumps(cli._record(replace(r, seed=0))) for r in results}
    assert len(records) == 1
    csvs = {(tmp_path / f"{scenario}_seed{s:04d}.csv").read_bytes() for s in (0, 4, 9)}
    assert len(csvs) == 1


def test_pool_no_larger_than_task_list(monkeypatch):
    # S1 once and S2 per seed make three tasks; more workers would get none
    pool_sizes = []

    class InlinePool:
        def __init__(self, processes):
            pool_sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, func, tasks, chunksize=None):
            return [func(task) for task in tasks]

    cfg = ExperimentConfig(
        horizon=0.2,
        hidden_layers=1,
        hidden_width=6,
        seeds=(0, 1),
        scenarios=("S1", "S2"),
        lyapunov_reference="zero",
    )
    sequential = [cli._record(r) for r in run_batch(cfg, workers=1)]
    monkeypatch.setattr(cli, "Pool", InlinePool)
    assert [cli._record(r) for r in run_batch(cfg, workers=8)] == sequential
    assert pool_sizes == [3]


def run_script(tmp_path, text):
    """Run ``text`` as a script in a fresh interpreter that imports this
    package; returns its standard output."""
    script = tmp_path / "script.py"
    script.write_text(text)
    src = str(Path(thermoadapt.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runs_do_not_import_root_finder(tmp_path):
    # scipy.optimize adds about a third to every process's import time and
    # memory; only rho_inverse loads it
    (tmp_path / "exp.ini").write_text("")
    out = run_script(tmp_path, """
import sys
from thermoadapt import ExperimentConfig, LyapunovConstants, cli, escape_risk
cfg = ExperimentConfig(horizon=0.05, hidden_layers=1, hidden_width=4, seeds=(0,),
                       scenarios=("S1", "S2"), lyapunov_reference="zero")
cli.run_batch(cfg)
assert cli.main(["validate", "--config", "exp.ini"]) == 0
print("scipy.optimize" in sys.modules)
constants = LyapunovConstants(learning_rate=1.0, b0=10.0, b1=0.01, b2=0.5, rho_a0=1.0,
                              rho_a1=1.0, rho_a2=1.0, xd_bound=3.3166, level=0.05)
print(repr(escape_risk(constants, 0.001, 2.0)))
""")
    # the risk as the module computed it with brentq imported at the top
    assert out.splitlines()[-2:] == ["False", "0.22786982411576248"]


def test_spawned_workers_match_one_worker(tmp_path):
    # Compared as reprs: a NaN field (no late-window temperature in a 0.2 s
    # run) makes equal records compare unequal.
    out = run_script(tmp_path, """
import multiprocessing
from thermoadapt import ExperimentConfig
from thermoadapt.cli import run_batch

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    cfg = ExperimentConfig(horizon=0.2, hidden_layers=1, hidden_width=6, seeds=(0, 1),
                           scenarios=("S1", "S2"), lyapunov_reference="zero")
    print(repr(run_batch(cfg, workers=1)))
    print(repr(run_batch(cfg, workers=2)))
""")
    one, two = out.splitlines()
    assert "nan" in one
    assert two == one


def test_initial_lyapunov_reference(tmp_path):
    # the reference is the initial weights, so the first logged row has no weight term
    cfg = ExperimentConfig(
        horizon=0.2,
        hidden_layers=1,
        hidden_width=6,
        seeds=(0, 1),
        log_stride=1,
        output_dir=str(tmp_path),
        lyapunov_reference="initial",
    )
    assert cli.resolve_theta_ref(cfg).tobytes() == cfg.initial_theta().tobytes()
    run_experiment(cfg, workers=1)
    e1, proxy = CSV_COLUMNS.index("e1"), CSV_COLUMNS.index("lyapunov_proxy")
    for scenario in cfg.scenarios:
        for seed in cfg.seeds:
            path = tmp_path / f"{scenario}_seed{seed:04d}.csv"
            first = np.loadtxt(path, delimiter=",", skiprows=1, max_rows=1)
            e = first[e1:e1 + 5]
            assert first[proxy] == 0.5 * float(e @ e)


# -- command line -----------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, "[gains]\ndiffusion_gain = 0.05\n")
    assert main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "[gains]\ndiffusion_gain = -3\n")
    assert main(["validate", "--config", str(path)]) == 2


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


# radius 10 < 13.42, the norm of the He-initialised default weights
SMALL_BALL = """
[experiment]
horizon = 0.5
seeds = 2
output_dir = {out}

[ball]
radius = 10
"""


def test_validate_small_ball_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_BALL.format(out=tmp_path / "out"))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ball radius 10 ")
    assert "13.42" in err


def test_run_small_ball_exit_2_writes_nothing(tmp_path, capsys):
    for reference in ("deterministic", "zero"):
        out = tmp_path / reference
        text = SMALL_BALL.format(out=out) + f"[lyapunov]\nreference = {reference}\n"
        path = write_config(tmp_path, text)
        assert main(["run", "--config", str(path), "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ball radius 10 ")
        assert "13.42" in err
        assert not out.exists()


def test_ball_containment_at_layer_edge():
    # the initial weights may sit in the boundary layer but not beyond it
    config = ExperimentConfig()
    sq_norm = float(config.initial_theta() @ config.initial_theta())
    layer = config.ball_layer
    replace(config, ball_radius=np.sqrt(sq_norm - layer / 2))
    with pytest.raises(ValueError, match="ball radius .* does not contain"):
        replace(config, ball_radius=np.sqrt(sq_norm - 2 * layer))


# each edit puts a seed outside the 64-bit range the random streams accept;
# the error names the config field that holds it
@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("seeds = 2", "seeds = -1,2"), "config error: seeds: "),
    (lambda text: text + "[offtrajectory]\nseed = -5\n", "config error: offtraj_seed: "),
    (lambda text: text.replace("seeds = 2", "seeds = 2\ninit_seed = -1"),
     "config error: init_seed: "),
], ids=["seeds", "offtrajectory.seed", "experiment.init_seed"])
def test_out_of_range_seed_exit_2_writes_nothing(tmp_path, capsys, edit, message):
    out = tmp_path / "out"
    path = write_config(tmp_path, edit(FAST_OVERRIDES.format(out=out)))
    for command in (["validate"], ["run", "--workers", "2"]):
        assert main([*command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "64-bit unsigned integer" in err
    assert not out.exists()


# each edit makes one field non-finite or leaves no scenario; the error names
# the config field
@pytest.mark.parametrize("edit, field", [
    (lambda text: text.replace("horizon = 0.5", "horizon = nan"), "horizon"),
    (lambda text: text + "[offtrajectory]\nlow = -inf\n", "offtraj_low"),
    (lambda text: text + "[gains]\nlearning_rate = inf\n", "learning_rate"),
    (lambda text: text.replace("seeds = 2", "seeds = 2\ninitial_state = 0,nan,3,-3,3"),
     "initial_state"),
    (lambda text: text.replace("seeds = 2", "seeds = 2\nscenarios ="), "scenarios"),
    (lambda text: text.replace("output_dir = ", "output_dir =\n# was "), "output_dir"),
], ids=["horizon", "offtrajectory.low", "gains.learning_rate", "initial_state", "scenarios",
        "output_dir"])
def test_non_finite_or_empty_value_exit_2_writes_nothing(
    tmp_path, capsys, monkeypatch, edit, field
):
    # an empty output_dir would put the artifacts in the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    path = write_config(tmp_path, edit(FAST_OVERRIDES.format(out=out)))
    for command in (["validate"], ["run", "--workers", "2"]):
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} ")
    assert not out.exists()
    assert os.listdir(tmp_path) == [path.name]


# each edit of the config text, or flag, breaks one rule; the error names the
# field (the file, for a missing section header). Values are literal, and
# [DEFAULT] is one more unknown section.
@pytest.mark.parametrize("edit, flags, message", [
    (lambda text: text.replace("horizon = 0.5", "horizon = -1"), [],
     "horizon must be nonnegative"),
    (lambda text: text.replace("horizon = 0.5", "horizon = 1.0\ndt = 0.6"), [],
     "horizon / dt must be a whole number of steps, got 1.0 / 0.6"),
    (lambda text: text.replace("horizon = 0.5", "horizon = 1.0\ndt = 0.4"), [],
     "horizon / dt must be a whole number of steps, got 1.0 / 0.4"),
    (lambda text: text.replace("horizon = 0.5", "horizon = 1.0\ndt = 0.3"), [],
     "horizon / dt must be a whole number of steps, got 1.0 / 0.3"),
    (lambda text: text.replace("seeds = 2", "seeds = 2\nscenarios = S1,S1"), [],
     "scenarios must not repeat"),
    (lambda text: text.replace("seeds = 2", "seeds = 2\ninitial_state = 0,-1,3"), [],
     "initial_state needs 5 entries, got 3"),
    (lambda text: text.replace("hidden_layers = 2", "hidden_layers = -1"), [],
     "hidden_layers must be >= 0"),
    (lambda text: text.replace("hidden_width = 8", "hidden_width = 0"), [],
     "hidden_width must be >= 1"),
    (lambda text: text + "[temperature]\nscale = 0\n", [], "temp_scale must be positive"),
    (lambda text: text + "[temperature]\nquad_weight = -0.01\n", [],
     "temp_quad_weight must be nonnegative"),
    (lambda text: text.replace("seeds = 2", "seeds = 2\nlog_stride = 0"), [],
     "log_stride must be >= 1"),
    (lambda text: text + "[offtrajectory]\ncount = 0\n", [], "offtraj_count must be >= 1"),
    (lambda text: text + "[offtrajectory]\nlow = 0.5\n", [],
     "offtraj_low must be below offtraj_high"),
    (lambda text: text + "[lyapunov]\nreference = final\n", [],
     "lyapunov_reference must be deterministic/initial/zero, got 'final'"),
    (lambda text: text, ["--workers", "0"], "workers must be >= 1, got 0"),
    (lambda text: "horizon = 0.5\n" + text, [], "cannot parse config {path}: "),
    (lambda text: "[DEFAULT]\nhorizon = 1.0\n", [], "unknown config section [DEFAULT]"),
    (lambda text: "[DEFAULT]\nhorizon = 1.0\n" + text, [], "unknown config section [DEFAULT]"),
    (lambda text: text.replace("horizon = 0.5", "horizon = 0.5%"), [],
     "invalid value for experiment.horizon: could not convert string to float: '0.5%'"),
], ids=["horizon", "fraction-0.6", "fraction-0.4", "fraction-0.3", "scenarios",
        "initial_state", "hidden_layers", "hidden_width", "temperature.scale",
        "temperature.quad_weight", "log_stride", "offtrajectory.count", "offtrajectory.low",
        "lyapunov.reference", "workers", "no-section-header", "DEFAULT-alone",
        "DEFAULT-with-sections", "percent"])
def test_rejected_config_exit_2_writes_nothing(
    tmp_path, capsys, monkeypatch, edit, flags, message
):
    # without output_dir the artifacts would go to the working directory
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, edit(FAST_OVERRIDES.format(out=tmp_path / "out")))
    commands = [["run", "--workers", "2", *flags]] + ([] if flags else [["validate"]])
    for command in commands:
        assert main([*command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(path=path))
    assert os.listdir(tmp_path) == [path.name]


def test_config_values_are_literal(tmp_path, capsys):
    # a % in a value is a character, not an interpolation
    out = tmp_path / "runs_100%"
    text = FAST_OVERRIDES.format(out=out).replace("horizon = 0.5", "horizon = 0.05")
    path = write_config(tmp_path, text + "[lyapunov]\nreference = zero\n")
    assert load_config(path).output_dir == str(out)
    assert main(["run", "--config", str(path), "--no-logs"]) == 0
    assert main(["summarize", "--in", str(out)]) == 0
    assert capsys.readouterr().out.endswith((out / "summary.txt").read_text())


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_uncreatable_output_dir_exit_2_writes_nothing(tmp_path, capsys, under):
    # --out names a regular file, or a path below one
    path = write_config(tmp_path, FAST_OVERRIDES.format(out=tmp_path / "unused"))
    out = path / "x" if under else path
    for workers in ("1", "2"):
        assert main(["run", "--config", str(path), "--out", str(out), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert os.listdir(tmp_path) == [path.name]
    with pytest.raises(ConfigError, match="cannot create output directory"):
        run_experiment(replace(load_config(path), output_dir=str(out)))


def test_empty_out_flag_exit_2_writes_nothing(tmp_path, capsys, monkeypatch):
    # an empty --out, --scenarios or --seeds is rejected, not ignored
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, FAST_OVERRIDES.format(out=tmp_path / "out"))
    for flag, error in (
        ("--out", "output_dir must not be empty"),
        ("--scenarios", "scenarios must name at least one scenario"),
        ("--seeds", "--seeds: empty seed specification"),
    ):
        assert main(["run", "--config", str(path), flag, ""]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {error}")
        assert os.listdir(tmp_path) == [path.name]


def test_unparsable_seeds_flag_names_the_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--seeds", "abc", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: --seeds: invalid literal for int() with base 10: 'abc'\n"
    )
    assert not out.exists()


# horizon / dt is no exact step count (1e303 > 2**53) or overflows to inf
@pytest.mark.parametrize("extra", ["", "dt = 1e-10\n"], ids=["above-2**53", "inf"])
def test_unsizable_step_count_exit_2_writes_nothing(tmp_path, capsys, extra):
    out = tmp_path / "out"
    text = FAST_OVERRIDES.format(out=out).replace("horizon = 0.5\n", "horizon = 1e300\n" + extra)
    path = write_config(tmp_path, text)
    for command in (["validate"], ["run", "--workers", "2"]):
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: horizon / dt must be at most 2**53")
    assert os.listdir(tmp_path) == [path.name]
    # 2**53 steps is the largest count accepted
    replace(ExperimentConfig(), horizon=2.0**53, dt=1.0)
    with pytest.raises(ValueError, match="horizon / dt"):
        replace(ExperimentConfig(), horizon=2.0**54, dt=1.0)


def test_overflowing_initial_state_exit_2_writes_nothing(tmp_path, capsys):
    # every entry is finite, but |x0|^2 overflows, so no |x| of the run would be
    out = tmp_path / "out"
    text = FAST_OVERRIDES.format(out=out).replace(
        "seeds = 2", "seeds = 2\ninitial_state = 1e155,0,0,0,0"
    )
    path = write_config(tmp_path, text)
    for command in (["validate"], ["run", "--workers", "2"]):
        assert main([*command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial_state must have a finite squared norm")
    assert not out.exists()


def test_out_of_range_seed_override_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    for workers in ("1", "2"):
        argv = ["run", "--seeds=-1..2", "--out", str(out), "--workers", workers]
        assert main(argv) == 2
        assert "got -1" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seeds_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seeds must not repeat"):
        load_config(write_config(tmp_path, "[experiment]\nseeds = 1,1\n"))
    assert main(["run", "--seeds", "1,1", "--out", str(tmp_path / "out")]) == 2
    assert "seeds must not repeat" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_and_summarize_cli(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        "[experiment]\nhorizon = 0.2\nseeds = 1\nscenarios = S1,S2\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[network]\nhidden_layers = 1\nhidden_width = 6\n"
        "[lyapunov]\nreference = zero\n",
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario" in out and "S2" in out
    assert main(["summarize", "--in", str(tmp_path / "out"), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0].startswith("scenario,")


# a runs.jsonl record as run_experiment writes it, and its text with and without rms_error
_RECORD = cli._record(RunResult(
    scenario="S1", seed=0, diverged=False, error=None, rms_error=0.1, rms_func_err=1.0,
    off_traj_rms=1.0, clip_count=0, sup_state_norm=1.0, sup_error_norm=1.0,
    temp_mean_early=1.0, temp_mean_late=np.nan, max_boundary_value=-1.0,
))
_FIRST = json.dumps(_RECORD)
_NO_RMS = json.dumps({k: v for k, v in _RECORD.items() if k != "rms_error"})


@pytest.mark.parametrize("text, reason", [
    ("", "holds no records"),
    ("\n \n", "holds no records"),
    ("null\n", "not a JSON object: None"),
    ("[1, 2]\n", "not a JSON object: [1, 2]"),
    (f"{_FIRST}\n{_FIRST[:-5]}\n",
     f"runs.jsonl line 2: Expecting value at column {len(_FIRST) - 4}\n"),
    (f"{_FIRST}\nnull\n", "runs.jsonl line 2: not a JSON object: None\n"),
    (f"{_FIRST}\n{_NO_RMS}\n", "runs.jsonl line 2: field 'rms_error' is missing\n"),
    (f'{_FIRST}\n{{"scenario": "S\u00e9"}}\n', "runs.jsonl line 2: 'ascii' codec can't decode "
     "byte 0xc3 in position 15: ordinal not in range(128)\n"),
], ids=["empty", "blank", "null", "list", "cut-line", "null-line", "missing-field", "non-ascii"])
def test_summarize_broken_runs_file_exit_2(tmp_path, capsys, text, reason):
    (tmp_path / "runs.jsonl").write_text(text, encoding="utf-8")
    assert main(["summarize", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot load results from {tmp_path}: runs.jsonl ")
    assert reason in captured.err


# each edit gives one field of the second record a JSON value of the wrong type
@pytest.mark.parametrize("field, value, expected", [
    ("rms_error", "x", "a number in the float range, or null"),
    ("scenario", ["S1"], "a string"),
    ("diverged", "no", "true or false"),
    ("seed", 0.5, "an integer"),
    ("clip_count", True, "an integer"),
], ids=["rms_error", "scenario", "diverged", "seed", "clip_count"])
def test_summarize_mistyped_field_exit_2(tmp_path, capsys, field, value, expected):
    lines = [_FIRST, json.dumps({**_RECORD, "seed": 1, field: value})]
    (tmp_path / "runs.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["summarize", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"cannot load results from {tmp_path}: runs.jsonl line 2: "
        f"field {field!r} must be {expected}, got {value!r}\n"
    )
    # the unedited record reads back field for field
    (tmp_path / "runs.jsonl").write_text(lines[0] + "\n")
    (loaded,) = cli.load_results(tmp_path)
    assert cli._record(loaded) == _RECORD


def test_summarize_keeps_sweep_scenario_order(tmp_path, capsys):
    out = tmp_path / "out"
    config = ExperimentConfig(
        horizon=0.05,
        hidden_layers=1,
        hidden_width=6,
        scenarios=("S3", "S1"),
        output_dir=str(out),
        lyapunov_reference="zero",
    )
    run_experiment(config, write_logs=False)
    assert main(["summarize", "--in", str(out)]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text()


def test_no_logs_skips_deterministic_reference_run(tmp_path, monkeypatch):
    # Only the CSVs log the Lyapunov proxy, so without them the reference
    # run is one integration fewer and the other artifacts do not change.
    calls = []
    run_scenario = cli.run_scenario

    def counting_run(config, scenario, seed, theta_ref=None):
        calls.append((scenario, seed))
        return run_scenario(config, scenario, seed, theta_ref=theta_ref)

    monkeypatch.setattr(cli, "run_scenario", counting_run)
    counts = []
    for write_logs in (True, False):
        config = ExperimentConfig(
            horizon=0.2,
            hidden_layers=1,
            hidden_width=6,
            seeds=(0, 1),
            scenarios=("S1", "S2"),
            output_dir=str(tmp_path / str(write_logs)),
            lyapunov_reference="deterministic",
        )
        calls.clear()
        run_experiment(config, write_logs=write_logs)
        counts.append(len(calls))
    assert counts == [4, 3]
    for name in ("runs.jsonl", "summary.json", "summary.txt"):
        with_logs, without = ((tmp_path / d / name).read_bytes() for d in ("True", "False"))
        assert with_logs == without


def test_cli_overrides(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        "[experiment]\nhorizon = 0.2\n"
        "[network]\nhidden_layers = 1\nhidden_width = 6\n"
        "[lyapunov]\nreference = zero\n",
    )
    out = tmp_path / "ovr"
    code = main([
        "run", "--config", str(cfg_path),
        "--scenarios", "S3", "--seeds", "0..1", "--out", str(out), "--no-logs",
    ])
    assert code == 0
    capsys.readouterr()
    assert not list(out.glob("*.csv"))  # --no-logs
    records = [json.loads(ln) for ln in (out / "runs.jsonl").read_text().splitlines()]
    assert {r["scenario"] for r in records} == {"S3"}
    assert sorted(r["seed"] for r in records) == [0, 1]


def test_divergent_run_exit_3(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        "[experiment]\nhorizon = 5\ndt = 0.5\nseeds = 1\nscenarios = S1\n"
        f"output_dir = {tmp_path / 'div'}\n"
        "[network]\nhidden_layers = 1\nhidden_width = 6\n"
        "[lyapunov]\nreference = zero\n",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg_path)]) == 3
        with pytest.raises(DivergenceError) as excinfo:
            run(load_config(cfg_path), "S1", 0)
    records = [json.loads(ln) for ln in (tmp_path / "div" / "runs.jsonl").read_text().splitlines()]
    assert len(records) == 1
    # every field of the diverged record comes from the same run's partial log
    partial = excinfo.value.partial_log
    assert records[0] == {
        "scenario": "S1",
        "seed": 0,
        "diverged": True,
        "error": str(excinfo.value),
        "rms_error": None,
        "rms_func_err": None,
        "off_traj_rms": None,
        "clip_count": partial.clip_count,
        "sup_state_norm": partial.sup_state_norm,
        "sup_error_norm": partial.sup_error_norm,
        "temp_mean_early": None,
        "temp_mean_late": None,
        "max_boundary_value": partial.max_boundary_value,
    }
    assert set(records[0]) == {f.name for f in fields(RunResult)}
    # the CSV holds the rows logged before the failing step
    logged = np.loadtxt(tmp_path / "div" / "S1_seed0000.csv", delimiter=",", skiprows=1, ndmin=2)
    assert logged.tobytes() == partial.rows.tobytes()
    # a scenario whose every run diverged has NaN means and no improvements
    capsys.readouterr()
    assert main(["summarize", "--in", str(tmp_path / "div"), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "S1,1,1" + ",nan" * 6 + ",,,"


@pytest.mark.parametrize("scenario", ["S1", "S2"])
def test_diverging_reference_run_exit_3(tmp_path, capsys, scenario):
    # the deterministic reference run diverges too; its last finite weights
    # serve as the reference and the sweep records the diverged run
    out = tmp_path / "div"
    cfg_path = write_config(
        tmp_path,
        f"[experiment]\nhorizon = 5\ndt = 0.5\nseeds = 1\nscenarios = {scenario}\n"
        f"output_dir = {out}\n"
        "[network]\nhidden_layers = 1\nhidden_width = 6\n",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg_path)]) == 3
    assert "1 run(s) diverged" in capsys.readouterr().err
    records = [json.loads(ln) for ln in (out / "runs.jsonl").read_text().splitlines()]
    assert [(r["scenario"], r["diverged"]) for r in records] == [(scenario, True)]
    assert (out / f"{scenario}_seed0000.csv").exists()
