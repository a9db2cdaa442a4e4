"""Timers and counters the benchmark installs around the package's layers.

Every probe calls the original function with the same arguments and
returns its result unchanged, so a probed sweep computes the same numbers
as an unprobed one. Probes are installed by rebinding the names the package
looks up at call time (module globals and class attributes), before the
worker pool forks, so workers inherit them.

Two levels:

* ``install(events_dir, trace=False)`` times whole operations: each
  ``sim.run`` (through the name ``cli.run_scenario``), ``sim.metrics``,
  ``sim.write_csv``, ``cli.resolve_theta_ref``, the sweep
  (``cli.run_batch``) and the experiment (``cli.run_experiment``). That
  costs a few timer reads per 3 s run and is what the end-to-end figures
  are computed from.
* ``trace=True`` adds per-call timers inside the step loop, one per layer
  (network, plant, thermo, projection, numerics). Their totals are
  snapshotted around each ``sim.run`` so calls made elsewhere (for example
  ``plant_drift`` inside ``sim.metrics``) are not charged to the loop.

Events are appended to one JSON-lines file per process as they happen;
pool workers are terminated without running exit handlers, so nothing is
buffered.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from thermoadapt import cli, sim
from thermoadapt.network import NetworkEvaluator
from thermoadapt.numerics import RandomSource
from thermoadapt.projection import ConvexBall
from thermoadapt.thermo import TemperatureLaw
from workloads import LAYERS

perf_counter = time.perf_counter


class _State:
    """Probe state of one process (inherited by forked workers)."""

    def __init__(self, events_dir: Path):
        self.events_dir = Path(events_dir)
        # Layer timers: name -> [seconds, calls].
        self.acc = {name: [0.0, 0] for name in LAYERS}
        self.project_calls = 0
        self.fade_calls = 0
        self.sources: list[RandomSource] = []
        self.in_theta_ref = False

    def emit(self, kind: str, **fields) -> None:
        pid = os.getpid()
        path = self.events_dir / f"events-{pid}.jsonl"
        with open(path, "a", encoding="ascii") as fh:
            fh.write(json.dumps({"ev": kind, "pid": pid, **fields}) + "\n")

    def snapshot(self) -> dict:
        snap = {name: tuple(v) for name, v in self.acc.items()}
        snap["project_calls"] = self.project_calls
        snap["fade_calls"] = self.fade_calls
        return snap


def _timed(fn, acc):
    def probe(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        acc[0] += perf_counter() - t0
        acc[1] += 1
        return out

    return probe


def _install_layer_timers(state: _State) -> None:
    acc = state.acc
    NetworkEvaluator.evaluate = _timed(NetworkEvaluator.evaluate, acc["network"])
    # sim binds these two by name, so they are rebound where sim looks them up.
    sim.plant_drift = _timed(sim.plant_drift, acc["plant"])
    sim.desired = _timed(sim.desired, acc["plant"])
    TemperatureLaw.mu = _timed(TemperatureLaw.mu, acc["thermo"])
    TemperatureLaw.mu_jacobian_applied = _timed(
        TemperatureLaw.mu_jacobian_applied, acc["thermo"]
    )
    ConvexBall.clip = _timed(ConvexBall.clip, acc["projection"])
    ConvexBall.boundary_fn = _timed(ConvexBall.boundary_fn, acc["projection"])
    RandomSource.standard_normal = _timed(
        RandomSource.standard_normal, acc["numerics"]
    )

    project = ConvexBall.project
    proj_acc = acc["projection"]

    def project_probe(self, theta, m):
        t0 = perf_counter()
        out = project(self, theta, m)
        proj_acc[0] += perf_counter() - t0
        proj_acc[1] += 1
        state.project_calls += 1
        # The pass-through branches return the increment object itself.
        if out is not m:
            state.fade_calls += 1
        return out

    ConvexBall.project = project_probe

    source_cls = sim.RandomSource

    def recording_source(seed):
        src = source_cls(seed)
        state.sources.append(src)
        return src

    sim.RandomSource = recording_source


def install(events_dir, trace: bool = False) -> _State:
    """Install the operation probes, plus the layer timers when ``trace``."""
    state = _State(events_dir)
    if trace:
        _install_layer_timers(state)

    run_scenario = cli.run_scenario

    def run_probe(config, scenario, seed, theta_ref=None):
        before = state.snapshot() if trace else None
        state.sources.clear()
        t0 = perf_counter()
        log = run_scenario(config, scenario, seed, theta_ref=theta_ref)
        run_s = perf_counter() - t0
        role = "ref" if state.in_theta_ref else "sweep"
        fields = {
            "scenario": scenario,
            "seed": seed,
            "role": role,
            "run_s": run_s,
            "steps": log.n_states - 1,
        }
        if trace:
            after = state.snapshot()
            fields["layers"] = {
                name: [after[name][0] - before[name][0], after[name][1] - before[name][1]]
                for name in LAYERS
            }
            fields["project_calls"] = after["project_calls"] - before["project_calls"]
            fields["fade_calls"] = after["fade_calls"] - before["fade_calls"]
            # The path stream is the last source sim.run creates.
            fields["draws"] = state.sources[-1].draws if state.sources else 0
        np.save(state.events_dir / f"theta-{role}-{scenario}-{seed}.npy", log.final_theta)
        state.emit("run", **fields)
        return log

    metrics = cli.metrics

    def metrics_probe(*args, **kwargs):
        t0 = perf_counter()
        report = metrics(*args, **kwargs)
        state.emit("metrics", s=perf_counter() - t0)
        return report

    write_csv = cli.write_csv

    def write_csv_probe(log, path):
        t0 = perf_counter()
        write_csv(log, path)
        state.emit("csv", s=perf_counter() - t0, bytes=os.path.getsize(path))

    resolve_theta_ref = cli.resolve_theta_ref

    def resolve_theta_ref_probe(config):
        state.in_theta_ref = True
        t0 = perf_counter()
        try:
            return resolve_theta_ref(config)
        finally:
            state.in_theta_ref = False
            state.emit("theta_ref", s=perf_counter() - t0)

    run_batch = cli.run_batch

    def run_batch_probe(config, workers=1, out_dir=None, theta_ref=None):
        state.emit("sweep_start", t=time.monotonic(), workers=workers)
        results = run_batch(config, workers=workers, out_dir=out_dir, theta_ref=theta_ref)
        state.emit("sweep_end", t=time.monotonic())
        return results

    run_experiment = cli.run_experiment

    def run_experiment_probe(*args, **kwargs):
        out = run_experiment(*args, **kwargs)
        state.emit("experiment_end", t=time.monotonic())
        return out

    cli.run_scenario = run_probe
    cli.metrics = metrics_probe
    cli.write_csv = write_csv_probe
    cli.resolve_theta_ref = resolve_theta_ref_probe
    cli.run_batch = run_batch_probe
    cli.run_experiment = run_experiment_probe
    return state


def emit_peak_rss(state: _State) -> None:
    """Record the largest resident set of this process and its reaped children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    state.emit("rss", mib=kib / 1024.0)
