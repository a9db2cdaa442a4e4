"""One round of a workload, in a fresh process: set up, sweep, write outputs.

Usage: python3 perfbench/round.py SPEC.json

SPEC.json holds the workload spec from ``workloads.build`` plus
``round_dir`` (where events, weights and artifacts go) and ``trace``.
The package is imported from the ``src`` directory next to this one, so
process start to first run covers imports, config load and the
Lyapunov-reference resolution.

* ``battery``: ``cli.run_batch`` on an ``ExperimentConfig``; the run
  records are written to ``results.jsonl`` by this script.
* ``wide``: ``cli.run_experiment`` without CSVs (``runs.jsonl``,
  ``summary.json``, ``summary.txt``).
* ``cli``: ``thermoadapt run`` (``cli.main``) on an INI file.

The exit code is the package's (3 means a run diverged).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from thermoadapt import ExperimentConfig, cli  # noqa: E402

import probes  # noqa: E402


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="ascii"))
    round_dir = Path(spec["round_dir"])
    params = spec["params"]
    workers = spec["workers"]
    state = probes.install(round_dir, trace=spec["trace"])
    code = 0
    if spec["workload"] == "cli":
        code = cli.main(["run", "--config", str(round_dir / "experiment.ini"),
                         "--workers", str(workers)])
    else:
        config = ExperimentConfig(**params, output_dir=str(round_dir))
        if spec["workload"] == "battery":
            theta_ref = cli.resolve_theta_ref(config)
            results = cli.run_batch(config, workers=workers, theta_ref=theta_ref)
            with open(round_dir / "results.jsonl", "w", encoding="ascii") as fh:
                for r in results:
                    fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")
        else:
            cli.run_experiment(config, workers=workers, write_logs=False)
    probes.emit_peak_rss(state)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
