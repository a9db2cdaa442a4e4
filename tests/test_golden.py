"""Golden artifacts: a short sweep must reproduce checked-in file hashes.

A refactor of the integrator, the law functions or the experiment driver is
meant to leave every number bit for bit unchanged. This test runs a 0.5 s
sweep of all four scenarios over two seeds, at full logging resolution and
with the deterministic Lyapunov reference, once sequentially and once on two
worker processes, and compares the SHA-256 of every artifact with the values
recorded before the refactor. A change meant to move round-off must update
the hashes and say why.
"""

import hashlib

import pytest

from thermoadapt import ExperimentConfig
from thermoadapt.cli import run_experiment

GOLDEN_SHA256 = {
    "S1_seed0000.csv": "105542469b0ed38c44fa9fae34b96107a042e2ba0485ac788193aa072902a2c7",
    "S1_seed0001.csv": "105542469b0ed38c44fa9fae34b96107a042e2ba0485ac788193aa072902a2c7",
    "S2_seed0000.csv": "cde4c9563dae275b22f947ce6c6ca6ee13f06dc621d7b00e7e5370b22fef2d22",
    "S2_seed0001.csv": "add51ee9008aa67cb5e8103931c5c3994f93cd9009d8efe6106c2574440f209b",
    "S3_seed0000.csv": "edfb40f68e949b0d7c2921ccefc9b4d0d6ac4914d3c58fae3366d52f0bf5b087",
    "S3_seed0001.csv": "54c43191e793b0594af2705b318e121458368864fa083b5a524a8bce257b7699",
    "S4_seed0000.csv": "7ad3a1da7a5fc9f0eb735d3d052c3d32add914670ad5431e2420ea7164663112",
    "S4_seed0001.csv": "ca72fcde2c63776eb5c713cd1ff90b5857fe7dfdd831d3bd0d4942c669916e26",
    "runs.jsonl": "dfc65bbe66705b34a10af8bbb8df39490e6be33add2dfc8a06590c08b493ebea",
    "summary.json": "7d7e8f361e4b0a631807495fb17c65364de69d7c351bba60f78861ddfb667815",
    "summary.txt": "bc2c27de85ca50eeca3f10127b73d1e92f1cd9f53d58f1848482b011144d513d",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_artifacts(tmp_path, workers):
    config = ExperimentConfig(
        horizon=0.5,
        seeds=(0, 1),
        log_stride=1,
        lyapunov_reference="deterministic",
        output_dir=str(tmp_path),
    )
    run_experiment(config, workers=workers)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN_SHA256
