"""Golden artifacts: a short sweep must reproduce checked-in file hashes.

A refactor of the integrator, the law functions or the experiment driver is
meant to leave every number bit for bit unchanged. This test runs a 0.5 s
sweep of all four scenarios over two seeds, at full logging resolution and
with the deterministic Lyapunov reference, once sequentially and once on two
worker processes, and compares the SHA-256 of every artifact with recorded
values. A change meant to move round-off must update the hashes and say why.

Last recorded when the weight drift's ``J.T e`` became one reverse sweep of
the network (a vector-Jacobian product) instead of the product of the full
weight Jacobian with ``e``: the summation order changed, and no number in
``runs.jsonl`` moved by more than 2e-16 relative.
"""

import hashlib

import pytest

from thermoadapt import ExperimentConfig
from thermoadapt.cli import run_experiment

GOLDEN_SHA256 = {
    "S1_seed0000.csv": "4935fd8279f68e8c8f64ab54f03bf0a2c51347a8061d2a6d00b718416383b3eb",
    "S1_seed0001.csv": "4935fd8279f68e8c8f64ab54f03bf0a2c51347a8061d2a6d00b718416383b3eb",
    "S2_seed0000.csv": "2a4d5a58808ec7c52cb5f998f8012a4769b5db816db2934053acee2913674f62",
    "S2_seed0001.csv": "c0da121db6663ccb75ba373cdd16d55cd8dfd6a35be09b3b996f012239f05777",
    "S3_seed0000.csv": "53aaf114777fbda548f22f0900964c8c6cd28e1c0bc003b4eb2435df52ed661f",
    "S3_seed0001.csv": "64bae68c492ba592ac230e07a02dea0846df01c66a125d5e43bf53bc802df53f",
    "S4_seed0000.csv": "823306efb6feb806eeae34279581d175dc5b7a5aaa0e10c51e0aaffc8c511a8b",
    "S4_seed0001.csv": "427ae1545cc5c52f1a18abac263e507cccc6d5f7ed6eccf03a819e7620a5a566",
    "runs.jsonl": "306bdf61af8f090d4e8ab498e450e6374d6dbbe5a0300ba01364e0cc3e83822f",
    "summary.json": "a9ed95f32ab0b40904e32b909b595365eb9984e779a52c2acefcbb77ae5377e4",
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
