"""Self-tests of the benchmark: the gate, the seed contract and the output format.

    PYTHONPATH=src python3 -m pytest bench -q

They run the benchmark in-process on its cheapest settings (a few seconds per
run), so they are kept apart from the package's own test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import BUILDERS, WORKLOADS  # noqa: E402

SEED = 1


@pytest.fixture
def workdir():
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def bench(capsys, *args: str) -> tuple[int, dict]:
    code = run.main(["--seed", str(SEED), "--seconds", "0", *args])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_has_the_same_mix(workload, workdir):
    first = BUILDERS[workload](SEED, workdir).ops
    second = BUILDERS[workload](SEED + 1000, workdir).ops
    assert len(first) == len(second)
    assert Counter((op.kind, op.size) for op in first) == Counter((op.kind, op.size) for op in second)


def test_committed_digest_passes_and_perturbed_digest_fails(capsys, monkeypatch, quick):
    committed = run.load_digests()
    assert str(SEED) in committed["matrix"]
    code, result = bench(capsys, "--workload", "matrix")
    assert code == 0 and result["correct"] and result["failed"] == 0

    digest = committed["matrix"][str(SEED)]
    perturbed = {**committed, "matrix": {str(SEED): digest[:-1] + ("0" if digest[-1] != "0" else "1")}}
    monkeypatch.setattr(run, "load_digests", lambda: perturbed)
    code, result = bench(capsys, "--workload", "matrix")
    assert code == 1 and result["correct"] is False


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, quick, trace, section):
    spec = run.load_spec()
    code, result = bench(capsys, "--workload", "matrix", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["tropical.perm_terms"]["value"] > 0


def test_fails_without_the_program(workdir):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "matrix", "--seed", "1", "--seconds", "1"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
