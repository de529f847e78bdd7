"""Smoke test of the benchmark harness at toy geometry.

Runs every workload, untraced and traced, through the same code path as
the full benchmark in a few seconds, and checks the result line against
BENCHMARK.json.  Toy models are too small to beat random codes on every
seed, so the seeds are fixed.  Run with ``python -m pytest bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spec  # noqa: E402


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_workload_at_toy_geometry(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= (2 if trace == "1" else 1)
    wanted = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert {n: u for n, u, *_ in wanted} == {
        n: m["unit"] for n, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly():
    """Traced call counts are the same on every run of one seed."""
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "accept", "--seed", "5", "--seconds",
                    "0", "--trace", "1", "--toy")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({n: m["value"] for n, m in metrics.items()
                       if m["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["hashnet.forward_calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "accept", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
