"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The traced-counter test runs the benchmark four times (about half a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_work_counters_repeat(workload):
    runs = []
    for _ in range(2):
        proc = _run(BENCH.parent, "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        runs.append({name: m["value"] for name, m in result["metrics"].items()
                     if m["unit"] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["quadrature.calls"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_rounds_depend_only_on_seed_and_keep_their_shape(workload):
    _, make_round = WORKLOADS[workload]
    assert make_round(3, 5) == make_round(3, 5)
    first, other, reseeded = make_round(3, 0), make_round(3, 1), make_round(4, 0)
    assert first != other and first != reseeded

    def shape(requests):
        return [(r.kind, r.call[0] if r.kind == "cli" else [c[0] for c in r.call],
                 r.points, r.fault) for r in requests]

    assert shape(first) == shape(other) == shape(reseeded)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "grid", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
