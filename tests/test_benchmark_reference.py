"""The benchmark's round-0 reference check, run as part of the test suite.

``perfbench/worker.py`` compares the first round of each workload at the
default seed with ``perfbench/reference.json``; a change that moves one of
those numbers fails here as well as in the benchmark.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["search", "exact", "mc"])
def test_round0_matches_the_benchmark_reference(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seconds", "0", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["record"]["reference_checked"]
    assert out["failed"] == 0, out["record"]["failures"]
