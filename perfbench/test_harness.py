"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Each worker run here covers round 0 only (``seconds=0``), which takes a few
seconds per workload.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys

import pytest

import run
import worker

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    proc = subprocess.run(
        [sys.executable, str(worker.HERE / "run.py"), "--workload", "search", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=worker.ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_one_perturbed_reference_value_fails_one_operation(tmp_path):
    ref = copy.deepcopy(worker.load_reference("mc", worker.DEFAULT_SEED))
    clean = worker.run("mc", worker.DEFAULT_SEED, 0.0, False, tmp_path, reference=ref)
    assert clean["failed"] == 0

    task = ref[0]["results"]
    key = next(k for k in task if k.startswith("mc:"))
    task[key] = math.nextafter(task[key], math.inf)
    out = worker.run("mc", worker.DEFAULT_SEED, 0.0, False, tmp_path, reference=ref)
    assert out["failed"] == 1
    assert out["attempted"] == clean["attempted"]
    assert key in out["record"]["failures"][0]


def test_traced_run_restores_library_and_accounts_for_wall_time(tmp_path):
    worker._import_decdet()
    modules = {k: m for k, m in sys.modules.items() if k == "decdet" or k.startswith("decdet.")}
    before = {(k, a): v for k, m in modules.items() for a, v in vars(m).items() if callable(v)}

    out = worker.run("search", 5, 0.0, True, tmp_path)

    after = {(k, a): v for k, m in modules.items() for a, v in vars(m).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())
    layer = out["layer_metrics"]
    assert out["failed"] == 0
    assert layer["trace.spans"] > 0 and layer["exponents.rate_function.calls"] > 0
    # Layer self times plus the harness's own time add up to the wall time.
    total = layer["trace.layer_self_s"] + layer["trace.harness_s"]
    assert total == pytest.approx(layer["trace.wall_s"], rel=1e-9)
    assert 0.0 <= layer["trace.harness_s"] < 0.05 * layer["trace.wall_s"]
    assert (tmp_path / "spans-search-seed5.csv.gz").is_file()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 31)]
    value, pct = worker._tail(xs)
    assert value == 20.0 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert worker._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_layer_units_match_benchmark_file():
    for m in BENCHMARK["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
