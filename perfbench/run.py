"""decdet benchmark: seeded closed-loop workloads, end-to-end or traced per layer.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout that holds ``src/decdet``.  One caller
issues one public-API call at a time, in worker processes started here
one after another.  ``--workload all`` runs search, exact and mc in turn.

With ``--trace 0`` the result carries the end-to-end metrics: throughput,
median and tail latency, peak RSS of the worker, and the median set-up
time of several fresh processes.  With ``--trace 1`` an untraced and a
traced worker run the same first two rounds (or as much of them as half
of ``--seconds`` allows); the result carries the per-layer metrics of the
traced one, whose counts therefore repeat exactly for a given seed, and
``trace.overhead_frac``, the traced run's slowdown.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files, the run record and
the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("search", "exact", "mc")
# Fresh processes that only set up, run before and after the measured
# worker; with its own set-up they give the median set-up time.  Import
# time on a shared machine drifts over tens of seconds, so the probes are
# split around the timed phase rather than run back to back.
SETUP_PROBES_EACH_SIDE = 3
TRACE_ROUNDS = 2
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    return "count"


def _worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--out-dir", str(OUT_DIR), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        def probes():
            return [_worker(deadline, *common, "--seconds", "0", "--setup-only")["setup_s"]
                    for _ in range(SETUP_PROBES_EACH_SIDE)]

        setups = probes()
        res = _worker(deadline, *common, "--seconds", repr(seconds), "--trace", "0")
        setups += [res["metrics"]["setup_s"]] + probes()
        metrics = dict(res["metrics"])
        metrics["setup_s"] = median(setups)
        res["record"]["setup_s_samples"] = setups
        res["record"]["failed_frac"] = metrics.pop("failed_frac")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        return {"attempted": res["attempted"], "failed": res["failed"], "metrics": out, "record": res["record"]}

    limits = ["--seconds", repr(seconds / 2.0), "--rounds", str(TRACE_ROUNDS)]
    base = _worker(deadline, *common, *limits, "--trace", "0")
    traced = _worker(deadline, *common, *limits, "--trace", "1")
    layer = dict(traced["layer_metrics"])
    layer["trace.overhead_frac"] = base["metrics"]["ops_per_s"] / traced["metrics"]["ops_per_s"] - 1.0
    record = traced["record"]
    record["untraced_ops_per_s"] = base["metrics"]["ops_per_s"]
    record["failed_frac"] = traced["metrics"]["failed_frac"]
    return {
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "metrics": {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(layer.items())},
        "record": record,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="decdet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if not (ROOT / "src" / "decdet" / "__init__.py").is_file():
        print(f"no decdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        for w in WORKLOADS if a.workload == "all" else (a.workload,):
            res = run_workload(w, a.seed, a.seconds, bool(a.trace), deadline)
            results[w] = res
            rec = res["record"]
            print(f"# {w}: seed {a.seed}, {rec['samples']} operations, {rec['rounds']} rounds, "
                  f"tail at p{rec['tail_percentile']:.1f}, failed_frac {rec['failed_frac']:.4g}")
            for name, m in res["metrics"].items():
                print(f"#   {name} = {m['value']:.6g} {m['unit']}")
            print("# record " + json.dumps(rec, sort_keys=True))
            (OUT_DIR / f"record-{w}-seed{a.seed}-trace{a.trace}.json").write_text(
                json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, res in results.items() for name, m in res["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
