"""Run one workload in this process and print its result as a JSON line.

Started by ``run.py``; one process per measured run, so that the peak RSS
and the import in the set-up time belong to this workload alone.

    python3 perfbench/worker.py --workload search --seed 0 --seconds 30 \
        --trace 0 --out-dir .perfbench_out

With ``--setup-only`` the worker stops after set-up and prints only the
set-up time.  With ``--trace 1`` the public functions of every decdet
layer are wrapped for the timed phase and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0


def _import_decdet():
    """Import decdet from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    decdet = importlib.import_module("decdet")
    if not Path(decdet.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"decdet imported from {decdet.__file__}, not from {SRC}")
    return decdet


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile); with ten samples or fewer it is the
    maximum, at percentile 100.
    """
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def _median(xs: list[float]) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _compare(kind: str, got, want) -> bool:
    if kind == "exponent":
        return abs(got - want) <= 1e-9
    if kind == "log_p_e":
        return abs(got - want) <= 1e-12 * abs(want)
    if kind == "value":
        return abs(got - want) <= 1e-9 * abs(want)
    # strategy, mc (bit-identical floats), sha256, bytes
    return got == want


def check_reference(name: str, results: dict, ref: dict) -> None:
    """Raise CheckFailed when results differ from the recorded reference."""
    from workloads import CheckFailed

    if ref["name"] != name or set(ref["results"]) != set(results):
        raise CheckFailed(f"{name}: results do not match the reference task {ref['name']}")
    for key, want in ref["results"].items():
        if not _compare(key.split(":", 1)[0], results[key], want):
            raise CheckFailed(f"{name}: {key} = {results[key]!r}, reference {want!r}")


def _versions(decdet) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "decdet").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "decdet": decdet.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def load_reference(workload: str, seed: int) -> list | None:
    """Recorded round-0 results of the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["round0"][workload]


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, *, max_rounds: int = 0,
        setup_only: bool = False, reference: list | None = None) -> dict:
    """Set up, run the timed phase and return metrics plus the run record.

    Rounds start until ``seconds`` have passed (round 0 always runs), or
    until ``max_rounds`` rounds are done when it is positive.
    ``reference`` holds the expected round-0 results, if any.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        return _run(workload, seed, seconds, trace, out_dir, Path(tmp), max_rounds, setup_only, reference)


def _run(workload, seed, seconds, trace, out_dir, tmp, max_rounds, setup_only, reference) -> dict:
    t0 = perf_counter()
    decdet = _import_decdet()
    import workloads

    first_round = workloads.make_round(workload, seed, 0, tmp)
    warmup = workloads.make_warmup(workload, seed, tmp)
    warm_out = warmup.op()
    setup_s = perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}
    failures: list[str] = []
    try:
        warmup.verify(warm_out)
    except Exception as exc:  # reported like any failed operation below
        failures.append(f"{warmup.name}: {type(exc).__name__}: {exc}")

    tracer = None
    caught: list = []
    stack = contextlib.ExitStack()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        stack.callback(tracer.uninstall)
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")

    latencies: list[float] = []
    by_task: dict[str, list[float]] = {}
    # A failed warm-up check counts as one failed operation.
    attempted = failed = len(failures)
    round0: list[dict] = []
    cli_bytes = 0
    round_busy: list[float] = []
    done_rounds = 0
    start = perf_counter()
    with stack:
        for r in itertools.count():
            if r and (perf_counter() - start >= seconds or r == max_rounds):
                break
            # Later rounds are drawn here, outside every operation's timing.
            tasks = first_round if r == 0 else workloads.make_round(workload, seed, r, tmp)
            for k, task in enumerate(tasks):
                attempted += 1
                if tracer:
                    tracer.active = True
                t = perf_counter()
                try:
                    out = tracer.run_op(attempted, task.op) if tracer else task.op()
                    err = None
                except Exception as exc:  # an operation that raises counts as failed
                    err = f"{task.name}: {type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - t)
                by_task.setdefault(task.name, []).append(latencies[-1])
                if tracer:
                    tracer.active = False
                try:
                    if err:
                        raise workloads.CheckFailed(err)
                    results = task.verify(out)
                    if r == 0 and reference is not None:
                        check_reference(task.name, results, reference[k])
                except Exception as exc:  # a malformed output fails its check too
                    failed += 1
                    failures.append(str(exc) if isinstance(exc, workloads.CheckFailed)
                                    else f"{task.name}: {type(exc).__name__}: {exc}")
                    results = {"failed": str(exc)}
                cli_bytes += results.get("bytes:stdout", 0)
                if r == 0:
                    round0.append({"name": task.name, "results": results})
            round_busy.append(sum(latencies[-len(tasks):]))
            done_rounds = r + 1
        wall_s = perf_counter() - start

    tail, pct = _tail(latencies)
    # Every round holds the same tasks, so the median round's busy time
    # gives a throughput that a few seconds of machine noise cannot move.
    metrics = {
        "ops_per_s": len(first_round) / _median(round_busy),
        "op_p50_s": _median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "failed_frac": failed / attempted,
    }
    record = _versions(decdet)
    record.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": done_rounds,
        "samples": len(latencies),
        "tail_percentile": pct,
        "op_p50_s_by_task": {name: _median(xs) for name, xs in by_task.items()},
        "wall_s": wall_s,
        "round_busy_s": round_busy,
        "results_sha256": hashlib.sha256(json.dumps(round0, sort_keys=True).encode()).hexdigest(),
        "reference_checked": reference is not None,
        "failures": failures[:20],
    })
    out = {"attempted": attempted, "failed": failed, "metrics": metrics, "record": record, "round0": round0}
    if tracer:
        import tracing

        layer = tracing.layer_metrics(tracer, decdet, wall_s)
        model_py = os.path.join("decdet", "model.py")
        layer["model.runtime_warnings"] = sum(1 for w in caught if w.filename.endswith(model_py))
        layer["cli.stdout_bytes"] = cli_bytes
        out["layer_metrics"] = layer
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.csv.gz")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("search", "exact", "mc"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--rounds", type=int, default=0, help="stop after this many rounds (0: no limit)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    a = p.parse_args(argv)
    out = run(a.workload, a.seed, a.seconds, bool(a.trace), Path(a.out_dir), max_rounds=a.rounds,
              setup_only=a.setup_only, reference=load_reference(a.workload, a.seed))
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
