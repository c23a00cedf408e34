"""The three seeded benchmark workloads: search, exact and mc.

A workload is a list of rounds; every round holds the same task templates
in the same order, filled with fresh inputs drawn from
``default_rng([seed, round])``.  Keeping the structure fixed and drawing
only the numbers from the seed is what keeps run-to-run spread small: a
K=6 search costs ten times a K=3 one, so letting the seed choose K would
make the seed, not the code, set the throughput.

Each task is one user task.  ``op`` makes the public-API calls and is the
only part that is timed; ``verify`` runs afterwards, untimed and untraced,
checks the outputs and returns them flattened for the reference
comparison and the results digest.  Every call goes through a module
attribute (``decdet.simulate``, ``cli.main``) so the tracer's rebinding
sees it.  Inputs are fresh for every task, so the staged-search memo is
only ever hit within a task, as it is in ``decdet check``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import decdet
from decdet import cli

# Exact evaluation of a Parallel2 strategy with four joint messages: n=389
# is the largest blocklength within decdet.CLASS_BUDGET (9.96e6 classes),
# n=390 the smallest beyond it, which must raise TooLarge.
BUDGET_EDGE_N = 389
OVER_BUDGET_N = 390


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Task:
    name: str
    op: Callable[[], object]
    verify: Callable[[object], dict]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- inputs


def _pmf(rng: np.random.Generator, k: int, floor: float = 0.02) -> np.ndarray:
    while True:
        p = rng.dirichlet(np.ones(k))
        if p.min() >= floor:
            return p / p.sum()


def _model(rng: np.random.Generator, k: int) -> decdet.HypothesisModel:
    """Two well-separated pmfs: total variation at least 0.1."""
    while True:
        p0, p1 = _pmf(rng, k), _pmf(rng, k)
        if 0.5 * np.abs(p0 - p1).sum() >= 0.1:
            return decdet.HypothesisModel(pmf0=p0, pmf1=p1)


def _near_model(rng: np.random.Generator, k: int) -> decdet.HypothesisModel:
    """Close pmfs, so Monte Carlo sees many errors up to n=200."""
    p0 = _pmf(rng, k)
    p1 = 0.5 * p0 + 0.5 * _pmf(rng, k)
    return decdet.HypothesisModel(pmf0=p0, pmf1=p1 / p1.sum())


def _quantizer(rng: np.random.Generator, k: int, d: int) -> decdet.Quantizer:
    """A random map of k symbols onto all d labels."""
    labels = rng.permutation(np.arange(k) % d)
    return decdet.Quantizer(map=tuple(int(v) for v in labels), message_alphabet_size=d)


def _labels(q: decdet.Quantizer) -> str:
    return ",".join(map(str, q.map))


def _write_model(path: Path, m: decdet.HypothesisModel, d: int) -> str:
    rows = [" ".join(repr(float(v)) for v in pmf) for pmf in (m.pmf0, m.pmf1)]
    path.write_text(f"{m.alphabet_size} {d}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- checks


def _check_estimate(e, what: str) -> None:
    for name in ("p_e0", "p_e1", "p_e"):
        v = getattr(e, name)
        _require(0.0 <= v <= 1.0, f"{what}: {name}={v!r} outside [0, 1]")
    _require(e.log_p_e <= 1e-12, f"{what}: log_p_e={e.log_p_e!r} above 0")


def _check_within_5se(p_mc: float, exact, trials: int, what: str) -> None:
    """MC average error within 5 standard errors of the exact value.

    The standard error comes from the exact p_e0 and p_e1, plus three
    counts of slack for the discreteness of a count of errors.
    """
    var = 0.25 * (exact.p_e0 * (1 - exact.p_e0) + exact.p_e1 * (1 - exact.p_e1)) / trials
    tol = 5.0 * math.sqrt(var) + 3.0 / trials
    _require(abs(p_mc - exact.p_e) <= tol, f"{what}: mc {p_mc!r} vs exact {exact.p_e!r}, tol {tol!r}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_op(argv: list[str], out: Path):
    def op():
        code = cli.main(argv)
        return code, out.read_text(encoding="utf-8")

    return op


def _cli_result(out, what: str) -> str:
    code, text = out
    _require(code == 0, f"{what}: exit code {code}")
    return text


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- search


def _search_task(name: str, m, r: float, d: int, mode: str, with_h: bool) -> Task:
    def op():
        daisy = decdet.exponent_daisy_restricted(m, r, d=d, mode=mode)
        tree = decdet.exponent_tree(m, r, d=d, mode=mode)
        order = decdet.check_ordering(m, r, d=d, mode=mode)
        re_daisy = decdet.reevaluate_exponent(m, daisy)
        re_tree = decdet.reevaluate_exponent(m, tree)
        h = None
        if with_h:
            e = decdet.DecayRateVector(**daisy.decay_rates)
            h = decdet.h_of_e(m, r, e, d=d, mode=mode, semantics="physical")
        return daisy, tree, order, re_daisy, re_tree, h

    def verify(out) -> dict:
        daisy, tree, order, re_daisy, re_tree, h = out
        _require(abs(re_daisy - daisy.exponent) <= 1e-9, f"{name}: chain exponent not reproduced")
        _require(abs(re_tree - tree.exponent) <= 1e-9, f"{name}: tree exponent not reproduced")
        _require(order["tree"] == tree.exponent and order["daisy_restricted"] == daisy.exponent,
                 f"{name}: check_ordering disagrees with the reports")
        _require(order["tree"] >= order["daisy_restricted"] > order["parallel1"],
                 f"{name}: ordering tree >= chain > parallel violated")
        res = {
            "exponent:daisy": daisy.exponent,
            "exponent:tree": tree.exponent,
            "exponent:parallel1": order["parallel1"],
            "strategy:daisy": [daisy.strategy[k] for k in ("gamma", "delta0", "delta1")],
            "strategy:tree": [tree.strategy[k] for k in ("gamma", "delta0", "delta1")],
            "value:daisy_t": daisy.strategy["t"],
            "value:tree_t": tree.strategy["t"],
        }
        if h is not None:
            _require(abs(-h[0] - daisy.exponent) <= 1e-9, f"{name}: h_of_e disagrees with the chain optimum")
            res["exponent:h_of_e"] = -h[0]
            res["strategy:h_of_e"] = [list(h[1].map), list(h[2].map)]
        return res

    return Task(name, op, verify)


def _cli_exponent_task(name: str, model_path: str, out: Path) -> Task:
    argv = ["exponent", "--model", model_path, "--arch", "daisy-restricted", "--r", "0.5", "--output", str(out)]

    def verify(result) -> dict:
        text = _cli_result(result, name)
        rep = json.loads(text)
        m, _ = decdet.load_model(model_path)
        report = decdet.ExponentReport(
            architecture=rep["architecture"], formulation=rep["formulation"], r=rep["r"],
            exponent=rep["exponent"], strategy=rep["strategy"], decay_rates=None, branch_values=None,
        )
        _require(abs(decdet.reevaluate_exponent(m, report) - rep["exponent"]) <= 1e-9,
                 f"{name}: printed strategy does not reproduce the printed exponent")
        return {"sha256:stdout": _sha(text), "bytes:stdout": len(text.encode("utf-8"))}

    return Task(name, _cli_op(argv, out), verify)


def _cli_check_task(name: str, seed: int, out: Path) -> Task:
    argv = ["check", "--models", "1", "--seed", str(seed), "--output", str(out)]

    def verify(result) -> dict:
        text = _cli_result(result, name)
        _require(text.endswith("all checks passed\n"), f"{name}: check reported failures")
        return {"sha256:stdout": _sha(text), "bytes:stdout": len(text.encode("utf-8"))}

    return Task(name, _cli_op(argv, out), verify)


def _search_round(rng, tmp: Path, tag: str) -> list[Task]:
    mono = "llr_monotone"
    tasks = [
        _search_task("search.k3d2", _model(rng, 3), 0.25, 2, mono, False),
        _search_task("search.k4d2_h", _model(rng, 4), 0.5, 2, mono, True),
        _search_task("search.k5d2", _model(rng, 5), 0.75, 2, mono, False),
        _search_task("search.k6d2", _model(rng, 6), 0.5, 2, mono, False),
        _search_task("search.k3d3", _model(rng, 3), 0.75, 3, mono, False),
        _search_task("search.k4d3", _model(rng, 4), 0.25, 3, mono, False),
        _search_task("search.all_k3d2", _model(rng, 3), 0.5, 2, "all", False),
    ]
    model_path = _write_model(tmp / f"{tag}-exponent.txt", _model(rng, 4), 2)
    tasks.append(_cli_exponent_task("search.cli_exponent", model_path, tmp / f"{tag}-exponent.out"))
    tasks.append(_cli_check_task("search.cli_check", int(rng.integers(2**31)), tmp / f"{tag}-check.out"))
    return tasks


def _search_warmup(rng, tmp: Path) -> Task:
    return _search_task("search.warmup", _model(rng, 3), 0.5, 2, "llr_monotone", False)


# ---------------------------------------------------------------- exact


def _exact_task(name: str, m, strategy, n: int) -> Task:
    def op():
        return decdet.exact_error(m, strategy, n)

    def verify(e) -> dict:
        _check_estimate(e, name)
        return {"log_p_e:n%d" % n: e.log_p_e}

    return Task(name, op, verify)


def _over_budget_task(name: str, m, strategy, n: int) -> Task:
    def op():
        try:
            return decdet.exact_error(m, strategy, n)
        except decdet.TooLarge:
            return "TooLarge"

    def verify(out) -> dict:
        _require(out == "TooLarge", f"{name}: n={n} beyond the class budget did not raise TooLarge")
        return {"strategy:outcome": out}

    return Task(name, op, verify)


def _fit_exact_task(name: str, m, strategy, ns: tuple[int, ...]) -> Task:
    def op():
        return decdet.fit_exponent(m, strategy, ns, method="exact")

    def verify(fit) -> dict:
        res = {}
        for e in fit.estimates:
            _check_estimate(e, name)
            res["log_p_e:n%d" % e.n] = e.log_p_e
        _require(fit.slope < 0.0, f"{name}: fitted slope {fit.slope!r} is not negative")
        res["value:slope"] = fit.slope
        return res

    return Task(name, op, verify)


def _sgb_task(name: str, m, strategy, n: int, llr_distribution) -> Task:
    def op():
        e = decdet.exact_error(m, strategy, n)
        bound, s_star = decdet.sgb_lower_bound(llr_distribution(m, strategy, n), 1)
        return e, bound, s_star

    def verify(out) -> dict:
        e, bound, s_star = out
        _check_estimate(e, name)
        _require(0.0 <= bound <= 0.25, f"{name}: bound {bound!r} outside [0, 1/4]")
        _require(max(e.p_e0, e.p_e1) >= bound * (1.0 - 1e-9), f"{name}: exact error below the lower bound")
        return {"log_p_e:n%d" % n: e.log_p_e, "value:bound": bound, "value:s_star": s_star}

    return Task(name, op, verify)


def _cli_estimates_task(name: str, argv: list[str], out: Path, n_rows: int, exact_for=None, trials=0) -> Task:
    """CLI simulate/fit run; exact_for(n) gives the exact estimate to test MC rows against."""

    def verify(result) -> dict:
        text = _cli_result(result, name)
        rows = json.loads(text)["rows"] if text.startswith("{") else _csv_rows(text)
        _require(len(rows) == n_rows, f"{name}: expected {n_rows} rows, got {len(rows)}")
        for row in rows:
            for key in ("p_e0", "p_e1", "p_e"):
                v = float(row[key])
                _require(0.0 <= v <= 1.0, f"{name}: {key}={v!r} outside [0, 1]")
            if exact_for is not None:
                _check_within_5se(float(row["p_e"]), exact_for(int(row["n"])), trials, name)
        return {"sha256:stdout": _sha(text), "bytes:stdout": len(text.encode("utf-8"))}

    return Task(name, _cli_op(argv, out), verify)


def _four_message_parallel2(rng) -> decdet.Strategy:
    """Parallel2 on four symbols whose four (gamma, delta) pairs all occur."""
    perm = rng.permutation(4)
    g, d = np.empty(4, dtype=int), np.empty(4, dtype=int)
    g[perm], d[perm] = (0, 0, 1, 1), (0, 1, 0, 1)
    return decdet.Strategy(kind="Parallel2", gamma=decdet.Quantizer(map=tuple(g), message_alphabet_size=2),
                           delta0=decdet.Quantizer(map=tuple(d), message_alphabet_size=2))


def _exact_round(rng, tmp: Path, tag: str) -> list[Task]:
    # One budget-edge task, nine of 0.2-0.5 s and three cheap ones: the
    # median and the tail percentile then both fall inside the 0.2-0.5 s
    # group whatever the number of rounds, instead of on a jump between
    # two task kinds.
    S = decdet.Strategy
    m = _model(rng, 5)
    m4 = _model(rng, 4)

    def staged(kind):
        return S(kind=kind, gamma=_quantizer(rng, 5, 3), delta0=_quantizer(rng, 5, 3),
                 delta1=_quantizer(rng, 5, 3), t=0.0, r=0.5)

    def p1(d):
        return S(kind="Parallel1", gamma=_quantizer(rng, 5, d))

    edge = _four_message_parallel2(rng)
    tree_cli = [_quantizer(rng, 5, 3), _quantizer(rng, 5, 3)]
    p1_cli = _quantizer(rng, 5, 3)
    model_path = _write_model(tmp / f"{tag}-exact.txt", m, 3)
    sim_out, fit_out = tmp / f"{tag}-simulate.out", tmp / f"{tag}-fit.out"
    return [
        _exact_task("exact.parallel1", m, p1(2), 2000),
        _exact_task("exact.parallel2", m4, _four_message_parallel2(rng), 150),
        _exact_task("exact.one_msg_sequential", m, S(kind="OneMsgSequential", gamma=_quantizer(rng, 5, 3)), 1500),
        _exact_task("exact.daisy_restricted", m, staged("DaisyRestricted"), 1500),
        _exact_task("exact.tree", m, staged("Tree"), 1500),
        _exact_task("exact.daisy_full", m, staged("DaisyFull"), 1500),
        _exact_task("exact.budget_edge", m4, edge, BUDGET_EDGE_N),
        _over_budget_task("exact.over_budget", m4, edge, OVER_BUDGET_N),
        _fit_exact_task("exact.fit", m, staged("DaisyRestricted"), (150, 300, 600, 1200)),
        _sgb_task("exact.sgb_parallel", m, p1(3), 800, decdet.llr_distribution_parallel),
        _sgb_task("exact.sgb_daisy", m, S(kind="DaisyRestricted", gamma=_quantizer(rng, 5, 2),
                                          delta0=_quantizer(rng, 5, 2), delta1=_quantizer(rng, 5, 2),
                                          t=0.0, r=0.5), 200, decdet.llr_distribution_daisy),
        _cli_estimates_task(
            "exact.cli_simulate",
            ["simulate", "--model", model_path, "--arch", "parallel-1", "--quantizer", _labels(p1_cli),
             "--n-grid", "400,800,1600", "--method", "exact", "--output", str(sim_out)],
            sim_out, 3),
        _cli_estimates_task(
            "exact.cli_fit",
            ["fit", "--model", model_path, "--arch", "tree", "--quantizer", _labels(tree_cli[0]),
             "--delta0", _labels(tree_cli[1]), "--t", "0", "--r", "0.5", "--n-grid", "300,600,1200",
             "--method", "exact", "--format", "json", "--output", str(fit_out)],
            fit_out, 3),
    ]


def _exact_warmup(rng, tmp: Path) -> Task:
    strategy = decdet.Strategy(kind="Parallel1", gamma=_quantizer(rng, 5, 3))
    return _exact_task("exact.warmup", _model(rng, 5), strategy, 300)


# ---------------------------------------------------------------- mc


def _mc_task(name: str, m, strategy, n: int, trials: int, seed: int, product_form: bool) -> Task:
    def op():
        return decdet.simulate(m, strategy, n, num_trials=trials, seed=seed)

    def verify(e) -> dict:
        _check_estimate(e, name)
        _require(e.ci >= 0.0, f"{name}: negative confidence half-width")
        if product_form:
            _check_within_5se(e.p_e, decdet.exact_error(m, strategy, n), trials, name)
        return {"mc:p_e0": e.p_e0, "mc:p_e1": e.p_e1}

    return Task(name, op, verify)


def _fit_mc_task(name: str, m, strategy, ns: tuple[int, ...], trials: int, seed: int) -> Task:
    def op():
        return decdet.fit_exponent(m, strategy, ns, method="mc", num_trials=trials, seed=seed)

    def verify(fit) -> dict:
        res = {}
        for e in fit.estimates:
            _check_estimate(e, name)
            _check_within_5se(e.p_e, decdet.exact_error(m, strategy, e.n), trials, name)
            res["mc:p_e0_n%d" % e.n] = e.p_e0
            res["mc:p_e1_n%d" % e.n] = e.p_e1
        res["value:slope"] = fit.slope
        return res

    return Task(name, op, verify)


def _mc_round(rng, tmp: Path, tag: str) -> list[Task]:
    # Every task but the n=200 one simulates 1e7 to 2e7 symbols, so the
    # median and the tail percentile fall inside one group of like tasks.
    S = decdet.Strategy
    m = _near_model(rng, 4)

    def q():
        return _quantizer(rng, 4, 2)

    def seed():
        return int(rng.integers(2**31))

    def strategy(kind, **kw):
        return S(kind=kind, gamma=q(), delta0=q(), delta1=q(), t=0.0, **kw)

    p1 = S(kind="Parallel1", gamma=q())
    model_path = _write_model(tmp / f"{tag}-mc.txt", m, 2)
    out = tmp / f"{tag}-simulate.out"
    trials_cli = 100_000
    return [
        _mc_task("mc.sequential_feedback2", m, strategy("SequentialFeedback2"), 12, 400_000, seed(), False),
        _mc_task("mc.full_feedback2", m, strategy("FullFeedback2"), 24, 200_000, seed(), False),
        _mc_task("mc.restricted_feedback2", m, strategy("RestrictedFeedback2"), 50, 100_000, seed(), False),
        _mc_task("mc.daisy_restricted", m, strategy("DaisyRestricted", r=0.5), 100, 100_000, seed(), True),
        _mc_task("mc.tree", m, strategy("Tree", r=0.5), 200, 100_000, seed(), True),
        _mc_task("mc.daisy_full", m, strategy("DaisyFull", r=0.5), 50, 100_000, seed(), True),
        _fit_mc_task("mc.fit", m, strategy("DaisyRestricted", r=0.5), (12, 24, 48), 100_000, seed()),
        _cli_estimates_task(
            "mc.cli_simulate",
            ["simulate", "--model", model_path, "--arch", "parallel-1", "--quantizer", _labels(p1.gamma),
             "--n-grid", "12,48", "--samples", str(trials_cli), "--seed", str(seed()), "--method", "mc",
             "--output", str(out)],
            out, 2, exact_for=lambda n: decdet.exact_error(m, p1, n), trials=trials_cli),
    ]


def _mc_warmup(rng, tmp: Path) -> Task:
    m = _near_model(rng, 4)
    s = decdet.Strategy(kind="SequentialFeedback2", gamma=_quantizer(rng, 4, 2),
                        delta0=_quantizer(rng, 4, 2), delta1=_quantizer(rng, 4, 2), t=0.0)
    return _mc_task("mc.warmup", m, s, 12, 100_000, 1, False)


_ROUNDS = {"search": _search_round, "exact": _exact_round, "mc": _mc_round}
_WARMUPS = {"search": _search_warmup, "exact": _exact_warmup, "mc": _mc_warmup}
# Stream index of the warm-up input, far from every round index.
_WARMUP_STREAM = 1 << 30


def make_round(workload: str, seed: int, index: int, tmp: Path) -> list[Task]:
    """Round ``index`` of a workload; the same (seed, index) gives the same tasks."""
    rng = np.random.default_rng([seed, index])
    return _ROUNDS[workload](rng, tmp, f"r{index}")


def make_warmup(workload: str, seed: int, tmp: Path) -> Task:
    rng = np.random.default_rng([seed, _WARMUP_STREAM])
    return _WARMUPS[workload](rng, tmp)
