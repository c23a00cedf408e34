"""Command-line interface.

Subcommands: exponent, curve, simulate, fit, example1, check.  Every
invocation is a pure function of its flags, the model file, and the seed,
and all numeric output is printed at 12 significant digits, so reruns are
byte-identical.  Exit codes: 0 success, 1 a numeric check failed, 2 usage
or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from . import architectures as arch
from . import evaluator as ev
from .exponents import rate_function_grid
from .model import HypothesisModel, Quantizer, identity_quantizer, induce, load_model

# Example model used throughout: three symbols, strongly skewed both ways.
_TABLE_PMF0 = (0.8, 0.15, 0.05)
_TABLE_PMF1 = (0.05, 0.15, 0.8)

# --arch names: each kind in kebab case, e.g. sequential-feedback-2.
_ARCH_NAMES = {re.sub(r"(?<=[a-z])(?=[A-Z0-9])", "-", kind).lower(): kind for kind in arch.KINDS}

# t points that `curve` solves and writes at a time.
_CURVE_BLOCK = 4096

# Every typed error the library raises on bad input subclasses ValueError.
_USAGE_ERRORS = (ValueError, OSError)


def _fmt(x) -> str:
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _jsonable(obj):
    """Round floats to 12 significant digits; stringify non-finite values."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(format(obj, ".12g"))
        return _fmt(obj)
    return obj


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> HypothesisModel:
    # The model file's header gives d unless --d does.
    m, d_file = load_model(args.model)
    if args.d is None:
        args.d = d_file
    return m


def _parse_map(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{name} must be comma-separated integer labels") from exc


def _compute_report(m: HypothesisModel, args) -> arch.ExponentReport:
    kind = _ARCH_NAMES[args.arch]
    opts = {
        "d": args.d,
        "mode": "all" if args.exhaustive else "llr_monotone",
        "formulation": args.formulation,
    }
    if kind in arch.RESTRICTED_KINDS:
        search = arch.exponent_tree if kind == "Tree" else arch.exponent_daisy_restricted
        return search(m, args.r, **opts)
    if kind in arch.PARALLEL_EQUIVALENT:
        return arch.exponent_feedback_equivalent(m, kind=kind, **opts)
    return arch.exponent_parallel(m, messages_per_sensor=2 if kind == "Parallel2" else 1, **opts)


def cmd_exponent(args) -> int:
    report = _compute_report(_load(args), args)
    text = json.dumps(_jsonable(report.to_dict()), indent=2) + "\n"
    _emit(text, args.output)
    return 0


def cmd_curve(args) -> int:
    m = _load(args)
    q = Quantizer.from_labels(_parse_map(args.quantizer, "--quantizer")) if args.quantizer else identity_quantizer(m)
    im = induce(m, q)
    zmin, zmax = im.llr_support()
    lo = args.t_lo if args.t_lo is not None else zmin
    hi = args.t_hi if args.t_hi is not None else zmax
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo or args.t_points < 2:
        raise ValueError("bad t grid: need finite lo <= hi and at least two points")
    ts = np.linspace(lo, hi, args.t_points)
    # Each t's rate does not depend on its batch, so solving and writing
    # one block at a time bounds memory and leaves the CSV unchanged.
    with (open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("t,rate_h0,rate_h1\n")
        for block in np.split(ts, range(_CURVE_BLOCK, len(ts), _CURVE_BLOCK)):
            r0, r1 = rate_function_grid(im, 0, block), rate_function_grid(im, 1, block)
            fh.write("".join(f"{_fmt(float(t))},{_fmt(float(a))},{_fmt(float(b))}\n" for t, a, b in zip(block, r0, r1)))
    return 0


def _strategy_from_args(m: HypothesisModel, args) -> arch.Strategy:
    kind = _ARCH_NAMES[args.arch]
    if args.quantizer is None:
        # No explicit maps given: evaluate the optimal strategy for this
        # architecture, which keeps the common workflow to one command.
        if kind == "DaisyFull" and args.r is None:
            raise ValueError("daisy-full needs --r in (0, 1)")
        maps = _compute_report(m, args).strategy
    else:
        delta0 = _parse_map(args.delta0, "--delta0") if args.delta0 else None
        maps = {
            "gamma": _parse_map(args.quantizer, "--quantizer"),
            "delta0": delta0,
            "delta1": _parse_map(args.delta1, "--delta1") if args.delta1 else delta0,
        }
    return arch.Strategy.from_dict(kind, maps, r=args.r, t=args.t, fusion_threshold=args.fusion_threshold)


def _parse_n_grid(text: str) -> list[int]:
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError("--n-grid must be comma-separated integers") from exc
    if not ns:
        raise ValueError("--n-grid names no blocklength")
    return ns


_ESTIMATE_COLUMNS = ("n", "p_e0", "p_e1", "p_e", "log_pe_over_n", "method", "ci")
_CSV_HEADER = ",".join(_ESTIMATE_COLUMNS)


def _estimate_dict(e: ev.ErrorEstimate) -> dict:
    return {name: getattr(e, name) for name in _ESTIMATE_COLUMNS}


def _emit_estimates(args, estimates: Sequence[ev.ErrorEstimate], fit: ev.FitResult | None = None) -> None:
    # One CSV row per estimate, or JSON: the bare row list, or the fit's
    # slope and intercept with the rows under "rows".
    rows = [_estimate_dict(e) for e in estimates]
    if args.format == "json":
        payload = rows if fit is None else {"slope": fit.slope, "intercept": fit.intercept, "rows": rows}
        text = json.dumps(_jsonable(payload), indent=2) + "\n"
    else:
        text = "\n".join([_CSV_HEADER] + [",".join(_fmt(v) for v in row.values()) for row in rows]) + "\n"
    _emit(text, args.output)


def cmd_simulate(args) -> int:
    m = _load(args)
    ns = _parse_n_grid(args.n_grid)
    strategy = _strategy_from_args(m, args)
    rows = []
    for n in ns:
        if args.method == "exact":
            rows.append(ev.exact_error(m, strategy, n))
        else:
            rows.append(ev.simulate(m, strategy, n, num_trials=args.samples, seed=args.seed))
    _emit_estimates(args, rows)
    return 0


def cmd_fit(args) -> int:
    m = _load(args)
    ns = _parse_n_grid(args.n_grid)
    strategy = _strategy_from_args(m, args)
    result = ev.fit_exponent(m, strategy, ns, method=args.method, num_trials=args.samples, seed=args.seed)
    _emit_estimates(args, result.estimates, result)
    return 0


def _csv(labels) -> str:
    return ",".join(map(str, labels))


def cmd_example1(args) -> int:
    m = HypothesisModel(pmf0=_TABLE_PMF0, pmf1=_TABLE_PMF1)
    daisy = arch.exponent_daisy_restricted(m, r=0.5, d=2)
    tree = arch.exponent_tree(m, r=0.5, d=2)
    par = arch.exponent_parallel(m, d=2, messages_per_sensor=1)
    sym = arch.check_symmetric_rate_condition(m, d=2, r=0.5)
    try:
        arch.check_ordering(m, r=0.5, d=2)
        ordering_failure = None
    except arch.OrderingViolation as exc:
        ordering_failure = str(exc)

    s, st = daisy.strategy, tree.strategy
    lines = [
        "model: pmf0 = 0.8 0.15 0.05 | pmf1 = 0.05 0.15 0.8",
        f"restricted-feedback chain (r = 0.5): exponent = {_fmt(daisy.exponent)}",
        f"  gamma = {_csv(s['gamma'])}  delta0 = {_csv(s['delta0'])}  delta1 = {_csv(s['delta1'])}  t = {_fmt(s['t'])}",
        f"two-level tree (r = 0.5): exponent = {_fmt(tree.exponent)}",
        f"  gamma = {_csv(st['gamma'])}  delta = {_csv(st['delta0'])}  t = {_fmt(st['t'])}",
        f"parallel, one message per sensor: exponent = {_fmt(par.exponent)}",
        f"symmetric-rate condition: {'applies' if sym['applies'] else 'does not apply'} "
        f"(max gap = {_fmt(sym['max_gap'])})",
        f"ordering tree >= chain > parallel: {_fmt(tree.exponent)} >= {_fmt(daisy.exponent)} > {_fmt(par.exponent)}",
    ]

    failures = []
    if abs(daisy.exponent - (-0.365)) > 1e-3:
        failures.append("chain exponent off the reference -0.365 by more than 1e-3")
    if abs(tree.exponent - (-0.356)) > 1e-3:
        failures.append("tree exponent off the reference -0.356 by more than 1e-3")
    if not tree.exponent > daisy.exponent:
        failures.append("tree exponent is not strictly above the chain exponent")
    if s["delta0"] != [0, 0, 1] or s["delta1"] != [0, 1, 1]:
        failures.append("chain second-stage pair is not (0,0,1)/(0,1,1)")
    if st["delta0"] != [0, 0, 1]:
        failures.append("tree second-stage quantizer is not (0,0,1)")
    if sym["applies"]:
        failures.append("symmetric-rate condition unexpectedly applies to this model")
    if ordering_failure is not None:
        failures.append(ordering_failure)

    for f in failures:
        lines.append("FAILED: " + f)
    if not failures:
        lines.append("all reference checks passed")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failures else 0


def _random_models(count: int, seed: int) -> list[HypothesisModel]:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p0 = rng.dirichlet(np.ones(3))
        p1 = rng.dirichlet(np.ones(3))
        if min(p0.min(), p1.min()) < 5e-3:
            continue
        if 0.5 * np.abs(p0 - p1).sum() < 1e-2:
            continue
        out.append(HypothesisModel(pmf0=p0 / p0.sum(), pmf1=p1 / p1.sum()))
    return out


def cmd_check(args) -> int:
    if args.models < 1:
        raise ValueError(f"--models must be at least 1, got {args.models}")
    models = _random_models(args.models, args.seed)
    order_bad = sym_applies = sym_bad = sgb_checks = sgb_bad = 0
    for m in models:
        for r in (0.25, 0.5, 0.75):
            try:
                arch.check_ordering(m, r=r, d=2)
            except arch.OrderingViolation:
                order_bad += 1
        sym = arch.check_symmetric_rate_condition(m, d=2, r=0.5)
        if sym["applies"]:
            sym_applies += 1
            sym_bad += not sym["consistent"]
        # Each exact error against its lower bound: the parallel optimum at
        # three blocklengths, then the restricted chain's transcript at 12.
        strat = ev.strategy_from_report(arch.exponent_parallel(m, d=2, messages_per_sensor=1))
        im = induce(m, strat.gamma)
        pairs = [(ev.exact_error_parallel(m, strat, n), ev.sgb_lower_bound(im, n)[0]) for n in (1, 4, 12)]
        dstrat = ev.strategy_from_report(arch.exponent_daisy_restricted(m, r=0.5, d=2))
        est = ev.exact_error_daisy(m, dstrat, 12)
        pairs.append((est, ev.sgb_lower_bound(ev.llr_distribution_daisy(m, dstrat, 12), 1)[0]))
        sgb_checks += len(pairs)
        sgb_bad += sum(max(e.p_e0, e.p_e1) < bound * (1.0 - 1e-9) for e, bound in pairs)
    violations = order_bad + sym_bad + sgb_bad
    lines = [
        f"ordering: {len(models)} models x 3 stage fractions, {order_bad} violations",
        f"symmetric-rate shortcut: applies on {sym_applies} of {len(models)} models, {sym_bad} inconsistencies",
        f"error lower bound: {sgb_checks} exact evaluations, {sgb_bad} violations",
        "all checks passed" if violations == 0 else f"{violations} checks FAILED",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decdet",
        description="Error exponents and finite-n errors for decentralized detection networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, model_required=True):
        if model_required:
            p.add_argument("--model", required=True, help="model file: 'K D' header plus two pmf lines")
            p.add_argument("--d", type=int, default=None, help="message alphabet size (default: model header)")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")

    def add_search_flags(p):
        p.add_argument("--arch", choices=sorted(_ARCH_NAMES), default="parallel-1")
        p.add_argument("--r", type=float, default=None, help="first-stage fraction for staged kinds")
        p.add_argument("--formulation", choices=["bayesian", "neyman-pearson"], default="bayesian")
        p.add_argument("--exhaustive", action="store_true", help="search all quantizers, not only LLR-interval ones")

    p_exp = sub.add_parser("exponent", help="optimal error exponent of one architecture")
    add_common(p_exp)
    add_search_flags(p_exp)
    p_exp.set_defaults(func=cmd_exponent)

    p_curve = sub.add_parser("curve", help="rate-function curves of one quantizer as CSV")
    add_common(p_curve)
    p_curve.add_argument("--quantizer", default=None, help="comma-separated labels, e.g. 0,1,1 (default identity)")
    p_curve.add_argument("--t-lo", type=float, default=None)
    p_curve.add_argument("--t-hi", type=float, default=None)
    p_curve.add_argument("--t-points", type=int, default=401)
    p_curve.set_defaults(func=cmd_curve)

    def add_strategy_flags(p):
        add_search_flags(p)
        p.add_argument("--quantizer", default=None, help="first-stage map (default: optimize)")
        p.add_argument("--delta0", default=None)
        p.add_argument("--delta1", default=None)
        p.add_argument("--t", type=float, default=None, help="aggregator threshold")
        p.add_argument("--fusion-threshold", type=float, default=0.0)
        p.add_argument("--n-grid", required=True, help="comma-separated blocklengths")
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sim = sub.add_parser("simulate", help="finite-n error probabilities of one strategy")
    add_common(p_sim)
    add_strategy_flags(p_sim)
    p_sim.add_argument("--method", choices=["exact", "mc"], default="mc")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="least-squares exponent fit over a blocklength grid")
    add_common(p_fit)
    add_strategy_flags(p_fit)
    p_fit.add_argument("--method", choices=["exact", "mc"], default="exact")
    p_fit.set_defaults(func=cmd_fit)

    p_ex = sub.add_parser("example1", help="reproduce the bundled three-symbol reference results")
    add_common(p_ex, model_required=False)
    p_ex.set_defaults(func=cmd_example1)

    p_chk = sub.add_parser("check", help="ordering, shortcut and lower-bound sweep on random models")
    add_common(p_chk, model_required=False)
    p_chk.add_argument("--models", type=int, default=10)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
