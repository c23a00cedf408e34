"""Span tracing of decdet's public functions, applied from outside the library.

``Tracer.install`` wraps each target function and rebinds every ``decdet``
module attribute that holds the original object, so calls made through
``from .exponents import rate_function`` style imports are traced too.
``Tracer.uninstall`` puts the original objects back.  Spans (name, start,
end, parent, task id) are kept in flat lists and turned into per-layer
metrics once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
from time import perf_counter

import numpy as np

# (layer module, public function) pairs that get a span.  Cheap helpers
# such as validate_model and log_mgf are left out on purpose: their time is
# charged to the caller's self time, and wrapping them would add overhead
# to every inner-loop call.
TARGETS = (
    ("model", "enumerate_quantizers"),
    ("model", "induce"),
    ("model", "load_model"),
    ("exponents", "rate_function"),
    ("exponents", "rate_function_grid"),
    ("exponents", "chernoff_exponent"),
    ("exponents", "log_mgf_derivs"),
    ("architectures", "exponent_daisy_restricted"),
    ("architectures", "exponent_tree"),
    ("architectures", "check_ordering"),
    ("architectures", "check_symmetric_rate_condition"),
    ("architectures", "exponent_parallel"),
    ("architectures", "exponent_feedback_equivalent"),
    ("architectures", "h_of_e"),
    ("architectures", "reevaluate_exponent"),
    ("evaluator", "exact_error"),
    ("evaluator", "exact_error_parallel"),
    ("evaluator", "exact_error_daisy"),
    ("evaluator", "simulate"),
    ("evaluator", "fit_exponent"),
    ("evaluator", "sgb_lower_bound"),
    ("evaluator", "llr_distribution_parallel"),
    ("evaluator", "llr_distribution_daisy"),
    ("cli", "main"),
)
LAYERS = ("model", "exponents", "architectures", "evaluator", "cli")
HARNESS_OP = "harness.op"

# Entry points that run (or hit the memo of) the joint staged search.
STAGED = (
    "architectures.exponent_daisy_restricted",
    "architectures.exponent_tree",
    "architectures.check_ordering",
    "architectures.check_symmetric_rate_condition",
)
EXACT = ("evaluator.exact_error", "evaluator.exact_error_parallel", "evaluator.exact_error_daisy")
LLR_DIST = ("evaluator.llr_distribution_parallel", "evaluator.llr_distribution_daisy")

# Spans whose arguments are kept for post-processing (sizes, not values).
_KEEP_ARGS = EXACT + ("evaluator.simulate",)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.task: list[int] = []
        self.error: list[str | None] = []
        self.aux: dict[int, object] = {}
        self.task_id = -1
        self.active = False
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer = self
        keep_args = name in _KEEP_ARGS
        points = name == "exponents.rate_function_grid"
        count = name == "model.enumerate_quantizers"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(tracer.start)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1])
            tracer.task.append(tracer.task_id)
            tracer.error.append(None)
            tracer.end.append(math.nan)
            tracer._stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error[i] = type(exc).__name__
                raise
            finally:
                tracer.end[i] = perf_counter()
                tracer._stack.pop()
            if keep_args:
                tracer.aux[i] = (args, kwargs)
            elif points:
                tracer.aux[i] = int(np.size(args[2] if len(args) > 2 else kwargs["ts"]))
            elif count:
                tracer.aux[i] = len(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every decdet module attribute that is a target function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items()) if key == "decdet" or key.startswith("decdet.")]
        for layer, attr in TARGETS:
            fn = getattr(sys.modules[f"decdet.{layer}"], attr)
            wrapper = self.wrap(f"{layer}.{attr}", fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()
        self.active = False

    def run_op(self, task_id: int, op):
        """Run one benchmark operation under a root span of its own."""
        self.task_id = task_id
        return self.wrap(HARNESS_OP, op)()

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: name,start,end,parent,task,error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,task,error\n")
            for row in zip(self.names, self.start, self.end, self.parent, self.task, self.error):
                fh.write("%s,%.9f,%.9f,%d,%d,%s\n" % (*row[:5], row[5] or ""))


def _comb(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _exact_tables(decdet, args, kwargs) -> list[tuple[int, int]]:
    """(type classes, alphabet size) of each class table an exact call builds.

    Computed from n and the induced alphabet sizes, mirroring what the
    evaluator enumerates; nothing is read from the evaluator itself.
    """
    a = _bind(decdet.evaluator.exact_error, args, kwargs)
    m, strategy, n = a["m"], a["strategy"], int(a["n"])
    induce = decdet.model.induce
    if strategy.kind in ("Parallel1", "OneMsgSequential", "Parallel2"):
        q = strategy.gamma
        if strategy.kind == "Parallel2":
            q = decdet.model.product_quantizer(strategy.gamma, strategy.delta0)
        k = induce(m, q).alphabet_size
        return [(_comb(n, k), k)]
    n1 = int(round(strategy.r * n))
    n2 = n - n1
    k1 = induce(m, strategy.gamma).alphabet_size
    out = [(_comb(n1, k1), k1)]
    for q in (strategy.delta0, strategy.delta1):
        k2 = induce(m, q).alphabet_size
        out.append((_comb(n2, k2), k2))
    return out


def layer_metrics(tracer: Tracer, decdet, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; call after ``uninstall``."""
    names = tracer.names
    n = len(names)
    start = np.asarray(tracer.start, dtype=float)
    end = np.asarray(tracer.end, dtype=float)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = end - start
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(*keys: str) -> list[int]:
        return [i for k in keys for i in by_name.get(k, [])]

    def calls(*keys: str) -> int:
        return len(idx(*keys))

    def self_sum(*keys: str) -> float:
        ii = idx(*keys)
        return float(self_s[ii].sum()) if ii else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    # Which spans run under a staged search entry point.  Parents are always
    # recorded before their children, so one forward pass suffices.
    staged_set = set(STAGED)
    under_staged = np.zeros(n, dtype=bool)
    grid_child = np.zeros(n, dtype=bool)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            under_staged[i] = under_staged[p] or names[p] in staged_set
            if names[i] == "exponents.rate_function_grid":
                grid_child[p] = True

    staged = idx(*STAGED)
    rf = idx("exponents.rate_function")
    grid = idx("exponents.rate_function_grid")
    grid_points = sum(tracer.aux.get(i, 0) for i in grid)
    staged_total = float(sum(dur[i] for i in staged if not under_staged[i]))
    refine_s = float(sum(dur[i] for i in rf if under_staged[i]))
    grid_s = float(sum(dur[i] for i in grid if under_staged[i]))

    # Exact evaluation: count only outermost calls of the exact family.
    exact_set = set(EXACT)
    outer_exact = [i for i in idx(*EXACT) if parent[i] < 0 or names[parent[i]] not in exact_set]
    classes = table_bytes = 0
    exact_busy = 0.0
    too_large = 0
    for i in outer_exact:
        if tracer.error[i] == "TooLarge":
            too_large += 1
            continue
        if tracer.error[i] is not None:
            continue
        args, kwargs = tracer.aux[i]
        for c, k in _exact_tables(decdet, args, kwargs):
            classes += c
            table_bytes += c * (8 * k + 32)
        exact_busy += float(dur[i])

    sim = idx("evaluator.simulate")
    symbols = 0
    for i in sim:
        a = _bind(decdet.evaluator.simulate, *tracer.aux[i])
        symbols += 2 * int(a["num_trials"]) * int(a["n"])
    sim_self = self_sum("evaluator.simulate")

    rf_self = self_sum("exponents.rate_function")
    grid_self = self_sum("exponents.rate_function_grid")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, value in zip(names, self_s.tolist()):
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += value
    # Time outside every layer span, measured from the outermost layer spans
    # (not from self times), so layer self times + harness_s = wall_s checks
    # the span accounting.
    top_layer = [
        i for i in range(n)
        if names[i] != HARNESS_OP and (parent[i] < 0 or names[parent[i]] == HARNESS_OP)
    ]
    harness_s = wall_s - float(dur[top_layer].sum()) if top_layer else wall_s
    # check_symmetric_rate_condition always evaluates its own symmetry-gap
    # curve with rate_function_grid, so its grid child says nothing about
    # the search memo; it is left out of the hit ratio.
    hit_base = [i for i in staged if names[i] != "architectures.check_symmetric_rate_condition"]

    out = {
        "model.enumerate_quantizers.calls": calls("model.enumerate_quantizers"),
        "model.candidates": sum(tracer.aux.get(i, 0) for i in idx("model.enumerate_quantizers")),
        "model.enumerate_quantizers.self_s": self_sum("model.enumerate_quantizers"),
        "model.induce.calls": calls("model.induce"),
        "model.induce.self_s": self_sum("model.induce"),
        "exponents.rate_function.calls": len(rf),
        "exponents.rate_function.self_s": rf_self,
        "exponents.rate_function.us_per_call": ratio(rf_self * 1e6, len(rf)),
        "exponents.rate_function_grid.calls": len(grid),
        "exponents.rate_function_grid.points": grid_points,
        "exponents.rate_function_grid.self_s": grid_self,
        "exponents.rate_function_grid.ns_per_point": ratio(grid_self * 1e9, grid_points),
        "exponents.chernoff_exponent.calls": calls("exponents.chernoff_exponent"),
        "exponents.chernoff_exponent.self_s": self_sum("exponents.chernoff_exponent"),
        "exponents.log_mgf_derivs.calls": calls("exponents.log_mgf_derivs"),
        "exponents.log_mgf_derivs.self_s": self_sum("exponents.log_mgf_derivs"),
        "architectures.staged.calls": len(staged),
        "architectures.staged.cache_hit_ratio": ratio(sum(1 for i in hit_base if not grid_child[i]), len(hit_base)),
        "architectures.staged.self_s": self_sum(*STAGED),
        "architectures.grid_phase_s": grid_s,
        "architectures.refine_phase_s": refine_s,
        "architectures.refine_share": ratio(refine_s, staged_total),
        "architectures.grid_share": ratio(grid_s, staged_total),
        "architectures.exponent_parallel.self_s": self_sum("architectures.exponent_parallel"),
        "architectures.reevaluate_exponent.self_s": self_sum("architectures.reevaluate_exponent"),
        "architectures.h_of_e.self_s": self_sum("architectures.h_of_e"),
        "evaluator.exact_error.calls": len(outer_exact),
        "evaluator.exact_error.self_s": self_sum(*EXACT),
        "evaluator.type_classes": classes,
        "evaluator.table_bytes": table_bytes,
        "evaluator.type_classes_per_s": ratio(classes, exact_busy),
        "evaluator.too_large": too_large,
        "evaluator.simulate.calls": len(sim),
        "evaluator.simulate.self_s": sim_self,
        "evaluator.simulate.symbols": symbols,
        "evaluator.simulate.symbols_per_s": ratio(symbols, sim_self),
        "evaluator.fit_exponent.self_s": self_sum("evaluator.fit_exponent"),
        "evaluator.sgb_lower_bound.self_s": self_sum("evaluator.sgb_lower_bound"),
        "evaluator.llr_distribution.self_s": self_sum(*LLR_DIST),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_sum("cli.main"),
        "trace.wall_s": wall_s,
        "trace.layer_self_s": float(sum(layer_self.values())),
        "trace.harness_s": harness_s,
        "trace.spans": n,
    }
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    return out
