"""Source-level guards on the library itself."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "decdet").glob("*.py"))
# Loaded on first use only: `import decdet` and the exponent searches need
# neither.
LAZY_MODULES = ("scipy", "concurrent")


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    # `python -O` strips assert statements, so a check written as one
    # silently stops guarding; validation must raise a typed error.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"


def _import_time_imports(tree: ast.Module):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_library_defers_heavy_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    eager = []
    for node in _import_time_imports(tree):
        names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        eager += [(node.lineno, name) for name in names if name.split(".")[0] in LAZY_MODULES]
    assert not eager, f"{path.name} imports at module level: {eager}"


_COLD_START = textwrap.dedent(
    """
    import json, sys
    import decdet
    from decdet import cli

    def loaded():
        return {name: name in sys.modules for name in ("scipy", "concurrent.futures")}

    seen = {"import": loaded()}
    m = decdet.HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))
    decdet.exponent_tree(m, r=0.5, d=2)
    code = cli.main(["exponent", "--model", sys.argv[1], "--arch", "daisy-restricted", "--r", "0.5"])
    seen["search"] = dict(loaded(), exit=code)
    pin = decdet.HypothesisModel(
        pmf0=(0.0306764732735083, 0.3286445645377078, 0.28552350295075957, 0.3551554592380244),
        pmf1=(0.5766239729329535, 0.1907234946775212, 0.07057234047615032, 0.16208019191337492),
    )
    g = decdet.Quantizer(map=(0, 0, 1, 2), message_alphabet_size=3)
    e = decdet.exact_error(pin, decdet.Strategy(kind="Parallel1", gamma=g), 40)
    seen["exact"] = {"scipy": loaded()["scipy"], "log_p_e": e.log_p_e}
    print(json.dumps(seen))
    """
)


def test_cold_start_loads_scipy_on_first_exact_evaluation(tmp_path):
    # A fresh interpreter: the parent test process has scipy loaded already.
    model = tmp_path / "table.txt"
    model.write_text("3 2\n0.8 0.15 0.05\n0.05 0.15 0.8\n")
    src = str(SRC[0].parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(model)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == {"scipy": False, "concurrent.futures": False}
    assert seen["search"] == {"scipy": False, "concurrent.futures": False, "exit": 0}
    # The value is test_evaluator's Parallel1 pin, bit for bit.
    assert seen["exact"] == {"scipy": True, "log_p_e": -5.976210715607334}


# The 51 public names; a refactor of the package listing may not add or drop one.
_PUBLIC_NAMES = {
    "__version__",
    "CLASS_BUDGET", "DecayRateVector", "DegenerateLLR", "ErrorEstimate", "ExponentReport", "FitResult",
    "HypothesisModel", "InducedModel", "InfeasibleRate", "KINDS", "NotAProbability", "OrderingViolation",
    "Quantizer", "RateFunctionValue", "ShapeMismatch", "Strategy", "SupportMismatch", "TooLarge",
    "UnsupportedFormulation", "check_ordering", "check_symmetric_rate_condition", "chernoff_exponent",
    "enumerate_quantizers", "exact_error", "exact_error_daisy", "exact_error_parallel",
    "exponent_daisy_restricted", "exponent_feedback_equivalent", "exponent_parallel", "exponent_tree",
    "fit_exponent", "golden_section_min", "h_of_e", "identity_quantizer", "induce",
    "likelihood_ratio_reduction", "llr_distribution_daisy", "llr_distribution_parallel", "load_model",
    "log_mgf", "log_mgf_derivs", "parse_model_text", "product_quantizer", "rate_function",
    "rate_function_grid", "reevaluate_exponent", "sgb_lower_bound", "simulate", "split_product_quantizer",
    "strategy_from_report",
}


def test_package_lists_each_module_name_once():
    import decdet
    from decdet import architectures, evaluator, exponents, model

    modules = (model, exponents, architectures, evaluator)
    assert len(decdet.__all__) == len(set(decdet.__all__))
    for name in decdet.__all__:
        getattr(decdet, name)
    assert set(decdet.__all__) == {"__version__"}.union(*(mod.__all__ for mod in modules))
    assert set(decdet.__all__) == _PUBLIC_NAMES


def test_each_module_exports_what_it_defines():
    # A class or function is listed in the __all__ of the module that
    # defines it, not of one that imports it.
    from decdet import architectures, evaluator, exponents, model

    for mod in (model, exponents, architectures, evaluator):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.__all__ lists {name}"
