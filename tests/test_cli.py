"""Command-line surface: exit codes, formats, and byte stability."""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from decdet import architectures as arch, likelihood_ratio_reduction, load_model, rate_function_grid
from decdet.cli import _ARCH_NAMES, _CURVE_BLOCK, main
from conftest import random_model

TABLE = "3 2\n0.8 0.15 0.05\n0.05 0.15 0.8\n"


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "tableI.txt"
    p.write_text(TABLE)
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_exponent_json_shape(capsys, model_file):
    code, out, err = _run(
        capsys, ["exponent", "--model", model_file, "--arch", "daisy-restricted", "--r", "0.5"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "architecture",
        "formulation",
        "r",
        "exponent",
        "strategy",
        "decay_rates",
        "branch_values",
        "note",
    ]
    assert doc["architecture"] == "DaisyRestricted"
    assert doc["exponent"] == pytest.approx(-0.365439407866, abs=1e-9)
    # Values are rounded to 12 significant digits before serialization.
    assert len(repr(doc["exponent"]).replace("-", "").replace(".", "").lstrip("0")) <= 12


def test_exponent_is_byte_stable(capsys, model_file):
    argv = ["exponent", "--model", model_file, "--arch", "tree", "--r", "0.5"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of `decdet exponent` stdout, recorded before the three conjugate
# solvers became one.  The 12-digit output must not move from one commit to
# the next; criterion 9 only checks that two runs of one commit agree.
_EXPONENT_STDOUT_SHA256 = {
    ("table", "daisy-restricted"): "169729627aa3876f2fe52059cb9fe64831494a4f075e6ae683f5a214e0f88a84",
    ("table", "tree"): "8a45979a1eeec640f3445295f0870348aa9b5d565674f817f4d12bf9c5fd232c",
    ("seeded", "daisy-restricted"): "a0771ca3e254b0fe7db22bb3e3602ed7b99141d37634a0d08b7fe74180f19ba8",
    ("seeded", "tree"): "bb962c8b53551bd5c982d6a6492c35c9e3f586b7d2b21f7411fe9876bb9afcb5",
}


def _pinned_model_text(which: str) -> tuple[str, str]:
    # (model file text, --r): the table model at d=2, or a fixed-seed K=4
    # model at d=3 with its pmfs written at full precision.
    if which == "table":
        return TABLE, "0.5"
    m = random_model(np.random.default_rng(124), k=4)
    rows = (" ".join(repr(p) for p in pmf.tolist()) for pmf in (m.pmf0, m.pmf1))
    return "4 3\n" + "\n".join(rows) + "\n", "0.6"


@pytest.mark.parametrize("which,arch", sorted(_EXPONENT_STDOUT_SHA256))
def test_exponent_stdout_is_pinned_across_commits(capsys, tmp_path, which, arch):
    text, r = _pinned_model_text(which)
    path = tmp_path / "model.txt"
    path.write_text(text)
    code, out, _ = _run(capsys, ["exponent", "--model", str(path), "--arch", arch, "--r", r])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXPONENT_STDOUT_SHA256[which, arch]


def test_exponent_exhaustive_matches_monotone(capsys, model_file):
    base = ["exponent", "--model", model_file, "--arch", "parallel-1"]
    _, out_mono, _ = _run(capsys, base)
    _, out_all, _ = _run(capsys, base + ["--exhaustive"])
    a, b = json.loads(out_mono), json.loads(out_all)
    assert a["exponent"] == pytest.approx(b["exponent"], abs=1e-9)


def test_exponent_requires_r_for_staged(capsys, model_file):
    code, _, err = _run(capsys, ["exponent", "--model", model_file, "--arch", "tree"])
    assert code == 2
    assert err == "error: stage fraction r must lie in (0, 1), got None\n"


def test_exponent_rejects_neyman_pearson_staged(capsys, model_file):
    code, _, err = _run(
        capsys,
        [
            "exponent",
            "--model",
            model_file,
            "--arch",
            "daisy-restricted",
            "--r",
            "0.5",
            "--formulation",
            "neyman-pearson",
        ],
    )
    assert code == 2
    assert "Bayesian" in err or "parallel" in err


def test_bad_model_file_names_the_violated_assumption(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1.0 0.0\n0.5 0.5\n")
    code, _, err = _run(capsys, ["exponent", "--model", str(p)])
    assert code == 2
    assert "mutually absolutely continuous" in err


def test_missing_model_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["exponent", "--model", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error:" in err


def test_arch_roster():
    assert _ARCH_NAMES == {
        "parallel-1": "Parallel1",
        "parallel-2": "Parallel2",
        "sequential-feedback-2": "SequentialFeedback2",
        "full-feedback-2": "FullFeedback2",
        "restricted-feedback-2": "RestrictedFeedback2",
        "one-msg-sequential": "OneMsgSequential",
        "daisy-full": "DaisyFull",
        "daisy-restricted": "DaisyRestricted",
        "tree": "Tree",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--quantizer", "0,1,2", "--fusion-threshold", "nan", "--method", "exact", "--n-grid", "40"],
        ["simulate", "--arch", "tree", "--r", "0.5", "--quantizer", "0,1,2", "--delta0", "0,1,2", "--t", "nan",
         "--method", "exact", "--n-grid", "6"],
        ["simulate", "--seed", "-1", "--samples", "10", "--n-grid", "5"],
        ["simulate", "--seed", "18446744073709551616", "--samples", "10", "--n-grid", "5"],
        ["fit", "--n-grid", "10,10", "--method", "exact", "--format", "json"],
        ["simulate", "--arch", "one-msg-sequential", "--quantizer", "0,0,1", "--delta0", "0,1", "--n-grid", "10",
         "--method", "exact"],
        ["simulate", "--arch", "parallel-1", "--quantizer", "0,0,1", "--delta0", "0,1,1", "--n-grid", "10",
         "--method", "exact"],
        ["simulate", "--arch", "parallel-2", "--quantizer", "0,0,1", "--delta0", "0,1,1", "--delta1", "0,0,1",
         "--n-grid", "10", "--method", "exact"],
        ["simulate", "--arch", "tree", "--r", "0.5", "--quantizer", "0,0,1", "--delta0", "0,1,1", "--delta1", "0,0,1",
         "--n-grid", "20", "--method", "exact"],
    ],
    ids=["nan-fusion-threshold", "nan-t", "negative-seed", "seed-2**64", "one-distinct-n",
         "delta0-on-one-msg-sequential", "delta0-on-parallel-1", "delta1-on-parallel-2", "delta1-on-tree"],
)
def test_invalid_strategy_seed_or_grid_exits_two(capsys, model_file, argv):
    code, out, err = _run(capsys, argv[:1] + ["--model", model_file] + argv[1:])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("subcommand", ["simulate", "fit"])
def test_bad_n_grid_exits_two_before_any_search(capsys, monkeypatch, model_file, subcommand):
    def no_search(*args, **kwargs):
        raise RuntimeError("the staged search ran before --n-grid was parsed")

    monkeypatch.setattr(arch, "exponent_tree", no_search)
    code, out, err = _run(capsys, [subcommand, "--model", model_file, "--arch", "tree", "--r", "0.5", "--n-grid", "x"])
    assert (code, out) == (2, "")
    assert err == "error: --n-grid must be comma-separated integers\n"


def test_usage_errors_exit_two(capsys, model_file):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["exponent", "--model", model_file, "--arch", "bogus"]) == 2
    capsys.readouterr()


def test_curve_duality_column(capsys, model_file):
    code, out, _ = _run(
        capsys,
        [
            "curve",
            "--model",
            model_file,
            "--quantizer",
            "0,0,1",
            "--t-points",
            "21",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,rate_h0,rate_h1"
    assert len(lines) == 22
    for row in lines[1:]:
        t, r0, r1 = (float(v) for v in row.split(","))
        assert r0 >= 0.0 and r1 >= 0.0
        if math.isfinite(r0) and math.isfinite(r1):
            assert r1 == pytest.approx(r0 - t, abs=1e-9)
    # Default grid spans the llr support, so the first row carries the
    # left edge mass of hypothesis 0 and the last row that of hypothesis 1.
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == pytest.approx(-math.log(0.95), abs=1e-9)
    assert float(last[2]) == pytest.approx(-math.log(0.80), abs=1e-9)


def test_curve_rejects_bad_grid(capsys, model_file):
    code, _, err = _run(
        capsys,
        ["curve", "--model", model_file, "--t-lo", "2", "--t-hi", "-2"],
    )
    assert code == 2
    assert "grid" in err


def test_curve_blocks_match_one_whole_grid(capsys, model_file):
    # Rates do not depend on their batch, so the blocked CSV equals one
    # built from a single whole-grid solve, across every block edge.
    im = likelihood_ratio_reduction(load_model(model_file)[0])
    for n in (_CURVE_BLOCK - 1, _CURVE_BLOCK, _CURVE_BLOCK + 1, 2 * _CURVE_BLOCK + 1):
        ts = np.linspace(*im.llr_support(), n)
        rows = zip(ts, rate_function_grid(im, 0, ts), rate_function_grid(im, 1, ts))
        expected = "t,rate_h0,rate_h1\n" + "".join(f"{float(t):.12g},{float(a):.12g},{float(b):.12g}\n" for t, a, b in rows)
        assert _run(capsys, ["curve", "--model", model_file, "--t-points", str(n)]) == (0, expected, "")


def test_curve_memory_is_bounded_by_its_block(tmp_path, model_file):
    # 200,000 points: the grid itself is 1.6 MB, and one block of rates and
    # lines is held at a time (the whole grid at once peaked near 60 MB).
    out = tmp_path / "curve.csv"
    tracemalloc.start()
    try:
        assert main(["curve", "--model", model_file, "--t-points", "200000", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert len(out.read_text().splitlines()) == 200_001


def test_simulate_csv_and_determinism(capsys, model_file):
    argv = [
        "simulate",
        "--model",
        model_file,
        "--arch",
        "parallel-1",
        "--quantizer",
        "0,0,1",
        "--n-grid",
        "5,10",
        "--samples",
        "20000",
        "--seed",
        "3",
    ]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "n,p_e0,p_e1,p_e,log_pe_over_n,method,ci"
    assert len(lines) == 3
    assert all(row.split(",")[5] == "mc" for row in lines[1:])
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_simulate_exact_method(capsys, model_file):
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "--model",
            model_file,
            "--arch",
            "parallel-1",
            "--quantizer",
            "0,0,1",
            "--n-grid",
            "1",
            "--method",
            "exact",
        ],
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[1]) == pytest.approx(0.05, abs=1e-12)
    assert float(row[2]) == pytest.approx(0.20, abs=1e-12)
    assert row[5] == "exact"


def test_simulate_optimizes_when_no_maps_given(capsys, model_file):
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "--model",
            model_file,
            "--arch",
            "daisy-restricted",
            "--r",
            "0.5",
            "--n-grid",
            "10",
            "--method",
            "exact",
        ],
    )
    assert code == 0
    assert out.startswith("n,p_e0")


@pytest.mark.parametrize("method", ["exact", "mc"])
def test_daisy_full_optimizes_when_no_maps_given(capsys, model_file, method):
    # The DaisyFull report carries the one-message parallel optimum, which
    # the chain attains with gamma in both stages.
    base = ["simulate", "--model", model_file, "--n-grid", "6", "--samples", "50000"]
    code, out, err = _run(capsys, base + ["--arch", "daisy-full", "--r", "0.5", "--method", method])
    assert code == 0 and err == ""
    row = out.strip().split("\n")[1].split(",")
    _, ref, _ = _run(capsys, base + ["--arch", "parallel-1", "--method", "exact"])
    want = float(ref.strip().split("\n")[1].split(",")[3])
    assert row[5] == method
    tol = 1e-12 if method == "exact" else 4 * float(row[6]) / 1.96
    assert abs(float(row[3]) - want) <= tol

    code, out, err = _run(capsys, base + ["--arch", "daisy-full", "--method", method])
    assert code == 2 and out == ""
    assert "--r" in err


def test_daisy_full_quantizer_alone_means_gamma_in_both_stages(capsys, model_file):
    base = ["simulate", "--model", model_file, "--arch", "daisy-full", "--r", "0.5", "--quantizer", "0,0,1",
            "--n-grid", "10", "--method", "exact"]
    code, out, err = _run(capsys, base)
    assert code == 0 and err == ""
    assert _run(capsys, base + ["--delta0", "0,0,1", "--delta1", "0,0,1"]) == (0, out, "")
    # --delta0 alone serves both branches.
    assert _run(capsys, base + ["--delta0", "0,0,1"]) == (0, out, "")


@pytest.mark.parametrize("arch", sorted(_ARCH_NAMES))
def test_delta1_needs_delta0(capsys, model_file, arch):
    argv = ["simulate", "--model", model_file, "--arch", arch, "--r", "0.5", "--quantizer", "0,0,1",
            "--delta1", "0,1,1", "--n-grid", "10", "--method", "exact"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "both of delta0 and delta1 or neither" in err


@pytest.mark.parametrize(
    "subcommand,grid,message",
    [
        ("simulate", "0", "n must be a positive integer, got 0"),
        ("simulate", "10,0", "n must be a positive integer, got 0"),
        ("fit", "0,10", "each of ns must be a positive integer, got 0"),
        ("fit", "10,-3", "each of ns must be a positive integer, got -3"),
    ],
)
def test_nonpositive_blocklength_exits_two(capsys, model_file, subcommand, grid, message):
    argv = [subcommand, "--model", model_file, "--quantizer", "0,0,1", "--n-grid", grid, "--method", "exact"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("subcommand", ["exponent", "simulate", "fit"])
def test_search_flags_have_one_help_text(capsys, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a help line
    code, out, _ = _run(capsys, [subcommand, "--help"])
    assert code == 0
    text = " ".join(out.split())
    assert "--r R first-stage fraction for staged kinds" in text
    assert "--exhaustive search all quantizers, not only LLR-interval ones" in text


def test_simulate_explicit_maps_default_t_to_zero(capsys, model_file):
    argv = [
        "simulate",
        "--model",
        model_file,
        "--arch",
        "daisy-restricted",
        "--r",
        "0.5",
        "--quantizer",
        "0,0,1",
        "--delta0",
        "0,0,1",
        "--delta1",
        "0,1,1",
        "--n-grid",
        "6,12",
        "--method",
        "exact",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv + ["--t", "0"]) == (0, out, "")
    assert _run(capsys, argv + ["--t", "-1"])[1] != out


def test_simulate_too_large_exits_two(capsys, model_file):
    code, _, err = _run(
        capsys,
        [
            "simulate",
            "--model",
            model_file,
            "--arch",
            "parallel-1",
            "--quantizer",
            "0,1,2",
            "--d",
            "3",
            "--n-grid",
            "9999",
            "--method",
            "exact",
        ],
    )
    assert code == 2
    assert "feasible" in err


def test_fit_json_payload(capsys, model_file):
    code, out, _ = _run(
        capsys,
        [
            "fit",
            "--model",
            model_file,
            "--arch",
            "parallel-1",
            "--quantizer",
            "0,0,1",
            "--n-grid",
            "10,20,30",
            "--format",
            "json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc.keys()) == {"slope", "intercept", "rows"}
    assert doc["slope"] < -0.3
    assert [r["n"] for r in doc["rows"]] == [10, 20, 30]


def test_fit_csv_keeps_row_schema(capsys, model_file):
    code, out, _ = _run(
        capsys,
        [
            "fit",
            "--model",
            model_file,
            "--arch",
            "parallel-1",
            "--quantizer",
            "0,0,1",
            "--n-grid",
            "10,20",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,p_e0,p_e1,p_e,log_pe_over_n,method,ci"
    assert all(len(r.split(",")) == 7 for r in lines[1:])


def test_output_flag_writes_file(capsys, model_file, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = _run(
        capsys,
        ["exponent", "--model", model_file, "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["architecture"] == "Parallel1"


def test_example1_passes(capsys):
    code, out, _ = _run(capsys, ["example1"])
    assert code == 0
    assert "all reference checks passed" in out
    assert "-0.365439407866" in out and "-0.355791269751" in out


# sha256 of `decdet example1` stdout, recorded before it printed the ordering
# line from its own reports.
_EXAMPLE1_STDOUT_SHA256 = "0da41021ba0ad0680cc621be97c2fa2647b6ed88dfd0fa0113543121d6314bcb"


def test_example1_stdout_is_pinned_across_commits(capsys):
    code, out, _ = _run(capsys, ["example1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXAMPLE1_STDOUT_SHA256


def test_check_sweep_passes(capsys):
    code, out, _ = _run(capsys, ["check", "--models", "3", "--seed", "1"])
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_refuses_an_empty_sweep(capsys, count):
    # A sweep over no models would pass vacuously.
    code, out, err = _run(capsys, ["check", "--models", count])
    assert (code, out) == (2, "")
    assert err == f"error: --models must be at least 1, got {count}\n"


def test_module_entry_point(capsys, model_file):
    # `python -m decdet.cli` in a fresh interpreter: the exit code reaches
    # the shell and stdout matches an in-process run byte for byte.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    def run(argv):
        return subprocess.run([sys.executable, "-m", "decdet.cli", *argv], env=env, capture_output=True, text=True)

    argv = ["exponent", "--model", model_file, "--arch", "daisy-restricted", "--r", "0.5"]
    proc = run(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _run(capsys, argv)[1]

    proc = run(["simulate", "--model", model_file, "--arch", "parallel-1", "--quantizer", "0,0,1",
                "--delta1", "0,1,1", "--n-grid", "10", "--method", "exact"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and "delta0" in proc.stderr
