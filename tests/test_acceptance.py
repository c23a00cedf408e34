"""Acceptance suite: one test per shipped claim, one verdict line each.

Every test prints exactly one `CRITERION n PASS/FAIL: ...` line (visible
under pytest -rA or -s) and then asserts, so a red run still shows the
measured numbers next to the claim they broke.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from decdet import (
    HypothesisModel,
    Quantizer,
    Strategy,
    check_ordering,
    chernoff_exponent,
    enumerate_quantizers,
    exact_error,
    exact_error_parallel,
    exponent_daisy_restricted,
    exponent_feedback_equivalent,
    exponent_parallel,
    exponent_tree,
    fit_exponent,
    induce,
    likelihood_ratio_reduction,
    llr_distribution_daisy,
    log_mgf,
    log_mgf_derivs,
    rate_function,
    sgb_lower_bound,
    simulate,
    strategy_from_report,
)
from decdet.cli import main
from conftest import random_model
from oracles import brute_force_error

TABLE = HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))
TABLE_TEXT = "3 2\n0.8 0.15 0.05\n0.05 0.15 0.8\n"
GAMMA2 = [0, 0, 1]  # keeps the two skewed symbols apart
GAMMA1 = [0, 1, 1]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_example_reproduction(capsys):
    t0 = time.perf_counter()
    chain = exponent_daisy_restricted(TABLE, r=0.5)
    tree = exponent_tree(TABLE, r=0.5)
    cli_code = main(["example1"])
    capsys.readouterr()  # example1 output is not under test here
    elapsed = time.perf_counter() - t0

    ok = (
        abs(chain.exponent - (-0.365)) <= 1e-3
        and chain.strategy["delta0"] == GAMMA2
        and chain.strategy["delta1"] == GAMMA1
        and abs(tree.exponent - (-0.356)) <= 1e-3
        and tree.strategy["delta0"] == GAMMA2
        and tree.strategy["delta1"] == GAMMA2
        and cli_code == 0
        and elapsed < 5.0
    )
    with capsys.disabled():
        _verdict(
            1,
            ok,
            f"chain {chain.exponent:.6f} (want -0.365 +/- 1e-3, maps {chain.strategy['delta0']}/"
            f"{chain.strategy['delta1']}), tree {tree.exponent:.6f} (want -0.356 +/- 1e-3), "
            f"example1 exit {cli_code}, {elapsed:.2f}s < 5s",
        )


def test_criterion_02_architecture_ordering(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    models = [TABLE] + [random_model(rng) for _ in range(100)]
    worst_gap = math.inf
    violations = 0
    for m in models:
        for r in (0.25, 0.5, 0.75):
            res = check_ordering(m, r=r)  # raises on any ordering breach
            if res["tree"] < res["daisy_restricted"] - 1e-12:
                violations += 1
            gap = res["daisy_restricted"] - res["parallel1"]
            worst_gap = min(worst_gap, gap)
            if gap < 1e-9:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    with capsys.disabled():
        _verdict(
            2,
            ok,
            f"tree >= chain > parallel on {len(models)} models x 3 stage fractions, "
            f"smallest chain-parallel gap {worst_gap:.3e} >= 1e-9, {elapsed:.1f}s < 120s",
        )


def test_criterion_03_rate_function_identities(capsys):
    rng = np.random.default_rng(303)
    worst_dual = worst_zero = worst_mean = worst_curv = 0.0
    for i in range(100):
        k = 2 + i % 4
        m = random_model(rng, k=k)
        if i % 3 == 0:
            qs = enumerate_quantizers(m, 2, mode="llr_monotone")
            im = induce(m, qs[int(rng.integers(len(qs)))])
        else:
            im = likelihood_ratio_reduction(m)

        zmin, zmax = im.llr_support()
        pad = 1e-6 * (zmax - zmin)
        for t in np.linspace(zmin + pad, zmax - pad, 9):
            r0 = rate_function(im, 0, float(t)).value
            r1 = rate_function(im, 1, float(t)).value
            worst_dual = max(worst_dual, abs(r1 - (r0 - t)))

        c, _ = chernoff_exponent(im)
        worst_zero = max(worst_zero, abs(rate_function(im, 0, 0.0).value + c))
        worst_zero = max(worst_zero, abs(rate_function(im, 1, 0.0).value + c))
        for j in (0, 1):
            worst_mean = max(worst_mean, abs(rate_function(im, j, im.llr_mean(j)).value))

        h = 1e-4
        for s in (-1.0, 0.3, 1.2):
            _, _, d2 = log_mgf_derivs(im, 0, s)
            fd = (log_mgf(im, 0, s + h) - 2 * log_mgf(im, 0, s) + log_mgf(im, 0, s - h)) / (h * h)
            worst_curv = max(worst_curv, abs(d2 - fd))

    ok = worst_dual <= 1e-9 and worst_zero <= 1e-9 and worst_mean <= 1e-9 and worst_curv <= 1e-5
    with capsys.disabled():
        _verdict(
            3,
            ok,
            "100 induced models: duality gap "
            f"{worst_dual:.2e} <= 1e-9, zero-threshold vs Chernoff {worst_zero:.2e} <= 1e-9, "
            f"value at mean {worst_mean:.2e} <= 1e-9, curvature vs finite diff {worst_curv:.2e} <= 1e-5",
        )


def test_criterion_04_monotone_search_is_exhaustive(capsys):
    rng = np.random.default_rng(404)
    kinds = (
        "Parallel1",
        "Parallel2",
        "SequentialFeedback2",
        "FullFeedback2",
        "RestrictedFeedback2",
        "OneMsgSequential",
        "DaisyFull",
        "DaisyRestricted",
        "Tree",
    )

    def solve(m, kind, mode):
        if kind == "Parallel1":
            return exponent_parallel(m, d=2, messages_per_sensor=1, mode=mode)
        if kind == "Parallel2":
            return exponent_parallel(m, d=2, messages_per_sensor=2, mode=mode)
        if kind == "DaisyRestricted":
            return exponent_daisy_restricted(m, r=0.5, mode=mode)
        if kind == "Tree":
            return exponent_tree(m, r=0.5, mode=mode)
        return exponent_feedback_equivalent(m, kind=kind, mode=mode)

    worst = 0.0
    for i in range(50):
        m = random_model(rng, k=2 + i % 4)  # alphabets 2 through 5
        for kind in kinds:
            a = solve(m, kind, "llr_monotone").exponent
            b = solve(m, kind, "all").exponent
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-9
    with capsys.disabled():
        _verdict(
            4,
            ok,
            f"llr-interval search equals exhaustive search on 50 models x 9 architectures, "
            f"largest exponent gap {worst:.2e} <= 1e-9",
        )


def test_criterion_04b_staged_search_is_exhaustive_at_d3(capsys):
    # Criterion 4 runs at d=2.  At d=3 the exhaustive staged search costs
    # about 1 s on a 4-symbol model and 6 s on a 5-symbol one, so this
    # cross-check takes four of the first and one of the second.
    t0 = time.perf_counter()
    rng = np.random.default_rng(4043)
    models = [random_model(rng, k=4) for _ in range(4)] + [random_model(rng, k=5)]
    worst = 0.0
    moved = []
    for i, m in enumerate(models):
        for search in (exponent_daisy_restricted, exponent_tree):
            a = search(m, r=0.5, d=3)
            b = search(m, r=0.5, d=3, mode="all")
            worst = max(worst, abs(a.exponent - b.exponent))
            if any(a.strategy[key] != b.strategy[key] for key in ("gamma", "delta0", "delta1")):
                moved.append(f"{a.architecture} on model {i}")
    ok = worst <= 1e-9 and not moved
    with capsys.disabled():
        _verdict(
            "4b",
            ok,
            f"llr-interval search equals exhaustive search at d=3 on 5 models (K=4, 5) x 2 staged kinds, "
            f"largest exponent gap {worst:.2e} <= 1e-9, maps differ on {moved or 'none'}; "
            f"{time.perf_counter() - t0:.1f}s",
        )


def test_criterion_05_exact_evaluator_consistency(capsys):
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    cases = 0
    for _ in range(20):
        m = random_model(rng)
        mono2 = enumerate_quantizers(m, 2, mode="llr_monotone")
        mono3 = enumerate_quantizers(m, 3, mode="llr_monotone")
        g2 = mono2[int(rng.integers(len(mono2)))]
        h2 = mono2[int(rng.integers(len(mono2)))]
        g3 = mono3[int(rng.integers(len(mono3)))]
        t = float(rng.uniform(-0.4, 0.4))
        plans = [
            (Strategy(kind="Parallel1", gamma=g2), range(1, 9)),
            (Strategy(kind="Parallel1", gamma=g3), range(1, 9)),
            (Strategy(kind="Parallel2", gamma=g2, delta0=h2), range(1, 9)),
            (Strategy(kind="DaisyRestricted", gamma=g2, delta0=g2, delta1=h2, t=t, r=0.5), range(2, 9)),
            (Strategy(kind="Tree", gamma=g2, delta0=h2, t=t, r=0.5), range(2, 9)),
            (Strategy(kind="DaisyFull", gamma=g2, delta0=g2, delta1=h2, t=t, r=0.5), range(2, 9)),
        ]
        for st, ns in plans:
            for n in ns:
                want = brute_force_error(m, st, n)
                got = exact_error(m, st, n)
                for a, b in ((got.p_e0, want[0]), (got.p_e1, want[1]), (got.p_e, want[2])):
                    rel = abs(a - b) / b if b else abs(a)
                    worst_rel = max(worst_rel, rel)
                cases += 1

    # Monte Carlo spot checks at one million samples per hypothesis.
    mc_sigmas = []
    q001 = Quantizer(map=(0, 0, 1), message_alphabet_size=2)
    q011 = Quantizer(map=(0, 1, 1), message_alphabet_size=2)
    for st in (
        Strategy(kind="Parallel1", gamma=q001),
        Strategy(kind="DaisyRestricted", gamma=q001, delta0=q001, delta1=q011, t=0.1, r=0.5),
    ):
        ex = exact_error(TABLE, st, 8)
        mc = simulate(TABLE, st, 8, num_trials=10**6, seed=2024)
        mc_sigmas.append(abs(mc.p_e - ex.p_e) / (mc.ci / 1.96))

    ok = worst_rel < 1e-12 and all(s <= 3.0 for s in mc_sigmas)
    with capsys.disabled():
        _verdict(
            5,
            ok,
            f"type-class exact vs outcome enumeration on {cases} cases (n <= 8, d <= 3, 20 models): "
            f"worst rel err {worst_rel:.2e} < 1e-12; MC at 1e6 within "
            f"{max(mc_sigmas):.2f} sigma <= 3",
        )


def test_criterion_06_finite_n_convergence(capsys):
    par = exponent_parallel(TABLE)
    st = strategy_from_report(par)
    ns = (20, 30, 40, 50, 60)
    fit_par = fit_exponent(TABLE, st, ns, method="exact")
    slope_gap = abs(fit_par.slope - par.exponent)
    point_gaps = [abs(e.log_pe_over_n - par.exponent) for e in fit_par.estimates]
    # The raw point estimate keeps a log(n)/(2n) + O(1/n) prefactor
    # (~0.053 at n=60), so the convergence claim pins the fitted slope,
    # which cancels every n-independent factor; the point gaps must still
    # shrink monotonically.
    point_monotone = all(b <= a + 1e-3 for a, b in zip(point_gaps, point_gaps[1:]))

    chain = exponent_daisy_restricted(TABLE, r=0.5)
    fit_chain = fit_exponent(TABLE, strategy_from_report(chain), ns, method="exact")
    chain_slope_gap = abs(fit_chain.slope - (-0.365))
    chain_gaps = [abs(e.log_pe_over_n - (-0.365)) for e in fit_chain.estimates]
    chain_monotone = all(b <= a + 1e-3 for a, b in zip(chain_gaps, chain_gaps[1:]))

    ok = (
        slope_gap < 0.05
        and point_monotone
        and point_gaps[-1] < 0.06
        and chain_slope_gap < 0.05
        and chain_monotone
    )
    with capsys.disabled():
        _verdict(
            6,
            ok,
            f"parallel slope gap {slope_gap:.4f} < 0.05 over n=20..60 (raw n=60 point gap "
            f"{point_gaps[-1]:.4f} is prefactor-dominated), chain slope gap "
            f"{chain_slope_gap:.4f} < 0.05, per-n gaps shrink monotonically "
            f"({', '.join(f'{g:.3f}' for g in chain_gaps)})",
        )


def test_criterion_06b_chain_beats_tree_at_large_n(capsys):
    # The paper's positive claim, checked exactly where the prefactor no
    # longer hides it: the restricted chain's P_e falls below the tree's at
    # every n, and the slope of log P_e ~ a n + b log n + c, which absorbs
    # the polynomial prefactor, reproduces the exponent gap.  On the
    # 3-symbol table model every d=3 quantizer of either design is the
    # identity, so chain and tree coincide there; d=3 runs on a 4-symbol
    # mirror model instead.
    t0 = time.perf_counter()
    ns = (250, 500, 1000, 2000, 3000)
    design = np.column_stack([ns, np.log(ns), np.ones(len(ns))])
    mirror4 = HypothesisModel(pmf0=(0.6, 0.25, 0.1, 0.05), pmf1=(0.05, 0.1, 0.25, 0.6))
    below = True
    gap_errs = []
    for m, d in ((TABLE, 2), (mirror4, 3)):
        reports = (exponent_daisy_restricted(m, r=0.5, d=d), exponent_tree(m, r=0.5, d=d))
        logs = [[exact_error(m, strategy_from_report(rep), n).log_p_e for n in ns] for rep in reports]
        below &= all(c < t for c, t in zip(*logs))
        chain_a, tree_a = (np.linalg.lstsq(design, np.array(lp), rcond=None)[0][0] for lp in logs)
        gap_errs.append(abs((chain_a - tree_a) - (reports[0].exponent - reports[1].exponent)))
    elapsed = time.perf_counter() - t0
    ok = below and max(gap_errs) < 1e-3 and elapsed < 5.0
    with capsys.disabled():
        _verdict(
            "6b",
            ok,
            f"chain P_e below tree P_e at n=250..3000 (d=2 table model, d=3 mirror model); "
            f"fitted slope gap vs exponent gap off by {gap_errs[0]:.1e} (d=2), {gap_errs[1]:.1e} (d=3) "
            f"< 1e-3; {elapsed:.2f}s < 5s",
        )


def test_criterion_07_exponential_lower_bound(capsys):
    rng = np.random.default_rng(707)
    violations = 0
    checks = 0

    def check_parallel(m, st, n):
        nonlocal violations, checks
        e = exact_error_parallel(m, st, n)
        bound, _ = sgb_lower_bound(induce(m, st.gamma), n)
        checks += 1
        if max(e.p_e0, e.p_e1) < bound:
            violations += 1

    def check_staged(m, st, n):
        nonlocal violations, checks
        e = exact_error(m, st, n)
        bound, _ = sgb_lower_bound(llr_distribution_daisy(m, st, n), 1)
        checks += 1
        if max(e.p_e0, e.p_e1) < bound:
            violations += 1

    q001 = Quantizer(map=(0, 0, 1), message_alphabet_size=2)
    par = Strategy(kind="Parallel1", gamma=q001)
    for n in (1, 2, 5, 10, 20, 40, 60):
        check_parallel(TABLE, par, n)
    chain = strategy_from_report(exponent_daisy_restricted(TABLE, r=0.5))
    tree = strategy_from_report(exponent_tree(TABLE, r=0.5))
    for n in (2, 4, 8, 16, 30):
        check_staged(TABLE, chain, n)
        check_staged(TABLE, tree, n)
    for _ in range(10):
        m = random_model(rng)
        qs = enumerate_quantizers(m, 2, mode="llr_monotone")
        g = qs[int(rng.integers(len(qs)))]
        stp = Strategy(kind="Parallel1", gamma=g)
        for n in (5, 15):
            check_parallel(m, stp, n)
        std = Strategy(kind="DaisyRestricted", gamma=g, delta0=qs[0], delta1=qs[-1], t=0.0, r=0.5)
        check_staged(m, std, 10)

    ok = violations == 0
    with capsys.disabled():
        _verdict(
            7,
            ok,
            f"max(p_e0, p_e1) >= quarter-exponential lower bound in {checks} exact "
            f"evaluations, {violations} violations",
        )


def test_criterion_08_data_processing_order(capsys):
    # Quantization is a conditional-expectation coarsening of the
    # likelihood ratio, so E0[phi(L)] cannot increase for convex phi
    # (u log u, u^2) and cannot decrease for the concave kernel sqrt(u).
    rng = np.random.default_rng(808)
    worst_convex = -math.inf
    worst_concave = -math.inf
    for _ in range(20):
        m = random_model(rng)
        p0, p1 = np.asarray(m.pmf0), np.asarray(m.pmf1)
        ratio = p1 / p0
        raw = {
            "ulogu": float((p0 * ratio * np.log(ratio)).sum()),
            "sqrt": float((p0 * np.sqrt(ratio)).sum()),
            "square": float((p0 * ratio**2).sum()),
        }
        for d in (2, 3):
            for q in enumerate_quantizers(m, d, mode="all"):
                im = induce(m, q)
                rq = im.q1 / im.q0
                worst_convex = max(
                    worst_convex,
                    float((im.q0 * rq * np.log(rq)).sum()) - raw["ulogu"],
                    float((im.q0 * rq**2).sum()) - raw["square"],
                )
                worst_concave = max(
                    worst_concave,
                    raw["sqrt"] - float((im.q0 * np.sqrt(rq)).sum()),
                )
    ok = worst_convex <= 1e-12 and worst_concave <= 1e-12
    with capsys.disabled():
        _verdict(
            8,
            ok,
            "every quantizer on 20 models: convex kernels u*log(u), u^2 never rise "
            f"(worst +{worst_convex:.2e} <= 1e-12) and concave sqrt(u) never falls "
            f"(worst +{worst_concave:.2e} <= 1e-12) under coarsening",
        )


def test_criterion_09_cli_determinism(capsys, tmp_path):
    model = tmp_path / "tableI.txt"
    model.write_text(TABLE_TEXT)
    invocations = [
        ["exponent", "--model", str(model), "--arch", "daisy-restricted", "--r", "0.5"],
        ["exponent", "--model", str(model), "--arch", "parallel-2", "--exhaustive"],
        ["curve", "--model", str(model), "--quantizer", "0,0,1", "--t-points", "51"],
        [
            "simulate", "--model", str(model), "--arch", "tree", "--r", "0.5",
            "--n-grid", "6,12", "--samples", "30000", "--seed", "9",
        ],
        [
            "fit", "--model", str(model), "--arch", "parallel-1",
            "--quantizer", "0,0,1", "--n-grid", "10,20,30", "--format", "json",
        ],
        ["example1"],
        ["check", "--models", "2", "--seed", "5"],
    ]
    stable = True
    for argv in invocations:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2 or code1 != 0:
            stable = False
            break
    with capsys.disabled():
        _verdict(
            9,
            stable,
            f"{len(invocations)} distinct invocations, each run twice: "
            "byte-identical stdout and exit codes" if stable else f"unstable output for {argv}",
        )
