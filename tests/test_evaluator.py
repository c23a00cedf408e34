"""Exact finite-n evaluation, Monte Carlo, and the exponential lower bound.

The main oracle is tests/oracles.py, which enumerates raw observation
tuples; the library's type-class arithmetic must match it to float noise.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from decdet import (
    DegenerateLLR,
    HypothesisModel,
    InducedModel,
    Quantizer,
    Strategy,
    TooLarge,
    exact_error,
    exact_error_daisy,
    exact_error_parallel,
    exponent_daisy_restricted,
    exponent_parallel,
    fit_exponent,
    induce,
    llr_distribution_daisy,
    llr_distribution_parallel,
    sgb_lower_bound,
    simulate,
    strategy_from_report,
    validate_model,
)
from conftest import random_model
from oracles import brute_force_error

Q001 = Quantizer(map=(0, 0, 1), message_alphabet_size=2)
Q011 = Quantizer(map=(0, 1, 1), message_alphabet_size=2)
QID2 = Quantizer(map=(0, 1), message_alphabet_size=2)


def _parallel1(q, fusion_threshold=0.0):
    return Strategy(kind="Parallel1", gamma=q, fusion_threshold=fusion_threshold)


def test_hand_values_coin(coin_model):
    st = _parallel1(QID2)
    e1 = exact_error_parallel(coin_model, st, 1)
    assert (e1.p_e0, e1.p_e1, e1.p_e) == pytest.approx((0.25, 0.25, 0.25), abs=1e-15)
    # n=2: the tied class (one of each symbol) goes to hypothesis 1.
    e2 = exact_error_parallel(coin_model, st, 2)
    assert e2.p_e0 == pytest.approx(0.4375, abs=1e-15)
    assert e2.p_e1 == pytest.approx(0.0625, abs=1e-15)
    assert e2.p_e == pytest.approx(0.25, abs=1e-15)
    assert e2.log_pe_over_n == pytest.approx(math.log(0.25) / 2, abs=1e-12)


def test_hand_value_table_single_sensor(table_model):
    e = exact_error_parallel(table_model, _parallel1(Q001), 1)
    assert e.p_e0 == pytest.approx(0.05, abs=1e-15)
    assert e.p_e1 == pytest.approx(0.20, abs=1e-15)
    assert e.p_e == pytest.approx(0.125, abs=1e-15)


def test_indistinguishable_model_errs_half():
    m = validate_model(HypothesisModel(pmf0=(0.6, 0.4), pmf1=(0.6, 0.4)))
    for n in (1, 3, 7):
        e = exact_error_parallel(m, _parallel1(QID2), n)
        assert e.p_e == pytest.approx(0.5, abs=1e-15)


def _rel_close(a: float, b: float, rtol: float = 1e-12) -> bool:
    if b == 0.0:
        return a == 0.0
    return abs(a - b) <= rtol * abs(b)


def _strategies_for(m, rng):
    qs = [Q001, Q011] if m.alphabet_size == 3 else [QID2]
    g = qs[int(rng.integers(len(qs)))]
    d0 = qs[int(rng.integers(len(qs)))]
    d1 = qs[int(rng.integers(len(qs)))]
    t = float(rng.uniform(-0.5, 0.5))
    return [
        Strategy(kind="Parallel1", gamma=g),
        Strategy(kind="Parallel2", gamma=g, delta0=d0),
        Strategy(kind="DaisyRestricted", gamma=g, delta0=d0, delta1=d1, t=t, r=0.5),
        Strategy(kind="Tree", gamma=g, delta0=d0, t=t, r=0.5),
        Strategy(kind="DaisyFull", gamma=g, delta0=d0, delta1=d1, t=t, r=0.5),
    ]


def test_exact_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(6):
        m = random_model(rng)
        for st in _strategies_for(m, rng):
            for n in (2, 3, 5, 6):
                want = brute_force_error(m, st, n)
                got = exact_error(m, st, n)
                assert _rel_close(got.p_e0, want[0]), (st.kind, n)
                assert _rel_close(got.p_e1, want[1]), (st.kind, n)
                assert _rel_close(got.p_e, want[2]), (st.kind, n)


def test_exact_matches_brute_force_offset_threshold(table_model):
    st = Strategy(kind="Parallel1", gamma=Q001, fusion_threshold=0.8)
    for n in (1, 2, 4):
        want = brute_force_error(table_model, st, n)
        got = exact_error_parallel(table_model, st, n)
        assert _rel_close(got.p_e0, want[0]) and _rel_close(got.p_e1, want[1])


def test_exact_rejects_adaptive_kinds(table_model):
    st = Strategy(
        kind="FullFeedback2", gamma=Q001, delta0=Q001, delta1=Q011, t=0.0
    )
    with pytest.raises(ValueError, match="simulate"):
        exact_error(table_model, st, 4)


def test_feedback_with_equal_deltas_is_two_message_parallel():
    # When both broadcast values select the same second map, the feedback
    # bit changes nothing: the transcript law must match Parallel2 exactly.
    rng = np.random.default_rng(103)
    for _ in range(3):
        m = random_model(rng)
        par = Strategy(kind="Parallel2", gamma=Q001, delta0=Q011)
        for kind in ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2"):
            fb = Strategy(kind=kind, gamma=Q001, delta0=Q011, delta1=Q011, t=0.3)
            for n in (2, 4):
                a = brute_force_error(m, fb, n)
                b = brute_force_error(m, par, n)
                assert _rel_close(a[0], b[0]) and _rel_close(a[1], b[1])


def test_simulate_matches_brute_force_for_feedback(table_model):
    for kind in ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2"):
        st = Strategy(kind=kind, gamma=Q001, delta0=Q001, delta1=Q011, t=0.1)
        want = brute_force_error(table_model, st, 3)
        est = simulate(table_model, st, 3, num_trials=200_000, seed=11)
        sigma = est.ci / 1.96
        assert abs(est.p_e - want[2]) <= 3 * sigma, kind


def test_simulate_matches_exact(table_model):
    daisy = strategy_from_report(exponent_daisy_restricted(table_model, r=0.5))
    exact = exact_error_daisy(table_model, daisy, 20)
    est = simulate(table_model, daisy, 20, num_trials=200_000, seed=7)
    assert est.method == "mc"
    assert abs(est.p_e - exact.p_e) <= 3 * est.ci / 1.96

    par = strategy_from_report(exponent_parallel(table_model))
    exact = exact_error_parallel(table_model, par, 20)
    est = simulate(table_model, par, 20, num_trials=200_000, seed=7)
    assert abs(est.p_e - exact.p_e) <= 3 * est.ci / 1.96


def test_simulate_is_deterministic(table_model):
    st = _parallel1(Q001)
    a = simulate(table_model, st, 9, num_trials=30_000, seed=123)
    b = simulate(table_model, st, 9, num_trials=30_000, seed=123)
    assert (a.p_e0, a.p_e1, a.p_e) == (b.p_e0, b.p_e1, b.p_e)
    c = simulate(table_model, st, 9, num_trials=30_000, seed=124)
    assert (a.p_e0, a.p_e1) != (c.p_e0, c.p_e1)


def test_stage_split_requires_both_stages(table_model):
    st = Strategy(kind="Tree", gamma=Q001, delta0=Q001, t=0.0, r=0.1)
    with pytest.raises(ValueError):
        exact_error_daisy(table_model, st, 3)  # round(0.3) leaves stage 1 empty


def test_strategy_validation(table_model):
    with pytest.raises(ValueError):
        Strategy(kind="DaisyRestricted", gamma=Q001, delta0=Q001, t=0.0)  # no r
    with pytest.raises(ValueError):
        Strategy(kind="DaisyRestricted", gamma=Q001, delta0=Q001, r=0.5)  # no t
    with pytest.raises(ValueError):
        Strategy(kind="NotAKind", gamma=Q001)
    tree = Strategy(kind="Tree", gamma=Q001, delta0=Q011, t=0.0, r=0.5)
    assert tree.delta1 == tree.delta0  # single second-stage map


def test_too_large_reports_feasible_n():
    m = validate_model(
        HypothesisModel(pmf0=(0.4, 0.3, 0.2, 0.1), pmf1=(0.1, 0.2, 0.3, 0.4))
    )
    st = Strategy(kind="Parallel1", gamma=Quantizer(map=(0, 1, 2, 3), message_alphabet_size=4))
    with pytest.raises(TooLarge, match="feasible"):
        exact_error_parallel(m, st, 5000)


def test_too_large_hint_with_small_stage_fraction():
    # Bisection midpoints whose split leaves a stage empty count as within
    # the budget instead of raising the stage-split error.
    p0 = np.arange(1.0, 9.0) / 36.0
    m = validate_model(HypothesisModel(pmf0=p0, pmf1=p0[::-1]))
    ident = Quantizer(map=tuple(range(8)), message_alphabet_size=8)
    st = Strategy(kind="Tree", gamma=ident, delta0=ident, t=0.0, r=0.01)
    with pytest.raises(TooLarge, match="largest feasible n"):
        exact_error(m, st, 5000)


def test_sgb_bound_holds_for_exact_errors(table_model):
    im = induce(table_model, Q001)
    st = _parallel1(Q001)
    for n in (1, 5, 20):
        bound, s_star = sgb_lower_bound(im, n)
        e = exact_error_parallel(table_model, st, n)
        assert max(e.p_e0, e.p_e1) >= bound
        assert 0.0 < s_star < 1.0
    # Single sensor: the bound must sit below max(0.05, 0.20).
    bound, _ = sgb_lower_bound(im, 1)
    assert bound <= 0.20


def test_sgb_degenerate_cases():
    m = validate_model(HypothesisModel(pmf0=(0.6, 0.4), pmf1=(0.6, 0.4)))
    im = induce(m, QID2)
    bound, s_star = sgb_lower_bound(im, 10)
    assert (bound, s_star) == (0.25, 0.5)
    e = exact_error_parallel(m, _parallel1(QID2), 10)
    assert max(e.p_e0, e.p_e1) >= bound

    bad = InducedModel(
        q0=np.array([0.5, 0.5]), q1=np.array([0.5, 0.5]), llr=np.array([0.3, 0.3])
    )
    with pytest.raises(DegenerateLLR):
        sgb_lower_bound(bad, 1)


def test_sgb_transcript_equivalence(table_model):
    # The n-sensor bound computed from the per-sensor law must match the
    # n=1 bound computed on the full transcript law.
    st = _parallel1(Q001)
    im = induce(table_model, Q001)
    b_n, s_n = sgb_lower_bound(im, 12)
    imt = llr_distribution_parallel(table_model, st, 12)
    b_t, s_t = sgb_lower_bound(imt, 1)
    assert b_t == pytest.approx(b_n, rel=1e-9)
    assert s_t == pytest.approx(s_n, abs=1e-6)


def test_llr_distribution_parallel_is_coherent(table_model):
    imt = llr_distribution_parallel(table_model, _parallel1(Q001), 6)
    assert imt.q0.sum() == pytest.approx(1.0, abs=1e-12)
    assert imt.q1.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(imt.llr, np.log(imt.q1 / imt.q0), atol=1e-9)
    # Only parallel-form kinds have a one-stage transcript law.
    for st in (
        Strategy(kind="SequentialFeedback2", gamma=Q001, delta0=Q001, t=0.0),
        Strategy(kind="DaisyRestricted", gamma=Q001, delta0=Q001, t=0.0, r=0.5),
    ):
        with pytest.raises(ValueError, match="parallel-form"):
            llr_distribution_parallel(table_model, st, 4)
    with pytest.raises(ValueError, match="positive"):
        llr_distribution_parallel(table_model, _parallel1(Q001), 0)


def test_llr_distribution_daisy_is_coherent(table_model):
    rep = exponent_daisy_restricted(table_model, r=0.5)
    st = strategy_from_report(rep)
    imt = llr_distribution_daisy(table_model, st, 8)
    assert imt.q0.sum() == pytest.approx(1.0, abs=1e-12)
    assert imt.q1.sum() == pytest.approx(1.0, abs=1e-12)
    # Errors recomputed from the transcript law agree with the evaluator.
    pe0 = float(imt.q0[imt.llr >= 0].sum())
    pe1 = float(imt.q1[imt.llr < 0].sum())
    e = exact_error_daisy(table_model, st, 8)
    assert pe0 == pytest.approx(e.p_e0, rel=1e-9)
    assert pe1 == pytest.approx(e.p_e1, rel=1e-9)


def test_fit_exponent_slope(coin_model):
    st = _parallel1(QID2)
    fit = fit_exponent(coin_model, st, ns=range(20, 61, 10), method="exact")
    from decdet import chernoff_exponent

    c, _ = chernoff_exponent(induce(coin_model, QID2))
    # The subexponential prefactor still costs ~log(n)/(2n) at these n.
    assert fit.slope == pytest.approx(c, abs=0.02)
    assert len(fit.estimates) == 5
    assert all(e.method == "exact" for e in fit.estimates)


def test_fit_exponent_accepts_strategy_factory(table_model):
    rep = exponent_daisy_restricted(table_model, r=0.5)
    fit = fit_exponent(
        table_model, lambda n: strategy_from_report(rep), ns=(10, 20), method="exact"
    )
    assert fit.slope < -0.2


def test_fit_exponent_needs_two_points(table_model):
    with pytest.raises(ValueError):
        fit_exponent(table_model, _parallel1(Q001), ns=(10,), method="exact")


def test_strategy_from_report_round_trip(table_model):
    rep = exponent_daisy_restricted(table_model, r=0.5)
    st = strategy_from_report(rep)
    assert st.kind == "DaisyRestricted"
    assert st.gamma.map == tuple(rep.strategy["gamma"])
    assert st.delta0.map == tuple(rep.strategy["delta0"])
    assert st.delta1.map == tuple(rep.strategy["delta1"])
    assert st.t == rep.strategy["t"]
    assert st.r == rep.r
    with_t = strategy_from_report(rep, t=0.3, fusion_threshold=-0.1)
    assert with_t.t == 0.3
    assert with_t.fusion_threshold == -0.1


@pytest.mark.parametrize(
    "key,value",
    [("gamma", None), ("gamma", []), ("gamma", [0, 0.5, 1]), ("delta0", [0, "a", 1])],
)
def test_strategy_from_report_rejects_bad_maps(table_model, key, value):
    rep = exponent_daisy_restricted(table_model, r=0.5)
    bad = dataclasses.replace(rep, strategy={**rep.strategy, key: value})
    with pytest.raises(ValueError):
        strategy_from_report(bad)


# Seeded 4-symbol model (random_model, rng 404) and strategies whose outputs
# are pinned below; the values were recorded before the evaluator's two-stage
# helpers were shared, and must stay bit-identical.
PIN_MODEL = HypothesisModel(
    pmf0=(0.0306764732735083, 0.3286445645377078, 0.28552350295075957, 0.3551554592380244),
    pmf1=(0.5766239729329535, 0.1907234946775212, 0.07057234047615032, 0.16208019191337492),
)
PIN_G = Quantizer(map=(0, 0, 1, 2), message_alphabet_size=3)
PIN_D0 = Quantizer(map=(0, 1, 1, 1), message_alphabet_size=2)
PIN_D1 = Quantizer(map=(0, 0, 0, 1), message_alphabet_size=2)


def _pinned_strategy(kind):
    if kind in ("Parallel1", "OneMsgSequential"):
        return Strategy(kind=kind, gamma=PIN_G)
    if kind == "Parallel2":
        return Strategy(kind=kind, gamma=PIN_G, delta0=PIN_D0)
    if kind == "Tree":
        return Strategy(kind=kind, gamma=PIN_G, delta0=PIN_D0, t=0.1, r=0.5)
    r = 0.5 if kind.startswith("Daisy") else None
    return Strategy(kind=kind, gamma=PIN_G, delta0=PIN_D0, delta1=PIN_D1, t=0.1, r=r)


@pytest.mark.parametrize(
    "kind,log_p_e",
    [
        ("Parallel1", -5.976210715607335),
        ("Parallel2", -13.518197826519298),
        ("OneMsgSequential", -5.976210715607335),
        ("DaisyRestricted", -5.7330774175531705),
        ("Tree", -8.584635539767843),
        ("DaisyFull", -5.920297633196844),
    ],
)
def test_exact_error_pinned(kind, log_p_e):
    assert exact_error(PIN_MODEL, _pinned_strategy(kind), 40).log_p_e == log_p_e


LLR_DAISY_PINNED = {
    "DaisyRestricted": (
        [0.7432236499290014, 0.07056306734950267, 0.0022331306214695484, 2.3557518873363392e-05,
         0.008240827920939931, 0.04488783228261324, 0.08150141815695137, 0.04932651622064871],
        [0.019872262135754947, 0.08119606693320983, 0.11058632446882269, 0.05020495705201802,
         0.003142887215458044, 0.048744157222284125, 0.25199683183291044, 0.4342565131395419],
        [-3.621672111873684, 0.1403599269511684, 3.902391965776021, 7.664424004600873,
         -0.9639589419041901, 0.0824185763211811, 1.1287960945465523, 2.1751736127719234],
    ),
    "Tree": (
        [0.7432236499290014, 0.07056306734950267, 0.0022331306214695484, 2.3557518873363392e-05,
         0.16754120031512312, 0.01590668031457543, 0.0005034034974764407, 5.310453978242627e-06],
        [0.019872262135754947, 0.08119606693320983, 0.11058632446882269, 0.05020495705201802,
         0.05601673079062722, 0.22887873517287283, 0.3117251737410044, 0.14151974970568976],
        [-3.621672111873684, 0.1403599269511684, 3.902391965776021, 7.664424004600873,
         -1.0955788828171662, 2.666453156007686, 6.428485194832539, 10.190517233657392],
    ),
}


@pytest.mark.parametrize("kind", sorted(LLR_DAISY_PINNED))
def test_llr_distribution_daisy_pinned(kind):
    imt = llr_distribution_daisy(PIN_MODEL, _pinned_strategy(kind), 6)
    assert (imt.q0.tolist(), imt.q1.tolist(), imt.llr.tolist()) == LLR_DAISY_PINNED[kind]


@pytest.mark.parametrize(
    "kind,p_e0,p_e1",
    [
        ("Parallel1", 0.1138, 0.0732),
        ("Parallel2", 0.0138, 0.0134),
        ("OneMsgSequential", 0.1138, 0.0732),
        ("DaisyRestricted", 0.1148, 0.0524),
        ("Tree", 0.031, 0.0348),
        ("DaisyFull", 0.1188, 0.0412),
        ("SequentialFeedback2", 0.0312, 0.0248),
        ("FullFeedback2", 0.053, 0.0124),
        ("RestrictedFeedback2", 0.068, 0.0124),
    ],
)
def test_simulate_pinned(kind, p_e0, p_e1):
    e = simulate(PIN_MODEL, _pinned_strategy(kind), 9, num_trials=5000, seed=17)
    assert (e.p_e0, e.p_e1) == (p_e0, p_e1)


def test_sgb_bound_on_underflowed_transcript_is_silent(table_model):
    # At n=800 most type-class masses underflow to zero; their log weight is
    # -inf without a divide-by-zero warning.
    ident = Quantizer(map=(0, 1, 2), message_alphabet_size=3)
    imt = llr_distribution_parallel(table_model, _parallel1(ident), 800)
    assert np.any(imt.q0 == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound, s_star = sgb_lower_bound(imt, 1)
    assert 0.0 < bound <= 0.25 and 0.0 < s_star < 1.0
