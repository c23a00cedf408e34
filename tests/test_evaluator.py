"""Exact finite-n evaluation, Monte Carlo, and the exponential lower bound.

The main oracle is tests/oracles.py, which enumerates raw observation
tuples; the library's type-class arithmetic must match it to float noise.
The folded exact evaluator also meets the full class table it replaced,
``oracles.class_table_error``, at larger n and on every kind of tie.
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from decdet import (
    DegenerateLLR,
    HypothesisModel,
    InducedModel,
    KINDS,
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
)
from decdet import evaluator
from conftest import random_model
from oracles import brute_force_error, class_table, class_table_error, compositions, sequential_simulate

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
    m = HypothesisModel(pmf0=(0.6, 0.4), pmf1=(0.6, 0.4))
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


# Largest oracle table per stage; it caps n near 14 at six atoms, while
# two atoms reach n = 80.
_ORACLE_CLASSES = 20_000
_SYMMETRIC = HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))


def _largest_n(k: int) -> int:
    return max(n for n in range(1, 81) if math.comb(n + k - 1, k - 1) <= _ORACLE_CLASSES)


@hs.composite
def _fold_cases(draw):
    """(model, strategy, n) for the fold-versus-table property test.

    Models have 1-6 symbols with masses down to 1e-12, sometimes with the
    last symbol given the first one's LLR (the same masses, or both scaled
    by one factor, which can move the LLR by an ulp), or are the symmetric
    table model.  Thresholds are 0, +-inf, random, or the exact LLR sum of
    a class: one of the two modal classes, whose mass makes a tie sent to
    the wrong side show, or any class.  For a chain the fusion threshold
    is a second-stage class sum, since the bit's log-odds that the
    transcript LLR adds is summed in another order by the table.

    Two kinds of case are left out, because there the answer turns on
    rounding: atoms whose LLRs differ, but by 1e-9 or less, where class
    sums round across one another; and a chain with a transcript LLR
    within 1e-9 of the fusion threshold whose bit log-odds the table and
    the fold sum to different floats.
    """
    if draw(hs.integers(0, 4)) == 0:
        m = _SYMMETRIC
    else:
        k = draw(hs.integers(1, 6))
        exps = hs.floats(min_value=-12.0, max_value=0.0)
        w0 = [10.0 ** draw(exps) for _ in range(k)]
        w1 = [10.0 ** draw(exps) for _ in range(k)]
        if k > 1 and draw(hs.booleans()):
            f = draw(hs.sampled_from([1.0, 2.0, 3.0]))
            w0[-1], w1[-1] = f * w0[0], f * w1[0]
        m = HypothesisModel(pmf0=np.array(w0) / sum(w0), pmf1=np.array(w1) / sum(w1))
    k = m.alphabet_size

    def quantizer():
        labels = draw(hs.lists(hs.integers(0, k - 1), min_size=k, max_size=k))
        return Quantizer(map=tuple(labels), message_alphabet_size=k)

    def threshold(table):
        logp0, logp1, sums = table
        pick = draw(hs.sampled_from(["zero", "+inf", "-inf", "random", "mode0", "mode1", "class"]))
        if pick == "zero":
            return 0.0
        if pick in ("+inf", "-inf"):
            return float(pick)
        if pick == "random":
            return draw(hs.floats(min_value=-30.0, max_value=30.0))
        if pick == "class":
            return float(sums[draw(hs.integers(0, sums.size - 1))])
        return float(sums[np.argmax(logp0 if pick == "mode0" else logp1)])

    kind = draw(hs.sampled_from(["Parallel1", "Parallel2", "DaisyRestricted", "Tree"]))
    gamma, delta0, delta1 = quantizer(), quantizer(), quantizer()
    if kind in ("Parallel1", "Parallel2"):
        st = Strategy(kind=kind, gamma=gamma, delta0=delta0 if kind == "Parallel2" else None)
        im = induce(m, st.joint)
        assume(_llrs_resolve(im))
        n = draw(hs.integers(1, _largest_n(im.alphabet_size)))
        return m, dataclasses.replace(st, fusion_threshold=threshold(evaluator._class_table(im, n))), n
    if kind == "Tree":
        delta1 = delta0
    ims = [induce(m, q) for q in (gamma, delta0, delta1)]
    assume(all(_llrs_resolve(im) for im in ims))
    n_max = min(_largest_n(im.alphabet_size) for im in ims)
    n = draw(hs.integers(2, max(2, n_max)))
    n1 = draw(hs.integers(1, n - 1))
    t = threshold(evaluator._class_table(ims[0], n1)) / n1
    fusion = threshold(evaluator._class_table(ims[1 + draw(hs.integers(0, 1))], n - n1))
    st = Strategy(kind=kind, gamma=gamma, delta0=delta0, delta1=delta1, t=t, r=n1 / n, fusion_threshold=fusion)
    assume(not _rounding_tie(m, st, n))
    return m, st, n


def _llrs_resolve(im) -> bool:
    spread = float(np.ptp(im.llr))
    return spread == 0.0 or spread > 1e-9


def _rounding_tie(m, st, n) -> bool:
    """Whether a chain has a transcript LLR within 1e-9 of its fusion
    threshold under a bit log-odds that the table and the fold sum to
    different floats."""
    thr = st.fusion_threshold
    if math.isinf(thr):
        return False
    n1 = int(round(st.r * n))
    im1 = induce(m, st.gamma)
    folded = evaluator._aggregator_bit(im1, n1, st.t)[1]
    split = evaluator._first_stage_split(im1, n1, st.t)
    for u, (lp0, lp1, _) in split:
        table = evaluator._lse(lp1) - evaluator._lse(lp0) if len(split) == 2 else 0.0
        sums2 = evaluator._class_table(induce(m, (st.delta0, st.delta1)[u]), n - n1)[2]
        if table != folded[u] and np.any(np.abs(table + sums2 - thr) <= 1e-9 * (1.0 + abs(thr))):
            return True
    return False


def _same_error(got, want) -> bool:
    """p_e0 and p_e1 within 1e-12 relative where they are normal floats, and
    log_p_e within 1e-12 of its magnitude."""
    for a, b in ((got.p_e0, want.p_e0), (got.p_e1, want.p_e1)):
        if max(a, b) >= 1e-290 and abs(a - b) > 1e-12 * b:
            return False
    if math.isinf(want.log_p_e):
        return got.log_p_e == want.log_p_e
    return abs(got.log_p_e - want.log_p_e) <= 1e-12 * max(1.0, abs(want.log_p_e))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_fold_cases())
def test_fold_matches_class_table(case):
    m, st, n = case
    want = class_table_error(m, st, n)
    got = exact_error(m, st, n)
    assert _same_error(got, want), (got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=hs.integers(1, 600),
    exps=hs.lists(hs.floats(min_value=-12.0, max_value=0.0), min_size=4, max_size=4),
    seed=hs.integers(0, 2**32 - 1),
)
def test_window_tails_match_whole_rows(n, exps, seed):
    # The window kernel drops the terms beyond 5 sqrt(m + 2) of each tail's
    # largest and takes the side holding the mode as the row total less the
    # other.  Check both against whole-row accumulation, deep tails
    # included, at m beyond what the class-table oracle reaches.
    q = 10.0 ** np.array(exps).reshape(2, 2)
    qa, qb = (q / np.maximum(q.sum(axis=0), 1.0)).tolist()
    qa, qb = np.array(qa), np.array(qb)
    rng = np.random.default_rng(seed)
    m = rng.integers(0, n + 1, size=64)
    c = np.minimum(rng.integers(0, n + 2, size=64), m + 1)
    lg = gammaln(np.arange(n + 1) + 1.0)
    window = evaluator._window_tails(m, c, qa, qb, lg)
    rows = evaluator._row_tails(m, c, qa, qb, lg)
    finite = np.isfinite(rows)
    np.testing.assert_array_equal(np.isfinite(window), finite)
    np.testing.assert_array_equal(window[~finite], rows[~finite])
    assert np.all(np.abs(window[finite] - rows[finite]) <= 1e-12 * np.maximum(1.0, np.abs(rows[finite])))


def test_window_tails_blocks_keep_every_bit(monkeypatch):
    # The window kernel takes its entries in blocks of bounded size; one
    # entry per block and one block for all must give the same floats,
    # blocks whose every window is empty (c = 0 or c = m + 1) included.
    n = 1500
    rng = np.random.default_rng(7)
    m = rng.integers(0, n + 1, size=900)
    c = np.minimum(rng.integers(0, n + 2, size=900), m + 1)
    c[::5], c[1::5] = 0, m[1::5] + 1
    qa, qb = np.array([0.3, 1e-9]), np.array([0.5, 0.7])
    lg = gammaln(np.arange(n + 1) + 1.0)
    blocked = evaluator._window_tails(m, c, qa, qb, lg)
    for terms in (1, 1 << 40):
        monkeypatch.setattr(evaluator, "_WINDOW_BLOCK_TERMS", terms)
        np.testing.assert_array_equal(evaluator._window_tails(m, c, qa, qb, lg), blocked)


def test_compositions_match_recursive_builder():
    # Same rows in the same order: the fold and the class table both read
    # a class by its row.
    cases = [(n, k) for k in range(1, 7) for n in range(41)] + [(750, 3), (389, 3)]
    for n, k in cases:
        got, want = evaluator._compositions(n, k), compositions(n, k)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n, k)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=hs.integers(1, 6), data=hs.data())
def test_class_table_matches_first_formula(k, data):
    # One log-gamma row and float counts in place of a log-gamma per count
    # and int64 counts: every entry keeps every bit.
    n = data.draw(hs.integers(1, {1: 400, 2: 400, 3: 200, 4: 50, 5: 25, 6: 15}[k]))
    m = random_model(np.random.default_rng(data.draw(hs.integers(0, 2**32 - 1))), k=6, floor=1e-6)
    im = induce(m, Quantizer(map=tuple(min(x, k - 1) for x in range(6)), message_alphabet_size=k))
    for got, want in zip(evaluator._class_table(im, n), class_table(im, n)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name,call", [
    ("n", lambda m, par, chain: exact_error(m, par, 4.0)),
    ("n", lambda m, par, chain: exact_error_parallel(m, par, 4.5)),
    ("n", lambda m, par, chain: exact_error_daisy(m, chain, 6.0)),
    ("n", lambda m, par, chain: llr_distribution_parallel(m, par, 4.0)),
    ("n", lambda m, par, chain: llr_distribution_daisy(m, chain, 6.0)),
    ("n", lambda m, par, chain: simulate(m, par, 4.0, num_trials=10)),
    ("n", lambda m, par, chain: sgb_lower_bound(induce(m, Q001), 2.5)),
    ("num_trials", lambda m, par, chain: simulate(m, par, 4, num_trials=10.0)),
    ("ns", lambda m, par, chain: fit_exponent(m, par, [3, 4.5])),
    ("ns", lambda m, par, chain: fit_exponent(m, par, ["3", 4], method="mc", num_trials=10)),
])
def test_blocklengths_must_be_integers(table_model, name, call):
    # A float n was truncated (fit_exponent evaluated n=4 for 4.5) or
    # failed deep in numpy with a bare TypeError.
    chain = Strategy(kind="DaisyRestricted", gamma=Q001, delta0=Q001, delta1=Q011, t=0.0, r=0.5)
    with pytest.raises(ValueError, match=f"{name}.*integer"):
        call(table_model, _parallel1(Q001), chain)


def test_numpy_integer_blocklengths_are_accepted(table_model):
    st = _parallel1(Q001)
    assert exact_error(table_model, st, np.int64(7)) == exact_error(table_model, st, 7)
    assert simulate(table_model, st, np.int32(5), num_trials=np.int64(300)) == simulate(
        table_model, st, 5, num_trials=300
    )
    assert fit_exponent(table_model, st, np.array([4, 8])) == fit_exponent(table_model, st, [4, 8])


def test_exact_rejects_adaptive_kinds(table_model):
    st = Strategy(
        kind="FullFeedback2", gamma=Q001, delta0=Q001, delta1=Q011, t=0.0
    )
    with pytest.raises(ValueError, match="simulate"):
        exact_error(table_model, st, 4)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda m: exact_error_daisy(m, _parallel1(Q001), 4), "Parallel1 is not a two-stage strategy"),
        (
            lambda m: llr_distribution_daisy(m, Strategy(kind="DaisyFull", gamma=Q001, delta0=Q011, t=0.0, r=0.5), 4),
            "transcript atoms with an aggregator bit need a restricted chain",
        ),
        (lambda m: fit_exponent(m, _parallel1(Q001), [4, 8], method="sampled"), "unknown method: 'sampled'"),
    ],
    ids=["exact-daisy-of-parallel", "transcript-of-daisy-full", "fit-method"],
)
def test_evaluators_reject_a_kind_or_method_they_do_not_handle(table_model, call, message):
    with pytest.raises(ValueError) as exc:
        call(table_model)
    assert (exc.type, str(exc.value)) == (ValueError, message)


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


@pytest.mark.parametrize("n", [1, 3])
def test_full_feedback_infinite_threshold_is_a_constant_bit(table_model, n):
    # t = -inf sets every feedback bit to 1 and t = +inf every bit to 0, also
    # at n = 1, where a FullFeedback2 sensor has no other message to average.
    # RestrictedFeedback2 then sends the same transcripts from the same draws.
    q000 = Quantizer(map=(0, 0, 0), message_alphabet_size=2)
    ests = []
    for t in (-math.inf, math.inf):
        full, restricted = (
            Strategy(kind=kind, gamma=Q001, delta0=q000, delta1=Q011, t=t)
            for kind in ("FullFeedback2", "RestrictedFeedback2")
        )
        est = simulate(table_model, full, n, num_trials=20_000, seed=1)
        ref = simulate(table_model, restricted, n, num_trials=20_000, seed=1)
        assert (est.p_e0, est.p_e1) == (ref.p_e0, ref.p_e1)
        assert (est.p_e0, est.p_e1) == sequential_simulate(table_model, full, n, 20_000, 1)
        want = brute_force_error(table_model, restricted, n)
        assert brute_force_error(table_model, full, n) == pytest.approx(want, abs=1e-15)
        ests.append((est.p_e0, est.p_e1))
    assert ests[0] != ests[1]


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


@pytest.mark.parametrize("field", ["t", "fusion_threshold"])
def test_strategy_rejects_nan_thresholds(table_model, field):
    def tree(v: float) -> Strategy:
        return Strategy(kind="Tree", gamma=Q001, delta0=Q011, r=0.5, **{"t": 0.0, field: v})

    for v in (math.nan, "0.1"):
        with pytest.raises(ValueError, match=f"{field} must be a real number and must not be NaN"):
            tree(v)
    # A missing threshold fails here, not later inside the evaluator or a
    # simulation thread.
    with pytest.raises(ValueError, match="needs an aggregator threshold t" if field == "t" else "got None"):
        tree(None)
    # An infinite threshold is a constant bit or decision, a valid strategy.
    for v in (math.inf, -math.inf):
        st = tree(v)
        assert 0.0 <= exact_error(table_model, st, 6).p_e <= 1.0


@pytest.mark.parametrize("kind", ["Parallel1", "Parallel2", "OneMsgSequential"])
def test_one_stage_kinds_take_no_aggregator_threshold(kind):
    # Like a stage fraction or an unread second-stage map, a t that the
    # kind never reads is refused rather than silently ignored.
    delta0 = Q011 if kind == "Parallel2" else None
    Strategy(kind=kind, gamma=Q001, delta0=delta0)
    with pytest.raises(ValueError, match=f"{kind} takes no aggregator threshold t"):
        Strategy(kind=kind, gamma=Q001, delta0=delta0, t=0.3)


def test_exact_probabilities_never_exceed_one(table_model):
    # The class masses sum a few ulps above 1 when every class errs.
    ident = Quantizer(map=(0, 1, 2), message_alphabet_size=3)
    always1 = exact_error(table_model, _parallel1(ident, fusion_threshold=-1e9), 10)
    always0 = exact_error(table_model, _parallel1(ident, fusion_threshold=1e9), 10)
    assert (always1.p_e0, always1.p_e1, always1.p_e) == (1.0, 0.0, 0.5)
    assert (always0.p_e0, always0.p_e1, always0.p_e) == (0.0, 1.0, 0.5)


def test_simulate_seed_range(table_model):
    st = _parallel1(Q001)
    for seed in (-1, 1.5, 2**64, "0"):
        with pytest.raises(ValueError, match="seed"):
            simulate(table_model, st, 4, num_trials=10, seed=seed)
    # Seeds past 2**63 keep every bit: neighbours draw different streams.
    ests = [simulate(table_model, st, 6, num_trials=2000, seed=s) for s in (2**63, 2**63 + 1, 2**64 - 1)]
    assert len({(e.p_e0, e.p_e1) for e in ests}) == 3


def test_too_large_reports_feasible_n():
    m = HypothesisModel(pmf0=(0.4, 0.3, 0.2, 0.1), pmf1=(0.1, 0.2, 0.3, 0.4))
    st = Strategy(kind="Parallel1", gamma=Quantizer(map=(0, 1, 2, 3), message_alphabet_size=4))
    with pytest.raises(TooLarge, match="feasible"):
        exact_error_parallel(m, st, 5000)


def test_too_large_hint_with_small_stage_fraction():
    # Every n that splits at r=0.01 has a second stage of at least 50
    # sensors, over the budget at k=8, so no n is evaluable and the hint
    # says so instead of naming one.
    p0 = np.arange(1.0, 9.0) / 36.0
    m = HypothesisModel(pmf0=p0, pmf1=p0[::-1])
    ident = Quantizer(map=tuple(range(8)), message_alphabet_size=8)
    st = Strategy(kind="Tree", gamma=ident, delta0=ident, t=0.0, r=0.01)
    with pytest.raises(TooLarge, match="no n here gives two non-empty stages") as info:
        exact_error(m, st, 5000)
    assert "largest feasible n" not in str(info.value)


@pytest.mark.parametrize(
    "st",
    [
        Strategy(kind="Parallel1", gamma=Quantizer(map=(0, 1, 2), message_alphabet_size=3)),
        Strategy(kind="Tree", gamma=Q011, delta0=Q001, t=0.0, r=0.05),
        Strategy(kind="DaisyFull", gamma=Q001, delta0=Q001, delta1=Q011, t=0.1, r=0.7),
    ],
    ids=lambda st: st.kind,
)
def test_too_large_hint_names_an_evaluable_n(monkeypatch, table_model, st):
    # A small budget keeps the hinted n cheap; it must evaluate, and the
    # next n must not.
    monkeypatch.setattr(evaluator, "CLASS_BUDGET", 300)
    with pytest.raises(TooLarge, match="largest feasible n here is") as info:
        exact_error(table_model, st, 500)
    hinted = int(str(info.value).rsplit(" ", 1)[1])
    assert 0.0 <= exact_error(table_model, st, hinted).p_e <= 1.0
    with pytest.raises(TooLarge):
        exact_error(table_model, st, hinted + 1)


def test_budget_edge_evaluates_in_bounded_memory():
    # Four joint messages at n=389 is the largest n within CLASS_BUDGET
    # (9.96e6 classes).  The full table of those classes took about 0.9 GB
    # under tracemalloc; the fold enumerates 76,245 prefixes of three counts.
    # The pin is the full table's value, recorded once.
    st = Strategy(
        kind="Parallel2",
        gamma=Quantizer(map=(0, 0, 1, 1), message_alphabet_size=2),
        delta0=Quantizer(map=(0, 1, 0, 1), message_alphabet_size=2),
    )
    assert induce(PIN_MODEL, st.joint).alphabet_size == 4
    tracemalloc.start()
    try:
        e = exact_error(PIN_MODEL, st, 389)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert abs(e.log_p_e - -110.33901792978989) <= 1e-12 * 110.33901792978989
    with pytest.raises(TooLarge) as info:
        exact_error(PIN_MODEL, st, 390)
    assert str(info.value) == (
        "exact evaluation of a parallel strategy at n=390 exceeds the 10000000 "
        "type-class budget; largest feasible n here is 389"
    )


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
    m = HypothesisModel(pmf0=(0.6, 0.4), pmf1=(0.6, 0.4))
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


def test_fit_exponent_needs_two_points(table_model):
    # At n=300 Monte Carlo sees no error, which leaves the one n of 5 5.
    for ns, method in (((10,), "exact"), ((10, 10), "exact"), ((5, 5, 300), "mc")):
        with pytest.raises(ValueError, match="distinct"):
            fit_exponent(table_model, _parallel1(Q001), ns=ns, method=method, num_trials=50)


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
        ("Parallel1", -5.976210715607334),
        ("Parallel2", -13.5181978265193),
        ("OneMsgSequential", -5.976210715607334),
        ("DaisyRestricted", -5.7330774175531705),
        ("Tree", -8.58463553976784),
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


@pytest.mark.parametrize("kind", KINDS)
def test_simulate_matches_sequential_oracle(kind):
    # 20000 trials at n=9 span three chunks of at most 8192 trials.
    st = dataclasses.replace(_pinned_strategy(kind), fusion_threshold=0.05)
    e = simulate(PIN_MODEL, st, 9, num_trials=20_000, seed=29)
    assert (e.p_e0, e.p_e1) == sequential_simulate(PIN_MODEL, st, 9, 20_000, 29)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("block_rows", [1, 7])
def test_simulate_is_block_invariant(monkeypatch, kind, block_rows):
    # 9000 trials at n=9 are a chunk of 8192 and one of 808; neither is a
    # multiple of 7 rows, so both chunks end in a partial block.
    monkeypatch.setattr(evaluator, "_BLOCK_CELLS", block_rows * 9)
    st = dataclasses.replace(_pinned_strategy(kind), fusion_threshold=0.05)
    e = simulate(PIN_MODEL, st, 9, num_trials=9000, seed=31)
    assert (e.p_e0, e.p_e1) == sequential_simulate(PIN_MODEL, st, 9, 9000, 31)


@pytest.mark.parametrize("kind", KINDS)
def test_simulate_matches_oracle_on_a_wide_alphabet(kind):
    # 150 symbols: symbols and flat indices symbol + K * u (up to 299) are
    # drawn in uint16, not uint8.  Random maps give LLRs near 0, so t = 0
    # sets u = 1 on about half the rows.
    rng = np.random.default_rng(5)
    k = 150
    massless = rng.random(k) < 0.2
    pmfs = [np.where(massless, 0.0, rng.random(k)) for _ in range(2)]
    m = HypothesisModel(*(tuple(p / p.sum()) for p in pmfs))

    def q():
        return Quantizer(map=tuple(int(x) for x in rng.integers(0, 3, k)), message_alphabet_size=3)

    st = _pinned_strategy(kind)
    # Draw maps only for the fields the kind reads: Parallel2 sends delta0
    # as its second message, so its delta1 follows delta0.
    read = ("gamma", "delta0") if kind == "Parallel2" else ("gamma", "delta0", "delta1")
    maps = {f: q() for f in read if getattr(st, f) is not None}
    if kind == "Parallel2":
        maps["delta1"] = maps["delta0"]
    st = dataclasses.replace(st, **maps, t=None if st.t is None else 0.0, fusion_threshold=0.05)
    e = simulate(m, st, 7, num_trials=3000, seed=3)
    assert (e.p_e0, e.p_e1) == sequential_simulate(m, st, 7, 3000, 3)


def test_declared_message_alphabet_allocates_nothing():
    # A quantizer's declared message alphabet is a bound, not a size: at
    # 10**7 the per-message arrays sized by it took 172 MB in induce alone.
    wide = Quantizer(map=PIN_G.map, message_alphabet_size=10**7)
    tracemalloc.start()
    try:
        im = induce(PIN_MODEL, wide)
        induce_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = evaluator._symbol_llr_table(PIN_MODEL, wide)
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert induce_peak < 2**20 and table_peak < 2**20
    tight = induce(PIN_MODEL, PIN_G)
    for name in ("q0", "q1", "llr"):
        assert getattr(im, name).tolist() == getattr(tight, name).tolist()
    assert table.tolist() == evaluator._symbol_llr_table(PIN_MODEL, PIN_G).tolist()
    e = simulate(PIN_MODEL, _parallel1(wide), 40, num_trials=5000, seed=2)
    assert e == simulate(PIN_MODEL, _parallel1(PIN_G), 40, num_trials=5000, seed=2)


@pytest.mark.parametrize("kind", ["Tree", "SequentialFeedback2"])
def test_simulate_runs_in_bounded_memory(kind):
    # 20000 trials at n=3000 are 60M cells a hypothesis.  Whole chunks of
    # 1398 rows took 80-210 MB under tracemalloc; blocks of 43 rows, in
    # arrays each thread reuses, stay within a few MB.
    tracemalloc.start()
    try:
        simulate(PIN_MODEL, _pinned_strategy(kind), 3000, num_trials=20_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    weights=hs.lists(
        hs.one_of(hs.just(0.0), hs.floats(min_value=1e-9, max_value=1.0)), min_size=1, max_size=40
    ),
    scale=hs.one_of(hs.just(1.0), hs.floats(min_value=0.5, max_value=1.0)),
    extra=hs.lists(hs.integers(min_value=0, max_value=2**64 - 1), max_size=16),
)
@example(weights=[1.0, 0.0], scale=1.0, extra=[])
@example(weights=[1.0 - 2.0**-53, 2.0**-53], scale=1.0, extra=[])
def test_symbol_draw_matches_searchsorted(weights, scale, extra):
    # Zero-mass symbols repeat cdf entries; a scale below 1 leaves words
    # whose doubles are at and past cdf[-1], where the last symbol must
    # still be drawn.  Entries that reach 1 have no word on their side.
    # Words sit at each entry's step k << 11, just below it, and at both
    # ends of the range.
    pmf = np.asarray(weights)
    if pmf.sum() > 0.0:
        pmf = scale * pmf / pmf.sum()
    cdf = np.cumsum(pmf)
    k = cdf.size
    steps = [math.ceil(c * 2**53) << 11 for c in cdf]
    probes = {0, 2**64 - 1, *extra}
    probes.update(w + d for w in steps for d in (-1, 0) if 0 <= w + d < 2**64)
    words = np.array(sorted(probes), dtype=np.uint64).reshape(1, -1)
    dtype = np.min_scalar_type(2 * k - 1)
    out, step = np.empty(words.shape, dtype), np.empty(words.shape, dtype)
    got = evaluator._sample_symbols(evaluator._word_edges(cdf), words, out, step)
    assert got is out
    u = (words >> np.uint64(11)) * 2.0**-53
    np.testing.assert_array_equal(got, np.minimum(np.searchsorted(cdf, u, side="right"), k - 1))


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
