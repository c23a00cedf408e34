"""Architecture exponent searches and the staged-chain decay calculus."""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from decdet import (
    DecayRateVector,
    HypothesisModel,
    InfeasibleRate,
    KINDS,
    OrderingViolation,
    Quantizer,
    Strategy,
    UnsupportedFormulation,
    check_ordering,
    check_symmetric_rate_condition,
    chernoff_exponent,
    enumerate_quantizers,
    exact_error,
    exponent_daisy_restricted,
    exponent_feedback_equivalent,
    exponent_parallel,
    exponent_tree,
    h_of_e,
    induce,
    likelihood_ratio_reduction,
    rate_function,
    reevaluate_exponent,
    strategy_from_report,
)
from decdet.architectures import (
    ONE_STAGE_KINDS,
    PARALLEL_EQUIVALENT,
    _Best,
    _bisect_crossing,
    _candidates,
    _point_eval,
    _search_staged,
    _staged_optima,
    _tree_diff,
)
from decdet.exponents import _chernoff_value
from conftest import edit_staged_reports, near_tied_models, random_model
from oracles import dense_staged_sup


def test_kinds_roster():
    assert set(KINDS) == {
        "Parallel1",
        "Parallel2",
        "SequentialFeedback2",
        "FullFeedback2",
        "RestrictedFeedback2",
        "OneMsgSequential",
        "DaisyFull",
        "DaisyRestricted",
        "Tree",
    }


def test_parallel_one_message_reference(table_model):
    rep = exponent_parallel(table_model, d=2, messages_per_sensor=1)
    assert rep.architecture == "Parallel1"
    assert rep.exponent == pytest.approx(-0.4573702918572308, abs=1e-9)
    assert rep.strategy["gamma"] == [0, 0, 1]


def test_parallel_two_message_equals_unquantized_chernoff():
    # With 2 bits per sensor a ternary alphabet fits losslessly, so the
    # joint search must recover the raw Chernoff exponent.
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = random_model(rng, k=3)
        rep = exponent_parallel(m, d=2, messages_per_sensor=2)
        c, _ = chernoff_exponent(likelihood_ratio_reduction(m))
        assert rep.exponent == pytest.approx(c, abs=1e-9)


def test_parallel_two_message_splits_recompose(table_model):
    from decdet import product_quantizer

    rep = exponent_parallel(table_model, d=2, messages_per_sensor=2)
    g = Quantizer(map=tuple(rep.strategy["gamma"]), message_alphabet_size=2)
    h = Quantizer(map=tuple(rep.strategy["delta0"]), message_alphabet_size=2)
    joint = product_quantizer(g, h)
    c, _ = chernoff_exponent(induce(table_model, joint))
    assert c == pytest.approx(rep.exponent, abs=1e-9)


def test_daisy_restricted_reference(table_model):
    rep = exponent_daisy_restricted(table_model, r=0.5)
    assert rep.exponent == pytest.approx(-0.3654394078662917, abs=1e-9)
    assert rep.strategy["gamma"] == [0, 0, 1]
    assert rep.strategy["delta0"] == [0, 0, 1]
    assert rep.strategy["delta1"] == [0, 1, 1]
    assert abs(rep.strategy["t"]) < 1e-6
    assert rep.decay_rates["e00"] == 0.0
    assert rep.decay_rates["e11"] == 0.0
    assert rep.decay_rates["e01"] == pytest.approx(0.4573702918572308, abs=1e-6)
    assert rep.decay_rates["e10"] == pytest.approx(0.4573702918572308, abs=1e-6)


def test_tree_reference(table_model):
    rep = exponent_tree(table_model, r=0.5)
    assert rep.exponent == pytest.approx(-0.3557912697508888, abs=1e-9)
    assert rep.strategy["gamma"] == [0, 0, 1]
    assert rep.strategy["delta0"] == rep.strategy["delta1"] == [0, 0, 1]
    assert rep.strategy["t"] == pytest.approx(0.06719535051177855, abs=1e-6)


def test_search_is_deterministic(table_model):
    a = exponent_tree(table_model, r=0.5)
    b = exponent_tree(table_model, r=0.5)
    assert a.to_json() == b.to_json()


# One report builder per kind; the feedback-equivalent kinds reduce to parallel.
_REPORTS = {
    "Parallel1": lambda m: exponent_parallel(m),
    "Parallel2": lambda m: exponent_parallel(m, messages_per_sensor=2),
    "DaisyRestricted": lambda m: exponent_daisy_restricted(m, r=0.5),
    "Tree": lambda m: exponent_tree(m, r=0.5),
    **{kind: (lambda m, kind=kind: exponent_feedback_equivalent(m, kind=kind)) for kind in PARALLEL_EQUIVALENT},
}


def test_reevaluate_round_trip(table_model):
    rng = np.random.default_rng(19)
    models = [table_model] + [random_model(rng) for _ in range(4)]
    for m in models:
        for build in _REPORTS.values():
            rep = build(m)
            assert reevaluate_exponent(m, rep) == pytest.approx(rep.exponent, abs=1e-9)
        # The staged search reports through the scalar solver that
        # reevaluate_exponent uses, so its reports round-trip exactly.
        for d in (2, 3):
            for r in (0.25, 0.5, 0.75):
                for rep in (exponent_daisy_restricted(m, r=r, d=d), exponent_tree(m, r=r, d=d)):
                    assert reevaluate_exponent(m, rep) == rep.exponent


def test_strategy_from_dict_applies_the_kind_rules(table_model):
    assert not hasattr(Strategy, "for_kind")
    g = {"gamma": [0, 0, 1]}
    # DaisyFull without second-stage maps: the chain that attains the
    # one-message parallel optimum, gamma in both stages.
    s = Strategy.from_dict("DaisyFull", g, r=0.5)
    assert (s.delta0, s.delta1, s.t, s.r) == (s.gamma, s.gamma, 0.0, 0.5)
    # t is dropped on one-stage kinds and defaults to 0 on the others; r is
    # dropped on kinds without stages.
    s = Strategy.from_dict("Parallel1", {"gamma": [0, 0, 1], "t": 0.3}, r=0.5, fusion_threshold=0.2)
    assert (s.t, s.r, s.fusion_threshold) == (None, None, 0.2)
    s = Strategy.from_dict("FullFeedback2", {**g, "delta0": [0, 1, 1], "delta1": [0, 0, 1]}, r=0.5)
    assert (s.t, s.r) == (0.0, None)
    with pytest.raises(ValueError, match="^FullFeedback2 takes no stage fraction r$"):
        Strategy(kind="FullFeedback2", gamma=s.gamma, delta0=s.delta0, delta1=s.delta1, t=0.0, r=0.5)
    s = Strategy.from_dict("Tree", {**g, "delta0": [0, 1, 1], "delta1": [0, 1, 1], "t": 0.3}, r=0.5, t=-0.1)
    assert (s.t, s.r) == (-0.1, 0.5)
    with pytest.raises(ValueError, match="both of delta0 and delta1 or neither"):
        Strategy.from_dict("Parallel1", {**g, "delta1": [0, 1, 1]})
    with pytest.raises(ValueError, match="needs a second-stage quantizer"):
        Strategy.from_dict("DaisyRestricted", g, r=0.5)
    # The one-message kinds other than Parallel2 read no second-stage map.
    for kind in ("Parallel1", "OneMsgSequential"):
        with pytest.raises(ValueError, match=f"{kind} takes no second-stage quantizer"):
            Strategy.from_dict(kind, {**g, "delta0": [0, 1, 1], "delta1": [0, 1, 1]})
        with pytest.raises(ValueError, match=f"{kind} takes no second-stage quantizer"):
            Strategy(kind=kind, gamma=Quantizer.from_labels([0, 0, 1]), delta1=Quantizer.from_labels([0, 1]))
    # Parallel2 sends delta0 as its second message: a delta1 with another
    # map is refused, and one with the same map under a larger declared
    # alphabet is the same quantizer.
    with pytest.raises(ValueError, match="delta1 must equal it"):
        Strategy.from_dict("Parallel2", {**g, "delta0": [0, 1, 1], "delta1": [0, 0, 1]})
    d1 = Quantizer(map=(0, 1, 1), message_alphabet_size=5)
    s = Strategy(kind="Parallel2", gamma=Quantizer.from_labels([0, 0, 1]), delta0=Quantizer.from_labels([0, 1, 1]),
                 delta1=d1)
    assert s.delta1 is d1
    # A Tree's second stage ignores the feedback bit, so its two maps agree
    # up to relabeling; one with two maps would be a restricted chain.
    with pytest.raises(ValueError, match="delta1 must equal delta0"):
        Strategy.from_dict("Tree", {**g, "delta0": [0, 0, 1], "delta1": [0, 1, 1]}, r=0.5)
    s = Strategy.from_dict("Tree", {**g, "delta0": [0, 0, 1], "delta1": [1, 1, 0]}, r=0.5)
    assert s.delta1.map == s.delta0.map == (0, 0, 1)
    # A DaisyFull report carries no stage fraction r.
    with pytest.raises(ValueError, match="stage fraction r"):
        strategy_from_report(exponent_feedback_equivalent(table_model, kind="DaisyFull"))


@pytest.mark.parametrize("kind", KINDS)
def test_strategy_dict_round_trip(table_model, kind):
    rep = _REPORTS[kind](table_model)
    assert rep.architecture == kind
    # A feedback-equivalent report holds its parallel kind's strategy.
    parsed = Strategy.from_dict(PARALLEL_EQUIVALENT.get(kind, (kind,))[0], rep.strategy, r=rep.r)
    assert parsed.to_dict() == rep.strategy


def test_feedback_kinds_reduce_to_parallel(table_model):
    one = exponent_parallel(table_model, messages_per_sensor=1)
    two = exponent_parallel(table_model, messages_per_sensor=2)
    for kind in ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2"):
        rep = exponent_feedback_equivalent(table_model, kind=kind)
        assert rep.architecture == kind
        assert rep.exponent == pytest.approx(two.exponent, abs=1e-12)
        assert rep.note
    for kind in ("OneMsgSequential", "DaisyFull"):
        rep = exponent_feedback_equivalent(table_model, kind=kind)
        assert rep.exponent == pytest.approx(one.exponent, abs=1e-12)
        assert rep.note


def test_neyman_pearson_parallel(table_model):
    rep = exponent_parallel(table_model, formulation="NeymanPearson")
    # Fixed false-alarm level: the best exponent is the smallest reachable
    # mean of the llr under hypothesis 0 over the quantizer family.
    want = min(
        induce(table_model, q).llr_mean(0)
        for q in enumerate_quantizers(table_model, 2, mode="llr_monotone")
    )
    assert rep.exponent == pytest.approx(want, abs=1e-12)
    assert rep.formulation == "NeymanPearson"


def test_neyman_pearson_staged_rejected(table_model):
    with pytest.raises(UnsupportedFormulation):
        exponent_daisy_restricted(table_model, r=0.5, formulation="NeymanPearson")
    with pytest.raises(UnsupportedFormulation):
        exponent_tree(table_model, r=0.5, formulation="NeymanPearson")
    with pytest.raises(UnsupportedFormulation):
        exponent_parallel(table_model, formulation="minimax")


def test_stage_fraction_bounds(table_model):
    # A missing or non-numeric r is bad input too, not a failed comparison.
    e = DecayRateVector(e01=0.1, e10=0.0, e00=0.0, e11=0.2)
    for bad in (0.0, 1.0, -0.2, 1.7, None, "0.5"):
        for call in (
            lambda: exponent_tree(table_model, bad),
            lambda: exponent_daisy_restricted(table_model, bad),
            lambda: h_of_e(table_model, bad, e),
            lambda: check_ordering(table_model, bad),
            lambda: check_symmetric_rate_condition(table_model, r=bad),
            lambda: Strategy.from_dict("Tree", {"gamma": [0, 0, 1], "delta0": [0, 1, 1], "delta1": [0, 1, 1]}, r=bad),
        ):
            with pytest.raises(ValueError, match=r"stage fraction r must lie in \(0, 1\), got"):
                call()


def test_message_size_is_an_integer_of_at_least_two():
    # A float d is refused, never truncated: d = 2.9 once gave the d = 2
    # staged report.  2.0 must not hit the cached d = 2 search either.
    m = HypothesisModel(pmf0=(0.4, 0.3, 0.2, 0.1), pmf1=(0.1, 0.2, 0.3, 0.4))
    e = DecayRateVector(e01=0.1, e10=0.0, e00=0.0, e11=0.2)
    exponent_daisy_restricted(m, 0.5, d=2)
    for call in (
        lambda: exponent_daisy_restricted(m, 0.5, d=2.9),
        lambda: exponent_daisy_restricted(m, 0.5, d=3.7),
        lambda: exponent_daisy_restricted(m, 0.5, d=2.0),
        lambda: exponent_tree(m, 0.5, d=1),
        lambda: check_ordering(m, 0.5, d=2.9),
        lambda: h_of_e(m, 0.5, e, d=2.9),
        lambda: exponent_parallel(m, d=2.5),
        lambda: exponent_parallel(m, d=2.5, messages_per_sensor=2),
        lambda: enumerate_quantizers(m, 3.0, "all"),
        lambda: enumerate_quantizers(m, 3.0),
        lambda: enumerate_quantizers(m, "3"),
    ):
        with pytest.raises(ValueError, match=r"message alphabet size d must be an integer of at least 2, got"):
            call()
    reports = []
    for d in (np.int64(3), 3):
        _staged_optima.cache_clear()
        reports.append(exponent_daisy_restricted(m, 0.5, d=d))
    assert reports[0] == reports[1]
    assert exponent_parallel(m, d=np.int64(3)) == exponent_parallel(m, d=3)


def test_daisy_approaches_parallel_for_thin_first_stage(table_model):
    par = exponent_parallel(table_model).exponent
    near = exponent_daisy_restricted(table_model, r=1e-3).exponent
    assert near == pytest.approx(par, abs=5e-3)
    # And the first stage always costs something relative to no split at all.
    assert near >= par - 1e-12


def test_report_serialization_order(table_model):
    rep = exponent_daisy_restricted(table_model, r=0.5)
    d = rep.to_dict()
    assert list(d.keys()) == [
        "architecture",
        "formulation",
        "r",
        "exponent",
        "strategy",
        "decay_rates",
        "branch_values",
        "note",
    ]
    assert list(d["strategy"].keys()) == ["gamma", "delta0", "delta1", "t"]
    assert json.loads(rep.to_json()) == json.loads(json.dumps(d))


def _attainable_decay(m, gamma, t, d=2):
    """Aggregator decay rates for a first-stage quantizer and threshold."""
    im = induce(m, gamma)
    l0 = rate_function(im, 0, t).value
    l1 = rate_function(im, 1, t).value
    e0, e1 = im.llr_mean(0), im.llr_mean(1)
    return DecayRateVector(
        e01=l0 if t >= e0 else 0.0,
        e00=l0 if t < e0 else 0.0,
        e10=l1 if t <= e1 else 0.0,
        e11=l1 if t > e1 else 0.0,
    )


def test_h_of_e_attains_the_search_value(table_model):
    rng = np.random.default_rng(29)
    for m in [table_model] + [random_model(rng) for _ in range(3)]:
        rep = exponent_daisy_restricted(m, r=0.5)
        e = DecayRateVector(**rep.decay_rates)
        for semantics in ("literal", "physical"):
            val, qb0, qb1 = h_of_e(m, 0.5, e, semantics=semantics)
            assert val == pytest.approx(-rep.exponent, abs=1e-9)
            assert qb0 is not None and qb1 is not None


def test_h_of_e_never_beats_the_search(table_model):
    # The chain exponent is the supremum of h over attainable decay
    # vectors, so no single vector can exceed it.
    rng = np.random.default_rng(31)
    for m in [table_model] + [random_model(rng) for _ in range(3)]:
        best = -exponent_daisy_restricted(m, r=0.5).exponent
        for gamma in enumerate_quantizers(m, 2, mode="llr_monotone"):
            im = induce(m, gamma)
            zmin, zmax = im.llr_support()
            for lam in (0.1, 0.35, 0.5, 0.8):
                t = zmin + lam * (zmax - zmin)
                e = _attainable_decay(m, gamma, t)
                val, _, _ = h_of_e(m, 0.5, e, semantics="physical")
                assert val <= best + 1e-9


def test_h_of_e_fixed_vector_value(table_model):
    e = DecayRateVector(e01=0.3, e10=0.0, e00=0.0, e11=0.2)
    lit, q0, q1 = h_of_e(table_model, 0.5, e, semantics="literal")
    phys, _, _ = h_of_e(table_model, 0.5, e, semantics="physical")
    assert lit == pytest.approx(0.22868514592861544, abs=1e-9)
    assert phys == pytest.approx(lit, abs=1e-9)
    assert q0.map == (0, 0, 1)


def test_h_of_e_infeasible_rates(table_model):
    # Both induced thresholds land outside every candidate llr support:
    # one branch wants an impossibly fast wrong-direction decay on each side.
    e = DecayRateVector(e01=50.0, e10=50.0, e00=0.0, e11=0.0)
    with pytest.raises(InfeasibleRate):
        h_of_e(table_model, 0.5, e, semantics="literal")
    # Physically the branch value saturates instead of blowing up.
    val, _, _ = h_of_e(table_model, 0.5, e, semantics="physical")
    assert math.isfinite(val)


def test_h_of_e_one_sided_infeasibility(table_model):
    e = DecayRateVector(e01=50.0, e10=0.0, e00=0.0, e11=0.0)
    val, q0, q1 = h_of_e(table_model, 0.5, e, semantics="literal")
    assert math.isfinite(val)
    assert q1 is None  # that branch has no feasible quantizer


def test_h_of_e_literal_skips_a_branch_neither_hypothesis_reaches(table_model):
    # e_j u = inf under both hypotheses makes that branch's threshold
    # inf - inf = NaN; the branch is infeasible, not an error.
    inf = math.inf
    phys, p0, p1 = h_of_e(table_model, 0.5, DecayRateVector(e01=0.0, e10=inf, e00=inf, e11=0.0), semantics="physical")
    # Neither semantics names a quantizer for a branch it cannot score.
    assert (p0, p1.map) == (None, (0, 0, 1))
    val, q0, q1 = h_of_e(table_model, 0.5, DecayRateVector(e01=0.0, e10=inf, e00=inf, e11=0.0), semantics="literal")
    assert (val, q0, q1.map) == (pytest.approx(phys, rel=1e-12), None, (0, 0, 1))
    val, q0, q1 = h_of_e(table_model, 0.5, DecayRateVector(e01=inf, e10=0.0, e00=0.0, e11=inf), semantics="literal")
    assert (val, q0.map, q1) == (pytest.approx(phys, rel=1e-12), (0, 0, 1), None)


def test_h_of_e_physical_names_no_quantizer_for_an_infinite_branch(table_model):
    # e00 = inf puts a0 at -inf, where every quantizer's branch value is
    # +inf; the other branch keeps its finite value and its quantizer.
    e = DecayRateVector(e01=0.0, e10=0.3, e00=math.inf, e11=0.0)
    val, q0, q1 = h_of_e(table_model, 0.5, e, semantics="physical")
    assert (q0, q1.map) == (None, (0, 0, 1))
    assert val == pytest.approx(h_of_e(table_model, 0.5, e, semantics="literal")[0], rel=1e-12)


def test_h_of_e_literal_uses_the_solvers_support_rule():
    # a0 sits 3e-12 above zmax of (0, 1, 1): inside a slack of 1e-12 of
    # max(1, |zmin|, |zmax|), outside the solver's 1e-12 of max(1, |zmax|),
    # so that quantizer's conjugate is +inf and must not be offered.
    m = HypothesisModel(pmf0=(0.9, 0.05, 0.05), pmf1=(0.01, 0.5, 0.49))
    _, zmax = induce(m, Quantizer(map=(0, 1, 1), message_alphabet_size=2)).llr_support()
    e = DecayRateVector(e01=4.4, e10=zmax + 3e-12, e00=0.0, e11=0.0)
    val, q0, q1 = h_of_e(m, 0.5, e, semantics="literal")
    assert val == pytest.approx(1.4814432542911775, rel=1e-12)
    assert (q0.map, q1.map) == ((0, 1, 0), (0, 1, 1))


def test_decay_rate_vector_validation():
    with pytest.raises(ValueError):
        DecayRateVector(e01=-0.1, e10=0.0, e00=0.0, e11=0.0)
    with pytest.raises(ValueError):
        DecayRateVector(e01=0.1, e10=0.0, e00=0.1, e11=0.0)
    with pytest.raises(ValueError):
        DecayRateVector(e01=0.0, e10=0.1, e00=0.0, e11=0.1)
    # Not a real number: a typed error, never a bare comparison failure.
    for bad in ("0.3", None, np.array([0.1, 0.2]), math.nan):
        with pytest.raises(ValueError, match="e10 must be a nonnegative real number, got"):
            DecayRateVector(e01=0.0, e10=bad, e00=0.0, e11=0.0)
    v = DecayRateVector(e01=0.3, e10=0.2, e00=0.0, e11=0.0)
    assert (v.e01, v.e10) == (0.3, 0.2)


def test_ordering_check_table(table_model):
    res = check_ordering(table_model, r=0.5)
    assert not res["degenerate"]
    assert res["tree"] >= res["daisy_restricted"] > res["parallel1"]
    assert res["daisy_restricted"] - res["parallel1"] >= 1e-9


def test_ordering_check_random_models():
    rng = np.random.default_rng(71)
    for _ in range(6):
        m = random_model(rng)
        for r in (0.25, 0.5, 0.75):
            res = check_ordering(m, r=r)
            assert res["tree"] >= res["daisy_restricted"] - 1e-12
            assert res["daisy_restricted"] > res["parallel1"]


def test_ordering_check_degenerate_model():
    m = HypothesisModel(pmf0=(0.5, 0.3, 0.2), pmf1=(0.5, 0.3, 0.2))
    res = check_ordering(m, r=0.5)
    assert res["degenerate"]
    assert abs(res["parallel1"]) <= 1e-9
    assert abs(res["daisy_restricted"]) <= 1e-9


def test_symmetric_rate_condition_applies_to_mirror_model():
    # Binary model symmetric under swapping hypotheses: the llr under one
    # hypothesis matches the negated llr under the other, so the shortcut
    # that pins the threshold at zero is exact and chain equals tree.
    m = HypothesisModel(pmf0=(0.8, 0.2), pmf1=(0.2, 0.8))
    res = check_symmetric_rate_condition(m)
    assert res["applies"]
    assert res["consistent"]
    assert res["daisy_exponent"] == pytest.approx(res["tree_exponent"], abs=1e-9)


def test_symmetric_rate_condition_fails_on_table(table_model):
    res = check_symmetric_rate_condition(table_model)
    assert not res["applies"]
    assert res["max_gap"] > 1e-3
    # No shortcut to cross-check when the condition fails.
    assert res["consistent"] is None


# Full staged reports (seed, K, d, r, mode) -> (DaisyRestricted, Tree), recorded
# before the threshold memo and the single-delta crossing bisection were
# added.  Those are pure work-saving changes, so every bit must stay put.
# The values were re-recorded once, when every report began to come from
# the one conjugate solver's point evaluation rather than a second pass of
# the old scalar solver: 93 of the 120 numbers moved, by at most 5.2e-15
# relative, and no map or threshold moved.
_PINNED_STAGED = [
    (
        (110, 3, 2, 0.6, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.08984934294675453,
         "strategy": {"gamma": [0, 1, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 1, 1],
                      "t": -0.00309079135443019},
         "decay_rates": {"e01": 0.11713278244351713,
                         "e10": 0.12022357379794743,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.08984934294675453, "branch1": 0.08984934295419165},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.08950430689206702,
         "strategy": {"gamma": [0, 1, 1],
                      "delta0": [0, 1, 1],
                      "delta1": [0, 1, 1],
                      "t": -0.004830124681166123},
         "decay_rates": {"e01": 0.11629798306756925,
                         "e10": 0.1211281077487355,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.08950430689765171, "branch1": 0.08950430689206702},
         "note": ""},
    ),
    (
        (124, 4, 3, 0.6, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.059592648308201705,
         "strategy": {"gamma": [0, 1, 2, 2],
                      "delta0": [0, 1, 2, 0],
                      "delta1": [0, 1, 2, 2],
                      "t": 0.00184842480494205},
         "decay_rates": {"e01": 0.07986567601620226,
                         "e10": 0.07801725121126021,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.059592648308201705, "branch1": 0.05959264831491225},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.05959251281516207,
         "strategy": {"gamma": [0, 1, 2, 2],
                      "delta0": [0, 1, 2, 2],
                      "delta1": [0, 1, 2, 2],
                      "t": 0.001847777251279627},
         "decay_rates": {"e01": 0.07986534438422033,
                         "e10": 0.0780175671329407,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.05959251281934881, "branch1": 0.05959251281516207},
         "note": ""},
    ),
    (
        (103, 3, 2, 0.6, "all"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.0389533780182053,
         "strategy": {"gamma": [0, 0, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 0, 1],
                      "t": -0.009305862782265441},
         "decay_rates": {"e01": 0.04746521171035255,
                         "e10": 0.05677107449261812,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.03895337802557463, "branch1": 0.0389533780182053},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.0389533780182053,
         "strategy": {"gamma": [0, 0, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 0, 1],
                      "t": -0.009305862782265441},
         "decay_rates": {"e01": 0.04746521171035255,
                         "e10": 0.05677107449261812,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.03895337802557463, "branch1": 0.0389533780182053},
         "note": ""},
    ),
    # d = 2 cases recorded before the closed-form two-atom conjugate took
    # over the search's decisions: K = 6, K = 4 with mode="all" (its
    # candidates hold the one-atom constant map), and the mirror-symmetric
    # table model (seed None), whose branch values tie up to rounding noise.
    (
        (131, 6, 2, 0.5, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.5,
         "exponent": -0.023108713278722416,
         "strategy": {"gamma": [0, 1, 0, 0, 0, 0],
                      "delta0": [0, 1, 0, 0, 0, 0],
                      "delta1": [0, 1, 0, 0, 0, 0],
                      "t": -0.003414560071400005},
         "decay_rates": {"e01": 0.0280167043268542,
                         "e10": 0.03143126439825425,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.02310871328067056, "branch1": 0.023108713278722416},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.5,
         "exponent": -0.023108713278722416,
         "strategy": {"gamma": [0, 1, 0, 0, 0, 0],
                      "delta0": [0, 1, 0, 0, 0, 0],
                      "delta1": [0, 1, 0, 0, 0, 0],
                      "t": -0.003414560071400005},
         "decay_rates": {"e01": 0.0280167043268542,
                         "e10": 0.03143126439825425,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.02310871328067056, "branch1": 0.023108713278722416},
         "note": ""},
    ),
    (
        (141, 4, 2, 0.4, "all"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.4,
         "exponent": -0.08403991128245542,
         "strategy": {"gamma": [0, 0, 1, 0],
                      "delta0": [0, 0, 1, 0],
                      "delta1": [0, 0, 1, 1],
                      "t": 0.019485340689108073},
         "decay_rates": {"e01": 0.11314433783602443,
                         "e10": 0.09365899714691632,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.08403991128291544, "branch1": 0.08403991128245542},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.4,
         "exponent": -0.08307323356319457,
         "strategy": {"gamma": [0, 0, 1, 0],
                      "delta0": [0, 0, 1, 0],
                      "delta1": [0, 0, 1, 0],
                      "t": 0.0290437390186934},
         "decay_rates": {"e01": 0.11896947540346746,
                         "e10": 0.08992573638477408,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.08307323356319457, "branch1": 0.08307323356354987},
         "note": ""},
    ),
    (
        (None, 3, 2, 0.5, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.5,
         "exponent": -0.3654394078662916,
         "strategy": {"gamma": [0, 0, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 1, 1],
                      "t": 1.3014331087439377e-11},
         "decay_rates": {"e01": 0.4573702918643473,
                         "e10": 0.45737029185133304,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.3654394078662916, "branch1": 0.3654394078705075},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.5,
         "exponent": -0.3557912697508888,
         "strategy": {"gamma": [0, 0, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 0, 1],
                      "t": 0.06719535051177855},
         "decay_rates": {"e01": 0.49463380236686016,
                         "e10": 0.42743845185508167,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.35579126975891034, "branch1": 0.3557912697508888},
         "note": ""},
    ),
    # d >= 3 cases recorded before the log-odds Newton kernel took over the
    # decisions on three or more atoms: K = 5, K = 4 with mode="all" (one-,
    # two- and three-atom candidates), K = 6, and K = 5 into four messages.
    (
        (131, 5, 3, 0.5, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.5,
         "exponent": -0.019861642065594584,
         "strategy": {"gamma": [0, 1, 2, 0, 2],
                      "delta0": [0, 1, 2, 0, 2],
                      "delta1": [0, 1, 2, 0, 2],
                      "t": -0.00048748043421385643},
         "decay_rates": {"e01": 0.0251895239046821,
                         "e10": 0.025677004338895956,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.01986164207172919, "branch1": 0.019861642065594584},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.5,
         "exponent": -0.019861642065594584,
         "strategy": {"gamma": [0, 1, 2, 0, 2],
                      "delta0": [0, 1, 2, 0, 2],
                      "delta1": [0, 1, 2, 0, 2],
                      "t": -0.00048748043421385643},
         "decay_rates": {"e01": 0.0251895239046821,
                         "e10": 0.025677004338895956,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.01986164207172919, "branch1": 0.019861642065594584},
         "note": ""},
    ),
    (
        (137, 4, 3, 0.35, "all"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.35,
         "exponent": -0.0531420022377393,
         "strategy": {"gamma": [0, 1, 1, 2],
                      "delta0": [0, 1, 1, 2],
                      "delta1": [0, 1, 1, 2],
                      "t": -0.010902304046811194},
         "decay_rates": {"e01": 0.058681145649380234,
                         "e10": 0.06958344969619143,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.0531420022377393, "branch1": 0.05314200224050325},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.35,
         "exponent": -0.0531420022377393,
         "strategy": {"gamma": [0, 1, 1, 2],
                      "delta0": [0, 1, 1, 2],
                      "delta1": [0, 1, 1, 2],
                      "t": -0.010902304046811194},
         "decay_rates": {"e01": 0.058681145649380234,
                         "e10": 0.06958344969619143,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.0531420022377393, "branch1": 0.05314200224050325},
         "note": ""},
    ),
    (
        (149, 6, 3, 0.7, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.7,
         "exponent": -0.39359358907895464,
         "strategy": {"gamma": [0, 1, 0, 1, 2, 1],
                      "delta0": [0, 1, 0, 1, 2, 1],
                      "delta1": [0, 1, 0, 2, 0, 1],
                      "t": -0.009590631870405833},
         "decay_rates": {"e01": 0.5255852903651304,
                         "e10": 0.5351759222355362,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.393593589085501, "branch1": 0.39359358907895464},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.7,
         "exponent": -0.39329753902928294,
         "strategy": {"gamma": [0, 1, 0, 1, 2, 1],
                      "delta0": [0, 1, 0, 1, 2, 1],
                      "delta1": [0, 1, 0, 1, 2, 1],
                      "t": -0.008532958386126374},
         "decay_rates": {"e01": 0.5261022430403977,
                         "e10": 0.534635201426524,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.3932975390362932, "branch1": 0.39329753902928294},
         "note": ""},
    ),
    (
        (151, 5, 4, 0.45, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.45,
         "exponent": -0.15342601811799123,
         "strategy": {"gamma": [0, 1, 2, 1, 3],
                      "delta0": [0, 1, 2, 1, 3],
                      "delta1": [0, 1, 2, 1, 3],
                      "t": -0.02249616014248062},
         "decay_rates": {"e01": 0.18214430140508864,
                         "e10": 0.20464046154756926,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.1534260181232013, "branch1": 0.15342601811799123},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.45,
         "exponent": -0.15342601811799123,
         "strategy": {"gamma": [0, 1, 2, 1, 3],
                      "delta0": [0, 1, 2, 1, 3],
                      "delta1": [0, 1, 2, 1, 3],
                      "t": -0.02249616014248062},
         "decay_rates": {"e01": 0.18214430140508864,
                         "e10": 0.20464046154756926,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.1534260181232013, "branch1": 0.15342601811799123},
         "note": ""},
    ),

]


@pytest.mark.parametrize("case,daisy,tree", _PINNED_STAGED)
def test_staged_reports_are_bit_identical(case, daisy, tree, table_model):
    seed, k, d, r, mode = case
    m = table_model if seed is None else random_model(np.random.default_rng(seed), k=k)
    assert exponent_daisy_restricted(m, r=r, d=d, mode=mode).to_dict() == daisy
    assert exponent_tree(m, r=r, d=d, mode=mode).to_dict() == tree


def test_single_delta_crossing_difference_is_exact(table_model):
    m4 = random_model(np.random.default_rng(124), k=4)
    for m, d, r in ((table_model, 2, 0.5), (m4, 3, 0.6)):
        cands = _candidates(m, d, "llr_monotone")
        for g in cands:
            for t in np.linspace(g.zmin, g.zmax, 9).tolist():
                p = _point_eval(g, cands, r, t)
                for k, dc in enumerate(cands):
                    assert _tree_diff(g, dc, r, t) == p.bv0[k] - p.bv1[k]


def test_rate_function_repeats_are_exact(table_model):
    q = Quantizer(map=(0, 1, 2), message_alphabet_size=3)
    im = induce(table_model, q)
    zmin, zmax = im.llr_support()
    ts = (0.0, zmin + 0.3 * (zmax - zmin), 0.5, zmin, zmax, zmin - 1.0, zmax + 1.0)
    for j in (0, 1):
        for t in ts:
            first = rate_function(im, j, t)
            assert rate_function(im, j, t) == first
            assert rate_function(im, j, t) == first
            # A freshly induced model starts with an empty constants memo.
            assert rate_function(induce(table_model, q), j, t) == first


def _counted_calls(monkeypatch, *names: str) -> dict[str, int]:
    # Calls that decdet.architectures makes to each of its module-level
    # names, counted from now on.
    import decdet.architectures as arch

    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(arch, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(arch, name, counted(name))
    return calls


def test_every_conjugate_goes_through_the_solver_entries(monkeypatch):
    # The staged search, reevaluate_exponent, h_of_e and exponent_parallel
    # reach the conjugate solver only through its entries, _rates,
    # rate_function, rate_function_grid and the Chernoff value's
    # _chernoff_value: every solver body runs inside one of their calls,
    # and architectures holds nothing else of exponents that solves.
    import decdet.architectures as arch
    import decdet.exponents as ex

    entries = ("_rates", "rate_function", "rate_function_grid", "_chernoff_value")
    held = {name for name, v in vars(arch).items() if getattr(v, "__module__", None) == ex.__name__}
    assert held == {*entries, "golden_section_min"}
    assert ex not in vars(arch).values()
    calls = _counted_calls(monkeypatch, *entries)
    inside, stray = [0], []

    def entry(fn):
        def wrapper(*args):
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1

        return wrapper

    def body(name):
        fn = getattr(ex, name)

        def wrapper(*args):
            if not inside[0]:
                stray.append(name)
            return fn(*args)

        return wrapper

    for name in entries:
        monkeypatch.setattr(arch, name, entry(getattr(arch, name)))
    for name in ("_conjugate", "_grid_edges", "_two_atom", "_newton", "_newton_grid"):
        monkeypatch.setattr(ex, name, body(name))
    m = random_model(np.random.default_rng(7), k=4)
    _staged_optima.cache_clear()
    for d in (2, 3):
        _search_staged(m, 0.45, d, "llr_monotone")
        assert calls["_rates"] > 0 and calls["rate_function_grid"] > 0
        for name in calls:
            calls[name] = 0
        rep = exponent_daisy_restricted(m, 0.45, d=d)
        assert reevaluate_exponent(m, rep) == rep.exponent
        e = DecayRateVector(**rep.decay_rates)
        h_of_e(m, 0.45, e, d=d, semantics="physical")
        assert calls["_rates"] > 0
        before = calls["rate_function"]
        h_of_e(m, 0.45, e, d=d, semantics="literal")
        assert calls["rate_function"] > before
        exponent_parallel(m, d=d)
        assert calls["_chernoff_value"] > 0
    assert not stray


@pytest.mark.parametrize("d,work", [(3, (471, 830, 8_444, 171, 156)), (2, (296, 327, 3_438, 209, 72))])
def test_staged_search_work_is_pinned(monkeypatch, d, work):
    # A search that stops reusing its point memo, or the single-delta
    # crossing difference, reports the same optima and only does more work.
    # A change to the threshold search that moves these counts re-pins them
    # and says so.
    names = ("_point_eval", "_tree_diff", "_rates", "rate_function", "rate_function_grid")
    calls = _counted_calls(monkeypatch, *names)
    m = random_model(np.random.default_rng(5), k=5)
    _staged_optima.cache_clear()
    _search_staged(m, 0.5, d, "llr_monotone")
    assert tuple(calls[name] for name in names) == work


@pytest.mark.parametrize(
    "seed,k,d,r",
    [(seed, 3 + seed % 4, 2 + seed // 4, r) for seed, r in enumerate((0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.5))],
)
def test_staged_search_is_no_worse_than_a_dense_threshold_sweep(seed, k, d, r):
    # The slow oracle of the sup over t: both objectives on 10,001 evenly
    # spaced thresholds per gamma, without any refinement.  A refinement
    # that loses a peak reports a value below the dense one.
    m = random_model(np.random.default_rng(seed), k=k)
    daisy, tree = dense_staged_sup(m, r, d, "llr_monotone", 10_001)
    assert -exponent_daisy_restricted(m, r=r, d=d).exponent >= daisy - 1e-12
    assert -exponent_tree(m, r=r, d=d).exponent >= tree - 1e-12


def test_reevaluate_staged_report_needs_stage_fraction(table_model):
    rep = dataclasses.replace(exponent_daisy_restricted(table_model, r=0.5), r=None)
    with pytest.raises(ValueError):
        reevaluate_exponent(table_model, rep)


def _edited(report, drop=(), **changes):
    strategy = {k: v for k, v in report.strategy.items() if k not in drop}
    return dataclasses.replace(report, strategy={**strategy, **changes})


@pytest.mark.parametrize(
    "build",
    [
        lambda m: _edited(exponent_parallel(m), gamma=None),
        lambda m: _edited(exponent_daisy_restricted(m, r=0.5), gamma=None),
        lambda m: _edited(exponent_parallel(m, messages_per_sensor=2), drop=("delta0",)),
        lambda m: _edited(exponent_tree(m, r=0.5), t=None),
        lambda m: _edited(exponent_parallel(m), gamma=[0, 0.5, 1]),
        lambda m: _edited(exponent_daisy_restricted(m, r=0.5), drop=("delta1",)),
    ],
    ids=[
        "parallel1-gamma-none",
        "daisy-gamma-none",
        "parallel2-no-delta0",
        "tree-t-none",
        "float-label",
        "daisy-no-delta1",
    ],
)
def test_reevaluate_rejects_incomplete_strategy(table_model, build):
    with pytest.raises(ValueError):
        reevaluate_exponent(table_model, build(table_model))


def test_staged_search_builds_one_decay_vector_per_report(monkeypatch, table_model):
    # The search carries decay rates as plain floats; only the two winners,
    # one per staged kind, get a DecayRateVector.
    built = []
    check = DecayRateVector.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(DecayRateVector, "__post_init__", counted)
    m5 = random_model(np.random.default_rng(5), k=5)
    for search in (lambda: exponent_daisy_restricted(table_model, r=0.5), lambda: exponent_tree(m5, r=0.5, d=3)):
        _staged_optima.cache_clear()
        built.clear()
        search()
        assert len(built) == 2


def test_staged_search_is_shared_by_equal_models(table_model):
    twin = HypothesisModel(pmf0=table_model.pmf0.copy(), pmf1=table_model.pmf1.copy())
    first = _search_staged(table_model, 0.35, 2, "llr_monotone")
    hits = _staged_optima.cache_info().hits
    again = _search_staged(twin, 0.35, 2, "llr_monotone")
    assert _staged_optima.cache_info().hits == hits + 1
    assert again is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0].value = 0.0


def test_editing_a_staged_report_leaves_the_cache_unchanged(table_model):
    # Each call gets its own copy of the cached report: edits to its dicts
    # reach neither the next call nor the checks that read the cache.
    ordering = check_ordering(table_model, 0.5)
    symmetric = check_symmetric_rate_condition(table_model, r=0.5)
    for search in (exponent_daisy_restricted, exponent_tree):
        rep = search(table_model, 0.5)
        want = rep.to_dict()
        rep.strategy["delta0"][:] = [0, 1, 2]
        rep.strategy["t"] = 9.0
        rep.decay_rates["e01"] = -1.0
        rep.branch_values["branch0"] = 0.0
        assert search(table_model, 0.5).to_dict() == want
        assert check_ordering(table_model, 0.5) == ordering
        assert check_symmetric_rate_condition(table_model, r=0.5) == symmetric


@pytest.mark.parametrize("r", [np.float32(0.3), Fraction(3, 10)], ids=["float32", "fraction"])
def test_staged_layer_reads_each_real_input_as_a_float(table_model, r):
    # NumPy keeps float32 where a float32 meets a Python float, and json
    # refuses a float32 or a Fraction, so each real input is read as a
    # float: every answer equals the float one exactly.
    for search in (exponent_daisy_restricted, exponent_tree):
        rep, want = search(table_model, r), search(table_model, float(r))
        assert rep == want and type(rep.r) is float
        assert json.loads(rep.to_json()) == json.loads(want.to_json())
        assert reevaluate_exponent(table_model, rep) == want.exponent
        t = np.float32(rep.strategy["t"])
        got, want_t = (
            reevaluate_exponent(table_model, dataclasses.replace(rep, strategy={**rep.strategy, "t": v}))
            for v in (t, float(t))
        )
        assert type(got) is float and got == want_t
    rates = (0.0, 0.2, 0.3, 0.0)
    e = DecayRateVector(*map(np.float32, rates))
    assert all(type(v) is float for v in dataclasses.astuple(e))
    want = h_of_e(table_model, float(r), DecayRateVector(*(float(np.float32(v)) for v in rates)), semantics="physical")
    got = h_of_e(table_model, r, e, semantics="physical")
    assert got == want and type(got[0]) is float
    s = Strategy("Tree", Quantizer.from_labels([0, 0, 1]), Quantizer.from_labels([0, 1, 1]), t=np.float32(0.1), r=r,
                 fusion_threshold=np.float32(-0.2))
    assert (s.t, s.r, s.fusion_threshold) == (float(np.float32(0.1)), float(r), float(np.float32(-0.2)))
    assert all(type(v) is float for v in (s.t, s.r, s.fusion_threshold))
    assert Strategy("Tree", s.gamma, s.delta0, t=-math.inf, r=r).t == -math.inf


def _daisy_exponent(exponent):
    return lambda daisy, tree: (dataclasses.replace(daisy, exponent=exponent), tree)


def test_ordering_check_raises_on_each_violation(monkeypatch, table_model):
    tree = exponent_tree(table_model, 0.5).exponent
    par = exponent_parallel(table_model).exponent
    with monkeypatch.context() as mp:
        edit_staged_reports(mp, _daisy_exponent(tree + 1e-6))
        with pytest.raises(OrderingViolation) as exc:
            check_ordering(table_model, 0.5)
        assert str(exc.value) == f"tree exponent {tree} below staged-chain exponent {tree + 1e-6}"
    with monkeypatch.context() as mp:
        edit_staged_reports(mp, _daisy_exponent(par + 1e-10))
        with pytest.raises(OrderingViolation) as exc:
            check_ordering(table_model, 0.5)
        assert str(exc.value) == f"staged chain ({par + 1e-10}) must be strictly worse than parallel ({par})"
    flat = HypothesisModel(pmf0=(0.5, 0.3, 0.2), pmf1=(0.5, 0.3, 0.2))
    assert check_ordering(flat, 0.5)["degenerate"]
    with monkeypatch.context() as mp:
        edit_staged_reports(mp, _daisy_exponent(-1e-6))
        with pytest.raises(OrderingViolation) as exc:
            check_ordering(flat, 0.5)
        assert str(exc.value) == "indistinguishable hypotheses must give zero exponents"


def test_symmetric_rate_check_reads_the_tree_reports_map(monkeypatch, table_model):
    # The identity map of the mirror-symmetric table model has mirror-image
    # rates; the tree's reported (0, 0, 1) does not.
    assert check_symmetric_rate_condition(table_model)["witness"] == [0, 0, 1]
    edit_staged_reports(
        monkeypatch,
        lambda daisy, tree: (
            dataclasses.replace(daisy, exponent=0.0),
            dataclasses.replace(tree, strategy={**tree.strategy, "delta0": [0, 1, 2]}),
        ),
    )
    res = check_symmetric_rate_condition(table_model)
    assert (res["witness"], res["applies"], res["consistent"], res["daisy_exponent"]) == ([0, 1, 2], True, False, 0.0)
    assert res["tree_exponent"] == exponent_tree(table_model, 0.5).exponent


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda m: exponent_parallel(m, messages_per_sensor=3), "messages_per_sensor must be 1 or 2"),
        (
            lambda m: exponent_feedback_equivalent(m, kind="Tree"),
            "'Tree' is not a feedback-equivalent architecture kind",
        ),
        (
            lambda m: h_of_e(m, 0.5, DecayRateVector(0.0, 0.1, 0.2, 0.0), semantics="exact"),
            "unknown semantics: 'exact'",
        ),
    ],
    ids=["messages-per-sensor", "feedback-kind", "semantics"],
)
def test_searches_reject_unknown_options(table_model, call, message):
    with pytest.raises(ValueError) as exc:
        call(table_model)
    assert (exc.type, str(exc.value)) == (ValueError, message)


def test_crossing_bisection_returns_an_exact_zero():
    # The midpoint 0.25 of [0, 0.5] is the root itself: the bisection
    # returns it at once, after probing 0, 0.5 and 0.25.
    probes = []

    def diff(t):
        probes.append(t)
        return t - 0.25

    assert _bisect_crossing(diff, 0.0, 1.0) == 0.25
    assert probes == [0.0, 0.5, 0.25]


# pmf1 is pmf0 reversed, so every map has a mirror twin with the same
# Chernoff value up to rounding; [0, 0, 0, 1, 1] and [0, 0, 1, 1, 1] are the
# optimal pair, and the larger map is 1 ulp lower.
_MIRROR_PMF0 = (0.18665256000226096, 0.14817231948955542, 0.5497833810364157, 0.06178872449162648, 0.05360301498014156)


def test_parallel_noise_tie_goes_to_smallest_map():
    m = HypothesisModel(pmf0=_MIRROR_PMF0, pmf1=_MIRROR_PMF0[::-1])
    rep = exponent_parallel(m, d=2)
    assert rep.strategy["gamma"] == [0, 0, 0, 1, 1]
    assert rep.exponent == -0.037187770085769775


@settings(max_examples=40, deadline=None, derandomize=True)
@given(raw=hs.lists(hs.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=5))
def test_parallel_report_is_smallest_map_among_noise_ties(raw):
    p0 = np.asarray(raw) / sum(raw)
    m = HypothesisModel(pmf0=p0, pmf1=p0[::-1])
    values = {q.map: _chernoff_value(induce(m, q)) for q in enumerate_quantizers(m, 2, "llr_monotone")}
    best = min(values.values())
    want = min(key for key, v in values.items() if v <= best + 1e-9)
    assert exponent_parallel(m, d=2).strategy["gamma"] == list(want)


def test_parallel_value_from_one_solve_matches_the_golden_section():
    # exponent_parallel reads each candidate's Chernoff value from one
    # conjugate solve; chernoff_exponent's golden section gives the same
    # values to 1e-13 and the same winning map, on 200 random models
    # (K 3-7, d 2-3, one and two messages a sensor) and the near-tied sweep.
    rng = np.random.default_rng(25)
    models = [random_model(rng, k=int(rng.integers(3, 8))) for _ in range(200)] + near_tied_models()
    for i, m in enumerate(models):
        d, msgs = 2 + i % 2, 1 + (i // 2) % 2
        rep = exponent_parallel(m, d=d, messages_per_sensor=msgs)
        best = _Best()
        for q in enumerate_quantizers(m, d * d if msgs == 2 else d):
            best.offer(-chernoff_exponent(induce(m, q))[0], q.map, q)
        assert abs(rep.exponent - min(-best.value, 0.0)) <= 1e-13, (i, rep.exponent, best.value)
        assert [q.map for q in _partitions(rep)] == [best.key], i


def test_parallel_value_needs_the_llr_means_to_straddle_zero():
    # Float LLRs (-1.78e-15, 0.0): both float means are -1.8e-17, so on
    # [0, 1] L_0 is least at an end, where it is 0.  R_0(0) reads the upper
    # edge, -log(0.99), which no s in [0, 1] attains.
    m = HypothesisModel(pmf0=(0.01, 0.99), pmf1=(0.00999999999999999, 0.99))
    im = induce(m, Quantizer(map=(0, 1), message_alphabet_size=2))
    assert im.llr_mean(0) < 0.0 and im.llr_mean(1) < 0.0
    assert rate_function(im, 0, 0.0).value == -math.log(0.99)
    assert _chernoff_value(im) == 0.0
    assert abs(chernoff_exponent(im)[0]) <= 1e-15
    assert exponent_parallel(m, d=2).exponent == 0.0


def _partitions(rep) -> list[Quantizer]:
    # The symbol partitions a report names: one joint map for a one-stage
    # strategy (its split into two messages is not unique), else each
    # stage's map.
    s = Strategy.from_dict(PARALLEL_EQUIVALENT.get(rep.architecture, (rep.architecture,))[0], rep.strategy, r=rep.r)
    return [s.joint] if s.kind in ONE_STAGE_KINDS else [s.gamma, s.delta0, s.delta1]


def _oracle_models() -> list[tuple[HypothesisModel, np.ndarray]]:
    # Twelve seeded models, K 3-5, each with a permutation of its symbols.
    rng = np.random.default_rng(83)
    out = []
    for k in (3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5):
        m = random_model(rng, k=k)
        out.append((m, rng.permutation(k)))
    return out


def _bayesian_builders(d: int) -> list:
    # The Bayesian report of every kind at message alphabet size d.
    builders = [functools.partial(exponent_parallel, d=d, messages_per_sensor=msgs) for msgs in (1, 2)]
    builders += [functools.partial(exponent_feedback_equivalent, d=d, kind=kind) for kind in PARALLEL_EQUIVALENT]
    builders += [functools.partial(search, r=0.5, d=d) for search in (exponent_daisy_restricted, exponent_tree)]
    return builders


def test_reports_ignore_the_symbol_labels():
    # Relabelling the observation symbols relabels every reported map and
    # leaves every exponent, and the exact errors of the relabelled
    # strategy, unchanged up to summation order.
    for m, perm in _oracle_models():
        mp = HypothesisModel(pmf0=m.pmf0[perm], pmf1=m.pmf1[perm])

        def relabel(q: Quantizer) -> Quantizer:
            return Quantizer(map=tuple(q.map[x] for x in perm), message_alphabet_size=q.message_alphabet_size)

        for d in (2, 3):
            builders = _bayesian_builders(d) + [
                functools.partial(exponent_parallel, d=d, formulation="NeymanPearson", messages_per_sensor=msgs)
                for msgs in (1, 2)
            ]
            for build in builders:
                a, b = build(m), build(mp)
                assert abs(a.exponent - b.exponent) <= 1e-12 * abs(a.exponent), (m, d, build)
                assert [relabel(q).map for q in _partitions(a)] == [q.map for q in _partitions(b)]
        st = strategy_from_report(exponent_parallel(m))
        stp = dataclasses.replace(st, gamma=relabel(st.gamma))
        for n in (30, 200):
            e, ep = exact_error(m, st, n), exact_error(mp, stp, n)
            assert ep.p_e0 == pytest.approx(e.p_e0, rel=1e-12, abs=0.0)
            assert ep.p_e1 == pytest.approx(e.p_e1, rel=1e-12, abs=0.0)


def test_reports_are_symmetric_in_the_hypotheses():
    # Swapping pmf0 and pmf1 negates every LLR.  The Bayesian exponent of
    # every kind stays; a staged report keeps gamma, and its aggregator bit
    # flips, so delta0 and delta1 trade and t goes to -t; a parallel rule
    # cut at -threshold swaps the two error probabilities (0.137 keeps the
    # cut off every class's LLR, so no tie decides differently).
    for m, _ in _oracle_models():
        ms = HypothesisModel(pmf0=m.pmf1, pmf1=m.pmf0)
        for d in (2, 3):
            for build in _bayesian_builders(d):
                a, b = build(m), build(ms)
                assert abs(a.exponent - b.exponent) <= 1e-10, (m, d, build)
                if a.architecture in ("DaisyRestricted", "Tree"):
                    sa, sb = a.strategy, b.strategy
                    assert (sb["gamma"], sb["delta0"], sb["delta1"]) == (sa["gamma"], sa["delta1"], sa["delta0"])
                    assert abs(sb["t"] + sa["t"]) <= 1e-9, (m, d, build)
        st = dataclasses.replace(strategy_from_report(exponent_parallel(m)), fusion_threshold=0.137)
        sts = dataclasses.replace(st, fusion_threshold=-0.137)
        for n in (30, 200):
            e, es = exact_error(m, st, n), exact_error(ms, sts, n)
            assert es.p_e0 == pytest.approx(e.p_e1, rel=1e-12, abs=0.0)
            assert es.p_e1 == pytest.approx(e.p_e0, rel=1e-12, abs=0.0)
