"""Architecture exponent searches and the staged-chain decay calculus."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from decdet import (
    DecayRateVector,
    HypothesisModel,
    InfeasibleRate,
    KINDS,
    Quantizer,
    UnsupportedFormulation,
    check_ordering,
    check_symmetric_rate_condition,
    chernoff_exponent,
    enumerate_quantizers,
    exponent_daisy_restricted,
    exponent_feedback_equivalent,
    exponent_parallel,
    exponent_tree,
    h_of_e,
    induce,
    likelihood_ratio_reduction,
    rate_function,
    reevaluate_exponent,
    validate_model,
)
from decdet.architectures import _candidates, _point_eval, _tree_diff
from conftest import random_model


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


def test_reevaluate_round_trip(table_model):
    rng = np.random.default_rng(19)
    models = [table_model] + [random_model(rng) for _ in range(4)]
    for m in models:
        for rep in (
            exponent_parallel(m),
            exponent_parallel(m, messages_per_sensor=2),
            exponent_daisy_restricted(m, r=0.5),
            exponent_tree(m, r=0.5),
        ):
            assert reevaluate_exponent(m, rep) == pytest.approx(rep.exponent, abs=1e-9)


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
    assert reevaluate_exponent(table_model, rep) == pytest.approx(rep.exponent, abs=1e-9)


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
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            exponent_daisy_restricted(table_model, r=bad)


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


def test_decay_rate_vector_validation():
    with pytest.raises(ValueError):
        DecayRateVector(e01=-0.1, e10=0.0, e00=0.0, e11=0.0)
    with pytest.raises(ValueError):
        DecayRateVector(e01=0.1, e10=0.0, e00=0.1, e11=0.0)
    with pytest.raises(ValueError):
        DecayRateVector(e01=0.0, e10=0.1, e00=0.0, e11=0.1)
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
    m = validate_model(HypothesisModel(pmf0=(0.5, 0.3, 0.2), pmf1=(0.5, 0.3, 0.2)))
    res = check_ordering(m, r=0.5)
    assert res["degenerate"]
    assert abs(res["parallel1"]) <= 1e-9
    assert abs(res["daisy_restricted"]) <= 1e-9


def test_symmetric_rate_condition_applies_to_mirror_model():
    # Binary model symmetric under swapping hypotheses: the llr under one
    # hypothesis matches the negated llr under the other, so the shortcut
    # that pins the threshold at zero is exact and chain equals tree.
    m = validate_model(HypothesisModel(pmf0=(0.8, 0.2), pmf1=(0.2, 0.8)))
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
_PINNED_STAGED = [
    (
        (110, 3, 2, 0.6, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.08984934294675445,
         "strategy": {"gamma": [0, 1, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 1, 1],
                      "t": -0.00309079135443019},
         "decay_rates": {"e01": 0.11713278244351708,
                         "e10": 0.12022357379794739,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.08984934294675445, "branch1": 0.08984934295419164},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.08950430689206705,
         "strategy": {"gamma": [0, 1, 1],
                      "delta0": [0, 1, 1],
                      "delta1": [0, 1, 1],
                      "t": -0.004830124681166123},
         "decay_rates": {"e01": 0.11629798306756926,
                         "e10": 0.12112810774873539,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.08950430689765172, "branch1": 0.08950430689206705},
         "note": ""},
    ),
    (
        (124, 4, 3, 0.6, "llr_monotone"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.059592648308201726,
         "strategy": {"gamma": [0, 1, 2, 2],
                      "delta0": [0, 1, 2, 0],
                      "delta1": [0, 1, 2, 2],
                      "t": 0.00184842480494205},
         "decay_rates": {"e01": 0.07986567601620218,
                         "e10": 0.07801725121126023,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.059592648308201726, "branch1": 0.059592648314912205},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.059592512815162105,
         "strategy": {"gamma": [0, 1, 2, 2],
                      "delta0": [0, 1, 2, 2],
                      "delta1": [0, 1, 2, 2],
                      "t": 0.001847777251279627},
         "decay_rates": {"e01": 0.07986534438422048,
                         "e10": 0.07801756713294085,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.05959251281934883, "branch1": 0.059592512815162105},
         "note": ""},
    ),
    (
        (103, 3, 2, 0.6, "all"),
        {"architecture": "DaisyRestricted",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.03895337801820536,
         "strategy": {"gamma": [0, 0, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 0, 1],
                      "t": -0.009305862782265441},
         "decay_rates": {"e01": 0.047465211710352555,
                         "e10": 0.05677107449261803,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.038953378025574636, "branch1": 0.03895337801820536},
         "note": ""},
        {"architecture": "Tree",
         "formulation": "Bayesian",
         "r": 0.6,
         "exponent": -0.03895337801820536,
         "strategy": {"gamma": [0, 0, 1],
                      "delta0": [0, 0, 1],
                      "delta1": [0, 0, 1],
                      "t": -0.009305862782265441},
         "decay_rates": {"e01": 0.047465211710352555,
                         "e10": 0.05677107449261803,
                         "e00": 0.0,
                         "e11": 0.0},
         "branch_values": {"branch0": 0.038953378025574636, "branch1": 0.03895337801820536},
         "note": ""},
    ),
]


@pytest.mark.parametrize("case,daisy,tree", _PINNED_STAGED)
def test_staged_reports_are_bit_identical(case, daisy, tree):
    seed, k, d, r, mode = case
    m = random_model(np.random.default_rng(seed), k=k)
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


def test_reevaluate_staged_report_needs_stage_fraction(table_model):
    rep = dataclasses.replace(exponent_daisy_restricted(table_model, r=0.5), r=None)
    with pytest.raises(ValueError):
        reevaluate_exponent(table_model, rep)
