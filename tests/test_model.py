"""Model validation, induced distributions, and quantizer enumeration."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from decdet import (
    HypothesisModel,
    InducedModel,
    NotAProbability,
    Quantizer,
    ShapeMismatch,
    SupportMismatch,
    enumerate_quantizers,
    identity_quantizer,
    induce,
    likelihood_ratio_reduction,
    load_model,
    parse_model_text,
    product_quantizer,
    split_product_quantizer,
)
from oracles import brute_force_quantizers


def test_validate_accepts_simplex_pair():
    m = HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.1, 0.9))
    assert m.alphabet_size == 2
    assert not m.pmf0.flags.writeable
    assert not m.pmf1.flags.writeable


def test_validate_rejects_bad_sum():
    with pytest.raises(NotAProbability):
        HypothesisModel(pmf0=(0.5, 0.4), pmf1=(0.5, 0.5))


def test_validate_rejects_negative_mass():
    with pytest.raises(NotAProbability):
        HypothesisModel(pmf0=(1.2, -0.2), pmf1=(0.5, 0.5))


def test_validate_rejects_one_sided_support():
    with pytest.raises(SupportMismatch) as exc:
        HypothesisModel(pmf0=(1.0, 0.0), pmf1=(0.5, 0.5))
    assert "mutually absolutely continuous" in str(exc.value)


@pytest.mark.parametrize("pmf0,pmf1,error", [
    ((0.5, 0.4), (0.5, 0.5), NotAProbability),
    ((1.2, -0.2), (0.5, 0.5), NotAProbability),
    ((math.nan, 1.0), (0.5, 0.5), NotAProbability),
    ((0.5, 0.5), (math.inf, 0.5), NotAProbability),
    ((0.5, 0.5), (1.0, 0.0), SupportMismatch),
])
def test_construction_checks_the_model(pmf0, pmf1, error):
    # No invalid model can exist, so no entry point has to remember a check.
    with pytest.raises(error):
        HypothesisModel(pmf0=pmf0, pmf1=pmf1)


def test_validate_rejects_length_mismatch():
    with pytest.raises(ShapeMismatch):
        HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.2, 0.3, 0.5))


def test_validate_allows_jointly_dead_symbol():
    # A symbol with zero mass under both hypotheses never occurs; it is
    # dropped at induction time rather than rejected here.
    m = HypothesisModel(pmf0=(0.5, 0.5, 0.0), pmf1=(0.3, 0.7, 0.0))
    im = induce(m, identity_quantizer(m))
    assert im.alphabet_size == 2
    np.testing.assert_allclose(im.q0, [0.5, 0.5])
    np.testing.assert_allclose(im.q1, [0.3, 0.7])


def test_induce_table_columns(table_model):
    im = induce(table_model, Quantizer(map=(0, 0, 1), message_alphabet_size=2))
    np.testing.assert_allclose(im.q0, [0.95, 0.05], atol=1e-15)
    np.testing.assert_allclose(im.q1, [0.20, 0.80], atol=1e-15)
    np.testing.assert_allclose(
        im.llr, [math.log(0.20 / 0.95), math.log(0.80 / 0.05)], atol=1e-15
    )

    im = induce(table_model, Quantizer(map=(0, 1, 1), message_alphabet_size=2))
    np.testing.assert_allclose(im.q0, [0.80, 0.20], atol=1e-15)
    np.testing.assert_allclose(im.q1, [0.05, 0.95], atol=1e-15)


def test_induce_identity_is_model(table_model):
    im = induce(table_model, identity_quantizer(table_model))
    np.testing.assert_allclose(im.q0, table_model.pmf0)
    np.testing.assert_allclose(im.q1, table_model.pmf1)


def test_quantizer_canonical_form():
    q = Quantizer(map=(2, 2, 0), message_alphabet_size=3)
    assert q.map == (0, 0, 1)
    assert q.num_cells == 2
    assert Quantizer(map=(1, 1, 0), message_alphabet_size=2) == Quantizer(
        map=(0, 0, 1), message_alphabet_size=2
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    labels=hs.lists(hs.integers(min_value=0, max_value=3), min_size=1, max_size=8),
    perm=hs.permutations(list(range(4))),
)
def test_quantizer_relabeling_invariance(labels, perm):
    # Renaming message labels never changes the canonical map.
    a = Quantizer(map=tuple(labels), message_alphabet_size=4)
    b = Quantizer(map=tuple(perm[v] for v in labels), message_alphabet_size=4)
    assert a.map == b.map


def test_quantizer_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        Quantizer(map=(0, 2), message_alphabet_size=2)


@pytest.mark.parametrize("labels,size", [((0, 1.5, 2.7), 3), ((0, 1, 1), 2.9), ((0, "1"), 2), (None, 2)])
def test_quantizer_rejects_what_is_not_an_integer(labels, size):
    # A float label or size is refused, as by from_labels, not truncated.
    with pytest.raises(ValueError, match="integers"):
        Quantizer(map=labels, message_alphabet_size=size)


def test_quantizer_takes_numpy_integers():
    q = Quantizer(map=tuple(np.array([2, 2, 0])), message_alphabet_size=np.int64(3))
    assert q == Quantizer(map=(0, 0, 1), message_alphabet_size=3)
    assert {type(v) for v in (*q.map, q.message_alphabet_size)} == {int}


@pytest.mark.parametrize(
    "labels,expected",
    [
        ([2, 2, 0], Quantizer(map=(0, 0, 1), message_alphabet_size=3)),
        ((0, 1, 1), Quantizer(map=(0, 1, 1), message_alphabet_size=2)),
        (np.array([3, 0, 3]), Quantizer(map=(0, 1, 0), message_alphabet_size=4)),
        (None, ValueError),
        ([], ValueError),
        ([0, 1.5], ValueError),
        (["0", "1"], ValueError),
    ],
)
def test_quantizer_from_labels(labels, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            Quantizer.from_labels(labels)
    else:
        q = Quantizer.from_labels(labels)
        assert q == expected
        assert q.message_alphabet_size == expected.message_alphabet_size


def test_product_and_split_share_partition():
    g = Quantizer(map=(0, 0, 1), message_alphabet_size=2)
    h = Quantizer(map=(0, 1, 1), message_alphabet_size=2)
    joint = product_quantizer(g, h)
    assert joint.num_cells == 3  # pairs (0,0), (0,1), (1,1)
    first, second = split_product_quantizer(joint, 2)
    # The split components realize the same joint partition even though the
    # canonical relabeling may change the individual maps.
    assert product_quantizer(first, second).map == joint.map


def test_enumerate_monotone_table(table_model):
    maps = sorted(q.map for q in enumerate_quantizers(table_model, 2, mode="llr_monotone"))
    assert maps == [(0, 0, 1), (0, 1, 1)]


def test_enumerate_all_counts(table_model):
    # Restricted-growth strings over 3 symbols with at most 2 labels.
    qs = enumerate_quantizers(table_model, 2, mode="all")
    assert len(qs) == 4
    assert len(set(q.map for q in qs)) == 4
    monotone = set(q.map for q in enumerate_quantizers(table_model, 2, mode="llr_monotone"))
    assert monotone <= set(q.map for q in qs)
    # Candidate order picks ties, so "all" must come out sorted by map.
    for k in range(3, 7):
        m = HypothesisModel(pmf0=np.full(k, 1.0 / k), pmf1=np.arange(1, k + 1) / (k * (k + 1) / 2))
        for d in (2, 3, 4):
            maps = [q.map for q in enumerate_quantizers(m, d, mode="all")]
            assert maps == sorted(maps)


def test_enumerate_monotone_cell_count():
    # With d message labels and k >= d distinct llr values, every monotone
    # quantizer uses exactly d nonempty cells.
    m = HypothesisModel(pmf0=(0.4, 0.3, 0.2, 0.1), pmf1=(0.1, 0.2, 0.3, 0.4))
    for d in (2, 3):
        for q in enumerate_quantizers(m, d, mode="llr_monotone"):
            assert q.num_cells == min(d, m.alphabet_size)


def test_enumerate_monotone_tied_llrs():
    # Symbols 0 and 1 carry the same llr; the tie can be kept together or
    # split across the boundary, and symbol 2 sits alone on the other side.
    m = HypothesisModel(pmf0=(0.2, 0.2, 0.6), pmf1=(0.3, 0.3, 0.4))
    maps = set(q.map for q in enumerate_quantizers(m, 2, mode="llr_monotone"))
    assert maps == {(0, 0, 1), (0, 1, 0), (0, 1, 1)}


def test_enumerate_monotone_cells_are_llr_intervals():
    rng = np.random.default_rng(5)
    from conftest import random_model

    for _ in range(10):
        m = random_model(rng, k=5)
        llr = np.log(m.pmf1 / m.pmf0)
        for q in enumerate_quantizers(m, 2, mode="llr_monotone"):
            for x in range(5):
                for y in range(5):
                    if q.map[x] != q.map[y] or llr[x] >= llr[y]:
                        continue
                    # Everything strictly between two same-cell symbols
                    # must share their cell.
                    between = [
                        z
                        for z in range(5)
                        if llr[x] < llr[z] < llr[y]
                    ]
                    assert all(q.map[z] == q.map[x] for z in between)


def _tied_model(rng: np.random.Generator, k: int, zero_mass: bool) -> HypothesisModel:
    # LLR ratios drawn from {0.5, 1, 2} tie symbols; a zero-mass symbol
    # takes LLR 0 in the tie grouping.
    p0 = rng.dirichlet(np.ones(k))
    if zero_mass:
        p0[rng.integers(k)] = 0.0
        p0 /= p0.sum()
    p1 = p0 * rng.choice([0.5, 1.0, 2.0], size=k)
    return HypothesisModel(pmf0=p0, pmf1=p1 / p1.sum())


def test_enumerate_matches_brute_force_oracle():
    # Candidate order decides search ties, so the lists must agree in order.
    rng = np.random.default_rng(23)
    # Here the zero-mass symbol 1 ties with symbol 2, whose LLR is 0.
    models = [HypothesisModel(pmf0=(0.5, 0.0, 0.2, 0.3), pmf1=(0.2, 0.0, 0.2, 0.6))]
    for i in range(60):
        k = int(rng.integers(1, 7))
        models.append(_tied_model(rng, k, zero_mass=k > 1 and i % 3 == 0))
    for m in models:
        for d in (2, 3, 4):
            for mode in ("llr_monotone", "all"):
                assert enumerate_quantizers(m, d, mode) == brute_force_quantizers(m, d, mode), (m, d, mode)


@pytest.mark.parametrize("k", [8, 10])
def test_enumerate_all_tied_model_gives_every_partition(k):
    # With every LLR tied, any partition into min(d, K) cells is an interval
    # rule for some order of the symbols, so the monotone list is the
    # exhaustive list cut to that cell count, in the same order: the
    # Stirling numbers S(K, d), 34,105 at K = 10, d = 4.
    u = np.full(k, 1.0 / k)
    m = HypothesisModel(pmf0=u, pmf1=u)
    for d in (2, 3, 4):
        want = [q for q in enumerate_quantizers(m, d, "all") if q.num_cells == d]
        assert enumerate_quantizers(m, d) == want, d
    assert len(want) == {8: 1701, 10: 34105}[k]


def test_enumerate_rejects_tiny_alphabet(table_model):
    with pytest.raises(ValueError):
        enumerate_quantizers(table_model, 1)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda: HypothesisModel(pmf0=((0.5, 0.5),), pmf1=((0.5, 0.5),)),
            ShapeMismatch,
            "pmfs must be one-dimensional",
        ),
        (lambda: Quantizer(map=(0,), message_alphabet_size=0), ValueError, "message alphabet size must be positive"),
        (lambda: Quantizer(map=(), message_alphabet_size=2), ShapeMismatch, "quantizer map must be nonempty"),
        (
            lambda: InducedModel(q0=np.array([0.5, 0.5]), q1=np.array([1.0]), llr=np.array([0.0])),
            ShapeMismatch,
            "q0, q1 and llr must be nonempty and equal length",
        ),
        (
            lambda: induce(HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.25, 0.75)), Quantizer.from_labels([0, 1, 1])),
            ShapeMismatch,
            "quantizer maps 3 symbols but the model has 2",
        ),
        (
            lambda: product_quantizer(Quantizer.from_labels([0, 1]), Quantizer.from_labels([0, 1, 1])),
            ShapeMismatch,
            "component quantizers must share the observation alphabet",
        ),
        (
            lambda: enumerate_quantizers(HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.25, 0.75)), 2, "sorted"),
            ValueError,
            "unknown enumeration mode: 'sorted'",
        ),
        (
            lambda: parse_model_text("2 2\n0.5 x\n0.25 0.75\n"),
            ValueError,
            "bad pmf line '0.5 x'",
        ),
    ],
    ids=["pmf-2d", "size-0", "empty-map", "induced-lengths", "induce-length", "product-lengths", "mode", "pmf-line"],
)
def test_model_layer_names_each_malformed_input(call, error, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (exc.type, str(exc.value)) == (error, message)


def test_parse_model_text_roundtrip():
    m, d = parse_model_text("3 2\n0.8 0.15 0.05\n0.05 0.15 0.8\n")
    assert d == 2
    np.testing.assert_allclose(m.pmf0, [0.8, 0.15, 0.05])
    np.testing.assert_allclose(m.pmf1, [0.05, 0.15, 0.8])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0.8 0.15 0.05\n0.05 0.15 0.8\n",
        "3 2\n0.8 0.15\n0.05 0.15 0.8\n",
        "3 2\n0.8 0.15 0.05\n",
        "x 2\n0.8 0.15 0.05\n0.05 0.15 0.8\n",
        "3 2\n0.8 0.15 0.05\n0.05 0.15 0.8\n0.3 0.3 0.4\ngarbage here\n",
    ],
)
def test_parse_model_text_rejects_malformed(text):
    with pytest.raises((ValueError, ShapeMismatch, NotAProbability)):
        parse_model_text(text)


def test_load_model(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2 2\n0.75 0.25\n0.25 0.75\n")
    m, d = load_model(p)
    assert d == 2
    assert m.alphabet_size == 2


def test_likelihood_ratio_reduction_is_identity_induction():
    m = HypothesisModel(pmf0=(0.2, 0.2, 0.6), pmf1=(0.3, 0.3, 0.4))
    im = likelihood_ratio_reduction(m)
    assert im.alphabet_size == 3
    np.testing.assert_allclose(im.llr, np.log(np.asarray(m.pmf1) / np.asarray(m.pmf0)))


def test_enumerate_quantizers_emits_no_warning():
    # A symbol with zero mass under both hypotheses exercises the masked
    # logs in the LLR tie grouping.
    models = [
        HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8)),
        HypothesisModel(pmf0=(0.5, 0.0, 0.5), pmf1=(0.2, 0.0, 0.8)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in models:
            for mode in ("llr_monotone", "all"):
                assert enumerate_quantizers(m, 2, mode)
