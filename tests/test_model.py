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
    validate_model,
)


def test_validate_accepts_simplex_pair():
    m = validate_model(HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.1, 0.9)))
    assert m.alphabet_size == 2
    assert not m.pmf0.flags.writeable
    assert not m.pmf1.flags.writeable


def test_validate_rejects_bad_sum():
    with pytest.raises(NotAProbability):
        validate_model(HypothesisModel(pmf0=(0.5, 0.4), pmf1=(0.5, 0.5)))


def test_validate_rejects_negative_mass():
    with pytest.raises(NotAProbability):
        validate_model(HypothesisModel(pmf0=(1.2, -0.2), pmf1=(0.5, 0.5)))


def test_validate_rejects_one_sided_support():
    with pytest.raises(SupportMismatch) as exc:
        validate_model(HypothesisModel(pmf0=(1.0, 0.0), pmf1=(0.5, 0.5)))
    assert "mutually absolutely continuous" in str(exc.value)


def test_validate_rejects_length_mismatch():
    with pytest.raises(ShapeMismatch):
        validate_model(HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.2, 0.3, 0.5)))


def test_validate_allows_jointly_dead_symbol():
    # A symbol with zero mass under both hypotheses never occurs; it is
    # dropped at induction time rather than rejected here.
    m = validate_model(HypothesisModel(pmf0=(0.5, 0.5, 0.0), pmf1=(0.3, 0.7, 0.0)))
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


def test_enumerate_monotone_cell_count():
    # With d message labels and k >= d distinct llr values, every monotone
    # quantizer uses exactly d nonempty cells.
    m = validate_model(
        HypothesisModel(pmf0=(0.4, 0.3, 0.2, 0.1), pmf1=(0.1, 0.2, 0.3, 0.4))
    )
    for d in (2, 3):
        for q in enumerate_quantizers(m, d, mode="llr_monotone"):
            assert q.num_cells == min(d, m.alphabet_size)


def test_enumerate_monotone_tied_llrs():
    # Symbols 0 and 1 carry the same llr; the tie can be kept together or
    # split across the boundary, and symbol 2 sits alone on the other side.
    m = validate_model(HypothesisModel(pmf0=(0.2, 0.2, 0.6), pmf1=(0.3, 0.3, 0.4)))
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


def test_enumerate_rejects_tiny_alphabet(table_model):
    with pytest.raises(ValueError):
        enumerate_quantizers(table_model, 1)


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
        validate_model(HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))),
        validate_model(HypothesisModel(pmf0=(0.5, 0.0, 0.5), pmf1=(0.2, 0.0, 0.8))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in models:
            for mode in ("llr_monotone", "all"):
                assert enumerate_quantizers(m, 2, mode)
