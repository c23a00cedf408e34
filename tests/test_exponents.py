"""Log-MGF, Fenchel conjugates, and the Chernoff minimum.

The reference values here come from independent arithmetic: closed-form
two-term evaluations, dense grid suprema, and central finite differences.
"""
from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import logsumexp

from decdet import (
    HypothesisModel,
    Quantizer,
    chernoff_exponent,
    golden_section_min,
    induce,
    likelihood_ratio_reduction,
    log_mgf,
    log_mgf_derivs,
    rate_function,
    rate_function_grid,
    validate_model,
)
from decdet.exponents import _RATE_CONSTANTS
from conftest import random_model


def _gamma2(table_model):
    return induce(table_model, Quantizer(map=(0, 0, 1), message_alphabet_size=2))


def _grid_sup(im, j, t, s_lo=-25.0, s_hi=25.0, step=1e-4):
    # Brute-force conjugate: dense supremum of s*t - log E[e^{sZ}].
    s = np.arange(s_lo, s_hi, step)
    q = im.q1 if j == 1 else im.q0
    logq = np.log(q)
    vals = s * t - logsumexp(s[:, None] * im.llr[None, :] + logq[None, :], axis=1)
    return float(vals.max())


def test_log_mgf_is_zero_at_anchor_points(table_model):
    im = _gamma2(table_model)
    assert log_mgf(im, 0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert log_mgf(im, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    # Tilting hypothesis 0 by s=1 lands on hypothesis 1 and vice versa.
    assert log_mgf(im, 0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_mgf(im, 1, -1.0) == pytest.approx(0.0, abs=1e-12)


def test_log_mgf_closed_form_spot(table_model):
    im = _gamma2(table_model)
    want = math.log(math.sqrt(0.95 * 0.20) + math.sqrt(0.05 * 0.80))
    assert log_mgf(im, 0, 0.5) == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    raw0=hs.lists(hs.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
    raw1=hs.lists(hs.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
    s=hs.floats(min_value=-3.0, max_value=3.0),
)
def test_log_mgf_derivs_match_finite_differences(raw0, raw1, s):
    k = min(len(raw0), len(raw1))
    p0 = np.asarray(raw0[:k]) / sum(raw0[:k])
    p1 = np.asarray(raw1[:k]) / sum(raw1[:k])
    im = likelihood_ratio_reduction(HypothesisModel(pmf0=p0, pmf1=p1))
    val, d1, d2 = log_mgf_derivs(im, 0, s)
    h = 1e-5
    up, dn = log_mgf(im, 0, s + h), log_mgf(im, 0, s - h)
    assert val == pytest.approx(log_mgf(im, 0, s), abs=1e-12)
    assert d1 == pytest.approx((up - dn) / (2 * h), abs=1e-6)
    assert d2 == pytest.approx((up - 2 * val + dn) / (h * h), abs=1e-5)
    assert d2 >= 0.0


def test_rate_function_matches_tilted_closed_form(table_model):
    # At t = L'(s) the supremum sits exactly at s, so the conjugate value
    # is s * t - L(s) with no search error beyond the solver tolerance.
    rng = np.random.default_rng(11)
    models = [_gamma2(table_model)] + [
        likelihood_ratio_reduction(random_model(rng, k=4)) for _ in range(10)
    ]
    for im in models:
        for j in (0, 1):
            for s in (-2.0, -0.75, 0.0, 0.4, 1.0, 2.5):
                val, d1, _ = log_mgf_derivs(im, j, s)
                rv = rate_function(im, j, d1)
                assert rv.value == pytest.approx(max(s * d1 - val, 0.0), abs=1e-9)
                if abs(s) > 1e-6:  # at s=0 the argmax is flat to first order
                    assert rv.argmax_s == pytest.approx(s, abs=1e-5)


def test_rate_function_matches_grid_supremum():
    rng = np.random.default_rng(23)
    for _ in range(6):
        im = likelihood_ratio_reduction(random_model(rng, k=3))
        zmin, zmax = im.llr_support()
        span = zmax - zmin
        for lam in (0.15, 0.4, 0.6, 0.85):
            t = zmin + lam * span
            for j in (0, 1):
                rv = rate_function(im, j, t)
                if abs(rv.argmax_s) > 20:
                    continue  # grid oracle window would truncate the supremum
                assert rv.value == pytest.approx(_grid_sup(im, j, t), abs=1e-6)


def test_rate_function_duality():
    rng = np.random.default_rng(37)
    for _ in range(8):
        im = likelihood_ratio_reduction(random_model(rng, k=4))
        zmin, zmax = im.llr_support()
        ts = np.linspace(zmin + 1e-6 * (zmax - zmin), zmax - 1e-6 * (zmax - zmin), 17)
        for t in ts:
            r0 = rate_function(im, 0, float(t)).value
            r1 = rate_function(im, 1, float(t)).value
            assert r1 == pytest.approx(r0 - t, abs=1e-9)


def test_rate_function_zero_threshold_hits_chernoff(table_model):
    rng = np.random.default_rng(41)
    models = [_gamma2(table_model)] + [
        likelihood_ratio_reduction(random_model(rng)) for _ in range(8)
    ]
    for im in models:
        c, s_star = chernoff_exponent(im)
        assert 0.0 <= s_star <= 1.0
        assert rate_function(im, 0, 0.0).value == pytest.approx(-c, abs=1e-9)
        assert rate_function(im, 1, 0.0).value == pytest.approx(-c, abs=1e-9)


def test_rate_function_vanishes_at_means():
    rng = np.random.default_rng(43)
    for _ in range(8):
        im = likelihood_ratio_reduction(random_model(rng, k=3))
        for j in (0, 1):
            assert rate_function(im, j, im.llr_mean(j)).value == pytest.approx(0.0, abs=1e-9)


def test_rate_function_endpoint_convention(table_model):
    im = _gamma2(table_model)
    zmin, zmax = im.llr_support()
    # At the support edge the conjugate equals -log(edge mass); beyond it
    # there is no trajectory at all.
    assert rate_function(im, 0, zmax).value == pytest.approx(-math.log(0.05), abs=1e-12)
    assert rate_function(im, 0, zmin).value == pytest.approx(-math.log(0.95), abs=1e-12)
    assert rate_function(im, 1, zmax).value == pytest.approx(-math.log(0.80), abs=1e-12)
    assert math.isinf(rate_function(im, 0, zmax + 0.5).value)
    assert math.isinf(rate_function(im, 0, zmin - 0.5).value)


def test_rate_function_grid_matches_scalar(table_model):
    rng = np.random.default_rng(47)
    models = [_gamma2(table_model)] + [
        likelihood_ratio_reduction(random_model(rng, k=3)) for _ in range(4)
    ]
    for im in models:
        zmin, zmax = im.llr_support()
        pad = 0.1 * (zmax - zmin)
        ts = np.linspace(zmin - pad, zmax + pad, 41)
        for j in (0, 1):
            grid = rate_function_grid(im, j, ts)
            for t, g in zip(ts, grid):
                scalar = rate_function(im, j, float(t)).value
                if math.isinf(scalar):
                    assert math.isinf(g)
                else:
                    assert g == pytest.approx(scalar, abs=1e-9)


def test_rate_function_is_nonnegative():
    rng = np.random.default_rng(53)
    for _ in range(5):
        im = likelihood_ratio_reduction(random_model(rng))
        zmin, zmax = im.llr_support()
        for t in np.linspace(zmin, zmax, 21):
            assert rate_function(im, 0, float(t)).value >= 0.0


def test_chernoff_matches_grid_search():
    rng = np.random.default_rng(59)
    for _ in range(6):
        im = likelihood_ratio_reduction(random_model(rng, k=4))
        s = np.arange(0.0, 1.0 + 1e-4, 1e-4)
        vals = logsumexp(s[:, None] * im.llr[None, :] + np.log(im.q0)[None, :], axis=1)
        want = float(np.minimum(vals, 0.0).min())
        got, s_star = chernoff_exponent(im)
        assert got == pytest.approx(want, abs=1e-8)
        assert got <= 0.0


def test_chernoff_table_value(table_model):
    got, s_star = chernoff_exponent(_gamma2(table_model))
    assert got == pytest.approx(-0.4573702918572308, abs=1e-10)
    assert s_star == pytest.approx(0.5468250079883546, abs=1e-6)


def test_golden_section_min_quadratic():
    arg, val = golden_section_min(lambda x: (x - 0.3) ** 2 + 1.0, -2.0, 2.0, tol=1e-10)
    # Comparison-based search cannot localize a flat quadratic minimum
    # below sqrt(eps), but the value error is the square of the arg error.
    assert arg == pytest.approx(0.3, abs=1e-6)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_degenerate_model_has_zero_exponent():
    im = likelihood_ratio_reduction(
        HypothesisModel(pmf0=(0.5, 0.5), pmf1=(0.5, 0.5))
    )
    c, _ = chernoff_exponent(im)
    assert c == 0.0
    assert rate_function(im, 0, 0.0).value == 0.0
    assert math.isinf(rate_function(im, 0, 0.5).value)


def test_rate_constants_memo_does_not_keep_models_alive(table_model):
    im = _gamma2(table_model)
    rate_function(im, 0, 0.0)
    assert im in _RATE_CONSTANTS
    ref = weakref.ref(im)
    del im
    gc.collect()
    assert ref() is None


def test_array_solvers_leave_float_lists_unbuilt(table_model):
    # The plain-float lists serve only the scalar solver, so a large
    # transcript model evaluated by the array solvers is never listed.
    im = _gamma2(table_model)
    rate_function_grid(im, 0, np.linspace(-1.0, 1.0, 5))
    log_mgf_derivs(im, 0, 0.3)
    chernoff_exponent(im)
    consts = _RATE_CONSTANTS[im][0]
    assert "float_lists" not in vars(consts)
    rate_function(im, 0, 0.1)
    assert "float_lists" in vars(consts)
