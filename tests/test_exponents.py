"""Log-MGF, Fenchel conjugates, and the Chernoff minimum.

The reference values here come from independent arithmetic: closed-form
two-term evaluations, dense grid suprema, and central finite differences.
"""
from __future__ import annotations

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from scipy.special import logsumexp

from decdet import (
    HypothesisModel,
    InducedModel,
    Quantizer,
    Strategy,
    chernoff_exponent,
    golden_section_min,
    induce,
    likelihood_ratio_reduction,
    llr_distribution_parallel,
    log_mgf,
    log_mgf_derivs,
    rate_function,
    rate_function_grid,
    validate_model,
)
from decdet.exponents import _EDGE_RTOL, _RATE_CONSTANTS, _decide_rate, _decide_rate_grid
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


def _pinned_kernel_models():
    rng = np.random.default_rng(83)
    models = [likelihood_ratio_reduction(random_model(rng, k=k)) for k in (3, 4, 5)]
    # A 12-sensor transcript of a model with 1e-40 masses: its extreme type
    # classes underflow to zero mass, so the kernels meet -inf log weights.
    tiny = validate_model(HypothesisModel(pmf0=(0.7, 0.3, 1e-40), pmf1=(1e-40, 0.3, 0.7)))
    ident = Quantizer(map=(0, 1, 2), message_alphabet_size=3)
    transcript = llr_distribution_parallel(tiny, Strategy(kind="Parallel1", gamma=ident), 12)
    assert np.any(transcript.q0 == 0.0) and np.any(transcript.q1 == 0.0)
    return models + [transcript]


# Per model: log_mgf at (j=0, s=0.3) and (j=1, s=-0.7), log_mgf_derivs at the
# same points, chernoff_exponent, and the sha256 of the rate_function_grid
# bytes for j=0 and j=1 on 41 points spanning the LLR support padded by 10%
# each side, followed by both edges.  Compared with ==: reordering the
# kernel's arithmetic moves the last bits, which the reported strategies and
# results digests downstream would then inherit.
_PINNED_KERNEL = [
    (
        (-0.4932536837543856, -0.49325368375438583),
        (
            (-0.4932536837543856, -0.9356505041304761, 5.365657713982388),
            (-0.49325368375438583, -0.9356505041304758, 5.3656577139823876),
        ),
        (-0.5732764187230508, 0.4712816230418658),
        ("4edc849f5aee6dd43537356d9aa226ad7f67a4a4aa5a9c81f854cf066768bd65",
         "0b858cecd9c2fc051c29fbeebb16856cf011730a0799a76a980b1b93d22aa794"),
    ),
    (
        (-0.05684830814126263, -0.05684830814126263),
        (
            (-0.05684830814126263, -0.11131720215075154, 0.5389400937908472),
            (-0.05684830814126263, -0.11131720215075154, 0.5389400937908472),
        ),
        (-0.06817883819991111, 0.502462291112648),
        ("31c2ff06762fd42bb9256d9afd764ddce4337b0a29f856a9d878bda279a049ee",
         "ec4853411e987eb3a6ab41202dab0fd2a0e24983e0d5f2fa4a0f18f3dded5549"),
    ),
    (
        (-0.1179132032752217, -0.11791320327522192),
        (
            (-0.1179132032752217, -0.22992780195960721, 1.140173778355328),
            (-0.11791320327522192, -0.22992780195960716, 1.1401737783553283),
        ),
        (-0.140728164016235, 0.4975250672540764),
        ("b9600224f029452fd8f9d54171201186c11974b99ac7eb90780055743b5c5059",
         "2b250fb2e8a15d18cd60eb38ccdd43e7282e03e55a4f77da86f4ccd85bc14bec"),
    ),
    (
        (-14.447673651880072, -14.447673651880072),
        (
            (-14.447673651880072, -2.859033260831657e-09, 2.62306949141898e-07),
            (-14.447673651880072, -2.859033260831657e-09, 2.62306949141898e-07),
        ),
        (-14.447673651911233, 0.5872138318266578),
        # Recorded once the support became the massed atoms' (5 points per
        # hypothesis turned +inf); the bisection runs until its whole batch
        # converges, so the other points moved by about 1e-15 relative.
        ("fd8284cedb71103bc8506b7fce37f6955c49510151a3b4c6c0311a1c396629b8",
         "eeeaa2f8554b5999498a964e78d7000f0d1f366785da7c6228c72309af8aa467"),
    ),
]


def test_array_kernel_is_pinned_bit_for_bit():
    for im, (mgf, derivs, chernoff, grid) in zip(_pinned_kernel_models(), _PINNED_KERNEL, strict=True):
        assert (log_mgf(im, 0, 0.3), log_mgf(im, 1, -0.7)) == mgf
        assert (log_mgf_derivs(im, 0, 0.3), log_mgf_derivs(im, 1, -0.7)) == derivs
        assert chernoff_exponent(im) == chernoff
        zmin, zmax = im.llr_support()
        pad = 0.1 * (zmax - zmin)
        ts = np.concatenate([np.linspace(zmin - pad, zmax + pad, 41), [zmin, zmax]])
        digests = tuple(hashlib.sha256(rate_function_grid(im, j, ts).tobytes()).hexdigest() for j in (0, 1))
        assert digests == grid


def test_rates_are_infinite_beyond_the_massed_support():
    # The 12-sensor transcript has atoms whose mass underflowed to zero under
    # one hypothesis only: past the last massed atom the sample mean can
    # never reach t, so every solver and the decision kernel give +inf.
    im = _pinned_kernel_models()[-1]
    for j, q in ((0, im.q0), (1, im.q1)):
        massed = im.llr[q > 0.0]
        lo, hi = float(massed.min()), float(massed.max())
        zmin, zmax = im.llr_support()
        # Six points past the massed edge, out to the last atom.
        beyond = (hi, zmax) if j == 0 else (lo, zmin)
        assert abs(beyond[1] - beyond[0]) > 300.0
        ts = np.linspace(*beyond, 7)[1:]
        for t in ts.tolist():
            assert rate_function(im, j, t).value == math.inf
            assert _decide_rate(im, j, t) == math.inf
        assert np.isinf(rate_function_grid(im, j, ts)).all()
        assert np.isinf(_decide_rate_grid(im, ts)[j]).all()


def test_two_atom_rate_is_a_bernoulli_divergence(table_model):
    # gamma (0, 0, 1) of the table model: q0 = (0.95, 0.05), q1 = (0.2, 0.8).
    # At tilted mass p = 0.3 on the high atom, R_j is the Bernoulli
    # divergence of 0.3 from q_j[hi].
    im = _gamma2(table_model)
    z_lo, z_hi = math.log(0.2 / 0.95), math.log(0.8 / 0.05)
    t = z_lo + 0.3 * (z_hi - z_lo)
    want = (
        0.3 * math.log(0.3 / 0.05) + 0.7 * math.log(0.7 / 0.95),
        0.3 * math.log(0.3 / 0.8) + 0.7 * math.log(0.7 / 0.2),
    )
    grid = _decide_rate_grid(im, np.array([t]))
    for j in (0, 1):
        assert _decide_rate(im, j, t) == pytest.approx(want[j], abs=1e-14)
        assert grid[j][0] == pytest.approx(want[j], abs=1e-14)
        assert rate_function(im, j, t).value == pytest.approx(want[j], abs=1e-12)


def test_decision_kernel_defers_to_the_solvers_elsewhere(table_model):
    # One atom, and two atoms of which one has zero mass: every value is the
    # solvers' own, bit for bit.  Three atoms take the Newton branch, within
    # 1e-12 of the solvers inside the support and bit for bit on and beyond
    # its edges.
    one = induce(table_model, Quantizer(map=(0, 0, 0), message_alphabet_size=2))
    three = induce(table_model, Quantizer(map=(0, 1, 2), message_alphabet_size=3))
    empty = InducedModel(q0=np.array([0.0, 1.0]), q1=np.array([0.0, 1.0]), llr=np.array([-1.0, 0.0]))
    for im in (one, three, empty):
        zmin, zmax = im.llr_support()
        ts = np.concatenate([np.linspace(-3.5, 3.5, 15), [zmin, zmax]])
        inside = (ts > zmin) & (ts < zmax) & (im is three)
        fast_grid = _decide_rate_grid(im, ts)
        for j in (0, 1):
            grid = rate_function_grid(im, j, ts)
            solver = np.array([rate_function(im, j, t).value for t in ts.tolist()])
            fast = np.array([_decide_rate(im, j, t) for t in ts.tolist()])
            assert np.allclose(fast[inside], solver[inside], rtol=1e-12, atol=1e-12)
            assert np.allclose(fast_grid[j][inside], grid[inside], rtol=1e-12, atol=1e-12)
            assert fast[~inside].tobytes() == solver[~inside].tobytes()
            assert fast_grid[j][~inside].tobytes() == grid[~inside].tobytes()


def _atoms_model(x0: list[float], x1: list[float]) -> InducedModel:
    # Under hypothesis j atom i has mass proportional to 10**x_j[i].
    q0, q1 = (10.0 ** np.array(x) / (10.0 ** np.array(x)).sum() for x in (x0, x1))
    return InducedModel(q0=q0, q1=q1, llr=np.log(q1) - np.log(q0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    x0=hs.floats(min_value=-12.0, max_value=12.0),
    x1=hs.floats(min_value=-12.0, max_value=12.0),
    frac=hs.floats(min_value=0.0, max_value=1.0),
    k=hs.integers(min_value=-5, max_value=5),
)
def test_two_atom_closed_form_matches_the_solvers(x0, x1, frac, k):
    im = _atoms_model([0.0, x0], [0.0, x1])
    zmin, zmax = im.llr_support()
    assume(zmin < zmax)
    tol_lo, tol_hi = (_EDGE_RTOL * max(1.0, abs(z)) for z in (zmin, zmax))
    ts = np.array([
        zmin + frac * (zmax - zmin),  # inside, or on an edge at frac 0 or 1
        zmin + k * 1e-12 * max(1.0, abs(zmin)),  # a few 1e-12 about each edge
        zmax + k * 1e-12 * max(1.0, abs(zmax)),
        zmin - 1.0 - frac,  # beyond the support
        zmax + 1.0 + frac,
    ])
    inside = (ts > zmin + tol_lo) & (ts < zmax - tol_hi)
    rates = []
    for j in (0, 1):
        grid = rate_function_grid(im, j, ts)
        fast_grid = _decide_rate_grid(im, ts)[j]
        fast = np.array([_decide_rate(im, j, t) for t in ts.tolist()])
        solver = np.array([rate_function(im, j, t).value for t in ts.tolist()])
        assert (fast >= 0.0).all() and (fast_grid >= 0.0).all()
        for a, b in ((fast, solver), (fast_grid, grid), (fast_grid, fast)):
            assert np.abs(a[inside] - b[inside]).max(initial=0.0) <= 1e-12
        # Edges and points beyond the support keep the solvers' values.
        assert fast[~inside].tobytes() == solver[~inside].tobytes()
        assert fast_grid[~inside].tobytes() == grid[~inside].tobytes()
        rates.append(fast)
    # Duality: R_1(t) = R_0(t) - t on the interior.
    assert np.abs(rates[1][inside] - (rates[0][inside] - ts[inside])).max(initial=0.0) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    xs=hs.lists(
        hs.tuples(hs.floats(min_value=-12.0, max_value=12.0), hs.floats(min_value=-12.0, max_value=12.0)),
        min_size=3,
        max_size=6,
    ),
    fracs=hs.lists(hs.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
    k=hs.integers(min_value=-5, max_value=5),
)
def test_newton_kernel_matches_the_solvers(xs, fracs, k):
    im = _atoms_model([x0 for x0, _ in xs], [x1 for _, x1 in xs])
    zmin, zmax = im.llr_support()
    assume(zmin < zmax)
    tol_lo, tol_hi = (_EDGE_RTOL * max(1.0, abs(z)) for z in (zmin, zmax))
    ts = np.array([
        *(zmin + f * (zmax - zmin) for f in fracs),  # inside, or on an edge at 0 or 1
        zmin + k * 1e-12 * max(1.0, abs(zmin)),  # a few 1e-12 about each edge
        zmax + k * 1e-12 * max(1.0, abs(zmax)),
        zmin - 1.0 - fracs[0],  # beyond the support
        zmax + 1.0 + fracs[0],
    ])
    inside = (ts > zmin + tol_lo) & (ts < zmax - tol_hi)
    fast_grid = _decide_rate_grid(im, ts)
    fast, solvers = [], []
    for j in (0, 1):
        grid = rate_function_grid(im, j, ts)
        solver = np.array([rate_function(im, j, t).value for t in ts.tolist()])
        fast.append(np.array([_decide_rate(im, j, t) for t in ts.tolist()]))
        solvers.append(solver)
        assert (fast[j] >= 0.0).all() and (fast_grid[j] >= 0.0).all()
        # The scalar solver computes every report, so both forms answer to it.
        for a in (fast[j], fast_grid[j]):
            assert np.allclose(a[inside], solver[inside], rtol=1e-12, atol=1e-12)
        # Edges and points beyond the support keep the solvers' values.
        assert fast[j][~inside].tobytes() == solver[~inside].tobytes()
        assert fast_grid[j][~inside].tobytes() == grid[~inside].tobytes()
    # Duality: R_1(t) = R_0(t) - t on the interior, as closely as the scalar
    # solver keeps it.  That solver drifts from it where s t - L(s) loses
    # digits (|s| of 1e6 and more next to near-equal atoms), and there the
    # kernel declines to certify and returns the solver's own values.
    t_in = ts[inside]
    slack = np.abs(solvers[1][inside] - (solvers[0][inside] - t_in))
    for r0, r1 in (fast, fast_grid):
        gap = np.abs(r1[inside] - (r0[inside] - t_in))
        assert (gap <= 1e-12 * np.maximum(1.0, np.abs(t_in)) + slack).all()
    # A row solved alone equals the same row inside the batch.
    for i in range(len(ts)):
        alone = _decide_rate_grid(im, ts[i : i + 1])
        assert (alone[0][0], alone[1][0]) == (fast_grid[0][i], fast_grid[1][i])
