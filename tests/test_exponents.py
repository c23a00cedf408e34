"""Log-MGF, Fenchel conjugates, and the Chernoff minimum.

The reference values here come from independent arithmetic: closed-form
two-term evaluations, dense grid suprema, central finite differences, and
a 60-digit conjugate in the stdlib ``decimal`` module (``oracles``).
"""
from __future__ import annotations

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs
from scipy.special import logsumexp

from decdet import (
    HypothesisModel,
    InducedModel,
    Quantizer,
    Strategy,
    check_ordering,
    chernoff_exponent,
    enumerate_quantizers,
    exponent_daisy_restricted,
    exponent_tree,
    golden_section_min,
    induce,
    likelihood_ratio_reduction,
    llr_distribution_parallel,
    log_mgf,
    log_mgf_derivs,
    rate_function,
    rate_function_grid,
)
from decdet import exponents as ex
from decdet.exponents import _edge_tols, _rates
from conftest import near_tied_models, random_model
from oracles import decimal_conjugate


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


def test_rate_function_rejects_nan_threshold(table_model):
    # A NaN t ran the 3-atom Newton to its step cap and returned nan.
    for im in (_gamma2(table_model), likelihood_ratio_reduction(table_model)):
        for j in (0, 1):
            with pytest.raises(ValueError, match="NaN"):
                rate_function(im, j, math.nan)
            with pytest.raises(ValueError, match="NaN"):
                rate_function_grid(im, j, np.array([0.0, math.nan, 1.0]))


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
    refs = weakref.ref(im), weakref.ref(im._solver_constants[0])
    del im
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_array_solvers_leave_float_lists_unbuilt(table_model):
    # The plain-float lists serve only the scalar form's Newton solve, so a
    # large transcript model evaluated by the array forms is never listed;
    # the log-MGF alone builds no solver constants and only its hypothesis.
    im = induce(table_model, Quantizer(map=(0, 1, 2), message_alphabet_size=3))
    log_mgf_derivs(im, 0, 0.3)
    chernoff_exponent(im)
    consts, other = im._solver_constants
    assert other is None and "massed" not in vars(consts)
    rate_function_grid(im, 0, np.linspace(-1.0, 1.0, 5))
    assert "float_lists" not in vars(consts)
    rate_function(im, 0, 0.1)
    assert "float_lists" in vars(consts)


def _pinned_kernel_models():
    rng = np.random.default_rng(83)
    models = [likelihood_ratio_reduction(random_model(rng, k=k)) for k in (3, 4, 5)]
    # A 12-sensor transcript of a model with 1e-40 masses: its extreme type
    # classes underflow to zero mass, so the kernels meet -inf log weights.
    tiny = HypothesisModel(pmf0=(0.7, 0.3, 1e-40), pmf1=(1e-40, 0.3, 0.7))
    ident = Quantizer(map=(0, 1, 2), message_alphabet_size=3)
    transcript = llr_distribution_parallel(tiny, Strategy(kind="Parallel1", gamma=ident), 12)
    assert np.any(transcript.q0 == 0.0) and np.any(transcript.q1 == 0.0)
    return models + [transcript]


# Per model: log_mgf at (j=0, s=0.3) and (j=1, s=-0.7), log_mgf_derivs at the
# same points, chernoff_exponent, and the sha256 of the rate_function_grid
# bytes for j=0 and j=1 on 41 points spanning the LLR support padded by 10%
# each side, followed by both edges.  Compared with ==: reordering the
# kernel's arithmetic moves the last bits, which the reported strategies and
# results digests downstream would then inherit.  The grid digests were
# recorded when the log-odds Newton became the one conjugate solver; against
# the bisection before it, no finite value moved by more than 2.2e-15
# relative and every +inf stayed put.
_PINNED_KERNEL = [
    (
        (-0.4932536837543856, -0.49325368375438583),
        (
            (-0.4932536837543856, -0.9356505041304761, 5.365657713982388),
            (-0.49325368375438583, -0.9356505041304758, 5.3656577139823876),
        ),
        (-0.5732764187230508, 0.4712816230418658),
        ("29ccac6d1b7a284d78033a448324bd0c598534389a2f4361dae77b18307c8941",
         "d91c0f3f7bc88509a38be29deb45f5fee1dc6f0e865415634f96f211e22705fb"),
    ),
    (
        (-0.05684830814126263, -0.05684830814126263),
        (
            (-0.05684830814126263, -0.11131720215075154, 0.5389400937908472),
            (-0.05684830814126263, -0.11131720215075154, 0.5389400937908472),
        ),
        (-0.06817883819991111, 0.502462291112648),
        ("c8f0b6be64b783ab05883579751da1576d7a03ed4925e054861953e34be3ab60",
         "f145fd815ed0f067e3e54b4dabcfcacebe8c2d03ecb8993c327c5ad1e191f148"),
    ),
    (
        (-0.1179132032752217, -0.11791320327522192),
        (
            (-0.1179132032752217, -0.22992780195960721, 1.140173778355328),
            (-0.11791320327522192, -0.22992780195960716, 1.1401737783553283),
        ),
        (-0.140728164016235, 0.4975250672540764),
        ("de81758b31fcf7d0261fef449d9cdad668016736b5ed142ba553383e4157b757",
         "720358d298bef481b77b5fa4669972caca3f8cb4d36dd9ff4a81e72aaa0a0123"),
    ),
    (
        (-14.447673651880072, -14.447673651880072),
        (
            (-14.447673651880072, -2.859033260831657e-09, 2.62306949141898e-07),
            (-14.447673651880072, -2.859033260831657e-09, 2.62306949141898e-07),
        ),
        (-14.447673651911233, 0.5872138318266578),
        ("a287813e48523a13e25dab821ad883f725853103ee8484b2d6e9a97767549da8",
         "e5dc15531dc17bb3013e76f202a4bd12dac31fd1753daeb75a23d7d072289e6e"),
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
    # never reach t, so both forms of the solver give +inf.
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
        assert np.isinf(rate_function_grid(im, j, ts)).all()


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
    for j in (0, 1):
        assert rate_function(im, j, t).value == pytest.approx(want[j], abs=1e-14)
        assert rate_function_grid(im, j, np.array([t]))[0] == pytest.approx(want[j], abs=1e-14)


def test_scalar_and_grid_forms_agree_on_degenerate_supports(table_model):
    # One atom, two atoms of which one has zero mass, and three atoms: the
    # scalar and grid forms agree to 1e-14 inside the support and bit for
    # bit on and beyond its edges.
    one = induce(table_model, Quantizer(map=(0, 0, 0), message_alphabet_size=2))
    three = induce(table_model, Quantizer(map=(0, 1, 2), message_alphabet_size=3))
    empty = InducedModel(q0=np.array([0.0, 1.0]), q1=np.array([0.0, 1.0]), llr=np.array([-1.0, 0.0]))
    for im in (one, three, empty):
        zmin, zmax = im.llr_support()
        ts = np.concatenate([np.linspace(-3.5, 3.5, 15), [zmin, zmax]])
        inside = (ts > zmin) & (ts < zmax) & (im is three)
        for j in (0, 1):
            grid = rate_function_grid(im, j, ts)
            scalar = np.array([rate_function(im, j, t).value for t in ts.tolist()])
            assert np.allclose(grid[inside], scalar[inside], rtol=1e-14, atol=1e-14)
            assert grid[~inside].tobytes() == scalar[~inside].tobytes()


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
    # On two atoms R_j(t) is the Bernoulli divergence of the tilted mass
    # p = (t - zmin) / (zmax - zmin) on the high atom from q_j there.
    im = _atoms_model([0.0, x0], [0.0, x1])
    zmin, zmax = im.llr_support()
    assume(zmin < zmax)
    hi = int(np.argmax(im.llr))
    tol_lo, tol_hi = _edge_tols(zmin, zmax)
    ts = np.array([
        zmin + frac * (zmax - zmin),  # inside, or on an edge at frac 0 or 1
        zmin + k * 1e-12 * max(1.0, abs(zmin)),  # a few 1e-12 about each edge
        zmax + k * 1e-12 * max(1.0, abs(zmax)),
        zmin - 1.0 - frac,  # beyond the support
        zmax + 1.0 + frac,
    ])
    inside = (ts > zmin + tol_lo) & (ts < zmax - tol_hi)
    rates = []
    for j, q in ((0, im.q0), (1, im.q1)):
        grid = rate_function_grid(im, j, ts)
        scalar = np.array([rate_function(im, j, t).value for t in ts.tolist()])
        assert (grid >= 0.0).all() and (scalar >= 0.0).all()
        for t, g, v in zip(ts[inside].tolist(), grid[inside], scalar[inside]):
            p = (t - zmin) / (zmax - zmin)
            want = p * math.log(p / q[hi]) + (1.0 - p) * math.log((1.0 - p) / q[1 - hi])
            assert abs(g - want) <= 1e-12, (j, t, g, want)
            assert abs(v - want) <= 1e-12, (j, t, v, want)
        # Edges and points beyond the support follow one convention, and
        # both atoms carry mass, so the sample mean never gets past them.
        assert grid[~inside].tobytes() == scalar[~inside].tobytes()
        assert np.isinf(grid[3:]).all()
        rates.append(scalar)
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
    # Three or more atoms take the log-odds Newton: its scalar and grid
    # forms agree inside the support, keep one convention on and beyond
    # its edges, and keep R_1(t) = R_0(t) - t.
    im = _atoms_model([x0 for x0, _ in xs], [x1 for _, x1 in xs])
    zmin, zmax = im.llr_support()
    assume(zmin < zmax)
    tol_lo, tol_hi = _edge_tols(zmin, zmax)
    ts = np.array([
        *(zmin + f * (zmax - zmin) for f in fracs),  # inside, or on an edge at 0 or 1
        zmin + k * 1e-12 * max(1.0, abs(zmin)),  # a few 1e-12 about each edge
        zmax + k * 1e-12 * max(1.0, abs(zmax)),
        zmin - 1.0 - fracs[0],  # beyond the support
        zmax + 1.0 + fracs[0],
    ])
    inside = (ts > zmin + tol_lo) & (ts < zmax - tol_hi)
    grids, scalars = [], []
    for j in (0, 1):
        grid = rate_function_grid(im, j, ts)
        scalar = np.array([rate_function(im, j, t).value for t in ts.tolist()])
        assert (grid >= 0.0).all() and (scalar >= 0.0).all()
        assert np.allclose(grid[inside], scalar[inside], rtol=1e-12, atol=1e-12)
        assert grid[~inside].tobytes() == scalar[~inside].tobytes()
        assert np.isinf(grid[-2:]).all()
        grids.append(grid)
        scalars.append(scalar)
        # A row solved alone equals the same row inside the batch.
        for i in range(len(ts)):
            assert rate_function_grid(im, j, ts[i : i + 1])[0] == grid[i]
    t_in = ts[inside]
    for r0, r1 in (grids, scalars):
        gap = np.abs(r1[inside] - (r0[inside] - t_in))
        assert (gap <= 1e-12 * np.maximum(1.0, np.abs(t_in))).all()


# The three models where the earlier solvers lost digits next to near-equal
# atoms (|s| of 1e6 to 3e9), as (log10 q0, log10 q1) per atom, each with
# the offset above zmin, relative to the support width, that exposed it.
_NEAR_EQUAL_ATOMS = [
    ([(0.0, 0.0), (0.25, 0.0), (0.25, 1e-7)], 1e-7),
    ([(0.0, 0.0), (0.0, -1.0), (1e-5, -1.0)], 2.8e-12),
    ([(0.0, 0.0), (0.5, 0.0), (0.5, 1e-9)], 2e-12),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    xs=hs.lists(
        hs.tuples(hs.floats(min_value=-12.0, max_value=12.0), hs.floats(min_value=-12.0, max_value=12.0)),
        min_size=2,
        max_size=6,
    ),
    offsets=hs.lists(hs.floats(min_value=-12.0, max_value=math.log10(0.5)), min_size=1, max_size=3),
    k=hs.integers(min_value=-5, max_value=5),
)
@example(xs=_NEAR_EQUAL_ATOMS[0][0], offsets=[math.log10(_NEAR_EQUAL_ATOMS[0][1]), -12.0], k=0)
@example(xs=_NEAR_EQUAL_ATOMS[1][0], offsets=[math.log10(_NEAR_EQUAL_ATOMS[1][1]), -9.0], k=1)
@example(xs=_NEAR_EQUAL_ATOMS[2][0], offsets=[math.log10(_NEAR_EQUAL_ATOMS[2][1]), -6.0], k=-1)
def test_solver_matches_the_decimal_oracle(xs, offsets, k):
    # Both forms, under both hypotheses, against the 60-digit conjugate at t
    # from 1e-12 of the support width off either edge up to its middle.
    im = _atoms_model([x0 for x0, _ in xs], [x1 for _, x1 in xs])
    zmin, zmax = im.llr_support()
    assume(zmin < zmax)
    width = zmax - zmin
    tol_lo, tol_hi = _edge_tols(zmin, zmax)
    ts = np.array([
        *(zmin + 10.0**x * width for x in offsets),
        *(zmax - 10.0**x * width for x in offsets),
        zmin + k * 1e-12 * max(1.0, abs(zmin)),  # a few 1e-12 about each edge
        zmax + k * 1e-12 * max(1.0, abs(zmax)),
        zmin - 1.0 - width,  # beyond the support
        zmax + 1.0 + width,
    ])
    inside = (ts > zmin + tol_lo) & (ts < zmax - tol_hi)
    for j in (0, 1):
        grid = rate_function_grid(im, j, ts)
        scalar = np.array([rate_function(im, j, t).value for t in ts.tolist()])
        assert (grid >= 0.0).all() and (scalar >= 0.0).all()
        for t, g, v in zip(ts[inside].tolist(), grid[inside], scalar[inside]):
            want = decimal_conjugate(im, j, t)
            assert abs(g - want) <= 1e-13 * max(1.0, want), (j, t, g, want)
            assert abs(v - want) <= 1e-13 * max(1.0, want), (j, t, v, want)
        # Edges and points beyond the support follow one convention.
        assert grid[~inside].tobytes() == scalar[~inside].tobytes()
        # A row solved alone equals the same row inside the batch.
        for i in range(len(ts)):
            assert rate_function_grid(im, j, ts[i : i + 1])[0] == grid[i]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    xs=hs.lists(
        hs.tuples(
            hs.floats(min_value=-300.0, max_value=0.0),
            hs.floats(min_value=-300.0, max_value=0.0),
            hs.sampled_from((None, 0, 1)),
        ),
        min_size=1,
        max_size=6,
    ),
    fracs=hs.lists(hs.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
    k=hs.integers(min_value=-5, max_value=5),
)
# Both hypotheses on the same two atoms, where _rates takes one tilted mass
# for both closed forms; the same on a support about 1e-13 wide, where the
# edge zones are a millionth of the width; and two different two-atom
# supports (hypothesis 0 has no mass on atom 1, hypothesis 1 none on atom
# 2), which take the general path.
@example(xs=[(0.0, 0.0, None), (-1.0, -0.3, None)], fracs=[0.5], k=1)
@example(xs=[(0.0, 0.0, None), (-1.0, -1.0 + 4e-14, None)], fracs=[0.25], k=-1)
@example(xs=[(0.0, 0.0, None), (-1.0, -0.3, 0), (-0.5, -2.0, 1)], fracs=[0.7], k=2)
def test_paired_rates_equal_the_public_solver_bit_for_bit(xs, fracs, k):
    # _rates, the staged search's entry, gives rate_function's two values
    # bit for bit: on 1-6 atoms with masses down to 1e-300, some massless
    # under one hypothesis (x[2] names it), at t inside either support,
    # within 1e-12 of its edges, one float either side of each edge zone's
    # end and exactly at it, at each LLR mean, beyond it and at +-inf.
    w0, w1 = (10.0 ** np.array([x[j] for x in xs]) for j in (0, 1))
    q0, q1 = w0 / w0.sum(), w1 / w1.sum()
    llr = np.log(q1) - np.log(q0)
    for i, (_, _, massless) in enumerate(xs):
        if massless is not None:
            (q0, q1)[massless][i] = 0.0
    assume(q0.any() and q1.any())

    def fresh() -> InducedModel:
        # A new model each time: no call sees another's last solve.
        return InducedModel(q0=q0, q1=q1, llr=llr)

    edges = {float(z) for q in (q0, q1) for z in (llr[q > 0.0].min(), llr[q > 0.0].max())}
    zmin, zmax = min(edges), max(edges)
    ts = [zmin + f * (zmax - zmin) for f in fracs]
    ts += [z + k * 1e-12 * max(1.0, abs(z)) for z in edges]
    for q in (q0, q1):
        lo, hi = float(llr[q > 0.0].min()), float(llr[q > 0.0].max())
        tol_lo, tol_hi = _edge_tols(lo, hi)
        for end in (lo + tol_lo, hi - tol_hi):
            ts += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
        ts.append(float(q @ llr))
    ts += [zmin - 1.0 - fracs[0], zmax + 1.0 + fracs[0], -math.inf, math.inf]
    for t in ts:
        public = (rate_function(fresh(), 0, t).value, rate_function(fresh(), 1, t).value)
        assert np.array(_rates(fresh(), t)).tobytes() == np.array(public).tobytes(), (t, public)


# Four fixed models of 3-6 atoms, each with the rate_function points of
# _PINNED_NEWTON: t at each hypothesis's LLR mean, at 0 and at four points
# across the support.
_NEWTON_PIN_MODELS = [
    ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5)),
    ((0.4, 0.3, 0.2, 0.1), (0.1, 0.15, 0.3, 0.45)),
    ((0.35, 0.25, 0.2, 0.12, 0.08), (0.05, 0.1, 0.2, 0.3, 0.35)),
    ((0.3, 0.25, 0.18, 0.12, 0.1, 0.05), (0.02, 0.08, 0.1, 0.2, 0.25, 0.35)),
]
# Per model: (value, argmax_s) as float.hex of R_0 at E_0[Z] and R_1 at
# E_1[Z], where the Newton solve stops at its first step, and the sha256 of
# the repr of every point's pair in the order of the test.
_PINNED_NEWTON = [
    (
        [("0x0.0p+0", "0x0.0p+0"), ("0x0.0p+0", "-0x1.ab00000000000p-45")],
        "ed3d466051e2a1774398e87c5789408c92f089342f1a0f29985861e4f8f7c1de",
    ),
    (
        [("0x0.0p+0", "0x0.0p+0"), ("0x1.0000000000000p-52", "0x1.0000000000000p-52")],
        "253257ecb67756a223660f3af86743d2920c4c32265782be2857342c9b47cb05",
    ),
    (
        [("0x0.0p+0", "0x0.0p+0"), ("0x0.0p+0", "-0x1.0000000000000p-52")],
        "94854f916be0804ab832332fa372c5f25ee93d60bf6809099bcabc15a637a435",
    ),
    (
        [("0x0.0p+0", "0x0.0p+0"), ("0x0.0p+0", "-0x1.b400000000000p-47")],
        "5217c78d83d024e1d6e1c335409cc8b8cf15e7d2df08f92bbb8e05ac4e09e073",
    ),
]


def test_newton_solve_is_pinned_bit_for_bit():
    # The scalar Newton solve's last bits, values and argmax both.  Its
    # first step reads moments at s = 0 kept with the model's constants;
    # summing them in another order moves these digests.
    for (q0, q1), (at_means, digest) in zip(_NEWTON_PIN_MODELS, _PINNED_NEWTON, strict=True):
        q0, q1 = np.array(q0), np.array(q1)
        llr = np.log(q1) - np.log(q0)
        im = InducedModel(q0=q0, q1=q1, llr=llr)
        zmin, zmax = im.llr_support()
        ts = [im.llr_mean(0), im.llr_mean(1), 0.0] + [zmin + f * (zmax - zmin) for f in (0.05, 0.3, 0.7, 0.97)]
        got = []
        for t in ts:
            for j in (0, 1):
                # A new model each time: no call sees another's last solve.
                r = rate_function(InducedModel(q0=q0, q1=q1, llr=llr), j, t)
                got.append((r.value.hex(), r.argmax_s.hex()))
        assert [got[0], got[3]] == at_means
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest


@pytest.mark.parametrize("cap", [1, 2, 3, 5])
def test_scalar_and_grid_forms_stop_together_at_the_iteration_cap(monkeypatch, cap):
    # A solve cut off by the cap returns the value at its last s; both
    # forms take the same steps, so they agree there as they do at
    # convergence.
    monkeypatch.setattr(ex, "_NEWTON_CAP", cap)
    rng = np.random.default_rng(461)
    for k in (3, 4, 5):
        for _ in range(4):
            m = random_model(rng, k=k)
            zmin, zmax = likelihood_ratio_reduction(m).llr_support()
            ts = np.linspace(zmin, zmax, 23)[1:-1]
            for j in (0, 1):
                # New models, so that neither form reads a solve kept from
                # before the cap changed.
                grid = rate_function_grid(likelihood_ratio_reduction(m), j, ts)
                im = likelihood_ratio_reduction(m)
                for t, g in zip(ts.tolist(), grid.tolist()):
                    scalar = rate_function(im, j, t).value
                    assert abs(g - scalar) <= 1e-12 * max(1.0, abs(scalar)), (k, j, t, g, scalar)


def test_rate_function_names_its_hypothesis(table_model):
    im = _gamma2(table_model)
    for call in (lambda: rate_function(im, 2, 0.0), lambda: rate_function_grid(im, -1, np.array([0.0]))):
        with pytest.raises(ValueError) as exc:
            call()
        assert (exc.type, str(exc.value)) == (ValueError, "hypothesis must be 0 or 1")


def test_edge_zone_leaves_narrow_supports_their_interior():
    # Near-tied hypotheses put both LLR atoms within about 1e-12 of 0.  An
    # edge zone of 1e-12 * max(1, |edge|) covered the LLR means there, and
    # gave -log of an edge mass where the conjugate is 0; the zone is capped
    # at a millionth of the support's width.
    m = HypothesisModel(pmf0=(0.9, 0.09999999999999998), pmf1=(0.89999999999991, 0.10000000000009002))
    im = induce(m, Quantizer(map=(0, 1), message_alphabet_size=2))
    assert np.allclose(im.llr, (-1.0e-13, 9.0e-13), rtol=1e-3, atol=0.0)
    for j in (0, 1):
        for t in (im.llr_mean(0), im.llr_mean(1)):
            want = decimal_conjugate(im, j, t)
            assert abs(rate_function(im, j, t).value - want) <= 1e-15, (j, t, want)
            assert abs(rate_function_grid(im, j, np.array([t]))[0] - want) <= 1e-15, (j, t, want)
    rep = check_ordering(m, 0.5)
    assert rep["degenerate"]
    assert (rep["tree"], rep["daisy_restricted"], rep["parallel1"]) == (0.0, 0.0, 0.0)
    assert exponent_tree(m, 0.5).exponent == exponent_daisy_restricted(m, 0.5).exponent == 0.0
    # A support 1e-9 wide whose upper atom sits 9e-13 above t = 0: the old
    # zone at the upper edge reached past 0 and gave -log(0.9991) = 9.0e-4.
    m = HypothesisModel(pmf0=(0.0009, 0.9991), pmf1=(0.0008999999991, 0.9991000000009))
    im = induce(m, Quantizer(map=(0, 1), message_alphabet_size=2))
    for j in (0, 1):
        want = decimal_conjugate(im, j, 0.0)
        assert 1e-12 < want < 2e-12
        assert abs(rate_function(im, j, 0.0).value - want) <= 1e-18, (j, want)
        assert abs(rate_function_grid(im, j, np.array([0.0]))[0] - want) <= 1e-18, (j, want)


def test_rates_vanish_at_the_means_of_near_tied_models():
    # R_j at hypothesis j's own LLR mean is 0 up to rounding, on every 2-
    # and 3-atom quantizer of the near-tied sweep, in both forms.
    for m in near_tied_models():
        for d in (2, 3):
            for q in enumerate_quantizers(m, d):
                im = induce(m, q)
                if im.alphabet_size not in (2, 3):
                    continue
                for j in (0, 1):
                    t = im.llr_mean(j)
                    assert rate_function(im, j, t).value <= 1e-15, (m, q, j)
                    assert rate_function_grid(im, j, np.array([t]))[0] <= 1e-15, (m, q, j)
