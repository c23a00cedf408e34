"""Log moment generating functions of message LLRs and their conjugates.

For an induced message model with log-likelihood ratio Z = log(q1[Y]/q0[Y])
this module evaluates, for each hypothesis j in {0, 1},

    mgf:        L_j(s) = log E_j[exp(s Z)]        (convex, L_j(0) = 0)
    conjugate:  R_j(t) = sup_s { s t - L_j(s) }   (the large-deviation rate)

together with first and second derivatives of L_j via exponential tilting,
and the Chernoff value min over s in [0, 1] of L_0(s).  The alphabet is
finite, so every quantity is an exact finite sum evaluated in the log
domain with max-shift stabilization.  The array forms take the tilted
weights from one kernel, ``_tilt``.

Derivatives use the tilted distribution p(y) proportional to
q_j[y] exp(s Z[y]): L' equals the tilted mean of Z and L'' its tilted
variance, so L is convex and L' is nondecreasing.

Conventions at the edge of the support, where the conjugate is not defined
by a stationary point:

* t beyond [min Z, max Z]: the value is +inf (the sample mean of Z can
  never reach t).
* t at an endpoint: the value is -log P_j(Z = endpoint), the exact decay
  rate of the all-atoms-at-the-endpoint event.  "At" allows a zone of
  1e-12 * max(1, |endpoint|), capped at a millionth of the support's width
  so that the narrow support of near-tied hypotheses keeps its interior.
* degenerate Z (a single atom, necessarily at 0 for a valid model): the
  conjugate is 0 at t = 0 and +inf elsewhere.

The support is taken over the atoms with mass under that hypothesis: a
transcript atom whose mass underflowed to zero (see ``model.InducedModel``)
is a value the sample mean can never reach.

The conjugate solver.  Every R_j(t) comes from one solver, in a plain-float
scalar form and a grid form on ``_tilt`` (:func:`rate_function_grid`).  The
scalar form has one body, ``_conjugate``, and two entries: the public
:func:`rate_function`, and ``_rates``, which gives R_0 and R_1 at one t as
plain floats, bit for bit the same, for the staged search's point
evaluations.  Every caller in the package goes through these three, or
through ``_chernoff_value`` (below), which calls :func:`rate_function`.  At
an interior t:

* two massed atoms z_lo < z_hi: the closed form, the Bernoulli divergence
  of the tilted mass p = (t - z_lo) / (z_hi - z_lo) from q_j[hi].  Where
  both hypotheses sit on the same two atoms, ``_rates`` takes p, log p and
  log(1 - p) once for both divergences;
* three or more: a safeguarded Newton iteration from s = 0 on the log-odds
  phi(s) = log(L'(s) - zmin) - log(zmax - L'(s)), which is linear for two
  atoms and asymptotically linear at both ends, so it takes about 5 steps.
  Where a Newton step would leave the bracket on s, is undefined, or
  would not shrink below half the move before last, it bisects the
  bracket (or steps out of a half-infinite one), until the step test
  passes or no float is left inside the bracket.  The moments of the first
  step, at s = 0, do not depend on t, so the scalar form keeps them with
  the model's constants.  The grid form freezes each t once it stops, so a
  t's value does not depend on its batch.

The value is taken in the frame of the support edge the tilt leans toward,
s t - L(s) = -|s| (t - edge) - log sum_y q[y] exp(-|s| |Z[y] - edge|), so
no term grows with |s| and nothing cancels even where |s| reaches 1e9
(next to near-equal atoms).  Where both hypotheses have mass on the same
atoms, L_1(s) = L_0(s + 1) gives R_1(t) = R_0(t) - t, so one Newton solve
serves both; otherwise each hypothesis is solved over its own massed atoms.
Each form keeps its last Newton solve, so R_0 and R_1 at one t cost one
solve.

The Chernoff value.  L_0 is convex, L_0(0) = L_0(1) = 0, and its slopes at
0 and 1 are the LLR means E_0[Z] and E_1[Z].  So where the float means
straddle 0 the minimum over [0, 1] is -R_0(0), one solve
(``_chernoff_value``, which serves ``exponent_parallel``); otherwise it is
0.  The guard matters on near-tied hypotheses, whose float means can both
fall on one side of 0.  :func:`chernoff_exponent` keeps the golden section
on ``log_mgf`` for its argmin, which ``sgb_lower_bound`` reads.

The golden-section search uses absolute tolerance 1e-10 on its argument.
:func:`rate_function` returns the argmax along with the value.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import InducedModel

__all__ = [
    "RateFunctionValue",
    "log_mgf",
    "log_mgf_derivs",
    "chernoff_exponent",
    "rate_function",
    "rate_function_grid",
    "golden_section_min",
]

ARG_TOL = 1e-10
# Newton stops once its next step is below _STEP_TOL * max(1, |s|); the
# cap bounds a solve whose bracket never collapses.
_STEP_TOL = 1e-12
_NEWTON_CAP = 200
# Relative slack when comparing t against the endpoints of the LLR support,
# capped at a fraction of the support's width (see _edge_tols).
_EDGE_RTOL = 1e-12
_EDGE_WIDTH_FRAC = 1e-6


class RateFunctionValue(NamedTuple):
    """Conjugate value at t: nonnegative, +inf beyond the LLR support.

    ``argmax_s`` is the solution of L'(s) = t for interior t; it is +inf or
    -inf when t sits at (or beyond) the upper or lower end of the support,
    where the supremum is approached but never attained.  A named tuple,
    not a frozen dataclass: each public call builds one, and a tuple is
    built in about half the time.
    """

    t: float
    value: float
    argmax_s: float


def _edge_tols(zmin: float, zmax: float) -> tuple[float, float]:
    """The widths of the zones at the lower and upper support edge.

    A t within ``_EDGE_RTOL * max(1, |edge|)`` of an edge counts as on it,
    but never more than ``_EDGE_WIDTH_FRAC`` of the support's width: an
    absolute zone would swallow most of a support about 1e-12 wide (two
    near-tied hypotheses), and give the edge value at the LLR means, where
    the conjugate is 0.  Every support the width cap shortens is under
    1e-6 * max(1, |edge|) wide.
    """
    tol_lo, tol_hi = _EDGE_RTOL * max(1.0, abs(zmin)), _EDGE_RTOL * max(1.0, abs(zmax))
    width = zmax - zmin
    if width > 0.0:
        cap = _EDGE_WIDTH_FRAC * width
        tol_lo, tol_hi = min(tol_lo, cap), min(tol_hi, cap)
    return tol_lo, tol_hi


class _RateConstants:
    """Per-(model, hypothesis) constants of the log-MGF and of the solver.

    ``llr`` and ``logq`` cover every atom; ``logq`` is -inf on atoms whose
    mass underflowed to zero, so they drop out of every log-sum-exp.
    ``tol_lo`` and ``tol_hi`` are the edge zones of :func:`_edge_tols`, and
    ``rate_lo`` and ``rate_hi`` the conjugate values at the two support
    edges, -log of the mass in each zone.  ``lq_ends`` holds the (lower,
    upper) log masses when exactly two atoms carry mass, and is None
    otherwise.  The Newton solve's constants are built on its first use
    only, so that the log-MGF of a large transcript model never pays for
    them: ``massed`` gives the massed atoms' log masses and their distances
    to the lower and upper edge, ``shared`` says that both hypotheses have
    mass on the same atoms, and ``float_lists`` serves the scalar form:
    the same three as plain-float lists, and the moments of the Newton
    solve's first step, at s = 0, which do not depend on t.  ``last`` and
    ``last_grid`` hold the last scalar and grid Newton solve as (t, result).
    Each :class:`InducedModel` carries its two (built on first use, per
    hypothesis, by :func:`_rate_constants`), so they die with the model.
    Concurrent callers can at worst solve a t twice: a result depends on
    nothing but the constants and t.
    """

    def __init__(self, im: InducedModel, j: int) -> None:
        z = self.llr = im.llr
        q = im.q1 if j == 1 else im.q0
        with np.errstate(divide="ignore"):
            self.logq = np.log(q)
        # The support is where this hypothesis has mass: a massless atom's
        # LLR is no value the sample mean can reach.
        self._keep, self._q_other = q > 0.0, im.q0 if j == 1 else im.q1
        massed = z[self._keep]
        self.zmin, self.zmax = float(massed.min()), float(massed.max())
        self.tol_lo, self.tol_hi = _edge_tols(self.zmin, self.zmax)
        mass_lo = float(q[z <= self.zmin + self.tol_lo].sum())
        mass_hi = float(q[z >= self.zmax - self.tol_hi].sum())
        self.rate_lo = -math.log(mass_lo) if mass_lo > 0.0 else math.inf
        self.rate_hi = -math.log(mass_hi) if mass_hi > 0.0 else math.inf
        self.lq_ends = self.last = self.last_grid = None
        if len(massed) == 2 and self.zmax > self.zmin:
            lq = self.logq[self._keep]
            lo, hi = (0, 1) if massed[0] < massed[1] else (1, 0)
            self.lq_ends = (float(lq[lo]), float(lq[hi]))

    @cached_property
    def massed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        z = self.llr[self._keep]
        da, db = z - self.zmin, self.zmax - z
        return self.logq[self._keep], da, db, da * db

    @cached_property
    def shared(self) -> bool:
        return bool(np.array_equal(self._keep, self._q_other > 0.0))

    @cached_property
    def float_lists(self) -> tuple[list[float], list[float], list[float], tuple[float, ...]]:
        lq, da, db, _ = self.massed
        lqs, das, dbs = lq.tolist(), da.tolist(), db.tolist()
        return lqs, das, dbs, _moments(lqs, das, das, dbs, 0.0)


def _rate_constants(im: InducedModel, j: int) -> _RateConstants:
    if j != 0 and j != 1:
        raise ValueError("hypothesis must be 0 or 1")
    per_model = im._solver_constants
    consts = per_model[j]
    if consts is None:
        consts = per_model[j] = _RateConstants(im, j)
    return consts


def _tilt(logq: np.ndarray, x: np.ndarray, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted tilted weights at every s, broadcast over s's shape.

    Returns (m, w, total) with w = exp(logq + s x - m) along a new last
    axis, m the per-s maximum exponent and total = w.sum(-1), so that
    log sum exp(logq + s x) = m + log(total).  ``x`` is the LLR for the
    log-MGF, or per row the distances to a support edge for the solver.
    """
    a = logq + np.asarray(s)[..., None] * x
    m = a.max(axis=-1)
    w = np.exp(a - m[..., None])
    return m, w, w.sum(axis=-1)


def log_mgf(im: InducedModel, j: int, s: float) -> float:
    """log sum_y q_j[y] exp(s llr[y]), with max-shift stabilization."""
    c = _rate_constants(im, j)
    m, _, total = _tilt(c.logq, c.llr, s)
    return float(m + math.log(total))


def log_mgf_derivs(im: InducedModel, j: int, s: float) -> tuple[float, float, float]:
    """(L, L', L'') at s, via the tilted distribution q_j exp(s Z - L).

    L' is the tilted mean of Z and L'' the tilted variance, both exact.
    """
    c = _rate_constants(im, j)
    m, w, total = _tilt(c.logq, c.llr, s)
    val = float(m + math.log(total))
    p = w / total
    d1 = float(p @ c.llr)
    d2 = float(p @ (c.llr * c.llr) - d1 * d1)
    return val, d1, max(d2, 0.0)


def golden_section_min(f, lo: float, hi: float, tol: float = ARG_TOL) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi].

    Returns (argmin, value).  Deterministic: fixed shrink schedule, no
    early exit on function values.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = float(lo), float(hi)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + invphi2 * h
    d = a + invphi * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def chernoff_exponent(im: InducedModel) -> tuple[float, float]:
    """min over s in [0, 1] of L_0(s), by golden section on the convex L_0.

    Returns (value, argmin).  The value is nonpositive: L_0(0) = L_0(1) = 0
    and L_0 is convex, so the interior minimum can only dip below zero.
    """
    s_star, val = golden_section_min(lambda s: log_mgf(im, 0, s), 0.0, 1.0, tol=ARG_TOL)
    return min(val, 0.0), s_star


def _grid_edges(c: _RateConstants, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_conjugate`'s support-edge rules over a vector of t: (out, interior).

    ``interior`` masks the points still to solve, whose entries of ``out``
    are left unset.
    """
    out = np.empty_like(ts)
    hi_out = ts > c.zmax + c.tol_hi
    lo_out = ts < c.zmin - c.tol_lo
    if c.zmax == c.zmin:
        out[:] = np.where(hi_out | lo_out, np.inf, 0.0)
        return out, np.zeros(ts.shape, dtype=bool)
    hi_edge = ~hi_out & (ts >= c.zmax - c.tol_hi)
    lo_edge = ~lo_out & (ts <= c.zmin + c.tol_lo)
    interior = ~(hi_out | lo_out | hi_edge | lo_edge)
    out[hi_out | lo_out] = np.inf
    out[hi_edge] = c.rate_hi
    out[lo_edge] = c.rate_lo
    return out, interior


def _bernoulli(lq_ends: tuple[float, float], p, log_p, log_1p):
    # Bernoulli divergence of the tilted mass p on the high atom from q[hi],
    # from log p and log(1 - p): a float, or an array over t.
    lo, hi = lq_ends
    return p * (log_p - hi) + (1.0 - p) * (log_1p - lo)


def _two_atom(c: _RateConstants, t):
    # The closed form on two massed atoms; the scalar form also returns the
    # tilt s that puts mass p on the high atom.
    width = c.zmax - c.zmin
    p = (t - c.zmin) / width
    if isinstance(p, float):
        log_p, log_1p = math.log(p), math.log1p(-p)
        lo, hi = c.lq_ends
        return max(_bernoulli(c.lq_ends, p, log_p, log_1p), 0.0), (log_p - log_1p - (hi - lo)) / width
    return np.maximum(_bernoulli(c.lq_ends, p, np.log(p), np.log1p(-p)), 0.0)


def _safeguard(lo, hi):
    # Bisect a finite bracket, or step out of a half-infinite one.
    if isinstance(lo, float):
        if math.isinf(hi):
            return lo + max(1.0, abs(lo))
        if math.isinf(lo):
            return hi - max(1.0, abs(hi))
        return 0.5 * (lo + hi)
    return np.where(
        np.isinf(hi),
        lo + np.maximum(1.0, np.abs(lo)),
        np.where(np.isinf(lo), hi - np.maximum(1.0, np.abs(hi)), 0.5 * (lo + hi)),
    )


def _moments(lqs: list[float], ds: list[float], das: list[float], dbs: list[float], k: float) -> tuple[float, ...]:
    """(amax, tot, u, v, uv): the tilted moments of one Newton step, unnormalized.

    The tilted weights are exp(lq + k d - amax), with k = -|s| and d each
    atom's distance to the edge the tilt leans toward (``ds``); tot is
    their sum, and u, v and uv their sums against Z - zmin, zmax - Z and
    the product of the two.
    """
    avals = [lq + k * x for lq, x in zip(lqs, ds)]
    amax = max(avals)
    tot = u = v = uv = 0.0
    for av, a, b in zip(avals, das, dbs):
        w = math.exp(av - amax)
        tot += w
        u += w * a
        v += w * b
        uv += w * a * b
    return amax, tot, u, v, uv


def _newton(c: _RateConstants, t: float) -> tuple[float, float]:
    """(s t - L(s), s) at the s solving L'(s) = t, for an interior t.

    Solves phi(s) = log(L'(s) - zmin) - log(zmax - L'(s)) = phi(t) from
    s = 0, where u = E[Z - zmin] and v = E[zmax - Z] are sums of
    nonnegative terms and phi' = W (1 - E[(Z - zmin)(zmax - Z)] / (u v))
    with W = zmax - zmin.  The first step's moments, at s = 0, do not
    depend on t and come from the constants.  The step test comes before
    the bracket safeguard, and a point where u or v underflows to 0 only
    narrows the bracket.  As in Numerical Recipes' rtsafe, a Newton step
    is taken only if it stays inside the bracket and is under half the move
    before last, so Newton cannot cycle where phi bends; otherwise the
    bracket is bisected.  The weights, and so the value, are taken in the frame of the
    edge the tilt leans toward: lower for s <= 0, upper for s > 0.  The
    value is not clamped at 0.  It runs on plain floats: message alphabets
    are tiny, so array dispatch would dominate, and the staged search's
    point evaluations solve tens of thousands of times per search.
    """
    last = c.last
    if last is not None and last[0] == t:
        return last[1]
    lqs, das, dbs, start = c.float_lists
    width = c.zmax - c.zmin
    ta, tb = t - c.zmin, c.zmax - t
    target = math.log(ta) - math.log(tb)
    s, lo, hi = 0.0, -math.inf, math.inf
    dx = dx_old = math.inf  # the last two moves of s
    k, (amax, tot, u, v, uv) = 0.0, start
    for i in range(_NEWTON_CAP):
        if u > 0.0 and v > 0.0:
            f = math.log(u) - math.log(v) - target
            slope = width * (1.0 - uv * tot / (u * v))
            step = f / slope if slope > 0.0 else math.nan
            if abs(step) <= _STEP_TOL * max(1.0, abs(s)):
                break
        else:
            # u or v underflowed: phi is -inf or +inf here, so only bracket.
            f, step = (math.inf if u > 0.0 else -math.inf), math.nan
        if f > 0.0:
            hi = s
        else:
            lo = s
        s_new = s - step
        if not (lo < s_new < hi and abs(step) < 0.5 * dx_old):
            s_new = _safeguard(lo, hi)
        if not lo < s_new < hi or i == _NEWTON_CAP - 1:
            # No float is left inside the bracket: s is as close as it gets.
            break
        dx, dx_old = abs(s_new - s), dx
        s = s_new
        # k = -|s|, and each atom's distance to the edge the tilt leans toward.
        k, ds = (s, das) if s <= 0.0 else (-s, dbs)
        amax, tot, u, v, uv = _moments(lqs, ds, das, dbs, k)
    out = k * (ta if s <= 0.0 else tb) - (amax + math.log(tot)), s
    c.last = (t, out)
    return out


def _newton_grid(c: _RateConstants, t: np.ndarray) -> np.ndarray:
    """:func:`_newton`'s values over a vector of interior t, on ``_tilt``.

    The iteration state holds the rows still running; a row leaves it once
    it stops, so its value never depends on the rest of the batch.
    """
    last = c.last_grid
    if last is not None and np.array_equal(last[0], t):
        return last[1]
    lq, da, db, dab = c.massed
    width = c.zmax - c.zmin
    n = len(t)
    val, idx = np.empty(n), np.arange(n)
    ta, tb = t - c.zmin, c.zmax - t
    target = np.log(ta) - np.log(tb)
    s, lo, hi = np.zeros(n), np.full(n, -np.inf), np.full(n, np.inf)
    dx = dx_old = np.full(n, np.inf)  # the last two moves of each s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(_NEWTON_CAP):
            low = s <= 0.0
            k = -np.abs(s)
            m, w, tot = _tilt(lq, np.where(low[:, None], da, db), k)
            u, v, uv = (w * da).sum(-1), (w * db).sum(-1), (w * dab).sum(-1)
            valid = (u > 0.0) & (v > 0.0)
            f = np.where(valid, np.log(u) - np.log(v) - target, np.where(u > 0.0, np.inf, -np.inf))
            slope = width * (1.0 - uv * tot / (u * v))
            step = np.where(valid & (slope > 0.0), f / slope, np.nan)
            done = np.abs(step) <= _STEP_TOL * np.maximum(1.0, np.abs(s))
            up = f > 0.0
            lo, hi = np.where(up, lo, s), np.where(up, s, hi)
            s_new = s - step
            bisect = ~((lo < s_new) & (s_new < hi) & (np.abs(step) < 0.5 * dx_old))
            if bisect.any():
                lo_b, hi_b = lo[bisect], hi[bisect]
                s_b = s_new[bisect] = _safeguard(lo_b, hi_b)
                # No float left inside the bracket: the row stops.
                done[bisect] |= ~((lo_b < s_b) & (s_b < hi_b))
            if i == _NEWTON_CAP - 1:
                done[:] = True
            dx, dx_old = np.abs(s_new - s), dx
            if done.any():
                dt = np.where(low[done], ta[done], tb[done])
                val[idx[done]] = k[done] * dt - (m[done] + np.log(tot[done]))
                go = ~done
                if not go.any():
                    break
                idx, s_new, lo, hi, dx, dx_old = idx[go], s_new[go], lo[go], hi[go], dx[go], dx_old[go]
                ta, tb, target = ta[go], tb[go], target[go]
            s = s_new
    c.last_grid = (t, val)
    return val


def _newton_source(im: InducedModel, j: int, c: _RateConstants) -> tuple[_RateConstants, bool]:
    """The constants whose Newton solve gives R_j, and whether to shift it.

    Where both hypotheses have mass on the same atoms, L_1(s) = L_0(s + 1)
    gives R_1(t) = R_0(t) - t at s_1 = s_0 - 1, so hypothesis 0's solve
    serves both.  The Newton forms keep their last solve, so R_0 and R_1 at
    one t cost one solve.
    """
    if j == 1 and c.shared:
        return _rate_constants(im, 0), True
    return c, False


def _conjugate(im: InducedModel, j: int, c: _RateConstants, t: float) -> tuple[float, float]:
    """(R_j(t), argmax) by the scalar form of the one solver, for ``c`` = hypothesis j's constants.

    The support-edge rules of the module docstring, then the two-atom
    closed form or the Newton solve, shifted by the duality where
    hypothesis 0's solve serves hypothesis 1.
    """
    if t > c.zmax + c.tol_hi:
        return math.inf, math.inf
    if t < c.zmin - c.tol_lo:
        return math.inf, -math.inf
    if c.zmax == c.zmin:
        # Single atom; for a valid model it sits at llr 0.
        return 0.0, 0.0
    if t >= c.zmax - c.tol_hi:
        return c.rate_hi, math.inf
    if t <= c.zmin + c.tol_lo:
        return c.rate_lo, -math.inf
    if c.lq_ends is not None:
        return _two_atom(c, t)
    src, dual = _newton_source(im, j, c)
    raw, s = _newton(src, t)
    if dual:
        raw, s = raw - t, s - 1.0
    return max(raw, 0.0), s


def rate_function(im: InducedModel, j: int, t: float) -> RateFunctionValue:
    """Conjugate R_j(t) = sup_s {s t - L_j(s)}, with its argmax.

    The scalar form of the one solver (module docstring), with the endpoint
    and out-of-support conventions there.  A NaN ``t`` raises ValueError.
    """
    if t != t:
        raise ValueError("t must not be NaN")
    value, s = _conjugate(im, j, _rate_constants(im, j), t)
    return RateFunctionValue(t, value, s)


def _rates(im: InducedModel, t: float) -> tuple[float, float]:
    """(R_0(t), R_1(t)) as plain floats: rate_function's two values, bit for bit.

    The staged search's entry to the scalar form where it reads both
    hypotheses at one threshold, thousands of times per search: it needs
    neither the public function's NaN check nor its result tuple.
    ``t`` must not be NaN.
    """
    c0, c1 = _rate_constants(im, 0), _rate_constants(im, 1)
    ends0, ends1 = c0.lq_ends, c1.lq_ends
    if (
        ends0 is not None
        and ends1 is not None
        and c0.zmin == c1.zmin
        and c0.zmax == c1.zmax
        and c0.zmin + c0.tol_lo < t < c0.zmax - c0.tol_hi
    ):
        # Both hypotheses on the same two atoms, t inside: one tilted mass
        # p and its two logs serve both closed forms.
        p = (t - c0.zmin) / (c0.zmax - c0.zmin)
        log_p, log_1p = math.log(p), math.log1p(-p)
        return max(_bernoulli(ends0, p, log_p, log_1p), 0.0), max(_bernoulli(ends1, p, log_p, log_1p), 0.0)
    return _conjugate(im, 0, c0, t)[0], _conjugate(im, 1, c1, t)[0]


def _chernoff_value(im: InducedModel) -> float:
    """min over s in [0, 1] of L_0(s), the Chernoff value, from one solve.

    L_0 is convex with L_0(0) = L_0(1) = 0, L_0'(0) = E_0[Z] and
    L_0'(1) = E_1[Z].  Where the float LLR means straddle 0, the minimum
    is interior and equals -R_0(0).  Otherwise it sits at an end and is 0:
    on near-tied hypotheses both float means can fall on one side of 0,
    where R_0(0) would read an edge or a conjugate that no s in [0, 1]
    attains.  :func:`chernoff_exponent`'s golden section gives the same
    value to about 1e-14.
    """
    if im.llr_mean(0) <= 0.0 <= im.llr_mean(1):
        return -rate_function(im, 0, 0.0).value
    return 0.0


def rate_function_grid(im: InducedModel, j: int, ts: np.ndarray) -> np.ndarray:
    """Conjugate values R_j(t) for a whole vector of t at once.

    The grid form of the one solver: it agrees with :func:`rate_function`
    to about 1e-14 relative, and each t's value is independent of the rest
    of ``ts``.  A NaN entry raises ValueError.
    """
    ts = np.asarray(ts, dtype=float)
    if np.isnan(ts).any():
        raise ValueError("t must not be NaN")
    c = _rate_constants(im, j)
    r, interior = _grid_edges(c, ts)
    if interior.any():
        t = ts[interior]
        if c.lq_ends is not None:
            r[interior] = _two_atom(c, t)
        else:
            src, dual = _newton_source(im, j, c)
            raw = _newton_grid(src, t)
            r[interior] = np.maximum(raw - t if dual else raw, 0.0)
    return r
