"""Log moment generating functions of message LLRs and their conjugates.

For an induced message model with log-likelihood ratio Z = log(q1[Y]/q0[Y])
this module evaluates, for each hypothesis j in {0, 1},

    mgf:        L_j(s) = log E_j[exp(s Z)]        (convex, L_j(0) = 0)
    conjugate:  R_j(t) = sup_s { s t - L_j(s) }   (the large-deviation rate)

together with first and second derivatives of L_j via exponential tilting,
and the Chernoff exponent min over s in [0, 1] of L_0(s).  The alphabet is
finite, so every quantity is an exact finite sum evaluated in the log
domain with max-shift stabilization.

Derivatives use the tilted distribution p(y) proportional to
q_j[y] exp(s Z[y]): L' equals the tilted mean of Z and L'' its tilted
variance, so L is convex and L' is nondecreasing.  The conjugate solver
exploits that monotonicity: Newton iteration on L'(s) = t guarded by an
always-valid bracket, with plain bisection as the fallback.  Every array
solver takes the tilted weights from one kernel, ``_tilt``; the scalar
solver keeps a plain-float copy of it (see :func:`rate_function`).

Conventions at the edge of the support, where the conjugate is not defined
by a stationary point:

* t beyond [min Z, max Z]: the value is +inf (the sample mean of Z can
  never reach t).
* t exactly at an endpoint: the value is -log P_j(Z = endpoint), the exact
  decay rate of the all-atoms-at-the-endpoint event.
* degenerate Z (a single atom, necessarily at 0 for a valid model): the
  conjugate is 0 at t = 0 and +inf elsewhere.

The support is taken over the atoms with mass under that hypothesis: a
transcript atom whose mass underflowed to zero (see ``model.InducedModel``)
is a value the sample mean can never reach.

The decision kernel.  ``_decide_rate`` (scalar) and ``_decide_rate_grid``
(over t) are private and serve only the decisions of the staged search in
``architectures``; the public functions never use them.  On a model whose
atoms all have finite log mass under both hypotheses, both hypotheses share
one support and one tilted distribution, and L_1(s) = L_0(s + 1) gives
R_1(t) = R_0(t) - t, so one solve at t serves both.  At an interior t:

* two atoms z_lo < z_hi: the closed form, the Bernoulli divergence of the
  tilted mass p = (t - z_lo) / (z_hi - z_lo) from q_j[hi];
* three or more atoms: a safeguarded Newton iteration from s = 0 on the
  log-odds phi(s) = log(L'(s) - min Z) - log(max Z - L'(s)), which is
  linear for two atoms and asymptotically linear at both ends, so it takes
  about 5 steps.  The grid form runs it on ``_tilt`` and freezes each t once
  it converges, so a t's value does not depend on the rest of its batch.

The kernel defers to the solvers, and returns their values, at edge and
out-of-support t, on one-atom models and models with a massless atom, and
at any t where the Newton solve cannot be certified (the iteration cap, a
residual L'(s) - t beyond tolerance, or an |s| so large that s t - L(s)
loses the digits asked of it).  Elsewhere it agrees with
:func:`rate_function` to about 1e-12 relative, not bit for bit, so it only
decides: the staged search reports through :func:`rate_function`.

The scalar conjugate solver and the golden-section search use absolute
tolerance 1e-10 on their argument; the vectorized grid solver bisects each
t to a bracket of 1e-12.  Solvers return the argmax along with the value so
results can be reproduced exactly.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

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
_NEWTON_CAP = 100
# Step tolerance and value accuracy of the decision kernel, relative to
# scale; and a bound on the relative rounding of s t - L(s) at |s| = 1,
# in the kernel and in the solver it stands in for.
_DECIDE_TOL = 1e-12
_ROUNDING = 1e-15
# Relative slack when comparing t against the endpoints of the LLR support.
_EDGE_RTOL = 1e-12


@dataclass(frozen=True)
class RateFunctionValue:
    """Conjugate value at t: nonnegative, +inf beyond the LLR support.

    ``argmax_s`` is the solution of L'(s) = t for interior t; it is +inf or
    -inf when t sits at (or beyond) the upper or lower end of the support,
    where the supremum is approached but never attained.
    """

    t: float
    value: float
    argmax_s: float


class _RateConstants:
    """Per-(model, hypothesis) constants shared by every solver.

    ``logq`` is -inf on atoms whose mass underflowed to zero, so they drop
    out of every log-sum-exp.  ``rate_lo`` and ``rate_hi`` are the
    conjugate values at the two support edges, -log of the edge mass.
    ``float_lists`` is built on the scalar solver's first call only.
    """

    def __init__(self, im: InducedModel, j: int) -> None:
        z = self.llr = im.llr
        q = self.q = im.q1 if j == 1 else im.q0
        with np.errstate(divide="ignore"):
            self.logq = np.log(q)
        # The support is where this hypothesis has mass: a massless atom's
        # LLR is no value the sample mean can reach.
        massed = z[q > 0.0]
        self.zmin, self.zmax = float(massed.min()), float(massed.max())
        self.tol_lo = _EDGE_RTOL * max(1.0, abs(self.zmin))
        self.tol_hi = _EDGE_RTOL * max(1.0, abs(self.zmax))
        mass_lo = float(q[z <= self.zmin + self.tol_lo].sum())
        mass_hi = float(q[z >= self.zmax - self.tol_hi].sum())
        self.rate_lo = -math.log(mass_lo) if mass_lo > 0.0 else math.inf
        self.rate_hi = -math.log(mass_hi) if mass_hi > 0.0 else math.inf

    @cached_property
    def float_lists(self) -> tuple[list[float], list[float]]:
        lqs = [math.log(v) if v > 0.0 else -math.inf for v in self.q.tolist()]
        return self.llr.tolist(), lqs


# Keyed weakly on the (immutable, identity-hashed) InducedModel so the memo
# never outlives its model.
_RATE_CONSTANTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _rate_constants(im: InducedModel, j: int) -> _RateConstants:
    if j not in (0, 1):
        raise ValueError("hypothesis must be 0 or 1")
    per_model = _RATE_CONSTANTS.get(im)
    if per_model is None:
        per_model = _RATE_CONSTANTS[im] = [None, None]
    consts = per_model[j]
    if consts is None:
        consts = per_model[j] = _RateConstants(im, j)
    return consts


def _tilt(c: _RateConstants, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-shifted tilted weights at every s, broadcast over s's shape.

    Returns (m, w, total) with w = exp(log q + s Z - m) along a new last
    axis, m the per-s maximum exponent and total = w.sum(-1), so that
    L(s) = m + log(total) and w / total is the tilted distribution.
    """
    a = c.logq + np.asarray(s)[..., None] * c.llr
    m = a.max(axis=-1)
    w = np.exp(a - m[..., None])
    return m, w, w.sum(axis=-1)


def log_mgf(im: InducedModel, j: int, s: float) -> float:
    """log sum_y q_j[y] exp(s llr[y]), with max-shift stabilization."""
    m, _, total = _tilt(_rate_constants(im, j), s)
    return float(m + math.log(total))


def log_mgf_derivs(im: InducedModel, j: int, s: float) -> tuple[float, float, float]:
    """(L, L', L'') at s, via the tilted distribution q_j exp(s Z - L).

    L' is the tilted mean of Z and L'' the tilted variance, both exact.
    """
    c = _rate_constants(im, j)
    m, w, total = _tilt(c, s)
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


def rate_function(im: InducedModel, j: int, t: float) -> RateFunctionValue:
    """Conjugate R_j(t) = sup_s {s t - L_j(s)}, solved to 1e-10 in s.

    Newton iteration on the monotone L'(s) = t with a maintained bracket
    and bisection fallback; endpoint and out-of-support conventions as in
    the module docstring.  The support edges and the float lists are
    computed once per (im, j).

    The inner ``derivs`` kernel repeats ``_tilt`` on plain floats on
    purpose.  Message alphabets are tiny, so array dispatch dominates: on
    two- and three-atom models one (L, L', L'') evaluation takes about
    2 us here against 11-15 us through ``log_mgf_derivs`` (timeit, 2-core
    x86 VM, numpy 2.4), and the staged searches call this solver tens of
    thousands of times per search.

    When Newton converges from one side, the step that should stop it can
    land on the bracket end it just set, fail the bracket test and bisect
    the remaining bracket first, about 30 ``derivs`` calls of waste.  That
    waste stays on purpose: this solver computes every reported number, and
    stopping earlier would move their last bits.  The decision kernel takes
    its step test before its safeguard instead.
    """
    c = _rate_constants(im, j)
    zmin, zmax, tol_lo, tol_hi = c.zmin, c.zmax, c.tol_lo, c.tol_hi
    if zmax - zmin == 0.0:
        # Single atom; for a valid model it sits at llr 0.
        at = 0.0 if abs(t - zmin) <= tol_lo else math.inf
        return RateFunctionValue(t=t, value=at, argmax_s=0.0 if at == 0.0 else math.inf)
    if t > zmax + tol_hi:
        return RateFunctionValue(t=t, value=math.inf, argmax_s=math.inf)
    if t < zmin - tol_lo:
        return RateFunctionValue(t=t, value=math.inf, argmax_s=-math.inf)
    if t >= zmax - tol_hi:
        return RateFunctionValue(t=t, value=c.rate_hi, argmax_s=math.inf)
    if t <= zmin + tol_lo:
        return RateFunctionValue(t=t, value=c.rate_lo, argmax_s=-math.inf)
    zs, lqs = c.float_lists

    def derivs(s: float) -> tuple[float, float, float]:
        avals = [lq + s * zv for lq, zv in zip(lqs, zs)]
        amax = max(avals)
        tot = mean = 0.0
        ws = []
        for av, zv in zip(avals, zs):
            w = math.exp(av - amax)
            ws.append(w)
            tot += w
            mean += w * zv
        mean /= tot
        var = 0.0
        for w, zv in zip(ws, zs):
            var += w * (zv - mean) * (zv - mean)
        return amax + math.log(tot), mean, var / tot

    # Bracket [lo, hi] with L'(lo) <= t <= L'(hi); L' is nondecreasing.
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if derivs(hi)[1] >= t:
            break
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        if derivs(lo)[1] <= t:
            break
        lo, hi = lo * 2.0, lo

    s = 0.5 * (lo + hi) if not lo < 0.0 < hi else 0.0
    val = d1 = d2 = 0.0
    for _ in range(_NEWTON_CAP):
        val, d1, d2 = derivs(s)
        f = d1 - t
        if f > 0.0:
            hi = s
        else:
            lo = s
        if hi - lo <= ARG_TOL:
            break
        step = f / d2 if d2 > 0.0 else math.nan
        s_new = s - step
        if not (lo < s_new < hi) or not math.isfinite(s_new):
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= ARG_TOL:
            s = s_new
            val = derivs(s)[0]
            break
        s = s_new
    else:
        val = derivs(s)[0]
    return RateFunctionValue(t=t, value=max(s * t - val, 0.0), argmax_s=s)


def _grid_edges(c: _RateConstants, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, interior) for a model with at least two distinct atoms.

    ``out`` holds the edge and out-of-support values of ts under the
    module-docstring conventions; ``interior`` masks the points still to
    solve, whose entries of ``out`` are left unset.
    """
    out = np.empty_like(ts)
    hi_out = ts > c.zmax + c.tol_hi
    lo_out = ts < c.zmin - c.tol_lo
    hi_edge = ~hi_out & (ts >= c.zmax - c.tol_hi)
    lo_edge = ~lo_out & (ts <= c.zmin + c.tol_lo)
    interior = ~(hi_out | lo_out | hi_edge | lo_edge)
    out[hi_out | lo_out] = np.inf
    out[hi_edge] = c.rate_hi
    out[lo_edge] = c.rate_lo
    return out, interior


def rate_function_grid(im: InducedModel, j: int, ts: np.ndarray) -> np.ndarray:
    """Conjugate values R_j(t) for a whole vector of t at once.

    Pure bisection on L'(s) = t, vectorized across t; agrees with the
    scalar solver to about 1e-9 and exists because the architecture
    optimizers evaluate dense t grids in their inner loops.
    """
    ts = np.asarray(ts, dtype=float)
    c = _rate_constants(im, j)
    if c.zmax - c.zmin == 0.0:
        near0 = np.abs(ts - c.zmin) <= c.tol_lo
        return np.where(near0, 0.0, np.inf)
    out, interior = _grid_edges(c, ts)
    if not np.any(interior):
        return out

    t_in = ts[interior]

    def dmean(s: np.ndarray) -> np.ndarray:
        _, w, total = _tilt(c, s)
        return (w @ c.llr) / total

    lo = np.full(t_in.shape, -1.0)
    hi = np.full(t_in.shape, 1.0)
    for _ in range(64):
        need = dmean(hi) < t_in
        if not need.any():
            break
        lo = np.where(need, hi, lo)
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(64):
        need = dmean(lo) > t_in
        if not need.any():
            break
        hi = np.where(need, lo, hi)
        lo = np.where(need, lo * 2.0, lo)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        high_side = dmean(mid) > t_in
        hi = np.where(high_side, mid, hi)
        lo = np.where(high_side, lo, mid)
        if float((hi - lo).max()) <= 1e-12:
            break
    s = 0.5 * (lo + hi)
    m, _, total = _tilt(c, s)
    vals = m + np.log(total)
    out[interior] = np.maximum(s * t_in - vals, 0.0)
    return out


class _Decider:
    """Per-model constants of the decision kernel, and its last scalar solve.

    ``branch`` is "two" for two atoms and "newton" for three or more, each
    of finite log mass under both hypotheses; it is None on every other
    model, where the kernel defers to the solvers.  Both hypotheses then
    share one support and one tilted distribution, so one solve gives both
    conjugates.  ``last`` holds the scalar form's last t and its (R_0, R_1),
    or None if that solve deferred, since the staged search asks for R_0
    and R_1 at one t in turn.
    """

    def __init__(self, im: InducedModel) -> None:
        c0 = self.c0 = _rate_constants(im, 0)
        c1 = _rate_constants(im, 1)
        self.zmin, self.zmax = c0.zmin, c0.zmax
        self.lo, self.hi = c0.zmin + c0.tol_lo, c0.zmax - c0.tol_hi
        self.scale = max(1.0, abs(self.zmin), abs(self.zmax))
        self.last: tuple[float, tuple[float, float] | None] = (math.nan, None)
        self.branch = None
        if self.zmax > self.zmin and np.isfinite(c0.logq).all() and np.isfinite(c1.logq).all():
            z = c0.llr
            if len(z) == 2:
                lo, hi = (0, 1) if z[0] < z[1] else (1, 0)
                self.branch = "two"
                self.ends = (float(z[lo]), float(z[hi]))
                self.logq_ends = [(float(c.logq[lo]), float(c.logq[hi])) for c in (c0, c1)]
            else:
                self.branch = "newton"
                # Distances to both edges, and their product, per atom.
                self.da, self.db = z - self.zmin, self.zmax - z
                self.dab = self.da * self.db

    @cached_property
    def float_lists(self) -> tuple[list[float], ...]:
        zs, lqs = self.c0.float_lists
        return zs, lqs, self.da.tolist(), self.db.tolist()


_DECIDERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _decider(im: InducedModel) -> _Decider:
    d = _DECIDERS.get(im)
    if d is None:
        d = _DECIDERS[im] = _Decider(im)
    return d


def _two_atom_rates(d: _Decider, t):
    # Bernoulli divergence of the tilted mass p on the high atom from q_j[hi].
    z_lo, z_hi = d.ends
    p = (t - z_lo) / (z_hi - z_lo)
    if isinstance(p, float):
        return tuple(max(p * (math.log(p) - hi) + (1.0 - p) * (math.log1p(-p) - lo), 0.0) for lo, hi in d.logq_ends)
    return tuple(np.maximum(p * (np.log(p) - hi) + (1.0 - p) * (np.log1p(-p) - lo), 0.0) for lo, hi in d.logq_ends)


def _newton_rates(d: _Decider, t: float) -> tuple[float, float] | None:
    """(R_0, R_1) at an interior t by Newton on the log-odds, or None.

    Solves phi(s) = log(L'(s) - zmin) - log(zmax - L'(s)) = phi(t) from
    s = 0, where u = E[Z - zmin] and v = E[zmax - Z] are sums of
    nonnegative terms and phi' = W (1 - E[(Z - zmin)(zmax - Z)] / (u v))
    with W = zmax - zmin.  The step test comes before the bracket
    safeguard, and a point where u or v underflows to 0 only narrows the
    bracket.  Both values come from the one s, R_j = (s - j) t - L_0(s),
    since L_1(s - 1) = L_0(s).  None where the solve cannot be certified:
    the iteration cap, L'(s) off t by more than ``ARG_TOL`` of the
    support's scale, or an |s| so large that rounding in s t - L(s) could
    exceed ``_DECIDE_TOL`` relative.
    """
    zs, lqs, das, dbs = d.float_lists
    zmin, zmax = d.zmin, d.zmax
    width = zmax - zmin
    target = math.log(t - zmin) - math.log(zmax - t)
    s, lo, hi = 0.0, -math.inf, math.inf
    for _ in range(_NEWTON_CAP):
        avals = [lq + s * zv for lq, zv in zip(lqs, zs)]
        amax = max(avals)
        tot = u = v = uv = 0.0
        for av, a, b in zip(avals, das, dbs):
            w = math.exp(av - amax)
            tot += w
            u += w * a
            v += w * b
            uv += w * a * b
        if u > 0.0 and v > 0.0:
            f = math.log(u) - math.log(v) - target
            slope = width * (1.0 - uv * tot / (u * v))
            step = f / slope if slope > 0.0 else math.nan
            if abs(step) <= _DECIDE_TOL * max(1.0, abs(s)):
                break
        else:
            # u or v underflowed: phi is -inf or +inf here, so only bracket.
            f, step = (math.inf if u > 0.0 else -math.inf), math.nan
        if f > 0.0:
            hi = s
        else:
            lo = s
        s_new = s - step
        if not lo < s_new < hi:
            s_new = _safeguard(lo, hi)
        s = s_new
    else:
        return None
    val = amax + math.log(tot)
    r0, r1 = max(s * t - val, 0.0), max((s - 1.0) * t - val, 0.0)
    if abs(zmin + u / tot - t) > ARG_TOL * d.scale:
        return None
    if (abs(s) + 1.0) * d.scale * _ROUNDING > _DECIDE_TOL * max(1.0, min(r0, r1)):
        return None
    return r0, r1


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


def _newton_rates_grid(d: _Decider, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_newton_rates` over a vector of interior t, on ``_tilt``.

    Returns (R_0, R_1, ok).  A row is frozen once its step test passes, so
    its value never depends on the rest of the batch; rows with ok False
    are left for the caller.
    """
    zmin, zmax = d.zmin, d.zmax
    width = zmax - zmin
    target = np.log(t - zmin) - np.log(zmax - t)
    n = len(t)
    s, lo, hi = np.zeros(n), np.full(n, -np.inf), np.full(n, np.inf)
    val, mean = np.full(n, np.nan), np.full(n, np.nan)
    rows = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_CAP):
            if not len(rows):
                break
            sr = s[rows]
            m, w, tot = _tilt(d.c0, sr)
            u, v, uv = (w * d.da).sum(-1), (w * d.db).sum(-1), (w * d.dab).sum(-1)
            valid = (u > 0.0) & (v > 0.0)
            f = np.where(valid, np.log(u) - np.log(v) - target[rows], np.where(u > 0.0, np.inf, -np.inf))
            slope = width * (1.0 - uv * tot / (u * v))
            step = np.where(valid & (slope > 0.0), f / slope, np.nan)
            done = np.abs(step) <= _DECIDE_TOL * np.maximum(1.0, np.abs(sr))
            val[rows[done]] = m[done] + np.log(tot[done])
            mean[rows[done]] = zmin + u[done] / tot[done]
            go = ~done
            rows, sr, f, step = rows[go], sr[go], f[go], step[go]
            lo_r = np.where(f > 0.0, lo[rows], sr)
            hi_r = np.where(f > 0.0, sr, hi[rows])
            s_new = sr - step
            s[rows] = np.where((lo_r < s_new) & (s_new < hi_r), s_new, _safeguard(lo_r, hi_r))
            lo[rows], hi[rows] = lo_r, hi_r
        r0, r1 = np.maximum(s * t - val, 0.0), np.maximum((s - 1.0) * t - val, 0.0)
        ok = (np.abs(mean - t) <= ARG_TOL * d.scale) & (
            (np.abs(s) + 1.0) * d.scale * _ROUNDING <= _DECIDE_TOL * np.maximum(1.0, np.minimum(r0, r1))
        )
        return r0, r1, ok


def _decide_rate(im: InducedModel, j: int, t: float) -> float:
    """R_j(t) from the decision kernel, else ``rate_function``'s value.

    Serves the staged search's decisions only: it agrees with the scalar
    solver to about 1e-12 relative but not bit for bit (see module
    docstring and module ``architectures``).
    """
    d = _decider(im)
    if d.branch is None or not d.lo < t < d.hi:
        return rate_function(im, j, t).value
    last_t, rates = d.last
    if t != last_t:
        rates = _two_atom_rates(d, t) if d.branch == "two" else _newton_rates(d, t)
        d.last = (t, rates)
    if rates is None:
        return rate_function(im, j, t).value
    return rates[j]


def _decide_rate_grid(im: InducedModel, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R_0, R_1) over a vector of t: :func:`_decide_rate` on arrays.

    Models the kernel does not serve take ``rate_function_grid``'s values
    whole; a row the Newton form cannot certify takes ``rate_function``'s,
    so that every row stays independent of its batch.
    """
    d = _decider(im)
    if d.branch is None:
        return rate_function_grid(im, 0, ts), rate_function_grid(im, 1, ts)
    ts = np.asarray(ts, dtype=float)
    out0, interior = _grid_edges(d.c0, ts)
    out1, _ = _grid_edges(_rate_constants(im, 1), ts)
    t = ts[interior]
    if d.branch == "two":
        out0[interior], out1[interior] = _two_atom_rates(d, t)
        return out0, out1
    r0, r1, ok = _newton_rates_grid(d, t)
    for i in np.flatnonzero(~ok).tolist():
        r0[i], r1[i] = (rate_function(im, j, float(t[i])).value for j in (0, 1))
    out0[interior], out1[interior] = r0, r1
    return out0, out1
