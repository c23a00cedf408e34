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
always-valid bracket, with plain bisection as the fallback.

Conventions at the edge of the support, where the conjugate is not defined
by a stationary point:

* t beyond [min Z, max Z]: the value is +inf (the sample mean of Z can
  never reach t).
* t exactly at an endpoint: the value is -log P_j(Z = endpoint), the exact
  decay rate of the all-atoms-at-the-endpoint event.
* degenerate Z (a single atom, necessarily at 0 for a valid model): the
  conjugate is 0 at t = 0 and +inf elsewhere.

All solvers use absolute tolerance 1e-10 on their argument and return the
argmax along with the value so results can be reproduced exactly.
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
    out of every log-sum-exp.  ``float_lists`` is built on the scalar
    solver's first call only.
    """

    def __init__(self, im: InducedModel, j: int) -> None:
        z = self.llr = im.llr
        q = self.q = im.q1 if j == 1 else im.q0
        with np.errstate(divide="ignore"):
            self.logq = np.log(q)
        self.zmin, self.zmax = float(z.min()), float(z.max())
        self.tol_lo = _EDGE_RTOL * max(1.0, abs(self.zmin))
        self.tol_hi = _EDGE_RTOL * max(1.0, abs(self.zmax))
        self.mass_lo = float(q[z <= self.zmin + self.tol_lo].sum())
        self.mass_hi = float(q[z >= self.zmax - self.tol_hi].sum())

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


def log_mgf(im: InducedModel, j: int, s: float) -> float:
    """log sum_y q_j[y] exp(s llr[y]), with max-shift stabilization."""
    c = _rate_constants(im, j)
    a = c.logq + s * c.llr
    m = a.max()
    return float(m + math.log(np.exp(a - m).sum()))


def log_mgf_derivs(im: InducedModel, j: int, s: float) -> tuple[float, float, float]:
    """(L, L', L'') at s, via the tilted distribution q_j exp(s Z - L).

    L' is the tilted mean of Z and L'' the tilted variance, both exact.
    """
    c = _rate_constants(im, j)
    a = c.logq + s * c.llr
    m = a.max()
    w = np.exp(a - m)
    total = w.sum()
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
    the module docstring.  The inner loop runs on plain floats: message
    alphabets are tiny, so array dispatch would dominate the solve.  The
    support edges and the float lists are computed once per (im, j).
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
        value = -math.log(c.mass_hi) if c.mass_hi > 0.0 else math.inf
        return RateFunctionValue(t=t, value=value, argmax_s=math.inf)
    if t <= zmin + tol_lo:
        value = -math.log(c.mass_lo) if c.mass_lo > 0.0 else math.inf
        return RateFunctionValue(t=t, value=value, argmax_s=-math.inf)
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


def rate_function_grid(im: InducedModel, j: int, ts: np.ndarray) -> np.ndarray:
    """Conjugate values R_j(t) for a whole vector of t at once.

    Pure bisection on L'(s) = t, vectorized across t; agrees with the
    scalar solver to about 1e-9 and exists because the architecture
    optimizers evaluate dense t grids in their inner loops.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty_like(ts)
    c = _rate_constants(im, j)
    z, logq = c.llr, c.logq
    zmin, zmax, tol_lo, tol_hi = c.zmin, c.zmax, c.tol_lo, c.tol_hi
    if zmax - zmin == 0.0:
        near0 = np.abs(ts - zmin) <= tol_lo
        return np.where(near0, 0.0, np.inf)
    hi_out = ts > zmax + tol_hi
    lo_out = ts < zmin - tol_lo
    hi_edge = ~hi_out & (ts >= zmax - tol_hi)
    lo_edge = ~lo_out & (ts <= zmin + tol_lo)
    interior = ~(hi_out | lo_out | hi_edge | lo_edge)
    out[hi_out | lo_out] = np.inf
    out[hi_edge] = -math.log(c.mass_hi) if c.mass_hi > 0.0 else np.inf
    out[lo_edge] = -math.log(c.mass_lo) if c.mass_lo > 0.0 else np.inf
    if not np.any(interior):
        return out

    t_in = ts[interior]

    def dmean(s: np.ndarray) -> np.ndarray:
        a = logq[None, :] + s[:, None] * z[None, :]
        m = a.max(axis=1, keepdims=True)
        w = np.exp(a - m)
        return (w @ z) / w.sum(axis=1)

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
    a = logq[None, :] + s[:, None] * z[None, :]
    m = a.max(axis=1)
    vals = m + np.log(np.exp(a - m[:, None]).sum(axis=1))
    out[interior] = np.maximum(s * t_in - vals, 0.0)
    return out
