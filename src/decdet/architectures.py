"""Optimal error exponents for each sensor-network architecture.

Networks covered, all with i.i.d. observations and a binary hypothesis:

* Parallel1 / Parallel2: every sensor sends one (or two) messages straight
  to the fusion center.
* SequentialFeedback2, FullFeedback2, RestrictedFeedback2, OneMsgSequential,
  DaisyFull: feedback variants whose optimal exponent provably collapses to
  a parallel optimum, computed here by reduction.
* DaisyRestricted: a two-stage chain where the first rn sensors' messages
  are compressed into one bit U that both the second stage and the fusion
  center see; the second stage switches its quantizer on U.  This is the
  one architecture where feedback strictly helps.
* Tree: the same two-stage network but the second stage ignores U, so one
  second-stage quantizer serves both branches.

Two-stage exponent evaluation.  Write R_j(q, t) for the conjugate rate of
quantizer q under hypothesis j (module ``exponents``).  A first-stage pair
(gamma, t) makes the aggregator bit err with exponential rates

    e01 = R_0(gamma, t) if t >= E_0[Z]  else 0     P_0(U = 1)
    e00 = R_0(gamma, t) if t <  E_0[Z]  else 0     P_0(U = 0)
    e10 = R_1(gamma, t) if t <= E_1[Z]  else 0     P_1(U = 0)
    e11 = R_1(gamma, t) if t >  E_1[Z]  else 0     P_1(U = 1)

(one of each pair is always zero: a probability tending to one has no
decay).  Conditioned on U = 0 the optimal fusion rule thresholds the
second-stage LLR mean at a0 = r/(1-r) (e10 - e00), which is exactly where
the prior odds log P_1(U=0)/P_0(U=0) put the Bayes boundary, and the two
error flows out of that branch decay at

    A0 = r e00 + (1-r) [R_0(d0, a0) if a0 >= E_0  else 0]      miss of H0
    B0 = r e10 + (1-r) [R_1(d0, a0) if a0 <= E_1  else 0]      miss of H1

whose minimum is the branch's true contribution.  On the interior of the
support the conjugate duality R_1(t) = R_0(t) - t makes A0 = B0, which is
why a single conjugate usually stands in for the branch; taking min(A0, B0)
extends that value continuously to thresholds beyond a quantizer's LLR
support, where one flow is impossible (rate +inf) and the other, finite one
is what the network actually achieves.  Branch U = 1 is symmetric with
threshold a1 = -r/(1-r) (e01 - e11) and quantizer d1.  The overall Bayesian
exponent of a strategy is -min over the two branches, and the optimizers
below take the sup over (gamma, d0, d1, t), with d0 = d1 forced for Tree.

The sup over t runs on a 401-point grid spanning gamma's closed LLR
support, then a golden-section polish of the best bracket, plus a bisection
for each crossing of the two branch curves, since the max-min optimum often
sits where the branches equalize.  Within one gamma every evaluation of
all deltas at a threshold (both golden sections, the daisy crossing
bisection and the final sweep over the candidate thresholds) goes through
one memo keyed on t, so a threshold they share is solved once.  The
crossing bisection of delta k's two branch curves evaluates only delta k's
two branch points, not the whole delta list.  Ties between quantizers
break toward the lexicographically smallest canonical map, so parallel and
serial sweeps report identical strategies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exponents import (
    chernoff_exponent,
    golden_section_min,
    rate_function,
    rate_function_grid,
)
from .model import (
    HypothesisModel,
    InducedModel,
    Quantizer,
    enumerate_quantizers,
    induce,
    product_quantizer,
    split_product_quantizer,
    validate_model,
)

__all__ = [
    "KINDS",
    "ArchitectureSpec",
    "DecayRateVector",
    "ExponentReport",
    "InfeasibleRate",
    "OrderingViolation",
    "UnsupportedFormulation",
    "exponent_parallel",
    "exponent_feedback_equivalent",
    "h_of_e",
    "exponent_daisy_restricted",
    "exponent_tree",
    "reevaluate_exponent",
    "check_symmetric_rate_condition",
    "check_ordering",
]

KINDS = (
    "Parallel1",
    "Parallel2",
    "SequentialFeedback2",
    "FullFeedback2",
    "RestrictedFeedback2",
    "OneMsgSequential",
    "DaisyFull",
    "DaisyRestricted",
    "Tree",
)

_TWO_MESSAGE_KINDS = ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2")
_ONE_MESSAGE_KINDS = ("OneMsgSequential", "DaisyFull")
_STAGED_KINDS = ("DaisyRestricted", "Tree")

T_GRID_POINTS = 401
_REFINE_TOL = 1e-10
_BOUNDARY_RTOL = 1e-9
# Objective values closer than this are one optimum seen twice, not two.
_TIE_TOL = 1e-9


class InfeasibleRate(ValueError):
    """A requested decay threshold lies outside every quantizer's LLR support."""


class OrderingViolation(AssertionError):
    """The computed exponents violate a proven ordering; implementation bug."""


class UnsupportedFormulation(ValueError):
    """The requested formulation is not defined for this architecture here."""


def _norm_formulation(formulation: str) -> str:
    key = formulation.replace("-", "").replace("_", "").lower()
    if key == "bayesian":
        return "Bayesian"
    if key in ("neymanpearson", "np"):
        return "NeymanPearson"
    raise UnsupportedFormulation(f"unknown formulation: {formulation!r}")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Which network to evaluate, plus its stage fraction and message size.

    ``r`` is the asymptotic fraction of sensors in the first stage and is
    meaningful only for the staged kinds (DaisyRestricted, Tree); all
    feedback-equivalent kinds reduce to parallel optima and take no r.
    """

    kind: str
    r: float | None = None
    message_alphabet_size: int = 2
    formulation: str = "Bayesian"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown architecture kind: {self.kind!r}")
        staged = self.kind in _STAGED_KINDS
        if staged:
            if self.r is None or not (0.0 < self.r < 1.0):
                raise ValueError(f"{self.kind} needs a stage fraction r in (0, 1)")
        elif self.r is not None:
            raise ValueError(f"{self.kind} takes no stage fraction r")
        if self.message_alphabet_size < 2:
            raise ValueError("message alphabet size must be at least 2")
        object.__setattr__(self, "formulation", _norm_formulation(self.formulation))


@dataclass(frozen=True)
class DecayRateVector:
    """Exponential decay rates (e01, e10, e00, e11) of the aggregator bit.

    e_ju is the decay rate of P_j(U = u).  P_j(U = 0) + P_j(U = 1) = 1, so
    at most one of (e01, e00) and at most one of (e10, e11) can be positive.
    """

    e01: float
    e10: float
    e00: float
    e11: float

    def __post_init__(self) -> None:
        for name in ("e01", "e10", "e00", "e11"):
            v = getattr(self, name)
            if not (v >= 0.0):
                raise ValueError(f"{name} must be nonnegative, got {v!r}")
        if min(self.e01, self.e00) > 0.0:
            raise ValueError("e01 and e00 cannot both be positive")
        if min(self.e10, self.e11) > 0.0:
            raise ValueError("e10 and e11 cannot both be positive")


@dataclass(frozen=True)
class ExponentReport:
    """Optimal exponent plus the strategy that achieves it.

    The report is re-checkable: feeding ``strategy`` back through
    :func:`reevaluate_exponent` reproduces ``exponent`` to 1e-9.
    """

    architecture: str
    formulation: str
    r: float | None
    exponent: float
    strategy: dict
    decay_rates: dict | None
    branch_values: dict | None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "formulation": self.formulation,
            "r": self.r,
            "exponent": self.exponent,
            "strategy": {
                "gamma": self.strategy.get("gamma"),
                "delta0": self.strategy.get("delta0"),
                "delta1": self.strategy.get("delta1"),
                "t": self.strategy.get("t"),
            },
            "decay_rates": self.decay_rates,
            "branch_values": self.branch_values,
            "note": self.note,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True, eq=False)
class _Cand:
    """Quantizer candidate with the cached statistics the searches need."""

    q: Quantizer
    im: InducedModel
    zmin: float
    zmax: float
    mean0: float
    mean1: float


def _cand(m: HypothesisModel, q: Quantizer) -> _Cand:
    im = induce(m, q)
    zmin, zmax = im.llr_support()
    return _Cand(q=q, im=im, zmin=zmin, zmax=zmax, mean0=im.llr_mean(0), mean1=im.llr_mean(1))


def _candidates(m: HypothesisModel, d: int, mode: str) -> list[_Cand]:
    return [_cand(m, q) for q in enumerate_quantizers(m, d, mode)]


def _decay_from_rates(l0: float, l1: float, t: float, mean0: float, mean1: float) -> DecayRateVector:
    return DecayRateVector(
        e01=l0 if t >= mean0 else 0.0,
        e00=l0 if t < mean0 else 0.0,
        e10=l1 if t <= mean1 else 0.0,
        e11=l1 if t > mean1 else 0.0,
    )


def _branch_point(cand: _Cand, a: float, e_same: float, e_cross: float, r: float) -> float:
    # min of the two error flows out of one aggregator branch; see module
    # docstring.  Always finite: the +inf cases of the two flows need a
    # above and below the LLR support at once.
    up = rate_function(cand.im, 0, a).value if a >= cand.mean0 else 0.0
    down = rate_function(cand.im, 1, a).value if a <= cand.mean1 else 0.0
    return min(r * e_same + (1.0 - r) * up, r * e_cross + (1.0 - r) * down)


def _branch_grid(cand: _Cand, a: np.ndarray, e_same: np.ndarray, e_cross: np.ndarray, r: float) -> np.ndarray:
    rate0 = rate_function_grid(cand.im, 0, a)
    rate1 = rate_function_grid(cand.im, 1, a)
    up = np.where(a >= cand.mean0, rate0, 0.0)
    down = np.where(a <= cand.mean1, rate1, 0.0)
    return np.minimum(r * e_same + (1.0 - r) * up, r * e_cross + (1.0 - r) * down)


@dataclass(frozen=True, eq=False)
class _PointEval:
    """Both staged objectives and their witnesses at one threshold t."""

    t: float
    daisy: float
    tree: float
    i_daisy0: int
    i_daisy1: int
    i_tree: int
    bv0: list[float]
    bv1: list[float]
    decay: DecayRateVector
    a0: float
    a1: float


def _first_argmax(values: Sequence[float]) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def _gamma_decay(g: _Cand, r: float, t: float) -> tuple[DecayRateVector, float, float]:
    # First-stage decay rates at threshold t and the two branch thresholds.
    l0 = rate_function(g.im, 0, t).value
    l1 = rate_function(g.im, 1, t).value
    e = _decay_from_rates(l0, l1, t, g.mean0, g.mean1)
    a0 = r / (1.0 - r) * (e.e10 - e.e00)
    a1 = -r / (1.0 - r) * (e.e01 - e.e11)
    return e, a0, a1


def _tree_diff(g: _Cand, dc: _Cand, r: float, t: float) -> float:
    # bv0 - bv1 of the single second-stage candidate dc; equals
    # _point_eval(g, deltas, r, t).bv0[k] - .bv1[k] for dc = deltas[k].
    e, a0, a1 = _gamma_decay(g, r, t)
    return _branch_point(dc, a0, e.e00, e.e10, r) - _branch_point(dc, a1, e.e01, e.e11, r)


def _point_eval(g: _Cand, deltas: list[_Cand], r: float, t: float) -> _PointEval:
    e, a0, a1 = _gamma_decay(g, r, t)
    bv0 = [_branch_point(dc, a0, e.e00, e.e10, r) for dc in deltas]
    bv1 = [_branch_point(dc, a1, e.e01, e.e11, r) for dc in deltas]
    i0, i1 = _first_argmax(bv0), _first_argmax(bv1)
    joint = [min(v0, v1) for v0, v1 in zip(bv0, bv1)]
    it = _first_argmax(joint)
    return _PointEval(
        t=t,
        daisy=min(bv0[i0], bv1[i1]),
        tree=joint[it],
        i_daisy0=i0,
        i_daisy1=i1,
        i_tree=it,
        bv0=bv0,
        bv1=bv1,
        decay=e,
        a0=a0,
        a1=a1,
    )


def _sign_change_ts(ts: np.ndarray, diff: np.ndarray, limit: int = 16) -> list[tuple[float, float]]:
    brackets = []
    finite = np.isfinite(diff)
    for i in range(len(ts) - 1):
        if finite[i] and finite[i + 1] and diff[i] * diff[i + 1] < 0.0:
            brackets.append((float(ts[i]), float(ts[i + 1])))
            if len(brackets) == limit:
                break
    return brackets


def _bisect_crossing(fdiff, lo: float, hi: float) -> float:
    flo = fdiff(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = fdiff(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= _REFINE_TOL:
            break
    return 0.5 * (lo + hi)


@dataclass(eq=False)
class _Best:
    """Running optimum with value ties broken toward the smallest strategy.

    Two strategies within _TIE_TOL of each other are treated as the same
    optimum (symmetric models produce exact twins that differ only by
    floating-point noise); the lexicographically smaller quantizer maps win
    so reports are stable across platforms.
    """

    value: float = -math.inf
    gamma: _Cand | None = None
    point: _PointEval | None = None
    key: tuple = ()

    def offer(self, value: float, key: tuple, gamma: _Cand, point: _PointEval) -> None:
        if value > self.value + _TIE_TOL or (value > self.value - _TIE_TOL and key < self.key):
            self.value, self.key, self.gamma, self.point = value, key, gamma, point


_SEARCH_CACHE: dict = {}
_SEARCH_CACHE_CAP = 128


def _search_staged(m: HypothesisModel, r: float, d: int, mode: str) -> tuple[dict, dict]:
    """Joint search for the DaisyRestricted and Tree optima.

    Returns one result dict per objective; both are computed in one pass
    because they share every branch-value matrix, and because evaluating
    the daisy objective at the tree's best threshold (and vice versa) keeps
    the reported pair consistent: the daisy value can never fall below the
    tree value at any threshold either search visited.  Results are
    memoized on the model bytes so the composite checks do not repeat the
    search.
    """
    validate_model(m)
    if not 0.0 < r < 1.0:
        raise ValueError("stage fraction r must lie in (0, 1)")
    cache_key = (m.pmf0.tobytes(), m.pmf1.tobytes(), float(r), int(d), mode)
    hit = _SEARCH_CACHE.get(cache_key)
    if hit is not None:
        return dict(hit[0]), dict(hit[1])
    cands = _candidates(m, d, mode)
    deltas = cands
    best_daisy, best_tree = _Best(), _Best()

    for g in cands:
        ts = np.linspace(g.zmin, g.zmax, T_GRID_POINTS)
        l0 = rate_function_grid(g.im, 0, ts)
        l1 = rate_function_grid(g.im, 1, ts)
        e01 = np.where(ts >= g.mean0, l0, 0.0)
        e00 = np.where(ts >= g.mean0, 0.0, l0)
        e10 = np.where(ts <= g.mean1, l1, 0.0)
        e11 = np.where(ts <= g.mean1, 0.0, l1)
        a0 = r / (1.0 - r) * (e10 - e00)
        a1 = -r / (1.0 - r) * (e01 - e11)
        bv0 = np.stack([_branch_grid(dc, a0, e00, e10, r) for dc in deltas])
        bv1 = np.stack([_branch_grid(dc, a1, e01, e11, r) for dc in deltas])
        sup0 = bv0.max(axis=0)
        sup1 = bv1.max(axis=0)
        daisy_curve = np.minimum(sup0, sup1)
        tree_curve = np.minimum(bv0, bv1).max(axis=0)

        # Every full evaluation at one gamma goes through this memo, so a
        # threshold the two golden sections, the daisy crossing bisection
        # and the final sweep share is solved once.
        memo: dict[float, _PointEval] = {}

        def point(t: float) -> _PointEval:
            p = memo.get(t)
            if p is None:
                p = memo[t] = _point_eval(g, deltas, r, t)
            return p

        tcands: list[float] = []
        for curve, which in ((daisy_curve, "daisy"), (tree_curve, "tree")):
            i = int(np.argmax(curve))
            lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
            tcands.append(float(ts[i]))
            if hi > lo:
                if which == "daisy":
                    t_ref, _ = golden_section_min(lambda t: -point(t).daisy, lo, hi, _REFINE_TOL)
                else:
                    t_ref, _ = golden_section_min(lambda t: -point(t).tree, lo, hi, _REFINE_TOL)
                tcands.append(float(t_ref))
        # The max-min optimum often sits where the branch curves cross.
        for lo, hi in _sign_change_ts(ts, sup0 - sup1):
            def diff_daisy(t: float) -> float:
                p = point(t)
                return max(p.bv0) - max(p.bv1)

            tcands.append(_bisect_crossing(diff_daisy, lo, hi))
        for k, dc in enumerate(deltas):
            for lo, hi in _sign_change_ts(ts, bv0[k] - bv1[k]):
                tcands.append(_bisect_crossing(lambda t, dc=dc: _tree_diff(g, dc, r, t), lo, hi))

        for t in sorted(set(tcands)):
            p = point(t)
            dkey = (g.q.map, deltas[p.i_daisy0].q.map, deltas[p.i_daisy1].q.map, p.t)
            best_daisy.offer(p.daisy, dkey, g, p)
            tkey = (g.q.map, deltas[p.i_tree].q.map, deltas[p.i_tree].q.map, p.t)
            best_tree.offer(p.tree, tkey, g, p)

    out = []
    for best, kind in ((best_daisy, "DaisyRestricted"), (best_tree, "Tree")):
        g, p = best.gamma, best.point
        if g is None or p is None:
            raise ValueError(f"{kind} search found no finite candidate threshold")
        if kind == "DaisyRestricted":
            d0, d1 = deltas[p.i_daisy0].q, deltas[p.i_daisy1].q
            branch0, branch1 = p.bv0[p.i_daisy0], p.bv1[p.i_daisy1]
        else:
            d0 = d1 = deltas[p.i_tree].q
            branch0, branch1 = p.bv0[p.i_tree], p.bv1[p.i_tree]
        scale = max(1.0, abs(g.zmin), abs(g.zmax))
        at_edge = min(abs(p.t - g.zmin), abs(p.t - g.zmax)) <= _BOUNDARY_RTOL * scale
        out.append(
            {
                "kind": kind,
                "value": best.value,
                "gamma": g.q,
                "delta0": d0,
                "delta1": d1,
                "t": p.t,
                "decay": p.decay,
                "branch0": branch0,
                "branch1": branch1,
                "at_edge": at_edge,
            }
        )
    if len(_SEARCH_CACHE) >= _SEARCH_CACHE_CAP:
        _SEARCH_CACHE.pop(next(iter(_SEARCH_CACHE)))
    _SEARCH_CACHE[cache_key] = (dict(out[0]), dict(out[1]))
    return out[0], out[1]


def _staged_report(res: dict, r: float, note_extra: str = "") -> ExponentReport:
    note = "optimum sits at the edge of the threshold range" if res["at_edge"] else ""
    if note_extra:
        note = f"{note}; {note_extra}" if note else note_extra
    e = res["decay"]
    return ExponentReport(
        architecture=res["kind"],
        formulation="Bayesian",
        r=r,
        exponent=-res["value"] + 0.0,
        strategy={
            "gamma": list(res["gamma"].map),
            "delta0": list(res["delta0"].map),
            "delta1": list(res["delta1"].map),
            "t": res["t"],
        },
        decay_rates={"e01": e.e01, "e10": e.e10, "e00": e.e00, "e11": e.e11},
        branch_values={"branch0": res["branch0"], "branch1": res["branch1"]},
        note=note,
    )


def exponent_daisy_restricted(
    m: HypothesisModel,
    r: float,
    d: int = 2,
    mode: str = "llr_monotone",
    formulation: str = "Bayesian",
) -> ExponentReport:
    """Best Bayesian exponent of the restricted-feedback two-stage chain.

    Searches quantizer triples (gamma, d0, d1) and the aggregator threshold
    t over gamma's closed LLR support; see the module docstring for the
    objective.  The Neyman-Pearson formulation is not defined here (with a
    fixed miss constraint the feedback bit buys nothing and the optimum is
    the parallel one), so requesting it raises UnsupportedFormulation
    rather than silently answering a different question.
    """
    if _norm_formulation(formulation) != "Bayesian":
        raise UnsupportedFormulation(
            "staged architectures are evaluated in the Bayesian formulation only; "
            "the Neyman-Pearson optimum equals the parallel one"
        )
    daisy, _ = _search_staged(m, r, d, mode)
    return _staged_report(daisy, r)


def exponent_tree(
    m: HypothesisModel,
    r: float,
    d: int = 2,
    mode: str = "llr_monotone",
    formulation: str = "Bayesian",
) -> ExponentReport:
    """Best Bayesian exponent of the two-level tree (shared second stage).

    Identical to :func:`exponent_daisy_restricted` with the two second
    stage quantizers forced equal, hence never better.
    """
    if _norm_formulation(formulation) != "Bayesian":
        raise UnsupportedFormulation(
            "staged architectures are evaluated in the Bayesian formulation only; "
            "the Neyman-Pearson optimum equals the parallel one"
        )
    _, tree = _search_staged(m, r, d, mode)
    return _staged_report(tree, r)


def _parallel_value(im: InducedModel, formulation: str) -> float:
    if formulation == "NeymanPearson":
        # inf over quantizers of E_0[Z]: the (negated) divergence rate
        # governing the best miss exponent at fixed false-alarm level.
        return im.llr_mean(0)
    return chernoff_exponent(im)[0]


def exponent_parallel(
    m: HypothesisModel,
    d: int = 2,
    messages_per_sensor: int = 1,
    formulation: str = "Bayesian",
    mode: str = "llr_monotone",
) -> ExponentReport:
    """Best exponent of the parallel network with 1 or 2 messages a sensor.

    Two simultaneous messages from alphabets of size d are one message from
    an alphabet of size d*d, so the pair search runs over joint quantizers
    and the report splits the winner back into its components.
    """
    validate_model(m)
    formulation = _norm_formulation(formulation)
    if messages_per_sensor not in (1, 2):
        raise ValueError("messages_per_sensor must be 1 or 2")
    d_eff = d * d if messages_per_sensor == 2 else d
    best_q: Quantizer | None = None
    best_v = math.inf
    for q in enumerate_quantizers(m, d_eff, mode):
        v = _parallel_value(induce(m, q), formulation)
        if v < best_v:
            best_v, best_q = v, q
    if best_q is None:
        raise ValueError("no candidate quantizer gives a finite exponent")
    if messages_per_sensor == 2:
        gamma, delta = split_product_quantizer(best_q, d)
        strategy = {
            "gamma": list(gamma.map),
            "delta0": list(delta.map),
            "delta1": list(delta.map),
            "t": None,
        }
    else:
        strategy = {"gamma": list(best_q.map), "delta0": None, "delta1": None, "t": None}
    return ExponentReport(
        architecture="Parallel1" if messages_per_sensor == 1 else "Parallel2",
        formulation=formulation,
        r=None,
        exponent=min(best_v, 0.0) + 0.0,
        strategy=strategy,
        decay_rates=None,
        branch_values=None,
    )


_EQUIVALENCE_NOTES = {
    "SequentialFeedback2": (
        "feedback seen before the second message carries no exponent gain when the "
        "fusion center keeps every first message; equals the two-message parallel optimum"
    ),
    "FullFeedback2": (
        "broadcasting all first messages back to the sensors does not move the "
        "exponent; equals the two-message parallel optimum"
    ),
    "RestrictedFeedback2": (
        "a compressed feedback broadcast cannot beat the uncompressed one, which "
        "already gains nothing; equals the two-message parallel optimum"
    ),
    "OneMsgSequential": (
        "conditioning each single message on earlier ones does not move the "
        "exponent; equals the one-message parallel optimum"
    ),
    "DaisyFull": (
        "when the fusion center keeps the full first-stage record, the relay stage "
        "adds nothing asymptotically; equals the one-message parallel optimum"
    ),
}


def exponent_feedback_equivalent(
    m: HypothesisModel,
    d: int = 2,
    kind: str = "FullFeedback2",
    formulation: str = "Bayesian",
    mode: str = "llr_monotone",
) -> ExponentReport:
    """Exponent of a feedback architecture that reduces to a parallel one.

    The two-message feedback kinds inherit the two-message parallel
    optimum; the single-message sequential network and the full-feedback
    chain inherit the one-message parallel optimum.  The note on the
    report records which reduction was applied.
    """
    if kind not in _TWO_MESSAGE_KINDS + _ONE_MESSAGE_KINDS:
        raise ValueError(f"{kind!r} is not a feedback-equivalent architecture kind")
    messages = 2 if kind in _TWO_MESSAGE_KINDS else 1
    base = exponent_parallel(m, d=d, messages_per_sensor=messages, formulation=formulation, mode=mode)
    return ExponentReport(
        architecture=kind,
        formulation=base.formulation,
        r=None,
        exponent=base.exponent,
        strategy=base.strategy,
        decay_rates=None,
        branch_values=None,
        note=_EQUIVALENCE_NOTES[kind],
    )


def h_of_e(
    m: HypothesisModel,
    r: float,
    e: DecayRateVector,
    d: int = 2,
    mode: str = "llr_monotone",
    semantics: str = "literal",
) -> tuple[float, Quantizer | None, Quantizer | None]:
    """Best achievable error decay given first-stage decay rates e.

    Evaluates min over the two aggregator branches of the branch value,
    each with its own sup over second-stage quantizers.  semantics
    "literal" scores a branch by the single conjugate the interior formula
    prescribes, treating quantizers whose LLR support misses the branch
    threshold as infeasible; if both branches are infeasible for every
    quantizer the value would be vacuous and InfeasibleRate is raised.
    semantics "physical" scores each branch by min of its two error flows
    (the module-docstring form), which is finite everywhere and equals the
    literal value wherever the literal value is sane.
    """
    validate_model(m)
    if not 0.0 < r < 1.0:
        raise ValueError("stage fraction r must lie in (0, 1)")
    if semantics not in ("literal", "physical"):
        raise ValueError(f"unknown semantics: {semantics!r}")
    deltas = _candidates(m, d, mode)
    a0 = r / (1.0 - r) * (e.e10 - e.e00)
    a1 = -r / (1.0 - r) * (e.e01 - e.e11)

    def literal_branch(a: float, j: int, offset: float) -> tuple[float, Quantizer | None]:
        best_v, best_q = -math.inf, None
        for dc in deltas:
            scale = max(1.0, abs(dc.zmin), abs(dc.zmax))
            if not (dc.zmin - 1e-12 * scale <= a <= dc.zmax + 1e-12 * scale):
                continue
            v = rate_function(dc.im, j, a).value
            if v > best_v:
                best_v, best_q = v, dc.q
        if best_q is None:
            return math.inf, None
        return (1.0 - r) * best_v + r * offset, best_q

    def physical_branch(a: float, e_same: float, e_cross: float) -> tuple[float, Quantizer | None]:
        best_v, best_q = -math.inf, None
        for dc in deltas:
            v = _branch_point(dc, a, e_same, e_cross, r)
            if v > best_v:
                best_v, best_q = v, dc.q
        return best_v, best_q

    if semantics == "literal":
        b0, q0 = literal_branch(a0, 0, e.e00)
        b1, q1 = literal_branch(a1, 1, e.e11)
        if math.isinf(b0) and math.isinf(b1):
            raise InfeasibleRate(
                "both branch thresholds lie outside every candidate quantizer's LLR support"
            )
    else:
        b0, q0 = physical_branch(a0, e.e00, e.e10)
        b1, q1 = physical_branch(a1, e.e01, e.e11)
    return min(b0, b1), q0, q1


def reevaluate_exponent(m: HypothesisModel, report: ExponentReport) -> float:
    """Recompute the exponent implied by a report's strategy, from scratch.

    Used to confirm that every report is reproducible from its own strategy
    without rerunning the search.
    """
    validate_model(m)
    strat = report.strategy
    kind = report.architecture

    def quantizer(key: str) -> Quantizer:
        labels = strat[key]
        return Quantizer(map=tuple(labels), message_alphabet_size=max(labels) + 1 if labels else 1)

    if kind in ("Parallel1",) + _ONE_MESSAGE_KINDS:
        return _parallel_value(induce(m, quantizer("gamma")), report.formulation)
    if kind in ("Parallel2",) + _TWO_MESSAGE_KINDS:
        joint = product_quantizer(quantizer("gamma"), quantizer("delta0"))
        return _parallel_value(induce(m, joint), report.formulation)
    if kind in _STAGED_KINDS:
        r = report.r
        if r is None:
            raise ValueError(f"{kind} report carries no stage fraction r")
        g = _cand(m, quantizer("gamma"))
        dd = [_cand(m, quantizer("delta0")), _cand(m, quantizer("delta1"))]
        p = _point_eval(g, dd, r, float(strat["t"]))
        return -min(p.bv0[0], p.bv1[1])
    raise ValueError(f"cannot reevaluate architecture kind {kind!r}")


def check_symmetric_rate_condition(
    m: HypothesisModel,
    d: int = 2,
    r: float = 0.5,
    mode: str = "llr_monotone",
    tol: float = 1e-9,
) -> dict:
    """Test whether the winning shared quantizer has mirror-image rates.

    The condition is R_1(delta, t) = R_0(delta, -t) on a symmetric t grid.
    When it holds, the feedback bit is worthless: the staged chain and the
    tree share one optimum, reachable with the aggregator threshold at 0,
    and the shortcut value is reported and cross-checked against both
    searches.  Returns a dict with keys applies, witness, max_gap,
    common_value, daisy_exponent, tree_exponent, consistent.
    """
    daisy_res, tree_res = _search_staged(m, r, d, mode)
    witness: Quantizer = tree_res["delta0"]
    im = induce(m, witness)
    zmin, zmax = im.llr_support()
    half = min(-zmin, zmax)
    ts = np.linspace(-half, half, 201)
    gap_curve = np.abs(rate_function_grid(im, 1, ts) - rate_function_grid(im, 0, -ts))
    max_gap = float(gap_curve.max())
    applies = max_gap <= tol

    common_value = None
    consistent = None
    if applies:
        cands = _candidates(m, d, mode)
        shortcut = max(_point_eval(g, cands, r, 0.0).tree for g in cands)
        common_value = -shortcut
        consistent = (
            abs(common_value - (-daisy_res["value"])) <= 1e-7
            and abs(common_value - (-tree_res["value"])) <= 1e-7
        )
    return {
        "applies": applies,
        "witness": list(witness.map),
        "max_gap": max_gap,
        "common_value": common_value,
        "daisy_exponent": -daisy_res["value"] + 0.0,
        "tree_exponent": -tree_res["value"] + 0.0,
        "consistent": consistent,
    }


def check_ordering(
    m: HypothesisModel,
    r: float,
    d: int = 2,
    mode: str = "llr_monotone",
    strict_gap: float = 1e-9,
) -> dict:
    """Verify tree >= staged-chain > one-message-parallel exponents.

    The staged chain dominates the tree (its search space is larger) and
    wastes a fraction of its sensors on the aggregator bit, so it must sit
    strictly between the tree and the full parallel network whenever the
    two hypotheses are distinguishable.  Violations raise OrderingViolation
    because they can only come from an implementation bug.
    """
    validate_model(m)
    daisy_res, tree_res = _search_staged(m, r, d, mode)
    e_tree = -tree_res["value"] + 0.0
    e_daisy = -daisy_res["value"] + 0.0
    e_par = exponent_parallel(m, d=d, messages_per_sensor=1, formulation="Bayesian", mode=mode).exponent
    tv = 0.5 * float(np.abs(m.pmf0 - m.pmf1).sum())
    degenerate = tv <= 1e-9
    report = {
        "tree": e_tree,
        "daisy_restricted": e_daisy,
        "parallel1": e_par,
        "degenerate": degenerate,
        "r": r,
    }
    if e_tree < e_daisy - 1e-12:
        raise OrderingViolation(f"tree exponent {e_tree} below staged-chain exponent {e_daisy}")
    if degenerate:
        ok = abs(e_tree) <= 1e-9 and abs(e_daisy) <= 1e-9 and abs(e_par) <= 1e-9
        if not ok:
            raise OrderingViolation("indistinguishable hypotheses must give zero exponents")
    else:
        if not e_daisy - e_par >= strict_gap:
            raise OrderingViolation(
                f"staged chain ({e_daisy}) must be strictly worse than parallel ({e_par})"
            )
    return report
