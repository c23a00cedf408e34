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

The sup over t runs once per first-stage candidate gamma (``_GammaSearch``):
a 401-point grid spanning gamma's closed LLR support, a golden-section
polish of each objective's best bracket, and a bisection for each crossing
of two branch curves, since the max-min optimum often sits where the
branches equalize.  Every evaluation of all deltas at one threshold goes
through the gamma's memo keyed on t, so a threshold its steps share is
solved once; the bisection of one delta's crossing evaluates only that
delta's two branch points unless the memo holds the threshold.  Each
(gamma, t) it returns is offered to both staged optima, with each kind's
value and deltas read from the one rule of ``_PointEval.optima``.

One solver.  Every conjugate here comes from the one solver of module
``exponents``, through three entries: the grid phase calls
:func:`~decdet.exponents.rate_function_grid`, and every point evaluation
(both golden sections, the crossing bisections and the final sweep over the
candidate thresholds) calls ``exponents._rates`` wherever it reads R_0 and
R_1 at one threshold, as plain floats.  Those are
:func:`~decdet.exponents.rate_function`'s values bit for bit, without its
per-call wrapper, which on a two-atom solve costs about as much as the solve.
A branch threshold outside the two LLR means reads one flow, and calls
:func:`~decdet.exponents.rate_function` for that one hypothesis only.  The
solver keeps its last solve, so R_0 and R_1 at one threshold cost one Newton
solve.  Each report takes its deltas, value and branch values from its
winner's memoised point evaluation, so :func:`reevaluate_exponent`, which
runs the same point evaluation, reproduces it exactly.  :func:`h_of_e` runs
the same branch points, or with literal semantics calls ``rate_function``;
:func:`check_symmetric_rate_condition` calls the grid form and the same
point evaluation.

Plain floats.  The search carries the decay rates and branch thresholds of
each point as plain floats (``_gamma_decay``); a :class:`DecayRateVector`
is built only for a report, once per winner, from the same deterministic
``_gamma_decay`` call at the winner's threshold.

Ties.  Every quantizer sweep goes through ``_Best``: the staged search's
offer of each (gamma, t) candidate, the quantizer sweep of
:func:`exponent_parallel` and both branch sweeps of :func:`h_of_e`.
Values within ``_TIE_TOL`` count as one optimum and the lexicographically
smallest maps win, so floating-point noise between mirror twins never picks
the report.  On an exactly mirror-symmetric model whose branch curves cross
at t = 0 the rounding noise still places the refined threshold, about 1e-11
from 0; the value moves by far less than ``_TIE_TOL``.  The per-threshold
choice of delta in a point evaluation takes the first strict maximum in
candidate order, which is lexicographic.

The two staged optima of one (model, r, d, mode) are searched together and
kept in an LRU cache keyed on the model's pmf bytes, so equal models share
one search and the composite checks do not repeat it.

Strategies.  :class:`Strategy` is the one concrete strategy type, and
``ExponentReport.strategy`` is its JSON form (:meth:`Strategy.to_dict`,
read back only by :meth:`Strategy.from_dict`).  The kind groups below
``KINDS`` state each kind rule once for every module.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exponents import (
    _chernoff_value,
    _rates,
    golden_section_min,
    rate_function,
    rate_function_grid,
)
from .model import (
    HypothesisModel,
    InducedModel,
    Quantizer,
    _check_message_size,
    enumerate_quantizers,
    induce,
    product_quantizer,
    split_product_quantizer,
)

__all__ = [
    "KINDS",
    "Strategy",
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

# Kind groups; every rule that depends on the kind reads one of these.
# One stage: the transcript is one joint message per sensor.
ONE_STAGE_KINDS = ("Parallel1", "Parallel2", "OneMsgSequential")
# Adaptive: each sensor's second quantizer follows a feedback bit.
ADAPTIVE_KINDS = ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2")
# Two stages: the first round(r * n) sensors form an aggregator bit.
TWO_STAGE_KINDS = ("DaisyRestricted", "Tree", "DaisyFull")
# Restricted: the fusion center sees only the aggregator bit of stage one.
RESTRICTED_KINDS = ("DaisyRestricted", "Tree")

# Kinds whose optimal exponent is a parallel one: {kind: (parallel kind, note)}.
PARALLEL_EQUIVALENT = {
    "SequentialFeedback2": (
        "Parallel2",
        "feedback seen before the second message carries no exponent gain when the "
        "fusion center keeps every first message; equals the two-message parallel optimum",
    ),
    "FullFeedback2": (
        "Parallel2",
        "broadcasting all first messages back to the sensors does not move the "
        "exponent; equals the two-message parallel optimum",
    ),
    "RestrictedFeedback2": (
        "Parallel2",
        "a compressed feedback broadcast cannot beat the uncompressed one, which "
        "already gains nothing; equals the two-message parallel optimum",
    ),
    "OneMsgSequential": (
        "Parallel1",
        "conditioning each single message on earlier ones does not move the "
        "exponent; equals the one-message parallel optimum",
    ),
    "DaisyFull": (
        "Parallel1",
        "when the fusion center keeps the full first-stage record, the relay stage "
        "adds nothing asymptotically; equals the one-message parallel optimum",
    ),
}
# The chain attains that DaisyFull optimum with the parallel gamma in both
# stages, which is how Strategy.from_dict reads a DaisyFull dict without
# second-stage maps.

T_GRID_POINTS = 401
_REFINE_TOL = 1e-10
_BOUNDARY_RTOL = 1e-9
# Objective values closer than this are one optimum seen twice, not two;
# also the margin of the symmetric-rate and strict-ordering checks.
_TIE_TOL = 1e-9
# Crossings bisected per curve difference and gamma.
_MAX_CROSSINGS = 16


class InfeasibleRate(ValueError):
    """A requested decay threshold lies outside every quantizer's LLR support."""


class OrderingViolation(AssertionError):
    """The computed exponents violate a proven ordering; implementation bug."""


class UnsupportedFormulation(ValueError):
    """The requested formulation is not defined for this architecture here."""


def _check_stage_fraction(r) -> None:
    """Raise ValueError unless ``r``, the first-stage fraction, is a real number in (0, 1)."""
    if not (isinstance(r, numbers.Real) and 0.0 < r < 1.0):
        raise ValueError(f"stage fraction r must lie in (0, 1), got {r!r}")


@dataclass(frozen=True)
class Strategy:
    """Concrete, simulatable strategy for one architecture kind.

    ``t`` is the aggregator threshold: the feedback bit (or broadcast bit)
    is 1 when the relevant running mean of first-stage LLRs reaches t.  The
    staged kinds also need ``r``, the fraction of sensors in the first
    stage; the first round(r * n) sensors form it.  ``fusion_threshold`` is
    the absolute transcript-LLR cut for the final decision, ties to 1.
    Each threshold is a real number and may be infinite (a constant bit or
    decision), never NaN.  A kind takes no field it never reads: the
    one-stage kinds take no ``t``, and only the two-stage kinds take ``r``.
    ``delta1`` defaults to ``delta0``; Parallel2 sends delta0 as its second
    message, so its delta1 must have the same map.
    """

    kind: str
    gamma: Quantizer
    delta0: Quantizer | None = None
    delta1: Quantizer | None = None
    t: float | None = None
    r: float | None = None
    fusion_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown architecture kind: {self.kind!r}")
        if self.kind == "Parallel2" or self.kind not in ONE_STAGE_KINDS:
            if self.delta0 is None:
                raise ValueError(f"{self.kind} needs a second-stage quantizer delta0")
            if self.delta1 is None:
                object.__setattr__(self, "delta1", self.delta0)
            if self.kind == "Parallel2" and self.delta1.map != self.delta0.map:
                raise ValueError("Parallel2 sends delta0 as its second message; delta1 must equal it")
        elif self.delta0 is not None or self.delta1 is not None:
            raise ValueError(f"{self.kind} takes no second-stage quantizer")
        if self.kind in ONE_STAGE_KINDS and self.t is not None:
            raise ValueError(f"{self.kind} takes no aggregator threshold t")
        if self.kind not in ONE_STAGE_KINDS and self.t is None:
            raise ValueError(f"{self.kind} needs an aggregator threshold t")
        if self.kind in TWO_STAGE_KINDS:
            _check_stage_fraction(self.r)
        elif self.r is not None:
            raise ValueError(f"{self.kind} takes no stage fraction r")
        for name, v in (("t", self.t), ("fusion_threshold", self.fusion_threshold)):
            if not (isinstance(v, numbers.Real) and not math.isnan(v) or name == "t" and v is None):
                raise ValueError(f"{self.kind} {name} must be a real number and must not be NaN, got {v!r}")

    @classmethod
    def from_dict(
        cls,
        kind: str,
        maps: dict,
        r: float | None = None,
        t: float | None = None,
        fusion_threshold: float = 0.0,
    ) -> Strategy:
        """Strategy of ``kind`` from a strategy dict, the form :meth:`to_dict` writes.

        Every strategy built from outside input (a report's maps or the
        CLI's) is built here, keeping only the fields the kind uses: ``t``,
        which when given replaces the threshold in ``maps``, defaults to 0
        for the kinds with an aggregator threshold and is dropped for the
        rest; ``r`` is dropped for the kinds without stages.  A DaisyFull
        dict without second-stage maps is the chain that attains its
        Parallel1 optimum (see ``PARALLEL_EQUIVALENT``).  Raises ValueError
        when gamma is missing, when only one of delta0 and delta1 is given,
        when a map is not an integer label list, or when a Tree's delta1 map
        differs from its delta0 map (its second stage ignores the bit).
        """

        def quantizer(key: str) -> Quantizer | None:
            labels = maps.get(key)
            return None if labels is None else Quantizer.from_labels(labels)

        gamma = Quantizer.from_labels(maps.get("gamma"))
        delta0, delta1 = quantizer("delta0"), quantizer("delta1")
        if (delta0 is None) != (delta1 is None):
            raise ValueError("a strategy dict holds both of delta0 and delta1 or neither")
        if kind == "Tree" and delta0 is not None and delta1.map != delta0.map:
            raise ValueError("a Tree's second stage ignores the feedback bit; delta1 must equal delta0")
        if kind == "DaisyFull" and delta0 is None:
            delta0 = delta1 = gamma
        t = maps.get("t") if t is None else t
        return cls(
            kind=kind,
            gamma=gamma,
            delta0=delta0,
            delta1=delta1,
            t=(0.0 if t is None else t) if kind not in ONE_STAGE_KINDS else None,
            r=r if kind in TWO_STAGE_KINDS else None,
            fusion_threshold=fusion_threshold,
        )

    def to_dict(self) -> dict:
        """The JSON form that ``ExponentReport.strategy`` holds."""

        def labels(q: Quantizer | None) -> list[int] | None:
            return None if q is None else list(q.map)

        return {"gamma": labels(self.gamma), "delta0": labels(self.delta0), "delta1": labels(self.delta1), "t": self.t}

    @property
    def joint(self) -> Quantizer:
        """The one quantizer of a one-stage kind: gamma, paired with delta0 for Parallel2."""
        return product_quantizer(self.gamma, self.delta0) if self.kind == "Parallel2" else self.gamma


def _norm_formulation(formulation: str) -> str:
    key = formulation.replace("-", "").replace("_", "").lower()
    if key == "bayesian":
        return "Bayesian"
    if key in ("neymanpearson", "np"):
        return "NeymanPearson"
    raise UnsupportedFormulation(f"unknown formulation: {formulation!r}")


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
        return dataclasses.asdict(self)

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


def _branch_point(cand: _Cand, a: float, e_same: float, e_cross: float, r: float) -> float:
    # min of the two error flows out of one aggregator branch; see module
    # docstring.  Finite when e_same and e_cross are, since the +inf cases
    # of the two flows need a above and below the LLR support at once.  The
    # search's decay rates always are; h_of_e's inputs need not be.  A
    # threshold between the means reads both flows, from one _rates call;
    # one outside them reads one flow and solves only its hypothesis.
    up_on, down_on = a >= cand.mean0, a <= cand.mean1
    if up_on and down_on:
        up, down = _rates(cand.im, a)
    else:
        up = rate_function(cand.im, 0, a).value if up_on else 0.0
        down = rate_function(cand.im, 1, a).value if down_on else 0.0
    return min(r * e_same + (1.0 - r) * up, r * e_cross + (1.0 - r) * down)


def _branch_grid(cand: _Cand, a: np.ndarray, e_same: np.ndarray, e_cross: np.ndarray, r: float) -> np.ndarray:
    # _branch_point over a vector of thresholds, by the grid form.
    up = np.where(a >= cand.mean0, rate_function_grid(cand.im, 0, a), 0.0)
    down = np.where(a <= cand.mean1, rate_function_grid(cand.im, 1, a), 0.0)
    return np.minimum(r * e_same + (1.0 - r) * up, r * e_cross + (1.0 - r) * down)


@dataclass(frozen=True, eq=False)
class _PointEval:
    """Branch values at threshold t: bv0[k] and bv1[k] of U = 0 and U = 1 with delta k there."""

    t: float
    bv0: list[float]
    bv1: list[float]

    @functools.cached_property
    def optima(self) -> dict[str, tuple[float, int, int]]:
        """(value, delta0 index, delta1 index) of each of ``RESTRICTED_KINDS`` at t.

        The chain picks each branch's delta, the tree one delta for both.
        """
        ks = range(len(self.bv0))
        i0, i1 = max(ks, key=self.bv0.__getitem__), max(ks, key=self.bv1.__getitem__)
        joint = [min(v0, v1) for v0, v1 in zip(self.bv0, self.bv1)]
        k = max(ks, key=joint.__getitem__)
        return {"DaisyRestricted": (min(self.bv0[i0], self.bv1[i1]), i0, i1), "Tree": (joint[k], k, k)}


def _branch_thresholds(r, e01, e10, e00, e11):
    # Bayes thresholds (a0, a1) of the two aggregator branches; see the
    # module docstring.  Plain arithmetic, so floats and arrays alike.
    return r / (1.0 - r) * (e10 - e00), -r / (1.0 - r) * (e01 - e11)


def _gamma_decay(g: _Cand, r: float, t: float) -> tuple[float, float, float, float, float, float]:
    # First-stage decay rates (e01, e10, e00, e11) at threshold t, then the
    # two branch thresholds (a0, a1).
    l0, l1 = _rates(g.im, t)
    e01 = l0 if t >= g.mean0 else 0.0
    e00 = l0 if t < g.mean0 else 0.0
    e10 = l1 if t <= g.mean1 else 0.0
    e11 = l1 if t > g.mean1 else 0.0
    return e01, e10, e00, e11, *_branch_thresholds(r, e01, e10, e00, e11)


def _tree_diff(g: _Cand, dc: _Cand, r: float, t: float) -> float:
    # bv0 - bv1 of the single second-stage candidate dc; equals
    # _point_eval(g, deltas, r, t).bv0[k] - .bv1[k] for dc = deltas[k].
    e01, e10, e00, e11, a0, a1 = _gamma_decay(g, r, t)
    return _branch_point(dc, a0, e00, e10, r) - _branch_point(dc, a1, e01, e11, r)


def _point_eval(g: _Cand, deltas: list[_Cand], r: float, t: float) -> _PointEval:
    e01, e10, e00, e11, a0, a1 = _gamma_decay(g, r, t)
    bv0 = [_branch_point(dc, a0, e00, e10, r) for dc in deltas]
    bv1 = [_branch_point(dc, a1, e01, e11, r) for dc in deltas]
    return _PointEval(t=t, bv0=bv0, bv1=bv1)


def _sign_change_ts(ts: np.ndarray, diff: np.ndarray) -> list[tuple[float, float]]:
    # The first _MAX_CROSSINGS grid intervals where diff is finite at both
    # ends and strictly changes sign, in grid order.  A non-finite end
    # counts as 0, which never gives a negative product.
    d = np.where(np.isfinite(diff), diff, 0.0)
    return [(float(ts[i]), float(ts[i + 1])) for i in np.flatnonzero(d[:-1] * d[1:] < 0.0)[:_MAX_CROSSINGS]]


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
    """Running maximum with value ties broken toward the smallest key.

    Two offers within _TIE_TOL of each other are treated as the same
    optimum (symmetric models produce exact twins that differ only by
    floating-point noise); the smaller key, the lexicographically smaller
    quantizer maps, wins so reports are stable across platforms.  ``item``
    is whatever the sweep needs back from its winner; it stays None until
    some offer beats -inf.
    """

    value: float = -math.inf
    key: tuple = ()
    item: object = None

    def offer(self, value: float, key: tuple, item: object) -> None:
        if value > self.value + _TIE_TOL or (value > self.value - _TIE_TOL and key < self.key):
            self.value, self.key, self.item = value, key, item


@dataclass(frozen=True)
class _StagedOptimum:
    """Best strategy of one staged objective and its exponent.

    ``at_edge`` flags a threshold on the edge of gamma's LLR support.
    """

    strategy: Strategy
    exponent: float
    decay: DecayRateVector
    branch0: float
    branch1: float
    at_edge: bool


def _search_staged(m: HypothesisModel, r: float, d: int, mode: str) -> tuple[_StagedOptimum, _StagedOptimum]:
    """Joint search for the DaisyRestricted and Tree optima, in ``RESTRICTED_KINDS`` order.

    Both are computed in one pass because they share every branch-value
    matrix, and because evaluating the daisy objective at the tree's best
    threshold (and vice versa) keeps the reported pair consistent: the
    daisy value can never fall below the tree value at any threshold either
    search visited.  ``r`` and ``d`` are checked before the cache lookup,
    where 2.0 would hit a cached d = 2 search; the model checked itself.
    """
    _check_stage_fraction(r)
    _check_message_size(d)
    return _staged_optima(m.pmf0.tobytes(), m.pmf1.tobytes(), float(r), d, mode)


@dataclass(eq=False)
class _GammaSearch:
    """The sup over t of both staged objectives at one first-stage candidate g.

    Every full evaluation of the deltas at one threshold goes through
    ``memo``, so a threshold that the two golden sections, the daisy
    crossing bisections and the final sweep share is solved once.
    """

    g: _Cand
    deltas: list[_Cand]
    r: float
    memo: dict[float, _PointEval] = dataclasses.field(default_factory=dict)

    def point(self, t: float) -> _PointEval:
        p = self.memo.get(t)
        if p is None:
            p = self.memo[t] = _point_eval(self.g, self.deltas, self.r, t)
        return p

    def loss(self, kind: str, t: float) -> float:
        return -self.point(t).optima[kind][0]

    def daisy_diff(self, t: float) -> float:
        p = self.point(t)
        return max(p.bv0) - max(p.bv1)

    def tree_diff(self, k: int, t: float) -> float:
        # The daisy crossing bisection of the same interval may have put t
        # in the memo; _tree_diff gives the same difference.
        p = self.memo.get(t)
        return _tree_diff(self.g, self.deltas[k], self.r, t) if p is None else p.bv0[k] - p.bv1[k]

    def points(self) -> list[_PointEval]:
        """Point evaluations at every candidate threshold, in increasing t."""
        g, deltas, r = self.g, self.deltas, self.r
        ts = np.linspace(g.zmin, g.zmax, T_GRID_POINTS)
        l0, l1 = rate_function_grid(g.im, 0, ts), rate_function_grid(g.im, 1, ts)
        e01 = np.where(ts >= g.mean0, l0, 0.0)
        e00 = np.where(ts >= g.mean0, 0.0, l0)
        e10 = np.where(ts <= g.mean1, l1, 0.0)
        e11 = np.where(ts <= g.mean1, 0.0, l1)
        a0, a1 = _branch_thresholds(r, e01, e10, e00, e11)
        bv0 = np.stack([_branch_grid(dc, a0, e00, e10, r) for dc in deltas])
        bv1 = np.stack([_branch_grid(dc, a1, e01, e11, r) for dc in deltas])
        sup0, sup1 = bv0.max(axis=0), bv1.max(axis=0)
        curves = {"DaisyRestricted": np.minimum(sup0, sup1), "Tree": np.minimum(bv0, bv1).max(axis=0)}

        tcands: list[float] = []
        for kind, curve in curves.items():
            i = int(np.argmax(curve))
            lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
            tcands.append(float(ts[i]))
            if hi > lo:
                tcands.append(float(golden_section_min(functools.partial(self.loss, kind), lo, hi, _REFINE_TOL)[0]))
        # The max-min optimum often sits where the branch curves cross: the
        # daisy's two branch sups, or one delta's two branch values.
        crossings = [(sup0 - sup1, self.daisy_diff)]
        crossings += [(bv0[k] - bv1[k], functools.partial(self.tree_diff, k)) for k in range(len(deltas))]
        for grid_diff, diff in crossings:
            tcands += [_bisect_crossing(diff, lo, hi) for lo, hi in _sign_change_ts(ts, grid_diff)]
        return [self.point(t) for t in sorted(set(tcands))]


@functools.lru_cache(maxsize=128)
def _staged_optima(pmf0: bytes, pmf1: bytes, r: float, d: int, mode: str) -> tuple[_StagedOptimum, _StagedOptimum]:
    # Keyed on the pmf bytes, not the model object, so equal models share
    # one search; the model is rebuilt bit for bit from them.
    m = HypothesisModel(pmf0=np.frombuffer(pmf0), pmf1=np.frombuffer(pmf1))
    cands = _candidates(m, d, mode)
    bests = {kind: _Best() for kind in RESTRICTED_KINDS}
    for g in cands:
        for p in _GammaSearch(g, cands, r).points():
            for kind, best in bests.items():
                value, i0, i1 = p.optima[kind]
                best.offer(value, (g.q.map, cands[i0].q.map, cands[i1].q.map, p.t), (g, p))
    return tuple(_staged_optimum(kind, best, cands, r) for kind, best in bests.items())


def _staged_optimum(kind: str, best: _Best, deltas: list[_Cand], r: float) -> _StagedOptimum:
    if best.item is None:
        raise ValueError(f"{kind} search found no finite candidate threshold")
    g, p = best.item
    value, i0, i1 = p.optima[kind]
    scale = max(1.0, abs(g.zmin), abs(g.zmax))
    return _StagedOptimum(
        strategy=Strategy(kind, g.q, deltas[i0].q, deltas[i1].q, t=p.t, r=r),
        # + 0.0 turns a -0.0 exponent into 0.0.
        exponent=-value + 0.0,
        decay=DecayRateVector(*_gamma_decay(g, r, p.t)[:4]),
        branch0=p.bv0[i0],
        branch1=p.bv1[i1],
        at_edge=min(abs(p.t - g.zmin), abs(p.t - g.zmax)) <= _BOUNDARY_RTOL * scale,
    )


def _staged_report(m: HypothesisModel, r: float, d: int, mode: str, formulation: str, kind: str) -> ExponentReport:
    # Both staged kinds enter here; exponent_daisy_restricted says why they
    # are Bayesian only.
    if _norm_formulation(formulation) != "Bayesian":
        raise UnsupportedFormulation(
            "staged architectures are evaluated in the Bayesian formulation only; "
            "the Neyman-Pearson optimum equals the parallel one"
        )
    res = _search_staged(m, r, d, mode)[RESTRICTED_KINDS.index(kind)]
    return ExponentReport(
        architecture=kind,
        formulation="Bayesian",
        r=r,
        exponent=res.exponent,
        strategy=res.strategy.to_dict(),
        decay_rates=dataclasses.asdict(res.decay),
        branch_values={"branch0": res.branch0, "branch1": res.branch1},
        note="optimum sits at the edge of the threshold range" if res.at_edge else "",
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
    return _staged_report(m, r, d, mode, formulation, "DaisyRestricted")


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
    return _staged_report(m, r, d, mode, formulation, "Tree")


def _parallel_value(im: InducedModel, formulation: str) -> float:
    if formulation == "NeymanPearson":
        # inf over quantizers of E_0[Z]: the (negated) divergence rate
        # governing the best miss exponent at fixed false-alarm level.
        return im.llr_mean(0)
    # The Chernoff value min_s L_0(s), from one conjugate solve at t = 0.
    return _chernoff_value(im)


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
    formulation = _norm_formulation(formulation)
    if messages_per_sensor not in (1, 2):
        raise ValueError("messages_per_sensor must be 1 or 2")
    _check_message_size(d)  # before d * d hides the d given
    d_eff = d * d if messages_per_sensor == 2 else d
    best = _Best()
    for q in enumerate_quantizers(m, d_eff, mode):
        best.offer(-_parallel_value(induce(m, q), formulation), q.map, q)
    best_q = best.item
    if best_q is None:
        raise ValueError("no candidate quantizer gives a finite exponent")
    if messages_per_sensor == 2:
        gamma, delta = split_product_quantizer(best_q, d)
        strategy = Strategy("Parallel2", gamma, delta0=delta)
    else:
        strategy = Strategy("Parallel1", best_q)
    return ExponentReport(
        architecture=strategy.kind,
        formulation=formulation,
        r=None,
        exponent=min(-best.value, 0.0) + 0.0,
        strategy=strategy.to_dict(),
        decay_rates=None,
        branch_values=None,
    )


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
    if kind not in PARALLEL_EQUIVALENT:
        raise ValueError(f"{kind!r} is not a feedback-equivalent architecture kind")
    base_kind, note = PARALLEL_EQUIVALENT[kind]
    messages = 2 if base_kind == "Parallel2" else 1
    base = exponent_parallel(m, d=d, messages_per_sensor=messages, formulation=formulation, mode=mode)
    return dataclasses.replace(base, architecture=kind, note=note)


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
    (the module-docstring form), which is finite wherever the decay rates
    are and equals the literal value wherever the literal value is sane.
    Either way a branch no quantizer scores finitely has value +inf and no
    quantizer (None).
    """
    _check_stage_fraction(r)
    if semantics not in ("literal", "physical"):
        raise ValueError(f"unknown semantics: {semantics!r}")
    deltas = _candidates(m, d, mode)
    a0, a1 = _branch_thresholds(r, e.e01, e.e10, e.e00, e.e11)

    def branch(a: float, score: Callable[[_Cand], float]) -> tuple[float, Quantizer | None]:
        # Best finite score(dc) over the second-stage quantizers.  No score
        # is taken at a NaN (inf - inf) threshold: neither hypothesis
        # reaches that branch.
        best = _Best()
        if not math.isnan(a):
            for dc in deltas:
                value = score(dc)
                if math.isfinite(value):
                    best.offer(value, dc.q.map, dc.q)
        return (math.inf, None) if best.item is None else (best.value, best.item)

    if semantics == "literal":
        # A quantizer is feasible where the solver's own support rule gives
        # a finite conjugate.
        b0, q0 = branch(a0, lambda dc: rate_function(dc.im, 0, a0).value)
        b1, q1 = branch(a1, lambda dc: rate_function(dc.im, 1, a1).value)
        if math.isinf(b0) and math.isinf(b1):
            raise InfeasibleRate(
                "both branch thresholds lie outside every candidate quantizer's LLR support"
            )
        b0, b1 = (1.0 - r) * b0 + r * e.e00, (1.0 - r) * b1 + r * e.e11
    else:
        b0, q0 = branch(a0, lambda dc: _branch_point(dc, a0, e.e00, e.e10, r))
        b1, q1 = branch(a1, lambda dc: _branch_point(dc, a1, e.e01, e.e11, r))
    return min(b0, b1), q0, q1


def reevaluate_exponent(m: HypothesisModel, report: ExponentReport) -> float:
    """Recompute the exponent implied by a report's strategy, from scratch.

    Used to confirm that every report is reproducible from its own strategy
    without rerunning the search.
    """
    kind = report.architecture
    if kind in RESTRICTED_KINDS and report.strategy.get("t") is None:
        # Strategy.from_dict would read a missing threshold as 0.
        raise ValueError(f"{kind} report carries no aggregator threshold t")
    # A feedback-equivalent report holds its parallel kind's strategy.
    s = Strategy.from_dict(PARALLEL_EQUIVALENT.get(kind, (kind,))[0], report.strategy, r=report.r)
    if s.kind in ONE_STAGE_KINDS:
        return _parallel_value(induce(m, s.joint), report.formulation)
    p = _point_eval(_cand(m, s.gamma), [_cand(m, s.delta0), _cand(m, s.delta1)], s.r, s.t)
    return -min(p.bv0[0], p.bv1[1])


def check_symmetric_rate_condition(
    m: HypothesisModel,
    d: int = 2,
    r: float = 0.5,
    mode: str = "llr_monotone",
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
    witness = tree_res.strategy.delta0
    im = induce(m, witness)
    zmin, zmax = im.llr_support()
    half = min(-zmin, zmax)
    ts = np.linspace(-half, half, 201)
    gap_curve = np.abs(rate_function_grid(im, 1, ts) - rate_function_grid(im, 0, -ts))
    max_gap = float(gap_curve.max())
    applies = max_gap <= _TIE_TOL

    common_value = None
    consistent = None
    if applies:
        cands = _candidates(m, d, mode)
        shortcut = max(_point_eval(g, cands, r, 0.0).optima["Tree"][0] for g in cands)
        common_value = -shortcut
        consistent = (
            abs(common_value - daisy_res.exponent) <= 1e-7
            and abs(common_value - tree_res.exponent) <= 1e-7
        )
    return {
        "applies": applies,
        "witness": list(witness.map),
        "max_gap": max_gap,
        "common_value": common_value,
        "daisy_exponent": daisy_res.exponent,
        "tree_exponent": tree_res.exponent,
        "consistent": consistent,
    }


def check_ordering(
    m: HypothesisModel,
    r: float,
    d: int = 2,
    mode: str = "llr_monotone",
) -> dict:
    """Verify tree >= staged-chain > one-message-parallel exponents.

    The staged chain dominates the tree (its search space is larger) and
    wastes a fraction of its sensors on the aggregator bit, so it must sit
    strictly between the tree and the full parallel network whenever the
    two hypotheses are distinguishable.  Violations raise OrderingViolation
    because they can only come from an implementation bug.
    """
    daisy_res, tree_res = _search_staged(m, r, d, mode)
    e_tree, e_daisy = tree_res.exponent, daisy_res.exponent
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
        if not e_daisy - e_par >= _TIE_TOL:
            raise OrderingViolation(
                f"staged chain ({e_daisy}) must be strictly worse than parallel ({e_par})"
            )
    return report
