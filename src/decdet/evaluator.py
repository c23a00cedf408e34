"""Finite-n error probabilities: exact type-class sums, Monte Carlo, bounds.

The exponent searches in ``architectures`` answer the n -> infinity
question; this module answers the finite one.  For product-form strategies
(parallel networks, and the two-stage chain once the aggregator bit is
conditioned on) the exact error probability is a sum of multinomial
type-class probabilities, computed here fully in log domain so values like
exp(-800) come out exact rather than underflowing to zero.  Monte Carlo
simulation covers the adaptive feedback protocols that have no product
form, with a counter-based generator so every estimate is reproducible
bit for bit from (seed, n, num_trials) alone, independent of chunking or
platform threading.

The fusion rule is always a likelihood-ratio threshold: decide hypothesis
1 when the exact log-likelihood ratio of everything the fusion center sees
is >= fusion_threshold (default 0, the equal-prior MAP rule).  For the
feedback architectures the center sees all first-stage messages, so the
adaptive second-stage quantizer choice u_k is a deterministic function of
known data and the transcript LLR is just a sum of per-sensor terms under
the matching joint quantizer; the simulators exploit that to apply the
exactly optimal fusion rule, not an approximation to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .architectures import KINDS, ExponentReport
from .exponents import chernoff_exponent, log_mgf_derivs
from .model import (
    HypothesisModel,
    InducedModel,
    Quantizer,
    induce,
    product_quantizer,
    validate_model,
)

__all__ = [
    "CLASS_BUDGET",
    "Strategy",
    "ErrorEstimate",
    "FitResult",
    "TooLarge",
    "DegenerateLLR",
    "exact_error_parallel",
    "exact_error_daisy",
    "exact_error",
    "simulate",
    "fit_exponent",
    "sgb_lower_bound",
    "llr_distribution_parallel",
    "llr_distribution_daisy",
    "strategy_from_report",
]

CLASS_BUDGET = 10**7
# Trials drawn per generator stream; sized so one chunk's arrays stay small.
_CHUNK_CELLS = 1 << 22
_MAX_CHUNK_TRIALS = 8192

_PARALLEL_EXACT = ("Parallel1", "Parallel2", "OneMsgSequential")
_TWO_STAGE = ("DaisyRestricted", "Tree", "DaisyFull")
_ADAPTIVE_MC_ONLY = ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2")
_NEEDS_T = _ADAPTIVE_MC_ONLY + _TWO_STAGE


class TooLarge(ValueError):
    """Exact evaluation would enumerate more type classes than the budget."""


class DegenerateLLR(ValueError):
    """The transcript LLR is a nonzero constant, which no valid model produces."""


@dataclass(frozen=True)
class Strategy:
    """Concrete, simulatable strategy for one architecture kind.

    ``t`` is the aggregator threshold: the feedback bit (or broadcast bit)
    is 1 when the relevant running mean of first-stage LLRs reaches t.  The
    staged kinds also need ``r``, the fraction of sensors in the first
    stage; the first round(r * n) sensors form it.  ``fusion_threshold`` is
    the absolute transcript-LLR cut for the final decision, ties to 1.
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
        needs_deltas = self.kind not in ("Parallel1", "OneMsgSequential")
        if needs_deltas:
            if self.delta0 is None:
                raise ValueError(f"{self.kind} needs a second-stage quantizer delta0")
            if self.delta1 is None:
                object.__setattr__(self, "delta1", self.delta0)
        if self.kind in _NEEDS_T and self.t is None:
            raise ValueError(f"{self.kind} needs an aggregator threshold t")
        if self.kind in _TWO_STAGE:
            if self.r is None or not (0.0 < self.r < 1.0):
                raise ValueError(f"{self.kind} needs a stage fraction r in (0, 1)")
        elif self.r is not None:
            raise ValueError(f"{self.kind} takes no stage fraction r")

    @classmethod
    def for_kind(
        cls,
        kind: str,
        gamma: Quantizer,
        delta0: Quantizer | None = None,
        delta1: Quantizer | None = None,
        t: float | None = None,
        r: float | None = None,
        fusion_threshold: float = 0.0,
    ) -> Strategy:
        """Strategy of ``kind`` keeping only the fields that kind uses.

        ``t`` defaults to 0 for the kinds with an aggregator threshold and
        is dropped for the rest; ``r`` is dropped for the kinds without
        stages.  :func:`strategy_from_report` and the CLI build through here.
        """
        return cls(
            kind=kind,
            gamma=gamma,
            delta0=delta0,
            delta1=delta1,
            t=(0.0 if t is None else t) if kind in _NEEDS_T else None,
            r=r if kind in _TWO_STAGE else None,
            fusion_threshold=fusion_threshold,
        )


@dataclass(frozen=True)
class ErrorEstimate:
    """Error probabilities of one strategy at one blocklength.

    ``log_p_e`` is computed in log domain for exact methods, so it stays
    meaningful long after ``p_e`` itself underflows to zero.  ``ci`` is the
    95 percent half-width on p_e (zero for exact results).
    """

    n: int
    p_e0: float
    p_e1: float
    p_e: float
    log_p_e: float
    method: str
    ci: float

    @property
    def log_pe_over_n(self) -> float:
        return self.log_p_e / self.n


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log P_e against n, with the points used."""

    slope: float
    intercept: float
    estimates: tuple[ErrorEstimate, ...]


def _compositions(n: int, k: int) -> np.ndarray:
    """All nonnegative k-part compositions of n, one row each."""
    if k == 1:
        return np.array([[n]], dtype=np.int64)
    if k == 2:
        first = np.arange(n + 1, dtype=np.int64)
        return np.stack([first, n - first], axis=1)
    blocks = []
    for c0 in range(n + 1):
        rest = _compositions(n - c0, k - 1)
        first = np.full((rest.shape[0], 1), c0, dtype=np.int64)
        blocks.append(np.hstack([first, rest]))
    return np.vstack(blocks)


def _num_classes(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def _check_budget(n: int, feasible: Callable[[int], bool], what: str) -> None:
    if feasible(n):
        return
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    hint = f"; largest feasible n here is {lo}" if lo >= 1 else ""
    raise TooLarge(
        f"exact evaluation of {what} at n={n} exceeds the {CLASS_BUDGET} type-class budget{hint}"
    )


def _class_table(im: InducedModel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(logp0, logp1, llr_sum) over all message type classes at blocklength n."""
    counts = _compositions(n, im.alphabet_size)
    logcoef = gammaln(n + 1) - gammaln(counts + 1.0).sum(axis=1)
    logp0 = logcoef + counts @ np.log(im.q0)
    logp1 = logcoef + counts @ np.log(im.q1)
    sums = counts @ im.llr
    return logp0, logp1, sums


def _lse(values: np.ndarray) -> float:
    return float(logsumexp(values)) if values.size else -math.inf


def _estimate_from_logs(n: int, log_pe0: float, log_pe1: float, method: str) -> ErrorEstimate:
    log_p_e = float(np.logaddexp(log_pe0, log_pe1)) - math.log(2.0)
    return ErrorEstimate(
        n=n,
        p_e0=math.exp(log_pe0) if log_pe0 > -math.inf else 0.0,
        p_e1=math.exp(log_pe1) if log_pe1 > -math.inf else 0.0,
        p_e=math.exp(log_p_e) if log_p_e > -math.inf else 0.0,
        log_p_e=log_p_e,
        method=method,
        ci=0.0,
    )


def _parallel_joint(strategy: Strategy) -> Quantizer:
    if strategy.kind == "Parallel2":
        return product_quantizer(strategy.gamma, strategy.delta0)
    return strategy.gamma


def exact_error_parallel(m: HypothesisModel, strategy: Strategy, n: int) -> ErrorEstimate:
    """Exact error probabilities of a parallel strategy by type-class sums."""
    validate_model(m)
    if strategy.kind not in _PARALLEL_EXACT:
        raise ValueError(f"{strategy.kind} is not a parallel-form strategy")
    if n < 1:
        raise ValueError("blocklength n must be positive")
    im = induce(m, _parallel_joint(strategy))
    k = im.alphabet_size
    _check_budget(n, lambda nn: _num_classes(nn, k) <= CLASS_BUDGET, "a parallel strategy")
    logp0, logp1, sums = _class_table(im, n)
    decide1 = sums >= strategy.fusion_threshold
    return _estimate_from_logs(n, _lse(logp0[decide1]), _lse(logp1[~decide1]), "exact")


def _stage_sizes(n: int, r: float) -> tuple[int, int]:
    n1 = int(round(r * n))
    if n1 < 1 or n1 > n - 1:
        raise ValueError(f"stage split round({r} * {n}) leaves an empty stage")
    return n1, n - n1


def _two_stage_setup(
    m: HypothesisModel, strategy: Strategy, n: int, what: str
) -> tuple[int, int, InducedModel, list[InducedModel]]:
    """Stage sizes and induced models of a two-stage strategy, budget-checked."""
    n1, n2 = _stage_sizes(n, strategy.r)
    im1 = induce(m, strategy.gamma)
    ims2 = [induce(m, strategy.delta0), induce(m, strategy.delta1)]
    k1 = im1.alphabet_size
    k2 = max(im.alphabet_size for im in ims2)

    def feasible(nn: int) -> bool:
        m1, m2 = _stage_sizes(nn, strategy.r) if nn >= 2 else (1, 1)
        return max(_num_classes(m1, k1), _num_classes(m2, k2)) <= CLASS_BUDGET

    _check_budget(n, feasible, what)
    return n1, n2, im1, ims2


def exact_error_daisy(m: HypothesisModel, strategy: Strategy, n: int) -> ErrorEstimate:
    """Exact error probabilities of a two-stage chain strategy.

    The first round(r * n) sensors produce the aggregator bit
    U = 1{mean first-stage LLR >= t}; the rest quantize with delta0 or
    delta1 according to U.  For DaisyRestricted and Tree the fusion center
    sees (U, second-stage messages) and the transcript LLR is the exact
    log-odds of U plus the second-stage sum; for DaisyFull it sees the
    first-stage messages too, handled by convolving each first-stage class
    with the matching second-stage tail.
    """
    validate_model(m)
    if strategy.kind not in _TWO_STAGE:
        raise ValueError(f"{strategy.kind} is not a two-stage strategy")
    n1, n2, im1, im2 = _two_stage_setup(m, strategy, n, "a two-stage strategy")
    logp0_1, logp1_1, sums1 = _class_table(im1, n1)
    umask = sums1 >= strategy.t * n1
    thr = strategy.fusion_threshold
    lp0_err: list[np.ndarray] = []
    lp1_err: list[np.ndarray] = []

    if strategy.kind == "DaisyFull":
        # Fusion sees the first-stage messages as well, so the decision
        # couples the two stages; group second-stage classes into sorted
        # tails and query one tail per first-stage class.
        for u in (0, 1):
            sel = umask if u else ~umask
            if not np.any(sel):
                continue
            logp0_2, logp1_2, sums2 = _class_table(im2[u], n2)
            order = np.argsort(sums2, kind="stable")
            s2 = sums2[order]
            tail0 = np.full(s2.size + 1, -math.inf)
            tail0[:-1] = np.logaddexp.accumulate(logp0_2[order][::-1])[::-1]
            head1 = np.full(s2.size + 1, -math.inf)
            head1[1:] = np.logaddexp.accumulate(logp1_2[order])
            # Decide 1 iff first-stage sum + second-stage sum >= thr.
            idx = np.searchsorted(s2, thr - sums1[sel], side="left")
            lp0_err.append(logp0_1[sel] + tail0[idx])
            lp1_err.append(logp1_1[sel] + head1[idx])
    else:
        for u in (0, 1):
            sel = umask if u else ~umask
            if not np.any(sel):
                continue
            lu0, lu1 = _lse(logp0_1[sel]), _lse(logp1_1[sel])
            logp0_2, logp1_2, sums2 = _class_table(im2[u], n2)
            decide1 = (lu1 - lu0) + sums2 >= thr
            lp0_err.append(lu0 + logp0_2[decide1])
            lp1_err.append(lu1 + logp1_2[~decide1])

    log_pe0 = _lse(np.concatenate(lp0_err)) if lp0_err else -math.inf
    log_pe1 = _lse(np.concatenate(lp1_err)) if lp1_err else -math.inf
    return _estimate_from_logs(n, log_pe0, log_pe1, "exact")


def exact_error(m: HypothesisModel, strategy: Strategy, n: int) -> ErrorEstimate:
    """Exact error probabilities for any strategy with a product-form transcript."""
    if strategy.kind in _PARALLEL_EXACT:
        return exact_error_parallel(m, strategy, n)
    if strategy.kind in _TWO_STAGE:
        return exact_error_daisy(m, strategy, n)
    raise ValueError(
        f"{strategy.kind} adapts each sensor to the realized feedback, so its "
        "transcript has no product form; estimate it with simulate instead"
    )


def _symbol_llr_table(m: HypothesisModel, q: Quantizer) -> np.ndarray:
    """Per observation symbol, the LLR of the message it maps to."""
    labels = np.asarray(q.map, dtype=np.intp)
    q0 = np.bincount(labels, weights=m.pmf0, minlength=q.message_alphabet_size)
    q1 = np.bincount(labels, weights=m.pmf1, minlength=q.message_alphabet_size)
    pos = (q0 > 0.0) & (q1 > 0.0)
    msg_llr = np.zeros(q.message_alphabet_size)
    msg_llr[pos] = np.log(q1[pos]) - np.log(q0[pos])
    return msg_llr[labels]


def _chunk_trials(n: int) -> int:
    return max(1, min(_MAX_CHUNK_TRIALS, _CHUNK_CELLS // max(1, n)))


def _sample_symbols(rng: np.random.Generator, pmf: np.ndarray, rows: int, n: int) -> np.ndarray:
    cdf = np.cumsum(pmf)
    u = rng.random((rows, n))
    return np.minimum(np.searchsorted(cdf, u, side="right"), pmf.size - 1)


def _transcript_llr(strategy: Strategy, m: HypothesisModel, obs: np.ndarray, tables: dict) -> np.ndarray:
    """Exact fusion-center LLR of each row's transcript."""
    kind = strategy.kind
    if kind in _PARALLEL_EXACT:
        return tables["joint"][obs].sum(axis=1)

    n = obs.shape[1]
    if kind in _ADAPTIVE_MC_ONLY:
        llr1 = tables["first"][obs]
        t = strategy.t
        if kind == "SequentialFeedback2":
            prefix = np.cumsum(llr1, axis=1)
            u = np.zeros(obs.shape, dtype=bool)
            # Sensor k reacts to the mean of the k earlier first messages;
            # the first sensor has no history and uses delta0.
            u[:, 1:] = prefix[:, :-1] >= t * np.arange(1, n)
        elif kind == "FullFeedback2":
            total = llr1.sum(axis=1, keepdims=True)
            u = (total - llr1) >= t * (n - 1)
        else:
            total = llr1.sum(axis=1, keepdims=True)
            u = np.broadcast_to(total >= t * n, obs.shape)
        return np.where(u, tables["joint1"][obs], tables["joint0"][obs]).sum(axis=1)

    # Two-stage chains: the first n1 columns form the aggregator bit.
    n1, _ = _stage_sizes(n, strategy.r)  # type: ignore[arg-type]
    llr1 = tables["first"][obs[:, :n1]]
    s1 = llr1.sum(axis=1)
    u = s1 >= strategy.t * n1  # type: ignore[operator]
    second = np.where(u[:, None], tables["second1"][obs[:, n1:]], tables["second0"][obs[:, n1:]])
    s2 = second.sum(axis=1)
    if kind == "DaisyFull":
        return s1 + s2
    return np.where(u, tables["logit_u1"], tables["logit_u0"]) + s2


def _build_tables(m: HypothesisModel, strategy: Strategy, n: int) -> dict:
    tables: dict = {}
    kind = strategy.kind
    if kind in _PARALLEL_EXACT:
        tables["joint"] = _symbol_llr_table(m, _parallel_joint(strategy))
    elif kind in _ADAPTIVE_MC_ONLY:
        tables["first"] = _symbol_llr_table(m, strategy.gamma)
        tables["joint0"] = _symbol_llr_table(m, product_quantizer(strategy.gamma, strategy.delta0))
        tables["joint1"] = _symbol_llr_table(m, product_quantizer(strategy.gamma, strategy.delta1))
    else:
        tables["first"] = _symbol_llr_table(m, strategy.gamma)
        tables["second0"] = _symbol_llr_table(m, strategy.delta0)
        tables["second1"] = _symbol_llr_table(m, strategy.delta1)
        if kind != "DaisyFull":
            # The fusion center sees only the bit U from stage one, so its
            # transcript LLR needs the exact log-odds of U at this n.
            n1, _ = _stage_sizes(n, strategy.r)  # type: ignore[arg-type]
            im1 = induce(m, strategy.gamma)
            k1 = im1.alphabet_size
            _check_budget(
                n1,
                lambda nn: _num_classes(nn, k1) <= CLASS_BUDGET,
                "the aggregator-bit distribution",
            )
            logp0_1, logp1_1, sums1 = _class_table(im1, n1)
            umask = sums1 >= strategy.t * n1  # type: ignore[operator]
            lo0, lo1 = _lse(logp0_1[~umask]), _lse(logp1_1[~umask])
            hi0, hi1 = _lse(logp0_1[umask]), _lse(logp1_1[umask])
            tables["logit_u0"] = lo1 - lo0 if lo0 > -math.inf else 0.0
            tables["logit_u1"] = hi1 - hi0 if hi0 > -math.inf else 0.0
    return tables


def simulate(
    m: HypothesisModel,
    strategy: Strategy,
    n: int,
    num_trials: int = 100_000,
    seed: int = 0,
) -> ErrorEstimate:
    """Monte Carlo error estimate, reproducible bit for bit from the seed.

    Draws ``num_trials`` transcripts under each hypothesis with a
    counter-based generator keyed on (seed, chunk index, hypothesis), so
    the result never depends on execution order, then applies the exact
    transcript-LLR fusion rule.  ``ci`` is the 95 percent normal-theory
    half-width on the averaged error probability.
    """
    validate_model(m)
    if n < 1 or num_trials < 1:
        raise ValueError("n and num_trials must be positive")
    if strategy.kind in _TWO_STAGE:
        _stage_sizes(n, strategy.r)  # type: ignore[arg-type]
    tables = _build_tables(m, strategy, n)
    chunk = _chunk_trials(n)
    errors = [0, 0]
    for j, pmf in ((0, m.pmf0), (1, m.pmf1)):
        done = 0
        chunk_idx = 0
        while done < num_trials:
            rows = min(chunk, num_trials - done)
            bitgen = np.random.Philox(key=[seed, 0], counter=[0, chunk_idx, j, 0])
            rng = np.random.Generator(bitgen)
            obs = _sample_symbols(rng, pmf, rows, n)
            llr = _transcript_llr(strategy, m, obs, tables)
            decide1 = llr >= strategy.fusion_threshold
            errors[j] += int(decide1.sum()) if j == 0 else int((~decide1).sum())
            done += rows
            chunk_idx += 1
    p_e0 = errors[0] / num_trials
    p_e1 = errors[1] / num_trials
    p_e = 0.5 * (p_e0 + p_e1)
    var = 0.25 * (p_e0 * (1 - p_e0) + p_e1 * (1 - p_e1)) / num_trials
    return ErrorEstimate(
        n=n,
        p_e0=p_e0,
        p_e1=p_e1,
        p_e=p_e,
        log_p_e=math.log(p_e) if p_e > 0.0 else -math.inf,
        method="mc",
        ci=1.96 * math.sqrt(var),
    )


def fit_exponent(
    m: HypothesisModel,
    strategy_for_n: Strategy | Callable[[int], Strategy],
    ns: Sequence[int],
    method: str = "exact",
    num_trials: int = 100_000,
    seed: int = 0,
) -> FitResult:
    """Estimate the error exponent as the slope of log P_e against n.

    ``strategy_for_n`` may be a fixed strategy or a callable building one
    per blocklength (needed when the stage split must track n).  Points
    whose Monte Carlo estimate saw zero errors are kept in ``estimates``
    but excluded from the fit.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method: {method!r}")
    ns = sorted(int(n) for n in ns)
    if len(ns) < 2:
        raise ValueError("need at least two blocklengths to fit a slope")
    estimates = []
    for n in ns:
        strat = strategy_for_n(n) if callable(strategy_for_n) else strategy_for_n
        if method == "exact":
            estimates.append(exact_error(m, strat, n))
        else:
            estimates.append(simulate(m, strat, n, num_trials=num_trials, seed=seed))
    xs = [e.n for e in estimates if e.log_p_e > -math.inf]
    ys = [e.log_p_e for e in estimates if e.log_p_e > -math.inf]
    if len(xs) < 2:
        raise ValueError("fewer than two blocklengths produced a nonzero error estimate")
    slope, intercept = np.polyfit(np.array(xs, dtype=float), np.array(ys), 1)
    return FitResult(slope=float(slope), intercept=float(intercept), estimates=tuple(estimates))


def sgb_lower_bound(im: InducedModel, n: int = 1) -> tuple[float, float]:
    """Lower bound on max(P_e0, P_e1) over every possible fusion rule.

    For a transcript whose per-trial LLR atoms are ``im`` repeated n times
    i.i.d., returns (bound, s_star) with

        max(P_e0, P_e1) >= (1/4) exp(n L(s_star) - sqrt(2 n L''(s_star)))

    at the saddle point L'(s_star) = 0.  Indistinguishable transcripts
    (LLR identically zero) get the exact floor (0.25, 0.5); a constant
    nonzero LLR cannot come from two probability distributions and raises
    DegenerateLLR.
    """
    if n < 1:
        raise ValueError("n must be positive")
    zmin, zmax = im.llr_support()
    scale = max(1.0, abs(zmin), abs(zmax))
    if zmax - zmin <= 1e-12 * scale:
        if abs(zmin) > 1e-9:
            raise DegenerateLLR(f"transcript LLR is constant {zmin!r}, not a valid pair")
        return 0.25, 0.5
    val, s_star = chernoff_exponent(im)
    _, _, second = log_mgf_derivs(im, 0, s_star)
    bound = 0.25 * math.exp(n * val - math.sqrt(2.0 * n * max(second, 0.0)))
    return bound, s_star


def llr_distribution_parallel(m: HypothesisModel, strategy: Strategy, n: int) -> InducedModel:
    """Transcript-level LLR atoms of a parallel strategy at blocklength n.

    One atom per message type class; feeding the result to
    :func:`sgb_lower_bound` with n=1 bounds the n-sensor network.  Class
    probabilities below the floating-point floor flush to zero mass.
    """
    validate_model(m)
    im = induce(m, _parallel_joint(strategy))
    k = im.alphabet_size
    _check_budget(n, lambda nn: _num_classes(nn, k) <= CLASS_BUDGET, "a parallel transcript")
    logp0, logp1, sums = _class_table(im, n)
    return InducedModel(q0=np.exp(logp0), q1=np.exp(logp1), llr=sums)


def llr_distribution_daisy(m: HypothesisModel, strategy: Strategy, n: int) -> InducedModel:
    """Transcript-level LLR atoms seen by the fusion center of a two-stage chain.

    Atoms are (aggregator bit, second-stage type class) pairs with the
    exact mixture probabilities; the LLR entry of each atom includes the
    bit's log-odds, matching what the fusion rule thresholds.
    """
    validate_model(m)
    if strategy.kind not in ("DaisyRestricted", "Tree"):
        raise ValueError("transcript atoms with an aggregator bit need a restricted chain")
    n1, n2, im1, ims2 = _two_stage_setup(m, strategy, n, "a two-stage transcript")
    logp0_1, logp1_1, sums1 = _class_table(im1, n1)
    umask = sums1 >= strategy.t * n1
    q0_parts, q1_parts, llr_parts = [], [], []
    for u in (0, 1):
        sel = umask if u else ~umask
        if not np.any(sel):
            continue
        lu0, lu1 = _lse(logp0_1[sel]), _lse(logp1_1[sel])
        logp0_2, logp1_2, sums2 = _class_table(ims2[u], n2)
        q0_parts.append(np.exp(lu0 + logp0_2))
        q1_parts.append(np.exp(lu1 + logp1_2))
        llr_parts.append((lu1 - lu0) + sums2)
    return InducedModel(
        q0=np.concatenate(q0_parts),
        q1=np.concatenate(q1_parts),
        llr=np.concatenate(llr_parts),
    )


def strategy_from_report(
    report: ExponentReport,
    t: float | None = None,
    fusion_threshold: float = 0.0,
) -> Strategy:
    """Turn an exponent report's strategy block into a simulatable Strategy.

    The feedback kinds carry no threshold in their reports (their optimum
    is threshold-free); pass ``t`` to choose one, default 0.  Raises
    ValueError when the report's gamma is missing or its maps are not
    integer label lists.
    """
    strat = report.strategy
    d0, d1 = strat.get("delta0"), strat.get("delta1")
    return Strategy.for_kind(
        report.architecture,
        Quantizer.from_labels(strat.get("gamma")),
        delta0=None if d0 is None else Quantizer.from_labels(d0),
        delta1=None if d1 is None else Quantizer.from_labels(d1),
        t=t if t is not None else strat.get("t"),
        r=report.r,
        fusion_threshold=fusion_threshold,
    )
