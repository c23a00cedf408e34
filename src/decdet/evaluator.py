"""Finite-n error probabilities: exact type-class sums, Monte Carlo, bounds.

The exponent searches in ``architectures`` answer the n -> infinity
question; this module answers the finite one.  For product-form strategies
(parallel networks, and the two-stage chain once the aggregator bit is
conditioned on) the exact error probability is a sum of multinomial
type-class probabilities, computed here fully in log domain so values like
exp(-800) come out exact rather than underflowing to zero.

Most exact paths never build the class table.  A class's LLR sum is linear
in the counts of the model's lowest- and highest-LLR atoms, so
``_fold_split`` enumerates only the other counts and sums the last two
counts' binomial tails at the one count where the decision flips; every
tie is settled on the table's own float expression.  Parallel strategies,
the aggregator bit of DaisyRestricted and Tree, and the second stage of
those two chains all fold.  DaisyFull (whose fusion sees each first-stage
class) and ``llr_distribution_*`` (which return the atoms) keep full class
tables.  ``CLASS_BUDGET`` counts the classes of the full table on every
path: it is a kept contract on which (strategy, n) pairs evaluate, no
longer the bound on the folded paths' memory.

Monte Carlo simulation covers the adaptive feedback protocols that have no
product form, with a counter-based generator so every estimate is
reproducible bit for bit from (seed, n, num_trials) alone.  Trials fall
into chunks, each with its own stream; each stream is read in order, a
block of rows of about ``_BLOCK_CELLS`` cells at a time, so each array a
call makes holds about max(block, n) cells however many trials it draws,
and each thread reuses one set of such arrays for all its blocks.
Symbols come from the raw 64-bit words by integer thresholds, and the LLR
tables are read through one flat index.  The two hypotheses are drawn on
two threads, one each, and the result depends neither on the blocks nor
on the threading.

The fusion rule is always a likelihood-ratio threshold: decide hypothesis
1 when the exact log-likelihood ratio of everything the fusion center sees
is >= fusion_threshold (default 0, the equal-prior MAP rule).  For the
feedback architectures the center sees all first-stage messages, so the
adaptive second-stage quantizer choice u_k is a deterministic function of
known data and the transcript LLR is just a sum of per-sensor terms under
the matching joint quantizer; the simulators exploit that to apply the
exactly optimal fusion rule, not an approximation to it.

``import decdet`` loads numpy and the standard library only, because the
exponent searches need nothing more.  ``scipy.special`` is imported inside
the exact-evaluation functions that call it, and ``concurrent.futures``
inside ``simulate``, so a process pays for each on its first use alone.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .architectures import (
    ADAPTIVE_KINDS,
    ONE_STAGE_KINDS,
    RESTRICTED_KINDS,
    TWO_STAGE_KINDS,
    ExponentReport,
    Strategy,
)
from .exponents import chernoff_exponent, log_mgf_derivs
from .model import (
    HypothesisModel,
    InducedModel,
    Quantizer,
    induce,
    product_quantizer,
)

__all__ = [
    "CLASS_BUDGET",
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
# Trials per generator stream.  The chunks fix which stream each trial's
# draws come from, so they are part of every estimate; memory is bounded
# by the row blocks below, not by them.
_CHUNK_CELLS = 1 << 22
_MAX_CHUNK_TRIALS = 8192
# Cells per row block of ``simulate`` (at least one row): a block's arrays,
# at most 1 MiB each at 8 bytes a cell, stay in L2 cache.
_BLOCK_CELLS = 1 << 17
# Binomial terms per block of the window-tail kernel: its term arrays stay
# within 256 KiB, in cache, so its time does not hang on how the allocator
# maps fresh memory.
_WINDOW_BLOCK_TERMS = 1 << 15

# (log mass under H0, log mass under H1, LLR) per atom: a type class or a transcript atom.
_LogAtoms = tuple[np.ndarray, np.ndarray, np.ndarray]


class TooLarge(ValueError):
    """Exact evaluation would enumerate more type classes than the budget."""


class DegenerateLLR(ValueError):
    """The transcript LLR is a nonzero constant, which no valid model produces."""


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
    """All nonnegative k-part compositions of n, one row each, in
    lexicographic order.

    Built a column at a time: each row so far, with r of n left, takes
    every next count 0..r in turn, and each count fills as many rows of
    its column as there are ways to split what it leaves over the parts
    after it.  The last two columns need no such repeat: each of their
    rows is one composition.
    """
    out = np.empty((math.comb(n + k - 1, k - 1), k), dtype=np.int64)
    rest = np.array([n], dtype=np.int64)
    for i in range(k - 1):
        size = rest + 1
        # In place: fresh pages cost more here than the arithmetic.
        col = np.arange(size.sum())
        col -= np.repeat(np.cumsum(size) - size, size)
        rest = np.repeat(rest, size)
        rest -= col
        # Counts still free after this column; the last is what is left.
        free = k - 2 - i
        if free:
            ways = np.array([math.comb(r + free, free) for r in range(n + 1)], dtype=np.int64)
            col = np.repeat(col, ways[rest])
        out[:, i] = col
    out[:, -1] = rest
    return out


def _stage_sizes(n: int, r: float) -> tuple[int, int]:
    # round(r * n) sensors in stage one, the rest in stage two, neither empty.
    n1 = int(round(r * n))
    if n1 < 1 or n1 > n - 1:
        raise ValueError(f"stage split round({r} * {n}) leaves an empty stage")
    return n1, n - n1


def _stage_classes(n: int, k1: int, k2: int, r: float | None) -> int:
    """Most type classes a stage enumerates at n: one stage of k1 messages,
    or with ``r`` the two stages of :func:`_stage_sizes`, of k1 and k2
    messages (none when that split leaves a stage empty)."""
    if r is None:
        return math.comb(n + k1 - 1, k1 - 1)
    try:
        n1, n2 = _stage_sizes(n, r)
    except ValueError:
        return 0
    return max(math.comb(n1 + k1 - 1, k1 - 1), math.comb(n2 + k2 - 1, k2 - 1))


def _check_budget(n: int, what: str, k1: int, k2: int = 1, r: float | None = None) -> None:
    """Raise TooLarge when a stage at n exceeds CLASS_BUDGET type classes.

    The hint names the largest n that fills every stage within the budget.
    Stage sizes never shrink as n grows, so the n within the budget are
    1..over, found by one bisection; if n = over leaves a stage empty, so
    does every smaller n.
    """
    if _stage_classes(n, k1, k2, r) <= CLASS_BUDGET:
        return
    # The position in 1..n of the first n over the budget is the largest n
    # within it (0 when there is none).
    over = bisect.bisect_left(range(1, n + 1), True, key=lambda nn: _stage_classes(nn, k1, k2, r) > CLASS_BUDGET)
    if over > 0 and _stage_classes(over, k1, k2, r) > 0:
        hint = f"; largest feasible n here is {over}"
    else:
        hint = "; no n here gives two non-empty stages within it"
    raise TooLarge(
        f"exact evaluation of {what} at n={n} exceeds the {CLASS_BUDGET} type-class budget{hint}"
    )


def _class_table(im: InducedModel, n: int) -> _LogAtoms:
    """(logp0, logp1, llr_sum) over all message type classes at blocklength n."""
    from scipy.special import gammaln

    counts = _compositions(n, im.alphabet_size)
    lg = gammaln(np.arange(n + 1) + 1.0)
    logcoef = lg[n] - lg[counts].sum(axis=1)
    # numpy would cast the int64 counts to float for each product anyway.
    counts = counts.astype(np.float64)
    logp0 = logcoef + counts @ np.log(im.q0)
    logp1 = logcoef + counts @ np.log(im.q1)
    sums = counts @ im.llr
    return logp0, logp1, sums


def _log_terms(m, c, log_qa, log_qb, lg):
    """log of C(m, c) qa^c qb^(m - c), with lg[i] = log(i!)."""
    return lg[m] - lg[c] - lg[m - c] + (c * log_qa + (m - c) * log_qb)


def _window_tails(m: np.ndarray, c: np.ndarray, qa: np.ndarray, qb: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """Entry [j, u, p] is the log of the sum over c' < c (u = 0) or c' >= c
    (u = 1) of C(m, c') qa_j^c' qb_j^(m - c'), with (m, c) = (m[p], c[p]).

    The side of c without the row's mode is summed directly, scaled by its
    term nearest the mode, which is its largest.  The log terms are
    concave with curvature at least 4 / (m + 2), so every term more than
    5 sqrt(m + 2) places beyond that one is below e^-50 of it and is left
    out.  The other side is the row total (qa + qb)^m less that sum, at
    least about half of the total.  Work is O(sqrt(m)) per entry, however
    deep the tail.  Entries are independent, so they are taken in blocks
    of at most ``_WINDOW_BLOCK_TERMS`` terms, each entry with the same
    bits as in one pass over all of them.
    """
    reach = math.ceil(5.0 * math.sqrt(int(m.max()) + 2.0)) + 1
    step = max(1, _WINDOW_BLOCK_TERMS // (qa.size * reach))
    blocks = [_window_block(m[i:i + step], c[i:i + step], qa, qb, lg) for i in range(0, m.size, step)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)


def _window_block(m: np.ndarray, c: np.ndarray, qa: np.ndarray, qb: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """:func:`_window_tails` on one block of entries."""
    lqa, lqb = np.log(qa)[:, None], np.log(qb)[:, None]
    mode = np.minimum(np.floor((m + 1) * (qa / (qa + qb))[:, None]), m)
    up = mode < c
    reach = np.ceil(5.0 * np.sqrt(m + 2.0)).astype(np.int64) + 1
    nearest = np.clip(np.where(up, c, c - 1), 0, m)
    first = np.where(up, c, np.maximum(c - reach, 0))
    size = np.where(up, np.minimum(m - c + 1, reach), np.minimum(c, reach)).ravel()
    offs = np.cumsum(size) - size

    def each(a):
        return np.repeat(np.broadcast_to(a, up.shape).ravel(), size)

    cc = np.arange(offs[-1] + size[-1]) + np.repeat(first.ravel() - offs, size)
    peak = _log_terms(m, nearest, lqa, lqb, lg)
    scaled = np.exp(_log_terms(each(m), cc, each(lqa), each(lqb), lg) - each(peak))
    far = np.full(up.size, -math.inf)
    kept = size > 0
    far[kept] = peak.ravel()[kept] + np.log(np.add.reduceat(scaled, offs[kept]))
    far = far.reshape(up.shape)
    total = m * np.log(qa + qb)[:, None]
    near = total + np.log1p(-np.exp(far - total))
    return np.stack([np.where(up, near, far), np.where(up, far, near)], axis=1)


def _row_tails(m: np.ndarray, c: np.ndarray, qa: np.ndarray, qb: np.ndarray, lg: np.ndarray) -> np.ndarray:
    """The sums of :func:`_window_tails`, read from each whole row 0..n.

    For rows that many (m, c) entries share: O(n^2) work in all, which the
    class budget keeps small wherever the table has four or more atoms.
    """
    n = lg.size - 1
    mm, cc = np.arange(n + 1)[:, None], np.arange(n + 1)
    lqa, lqb = np.log(qa)[:, None, None], np.log(qb)[:, None, None]
    terms = np.where(cc <= mm, _log_terms(mm, np.minimum(cc, mm), lqa, lqb, lg), -math.inf)
    rows = np.full((2, 2, n + 1, n + 2), -math.inf)
    rows[:, 0, :, 1:] = np.logaddexp.accumulate(terms, axis=2)
    rows[:, 1, :, :-1] = np.logaddexp.accumulate(terms[..., ::-1], axis=2)[..., ::-1]
    return rows[:, :, m, c]


def _fold_split(im: InducedModel, n: int, thr: float, shift: float = 0.0) -> np.ndarray:
    """Log masses of the type classes at n on each side of a threshold.

    Entry [j, u] is log P_j(decision = u), where a class decides 1 when
    ``shift + counts @ im.llr >= thr``, the class table's own float
    expression.  A side that no class takes has log mass -inf, and one
    that every class takes has log mass exactly 0.

    The table is never built.  Let a and b be the highest- and lowest-LLR
    atoms.  The other counts are enumerated as prefixes, each leaving m
    sensors, and a class with c of them on a and m - c on b has an LLR sum
    linear in c with slope llr_a - llr_b > 0.  So a prefix decides 1
    exactly when c >= c*, and its mass on each side is a tail of
    (q_a + q_b)^m * Binom(m, q_a / (q_a + q_b)) at c*.  c* comes from the
    linear formula and is then settled on the table's expression at c* - 1
    and c*.  Folding the extreme pair makes the step in c as large as the
    model allows.  Atoms that share an LLR are not merged: the table's
    float sums of the classes a merge would join can differ in the last
    bit, and so fall on both sides of a threshold.
    """
    out = np.full((2, 2), -math.inf)
    llr = im.llr
    lo, hi = int(np.argmin(llr)), int(np.argmax(llr))
    if math.isinf(thr) or llr[lo] == llr[hi]:
        # An infinite threshold, or one LLR for every atom (a one-atom
        # model among them), sends every class to the same side.
        out[:, int(shift + n * llr[lo] >= thr)] = 0.0
        return out

    k = llr.size
    mid = [i for i in range(k) if i not in (lo, hi)]
    comp = _compositions(n, k - 1)
    pre, m = comp[:, :-1], comp[:, -1]
    c = np.ceil((thr - shift - (pre @ llr[mid] + m * llr[lo])) / (llr[hi] - llr[lo]))
    c = np.clip(c, 0, m + 1).astype(np.int64)

    def decides(rows: np.ndarray, cc: np.ndarray) -> np.ndarray:
        # Always two or more rows, so numpy takes the matrix-vector product
        # the table takes, which rounds each row alike whatever the other
        # rows are; one row would go through a dot product, which can round
        # differently.
        counts = np.empty((rows.size, k))
        counts[:, mid] = pre[rows]
        counts[:, hi] = cc
        counts[:, lo] = m[rows] - cc
        return shift + counts @ llr >= thr

    # Step each c* until the class below it decides 0 and the class at it
    # decides 1.  A prefix only ever steps one way, so the loop ends.
    rows = np.arange(c.size)
    while rows.size:
        cr, mr = c[rows], m[rows]
        pair = decides(np.tile(rows, 2), np.concatenate([np.maximum(cr - 1, 0), np.minimum(cr, mr)]))
        below, at = np.split(pair, 2)
        step = np.where((cr <= mr) & ~at, 1, np.where((cr > 0) & below, -1, 0))
        c[rows] += step
        rows = rows[step != 0]
    if np.all(c == 0) or np.all(c == m + 1):
        out[:, int(c[0] == 0)] = 0.0
        return out

    from scipy.special import gammaln, logsumexp

    lg = gammaln(np.arange(n + 1) + 1.0)
    q = np.stack([im.q0, im.q1])
    # With three or fewer atoms each m has one prefix; with more, many
    # prefixes share each row.
    tails = (_row_tails if k > 3 else _window_tails)(m, c, q[:, hi], q[:, lo], lg)
    logpre = lg[n] - lg[m] - lg[pre].sum(axis=1) + np.log(q[:, mid]) @ pre.T
    return logsumexp(logpre[:, None, :] + tails, axis=2)


def _lse(values: np.ndarray) -> float:
    from scipy.special import logsumexp

    return float(logsumexp(values)) if values.size else -math.inf


def _estimate_from_logs(n: int, log_pe0: float, log_pe1: float, method: str) -> ErrorEstimate:
    # A sum of class masses can round a hair above 1; no probability does.
    log_pe0, log_pe1 = min(log_pe0, 0.0), min(log_pe1, 0.0)
    log_p_e = float(np.logaddexp(log_pe0, log_pe1)) - math.log(2.0)
    return ErrorEstimate(
        n=n,
        p_e0=math.exp(log_pe0),
        p_e1=math.exp(log_pe1),
        p_e=math.exp(log_p_e),
        log_p_e=log_p_e,
        method=method,
        ci=0.0,
    )


def _check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a positive integer: a float count
    would be truncated or fail deep in numpy."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _parallel_induced(m: HypothesisModel, strategy: Strategy, n: int, what: str) -> InducedModel:
    """Joint-message model of a parallel-form strategy, budget-checked at n."""
    if strategy.kind not in ONE_STAGE_KINDS:
        raise ValueError(f"{strategy.kind} is not a parallel-form strategy")
    _check_count("n", n)
    im = induce(m, strategy.joint)
    _check_budget(n, what, im.alphabet_size)
    return im


def exact_error_parallel(m: HypothesisModel, strategy: Strategy, n: int) -> ErrorEstimate:
    """Exact error probabilities of a parallel strategy by type-class sums."""
    im = _parallel_induced(m, strategy, n, "a parallel strategy")
    split = _fold_split(im, n, strategy.fusion_threshold)
    return _estimate_from_logs(n, split[0, 1], split[1, 0], "exact")


def _two_stage_setup(
    m: HypothesisModel, strategy: Strategy, n: int, what: str
) -> tuple[int, int, InducedModel, list[InducedModel]]:
    """Stage sizes and induced models of a two-stage strategy, budget-checked."""
    if strategy.kind not in TWO_STAGE_KINDS:
        raise ValueError(f"{strategy.kind} is not a two-stage strategy")
    _check_count("n", n)
    n1, n2 = _stage_sizes(n, strategy.r)
    im1 = induce(m, strategy.gamma)
    ims2 = [induce(m, strategy.delta0), induce(m, strategy.delta1)]
    _check_budget(n, what, im1.alphabet_size, max(im.alphabet_size for im in ims2), strategy.r)
    return n1, n2, im1, ims2


def _aggregator_bit(im1: InducedModel, n1: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Log masses and log-odds of the aggregator bit U = 1{first-stage LLR
    sum >= t * n1}: entry [j, u] of the first is log P_j(U = u), entry u of
    the second log P_1(U = u) - log P_0(U = u).  A value that U never takes
    gets log-odds 0, and so does one it always takes, exactly."""
    logm = _fold_split(im1, n1, t * n1)
    logit = np.zeros(2)
    np.subtract(logm[1], logm[0], out=logit, where=logm[0] > -math.inf)
    return logm, logit


def _first_stage_split(im1: InducedModel, n1: int, t: float) -> list[tuple[int, _LogAtoms]]:
    """(u, classes) for each value u of the aggregator bit U = 1{first-stage
    LLR sum >= t * n1} that some first-stage type class selects, u = 0 first."""
    logp0, logp1, sums = _class_table(im1, n1)
    umask = sums >= t * n1
    split = []
    for u in (0, 1):
        sel = umask if u else ~umask
        if np.any(sel):
            split.append((u, (logp0[sel], logp1[sel], sums[sel])))
    return split


def _restricted_atoms(im1: InducedModel, ims2: list[InducedModel], n1: int, n2: int, t: float) -> _LogAtoms:
    """(log q0, log q1, llr) of a restricted chain's transcript atoms.

    One atom per (U, second-stage type class) pair, u = 0 first; its LLR
    is the exact log-odds of U plus the second-stage sum.  The masses of U
    are summed over the first-stage class table, not folded, so the atoms
    keep their last bits: ``sgb_lower_bound`` takes a golden-section argmin
    over them, which moves by about 1e-8 when they move by one ulp.
    """
    parts = []
    for u, (lp0, lp1, _) in _first_stage_split(im1, n1, t):
        lu0, lu1 = _lse(lp0), _lse(lp1)
        logp0_2, logp1_2, sums2 = _class_table(ims2[u], n2)
        parts.append((lu0 + logp0_2, lu1 + logp1_2, (lu1 - lu0) + sums2))
    logq0, logq1, llr = (np.concatenate(col) for col in zip(*parts))
    return logq0, logq1, llr


def exact_error_daisy(m: HypothesisModel, strategy: Strategy, n: int) -> ErrorEstimate:
    """Exact error probabilities of a two-stage chain strategy.

    The first round(r * n) sensors produce the aggregator bit
    U = 1{mean first-stage LLR >= t}; the rest quantize with delta0 or
    delta1 according to U.  For DaisyRestricted and Tree the fusion center
    sees (U, second-stage messages) and the transcript LLR is the exact
    log-odds of U plus the second-stage sum, so both stages fold; for
    DaisyFull it sees the first-stage messages too, handled by convolving
    each first-stage class with the matching second-stage tail.
    """
    from scipy.special import logsumexp

    n1, n2, im1, ims2 = _two_stage_setup(m, strategy, n, "a two-stage strategy")
    thr = strategy.fusion_threshold
    if strategy.kind in RESTRICTED_KINDS:
        logm, logit = _aggregator_bit(im1, n1, strategy.t)
        err0, err1 = [], []
        for u in (0, 1):
            if logm[0, u] > -math.inf:
                split = _fold_split(ims2[u], n2, thr, logit[u])
                err0.append(logm[0, u] + split[0, 1])
                err1.append(logm[1, u] + split[1, 0])
        return _estimate_from_logs(n, logsumexp(err0), logsumexp(err1), "exact")

    # Fusion sees the first-stage messages as well, so the decision couples
    # the two stages; group second-stage classes into sorted tails and query
    # one tail per first-stage class.
    lp0_err: list[np.ndarray] = []
    lp1_err: list[np.ndarray] = []
    for u, (logp0_1, logp1_1, sums1) in _first_stage_split(im1, n1, strategy.t):
        logp0_2, logp1_2, sums2 = _class_table(ims2[u], n2)
        order = np.argsort(sums2, kind="stable")
        s2 = sums2[order]
        tail0 = np.full(s2.size + 1, -math.inf)
        tail0[:-1] = np.logaddexp.accumulate(logp0_2[order][::-1])[::-1]
        head1 = np.full(s2.size + 1, -math.inf)
        head1[1:] = np.logaddexp.accumulate(logp1_2[order])
        # Decide 1 iff first-stage sum + second-stage sum >= thr.
        idx = np.searchsorted(s2, thr - sums1, side="left")
        lp0_err.append(logp0_1 + tail0[idx])
        lp1_err.append(logp1_1 + head1[idx])
    log_pe0 = _lse(np.concatenate(lp0_err))
    log_pe1 = _lse(np.concatenate(lp1_err))
    return _estimate_from_logs(n, log_pe0, log_pe1, "exact")


def exact_error(m: HypothesisModel, strategy: Strategy, n: int) -> ErrorEstimate:
    """Exact error probabilities for any strategy with a product-form transcript."""
    if strategy.kind in ONE_STAGE_KINDS:
        return exact_error_parallel(m, strategy, n)
    if strategy.kind in TWO_STAGE_KINDS:
        return exact_error_daisy(m, strategy, n)
    raise ValueError(
        f"{strategy.kind} adapts each sensor to the realized feedback, so its "
        "transcript has no product form; estimate it with simulate instead"
    )


def _symbol_llr_table(m: HypothesisModel, q: Quantizer) -> np.ndarray:
    """Per observation symbol, the LLR that :func:`induce` gives its message.

    A message with no mass under either hypothesis has no induced atom; the
    symbols mapped to it get LLR 0, and they are never drawn.
    """
    labels = np.asarray(q.map, dtype=np.intp)
    # A canonical map's labels are exactly 0..num_cells - 1.
    kept = np.zeros(q.num_cells, dtype=bool)
    kept[labels[(m.pmf0 > 0.0) | (m.pmf1 > 0.0)]] = True
    msg_llr = np.zeros(q.num_cells)
    # induce keeps exactly these messages, in label order.
    msg_llr[kept] = induce(m, q).llr
    return msg_llr[labels]


def _chunk_trials(n: int) -> int:
    return max(1, min(_MAX_CHUNK_TRIALS, _CHUNK_CELLS // max(1, n)))


def _word_edges(cdf: np.ndarray) -> np.ndarray:
    """Integer thresholds on raw Philox words, one per entry c of
    ``cdf[:-1]`` that a draw can reach: ``w >= e`` exactly when numpy's
    double ``(w >> 11) * 2**-53`` is >= c.

    That double is >= c exactly when the integer ``w >> 11`` is >=
    ceil(c * 2**53), which the scaling by a power of two leaves exact, so
    e is that integer shifted left by 11 bits.  An entry above
    1 - 2**-53, the largest double a word gives, has no edge.
    """
    steps = np.ceil(cdf[:-1] * 2.0**53)
    return steps[steps < 2.0**53].astype(np.uint64) << np.uint64(11)


def _sample_symbols(edges: np.ndarray, words: np.ndarray, out: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Inverse-cdf symbols of the raw words ``words``: how many ``edges``
    (from :func:`_word_edges`) each word reaches, written into ``out``,
    with ``step`` (of the same shape and dtype) as scratch.

    This is ``min(searchsorted(cdf, (w >> 11) * 2**-53, "right"), K - 1)``
    of the cdf the edges came from, so a word whose double is at or past
    ``cdf[-1]`` (a sum rounded below 1) still draws the last symbol.
    """
    out.fill(0)
    for e in edges:
        out += np.greater_equal(words, e, out=step)
    return out


class _Scratch:
    """Flat arrays that one thread of ``simulate`` reuses for every block:
    the symbols and their 0/1 steps in the symbol dtype, an intp index and
    two float arrays.

    A freed array of a block's size can go straight back to the system,
    and touching fresh pages again (about 2-3 us a 4 KiB page on a 2-core
    VM) costs more than the work on them.  So every block writes into the
    same memory; only its raw words are new, since ``random_raw`` takes
    no output array.
    """

    def __init__(self, cells: int, dtype: np.dtype):
        self.obs = np.empty(cells, dtype)
        self.step = np.empty(cells, dtype)
        self.idx = np.empty(cells, np.intp)
        self.vals = np.empty(cells)
        self.aux = np.empty(cells)


def _shaped(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows * cols cells of the flat ``buf``, C-contiguous."""
    return buf[: rows * cols].reshape(rows, cols)


def _gather(table: np.ndarray, index: np.ndarray, s: _Scratch) -> np.ndarray:
    """``table[index]``, written C-contiguous into ``s.vals``.

    The small unsigned ``index`` is copied into ``s.idx`` first: numpy
    would otherwise cast it to a new intp array on every call.  Every index
    is in range, so ``mode="clip"`` moves none of them; it spares numpy the
    buffered bounds check of the default mode.
    """
    idx = _shaped(s.idx, *index.shape)
    np.copyto(idx, index)
    return np.take(table, idx, out=_shaped(s.vals, *index.shape), mode="clip")


def _transcript_llr_fn(m: HypothesisModel, strategy: Strategy, n: int) -> Callable[[np.ndarray, _Scratch], np.ndarray]:
    """Map from sampled observations (one row per trial) to each row's exact
    fusion-center LLR, with the per-symbol tables built once.  The map
    works in a :class:`_Scratch` and may overwrite the observations.

    Where a bit u picks the second message's quantizer, its two LLR tables
    of K entries each are laid end to end, so one gather at the flat index
    ``symbol + K * u`` reads each term.  The observations' unsigned dtype
    must hold that index, 2K - 1.
    """
    kind, t = strategy.kind, strategy.t
    k = m.pmf0.size
    if kind in ONE_STAGE_KINDS:
        joint = _symbol_llr_table(m, strategy.joint)
        return lambda obs, s: _gather(joint, obs, s).sum(axis=1)

    first = _symbol_llr_table(m, strategy.gamma)
    if kind in ADAPTIVE_KINDS:
        joint = np.concatenate(
            [_symbol_llr_table(m, product_quantizer(strategy.gamma, d)) for d in (strategy.delta0, strategy.delta1)]
        )
        # Sensor k reacts to the mean of the k earlier first messages.  For
        # FullFeedback2 an infinite t is a constant bit; scaled by n - 1 = 0
        # it would be NaN.
        prefix_thr = t * np.arange(1, n)
        rest_thr = t * (n - 1) if math.isfinite(t) else t

        def adaptive(obs: np.ndarray, s: _Scratch) -> np.ndarray:
            rows = obs.shape[0]
            llr1 = _gather(first, obs, s)
            if kind == "RestrictedFeedback2":
                obs += (llr1.sum(axis=1, keepdims=True) >= t * n) * obs.dtype.type(k)
            else:
                u = _shaped(s.step, rows, n)
                if kind == "SequentialFeedback2":
                    prefix = np.cumsum(llr1, axis=1, out=_shaped(s.aux, rows, n))
                    # The first sensor has no history and uses delta0.
                    u[:, 0] = 0
                    np.greater_equal(prefix[:, :-1], prefix_thr, out=u[:, 1:])
                else:
                    rest = np.subtract(llr1.sum(axis=1, keepdims=True), llr1, out=_shaped(s.aux, rows, n))
                    np.greater_equal(rest, rest_thr, out=u)
                # The steps become the flat index's offsets K * u.
                u *= obs.dtype.type(k)
                obs += u
            return _gather(joint, obs, s).sum(axis=1)

        return adaptive

    # Two-stage chains: the first n1 columns form the aggregator bit.
    n1, _ = _stage_sizes(n, strategy.r)
    second = np.concatenate([_symbol_llr_table(m, d) for d in (strategy.delta0, strategy.delta1)])
    logit_u = None
    if kind in RESTRICTED_KINDS:
        # The fusion center sees only the bit U from stage one, so its
        # transcript LLR needs the exact log-odds of U at this n.
        im1 = induce(m, strategy.gamma)
        _check_budget(n1, "the aggregator-bit distribution", im1.alphabet_size)
        logit_u = _aggregator_bit(im1, n1, t)[1]

    def two_stage(obs: np.ndarray, s: _Scratch) -> np.ndarray:
        s1 = _gather(first, obs[:, :n1], s).sum(axis=1)
        u = s1 >= t * n1
        obs[:, n1:] += (u * obs.dtype.type(k))[:, None]
        s2 = _gather(second, obs[:, n1:], s).sum(axis=1)
        if logit_u is None:
            return s1 + s2
        # A bool index array would be a mask, so index with its bytes.
        return logit_u[u.view(np.uint8)] + s2

    return two_stage


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
    transcript-LLR fusion rule.  Each chunk's stream is read in order in
    blocks of rows, so memory stays bounded whatever ``num_trials`` is.
    The two hypotheses are drawn on two threads, one each; every chunk's
    stream is fixed by its key, so the result depends neither on the
    blocks nor on the threading.  ``ci`` is the 95 percent normal-theory
    half-width on the averaged error probability.  ``n`` and
    ``num_trials`` must be positive integers and ``seed`` an integer in
    [0, 2**64).
    """
    _check_count("n", n)
    _check_count("num_trials", num_trials)
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    transcript_llr = _transcript_llr_fn(m, strategy, n)
    chunk = _chunk_trials(n)
    block = max(1, _BLOCK_CELLS // n)
    # The smallest unsigned dtype that holds a symbol and the flat index
    # symbol + K * u of the stacked LLR tables.
    dtype = np.min_scalar_type(2 * m.pmf0.size - 1)
    # A uint64 array, so numpy never routes a seed of 2**63 or more through float64.
    key = np.array([seed, 0], dtype=np.uint64)

    def count_errors(j: int) -> int:
        edges = _word_edges(np.cumsum(m.pmf1 if j else m.pmf0))
        s = _Scratch(block * n, dtype)
        errors = 0
        for chunk_idx, done in enumerate(range(0, num_trials, chunk)):
            rows = min(chunk, num_trials - done)
            bitgen = np.random.Philox(key=key, counter=[0, chunk_idx, j, 0])
            # The chunk's stream read in order, a block of rows at a time.
            # Each block's words are freed once sampled, so the allocator
            # hands their memory to the next block's words.
            for start in range(0, rows, block):
                size = min(block, rows - start)
                words = bitgen.random_raw(size * n).reshape(size, n)
                obs = _sample_symbols(edges, words, _shaped(s.obs, size, n), _shaped(s.step, size, n))
                del words
                llr = transcript_llr(obs, s)
                chose1 = int(np.count_nonzero(llr >= strategy.fusion_threshold))
                errors += chose1 if j == 0 else size - chose1
        return errors

    from concurrent.futures import ThreadPoolExecutor

    # Each hypothesis owns its streams and its integer count, and numpy
    # releases the GIL in the draws, compares, gathers and sums, so the two
    # overlap without moving a bit.
    with ThreadPoolExecutor(max_workers=2) as pool:
        errors = list(pool.map(count_errors, (0, 1)))
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
    strategy: Strategy,
    ns: Sequence[int],
    method: str = "exact",
    num_trials: int = 100_000,
    seed: int = 0,
) -> FitResult:
    """Estimate the error exponent of ``strategy`` as the slope of log P_e against n.

    Points whose Monte Carlo estimate saw zero errors are kept in
    ``estimates`` but excluded from the fit.  Every entry of ``ns`` must be
    a positive integer.
    """
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method: {method!r}")
    ns = list(ns)
    for n in ns:
        _check_count("each of ns", n)
    ns = sorted(int(n) for n in ns)
    if len(set(ns)) < 2:
        raise ValueError("need at least two distinct blocklengths to fit a slope")
    estimates = []
    for n in ns:
        if method == "exact":
            estimates.append(exact_error(m, strategy, n))
        else:
            estimates.append(simulate(m, strategy, n, num_trials=num_trials, seed=seed))
    xs = [e.n for e in estimates if e.log_p_e > -math.inf]
    ys = [e.log_p_e for e in estimates if e.log_p_e > -math.inf]
    if len(set(xs)) < 2:
        raise ValueError("fewer than two distinct blocklengths produced a nonzero error estimate")
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
    DegenerateLLR.  A non-integer or nonpositive n raises ValueError.
    """
    _check_count("n", n)
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
    probabilities below the floating-point floor flush to zero mass.  Raises
    ValueError for a strategy outside the parallel-form kinds.
    """
    logp0, logp1, sums = _class_table(_parallel_induced(m, strategy, n, "a parallel transcript"), n)
    return InducedModel(q0=np.exp(logp0), q1=np.exp(logp1), llr=sums)


def llr_distribution_daisy(m: HypothesisModel, strategy: Strategy, n: int) -> InducedModel:
    """Transcript-level LLR atoms seen by the fusion center of a two-stage chain.

    Atoms are (aggregator bit, second-stage type class) pairs with the
    exact mixture probabilities; the LLR entry of each atom includes the
    bit's log-odds, matching what the fusion rule thresholds.
    """
    if strategy.kind not in RESTRICTED_KINDS:
        raise ValueError("transcript atoms with an aggregator bit need a restricted chain")
    n1, n2, im1, ims2 = _two_stage_setup(m, strategy, n, "a two-stage transcript")
    logq0, logq1, llr = _restricted_atoms(im1, ims2, n1, n2, strategy.t)
    return InducedModel(q0=np.exp(logq0), q1=np.exp(logq1), llr=llr)


def strategy_from_report(
    report: ExponentReport,
    t: float | None = None,
    fusion_threshold: float = 0.0,
) -> Strategy:
    """Turn an exponent report's strategy block into a simulatable Strategy.

    The feedback kinds carry no threshold in their reports (their optimum
    is threshold-free); pass ``t`` to choose one, default 0.  A DaisyFull
    report carries the one-message parallel optimum, which the chain
    attains with gamma in both stages; that strategy also needs a stage
    fraction r, which the report does not carry, so this raises ValueError
    for it (build it with ``Strategy.from_dict(report.architecture,
    report.strategy, r)``).  Also raises ValueError when the report's gamma
    is missing or its maps are not integer label lists.
    """
    return Strategy.from_dict(report.architecture, report.strategy, report.r, t, fusion_threshold)
