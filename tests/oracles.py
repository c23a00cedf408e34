"""Brute-force reference implementations, kept deliberately naive.

The exact-error oracle enumerates raw observation tuples and runs the
signalling protocol literally, so it shares no arithmetic shortcuts (type
classes, per-sensor factorization, log-domain tricks) with the library
code it checks.  Exponential cost caps it at small n and alphabets.

The class-table oracle is the exact evaluator's computation before it
folded the last two message counts into binomial tails: it sums every type
class of the full table.  It reuses the table that DaisyFull and the
``llr_distribution_*`` functions still build, and nothing of the fold.
That table itself meets its first form here: compositions from the
recursive builder, a log-gamma per count, and int64 count products.

The Monte Carlo oracle is the simulator's original one-thread chunk loop.
It must match ``simulate`` bit for bit, so it keeps the library's streams,
chunk layout and aggregator-bit log-odds, and redoes the rest the slow way.

The dense staged oracle sweeps both staged objectives over a uniform
threshold grid of every first-stage candidate's LLR support, restating the
formulas of the ``architectures`` module docstring on arrays.  It shares
none of the staged search's refinement (golden sections, crossing
bisections, point memo) and no private helper of that module.

The conjugate oracle solves L'(s) = t in the stdlib ``decimal`` module at
60 significant digits and takes s t - L(s) there, so rounding in the
double-precision solver cannot reach it.

The quantizer oracle canonicalizes every one of the d**K label tuples and
keeps, for the interval mode, those whose cells form one run each along
some LLR-sorted order of the symbols; it reads only the tie groups from
``model``.
"""
from __future__ import annotations

import decimal
import functools
import itertools
import math

import numpy as np
from scipy.special import gammaln

from decdet import (
    ErrorEstimate,
    HypothesisModel,
    InducedModel,
    Quantizer,
    Strategy,
    enumerate_quantizers,
    induce,
    product_quantizer,
    rate_function_grid,
)
from decdet.evaluator import (
    _aggregator_bit,
    _chunk_trials,
    _class_table,
    _estimate_from_logs,
    _first_stage_split,
    _lse,
)
from decdet.model import _llr_tie_groups


def _cell_llr(m: HypothesisModel, qmap: tuple[int, ...], d: int) -> list[float]:
    a0 = [0.0] * d
    a1 = [0.0] * d
    for sym, lab in enumerate(qmap):
        a0[lab] += float(m.pmf0[sym])
        a1[lab] += float(m.pmf1[sym])
    out = []
    for w0, w1 in zip(a0, a1):
        if w0 > 0.0 and w1 > 0.0:
            out.append(math.log(w1 / w0))
        elif w1 > 0.0:
            out.append(math.inf)
        else:
            out.append(-math.inf)  # unreachable cells never get selected
    return out


def _transcript(m: HypothesisModel, st: Strategy, n: int, xs: tuple[int, ...]):
    """Run the protocol on one observation tuple; return what fusion sees."""
    g = st.gamma.map
    kind = st.kind
    if kind in ("Parallel1", "OneMsgSequential"):
        return tuple(g[x] for x in xs)
    if kind == "Parallel2":
        d0 = st.delta0.map
        return tuple((g[x], d0[x]) for x in xs)

    zs = _cell_llr(m, g, st.gamma.num_cells)
    if kind in ("DaisyRestricted", "Tree", "DaisyFull"):
        n1 = int(round(st.r * n))
        firsts = tuple(g[x] for x in xs[:n1])
        s1 = sum(zs[a] for a in firsts)
        u = 1 if s1 >= st.t * n1 else 0
        dsel = (st.delta1 if u else st.delta0).map
        seconds = tuple(dsel[x] for x in xs[n1:])
        if kind == "DaisyFull":
            return (firsts, seconds)
        return (u, seconds)

    # Two-message feedback kinds: every sensor sends gamma(x) then, after the
    # broadcast bit u_k determined by first messages, delta_{u_k}(x).
    firsts = [g[x] for x in xs]
    z = [zs[a] for a in firsts]
    total = sum(z)
    t = st.t
    if kind == "SequentialFeedback2":
        us = []
        run = 0.0
        for k in range(n):
            us.append(0 if k == 0 else int(run >= t * k))
            run += z[k]
    elif kind == "FullFeedback2":
        # With no other sensor the empty mean reaches every t below +inf.
        us = [int((total - z[k]) >= t * (n - 1)) if n > 1 else int(t < math.inf) for k in range(n)]
    elif kind == "RestrictedFeedback2":
        u = int(total >= t * n)
        us = [u] * n
    else:
        raise ValueError(kind)
    seconds = [(st.delta1 if us[k] else st.delta0).map[xs[k]] for k in range(n)]
    return tuple(zip(firsts, seconds))


def brute_force_error(m: HypothesisModel, st: Strategy, n: int) -> tuple[float, float, float]:
    """Exact (p_e0, p_e1, p_e) by enumerating all |alphabet|^n observation
    tuples.  Fusion thresholds the exact transcript log-odds, ties to 1."""
    p0 = [float(v) for v in m.pmf0]
    p1 = [float(v) for v in m.pmf1]
    k = len(p0)
    acc: dict[object, list[float]] = {}
    for xs in itertools.product(range(k), repeat=n):
        w0 = math.prod(p0[x] for x in xs)
        w1 = math.prod(p1[x] for x in xs)
        if w0 == 0.0 and w1 == 0.0:
            continue
        cell = acc.setdefault(_transcript(m, st, n, xs), [0.0, 0.0])
        cell[0] += w0
        cell[1] += w1
    thr = st.fusion_threshold
    pe0 = 0.0
    pe1 = 0.0
    for w0, w1 in acc.values():
        if w1 > 0.0 and (w0 == 0.0 or math.log(w1 / w0) >= thr):
            pe0 += w0
        else:
            pe1 += w1
    return pe0, pe1, 0.5 * (pe0 + pe1)


def compositions(n: int, k: int) -> np.ndarray:
    """All nonnegative k-part compositions of n, one row each: one block per
    leading count, each the compositions of the rest into k - 1 parts.

    Sub-tables are memoised within one call, which changes no row and
    keeps n = 40 at k = 6 quick.
    """

    @functools.cache
    def build(n: int, k: int) -> np.ndarray:
        if k == 1:
            return np.array([[n]], dtype=np.int64)
        if k == 2:
            first = np.arange(n + 1, dtype=np.int64)
            return np.stack([first, n - first], axis=1)
        blocks = []
        for c0 in range(n + 1):
            rest = build(n - c0, k - 1)
            first = np.full((rest.shape[0], 1), c0, dtype=np.int64)
            blocks.append(np.hstack([first, rest]))
        return np.vstack(blocks)

    return build(n, k)


def class_table(im: InducedModel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(logp0, logp1, llr_sum) over all type classes at n, by the formula
    the evaluator's class table started from."""
    counts = compositions(n, im.alphabet_size)
    logcoef = gammaln(n + 1) - gammaln(counts + 1.0).sum(axis=1)
    return logcoef + counts @ np.log(im.q0), logcoef + counts @ np.log(im.q1), counts @ im.llr


def class_table_error(m: HypothesisModel, st: Strategy, n: int) -> ErrorEstimate:
    """Exact error of a parallel strategy or a restricted chain (DaisyRestricted,
    Tree) by summing every class of the full type-class table.

    A value of the aggregator bit that every first-stage class takes has
    probability 1.  The table's sum of all class masses rounds to 1 only
    within a few ulps, and that noise in the bit's log-odds would decide
    ties at the fusion threshold, so such a bit counts as certain here, as
    it does in the evaluator.
    """
    thr = st.fusion_threshold
    if st.kind in ("Parallel1", "OneMsgSequential", "Parallel2"):
        logp0, logp1, llr = _class_table(induce(m, st.joint), n)
    else:
        n1 = int(round(st.r * n))
        seconds = (induce(m, st.delta0), induce(m, st.delta1))
        split = _first_stage_split(induce(m, st.gamma), n1, st.t)
        parts = []
        for u, (lp0, lp1, _) in split:
            lu0, lu1 = (_lse(lp0), _lse(lp1)) if len(split) == 2 else (0.0, 0.0)
            logp0_2, logp1_2, sums2 = _class_table(seconds[u], n - n1)
            parts.append((lu0 + logp0_2, lu1 + logp1_2, (lu1 - lu0) + sums2))
        logp0, logp1, llr = (np.concatenate(col) for col in zip(*parts))
    decide1 = llr >= thr
    return _estimate_from_logs(n, _lse(logp0[decide1]), _lse(logp1[~decide1]), "exact")


def _symbol_llr_table(m: HypothesisModel, q) -> np.ndarray:
    labels = np.asarray(q.map, dtype=np.intp)
    q0 = np.bincount(labels, weights=m.pmf0, minlength=q.message_alphabet_size)
    q1 = np.bincount(labels, weights=m.pmf1, minlength=q.message_alphabet_size)
    pos = (q0 > 0.0) & (q1 > 0.0)
    msg_llr = np.zeros(q.message_alphabet_size)
    msg_llr[pos] = np.log(q1[pos]) - np.log(q0[pos])
    return msg_llr[labels]


def _transcript_llr(m: HypothesisModel, st: Strategy, n: int, obs: np.ndarray) -> np.ndarray:
    kind, t = st.kind, st.t
    if kind in ("Parallel1", "OneMsgSequential"):
        return _symbol_llr_table(m, st.gamma)[obs].sum(axis=1)
    if kind == "Parallel2":
        return _symbol_llr_table(m, product_quantizer(st.gamma, st.delta0))[obs].sum(axis=1)
    first = _symbol_llr_table(m, st.gamma)
    if kind in ("DaisyRestricted", "Tree", "DaisyFull"):
        n1 = int(round(st.r * n))
        s1 = first[obs[:, :n1]].sum(axis=1)
        u = s1 >= t * n1
        second0 = _symbol_llr_table(m, st.delta0)[obs[:, n1:]]
        second1 = _symbol_llr_table(m, st.delta1)[obs[:, n1:]]
        s2 = np.where(u[:, None], second1, second0).sum(axis=1)
        if kind == "DaisyFull":
            return s1 + s2
        logit_u = _aggregator_bit(induce(m, st.gamma), n1, t)[1]
        return np.where(u, logit_u[1], logit_u[0]) + s2
    llr1 = first[obs]
    if kind == "SequentialFeedback2":
        prefix = np.cumsum(llr1, axis=1)
        u = np.zeros(obs.shape, dtype=bool)
        u[:, 1:] = prefix[:, :-1] >= t * np.arange(1, n)
    elif kind == "FullFeedback2":
        total = llr1.sum(axis=1, keepdims=True)
        u = (total - llr1) >= t * (n - 1) if n > 1 else np.full(obs.shape, t < math.inf)
    else:
        total = llr1.sum(axis=1, keepdims=True)
        u = np.broadcast_to(total >= t * n, obs.shape)
    joint0 = _symbol_llr_table(m, product_quantizer(st.gamma, st.delta0))
    joint1 = _symbol_llr_table(m, product_quantizer(st.gamma, st.delta1))
    return np.where(u, joint1[obs], joint0[obs]).sum(axis=1)


def sequential_simulate(
    m: HypothesisModel, st: Strategy, n: int, num_trials: int, seed: int
) -> tuple[float, float]:
    """(p_e0, p_e1) of ``simulate`` by a one-thread chunk loop.

    Same counter-keyed streams and chunk layout as the library, but symbols
    come from ``searchsorted`` on the cdf and each selected LLR from two
    full gathers and ``np.where``, with the message LLRs recomputed here.
    """
    chunk = _chunk_trials(n)
    errors = [0, 0]
    for j, pmf in ((0, m.pmf0), (1, m.pmf1)):
        cdf = np.cumsum(pmf)
        done = chunk_idx = 0
        while done < num_trials:
            rows = min(chunk, num_trials - done)
            bitgen = np.random.Philox(key=[seed, 0], counter=[0, chunk_idx, j, 0])
            u = np.random.Generator(bitgen).random((rows, n))
            obs = np.minimum(np.searchsorted(cdf, u, side="right"), pmf.size - 1)
            decide1 = _transcript_llr(m, st, n, obs) >= st.fusion_threshold
            errors[j] += int(decide1.sum()) if j == 0 else int((~decide1).sum())
            done += rows
            chunk_idx += 1
    return errors[0] / num_trials, errors[1] / num_trials


_DEC = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def decimal_conjugate(im: InducedModel, j: int, t: float) -> float:
    """R_j(t) = sup_s {s t - L_j(s)} to about 50 digits, for t inside the
    massed support of hypothesis j.

    Every float input is taken exactly.  A Newton iteration on the log-odds
    phi(s) = ln(L'(s) - zmin) - ln(zmax - L'(s)), with phi' = L'' W / (u v)
    from the tilted mean and variance, runs inside a bracket on s that it
    bisects (or widens) whenever a step would leave it.
    """
    with decimal.localcontext(_DEC):
        D = decimal.Decimal
        q = im.q1 if j == 1 else im.q0
        atoms = [(D(float(z)), D(float(p)).ln()) for z, p in zip(im.llr, q) if p > 0.0]
        zmin, zmax = min(z for z, _ in atoms), max(z for z, _ in atoms)
        tt = D(float(t))
        if not zmin < tt < zmax:
            raise ValueError("t must lie strictly inside the massed support")
        width = zmax - zmin
        target = (tt - zmin).ln() - (zmax - tt).ln()

        def tilt(s):
            a = [lq + s * z for z, lq in atoms]
            amax = max(a)
            w = [(x - amax).exp() for x in a]
            tot = sum(w)
            mean = sum(wi * z for wi, (z, _) in zip(w, atoms)) / tot
            var = sum(wi * (z - mean) ** 2 for wi, (z, _) in zip(w, atoms)) / tot
            return amax + tot.ln(), mean, var

        s, lo, hi = D(0), None, None
        for _ in range(2000):
            _, mean, var = tilt(s)
            u, v = mean - zmin, zmax - mean
            if u > 0 and v > 0:
                f = u.ln() - v.ln() - target
                step = f / (var * width / (u * v)) if var > 0 else None
            else:
                f, step = (D(1) if u > 0 else D(-1)), None
            if f > 0:
                hi = s
            else:
                lo = s
            if step is not None and abs(step) <= D("1e-45") * max(D(1), abs(s)):
                break
            s_new = None if step is None else s - step
            if s_new is None or (lo is not None and s_new <= lo) or (hi is not None and s_new >= hi):
                if hi is None:
                    s_new = lo + max(D(1), abs(lo))
                elif lo is None:
                    s_new = hi - max(D(1), abs(hi))
                else:
                    s_new = (lo + hi) / 2
            s = s_new
        else:
            raise RuntimeError("decimal conjugate did not converge")
        val, _, _ = tilt(s)
        return float(s * tt - val)


def dense_staged_sup(m: HypothesisModel, r: float, d: int, mode: str, points: int) -> tuple[float, float]:
    """Sup of the DaisyRestricted and Tree objectives over every first-stage
    quantizer gamma and ``points`` evenly spaced t on gamma's closed LLR
    support, with the second-stage quantizers chosen per t.  The staged
    search's reported exponent of each kind is minus a value at least this."""
    ims = [induce(m, q) for q in enumerate_quantizers(m, d, mode)]

    def branch(im: InducedModel, a, e_same, e_cross):
        # min of the branch's two error flows: its H0 miss and its H1 miss.
        up = np.where(a >= im.llr_mean(0), rate_function_grid(im, 0, a), 0.0)
        down = np.where(a <= im.llr_mean(1), rate_function_grid(im, 1, a), 0.0)
        return np.minimum(r * e_same + (1 - r) * up, r * e_cross + (1 - r) * down)

    daisy = tree = -math.inf
    for g in ims:
        ts = np.linspace(*g.llr_support(), points)
        l0, l1 = rate_function_grid(g, 0, ts), rate_function_grid(g, 1, ts)
        below0, below1 = ts < g.llr_mean(0), ts <= g.llr_mean(1)
        e01, e00 = np.where(below0, 0.0, l0), np.where(below0, l0, 0.0)
        e10, e11 = np.where(below1, l1, 0.0), np.where(below1, 0.0, l1)
        a0, a1 = r / (1 - r) * (e10 - e00), -r / (1 - r) * (e01 - e11)
        bv0 = np.array([branch(im, a0, e00, e10) for im in ims])
        bv1 = np.array([branch(im, a1, e01, e11) for im in ims])
        daisy = max(daisy, float(np.minimum(bv0.max(axis=0), bv1.max(axis=0)).max()))
        tree = max(tree, float(np.minimum(bv0, bv1).max(axis=0).max()))
    return daisy, tree


def brute_force_quantizers(m: HypothesisModel, d: int, mode: str) -> list[Quantizer]:
    """``enumerate_quantizers(m, d, mode)`` by exhaustion over d**K tuples.

    "all" keeps every canonical map.  "llr_monotone" keeps the maps with
    exactly min(d, K) cells whose labels form one run per label along the
    LLR-sorted order, for some order of the symbols inside each tie group.
    """
    k = m.alphabet_size
    maps = {Quantizer(map=t, message_alphabet_size=d).map for t in itertools.product(range(d), repeat=k)}
    if mode == "llr_monotone":
        orders = [
            [x for perm in perms for x in perm]
            for perms in itertools.product(*(itertools.permutations(g) for g in _llr_tie_groups(m)))
        ]

        def interval(t: tuple[int, ...]) -> bool:
            runs = (len(list(itertools.groupby(t[x] for x in order))) for order in orders)
            return len(set(t)) == min(d, k) and any(n == len(set(t)) for n in runs)

        maps = {t for t in maps if interval(t)}
    return [Quantizer(map=t, message_alphabet_size=d) for t in sorted(maps)]
