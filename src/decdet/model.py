"""Finite-alphabet binary hypothesis models and message quantizers.

A model is a pair of probability mass functions over a shared observation
alphabet, one per hypothesis.  Sensors compress observations through
quantizers, deterministic maps into a small message alphabet; the induced
message distributions and their log-likelihood ratios are the raw material
for every exponent computation in this package.

All types are immutable after construction and all operations are pure, so
they can be shared freely across threads or processes.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "HypothesisModel",
    "Quantizer",
    "InducedModel",
    "NotAProbability",
    "SupportMismatch",
    "ShapeMismatch",
    "induce",
    "enumerate_quantizers",
    "identity_quantizer",
    "product_quantizer",
    "split_product_quantizer",
    "likelihood_ratio_reduction",
    "parse_model_text",
    "load_model",
]

PMF_ATOL = 1e-12
# Relative slack used when grouping symbols with equal log-likelihood ratio.
LLR_TIE_RTOL = 1e-12


class NotAProbability(ValueError):
    """A pmf has a negative entry or does not sum to one."""


class SupportMismatch(ValueError):
    """Some symbol has zero mass under exactly one hypothesis."""


class ShapeMismatch(ValueError):
    """Array lengths are inconsistent with the declared alphabet."""


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HypothesisModel:
    """Pair of pmfs (pmf0, pmf1) over a finite observation alphabet.

    Construction is the one check of the invariants.  It raises
    ShapeMismatch unless the pmfs are nonempty, one-dimensional and of equal
    length, NotAProbability when a pmf has non-finite or negative entries or
    does not sum to one within 1e-12, and SupportMismatch when some symbol
    has zero mass under exactly one hypothesis (the two pmfs must be
    mutually absolutely continuous).
    """

    pmf0: np.ndarray
    pmf1: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf0", _frozen_array(self.pmf0))
        object.__setattr__(self, "pmf1", _frozen_array(self.pmf1))
        if self.pmf0.ndim != 1 or self.pmf1.ndim != 1:
            raise ShapeMismatch("pmfs must be one-dimensional")
        if self.pmf0.shape != self.pmf1.shape or self.pmf0.size == 0:
            raise ShapeMismatch("pmf0 and pmf1 must be nonempty and equal length")
        for name, pmf in (("pmf0", self.pmf0), ("pmf1", self.pmf1)):
            if not np.all(np.isfinite(pmf)):
                raise NotAProbability(f"{name} has non-finite entries")
            if np.any(pmf < 0.0):
                raise NotAProbability(f"{name} has negative entries")
            total = float(pmf.sum())
            if abs(total - 1.0) > PMF_ATOL:
                raise NotAProbability(f"{name} sums to {total!r}, not 1")
        mismatch = (self.pmf0 == 0.0) != (self.pmf1 == 0.0)
        if np.any(mismatch):
            raise SupportMismatch(
                f"symbol {int(np.flatnonzero(mismatch)[0])} has zero mass under exactly one hypothesis; "
                "the two distributions must be mutually absolutely continuous"
            )

    @property
    def alphabet_size(self) -> int:
        return int(self.pmf0.size)


def _first_use(labels: Iterable[int]) -> tuple[int, ...]:
    """Labels renumbered in order of first use: a quantizer map's canonical form."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(v, len(relabel)) for v in labels])


@dataclass(frozen=True)
class Quantizer:
    """Deterministic map from observation symbols to message labels.

    Stored in canonical form: labels are renumbered so they appear in first
    use order along the observation alphabet.  Two maps that differ only by
    a relabeling of messages therefore compare equal, which deduplicates the
    search space (error exponents do not depend on labels).
    ``message_alphabet_size`` only bounds the labels; nothing is sized by it.
    """

    map: tuple[int, ...]
    message_alphabet_size: int

    def __post_init__(self) -> None:
        # Integers only, numpy's included: a float label or size such as
        # 1.5 is rejected, not truncated.
        try:
            d = operator.index(self.message_alphabet_size)
            raw = tuple(operator.index(v) for v in self.map)
        except TypeError as exc:
            raise ValueError(
                f"quantizer labels and message alphabet size must be integers, got {self.map!r} "
                f"and {self.message_alphabet_size!r}"
            ) from exc
        if d < 1:
            raise ValueError("message alphabet size must be positive")
        if not raw:
            raise ShapeMismatch("quantizer map must be nonempty")
        if any(v < 0 or v >= d for v in raw):
            raise ValueError("quantizer labels must lie in [0, message_alphabet_size)")
        object.__setattr__(self, "map", _first_use(raw))
        object.__setattr__(self, "message_alphabet_size", d)

    @classmethod
    def from_labels(cls, labels: Iterable[int] | None) -> Quantizer:
        """Canonical quantizer of a label list, sized to its largest label.

        Raises ValueError unless ``labels`` is a nonempty sequence of
        integers; a float label such as 1.5 is rejected, not truncated.
        """
        try:
            vals = tuple(operator.index(v) for v in labels)  # type: ignore[union-attr]
        except TypeError:
            vals = ()
        if not vals:
            raise ValueError(f"quantizer labels must be a nonempty list of integers, got {labels!r}")
        return cls(map=vals, message_alphabet_size=max(vals) + 1)

    @property
    def num_cells(self) -> int:
        return len(set(self.map))


@dataclass(frozen=True, eq=False)
class InducedModel:
    """Message-alphabet model induced by a quantizer, with its LLR vector.

    Messages carrying zero mass under both hypotheses are dropped; a message
    with mass under exactly one hypothesis cannot occur, as every
    :class:`HypothesisModel` checks its support when built.  ``llr[y]`` is
    ``log(q1[y] / q0[y])``, finite for every kept message.

    Transcript models from ``evaluator.llr_distribution_*`` are the
    exception: their atoms carry exact log-domain LLRs, but an atom's mass
    may underflow to zero under both hypotheses.  ``exponents`` gives such
    atoms log weight -inf, so they drop out of every sum.
    """

    q0: np.ndarray
    q1: np.ndarray
    llr: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q0", _frozen_array(self.q0))
        object.__setattr__(self, "q1", _frozen_array(self.q1))
        object.__setattr__(self, "llr", _frozen_array(self.llr))
        if not (self.q0.shape == self.q1.shape == self.llr.shape) or self.q0.size == 0:
            raise ShapeMismatch("q0, q1 and llr must be nonempty and equal length")

    @property
    def alphabet_size(self) -> int:
        return int(self.q0.size)

    def llr_mean(self, j: int) -> float:
        """E_j[Z], the mean log-likelihood ratio under hypothesis j."""
        q = self.q1 if j == 1 else self.q0
        return float(q @ self.llr)

    def llr_support(self) -> tuple[float, float]:
        return float(self.llr.min()), float(self.llr.max())

    @cached_property
    def _solver_constants(self) -> list:
        # exponents' conjugate-solver constants per hypothesis, each built
        # there on first use; they live and die with the model.
        return [None, None]


def induce(m: HypothesisModel, q: Quantizer) -> InducedModel:
    """Induced message model: sums pmf mass per message and takes LLRs."""
    if len(q.map) != m.alphabet_size:
        raise ShapeMismatch(
            f"quantizer maps {len(q.map)} symbols but the model has {m.alphabet_size}"
        )
    # A canonical map's labels are exactly 0..num_cells - 1.
    labels = np.asarray(q.map, dtype=np.intp)
    q0 = np.bincount(labels, weights=m.pmf0)
    q1 = np.bincount(labels, weights=m.pmf1)
    keep = (q0 > 0.0) | (q1 > 0.0)
    q0, q1 = q0[keep], q1[keep]
    llr = np.log(q1) - np.log(q0)
    return InducedModel(q0=q0, q1=q1, llr=llr)


def identity_quantizer(m: HypothesisModel) -> Quantizer:
    """The finest quantizer: one message per observation symbol."""
    k = m.alphabet_size
    return Quantizer(map=tuple(range(k)), message_alphabet_size=k)


def product_quantizer(gamma: Quantizer, delta: Quantizer) -> Quantizer:
    """Joint quantizer sending x to the pair (gamma(x), delta(x)).

    The pair is packed as ``gamma(x) * d + delta(x)``; use
    :func:`split_product_quantizer` to recover the two components.
    """
    if len(gamma.map) != len(delta.map):
        raise ShapeMismatch("component quantizers must share the observation alphabet")
    d = delta.message_alphabet_size
    joint = tuple(g * d + z for g, z in zip(gamma.map, delta.map))
    return Quantizer(map=joint, message_alphabet_size=gamma.message_alphabet_size * d)


def split_product_quantizer(joint: Quantizer, d_second: int) -> tuple[Quantizer, Quantizer]:
    """Split a packed pair map into its two component quantizers.

    Any map into at most ``d_first * d_second`` labels is realizable as a
    pair of maps into ``d_first`` and ``d_second`` labels, so this is the
    inverse used when a pair search is run over one joint alphabet.
    """
    first = tuple(v // d_second for v in joint.map)
    second = tuple(v % d_second for v in joint.map)
    d_first = max(1, -(-joint.message_alphabet_size // d_second))
    return (
        Quantizer(map=first, message_alphabet_size=d_first),
        Quantizer(map=second, message_alphabet_size=d_second),
    )


def _all_canonical_maps(k: int, d: int) -> list[Quantizer]:
    # Restricted-growth strings with at most d labels, grown one symbol at a
    # time: each map reuses a label or opens the next, in lexicographic order.
    maps = [(0,)]
    for _ in range(k - 1):
        maps = [q + (lab,) for q in maps for lab in range(min(max(q) + 2, d))]
    return [Quantizer(map=t, message_alphabet_size=d) for t in maps]


def _llr_tie_groups(m: HypothesisModel) -> list[list[int]]:
    # Group symbols by equal LLR after sorting.  A zero-mass symbol takes LLR
    # 0 and joins a massed symbol whose LLR is within tolerance of 0: pmf0
    # (0.5, 0, 0.2, 0.3), pmf1 (0.2, 0, 0.2, 0.6) give [[0], [1, 2], [3]].
    log1 = np.log(m.pmf1, out=np.zeros_like(m.pmf1), where=m.pmf1 > 0)
    log0 = np.log(m.pmf0, out=np.zeros_like(m.pmf0), where=m.pmf0 > 0)
    llr = np.where((m.pmf0 > 0.0) & (m.pmf1 > 0.0), log1 - log0, 0.0)
    order = sorted(range(m.alphabet_size), key=lambda x: (llr[x], x))
    groups: list[list[int]] = []
    for x in order:
        if groups:
            ref = llr[groups[-1][0]]
            tol = LLR_TIE_RTOL * max(1.0, abs(ref))
            if abs(llr[x] - ref) <= tol:
                groups[-1].append(x)
                continue
        groups.append([x])
    return groups


def _monotone_maps(m: HypothesisModel, d: int) -> list[Quantizer]:
    # Each choice of min(d, K) - 1 cuts labels the LLR-sorted order.  The map
    # then grows one sorted symbol at a time, each taking a label still left
    # in its tie group's run, so tied symbols take their run in every order:
    # either placement of a tied symbol can be optimal.  Coarser interval
    # rules are omitted: each is a function of a finer one.  A label whose
    # cell lies inside one tie group (an inner label) is interchangeable
    # with the group's other inner labels, across cut choices too, so the
    # inner labels are taken in first-use order: each map is grown once.
    groups = _llr_tie_groups(m)
    k = m.alphabet_size
    tie_spans = [(end - len(g), end) for g, end in zip(groups, accumulate(map(len, groups))) for _ in g]
    out: set[tuple[int, ...]] = set()
    for cuts in combinations(range(1, k), min(d, k) - 1):
        along = tuple(sum(i >= c for c in cuts) for i in range(k))
        grown = [()]
        for a, b in tie_spans:
            run = along[a:b]
            # The group's inner labels, from the first to the last.
            first = run[0] + (a > 0 and along[a - 1] == run[0])
            last = run[-1] - (b < k and along[b] == run[-1])
            grown = [
                p + (v,)
                for p in grown
                for v in range(run[0], run[-1] + 1)
                if p[a:].count(v) < run.count(v) and (v <= first or v > last or v - 1 in p[a:])
            ]
        for labels in grown:
            by_symbol = tuple(lab for _, lab in sorted(zip(chain(*groups), labels)))
            out.add(_first_use(by_symbol))
    return [Quantizer(map=t, message_alphabet_size=d) for t in sorted(out)]


def _check_message_size(d) -> None:
    """Raise ValueError unless the message alphabet size d is an integer >= 2."""
    if not isinstance(d, numbers.Integral) or d < 2:
        raise ValueError(f"message alphabet size d must be an integer of at least 2, got {d!r}")


def enumerate_quantizers(m: HypothesisModel, d: int, mode: str = "llr_monotone") -> list[Quantizer]:
    """Enumerate candidate quantizers into d messages, sorted by map.

    mode "llr_monotone", the default, yields the interval rules on the
    LLR-sorted alphabet: min(d, K) - 1 cuts give exactly min(d, K) cells,
    and tied symbols take their run of labels in every order; without ties
    there are C(K - 1, min(d, K) - 1).  They attain every exponent optimum
    here.  mode "all", the exhaustive cross-check, yields every canonical
    map into at most d labels: the sum over j <= min(d, K) of the Stirling
    numbers S(K, j), 9,842 at K = 10, d = 3.  Raises ValueError unless d
    is an integer of at least 2.
    """
    _check_message_size(d)
    if mode == "all":
        return _all_canonical_maps(m.alphabet_size, d)
    if mode == "llr_monotone":
        return _monotone_maps(m, d)
    raise ValueError(f"unknown enumeration mode: {mode!r}")


def parse_model_text(text: str) -> tuple[HypothesisModel, int]:
    """Parse the plain-text model format.

    Line 1: ``K D`` (alphabet size and default message alphabet size).
    Line 2: K whitespace-separated pmf entries for hypothesis 0.
    Line 3: the same for hypothesis 1.  Blank lines are skipped; any
    other line after these raises ValueError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 3:
        raise ValueError(f"model text needs a header line and two pmf lines, got {len(lines)} lines")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be two integers: alphabet size and message size")
    try:
        k, d = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    rows = []
    for ln in lines[1:3]:
        try:
            row = [float(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"bad pmf line {ln!r}") from exc
        if len(row) != k:
            raise ValueError(f"expected {k} entries per pmf line, got {len(row)}")
        rows.append(row)
    return HypothesisModel(pmf0=rows[0], pmf1=rows[1]), d


def load_model(path: str | Path) -> tuple[HypothesisModel, int]:
    """Read and validate a model file, returning (model, message size)."""
    return parse_model_text(Path(path).read_text(encoding="utf-8"))


def likelihood_ratio_reduction(m: HypothesisModel) -> InducedModel:
    """Induced model of the identity quantizer: per-symbol LLR atoms."""
    return induce(m, identity_quantizer(m))
