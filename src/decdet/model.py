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

import operator
from dataclasses import dataclass
from itertools import product
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
    "validate_model",
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

    Invariants (enforced by :func:`validate_model`): each pmf sums to one,
    entries are nonnegative, and a symbol has zero mass under one hypothesis
    iff it has zero mass under the other (mutual absolute continuity).
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

    @property
    def alphabet_size(self) -> int:
        return int(self.pmf0.size)


@dataclass(frozen=True)
class Quantizer:
    """Deterministic map from observation symbols to message labels.

    Stored in canonical form: labels are renumbered so they appear in first
    use order along the observation alphabet.  Two maps that differ only by
    a relabeling of messages therefore compare equal, which deduplicates the
    search space (error exponents do not depend on labels).
    """

    map: tuple[int, ...]
    message_alphabet_size: int

    def __post_init__(self) -> None:
        d = int(self.message_alphabet_size)
        if d < 1:
            raise ValueError("message alphabet size must be positive")
        raw = tuple(int(v) for v in self.map)
        if not raw:
            raise ShapeMismatch("quantizer map must be nonempty")
        if any(v < 0 or v >= d for v in raw):
            raise ValueError("quantizer labels must lie in [0, message_alphabet_size)")
        relabel: dict[int, int] = {}
        for v in raw:
            if v not in relabel:
                relabel[v] = len(relabel)
        object.__setattr__(self, "map", tuple(relabel[v] for v in raw))
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
    with mass under exactly one hypothesis cannot occur for a validated
    model, and :func:`induce` raises SupportMismatch on one.  ``llr[y]`` is
    ``log(q1[y] / q0[y])`` and every kept entry is finite.

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


def validate_model(m: HypothesisModel) -> HypothesisModel:
    """Check the model invariants and return the model unchanged.

    Raises NotAProbability when a pmf has negative entries or does not sum
    to one within 1e-12, and SupportMismatch when some symbol has zero mass
    under exactly one hypothesis.
    """
    for name, pmf in (("pmf0", m.pmf0), ("pmf1", m.pmf1)):
        if not np.all(np.isfinite(pmf)):
            raise NotAProbability(f"{name} has non-finite entries")
        if np.any(pmf < 0.0):
            raise NotAProbability(f"{name} has negative entries")
        total = float(pmf.sum())
        if abs(total - 1.0) > PMF_ATOL:
            raise NotAProbability(f"{name} sums to {total!r}, not 1")
    zero0 = m.pmf0 == 0.0
    zero1 = m.pmf1 == 0.0
    if np.any(zero0 != zero1):
        bad = int(np.flatnonzero(zero0 != zero1)[0])
        raise SupportMismatch(
            f"symbol {bad} has zero mass under exactly one hypothesis; "
            "the two distributions must be mutually absolutely continuous"
        )
    return m


def induce(m: HypothesisModel, q: Quantizer) -> InducedModel:
    """Induced message model: sums pmf mass per message and takes LLRs."""
    if len(q.map) != m.alphabet_size:
        raise ShapeMismatch(
            f"quantizer maps {len(q.map)} symbols but the model has {m.alphabet_size}"
        )
    labels = np.asarray(q.map, dtype=np.intp)
    q0 = np.bincount(labels, weights=m.pmf0, minlength=q.message_alphabet_size)
    q1 = np.bincount(labels, weights=m.pmf1, minlength=q.message_alphabet_size)
    keep = (q0 > 0.0) | (q1 > 0.0)
    q0, q1 = q0[keep], q1[keep]
    # One-sided zeros are impossible once the model passed validate_model.
    if np.any((q0 == 0.0) != (q1 == 0.0)):
        raise SupportMismatch("a message has zero mass under exactly one hypothesis")
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


def _all_canonical_maps(k: int, d: int):
    # Restricted-growth strings with at most d distinct labels: each position
    # may reuse an existing label or open the next one.  Yields every
    # canonical map exactly once, in lexicographic order.
    prefix = [0] * k

    def rec(i: int, used: int):
        if i == k:
            yield tuple(prefix)
            return
        top = min(used + 1, d)
        for lab in range(top):
            prefix[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1) if k > 1 else iter([(0,)])


def _llr_tie_groups(m: HypothesisModel) -> list[list[int]]:
    # Group symbols by equal LLR after sorting; zero-mass symbols keep the
    # spot their (0/0) ratio would occupy and are placed in their own group.
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


def _monotone_maps(m: HypothesisModel, d: int):
    # Interval rules on the LLR-sorted alphabet with exactly min(d, K)
    # nonempty cells.  Coarser interval rules are omitted: any of them is a
    # function of a finer one, so it can never do strictly better in the
    # exponent searches this feeds.  Within a tie group, every assignment of
    # members to the cells spanning the group is enumerated, because either
    # placement of a tied symbol can be optimal.
    groups = _llr_tie_groups(m)
    k = m.alphabet_size
    cells = min(d, k)
    out: set[tuple[int, ...]] = set()
    labels = [0] * k

    def rec(gi: int, used: int):
        if gi == len(groups):
            if used == cells:
                out.add(Quantizer(map=tuple(labels), message_alphabet_size=d).map)
            return
        group = groups[gi]
        lo = max(used - 1, 0)
        remaining = sum(len(g) for g in groups[gi + 1 :])
        for assign in product(range(lo, cells), repeat=len(group)):
            top = max(assign)
            # Cells must grow contiguously along the sorted order: a group
            # may extend the last open cell or open new ones, skipping none.
            if top >= used and not set(assign).issuperset(range(used, top + 1)):
                continue
            new_used = max(used, top + 1)
            if cells - new_used > remaining:
                continue
            for x, lab in zip(group, assign):
                labels[x] = lab
            rec(gi + 1, new_used)

    rec(0, 0)
    return [Quantizer(map=t, message_alphabet_size=d) for t in sorted(out)]


def enumerate_quantizers(m: HypothesisModel, d: int, mode: str = "llr_monotone") -> list[Quantizer]:
    """Enumerate candidate quantizers into d messages, sorted by map.

    mode "all" yields every canonical map with at most d distinct labels
    (d**K maps before deduplication).  mode "llr_monotone" yields threshold
    rules on the sorted per-symbol likelihood ratios, with both placements
    of tied symbols enumerated; this is the default search space because
    threshold rules attain the optima of every exponent objective here,
    while "all" serves as the exhaustive cross-check.
    """
    if d < 2:
        raise ValueError("message alphabet size must be at least 2")
    if mode == "all":
        qs = [
            Quantizer(map=t, message_alphabet_size=d)
            for t in _all_canonical_maps(m.alphabet_size, d)
        ]
        return sorted(qs, key=lambda q: q.map)
    if mode == "llr_monotone":
        return _monotone_maps(m, d)
    raise ValueError(f"unknown enumeration mode: {mode!r}")


def parse_model_text(text: str) -> tuple[HypothesisModel, int]:
    """Parse the plain-text model format.

    Line 1: ``K D`` (alphabet size and default message alphabet size).
    Line 2: K whitespace-separated pmf entries for hypothesis 0.
    Line 3: the same for hypothesis 1.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError("model text needs a header line and two pmf lines")
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
    model = validate_model(HypothesisModel(pmf0=rows[0], pmf1=rows[1]))
    return model, d


def load_model(path: str | Path) -> tuple[HypothesisModel, int]:
    """Read and validate a model file, returning (model, message size)."""
    return parse_model_text(Path(path).read_text(encoding="utf-8"))


def likelihood_ratio_reduction(m: HypothesisModel) -> InducedModel:
    """Induced model of the identity quantizer: per-symbol LLR atoms."""
    return induce(validate_model(m), identity_quantizer(m))
