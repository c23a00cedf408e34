"""Shared fixtures and the random-model factory used across the suite."""
from __future__ import annotations

import numpy as np
import pytest

from decdet import HypothesisModel, architectures


def random_model(
    rng: np.random.Generator,
    k: int = 3,
    floor: float = 5e-3,
    min_tv: float = 1e-2,
) -> HypothesisModel:
    """Draw a non-degenerate model: every symbol keeps mass >= floor under
    both hypotheses and the total variation distance stays >= min_tv."""
    while True:
        p0 = rng.dirichlet(np.ones(k))
        p1 = rng.dirichlet(np.ones(k))
        if min(p0.min(), p1.min()) < floor:
            continue
        if 0.5 * float(np.abs(p0 - p1).sum()) < min_tv:
            continue
        return HypothesisModel(pmf0=p0, pmf1=p1)


def near_tied_models() -> list[HypothesisModel]:
    """220 seeded near-tied models: K 2-5, and each pmf1 a relative
    perturbation of its pmf0 of size 1e-6 down to 1e-16, so the LLR atoms
    sit from about 1e-6 down to rounding noise about 0."""
    rng = np.random.default_rng(2011)
    out = []
    for k in (2, 3, 4, 5):
        for e in range(6, 17):
            for _ in range(5):
                p0 = rng.dirichlet(np.ones(k))
                p1 = p0 * (1.0 + 10.0**-e * rng.standard_normal(k))
                out.append(HypothesisModel(pmf0=p0, pmf1=p1 / p1.sum()))
    return out


def edit_staged_reports(monkeypatch, edit) -> None:
    """Make every staged call read ``edit(daisy, tree)`` in place of the two
    cached staged reports: the public searches, ``check_ordering`` and
    ``check_symmetric_rate_condition`` all read those reports."""
    search = architectures._search_staged
    monkeypatch.setattr(architectures, "_search_staged", lambda m, r, d, mode: edit(*search(m, r, d, mode)))


@pytest.fixture
def table_model() -> HypothesisModel:
    # Ternary reference model, strongly skewed both ways.
    return HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))


@pytest.fixture
def coin_model() -> HypothesisModel:
    return HypothesisModel(pmf0=(0.75, 0.25), pmf1=(0.25, 0.75))
