"""The quarter-exponential lower bound against exact error probabilities.

No fusion rule can push both error probabilities below
(1/4) exp(n L(s*) - sqrt(2 n L''(s*))) where s* flattens the log-moment
generating function of the transcript llr.  The demo shows the bound
tracking the exact max error from below, for the parallel network and for
the two-stage chain, then sweeps random models to show zero violations.
"""
from __future__ import annotations

import math

import numpy as np

from decdet import (
    HypothesisModel,
    Quantizer,
    Strategy,
    exact_error,
    exact_error_parallel,
    exponent_daisy_restricted,
    induce,
    llr_distribution_daisy,
    sgb_lower_bound,
    simulate,
    strategy_from_report,
)

m = HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))
gamma2 = Quantizer(map=(0, 0, 1), message_alphabet_size=2)
par = Strategy(kind="Parallel1", gamma=gamma2)
im = induce(m, gamma2)

print("=== parallel network, best 1-bit quantizer ===")
print("   n    max(p_e0, p_e1)   lower bound      ratio")
for n in (1, 2, 5, 10, 20, 40, 60):
    e = exact_error_parallel(m, par, n)
    worst = max(e.p_e0, e.p_e1)
    bound, _ = sgb_lower_bound(im, n)
    print(f"  {n:3d}   {worst:.6e}    {bound:.6e}   {worst / bound:8.2f}")

chain = strategy_from_report(exponent_daisy_restricted(m, r=0.5))
print("\n=== restricted chain, r = 0.5 (bound on the exact transcript law) ===")
print("   n    max(p_e0, p_e1)   lower bound      ratio")
for n in (2, 4, 8, 16, 30):
    e = exact_error(m, chain, n)
    worst = max(e.p_e0, e.p_e1)
    bound, _ = sgb_lower_bound(llr_distribution_daisy(m, chain, n), 1)
    print(f"  {n:3d}   {worst:.6e}    {bound:.6e}   {worst / bound:8.2f}")

print("\n=== random-model sweep ===")
rng = np.random.default_rng(0)
checks = violations = 0
for _ in range(25):
    p0 = rng.dirichlet(np.ones(3))
    p1 = rng.dirichlet(np.ones(3))
    if min(p0.min(), p1.min()) < 5e-3:
        continue
    mm = HypothesisModel(pmf0=p0, pmf1=p1)
    qq = Quantizer(map=(0, 0, 1), message_alphabet_size=2)
    st = Strategy(kind="Parallel1", gamma=qq)
    for n in (1, 6, 18):
        e = exact_error_parallel(mm, st, n)
        bound, _ = sgb_lower_bound(induce(mm, qq), n)
        checks += 1
        if max(e.p_e0, e.p_e1) < bound:
            violations += 1
print(f"{checks} exact evaluations, {violations} bound violations")

# The bound is loose by design: its sqrt(n) correction term costs
# O(1/sqrt(n)) per symbol, so the per-n rates close only slowly.
print("\n   n    log max error / n    log bound / n")
# n stops at 1200: past that the exact probability underflows double precision
for n in (10, 60, 400, 1200):
    e = exact_error_parallel(m, par, n)
    bound, _ = sgb_lower_bound(im, n)
    print(f"{n:5d}      {math.log(max(e.p_e0, e.p_e1)) / n:+.4f}"
          f"           {math.log(bound) / n:+.4f}")
print(f"shared limit: {-0.457370:+.4f}")
