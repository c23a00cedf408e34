"""Watch finite sensor counts converge to the predicted exponents.

Exponents are asymptotic slopes of log p_e versus n.  The exact type-class
evaluator gives the true error probabilities for moderate n, so we can see
the slope emerge, watch the per-n gap shrink, and cross-check one point
with Monte Carlo.
"""
from __future__ import annotations

from decdet import (
    HypothesisModel,
    exact_error,
    exponent_daisy_restricted,
    exponent_parallel,
    fit_exponent,
    simulate,
    strategy_from_report,
)

m = HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))
ns = (20, 30, 40, 50, 60)

for label, report in (
    ("parallel, 1 bit per sensor", exponent_parallel(m)),
    ("restricted chain, r = 0.5", exponent_daisy_restricted(m, r=0.5)),
):
    st = strategy_from_report(report)
    fit = fit_exponent(m, st, ns, method="exact")
    print(f"=== {label}: predicted exponent {report.exponent:+.6f} ===")
    print("   n      p_e            (1/n) log p_e   gap to prediction")
    for est in fit.estimates:
        gap = abs(est.log_pe_over_n - report.exponent)
        print(f"  {est.n:3d}   {est.p_e:.6e}   {est.log_pe_over_n:+.6f}      {gap:.4f}")
    print(f"least-squares slope over the grid: {fit.slope:+.6f} "
          f"(gap {abs(fit.slope - report.exponent):.4f}; the per-point gap carries "
          "a log(n)/(2n) prefactor the fit cancels)\n")

# Monte Carlo agrees with the exact evaluator wherever both run.
chain = strategy_from_report(exponent_daisy_restricted(m, r=0.5))
exact = exact_error(m, chain, 20)
mc = simulate(m, chain, 20, num_trials=200_000, seed=7)
print("=== Monte Carlo cross-check, chain at n = 20 ===")
print(f"exact  p_e = {exact.p_e:.6e}")
print(f"mc     p_e = {mc.p_e:.6e}  (95% halfwidth {mc.ci:.2e}, "
      f"{abs(mc.p_e - exact.p_e) / (mc.ci / 1.96):.2f} sigma away)")

# The feedback variants have no exact product-form evaluator; simulate them.
from decdet import Quantizer, Strategy

fb = Strategy(
    kind="FullFeedback2",
    gamma=Quantizer(map=(0, 0, 1), message_alphabet_size=2),
    delta0=Quantizer(map=(0, 0, 1), message_alphabet_size=2),
    delta1=Quantizer(map=(0, 1, 1), message_alphabet_size=2),
    t=0.0,
)
est = simulate(m, fb, 12, num_trials=200_000, seed=1)
print("\n=== adaptive feedback strategy, simulation only ===")
print(f"full-feedback n = 12: p_e0 = {est.p_e0:.4e}, p_e1 = {est.p_e1:.4e} "
      f"(these protocols admit no product-form exact pass)")
