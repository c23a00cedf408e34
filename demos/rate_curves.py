"""Walk through the large-deviation machinery on the bundled ternary model.

For a 1-bit quantizer the message log-likelihood ratio Z takes two values.
Averages of i.i.d. copies of Z concentrate near E[Z]; the probability that
the average lands near any other value t decays like exp(-n * R(t)), and
R is the Legendre transform of the log-moment generating function printed
below.  Everything an architecture search does reduces to evaluating these
curves at well-chosen thresholds.
"""
from __future__ import annotations

import numpy as np

from decdet import (
    HypothesisModel,
    Quantizer,
    chernoff_exponent,
    induce,
    log_mgf_derivs,
    rate_function,
    rate_function_grid,
)

m = HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))
print("model: pmf0 =", np.asarray(m.pmf0), " pmf1 =", np.asarray(m.pmf1))

for qmap in ((0, 0, 1), (0, 1, 1)):
    q = Quantizer(map=qmap, message_alphabet_size=2)
    im = induce(m, q)
    zmin, zmax = im.llr_support()
    print(f"\nquantizer {qmap}: induced q0 = {im.q0}, q1 = {im.q1}")
    print(f"  llr support [{zmin:+.4f}, {zmax:+.4f}], "
          f"E0[Z] = {im.llr_mean(0):+.4f}, E1[Z] = {im.llr_mean(1):+.4f}")

    print("  log-mgf under hypothesis 0 (slope recovers the tilted mean):")
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        val, d1, d2 = log_mgf_derivs(im, 0, s)
        print(f"    s = {s:4.2f}:  L = {val:+.6f}   L' = {d1:+.6f}   L'' = {d2:.6f}")

    c, s_star = chernoff_exponent(im)
    print(f"  Chernoff exponent {c:+.6f} at s* = {s_star:.6f}")

    ts = np.linspace(zmin, zmax, 9)
    r0 = rate_function_grid(im, 0, ts)
    r1 = rate_function_grid(im, 1, ts)
    print("  conjugate rate curves (note R1 = R0 - t, both zero at their means):")
    print("       t        R0(t)      R1(t)")
    for t, a, b in zip(ts, r0, r1):
        print(f"    {t:+8.4f}  {a:9.6f}  {b:9.6f}")

    # The two error exponents of a threshold test at t are R0(t) and R1(t);
    # equalizing them lands on the Chernoff point.
    rv = rate_function(im, 0, 0.0)
    print(f"  R0(0) = {rv.value:.6f} = -Chernoff, attained by tilting to s = {rv.argmax_s:.6f}")
