"""Compare every supported sensor architecture on the bundled ternary model.

The punchline has two halves.  Within the two-stage chain family, letting
second-stage sensors switch their quantizer on the broadcast bit (the
restricted chain) strictly beats ignoring the bit (the tree): feedback
carries value exactly when the receiver may act on it.  Yet the whole
chain family sits strictly below the plain parallel configuration, because
compressing the first stage into one relayed bit destroys more than the
adaptation recovers.  The multi-message feedback variants collapse onto
parallel optima and are reported with a note saying why.
"""
from __future__ import annotations

import numpy as np

from decdet import (
    HypothesisModel,
    exponent_daisy_restricted,
    exponent_feedback_equivalent,
    exponent_parallel,
    exponent_tree,
    h_of_e,
    DecayRateVector,
)

m = HypothesisModel(pmf0=(0.8, 0.15, 0.05), pmf1=(0.05, 0.15, 0.8))

print("=== single-shot optima (more negative = faster error decay) ===")
par1 = exponent_parallel(m, messages_per_sensor=1)
par2 = exponent_parallel(m, messages_per_sensor=2)
print(f"Parallel1   {par1.exponent:+.9f}   gamma = {par1.strategy['gamma']}")
print(f"Parallel2   {par2.exponent:+.9f}   maps  = {par2.strategy['gamma']} x {par2.strategy['delta0']}")

for kind in ("SequentialFeedback2", "FullFeedback2", "RestrictedFeedback2",
             "OneMsgSequential", "DaisyFull"):
    rep = exponent_feedback_equivalent(m, kind=kind)
    print(f"{kind:<20}{rep.exponent:+.9f}   ({rep.note})")

print("\n=== two-stage chain vs tree across the stage split ===")
print("  r      chain (adaptive)   tree (oblivious)   adaptation gain")
for r in (0.2, 0.35, 0.5, 0.65, 0.8):
    chain = exponent_daisy_restricted(m, r=r)
    tree = exponent_tree(m, r=r)
    print(f" {r:4.2f}   {chain.exponent:+.9f}      {tree.exponent:+.9f}     "
          f"{tree.exponent - chain.exponent:+.6f}")

chain = exponent_daisy_restricted(m, r=0.5)
print("\n=== anatomy of the r = 0.5 chain optimum ===")
print(f"first stage  gamma  = {chain.strategy['gamma']}, threshold t = {chain.strategy['t']:.3e}")
print(f"second stage delta0 = {chain.strategy['delta0']} (sent when the bit says 'hypothesis 0')")
print(f"             delta1 = {chain.strategy['delta1']} (sent when the bit says 'hypothesis 1')")
print(f"broadcast-bit decay rates: {chain.decay_rates}")
print(f"branch values (H0 branch, H1 branch): {chain.branch_values}")

# The exponent is the best achievable value of h over attainable decay
# vectors of the broadcast bit; plugging the optimizer's own vector back
# in recovers the optimum.
e = DecayRateVector(**chain.decay_rates)
val, q0, q1 = h_of_e(m, 0.5, e)
print(f"h(decay vector) = {val:.9f}  vs  -exponent = {-chain.exponent:.9f}")
print(f"branch quantizers found independently: {q0.map} / {q1.map}")

print("\n=== ordering summary ===")
print(f"tree {exponent_tree(m, r=0.5).exponent:+.6f}  >=  chain {chain.exponent:+.6f}"
      f"  >  parallel {par1.exponent:+.6f}")
print("feedback helps inside the chain family; the chain still loses to parallel.")
