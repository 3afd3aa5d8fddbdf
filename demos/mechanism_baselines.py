"""Baselines side by side on small instances.

Greedy vs the exhaustive optimum on a random public-project instance,
the Poisson-rounding solver on an additive one, and VCG payments worked
out on a two-player auction.
"""
import numpy as np

from symgap.instances import random_cpp_instance
from symgap.mechanisms import (
    exhaustive_opt_cpp,
    greedy_cpp,
    poisson_midr_cpp,
    vcg_auction_exhaustive,
)
from symgap.setfn import make_additive, make_budget_additive, unpack

rng = np.random.default_rng(7)

inst = random_cpp_instance(rng, m_max=12, k_max=4)
g = greedy_cpp(inst.oracles, inst.k)
o = exhaustive_opt_cpp(inst.oracles, inst.k)
print(f"public project: m={inst.m}, k={inst.k}, {inst.n} players")
print(f"  greedy  {g.value:.4f}  on {unpack(g.S, inst.m).tolist()}")
print(f"  optimum {o.value:.4f}  on {unpack(o.S, inst.m).tolist()}")
print(f"  ratio   {g.value / o.value:.4f}  (guarantee 1 - 1/e = {1 - 1 / np.e:.4f})")

# the rounding solver maximizes F(1 - e^{-x}) under the budget, then samples
w = [0.9, 0.5, 0.1, 0.05]
res = poisson_midr_cpp(make_additive(w), 2)
print(f"\nPoisson rounding on additive {w}, k=2")
print(f"  x* = {[round(x, 4) for x in res.x_star]}")
print(f"  optimum value {res.value:.6f} after {res.iterations} ascent steps")

v1 = make_additive([0.5, 0.3, 0.2, 0.1])
v2 = make_budget_additive([0.4] * 4, 1.0)
out = vcg_auction_exhaustive([v1, v2])
print("\nVCG on the two-player example")
for i, (S, pay) in enumerate(zip(out.sets, out.payments)):
    print(f"  player {i}: bundle {unpack(S, 4).tolist()}, pays {pay:.2f}")
