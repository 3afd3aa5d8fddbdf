"""Where exponential rounding is concave and where it breaks.

Three families probed with the same machinery: random midpoint probes for
the clean case, a targeted pair for the constructed failure, and a plain
grid scan that finds the textbook budget-additive counterexample.
"""
import numpy as np

from symgap.extensions import (
    concavity_grid_scan,
    concavity_probe,
    f_exp_blockwise,
    random_pair_source,
)
from symgap.instances import two_block_product_instance
from symgap.setfn import make_budget_additive, scale_oracle

rng = np.random.default_rng(0)

# coverage-like two-block instance at alpha = 1: no violation anywhere
clean = two_block_product_instance(8, 1.0)
g = lambda pts: f_exp_blockwise(clean, pts[:, 0], pts[:, 1])
pairs = random_pair_source(2, 5000, rng)
violations = concavity_probe(g, pairs)
print(f"alpha = 1.0 : {len(violations)} violations in {len(pairs)} random midpoint probes")

# alpha = 1/2 concentrates value on saturated blocks; the midpoint dips
curved = two_block_product_instance(200, 0.5)
ends = [f_exp_blockwise(curved, 1, 0), f_exp_blockwise(curved, 0, 1)]
mid = f_exp_blockwise(curved, 0.5, 0.5)
print(f"alpha = 0.5 : chord {0.5 * sum(ends):.6f} vs midpoint {mid:.6f}"
      f"  (slack {0.5 * sum(ends) - mid:.4f})")

# budget-additive w = (1,1,1,2), budget 2, scaled into [0,1]
demo = scale_oracle(make_budget_additive([1.0, 1.0, 1.0, 2.0], 2.0), 0.5)
found, scanned, total = concavity_grid_scan(demo, step=0.1, stop_after=3)
print(f"budget-additive: {len(found)} violations after {scanned}/{total} grid pairs")
for v in found:
    print(f"  x={list(v.x)} y={list(v.y)}  slack={v.slack:.2e}")
