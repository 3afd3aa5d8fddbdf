"""From mechanism menus to a two-dimensional separation certificate.

Fix everyone else's declaration and vary one player's over a scaled
family: the mechanism then offers that player a menu of (allocation
share X, payment P) pairs. Mapping each entry to expected (quality q,
price p) reduces a truthfulness question to plane geometry, where
either a convex mixture reaches the target quadrant {q >= q0, p <= p0}
or a nonnegative line separates it.
"""
from symgap.audit import extract_menu, map_menu_to_qp, separate_quadrant
from symgap.instances import AuctionInstance, PhiAlpha, make_symgap_valuation
from symgap.mechanisms import VCGExhaustiveAuction
from symgap.setfn import make_additive, pack

m = 8
A, B = pack([0, 1], m), pack([2, 3], m)  # the blocks, as packed rows
phi = PhiAlpha(0.5)
beta = 0.25

family = [make_symgap_valuation(m, A, B, phi, beta, lam) for lam in (0.25, 0.5, 1.0)]
opponent = make_additive([0.0] * 4 + [0.3] * 4)
instance = AuctionInstance((family[-1].oracle(), opponent))

X, P = extract_menu(VCGExhaustiveAuction(), instance, 0, family, trials=3, seed=0)
print(f"menu sample: {X.shape[0]} declarations x {X.shape[1]} trials of (X, payment)")

eps, ell = 1e-4, 1
points = map_menu_to_qp(X, P, phi, eps, ell)
for p in points:
    print(f"  declaration {p.provenance}: q = {p.q:.4f}  p = {p.p:.4f}")

q0 = (1 - eps) * float(phi.value(1 - beta - 10.0**-ell)) - 10.0**-ell
p0 = 0.05
result = separate_quadrant([(p.q, p.p) for p in points], q0, p0)
print(f"\ntarget quadrant: q >= {q0:.4f}, p <= {p0}")
print("branch:", result.branch)
if result.branch == "witness":
    print("  mixture", dict(zip(result.indices, result.weights)), "reaches", result.point)
else:
    print(f"  separating line ({result.lam_q:.4f}, {result.lam_p:.4f}), margin {result.margin:.2e}")
