"""Layer weights on the 2-power torsion circle, end to end.

Builds the default shell weight u with u = phi_n on the n-th shell
(phi_n = s^n/p^n = (2p)^-n with s = 1/2, total mass s/(1-s) = 1 exactly),
evaluates its self-convolution both in closed form and through the truncated
engine, rescales to the subconvolutive form, and runs the full certificate
suite on the 16-point fourth subgroup.
"""

from fractions import Fraction as F

import convalg as ca
from convalg import groups as G

p = 2
group = G.PrueferGroup(p)
u = ca.pruefer_weight(p)

print("shell values phi_n = (2p)^-n:")
for n in range(1, 5):
    print(f"  phi_{n} = {u.term(n)}   (shell size {group.shell_size(n)})")
print(f"mass sum phi_n |G_n| = {u.mass()}  (exact)")

print("\nself-convolution at a few points (closed form vs truncated engine):")
for x in (group.identity(), group.element(1, 1), group.element(1, 2), group.element(3, 3)):
    exact = ca.conv_exact(u, x)
    iv = ca.conv_at(u, x, ca.TruncationSpec(layer=3))
    print(f"  (u*u)({ca.point_to_json(x):>4}) = {exact}  engine N=3: "
          f"[{iv.lo}, {iv.hi}]  (upper end exact)")

print(f"\nraw bound: u*u <= {u.b_bound} * u; dividing by it gives the")
print("subconvolutive form  u' * u' <= u'  exactly:")
w = ca.scale_for_b(u, u.b_bound)
window = ca.pruefer_ball_window(group, 4)
trunc = ca.TruncationSpec(layer=8)
for cert in (
    ca.check_positivity(w, window),
    ca.check_evenness(w, window),
    ca.check_b(w, window, trunc),
    ca.check_poly_decay(w, group.element(1, 1), 12),
):
    extra = f"  {cert.payload}" if cert.verdict != "holds" else ""
    print(f"  {cert.prop:<16} {cert.verdict}{extra}")

print("\nalgebra weight w = u'^(-1/q) at p=2 (floats; order checks stay exact):")
alg = ca.algebra_weight(w, 2)
for x in window.points[:4]:
    print(f"  w({ca.point_to_json(x):>4}) = {alg.eval(x):.6f}")
print(f"  global lower bound (max u')^(-1/q) = {alg.global_lower_bound():.6f} > 0")
