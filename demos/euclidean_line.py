"""The rational-decay weight on the line and products with a discrete factor.

u(t) = 1/(1+t^2) self-convolves to 2 pi/(4+t^2) in closed form; the ratio
climbs monotonically to 2 pi, which is the normalization the product
construction divides out.  Quadrature cross-validates the closed form.
"""

import math

import convalg as ca
from convalg import groups as G

u = ca.euclidean_weight(1)
R1 = G.RealGroup(1)

print("closed form vs quadrature for the self-convolution:")
for t in (0.0, 1.0, 3.0, 10.0):
    iv = ca.line_conv_quadrature(t)
    closed = ca.line_conv_closed_form(t)
    mid = 0.5 * (iv.lo + iv.hi)
    print(f"  t = {t:5.1f}:  closed {closed:.9f}   quadrature {mid:.9f}   "
          f"|diff| = {abs(mid - closed):.2e}")

res = ca.line_conv_ratio()
print(f"\nratio (u*u)/u = 2 pi (1+t^2)/(4+t^2) increases to 2 pi:")
print(f"  sup enclosure [{res.sup.lo:.6f}, {res.sup.hi:.6f}]  (2 pi = {2 * math.pi:.6f})")
print(f"  value at 0: {ca.line_conv_quadrature(0.0).lo:.6f}.. (pi/2 = {math.pi / 2:.6f})")
res2 = ca.line_conv_ratio(dim=2)
print(f"  two dimensions factorize: sup = (2 pi)^2 in "
      f"[{res2.sup.lo:.4f}, {res2.sup.hi:.4f}]")

print(f"\nraw bound u*u <= {float(u.b_bound):.6f} u; the product construction")
print("rescales the Euclidean factor so the pair carries a certificate:")
up = ca.pruefer_weight(2)
w = ca.product_weight(u, ca.scale_for_b(up, 2 * up.mass()))
print(f"  product b bound: {float(w.b_bound):.6f}")
pt = w.group.point(R1.element([1.0]), G.PrueferGroup(2).element(1, 1))
print(f"  w(1, 1/2) = {float(w.eval(pt)):.8f}  (= u_R(1)/(2 pi) * u_H(1/2))")
print(f"  even: w(-x) = {float(w.eval(G.neg(pt))):.8f}")

cert = ca.check_poly_decay(w, pt, 12)
print(f"  decay certificate: 1/w(nx) <= C n^{cert.payload['degree']}  -> {cert.verdict}")
