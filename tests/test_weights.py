import math
from fractions import Fraction as F

import pytest

import convalg as ca
from convalg import groups as G

P2 = G.PrueferGroup(2)
P3 = G.PrueferGroup(3)


def scaled_pruefer(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


def test_pruefer_weight_values():
    u = ca.pruefer_weight(2)
    assert u.eval(P2.element(1, 1)) == F(1, 4)
    assert u.eval(P2.element(3, 3)) == F(1, 64)
    assert u.eval(P2.identity()) == F(1, 4)
    assert u.mass() == 1
    assert u.b_bound == 2


def test_pruefer_weight_p3():
    u = ca.pruefer_weight(3)
    assert u.eval(P3.element(1, 1)) == F(1, 6)


def test_pruefer_requires_prime():
    with pytest.raises(ValueError):
        ca.pruefer_weight(6)


def test_layer_weight_even_and_positive_exhaustive():
    u = ca.pruefer_weight(2)
    for x in P2.subgroup_elements(5):
        assert u.eval(x) > 0
        assert u.eval(x) == u.eval(G.neg(x))


def test_custom_phi_validation():
    bad = ca.PhiSequence(name="bad", term_fn=lambda n: F(-1), sq_ratio=F(1, 2),
                         exact_mass=None, geometric_tails=False)
    with pytest.raises(ValueError):
        ca.nested_finite_weight(P2, bad)
    with pytest.raises(ValueError):
        ca.nested_finite_weight(P2, ca.broken_increasing_phi())
    with pytest.raises(ValueError, match="do not fit this chain"):
        ca.rationals_weight(ca.pruefer_default_phi(2))
    # the negative-control escape hatch constructs, but carries no bounds
    w = ca.nested_finite_weight(P2, ca.broken_increasing_phi(), unchecked=True)
    assert w.b_bound is None


@pytest.mark.parametrize("group_p, phi_p", [(3, 2), (2, 3), (5, 3), (2, 2), (7, 7)])
def test_phi_must_be_made_for_the_group_prime(group_p, phi_p):
    group, phi = G.PrueferGroup(group_p), ca.pruefer_default_phi(phi_p)
    if group_p == phi_p:
        assert ca.nested_finite_weight(group, phi).mass() == 1
        return
    # (3, 2): the mass terms 4^-n 3^n sum to 3, not the declared 1, and the
    # certified tails undercut the exact partial sums
    with pytest.raises(ValueError, match="do not fit this chain"):
        ca.nested_finite_weight(group, phi)


def test_declared_mass_must_cover_the_first_mass_terms():
    # phi_n = 1/(n! 2^n) against |G_n| = 2^n: the mass terms 1/n! reach
    # 6235301/3628800 > 1 by n = 10, though the sequence declares mass 1
    with pytest.raises(ValueError, match="exceed their declared mass"):
        ca.nested_finite_weight(P2, ca.rationals_default_phi())
    for w in [ca.pruefer_weight(p) for p in (2, 3, 5, 7)] + [ca.rationals_weight()]:
        partial = sum(w.phi.term(n) * w.mass_weight(n) for n in range(1, 11))
        assert partial == F(1023, 1024) and w.mass() == 1
    w = ca.nested_finite_weight(P2, ca.rationals_default_phi(), unchecked=True)
    assert sum(w.phi.term(n) * w.mass_weight(n) for n in range(1, 11)) == F(6235301, 3628800)


def test_rationals_c2_is_the_kernel_constant():
    u = ca.RationalsLayerWeight(group=G.RationalsGroup(), phi=ca.rationals_default_phi())
    assert u.c2 == F(ca.sigma_subconvolutive_constant().hi)


def test_rationals_weight_values():
    u = ca.rationals_weight()
    q = u.group
    assert u.eval(q.identity()) == F(1, 2)
    assert u.eval(q.element(F(5, 2))) == F(1, 32)
    assert u.eval(q.element(F(-5, 2))) == F(1, 32)
    assert u.mass() == 1


def test_rationals_weight_even_on_window():
    u = ca.rationals_weight()
    for x in u.group.ball_elements(3, 3):
        assert u.eval(x) == u.eval(G.neg(x))
        assert u.eval(x) > 0


def test_scale_for_b_identities():
    u = ca.pruefer_weight(2)
    w = ca.scale_for_b(u, 2)
    assert w.eval(P2.identity()) == F(1, 8)
    assert w.b_bound == 1
    assert ca.scale_for_b(u, 1).eval(P2.identity()) == u.eval(P2.identity())
    # constant-ratio equivalence against the original
    cert = ca.weight_equivalence(u, w, ca.pruefer_ball_window(P2, 3))
    assert cert.payload["c1"] == "2/1" and cert.payload["c2"] == "2/1"


def test_default_coeffs_budgets_exhaustive():
    coeffs = ca.default_coeffs()
    assert coeffs.eps1 == F(1, 60)
    members = list(range(1, 9))
    subsets = []
    for mask in range(2 ** 8):
        subsets.append(frozenset(members[i] for i in range(8) if mask >> i & 1))
    for s in subsets:
        a = coeffs.value(s)
        assert 0 < a <= 1
    for s in subsets:
        a_s = coeffs.value(s)
        for v in subsets:
            assert coeffs.value(s | v) <= a_s
    for s in subsets:
        assert coeffs.split_sum(s) <= F(1, 4)


def test_pair_sum_equals_subset_enumeration():
    coeffs = ca.default_coeffs()
    members = (1, 2, 3, 4, 5)
    for free_mask in range(2 ** 5):
        free = [j for i, j in enumerate(members) if free_mask >> i & 1]
        rest = [j for j in members if j not in free]
        for base_mask in range(2 ** len(rest)):
            base = frozenset(j for i, j in enumerate(rest) if base_mask >> i & 1)
            expected = F(0)
            for part_mask in range(2 ** len(free)):
                part = frozenset(j for i, j in enumerate(free) if part_mask >> i & 1)
                expected += coeffs.value(base | part) * coeffs.value(base | (frozenset(free) - part))
            assert coeffs.pair_sum(frozenset(free), base) == expected
    s = frozenset({1, 3, 4})
    assert coeffs.split_sum(s) == coeffs.pair_sum(s, frozenset()) / coeffs.value(s)


def test_default_coeffs_example_value():
    coeffs = ca.default_coeffs()
    assert coeffs.value(frozenset({1, 2})) == F(1, 180)


def test_coeffs_budget_rejects_large_eps():
    with pytest.raises(ValueError):
        ca.default_coeffs(F(1, 7))


def test_default_alphas():
    summands = (scaled_pruefer(2), scaled_pruefer(3), scaled_pruefer(2))
    alphas = ca.default_alphas(summands)
    assert alphas.values == (F(1, 3), F(1, 9), F(1, 27))
    # certified product budgets
    zeros = tuple(F(u.eval(u.descriptor.identity())) for u in summands)
    alphas.certify(zeros)
    prod_plain = math.prod(1 + a for a in alphas.values)
    assert prod_plain < 2
    prod_conv = math.prod(1 + a * a * z for a, z in zip(alphas.values, zeros))
    assert prod_conv < 2


def test_direct_sum_eval_formula():
    summands = (scaled_pruefer(2), scaled_pruefer(3))
    w = ca.direct_sum_weight(summands)
    g = w.group
    assert w.eval(g.identity()) == F(1, 60)
    x1 = g.point({1: P2.element(1, 1)})
    assert w.eval(x1) == F(1, 60) * F(1, 3) * summands[0].eval(P2.element(1, 1))
    x12 = g.point({1: P2.element(1, 1), 2: P3.element(1, 1)})
    expected = (F(1, 60) / (1 + 2)) * F(1, 3) * summands[0].eval(P2.element(1, 1)) \
        * F(1, 9) * summands[1].eval(P3.element(1, 1))
    assert w.eval(x12) == expected


def test_direct_sum_requires_b_certificates():
    with pytest.raises(ValueError):
        ca.direct_sum_weight((ca.pruefer_weight(2), ca.pruefer_weight(3)))


def test_euclidean_weight_values():
    u = ca.euclidean_weight(1)
    R1 = G.RealGroup(1)
    assert u.eval(R1.element([0.0])) == 1.0
    assert u.eval(R1.element([1.0])) == 0.5
    assert u.eval(R1.element([-1.0])) == u.eval(R1.element([1.0]))
    assert u.b_bound == pytest.approx(2 * math.pi)
    with pytest.raises(ValueError):
        ca.euclidean_weight(0)


def test_product_weight_eval_and_bound():
    uh = scaled_pruefer(2)
    ur = ca.euclidean_weight(1)
    w = ca.product_weight(ur, uh)
    g = w.group
    pt = g.point(G.RealGroup(1).element([1.0]), P2.element(1, 1))
    assert w.eval(pt) == pytest.approx(0.5 / (2 * math.pi) * float(uh.eval(P2.element(1, 1))))
    assert w.b_bound == pytest.approx(1.0)
    assert w.eval(G.neg(pt)) == pytest.approx(w.eval(pt))
    with pytest.raises(ValueError):
        ca.product_weight(ur, ca.pruefer_weight(2))  # no (b) certificate


# a formula weight takes numbers and has no group descriptor, so it is
# neither a summand nor a factor
@pytest.mark.parametrize("build", [
    lambda: ca.direct_sum_weight([ca.builtin_weight("poly2")]),
    lambda: ca.product_weight(ca.builtin_weight("poly2"), scaled_pruefer(2)),
    lambda: ca.product_weight(ca.euclidean_weight(1), ca.builtin_weight("circle-quarter")),
], ids=["sum-summand", "product-real-factor", "product-discrete-factor"])
def test_formula_weights_are_refused_by_the_group_builders(build):
    with pytest.raises(ValueError):
        build()


def test_algebra_weight():
    u = scaled_pruefer(2)
    w = ca.algebra_weight(u, 2)
    assert w.q == 2
    x = P2.element(1, 1)
    assert w.eval(x) == pytest.approx(float(u.eval(x)) ** -0.5)
    w3 = ca.algebra_weight(u, 3)
    assert w3.q == F(3, 2)
    with pytest.raises(ValueError):
        ca.algebra_weight(u, 1)
    with pytest.raises(ValueError):
        ca.algebra_weight(ca.pruefer_weight(2), 2)


def test_algebra_weight_deep_layer_does_not_underflow():
    u = scaled_pruefer(2)
    w = ca.algebra_weight(u, 2)
    x = P2.element(1, 600)
    assert float(u.eval(x)) == 0.0  # 2^-1201 underflows
    # w = u^(-1/2) = 2^600.5
    assert w.eval(x) == pytest.approx(math.sqrt(2) * 2.0 ** 600, rel=1e-12)
    w3 = ca.algebra_weight(u, 3)  # q = 3/2: u^(-2/3) = 2^(2402/3)
    assert w3.eval(x) == pytest.approx(2.0 ** (2402 / 3), rel=1e-12)
    # where float(u) is normal the value is the plain float power, bit for bit
    for n in (1, 5, 40):
        y = P2.element(1, n)
        assert w.eval(y) == float(u.eval(y)) ** float(F(-1, 2))


def test_algebra_weight_power_identities():
    # u = 1/4 at p=2 gives w = (1/4)^(-1/2) = 2; u = 1/8 at p=3 (q=3/2) gives 8^(2/3) = 4
    x = P2.element(1, 1)
    w = ca.AlgebraWeight(base=ca.pruefer_weight(2), p=F(2))
    assert w.base.eval(x) == F(1, 4)
    assert w.eval(x) == pytest.approx(2.0)
    w3 = ca.AlgebraWeight(base=scaled_pruefer(2), p=F(3))
    assert w3.base.eval(x) == F(1, 8)
    assert w3.eval(x) == pytest.approx(4.0)


def test_decay_certificates():
    u2 = ca.pruefer_weight(2)
    assert u2.decay_certificate(P2.element(1, 1)) == (F(4), 0)
    uq = ca.rationals_weight()
    assert uq.decay_certificate(uq.group.element(F(1, 2))) == (F(8), 2)
    summands = (scaled_pruefer(2), scaled_pruefer(3))
    ws = ca.direct_sum_weight(summands)
    x = ws.group.point({1: P2.element(1, 1)})
    c, d = ws.decay_certificate(x)
    assert d == 0 and c > 0
