import math
import sys
from fractions import Fraction as F

import pytest

import convalg as ca
from convalg import groups as G
from convalg import weights as W
from convalg.rational import PI_UPPER

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


def shell_weights(s_values=(F(1, 3), F(1, 2), F(1), F(2), F(3), F(5))):
    """Prüfer weights for p in {2, 3, 5, 7} and rationals weights, at each s
    and at the Prüfer control s = 2p."""
    for p in (2, 3, 5, 7):
        for s in s_values + (F(2 * p),):
            yield ca.nested_finite_weight(G.PrueferGroup(p), s), p
    for s in s_values:
        yield ca.rationals_weight(s), 2


def test_shell_values_are_s_powers_over_the_chain():
    for n in range(1, 12):
        for p in (2, 3, 5, 7):
            assert ca.pruefer_weight(p).term(n) == F(1, (2 * p) ** n)
            assert ca.nested_finite_weight(G.PrueferGroup(p), 2 * p).term(n) == 2 ** n
        assert ca.rationals_weight().term(n) == F(1, math.factorial(n) * 2 ** n)


def test_first_mass_terms_are_powers_of_s():
    # sum_{n <= 10} phi_n m_n = sum_{n <= 10} s^n on either chain
    for w, _ in shell_weights():
        partial = sum(w.term(n) * w.chain_weight(n) for n in range(1, 11))
        assert partial == sum(w.s ** n for n in range(1, 11))
    for w in [ca.pruefer_weight(p) for p in (2, 3, 5, 7)] + [ca.rationals_weight()]:
        assert sum(w.term(n) * w.chain_weight(n) for n in range(1, 11)) == F(1023, 1024)
        assert w.mass() == 1


def test_shell_facts_derive_from_s():
    for w, g in shell_weights():
        s = w.s
        if s < 1:
            assert w.mass() == s / (1 - s)
            assert w.b_bound is not None
        else:
            assert w.mass() is None and w.b_bound is None and w.sq_tail(4) is None
        ratio = s * s / g
        exact = isinstance(w, ca.LayerWeight)
        for n in range(2, 16):
            nxt = w.sq_term(n + 1)
            assert nxt == ratio * w.sq_term(n) if exact else nxt <= ratio * w.sq_term(n)
        if s < 1:
            for cutoff in (1, 3, 6):
                head = sum(w.sq_term(j) for j in range(cutoff + 1, cutoff + 41))
                assert head <= w.sq_tail(cutoff)
                if exact:
                    assert w.sq_tail(cutoff) == head + w.sq_tail(cutoff + 40)
        nonincreasing = all(w.term(n + 1) <= w.term(n) for n in range(1, 20))
        assert nonincreasing == (s <= g)
        assert (w.max_value() is None) == (not nonincreasing)
        for m in range(1, 12):
            assert w.orbit_min(m) == min(w.term(n) for n in range(1, m + 1))


def test_shell_ratio_must_be_a_positive_rational():
    for s in (0, -1, F(-1, 2), 0.5, "1/2", True, None):
        with pytest.raises(ValueError):
            ca.nested_finite_weight(P2, s)
        with pytest.raises(ValueError):
            ca.rationals_weight(s)


@pytest.mark.parametrize("group_p, phi_p", [(3, 2), (2, 3), (5, 3), (2, 2), (7, 7)])
def test_phi_must_be_made_for_the_group_prime(group_p, phi_p):
    # the values (2 phi_p)^-n on the group_p chain are s = group_p / (2 phi_p):
    # their mass is derived, so it is 1 only when the primes agree ((3, 2):
    # the mass terms 4^-n 3^n sum to 3, s = 3/4)
    s = F(group_p, 2 * phi_p)
    w = ca.nested_finite_weight(G.PrueferGroup(group_p), s)
    assert all(w.term(n) == F(1, (2 * phi_p) ** n) for n in range(1, 12))
    assert w.mass() == s / (1 - s)
    assert (w.mass() == 1) == (group_p == phi_p)
    assert sum(w.term(n) * group_p ** n for n in range(1, 40)) < w.mass()


def test_rationals_c2_is_the_kernel_constant():
    assert ca.rationals_weight().c2 == W.SIGMA_C2 == F(ca.sigma_subconvolutive_constant().hi)


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
    assert u.eval(R1.element([0.0])) == 1
    assert u.eval(R1.element([1.0])) == F(1, 2)
    assert u.eval(R1.element([F(1, 3)])) == F(9, 10)
    assert u.eval(R1.element([-1.0])) == u.eval(R1.element([1.0]))
    assert u.b_bound == 2 * PI_UPPER > 2 * math.pi
    assert ca.euclidean_weight(2).b_bound == (2 * PI_UPPER) ** 2
    with pytest.raises(ValueError):
        ca.euclidean_weight(0)


def test_product_weight_eval_and_bound():
    uh = scaled_pruefer(2)
    ur = ca.euclidean_weight(1)
    w = ca.product_weight(ur, uh)
    g = w.group
    pt = g.point(G.RealGroup(1).element([1.0]), P2.element(1, 1))
    assert w.eval(pt) == F(1, 2) / (2 * PI_UPPER) * uh.eval(P2.element(1, 1))
    assert w.b_bound == 1
    assert w.eval(G.neg(pt)) == w.eval(pt)
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


def test_decay_certificates_bound_every_orbit():
    for w, _ in shell_weights():
        g = w.group
        if isinstance(w, ca.LayerWeight):
            points = [g.element(k, n) for n in range(1, 4) for k in (1, g.p ** n - 1)]
        else:
            points = [g.element(v) for v in (F(1, 2), F(-7, 6), F(5, 24), F(3))]
        for x in points:
            c, d = w.decay_certificate(x)
            for n in range(1, 80):
                assert 1 / w.eval(G.nmul(n, x)) <= c * n ** d


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


def _b_scaled(base):
    u = ca.rationals_weight() if base == "rationals" else ca.pruefer_weight(int(base[-1]))
    return ca.scale_for_b(u, u.b_bound)


@pytest.mark.parametrize("p", ["3/2", "2", "3", "5/4", "7/3", "11/7", "4", "9/5"])
@pytest.mark.parametrize("base", ["pruefer:2", "pruefer:3", "pruefer:5", "rationals"])
def test_algebra_global_lower_bound_is_the_largest_double_below_the_root(base, p):
    # w >= scale (max u)^(-1/q) = scale m^(-b/a) with q = a/b, and a double v
    # is at most that iff v^a m^b <= scale^a
    w = ca.algebra_weight(_b_scaled(base), F(p))
    a, b = w.q.as_integer_ratio()
    m = F(w.base.max_value())

    def below_root(v):
        return F(v) ** a * m ** b <= F(w.scale) ** a

    v = w.global_lower_bound()
    assert v > 0 and below_root(v)
    assert not below_root(math.nextafter(v, math.inf))


def test_algebra_global_lower_bound_of_the_report_weight_squares_below_eight():
    # report's pruefer2:essinf is sqrt(8); math.sqrt(8) rounds to nearest, above it
    v = ca.algebra_weight(_b_scaled("pruefer:2"), 2).global_lower_bound()
    assert v == 2.82842712474619 < math.sqrt(8)
    assert F(v) ** 2 <= 8 < F(math.nextafter(v, math.inf)) ** 2


@pytest.mark.parametrize("base", ["pruefer:2", "rationals"])
def test_algebra_global_lower_bound_with_a_long_exponent_numerator(base):
    # q = 1000001: the exact powers would take megabits, so the bound is
    # scale min(1, 1/m), still below m^(-1/q), as the largest double below it
    u = _b_scaled(base)
    m = F(u.max_value())
    w = ca.algebra_weight(u, F(10 ** 6 + 1, 10 ** 6))
    assert w.q == 10 ** 6 + 1
    coarse = min(F(1), 1 / m)
    v = w.global_lower_bound()
    assert F(v) <= coarse < F(math.nextafter(v, math.inf))


@pytest.mark.parametrize("root", [F(0), F(1, 10 ** 330), F(2828427, 10 ** 6), F(10 ** 300, 7),
                                  F(2 ** 1024)])
def test_largest_double_where_finds_it_from_any_guess(root):
    # the largest double v <= root, or the largest double when root is beyond them
    def fits(v):
        return F(v) <= root

    expected = float(min(root, F(sys.float_info.max)))
    if F(expected) > root:
        expected = math.nextafter(expected, 0.0)
    for guess in (0.0, 5e-324, 1e-300, 1.0, 2.8, 1e300, sys.float_info.max, expected,
                  math.nextafter(expected, 0.0), math.nextafter(expected, math.inf)):
        if guess <= sys.float_info.max:
            assert W._largest_double_where(fits, guess) == expected, guess
