import concurrent.futures
import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

import convalg as ca
from convalg import groups as G
from convalg import weights as W
from convalg.convolution import TailUnavailableError
from convalg.rational import PI_LOWER, PI_UPPER, sigma

P2 = G.PrueferGroup(2)
P3 = G.PrueferGroup(3)


def brute_layer_conv(p, x, cutoff, s=F(1, 2)):
    """Independent oracle: exact sum over the cutoff subgroup of the shell
    values phi_n = (s/p)^n, plus the exact geometric remainder of the default
    s = 1/2 (every omitted pair sits in a common shell j>cutoff, contributing
    |U_j| phi_j^2 = ((p-1)/p)(4p)^-j, summed in closed form)."""
    g = G.PrueferGroup(p)
    phi = lambda n: (F(s) / p) ** n
    total = F(0)
    for y in g.subgroup_elements(cutoff):
        total += phi(G.layer_of(y)) * phi(G.layer_of(G.sub(x, y)))
    tail = F(p - 1, p) * F(1, (4 * p) ** (cutoff + 1)) / (1 - F(1, 4 * p))
    return total, tail


def brute_layer_partial(group, s, n, cutoff):
    """The shell loop over G_cutoff for x in shell n: twice |U_j| phi_j phi_n
    from each lower shell j, (|U_n| - |G_{n-1}|) phi_n^2 from shell n and
    |U_j| phi_j^2 from each higher shell, with phi_j = (s/p)^j."""
    def phi(j):
        return (F(s) / group.p) ** j

    total = F(0)
    for j in range(1, n):
        total += 2 * group.shell_size(j) * phi(j) * phi(n)
    prev = 0 if n == 1 else group.layer_size(n - 1)
    total += (group.shell_size(n) - prev) * phi(n) ** 2
    for j in range(n + 1, cutoff + 1):
        total += group.shell_size(j) * phi(j) ** 2
    return total


def shell_points(g, cutoff):
    """The identity and two points of every shell n <= cutoff."""
    pts = [g.identity()]
    for n in range(1, cutoff + 1):
        pts += [g.element(1, n), g.element(g.p ** n - 1, n)]
    return pts


@pytest.mark.parametrize("p,cutoff", [(2, 6), (3, 5), (5, 4)])
def test_layer_partial_sum_equals_enumeration(p, cutoff):
    g = G.PrueferGroup(p)
    u = ca.pruefer_weight(p)
    w = ca.scale_for_b(u, 2 * u.mass())
    for x in shell_points(g, cutoff):
        partial, tail = brute_layer_conv(p, x, cutoff)
        iv = ca.conv_at(u, x, ca.TruncationSpec(layer=cutoff))
        assert iv.lo == partial
        assert iv.hi == partial + tail
        scaled_iv = ca.conv_at(w, x, ca.TruncationSpec(layer=cutoff))
        assert scaled_iv.lo == w.scale ** 2 * partial


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_layer_partial_closed_form_equals_shell_loop(p):
    # 7440 cases; s = 1 sums the lower shells at ratio 1, and s = 2p is the
    # increasing control
    g = G.PrueferGroup(p)
    for s in (F(1, 3), F(1, 2), F(1), F(2 * p)):
        w = ca.nested_finite_weight(g, s)
        for cutoff in range(1, 31):
            for n in range(1, cutoff + 1):
                assert w._partial(n, cutoff) == brute_layer_partial(g, s, n, cutoff), (s, n, cutoff)


@pytest.mark.parametrize("p,cutoff", [(2, 6), (3, 4)])
def test_layer_partial_sum_broken_weight_equals_enumeration(p, cutoff):
    g = G.PrueferGroup(p)
    w = ca.nested_finite_weight(g, 2 * p)
    for x in shell_points(g, cutoff):
        partial, _ = brute_layer_conv(p, x, cutoff, s=2 * p)
        iv = ca.conv_at(w, x, ca.TruncationSpec(layer=cutoff), require_tail=False)
        assert iv.lo == partial
        assert iv.hi is None


def test_deep_truncation_reaches_exact_value():
    u = ca.pruefer_weight(2)
    trunc = ca.TruncationSpec(layer=20)
    for x in (P2.identity(), P2.element(1, 1), P2.element(3, 7), P2.element(5, 20)):
        exact = ca.conv_exact(u, x)
        iv = ca.conv_at(u, x, trunc)
        assert iv.hi == exact
        # the omitted mass is the tail sum_{j > 20} |U_j| phi_j^2
        assert iv.hi - iv.lo == u.sq_tail(20)
        # every cutoff that reaches x keeps the exact upper end; lower ends rise
        ivs = [ca.conv_at(u, x, ca.TruncationSpec(layer=n)) for n in range(G.layer_of(x), 21)]
        assert all(e.hi == exact for e in ivs)
        assert [e.lo for e in ivs] == sorted(e.lo for e in ivs)


def test_pruefer_conv_zero_exact():
    u = ca.pruefer_weight(2)
    assert ca.conv_exact(u, P2.identity()) == F(15, 112)
    partial, tail = brute_layer_conv(2, P2.identity(), 9)
    assert partial + tail == F(15, 112)


def test_pruefer_conv_truncated_interval():
    u = ca.pruefer_weight(2)
    iv = ca.conv_at(u, P2.identity(), ca.TruncationSpec(layer=3))
    assert iv.lo == F(137, 1024)
    assert iv.hi - iv.lo == F(1, 7168)
    assert iv.hi == F(15, 112)


@pytest.mark.parametrize("p,k,n", [(2, 0, 0), (2, 1, 1), (2, 1, 2), (2, 3, 3), (3, 0, 0), (3, 1, 1), (3, 2, 2)])
def test_pruefer_conv_matches_brute_oracle(p, k, n):
    g = G.PrueferGroup(p)
    u = ca.pruefer_weight(p)
    x = g.element(k, n)
    partial, tail = brute_layer_conv(p, x, 8)
    exact = ca.conv_exact(u, x)
    assert exact == partial + tail
    iv = ca.conv_at(u, x, ca.TruncationSpec(layer=6))
    assert iv.hi == exact
    assert iv.lo <= exact


def test_pruefer_conv_frozen_values():
    u2, u3 = ca.pruefer_weight(2), ca.pruefer_weight(3)
    assert ca.conv_exact(u2, P2.element(1, 2)) == F(57, 896)
    assert ca.conv_exact(u2, P2.element(1, 1)) == F(15, 112)
    assert ca.conv_exact(u3, P3.identity()) == F(35, 396)


def test_conv_scaling_is_quadratic():
    u = ca.pruefer_weight(2)
    w = ca.scale_for_b(u, 2)
    assert ca.conv_exact(w, P2.identity()) == ca.conv_exact(u, P2.identity()) / 4


def test_conv_requires_reachable_cutoff():
    u = ca.pruefer_weight(2)
    with pytest.raises(ValueError):
        ca.conv_at(u, P2.element(1, 5), ca.TruncationSpec(layer=3))


def test_conv_tail_unavailable_for_broken_weight():
    w = ca.nested_finite_weight(P2, 4)
    with pytest.raises(TailUnavailableError):
        ca.conv_at(w, P2.identity(), ca.TruncationSpec(layer=4))
    iv = ca.conv_at(w, P2.identity(), ca.TruncationSpec(layer=4), require_tail=False)
    assert iv.hi is None
    assert iv.lo >= 8  # already far above u(0) = 2


def test_conv_rejects_algebra_weights():
    u = ca.pruefer_weight(2)
    w = ca.algebra_weight(ca.scale_for_b(u, 2), 2)
    with pytest.raises(TailUnavailableError):
        ca.conv_at(w, P2.identity(), ca.TruncationSpec(layer=4))


def brute_rationals_conv(u, q, layer, radius):
    total = F(0)
    for r in u.group.ball_elements(layer, radius):
        total += u.eval(r) * u.eval(G.sub(q, r))
    return total


def scaled_rationals():
    u = ca.rationals_weight()
    return ca.scale_for_b(u, 2 * u.sub_constant * u.mass())


# negative, integer, half-integer, deeper than the default Q3:3 window, and
# beyond its radius
RATIONALS_POINTS = [F(-5, 6), F(-1, 2), F(2), F(-3), F(5, 2), F(-7, 2), F(7, 24),
                    F(-11, 24), F(9, 2), F(-13, 3), F(0)]


@pytest.mark.parametrize("value", RATIONALS_POINTS)
def test_rationals_partial_sum_equals_enumeration(value):
    u = ca.rationals_weight()
    w = scaled_rationals()
    q = u.group.element(value)
    for cutoff, ball in ((4, 7), (3, 9)):
        if G.layer_of(q) > cutoff:
            continue
        trunc = ca.TruncationSpec(layer=cutoff, ball=ball)
        assert ca.conv_at(u, q, trunc).lo == brute_rationals_conv(u, q, cutoff, ball)
        assert ca.conv_at(w, q, trunc).lo == brute_rationals_conv(w, q, cutoff, ball)


@functools.lru_cache(maxsize=None)
def _residue_classes(q, cutoff):
    """Counts of the j in [0, t_cutoff) by (layer of j/t, layer of q - j/t,
    floor(q - j/t), whether q - j/t is an integer, whether j = 0)."""
    group = G.RationalsGroup()
    t = group.chain_value(cutoff)
    q_num = (q * t).numerator

    def layer(num):
        return group.denominator_layer(t // math.gcd(num, t))

    classes = Counter()
    for j in range(t):
        s_num = q_num - j
        classes[(layer(j), layer(s_num), s_num // t, s_num % t == 0, j == 0)] += 1
    return classes


def brute_rationals_partial(u, q, cutoff, ball):
    """The residue loop over [0, t_cutoff): each class of j sums the sigma
    factors over the truncation's m once (the classes do not read s)."""
    total = F(0)
    for (layer_r, layer_s, *sigma_class), count in _residue_classes(q, cutoff).items():
        total += count * u.term(layer_r) * u.term(layer_s) * W._sigma_pair_sum(*sigma_class, ball)
    return u.scale * u.scale * total


def chain_points(cutoff):
    """q in (1/t_L)Z with -4 <= q <= 4 for each L <= cutoff: every residue r = q t_L
    mod t_L while t_L <= 6, then r in {0, 1, t_L/2 + 1, t_L - 1}."""
    points = {F(4)}
    for layer in range(1, cutoff + 1):
        t = math.factorial(layer)
        residues = range(t) if t <= 6 else (0, 1, t // 2 + 1, t - 1)
        points |= {F(floor * t + r, t) for floor in range(-4, 4) for r in residues}
    return sorted(points)


@pytest.mark.parametrize("s", [F(1, 2), F(1, 3), F(3, 2), F(2)])
def test_rationals_chain_count_equals_residue_loop(s):
    u = W.RationalsLayerWeight(group=G.RationalsGroup(), s=s, scale=F(3, 7))
    for cutoff in range(1, 7):
        for q in chain_points(cutoff):
            for ball in (6, 12, 40):
                expected = brute_rationals_partial(u, q, cutoff, ball)
                assert u._partial(q, cutoff, ball) == expected, (cutoff, q, ball)


def test_rationals_deep_truncations_agree():
    # The chain count reaches N20 (20! residues) in milliseconds per point.  The
    # lower ends rise with N and every enclosure holds the deepest one; the upper
    # ends need not fall, as at a fixed B the range tail grows with the mass up to N.
    u = ca.rationals_weight()
    for q in ca.rationals_ball_window(u.group, 3, 3).points:
        ivs = [ca.conv_at(u, q, ca.TruncationSpec(layer=n, ball=12)) for n in (5, 9, 12, 20)]
        assert [iv.lo for iv in ivs] == sorted(iv.lo for iv in ivs), q
        assert all(ivs[-1].lo <= iv.hi for iv in ivs), q


def fraction_sigma_pair_sum(floor_s, integral, origin, ball):
    """_sigma_pair_sum as a Fraction loop: one sigma product added per m."""
    total = F(0)
    for m in range(-ball, ball + 1 if origin else ball):
        if m >= 0:
            floor_r = m
        else:
            floor_r = -m if origin else -m - 1
        if m <= floor_s:
            floor_d = floor_s - m
        else:
            floor_d = m - floor_s if integral else m - floor_s - 1
        total += sigma(floor_r) * sigma(floor_d)
    return total


def fraction_sigma_range_series(ball, shift):
    """_sigma_range_series as a Fraction loop."""
    total = F(0)
    for k in range(ball, ball + W._RANGE_SERIES_TERMS):
        total += sigma(k) * sigma(max(1, k - shift))
    edge = ball + W._RANGE_SERIES_TERMS - shift - 1
    if edge < 1:
        raise ValueError("range cutoff too small for the tail comparison")
    return total + F(1, 3 * edge ** 3)


def fraction_mass_up_to(u, cutoff):
    """mass_up_to as a Fraction loop over u.term and the chain values."""
    total, prev = F(0), 0
    for j in range(1, cutoff + 1):
        t = u.group.chain_value(j)
        total += (t - prev) * u.term(j)
        prev = t
    return total


def fraction_rationals_partial(u, q, cutoff, ball):
    """The chain count of RationalsLayerWeight._partial in Fractions: phi_n from
    u.term, d_n = t // t_n, and each group's chain sum taken on its own."""
    t = u.group.chain_value(cutoff)
    floor_q, r = divmod((q * t).numerator, t)
    layer_q = u.group.denominator_layer(q.denominator)
    phi = [F(0)] + [u.term(n) for n in range(1, cutoff + 1)] + [F(0)]
    steps = [(t // u.group.chain_value(n), (phi[n] - phi[n + 1]) * phi[max(n, layer_q)],
              (phi[n] - phi[n + 1]) * phi[max(n + 1, layer_q)]) for n in range(1, cutoff + 1)]
    cuts = (0, 1, max(r, 1), r + 1, t)
    sigmas = ((floor_q, r == 0, True), (floor_q, False, False), (floor_q, True, False),
              (floor_q - 1, False, False))
    total = F(0)
    for lo, hi, (floor_s, integral, origin) in zip(cuts, cuts[1:], sigmas):
        if lo < hi:
            chain = sum((((hi - 1) // d - (lo - 1) // d) * at_zero
                         + ((hi - 1 - r) // d - (lo - 1 - r) // d) * at_r
                         for d, at_zero, at_r in steps), F(0))
            total += chain * fraction_sigma_pair_sum(floor_s, integral, origin, ball)
    return u.scale * u.scale * total


@pytest.mark.parametrize("cutoff", [20, 64])
def test_rationals_partial_equals_fraction_chain_count(cutoff):
    # deeper than the residue loop reaches, and at B40, beyond every report window
    weights = (ca.rationals_weight(), scaled_rationals(),
               W.RationalsLayerWeight(group=G.RationalsGroup(), s=F(3, 2), scale=F(3, 7)))
    for u in weights:
        for value in (F(0), F(7, 3), F(-17, 6), F(5)):
            for ball in (12, 40):
                assert u._partial(value, cutoff, ball) == \
                    fraction_rationals_partial(u, value, cutoff, ball), (u.s, value, ball)


@pytest.mark.parametrize("s", [F(1, 2), F(1, 3), F(3, 2), F(2), F(5, 7)])
def test_rationals_mass_up_to_equals_fraction_loop(s):
    u = W.RationalsLayerWeight(group=G.RationalsGroup(), s=s)
    for cutoff in (1, 2, 5, 20, 64):
        assert u.mass_up_to(cutoff) == fraction_mass_up_to(u, cutoff), cutoff
    assert ca.rationals_weight().mass_up_to(1024) == fraction_mass_up_to(ca.rationals_weight(), 1024)


def test_rationals_check_b_computes_the_mass_once_per_cutoff(monkeypatch):
    # the range tail reads only s and N, so the mass is not recomputed per shell class
    u = scaled_rationals()
    window = ca.rationals_ball_window(u.group, 3, 3)
    calls = []
    mass_up_to = W.RationalsLayerWeight.mass_up_to

    def counted(self, cutoff):
        calls.append(cutoff)
        return mass_up_to(self, cutoff)

    monkeypatch.setattr(W.RationalsLayerWeight, "mass_up_to", counted)
    trunc = ca.TruncationSpec(layer=20)
    cert = ca.check_b(u, window, trunc)
    assert cert.verdict == "holds"
    assert calls == [20]
    assert ca.check_b(u, window, trunc) == cert
    assert calls == [20]


@pytest.mark.parametrize("ball", [6, 12, 40])
def test_sigma_memos_equal_their_originals(ball):
    pair_sum, range_series = W._sigma_pair_sum, W._sigma_range_series
    for floor_s in range(-6, 7):
        for integral in (False, True):
            for origin in (False, True):
                args = (floor_s, integral, origin, ball)
                assert pair_sum(*args) == pair_sum.__wrapped__(*args)
                assert pair_sum(*args) == fraction_sigma_pair_sum(*args)
        shift = floor_s + 7  # the reach even_floor(q) + 1 of 0 <= even_floor(q) <= 12
        assert range_series(ball, shift) == range_series.__wrapped__(ball, shift)
        assert range_series(ball, shift) == fraction_sigma_range_series(ball, shift)


def test_refused_sigma_range_series_is_not_cached():
    edge_zero = 6 + W._RANGE_SERIES_TERMS - 1  # ball + terms - shift - 1 == 0
    for _ in range(3):
        with pytest.raises(ValueError, match="range cutoff too small"):
            W._sigma_range_series(6, edge_zero)


def test_rationals_enclosures_do_not_depend_on_the_memo_order():
    u = ca.rationals_weight()
    points = [u.group.element(v) for v in (F(0), F(-5, 6), F(1, 2), F(2), F(-3), F(7, 24))]
    truncs = [ca.TruncationSpec(layer=n, ball=b) for n, b in ((3, 6), (5, 12), (4, 40))]

    def enclosures(order):
        W._sigma_pair_sum.cache_clear()
        W._sigma_range_series.cache_clear()
        return {(i, q): ca.conv_at(u, q, truncs[i])
                for i in order for q in points if G.layer_of(q) <= truncs[i].layer}

    assert enclosures([0, 1, 2]) == enclosures([2, 1, 0])


def test_rationals_partial_sum_broken_weight_equals_enumeration():
    # s = 2: phi_n = 2^n/n!, infinite mass, so no tail
    b = ca.rationals_weight(2)
    assert b.mass() is None
    for value in (F(-5, 6), F(3), F(1, 2)):
        q = b.group.element(value)
        iv = ca.conv_at(b, q, ca.TruncationSpec(layer=3, ball=6), require_tail=False)
        assert iv.lo == brute_rationals_conv(b, q, 3, 6)
        assert iv.hi is None


def test_rationals_conv_interval_contains_refinements():
    u = ca.rationals_weight()
    g = u.group
    for value in (F(0), F(1, 2), F(5, 2)):
        q = g.element(value)
        iv = ca.conv_at(u, q, ca.TruncationSpec(layer=4, ball=8))
        bigger = brute_rationals_conv(u, q, 5, 16)
        assert iv.lo <= bigger <= iv.hi


def test_rationals_conv_refinement_is_monotone():
    u = ca.rationals_weight()
    q = u.group.element(F(1, 2))
    coarse = ca.conv_at(u, q, ca.TruncationSpec(layer=4, ball=8))
    fine = ca.conv_at(u, q, ca.TruncationSpec(layer=5, ball=12))
    assert coarse.lo <= fine.lo
    assert fine.hi <= coarse.hi


def scaled(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


def test_sum_conv_matches_brute_force():
    w = ca.direct_sum_weight((scaled(2), scaled(3)))
    g = w.group
    x = g.point({1: P2.element(1, 2)})
    exact = ca.conv_exact(w, x)
    partials = []
    for cap in (2, 3, 4):
        total = F(0)
        for a in P2.subgroup_elements(cap):
            for b in P3.subgroup_elements(cap):
                y = g.point({1: a, 2: b})
                total += w.eval(y) * w.eval(G.sub(x, y))
        partials.append(total)
    assert partials == sorted(partials)  # monotone in the truncation box
    assert all(p <= exact for p in partials)
    # the remainder after the cap-4 box is tiny: every omitted point has a
    # coordinate beyond shell 4, and the per-shell masses are geometric
    assert exact - partials[-1] < F(1, 10 ** 6)
    iv = ca.conv_at(w, x, ca.TruncationSpec(per_summand=(6, 6)))
    assert iv.hi == exact


def brute_sum_conv(u, x, conv_fn):
    """Reference pattern loop: every coordinate of the support is A (x'_j = 0),
    B (x'_j = x_j) or C (pinned), every complement coordinate is off or looped,
    and each of the 3^|support| 2^|complement| patterns is summed on its own."""
    support = sorted(x.support())
    comp = [j for j in range(1, len(u.summands) + 1) if j not in x.support()]
    point_term, pinned, loops = {}, {}, {}
    for j in support:
        uj = u.summands[j - 1]
        u0, ux = uj.eval(uj.descriptor.identity()), uj.eval(x.coord(j))
        conv_j = conv_fn(j, uj, x.coord(j))
        point_term[j] = u.alphas.value(j) * ux
        pinned[j] = ca.Interval(max(conv_j.lo - 2 * u0 * ux, F(0)),
                                conv_j.hi - 2 * u0 * ux).scale_nonneg(u.alphas.value(j) ** 2)
    for j in comp:
        uj = u.summands[j - 1]
        u0 = uj.eval(uj.descriptor.identity())
        conv0 = conv_fn(j, uj, uj.descriptor.identity())
        loops[j] = ca.Interval(max(conv0.lo - u0 * u0, F(0)),
                               conv0.hi - u0 * u0).scale_nonneg(u.alphas.value(j) ** 2)
    total = ca.Interval.point(F(0))
    for pattern in itertools.product("ABC", repeat=len(support)):
        v_base = frozenset(j for j, c in zip(support, pattern) if c in "BC")
        w_base = frozenset(j for j, c in zip(support, pattern) if c in "AC")
        for mask in range(2 ** len(comp)):
            extra = frozenset(comp[i] for i in range(len(comp)) if mask >> i & 1)
            term = ca.Interval.point(u.coeffs.value(v_base | extra) * u.coeffs.value(w_base | extra))
            for j, c in zip(support, pattern):
                term = term.scale_nonneg(point_term[j]) if c in "AB" else term.mul_nonneg(pinned[j])
            for j in extra:
                term = term.mul_nonneg(loops[j])
            total = total.add(term)
    return total.scale_nonneg(u.scale * u.scale)


def truncated_summands(cutoffs):
    def conv_fn(j, uj, xj):
        try:
            layer = G.layer_of(xj)
        except G.LayerError:
            layer = 1
        return ca.conv_at(uj, xj, ca.TruncationSpec(layer=max(cutoffs[j - 1], layer)))
    return conv_fn


def exact_summands(j, uj, xj):
    return ca.Interval.point(ca.conv_exact(uj, xj))


def pruefer_sum(*primes):
    return ca.direct_sum_weight(tuple(ca.scale_for_b(u, u.b_bound)
                                      for u in map(ca.pruefer_weight, primes)))


def pruefer_sum_232():
    return pruefer_sum(2, 3, 2)


@pytest.mark.parametrize("seed", [0, 1])
def test_sum_conv_equals_pattern_loop(seed):
    # three summands on 200 points, and five (up to 2^5 patterns a point) on 40
    for w, size in ((pruefer_sum_232(), 200), (pruefer_sum(2, 3, 5, 2, 3), 40)):
        window = ca.sum_sample_window(w.group, size, seed=seed)
        cutoffs = (6,) * len(w.summands)
        trunc = ca.TruncationSpec(per_summand=cutoffs)
        expected = {x: brute_sum_conv(w, x, truncated_summands(cutoffs)) for x in window.points}
        for x in window.points:
            assert ca.conv_at(w, x, trunc) == expected[x]
            assert ca.conv_exact(w, x) == brute_sum_conv(w, x, exact_summands).lo
            assert w.eval(x) == brute_sum_eval(w, x)
        # a second pass over the same weight reads its rows and values from its tables
        for x in window.points:
            assert ca.conv_at(w, x, trunc) == expected[x]
            assert w.eval(x) == brute_sum_eval(w, x)


def brute_sum_eval(u, x):
    value = u.scale * u.coeffs.value(x.support())
    for j, pt in x.coords:
        value *= u.alphas.value(j) * u.summands[j - 1].eval(pt)
    return value


def test_sum_check_b_makes_one_summand_call_per_row(monkeypatch):
    w = pruefer_sum_232()
    window = ca.sum_sample_window(w.group, 200, seed=0)
    # what _conv reads of x_j: in the support or not, and the layer (the cutoff is fixed)
    rows = {(j, j in x.support(), G.layer_of(x.coord(j)))
            for x in window.points for j in (1, 2, 3)}
    calls = []
    conv = W.LayerWeight._conv

    def counted(self, x, trunc):
        calls.append((self, x, trunc))
        return conv(self, x, trunc)

    monkeypatch.setattr(W.LayerWeight, "_conv", counted)
    cert = ca.check_b(w, window, w.trunc_default())
    assert cert.verdict == "holds"
    assert len(calls) == len(rows) == 15
    # the rows live on the weight: a second check and a later conv_at reuse them
    assert ca.check_b(w, window, w.trunc_default()) == cert
    ca.conv_at(w, window.points[0], w.trunc_default())
    assert len(calls) == 15
    # a rescaled copy is a new weight and starts with empty tables
    half = w.rescaled(F(1, 2))
    ca.conv_at(half, window.points[0], half.trunc_default())
    assert len(calls) == 18


class OddLayerWeight(W.LayerWeight):
    """Test-only weight that is not even: k/p^n with 2k < p^n takes twice its
    shell value, though its shell key is still the layer."""

    def raw_eval(self, x):
        return super().raw_eval(x) * (2 if 2 * x.num < self.group.p ** x.exp else 1)


def test_sum_evenness_evaluates_each_point():
    # the values table is keyed by the exact point, so x and -x stay apart
    odd = OddLayerWeight(group=P2, s=F(1, 2), scale=F(1, 4))
    w = ca.direct_sum_weight((odd, scaled(3)))
    window = ca.sum_sample_window(w.group, 20, seed=0)
    cert = ca.check_evenness(w, window)
    assert cert.verdict == "fails"
    x = next(x for x in window.points if w.eval(x) != w.eval(G.neg(x)))
    assert cert.witness == ca.point_to_json(x)
    assert cert.payload["value"] == ca.format_rational(brute_sum_eval(w, x))
    assert ca.check_evenness(pruefer_sum_232(), window).verdict == "holds"


def test_sum_tables_leave_equality_hash_repr_and_provenance_alone():
    w, fresh = pruefer_sum_232(), pruefer_sum_232()
    before = (hash(w), repr(w), ca.canonical_dumps(ca.weight_to_provenance(w)))
    window = ca.sum_sample_window(w.group, 20, seed=0)
    for check in (ca.check_positivity, ca.check_evenness):
        assert check(w, window).verdict == "holds"
    assert ca.check_b(w, window, w.trunc_default()).verdict == "holds"
    with pytest.raises(ValueError, match="cutoffs must match"):
        ca.check_b(w, window, ca.TruncationSpec(per_summand=(6, 6)))
    values, rows = w._tables
    assert values and rows and fresh._tables == ({}, {})
    assert w == fresh and fresh == w
    assert (hash(w), repr(w), ca.canonical_dumps(ca.weight_to_provenance(w))) == before
    assert hash(fresh) == before[0] and repr(fresh) == before[1]


def test_algebra_sum_submultiplicativity_evaluates_each_coordinate_once(monkeypatch):
    # checks on an algebra weight evaluate its base sum once per shell class,
    # and the sum evaluates each coordinate it meets once
    w = ca.algebra_weight(ca.direct_sum_weight((scaled(2), scaled(3))), 2)
    window = ca.sum_sample_window(w.base.group, 20, seed=0)
    calls = []
    evaluate = W.LayerWeight.eval

    def counted(self, x):
        calls.append((self, x))
        return evaluate(self, x)

    monkeypatch.setattr(W.LayerWeight, "eval", counted)
    assert ca.check_positivity(w, window).verdict == "holds"
    firsts: dict = {}
    for x in window.points:
        firsts.setdefault(w.shell_key(x), x)
    summands = w.base.summands
    seen = {(summands[j - 1], pt) for x in firsts.values() for j, pt in x.coords}
    assert len(firsts) < len(window.points)
    assert len(calls) == len(set(calls)) == len(seen)
    cert = ca.check_submultiplicative(w, window=window)
    assert cert.verdict == "holds" and cert.payload["pairs_checked"] == 400
    points = {z for s in window.points for t in window.points for z in (s, t, G.add(s, t))}
    coords = {(summands[j - 1], pt) for z in points for j, pt in z.coords}
    # the base sum's values outlive the positivity check: no coordinate is evaluated twice
    assert len(calls) == len(set(calls)) and seen < set(calls) <= coords


def test_sum_conv_with_rationals_summand_equals_pattern_loop():
    uq = ca.rationals_weight()
    w = ca.direct_sum_weight((scaled(2), ca.scale_for_b(uq, uq.b_bound)))
    window = ca.sum_sample_window(w.group, 24, seed=0)
    trunc = ca.TruncationSpec(per_summand=(6, 5))
    half = w.rescaled(F(1, 2))  # direct_sum_weight builds scale 1 only
    for x in window.points:
        assert ca.conv_at(w, x, trunc) == brute_sum_conv(w, x, truncated_summands((6, 5)))
        assert ca.conv_at(half, x, trunc) == brute_sum_conv(half, x, truncated_summands((6, 5)))
    assert ca.conv_exact(w, window.points[0]) is None


def test_sum_conv_identity_and_trivial_group():
    w0 = ca.direct_sum_weight(())
    g0 = w0.group
    assert ca.conv_exact(w0, g0.identity()) == w0.eval(g0.identity()) ** 2
    w = ca.direct_sum_weight((scaled(2),))
    assert ca.conv_exact(w, w.group.identity()) is not None


def test_euclidean_conv_closed_form():
    # 2 pi/(4+t^2), with pi enclosed in [PI_LOWER, PI_UPPER]
    u = ca.euclidean_weight(1)
    R1 = G.RealGroup(1)
    for t in (F(0), F(3), F(-1, 3)):
        iv = ca.conv_at(u, R1.element([t]), ca.TruncationSpec())
        assert iv == ca.Interval(2 * PI_LOWER / (4 + t * t), 2 * PI_UPPER / (4 + t * t))
        assert iv.lo < 2 * math.pi / (4 + t * t) < iv.hi
    R2 = G.RealGroup(2)
    iv = ca.conv_at(ca.euclidean_weight(2).rescaled(F(1, 3)), R2.element([1, 2]), ca.TruncationSpec())
    assert iv == ca.Interval(F(1, 9) * (2 * PI_LOWER) ** 2 / 40, F(1, 9) * (2 * PI_UPPER) ** 2 / 40)


def test_conv_concurrent_calls_are_deterministic():
    u = ca.rationals_weight()
    window = u.group.ball_elements(2, 3)
    trunc = ca.TruncationSpec(layer=4, ball=8)
    sequential = [ca.conv_at(u, x, trunc) for x in window]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        concurrent_r = list(pool.map(lambda x: ca.conv_at(u, x, trunc), window))
    assert sequential == concurrent_r
    # 4 threads share each freshly built sum and fill its tables together; they
    # agree with a serial run on a separate, equal weight
    uq = ca.rationals_weight()

    def build():
        return [pruefer_sum_232(), ca.direct_sum_weight((scaled(2), ca.scale_for_b(uq, uq.b_bound)))]

    def checks(w):
        window = ca.sum_sample_window(w.group, 60, seed=3)
        return [ca.check_b(w, window, w.trunc_default()), ca.check_evenness(w, window)]

    sequential = [checks(w) for w in build()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so they interleave inside the table fills
    try:
        for shared, expected in zip(build(), sequential):
            assert shared._tables == ({}, {})
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(checks, [shared] * 4, timeout=120)) == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def contract_cases():
    """One weight and a few window points per construction that convolves."""
    R1, g = G.RealGroup(1), ca.rationals_weight().group
    sum_w = ca.direct_sum_weight((scaled(2), scaled(3)))
    product = ca.product_weight(ca.euclidean_weight(1), scaled(2))
    return {
        "pruefer": (scaled(2), ca.pruefer_ball_window(P2, 4).points),
        "rationals": (scaled_rationals(), [g.element(v) for v in (F(0), F(1, 2), F(-5, 6), F(5, 2))]),
        "sum": (sum_w, ca.sum_sample_window(sum_w.group, 20, seed=0).points),
        "product": (product, [product.group.point(R1.element([r]), h)
                              for r in (0.0, 1.5) for h in P2.subgroup_elements(2)]),
        "euclidean": (ca.euclidean_weight(1), [R1.element([r]) for r in (-1.0, 0.0, 2.5)]),
    }


# each differs from every default, so a construction that read it would move
UNREAD_VALUES = {"layer": 6, "ball": 9, "per_summand": (7, 7)}


@pytest.mark.parametrize("name", ["pruefer", "rationals", "sum", "product", "euclidean"])
def test_trunc_default_names_exactly_the_fields_conv_at_reads(name):
    w, points = contract_cases()[name]
    default = w.trunc_default()
    read = {k: tuple(v) if isinstance(v, list) else v for k, v in default.describe().items()}
    base = [ca.conv_at(w, x, default) for x in points]
    # an unset field falls back to the default
    assert [ca.conv_at(w, x, ca.TruncationSpec()) for x in points] == base
    # a field outside the default is never read (verify refuses it for this reason)
    for field, value in UNREAD_VALUES.items():
        if field not in read:
            spec = default.replace(**{field: value})
            assert [ca.conv_at(w, x, spec) for x in points] == base, field
    # every field inside it is read: raising it moves the enclosure somewhere
    for field, value in read.items():
        if field == "per_summand":
            raised = [value[:k] + (value[k] + 1,) + value[k + 1:] for k in range(len(value))]
        else:
            raised = [value + 1]
        for v in raised:
            spec = default.replace(**{field: v})
            assert [ca.conv_at(w, x, spec) for x in points] != base, (field, v)


def test_trunc_default_of_weights_without_a_convolution_is_empty():
    # the algebra suites b and d (submultiplicativity, ess-inf) read no truncation
    alg = ca.algebra_weight(scaled(2), 2)
    for w in (alg, ca.builtin_weight("poly2"), ca.euclidean_weight(2)):
        assert w.trunc_default().describe() == {}
    with pytest.raises(TailUnavailableError):
        ca.conv_at(alg, P2.identity(), ca.TruncationSpec(), require_tail=False)
