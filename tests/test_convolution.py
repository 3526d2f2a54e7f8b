import concurrent.futures
import dataclasses
import itertools
from fractions import Fraction as F

import pytest

import convalg as ca
from convalg import groups as G
from convalg import weights as W
from convalg.convolution import TailUnavailableError

P2 = G.PrueferGroup(2)
P3 = G.PrueferGroup(3)


def brute_layer_conv(p, x, cutoff, phi=None):
    """Independent oracle: exact sum over the cutoff subgroup plus the exact
    geometric remainder (every omitted pair sits in a common shell j>cutoff,
    contributing |U_j| phi_j^2 = ((p-1)/p)(4p)^-j, summed in closed form).
    A custom phi replaces the default shell values in the sum (the remainder
    is still the default family's)."""
    g = G.PrueferGroup(p)
    phi = phi or (lambda n: F(1, (2 * p) ** n))
    total = F(0)
    for y in g.subgroup_elements(cutoff):
        total += phi(G.layer_of(y)) * phi(G.layer_of(G.sub(x, y)))
    tail = F(p - 1, p) * F(1, (4 * p) ** (cutoff + 1)) / (1 - F(1, 4 * p))
    return total, tail


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


@pytest.mark.parametrize("p,cutoff", [(2, 6), (3, 4)])
def test_layer_partial_sum_broken_weight_equals_enumeration(p, cutoff):
    g = G.PrueferGroup(p)
    broken = ca.broken_increasing_phi()
    w = ca.nested_finite_weight(g, broken, unchecked=True)
    for x in shell_points(g, cutoff):
        partial, _ = brute_layer_conv(p, x, cutoff, phi=broken.term)
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
    w = ca.nested_finite_weight(P2, ca.broken_increasing_phi(), unchecked=True)
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


@pytest.mark.parametrize("ball", [6, 12, 40])
def test_sigma_memos_equal_their_originals(ball):
    pair_sum, range_series = W._sigma_pair_sum, W._sigma_range_series
    for floor_s in range(-6, 7):
        for integral in (False, True):
            for origin in (False, True):
                args = (floor_s, integral, origin, ball)
                assert pair_sum(*args) == pair_sum.__wrapped__(*args)
        shift = floor_s + 7  # the reach even_floor(q) + 1 of 0 <= even_floor(q) <= 12
        assert range_series(ball, shift) == range_series.__wrapped__(ball, shift)


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
    b = ca.rationals_weight(phi=ca.broken_increasing_phi(), unchecked=True)
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


@pytest.mark.parametrize("seed", [0, 1])
def test_sum_conv_equals_pattern_loop(seed):
    w = ca.direct_sum_weight(tuple(ca.scale_for_b(u, u.b_bound)
                                   for u in map(ca.pruefer_weight, (2, 3, 2))))
    window = ca.sum_sample_window(w.group, 200, seed=seed)
    trunc = ca.TruncationSpec(per_summand=(6, 6, 6))
    for x in window.points:
        assert ca.conv_at(w, x, trunc) == brute_sum_conv(w, x, truncated_summands((6, 6, 6)))
        assert ca.conv_exact(w, x) == brute_sum_conv(w, x, exact_summands).lo


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
    import math
    u = ca.euclidean_weight(1)
    R1 = G.RealGroup(1)
    assert ca.conv_at(u, R1.element([0.0]), ca.TruncationSpec()).lo == pytest.approx(math.pi / 2)
    t = 3.0
    assert ca.conv_at(u, R1.element([t]), ca.TruncationSpec()).lo == pytest.approx(2 * math.pi / (4 + t * t))


def test_conv_concurrent_calls_are_deterministic():
    u = ca.rationals_weight()
    window = u.group.ball_elements(2, 3)
    trunc = ca.TruncationSpec(layer=4, ball=8)
    sequential = [ca.conv_at(u, x, trunc) for x in window]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        concurrent_r = list(pool.map(lambda x: ca.conv_at(u, x, trunc), window))
    assert sequential == concurrent_r


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
            spec = dataclasses.replace(default, **{field: value})
            assert [ca.conv_at(w, x, spec) for x in points] == base, field
    # every field inside it is read: raising it moves the enclosure somewhere
    for field, value in read.items():
        if field == "per_summand":
            raised = [value[:k] + (value[k] + 1,) + value[k + 1:] for k in range(len(value))]
        else:
            raised = [value + 1]
        for v in raised:
            spec = dataclasses.replace(default, **{field: v})
            assert [ca.conv_at(w, x, spec) for x in points] != base, (field, v)


def test_trunc_default_of_weights_without_a_convolution_is_empty():
    # the algebra suites b and d (submultiplicativity, ess-inf) read no truncation
    alg = ca.algebra_weight(scaled(2), 2)
    for w in (alg, ca.builtin_weight("poly2"), ca.euclidean_weight(2)):
        assert w.trunc_default().describe() == {}
    with pytest.raises(TailUnavailableError):
        ca.conv_at(alg, P2.identity(), ca.TruncationSpec(), require_tail=False)
