import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import convalg as ca
from convalg import groups as G

P2 = G.PrueferGroup(2)
P3 = G.PrueferGroup(3)
Q = G.RationalsGroup()
SUM23 = G.SumGroup((P2, P3))


def test_pruefer_add_examples():
    assert G.add(P2.element(1, 1), P2.element(1, 1)) == P2.identity()
    assert G.add(P2.element(1, 1), P2.element(1, 2)).value() == F(3, 4)


def test_sum_coordinate_cancellation():
    x = SUM23.point({1: P2.element(1, 1)})
    y = SUM23.point({1: P2.element(1, 1), 2: P3.element(1, 1)})
    z = G.add(x, y)
    assert z.support() == frozenset({2})
    assert z.coord(2) == P3.element(1, 1)


def test_nmul_examples():
    assert G.nmul(2, P2.element(1, 2)).value() == F(1, 2)
    assert G.nmul(3, Q.element(F(5, 2))).value == F(15, 2)
    assert G.nmul(0, P2.element(1, 3)) == P2.identity()
    assert G.nmul(-1, Q.element(F(1, 3))).value == F(-1, 3)


def test_layer_of_examples():
    assert G.layer_of(P2.element(3, 3)) == 3
    assert G.layer_of(Q.element(F(5, 2))) == 2
    assert G.layer_of(Q.identity()) == 1
    assert G.layer_of(P2.identity()) == 1


def test_layer_of_requires_chain():
    with pytest.raises(G.LayerError):
        G.layer_of(G.RealGroup(1).element([1.0]))
    with pytest.raises(G.LayerError):
        G.layer_of(SUM23.identity())


def test_even_floor_examples():
    assert ca.even_floor(F(5, 2)) == 2
    assert ca.even_floor(F(-5, 2)) == 2
    assert ca.even_floor(F(0)) == 0


def test_descriptor_mismatch_raises():
    with pytest.raises(G.GroupMismatchError):
        G.add(P2.element(1, 1), P3.element(1, 1))


def test_pruefer_canonical_form():
    x = P2.element(2, 3)  # 2/8 -> 1/4
    assert (x.num, x.exp) == (1, 2)
    assert P2.element(8, 3) == P2.identity()
    # canonicalization is idempotent
    y = G.PrueferPoint(P2, x.num, x.exp)
    assert y == x


@pytest.mark.parametrize("p, layer", [(2, 4), (3, 4), (5, 3)])
def test_pruefer_add_matches_the_reducing_constructor_on_every_pair(p, layer):
    # unequal exponents skip the reduction; the oracle reduces every sum
    group = G.PrueferGroup(p)
    points = group.subgroup_elements(layer)
    for x in points:
        for y in points:
            n = max(x.exp, y.exp)
            k = x.num * p ** (n - x.exp) + y.num * p ** (n - y.exp)
            expected = G.PrueferPoint(group, k, n)
            got = G.add(x, y)
            assert (got.group, got.num, got.exp) == (group, expected.num, expected.exp), (x, y)


def test_pruefer_group_validation():
    with pytest.raises(ValueError):
        G.PrueferGroup(4)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if G.is_prime(n)] == [n for n in range(-3, 5000) if trial(n)]
    # strong pseudoprimes to the first bases, and Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461, 561, 41041):
        assert not G.is_prime(n)


def test_is_prime_large_prime_is_fast():
    t0 = time.perf_counter()
    assert G.is_prime(2 ** 61 - 1) and G.is_prime(2 ** 31 - 1)
    assert not G.is_prime(1000003 * (2 ** 61 - 1))
    G.PrueferGroup(2 ** 61 - 1)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValueError):
        G.is_prime(2 ** 89 - 1)  # beyond the range the fixed bases decide


def _random_point(rng, group):
    if isinstance(group, G.PrueferGroup):
        n = rng.randrange(0, 6)
        return group.element(rng.randrange(0, group.p ** n) if n else 0, n)
    if isinstance(group, G.RationalsGroup):
        return group.element(F(rng.randrange(-300, 300), rng.randrange(1, 48)))
    if isinstance(group, G.SumGroup):
        coords = {}
        for j in range(1, len(group.summands) + 1):
            if rng.random() < 0.5:
                coords[j] = _random_point(rng, group.summand(j))
        return group.point(coords)
    if isinstance(group, G.RealGroup):
        return group.element([rng.choice(_SPECIAL_FLOATS) if rng.random() < 0.3
                              else rng.uniform(-4, 4) for _ in range(group.dim)])
    if isinstance(group, G.ProductGroup):
        return group.point(_random_point(rng, group.real), _random_point(rng, group.discrete))
    raise AssertionError


_SPECIAL_FLOATS = (0.0, -0.0)


@pytest.mark.parametrize("group", [P2, P3, Q, SUM23], ids=lambda g: g.variant)
def test_group_laws_random_triples(group):
    rng = random.Random(1234)
    identity = group.identity()
    for _ in range(10_000):
        x, y, z = (_random_point(rng, group) for _ in range(3))
        assert G.add(x, y) == G.add(y, x)
        assert G.add(G.add(x, y), z) == G.add(x, G.add(y, z))
        assert G.add(x, G.neg(x)) == identity
        assert G.add(x, identity) == x


@pytest.mark.parametrize("group", [P2, Q])
def test_nmul_additivity(group):
    rng = random.Random(99)
    for _ in range(500):
        x = _random_point(rng, group)
        m, n = rng.randrange(-6, 7), rng.randrange(-6, 7)
        assert G.nmul(m + n, x) == G.add(G.nmul(m, x), G.nmul(n, x))


@pytest.mark.parametrize("group", [P2, P3, Q])
def test_layer_ultrametric(group):
    rng = random.Random(7)
    for _ in range(2000):
        x, y = _random_point(rng, group), _random_point(rng, group)
        lx, ly = G.layer_of(x), G.layer_of(y)
        ls = G.layer_of(G.add(x, y))
        assert ls <= max(lx, ly)
        if lx != ly:
            assert ls == max(lx, ly)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=8))
def test_pruefer_canonical_invariants(k, n):
    x = G.PrueferPoint(P2, k, n)
    assert 0 <= x.num < 2 ** x.exp or (x.num == 0 and x.exp == 0)
    if x.num:
        assert x.num % 2 == 1
    assert G.PrueferPoint(P2, x.num, x.exp) == x


@given(st.fractions(min_value=-20, max_value=20))
def test_rational_point_roundtrip(value):
    x = Q.element(value)
    assert x.value == value
    assert G.neg(G.neg(x)) == x


def test_sum_point_drops_identity_coordinates():
    x = G.SumPoint(SUM23, ((1, P2.identity()), (2, P3.element(1, 1))))
    assert x.support() == frozenset({2})


def test_sum_point_sorts_coordinates_by_index_alone():
    a, b = P2.element(1, 2), P2.element(3, 2)
    # a repeated index is refused by its index, whatever its two points are
    for coords in (((1, a), (1, b)), ((1, a), (1, a))):
        with pytest.raises(ValueError, match="duplicate coordinate index 1"):
            G.SumPoint(SUM23, coords)
    x = G.SumPoint(SUM23, ((2, P3.element(1, 1)), (1, b)))
    assert [j for j, _ in x.coords] == [1, 2]


def test_real_and_product_points():
    R = G.RealGroup(2)
    H = G.ProductGroup(G.RealGroup(1), P2)
    a = R.element([1.0, -2.0])
    assert G.add(a, G.neg(a)) == R.identity()
    pt = H.point(G.RealGroup(1).element([0.5]), P2.element(1, 1))
    assert G.nmul(2, pt).discrete_part == P2.identity()


def test_real_coordinates_are_exact():
    R = G.RealGroup(2)
    assert R.element([0.1, -0.0]).coords == (F(0.1), F(0))
    assert R.element([-0.0, 0.5]) == R.element([0, F(1, 2)]) == G.RealPoint(R, (0.0, 0.5))
    assert hash(R.element([-0.0, 0.0])) == hash(R.identity())
    # 0.1 + 0.2 != 0.3 in doubles; the exact coordinates add exactly
    assert G.add(R.element([0.1, 0]), R.element([0.2, 0])).coords[0] == F(0.1) + F(0.2)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_real_points_refuse_non_finite_coordinates(bad):
    R = G.RealGroup(2)
    with pytest.raises(ValueError, match="finite"):
        R.element([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        G.RealPoint(R, (bad, 0.0))


def test_real_and_product_group_laws():
    # exact coordinates: commutativity, associativity, inverses and identity
    # hold for any finite float input
    rng = random.Random(11)
    R = G.RealGroup(2)
    H = G.ProductGroup(G.RealGroup(1), P2)
    for _ in range(2000):
        x = R.element([rng.uniform(-8, 8), rng.uniform(-8, 8)])
        y = R.element([rng.uniform(-8, 8), rng.uniform(-8, 8)])
        assert G.add(x, y) == G.add(y, x)
        assert G.add(x, G.neg(x)) == R.identity()
        assert G.add(x, R.identity()) == x
        z = R.element([rng.uniform(-8, 8), rng.uniform(-8, 8)])
        assert G.add(G.add(x, y), z) == G.add(x, G.add(y, z))
        hx = H.point(G.RealGroup(1).element([float(rng.randrange(-20, 20))]),
                     _random_point(rng, P2))
        hy = H.point(G.RealGroup(1).element([float(rng.randrange(-20, 20))]),
                     _random_point(rng, P2))
        assert G.add(hx, hy) == G.add(hy, hx)
        assert G.add(hx, G.neg(hx)) == H.identity()


def test_subgroup_enumeration_sizes():
    assert len(P2.subgroup_elements(4)) == 16
    assert P2.shell_size(1) == 2
    assert [P2.shell_size(j) for j in (2, 3, 4)] == [2, 4, 8]
    ball = Q.ball_elements(3, 3)
    assert len(ball) == 37
    values = [pt.value for pt in ball]
    assert values == sorted(values)


# The isinstance dispatch the point classes replaced, kept as the oracle of
# their group law.

def brute_add(x, y):
    if x.group != y.group:
        raise G.GroupMismatchError(f"points from different groups: {x.group} vs {y.group}")
    if isinstance(x, G.PrueferPoint):
        p = x.group.p
        n = max(x.exp, y.exp)
        k = x.num * p ** (n - x.exp) + y.num * p ** (n - y.exp)
        return G.PrueferPoint(x.group, k, n)
    if isinstance(x, G.RationalPoint):
        return G.RationalPoint(x.group, x.value + y.value)
    if isinstance(x, G.SumPoint):
        merged = dict(x.coords)
        for j, pt in y.coords:
            if j in merged:
                merged[j] = brute_add(merged[j], pt)
            else:
                merged[j] = pt
        return G.SumPoint(x.group, tuple(merged.items()))
    if isinstance(x, G.RealPoint):
        return G.RealPoint(x.group, tuple(a + b for a, b in zip(x.coords, y.coords)))
    if isinstance(x, G.ProductPoint):
        return G.ProductPoint(x.group, brute_add(x.real_part, y.real_part),
                              brute_add(x.discrete_part, y.discrete_part))
    raise TypeError(f"unsupported point type {type(x)}")


def brute_neg(x):
    if isinstance(x, G.PrueferPoint):
        return G.PrueferPoint(x.group, -x.num, x.exp)
    if isinstance(x, G.RationalPoint):
        return G.RationalPoint(x.group, -x.value)
    if isinstance(x, G.SumPoint):
        return G.SumPoint(x.group, tuple((j, brute_neg(pt)) for j, pt in x.coords))
    if isinstance(x, G.RealPoint):
        return G.RealPoint(x.group, tuple(-c for c in x.coords))
    if isinstance(x, G.ProductPoint):
        return G.ProductPoint(x.group, brute_neg(x.real_part), brute_neg(x.discrete_part))
    raise TypeError(f"unsupported point type {type(x)}")


def brute_nmul(n, x):
    if n < 0:
        return brute_neg(brute_nmul(-n, x))
    if isinstance(x, G.PrueferPoint):
        return G.PrueferPoint(x.group, n * x.num, x.exp)
    if isinstance(x, G.RationalPoint):
        return G.RationalPoint(x.group, n * x.value)
    if isinstance(x, G.SumPoint):
        return G.SumPoint(x.group, tuple((j, brute_nmul(n, pt)) for j, pt in x.coords))
    if isinstance(x, G.RealPoint):
        return G.RealPoint(x.group, tuple(n * c for c in x.coords))
    if isinstance(x, G.ProductPoint):
        return G.ProductPoint(x.group, brute_nmul(n, x.real_part), brute_nmul(n, x.discrete_part))
    raise TypeError(f"unsupported point type {type(x)}")


def brute_layer_of(x):
    if isinstance(x, G.PrueferPoint):
        return max(x.exp, 1)
    if isinstance(x, G.RationalPoint):
        den = x.value.denominator
        n = 1
        while x.group.chain_value(n) % den != 0:
            n += 1
        return n
    raise G.LayerError(f"no subgroup chain declared for variant {x.group.variant!r}")


def brute_sort_key(x):
    if isinstance(x, G.PrueferPoint):
        v = x.value()
        return (v.numerator, v.denominator)
    if isinstance(x, G.RationalPoint):
        return (x.value.numerator, x.value.denominator)
    if isinstance(x, G.SumPoint):
        return tuple((j, brute_sort_key(pt)) for j, pt in x.coords)
    if isinstance(x, G.RealPoint):
        return x.coords
    if isinstance(x, G.ProductPoint):
        return (brute_sort_key(x.real_part), brute_sort_key(x.discrete_part))
    raise TypeError(f"unsupported point type {type(x)}")


def assert_same_point(a, b):
    """Same type and canonical fields."""
    assert type(a) is type(b) and a.group == b.group
    if isinstance(a, G.SumPoint):
        assert [j for j, _ in a.coords] == [j for j, _ in b.coords]
        for (_, c), (_, d) in zip(a.coords, b.coords):
            assert_same_point(c, d)
    elif isinstance(a, G.ProductPoint):
        assert_same_point(a.real_part, b.real_part)
        assert_same_point(a.discrete_part, b.discrete_part)
    else:
        assert a == b and type(getattr(a, "value", None)) is type(getattr(b, "value", None))


def _layer_outcome(fn, x):
    try:
        return fn(x)
    except G.LayerError as exc:
        return str(exc)


ORACLE_GROUPS = (P2, P3, Q, G.SumGroup((P2, Q, P3)), G.RealGroup(2),
                 G.ProductGroup(G.RealGroup(1), Q))


@pytest.mark.parametrize("group", ORACLE_GROUPS,
                         ids=["pruefer2", "pruefer3", "rationals", "sum", "real", "product"])
def test_group_law_matches_isinstance_oracle(group):
    rng = random.Random(2024)
    for _ in range(400):
        x, y = _random_point(rng, group), _random_point(rng, group)
        assert_same_point(G.add(x, y), brute_add(x, y))
        assert_same_point(G.sub(x, y), brute_add(x, brute_neg(y)))
        assert_same_point(G.neg(x), brute_neg(x))
        assert_same_point(G.neg(x), G.nmul(-1, x))
        for n in range(-7, 8):
            assert_same_point(G.nmul(n, x), brute_nmul(n, x))
        assert _layer_outcome(G.layer_of, x) == _layer_outcome(brute_layer_of, x)
        assert G.sort_key(x) == brute_sort_key(x)


def _sum_windows():
    # the seed-0 report window of Z(2^inf) + Z(3^inf) + Z(2^inf), and one with a rationals summand
    yield ca.sum_sample_window(G.SumGroup((P2, P3, P2)), 200, seed=0)
    yield ca.sum_sample_window(G.SumGroup((P2, Q)), 41, seed=1)


@pytest.mark.parametrize("window", list(_sum_windows()), ids=["sum232", "sum2q"])
def test_sum_window_group_law_matches_isinstance_oracle(window):
    rng = random.Random(26)
    pts = window.points
    for x in pts:
        assert_same_point(G.neg(x), brute_neg(x))
        for n in (-3, 0, 2, 4, 6):
            assert_same_point(G.nmul(n, x), brute_nmul(n, x))
    for _ in range(1500):
        x, y = rng.choice(pts), rng.choice(pts)
        assert_same_point(G.add(x, y), brute_add(x, y))
        assert_same_point(G.add(x, G.neg(x)), x.group.identity())


def test_sum_negation_does_not_recheck_summand_groups(monkeypatch):
    window = next(_sum_windows())
    calls = []
    summand = G.SumGroup.summand

    def counted(self, j):
        calls.append(j)
        return summand(self, j)

    monkeypatch.setattr(G.SumGroup, "summand", counted)
    negated = [G.neg(x) for x in window.points]
    sums = [G.add(x, y) for x, y in zip(window.points, negated)]
    assert calls == []
    assert set(negated) == set(window.points) and all(z.is_identity() for z in sums)
