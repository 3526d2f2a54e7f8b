"""White-box soundness of the truncation tails: every claimed tail bound must
dominate the exact omitted mass, measured by brute force over a much larger
truncation set."""

from fractions import Fraction as F

import pytest

import convalg as ca
from convalg import groups as G
from convalg.weights import _sigma_range_series
from convalg.rational import even_floor, sigma

P2 = G.PrueferGroup(2)
P3 = G.PrueferGroup(3)


@pytest.fixture(scope="module")
def uq():
    return ca.rationals_weight()


def _ball(u, layer, radius):
    return u.group.ball_elements(layer, radius)


def test_rationals_range_tail_dominates_omitted_mass(uq):
    """Points of the cutoff subgroup beyond the ball, out to a larger ball,
    weigh less than the claimed range tail."""
    layer, ball, big = 4, 8, 40
    for value in (F(0), F(1, 2), F(5, 2), F(-17, 6)):
        q = uq.group.element(value)
        omitted = F(0)
        for r in _ball(uq, layer, big):
            if abs(r.value) > ball:
                omitted += uq.eval(r) * uq.eval(G.sub(q, r))
        reach = even_floor(q.value) + 1
        claimed = 2 * uq.mass_up_to(layer) * uq.term(1) * _sigma_range_series(ball, reach)
        assert omitted <= claimed


def test_rationals_layer_tail_dominates_omitted_shells(uq):
    """Shells above the cutoff, restricted to a wide ball, weigh less than
    the claimed layer tail 8 C2 sigma(floor|q|) sum t_j phi_j^2."""
    cutoff, deep, radius = 3, 5, 20
    for value in (F(0), F(1, 2), F(5, 2)):
        q = uq.group.element(value)
        omitted = F(0)
        seen = {r.value for r in _ball(uq, cutoff, radius)}
        for r in _ball(uq, deep, radius):
            if r.value not in seen:
                omitted += uq.eval(r) * uq.eval(G.sub(q, r))
        claimed = uq.sub_constant * sigma(even_floor(q.value)) * uq.sq_tail(cutoff)
        assert omitted <= claimed


def test_rationals_enclosure_contains_deeper_shells(uq):
    """conv_at end to end where the omitted shells outweigh the range tail:
    the partial sum over two more shells lies inside the N3 enclosure."""
    for value in (F(0), F(1, 2), F(5, 2)):
        q = uq.group.element(value)
        iv = ca.conv_at(uq, q, ca.TruncationSpec(layer=3, ball=20))
        deeper = sum(uq.eval(r) * uq.eval(G.sub(q, r)) for r in _ball(uq, 5, 20))
        assert iv.lo <= deeper <= iv.hi


def test_sigma_shell_estimate_direct(uq):
    """The per-shell kernel estimate itself: for one shell j the sum of
    sigma(floor|r|) sigma(floor|q-r|) over U_j within a wide ball stays below
    8 C2 t_j sigma(floor|q|)."""
    j, radius = 3, 60
    t_prev = uq.group.chain_value(j - 1)
    t_j = uq.group.chain_value(j)
    for value in (F(0), F(1, 2), F(5, 2)):
        q = value
        total = F(0)
        for k in range(-radius * t_j, radius * t_j + 1):
            r = F(k, t_j)
            if (r * t_prev).denominator == 1:
                continue  # not in the shell: belongs to the previous subgroup
            total += sigma(even_floor(r)) * sigma(even_floor(q - r))
        assert total <= 8 * uq.c2 * t_j * sigma(even_floor(q))


def scaled(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


@pytest.mark.parametrize("coords", [
    {},
    {1: ("p2", 1, 1)},
    {2: ("p3", 1, 1)},
    {1: ("p2", 1, 2), 2: ("p3", 2, 2)},
    {1: ("p2", 3, 3)},
])
def test_sum_engine_matches_brute_on_varied_points(coords):
    w = ca.direct_sum_weight((scaled(2), scaled(3)))
    g = w.group
    made = {}
    for j, (_, k, n) in coords.items():
        made[j] = g.summand(j).element(k, n)
    x = g.point(made)
    exact = ca.conv_exact(w, x)
    cap = 4
    brute = F(0)
    for a in P2.subgroup_elements(cap):
        for b in P3.subgroup_elements(cap):
            y = g.point({1: a, 2: b})
            brute += w.eval(y) * w.eval(G.sub(x, y))
    assert brute <= exact
    assert exact - brute < F(1, 10 ** 5)
    iv = ca.conv_at(w, x, ca.TruncationSpec(per_summand=(6, 6)))
    assert iv.hi == exact and iv.lo <= exact


def test_submult_sampling_is_seeded_and_deterministic():
    w = ca.algebra_weight(scaled(2), 2)
    window = ca.pruefer_ball_window(P2, 4)  # 256 pairs, sampled down to 100
    c1 = ca.check_submultiplicative(w, window=window, max_pairs=100, seed=5)
    c2 = ca.check_submultiplicative(w, window=window, max_pairs=100, seed=5)
    assert c1 == c2
    assert c1.payload["pairs_checked"] == 100
    assert c1.payload["seed"] == 5


def test_algebra_weight_domar_cap_dominates_partials():
    w = ca.algebra_weight(scaled(2), 2)
    x = P2.element(1, 1)
    label, cert = ca.domar_classify(w, x)
    assert label == "convergent"
    partials = ca.domar_partial(w, x, 50)
    assert float(partials[-1]) <= cert.payload["series_cap"]
