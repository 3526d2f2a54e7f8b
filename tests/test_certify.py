import math
import random
from fractions import Fraction as F

import pytest

import convalg as ca
from convalg import groups as G
from convalg.certificates import FAILS, HOLDS, INCONCLUSIVE, Certificate, window_info
from convalg.certify import _num
from convalg.rational import parse_rational
from convalg.serialize import canonical_dumps, certificate_to_json, point_to_json

P2 = G.PrueferGroup(2)


def scaled(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


def test_check_b_holds_scaled_pruefer():
    w = scaled(2)
    cert = ca.check_b(w, ca.pruefer_ball_window(P2, 4), ca.TruncationSpec(layer=8))
    assert cert.verdict == HOLDS
    assert cert.payload["max_ratio"] == "309/448"


def test_check_b_brute_agreement_on_window():
    # brute oracle: exact convolution values over all 16 points vs per-point rhs
    w = scaled(2)
    for x in P2.subgroup_elements(4):
        assert ca.conv_exact(w, x) <= w.eval(x)


def test_check_b_raw_bound_form():
    u = ca.pruefer_weight(2)
    cert = ca.check_b(u, ca.pruefer_ball_window(P2, 4), ca.TruncationSpec(layer=8),
                      bound=2 * u.mass())
    assert cert.verdict == HOLDS
    # raw literal subconvolutivity fails strictly away from layer 1
    cert2 = ca.check_b(u, ca.pruefer_ball_window(P2, 4), ca.TruncationSpec(layer=8))
    assert cert2.verdict == FAILS
    assert cert2.witness is not None


def test_check_b_broken_weight_fails_with_witness():
    w = ca.nested_finite_weight(P2, 4)
    cert = ca.check_b(w, ca.pruefer_ball_window(P2, 3), ca.TruncationSpec(layer=4))
    assert cert.verdict == FAILS
    assert cert.witness == "0/1"
    assert F(*map(int, cert.payload["conv_lower"].split("/"))) > F(*map(int, cert.payload["rhs"].split("/")))


def test_check_b_inconclusive_when_tail_straddles():
    u = ca.rationals_weight()
    window = ca.rationals_ball_window(u.group, 2, 2)
    trunc = ca.TruncationSpec(layer=4, ball=6)
    ratios = []
    for x in window.points:
        iv = ca.conv_at(u, x, trunc)
        ratios.append((iv.lo / u.eval(x), iv.hi / u.eval(x), x))
    lo_max = max(r[0] for r in ratios)
    hi_at = max(r[1] for r in ratios if r[0] == lo_max)
    # a bound strictly between the largest certified lower ratio and that
    # point's upper ratio cannot be decided at this truncation
    bound = (lo_max + hi_at) / 2
    cert = ca.check_b(u, window, trunc, bound=bound)
    assert cert.verdict == INCONCLUSIVE
    assert cert.payload["undecided_count"] >= 1


def test_check_b_refinement_never_flips_holds():
    u = ca.rationals_weight()
    window = ca.rationals_ball_window(u.group, 2, 2)
    bound = 2 * u.sub_constant * u.mass()
    coarse = ca.check_b(u, window, ca.TruncationSpec(layer=3, ball=6), bound=bound)
    fine = ca.check_b(u, window, ca.TruncationSpec(layer=5, ball=12), bound=bound)
    assert coarse.verdict == HOLDS
    assert fine.verdict == HOLDS


def far_line_window():
    R1 = G.RealGroup(1)
    return ca.Window("far-line", tuple(R1.element([t])
                                       for t in (0.0, 1e9, -1e9, 1e12, -1e12, 1e3)))


def test_check_b_euclidean_over_the_double_two_pi_is_not_certified():
    # the double 2*math.pi lies below 2 pi, so u/(2*math.pi) is not
    # subconvolutive far out: at t = 1e9 its ratio (u*u)/u is
    # (pi/math.pi)(1+t^2)/(4+t^2) = 1 + 3.6e-17, which PI_LOWER and PI_UPPER
    # cannot decide
    u = ca.scale_for_b(ca.euclidean_weight(1), 2 * math.pi)
    cert = ca.check_b(u, far_line_window(), ca.TruncationSpec())
    assert cert.verdict == INCONCLUSIVE
    assert cert.payload["undecided_points"] == [[f"{t}/1"] for t in
                                                (10 ** 9, -10 ** 9, 10 ** 12, -10 ** 12)]


def test_check_b_euclidean_over_its_bound_holds_exactly():
    u = ca.euclidean_weight(1)
    cert = ca.check_b(ca.scale_for_b(u, u.b_bound), far_line_window(), ca.TruncationSpec())
    assert cert.verdict == HOLDS
    # over (2 PI_UPPER) the ratio is (1+t^2)/(4+t^2), largest at the farthest point
    assert parse_rational(cert.payload["max_ratio"]) == F(1 + 10 ** 24, 4 + 10 ** 24)


def test_positivity_and_evenness_constructed():
    w = scaled(2)
    window = ca.pruefer_ball_window(P2, 4)
    assert ca.check_positivity(w, window).verdict == HOLDS
    assert ca.check_evenness(w, window).verdict == HOLDS


def test_positivity_circle_quarter_fails_at_zero():
    w = ca.builtin_weight("circle-quarter")
    window = ca.circle_grid_window(16, include_zero=True)
    cert = ca.check_positivity(w, window)
    assert cert.verdict == FAILS
    assert cert.witness == "0/1"
    assert cert.payload.get("ae_exclusion_available") is True
    # with a.e. semantics the origin is excluded and recorded
    window2 = ca.circle_grid_window(16)
    cert2 = ca.check_positivity(w, window2)
    assert cert2.verdict == HOLDS
    assert cert2.payload["ae_excluded"] == ["0/1"]


def test_rationals_evenness_window():
    u = ca.rationals_weight()
    cert = ca.check_evenness(u, ca.rationals_ball_window(u.group, 3, 3))
    assert cert.verdict == HOLDS


def test_poly_decay_certificates():
    u2 = ca.pruefer_weight(2)
    cert = ca.check_poly_decay(u2, P2.element(1, 1), 12)
    assert cert.verdict == HOLDS
    assert cert.payload["degree"] == 0
    uq = ca.rationals_weight()
    cert = ca.check_poly_decay(uq, uq.group.element(F(1, 2)), 20)
    assert cert.verdict == HOLDS
    assert cert.payload["degree"] == 2
    assert cert.payload["constant"] == "8/1"
    ws = ca.direct_sum_weight((scaled(2), scaled(3)))
    x = ws.group.point({1: P2.element(1, 1)})
    cert = ca.check_poly_decay(ws, x, 12)
    assert cert.verdict == HOLDS
    assert cert.payload["degree"] == 0
    with pytest.raises(ValueError):
        ca.check_poly_decay(u2, P2.element(1, 1), 5)


def test_poly_decay_increasing_control_bounds_the_whole_orbit():
    # phi_n = 2^n on the Prüfer-13 chain increases: 13 x drops x = 1/169 to
    # layer 1, where 1/u = 1/2, so C comes from phi_1 = 2, not phi_2 = 4
    g = G.PrueferGroup(13)
    u = ca.nested_finite_weight(g, 26)
    x = g.element(1, 2)
    cert = ca.check_poly_decay(u, x, 13)
    assert cert.verdict == HOLDS and cert.payload["constant"] == "1/2"
    assert 1 / u.eval(G.nmul(13, x)) == F(1, 2) > 1 / u.eval(x)


def test_poly_decay_without_provenance_is_inconclusive():
    w = ca.builtin_weight("poly2")
    cert = ca.check_poly_decay(ca.AlgebraWeight(base=scaled(2), p=F(2)), P2.element(1, 1), 12)
    assert cert.verdict == INCONCLUSIVE
    assert cert.payload["rigorous"] is False


def test_submultiplicative_exact_modes():
    we = ca.builtin_weight("exp-abs")
    grid = ca.line_grid_window(-3, 3, F(1, 2))
    cert = ca.check_submultiplicative(we, window=grid)
    assert cert.verdict == HOLDS and cert.payload["exact_comparison"] is True

    wq = ca.builtin_weight("circle-quarter")
    cert = ca.check_submultiplicative(wq, pairs=[(F(1, 10), F(1, 10))])
    assert cert.verdict == FAILS
    # w(1/5) = (1/5)^(1/4) > (1/10)^(1/2) = w(1/10)^2
    assert cert.payload["exact_comparison"] is True


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_submultiplicative_samples_pairs_by_index(seed):
    # 1 + t^2 is not submultiplicative, so the witness is the first failing
    # pair in sample order: it must be the pair the all-pairs list samples
    w = ca.builtin_weight("poly2")
    grid = ca.line_grid_window(-5, 5, F(1, 2))
    all_pairs = [(s, t) for s in grid.points for t in grid.points]
    sampled = random.Random(seed).sample(all_pairs, 50)
    first = next((s, t) for s, t in sampled if w.eval(s + t) > w.eval(s) * w.eval(t))
    cert = ca.check_submultiplicative(w, window=grid, max_pairs=50, seed=seed)
    assert cert.verdict == FAILS
    assert cert.witness == [point_to_json(first[0]), point_to_json(first[1])]


def test_windows_and_truncations_refuse_unbounded_or_empty_work():
    too_many = pytest.raises(ValueError, match="2\\^20")
    with too_many:
        ca.pruefer_ball_window(G.PrueferGroup(37), 4)
    with too_many:
        ca.pruefer_ball_window(G.PrueferGroup(1031), 2)  # 1031^2 > 2^20
    with too_many:
        ca.rationals_ball_window(G.RationalsGroup(), 10, 1)
    with too_many:
        ca.sum_sample_window(G.SumGroup((P2,)), 2 ** 20 + 1)
    with too_many:
        ca.domar_partial(ca.builtin_weight("poly2"), 1, 2 ** 20 + 1)
    too_deep = pytest.raises(ValueError, match="2\\^10")
    with too_deep:
        ca.TruncationSpec(layer=2 ** 10 + 1)
    # the rationals range B has the layer cap: its sigma sums are quadratic in B
    for ball in (2 ** 10 + 1, 2 ** 20):
        with too_deep:
            ca.TruncationSpec(layer=5, ball=ball)
    assert ca.TruncationSpec(layer=5, ball=2 ** 10).ball == 2 ** 10
    with too_deep:
        ca.TruncationSpec(per_summand=(6, 2 ** 10 + 1))
    with too_deep:
        ca.sum_sample_window(G.SumGroup((P2,)), 20, layer_cap=2 ** 10 + 1)
    # a cutoff below 1 is never the truncation the engines sum over
    for spec in ({"layer": 0}, {"ball": 0}, {"per_summand": (6, 0)},
                 {"per_summand": (-3, -3)}):
        with pytest.raises(ValueError, match="below 1"):
            ca.TruncationSpec(**spec)
    with pytest.raises(ValueError, match="layer cap"):
        ca.sum_sample_window(G.SumGroup((P2,)), 5, seed=1, layer_cap=0)
    # a cutoff is an int: a float or a Fraction would reach the shell terms, and a
    # bool would be read as 0 or 1
    for bad in (6.0, F(13, 2), F(6), True, False, "6", 2.5):
        for spec in ({"layer": bad}, {"layer": 5, "ball": bad}, {"per_summand": (6, bad)}):
            with pytest.raises(ValueError, match="not an int"):
                ca.TruncationSpec(**spec)
        with pytest.raises(ValueError, match="layer cap"):
            ca.sum_sample_window(G.SumGroup((P2,)), 5, seed=1, layer_cap=bad)
    # conv_at refuses at the spec, not from inside the shell terms
    with pytest.raises(ValueError, match="not an int"):
        ca.conv_at(scaled(2), P2.element(1, 2), ca.TruncationSpec(layer=6.0))
    for bound in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="bound"):
            ca.check_b(scaled(2), ca.pruefer_ball_window(P2, 2), ca.TruncationSpec(layer=4),
                       bound=bound)
    # an empty window would let every check hold vacuously
    for make in (lambda: ca.pruefer_ball_window(P2, -1),
                 lambda: ca.rationals_ball_window(G.RationalsGroup(), 3, 0),
                 lambda: ca.sum_sample_window(G.SumGroup((P2,)), 0)):
        with pytest.raises(ValueError):
            make()
    assert len(ca.pruefer_ball_window(G.PrueferGroup(7), 4)) == 7 ** 4


def test_submultiplicative_algebra_weight_ultrametric():
    w = ca.algebra_weight(scaled(2), 2)
    window = ca.pruefer_ball_window(P2, 3)
    cert = ca.check_submultiplicative(w, window=window)
    assert cert.verdict == HOLDS
    # brute all-pairs oracle on the 8-point window via the exact base transform
    u = w.base
    for s in window.points:
        for t in window.points:
            assert u.eval(G.add(s, t)) >= u.eval(s) * u.eval(t)


def test_submultiplicative_float_pairs_are_inconclusive():
    # at float points poly2 has no exact hook, so each pair is compared in floats
    w = ca.builtin_weight("poly2")
    assert w.submult_exact(2.0, 3.0) is None
    far = ca.Window("far-floats", tuple(float(k) for k in (-4, -3, -2, 2, 3, 4)))
    cert = ca.check_submultiplicative(w, window=far)
    assert cert.verdict == INCONCLUSIVE
    assert cert.payload["rigorous"] is False and cert.payload["exact_comparison"] is False
    assert cert.payload["float_pairs"] == 36 and cert.payload["float_failures"] == 0
    # a failing float comparison is no exact witness either
    near = ca.check_submultiplicative(w, pairs=[(2.0, 0.5)])
    assert near.verdict == INCONCLUSIVE and near.payload["float_failures"] == 1
    # an exact failure after float pairs still fails, with its exact witness
    mixed = ca.check_submultiplicative(w, pairs=[(2.0, 0.5), (F(2), F(1, 2))])
    assert mixed.verdict == FAILS and mixed.payload["exact_comparison"] is True
    assert mixed.witness == [point_to_json(F(2)), point_to_json(F(1, 2))]
    # w = c u^(-1/q) with c != 1 is no exact transform of u: w(0) = 8^(1/2)/4 < 1,
    # so w(0 + 0) > w(0)^2 although u(0) = 1/8 >= u(0)^2
    quartered = ca.algebra_weight(scaled(2), 2).rescaled(0.25)
    cert = ca.check_submultiplicative(quartered, window=ca.pruefer_ball_window(P2, 2))
    assert cert.verdict == INCONCLUSIVE and cert.payload["float_failures"] > 0


def brute_submultiplicative(w, window, max_pairs=4096, seed=0):
    """check_submultiplicative on an algebra weight over an exact base as three
    u.eval per pair, compared as Fractions."""
    pts, u = window.points, w.base
    n = len(pts)
    if n * n > max_pairs:
        pairs = [(pts[k // n], pts[k % n]) for k in random.Random(seed).sample(range(n * n), max_pairs)]
    else:
        pairs = [(s, t) for s in pts for t in pts]
    for s, t in pairs:
        if u.eval(G.add(s, t)) < u.eval(s) * u.eval(t):
            payload = {"lhs": _num(w.eval(G.add(s, t))), "rhs": _num(w.eval(s) * w.eval(t)),
                       "pair": [point_to_json(s), point_to_json(t)], "exact_comparison": True}
            return Certificate(prop="submultiplicative", verdict=FAILS, payload=payload,
                               window=window_info(window), witness=payload["pair"])
    payload = {"pairs_checked": len(pairs), "exact_comparison": True, "seed": seed}
    return Certificate(prop="submultiplicative", verdict=HOLDS, payload=payload,
                       window=window_info(window))


def _algebra_pruefer_case(p):
    return ca.algebra_weight(scaled(p), 2), ca.pruefer_ball_window(G.PrueferGroup(p), 3)


def _algebra_rationals_case():
    w = ca.algebra_weight(_rationals_scaled(), 2)
    return w, ca.rationals_ball_window(w.descriptor, 2, 2)


def _algebra_sum_case():
    w = ca.algebra_weight(ca.direct_sum_weight((scaled(2), scaled(3))), 2)
    return w, ca.sum_sample_window(w.descriptor, 200, seed=0)


def _algebra_broken_case():
    # the increasing control carries no certificate, so algebra_weight refuses it
    return ca.AlgebraWeight(base=ca.nested_finite_weight(P2, 4), p=F(2)), ca.pruefer_ball_window(P2, 3)


# name -> (algebra weight, window)
SUBMULT_CASES = {
    "pruefer2-G3": lambda: _algebra_pruefer_case(2),
    "pruefer3-G3": lambda: _algebra_pruefer_case(3),
    # 64^2 pairs, exactly the default max_pairs: the largest window decided whole
    "pruefer2-G6": lambda: (ca.algebra_weight(scaled(2), 2), ca.pruefer_ball_window(P2, 6)),
    "rationals-Q2:2": _algebra_rationals_case,
    "sum23-sample200": _algebra_sum_case,
    "broken-fails": _algebra_broken_case,
}


@pytest.mark.parametrize("name", sorted(SUBMULT_CASES))
def test_submultiplicative_table_matches_three_evals_per_pair(name):
    w, window = SUBMULT_CASES[name]()
    fast = ca.check_submultiplicative(w, window=window)
    brute = brute_submultiplicative(w, window)
    assert canonical_dumps(certificate_to_json(fast)) == canonical_dumps(certificate_to_json(brute))
    assert fast.verdict == (FAILS if name == "broken-fails" else HOLDS)


@pytest.mark.parametrize("name", ["pruefer3-G3", "rationals-Q2:2"])
def test_submultiplicative_evaluates_the_base_once_per_shell_class(monkeypatch, name):
    w, window = SUBMULT_CASES[name]()
    calls = []
    evaluate = ca.WeightFn.eval

    def counted(self, x):
        if self is w.base:
            calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(ca.WeightFn, "eval", counted)
    cert = ca.check_submultiplicative(w, window=window)
    assert cert.verdict == HOLDS and cert.payload["pairs_checked"] == len(window.points) ** 2
    points = {z for s in window.points for t in window.points for z in (s, t, G.add(s, t))}
    keys = [w.base.shell_key(x) for x in calls]
    assert len(keys) == len(set(keys)) and set(keys) == {w.base.shell_key(z) for z in points}
    assert len(calls) < len(points)


def test_weight_equivalence_examples():
    u = ca.pruefer_weight(2)
    window = ca.pruefer_ball_window(P2, 3)
    cert = ca.weight_equivalence(u, u.rescaled(F(1, 3)), window)
    assert cert.payload["c1"] == "3/1" and cert.payload["c2"] == "3/1"
    # constant pinch (c, c) for random positive rational rescales
    import random
    rng = random.Random(21)
    for _ in range(25):
        c = F(rng.randrange(1, 400), rng.randrange(1, 400))
        cert = ca.weight_equivalence(u.rescaled(c), u, window)
        assert cert.payload["c1"] == cert.payload["c2"] == f"{c.numerator}/{c.denominator}"

    import math
    w1 = ca.builtin_weight("poly2")
    w2 = ca.builtin_weight("poly2-exp-signed")
    cert = ca.weight_equivalence(w1, w2, ca.line_grid_window(-5, 5, F(1, 2)))
    assert cert.payload["c1"] == pytest.approx(math.exp(-5))
    assert cert.payload["c2"] == pytest.approx(math.exp(5))


def test_ess_inf_suite():
    w = ca.algebra_weight(scaled(2), 2)
    cert = ca.ess_inf_check(w, ca.pruefer_ball_window(P2, 4))
    assert cert.verdict == HOLDS
    assert cert.payload["global_lower_bound"] > 0

    wq = ca.builtin_weight("circle-quarter")
    cert = ca.ess_inf_check(wq, ca.circle_grid_window(64))
    assert cert.verdict == FAILS
    assert cert.witness == "t->0+"

    one = ca.builtin_weight("const-one")
    cert = ca.ess_inf_check(one, ca.circle_grid_window(16))
    assert cert.verdict == HOLDS
    assert cert.payload["window_min"] == 1.0


def test_ess_inf_all_lemma_algebra_weights():
    uq = ca.rationals_weight()
    wq = ca.scale_for_b(uq, 2 * uq.sub_constant * uq.mass())
    ws = ca.direct_sum_weight((scaled(2), scaled(3), scaled(2)))
    cases = [
        (ca.algebra_weight(scaled(2), 2), ca.pruefer_ball_window(P2, 4)),
        (ca.algebra_weight(wq, 2), ca.rationals_ball_window(uq.group, 2, 2)),
        (ca.algebra_weight(ws, 2), ca.sum_sample_window(ws.group, 20, seed=3)),
    ]
    for w, window in cases:
        cert = ca.ess_inf_check(w, window)
        assert cert.verdict == HOLDS
        assert cert.payload["global_lower_bound"] > 0


def test_sum_sample_window_properties():
    ws = ca.direct_sum_weight((scaled(2), scaled(3), scaled(2)))
    window = ca.sum_sample_window(ws.group, 200, seed=0)
    assert len(window.points) == 200
    pts = set(window.points)
    assert all(G.neg(x) in pts for x in pts)
    # deterministic for a fixed seed
    again = ca.sum_sample_window(ws.group, 200, seed=0)
    assert window.points == again.points
    # the draws for Pruefer-only sums are pinned: seeded windows and report
    # bundles depend on them
    assert [point_to_json(x) for x in window.points[:2]] == [
        {"1": "1/2", "2": "1/27", "3": "1/4"}, {"1": "1/2", "2": "4/9", "3": "1/4"}]
    assert [point_to_json(x) for x in window.points[-2:]] == [{"3": "13/16"}, {"3": "15/16"}]


def test_sum_sample_window_with_rationals_summand():
    uq = ca.rationals_weight()
    wq = ca.scale_for_b(uq, 2 * uq.sub_constant * uq.mass())
    ws = ca.direct_sum_weight((scaled(2), wq))
    window = ca.sum_sample_window(ws.group, 21, seed=1)
    assert len(window.points) == 21
    pts = set(window.points)
    assert all(G.neg(x) in pts for x in pts)
    coords = [x.coord(2).value for x in window.points if 2 in x.support()]
    assert coords
    assert all(abs(q) <= 3 and (q * 24).denominator == 1 for q in coords)
    # the rationals draws are pinned too: the k-th draw is the k-th ball point
    assert [point_to_json(x) for x in window.points[:2]] == [{}, {"1": "1/2", "2": "-1/12"}]
    assert [point_to_json(x) for x in window.points[-2:]] == [{"2": "7/12"}, {"2": "17/24"}]
    assert window.points == ca.sum_sample_window(ws.group, 21, seed=1).points
    cert = ca.check_b(ws, window, ca.TruncationSpec(per_summand=(6, 6)))
    assert cert.verdict == HOLDS


# --------------------------------------------------------------------------
# check_b evaluates one point per shell class: the per-point loop as oracle
# --------------------------------------------------------------------------

def brute_check_b(u, window, trunc, bound=F(1)):
    """check_b as a per-point loop: one conv_at and one eval per window point."""
    inconclusive = []
    max_ratio = None
    for x in window.points:
        iv = ca.conv_at(u, x, trunc, require_tail=False)
        rhs = bound * u.eval(x)
        if iv.hi is not None and iv.hi <= rhs:
            ratio = iv.hi / rhs
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
            continue
        if iv.lo > rhs:
            payload = {
                "bound": _num(bound),
                "conv_lower": _num(iv.lo),
                "conv_upper": _num(iv.hi) if iv.hi is not None else None,
                "rhs": _num(rhs),
            }
            return Certificate(prop="subconvolutive", verdict=FAILS, payload=payload,
                               window=window_info(window), truncation=trunc.describe(),
                               witness=point_to_json(x))
        inconclusive.append(x)
    if inconclusive:
        payload = {
            "bound": _num(bound),
            "undecided_points": [point_to_json(x) for x in inconclusive[:8]],
            "undecided_count": len(inconclusive),
            "note": "tail bound too coarse at the listed points; refine the truncation",
        }
        return Certificate(prop="subconvolutive", verdict=INCONCLUSIVE, payload=payload,
                           window=window_info(window), truncation=trunc.describe())
    payload = {"bound": _num(bound), "max_ratio": _num(max_ratio)}
    return Certificate(prop="subconvolutive", verdict=HOLDS, payload=payload,
                       window=window_info(window), truncation=trunc.describe())


def _straddle(u, window, trunc):
    """A bound between the largest lower ratio conv_lo/u and the largest upper
    ratio: no point fails, and the point of the largest upper ratio is undecided."""
    ratios = []
    for x in window.points:
        iv = ca.conv_at(u, x, trunc)
        ratios.append((iv.lo / u.eval(x), iv.hi / u.eval(x)))
    lo, hi = max(r[0] for r in ratios), max(r[1] for r in ratios)
    assert lo < hi
    return (lo + hi) / 2


def _rationals_scaled():
    uq = ca.rationals_weight()
    return ca.scale_for_b(uq, uq.b_bound)


def _sum_232():
    return ca.direct_sum_weight((scaled(2), scaled(3), scaled(2)))


def _sum_2q():
    return ca.direct_sum_weight((scaled(2), _rationals_scaled()))


def _pruefer_case(p, n, raw):
    u = ca.pruefer_weight(p) if raw else scaled(p)
    return u, ca.pruefer_ball_window(u.group, n), ca.TruncationSpec(layer=8), F(1)


def _broken_case(bound):
    u = ca.nested_finite_weight(P2, 4)
    return u, ca.pruefer_ball_window(P2, 3), ca.TruncationSpec(layer=4), bound


def _rationals_case(layer, ball, bound):
    u = _rationals_scaled()
    window = ca.rationals_ball_window(u.group, 3, 3)
    trunc = ca.TruncationSpec(layer=layer, ball=ball)
    return u, window, trunc, _straddle(u, window, trunc) if bound is None else bound


def _sum_case(make, size, seed, cutoffs, bound):
    u = make()
    window = ca.sum_sample_window(u.group, size, seed=seed)
    trunc = ca.TruncationSpec(per_summand=cutoffs)
    return u, window, trunc, _straddle(u, window, trunc) if bound is None else bound


# name -> (weight, window, truncation, bound); a bound of None straddles the
# enclosures, so the case is inconclusive
B_CASES = {
    **{f"pruefer{p}-G{n}{'-raw' if raw else ''}": (lambda p=p, n=n, raw=raw: _pruefer_case(p, n, raw))
       for p in (2, 3) for n in range(2, 6) for raw in (False, True)},
    "broken-fails": lambda: _broken_case(F(1)),
    "broken-no-tail": lambda: _broken_case(F(2 ** 20)),
    **{f"rationals-Q3:3-N{n},B{b}-bound{bound}": (lambda n=n, b=b, bound=bound:
                                                  _rationals_case(n, b, bound))
       for n, b in ((3, 6), (5, 12)) for bound in (F(1), F(1, 100), None)},
    **{f"sum232-L{c}-bound{bound}": (lambda c=c, bound=bound:
                                     _sum_case(_sum_232, 200, 0, (c,) * 3, bound))
       for c in (6, 1) for bound in (F(1), F(1, 1000), None)},
    **{f"sum2q-L{c}-bound{bound}": (lambda c=c, bound=bound:
                                    _sum_case(_sum_2q, 41, 1, (c,) * 2, bound))
       for c in (6, 1) for bound in (F(1), F(1, 1000), None)},
}


@pytest.mark.parametrize("name", sorted(B_CASES))
def test_check_b_matches_per_point_oracle(name):
    u, window, trunc, bound = B_CASES[name]()
    fast = ca.check_b(u, window, trunc, bound=bound)
    brute = brute_check_b(u, window, trunc, bound=bound)
    assert canonical_dumps(certificate_to_json(fast)) == canonical_dumps(certificate_to_json(brute))


def test_check_b_oracle_cases_reach_every_verdict():
    verdicts = {ca.check_b(u, window, trunc, bound=bound).verdict
                for u, window, trunc, bound in (make() for make in B_CASES.values())}
    assert verdicts == {HOLDS, FAILS, INCONCLUSIVE}


@pytest.mark.parametrize("name", sorted(B_CASES) + [f"algebra-{n}" for n in sorted(SUBMULT_CASES)])
def test_shell_key_contract(name):
    # equal keys: equal values and equal enclosures.  Windows are closed under
    # negation and x, -x share a key, so this includes conv_at(u, x) ==
    # conv_at(u, -x) on the rationals, where the key is |q|.  An algebra
    # weight has no self-convolution, so there only the values are compared.
    if name.startswith("algebra-"):
        (u, window), trunc = SUBMULT_CASES[name.removeprefix("algebra-")](), None
    else:
        u, window, trunc, _ = B_CASES[name]()
    classes: dict = {}
    for x in window.points:
        assert u.shell_key(G.neg(x)) == u.shell_key(x)
        iv = None if trunc is None else ca.conv_at(u, x, trunc, require_tail=False)
        classes.setdefault(u.shell_key(x), set()).add((u.eval(x), iv))
    assert all(len(seen) == 1 for seen in classes.values())
    assert len(classes) < len(window.points)


def test_check_b_evaluates_one_point_per_shell_class(monkeypatch):
    calls = []

    def counting(u, x, trunc, **kw):
        calls.append(x)
        return ca.conv_at(u, x, trunc, **kw)

    monkeypatch.setattr(ca.certify, "conv_at", counting)
    cert = ca.check_b(scaled(2), ca.pruefer_ball_window(P2, 4), ca.TruncationSpec(layer=8))
    assert cert.verdict == HOLDS
    assert sorted(map(G.layer_of, calls)) == [1, 2, 3, 4]


# --------------------------------------------------------------------------
# Class-wise positivity and ess-inf against per-point loops
# --------------------------------------------------------------------------

def brute_positivity(u, window):
    """check_positivity as a per-point loop: one eval per window point."""
    excluded = set(window.ae_excluded)
    payload: dict = {}
    if excluded:
        payload["ae_excluded"] = [_num(p) for p in window.ae_excluded]
        payload["note"] = "listed points excluded under almost-everywhere semantics"
    for x in window.points:
        if x not in excluded and u.eval(x) <= 0:
            payload["value"] = _num(u.eval(x))
            if isinstance(u, ca.FormulaWeight) and x in u.zero_points():
                payload["ae_exclusion_available"] = True
            return Certificate(prop="positivity", verdict=FAILS, payload=payload,
                               window=window_info(window), witness=point_to_json(x))
    return Certificate(prop="positivity", verdict=HOLDS, payload=payload,
                       window=window_info(window))


def brute_ess_inf(w, window):
    """ess_inf_check with its window minimum taken over every window point."""
    excluded = set(window.ae_excluded)
    window_min = argmin = None
    for x in window.points:
        if x not in excluded and (window_min is None or w.eval(x) < window_min):
            window_min, argmin = w.eval(x), x
    payload = {"window_min": _num(window_min), "argmin": point_to_json(argmin)}
    info = window_info(window)
    if isinstance(w, ca.AlgebraWeight) and w.global_lower_bound() is not None \
            and w.global_lower_bound() > 0:
        payload.update(global_lower_bound=w.global_lower_bound(),
                       source="algebra weight of a bounded base")
        return Certificate(prop="ess-inf", verdict=HOLDS, payload=payload, window=info)
    if isinstance(w, ca.FormulaWeight):
        if w.global_min() is not None and w.global_min() > 0:
            payload["global_lower_bound"] = w.global_min()
            return Certificate(prop="ess-inf", verdict=HOLDS, payload=payload, window=info)
        if w.global_min() == 0.0:
            payload.update(essential_infimum=0.0, note="infimum approached near the origin")
            return Certificate(prop="ess-inf", verdict=FAILS, payload=payload, window=info,
                               witness="t->0+")
    if isinstance(w, (ca.LayerWeight, ca.RationalsLayerWeight, ca.DirectSumWeight)):
        payload["note"] = "shell values tend to 0 along deep shells; infimum is 0"
        return Certificate(prop="ess-inf", verdict=FAILS, payload=payload, window=info,
                           witness="deep shells")
    payload["note"] = "no provenance bound; window minimum only"
    return Certificate(prop="ess-inf", verdict=INCONCLUSIVE, payload=payload, window=info)


class SignedLayerWeight(ca.LayerWeight):
    """Test-only weight that is negative on layer 3 and positive elsewhere; its
    shell key is still the layer, which fixes its value."""

    def raw_eval(self, x):
        return super().raw_eval(x) * (-1 if G.layer_of(x) == 3 else 1)


def _window_cases():
    for name, make in B_CASES.items():
        if "-bound" not in name or name.endswith("bound1"):  # one case per weight and window
            u, window, _, _ = make()
            yield name, u, window
    for name, make in SUBMULT_CASES.items():
        yield f"algebra-{name}", *make()
    yield "pruefer2-G4-zero", scaled(2).rescaled(0), ca.pruefer_ball_window(P2, 4)
    yield "pruefer2-G5-signed", SignedLayerWeight(group=P2, s=F(1, 2)), ca.pruefer_ball_window(P2, 5)
    for name in ("circle-quarter", "circle-inv-sqrt", "const-one"):
        yield f"{name}-circle16", ca.builtin_weight(name), ca.circle_grid_window(16)
    for name in ("circle-quarter", "const-one"):
        yield f"{name}-circle16-zero", ca.builtin_weight(name), ca.circle_grid_window(16, True)
    yield "poly2-line", ca.builtin_weight("poly2"), ca.line_grid_window(-5, 5, F(1, 2))


WINDOW_CASES = {name: (u, window) for name, u, window in _window_cases()}


@pytest.mark.parametrize("name", sorted(WINDOW_CASES))
def test_positivity_and_ess_inf_match_per_point_oracles(name):
    u, window = WINDOW_CASES[name]
    for fast, brute in ((ca.check_positivity, brute_positivity), (ca.ess_inf_check, brute_ess_inf)):
        assert canonical_dumps(certificate_to_json(fast(u, window))) == \
            canonical_dumps(certificate_to_json(brute(u, window)))


def test_window_oracle_cases_reach_every_verdict():
    positivity = {ca.check_positivity(u, window).verdict for u, window in WINDOW_CASES.values()}
    ess_inf = {ca.ess_inf_check(u, window).verdict for u, window in WINDOW_CASES.values()}
    assert positivity == {HOLDS, FAILS} and ess_inf == {HOLDS, FAILS, INCONCLUSIVE}
    assert ca.check_positivity(*WINDOW_CASES["pruefer2-G5-signed"]).witness == \
        point_to_json(P2.element(1, 3))


def test_positivity_and_ess_inf_evaluate_one_point_per_shell_class(monkeypatch):
    calls = []
    evaluate = ca.WeightFn.eval

    def counted(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(ca.WeightFn, "eval", counted)
    window = ca.pruefer_ball_window(P2, 4)
    assert ca.check_positivity(scaled(2), window).verdict == HOLDS
    # layer 1 holds the identity and 1/2; the window is sorted by k/p^n
    assert calls == [P2.identity(), P2.element(1, 2), P2.element(1, 3), P2.element(1, 4)]
    calls.clear()
    w = ca.algebra_weight(scaled(2), 2)
    cert = ca.ess_inf_check(w, window)
    # w = u^(-1/2) grows with the layer, so its minimum is first attained at the identity
    assert cert.verdict == HOLDS and cert.payload["argmin"] == point_to_json(P2.identity())
    # each class once on w, and once more on its base through w.eval
    assert len(calls) == 8 and len(set(calls)) == 4


def test_undefined_points_raise_value_error_naming_the_point():
    # u(0) of t^(-1/2) is no value at all, so there is no exact witness to fail with
    u, window = ca.builtin_weight("circle-inv-sqrt"), ca.circle_grid_window(16, include_zero=True)
    for check in (ca.check_positivity, ca.ess_inf_check, ca.check_evenness):
        with pytest.raises(ValueError, match="undefined at 0/1"):
            check(u, window)


# --------------------------------------------------------------------------
# Evenness and submultiplicativity decide each symmetric pair once
# --------------------------------------------------------------------------

def brute_evenness(u, window):
    """check_evenness as a per-point loop: x and -x evaluated at every point."""
    for x in window.points:
        if u.eval(x) != u.eval(u.point_neg(x)):
            payload = {"value": _num(u.eval(x)), "value_at_neg": _num(u.eval(u.point_neg(x)))}
            return Certificate(prop="evenness", verdict=FAILS, payload=payload,
                               window=window_info(window), witness=point_to_json(x))
    return Certificate(prop="evenness", verdict=HOLDS, payload={}, window=window_info(window))


def _base_case(name):
    w, window = SUBMULT_CASES[name]()
    return w.base, window


def _evenness_cases():
    # each algebra case's base over the same window, then the algebra weight
    for name in ("pruefer2-G3", "pruefer3-G3", "rationals-Q2:2", "sum23-sample200"):
        yield name, lambda name=name: _base_case(name)
        yield f"algebra-{name}", SUBMULT_CASES[name]
    grid = ca.line_grid_window(-2, 2, F(1, 2))
    yield "poly2-line", lambda: (ca.builtin_weight("poly2"), grid)
    yield "poly2-exp-signed-line", lambda: (ca.builtin_weight("poly2-exp-signed"), grid)
    yield "circle-quarter-circle16", lambda: (ca.builtin_weight("circle-quarter"),
                                              ca.circle_grid_window(16))
    # 1/16 .. 11/16: the negations of 1/16 .. 4/16 lie outside the window
    yield "const-one-circle-head", lambda: (ca.builtin_weight("const-one"),
                                            ca.Window("circle-head", ca.circle_grid_window(16).points[:11]))
    yield "pruefer2-G4-head", lambda: (scaled(2), ca.Window("G4-head", ca.pruefer_ball_window(P2, 4).points[:11]))


EVENNESS_CASES = dict(_evenness_cases())


@pytest.mark.parametrize("name", sorted(EVENNESS_CASES))
def test_evenness_matches_per_point_oracle(name):
    u, window = EVENNESS_CASES[name]()
    assert canonical_dumps(certificate_to_json(ca.check_evenness(u, window))) == \
        canonical_dumps(certificate_to_json(brute_evenness(u, window)))


def test_evenness_oracle_cases_reach_both_verdicts():
    verdicts = {name: ca.check_evenness(*make()) for name, make in EVENNESS_CASES.items()}
    assert {name for name, cert in verdicts.items() if cert.verdict == FAILS} == \
        {"poly2-exp-signed-line", "circle-quarter-circle16"}
    assert verdicts["poly2-exp-signed-line"].witness == point_to_json(F(-2))
    # negation on the circle is taken mod 1, so 1/16 meets 15/16
    assert verdicts["circle-quarter-circle16"].witness == point_to_json(F(1, 16))


@pytest.mark.parametrize("name", ["pruefer2-G3", "pruefer3-G3", "rationals-Q2:2", "sum23-sample200",
                                  "algebra-pruefer2-G3", "poly2-line", "circle-quarter-circle16"])
def test_evenness_evaluates_each_window_point_once(monkeypatch, name):
    # each window here is closed under negation
    u, window = EVENNESS_CASES[name]()
    calls = []
    evaluate = ca.WeightFn.eval

    def counted(self, x):
        if self is u:
            calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(ca.WeightFn, "eval", counted)
    assert ca.check_evenness(u, window).verdict == (FAILS if name.startswith("circle") else HOLDS)
    if name.startswith("circle"):  # fails at its first point, 1/16, after u(1/16) and u(15/16)
        assert calls == [F(1, 16), F(15, 16)]
    else:
        assert sorted(calls, key=repr) == sorted(window.points, key=repr)


def test_submultiplicative_adds_each_unordered_pair_once(monkeypatch):
    adds = []
    add = G.add

    def counted(s, t):
        adds.append((s, t))
        return add(s, t)

    monkeypatch.setattr(G, "add", counted)
    w, window = ca.algebra_weight(scaled(2), 2), ca.pruefer_ball_window(P2, 4)
    n = len(window.points)
    cert = ca.check_submultiplicative(w, window=window)
    assert cert.verdict == HOLDS and cert.payload["pairs_checked"] == n * n
    assert len(adds) == n * (n + 1) // 2
    adds.clear()
    # a sampled window still adds every sampled ordered pair
    cert = ca.check_submultiplicative(w, window=window, max_pairs=100)
    assert cert.verdict == HOLDS and cert.payload["pairs_checked"] == 100 and len(adds) == 100


def test_submultiplicative_full_window_names_the_first_failing_pair_in_row_order():
    # 1 + (s+t)^2 <= (1+s^2)(1+t^2) iff 2st <= (st)^2, false for 0 < st < 2
    w, grid = ca.builtin_weight("poly2"), ca.line_grid_window(-2, 2, F(1, 2))
    first = next((s, t) for s in grid.points for t in grid.points
                 if 1 + (s + t) ** 2 > (1 + s * s) * (1 + t * t))
    cert = ca.check_submultiplicative(w, window=grid)
    assert cert.verdict == FAILS and cert.payload["exact_comparison"] is True
    assert cert.witness == [point_to_json(first[0]), point_to_json(first[1])]
    assert cert.payload["lhs"] == w.eval(first[0] + first[1])


def test_submultiplicative_float_counts_take_mirrors_and_self_inverse_points():
    # 0.0 is its own negation and pairs with itself once; every other pair
    # stands for itself and its mirror
    w = ca.builtin_weight("poly2")
    window = ca.Window("floats", (-3.0, 0.0, 0.5, 3.0))
    cert = ca.check_submultiplicative(w, window=window)
    fails = sum(not w.eval(s + t) <= w.eval(s) * w.eval(t)
                for s in window.points for t in window.points)
    assert cert.verdict == INCONCLUSIVE and cert.payload["pairs_checked"] == 16
    assert cert.payload["float_pairs"] == 16 and cert.payload["float_failures"] == fails == 3

