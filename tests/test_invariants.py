"""Cross-cutting invariants: brute-force agreement of the pair checks,
product-weight certificates, verify-bundle determinism."""

import json
from fractions import Fraction as F

import convalg as ca
from convalg import groups as G
from convalg.cli import main as cli_main
from convalg.rational import PI_LOWER, PI_UPPER

P2 = G.PrueferGroup(2)


def scaled(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


def test_submult_exact_mode_agrees_with_brute_oracle_circle():
    # independent oracle: raise both sides to the 4th power, exact rationals
    w = ca.builtin_weight("circle-quarter")
    pts = [F(k, 8) for k in range(1, 8)]
    brute_fail = None
    for s in pts:
        for t in pts:
            if (s + t) % 1 > (s * t) % 1 if False else (s + t) % 1 > s * t:
                brute_fail = (s, t)
                break
        if brute_fail:
            break
    cert = ca.check_submultiplicative(w, window=ca.Window("grid8", tuple(pts)))
    assert (cert.verdict == "fails") == (brute_fail is not None)
    assert brute_fail is not None  # the quarter-power weight does fail here


def test_submult_exact_mode_agrees_with_brute_oracle_line():
    # 1+t^2 is submultiplicative only up to a constant: the literal check
    # fails exactly where 0 < st < 2, e.g. s=2, t=1/2
    w = ca.builtin_weight("poly2")
    pts = [F(k, 2) for k in range(-4, 5)]
    brute_fail = any(1 + (s + t) ** 2 > (1 + s * s) * (1 + t * t)
                     for s in pts for t in pts)
    cert = ca.check_submultiplicative(w, window=ca.Window("grid9", tuple(pts)))
    assert brute_fail and cert.verdict == "fails"
    assert cert.payload["exact_comparison"] is True
    # on a lattice with |st| >= 2 throughout, the literal inequality holds
    far = [F(k) for k in (-4, -3, -2, 2, 3, 4)]
    cert2 = ca.check_submultiplicative(w, window=ca.Window("far-grid", tuple(far)))
    assert cert2.verdict == "holds"


def test_submult_poly2_exp_pairwise_exact():
    # the product family fails at the same small-product pairs and the hook
    # decides each pair exactly through the refining exp enclosure
    w = ca.builtin_weight("poly2-exp")
    assert w.submult_exact(F(2), F(1, 2)) is False
    assert w.submult_exact(F(2), F(-1, 2)) is True   # opposite signs add slack
    assert w.submult_exact(F(3), F(3)) is True
    cert = ca.check_submultiplicative(w, pairs=[(F(2), F(1, 2))])
    assert cert.verdict == "fails"


def product_grid(w):
    R1 = G.RealGroup(1)
    return [w.group.point(R1.element([r]), h)
            for r in (-2.0, -1.0, 0.0, 1.0, 2.0) for h in P2.subgroup_elements(2)]


def test_product_weight_check_b_and_parity():
    uh = scaled(2)
    w = ca.product_weight(ca.euclidean_weight(1), uh)
    window = ca.Window("product-grid", tuple(product_grid(w)))
    assert ca.check_positivity(w, window).verdict == "holds"
    assert ca.check_evenness(w, window).verdict == "holds"
    cert = ca.check_b(w, window, ca.TruncationSpec(layer=8))
    assert cert.verdict == "holds"
    # the Euclidean factor is divided by the rational 2 PI_UPPER above 2 pi
    assert w.real_factor.scale == 1 / (2 * PI_UPPER)
    far = ca.Window("product-far", tuple(
        w.group.point(G.RealGroup(1).element([r]), h)
        for r in (1e9, -1e12) for h in P2.subgroup_elements(2)))
    assert ca.check_b(w, far, ca.TruncationSpec(layer=8)).verdict == "holds"


def test_product_conv_is_the_scaled_product_of_the_factors():
    # oracle: the Euclidean closed form times the discrete factor's enclosure,
    # times scale^2 of the product (rescaled, so a lost scale shows)
    uh = scaled(2)
    w = ca.product_weight(ca.euclidean_weight(1), uh).rescaled(0.5)
    assert w.scale == F(1, 2)
    trunc = ca.TruncationSpec(layer=8)
    for x in product_grid(w):
        (r,) = x.real_part.coords
        real = w.real_factor.scale ** 2 * 2 / (4 + r * r)
        discrete = ca.conv_at(uh, x.discrete_part, trunc)
        iv = ca.conv_at(w, x, trunc)
        assert iv.lo == F(1, 4) * real * PI_LOWER * discrete.lo
        assert iv.hi == F(1, 4) * real * PI_UPPER * discrete.hi


def test_domar_partial_exact_weights_bounded_by_zero():
    # layer weights never exceed 1, so every log+ term vanishes
    w = scaled(2)
    partials = ca.domar_partial(w, P2.element(1, 1), 5)
    assert partials == [0, 0, 0, 0, 0]
    alg = ca.algebra_weight(w, 2)
    partials = ca.domar_partial(alg, P2.element(1, 1), 5)
    assert all(p >= 0 for p in partials)
    assert all(b >= a for a, b in zip(partials, partials[1:]))


def test_verify_bundle_byte_identical_across_runs(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    assert cli_main(["construct", "--group", "pruefer:2", "--out", str(wfile)]) == 0
    b1, b2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli_main(["verify", str(wfile), "--out", str(b1), "--no-timestamp"]) == 0
    assert cli_main(["verify", str(wfile), "--out", str(b2), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert b1.read_bytes() == b2.read_bytes()


def test_window_constructors_are_negation_closed():
    windows = [
        ca.pruefer_ball_window(P2, 4),
        ca.rationals_ball_window(G.RationalsGroup(), 3, 3),
    ]
    for window in windows:
        pts = set(window.points)
        for x in pts:
            assert G.neg(x) in pts
    circle = ca.circle_grid_window(12)
    values = set(circle.points)
    for t in values:
        assert (-t) % 1 in values or (-t) % 1 in circle.ae_excluded
