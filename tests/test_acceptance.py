"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Run with `pytest -v tests/test_acceptance.py -s`
to see the lines as they complete."""

import math
import time
from fractions import Fraction as F

import convalg as ca
from convalg import groups as G
from convalg.certificates import FAILS, HOLDS
from convalg.cli import main as cli_main
from convalg.rational import exp_enclosure

P2 = G.PrueferGroup(2)


def scaled(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


def test_acceptance_1_pruefer_suite():
    t0 = time.perf_counter()
    u = ca.pruefer_weight(2)
    assert u.term(1) == F(1, 4)  # phi_n = 4^-n
    iv = ca.conv_at(u, P2.identity(), ca.TruncationSpec(layer=8))
    assert iv.hi == F(15, 112)
    assert ca.conv_exact(u, P2.identity()) == F(15, 112)

    w = ca.scale_for_b(u, 2)
    window = ca.pruefer_ball_window(P2, 4)
    assert len(window.points) == 16
    cert = ca.check_b(w, window, ca.TruncationSpec(layer=8))
    assert cert.verdict == HOLDS
    # independent brute-force oracle over all 16 window points with exact tails
    phi = lambda n: F(1, 4 ** n)
    for x in window.points:
        brute = sum(phi(G.layer_of(y)) * phi(G.layer_of(G.sub(x, y)))
                    for y in P2.subgroup_elements(9))
        brute += F(1, 2) * F(1, 8 ** 10) / (1 - F(1, 8))
        assert brute / 4 <= w.eval(x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: PASS - (u*u)(0) = 15/112 exactly; check_b holds on G4 "
          f"(16 points, N=8, certified tails) in {elapsed:.2f}s < 10s")


def test_acceptance_2_rationals_suite():
    t0 = time.perf_counter()
    c2_interval = ca.sigma_subconvolutive_constant(200)
    ratio0 = ca.sigma_conv_ratio(0, 200)
    target = 1 + math.pi ** 4 / 45
    assert ratio0.contains(F(target))
    assert float(ratio0.width) < 1e-6

    u = ca.rationals_weight()
    assert u.c2 == F(c2_interval.hi)
    assert u.term(2) == F(1, 8)  # phi_n = 1/(n! 2^n)
    bound = 2 * (8 * u.c2) * u.mass()
    window = ca.rationals_ball_window(u.group, 3, 3)
    assert len(window.points) == 37
    cert = ca.check_b(u, window, ca.TruncationSpec(layer=5, ball=12), bound=bound)
    assert cert.verdict == HOLDS
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2: PASS - check_b holds on Q3 within [-3,3] (37 points) "
          f"against u*u <= 2*(8*C2)*mass*u; C2 ratio at m=0 encloses 1+pi^4/45 "
          f"to {float(ratio0.width):.2e}; {elapsed:.2f}s < 60s")


def test_acceptance_3_direct_sum_suite():
    summands = (scaled(2), scaled(3), scaled(2))
    w = ca.direct_sum_weight(summands)
    assert w.coeffs.eps1 == F(1, 60)
    assert w.alphas.values == (F(1, 3), F(1, 9), F(1, 27))

    members = list(range(1, 9))
    subsets = [frozenset(members[i] for i in range(8) if mask >> i & 1)
               for mask in range(2 ** 8)]
    for s in subsets:
        assert 0 < w.coeffs.value(s) <= 1                       # (aone)
    for s in subsets:
        a_s = w.coeffs.value(s)
        for v in subsets:
            assert w.coeffs.value(s | v) <= a_s                 # (aunion)
    worst = max(w.coeffs.split_sum(s) for s in subsets)
    assert worst <= F(1, 4)                                     # (asubset)

    window = ca.sum_sample_window(w.group, 200, seed=0)
    assert len(window.points) == 200
    cert = ca.check_b(w, window, ca.TruncationSpec(per_summand=(6, 6, 6)))
    assert cert.verdict == HOLDS
    print(f"\nACCEPTANCE 3: PASS - coefficient budgets exact on all s,v in 2^8 "
          f"(worst split sum {float(worst):.4f} <= 1/4); check_b holds on the "
          f"200-point sampled window with per-summand layer-6 truncation")


def test_acceptance_4_domar_classifier():
    expected = {"poly2": "convergent", "poly2-exp": "divergent", "poly2-exp-log": "divergent"}
    for name, want in expected.items():
        label, _ = ca.domar_classify(ca.builtin_weight(name), F(1))
        assert label == want, name
    partials = ca.domar_partial(ca.builtin_weight("exp-abs"), F(1), 3)
    assert partials[-1] == F(11, 6)
    print("\nACCEPTANCE 4: PASS - verdicts at x=1: poly2 Convergent, poly2-exp "
          "Divergent, poly2-exp-log Divergent; S_3 for e^|t| = 11/6 exactly")


def test_acceptance_5_beurling_agreement():
    expected = {"poly2": "finite", "poly2-exp": "infinite", "poly2-exp-log": "infinite"}
    for name, want in expected.items():
        res = ca.beurling_integral(ca.builtin_weight(name))
        assert res.classification == want, name
        label, _ = ca.domar_classify(ca.builtin_weight(name), F(1))
        assert (label == "convergent") == (res.classification == "finite")
    print("\nACCEPTANCE 5: PASS - integral classifications finite/infinite/infinite "
          "agree with the series verdicts on all three line weights")


def test_acceptance_6_counterexample_suite():
    seq = ca.build_q_sequence(2)
    assert seq.terms == (2, 220)
    iv = ca.q_fractional_interval(seq, 1)
    assert iv.lo >= F(1, 110) and iv.hi < F(1, 55)
    _, e4_hi = exp_enclosure(F(4))
    assert iv.hi < 1 / e4_hi  # certified {2 alpha} < e^-4
    assert ca.check_q_fractional_bound(seq, 1).verdict == HOLDS
    assert ca.check_q_fractional_bound(seq, 2).verdict == HOLDS

    div = ca.countex_divergence_lower_bound(seq)
    assert div.verdict == HOLDS
    assert [t["term_lower"] for t in div.payload["terms"]] == ["1/4", "1/4"]
    assert div.payload["verified_partial_sum_lower"] == "1/2"

    ratio = ca.circle_conv_ratio()
    assert ratio.sup.hi < float("inf") and ratio.sup.lo <= ratio.sup.hi
    worst = max(abs(ca.beta_segment_quadrature(k / 21.0) - math.pi) for k in range(1, 21))
    assert worst < 1e-9
    print(f"\nACCEPTANCE 6: PASS - q=[2,220]; {{q1 a}} in [1/110, 1/55) and < e^-4 "
          f"by interval arithmetic; per-term bounds >= 1/4 (n=1,2), total >= 1/2; "
          f"conv ratio M <= {ratio.sup.hi:.4f} finite; beta segment = pi to "
          f"{worst:.1e} at 20 grid points")


def test_acceptance_7_euclidean_suite():
    res = ca.line_conv_ratio()
    assert res.certificate.verdict == HOLDS
    # the verdict is certified from the closed form; the quadrature checks that form
    err = 0.0
    for t in map(float, range(-10, 11)):
        iv = ca.line_conv_quadrature(t)
        err = max(err, abs(0.5 * (iv.lo + iv.hi) - ca.line_conv_closed_form(t)))
    assert err < 1e-6
    assert res.sup.lo <= 2 * math.pi <= res.sup.hi
    at0 = ca.line_conv_quadrature(0.0)
    assert at0.lo <= math.pi / 2 <= at0.hi
    print(f"\nACCEPTANCE 7: PASS - quadrature matches 2pi(1+t^2)/(4+t^2) to "
          f"{err:.1e} on [-10,10]; sup encloses 2pi; value at 0 encloses pi/2")


def test_acceptance_8_negative_controls():
    broken = ca.nested_finite_weight(P2, 4)
    cert = ca.check_b(broken, ca.pruefer_ball_window(P2, 3), ca.TruncationSpec(layer=4))
    assert cert.verdict == FAILS and cert.witness == "0/1"

    wq = ca.builtin_weight("circle-quarter")
    sub = ca.check_submultiplicative(wq, pairs=[(F(1, 10), F(1, 10))])
    assert sub.verdict == FAILS and sub.payload["exact_comparison"] is True

    inf_circle = ca.ess_inf_check(wq, ca.circle_grid_window(64))
    assert inf_circle.verdict == FAILS

    uq = ca.rationals_weight()
    wq_alg = ca.scale_for_b(uq, 2 * uq.sub_constant * uq.mass())
    ws = ca.direct_sum_weight((scaled(2), scaled(3), scaled(2)))
    lemma_algebras = [
        (ca.algebra_weight(scaled(2), 2), ca.pruefer_ball_window(P2, 4)),
        (ca.algebra_weight(wq_alg, 2), ca.rationals_ball_window(uq.group, 2, 2)),
        (ca.algebra_weight(ws, 2), ca.sum_sample_window(ws.group, 20, seed=3)),
    ]
    for w, window in lemma_algebras:
        cert = ca.ess_inf_check(w, window)
        assert cert.verdict == HOLDS and cert.payload["global_lower_bound"] > 0
    print("\nACCEPTANCE 8: PASS - increasing-phi weight fails check_b at witness 0; "
          "t^(1/4) fails submultiplicativity at s=t=1/10 (exact) and its infimum "
          "is 0; all lemma-built algebra weights carry positive global bounds")


def test_acceptance_9_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["report", "--out", str(out1), "--no-timestamp"]) == 0
    assert cli_main(["report", "--out", str(out2), "--no-timestamp"]) == 0
    capsys.readouterr()
    b1 = (out1 / "certificates.json").read_bytes()
    b2 = (out2 / "certificates.json").read_bytes()
    assert b1 == b2
    print(f"\nACCEPTANCE 9: PASS - two full-suite runs produced byte-identical "
          f"certificate JSON ({len(b1)} bytes, timestamps excluded)")
