import concurrent.futures
import math
import sys
from fractions import Fraction as F
from itertools import accumulate

import pytest

import convalg as ca
from convalg import groups as G
from convalg.domar import CONVERGENT, DIVERGENT
from convalg.formulas import BUILTIN_NAMES, BUILTINS, FormulaWeight


def test_partial_sums_exp_abs_exact():
    w = ca.builtin_weight("exp-abs")
    partials = ca.domar_partial(w, F(1), 3)
    assert partials == [F(1), F(3, 2), F(11, 6)]
    assert all(isinstance(p, F) for p in partials)


def test_partial_sums_monotone():
    for name in ("poly2", "poly2-exp", "poly2-exp-log"):
        partials = ca.domar_partial(ca.builtin_weight(name), F(1), 30)
        assert all(a <= b for a, b in zip(partials, partials[1:]))


def test_partial_sums_identity_orbit():
    w = ca.builtin_weight("const-one")
    assert ca.domar_partial(w, F(0), 5) == [0, 0, 0, 0, 0]


def test_poly2_partials_below_comparison_bound():
    # comparison: log+ w(n) = log(1+n^2) <= log 2 + 2 log n
    partials = ca.domar_partial(ca.builtin_weight("poly2"), F(1), 50)
    cap = sum((math.log(2) + 2 * math.log(max(n, 1))) / n ** 2 for n in range(1, 51))
    assert float(partials[-1]) <= cap


def test_classifier_three_verdicts():
    label, cert = ca.domar_classify(ca.builtin_weight("poly2"), F(1))
    assert label == CONVERGENT and cert.verdict == "holds"
    assert cert.payload["degree"] == 2
    label, cert = ca.domar_classify(ca.builtin_weight("poly2-exp"), F(1))
    assert label == DIVERGENT and cert.verdict == "fails"
    label, cert = ca.domar_classify(ca.builtin_weight("poly2-exp-log"), F(1))
    assert label == DIVERGENT
    assert "log" in cert.payload["term_lower"]


def test_classifier_convergent_cap_dominates_partials():
    label, cert = ca.domar_classify(ca.builtin_weight("poly2"), F(1))
    cap = cert.payload["series_cap"]
    partials = ca.domar_partial(ca.builtin_weight("poly2"), F(1), 200)
    assert float(partials[-1]) <= cap


def test_classifier_identity_orbit():
    label, cert = ca.domar_classify(ca.builtin_weight("poly2-exp"), F(0))
    assert label == CONVERGENT


def test_classifier_character_twist_is_one_sided():
    w = ca.builtin_weight("poly2-exp-signed")
    label, _ = ca.domar_classify(w, F(1))
    assert label == DIVERGENT
    label, _ = ca.domar_classify(w, F(-1))
    assert label == CONVERGENT


def test_classifier_algebra_weight_from_layers():
    u = ca.pruefer_weight(2)
    w = ca.algebra_weight(ca.scale_for_b(u, 2), 2)
    label, cert = ca.domar_classify(w, G.PrueferGroup(2).element(1, 1))
    assert label == CONVERGENT
    assert cert.payload["source"] == "polynomial decay of the base weight"


def test_beurling_agreement_with_domar():
    for name in ("poly2", "poly2-exp", "poly2-exp-log"):
        label, _ = ca.domar_classify(ca.builtin_weight(name), F(1))
        res = ca.beurling_integral(ca.builtin_weight(name))
        assert (label == CONVERGENT) == (res.classification == "finite")


# --------------------------------------------------------------------------
# Oracle: the term-by-term loop domar_partial ran for builtin weights
# --------------------------------------------------------------------------

def _brute_orbit_point(w, x, n):
    if w.domain == "circle":
        return (n * F(x)) % 1
    return n * x


def _brute_log_plus(w, point):
    if w.name == "exp-abs" and w.scale == 1.0 and isinstance(point, (F, int)):
        # the exact log of e^|t| at a rational point
        return max(F(0), abs(F(point)))
    return max(0.0, w.log_eval(point))


def brute_domar_partial(w: FormulaWeight, x, n_max: int) -> list:
    """Each orbit point as a Fraction (or n * x for a float x), its log+ exact
    for e^|t| at scale 1 and from log_eval otherwise, one division and one
    addition per term."""
    partials = []
    total = F(0)
    for n in range(1, n_max + 1):
        point = _brute_orbit_point(w, x, n)
        try:
            term = _brute_log_plus(w, point)
        except (ZeroDivisionError, ValueError) as exc:
            raise ValueError(f"log w is undefined at the orbit point {n}x = {point}") from exc
        if isinstance(term, F):
            term = term / (n * n)
        else:
            term = term / float(n * n)
        total = total + term
        partials.append(total)
    return partials


def _outcome(fn, w, x, n_max):
    """Every partial sum as (repr, type), or the error message."""
    try:
        return [(repr(s), type(s)) for s in fn(w, x, n_max)]
    except ValueError as exc:
        return str(exc)


ORBIT_GENERATORS = (F(1), F(-7, 3), F(5, 2), F(22, 7), F(3, 1501), F(720, 7), F(-1000003, 999983),
                    F(0), 3, -2, 0.1, -2.75, 1e-3)


@pytest.mark.parametrize("scale", [F(1), F(1, 2)])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_domar_partial_matches_term_by_term_loop(name, scale):
    w = ca.builtin_weight(name).rescaled(scale)
    for x in ORBIT_GENERATORS:
        for n_max in (1, 7, 1500):
            assert _outcome(ca.domar_partial, w, x, n_max) == \
                _outcome(brute_domar_partial, w, x, n_max), (x, n_max)


def test_domar_partial_concurrent_calls_equal_the_loop():
    # exact exp-abs partial sums at several orbit generators, run on four threads
    w = ca.builtin_weight("exp-abs")
    xs = [F(1), F(-7, 3), F(5, 2), F(22, 7), F(3, 1501), F(-1000003, 999983), F(720, 7), 3]
    jobs = [(x, n_max) for n_max in (7, 1500, 300) for x in xs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda job: ca.domar_partial(w, *job), jobs))
    assert results == [brute_domar_partial(w, x, n_max) for x, n_max in jobs]


@pytest.mark.parametrize("name, x, message", [
    ("circle-quarter", F(1, 3), "log w is undefined at the orbit point 3x = 0"),
    ("circle-inv-sqrt", F(-7, 3), "log w is undefined at the orbit point 3x = 0"),
    ("circle-quarter", -2.75, "log w is undefined at the orbit point 4x = 0"),
    ("circle-inv-sqrt", 3, "log w is undefined at the orbit point 1x = 0"),
])
def test_domar_partial_circle_error_text(name, x, message):
    w = ca.builtin_weight(name)
    with pytest.raises(ValueError) as exc:
        ca.domar_partial(w, x, 1500)
    assert str(exc.value) == message
    assert _outcome(brute_domar_partial, w, x, 1500) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_exp_abs_partial_stops_at_first_unprintable_sum():
    w, x = ca.builtin_weight("exp-abs"), F(-7, 3)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit, so H_N passes it early
    try:
        sums = brute_domar_partial(w, x, 2000)
        first = next(n for n, s in enumerate(sums, 1)
                     if max(s.numerator, s.denominator) >= 10 ** 640)
        assert ca.domar_partial(w, x, first - 1) == sums[:first - 1]
        assert [str(s) for s in sums[:first - 1]]
        with pytest.raises(ValueError):
            str(sums[first - 1])
        with pytest.raises(ValueError, match=f"S_{first} has more than 640 digits"):
            ca.domar_partial(w, x, 2000)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("n_max", [True, False, 2.5, 10.0, F(10), "10", None, 0, -1, 2 ** 20 + 1])
def test_domar_partial_refuses_n_max(n_max):
    for w, x in ((ca.builtin_weight("exp-abs"), F(1)), (ca.builtin_weight("poly2"), F(1)),
                 (ca.pruefer_weight(2), G.PrueferGroup(2).element(1, 1))):
        with pytest.raises(ValueError, match="n_max"):
            ca.domar_partial(w, x, n_max)


# --------------------------------------------------------------------------
# Oracle: the generator loop of the float orbits, bit for bit
# --------------------------------------------------------------------------

def generator_formula_partial(w: FormulaWeight, value, n_max: int) -> list:
    """The float orbit as domar_partial walked it before its flat loop: a
    generator of orbit points (n * x for a float x on the line), log+ taken
    at abs(t) and divided by float(n * n), every term added."""
    log, shift = BUILTINS[w.name].log, w.log_shift()
    circle = w.domain == "circle"
    ns = range(1, n_max + 1)
    if isinstance(value, float) and not circle:
        points = (n * value for n in ns)
    else:
        a, b = value.as_integer_ratio()
        points = (((n * a) % b) / b for n in ns) if circle else (n * a / b for n in ns)
    partials = []
    total = 0.0
    for n, t in enumerate(points, 1):
        try:
            term = log(shift, t, abs(t))
        except (ZeroDivisionError, ValueError) as exc:
            point = F(n * a, b) % 1 if circle else n * value
            raise ValueError(f"log w is undefined at the orbit point {n}x = {point}") from exc
        total += (term if term > 0.0 else 0.0) / float(n * n)
        partials.append(total)
    return partials


def _hex_outcome(fn, w, x, n_max):
    """Every partial sum as its hex, or the error message."""
    try:
        return [s.hex() for s in fn(w, x, n_max)]
    except ValueError as exc:
        return str(exc)


FLOAT_ORBIT_GENERATORS = {
    "rational": {"real": (F(1), F(-7, 3), F(22, 7), F(-6, 5), F(3, 1501), F(720, 7),
                          F(-1000003, 999983), F(10 ** 300, 7)),
                 "circle": (F(2, 257), F(-7, 3), F(1, 3), F(3, 1501), F(1000001, 999),
                            F(10 ** 400 + 1, 2))},
    "float": (0.1, -2.75, 1e-3, 3.0, -1e300 / 7, 5e-324, 2.5e-310),
}


@pytest.mark.parametrize("kind", sorted(FLOAT_ORBIT_GENERATORS))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_float_orbit_matches_the_generator_loop(name, kind):
    # a rational x on the builtin's line or circle, or a float x; exp-abs at
    # scale 1 sums exactly at a rational x, and scale 1/2 sends it through
    # the float orbit too
    xs = FLOAT_ORBIT_GENERATORS[kind]
    if kind == "rational":
        xs = xs[BUILTINS[name].domain]
    for scale in (F(1), F(1, 2)):
        w = ca.builtin_weight(name).rescaled(scale)
        if w.name == "exp-abs" and w.scale == 1.0 and kind == "rational":
            continue
        for x in xs:
            assert _hex_outcome(ca.domar_partial, w, x, 1500) == \
                _hex_outcome(generator_formula_partial, w, x, 1500), (scale, x)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("x", [F(1), F(-7, 3), F(12, 7), F(3, 1501), F(720, 7)])
def test_exp_abs_partial_matches_the_running_fraction_sum(x):
    w = ca.builtin_weight("exp-abs")
    sums = list(accumulate(abs(x) / n for n in range(1, 2001)))
    assert ca.domar_partial(w, x, 1500) == sums[:1500]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        first = next(n for n, s in enumerate(sums, 1)
                     if max(s.numerator, s.denominator) >= 10 ** 640)
        assert ca.domar_partial(w, x, first - 1) == sums[:first - 1]
        with pytest.raises(ValueError, match=f"S_{first} has more than 640 digits"):
            ca.domar_partial(w, x, 2000)
    finally:
        sys.set_int_max_str_digits(saved)


# --------------------------------------------------------------------------
# Orbits that leave the doubles fail closed
# --------------------------------------------------------------------------

HUGE = F(10 ** 400)
NEAR_MAX = F(3 * 10 ** 308, 2)  # a double; 2x is not


@pytest.mark.parametrize("name", ["poly2", "exp-abs", "poly2-exp", "poly2-exp-log",
                                  "poly2-exp-signed", "const-one"])
def test_line_orbit_beyond_the_doubles_raises_at_its_first_point(name):
    w = ca.builtin_weight(name)
    with pytest.raises(ValueError, match=r"the orbit point 1x = 10{400} lies beyond"):
        ca.domar_partial(w, HUGE, 5)
    if w.growth().kind == "const":  # its certificate does not read x
        assert ca.domar_classify(w, HUGE)[0] == CONVERGENT
    else:
        with pytest.raises(ValueError, match=r"the orbit point 1x = 10{400} lies beyond"):
            ca.domar_classify(w, HUGE)
    assert len(ca.domar_partial(w, NEAR_MAX, 1)) == 1
    with pytest.raises(ValueError, match=r"the orbit point 2x = 3(0){308} lies beyond"):
        ca.domar_partial(w, NEAR_MAX, 2)
    with pytest.raises(ValueError, match=r"the orbit point 2x = -3(0){308} lies beyond"):
        ca.domar_partial(w, -NEAR_MAX, 1500)


def test_orbit_edge_is_the_least_rational_that_overflows():
    # 2^1024 - 2^970 is halfway between the largest double and 2^1024
    w = ca.builtin_weight("poly2")
    edge = 2 ** 1024 - 2 ** 970
    assert float(F(edge - 1)) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(F(edge))
    assert len(ca.domar_partial(w, F(edge - 1, 3), 3)) == 3
    with pytest.raises(ValueError, match="orbit point 3x"):
        ca.domar_partial(w, F(edge, 3), 3)
    with pytest.raises(ValueError, match="finite"):
        ca.domar_partial(w, math.inf, 3)
    with pytest.raises(ValueError, match="finite"):
        ca.domar_partial(w, math.nan, 3)


@pytest.mark.parametrize("name", ["circle-quarter", "circle-inv-sqrt"])
def test_circle_orbit_of_a_huge_generator_is_read_mod_one(name):
    w = ca.builtin_weight(name)
    x = F(10 ** 400 + 1, 2)  # 1/2 mod 1
    assert ca.domar_partial(w, x, 1) == ca.domar_partial(w, F(1, 2), 1)
    assert ca.domar_classify(w, x)[0] == ca.domar_classify(w, F(1, 2))[0]


def test_character_twist_reads_the_sign_of_a_tiny_generator_exactly():
    # float(10^-400) is 0.0, but the positive ray still diverges
    w = ca.builtin_weight("poly2-exp-signed")
    assert ca.domar_classify(w, F(1, 10 ** 400))[0] == DIVERGENT
    assert ca.domar_classify(w, F(-1, 10 ** 400))[0] == CONVERGENT
