import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import convalg as ca
from convalg.formulas import BUILTINS
from convalg.intervals import Interval
from convalg.rational import PI_LOWER, PI_UPPER
from convalg.quadrature import (
    GL_NODES,
    GL_WEIGHTS,
    LINE_CUTOFF,
    LINE_PANELS,
    QuadratureSpec,
    _beurling_panel,
    _linspace,
    beurling_panels,
    beta_segment_quadrature,
    circle_conv_ratio_value,
    circle_conv_value,
    composite_integral,
    line_conv_closed_form,
    line_conv_quadrature,
    line_conv_ratio,
    panel_integral,
    wrap_segment_closed,
)

ROOT = Path(__file__).resolve().parent.parent


def wrap_segment_quadrature(t: float) -> float:
    """Cross-check of the wrap segment: u = sqrt(s) and geometric panels
    toward the s=1 end (the nearest singularity sits at s = 1+t)."""
    c = 1.0 + t

    def g(u: float) -> float:
        return 2.0 / math.sqrt(c - u * u)

    lo, hi = math.sqrt(t), 1.0
    edges = [lo]
    remaining = hi - lo
    for _ in range(24):
        remaining *= 0.5
        edges.append(hi - remaining)
    edges.append(hi)
    return sum(panel_integral(g, a, b) for a, b in zip(edges, edges[1:]))


def test_beta_segment_equals_pi_on_grid():
    for k in range(1, 21):
        t = k / 21.0
        assert abs(beta_segment_quadrature(t) - math.pi) < 1e-9


def test_beta_segment_quadrature_converges_with_order():
    assert max(abs(beta_segment_quadrature(k / 11.0) - math.pi)
               for k in range(1, 11)) < 1e-12


def test_wrap_segment_closed_vs_quadrature():
    for t in (0.05, 0.2, 0.5, 0.9):
        assert wrap_segment_closed(t) == pytest.approx(wrap_segment_quadrature(t), abs=1e-9)


def test_circle_conv_limits():
    # conv tends to 2 pi at 0+ and the ratio sqrt(t) * conv tends to 0
    assert circle_conv_value(1e-8) == pytest.approx(2 * math.pi, rel=1e-3)
    assert circle_conv_ratio_value(1e-10) < 1e-4
    # near t=1 the ratio approaches pi from below
    assert circle_conv_ratio_value(1 - 1e-9) == pytest.approx(math.pi, rel=1e-3)


def test_circle_conv_ratio_enclosure():
    res = ca.circle_conv_ratio()
    assert res.sup.lo <= res.sup.hi
    assert res.sup.hi < 2 * math.pi  # finite, well below the crude cap
    # M dominates the ratio at every grid point
    m = 256
    for k in range(1, m):
        assert circle_conv_ratio_value(k / m) <= res.sup.hi
    assert res.certificate.verdict == "holds"


def test_line_conv_quadrature_matches_closed_form():
    # the quadrature is the oracle of the closed form that line_conv_ratio certifies from
    for k in range(-10, 11):
        t = float(k)
        iv = line_conv_quadrature(t)
        closed = line_conv_closed_form(t)
        assert iv.lo <= closed <= iv.hi
        assert abs(0.5 * (iv.lo + iv.hi) - closed) < 1e-6


def test_line_conv_value_at_zero():
    iv = line_conv_quadrature(0.0)
    assert iv.lo <= math.pi / 2 <= iv.hi


def test_line_panel_refinement_reduces_error():
    def f(s):
        return 1.0 / ((1.0 + s * s) * (1.0 + (1.0 - s) ** 2))

    closed = line_conv_closed_form(1.0)
    errs = []
    for panels in (4, 16, 64):
        value = composite_integral(f, -150.0, 150.0, panels)
        errs.append(abs(value - closed))
    assert errs[0] > errs[1] > errs[2]


# pi to 50 decimals: pi lies in [PI_DIGITS, PI_DIGITS + 10^-50]
PI_DIGITS = F("3.14159265358979323846264338327950288419716939937510")
PI_ENCLOSURE = (PI_DIGITS, PI_DIGITS + F(1, 10 ** 50))


def test_line_conv_ratio_encloses_two_pi():
    for dim in (1, 2, 3, 386):  # 386: the largest dim whose (2 pi)^dim is a finite double
        res = ca.line_conv_ratio(dim=dim)
        assert res.certificate.verdict == "holds"
        assert res.grid_max == res.sup.lo
        # as exact rationals of the floats
        assert F(res.sup.lo) <= (2 * PI_ENCLOSURE[0]) ** dim
        assert (2 * PI_ENCLOSURE[1]) ** dim <= F(res.sup.hi)


@pytest.mark.parametrize("dim", [0, -1, True, 1.5, 400, 387])
def test_line_conv_ratio_refuses_dim(dim):
    # 387 is the least dim whose (2 pi)^dim overflows a double
    with pytest.raises(ValueError):
        line_conv_ratio(dim=dim)


def test_beurling_integral_classifications():
    finite = ca.beurling_integral(ca.builtin_weight("poly2"))
    assert finite.classification == "finite"
    assert finite.integral.lo > 0
    for name in ("poly2-exp", "poly2-exp-log"):
        res = ca.beurling_integral(ca.builtin_weight(name))
        assert res.classification == "infinite"
    with pytest.raises(ValueError):
        ca.beurling_integral(ca.builtin_weight("circle-quarter"))


def test_beurling_integral_grows_with_cutoff_for_divergent():
    w = ca.builtin_weight("poly2-exp")
    small = ca.beurling_integral(w, cutoff=25.0)
    large = ca.beurling_integral(w, cutoff=100.0)
    assert large.integral.lo > small.integral.hi


# --------------------------------------------------------------------------
# Mirrored panels: the same double as the two composite sums
# --------------------------------------------------------------------------

def test_gl_table_is_leggauss_32_and_symmetric():
    xs, ws = np.polynomial.legendre.leggauss(32)
    assert [x.hex() for x in GL_NODES] == [x.hex() for x in xs.tolist()]
    assert [w.hex() for w in GL_WEIGHTS] == [w.hex() for w in ws.tolist()]
    assert all(GL_NODES[i] == -GL_NODES[31 - i] for i in range(32))
    assert all(GL_WEIGHTS[i] == GL_WEIGHTS[31 - i] for i in range(32))


LINE_BUILTINS = [name for name, b in BUILTINS.items() if b.domain == "real"]
MIRRORED_CUTOFFS = (12.5, 25.0, 50.0, 100.0, 400.0)
UNMIRRORED_CUTOFFS = (33.3, 1000 / 3)


def _edges_mirror(cutoff: float) -> bool:
    panels = max(64, int(2 * cutoff))
    right = np.linspace(0.0, cutoff, panels + 1).tolist()
    return np.linspace(-cutoff, 0.0, panels + 1).tolist() == [-e for e in reversed(right)]


def _two_sided(w, cutoff: float) -> float:
    """The Beurling partial integral as two composite sums over [0, T] and [-T, 0]."""
    def f(t: float) -> float:
        return max(0.0, w.log_eval(t)) / (1.0 + t * t)

    panels = max(64, int(2 * cutoff))
    return composite_integral(f, 0.0, cutoff, panels) \
        + composite_integral(f, -cutoff, 0.0, panels)


def test_mirror_cutoffs_cover_both_paths():
    assert all(_edges_mirror(c) for c in MIRRORED_CUTOFFS)
    assert not any(_edges_mirror(c) for c in UNMIRRORED_CUTOFFS)
    assert [name for name in LINE_BUILTINS if not BUILTINS[name].even] == ["poly2-exp-signed"]


@pytest.mark.parametrize("scale", [F(1), F(1, 2), F(3)])
@pytest.mark.parametrize("name", LINE_BUILTINS)
def test_beurling_partial_integral_bit_for_bit(name, scale):
    w = ca.builtin_weight(name).rescaled(scale)
    spec = QuadratureSpec()
    for cutoff in MIRRORED_CUTOFFS + UNMIRRORED_CUTOFFS:
        value = ca.beurling_integral(w, cutoff, spec).certificate.payload["partial_integral"]
        assert value.hex() == _two_sided(w, cutoff).hex(), cutoff


@pytest.mark.parametrize("name", LINE_BUILTINS)
def test_beurling_evaluates_log_once_per_mirrored_node_pair(monkeypatch, name):
    record = BUILTINS[name]
    w = ca.builtin_weight(name)
    cutoffs = MIRRORED_CUTOFFS + UNMIRRORED_CUTOFFS
    _beurling_panel.cache_clear()
    for cutoff in cutoffs:  # warm the memo through the builtin's own log
        ca.beurling_integral(w, cutoff)
    calls = []

    def log(s, t, a):
        calls.append(t)
        return record.log(s, t, a)

    monkeypatch.setitem(BUILTINS, name, record.replace(log=log))
    right, left = set(), set()
    for cutoff in cutoffs:
        ca.beurling_integral(w, cutoff)
        panels = beurling_panels(cutoff)
        edges = np.linspace(0.0, cutoff, panels + 1).tolist()
        right |= set(zip(edges, edges[1:]))
        # the left side reads the right side's sums when the sides mirror
        if not (record.even and cutoff in MIRRORED_CUTOFFS):
            edges = np.linspace(-cutoff, 0.0, panels + 1).tolist()
            left |= set(zip(edges, edges[1:]))
    # one call per node of each distinct panel over the whole sequence, none
    # answered from the memo the replaced record filled
    assert len(calls) == len(GL_NODES) * (len(right) + len(left))
    assert sum(t < 0.0 for t in calls) == len(GL_NODES) * len(left)


@pytest.mark.parametrize("scale", [F(1), F(1, 2), F(3)])
@pytest.mark.parametrize("name", LINE_BUILTINS)
def test_beurling_memo_is_order_independent(name, scale):
    w = ca.builtin_weight(name).rescaled(scale)
    ascending = sorted(MIRRORED_CUTOFFS + UNMIRRORED_CUTOFFS)
    expected = [(c, _two_sided(w, c).hex()) for c in ascending]
    shuffled = ascending[:]
    random.Random(0).shuffle(shuffled)
    for order in (ascending, ascending[::-1], shuffled):
        for cold in (True, False):
            if cold:
                _beurling_panel.cache_clear()
            got = {c: ca.beurling_integral(w, c).certificate.payload["partial_integral"].hex()
                   for c in order}
            assert sorted(got.items()) == expected, (order, cold)


@pytest.mark.parametrize("cutoff", [True, False, 10 ** 400, -(10 ** 400), F(10 ** 400, 3),
                                    "50", None, 1j])
def test_beurling_panels_refuses_with_value_error(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        beurling_panels(cutoff)
    with pytest.raises(ValueError, match="cutoff"):
        ca.beurling_integral(ca.builtin_weight("poly2"), cutoff)


def test_beurling_cutoff_is_read_as_a_float():
    w = ca.builtin_weight("poly2-exp-signed")
    payloads = [ca.beurling_integral(w, c).certificate.payload for c in (50, F(50), 50.0)]
    assert all(type(p["cutoff"]) is float for p in payloads)
    assert [repr(p) for p in payloads] == [repr(payloads[2])] * 3


# --------------------------------------------------------------------------
# The line convolution: I(t) and I(-t) from one pass, against one sum per t
# --------------------------------------------------------------------------

def brute_line_conv_quadrature(t: float, spec: QuadratureSpec = QuadratureSpec()) -> Interval:
    """Oracle: one composite_integral of a per-node closure for each t."""
    S = LINE_CUTOFF
    if S <= 2 * abs(t) + 4:
        raise ValueError("cutoff too small for the tail bound")

    def f(s: float) -> float:
        d = t - s
        return 1.0 / ((1.0 + s * s) * (1.0 + d * d))

    value = composite_integral(f, -S, S, max(64, int(S)))
    ratio = S / (S - abs(t))
    tail = 2.0 * ratio * ratio / (3.0 * S ** 3)
    return Interval(value - tail - spec.tol, value + tail + spec.tol)


def _double_below(x: F) -> float:
    """The largest double <= x, checked against its successor."""
    f = float(x)
    while F(f) > x:
        f = math.nextafter(f, -math.inf)
    assert F(math.nextafter(f, math.inf)) > x
    return f


def brute_line_conv_ratio_payload(dim: int) -> dict:
    """line_conv_ratio's payload from exact Fractions: the closed-form ratio
    2 pi (1+t^2)/(4+t^2) over t = -10..10, first maximiser in grid order."""
    best, argmax = None, None
    for t in range(-10, 11):
        ratio = F(1 + t * t) / F(4 + t * t)
        if best is None or ratio > best:
            best, argmax = ratio, float(t)
    return {
        "sup_lo": _double_below((2 * PI_LOWER * best) ** dim),
        "sup_hi": -_double_below(-(2 * PI_UPPER) ** dim),
        "argmax": argmax, "dim": dim,
        "value_at_zero": line_conv_closed_form(0.0),
    }


LINE_POINTS = [float(k) for k in range(-10, 11)] + [0.5, -0.5, 3.25, -3.25, 36.0, -36.0, -0.0]


def test_line_edges_are_their_own_mirror():
    edges = _linspace(-LINE_CUTOFF, LINE_CUTOFF, LINE_PANELS + 1)
    assert LINE_PANELS == max(64, int(LINE_CUTOFF))
    assert edges == [-e for e in reversed(edges)]
    # so panel P-1-k has the negated midpoint and the half-width of panel k
    panels = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(edges, edges[1:])]
    assert panels == [(-mid, half) for mid, half in reversed(panels)]


def _hex(iv: Interval) -> tuple[str, str]:
    return iv.lo.hex(), iv.hi.hex()


@pytest.mark.parametrize("t", LINE_POINTS)
def test_line_conv_quadrature_bit_for_bit(t):
    assert _hex(line_conv_quadrature(t)) == _hex(brute_line_conv_quadrature(t))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_line_conv_ratio_payload_bit_for_bit(dim):
    # repr tells every float bit pattern apart, -0.0 from 0.0 too
    assert repr(line_conv_ratio(dim=dim).certificate.payload) \
        == repr(brute_line_conv_ratio_payload(dim))


@pytest.mark.parametrize("t", [73.0, -73.0, 74.5, -1e3, math.inf])
def test_line_conv_quadrature_guard(t):
    with pytest.raises(ValueError, match="cutoff too small"):
        line_conv_quadrature(t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_line_conv_quadrature_refuses_non_finite_t(t):
    with pytest.raises(ValueError):
        line_conv_quadrature(t)


# --------------------------------------------------------------------------
# The pure-Python panel edges and the numpy-free runtime
# --------------------------------------------------------------------------

def _assert_linspace_matches(a: float, b: float, num: int) -> None:
    assert _linspace(a, b, num) == np.linspace(a, b, num).tolist(), (a, b, num)


def test_linspace_matches_numpy_on_used_cutoffs():
    # beurling's T/4, T/2 and T, report's 50, the benchmark's cutoffs, and
    # the line convolution's [-150, 150] in 150 panels
    cutoffs = {c for T in (7.0, 12.5, 33.3, 50.0, 400.0, 1000.0) for c in (T / 4, T / 2, T)}
    cutoffs |= set(MIRRORED_CUTOFFS + UNMIRRORED_CUTOFFS) | {200.0}
    for cutoff in sorted(cutoffs):
        panels = max(64, int(2 * cutoff))
        _assert_linspace_matches(0.0, cutoff, panels + 1)
        _assert_linspace_matches(-cutoff, 0.0, panels + 1)
    _assert_linspace_matches(-150.0, 150.0, 151)


def test_linspace_matches_numpy_on_random_cutoffs():
    rng = random.Random(0)
    for _ in range(20_000):
        cutoff = 10.0 ** rng.uniform(-3.0, 4.0)
        if rng.random() < 0.5:
            cutoff = round(cutoff, rng.randrange(4)) or cutoff
        panels = rng.randrange(1, 300)
        _assert_linspace_matches(0.0, cutoff, panels + 1)
        _assert_linspace_matches(-cutoff, 0.0, panels + 1)


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, convalg.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
