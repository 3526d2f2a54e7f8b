"""Quadrature verification of the continuous examples on the line and circle.

The half-power endpoint singularities are removed by closed-form
substitution, never by adaptive heuristics: u = sqrt(s) turns the quarter-
circle kernel segment into an analytic integrand that fixed Gauss-Legendre
integrates far below the declared tolerance, and the inner segment

    int_0^t s^(-1/2) (t-s)^(-1/2) ds = pi   for every t in (0,1)

serves as the exactness oracle.  Line integrals use composite Gauss-Legendre
panels plus explicit integral-comparison tail bounds.  Every integral uses
one 32-point rule, GL_NODES and GL_WEIGHTS: the doubles numpy's leggauss(32)
returns, with panel edges computed as numpy's linspace computes them, so the
results are numpy's without importing it.

Mirrored panels: the negative half of the table is built as the exact mirror
of its nonnegative half, so x_i = -x_(n-1-i) and w_i = w_(n-1-i) hold
exactly.  When edges E' are the negated, reversed edges E, panel P-1-k of E'
has exactly the negated midpoint and the half-width of panel k of E, so its
node i is exactly -t_(n-1-i).  If g(-s) == f(s) bit for bit, g on that panel
has the products w_i f(t_i) in reverse order.  beurling_integral builds a
cutoff's panels, as (mid, half) pairs, and whether its edges mirror once per
cutoff (_beurling_edges).  When the builtin is even and the edges mirror,
_beurling_panel evaluates each [0, T] panel's products once and returns
their sum forward and reversed, each times the half-width: the forward sum
is panel_integral's value on that panel, and the reversed one its value on
the mirrored panel, so the left half is the reversed sums in reverse panel
order.  Otherwise each panel of [0, T] and of [-T, 0] returns its forward
sum alone, added as it is built, and no products are kept.  Each half is a
_sum from 0.0 in composite_integral's order, so the value is its two calls'
bit for bit.  log+ v is taken as `v if v > 0.0 else 0.0`, max(0.0, v) (0.0
for -0.0 and NaN) with no call.

Sign split: every panel lies in [0, T] or in [-T, 0], and log reads |t|
with no abs call: as t where mid > 0 and in the mirrored sums (which take
[0, T] panels only), else as 0.0 - t.  Both are abs(t) bit for bit.  With
mid = 0.5 (a + b) and half = 0.5 (b - a) for edges 0 <= a < b, rounding is
monotone, so mid >= half, and |half x_i| <= half as |x_i| < 1; so t = mid +
half x_i >= 0, and a zero t is +0.0 (an exact cancellation, or 0.0 + -0.0,
rounds to +0.0).  For edges a < b <= 0, |mid| >= half in the same way and t
<= 0; 0.0 - t is -t for t < 0 and +0.0 for either zero, so it also serves a
[0, T] panel with mid = 0, whose nodes are all +0.0.  At the cutoffs in use
half is a normal double, so |half x_i| < half and every node is nonzero
with its panel's sign, which the tests check node by node.

The panel sums are memoized per process, keyed on the builtin's log
callable, the log shift, the midpoint, the half-width and whether the
reversed sum is asked for; the cutoff is read as a float, so the midpoint
and the half-width are floats.  The key is the
callable, not the builtin's name: a replaced BUILTINS record brings a new
callable and never reads the sums of the one it replaced.  Cutoffs on one
grid share panels: 50, 100, 200 and 400 all have step 1/2, so each one's
panels are among those of 400.  The memo keeps the PANEL_MEMO most recently
used entries, one or two floats each, which holds one builtin's chain: the
signed builtin's two sides at cutoffs 25 to 400 take 2 * (64 + 800).  The
panel lists of the EDGE_MEMO most recent cutoffs are kept too, so the
builtins at one cutoff build them once.  A hit returns
the floats the miss computed from the same key, so no bit depends on what
the memo held or in which order the cutoffs came.

Float sums: every sum of quadrature terms adds left to right from 0.0 (a
plain loop in panel_integral, _sum elsewhere), never with the builtin sum():
from Python 3.12 sum() of floats uses compensated summation, which rounds
differently, so the integrals, certificates and printed digits would depend
on the interpreter.  The loop is what sum() did up to 3.11, bit for bit.

Error model: Gauss-Legendre on the analytic integrands used here converges
geometrically; the declared tolerance (1e-9 absolute on [0,1]-type
integrals) dominates the quadrature error by orders of magnitude and is
cross-checked against closed forms in the test suite.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from fractions import Fraction
from typing import Callable

from .certificates import MAX_POINTS, Certificate, FAILS, HOLDS, INCONCLUSIVE, Record
from .formulas import BUILTINS, FormulaWeight
from .intervals import Interval
from .rational import PI_LOWER, PI_UPPER

CIRCLE_GRID = 128     # the circle ratio grid k/128, 0 < k < 128
LINE_CUTOFF = 150.0   # line_conv_quadrature integrates over [-150, 150]
LINE_PANELS = 150     # in panels of width 2
PANEL_MEMO = 2048     # the memoized Beurling panels (see Mirrored panels)
EDGE_MEMO = 16        # the memoized panel lists of the Beurling cutoffs

# The nonnegative half of leggauss(32) as node, weight pairs, nodes ascending.
_GL_HALF = [float.fromhex(v) for v in """
    0x1.8bbc8488cc49ap-5 0x1.8b6d9eaec77a3p-4  0x1.27e0ea717f237p-3 0x1.87bc776f8c6ccp-4
    0x1.ea0f7e19c094bp-3 0x1.8062fc0f6fef5p-4  0x1.53d55ce57bdf6p-2 0x1.7572bdb3f6e49p-4
    0x1.af76b57c6f8f1p-2 0x1.6705e18e13ecfp-4  0x1.038862866b29dp-1 0x1.553ee25ebebc3p-4
    0x1.2ce9146962ca4p-1 0x1.40483e126fd0ep-4  0x1.537a89c487f8ap-1 0x1.2854103b35e00p-4
    0x1.76e0931d693bap-1 0x1.0d9b9a62cac04p-4  0x1.96c69481c4bc5p-1 0x1.e0bd76c924984p-5
    0x1.b2e04fd686a13p-1 0x1.a1c6ae961fbeep-5  0x1.caea9b4574cb9p-1 0x1.5ee963a3354abp-5
    0x1.deac0259f7f42p-1 0x1.18c5800a35609p-5  0x1.edf5518053baap-1 0x1.a0060a8531ff0p-6
    0x1.f8a212714bcdcp-1 0x1.0aa3c248696dep-6  0x1.fe995e70409b6p-1 0x1.cbf8bc743ce34p-8
""".split()]
GL_NODES = tuple(-x for x in reversed(_GL_HALF[::2])) + tuple(_GL_HALF[::2])
GL_WEIGHTS = tuple(reversed(_GL_HALF[1::2])) + tuple(_GL_HALF[1::2])
_GL_PAIRS = tuple(zip(GL_NODES, GL_WEIGHTS))


class QuadratureSpec(Record):
    """Absolute tolerance padded onto the quadrature enclosures."""

    tol: float

    def __init__(self, tol: float = 1e-9) -> None:
        object.__setattr__(self, "tol", tol)


def _linspace(a: float, b: float, num: int) -> list[float]:
    """numpy.linspace(a, b, num).tolist() for num >= 2 and a nonzero step."""
    step = (b - a) / (num - 1)
    return [i * step + a for i in range(num - 1)] + [b]


def _sum(values) -> float:
    """Left-to-right float sum from 0.0; see the module docstring."""
    total = 0.0
    for v in values:
        total += v
    return total


def panel_integral(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in zip(GL_NODES, GL_WEIGHTS):
        total += w * f(mid + half * x)
    return half * total


def composite_integral(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    edges = _linspace(a, b, panels + 1)
    return _sum(panel_integral(f, edges[i], edges[i + 1]) for i in range(panels))


# --------------------------------------------------------------------------
# Quarter-power circle weight: u = t^(-1/2)
# --------------------------------------------------------------------------

def beta_segment_quadrature(t: float) -> float:
    """int_0^t s^(-1/2)(t-s)^(-1/2) ds by symmetric split and u = sqrt(s).

    The substituted integrand 4/sqrt(t-u^2) on [0, sqrt(t/2)] is analytic with
    its singularity a fixed relative distance away, so the Gauss-Legendre
    error is uniform in t.
    """
    if not 0 < t < 1:
        raise ValueError("t must lie in (0,1)")
    top = math.sqrt(t / 2.0)
    return 4.0 * panel_integral(lambda u: 1.0 / math.sqrt(t - u * u), 0.0, top)


def wrap_segment_closed(t: float) -> float:
    """int_t^1 s^(-1/2)(1+t-s)^(-1/2) ds = 2[asin(sqrt(s/(1+t)))] from t to 1."""
    c = 1.0 + t
    return 2.0 * (math.asin(math.sqrt(1.0 / c)) - math.asin(math.sqrt(t / c)))


def circle_conv_value(t: float) -> float:
    """(u*u)(t) for u = t^(-1/2) on the circle: pi plus the wrap segment."""
    return math.pi + wrap_segment_closed(t)


def circle_conv_ratio_value(t: float) -> float:
    """(u*u)(t)/u(t) = sqrt(t) (pi + wrap(t)); tends to 0 at 0+ and to pi at 1-."""
    return math.sqrt(t) * circle_conv_value(t)


class RatioResult(Record):
    sup: Interval
    grid_max: float
    argmax: float
    certificate: Certificate

    def __init__(self, sup: Interval, grid_max: float, argmax: float,
                 certificate: Certificate) -> None:
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "grid_max", grid_max)
        object.__setattr__(self, "argmax", argmax)
        object.__setattr__(self, "certificate", certificate)


def circle_conv_ratio(spec: QuadratureSpec = QuadratureSpec()) -> RatioResult:
    """Certified finite enclosure M of sup_t (u*u)(t)/u(t) for u = t^(-1/2).

    Grid maxima give the lower end; on each cell [a,b] the ratio is below
    sqrt(b) (pi + wrap(a)) because the wrap term decreases while sqrt grows,
    so the segment caps give a rigorous upper end.  A weight equivalent to
    u/M is then subconvolutive, making the p=2 circle space an algebra.
    The grid and caps are fixed; spec is not read.
    """
    grid = [k / CIRCLE_GRID for k in range(1, CIRCLE_GRID)]
    grid_max, argmax = 0.0, grid[0]
    for t in grid:
        r = circle_conv_ratio_value(t)
        if r > grid_max:
            grid_max, argmax = r, t
    cells = [0.0] + grid + [1.0]
    cap = 0.0
    for a, b in zip(cells, cells[1:]):
        wrap_a = math.pi if a == 0.0 else wrap_segment_closed(a)
        cap = max(cap, math.sqrt(b) * (math.pi + wrap_a))
    sup = Interval(grid_max * (1.0 - 1e-12), cap * (1.0 + 1e-12))
    payload = {
        "sup_lo": sup.lo, "sup_hi": sup.hi, "argmax": argmax,
        "consequence": "u/M is subconvolutive for any M >= sup, so an "
                       "equivalent weight makes the p=2 circle space an algebra",
    }
    cert = Certificate(prop="conv-ratio", verdict=HOLDS, payload=payload,
                       window={"name": f"circle-grid:1/{CIRCLE_GRID}", "size": CIRCLE_GRID - 1})
    return RatioResult(sup=sup, grid_max=grid_max, argmax=argmax, certificate=cert)


# --------------------------------------------------------------------------
# Euclidean weight on the line
# --------------------------------------------------------------------------

def line_conv_closed_form(t: float) -> float:
    """Self-convolution of 1/(1+s^2) at t, 2 pi / (4 + t^2), in floats."""
    return 2.0 * math.pi / (4.0 + t * t)


def line_conv_quadrature(t: float, spec: QuadratureSpec = QuadratureSpec()) -> Interval:
    """Enclosure of int 1/(1+s^2) 1/(1+(t-s)^2) ds over the line.

    Composite panels on [-S, S], plus the two-sided tail bound
    2 * (S/(S-|t|))^2 * 1/(3 S^3) from 1/(1+(t-s)^2) <= (S/(S-|t|))^2 / s^2.
    No verdict reads it; the tests and the demo check line_conv_closed_form with it.
    """
    if math.isnan(t):  # the guard below refuses an infinite t, but no comparison holds for nan
        raise ValueError("t must be a number, not nan")
    S = LINE_CUTOFF
    if S <= 2 * abs(t) + 4:
        raise ValueError("cutoff too small for the tail bound")

    def f(s: float) -> float:
        d = t - s
        return 1.0 / ((1.0 + s * s) * (1.0 + d * d))

    value = composite_integral(f, -S, S, LINE_PANELS)
    ratio = S / (S - abs(t))
    tail = 2.0 * ratio * ratio / (3.0 * S ** 3)
    return Interval(value - tail - spec.tol, value + tail + spec.tol)


def _round_out(x: Fraction, toward: float) -> float:
    """The double nearest the rational x on the side of toward (-inf or inf)."""
    f = float(x)  # correctly rounded, as int / int is; f and x compare exactly
    return math.nextafter(f, toward) if (f > x if toward < 0 else f < x) else f


def line_conv_ratio(spec: QuadratureSpec = QuadratureSpec(), dim: int = 1) -> RatioResult:
    """Certified enclosure of sup (u*u)/u = (2 pi)^dim for u(t) = 1/(1+t^2) on R^dim.

    (u*u)(t) = 2 pi/(4+t^2) exactly, so the ratio 2 pi (1+t^2)/(4+t^2) stays
    below 2 pi, as (1+t^2)/(4+t^2) < 1, and tends to it as |t| grows; the
    dim-fold product factorizes.  The verdict "holds" is that algebra, with no
    quadrature.  sup_lo is (2 PI_LOWER r)^dim rounded down, r the largest of
    the exact grid ratios (1+t^2)/(4+t^2) at t = -10..10 and argmax its first
    t; sup_hi is (2 PI_UPPER)^dim rounded up.  Raises ValueError unless dim is
    an int >= 1 with a finite sup_hi.  spec is not read.
    """
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"the dimension must be an int >= 1, not {dim!r}")
    hi = (2 * PI_UPPER) ** min(dim, 1024)  # 2 pi > 2: beyond 1024 it only grows past 2^1024
    if hi > sys.float_info.max:
        raise ValueError(f"(2 pi)^{dim} exceeds the largest double")
    grid = range(-10, 11)
    ratios = [Fraction(1 + t * t, 4 + t * t) for t in grid]
    best = max(ratios)
    argmax = float(grid[ratios.index(best)])
    sup = Interval(_round_out((2 * PI_LOWER * best) ** dim, -math.inf), _round_out(hi, math.inf))
    payload = {"sup_lo": sup.lo, "sup_hi": sup.hi, "argmax": argmax, "dim": dim,
               "value_at_zero": line_conv_closed_form(0.0)}
    cert = Certificate(prop="conv-ratio", verdict=HOLDS, payload=payload,
                       window={"name": "line:[-10.0,10.0]", "size": len(grid)})
    return RatioResult(sup=sup, grid_max=sup.lo, argmax=argmax, certificate=cert)


# --------------------------------------------------------------------------
# The Beurling integral on the line
# --------------------------------------------------------------------------

class BeurlingResult(Record):
    integral: Interval
    classification: str
    certificate: Certificate

    def __init__(self, integral: Interval, classification: str, certificate: Certificate) -> None:
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "certificate", certificate)


def _beurling_grid(cutoff) -> tuple[float, int]:
    """The cutoff as a float and the panels per half-line; see beurling_panels."""
    real = isinstance(cutoff, numbers.Real) and not isinstance(cutoff, bool)
    try:
        T = float(cutoff) if real else math.nan
    except OverflowError:  # an int or a Fraction beyond the doubles
        T = math.inf
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"the cutoff must be finite and > 0, not {cutoff!r}")
    panels = max(64, int(2 * T))
    if panels * len(GL_NODES) > MAX_POINTS:
        raise ValueError(f"the cutoff {cutoff!r} needs {panels * len(GL_NODES)} quadrature "
                         f"nodes per integral, more than 2^20")
    return T, panels


def beurling_panels(cutoff: float) -> int:
    """Panels per half-line of beurling_integral at this cutoff.  Raises
    ValueError unless the cutoff is a real number (not a bool), finite and
    > 0 as a double, and the panels hold at most 2^20 nodes (a cutoff of at
    most 16384)."""
    return _beurling_grid(cutoff)[1]


@functools.lru_cache(maxsize=PANEL_MEMO)
def _beurling_panel(log: Callable, shift: float, mid: float, half: float, mirror: bool):
    """half * the sum of w_i log+ w(t_i)/(1+t_i^2) at t_i = mid + half x_i, left
    to right, on a panel of [0, T] or [-T, 0]; with mirror (a [0, T] panel
    only) the pair of it and the sum right to left (see Mirrored panels)."""
    total = 0.0
    if mirror:
        products = []
        for x, g in _GL_PAIRS:
            t = mid + half * x
            v = log(shift, t, t)
            p = g * ((v if v > 0.0 else 0.0) / (1.0 + t * t))
            total += p
            products.append(p)
        return half * total, half * _sum(reversed(products))
    if mid > 0.0:
        for x, g in _GL_PAIRS:
            t = mid + half * x
            v = log(shift, t, t)
            total += g * ((v if v > 0.0 else 0.0) / (1.0 + t * t))
    else:
        for x, g in _GL_PAIRS:
            t = mid + half * x
            v = log(shift, t, 0.0 - t)
            total += g * ((v if v > 0.0 else 0.0) / (1.0 + t * t))
    return half * total


@functools.lru_cache(maxsize=EDGE_MEMO)
def _beurling_edges(cutoff: float, panels: int) -> tuple[tuple, tuple, bool]:
    """The (mid, half) pairs of the panels of [0, T] and of [-T, 0], and
    whether the edges mirror (see Mirrored panels)."""
    def halves(edges: list[float]) -> tuple:
        return tuple((0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(edges, edges[1:]))

    edges = _linspace(0.0, cutoff, panels + 1)
    left_edges = _linspace(-cutoff, 0.0, panels + 1)
    return halves(edges), halves(left_edges), left_edges == [-e for e in reversed(edges)]


def beurling_integral(w: FormulaWeight, cutoff: float = 50.0,
                      spec: QuadratureSpec = QuadratureSpec()) -> BeurlingResult:
    """Enclosure of int_{-T}^{T} log+ w(t)/(1+t^2) dt plus a finite/infinite
    classification of the full integral from the family growth certificate.

    Finite when log+ w(t) = O(log t) (tail comparison with log t/t^2);
    infinite when log w(t) >= c t (or c t / log(e+t)), whose comparison
    integrals diverge.  Unknown families classify as inconclusive.
    """
    if not isinstance(w, FormulaWeight) or w.domain != "real":
        raise ValueError("a builtin line weight is required")
    cutoff, panels = _beurling_grid(cutoff)

    # w.log_eval(t) for a float t, with the record and the shift looked up once
    builtin = BUILTINS[w.name]
    log, shift = builtin.log, w.log_shift()

    right_panels, left_panels, mirrored = _beurling_edges(cutoff, panels)
    if builtin.even and mirrored:
        right = [_beurling_panel(log, shift, mid, half, True) for mid, half in right_panels]
        value = _sum(forward for forward, _ in right) \
            + _sum(backward for _, backward in reversed(right))
    else:
        value = _sum(_beurling_panel(log, shift, mid, half, False) for mid, half in right_panels) \
            + _sum(_beurling_panel(log, shift, mid, half, False) for mid, half in left_panels)
    enclosure = Interval(value - spec.tol, value + spec.tol)

    info = w.growth()
    if info.kind in ("poly", "const"):
        classification = "finite"
        payload = {"tail_comparison": "log t / t^2: convergent",
                   "growth": info.kind, "partial_integral": value}
        verdict = HOLDS
    elif info.kind == "exp":
        classification = "infinite"
        comparison = "t/(t^2 log t): divergent" if info.log_damped else "t/t^2: divergent"
        payload = {"tail_comparison": comparison, "partial_integral": value}
        verdict = FAILS
    elif info.kind == "exp-signed":
        classification = "infinite"
        payload = {"tail_comparison": "positive ray t/t^2: divergent",
                   "partial_integral": value}
        verdict = FAILS
    else:
        classification = "inconclusive"
        payload = {"partial_integral": value, "note": "unknown growth family"}
        verdict = INCONCLUSIVE
    payload["cutoff"] = cutoff
    payload["partial_integral_pad"] = spec.tol  # an estimate: the verdict reads only the growth record
    cert = Certificate(prop="beurling", verdict=verdict, payload=payload)
    return BeurlingResult(integral=enclosure, classification=classification, certificate=cert)
