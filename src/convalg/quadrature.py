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
has the products w_i f(t_i) in reverse order.  _mirrored_composite evaluates
each panel's products once and sums them forward and reversed: the same
roundings as composite_integral of f over E and of g over E', with half the
evaluations.  beurling_integral takes g = f, an even builtin, on [0, T] and
[-T, 0] when their edges mirror (|t| = t at every node), else it makes the
two calls; the line convolution takes f_t and f_-t on [-S, S], its own
mirror, since -t - (-s) is exactly -(t - s).  log+ v is taken as
`v if v > 0.0 else 0.0`, max(0.0, v) (0.0 for -0.0 and NaN) with no call.

Float sums: every sum of quadrature terms adds left to right from 0.0 (a
plain loop in panel_integral, _sum elsewhere), never with the builtin sum():
from Python 3.12 sum() of floats uses compensated summation, which rounds
differently, so the integrals, certificates and printed digits would depend
on the interpreter.  The loop is what sum() did up to 3.11, bit for bit.

Error model: Gauss-Legendre on the analytic integrands used here converges
geometrically; the declared tolerances (1e-9 absolute on [0,1]-type
integrals, 1e-6 on ratio suprema) dominate the quadrature error by orders of
magnitude and are cross-checked against closed forms in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .certificates import MAX_POINTS, Certificate, FAILS, HOLDS, INCONCLUSIVE
from .formulas import BUILTINS, FormulaWeight
from .intervals import Interval
from .weights import TWO_PI, line_conv_closed_form

CIRCLE_GRID = 128     # the circle ratio grid k/128, 0 < k < 128
LINE_CUTOFF = 150.0   # line_conv_quadrature integrates over [-150, 150]
LINE_PANELS = 150     # in panels of width 2, whose edges mirror exactly
RATIO_TOL = 1e-6      # largest quadrature error line_conv_ratio accepts

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute tolerance padded onto the quadrature enclosures."""

    tol: float = 1e-9


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


def _mirrored_composite(edges: list[float], products_at: Callable) -> tuple[float, float]:
    """composite_integral of f over edges and of g over them mirrored (see Mirrored
    panels); products_at(mid, half) returns a panel's products w_i f(mid + half x_i)."""
    right, left = [], []
    for a, b in zip(edges, edges[1:]):
        half = 0.5 * (b - a)
        products = products_at(0.5 * (a + b), half)
        right.append(half * _sum(products))
        left.append(half * _sum(reversed(products)))
    return _sum(right), _sum(reversed(left))


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


@dataclass(frozen=True)
class RatioResult:
    sup: Interval
    grid_max: float
    argmax: float
    certificate: Certificate


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
        wrap_a = TWO_PI - math.pi if a == 0.0 else wrap_segment_closed(a)
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

def _line_conv_pair(t: float, spec: QuadratureSpec) -> tuple[Interval, Interval]:
    """line_conv_quadrature at t and at -t, one integrand evaluation per node (Mirrored panels)."""
    S = LINE_CUTOFF
    if S <= 2 * abs(t) + 4:
        raise ValueError("cutoff too small for the tail bound")

    def products_at(mid: float, half: float) -> list[float]:
        products = []
        for x, g in zip(GL_NODES, GL_WEIGHTS):
            s = mid + half * x
            d = t - s
            products.append(g * (1.0 / ((1.0 + s * s) * (1.0 + d * d))))
        return products

    ratio = S / (S - abs(t))
    tail = 2.0 * ratio * ratio / (3.0 * S ** 3)
    return tuple(Interval(value - tail - spec.tol, value + tail + spec.tol) for value
                 in _mirrored_composite(_linspace(-S, S, LINE_PANELS + 1), products_at))


def line_conv_quadrature(t: float, spec: QuadratureSpec = QuadratureSpec()) -> Interval:
    """Enclosure of int 1/(1+s^2) 1/(1+(t-s)^2) ds over the line.

    Composite panels on [-S, S], plus the two-sided tail bound
    2 * (S/(S-|t|))^2 * 1/(3 S^3) from 1/(1+(t-s)^2) <= (S/(S-|t|))^2 / s^2.
    """
    return _line_conv_pair(t, spec)[0]


def line_conv_ratio(spec: QuadratureSpec = QuadratureSpec(), dim: int = 1) -> RatioResult:
    """Enclosure of sup (u*u)/u for the d=1 rational-decay weight.

    The closed-form ratio 2 pi (1+t^2)/(4+t^2) increases to 2 pi, so the sup
    is exactly 2 pi (and (2 pi)^d for the d-fold product); the grid maximum
    cross-validates the quadrature against the closed form on [-10, 10].
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    pairs = [_line_conv_pair(float(k), spec) for k in range(11)]
    grid = [float(t) for t in range(-10, 11)]
    grid_max, argmax = 0.0, grid[0]
    max_quad_error = 0.0
    for t in grid:
        iv = pairs[int(abs(t))][t < 0]
        mid = 0.5 * (iv.lo + iv.hi)
        closed = line_conv_closed_form(t)
        max_quad_error = max(max_quad_error, abs(mid - closed))
        ratio = mid * (1.0 + t * t)
        if ratio > grid_max:
            grid_max, argmax = ratio, t
    sup1 = Interval(grid_max * (1.0 - 1e-12), TWO_PI * (1.0 + 1e-12))
    sup = Interval(sup1.lo ** dim, sup1.hi ** dim)
    verdict = HOLDS if max_quad_error <= RATIO_TOL else FAILS
    payload = {
        "sup_lo": sup.lo, "sup_hi": sup.hi, "argmax": argmax, "dim": dim,
        "value_at_zero": line_conv_closed_form(0.0),
        "max_quadrature_error": max_quad_error,
        "tolerance": RATIO_TOL,
    }
    cert = Certificate(prop="conv-ratio", verdict=verdict, payload=payload,
                       window={"name": "line:[-10.0,10.0]", "size": len(grid)})
    return RatioResult(sup=sup, grid_max=grid_max, argmax=argmax, certificate=cert)


# --------------------------------------------------------------------------
# The Beurling integral on the line
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BeurlingResult:
    integral: Interval
    classification: str
    certificate: Certificate


def beurling_panels(cutoff: float) -> int:
    """Panels per half-line of beurling_integral at this cutoff.  Raises
    ValueError unless the cutoff is finite and > 0 and the panels hold at
    most 2^20 nodes (a cutoff of at most 16384)."""
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"the cutoff must be finite and > 0, not {cutoff!r}")
    panels = max(64, int(2 * cutoff))
    if panels * len(GL_NODES) > MAX_POINTS:
        raise ValueError(f"the cutoff {cutoff!r} needs {panels * len(GL_NODES)} quadrature "
                         f"nodes per integral, more than 2^20")
    return panels


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
    panels = beurling_panels(cutoff)

    # w.log_eval(t) for a float t, with the record and the shift looked up once
    builtin = BUILTINS[w.name]
    log, shift = builtin.log, w.log_shift()

    edges = _linspace(0.0, cutoff, panels + 1)
    if builtin.even and _linspace(-cutoff, 0.0, panels + 1) == [-e for e in reversed(edges)]:
        def products_at(mid: float, half: float) -> list[float]:
            products = []
            for x, g in zip(GL_NODES, GL_WEIGHTS):
                t = mid + half * x
                v = log(shift, t, t)
                products.append(g * ((v if v > 0.0 else 0.0) / (1.0 + t * t)))
            return products

        value = _sum(_mirrored_composite(edges, products_at))
    else:
        def f(t: float) -> float:
            v = log(shift, t, abs(t))
            return (v if v > 0.0 else 0.0) / (1.0 + t * t)

        value = composite_integral(f, 0.0, cutoff, panels) \
            + composite_integral(f, -cutoff, 0.0, panels)
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
    cert = Certificate(prop="beurling", verdict=verdict, payload=payload)
    return BeurlingResult(integral=enclosure, classification=classification, certificate=cert)
