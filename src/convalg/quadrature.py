"""Quadrature verification of the continuous examples on the line and circle.

The half-power endpoint singularities are removed by closed-form
substitution, never by adaptive heuristics: u = sqrt(s) turns the quarter-
circle kernel segment into an analytic integrand that fixed Gauss-Legendre
integrates far below the declared tolerance, and the inner segment

    int_0^t s^(-1/2) (t-s)^(-1/2) ds = pi   for every t in (0,1)

serves as the exactness oracle.  Line integrals use composite Gauss-Legendre
panels plus explicit integral-comparison tail bounds.

Mirrored panels: numpy's leggauss symmetrizes its output, so its nodes
satisfy x_i = -x_(n-1-i) and its weights w_i = w_(n-1-i) exactly.  When the
edges of [-T, 0] are exactly the negated, reversed edges of [0, T], the
midpoint and half-width of panel P-1-k of the negative side are exactly the
negated midpoint and the half-width of panel k, so its node i is exactly
-t_(n-1-i).  For an even integrand (an even builtin; f(-t) == f(t) bit for
bit) panel P-1-k then has the products w_i f(t_i) of panel k in reverse
order.  beurling_integral evaluates f once per positive panel, sums the
products forward and reversed, and sums the negative panels in their own
order: the same roundings as two composite_integral calls, with half the
evaluations.  The edge test is made on every call, so an odd builtin or a
cutoff whose edges do not mirror takes the two calls.

Error model: Gauss-Legendre on the analytic integrands used here converges
geometrically; the declared tolerances (1e-9 absolute on [0,1]-type
integrals, 1e-6 on ratio suprema) dominate the quadrature error by orders of
magnitude and are cross-checked against closed forms in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .certificates import Certificate, FAILS, HOLDS, INCONCLUSIVE
from .formulas import BUILTINS, FormulaWeight
from .intervals import Interval

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution, domain cutoff, tolerances and panel order."""

    h: Fraction = Fraction(1, 128)
    cutoff: float = 150.0
    tol: float = 1e-9
    ratio_tol: float = 1e-6
    nodes: int = 32


@functools.lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs, ws = np.polynomial.legendre.leggauss(n)
    return tuple(xs.tolist()), tuple(ws.tolist())


def panel_integral(f: Callable[[float], float], a: float, b: float, nodes: int) -> float:
    xs, ws = _gl_nodes(nodes)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * f(mid + half * x) for x, w in zip(xs, ws))


def composite_integral(f: Callable[[float], float], a: float, b: float,
                       panels: int, nodes: int) -> float:
    edges = np.linspace(a, b, panels + 1).tolist()
    return sum(panel_integral(f, edges[i], edges[i + 1], nodes) for i in range(panels))


def _mirrored_composite(f: Callable[[float], float], cutoff: float, panels: int,
                        nodes: int) -> Optional[float]:
    """composite_integral of an even f over [0, T] plus over [-T, 0], with f
    evaluated once per mirrored node pair, or None when the edges of the two
    sides do not mirror exactly (see the module docstring)."""
    # lists, not array comparisons: numpy's comparison ufuncs would map more
    # of its library on first use and raise the peak RSS
    edges = np.linspace(0.0, cutoff, panels + 1).tolist()
    if np.linspace(-cutoff, 0.0, panels + 1).tolist() != [-e for e in reversed(edges)]:
        return None
    xs, ws = _gl_nodes(nodes)
    right, left = [], []
    for a, b in zip(edges, edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        products = [w * f(mid + half * x) for x, w in zip(xs, ws)]
        right.append(half * sum(products))
        left.append(half * sum(reversed(products)))
    return sum(right) + sum(reversed(left))


# --------------------------------------------------------------------------
# Quarter-power circle weight: u = t^(-1/2)
# --------------------------------------------------------------------------

def beta_segment_quadrature(t: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """int_0^t s^(-1/2)(t-s)^(-1/2) ds by symmetric split and u = sqrt(s).

    The substituted integrand 4/sqrt(t-u^2) on [0, sqrt(t/2)] is analytic with
    its singularity a fixed relative distance away, so the Gauss-Legendre
    error is uniform in t.
    """
    if not 0 < t < 1:
        raise ValueError("t must lie in (0,1)")
    top = math.sqrt(t / 2.0)
    return 4.0 * panel_integral(lambda u: 1.0 / math.sqrt(t - u * u), 0.0, top, spec.nodes)


def beta_segment_oracle() -> float:
    """Closed form of the segment: pi, independent of t."""
    return math.pi


def wrap_segment_closed(t: float) -> float:
    """int_t^1 s^(-1/2)(1+t-s)^(-1/2) ds = 2[asin(sqrt(s/(1+t)))] from t to 1."""
    c = 1.0 + t
    return 2.0 * (math.asin(math.sqrt(1.0 / c)) - math.asin(math.sqrt(t / c)))


def wrap_segment_quadrature(t: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Cross-check of the wrap segment: u = sqrt(s) and geometric panels
    toward the s=1 end (the nearest singularity sits at s = 1+t)."""
    if not 0 < t < 1:
        raise ValueError("t must lie in (0,1)")
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
    return sum(panel_integral(g, a, b, spec.nodes) for a, b in zip(edges, edges[1:]))


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
    """
    m = max(16, int(1 / spec.h))
    grid = [k / m for k in range(1, m)]
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
                       window={"name": f"circle-grid:1/{m}", "size": m - 1})
    return RatioResult(sup=sup, grid_max=grid_max, argmax=argmax, certificate=cert)


# --------------------------------------------------------------------------
# Euclidean weight on the line
# --------------------------------------------------------------------------

def line_conv_closed_form(t: float) -> float:
    """Self-convolution of 1/(1+s^2): 2 pi / (4 + t^2)."""
    return TWO_PI / (4.0 + t * t)


def line_conv_quadrature(t: float, spec: QuadratureSpec = QuadratureSpec()) -> Interval:
    """Enclosure of int 1/(1+s^2) 1/(1+(t-s)^2) ds over the line.

    Composite panels on [-S, S], plus the two-sided tail bound
    2 * (S/(S-|t|))^2 * 1/(3 S^3) from 1/(1+(t-s)^2) <= (S/(S-|t|))^2 / s^2.
    """
    S = spec.cutoff
    if S <= 2 * abs(t) + 4:
        raise ValueError("cutoff too small for the tail bound")

    def f(s: float) -> float:
        d = t - s
        return 1.0 / ((1.0 + s * s) * (1.0 + d * d))

    panels = max(64, int(S))
    value = composite_integral(f, -S, S, panels, spec.nodes)
    ratio = S / (S - abs(t))
    tail = 2.0 * ratio * ratio / (3.0 * S ** 3)
    pad = spec.tol
    return Interval(value - tail - pad, value + tail + pad)


def line_conv_ratio(spec: QuadratureSpec = QuadratureSpec(), dim: int = 1) -> RatioResult:
    """Enclosure of sup (u*u)/u for the d=1 rational-decay weight.

    The closed-form ratio 2 pi (1+t^2)/(4+t^2) increases to 2 pi, so the sup
    is exactly 2 pi (and (2 pi)^d for the d-fold product); the grid maximum
    cross-validates the quadrature against the closed form on [-10, 10].
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    grid = [float(t) for t in range(-10, 11)]
    grid_max, argmax = 0.0, grid[0]
    max_quad_error = 0.0
    for t in grid:
        iv = line_conv_quadrature(t, spec)
        mid = 0.5 * (iv.lo + iv.hi)
        closed = line_conv_closed_form(t)
        max_quad_error = max(max_quad_error, abs(mid - closed))
        ratio = mid * (1.0 + t * t)
        if ratio > grid_max:
            grid_max, argmax = ratio, t
    sup1 = Interval(grid_max * (1.0 - 1e-12), TWO_PI * (1.0 + 1e-12))
    sup = Interval(sup1.lo ** dim, sup1.hi ** dim)
    verdict = HOLDS if max_quad_error <= spec.ratio_tol else FAILS
    payload = {
        "sup_lo": sup.lo, "sup_hi": sup.hi, "argmax": argmax, "dim": dim,
        "value_at_zero": line_conv_closed_form(0.0),
        "max_quadrature_error": max_quad_error,
        "tolerance": spec.ratio_tol,
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
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"the cutoff must be finite and > 0, not {cutoff!r}")

    # w.log_eval(t) for a float t, with the record and the shift looked up once
    builtin = BUILTINS[w.name]
    log, shift = builtin.log, w.log_shift()

    def f(t: float) -> float:
        return max(0.0, log(shift, t, abs(t))) / (1.0 + t * t)

    panels = max(64, int(2 * cutoff))
    value = _mirrored_composite(f, cutoff, panels, spec.nodes) if builtin.even else None
    if value is None:
        value = composite_integral(f, 0.0, cutoff, panels, spec.nodes) \
            + composite_integral(f, -cutoff, 0.0, panels, spec.nodes)
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
