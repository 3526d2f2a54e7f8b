"""Truncated self-convolution with certified tail bounds.

For a discrete exact weight u the engine encloses

    (u*u)(x) = sum_y u(y) u(x-y)

by an exact partial sum over a finite truncation set plus a tail bound read
off the construction's closed form.  Tails never come from extrapolation.

The constructions are constant on the shells of a subgroup chain (and, on
the rationals, on the unit intervals of floor|q|), so partial sums are
counts over shells rather than enumerations of group elements:

* layer weights: for x in shell n <= N the sum over the cutoff subgroup G_N
  is sum_{j<n} 2 |U_j| phi_j phi_n + (|U_n| - |G_{n-1}|) phi_n^2
  + sum_{n<j<=N} |U_j| phi_j^2, in O(N) for any shell values.  Outside G_N
  both factors sit in the same shell, so the omitted mass is exactly
  sum_{j>N} |U_j| phi_j^2, which the geometric default families sum in
  closed form (the enclosure's upper end is then the exact value, which
  conv_exact reads);
* rationals: write each truncation point as m + j/t_N.  The layers of j/t_N
  and q - j/t_N, floor(q - j/t_N), whether q - j/t_N is an integer and
  whether j = 0 fix every factor up to the sigma kernel in m, so the j fall
  into a few classes, each summing sigma(floor|r|) sigma(floor|q-r|) over m
  once.  Tails: a layer tail 8 C2 sigma(floor|q|) sum_{j>N} t_j phi_j^2 plus
  a range tail from grouping the remote points into unit intervals, each
  carrying at most the full per-interval mass, with an integral-comparison
  cap on the remaining sigma series;
* direct sums: the sum factorizes over coordinate patterns into per-summand
  self-convolutions, evaluated recursively with their own tails.  Patterns
  are grouped by the pinned set C of the support and the loop set E of the
  complement; the two point-term patterns on P = support \\ C share one
  product and differ only in the subset coefficients, which add up to
  K(P, C u E) = sum_{A subset P} a_{C u E u A} a_{C u E u (P \\ A)}
  (`SubsetCoeffs.pair_sum`), so a point takes 2^|support| 2^|complement|
  terms instead of 3^|support| 2^|complement|;
* Euclidean factors: the closed-form self-convolution of 1/(1+t^2).

Every partial sum is the same exact rational the element-by-element sum
gives.  The engine is pure and weights are immutable, so concurrent calls
are safe.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from . import groups as G
from .certificates import MAX_POINTS, TruncationSpec
from .intervals import Interval
from .rational import even_floor, sigma
from .weights import (
    DirectSumWeight,
    EuclideanWeight,
    LayerWeight,
    ProductWeight,
    RationalsLayerWeight,
    WeightFn,
)


class TailUnavailableError(ValueError):
    """No closed-form tail is available for this weight's provenance."""


DEFAULT_LAYER_CUTOFF = 8
DEFAULT_BALL_CUTOFF = 12
_RANGE_SERIES_TERMS = 32


def conv_exact(u: WeightFn, x) -> Optional[Fraction]:
    """Closed-form value of (u*u)(x) where every tail is exactly geometric:
    the upper end of conv_at's enclosure is then the exact value."""
    if not _tails_geometric(u):
        return None
    if isinstance(u, LayerWeight):
        return conv_at(u, x, TruncationSpec(layer=G.layer_of(x))).hi
    return conv_at(u, x, TruncationSpec(per_summand=(1,) * len(u.summands))).hi


def _tails_geometric(u: WeightFn) -> bool:
    if isinstance(u, LayerWeight):
        return u.phi.geometric_tails
    return isinstance(u, DirectSumWeight) and all(map(_tails_geometric, u.summands))


def conv_at(u: WeightFn, x, trunc: TruncationSpec, *,
            require_tail: bool = True) -> Interval:
    """Enclosure of (u*u)(x): exact partial sum plus provenance tail bound.

    With require_tail=False a weight without certifiable tails yields an
    unbounded enclosure [partial, None] instead of raising; the partial sum
    is still an exact lower bound, enough to disprove an inequality.
    """
    if isinstance(u, LayerWeight):
        iv = _conv_layer(u, x, trunc, require_tail)
    elif isinstance(u, RationalsLayerWeight):
        iv = _conv_rationals(u, x, trunc, require_tail)
    elif isinstance(u, DirectSumWeight):
        iv = _conv_sum(u, x, trunc)
    elif isinstance(u, EuclideanWeight):
        iv = Interval.point(euclidean_conv_value(u, x))
    elif isinstance(u, ProductWeight):
        left = conv_at(u.real_factor, x.real_part, trunc)
        right = conv_at(u.discrete_factor, x.discrete_part, trunc,
                        require_tail=require_tail)
        iv = left.mul_nonneg(right).scale_nonneg(u.scale * u.scale)
    else:
        raise TailUnavailableError(
            f"self-convolution needs a discrete exact or Euclidean weight, got {type(u).__name__}")
    if require_tail and iv.hi is None:
        raise TailUnavailableError("no closed-form tail available for this provenance")
    return iv


def euclidean_conv_value(u: EuclideanWeight, x) -> float:
    """(u*u)(x) = prod_i 2 pi / (4 + x_i^2), scaled."""
    value = 1.0
    for c in x.coords:
        value *= 2.0 * math.pi / (4.0 + c * c)
    return u.scale * u.scale * value


# --------------------------------------------------------------------------
# Layer weights
# --------------------------------------------------------------------------

def _layer_partial(u: LayerWeight, n: int, cutoff: int) -> Fraction:
    """sum_{y in G_cutoff} phi(layer y) phi(layer(x-y)) for x in shell n <= cutoff.

    y in a lower shell j puts x-y in shell n, and so does x-y for y in shell
    n with x-y in G_{n-1}: twice |U_j| phi_j phi_n.  The other y in shell n
    leave x-y in shell n; y in a higher shell puts x-y in the same shell.
    """
    group, term = u.group, u.phi.term
    phi_n = term(n)
    total = Fraction(0)
    for j in range(1, n):
        total += 2 * group.shell_size(j) * term(j) * phi_n
    prev = 0 if n == 1 else group.layer_size(n - 1)
    total += (group.shell_size(n) - prev) * phi_n ** 2
    for j in range(n + 1, cutoff + 1):
        total += u.sq_term(j)
    return total


def _conv_layer(u: LayerWeight, x, trunc: TruncationSpec, require_tail: bool) -> Interval:
    cutoff = trunc.layer if trunc.layer is not None else DEFAULT_LAYER_CUTOFF
    n = G.layer_of(x)
    if n > cutoff:
        raise ValueError("truncation cutoff must reach the layer of x")
    scale_sq = u.scale * u.scale
    partial = scale_sq * _layer_partial(u, n, cutoff)
    try:
        tail = scale_sq * u.sq_tail(cutoff)
    except ValueError:
        if require_tail:
            raise TailUnavailableError("no closed-form tail available for this provenance")
        return Interval(partial, None)
    return Interval(partial, partial + tail)


# --------------------------------------------------------------------------
# Rationals
# --------------------------------------------------------------------------

def _sigma_range_series(ball: int, shift: int) -> Fraction:
    """Upper bound on sum_{k >= ball} sigma(k) sigma(max(1, k - shift))."""
    total = Fraction(0)
    for k in range(ball, ball + _RANGE_SERIES_TERMS):
        total += sigma(k) * sigma(max(1, k - shift))
    edge = ball + _RANGE_SERIES_TERMS - shift - 1
    if edge < 1:
        raise ValueError("range cutoff too small for the tail comparison")
    total += Fraction(1, 3 * edge ** 3)
    return total


def _sigma_pair_sum(floor_s: int, integral: bool, origin: bool, ball: int) -> Fraction:
    """sum_m sigma(floor|m + j/t|) sigma(floor|s - m|) over the truncation's m.

    The sum sees j/t in [0, 1) only through origin (j = 0) and s = q - j/t
    only through floor_s = floor(s) and whether s is an integer.  m runs
    over [-ball, ball), plus m = ball at the origin (k = ball * t).
    """
    total = Fraction(0)
    for m in range(-ball, ball + 1 if origin else ball):
        if m >= 0:
            floor_r = m
        else:
            floor_r = -m if origin else -m - 1
        if m <= floor_s:
            floor_d = floor_s - m
        else:
            floor_d = m - floor_s if integral else m - floor_s - 1
        total += sigma(floor_r) * sigma(floor_d)
    return total


def _rationals_partial(u: RationalsLayerWeight, q: Fraction, cutoff: int, ball: int) -> Fraction:
    """sum_{|k| <= ball t} u(k/t) u(q - k/t) with t = t_cutoff, by classes of k mod t."""
    # t_10 = 10! already exceeds the bound, so no huge factorial is formed
    if u.group.chain_value(min(cutoff, 10)) > MAX_POINTS or 2 * ball + 1 > MAX_POINTS:
        raise ValueError(f"truncation N{cutoff},B{ball} loops over more than 2^20 "
                         "residues or unit intervals")
    t = u.group.chain_value(cutoff)
    q_num = (q * t).numerator  # q lies in (1/t)Z
    layers: dict[int, int] = {}

    def layer(num: int) -> int:
        # layer of num/t: the first chain value its reduced denominator divides
        den = t // math.gcd(num, t)
        n = layers.get(den)
        if n is None:
            n = layers[den] = u.group.denominator_layer(den)
        return n

    classes: Counter = Counter()
    for j in range(t):
        s_num = q_num - j  # t * (q - j/t)
        classes[(layer(j), layer(s_num), s_num // t, s_num % t == 0, j == 0)] += 1
    sums: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for (layer_r, layer_s, floor_s, integral, origin), count in classes.items():
        key = (floor_s, integral, origin)
        if key not in sums:
            sums[key] = _sigma_pair_sum(floor_s, integral, origin, ball)
        total += count * u.phi.term(layer_r) * u.phi.term(layer_s) * sums[key]
    return u.scale * u.scale * total


def _conv_rationals(u: RationalsLayerWeight, x, trunc: TruncationSpec,
                    require_tail: bool) -> Interval:
    cutoff = trunc.layer if trunc.layer is not None else 5
    ball = trunc.ball if trunc.ball is not None else DEFAULT_BALL_CUTOFF
    q = x.value
    reach = even_floor(q) + 1
    if G.layer_of(x) > cutoff or ball < reach + 2:
        raise ValueError("truncation cutoffs must reach the window point")
    partial = _rationals_partial(u, q, cutoff, ball)
    if not u.phi.certified:
        if require_tail:
            raise TailUnavailableError("no closed-form tail available for this provenance")
        return Interval(partial, None)
    scale_sq = u.scale * u.scale
    layer_tail = scale_sq * u.sub_constant * sigma(even_floor(q)) * u.sq_tail(cutoff)
    range_tail = (2 * scale_sq * u.mass_up_to(cutoff) * u.phi.term(1)
                  * _sigma_range_series(ball, reach))
    return Interval(partial, partial + layer_tail + range_tail)


# --------------------------------------------------------------------------
# Direct sums
# --------------------------------------------------------------------------

def _nonneg(iv: Interval) -> Interval:
    return Interval(max(iv.lo, Fraction(0)), iv.hi)


def _safe_layer(x) -> int:
    try:
        return G.layer_of(x)
    except G.LayerError:
        return 1


def _conv_sum(u: DirectSumWeight, x, trunc: TruncationSpec) -> Interval:
    """Exact pattern decomposition of the direct-sum self-convolution.

    Splitting x' by which coordinates vanish, equal x_j, or differ from both
    reduces the sum to finitely many patterns weighted by subset coefficients;
    each pattern multiplies per-summand quantities: point values, the pinned
    self-convolutions S_j = (u_j*u_j)(x_j) - 2 u_j(0) u_j(x_j), and the
    off-support loop sums Z_j = (u_j*u_j)(0) - u_j(0)^2.  Patterns are summed
    per pinned set C and base C u E, weighted by `SubsetCoeffs.pair_sum`.
    """
    count = len(u.summands)
    cutoffs = trunc.per_summand if trunc.per_summand is not None else (DEFAULT_LAYER_CUTOFF,) * count
    if len(cutoffs) != count:
        raise ValueError("per-summand cutoffs must match the summand count")

    def conv_fn(j: int, uj: WeightFn, xj) -> Interval:
        sub = TruncationSpec(layer=max(cutoffs[j - 1], _safe_layer(xj)))
        return conv_at(uj, xj, sub)

    support = sorted(x.support())
    comp = [j for j in range(1, count + 1) if j not in x.support()]

    # S_j on the support and Z_j on the complement: disjoint keys, one dict
    point_term: dict[int, Fraction] = {}
    factor: dict[int, Interval] = {}
    for j in support:
        uj = u.summands[j - 1]
        u0 = uj.eval(uj.descriptor.identity())
        ux = uj.eval(x.coord(j))
        conv_j = conv_fn(j, uj, x.coord(j))
        point_term[j] = u.alphas.value(j) * ux
        factor[j] = _nonneg(Interval(conv_j.lo - 2 * u0 * ux, conv_j.hi - 2 * u0 * ux)
                            ).scale_nonneg(u.alphas.value(j) ** 2)
    for j in comp:
        uj = u.summands[j - 1]
        u0 = uj.eval(uj.descriptor.identity())
        conv0 = conv_fn(j, uj, uj.descriptor.identity())
        factor[j] = _nonneg(Interval(conv0.lo - u0 * u0, conv0.hi - u0 * u0)
                            ).scale_nonneg(u.alphas.value(j) ** 2)

    total = Interval.point(Fraction(0))
    for c_mask in range(2 ** len(support)):
        pinned = frozenset(support[i] for i in range(len(support)) if c_mask >> i & 1)
        points = frozenset(support) - pinned
        point_product = math.prod(point_term[j] for j in points)
        for mask in range(2 ** len(comp)):
            base = pinned | frozenset(comp[i] for i in range(len(comp)) if mask >> i & 1)
            term = Interval.point(u.coeffs.pair_sum(points, base) * point_product)
            for j in base:
                term = term.mul_nonneg(factor[j])
            total = total.add(term)
    return total.scale_nonneg(u.scale * u.scale)
