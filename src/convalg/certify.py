"""Certificate suite over finite windows.

Checks: positivity and evenness (exact over negation-closed windows),
subconvolutivity u*u <= bound*u with truncation-tail enclosures, polynomial
decay with provenance-backed constants, submultiplicativity of algebra
weights (exact where an order transform exists), two-sided weight
equivalence, and essential-infimum reports.

Every verdict is decided pointwise against exact values or certified
enclosures; a coarse tail yields "inconclusive", never a silent pass, and a
"fails" verdict always names an exact witness.  A symmetric relation is
decided once per pair, with the witness a per-point loop would name:
evenness once per {x, -x}, and submultiplicativity over a whole window once
per unordered pair {s, t}.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from . import groups as G
from .certificates import (
    Certificate,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    MAX_LAYER,
    MAX_POINTS,
    TruncationSpec,
    Window,
    window_info,
)
from .convolution import conv_at
from .formulas import FormulaWeight
from .rational import format_rational
from .serialize import point_to_json
from .weights import AlgebraWeight, DirectSumWeight, LayerWeight, RationalsLayerWeight, WeightFn


def _num(x):
    """Payload scalar: rationals to "num/den" strings, floats unchanged."""
    if isinstance(x, Fraction):
        return format_rational(x)
    return x


# --------------------------------------------------------------------------
# Window constructors
# --------------------------------------------------------------------------

def pruefer_ball_window(group: G.PrueferGroup, layer: int) -> Window:
    # p >= 2, so p^21 already exceeds the bound and no huge power is formed
    if layer < 0 or group.p ** min(layer, 21) > MAX_POINTS:
        raise ValueError(f"window G{layer} must hold between 1 and 2^20 points, "
                         f"not {group.p}^{layer}")
    points = sorted(group.subgroup_elements(layer), key=G.sort_key)
    return Window(name=f"G{layer}", points=tuple(points))

def rationals_ball_window(group: G.RationalsGroup, layer: int, radius: int) -> Window:
    # t_10 = 10! already exceeds the bound, so no huge factorial is formed
    if layer < 1 or radius < 1 or 2 * radius * group.chain_value(min(layer, 10)) + 1 > MAX_POINTS:
        raise ValueError(f"window Q{layer}:{radius} must have layer and radius >= 1 "
                         f"and hold at most 2^20 points, not 2*{radius}*{layer}!+1")
    points = sorted(group.ball_elements(layer, radius), key=G.sort_key)
    return Window(name=f"Q{layer}:[-{radius},{radius}]", points=tuple(points))

def circle_grid_window(resolution: int, include_zero: bool = False) -> Window:
    pts = [Fraction(k, resolution) for k in range(resolution)]
    excluded = ()
    if not include_zero:
        pts = pts[1:]
        excluded = (Fraction(0),)
    return Window(name=f"circle:1/{resolution}", points=tuple(pts), ae_excluded=excluded)

def line_grid_window(lo, hi, step) -> Window:
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = (hi - lo) // step + 1
    if not 1 <= count <= MAX_POINTS:
        raise ValueError(f"grid {lo}:{hi}:{step} must hold between 1 and 2^20 points, "
                         f"not {max(count, 0)}")
    return Window(name=f"line:[{lo},{hi}]:{step}",
                  points=tuple(lo + k * step for k in range(count)))

_SAMPLE_RADIUS = 3  # |q| bound of rationals coordinates in sampled sum windows

def sum_sample_window(group: G.SumGroup, size: int, seed: int = 0,
                      layer_cap: int = 4) -> Window:
    """Seeded sample of exactly `size` points, closed under negation.

    Points are drawn as {x, -x} pairs (order-2 points are skipped so the
    count always lands exactly); an odd size additionally holds the identity.
    Pruefer coordinates are nonzero points of the layer_cap subgroup; rationals
    coordinates come from that subgroup's ball of radius _SAMPLE_RADIUS (a
    zero coordinate just leaves the support).  A summand of any other group,
    such as a nested direct sum, is refused.
    """
    if not 1 <= size <= MAX_POINTS:
        raise ValueError(f"a sampled window must hold between 1 and 2^20 points, not {size}")
    if (isinstance(layer_cap, bool) or not isinstance(layer_cap, int)
            or not 1 <= layer_cap <= MAX_LAYER):
        raise ValueError(f"a sampled window's layer cap must be an int in [1, 2^10], "
                         f"not {layer_cap!r}")
    for j, summand in enumerate(group.summands, start=1):
        if not isinstance(summand, (G.PrueferGroup, G.RationalsGroup)):
            raise ValueError(f"a sampled window draws no coordinates on summand {j}, "
                             f"a {summand.variant} group")
    rng = random.Random(seed)
    chosen: dict = {}
    if size % 2 == 1:
        chosen[group.identity()] = None

    def random_point() -> G.SumPoint:
        count = len(group.summands)
        support = [j for j in range(1, count + 1) if rng.random() < 0.6]
        if not support:
            support = [rng.randrange(1, count + 1)]
        coords = {}
        for j in support:
            summand = group.summand(j)
            if isinstance(summand, G.PrueferGroup):
                k = rng.randrange(1, summand.p ** layer_cap)
                coords[j] = summand.element(k, layer_cap)
            else:  # the rationals
                # index the ball of radius R in (1/t)Z rather than list its 2Rt+1 points
                t = summand.chain_value(layer_cap)
                k = rng.randrange(2 * _SAMPLE_RADIUS * t + 1)
                coords[j] = summand.element(Fraction(k, t) - _SAMPLE_RADIUS)
        return group.point(coords)

    guard = 0
    while len(chosen) < size:
        guard += 1
        if guard > 100_000:
            raise ValueError(f"window sampling found fewer than {size} points "
                             f"up to layer {layer_cap}")
        x = random_point()
        nx = G.neg(x)
        if x == nx or x in chosen:
            continue
        chosen[x] = None
        chosen[nx] = None
    points = sorted(chosen, key=G.sort_key)
    return Window(name=f"sum-sample:{size}:seed{seed}", points=tuple(points))


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def check_b(u: WeightFn, window: Window, trunc: TruncationSpec,
            bound=Fraction(1)) -> Certificate:
    """Certify (u*u)(x) <= bound * u(x) for every x in the window.

    Literal subconvolutivity is bound=1; the raw layer constructions are
    checked against their provenance bound (2*mass, or 2*8*C2*mass), which
    must be > 0.  Points with equal `u.shell_key` have equal values and
    enclosures, so each shell class is evaluated and its ratio taken once;
    every point is still decided, in window order.
    """
    if bound <= 0:
        raise ValueError(f"the b-suite bound must be > 0, not {_num(bound)}")
    inconclusive = []
    max_ratio = None
    shells: dict = {}
    for x in window.points:
        key = u.shell_key(x)
        if key not in shells:
            iv, rhs = conv_at(u, x, trunc, require_tail=False), bound * u.eval(x)
            # iv.hi / rhs where the class holds, else None
            ratio = iv.hi / rhs if iv.hi is not None and iv.hi <= rhs else None
            if ratio is not None and (max_ratio is None or ratio > max_ratio):
                max_ratio = ratio
            shells[key] = iv, rhs, ratio
        iv, rhs, ratio = shells[key]
        if ratio is not None:
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


def _eval_at(u: WeightFn, x):
    """u(x), or a ValueError naming x where u has no value, so no witness."""
    try:
        return u.eval(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"the weight is undefined at {point_to_json(x)}") from exc


def _shell_representatives(u: WeightFn, window: Window):
    """The first point of each `u.shell_key` class in window order, past the
    window's `ae_excluded` points.  Equal keys give equal values, so a check
    that reads only values decides every point through these."""
    excluded, seen = set(window.ae_excluded), set()
    for x in window.points:
        if x not in excluded:
            key = u.shell_key(x)
            if key not in seen:
                seen.add(key)
                yield x


def check_positivity(u: WeightFn, window: Window) -> Certificate:
    """u(x) > 0 at every window point outside `ae_excluded`, evaluated once per
    shell class; "fails" names the first point in window order with u <= 0."""
    payload: dict = {}
    if window.ae_excluded:
        payload["ae_excluded"] = [_num(p) for p in window.ae_excluded]
        payload["note"] = "listed points excluded under almost-everywhere semantics"
    for x in _shell_representatives(u, window):
        value = _eval_at(u, x)
        if value <= 0:
            payload["value"] = _num(value)
            if isinstance(u, FormulaWeight) and x in u.zero_points():
                payload["ae_exclusion_available"] = True
            return Certificate(prop="positivity", verdict=FAILS, payload=payload,
                               window=window_info(window), witness=point_to_json(x))
    return Certificate(prop="positivity", verdict=HOLDS, payload=payload,
                       window=window_info(window))


def check_evenness(u: WeightFn, window: Window) -> Certificate:
    """u(x) = u(-x) at every window point; "fails" names the first point in
    window order where it does not.  Each pair {x, -x} is decided once, at its
    first point: negation is an involution and equality is symmetric, so a
    point reached as the negation of an earlier one passes exactly when that
    one did.  No shell key is read, since keys such as |q| assume this
    evenness, and the window need not be closed under negation."""
    reached = set()
    for x in window.points:
        if x in reached:
            continue
        value = _eval_at(u, x)
        nx = u.point_neg(x)
        value_at_neg = value if nx == x else _eval_at(u, nx)
        if value != value_at_neg:
            payload = {"value": _num(value), "value_at_neg": _num(value_at_neg)}
            return Certificate(prop="evenness", verdict=FAILS, payload=payload,
                               window=window_info(window), witness=point_to_json(x))
        reached.add(nx)
    return Certificate(prop="evenness", verdict=HOLDS, payload={},
                       window=window_info(window))


def check_poly_decay(u: WeightFn, x, n_max: int = 12) -> Certificate:
    """Produce (C, d) with 1/u(nx) <= C n^d, provenance-backed, and verify it
    for n = 1..n_max.  Without provenance only sampled bounds are reported and
    the verdict stays inconclusive (non-rigorous)."""
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    cert = u.decay_certificate(x)
    values = []
    for n in range(1, n_max + 1):
        values.append(Fraction(1) / Fraction(u.eval(G.nmul(n, x))) if u.exact
                      else 1.0 / float(u.eval(G.nmul(n, x))))
    if cert is None:
        payload = {
            "rigorous": False,
            "sampled_max": _num(max(values)),
            "note": "no provenance decay formula; sampled bound only",
        }
        return Certificate(prop="poly-decay", verdict=INCONCLUSIVE, payload=payload,
                           witness=point_to_json(x))
    c, d = cert
    for n, v in enumerate(values, start=1):
        if v > c * n ** d:
            payload = {"constant": _num(c), "degree": d, "value": _num(v), "n": n}
            return Certificate(prop="poly-decay", verdict=FAILS, payload=payload,
                               witness=point_to_json(x))
    payload = {"constant": _num(c), "degree": d, "rigorous": True,
               "checked_up_to": n_max}
    return Certificate(prop="poly-decay", verdict=HOLDS, payload=payload,
                       witness=None, window={"name": f"orbit:{n_max}", "size": n_max})


def _submult_once(w: WeightFn, s, t) -> tuple[bool, bool]:
    """(holds, exact_mode) for one pair, through the weight's exact hook if any."""
    hook = getattr(w, "submult_exact", None)
    if hook is not None:
        verdict = hook(s, t)
        if verdict is not None:
            return verdict, True
    lhs = w.eval(w.point_add(s, t))
    rhs = w.eval(s) * w.eval(t)
    if w.exact:
        return lhs <= rhs, True
    return float(lhs) <= float(rhs), False


def _submult_through_base(w: AlgebraWeight):
    """Exact pair verdicts of an algebra weight w = u^(-1/q) of scale 1 over an
    exact base u: w(s+t) <= w(s) w(t) iff u(s+t) >= u(s) u(t), decided by
    cross-multiplying numerators and denominators.  Equal `u.shell_key`s give
    equal values, so u is evaluated once per key and each verdict is kept by
    the keys of (s+t, s, t), in tables that live for the one check."""
    u, values, verdicts = w.base, {}, {}

    def once(s, t) -> tuple[bool, bool]:
        points = (G.add(s, t), s, t)
        keys = tuple(map(u.shell_key, points))
        if keys not in verdicts:
            for key, z in zip(keys, points):
                if key not in values:
                    values[key] = u.eval(z)
            a, b, c = (values[key] for key in keys)
            verdicts[keys] = a.numerator * b.denominator * c.denominator >= \
                b.numerator * c.numerator * a.denominator
        return verdicts[keys], True
    return once


def check_submultiplicative(w: WeightFn, window: Optional[Window] = None,
                            pairs: Optional[Sequence[tuple]] = None,
                            max_pairs: int = 4096, seed: int = 0) -> Certificate:
    """Verdict of w(s+t) <= w(s) w(t) per pair, witness on failure.  A window
    of at most max_pairs ordered pairs is decided whole through the pairs
    (pts[i], pts[j]) with i <= j, in row order: s+t = t+s in canonical form and
    exact and IEEE products commute, so a pair with i > j has the verdict of
    its mirror, which comes in an earlier row.  `pairs_checked` stays n^2 and
    the float counts take an off-diagonal pair twice.  A larger window is
    sampled by pair index, so the n^2 pairs are never built.  "fails" names
    the first exactly failing pair (for a whole window, in row order); a pair
    compared only in floats decides nothing, so with no exact failure
    such pairs leave the certificate inconclusive (not rigorous)."""
    if window is None and pairs is None:
        raise ValueError("need a window or explicit pairs")
    if pairs is not None:
        checked, visits = len(pairs), ((s, t, 1) for s, t in pairs)
    else:
        pts = window.points
        n = len(pts)
        if n * n > max_pairs:
            picked = random.Random(seed).sample(range(n * n), max_pairs)
            checked, visits = max_pairs, ((pts[k // n], pts[k % n], 1) for k in picked)
        else:
            # (s, t, how many ordered pairs the visit decides)
            checked = n * n
            visits = ((pts[i], pts[j], 1 if i == j else 2) for i in range(n) for j in range(i, n))
    info = window_info(window) if window is not None else {"name": "pairs", "size": checked}
    if isinstance(w, AlgebraWeight) and w.base.exact and w.scale == 1:
        once = _submult_through_base(w)
    else:
        once = functools.partial(_submult_once, w)
    float_pairs = float_failures = 0
    for s, t, copies in visits:
        ok, exact = once(s, t)
        if not exact:
            float_pairs += copies
            float_failures += copies * (not ok)
        elif not ok:
            payload = {
                "lhs": _num(w.eval(w.point_add(s, t))),
                "rhs": _num(w.eval(s) * w.eval(t)),
                "pair": [point_to_json(s), point_to_json(t)],
                "exact_comparison": True,
            }
            return Certificate(prop="submultiplicative", verdict=FAILS, payload=payload,
                               window=info, witness=payload["pair"])
    payload = {"pairs_checked": checked, "exact_comparison": not float_pairs, "seed": seed}
    if float_pairs:
        payload.update(rigorous=False, float_pairs=float_pairs, float_failures=float_failures,
                       note="pairs compared only in floats; no certified margin")
        return Certificate(prop="submultiplicative", verdict=INCONCLUSIVE, payload=payload,
                           window=info)
    return Certificate(prop="submultiplicative", verdict=HOLDS, payload=payload, window=info)


def weight_equivalence(w1: WeightFn, w2: WeightFn, window: Window) -> Certificate:
    """Exact two-sided pinch C1 <= w1/w2 <= C2 over the window.  Raises
    ValueError where a ratio is not both finite and > 0: an overflow or a
    zero of w2, an underflow or a zero of w1, so C1 > 0 whenever it holds."""
    c1 = c2 = None
    arg1 = arg2 = None
    for x in window.points:
        try:
            ratio = w1.eval(x) / w2.eval(x) if (w1.exact and w2.exact) \
                else float(w1.eval(x)) / float(w2.eval(x))
        except (OverflowError, ZeroDivisionError):
            ratio = math.inf
        if not 0 < ratio < math.inf:
            raise ValueError(f"w1/w2 is not finite and > 0 at {point_to_json(x)}")
        if c1 is None or ratio < c1:
            c1, arg1 = ratio, x
        if c2 is None or ratio > c2:
            c2, arg2 = ratio, x
    payload = {"c1": _num(c1), "c2": _num(c2),
               "argmin": point_to_json(arg1), "argmax": point_to_json(arg2)}
    return Certificate(prop="equivalence", verdict=HOLDS, payload=payload,
                       window=window_info(window))


def ess_inf_check(w: WeightFn, window: Window) -> Certificate:
    """Window minimum plus a provenance-based global verdict where available.
    The minimum is taken over one point per shell class, so `argmin` is the
    first window point that attains it."""
    window_min = None
    argmin = None
    for x in _shell_representatives(w, window):
        v = _eval_at(w, x)
        if window_min is None or v < window_min:
            window_min, argmin = v, x
    payload = {"window_min": _num(window_min), "argmin": point_to_json(argmin)}
    if isinstance(w, AlgebraWeight):
        glb = w.global_lower_bound()
        if glb is not None and glb > 0:
            payload["global_lower_bound"] = glb
            payload["source"] = "algebra weight of a bounded base"
            return Certificate(prop="ess-inf", verdict=HOLDS, payload=payload,
                               window=window_info(window))
    if isinstance(w, FormulaWeight):
        gm = w.global_min()
        if gm is not None and gm > 0:
            payload["global_lower_bound"] = gm
            return Certificate(prop="ess-inf", verdict=HOLDS, payload=payload,
                               window=window_info(window))
        if gm == 0.0:
            payload["essential_infimum"] = 0.0
            payload["note"] = "infimum approached near the origin"
            return Certificate(prop="ess-inf", verdict=FAILS, payload=payload,
                               window=window_info(window), witness="t->0+")
    if isinstance(w, (LayerWeight, RationalsLayerWeight, DirectSumWeight)):
        payload["note"] = "shell values tend to 0 along deep shells; infimum is 0"
        return Certificate(prop="ess-inf", verdict=FAILS, payload=payload,
                           window=window_info(window), witness="deep shells")
    payload["note"] = "no provenance bound; window minimum only"
    return Certificate(prop="ess-inf", verdict=INCONCLUSIVE, payload=payload,
                       window=window_info(window))
