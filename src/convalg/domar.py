"""The Beurling-Domar series: partial sums and rigorous classification.

For a weight w and a point x the regularity criterion asks whether

    sum_{n>=1} log+ w(nx) / n^2

converges.  Partial sums are computed exactly when the weight admits an exact
log (e^|t| at rational points) and in log space otherwise.

For a builtin formula weight at a rational x = a/b (b > 0) the orbit is
walked in integer arithmetic: the orbit point is t = (n a)/b on the line and
((n a) mod b)/b on the circle.  CPython's int/int true division is correctly
rounded, so t is the same double as float(n x) (resp. float({n x})).  A
float x is walked as the rational x.as_integer_ratio(), which on the line
gives the correctly rounded n * x.  On the line the walk stops before the
first n with |n x| >= 2^1024 - 2^970, the least rational that float() rounds
past the largest double, and raises there.  The float sums run in one loop:
the quotient by the int n * n is the one by float(n * n) (exact for n <=
2^20), and a zero log+ is not added, as adding +0.0 leaves a nonnegative
total's bits unchanged.  For e^|t| at scale 1 and rational x every term is
|n x|/n^2 = |x|/n, so S_N = |x| H_N, read from `rational.reciprocal_power_sums`
with scale |x|: it keeps the running sum as a coprime pair of ints and
reduces each step only by gcds against the term's small denominator, the
reduction `Fraction.__add__` makes, and stops before the first sum that
reaches the int-to-str limit.  S_N <= N |x|, so those sums are doubles
wherever the orbit is.  Classification
never extrapolates: "convergent" requires a polynomial-growth certificate
log+ w(nx) <= a + d log n (then the series is capped by a pi^2/6 + d * sum
log n / n^2), "divergent" requires a certified lower bound c n / rho(n) with
divergent comparison series (rho = 1, or log for the log-damped family), and
anything else is "inconclusive".
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

from . import groups as G
from .certificates import MAX_POINTS, Certificate, FAILS, HOLDS, INCONCLUSIVE
from .formulas import BUILTINS, FormulaWeight
from .rational import (LOG_SUM_OVER_SQUARES_UPPER, PI_SQUARED_UPPER, format_rational,
                       reciprocal_power_sums)
from .weights import AlgebraWeight, WeightFn

CONVERGENT = "convergent"
DIVERGENT = "divergent"
UNDECIDED = "inconclusive"

# float upper bounds for the convergent caps
_PI2_OVER_6 = float(PI_SQUARED_UPPER) / 6.0
_LOG_SUM = float(LOG_SUM_OVER_SQUARES_UPPER)
# the least positive rational that float() rounds past the largest double
_BEYOND_DOUBLES = 2 ** 1024 - 2 ** 970


def _log_plus(w: WeightFn, point) -> Union[Fraction, float]:
    value = Fraction(w.eval(point)) if w.exact else None
    if value is not None:
        if value <= 1:
            return Fraction(0)
        return max(0.0, math.log(value.numerator) - math.log(value.denominator))
    return max(0.0, math.log(float(w.eval(point))))


def _formula_partial(w: FormulaWeight, value, n_max: int) -> list:
    """domar_partial for a builtin weight at a number, per the module docstring."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"the orbit generator must be finite, not {value!r}")
    a, b = value.as_integer_ratio()
    circle = w.domain == "circle"
    # the last n whose orbit point is a double, |n a| < _BEYOND_DOUBLES b (a
    # circle point is reduced mod 1)
    last = n_max if circle or a == 0 else min(n_max, (_BEYOND_DOUBLES * b - 1) // abs(a))
    if w.name == "exp-abs" and w.scale == 1.0 and not isinstance(value, float):
        # 0 is no limit, as on Pythons before 3.10.7, which lack the call
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        partials = list(reciprocal_power_sums(last, 1, Fraction(abs(a), b),
                                              10 ** limit if limit else None))
        if len(partials) < last:
            raise ValueError(f"the exact partial sum S_{len(partials) + 1} has more than "
                             f"{limit} digits, the int-to-str limit")
    else:
        # w.log_eval(t) for a float t, with the record and the shift looked up once
        log, shift = BUILTINS[w.name].log, w.log_shift()
        partials = []
        total = 0.0
        try:
            for n in range(1, last + 1):
                t = ((n * a) % b) / b if circle else n * a / b
                v = log(shift, t, abs(t))
                if v > 0.0:  # adding log+ = 0.0 leaves the nonnegative total as it is
                    total += v / (n * n)
                partials.append(total)
        except (ZeroDivisionError, ValueError) as exc:
            # the circle weights are zero or infinite at 0, which the orbit can reach
            point = Fraction(n * a, b) % 1 if circle else n * value
            raise ValueError(f"log w is undefined at the orbit point {n}x = {point}") from exc
    if last < n_max:
        n = last + 1
        raise ValueError(f"the orbit point {n}x = {Fraction(n * a, b)} lies beyond the "
                         "largest double")
    return partials


def domar_partial(w: WeightFn, x, n_max: int) -> list:
    """Partial sums S_N = sum_{n<=N} log+ w(nx)/n^2 for N = 1..n_max; x is a
    number for a formula weight and a group point for any other weight.

    Exact rationals when the weight has an exact log on the orbit; otherwise
    high-precision floats evaluated in log space (no overflow).  Raises
    ValueError when log w is undefined at an orbit point, when an orbit point
    on the line lies beyond the doubles (or a float x is not finite), and at
    the first exact partial sum with a numerator or denominator of more
    digits than the interpreter's int-to-str limit
    (sys.get_int_max_str_digits), which could not be printed; each at the
    first n it meets.  Raises ValueError unless n_max is an int (not a bool)
    from 1 to 2^20.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, int) or not 1 <= n_max <= MAX_POINTS:
        raise ValueError(f"n_max must be an int between 1 and 2^20, not {n_max!r}")
    if isinstance(w, FormulaWeight):
        return _formula_partial(w, x, n_max)
    partials = []
    total: Union[Fraction, float] = Fraction(0)
    for n in range(1, n_max + 1):
        point = G.nmul(n, x)
        try:
            term = _log_plus(w, point)
        except (ZeroDivisionError, ValueError) as exc:
            raise ValueError(f"log w is undefined at the orbit point {n}x = {point}") from exc
        if isinstance(term, Fraction):
            term = term / (n * n)
        else:
            term = term / float(n * n)
        total = total + term
        partials.append(total)
    return partials


def _convergent_cert(a: float, d: float, x_size: float) -> dict:
    """Cap for sum (a + d log(n xbar))/n^2 with xbar = max(1,|x|)."""
    a_eff = a + d * max(0.0, math.log(x_size)) if x_size > 1 else a
    cap = a_eff * _PI2_OVER_6 + d * _LOG_SUM
    return {"growth": "polynomial", "log_const": a_eff, "degree": d, "series_cap": cap}


def domar_classify(w: WeightFn, x) -> tuple[str, Certificate]:
    """Classify the series at x (a number or a group point, as in
    domar_partial) with a growth certificate, never by sampling."""
    formula = isinstance(w, FormulaWeight)
    # a fixed orbit point contributes a constant term scaled by 1/n^2
    if (x == 0) if formula else x.is_identity():
        w0 = float(w.eval(x))
        payload = _convergent_cert(max(0.0, math.log(w0)) if w0 > 0 else 0.0, 0.0, 1.0)
        payload["note"] = "orbit of the identity"
        return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload,
                                       witness=None)

    if formula:
        info = w.growth()
        if info.kind == "const":
            payload = _convergent_cert(info.log_const, 0.0, 1.0)
            return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)
        if info.kind not in ("poly", "exp", "exp-signed"):
            payload = {"note": "no growth certificate for this formula"}
            return UNDECIDED, Certificate(prop="domar", verdict=INCONCLUSIVE, payload=payload)
        # the families left are line weights: read |x| as a double
        try:
            xs = abs(float(x))
        except OverflowError:
            raise ValueError(f"the orbit point 1x = {x} lies beyond the largest double") from None
        if info.kind == "poly":
            payload = _convergent_cert(info.log_const, info.degree, xs or 1.0)
            return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)
        if info.kind == "exp" or (info.kind == "exp-signed" and x > 0):
            rate = info.rate * (xs or 1.0)
            if info.log_damped:
                payload = {"growth": "exponential/log-damped",
                           "term_lower": f"{rate:.6g}*n/(n^2 log(e+n|x|))",
                           "comparison": "sum 1/(n log(e+n)) diverges"}
            else:
                payload = {"growth": "exponential",
                           "term_lower": f"{rate:.6g}/n",
                           "comparison": "harmonic series diverges"}
            witness = x if isinstance(x, float) else format_rational(x)
            return DIVERGENT, Certificate(prop="domar", verdict=FAILS, payload=payload,
                                          witness=witness)
        # exp-signed on the nonpositive ray:
        # log+ w(nx) <= log+(1+(nx)^2) + max(0, nx) = poly side
        payload = _convergent_cert(info.log_const, info.degree, xs or 1.0)
        payload["note"] = "nonpositive ray of a one-sided exponential"
        return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)

    if isinstance(w, AlgebraWeight):
        decay = w.base.decay_certificate(x)
        if decay is not None:
            c, d = decay
            q = float(w.q)
            a = max(0.0, _log_of(c)) / q
            payload = _convergent_cert(a, d / q, 1.0)
            payload["source"] = "polynomial decay of the base weight"
            return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)

    bound = w.max_value()
    if bound is not None:
        a = max(0.0, _log_of(bound))
        payload = _convergent_cert(a, 0.0, 1.0)
        payload["source"] = "weight bounded above"
        return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)

    payload = {"note": "no growth analysis available for this provenance"}
    return UNDECIDED, Certificate(prop="domar", verdict=INCONCLUSIVE, payload=payload)


def _log_of(v: Fraction) -> float:
    return math.log(v.numerator) - math.log(v.denominator)
