"""The Beurling-Domar series: partial sums and rigorous classification.

For a weight w and a point x the regularity criterion asks whether

    sum_{n>=1} log+ w(nx) / n^2

converges.  Partial sums are computed exactly when the weight admits an exact
log (e^|t| at rational points) and in log space otherwise.  Classification
never extrapolates: "convergent" requires a polynomial-growth certificate
log+ w(nx) <= a + d log n (then the series is capped by a pi^2/6 + d * sum
log n / n^2), "divergent" requires a certified lower bound c n / rho(n) with
divergent comparison series (rho = 1, or log for the log-damped family), and
anything else is "inconclusive".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from . import groups as G
from .certificates import Certificate, FAILS, HOLDS, INCONCLUSIVE
from .formulas import FormulaWeight, as_number
from .rational import LOG_SUM_OVER_SQUARES_UPPER, PI_SQUARED_UPPER
from .weights import AlgebraWeight, WeightFn

CONVERGENT = "convergent"
DIVERGENT = "divergent"
UNDECIDED = "inconclusive"

# float upper bounds for the convergent caps
_PI2_OVER_6 = float(PI_SQUARED_UPPER) / 6.0
_LOG_SUM = float(LOG_SUM_OVER_SQUARES_UPPER)


def _orbit_point(w: WeightFn, x, n: int):
    if isinstance(x, G.GroupPoint):
        return G.nmul(n, x)
    value = as_number(x)
    if isinstance(w, FormulaWeight) and w.domain == "circle":
        return (n * Fraction(value)) % 1
    return n * value


def _log_plus(w: WeightFn, point) -> Union[Fraction, float]:
    if isinstance(w, FormulaWeight):
        exact = w.exact_log(point)
        if exact is not None:
            return max(Fraction(0), exact)
        return max(0.0, w.log_eval(point))
    value = Fraction(w.eval(point)) if w.exact else None
    if value is not None:
        if value <= 1:
            return Fraction(0)
        return max(0.0, math.log(value.numerator) - math.log(value.denominator))
    return max(0.0, math.log(float(w.eval(point))))


def domar_partial(w: WeightFn, x, n_max: int) -> list:
    """Partial sums S_N = sum_{n<=N} log+ w(nx)/n^2 for N = 1..n_max.

    Exact rationals when the weight has an exact log on the orbit; otherwise
    high-precision floats evaluated in log space (no overflow).  Raises
    ValueError when log w is undefined at an orbit point.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    partials = []
    total: Union[Fraction, float] = Fraction(0)
    for n in range(1, n_max + 1):
        point = _orbit_point(w, x, n)
        try:
            term = _log_plus(w, point)
        except (ZeroDivisionError, ValueError) as exc:
            # the circle weights are zero or infinite at 0, which the orbit can reach
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
    """Classify the series at x with a growth certificate, never by sampling."""
    # a fixed orbit point contributes a constant term scaled by 1/n^2
    if (isinstance(x, G.GroupPoint) and x.is_identity()) or \
            (not isinstance(x, G.GroupPoint) and as_number(x) == 0):
        w0 = float(w.eval(x))
        payload = _convergent_cert(max(0.0, math.log(w0)) if w0 > 0 else 0.0, 0.0, 1.0)
        payload["note"] = "orbit of the identity"
        return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload,
                                       witness=None)
    xs = abs(float(as_number(x))) if not isinstance(x, G.GroupPoint) else None

    if isinstance(w, FormulaWeight):
        info = w.growth()
        if info.kind == "const":
            payload = _convergent_cert(info.log_const, 0.0, 1.0)
            return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)
        if info.kind == "poly":
            payload = _convergent_cert(info.log_const, info.degree, xs or 1.0)
            return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)
        if info.kind == "exp" or (info.kind == "exp-signed" and xs is not None and float(as_number(x)) > 0):
            rate = info.rate * (xs or 1.0)
            if info.log_damped:
                payload = {"growth": "exponential/log-damped",
                           "term_lower": f"{rate:.6g}*n/(n^2 log(e+n|x|))",
                           "comparison": "sum 1/(n log(e+n)) diverges"}
            else:
                payload = {"growth": "exponential",
                           "term_lower": f"{rate:.6g}/n",
                           "comparison": "harmonic series diverges"}
            return DIVERGENT, Certificate(prop="domar", verdict=FAILS, payload=payload,
                                          witness=_num_repr(x))
        if info.kind == "exp-signed":
            # negative ray: log+ w(nx) <= log+(1+(nx)^2) + max(0, nx) = poly side
            payload = _convergent_cert(info.log_const, info.degree, xs or 1.0)
            payload["note"] = "nonpositive ray of a one-sided exponential"
            return CONVERGENT, Certificate(prop="domar", verdict=HOLDS, payload=payload)
        payload = {"note": "no growth certificate for this formula"}
        return UNDECIDED, Certificate(prop="domar", verdict=INCONCLUSIVE, payload=payload)

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


def _log_of(v) -> float:
    if isinstance(v, Fraction):
        return math.log(v.numerator) - math.log(v.denominator)
    return math.log(float(v))


def _num_repr(x):
    if isinstance(x, G.GroupPoint):
        from .serialize import point_to_json
        return point_to_json(x)
    v = as_number(x)
    return f"{Fraction(v).numerator}/{Fraction(v).denominator}" if isinstance(v, (Fraction, int)) else v
