"""Builtin formula weights on the real line and the circle.

These are the named weights the classifiers handle rigorously: growth
certificates are attached per family, never inferred from samples.  A
formula weight's points are numbers (Fraction, int or float; a circle point
is read mod 1), never group points.  Builtins:

    poly2            w(t) = 1 + t^2                   (line, even)
    exp-abs          w(t) = e^|t|                     (line, even)
    poly2-exp        w(t) = (1+t^2) e^|t|             (line, even)
    poly2-exp-log    w(t) = (1+t^2) e^(|t|/log(e+|t|)) (line, even)
    poly2-exp-signed w(t) = (1+t^2) e^t               (line, a character twist)
    circle-quarter   w(t) = t^(1/4)  on [0,1)         (circle)
    circle-inv-sqrt  u(t) = t^(-1/2) on (0,1)         (circle; quarter's algebra base)
    const-one        w(t) = 1
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

from .certificates import Record
from .weights import WeightFn

Number = Union[Fraction, float, int]


class GrowthInfo(Record):
    """Certified growth of log+ w along rays, by formula family.

    kind "poly": log+ w(t) <= log_const + degree * log+ |t| for all t.
    kind "exp": log w(t) >= rate * |t| (log_damped divides by log(e+|t|)).
    kind "exp-signed": log w(t) >= t (one-sided); bounded polynomially for t<=0.
    kind "const": w is bounded; log+ w <= log_const.
    """

    kind: str
    log_const: float
    degree: int
    rate: float
    log_damped: bool

    def __init__(self, kind: str, log_const: float = 0.0, degree: int = 0, rate: float = 0.0,
                 log_damped: bool = False) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "log_const", log_const)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "log_damped", log_damped)


def _quarter_log(s: float, t: float, a: float) -> float:
    if t == 0:
        raise ZeroDivisionError("log w undefined at 0")
    return s + 0.25 * math.log(t)


def _inv_sqrt(t: float, a: float) -> float:
    if t == 0:
        raise ZeroDivisionError("t^(-1/2) is undefined at 0")
    return t ** -0.5


class Builtin(Record):
    """One builtin weight at scale 1.

    raw(t, a) is w(t) and log(s, t, a) is s + log w(t), evaluated in log
    space (no overflow for the exp families), where t is the point as a float
    (reduced mod 1 on the circle) and a = |t|.  infimum is the certified
    infimum over the domain, or None when w is not bounded below.  even
    marks a line weight whose log reads only a, so log(s, -t, a) is
    log(s, t, a) bit for bit.
    """

    domain: str
    raw: Callable[[float, float], float]
    log: Callable[[float, float, float], float]
    growth: GrowthInfo
    infimum: Optional[float]
    even: bool

    def __init__(self, domain: str, raw: Callable[[float, float], float],
                 log: Callable[[float, float, float], float], growth: GrowthInfo,
                 infimum: Optional[float], even: bool = False) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "log", log)
        object.__setattr__(self, "growth", growth)
        object.__setattr__(self, "infimum", infimum)
        object.__setattr__(self, "even", even)


_POLY2_LOG_CONST = math.log(2.0) + 1e-12

BUILTINS = {
    "poly2": Builtin(
        "real", lambda t, a: 1.0 + a * a, lambda s, t, a: s + math.log1p(a * a),
        GrowthInfo(kind="poly", log_const=_POLY2_LOG_CONST, degree=2), 1.0, even=True),
    "exp-abs": Builtin(
        "real", lambda t, a: math.exp(a), lambda s, t, a: s + a,
        GrowthInfo(kind="exp", rate=1.0), 1.0, even=True),
    "poly2-exp": Builtin(
        "real", lambda t, a: (1.0 + a * a) * math.exp(a),
        lambda s, t, a: s + math.log1p(a * a) + a,
        GrowthInfo(kind="exp", rate=1.0), 1.0, even=True),
    "poly2-exp-log": Builtin(
        "real", lambda t, a: (1.0 + a * a) * math.exp(a / math.log(math.e + a)),
        lambda s, t, a: s + math.log1p(a * a) + a / math.log(math.e + a),
        GrowthInfo(kind="exp", rate=1.0, log_damped=True), 1.0, even=True),
    # decays as t -> -inf: no infimum
    "poly2-exp-signed": Builtin(
        "real", lambda t, a: (1.0 + a * a) * math.exp(t),
        lambda s, t, a: s + math.log1p(a * a) + t,
        GrowthInfo(kind="exp-signed", log_const=_POLY2_LOG_CONST, degree=2, rate=1.0), None),
    # bounded above by 1 on [0, 1)
    "circle-quarter": Builtin(
        "circle", lambda t, a: t ** 0.25, _quarter_log,
        GrowthInfo(kind="const", log_const=0.0), 0.0),
    "circle-inv-sqrt": Builtin(
        "circle", _inv_sqrt, lambda s, t, a: s - 0.5 * math.log(t),
        GrowthInfo(kind="unknown"), 1.0),
    "const-one": Builtin(
        "real", lambda t, a: 1.0, lambda s, t, a: s,
        GrowthInfo(kind="const", log_const=0.0), 1.0, even=True),
}

BUILTIN_NAMES = tuple(BUILTINS)


def _mod1(x: Number) -> float:
    return float(x % 1) if isinstance(x, Fraction) else float(x) % 1.0


class FormulaWeight(WeightFn):
    """Named closed-form weight; evaluation is float, growth facts are exact."""

    name: str
    scale: float

    construction = "formula"
    exact = False

    def __init__(self, name: str, scale: float = 1.0) -> None:
        if not isinstance(name, str) or name not in BUILTINS:
            raise ValueError(f"unknown builtin weight {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "scale", scale)

    @property
    def domain(self) -> str:
        return BUILTINS[self.name].domain

    # the points are numbers, not elements of a group descriptor
    descriptor = None

    def raw_eval(self, t: Number) -> float:
        b = BUILTINS[self.name]
        x = float(t) if b.domain == "real" else _mod1(t)
        return b.raw(x, abs(x))

    def log_eval(self, t: Number) -> float:
        """log w(t), evaluated in log space (no overflow for the exp families)."""
        b = BUILTINS[self.name]
        x = float(t) if b.domain == "real" else _mod1(t)
        return b.log(self.log_shift(), x, abs(x))

    def log_shift(self) -> float:
        """log(scale), the shift log_eval adds to log w at scale 1."""
        return math.log(self.scale) if self.scale != 1.0 else 0.0

    def growth(self) -> GrowthInfo:
        return BUILTINS[self.name].growth

    def submult_exact(self, s: Number, t: Number) -> Optional[bool]:
        """Exact verdict of w(s+t) <= w(s) w(t) where the family allows it.

        exp-abs holds identically (triangle inequality).  poly2 reduces to the
        exact rational comparison 2st <= (st)^2, which fails for 0 < st < 2.
        poly2-exp compares the rational polynomial ratio against e raised to
        the rational slack |s| + |t| - |s+t| via a refining enclosure.
        circle-quarter is raised to the 4th power, an exact comparison.
        """
        if self.name == "exp-abs":
            return True
        if not isinstance(s, (Fraction, int)) or not isinstance(t, (Fraction, int)):
            return None
        a, b = Fraction(s), Fraction(t)
        if self.name == "poly2":
            return 1 + (a + b) ** 2 <= (1 + a * a) * (1 + b * b)
        if self.name == "poly2-exp":
            ratio = (1 + (a + b) ** 2) / ((1 + a * a) * (1 + b * b))
            slack = abs(a) + abs(b) - abs(a + b)
            if ratio <= 1:
                return True
            from .rational import exp_enclosure
            terms = 40
            while terms <= 640:
                lo, hi = exp_enclosure(slack, terms)
                if ratio <= lo:
                    return True
                if ratio > hi:
                    return False
                terms *= 2
            return None
        if self.name == "circle-quarter":
            return (a + b) % 1 <= (a % 1) * (b % 1)
        return None

    def global_min(self) -> Optional[float]:
        """Certified infimum over the domain, from the formula."""
        infimum = BUILTINS[self.name].infimum
        return None if infimum is None else infimum * self.scale

    def zero_points(self) -> tuple:
        """Points where positivity fails (excluded under a.e. semantics)."""
        if self.name == "circle-quarter":
            return (Fraction(0),)
        return ()

    def point_add(self, s: Number, t: Number) -> Number:
        if self.domain == "circle":
            return (Fraction(s) + Fraction(t)) % 1
        if isinstance(s, Fraction) and isinstance(t, Fraction):
            return s + t
        return float(s) + float(t)

    def point_neg(self, s: Number) -> Number:
        if self.domain == "circle":
            return (-Fraction(s)) % 1
        return -s


def builtin_weight(name: str) -> FormulaWeight:
    return FormulaWeight(name=name)

