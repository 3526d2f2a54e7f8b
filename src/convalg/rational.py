"""Exact rational scalar helpers shared across the package.

Every certified inequality in this package eventually reduces to a comparison
between :class:`fractions.Fraction` values.  This module collects the wire
format for rationals, the reciprocal-square kernel on the integers, and
rational enclosures of the few transcendental quantities the certificates
need (exp, pi, pi^2, ln 2, sum log n / n^2), `ratio_sum`, which sums
integer (num, den) terms so that a long exact sum normalises only once, and
`reciprocal_power_sums`, the running sums scale * sum_{k<=n} 1/k^p on integer
numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

Rational = Fraction

# pi = 3.1415926535897932..., pi^2 = 9.8696044010...  Each pair of bounds is
# revalidated in the test suite and only ever used in the stated direction.
PI_LOWER = Fraction(314_159_265_358_979, 10 ** 14)
PI_UPPER = Fraction(314_159_265_358_980, 10 ** 14)
PI_SQUARED_LOWER = Fraction(98696, 10_000)
PI_SQUARED_UPPER = Fraction(98697, 10_000)

# ln 2 = 0.6931471805...
LOG2_LOWER = Fraction(6_931_471, 10_000_000)
LOG2_UPPER = Fraction(6_931_472, 10_000_000)

# sum_{n>=1} log(n)/n^2 = 0.9375482543...  Upper bound certified by partial
# sum plus the integral tail (log K + 1)/K at K=200; revalidated in tests.
LOG_SUM_OVER_SQUARES_UPPER = Fraction(94, 100)


def parse_rational(text: str) -> Fraction:
    """Parse the "num/den" wire format (a bare integer is also accepted)."""
    if not isinstance(text, str):
        raise ValueError(f"a rational must be a \"num/den\" string, not {text!r}")
    s = text.strip()
    if "/" in s:
        num, den = (int(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Serialize a rational as "num/den" (denominator always explicit)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def even_floor(x: Fraction) -> int:
    """Integer part extended evenly from the positive half-line: floor(|x|)."""
    ax = abs(Fraction(x))
    return ax.numerator // ax.denominator


def sigma(n: int) -> Fraction:
    """Reciprocal-square kernel 1 / max(1, |n|)^2 on the integers."""
    m = max(1, abs(n))
    return Fraction(1, m * m)


def ratio_sum(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """(num, den) with num/den the sum of the terms num_i/den_i (each den_i > 0).

    den is the lcm of the term denominators, never their product, so a wide
    sum does not blow up; each term costs one gcd of two denominators and no
    normalisation of the running numerator.  The caller builds one `Fraction`
    from the pair, after any known factor.
    """
    num, den = 0, 1
    for n, d in terms:
        g = math.gcd(den, d)
        num = num * (d // g) + n * (den // g)
        den *= d // g
    return num, den


def coprime_fraction(num: int, den: int) -> Fraction:
    """num/den for ints already in lowest terms with den > 0 (not checked).

    `Fraction(num, den)` would take their gcd again, which on sums of a
    thousand terms is a gcd of two ints of hundreds of digits.  This sets the
    two slots directly, as `Fraction._from_coprime_ints` does on Python 3.12+.
    """
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def reciprocal_power_sums(limit: int, p: int = 1, scale: Fraction | int = 1) -> Iterator[Fraction]:
    """scale * sum_{k<=n} 1/k^p in lowest terms for n = 1..limit, one at a time.

    The running sum num/den is a coprime pair of ints.  The term scale/k^p is
    n/d in lowest terms, and it is added by the rule of `Fraction.__add__`
    (Knuth, TAOCP 4.5.1): with g = gcd(den, d),
        num/den + n/d = t / ((den/g) d),   t = num (d/g) + n (den/g),
    and gcd(t, (den/g) d) = gcd(t, g), as both summands are in lowest terms.
    So every gcd is against a divisor of the small d, never between two long
    ints, and each sum is built by `coprime_fraction`.
    """
    cn, cd = Fraction(scale).as_integer_ratio()
    num, den = 0, 1
    for k in range(1, limit + 1):
        kp = k ** p
        g = math.gcd(cn, kp)
        n, d = cn // g, cd * (kp // g)
        g = math.gcd(den, d)
        if g == 1:
            num, den = num * d + n * den, den * d
        else:
            s = den // g
            t = num * (d // g) + n * s
            g2 = math.gcd(t, g)
            num, den = (t, s * d) if g2 == 1 else (t // g2, s * (d // g2))
        yield coprime_fraction(num, den)


def exp_enclosure(x: Fraction, terms: int = 40) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of exp(x) for rational x >= 0.

    Partial Taylor sum S_K plus the geometric remainder cap
    t_{K+1} / (1 - x/(K+2)), valid whenever x < K+2.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("exp_enclosure requires x >= 0")
    K = max(terms, 2 * (int(x) + 1))
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, K + 1):
        term = term * x / k
        total += term
    next_term = term * x / (K + 1)
    r = x / (K + 2)
    if r >= 1:
        raise ValueError("not enough terms for a certified remainder")
    tail = next_term / (1 - r)
    return total, total + tail


def exp_lower_pow2(x: Fraction) -> int:
    """Exponent k with 2^k < e^x, certified via the upper bound on ln 2."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("requires x > 0")
    k = int(x / LOG2_UPPER)
    # k * ln2 <= k * LOG2_UPPER <= x, with strict inequality for the returned k
    while Fraction(k) * LOG2_UPPER >= x:
        k -= 1
    return k


def floor_times_exp(c: Fraction, x: Fraction, max_terms: int = 400) -> int:
    """Exact floor(c * e^x) for rationals c > 0, x >= 0.

    Refines the enclosure until both ends share a floor; raises if the value
    sits too close to an integer to decide within max_terms.
    """
    c = Fraction(c)
    terms = 40
    while terms <= max_terms:
        lo, hi = exp_enclosure(x, terms)
        flo = (c * lo).numerator // (c * lo).denominator
        fhi = (c * hi).numerator // (c * hi).denominator
        if flo == fhi:
            return flo
        terms *= 2
    raise ValueError(f"floor of {c}*e^{x} not separated at {max_terms} terms")
