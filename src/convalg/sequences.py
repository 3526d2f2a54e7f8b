"""Integer-sequence machinery with certified tails.

Two independent pieces live here:

* the subconvolutivity constant of the reciprocal-square kernel sigma,
  i.e. a rigorous enclosure of  sup_m  sum_n sigma(n) sigma(m-n) / sigma(m),
  computed from exact partial sums, integral-comparison range tails and a
  closed-form cap for all m beyond the scanned range.  The partial sums are
  closed forms in the exact sums H_p[k] = sum_{i<=k} 1/i^p: for n not in {0, m},
      1/(n^2 (m-n)^2) = (1/n^2 + 1/(m-n)^2)/m^2 + 2 (1/n + 1/(m-n))/m^3,
  so one table of H_1, H_2, H_4 serves every scanned m.  The tables come
  from `rational.reciprocal_power_sums`, which keeps each running sum as a
  coprime pair of ints and reduces a step only by gcds against the term's
  small denominator k^p;

* the rapidly growing integer sequence q_1=2, q_n = least multiple of
  q_{n-1} exceeding 2 q_{n-1} exp(q_{n-1}^2), whose reciprocal sum alpha has
  fractional parts {q_n alpha} < 2 q_n / q_{n+1} < exp(-q_n^2).  Those bounds
  drive the divergence certificate for the quarter-power circle weight.
"""

from __future__ import annotations

from fractions import Fraction

from .certificates import Certificate, HOLDS, Record
from .intervals import Interval
from .rational import (
    LOG2_UPPER,
    PI_SQUARED_UPPER,
    exp_enclosure,
    exp_lower_pow2,
    floor_times_exp,
    format_rational,
    reciprocal_power_sums,
    sigma,
)


def _ln_upper(x: Fraction) -> Fraction:
    """Rational upper bound on ln(x) for x >= 1 via ln x <= (floor(log2 x)+1) ln 2."""
    x = Fraction(x)
    if x < 1:
        raise ValueError("requires x >= 1")
    bits = 0
    acc = Fraction(1)
    while acc < x:
        acc *= 2
        bits += 1
    return (bits if bits else 1) * LOG2_UPPER


# --------------------------------------------------------------------------
# Subconvolutivity constant of sigma
# --------------------------------------------------------------------------

def _harmonic_sums(limit: int) -> tuple[list[Fraction], ...]:
    """The tables H_p[k] = sum_{1 <= i <= k} 1/i^p for k = 0..limit and p = 1, 2, 4,
    from `reciprocal_power_sums`."""
    return tuple([Fraction(0), *reciprocal_power_sums(limit, p)] for p in (1, 2, 4))


def _conv_ratio(m: int, trunc: int, sums: tuple[list[Fraction], ...]) -> Interval:
    """sigma_conv_ratio from prefix sums reaching trunc + m, for 0 <= m and trunc >= 2m + 2.

    n = 0 and n = m give 2/m^2, the other n split as in the module docstring;
    the 1/n terms cancel except at n = m, and m - trunc < 0, so with T = trunc
        partial(m) = 2/m^2 + (2 H_2[T] + H_2[T-m] + H_2[T+m] - 2/m^2)/m^2
                     + 2 (H_1[T+m] - H_1[T-m] - 2/m)/m^3,
        partial(0) = 1 + 2 H_4[T].
    """
    h1, h2, h4 = sums
    if m == 0:
        partial = 1 + 2 * h4[trunc]
    else:
        inv_sq = Fraction(1, m * m)
        partial = (2 * inv_sq
                   + (2 * h2[trunc] + h2[trunc - m] + h2[trunc + m] - 2 * inv_sq) * inv_sq
                   + 2 * (h1[trunc + m] - h1[trunc - m] - Fraction(2, m)) / m ** 3)
    tail = Fraction(5, 3 * trunc ** 3)
    inv = Fraction(1) / sigma(m)
    return Interval(partial * inv, (partial + tail) * inv)


def sigma_conv_ratio(m: int, trunc: int = 200) -> Interval:
    """Enclosure of sum_n sigma(n) sigma(m-n) / sigma(m).

    Exact partial sum over |n| <= trunc (in closed form, `_conv_ratio`); the
    two range tails are bounded by integral comparison: for n > trunc >= 2|m|
    we have n-m >= n/2, so sigma(m-n) <= 4/n^2 and the tail is below
    4 * 1/(3 trunc^3); for n < -trunc, sigma(m-n) <= sigma(n) gives
    1/(3 trunc^3).
    """
    m = abs(m)
    if trunc < max(100, 2 * m + 2):
        raise ValueError("trunc must be >= max(100, 2|m|+2)")
    return _conv_ratio(m, trunc, _harmonic_sums(trunc + m))


def _unscanned_cap(scan_limit: int) -> Fraction:
    """Rational bound on the ratio valid for every m > scan_limit >= 2.

    Splitting the sum at m/2 and applying the chord bound
    1/(1-x)^2 <= 1+6x on [0,1/2] gives
        ratio(m) <= 2 (1 + pi^2/3) + (12/m)(1 + ln(m/2)),
    and the correction term decreases in m.
    """
    m = scan_limit + 1
    base = 2 * (1 + PI_SQUARED_UPPER / 3)
    correction = Fraction(12, m) * (1 + _ln_upper(Fraction(m, 2)))
    return base + correction


def sigma_subconvolutive_constant(trunc: int = 200) -> Interval:
    """Enclosure of the best constant C2 with sum sigma(n) sigma(m-n) <= C2 sigma(m).

    The lower end is the largest scanned ratio (a witness that no smaller
    constant works); the upper end dominates both every scanned ratio and the
    closed-form cap for all m beyond the scan, so it is a valid constant.
    The scan covers m <= min(60, trunc/2 - 1).
    """
    if trunc < 100:
        raise ValueError("trunc must be >= 100")
    scan_limit = min(60, trunc // 2 - 1)
    sums = _harmonic_sums(trunc + scan_limit)
    lo = Fraction(0)
    hi = Fraction(0)
    for m in range(scan_limit + 1):
        r = _conv_ratio(m, trunc, sums)
        lo = max(lo, r.lo)
        hi = max(hi, r.hi)
    return Interval(lo, max(hi, _unscanned_cap(scan_limit)))


# --------------------------------------------------------------------------
# Rapidly growing denominators and their fractional parts
# --------------------------------------------------------------------------

class QSequence(Record):
    """Concrete terms plus a certified lower bound for the next (symbolic) term.

    The depth-3 third term exceeds 440*e^48400 and is kept only as the growth
    witness ``next_lower``; it is never materialized as an integer value.
    """

    depth: int
    terms: tuple[int, ...]
    next_lower: int

    def __init__(self, depth: int, terms: tuple[int, ...], next_lower: int) -> None:
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "next_lower", next_lower)

    def tail_upper(self) -> Fraction:
        """Certified bound on sum_{k > len(terms)} 1/q_k (successive ratios >= 2)."""
        return Fraction(2, self.next_lower)


def build_q_sequence(depth: int) -> QSequence:
    """q_1 = 2, q_2 = 220; the next term only as a certified lower bound.

    depth must be 2 or 3: the third term already exceeds e^48400 and is
    refused as a concrete integer beyond its growth witness.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if depth > 3:
        raise ValueError("depth beyond 3 refused: q_3 exceeds e^48400; "
                         "it is stored symbolically as a growth witness only")
    q1 = 2
    # least multiple of q1 strictly above 2*q1*e^(q1^2) = 4e^4 ~ 218.39
    m2 = floor_times_exp(Fraction(2 * q1, q1), Fraction(q1 * q1)) + 1
    q2 = q1 * m2
    # q3 > 2*q2*e^(q2^2); certified lower bound via e^x > 2^floor(x/ln2)
    next_lower = 2 * q2 * (2 ** exp_lower_pow2(Fraction(q2 * q2)))
    return QSequence(depth=depth, terms=(q1, q2), next_lower=next_lower)


def _exp_neg_upper_is_above(value: Fraction, exponent: int) -> bool:
    """Certified check value < exp(-exponent) via a rational enclosure of e^exponent."""
    _, hi = exp_enclosure(Fraction(exponent))
    return value < 1 / hi


def _round_out(lo: Fraction, hi: Fraction, digits: int = 60) -> tuple[Fraction, Fraction]:
    """Round an enclosure outward onto a decimal grid (payload cosmetics only;
    all comparisons use the exact values)."""
    d = 10 ** digits
    lo_r = Fraction((lo * d).numerator // (lo * d).denominator, d)
    hi_num = (hi * d).numerator
    hi_den = (hi * d).denominator
    hi_r = Fraction(-((-hi_num) // hi_den), d)
    return lo_r, hi_r


def q_fractional_interval(seq: QSequence, n: int) -> Interval:
    """Exact certified enclosure of the fractional part {q_n alpha}.

    q_n * sum_{k<=n} 1/q_k is an integer by the enforced divisibility, so only
    the later terms contribute: the concrete ones exactly, the rest through
    tail < 2/next_lower.  The true value sits strictly inside the enclosure.
    """
    if n < 1 or n > len(seq.terms):
        raise ValueError("tail not certifiable at this index")
    q = seq.terms[n - 1]
    head = q * sum(Fraction(1, t) for t in seq.terms[:n])
    if head.denominator != 1:
        raise AssertionError("divisibility of the sequence terms is violated")
    rest = sum(Fraction(q, t) for t in seq.terms[n:])
    lo = rest % 1
    hi = lo + q * seq.tail_upper()
    if hi >= 1:
        raise AssertionError("fractional interval not separated from 1")
    return Interval(lo, hi)


def check_q_fractional_bound(seq: QSequence, n: int) -> Certificate:
    """Certify {q_n alpha} < 2 q_n / q_{n+1} and < exp(-q_n^2).

    n below the last concrete term is fully numeric against the exact
    enclosure.  The last concrete term is structural: {q_n alpha} = q_n * tail
    < 2 q_n / q_{n+1} holds because successive ratios are at least 2, and
    2 q_n / q_{n+1} < exp(-q_n^2) because q_{n+1} > 2 q_n exp(q_n^2) by
    construction.
    """
    iv = q_fractional_interval(seq, n)
    q = seq.terms[n - 1]
    if n < len(seq.terms):
        bound_ratio = Fraction(2 * q, seq.terms[n])
        if not (iv.hi < bound_ratio and _exp_neg_upper_is_above(iv.hi, q * q)):
            raise AssertionError("fractional bound failed; sequence construction is broken")
        mode = "numeric"
    else:
        bound_ratio = Fraction(2 * q, seq.next_lower)
        mode = "structural"
    lo_r, hi_r = _round_out(iv.lo, iv.hi)
    small = bound_ratio < Fraction(1, 10 ** 6)
    payload = {
        "q": q,
        "fractional_part_lo": format_rational(lo_r),
        "fractional_part_hi": format_rational(hi_r),
        "ratio_bound": None if small else format_rational(bound_ratio),
        "ratio_bound_denominator_bits": bound_ratio.denominator.bit_length() if small else None,
        "exp_bound_exponent": q * q,
        "mode": mode,
    }
    return Certificate(prop="fractional-approx", verdict=HOLDS, payload=payload,
                       cert_id=f"qseq:n{n}")


def countex_divergence_lower_bound(seq: QSequence) -> Certificate:
    """Per-term lower bounds |log w(q_n alpha)| / q_n^2 >= 1/4 for w(t)=t^(1/4).

    {q_n alpha} < exp(-q_n^2) gives |log {q_n alpha}| > q_n^2, and
    log w(t) = (1/4) log t, so each certified term is at least 1/4; the sum of
    the verified terms is reported as a divergence witness.
    """
    if seq.depth < 2:
        raise ValueError("depth >= 2 required")
    terms = []
    for n in range(1, len(seq.terms) + 1):
        check_q_fractional_bound(seq, n)
        terms.append({"n": n, "q": seq.terms[n - 1], "term_lower": format_rational(Fraction(1, 4))})
    total = Fraction(len(terms), 4)
    payload = {
        "terms": terms,
        "verified_partial_sum_lower": format_rational(total),
        "weight": "circle-quarter",
    }
    return Certificate(prop="divergence-term", verdict=HOLDS, payload=payload,
                       cert_id=f"qseq:divergence:depth{seq.depth}")
