import copy
import math
import operator
import pickle
from fractions import Fraction as F
from itertools import accumulate

import pytest

import convalg as ca
from convalg import rational as R


def test_parse_format_rational():
    assert R.parse_rational("3/4") == F(3, 4)
    assert R.parse_rational("-5") == F(-5)
    assert R.format_rational(F(1, 2)) == "1/2"
    assert R.format_rational(F(3)) == "3/1"


def test_certified_constants_against_float_references():
    assert float(R.PI_SQUARED_LOWER) < math.pi ** 2 < float(R.PI_SQUARED_UPPER)
    # pi to 50 decimals, exactly: pi lies in [digits, digits + 10^-50]
    digits = F("3.14159265358979323846264338327950288419716939937510")
    assert R.PI_LOWER < digits and digits + F(1, 10 ** 50) < R.PI_UPPER
    assert float(R.LOG2_LOWER) < math.log(2) < float(R.LOG2_UPPER)
    # partial sum of log n / n^2 plus the integral tail stays below the constant
    partial = sum(math.log(n) / n ** 2 for n in range(1, 201))
    tail = (math.log(200) + 1) / 200
    assert partial + tail < float(R.LOG_SUM_OVER_SQUARES_UPPER)


def test_exp_enclosure():
    for x in (F(0), F(1), F(2), F(4), F(1, 3)):
        lo, hi = R.exp_enclosure(x)
        assert lo <= F(math.exp(float(x))) <= hi or (hi - lo) < F(1, 10 ** 12)
        assert float(lo) == pytest.approx(math.exp(float(x)), rel=1e-12)
    with pytest.raises(ValueError):
        R.exp_enclosure(F(-1))


def test_exp_lower_pow2():
    k = R.exp_lower_pow2(F(48400))
    assert k * R.LOG2_UPPER < 48400  # certifies 2^k < e^48400
    assert (k + 2) * math.log(2) > 48400  # and it is nearly tight


def test_floor_times_exp():
    assert R.floor_times_exp(F(2), F(4)) == 109  # 2e^4 = 109.196...
    assert R.floor_times_exp(F(1), F(1)) == 2


def test_sigma_values():
    assert ca.sigma(0) == 1
    assert ca.sigma(1) == 1
    assert ca.sigma(-3) == F(1, 9)


# --------------------------------------------------------------------------
# reciprocal-power sums on integer numerators
# --------------------------------------------------------------------------

def brute_reciprocal_power_sums(limit, p, scale):
    """The running Fraction sum the exact harmonic paths used to keep."""
    return list(accumulate(F(scale, k ** p) for k in range(1, limit + 1)))


@pytest.mark.parametrize("scale", [F(1), F(7, 3), F(12, 7), F(1, 1501)])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_reciprocal_power_sums_match_the_running_fraction_sum(p, scale):
    mine = list(R.reciprocal_power_sums(1500, p, scale))
    brute = brute_reciprocal_power_sums(1500, p, scale)
    assert len(mine) == len(brute) == 1500
    for n, (s, b) in enumerate(zip(mine, brute), 1):
        assert s == b, n
        assert type(s) is F
        assert (hash(s), repr(s), str(s)) == (hash(b), repr(b), str(b)), n
        assert math.gcd(s.numerator, s.denominator) == 1 and s.denominator > 0, n


def test_reciprocal_power_sums_edge_arguments():
    assert list(R.reciprocal_power_sums(0)) == []
    assert list(R.reciprocal_power_sums(3)) == [F(1), F(3, 2), F(11, 6)]
    assert list(R.reciprocal_power_sums(3, 2, -2)) == [F(-2), F(-5, 2), F(-49, 18)]
    assert list(R.reciprocal_power_sums(4, 1, 0)) == [F(0)] * 4
    for s in R.reciprocal_power_sums(40, 3, F(-30, 7)):
        assert math.gcd(s.numerator, s.denominator) == 1 and s.denominator > 0


COPRIME_PAIRS = [(0, 1), (1, 1), (-1, 1), (5, 1), (3, 4), (-3, 4), (22, 7), (-7, 3),
                 (1, 10 ** 40), (3 ** 300 + 2, 2 ** 500), (-(2 ** 521 - 1), 3 ** 200)]
OTHERS = [F(0), F(1), F(-7, 3), F(2 ** 500, 3 ** 7), 2, -1, 0]


@pytest.mark.parametrize("num, den", COPRIME_PAIRS, ids=range(len(COPRIME_PAIRS)))
def test_coprime_fraction_behaves_like_the_normalised_fraction(num, den):
    assert math.gcd(num, den) == 1 and den > 0
    mine, ref = R.coprime_fraction(num, den), F(num, den)
    assert type(mine) is F and isinstance(mine, F)
    assert (mine.numerator, mine.denominator) == (ref.numerator, ref.denominator)
    assert mine.as_integer_ratio() == ref.as_integer_ratio()
    assert (hash(mine), repr(mine), str(mine)) == (hash(ref), repr(ref), str(ref))
    assert (float(mine), int(mine), round(mine), math.floor(mine), math.ceil(mine)) == \
        (float(ref), int(ref), round(ref), math.floor(ref), math.ceil(ref))
    assert (bool(mine), -mine, abs(mine), mine ** 2, mine ** -1 if num else None) == \
        (bool(ref), -ref, abs(ref), ref ** 2, ref ** -1 if num else None)
    assert mine.limit_denominator(1000) == ref.limit_denominator(1000)
    assert {mine: 1}[ref] == 1 and mine in {ref}
    assert pickle.loads(pickle.dumps(mine)) == ref and copy.deepcopy(mine) == ref
    ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
           operator.mod, operator.pow, operator.eq, operator.ne, operator.lt, operator.le,
           operator.gt, operator.ge)
    for other in OTHERS + [float(ref), 0.5, -2.25]:
        for op in ops:
            assert _op_outcome(op, mine, other) == _op_outcome(op, ref, other), (op, other)
            assert _op_outcome(op, other, mine) == _op_outcome(op, other, ref), (op, other)


def _op_outcome(op, a, b):
    """(type, value) of op(a, b), or the exception type it raises."""
    try:
        result = op(a, b)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return type(exc)
    return type(result), result


# --------------------------------------------------------------------------
# sigma subconvolutivity constant
# --------------------------------------------------------------------------

def test_sigma_ratio_at_zero_matches_zeta_oracle():
    """Independent oracle: sum sigma(n)^2 = 1 + 2 zeta(4), enclosed by exact
    partial sums with integral-comparison bounds."""
    M = 400
    partial = F(1) + 2 * sum(F(1, n ** 4) for n in range(1, M + 1))
    oracle_lo = partial + 2 * F(1, 3 * (M + 1) ** 3) * 0  # partial alone is a lower bound
    oracle_hi = partial + 2 * F(1, 3 * M ** 3)
    iv = ca.sigma_conv_ratio(0, 200)
    assert iv.lo >= oracle_lo - F(1, 10 ** 6)
    assert iv.lo <= oracle_hi
    assert iv.hi >= oracle_lo
    # float cross-check against 1 + pi^4/45
    target = 1 + math.pi ** 4 / 45
    assert iv.contains(F(target))
    assert float(iv.width) < 1e-6


def brute_sigma_partial(m, trunc):
    return sum(R.sigma(n) * R.sigma(m - n) for n in range(-trunc, trunc + 1))


@pytest.mark.parametrize("trunc, ms", [
    (200, range(61)),
    (100, (0, 1, 2, 7, 30, 49)),
    (333, (0, 1, 3, 11, 60, 97, 165)),
])
def test_sigma_ratio_closed_form_equals_enumeration(trunc, ms):
    tail = F(5, 3 * trunc ** 3)
    for m in ms:
        partial = brute_sigma_partial(m, trunc)
        assert ca.sigma_conv_ratio(m, trunc) == ca.Interval(partial / R.sigma(m),
                                                            (partial + tail) / R.sigma(m))
        assert ca.sigma_conv_ratio(-m, trunc) == ca.sigma_conv_ratio(m, trunc)


# the exact enclosure computed by term-by-term enumeration; its lower end is
# the ratio at m = 60, its upper end the cap for m > 60
C2_LO = F(int(
    "157522712409844028668152008031000911245909209987372323781388163195206949"
    "543835310513750617250189278522556408822037730559217007855019017684870840"
    "988339753589441317144937138407208679723366914530903159752607246840864112"
    "596679593"), int(
    "183641743757105554923500878370611769063186447502777256945581438653152331"
    "412213224869985360593760953795691086926857736132828521050229144699397490"
    "950497798300717558219288039868357949429024759992265118856935904927044413"
    "44000000"))


def test_sigma_constant_pinned():
    c2 = ca.sigma_subconvolutive_constant()
    assert c2.lo == C2_LO == ca.sigma_conv_ratio(60, 200).lo
    assert c2.hi == F(72119579, 7625000)


def test_sigma_ratio_requires_wide_truncation():
    with pytest.raises(ValueError):
        ca.sigma_conv_ratio(80, 100)


def test_sigma_constant_interval():
    c2 = ca.sigma_subconvolutive_constant(200)
    assert c2.lo <= c2.hi
    # the constant dominates every scanned ratio
    for m in (0, 1, 2, 5, 10, 25, 60):
        assert c2.hi >= ca.sigma_conv_ratio(m, 200).lo
    # the sup is at least the m=0 value and the limit 2(1+pi^2/3) ~ 8.58
    assert c2.lo > F(17, 2)
    assert c2.hi < 10


def test_sigma_ratio_examples_small_m():
    # ratio(2) exceeds the m=0 value (the sup is not at 0)
    r0 = ca.sigma_conv_ratio(0, 200)
    r2 = ca.sigma_conv_ratio(2, 200)
    assert r2.lo > r0.hi


# --------------------------------------------------------------------------
# q sequence
# --------------------------------------------------------------------------

def test_build_q_sequence_terms():
    seq = ca.build_q_sequence(2)
    assert seq.terms == (2, 220)
    # independent check of the least-multiple construction: 4e^4 ~ 218.39
    threshold = 4 * math.exp(4)
    assert 218 < threshold < 220
    assert seq.terms[1] % seq.terms[0] == 0
    assert seq.terms[1] > threshold
    assert seq.terms[1] - 2 <= threshold  # least such multiple
    # the growth witness certifies q_3 > 2 q_2 e^(q_2^2)
    assert seq.next_lower > 0
    assert math.log(2) * (seq.next_lower.bit_length() - 1) < 220 ** 2 + math.log(440)


def test_build_q_sequence_depth_validation():
    with pytest.raises(ValueError):
        ca.build_q_sequence(1)
    with pytest.raises(ValueError):
        ca.build_q_sequence(4)
    seq3 = ca.build_q_sequence(3)
    assert seq3.terms == (2, 220)


def test_q_fractional_interval_n1():
    seq = ca.build_q_sequence(2)
    iv = ca.q_fractional_interval(seq, 1)
    assert iv.lo == F(1, 110)
    assert iv.hi < F(1, 55)
    assert iv.hi - iv.lo == seq.terms[0] * seq.tail_upper()
    # certified below e^-4
    assert float(iv.hi) < math.exp(-4)


def test_q_fractional_certificates():
    seq = ca.build_q_sequence(2)
    c1 = ca.check_q_fractional_bound(seq, 1)
    assert c1.verdict == "holds" and c1.payload["mode"] == "numeric"
    assert c1.payload["ratio_bound"] == "1/55"
    c2 = ca.check_q_fractional_bound(seq, 2)
    assert c2.verdict == "holds" and c2.payload["mode"] == "structural"
    with pytest.raises(ValueError):
        ca.check_q_fractional_bound(seq, 3)


def test_countex_divergence_lower_bound():
    seq = ca.build_q_sequence(2)
    cert = ca.countex_divergence_lower_bound(seq)
    assert cert.verdict == "holds"
    assert cert.payload["verified_partial_sum_lower"] == "1/2"
    assert [t["term_lower"] for t in cert.payload["terms"]] == ["1/4", "1/4"]
