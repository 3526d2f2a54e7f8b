"""Construction of the subconvolutive weight functions and their rescalings.

All constructions produce an auxiliary weight u that is positive, even, and
(after an explicit rescale) subconvolutive: u * u <= u pointwise.  The induced
algebra weight is w = u^(-1/q) with 1/p + 1/q = 1.  Four families are built:

* layer weights on groups exhausted by nested finite subgroups (the p-power
  torsion circles): constant value phi_n = s^n/p^n on the n-th shell;
* weights on the additive rationals: phi_n = s^n/n! modulated by the
  reciprocal-square kernel sigma of the even integer part;
* weights on finite-support direct sums, assembled from per-summand weights
  through small coefficients alpha_j and subset coefficients a_s;
* the rational-decay weight 1/((1+x_1^2)...(1+x_d^2)) on R^d and its product
  with a discrete factor, enclosed with the rational bounds on pi.

The two shell families are fixed by one positive rational s (1/2 by
default); `ShellWeight` derives their mass, tails and monotonicity from it.
Each family also owns its truncated self-convolution (`_conv`, called
through `convolution.conv_at`) and the cutoffs it reads (`trunc_default`).
Every group weight evaluates to exact rationals; only the algebra weight
u^(-1/q) is float.  The long exact sums (the rationals chain count and its
sigma sums, the direct-sum pattern loop) and the direct-sum products run on
Python ints, over a denominator known in advance or kept at the lcm of the
terms' (`rational.ratio_sum`), and build one normalised Fraction per result.
Weights are immutable in every field; evaluation is pure and safe to run
concurrently.  A direct sum memoises its summand values and rows in tables
of its own (`DirectSumWeight._tables`), which go when the weight goes; a
race between threads can only repeat work.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from fractions import Fraction
from typing import Optional

from . import groups as G
from .certificates import Record, TruncationSpec
from .intervals import Interval, Scalar
from .rational import PI_LOWER, PI_UPPER, even_floor, exp_enclosure, ratio_sum, sigma

_RANGE_SERIES_TERMS = 32


class TailUnavailableError(ValueError):
    """No closed-form tail is available for this weight's provenance."""


# --------------------------------------------------------------------------
# Direct-sum coefficients
# --------------------------------------------------------------------------

# The coefficient memos take eps1 as its (num, den) pair, which hashes much faster
# than a Fraction: the pattern loop of DirectSumWeight._conv looks them up per term.
@functools.lru_cache(maxsize=None)
def _coeff_value(eps1: tuple[int, int], support: frozenset) -> Fraction:
    num, den = eps1
    return Fraction(num, den * sum(math.factorial(j) for j in support) if support else den)


@functools.lru_cache(maxsize=None)
def _pair_sum(eps1: tuple[int, int], free: frozenset, base: frozenset) -> Fraction:
    members = sorted(free)
    terms = []
    for mask in range(2 ** len(members)):
        part = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        a, b = _coeff_value(eps1, base | part), _coeff_value(eps1, base | (free - part))
        terms.append((a.numerator * b.numerator, a.denominator * b.denominator))
    return Fraction(*ratio_sum(terms))


class SubsetCoeffs(Record):
    """Subset coefficients a_s = eps1 / sum_{j in s} j!, a_empty = eps1.

    Monotone under unions by construction; the split-sum budget
    sum_{v subset s} a_v a_{s\\v} / a_s <= 1/4 holds for every finite s once
    eps1 * e^2 <= 1/8, which `certify` checks with a rational enclosure of e^2.
    """

    eps1: Fraction

    def __init__(self, eps1: Fraction = Fraction(1, 60)) -> None:
        object.__setattr__(self, "eps1", eps1)

    def value(self, support: frozenset) -> Fraction:
        return _coeff_value(self.eps1.as_integer_ratio(), frozenset(support))

    def certify(self) -> None:
        if not 0 < self.eps1 <= 1:
            raise ValueError("eps1 must lie in (0, 1]")
        _, e2_hi = exp_enclosure(Fraction(2))
        if self.eps1 * e2_hi > Fraction(1, 8):
            raise ValueError("eps1 too large: the split-sum budget 1/4 is not certified")

    def pair_sum(self, free: frozenset, base: frozenset) -> Fraction:
        """Exact K(P, Q) = sum_{A subset P} a_{Q u A} a_{Q u (P\\A)} for P = free, Q = base."""
        return _pair_sum(self.eps1.as_integer_ratio(), frozenset(free), frozenset(base))

    def split_sum(self, support: frozenset) -> Fraction:
        """Exact sum_{v subset s} a_v a_{s\\v} / a_s (for enumeration checks)."""
        return self.pair_sum(support, frozenset()) / self.value(support)


def default_coeffs(eps1: Fraction = Fraction(1, 60)) -> SubsetCoeffs:
    coeffs = SubsetCoeffs(eps1)
    coeffs.certify()
    return coeffs


class AlphaSequence(Record):
    """Per-summand damping factors alpha_j in (0, 1), small enough that both
    prod (1 + alpha_j) < 2 and prod (1 + alpha_j^2 (u_j*u_j)(0)) < 2."""

    values: tuple[Fraction, ...]
    rule: str

    def __init__(self, values: tuple[Fraction, ...], rule: str = "3^-j") -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rule", rule)

    def value(self, j: int) -> Fraction:
        return self.values[j - 1]

    def certify(self, summand_zero_values: tuple[Fraction, ...]) -> None:
        if len(self.values) != len(summand_zero_values):
            raise ValueError("alpha count must match summand count")
        prod_plain = Fraction(1)
        prod_conv = Fraction(1)
        for a, u0 in zip(self.values, summand_zero_values):
            if not 0 < a < 1:
                raise ValueError("alpha_j must lie in (0, 1)")
            prod_plain *= 1 + a
            # (u_j*u_j)(0) <= u_j(0) for subconvolutive summands
            prod_conv *= 1 + a * a * u0
        if prod_plain >= 2 or prod_conv >= 2:
            raise ValueError("alpha sequence too large for the product budgets")


def default_alphas(summands: tuple["WeightFn", ...]) -> AlphaSequence:
    """alpha_j = 3^-j / max(1, u_j(0))."""
    values = []
    for j, u in enumerate(summands, start=1):
        u0 = u.eval(u.descriptor.identity())
        values.append(Fraction(1, 3 ** j) / max(Fraction(1), Fraction(u0)))
    return AlphaSequence(tuple(values))


# --------------------------------------------------------------------------
# Weight functions
# --------------------------------------------------------------------------

class WeightFn(Record):
    """Positive even evaluator on one group, with provenance-backed bounds.

    Subclasses are immutable records (`Record`); `scale` is a multiplicative
    normalization applied on top of the raw construction.  `b_bound` is a
    certified constant B with u*u <= B*u (None when unavailable), so a weight
    carries a subconvolutivity certificate exactly when b_bound <= 1.
    """

    construction: str = "abstract"
    exact: bool = True

    scale: Scalar

    @property
    def descriptor(self) -> G.GroupDescriptor:
        """The group the weight lives on."""
        return self.group

    def raw_eval(self, x) -> Scalar:
        raise NotImplementedError

    def eval(self, x) -> Scalar:
        return self.scale * self.raw_eval(x)

    def shell_key(self, x):
        """Hashable shell class of x, x itself by default.  Contract: points with
        equal keys have equal `eval` values and equal `conv_at` enclosures,
        exactly, at every truncation.  `check_b`, `check_positivity` and
        `ess_inf_check` evaluate one point per key, and `check_submultiplicative`
        on an algebra weight evaluates its base once per key.  `check_evenness`
        reads no key, since it tests the evenness that keys such as |q| assume;
        it evaluates x and -x once per pair {x, -x} instead."""
        return x

    def raw_b_bound(self) -> Optional[Scalar]:
        return None

    @property
    def b_bound(self) -> Optional[Scalar]:
        raw = self.raw_b_bound()
        return None if raw is None else raw * self.scale

    @property
    def has_b_certificate(self) -> bool:
        b = self.b_bound
        return b is not None and b <= 1

    def rescaled(self, factor: Scalar) -> "WeightFn":
        """u times factor; an exact weight keeps a rational scale, as a float
        factor converts exactly."""
        if self.exact:
            factor = Fraction(factor)
        return self.replace(scale=self.scale * factor)

    def max_value(self) -> Optional[Scalar]:
        return None

    def decay_certificate(self, x) -> Optional[tuple[Scalar, int]]:
        """(C, d) with 1/u(nx) <= C n^d for all n >= 1, from provenance."""
        return None

    def trunc_default(self) -> TruncationSpec:
        """The cutoffs `_conv` uses for unset fields: its fields are exactly the
        ones the construction reads, so none here."""
        return TruncationSpec()

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """Enclosure of (u*u)(x): an exact partial sum plus a tail bound read off
        the construction's closed form, or [partial, None] where none is certified."""
        raise TailUnavailableError(
            f"self-convolution needs a discrete exact or Euclidean weight, got {type(self).__name__}")

    def point_add(self, s, t):
        return G.add(s, t)

    def point_neg(self, s):
        return G.neg(s)


class ShellWeight(WeightFn):
    """u = phi_n = s^n / m_n on the n-th shell of a subgroup chain, up to a
    shell-wise factor, for one positive rational s.  m_n is the chain's mass
    weight (chain_weight: |G_n| = p^n on the Prüfer chain, t_n = n! on the
    rationals) and g = min_n m_{n+1}/m_n its growth (p, or t_2/t_1 = 2); the
    ratio m_{n+1}/m_n never decreases on either chain.  Every fact the
    certificates read follows from s and g:

    * mass: sum_n phi_n m_n = sum_n s^n = s/(1-s) when s < 1.  For s >= 1 it
      diverges, and the weight has no b-bound and no tail.
    * squares: sq_term(n) = sq_weight(n) phi_n^2 = c s^(2n) / m_n from the
      second shell on (c = (p-1)/p against the shells |U_n| = p^n - p^(n-1),
      c = 1 against t_n), so consecutive squares have ratio s^2 m_n/m_{n+1}
      <= s^2/g: exactly s^2/p on the Prüfer chain, at most s^2/2 on the
      rationals.  For s < 1 that is below 1/2, and sq_tail sums the bounding
      geometric series, exactly on the Prüfer chain.
    * order: phi_{n+1}/phi_n = s m_n/m_{n+1} never increases, so phi is
      nonincreasing exactly when s <= g, and on layers 1..m it is smallest at
      an end: min(phi_1, phi_m).
    """

    s: Fraction

    def __init__(self, group: G.GroupDescriptor, s: Fraction,
                 scale: Fraction = Fraction(1)) -> None:
        """The fields (group, s, scale) of both shell families; an int s becomes exact."""
        if isinstance(s, bool) or not isinstance(s, (int, Fraction)) or s <= 0:
            raise ValueError(f"s must be a positive rational, not {s!r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "s", Fraction(s))
        object.__setattr__(self, "scale", scale)

    def chain_weight(self, n: int) -> int:
        raise NotImplementedError

    def sq_weight(self, n: int) -> int:
        raise NotImplementedError

    @property
    def growth(self) -> int:
        """g = min_n m_{n+1}/m_n."""
        raise NotImplementedError

    def term(self, n: int) -> Fraction:
        """phi_n = s^n / m_n (shells are 1-based)."""
        if n < 1:
            raise ValueError("shell indices are 1-based")
        s = self.s
        return Fraction(s.numerator ** n, s.denominator ** n * self.chain_weight(n))

    def mass(self) -> Optional[Fraction]:
        """sum_n phi_n m_n = s/(1-s); None when s >= 1 (the sum diverges)."""
        return self.s / (1 - self.s) if self.s < 1 else None

    def sq_term(self, n: int) -> Fraction:
        """sq_weight(n) phi_n^2, the shell factor of the self-convolution."""
        return self.sq_weight(n) * self.term(n) ** 2

    def sq_tail(self, cutoff: int) -> Optional[Fraction]:
        """sum_{j > cutoff} sq_term(j) <= sq_term(cutoff + 1) / (1 - s^2/g),
        with equality on the Prüfer chain; None when s >= 1."""
        if self.mass() is None:
            return None
        return self.sq_term(cutoff + 1) / (1 - self.s * self.s / self.growth)

    def orbit_min(self, m: int) -> Fraction:
        """min_{n <= m} phi_n = min(phi_1, phi_m)."""
        return min(self.term(1), self.term(m))

    def max_value(self) -> Optional[Fraction]:
        """scale phi_1 when phi is nonincreasing (s <= g), else None."""
        return self.scale * self.term(1) if self.s <= self.growth else None


def _geometric_sum(z: Fraction, a: int, b: int) -> Fraction:
    """sum_{j=a..b} z^j, which is 0 when b < a."""
    if b < a:
        return Fraction(0)
    if z == 1:
        return Fraction(b - a + 1)
    return (z ** a - z ** (b + 1)) / (1 - z)


class LayerWeight(ShellWeight):
    """u = phi_n = (s/p)^n on the n-th shell of a nested-finite-subgroup
    chain; the mass counts the subgroup sizes |G_n|, the squares the shell
    sizes |U_n|."""

    group: G.PrueferGroup
    s: Fraction
    scale: Fraction

    construction = "pruefer-layer"

    def raw_eval(self, x) -> Fraction:
        return self.term(G.layer_of(x))

    def shell_key(self, x) -> int:
        """The layer: the value, the shell-count partial sum and the tail read nothing else."""
        return G.layer_of(x)

    def chain_weight(self, n: int) -> int:
        return self.group.layer_size(n)

    def sq_weight(self, n: int) -> int:
        return self.group.shell_size(n)

    @property
    def growth(self) -> int:
        return self.group.p

    def raw_b_bound(self) -> Optional[Fraction]:
        mass = self.mass()
        return None if mass is None else 2 * mass

    def trunc_default(self) -> TruncationSpec:
        return TruncationSpec(layer=8)

    def _partial(self, n: int, cutoff: int) -> Fraction:
        """sum_{y in G_cutoff} phi(layer y) phi(layer(x-y)) for x in shell n <= cutoff.

        y in a lower shell j puts x-y in shell n, and so does x-y for y in shell
        n with x-y in G_{n-1}: twice |U_j| phi_j phi_n.  The other y in shell n
        leave x-y in shell n; y in a higher shell puts x-y in the same shell.
        With r = s/p, phi_j = r^j, |U_1| = p and |U_j| = ((p-1)/p) p^j after,
        the three parts are geometric sums in s = p r and s^2/p = p r^2:
        2 r^n ([n > 1] s + ((p-1)/p) sum_{j=2}^{n-1} s^j),
        (p if n = 1 else p^n - 2 p^(n-1)) r^(2n) and
        ((p-1)/p) sum_{j=n+1}^{cutoff} (s^2/p)^j.
        """
        p, s = self.group.p, self.s
        r_n = self.term(n)
        below = (s if n > 1 else 0) + Fraction(p - 1, p) * _geometric_sum(s, 2, n - 1)
        pinned = p if n == 1 else p ** n - 2 * p ** (n - 1)
        above = Fraction(p - 1, p) * _geometric_sum(s * s / p, n + 1, cutoff)
        return 2 * r_n * below + pinned * r_n * r_n + above

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """For x in shell n <= N the sum over the cutoff subgroup G_N is
        sum_{j<n} 2 |U_j| phi_j phi_n + (|U_n| - |G_{n-1}|) phi_n^2
        + sum_{n<j<=N} |U_j| phi_j^2, in closed form (`_partial`).  Outside G_N
        both factors sit in the same shell, so the omitted mass is exactly
        sum_{j>N} |U_j| phi_j^2, a geometric series of ratio s^2/p summed in
        closed form for s < 1 (the enclosure's upper end is then the exact
        value, which conv_exact reads).
        """
        cutoff = trunc.layer or self.trunc_default().layer
        n = G.layer_of(x)
        if n > cutoff:
            raise ValueError("truncation cutoff must reach the layer of x")
        scale_sq = self.scale * self.scale
        partial = scale_sq * self._partial(n, cutoff)
        tail = self.sq_tail(cutoff)
        if tail is None:
            return Interval(partial, None)
        return Interval(partial, partial + scale_sq * tail)

    def decay_certificate(self, x) -> tuple[Fraction, int]:
        # the orbit {nx} stays in the layers up to that of x
        return (Fraction(1) / (self.scale * self.orbit_min(G.layer_of(x))), 0)


@functools.lru_cache(maxsize=None)
def _sigma_range_series(ball: int, shift: int) -> Fraction:
    """Upper bound on sum_{k >= ball} sigma(k) sigma(max(1, k - shift))."""
    edge = ball + _RANGE_SERIES_TERMS - shift - 1
    if edge < 1:
        raise ValueError("range cutoff too small for the tail comparison")
    # sigma(k) sigma(k') = 1/(k k')^2 for k, k' >= 1
    terms = [(1, (k * max(1, k - shift)) ** 2) for k in range(ball, ball + _RANGE_SERIES_TERMS)]
    terms.append((1, 3 * edge ** 3))
    return Fraction(*ratio_sum(terms))


@functools.lru_cache(maxsize=None)
def _sigma_pair_sum(floor_s: int, integral: bool, origin: bool, ball: int) -> Fraction:
    """sum_m sigma(floor|m + j/t|) sigma(floor|s - m|) over the truncation's m.

    The sum sees j/t in [0, 1) only through origin (j = 0) and s = q - j/t
    only through floor_s = floor(s) and whether s is an integer.  m runs
    over [-ball, ball), plus m = ball at the origin (k = ball * t).  Each term
    is 1/(max(1, floor_r) max(1, floor_d))^2, summed on integers.
    """
    terms = []
    for m in range(-ball, ball + 1 if origin else ball):
        if m >= 0:
            floor_r = m
        else:
            floor_r = -m if origin else -m - 1
        if m <= floor_s:
            floor_d = floor_s - m
        else:
            floor_d = m - floor_s if integral else m - floor_s - 1
        terms.append((1, (max(1, floor_r) * max(1, floor_d)) ** 2))
    return Fraction(*ratio_sum(terms))


# The sigma kernel's C2: the upper end of sequences.sigma_subconvolutive_constant(),
# which the tests recompute.
SIGMA_C2 = Fraction(72119579, 7625000)


class RationalsLayerWeight(ShellWeight):
    """u(q) = phi_n sigma(floor|q|) with phi_n = s^n/n! on the n-th shell of
    the rationals chain; the mass and the squares both count the chain values
    t_n."""

    group: G.RationalsGroup
    s: Fraction
    scale: Fraction

    construction = "rationals-layer"

    def raw_eval(self, x) -> Fraction:
        return self.term(G.layer_of(x)) * sigma(even_floor(x.value))

    def shell_key(self, x) -> Fraction:
        """|q|: u is even (so are the layer and even_floor), and the partial sum
        runs over the symmetric |k| <= B t_N, so k -> -k maps the sum at -q onto
        the one at q; both tails read only even_floor(q) and the cutoffs."""
        return abs(x.value)

    def chain_weight(self, n: int) -> int:
        return self.group.chain_value(n)

    sq_weight = chain_weight

    @property
    def growth(self) -> int:
        return 2

    @property
    def c2(self) -> Fraction:
        """The sigma kernel's C2 (`SIGMA_C2`)."""
        return SIGMA_C2

    @property
    def sub_constant(self) -> Fraction:
        """C = 8 * C2: shell sums of sigma(.)sigma(q-.) are below C t_j sigma(floor|q|)."""
        return 8 * self.c2

    def raw_b_bound(self) -> Optional[Fraction]:
        mass = self.mass()
        return None if mass is None else 2 * self.sub_constant * mass

    def _phi_numerators(self, cutoff: int) -> tuple[list[int], int, int]:
        """(P, t_N, D) with phi_n = P[n]/D for n = 1..N (N = cutoff), P[0] = P[N+1]
        = 0 and D = den(s)^N t_N: P[n] = num(s)^n den(s)^(N-n) t_N/t_n, where
        t_N/t_n is a running product down the factorial chain t_n = n t_(n-1)."""
        a, b = self.s.numerator, self.s.denominator
        phi = [0] * (cutoff + 2)
        a_pow, b_pow, d = a ** cutoff, 1, 1
        for n in range(cutoff, 0, -1):
            phi[n] = a_pow * b_pow * d
            a_pow, b_pow, d = a_pow // a, b_pow * b, d * n
        return phi, d, b_pow * d

    def mass_up_to(self, cutoff: int) -> Fraction:
        """sum_{j <= cutoff} (t_j - t_{j-1}) phi_j, the per-unit-interval mass,
        summed over the common denominator of the phi_j."""
        phi, _, den = self._phi_numerators(cutoff)
        total, prev, t = 0, 0, 1
        for j in range(1, cutoff + 1):
            t *= j  # t_j = j!
            total += (t - prev) * phi[j]
            prev = t
        return Fraction(total, den)

    @functools.cached_property
    def _masses(self) -> dict:
        """mass_up_to by cutoff, filled by _conv and dropped with the weight."""
        return {}

    def trunc_default(self) -> TruncationSpec:
        return TruncationSpec(layer=5, ball=12)

    def _partial(self, q: Fraction, cutoff: int, ball: int) -> Fraction:
        """sum_{|k| <= ball t} u(k/t) u(q - k/t) with t = t_cutoff, counted over the chain.

        Write k = m t + j with 0 <= j < t, and q t = F t + r with 0 <= r < t (q
        lies in (1/t)Z).  The sigma factors read j only through four groups,
        j = 0, 0 < j < r, j = r and r < j < t (`_sigma_pair_sum`), and the
        layers a = layer(j/t), b = layer(q - j/t) do not read m.  As t_n | t
        for n <= N, a <= n exactly when d_n = t/t_n divides j, and b <= n exactly
        when d_n divides q t - j, i.e. j = r (mod d_n).  The d_n form a divisor
        chain (d_n' | d_n for n <= n'), so within a group the count C(a', b') of
        j with a <= a' and b <= b' is, with L = layer(q), Z_a' [L <= b'] for
        a' <= b' and R_b' [L <= a'] for a' > b', where Z_n and R_n count the j
        = 0 and the j = r (mod d_n); for L > max(a', b') there are none, as q
        = j/t + (q - j/t) would lie in (1/t_max(a',b'))Z.  By parts, with
        phi_(N+1) = 0 and delta_n = phi_n - phi_(n+1), phi_a = sum_{a<=n<=N}
        delta_n, so sum_j phi_a phi_b = sum_{a',b'} delta_a' delta_b' C(a', b').
        The larger index telescopes, sum_{b' >= max(a', L)} delta_b' =
        phi_max(a', L) and sum_{a' >= max(b' + 1, L)} delta_a' = phi_max(b'+1, L):
        sum_j phi_a phi_b = sum_n delta_n (Z_n phi_max(n, L) + R_n phi_max(n+1, L)).
        The groups enter with their sigma pair sums as integer weights w over
        one denominator, and a group [lo, hi) holds (hi - 1 - c) // d_n - (lo - 1
        - c) // d_n of the j = c (mod d_n), so Z_n and R_n enter only through
        the floors (e - 1 - c) // d_n at the group ends e, c in {0, r}.  From d_N
        = 1 and d_(n-1) = n d_n each floor is the one before divided by n.  With
        phi_n = P_n/D (`_phi_numerators`) the whole sum is an integer over D^2
        times that denominator: one Fraction per point.
        """
        phi, t, den = self._phi_numerators(cutoff)
        floor_q, r = divmod((q * t).numerator, t)
        layer_q = self.group.denominator_layer(q.denominator)
        cuts = (0, 1, max(r, 1), r + 1, t)  # the groups are the j in [cuts[i], cuts[i+1])
        sigmas = ((floor_q, r == 0, True), (floor_q, False, False), (floor_q, True, False),
                  (floor_q - 1, False, False))
        groups = [(lo, hi, _sigma_pair_sum(*sigma_class, ball))
                  for lo, hi, sigma_class in zip(cuts, cuts[1:], sigmas) if lo < hi]
        pair_den = math.lcm(*(pair.denominator for _, _, pair in groups))
        ends: dict[int, int] = {}  # group end e -> the weights ending at e less those starting
        for lo, hi, pair in groups:
            w = pair.numerator * (pair_den // pair.denominator)
            ends[hi] = ends.get(hi, 0) + w
            ends[lo] = ends.get(lo, 0) - w
        weights = list(ends.values())
        at_zero = [e - 1 for e in ends]  # (e - 1 - c) // d_n at n = N, for c = 0 and c = r
        at_r = [e - 1 - r for e in ends]
        total = 0
        for n in range(cutoff, 0, -1):
            zero_count = sum(w * f for w, f in zip(weights, at_zero))
            r_count = sum(w * f for w, f in zip(weights, at_r))
            total += (phi[n] - phi[n + 1]) * (zero_count * phi[max(n, layer_q)]
                                              + r_count * phi[max(n + 1, layer_q)])
            at_zero = [f // n for f in at_zero]
            at_r = [f // n for f in at_r]
        scale = self.scale
        return Fraction(total * scale.numerator ** 2,
                        pair_den * den * den * scale.denominator ** 2)

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """Write each truncation point as m + j/t_N.  The sigma factors read j
        through four groups, each summing sigma(floor|r|) sigma(floor|q-r|) over
        m once, and the layer factors are counted over the divisor chain t/t_n
        in O(N) integer steps per point (`_partial`).  Tails: a layer tail
        8 C2 sigma(floor|q|) sum_{j>N} t_j phi_j^2 plus a range tail from grouping
        the remote points into unit intervals, each carrying at most the full
        per-interval mass, with an integral-comparison cap on the remaining
        sigma series.
        """
        default = self.trunc_default()
        cutoff = trunc.layer or default.layer
        ball = trunc.ball or default.ball
        q = x.value
        reach = even_floor(q) + 1
        if G.layer_of(x) > cutoff or ball < reach + 2:
            raise ValueError("truncation cutoffs must reach the window point")
        partial = self._partial(q, cutoff, ball)
        sq_tail = self.sq_tail(cutoff)
        if sq_tail is None:
            return Interval(partial, None)
        masses = self._masses  # the mass reads only s and N: once per cutoff, not per point
        if cutoff not in masses:
            masses[cutoff] = self.mass_up_to(cutoff)
        scale_sq = self.scale * self.scale
        layer_tail = scale_sq * self.sub_constant * sigma(even_floor(q)) * sq_tail
        range_tail = (2 * scale_sq * masses[cutoff] * self.term(1)
                      * _sigma_range_series(ball, reach))
        return Interval(partial, partial + layer_tail + range_tail)

    def decay_certificate(self, x) -> tuple[Fraction, int]:
        m = G.layer_of(x)
        mx = max(Fraction(1), abs(x.value))
        return (mx * mx / (self.scale * self.orbit_min(m)), 2)


def _safe_layer(x) -> int:
    try:
        return G.layer_of(x)
    except G.LayerError:
        return 1


class DirectSumWeight(WeightFn):
    """u(x) = a_{s(x)} prod_{j in s(x)} alpha_j u_j(x_j) on a finite direct sum."""

    group: G.SumGroup
    summands: tuple[WeightFn, ...]
    alphas: AlphaSequence
    coeffs: SubsetCoeffs
    scale: Fraction

    construction = "direct-sum"

    def __init__(self, group: G.SumGroup, summands: tuple[WeightFn, ...], alphas: AlphaSequence,
                 coeffs: SubsetCoeffs, scale: Fraction = Fraction(1)) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "scale", scale)

    @functools.cached_property
    def _tables(self) -> tuple[dict, dict]:
        """(values, rows), filled as the weight is evaluated and dropped with it.
        Outside the record's fields, so ==, hash, repr and the provenance never
        see them; threads that race on a key only compute the same entry twice."""
        return {}, {}

    def _value(self, j: int, pt) -> Fraction:
        values = self._tables[0]  # by the exact point: check_evenness sees x and -x apart
        if (j, pt) not in values:
            values[j, pt] = self.alphas.value(j) * self.summands[j - 1].eval(pt)
        return values[j, pt]

    def raw_eval(self, x) -> Fraction:
        factors = [self.coeffs.value(x.support())] + [self._value(j, pt) for j, pt in x.coords]
        return Fraction(math.prod(f.numerator for f in factors),
                        math.prod(f.denominator for f in factors))

    def shell_key(self, x) -> tuple:
        """(j, key of x_j) over the support: _conv reads a coordinate only
        through u_j's value, enclosures and layer, which that key fixes."""
        return tuple((j, self.summands[j - 1].shell_key(pt)) for j, pt in x.coords)

    def raw_b_bound(self) -> Fraction:
        # certified by the constructor checks on summands, alphas and coeffs
        return Fraction(1)

    def trunc_default(self) -> TruncationSpec:
        return TruncationSpec(per_summand=(6,) * len(self.summands))

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """Exact pattern decomposition of the direct-sum self-convolution.

        Splitting x' by which coordinates vanish, equal x_j, or differ from both
        reduces the sum to finitely many patterns weighted by subset coefficients;
        each pattern multiplies per-summand quantities: point values, the pinned
        self-convolutions S_j = (u_j*u_j)(x_j) - 2 u_j(0) u_j(x_j), and the
        off-support loop sums Z_j = (u_j*u_j)(0) - u_j(0)^2, each evaluated by
        conv_at with its own tail.  Patterns are grouped by the pinned set C of
        the support and the loop set E of the complement; the two point-term
        patterns on P = support \\ C share one product and differ only in the
        subset coefficients, which add up to
        K(P, C u E) = sum_{A subset P} a_{C u E u A} a_{C u E u (P \\ A)}
        (`SubsetCoeffs.pair_sum`), so a point takes 2^|support| 2^|complement|
        terms instead of 3^|support| 2^|complement|.  Each row (point term, S_j or
        Z_j) is computed once per weight and key (j, j in support,
        u_j.shell_key(x_j), cutoff): the summand contract `shell_key` reads.
        """
        from .convolution import conv_at  # at call time: convolution imports this module

        cutoffs = trunc.per_summand if trunc.per_summand is not None else self.trunc_default().per_summand
        if len(cutoffs) != len(self.summands):
            raise ValueError("per-summand cutoffs must match the summand count")
        rows = self._tables[1]
        in_support = x.support()
        support = sorted(in_support)
        comp = [j for j in range(1, len(self.summands) + 1) if j not in in_support]

        # S_j on the support and Z_j on the complement: disjoint keys, one dict
        point_term, factor = {}, {}
        for j, uj in enumerate(self.summands, start=1):
            xj = x.coord(j)  # the identity off the support
            key = (j, j in in_support, uj.shell_key(xj), cutoffs[j - 1])
            if key not in rows:
                conv = conv_at(uj, xj, TruncationSpec(layer=max(cutoffs[j - 1], _safe_layer(xj))))
                zero = self._value(j, uj.descriptor.identity())
                point = self._value(j, xj) if key[1] else None
                cut = 2 * zero * point if key[1] else zero * zero
                a2 = self.alphas.value(j) ** 2
                rows[key] = point, Interval(max(a2 * conv.lo - cut, Fraction(0)), a2 * conv.hi - cut)
            point_term[j], factor[j] = rows[key]

        # each pattern term is a (num, den) product; lo and hi are summed on integers
        bounds = {j: (f.lo.numerator, f.lo.denominator, f.hi.numerator, f.hi.denominator)
                  for j, f in factor.items()}
        lo_terms, hi_terms = [], []
        for c_mask in range(2 ** len(support)):
            pinned = frozenset(support[i] for i in range(len(support)) if c_mask >> i & 1)
            points = in_support - pinned
            point_num = math.prod(point_term[j].numerator for j in points)
            point_den = math.prod(point_term[j].denominator for j in points)
            for mask in range(2 ** len(comp)):
                base = pinned | frozenset(comp[i] for i in range(len(comp)) if mask >> i & 1)
                pair = self.coeffs.pair_sum(points, base)
                num, den = pair.numerator * point_num, pair.denominator * point_den
                lo_num = hi_num = num
                lo_den = hi_den = den
                for j in base:
                    ln, ld, hn, hd = bounds[j]
                    lo_num, lo_den = lo_num * ln, lo_den * ld
                    hi_num, hi_den = hi_num * hn, hi_den * hd
                lo_terms.append((lo_num, lo_den))
                hi_terms.append((hi_num, hi_den))
        scale_sq = self.scale * self.scale
        lo_num, lo_den = ratio_sum(lo_terms)
        hi_num, hi_den = ratio_sum(hi_terms)
        return Interval(Fraction(lo_num * scale_sq.numerator, lo_den * scale_sq.denominator),
                        Fraction(hi_num * scale_sq.numerator, hi_den * scale_sq.denominator))

    def max_value(self) -> Fraction:
        bound = self.coeffs.eps1
        for j, u in enumerate(self.summands, start=1):
            factor = self.alphas.value(j) * u.max_value()
            if factor > 1:
                bound *= factor
        return self.scale * bound

    def decay_certificate(self, x) -> Optional[tuple[Fraction, int]]:
        c = Fraction(1) / (self.scale * self.coeffs.value(x.support()))
        d = 0
        for j, pt in x.coords:
            cert = self.summands[j - 1].decay_certificate(pt)
            if cert is None:
                return None
            cj, dj = cert
            c *= max(Fraction(1), Fraction(cj) / self.alphas.value(j))
            d += dj
        return (c, d)


class EuclideanWeight(WeightFn):
    """u(x) = 1/((1+x_1^2)...(1+x_d^2)) on R^d.

    The self-convolution is prod_i 2 pi/(4+x_i^2) (d=1: 2 pi/(4+t^2)), so
    u*u <= (2 pi)^d u; the rational (2 PI_UPPER)^d above (2 pi)^d is recorded
    here and divided out by scale_for_b or by product constructions.
    """

    group: G.RealGroup
    scale: Fraction

    construction = "euclidean"

    def __init__(self, group: G.RealGroup, scale: Fraction = Fraction(1)) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "scale", scale)

    def raw_eval(self, x) -> Fraction:
        return 1 / math.prod(1 + c * c for c in x.coords)

    def raw_b_bound(self) -> Fraction:
        return (2 * PI_UPPER) ** self.group.dim

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """The closed form (u*u)(x) = prod_i 2 pi / (4 + x_i^2), scaled, with pi
        enclosed in [PI_LOWER, PI_UPPER]."""
        factor = self.scale * self.scale / math.prod(4 + c * c for c in x.coords)
        dim = self.group.dim
        return Interval(factor * (2 * PI_LOWER) ** dim, factor * (2 * PI_UPPER) ** dim)

    def max_value(self) -> Fraction:
        return self.scale

    def decay_certificate(self, x) -> tuple[Fraction, int]:
        return (math.prod(1 + c * c for c in x.coords) / self.scale, 2 * self.group.dim)


class ProductWeight(WeightFn):
    """u(r, h) = u_R(r) u_H(h) on R^d x H."""

    group: G.ProductGroup
    real_factor: WeightFn
    discrete_factor: WeightFn
    scale: Fraction

    construction = "product"

    def __init__(self, group: G.ProductGroup, real_factor: WeightFn, discrete_factor: WeightFn,
                 scale: Fraction = Fraction(1)) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "real_factor", real_factor)
        object.__setattr__(self, "discrete_factor", discrete_factor)
        object.__setattr__(self, "scale", scale)

    def raw_eval(self, x) -> Fraction:
        return self.real_factor.eval(x.real_part) * self.discrete_factor.eval(x.discrete_part)

    def trunc_default(self) -> TruncationSpec:
        return self.discrete_factor.trunc_default()

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """(u*u)(r, h) = (u_R*u_R)(r) (u_H*u_H)(h), scaled: each factor convolves
        on its own group, and the discrete one reads the truncation."""
        from .convolution import conv_at  # at call time: convolution imports this module

        left = conv_at(self.real_factor, x.real_part, trunc)
        right = conv_at(self.discrete_factor, x.discrete_part, trunc, require_tail=False)
        return left.mul_nonneg(right).scale_nonneg(self.scale * self.scale)

    def raw_b_bound(self) -> Optional[Fraction]:
        br = self.real_factor.b_bound
        bh = self.discrete_factor.b_bound
        if br is None or bh is None:
            return None
        return br * bh

    def max_value(self) -> Optional[Fraction]:
        mr = self.real_factor.max_value()
        mh = self.discrete_factor.max_value()
        if mr is None or mh is None:
            return None
        return self.scale * mr * mh

    def decay_certificate(self, x) -> Optional[tuple[Fraction, int]]:
        cr = self.real_factor.decay_certificate(x.real_part)
        ch = self.discrete_factor.decay_certificate(x.discrete_part)
        if cr is None or ch is None:
            return None
        return (cr[0] * ch[0] / self.scale, cr[1] + ch[1])


class AlgebraWeight(WeightFn):
    """w = u^(-1/q) for a subconvolutive u; the weight of the L_p algebra.

    Evaluation is float (the root is irrational in general), but order
    comparisons against products reduce exactly to the base weight:
    w(s+t) <= w(s) w(t) iff u(s+t) >= u(s) u(t).
    """

    base: WeightFn
    p: Fraction
    scale: float

    construction = "algebra"
    exact = False

    def __init__(self, base: WeightFn, p: Fraction, scale: float = 1.0) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "scale", scale)

    @property
    def descriptor(self) -> G.GroupDescriptor:
        return self.base.descriptor

    @property
    def q(self) -> Fraction:
        return self.p / (self.p - 1)

    def raw_eval(self, x) -> float:
        u = self.base.eval(x)
        exponent = float(-1 / self.q)
        value = float(u)
        if value == 0.0 and isinstance(u, Fraction) and u > 0:
            # deep shells underflow float(u); take the root in log space instead
            return math.exp(exponent * _log(u))
        return value ** exponent

    def shell_key(self, x):
        """The base's key: w reads u only through u's value at x."""
        return self.base.shell_key(x)

    def global_lower_bound(self) -> Optional[float]:
        """Certified positive lower bound scale (max u)^(-1/q) from provenance,
        rounded down to a double.

        With m = max u and q = a/b in lowest terms, a double v is at most
        scale m^(-b/a) exactly when v^a m^b <= scale^a, a comparison of
        rationals.  The root is estimated in log space, as raw_eval takes it
        (float(m) can underflow or overflow), capped at the largest double, and
        the largest double v that passes the comparison is searched from it
        over the ordered doubles (_largest_double_where).  Where those powers
        would pass 2^17 bits (a long numerator a), the bound is scale
        min(1, 1/m), the same test at a = b = 1, which is below scale
        m^(-b/a) as 0 < b/a < 1.
        """
        m = self.base.max_value()
        if m is None:
            return None
        m, scale = Fraction(m), Fraction(self.scale)
        a, b = self.q.as_integer_ratio()
        if a * (64 + _bits(scale)) + b * _bits(m) > 1 << 17:
            a, b, m = 1, 1, max(m, Fraction(1))
        lhs_factor, rhs = m ** b, scale ** a
        log_v = _log(scale) - b / a * _log(m)
        guess = math.exp(log_v) if log_v < _LOG_MAX else sys.float_info.max
        return _largest_double_where(lambda v: Fraction(v) ** a * lhs_factor <= rhs, guess)


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


# the doubles >= 0 in order: their bits read as an int64 increase with the value
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _order(v: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(v))[0]


def _double(order: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(order))[0]


_MAX_ORDER = _order(sys.float_info.max)
_LOG_MAX = math.log(sys.float_info.max)


def _largest_double_where(fits, guess: float) -> float:
    """The largest double v in [0, max] with fits(v), for a test fits that
    holds at 0.0 and is monotone (true up to some v, false above it).

    From the guess's place among the ordered doubles, steps of 1, 2, 4, ...
    doubles bracket the answer, and bisection closes the bracket: at most
    about 128 tests, however far off the guess is.
    """
    lo, hi = 0, _MAX_ORDER + 1  # fits(_double(lo)); hi is the order of inf, not tested
    i, step = _order(guess), 1
    if fits(_double(i)):
        lo = i
        while lo + step < hi and fits(_double(lo + step)):
            lo, step = lo + step, 2 * step
        hi = min(hi, lo + step)
    else:
        hi = i
        while hi - step > lo and not fits(_double(hi - step)):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(_double(mid)):
            lo = mid
        else:
            hi = mid
    return _double(lo)


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


# --------------------------------------------------------------------------
# Construction operations
# --------------------------------------------------------------------------

def nested_finite_weight(group: G.PrueferGroup, s) -> LayerWeight:
    """Layer weight phi_n = (s/p)^n on the chain of p-power subgroups, for a
    positive rational s; `ShellWeight` derives its mass, tails and order."""
    return LayerWeight(group=group, s=s)


def pruefer_weight(p: int) -> LayerWeight:
    """Default layer weight on the p-power torsion circle: s = 1/2, so
    phi_n = (2p)^-n, the mass is exactly 1 and u*u <= 2u, after which u/2 is
    subconvolutive."""
    return nested_finite_weight(G.PrueferGroup(p), Fraction(1, 2))


def rationals_weight(s=Fraction(1, 2)) -> RationalsLayerWeight:
    """Weight on the additive rationals: u(q) = phi_n sigma(floor|q|) on shell
    n, with phi_n = s^n/n! (1/(n! 2^n) by default, mass 1).

    The subconvolutivity constant C2 of the sigma kernel enters the
    certified bound u*u <= 2*(8*C2)*mass * u.
    """
    return RationalsLayerWeight(group=G.RationalsGroup(), s=s)


def direct_sum_weight(summands: tuple[WeightFn, ...] | list[WeightFn]) -> DirectSumWeight:
    """Assemble a subconvolutive weight on the direct sum of the summand groups.

    Every summand must carry a subconvolutivity certificate (b_bound <= 1);
    the proof of u*u <= u consumes it per coordinate.  The default alpha and
    subset coefficients are certified against their product/split budgets.
    """
    summands = tuple(summands)
    if not all(isinstance(u.descriptor, G.GroupDescriptor) for u in summands):
        raise ValueError("summands must be weights on group descriptors")
    for j, u in enumerate(summands, start=1):
        if not u.has_b_certificate:
            raise ValueError(f"summand {j} lacks a subconvolutivity certificate "
                             "(rescale it with scale_for_b first)")
    group = G.SumGroup(tuple(u.descriptor for u in summands))
    alphas = default_alphas(summands)
    coeffs = default_coeffs()
    zeros = tuple(Fraction(u.eval(u.descriptor.identity())) for u in summands)
    alphas.certify(zeros)
    return DirectSumWeight(group=group, summands=summands, alphas=alphas, coeffs=coeffs)


def euclidean_weight(d: int) -> EuclideanWeight:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return EuclideanWeight(group=G.RealGroup(d))


def product_weight(real_factor: WeightFn, discrete_factor: WeightFn) -> ProductWeight:
    """u(r,h) = u_R(r) u_H(h).  The compact open subgroup of the discrete
    factor is modeled as already quotiented out: u_H lives on the quotient.

    The Euclidean factor is rescaled by its recorded constant, so the product
    carries a subconvolutivity certificate.
    """
    if not isinstance(real_factor.descriptor, G.RealGroup):
        raise ValueError("first factor must live on R^d")
    if isinstance(discrete_factor.descriptor, (G.RealGroup, G.ProductGroup)):
        raise ValueError("second factor must be discrete")
    if not discrete_factor.has_b_certificate:
        raise ValueError("discrete factor lacks a subconvolutivity certificate")
    rf = real_factor
    if rf.b_bound is not None and rf.b_bound > 1:
        rf = scale_for_b(rf, rf.b_bound)
    group = G.ProductGroup(real_factor.descriptor, discrete_factor.descriptor)
    return ProductWeight(group=group, real_factor=rf, discrete_factor=discrete_factor)


def algebra_weight(u: WeightFn, p) -> AlgebraWeight:
    """w = u^(-1/q) with 1/p + 1/q = 1; requires p > 1 and subconvolutive u."""
    p = Fraction(p)
    if p <= 1:
        raise ValueError("exponent p must be > 1")
    if not u.has_b_certificate:
        raise ValueError("base weight lacks a subconvolutivity certificate")
    return AlgebraWeight(base=u, p=p)


def scale_for_b(u: WeightFn, bound) -> WeightFn:
    """Divide by a certified bound: if u*u <= bound*u then u' = u/bound
    satisfies u'*u' = (u*u)/bound^2 <= u/bound = u' exactly."""
    return u.rescaled(1 / Fraction(bound))
