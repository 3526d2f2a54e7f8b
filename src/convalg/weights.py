"""Construction of the subconvolutive weight functions and their rescalings.

All constructions produce an auxiliary weight u that is positive, even, and
(after an explicit rescale) subconvolutive: u * u <= u pointwise.  The induced
algebra weight is w = u^(-1/q) with 1/p + 1/q = 1.  Four families are built:

* layer weights on groups exhausted by nested finite subgroups (the p-power
  torsion circles): constant value phi_n on the n-th shell;
* weights on the additive rationals: phi_n modulated by the reciprocal-square
  kernel sigma of the even integer part;
* weights on finite-support direct sums, assembled from per-summand weights
  through small coefficients alpha_j and subset coefficients a_s;
* the rational-decay weight 1/((1+x_1^2)...(1+x_d^2)) on R^d and its product
  with a discrete factor.

Each family also owns its truncated self-convolution (`_conv`, called
through `convolution.conv_at`) and the cutoffs it reads (`trunc_default`).
Exact constructions evaluate to rationals; the Euclidean family is float.
Weights are immutable; evaluation is pure and safe to run concurrently.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from . import groups as G
from .certificates import MAX_POINTS, TruncationSpec
from .intervals import Interval
from .rational import even_floor, exp_enclosure, sigma
from .sequences import sigma_subconvolutive_constant

Scalar = Union[Fraction, float]

TWO_PI = 2.0 * math.pi
_RANGE_SERIES_TERMS = 32


def line_conv_closed_form(t: float) -> float:
    """Self-convolution of 1/(1+s^2): 2 pi / (4 + t^2)."""
    return TWO_PI / (4.0 + t * t)


class TailUnavailableError(ValueError):
    """No closed-form tail is available for this weight's provenance."""


# --------------------------------------------------------------------------
# Shell-value sequences
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSequence:
    """Closed-form positive nonincreasing shell values phi_n (1-based).

    exact_mass is the total mass sum phi_n w_n against the chain weights w_n
    (subgroup sizes, or t_n on the rationals); None marks a sequence with no
    certified mass, which carries no bounds.  sq_ratio bounds the ratio of
    consecutive shell-weighted squares driving convolution tails, and
    geometric_tails marks families where that ratio is exact from the second
    shell on, making truncation tails exact rather than upper bounds.  The
    constructors check sq_ratio against the weight's own shells.
    """

    name: str
    term_fn: Callable[[int], Fraction]
    sq_ratio: Fraction
    exact_mass: Optional[Fraction]
    geometric_tails: bool

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("shell indices are 1-based")
        return Fraction(self.term_fn(n))


def pruefer_default_phi(p: int) -> PhiSequence:
    """phi_n = (2p)^-n: mass terms phi_n p^n = 2^-n sum to exactly 1, and the
    shell-weighted squares are exactly geometric with ratio 1/(4p)."""
    return PhiSequence(
        name="geometric",
        term_fn=lambda n: Fraction(1, (2 * p) ** n),
        sq_ratio=Fraction(1, 4 * p),
        exact_mass=Fraction(1),
        geometric_tails=True,
    )


def rationals_default_phi() -> PhiSequence:
    """phi_n = 1/(n! 2^n) against t_n = n!: mass terms are exactly 2^-n, and
    t_n phi_n^2 = 1/(n! 4^n) contracts by 1/(4(n+1)) <= 1/8 per step."""
    return PhiSequence(
        name="factorial",
        term_fn=lambda n: Fraction(1, math.factorial(n) * 2 ** n),
        sq_ratio=Fraction(1, 8),
        exact_mass=Fraction(1),
        geometric_tails=False,
    )


def broken_increasing_phi() -> PhiSequence:
    """Deliberately invalid shell values (increasing, infinite mass); used as
    the negative control. No mass is certified, so tails are unavailable."""
    return PhiSequence(
        name="broken-demo",
        term_fn=lambda n: Fraction(2 ** n),
        sq_ratio=Fraction(16),
        exact_mass=None,
        geometric_tails=False,
    )


# --------------------------------------------------------------------------
# Direct-sum coefficients
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _coeff_value(eps1: Fraction, support: frozenset) -> Fraction:
    if not support:
        return eps1
    return eps1 / sum(math.factorial(j) for j in support)


@functools.lru_cache(maxsize=None)
def _pair_sum(eps1: Fraction, free: frozenset, base: frozenset) -> Fraction:
    members = sorted(free)
    total = Fraction(0)
    for mask in range(2 ** len(members)):
        part = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        total += _coeff_value(eps1, base | part) * _coeff_value(eps1, base | (free - part))
    return total


@dataclass(frozen=True)
class SubsetCoeffs:
    """Subset coefficients a_s = eps1 / sum_{j in s} j!, a_empty = eps1.

    Monotone under unions by construction; the split-sum budget
    sum_{v subset s} a_v a_{s\\v} / a_s <= 1/4 holds for every finite s once
    eps1 * e^2 <= 1/8, which `certify` checks with a rational enclosure of e^2.
    """

    eps1: Fraction = Fraction(1, 60)

    def value(self, support: frozenset) -> Fraction:
        return _coeff_value(self.eps1, frozenset(support))

    def certify(self) -> None:
        if not 0 < self.eps1 <= 1:
            raise ValueError("eps1 must lie in (0, 1]")
        _, e2_hi = exp_enclosure(Fraction(2))
        if self.eps1 * e2_hi > Fraction(1, 8):
            raise ValueError("eps1 too large: the split-sum budget 1/4 is not certified")

    def pair_sum(self, free: frozenset, base: frozenset) -> Fraction:
        """Exact K(P, Q) = sum_{A subset P} a_{Q u A} a_{Q u (P\\A)} for P = free, Q = base."""
        return _pair_sum(self.eps1, frozenset(free), frozenset(base))

    def split_sum(self, support: frozenset) -> Fraction:
        """Exact sum_{v subset s} a_v a_{s\\v} / a_s (for enumeration checks)."""
        return self.pair_sum(support, frozenset()) / self.value(support)


def default_coeffs(eps1: Fraction = Fraction(1, 60)) -> SubsetCoeffs:
    coeffs = SubsetCoeffs(eps1)
    coeffs.certify()
    return coeffs


@dataclass(frozen=True)
class AlphaSequence:
    """Per-summand damping factors alpha_j in (0, 1), small enough that both
    prod (1 + alpha_j) < 2 and prod (1 + alpha_j^2 (u_j*u_j)(0)) < 2."""

    values: tuple[Fraction, ...]
    rule: str = "3^-j"

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

class WeightFn:
    """Positive even evaluator on one group, with provenance-backed bounds.

    Subclasses are frozen dataclasses; `scale` is a multiplicative
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
        exactly, at every truncation, so `check_b` evaluates one point per key."""
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
        return dataclasses.replace(self, scale=self.scale * factor)

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
    """u = phi_n on the n-th shell of a subgroup chain, up to a shell-wise
    factor.  The convolution squares phi_n^2 against sq_weight(n) and the mass
    (the sequence's exact_mass) sums phi_n mass_weight(n); subclasses name both.
    """

    phi: PhiSequence

    def sq_weight(self, n: int) -> int:
        raise NotImplementedError

    def mass(self) -> Fraction:
        """The exact total mass the shell sequence certifies."""
        if self.phi.exact_mass is None:
            raise ValueError("mass bound not certifiable from the closed form")
        return self.phi.exact_mass

    def sq_term(self, n: int) -> Fraction:
        """sq_weight(n) phi_n^2, the shell factor of the self-convolution."""
        return self.sq_weight(n) * self.phi.term(n) ** 2

    def sq_tail(self, cutoff: int) -> Fraction:
        """sum_{j > cutoff} sq_term(j) -- exact for geometric families."""
        if self.phi.exact_mass is None or self.phi.sq_ratio >= 1:
            raise ValueError("no closed-form tail available for this shell sequence")
        return self.sq_term(cutoff + 1) / (1 - self.phi.sq_ratio)

    def max_value(self) -> Fraction:
        return self.scale * self.phi.term(1)


@dataclass(frozen=True)
class LayerWeight(ShellWeight):
    """u = phi_n on the n-th shell of a nested-finite-subgroup chain; the mass
    counts the subgroup sizes |G_n|, the squares the shell sizes |U_n|."""

    group: G.PrueferGroup
    phi: PhiSequence
    scale: Fraction = Fraction(1)

    construction = "pruefer-layer"

    def raw_eval(self, x) -> Fraction:
        return self.phi.term(G.layer_of(x))

    def shell_key(self, x) -> int:
        """The layer: the value, the shell-count partial sum and the tail read nothing else."""
        return G.layer_of(x)

    def sq_weight(self, n: int) -> int:
        return self.group.shell_size(n)

    def mass_weight(self, n: int) -> int:
        return self.group.layer_size(n)

    def raw_b_bound(self) -> Optional[Fraction]:
        try:
            return 2 * self.mass()
        except ValueError:
            return None

    def trunc_default(self) -> TruncationSpec:
        return TruncationSpec(layer=8)

    def _partial(self, n: int, cutoff: int) -> Fraction:
        """sum_{y in G_cutoff} phi(layer y) phi(layer(x-y)) for x in shell n <= cutoff.

        y in a lower shell j puts x-y in shell n, and so does x-y for y in shell
        n with x-y in G_{n-1}: twice |U_j| phi_j phi_n.  The other y in shell n
        leave x-y in shell n; y in a higher shell puts x-y in the same shell.
        """
        group, term = self.group, self.phi.term
        phi_n = term(n)
        total = Fraction(0)
        for j in range(1, n):
            total += 2 * group.shell_size(j) * term(j) * phi_n
        prev = 0 if n == 1 else group.layer_size(n - 1)
        total += (group.shell_size(n) - prev) * phi_n ** 2
        for j in range(n + 1, cutoff + 1):
            total += self.sq_term(j)
        return total

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """For x in shell n <= N the sum over the cutoff subgroup G_N is
        sum_{j<n} 2 |U_j| phi_j phi_n + (|U_n| - |G_{n-1}|) phi_n^2
        + sum_{n<j<=N} |U_j| phi_j^2, in O(N) for any shell values.  Outside G_N
        both factors sit in the same shell, so the omitted mass is exactly
        sum_{j>N} |U_j| phi_j^2, which the geometric default families sum in
        closed form (the enclosure's upper end is then the exact value, which
        conv_exact reads).
        """
        cutoff = trunc.layer or self.trunc_default().layer
        n = G.layer_of(x)
        if n > cutoff:
            raise ValueError("truncation cutoff must reach the layer of x")
        scale_sq = self.scale * self.scale
        partial = scale_sq * self._partial(n, cutoff)
        try:
            tail = scale_sq * self.sq_tail(cutoff)
        except ValueError:
            return Interval(partial, None)
        return Interval(partial, partial + tail)

    def decay_certificate(self, x) -> tuple[Fraction, int]:
        # the orbit {nx} stays inside the layer of x, where phi is smallest
        return (Fraction(1) / (self.scale * self.phi.term(G.layer_of(x))), 0)


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _cached_c2() -> Fraction:
    return Fraction(sigma_subconvolutive_constant().hi)


@dataclass(frozen=True)
class RationalsLayerWeight(ShellWeight):
    """u(q) = phi_n sigma(floor|q|) on the n-th shell of the rationals chain;
    the mass and the squares both count the chain values t_n."""

    group: G.RationalsGroup
    phi: PhiSequence
    scale: Fraction = Fraction(1)

    construction = "rationals-layer"

    def raw_eval(self, x) -> Fraction:
        return self.phi.term(G.layer_of(x)) * sigma(even_floor(x.value))

    def shell_key(self, x) -> Fraction:
        """|q|: u is even (so are the layer and even_floor), and the partial sum
        runs over the symmetric |k| <= B t_N, so k -> -k maps the sum at -q onto
        the one at q; both tails read only even_floor(q) and the cutoffs."""
        return abs(x.value)

    def sq_weight(self, n: int) -> int:
        return self.group.chain_value(n)

    mass_weight = sq_weight

    @property
    def c2(self) -> Fraction:
        """The sigma kernel's C2: the upper end of `sigma_subconvolutive_constant()`."""
        return _cached_c2()

    @property
    def sub_constant(self) -> Fraction:
        """C = 8 * C2: shell sums of sigma(.)sigma(q-.) are below C t_j sigma(floor|q|)."""
        return 8 * self.c2

    def raw_b_bound(self) -> Optional[Fraction]:
        try:
            return 2 * self.sub_constant * self.mass()
        except ValueError:
            return None

    def mass_up_to(self, cutoff: int) -> Fraction:
        """sum_{j <= cutoff} (t_j - t_{j-1}) phi_j, the per-unit-interval mass."""
        total = Fraction(0)
        prev = 0
        for j in range(1, cutoff + 1):
            t = self.group.chain_value(j)
            total += (t - prev) * self.phi.term(j)
            prev = t
        return total

    def trunc_default(self) -> TruncationSpec:
        return TruncationSpec(layer=5, ball=12)

    def _partial(self, q: Fraction, cutoff: int, ball: int) -> Fraction:
        """sum_{|k| <= ball t} u(k/t) u(q - k/t) with t = t_cutoff, by classes of k mod t."""
        # t_10 = 10! already exceeds the bound, so no huge factorial is formed
        if self.group.chain_value(min(cutoff, 10)) > MAX_POINTS or 2 * ball + 1 > MAX_POINTS:
            raise ValueError(f"truncation N{cutoff},B{ball} loops over more than 2^20 "
                             "residues or unit intervals")
        t = self.group.chain_value(cutoff)
        q_num = (q * t).numerator  # q lies in (1/t)Z
        layers: dict[int, int] = {}

        def layer(num: int) -> int:
            # layer of num/t: the first chain value its reduced denominator divides
            den = t // math.gcd(num, t)
            n = layers.get(den)
            if n is None:
                n = layers[den] = self.group.denominator_layer(den)
            return n

        classes: Counter = Counter()
        for j in range(t):
            s_num = q_num - j  # t * (q - j/t)
            classes[(layer(j), layer(s_num), s_num // t, s_num % t == 0, j == 0)] += 1
        total = Fraction(0)
        for (layer_r, layer_s, floor_s, integral, origin), count in classes.items():
            total += (count * self.phi.term(layer_r) * self.phi.term(layer_s)
                      * _sigma_pair_sum(floor_s, integral, origin, ball))
        return self.scale * self.scale * total

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """Write each truncation point as m + j/t_N.  The layers of j/t_N and
        q - j/t_N, floor(q - j/t_N), whether q - j/t_N is an integer and whether
        j = 0 fix every factor up to the sigma kernel in m, so the j fall into a
        few classes, each summing sigma(floor|r|) sigma(floor|q-r|) over m once.
        Tails: a layer tail 8 C2 sigma(floor|q|) sum_{j>N} t_j phi_j^2 plus a
        range tail from grouping the remote points into unit intervals, each
        carrying at most the full per-interval mass, with an integral-comparison
        cap on the remaining sigma series.
        """
        default = self.trunc_default()
        cutoff = trunc.layer or default.layer
        ball = trunc.ball or default.ball
        q = x.value
        reach = even_floor(q) + 1
        if G.layer_of(x) > cutoff or ball < reach + 2:
            raise ValueError("truncation cutoffs must reach the window point")
        partial = self._partial(q, cutoff, ball)
        if self.phi.exact_mass is None:
            return Interval(partial, None)
        scale_sq = self.scale * self.scale
        layer_tail = scale_sq * self.sub_constant * sigma(even_floor(q)) * self.sq_tail(cutoff)
        range_tail = (2 * scale_sq * self.mass_up_to(cutoff) * self.phi.term(1)
                      * _sigma_range_series(ball, reach))
        return Interval(partial, partial + layer_tail + range_tail)

    def decay_certificate(self, x) -> tuple[Fraction, int]:
        m = G.layer_of(x)
        mx = max(Fraction(1), abs(x.value))
        return (mx * mx / (self.scale * self.phi.term(m)), 2)


def _safe_layer(x) -> int:
    try:
        return G.layer_of(x)
    except G.LayerError:
        return 1


@dataclass(frozen=True)
class DirectSumWeight(WeightFn):
    """u(x) = a_{s(x)} prod_{j in s(x)} alpha_j u_j(x_j) on a finite direct sum."""

    group: G.SumGroup
    summands: tuple[WeightFn, ...]
    alphas: AlphaSequence
    coeffs: SubsetCoeffs
    scale: Fraction = Fraction(1)

    construction = "direct-sum"

    def raw_eval(self, x) -> Fraction:
        value = self.coeffs.value(x.support())
        for j, pt in x.coords:
            value *= self.alphas.value(j) * self.summands[j - 1].eval(pt)
        return value

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
        terms instead of 3^|support| 2^|complement|.
        """
        from .convolution import conv_at  # at call time: convolution imports this module

        cutoffs = trunc.per_summand if trunc.per_summand is not None else self.trunc_default().per_summand
        if len(cutoffs) != len(self.summands):
            raise ValueError("per-summand cutoffs must match the summand count")
        support = sorted(x.support())
        comp = [j for j in range(1, len(self.summands) + 1) if j not in x.support()]

        # S_j on the support and Z_j on the complement: disjoint keys, one dict
        point_term: dict[int, Fraction] = {}
        factor: dict[int, Interval] = {}
        for j, uj in enumerate(self.summands, start=1):
            xj = x.coord(j)  # the identity off the support
            u0 = uj.eval(uj.descriptor.identity())
            conv = conv_at(uj, xj, TruncationSpec(layer=max(cutoffs[j - 1], _safe_layer(xj))))
            if j in support:
                ux = uj.eval(xj)
                point_term[j] = self.alphas.value(j) * ux
                cut = 2 * u0 * ux
            else:
                cut = u0 * u0
            factor[j] = Interval(max(conv.lo - cut, Fraction(0)), conv.hi - cut
                                 ).scale_nonneg(self.alphas.value(j) ** 2)

        total = Interval.point(Fraction(0))
        for c_mask in range(2 ** len(support)):
            pinned = frozenset(support[i] for i in range(len(support)) if c_mask >> i & 1)
            points = frozenset(support) - pinned
            point_product = math.prod(point_term[j] for j in points)
            for mask in range(2 ** len(comp)):
                base = pinned | frozenset(comp[i] for i in range(len(comp)) if mask >> i & 1)
                term = Interval.point(self.coeffs.pair_sum(points, base) * point_product)
                for j in base:
                    term = term.mul_nonneg(factor[j])
                total = total.add(term)
        return total.scale_nonneg(self.scale * self.scale)

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


@dataclass(frozen=True)
class EuclideanWeight(WeightFn):
    """u(x) = 1/((1+x_1^2)...(1+x_d^2)) on R^d (float evaluator).

    The raw form satisfies u*u <= (2 pi)^d u (d=1 closed form: the
    self-convolution is 2 pi/(4+t^2)); the normalization constant is recorded
    here and applied by scale_for_b or by product constructions.
    """

    group: G.RealGroup
    scale: float = 1.0

    construction = "euclidean"
    exact = False

    def raw_eval(self, x) -> float:
        value = 1.0
        for c in x.coords:
            value /= 1.0 + c * c
        return value

    def raw_b_bound(self) -> float:
        return TWO_PI ** self.group.dim

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """The closed form (u*u)(x) = prod_i 2 pi / (4 + x_i^2), scaled."""
        value = 1.0
        for c in x.coords:
            value *= line_conv_closed_form(c)
        return Interval.point(self.scale * self.scale * value)

    def max_value(self) -> float:
        return self.scale

    def decay_certificate(self, x) -> tuple[float, int]:
        c = 1.0 / self.scale
        for coord in x.coords:
            c *= 1.0 + coord * coord
        return (c, 2 * self.group.dim)


@dataclass(frozen=True)
class ProductWeight(WeightFn):
    """u(r, h) = u_R(r) u_H(h) on R^d x H (float evaluator)."""

    group: G.ProductGroup
    real_factor: WeightFn
    discrete_factor: WeightFn
    scale: float = 1.0

    construction = "product"
    exact = False

    def raw_eval(self, x) -> float:
        return float(self.real_factor.eval(x.real_part)) * float(self.discrete_factor.eval(x.discrete_part))

    def trunc_default(self) -> TruncationSpec:
        return self.discrete_factor.trunc_default()

    def _conv(self, x, trunc: TruncationSpec) -> Interval:
        """(u*u)(r, h) = (u_R*u_R)(r) (u_H*u_H)(h), scaled: each factor convolves
        on its own group, and the discrete one reads the truncation."""
        from .convolution import conv_at  # at call time: convolution imports this module

        left = conv_at(self.real_factor, x.real_part, trunc)
        right = conv_at(self.discrete_factor, x.discrete_part, trunc, require_tail=False)
        return left.mul_nonneg(right).scale_nonneg(self.scale * self.scale)

    def raw_b_bound(self) -> Optional[float]:
        br = self.real_factor.b_bound
        bh = self.discrete_factor.b_bound
        if br is None or bh is None:
            return None
        return float(br) * float(bh)

    def max_value(self) -> Optional[float]:
        mr = self.real_factor.max_value()
        mh = self.discrete_factor.max_value()
        if mr is None or mh is None:
            return None
        return self.scale * float(mr) * float(mh)

    def decay_certificate(self, x) -> Optional[tuple[float, int]]:
        cr = self.real_factor.decay_certificate(x.real_part)
        ch = self.discrete_factor.decay_certificate(x.discrete_part)
        if cr is None or ch is None:
            return None
        return (float(cr[0]) * float(ch[0]) / self.scale, cr[1] + ch[1])


@dataclass(frozen=True)
class AlgebraWeight(WeightFn):
    """w = u^(-1/q) for a subconvolutive u; the weight of the L_p algebra.

    Evaluation is float (the root is irrational in general), but order
    comparisons against products reduce exactly to the base weight:
    w(s+t) <= w(s) w(t) iff u(s+t) >= u(s) u(t).
    """

    base: WeightFn
    p: Fraction
    scale: float = 1.0

    construction = "algebra"
    exact = False

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
            return math.exp(exponent * (math.log(u.numerator) - math.log(u.denominator)))
        return value ** exponent

    def submult_exact(self, s, t) -> Optional[bool]:
        if not self.base.exact:
            return None
        u = self.base
        return u.eval(G.add(s, t)) >= u.eval(s) * u.eval(t)

    def global_lower_bound(self) -> Optional[float]:
        """Certified positive lower bound (max u)^(-1/q) from provenance."""
        m = self.base.max_value()
        if m is None:
            return None
        return float(m) ** float(-1 / self.q) * self.scale


# --------------------------------------------------------------------------
# Construction operations
# --------------------------------------------------------------------------

def _validate_phi(w: ShellWeight, first: int = 10) -> None:
    """Positive nonincreasing shell values with a certified mass, whose
    declared sq_ratio holds on this weight's own shells (with equality where
    the tails are declared geometric) and whose first partial mass sums stay
    within the declared mass: a sequence made for another chain is refused."""
    phi = w.phi
    prev = None
    for n in range(1, first + 1):
        t = phi.term(n)
        if t <= 0:
            raise ValueError("shell values must be positive")
        if prev is not None and t > prev:
            raise ValueError("shell values must be nonincreasing")
        prev = t
    sq = [w.sq_term(n) for n in range(2, first + 2)]
    for n, cur, nxt in zip(range(2, first + 1), sq, sq[1:]):
        bound = phi.sq_ratio * cur
        if nxt > bound or (phi.geometric_tails and nxt != bound):
            raise ValueError(f"shell values {phi.name!r} do not fit this chain: "
                             f"sq_ratio fails at shell {n}")
    if sum(phi.term(n) * w.mass_weight(n) for n in range(1, first + 1)) > w.mass():
        raise ValueError(f"shell values {phi.name!r} exceed their declared mass on this chain")


def nested_finite_weight(group: G.PrueferGroup, phi: PhiSequence, *,
                         unchecked: bool = False) -> LayerWeight:
    """Layer weight on a nested-finite-subgroup chain.

    Validates positivity/monotonicity of the shell values, their declared
    sq_ratio on this chain and that the mass phi_n |G_n| is certified.
    `unchecked=True` skips validation (negative-control weights only); such
    weights carry no tail bounds and can never certify "holds".
    """
    w = LayerWeight(group=group, phi=phi)
    if not unchecked:
        _validate_phi(w)
    return w


def pruefer_weight(p: int) -> LayerWeight:
    """Default layer weight on the p-power torsion circle: phi_n = (2p)^-n,
    so the mass is exactly 1 and u*u <= 2u after which u/2 is subconvolutive."""
    return nested_finite_weight(G.PrueferGroup(p), pruefer_default_phi(p))


def rationals_weight(phi: PhiSequence | None = None, *,
                     unchecked: bool = False) -> RationalsLayerWeight:
    """Weight on the additive rationals: u(q) = phi_n sigma(floor|q|) on shell n.

    The subconvolutivity constant C2 of the sigma kernel enters the
    certified bound u*u <= 2*(8*C2)*mass * u.
    """
    w = RationalsLayerWeight(group=G.RationalsGroup(), phi=phi or rationals_default_phi())
    if not unchecked:
        _validate_phi(w)
    return w


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
        rf = rf.rescaled(1.0 / float(rf.b_bound))
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
    if isinstance(bound, Fraction) or isinstance(bound, int):
        factor = Fraction(1) / Fraction(bound)
    else:
        factor = 1.0 / float(bound)
    return u.rescaled(factor)
