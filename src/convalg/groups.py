"""Exact element arithmetic for the abelian groups the weights live on.

Variants: the p-power torsion circles Z(p^infinity) given as fractions k/p^n
mod 1, the additive rationals exhausted by the subgroups (1/n!)Z,
finite-support direct sums, real coordinate vectors, and real x discrete
product pairs.  These are the groups the constructed weights live on; the
builtin formula weights of formulas.py take plain numbers instead.

Every variant is exact: arbitrary-precision rationals in canonical form,
enforced at construction, and a real coordinate given as a float converts
exactly.  All points are immutable and hashable, so they can be shared freely
across workers and used as cache keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .certificates import Record
from .rational import even_floor  # noqa: F401  (re-exported group op)


class GroupMismatchError(ValueError):
    """Operands belong to different group descriptors."""


class LayerError(ValueError):
    """The group variant has no declared subgroup chain."""


# Miller-Rabin with the primes up to 41 as bases decides every n below this
# bound exactly (it is the least strong pseudoprime to all thirteen bases).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n it cannot decide (n >= _MR_LIMIT)."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided below {_MR_LIMIT}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s is the largest power of 2 dividing n - 1
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2 ** r, n) != n - 1 for r in range(s)):
            return False
    return True


# --------------------------------------------------------------------------
# Descriptors
# --------------------------------------------------------------------------

class GroupDescriptor(Record):
    """Base for the tagged group descriptors, immutable records (`Record`)."""

    variant: str = "abstract"

    def identity(self):
        raise NotImplementedError


class PrueferGroup(GroupDescriptor):
    """All fractions k/p^n modulo 1, the union of cyclic subgroups of order p^n."""

    p: int
    variant = "pruefer"

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p,) == (other.p,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    def identity(self) -> "PrueferPoint":
        return PrueferPoint(self, 0, 0)

    def element(self, k: int, n: int) -> "PrueferPoint":
        return PrueferPoint(self, k, n)

    def layer_size(self, n: int) -> int:
        """Size of the n-th subgroup in the chain, p^n."""
        return self.p ** n

    def shell_size(self, n: int) -> int:
        """Number of elements whose layer is exactly n (the identity sits in layer 1)."""
        if n < 1:
            raise ValueError("layers are 1-based")
        if n == 1:
            return self.p
        return self.p ** n - self.p ** (n - 1)

    def subgroup_elements(self, n: int) -> list["PrueferPoint"]:
        """All p^n elements of the n-th subgroup, in canonical order."""
        return [PrueferPoint(self, k, n) for k in range(self.p ** n)]


class RationalsGroup(GroupDescriptor):
    """The additive rationals, exhausted by the subgroups (1/t_n)Z with t_n = n!."""

    variant = "rationals"

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def chain_value(self, n: int) -> int:
        return math.factorial(n)

    def denominator_layer(self, den: int) -> int:
        """The first n with den | t_n: the layer of a point with reduced denominator den."""
        n = 1
        while self.chain_value(n) % den != 0:
            n += 1
        return n

    def identity(self) -> "RationalPoint":
        return RationalPoint(self, Fraction(0))

    def element(self, value) -> "RationalPoint":
        return RationalPoint(self, Fraction(value))

    def ball_elements(self, layer: int, radius: int) -> list["RationalPoint"]:
        """Points of the layer-th subgroup with |x| <= radius, sorted."""
        t = self.chain_value(layer)
        return [RationalPoint(self, Fraction(k, t)) for k in range(-radius * t, radius * t + 1)]


class SumGroup(GroupDescriptor):
    """Finite-support direct sum of the listed summand groups (1-based index)."""

    summands: tuple[GroupDescriptor, ...]
    variant = "sum"

    def __init__(self, summands: tuple[GroupDescriptor, ...]) -> None:
        object.__setattr__(self, "summands", summands)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.summands,) == (other.summands,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.summands,))

    def identity(self) -> "SumPoint":
        return SumPoint(self, ())

    def point(self, coords: dict) -> "SumPoint":
        return SumPoint(self, tuple(sorted(coords.items())))

    def summand(self, j: int) -> GroupDescriptor:
        if not 1 <= j <= len(self.summands):
            raise ValueError(f"summand index {j} out of range")
        return self.summands[j - 1]


class RealGroup(GroupDescriptor):
    """R^d under addition, exact rational coordinates."""

    dim: int
    variant = "real"

    def __init__(self, dim: int) -> None:
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        object.__setattr__(self, "dim", dim)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dim,) == (other.dim,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim,))

    def identity(self) -> "RealPoint":
        return RealPoint(self, (Fraction(0),) * self.dim)

    def element(self, coords: Iterable) -> "RealPoint":
        return RealPoint(self, tuple(coords))


class ProductGroup(GroupDescriptor):
    """R^d x H for a discrete factor H."""

    real: RealGroup
    discrete: GroupDescriptor
    variant = "product"

    def __init__(self, real: RealGroup, discrete: GroupDescriptor) -> None:
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "discrete", discrete)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.real, self.discrete) == (other.real, other.discrete)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.real, self.discrete))

    def identity(self) -> "ProductPoint":
        return ProductPoint(self, self.real.identity(), self.discrete.identity())

    def point(self, real_part: "RealPoint", discrete_part) -> "ProductPoint":
        return ProductPoint(self, real_part, discrete_part)


# --------------------------------------------------------------------------
# Points
# --------------------------------------------------------------------------

class GroupPoint(Record):
    """Base class for group elements, immutable records (`Record`).

    Each point class carries its variant's group law: `_add` (the operand is
    from the same group), `_nmul` (any integer n, negative included) and
    `sort_key`; the chain variants also give `layer`.  Results are in
    canonical form.  Call them through the module functions below.
    """

    group: GroupDescriptor

    def layer(self) -> int:
        raise LayerError(f"no subgroup chain declared for variant {self.group.variant!r}")


class PrueferPoint(GroupPoint):
    """k/p^n mod 1 in canonical form: 0 <= k < p^n, p does not divide k unless k=0."""

    group: PrueferGroup
    num: int
    exp: int

    def __init__(self, group: PrueferGroup, num: int, exp: int) -> None:
        p = group.p
        k, n = num, exp
        if n < 0:
            raise ValueError("exponent must be >= 0")
        k %= p ** n
        while n > 0 and k % p == 0:
            k //= p
            n -= 1
        if k == 0:
            n = 0
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "num", k)
        object.__setattr__(self, "exp", n)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.num, self.exp) == (other.group, other.num, other.exp)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.num, self.exp))

    def value(self) -> Fraction:
        return Fraction(self.num, self.group.p ** self.exp)

    def is_identity(self) -> bool:
        return self.num == 0

    def _add(self, other: "PrueferPoint") -> "PrueferPoint":
        a, b = self.exp, other.exp
        if a == b:
            return PrueferPoint(self.group, self.num + other.num, a)
        # The numerator of the larger exponent is prime to p and the other term
        # is a multiple of p, so the sum mod p^n is already canonical.
        p = self.group.p
        if a > b:
            k, n = self.num + other.num * p ** (a - b), a
        else:
            k, n = other.num + self.num * p ** (b - a), b
        point = object.__new__(PrueferPoint)
        object.__setattr__(point, "group", self.group)
        object.__setattr__(point, "num", k % p ** n)
        object.__setattr__(point, "exp", n)
        return point

    def _nmul(self, n: int) -> "PrueferPoint":
        return PrueferPoint(self.group, n * self.num, self.exp)

    def layer(self) -> int:
        return max(self.exp, 1)

    def sort_key(self):
        # canonical form: num/p^exp is already reduced
        return (self.num, self.group.p ** self.exp)


class RationalPoint(GroupPoint):
    """A rational number, added as a number."""

    group: RationalsGroup
    value: Fraction

    def __init__(self, group: RationalsGroup, value: Fraction) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "value", Fraction(value))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.value) == (other.group, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.value))

    def is_identity(self) -> bool:
        return self.value == 0

    def _add(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.group, self.value + other.value)

    def _nmul(self, n: int) -> "RationalPoint":
        return RationalPoint(self.group, n * self.value)

    def layer(self) -> int:
        return self.group.denominator_layer(self.value.denominator)

    def sort_key(self):
        return (self.value.numerator, self.value.denominator)


class SumPoint(GroupPoint):
    """Finite-support element; coords is a sorted tuple of (index, point) with
    no identity coordinates."""

    group: SumGroup
    coords: tuple[tuple[int, GroupPoint], ...]

    def __init__(self, group: SumGroup, coords: tuple[tuple[int, GroupPoint], ...]) -> None:
        cleaned = []
        seen = set()
        for j, pt in sorted(coords, key=lambda coord: coord[0]):
            if j in seen:
                raise ValueError(f"duplicate coordinate index {j}")
            seen.add(j)
            expected = group.summand(j)
            if pt.group != expected:
                raise GroupMismatchError(f"coordinate {j} belongs to {pt.group}, expected {expected}")
            if not pt.is_identity():
                cleaned.append((j, pt))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", tuple(cleaned))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coords) == (other.group, other.coords)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.coords))

    def support(self) -> frozenset[int]:
        return frozenset(j for j, _ in self.coords)

    def coord(self, j: int) -> GroupPoint:
        for jj, pt in self.coords:
            if jj == j:
                return pt
        return self.group.summand(j).identity()

    def is_identity(self) -> bool:
        return not self.coords

    def _canonical(self, coords) -> "SumPoint":
        """A point of this group from coordinates already sorted, in their
        summand groups and free of identities, built without re-checking them."""
        point = object.__new__(SumPoint)
        object.__setattr__(point, "group", self.group)
        object.__setattr__(point, "coords", tuple(coords))
        return point

    def _add(self, other: "SumPoint") -> "SumPoint":
        merged = dict(self.coords)
        for j, pt in other.coords:
            merged[j] = add(merged[j], pt) if j in merged else pt
        return self._canonical((j, merged[j]) for j in sorted(merged)
                               if not merged[j].is_identity())

    def _nmul(self, n: int) -> "SumPoint":
        scaled = ((j, nmul(n, pt)) for j, pt in self.coords)
        return self._canonical((j, pt) for j, pt in scaled if not pt.is_identity())

    def sort_key(self):
        return tuple((j, sort_key(pt)) for j, pt in self.coords)


class RealPoint(GroupPoint):
    """A point of R^d; each coordinate converts exactly to a Fraction, and a
    non-finite one is refused."""

    group: RealGroup
    coords: tuple[Fraction, ...]

    def __init__(self, group: RealGroup, coords: tuple[Fraction, ...]) -> None:
        if len(coords) != group.dim:
            raise ValueError("coordinate count does not match dimension")
        try:
            exact = tuple(Fraction(c) for c in coords)
        except (OverflowError, ValueError) as exc:  # Fraction's errors for inf and nan
            raise ValueError(f"real coordinates must be finite numbers, not {coords!r}") from exc
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", exact)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coords) == (other.group, other.coords)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.coords))

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _add(self, other: "RealPoint") -> "RealPoint":
        return RealPoint(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def _nmul(self, n: int) -> "RealPoint":
        return RealPoint(self.group, tuple(n * c for c in self.coords))

    def sort_key(self):
        return self.coords


class ProductPoint(GroupPoint):
    group: ProductGroup
    real_part: RealPoint
    discrete_part: GroupPoint

    def __init__(self, group: ProductGroup, real_part: RealPoint,
                 discrete_part: GroupPoint) -> None:
        if real_part.group != group.real:
            raise GroupMismatchError("real part from wrong group")
        if discrete_part.group != group.discrete:
            raise GroupMismatchError("discrete part from wrong group")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "real_part", real_part)
        object.__setattr__(self, "discrete_part", discrete_part)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.group, self.real_part, self.discrete_part)
                    == (other.group, other.real_part, other.discrete_part))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.group, self.real_part, self.discrete_part))

    def is_identity(self) -> bool:
        return self.real_part.is_identity() and self.discrete_part.is_identity()

    def _add(self, other: "ProductPoint") -> "ProductPoint":
        return ProductPoint(self.group, add(self.real_part, other.real_part),
                            add(self.discrete_part, other.discrete_part))

    def _nmul(self, n: int) -> "ProductPoint":
        return ProductPoint(self.group, nmul(n, self.real_part), nmul(n, self.discrete_part))

    def sort_key(self):
        return (sort_key(self.real_part), sort_key(self.discrete_part))


# --------------------------------------------------------------------------
# Group operations
# --------------------------------------------------------------------------

def add(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    """Group law of x's variant; results are in canonical form."""
    if x.group != y.group:
        raise GroupMismatchError(f"points from different groups: {x.group} vs {y.group}")
    return x._add(y)


def neg(x: GroupPoint) -> GroupPoint:
    return x._nmul(-1)


def sub(x: GroupPoint, y: GroupPoint) -> GroupPoint:
    return add(x, neg(y))


def nmul(n: int, x: GroupPoint) -> GroupPoint:
    """n-fold sum n.x; nmul(0, x) is the identity."""
    return x._nmul(n)


def layer_of(x: GroupPoint) -> int:
    """Index of the first chain subgroup containing x (identity sits in layer 1)."""
    return x.layer()


def sort_key(x: GroupPoint):
    """Deterministic total order within one group, for reproducible windows."""
    return x.sort_key()
