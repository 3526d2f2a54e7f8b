"""Enclosing intervals for quantities computed with truncation tails."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .certificates import Record

Scalar = Union[Fraction, float]


class Interval(Record):
    """Closed enclosure [lo, hi]; hi=None means no certified upper bound."""

    lo: Scalar
    hi: Optional[Scalar]

    def __init__(self, lo: Scalar, hi: Optional[Scalar]) -> None:
        if hi is not None and lo > hi:
            raise ValueError(f"empty interval: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @classmethod
    def point(cls, value: Scalar) -> "Interval":
        return cls(value, value)

    @property
    def width(self) -> Optional[Scalar]:
        return None if self.hi is None else self.hi - self.lo

    def contains(self, value: Scalar) -> bool:
        if self.hi is None:
            return value >= self.lo
        return self.lo <= value <= self.hi

    def add(self, other: "Interval") -> "Interval":
        hi = None if (self.hi is None or other.hi is None) else self.hi + other.hi
        return Interval(self.lo + other.lo, hi)

    def mul_nonneg(self, other: "Interval") -> "Interval":
        """Product of intervals with nonnegative lower ends."""
        if self.lo < 0 or other.lo < 0:
            raise ValueError("mul_nonneg requires nonnegative intervals")
        hi = None if (self.hi is None or other.hi is None) else self.hi * other.hi
        return Interval(self.lo * other.lo, hi)

    def scale_nonneg(self, factor: Scalar) -> "Interval":
        if factor < 0:
            raise ValueError("scale_nonneg requires factor >= 0")
        hi = None if self.hi is None else self.hi * factor
        return Interval(self.lo * factor, hi)
