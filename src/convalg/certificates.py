"""Certificate, window and truncation records shared by the checking engines.

A certificate is a machine-checkable record of one verified property over a
window: verdict "holds" is only issued when the inequality is established
including truncation tails, "fails" always carries an exact witness, and
"inconclusive" is a first-class outcome when a tail bound is too coarse to
decide.  Payload scalars are rationals (serialized as "num/den") or floats.
"""

from __future__ import annotations

from typing import Any, Optional

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# The most points a window may enumerate: larger windows run for minutes or more.
MAX_POINTS = 2 ** 20
# The deepest layer a truncation or a sampled window may reach, and the largest
# rationals range B: exact shell terms grow with the layer, so a Pruefer conv_at
# at layer 8000 takes seconds, and the sigma sums over [-B, B) are quadratic in B.
MAX_LAYER = 2 ** 10


class Record:
    """Base of the immutable records.

    A record's fields are the names its own class annotates, in order.  Its
    ``__init__`` validates them and sets them with ``object.__setattr__``;
    after that, assigning or deleting any attribute raises AttributeError.
    ``==`` and ``hash`` read the field tuple, ``repr`` names every field, and
    `replace` builds a changed copy through ``__init__``, so validation runs
    again.  The group descriptors and points and `Interval` write their own
    ``__eq__`` and ``__hash__`` over the same tuple, which run faster than
    these generic ones: `groups.add` compares descriptors, and the checks
    hash points.  There are no slots: a cached property stores into the
    instance dict, and a method set on a record class reaches every instance.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the named fields changed, validated again by ``__init__``."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


class Window(Record):
    """A finite, negation-closed evaluation window.

    ``points`` may hold group elements or raw rationals/floats (for formula
    weights on the line or circle).  ``ae_excluded`` records points left out
    under almost-everywhere semantics (e.g. the origin for t^(1/4)).
    """

    name: str
    points: tuple
    ae_excluded: tuple

    def __init__(self, name: str, points: tuple, ae_excluded: tuple = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ae_excluded", ae_excluded)

    def __len__(self) -> int:
        return len(self.points)


class TruncationSpec(Record):
    """Finite truncation of an infinite convolution sum.

    layer: chain cutoff N (layer weights); ball: range cutoff B in integer
    units (rationals); per_summand: per-coordinate layer cutoffs (direct sums).
    Every cutoff is an int (not a bool) in [1, MAX_LAYER].
    """

    layer: Optional[int]
    ball: Optional[int]
    per_summand: Optional[tuple[int, ...]]

    def __init__(self, layer: Optional[int] = None, ball: Optional[int] = None,
                 per_summand: Optional[tuple[int, ...]] = None) -> None:
        for cutoff in (layer, ball, *(per_summand or ())):
            if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, int)):
                raise ValueError(f"truncation cutoff {cutoff!r} is not an int")
            if cutoff is not None and cutoff < 1:
                raise ValueError(f"truncation cutoff {cutoff} is below 1")
            if cutoff is not None and cutoff > MAX_LAYER:
                raise ValueError(f"truncation cutoff {cutoff} is above 2^10")
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "ball", ball)
        object.__setattr__(self, "per_summand", per_summand)

    def describe(self) -> dict:
        out: dict[str, Any] = {}
        if self.layer is not None:
            out["layer"] = self.layer
        if self.ball is not None:
            out["ball"] = self.ball
        if self.per_summand is not None:
            out["per_summand"] = list(self.per_summand)
        return out


class Certificate(Record):
    """Verdict for one property over one window, with numeric payload (a new
    empty dict when none is given)."""

    prop: str
    verdict: str
    payload: dict
    window: Optional[dict]
    truncation: Optional[dict]
    witness: Any
    cert_id: Optional[str]

    def __init__(self, prop: str, verdict: str, payload: Optional[dict] = None,
                 window: Optional[dict] = None, truncation: Optional[dict] = None,
                 witness: Any = None, cert_id: Optional[str] = None) -> None:
        if verdict not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {verdict!r}")
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "payload", {} if payload is None else payload)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "cert_id", cert_id)

    def with_id(self, cert_id: str) -> "Certificate":
        return Certificate(self.prop, self.verdict, self.payload, self.window,
                           self.truncation, self.witness, cert_id)


def window_info(window: Window) -> dict:
    info: dict[str, Any] = {"name": window.name, "size": len(window.points)}
    if window.ae_excluded:
        info["ae_excluded"] = len(window.ae_excluded)
    return info
