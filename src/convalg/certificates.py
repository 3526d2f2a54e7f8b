"""Certificate, window and truncation records shared by the checking engines.

A certificate is a machine-checkable record of one verified property over a
window: verdict "holds" is only issued when the inequality is established
including truncation tails, "fails" always carries an exact witness, and
"inconclusive" is a first-class outcome when a tail bound is too coarse to
decide.  Payload scalars are rationals (serialized as "num/den") or floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Window:
    """A finite, negation-closed evaluation window.

    ``points`` may hold group elements or raw rationals/floats (for formula
    weights on the line or circle).  ``ae_excluded`` records points left out
    under almost-everywhere semantics (e.g. the origin for t^(1/4)).
    """

    name: str
    points: tuple
    ae_excluded: tuple = ()

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class TruncationSpec:
    """Finite truncation of an infinite convolution sum.

    layer: chain cutoff N (layer weights); ball: range cutoff B in integer
    units (rationals); per_summand: per-coordinate layer cutoffs (direct sums).
    Every cutoff is an int (not a bool) in [1, MAX_LAYER].
    """

    layer: Optional[int] = None
    ball: Optional[int] = None
    per_summand: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for cutoff in (self.layer, self.ball, *(self.per_summand or ())):
            if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, int)):
                raise ValueError(f"truncation cutoff {cutoff!r} is not an int")
            if cutoff is not None and cutoff < 1:
                raise ValueError(f"truncation cutoff {cutoff} is below 1")
            if cutoff is not None and cutoff > MAX_LAYER:
                raise ValueError(f"truncation cutoff {cutoff} is above 2^10")

    def describe(self) -> dict:
        out: dict[str, Any] = {}
        if self.layer is not None:
            out["layer"] = self.layer
        if self.ball is not None:
            out["ball"] = self.ball
        if self.per_summand is not None:
            out["per_summand"] = list(self.per_summand)
        return out


@dataclass(frozen=True)
class Certificate:
    """Verdict for one property over one window, with numeric payload."""

    prop: str
    verdict: str
    payload: dict = field(default_factory=dict)
    window: Optional[dict] = None
    truncation: Optional[dict] = None
    witness: Any = None
    cert_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def with_id(self, cert_id: str) -> "Certificate":
        return Certificate(self.prop, self.verdict, self.payload, self.window,
                           self.truncation, self.witness, cert_id)


def window_info(window: Window) -> dict:
    info: dict[str, Any] = {"name": window.name, "size": len(window.points)}
    if window.ae_excluded:
        info["ae_excluded"] = len(window.ae_excluded)
    return info
