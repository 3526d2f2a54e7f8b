"""Truncated self-convolution with certified tail bounds.

For a discrete exact weight u the engine encloses

    (u*u)(x) = sum_y u(y) u(x-y)

by an exact partial sum over a finite truncation set plus a tail bound read
off the construction's closed form.  Tails never come from extrapolation.

Each construction sums its own shells in its `_conv` method (see
`weights.py`): the weights are constant on the shells of a subgroup chain
(and, on the rationals, on the unit intervals of floor|q|), so partial sums
are counts over shells rather than enumerations of group elements.  On the
Prüfer chain the shell values phi_n = (s/p)^n make the partial sum a few
geometric sums in closed form and the tail a geometric series of ratio
s^2/p, both derived from s alone.  Unset truncation fields fall back to the
weight's `trunc_default`.

Every partial sum is the exact rational the element-by-element sum gives.
The rationals and direct-sum sums add integer numerators and normalise
once, into one Fraction per enclosure end.
The engine is pure and weights are immutable in every field; a direct sum's
tables of summand values and rows live on the weight, where a race between
threads can only repeat work, so concurrent calls are safe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import groups as G
from .certificates import TruncationSpec
from .intervals import Interval
from .weights import DirectSumWeight, LayerWeight, TailUnavailableError, WeightFn


def conv_exact(u: WeightFn, x) -> Optional[Fraction]:
    """Closed-form value of (u*u)(x) where every tail is exactly geometric:
    the upper end of conv_at's enclosure is then the exact value.  That holds
    for a Prüfer layer weight with s < 1 (its omitted squares have ratio
    exactly s^2/p) and for direct sums of such weights."""
    if not _tails_geometric(u):
        return None
    if isinstance(u, LayerWeight):
        return conv_at(u, x, TruncationSpec(layer=G.layer_of(x))).hi
    return conv_at(u, x, TruncationSpec(per_summand=(1,) * len(u.summands))).hi


def _tails_geometric(u: WeightFn) -> bool:
    if isinstance(u, LayerWeight):
        return u.mass() is not None
    return isinstance(u, DirectSumWeight) and all(map(_tails_geometric, u.summands))


def conv_at(u: WeightFn, x, trunc: TruncationSpec, *,
            require_tail: bool = True) -> Interval:
    """Enclosure of (u*u)(x): exact partial sum plus provenance tail bound.

    With require_tail=False a weight without certifiable tails yields an
    unbounded enclosure [partial, None] instead of raising; the partial sum
    is still an exact lower bound, enough to disprove an inequality.
    """
    iv = u._conv(x, trunc)
    if require_tail and iv.hi is None:
        raise TailUnavailableError("no closed-form tail available for this provenance")
    return iv
