"""Versioned JSON wire formats.  Weight documents exist for the four
constructions that `convalg construct` writes and `convalg verify` reads
back: pruefer-layer, rationals-layer, direct-sum and algebra; the other
weights are built in Python only.  Points and certificates are written, as
witnesses and bundle entries, never read.  Rationals travel as "num/den"
strings; every document carries a "schema" field; serialization is
deterministic (sorted keys) so repeated runs are byte-identical apart from
optional timestamps.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from . import groups as G
from .certificates import Certificate
from .rational import format_rational, parse_rational
from .weights import (
    AlgebraWeight,
    DirectSumWeight,
    RationalsLayerWeight,
    ShellWeight,
    WeightFn,
    algebra_weight,
    direct_sum_weight,
    nested_finite_weight,
    rationals_weight,
)

WEIGHT_SCHEMA = "convalg.weight/1"
CERT_SCHEMA = "convalg.cert/1"
BUNDLE_SCHEMA = "convalg.bundle/1"


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# Descriptors
# --------------------------------------------------------------------------

def descriptor_to_json(desc: G.GroupDescriptor) -> dict:
    if isinstance(desc, G.PrueferGroup):
        return {"variant": "pruefer", "p": desc.p}
    if isinstance(desc, G.RationalsGroup):
        return {"variant": "rationals", "chain": "factorial"}
    raise TypeError(f"unsupported descriptor {type(desc).__name__}")


def _require_object(data, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")


def _json_float(value) -> float:
    """A JSON number as a float; a string, null, list, boolean or a number
    beyond the float range is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} is beyond the float range") from None


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list, not {value!r}")
    return value


def _json_int(data: dict, key: str) -> int:
    """The integer field data[key]; a JSON number with a fraction, a string,
    null, a list or a boolean is refused."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


# --------------------------------------------------------------------------
# Points
# --------------------------------------------------------------------------

def point_to_json(x) -> Any:
    if isinstance(x, G.PrueferPoint):
        return format_rational(x.value())
    if isinstance(x, G.RationalPoint):
        return format_rational(x.value)
    if isinstance(x, G.SumPoint):
        return {str(j): point_to_json(pt) for j, pt in x.coords}
    if isinstance(x, G.RealPoint):
        return [format_rational(c) for c in x.coords]
    if isinstance(x, G.ProductPoint):
        return {"real": point_to_json(x.real_part), "discrete": point_to_json(x.discrete_part)}
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (int, float, str)) or x is None:
        return x
    raise TypeError(f"unsupported point {type(x).__name__}")


# --------------------------------------------------------------------------
# Weights
# --------------------------------------------------------------------------

def _scale_to_json(scale) -> Any:
    if isinstance(scale, Fraction):
        return format_rational(scale)
    return float(scale)


def _scale_from_json(data) -> Any:
    """A finite scale > 0: a rational string, or a number read as a float."""
    scale = parse_rational(data) if isinstance(data, str) else _json_float(data)
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, not {data!r}")
    return scale


def _shell_names(group: G.GroupDescriptor) -> dict:
    """The wire name of the shell values phi_n = s^n/m_n on the group's chain,
    by s; a shell weight with any other s is neither written nor read."""
    if isinstance(group, G.PrueferGroup):
        return {Fraction(1, 2): "geometric", Fraction(2 * group.p): "broken-demo"}
    return {Fraction(1, 2): "factorial"}


def _shell_s(group: G.GroupDescriptor, params: dict) -> Fraction:
    """The s whose wire name params["phi"] is on the group's chain."""
    for s, name in _shell_names(group).items():
        if params.get("phi") == name:
            return s
    raise ValueError(f"unknown shell values {params.get('phi')!r} on the {group.variant} chain")


def weight_to_provenance(w: WeightFn) -> dict:
    if isinstance(w, ShellWeight):
        name = _shell_names(w.group).get(w.s)
        if name is None:
            raise ValueError(f"shell values with s = {w.s} have no wire name")
        params = {"group": descriptor_to_json(w.group), "phi": name}
        if isinstance(w, RationalsLayerWeight):
            params["c2"] = format_rational(w.c2)
        mass = w.mass()
        if mass is not None:
            params["mass"] = format_rational(mass)
    elif isinstance(w, DirectSumWeight):
        params = {
            "summands": [weight_to_provenance(s) for s in w.summands],
            "alphas": [format_rational(a) for a in w.alphas.values],
            "alpha_rule": w.alphas.rule,
            "eps1": format_rational(w.coeffs.eps1),
        }
    elif isinstance(w, AlgebraWeight):
        params = {"base": weight_to_provenance(w.base), "p": format_rational(w.p)}
    else:
        raise TypeError(f"unsupported weight {type(w).__name__}")
    return {
        "schema": WEIGHT_SCHEMA,
        "construction": w.construction,
        "params": params,
        "scale": _scale_to_json(w.scale),
        "exact": w.exact,
        "certificates": [],
    }


def _rebuild(construction, params: dict) -> WeightFn:
    """The weight that the named construction builds from the fields that
    name it; every other field is derived, and checked by the caller."""
    if construction == "pruefer-layer":
        # the group's variant is checked with the derived fields
        _require_object(params["group"], "a group descriptor")
        group = G.PrueferGroup(_json_int(params["group"], "p"))
        return nested_finite_weight(group, _shell_s(group, params))
    if construction == "rationals-layer":
        return rationals_weight(_shell_s(G.RationalsGroup(), params))
    if construction == "direct-sum":
        return direct_sum_weight([weight_from_provenance(s)
                                  for s in _json_list(params, "summands")])
    if construction == "algebra":
        return algebra_weight(weight_from_provenance(params["base"]),
                              parse_rational(params["p"]))
    raise ValueError(f"unknown construction {construction!r}")


def weight_from_provenance(data: dict) -> WeightFn:
    """Rebuild a weight document with its construction's own constructor.

    The document must be what weight_to_provenance writes for that weight
    (its certificates list aside): a derived field (c2, mass, alphas, eps1,
    the chain, ...) that differs from the rebuilt weight's is refused, never
    trusted.
    """
    _require_object(data, "a weight document")
    if data.get("schema") != WEIGHT_SCHEMA:
        raise ValueError(f"unsupported weight schema {data.get('schema')!r}")
    params = data["params"]
    _require_object(params, "weight params")
    scale = _scale_from_json(data["scale"])
    w = _rebuild(data["construction"], params)
    expected = weight_to_provenance(w)
    for key in ("construction", "params", "exact"):
        if data.get(key) != expected[key]:
            raise ValueError(f"{key!r} differs from what the {w.construction} "
                             "construction builds")
    if w.exact and not isinstance(scale, Fraction):
        raise ValueError("an exact weight takes a rational scale")
    return w.rescaled(scale / w.scale)


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------

def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": CERT_SCHEMA,
        "id": cert.cert_id,
        "property": cert.prop,
        "verdict": cert.verdict,
        "window": cert.window,
        "truncation": cert.truncation,
        "payload": cert.payload,
        "witness": cert.witness,
    }
