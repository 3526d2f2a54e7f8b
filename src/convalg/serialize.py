"""Versioned JSON wire formats: group points, descriptors, weight provenance,
certificates.  Rationals travel as "num/den" strings; every document carries
a "schema" field; serialization is deterministic (sorted keys) so repeated
runs are byte-identical apart from optional timestamps.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from . import groups as G
from .certificates import Certificate
from .formulas import FormulaWeight, builtin_weight
from .rational import format_rational, parse_rational
from .weights import (
    AlgebraWeight,
    AlphaSequence,
    DirectSumWeight,
    EuclideanWeight,
    LayerWeight,
    PHI_REGISTRY,
    ProductWeight,
    RationalsLayerWeight,
    SubsetCoeffs,
    WeightFn,
    direct_sum_weight,
    nested_finite_weight,
    pruefer_default_phi,
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
        return {"variant": "rationals", "chain": desc.chain}
    if isinstance(desc, G.CircleGroup):
        return {"variant": "circle"}
    if isinstance(desc, G.SumGroup):
        return {"variant": "sum", "summands": [descriptor_to_json(s) for s in desc.summands]}
    if isinstance(desc, G.RealGroup):
        return {"variant": "real", "dim": desc.dim}
    if isinstance(desc, G.ProductGroup):
        return {"variant": "product", "real": descriptor_to_json(desc.real),
                "discrete": descriptor_to_json(desc.discrete)}
    raise TypeError(f"unsupported descriptor {type(desc).__name__}")


def _json_int(data: dict, key: str) -> int:
    """The integer field data[key]; a JSON number with a fraction, a string,
    null, a list or a boolean is refused."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


def descriptor_from_json(data: dict) -> G.GroupDescriptor:
    if not isinstance(data, dict):
        raise ValueError("a group descriptor must be a JSON object")
    variant = data["variant"]
    if variant == "pruefer":
        return G.PrueferGroup(_json_int(data, "p"))
    if variant == "rationals":
        return G.RationalsGroup(data.get("chain", "factorial"))
    if variant == "circle":
        return G.CircleGroup()
    if variant == "sum":
        return G.SumGroup(tuple(descriptor_from_json(s) for s in data["summands"]))
    if variant == "real":
        return G.RealGroup(_json_int(data, "dim"))
    if variant == "product":
        return G.ProductGroup(descriptor_from_json(data["real"]),
                              descriptor_from_json(data["discrete"]))
    raise ValueError(f"unknown group variant {variant!r}")


# --------------------------------------------------------------------------
# Points
# --------------------------------------------------------------------------

def point_to_json(x) -> Any:
    if isinstance(x, G.PrueferPoint):
        return format_rational(x.value())
    if isinstance(x, (G.RationalPoint, G.CirclePoint)):
        return format_rational(x.value)
    if isinstance(x, G.SumPoint):
        return {str(j): point_to_json(pt) for j, pt in x.coords}
    if isinstance(x, G.RealPoint):
        return list(x.coords)
    if isinstance(x, G.ProductPoint):
        return {"real": point_to_json(x.real_part), "discrete": point_to_json(x.discrete_part)}
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (int, float, str)) or x is None:
        return x
    raise TypeError(f"unsupported point {type(x).__name__}")


def point_from_json(group: G.GroupDescriptor, data: Any) -> G.GroupPoint:
    if isinstance(group, G.PrueferGroup):
        value = parse_rational(data)
        den = value.denominator
        n = 0
        while group.p ** n < den:
            n += 1
        if group.p ** n != den:
            raise ValueError(f"{data} is not a p-power fraction for p={group.p}")
        return G.PrueferPoint(group, value.numerator, n)
    if isinstance(group, G.RationalsGroup):
        return G.RationalPoint(group, parse_rational(data))
    if isinstance(group, G.CircleGroup):
        return G.CirclePoint(group, parse_rational(data))
    if isinstance(group, G.SumGroup):
        coords = {int(j): point_from_json(group.summand(int(j)), pt) for j, pt in data.items()}
        return group.point(coords)
    if isinstance(group, G.RealGroup):
        return G.RealPoint(group, tuple(float(c) for c in data))
    if isinstance(group, G.ProductGroup):
        return G.ProductPoint(group, point_from_json(group.real, data["real"]),
                              point_from_json(group.discrete, data["discrete"]))
    raise TypeError(f"unsupported descriptor {type(group).__name__}")


# --------------------------------------------------------------------------
# Weights
# --------------------------------------------------------------------------

def _scale_to_json(scale) -> Any:
    if isinstance(scale, Fraction):
        return format_rational(scale)
    return float(scale)


def _scale_from_json(data) -> Any:
    if isinstance(data, str):
        return parse_rational(data)
    if not isinstance(data, (int, float)):
        raise ValueError("scale must be a rational string or a number")
    return float(data)


def weight_to_provenance(w: WeightFn, certificates: list[str] | None = None) -> dict:
    if isinstance(w, LayerWeight):
        params = {"group": descriptor_to_json(w.group), "phi": w.phi.name}
        if w.phi.certified:
            params["mass"] = format_rational(w.mass())
    elif isinstance(w, RationalsLayerWeight):
        params = {"group": descriptor_to_json(w.group), "phi": w.phi.name,
                  "c2": format_rational(w.c2)}
        if w.phi.certified:
            params["mass"] = format_rational(w.mass())
    elif isinstance(w, DirectSumWeight):
        params = {
            "summands": [weight_to_provenance(s) for s in w.summands],
            "alphas": [format_rational(a) for a in w.alphas.values],
            "alpha_rule": w.alphas.rule,
            "eps1": format_rational(w.coeffs.eps1),
        }
    elif isinstance(w, EuclideanWeight):
        params = {"dim": w.group.dim}
    elif isinstance(w, ProductWeight):
        params = {"real": weight_to_provenance(w.real_factor),
                  "discrete": weight_to_provenance(w.discrete_factor)}
    elif isinstance(w, AlgebraWeight):
        params = {"base": weight_to_provenance(w.base), "p": format_rational(w.p)}
    elif isinstance(w, FormulaWeight):
        params = {"name": w.name}
    else:
        raise TypeError(f"unsupported weight {type(w).__name__}")
    return {
        "schema": WEIGHT_SCHEMA,
        "construction": w.construction,
        "params": params,
        "scale": _scale_to_json(w.scale),
        "exact": w.exact,
        "certificates": certificates or [],
    }


def _phi_from_json(params: dict):
    name = params["phi"]
    if not isinstance(name, str) or name not in PHI_REGISTRY:
        raise ValueError(f"unknown phi {name!r}")
    return PHI_REGISTRY[name]


def weight_from_provenance(data: dict) -> WeightFn:
    if not isinstance(data, dict):
        raise ValueError("a weight document must be a JSON object")
    if data.get("schema") != WEIGHT_SCHEMA:
        raise ValueError(f"unsupported weight schema {data.get('schema')!r}")
    construction = data["construction"]
    params = data["params"]
    if not isinstance(params, dict):
        raise ValueError("weight params must be a JSON object")
    scale = _scale_from_json(data["scale"])
    if construction == "pruefer-layer":
        group = descriptor_from_json(params["group"])
        phi = _phi_from_json(params)(group.p)
        w: WeightFn = nested_finite_weight(group, phi, unchecked=not phi.certified)
    elif construction == "rationals-layer":
        group = descriptor_from_json(params["group"])
        phi = _phi_from_json(params)()
        w = rationals_weight(group, phi, c2=parse_rational(params["c2"]),
                             unchecked=not phi.certified)
    elif construction == "direct-sum":
        summands = tuple(weight_from_provenance(s) for s in params["summands"])
        alphas = AlphaSequence(tuple(parse_rational(a) for a in params["alphas"]),
                               rule=params.get("alpha_rule", "3^-j"))
        coeffs = SubsetCoeffs(parse_rational(params["eps1"]))
        w = direct_sum_weight(summands, alphas, coeffs)
    elif construction == "euclidean":
        w = EuclideanWeight(group=G.RealGroup(_json_int(params, "dim")))
    elif construction == "product":
        real_factor = weight_from_provenance(params["real"])
        discrete_factor = weight_from_provenance(params["discrete"])
        w = ProductWeight(
            group=G.ProductGroup(real_factor.descriptor, discrete_factor.descriptor),
            real_factor=real_factor, discrete_factor=discrete_factor)
    elif construction == "algebra":
        w = AlgebraWeight(base=weight_from_provenance(params["base"]),
                          p=parse_rational(params["p"]))
    elif construction == "formula":
        w = builtin_weight(params["name"])
    else:
        raise ValueError(f"unknown construction {construction!r}")
    if scale != w.scale:
        w = w.rescaled(scale / w.scale)
    return w


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


def certificate_from_json(data: dict) -> Certificate:
    if data.get("schema") != CERT_SCHEMA:
        raise ValueError(f"unsupported certificate schema {data.get('schema')!r}")
    return Certificate(
        prop=data["property"],
        verdict=data["verdict"],
        payload=data.get("payload") or {},
        window=data.get("window"),
        truncation=data.get("truncation"),
        witness=data.get("witness"),
        cert_id=data.get("id"),
    )
