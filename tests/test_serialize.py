import functools
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import convalg as ca
from convalg import groups as G
from convalg.cli import main as cli_main

P2 = G.PrueferGroup(2)
P3 = G.PrueferGroup(3)


def scaled(p):
    u = ca.pruefer_weight(p)
    return ca.scale_for_b(u, 2 * u.mass())


def test_descriptor_roundtrip():
    # weight documents name only the two chain groups
    assert ca.descriptor_to_json(P2) == {"variant": "pruefer", "p": 2}
    assert ca.descriptor_to_json(G.RationalsGroup()) == {"variant": "rationals",
                                                         "chain": "factorial"}
    with pytest.raises(TypeError):
        ca.descriptor_to_json(G.RealGroup(1))


def test_point_serialization_formats():
    assert ca.point_to_json(P2.element(3, 3)) == "3/8"
    sum_group = G.SumGroup((P2, P3))
    x = sum_group.point({2: P3.element(1, 1), 1: P2.element(1, 1)})
    assert ca.point_to_json(x) == {"1": "1/2", "2": "1/3"}
    # real coordinates are exact, so they are written as rationals too
    assert ca.point_to_json(G.RealGroup(2).element([0.5, F(-1, 3)])) == ["1/2", "-1/3"]


def test_weight_provenance_roundtrips():
    uq = ca.rationals_weight()
    weights = [
        scaled(2),
        ca.pruefer_weight(3),
        ca.scale_for_b(uq, 2 * uq.sub_constant * uq.mass()),
        ca.direct_sum_weight((scaled(2), scaled(3), scaled(2))),
        ca.algebra_weight(scaled(2), 2),
    ]
    for w in weights:
        prov = ca.weight_to_provenance(w)
        assert prov["schema"] == "convalg.weight/1"
        rebuilt = ca.weight_from_provenance(json.loads(json.dumps(prov)))
        assert type(rebuilt) is type(w)
        x = w.descriptor.identity()
        assert rebuilt.eval(x) == w.eval(x)
        # provenance of the rebuilt weight is bit-identical
        assert ca.canonical_dumps(ca.weight_to_provenance(rebuilt)) == ca.canonical_dumps(prov)


def test_exact_weight_rescaled_by_a_float_roundtrips():
    # a float factor converts exactly, so the weight keeps a rational scale
    w = ca.pruefer_weight(2).rescaled(0.25)
    assert w.exact and w.scale == F(1, 4) and isinstance(w.scale, F)
    prov = ca.weight_to_provenance(w)
    assert prov["scale"] == "1/4"
    rebuilt = ca.weight_from_provenance(json.loads(json.dumps(prov)))
    assert rebuilt == w
    # a non-exact weight keeps its float scale
    assert ca.algebra_weight(scaled(2), 2).rescaled(0.25).scale == 0.25


def test_broken_weight_provenance_roundtrip():
    w = ca.nested_finite_weight(P2, 4)
    rebuilt = ca.weight_from_provenance(ca.weight_to_provenance(w))
    assert rebuilt.b_bound is None
    assert rebuilt.eval(P2.identity()) == w.eval(P2.identity())


def test_shell_weights_without_a_wire_name_are_not_written():
    # the wire names cover s = 1/2 on both chains and s = 2p on the Prüfer chain
    for w in (ca.nested_finite_weight(P2, F(1, 3)), ca.nested_finite_weight(P2, 6),
              ca.rationals_weight(2), ca.rationals_weight(F(1, 3))):
        with pytest.raises(ValueError, match="no wire name"):
            ca.weight_to_provenance(w)


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        ca.weight_from_provenance({"schema": "bogus/9"})


# --------------------------------------------------------------------------
# Loader fuzz: any JSON value anywhere gives a weight, a ValueError or a
# KeyError (the two errors verify maps to exit 2), never another exception.
# --------------------------------------------------------------------------

CONSTRUCT_ARGS = (
    ["--group", "pruefer:2"],
    ["--group", "pruefer:2", "--raw"],
    ["--group", "pruefer:2", "--phi", "broken"],
    ["--group", "pruefer:2", "--p", "2"],
    ["--group", "rationals"],
    ["--group", "sum", "--summands", "pruefer:2,pruefer:3"],
)


@functools.lru_cache(maxsize=None)
def _construct_outputs() -> tuple:
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, args in enumerate(CONSTRUCT_ARGS):
            out = Path(tmp) / f"w{k}.json"
            assert cli_main(["construct", *args, "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
    return tuple(docs)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


WIRE_WORDS = ("1/2", "2/1", "1/0", "-1/2", "0/1", "factorial", "geometric", "broken-demo",
              "pruefer", "rationals", "sum", "real", "product", "convalg.weight/1")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(WIRE_WORDS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4) | st.sampled_from(("variant", "p", "1", "2", "real", "discrete")),
        inner, max_size=3),
    max_leaves=6)
FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=st.data())
def test_loader_fuzz_fails_closed(data):
    doc = data.draw(st.sampled_from(_construct_outputs()))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    edited = _replace(doc, path, data.draw(JSON_VALUES))
    try:
        w = ca.weight_from_provenance(edited)
    except (ValueError, KeyError):
        return
    assert isinstance(w, ca.WeightFn)
