"""The record contract: every immutable record (`convalg.certificates.Record`)
keeps the repr text, equality, hash and frozenness its fields give, and
`replace` validates again.  The repr literals and field names are the ones
these records had as frozen dataclasses, so every text that shows a record
reads as before."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from convalg import groups as G
from convalg import weights as W
from convalg.certificates import Certificate, Record, TruncationSpec, Window
from convalg.formulas import Builtin, FormulaWeight, GrowthInfo
from convalg.intervals import Interval
from convalg.quadrature import BeurlingResult, QuadratureSpec, RatioResult
from convalg.sequences import QSequence

ROOT = Path(__file__).resolve().parent.parent
# the bases that carry shared methods and are never built themselves
ABSTRACT = {"GroupDescriptor", "GroupPoint", "WeightFn", "ShellWeight"}


def record_cases():
    """One instance of each record class, and a change to some of its fields."""
    P2, P3, Q, R1 = G.PrueferGroup(2), G.PrueferGroup(3), G.RationalsGroup(), G.RealGroup(1)
    S = G.SumGroup((P2, P3))
    X = G.ProductGroup(R1, P2)
    x = P2.element(6, 3)
    r = G.RealPoint(R1, (Fraction(1, 2),))
    cert = Certificate("positivity", "holds", {"min": 1}, {"name": "G1", "size": 2})
    growth = GrowthInfo("poly", 0.5, 2)
    layer = W.LayerWeight(P2, Fraction(1, 2))
    euclid = W.EuclideanWeight(R1)
    alphas = W.AlphaSequence((Fraction(1, 3), Fraction(1, 9)))
    return {
        "Window": (Window("G1", (0, 1), (0,)), {"name": "G2"}),
        "TruncationSpec": (TruncationSpec(layer=8), {"ball": 3}),
        "Certificate": (cert, {"verdict": "fails"}),
        "GrowthInfo": (growth, {"rate": 1.0}),
        "Builtin": (Builtin("real", math.hypot, math.fsum, growth, 1.0), {"even": True}),
        "FormulaWeight": (FormulaWeight("poly2"), {"scale": 2.0}),
        "PrueferGroup": (P2, {"p": 5}),
        "RationalsGroup": (Q, {}),
        "SumGroup": (S, {"summands": (P2,)}),
        "RealGroup": (G.RealGroup(2), {"dim": 3}),
        "ProductGroup": (X, {"discrete": P3}),
        "PrueferPoint": (x, {"num": 1}),
        "RationalPoint": (Q.element(Fraction(-3, 4)), {"value": Fraction(1, 4)}),
        "SumPoint": (S.point({1: x, 2: P3.element(1, 2)}), {"coords": ((1, x),)}),
        "RealPoint": (r, {"coords": (Fraction(1),)}),
        "ProductPoint": (X.point(r, x), {"discrete_part": P2.element(1, 1)}),
        "Interval": (Interval(Fraction(0), Fraction(1)), {"hi": None}),
        "QuadratureSpec": (QuadratureSpec(), {"tol": 1e-6}),
        "RatioResult": (RatioResult(Interval(1.0, 2.0), 1.5, 0.25, cert), {"argmax": 0.5}),
        "BeurlingResult": (BeurlingResult(Interval(0.5, 0.75), "finite", cert),
                           {"classification": "infinite"}),
        "QSequence": (QSequence(2, (2, 220), 10 ** 6), {"depth": 3}),
        "SubsetCoeffs": (W.SubsetCoeffs(), {"eps1": Fraction(1, 80)}),
        "AlphaSequence": (alphas, {"rule": "4^-j"}),
        "LayerWeight": (layer, {"s": Fraction(1, 3)}),
        "RationalsLayerWeight": (W.RationalsLayerWeight(Q, Fraction(1, 2), Fraction(1, 3)),
                                 {"scale": Fraction(1)}),
        "DirectSumWeight": (W.DirectSumWeight(S, (layer, W.LayerWeight(P3, 1)), alphas,
                                              W.SubsetCoeffs()), {"scale": Fraction(1, 2)}),
        "EuclideanWeight": (euclid, {"scale": Fraction(1, 7)}),
        "ProductWeight": (W.ProductWeight(X, euclid, layer), {"scale": Fraction(2)}),
        "AlgebraWeight": (W.AlgebraWeight(layer, Fraction(2)), {"p": Fraction(3)}),
    }


FIELDS = {
    "Window": ("name", "points", "ae_excluded"),
    "TruncationSpec": ("layer", "ball", "per_summand"),
    "Certificate": ("prop", "verdict", "payload", "window", "truncation", "witness", "cert_id"),
    "GrowthInfo": ("kind", "log_const", "degree", "rate", "log_damped"),
    "Builtin": ("domain", "raw", "log", "growth", "infimum", "even"),
    "FormulaWeight": ("name", "scale"),
    "PrueferGroup": ("p",),
    "RationalsGroup": (),
    "SumGroup": ("summands",),
    "RealGroup": ("dim",),
    "ProductGroup": ("real", "discrete"),
    "PrueferPoint": ("group", "num", "exp"),
    "RationalPoint": ("group", "value"),
    "SumPoint": ("group", "coords"),
    "RealPoint": ("group", "coords"),
    "ProductPoint": ("group", "real_part", "discrete_part"),
    "Interval": ("lo", "hi"),
    "QuadratureSpec": ("tol",),
    "RatioResult": ("sup", "grid_max", "argmax", "certificate"),
    "BeurlingResult": ("integral", "classification", "certificate"),
    "QSequence": ("depth", "terms", "next_lower"),
    "SubsetCoeffs": ("eps1",),
    "AlphaSequence": ("values", "rule"),
    "LayerWeight": ("group", "s", "scale"),
    "RationalsLayerWeight": ("group", "s", "scale"),
    "DirectSumWeight": ("group", "summands", "alphas", "coeffs", "scale"),
    "EuclideanWeight": ("group", "scale"),
    "ProductWeight": ("group", "real_factor", "discrete_factor", "scale"),
    "AlgebraWeight": ("base", "p", "scale"),
}

REPRS = {
    "Window": "Window(name='G1', points=(0, 1), ae_excluded=(0,))",
    "TruncationSpec": "TruncationSpec(layer=8, ball=None, per_summand=None)",
    "Certificate": (
        "Certificate(prop='positivity', verdict='holds', payload={'min': 1}"
        ", window={'name': 'G1', 'size': 2}, truncation=None, witness=None, cert_id=None)"
    ),
    "GrowthInfo": "GrowthInfo(kind='poly', log_const=0.5, degree=2, rate=0.0, log_damped=False)",
    "Builtin": (
        "Builtin(domain='real', raw=<built-in function hypot>"
        ", log=<built-in function fsum>, growth=GrowthInfo(kind='poly', log_const=0.5"
        ", degree=2, rate=0.0, log_damped=False), infimum=1.0, even=False)"
    ),
    "FormulaWeight": "FormulaWeight(name='poly2', scale=1.0)",
    "PrueferGroup": "PrueferGroup(p=2)",
    "RationalsGroup": "RationalsGroup()",
    "SumGroup": "SumGroup(summands=(PrueferGroup(p=2), PrueferGroup(p=3)))",
    "RealGroup": "RealGroup(dim=2)",
    "ProductGroup": "ProductGroup(real=RealGroup(dim=1), discrete=PrueferGroup(p=2))",
    "PrueferPoint": "PrueferPoint(group=PrueferGroup(p=2), num=3, exp=2)",
    "RationalPoint": "RationalPoint(group=RationalsGroup(), value=Fraction(-3, 4))",
    "SumPoint": (
        "SumPoint(group=SumGroup(summands=(PrueferGroup(p=2), PrueferGroup(p=3)))"
        ", coords=((1, PrueferPoint(group=PrueferGroup(p=2), num=3, exp=2)), (2"
        ", PrueferPoint(group=PrueferGroup(p=3), num=1, exp=2))))"
    ),
    "RealPoint": "RealPoint(group=RealGroup(dim=1), coords=(Fraction(1, 2),))",
    "ProductPoint": (
        "ProductPoint(group=ProductGroup(real=RealGroup(dim=1)"
        ", discrete=PrueferGroup(p=2)), real_part=RealPoint(group=RealGroup(dim=1)"
        ", coords=(Fraction(1, 2),)), discrete_part=PrueferPoint(group=PrueferGroup(p=2)"
        ", num=3, exp=2))"
    ),
    "Interval": "Interval(lo=Fraction(0, 1), hi=Fraction(1, 1))",
    "QuadratureSpec": "QuadratureSpec(tol=1e-09)",
    "RatioResult": (
        "RatioResult(sup=Interval(lo=1.0, hi=2.0), grid_max=1.5, argmax=0.25"
        ", certificate=Certificate(prop='positivity', verdict='holds', payload={'min': 1}"
        ", window={'name': 'G1', 'size': 2}, truncation=None, witness=None"
        ", cert_id=None))"
    ),
    "BeurlingResult": (
        "BeurlingResult(integral=Interval(lo=0.5, hi=0.75), classification='finite'"
        ", certificate=Certificate(prop='positivity', verdict='holds', payload={'min': 1}"
        ", window={'name': 'G1', 'size': 2}, truncation=None, witness=None"
        ", cert_id=None))"
    ),
    "QSequence": "QSequence(depth=2, terms=(2, 220), next_lower=1000000)",
    "SubsetCoeffs": "SubsetCoeffs(eps1=Fraction(1, 60))",
    "AlphaSequence": "AlphaSequence(values=(Fraction(1, 3), Fraction(1, 9)), rule='3^-j')",
    "LayerWeight": (
        "LayerWeight(group=PrueferGroup(p=2), s=Fraction(1, 2), scale=Fraction(1, 1))"
    ),
    "RationalsLayerWeight": (
        "RationalsLayerWeight(group=RationalsGroup(), s=Fraction(1, 2), scale=Fraction(1"
        ", 3))"
    ),
    "DirectSumWeight": (
        "DirectSumWeight(group=SumGroup(summands=(PrueferGroup(p=2), PrueferGroup(p=3)))"
        ", summands=(LayerWeight(group=PrueferGroup(p=2), s=Fraction(1, 2)"
        ", scale=Fraction(1, 1)), LayerWeight(group=PrueferGroup(p=3), s=Fraction(1, 1)"
        ", scale=Fraction(1, 1))), alphas=AlphaSequence(values=(Fraction(1, 3)"
        ", Fraction(1, 9)), rule='3^-j'), coeffs=SubsetCoeffs(eps1=Fraction(1, 60))"
        ", scale=Fraction(1, 1))"
    ),
    "EuclideanWeight": "EuclideanWeight(group=RealGroup(dim=1), scale=Fraction(1, 1))",
    "ProductWeight": (
        "ProductWeight(group=ProductGroup(real=RealGroup(dim=1)"
        ", discrete=PrueferGroup(p=2))"
        ", real_factor=EuclideanWeight(group=RealGroup(dim=1), scale=Fraction(1, 1))"
        ", discrete_factor=LayerWeight(group=PrueferGroup(p=2), s=Fraction(1, 2)"
        ", scale=Fraction(1, 1)), scale=Fraction(1, 1))"
    ),
    "AlgebraWeight": (
        "AlgebraWeight(base=LayerWeight(group=PrueferGroup(p=2), s=Fraction(1, 2)"
        ", scale=Fraction(1, 1)), p=Fraction(2, 1), scale=1.0)"
    ),
}

CASES = record_cases()
NAMES = sorted(CASES)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_has_a_case():
    records = {cls.__name__ for cls in _subclasses(Record)
               if cls.__module__.startswith("convalg.")} - ABSTRACT
    assert records == set(CASES) == set(FIELDS) == set(REPRS)
    assert len(records) == 29


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    record, _ = CASES[name]
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash_read_the_field_tuple(name):
    record, changes = CASES[name]
    values = tuple(getattr(record, field) for field in FIELDS[name])
    twin = type(record)(*values)
    assert twin is not record and twin == record and not twin != record
    try:
        expected = hash(values)
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    # another class never compares equal, even with the same field tuple
    assert record.__eq__(values) is NotImplemented and record != values
    if changes:
        changed = record.replace(**changes)
        assert changed != record and not changed == record
        assert tuple(getattr(changed, field) for field in FIELDS[name]) != values


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record, _ = CASES[name]
    text = repr(record)
    for field in FIELDS[name] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_replace_keeps_the_unnamed_fields(name):
    record, changes = CASES[name]
    assert record.replace() == record
    changed = record.replace(**changes)
    for field in FIELDS[name]:
        if field not in changes:
            assert getattr(changed, field) == getattr(record, field)
    with pytest.raises(TypeError):
        record.replace(not_a_field=0)


def test_replace_validates_again():
    with pytest.raises(ValueError):
        TruncationSpec(layer=8).replace(layer=0)
    with pytest.raises(ValueError):
        Interval(0, 1).replace(hi=-1)
    with pytest.raises(ValueError):
        G.PrueferGroup(2).replace(p=4)
    with pytest.raises(ValueError):
        CASES["Certificate"][0].replace(verdict="maybe")
    with pytest.raises(ValueError):
        FormulaWeight("poly2").replace(name="poly3")
    with pytest.raises(ValueError):
        CASES["LayerWeight"][0].replace(s=0)
    # a Pruefer point is reduced again: 6/2^2 is 1/2 mod 1
    assert CASES["PrueferPoint"][0].replace(num=6) == G.PrueferGroup(2).element(1, 1)
    # rescaled goes through replace, and keeps an exact weight's scale rational
    assert CASES["LayerWeight"][0].rescaled(2).scale == Fraction(2)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = ("import sys; before = set(sys.modules); import convalg, convalg.cli; "
            "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect'}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
