"""Pinned values of the builtin formula weights' evaluators.

Each row is the repr of raw_eval or log_eval at POINTS (negative integer,
zero, rationals, floats), or the name of the exception raised there; the
circle weights reduce mod 1, so -2 and 0 are both their origin.
"""

from fractions import Fraction as F

import pytest

import convalg as ca

POINTS = (-2, 0, F(1, 3), F(-5, 2), 0.7, -1.25)

RAW = {
    "poly2": ["5.0", "1.0", "1.1111111111111112", "7.25", "1.49", "2.5625"],
    "exp-abs": ["7.38905609893065", "1.0", "1.3956124250860895", "12.182493960703473",
                "2.0137527074704766", "3.4903429574618414"],
    "poly2-exp": ["36.945280494653254", "1.0", "1.5506804723178773", "88.32308121510017",
                  "3.0004915341310103", "8.944003828495969"],
    "poly2-exp-log": ["18.147974152291994", "1.0", "1.4980052270987907", "32.92277276252141",
                      "2.633413493589767", "6.346324372003944"],
    "poly2-exp-signed": ["0.6766764161830635", "1.0", "1.5506804723178773",
                         "0.5951162400232664", "3.0004915341310103", "0.7341685419542371"],
    "circle-quarter": ["0.0", "0.0", "0.7598356856515925", "0.8408964152537145",
                       "0.9146912192286945", "0.9306048591020996"],
    "circle-inv-sqrt": ["ZeroDivisionError", "ZeroDivisionError", "1.7320508075688774",
                        "1.4142135623730951", "1.1952286093343938", "1.1547005383792515"],
    "const-one": ["1.0"] * 6,
}

LOG = {
    (1, "poly2"): ["1.6094379124341003", "0.0", "0.1053605156578263", "1.9810014688665833",
                   "0.3987761199573677", "0.9409833444645266"],
    (1, "exp-abs"): ["2.0", "0.0", "0.3333333333333333", "2.5", "0.7", "1.25"],
    (1, "poly2-exp"): ["3.6094379124341005", "0.0", "0.4386938489911596", "4.481001468866584",
                       "1.0987761199573676", "2.1909833444645264"],
    (1, "poly2-exp-log"): ["2.898558937527615", "0.0", "0.4041343744739803",
                           "3.4941645995560386", "0.9682809109452691", "1.8478758062581022"],
    (1, "poly2-exp-signed"): ["-0.3905620875658997", "0.0", "0.4386938489911596",
                              "-0.5189985311334167", "1.0987761199573676",
                              "-0.3090166555354734"],
    (1, "circle-quarter"): ["ZeroDivisionError", "ZeroDivisionError", "-0.27465307216702745",
                            "-0.17328679513998632", "-0.08916873598468311",
                            "-0.07192051811294523"],
    (1, "circle-inv-sqrt"): ["ValueError", "ValueError", "0.5493061443340549",
                             "0.34657359027997264", "0.17833747196936622",
                             "0.14384103622589045"],
    (1, "const-one"): ["0.0"] * 6,
    (F(1, 2), "poly2"): ["0.916290731874155", "-0.6931471805599453", "-0.587786664902119",
                         "1.287854288306638", "-0.29437106060257756", "0.2478361639045813"],
    (F(1, 2), "exp-abs"): ["1.3068528194400546", "-0.6931471805599453",
                           "-0.35981384722661197", "1.8068528194400546",
                           "0.006852819440054669", "0.5568528194400547"],
    (F(1, 2), "poly2-exp"): ["2.916290731874155", "-0.6931471805599453",
                             "-0.25445333156878563", "3.787854288306638",
                             "0.4056289393974224", "1.4978361639045814"],
    (F(1, 2), "poly2-exp-log"): ["2.2054117569676697", "-0.6931471805599453",
                                 "-0.2890128060859649", "2.8010174189960932",
                                 "0.27513373038532385", "1.1547286256981568"],
    (F(1, 2), "poly2-exp-signed"): ["-1.083709268125845", "-0.6931471805599453",
                                    "-0.25445333156878563", "-1.212145711693362",
                                    "0.4056289393974224", "-1.0021638360954186"],
    (F(1, 2), "circle-quarter"): ["ZeroDivisionError", "ZeroDivisionError",
                                  "-0.9678002527269727", "-0.8664339756999316",
                                  "-0.7823159165446284", "-0.7650676986728905"],
    (F(1, 2), "circle-inv-sqrt"): ["ValueError", "ValueError", "-0.1438410362258904",
                                   "-0.34657359027997264", "-0.5148097085905791",
                                   "-0.5493061443340548"],
    (F(1, 2), "const-one"): ["-0.6931471805599453"] * 6,
}


def _values(fn):
    out = []
    for x in POINTS:
        try:
            out.append(repr(fn(x)))
        except Exception as exc:
            out.append(type(exc).__name__)
    return out


@pytest.mark.parametrize("scale", [1, F(1, 2)], ids=["scale1", "scale1/2"])
@pytest.mark.parametrize("name", ca.BUILTIN_NAMES)
def test_builtin_evaluators_pinned(name, scale):
    w = ca.builtin_weight(name).rescaled(scale)
    # the raw formula ignores the scale
    assert _values(w.raw_eval) == RAW[name]
    assert _values(w.log_eval) == LOG[scale, name]


def test_builtin_evaluators_refuse_group_points():
    # a formula weight's points are numbers; group points belong to the
    # constructed weights
    for w in map(ca.builtin_weight, ca.BUILTIN_NAMES):
        for x in (ca.RealGroup(1).element([F(1, 3)]), ca.RationalsGroup().element(F(1, 3))):
            with pytest.raises(TypeError):
                w.raw_eval(x)
            with pytest.raises(TypeError):
                w.log_eval(x)
