"""The three benchmark workloads: their seeded inputs and their timed section.

Each workload has `prepare(seed, out)`, which builds everything the timed
section needs (weights, weight files, windows, argument lists) and counts as
set-up, and `run(ctx)`, the timed section, which issues the certificates and
writes the bundles.  `run` returns a JSON-ready record of what the operations
produced; the checks in `checks.py` read it after the timing is over.

An operation is one certificate, classification or enclosure.  Every pass of
a workload attempts the same operations, whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from fractions import Fraction
from pathlib import Path

# --------------------------------------------------------------------------
# report: `convalg report --no-timestamp --seed S`, in-process
# --------------------------------------------------------------------------

# certificate id -> expected verdict; domar/beurling "fails" are certified
# divergent examples, not broken constructions
REPORT_EXPECTED = {
    "pruefer2:a": "holds", "pruefer2:b": "holds", "pruefer2:c": "holds",
    "pruefer2:d": "holds", "pruefer2:essinf": "holds",
    "rationals:a": "holds", "rationals:b": "holds", "rationals:c": "holds",
    "rationals:d": "holds",
    "sum:a": "holds", "sum:b": "holds", "sum:c": "holds",
    "domar:poly2": "holds", "beurling:poly2": "holds",
    "domar:poly2-exp": "fails", "beurling:poly2-exp": "fails",
    "domar:poly2-exp-log": "fails", "beurling:poly2-exp-log": "fails",
    "countex:frac1": "holds", "countex:frac2": "holds",
    "countex:divergence": "holds", "countex:conv-ratio": "holds",
    "euclidean:conv-ratio": "holds",
}


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """Run one convalg command in this process, capturing what it prints."""
    from convalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def prepare_report(seed: int, out: Path) -> dict:
    report_dir = out / "report"
    return {"argv": ["report", "--out", str(report_dir), "--no-timestamp",
                     "--seed", str(seed)]}


def run_report(ctx: dict) -> dict:
    code, text = _quiet_main(ctx["argv"])
    return {"exit": code, "stdout": text}


# --------------------------------------------------------------------------
# layer-deep: Pruefer layer weights verified at deep truncations
# --------------------------------------------------------------------------

# (name, construct arguments, verify window, verify truncation)
# The window/truncation pairs reach 5 to 7 layers past the window, beyond the
# default G4/N8.  The algebra weight runs on its default G4 window because
# `verify --window` fails on algebra weight files (see CHANGES.md).
LAYER_JOBS = (
    ("pruefer2-raw", ["--group", "pruefer:2", "--raw"], "G5", "N12"),
    ("pruefer3", ["--group", "pruefer:3"], "G2", "N9"),
    ("pruefer5", ["--group", "pruefer:5"], "G1", "N6"),
    ("pruefer2-algebra", ["--group", "pruefer:2", "--p", "2"], None, None),
)
LAYER_CERTS = ("a", "b", "c", "d")


def prepare_layer_deep(seed: int, out: Path) -> dict:
    weights = out / "weights"
    jobs = []
    for name, construct, window, trunc in LAYER_JOBS:
        wfile = weights / f"{name}.json"
        code, _ = _quiet_main(["construct", *construct, "--out", str(wfile)])
        if code != 0:
            raise RuntimeError(f"construct {name} exited {code}")
        argv = ["verify", str(wfile), "--out", str(out / "bundles" / f"{name}.json"),
                "--no-timestamp"]
        if window is not None:
            argv += ["--window", window, "--trunc", trunc]
        jobs.append((name, argv))
    # the seed fixes the order in which the weights are verified
    random.Random(seed).shuffle(jobs)
    return {"jobs": jobs}


def run_layer_deep(ctx: dict) -> dict:
    exits = {}
    for name, argv in ctx["jobs"]:
        exits[name], _ = _quiet_main(argv)
    return {"exits": exits}


# --------------------------------------------------------------------------
# classify: the regularity-criterion side (series, integrals, ratios)
# --------------------------------------------------------------------------

LINE_BUILTINS = ("poly2", "exp-abs", "poly2-exp", "poly2-exp-log", "poly2-exp-signed")
ORBIT_POINTS = 8
SERIES_TERMS = 1500
# the partial sums S_n kept for the checks (exact ones grow to kilobytes)
PARTIALS_KEPT = (1, 2, 3, 10, 50, *range(100, SERIES_TERMS + 1, 100))
BEURLING_CUTOFFS = (25.0, 50.0, 100.0, 200.0, 400.0)


def orbit_points(seed: int) -> list[Fraction]:
    """Seeded nonzero rational orbit generators, two of each sign."""
    rng = random.Random(seed)
    points = []
    for k in range(ORBIT_POINTS):
        value = Fraction(rng.randint(1, 12), rng.randint(1, 7))
        points.append(value if k % 2 == 0 else -value)
    return points


def expected_domar(name: str, x: Fraction) -> str:
    """Beurling-Domar verdict from the growth of each builtin family."""
    if name == "poly2":
        return "convergent"
    if name == "poly2-exp-signed":
        return "divergent" if x > 0 else "convergent"
    return "divergent"


def expected_beurling(name: str) -> str:
    return "finite" if name == "poly2" else "infinite"


def prepare_classify(seed: int, out: Path) -> dict:
    from convalg import builtin_weight
    from convalg.quadrature import QuadratureSpec

    return {
        "points": orbit_points(seed),
        "weights": {name: builtin_weight(name) for name in LINE_BUILTINS},
        "spec": QuadratureSpec(tol=1e-9),
        "bundle": out / "classify" / "certificates.json",
    }


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def run_classify(ctx: dict) -> dict:
    import convalg as ca
    from convalg.serialize import BUNDLE_SCHEMA

    spec = ctx["spec"]
    ops: list[dict] = []
    certs = []

    def attempt(op: dict, fn):
        try:
            op.update(fn())
        except Exception:  # an operation that raises counts as failed
            op["error"] = traceback.format_exc(limit=3)
        ops.append(op)

    for x in ctx["points"]:
        for name, w in ctx["weights"].items():
            def partial(w=w, x=x):
                partials = ca.domar_partial(w, x, SERIES_TERMS)
                return {"partials": {n: partials[n - 1] for n in PARTIALS_KEPT}}

            def classify(w=w, x=x, name=name):
                label, cert = ca.domar_classify(w, x)
                certs.append(cert.with_id(f"domar:{name}:{_fmt(x)}"))
                return {"label": label, "verdict": cert.verdict}

            attempt({"op": "domar_partial", "weight": name, "x": _fmt(x)}, partial)
            attempt({"op": "domar_classify", "weight": name, "x": _fmt(x)}, classify)

    for name, w in ctx["weights"].items():
        for cutoff in BEURLING_CUTOFFS:
            def beurling(w=w, name=name, cutoff=cutoff):
                res = ca.beurling_integral(w, cutoff=cutoff, spec=spec)
                certs.append(res.certificate.with_id(f"beurling:{name}:{cutoff}"))
                return {"lo": res.integral.lo, "hi": res.integral.hi,
                        "classification": res.classification}

            attempt({"op": "beurling", "weight": name, "cutoff": cutoff}, beurling)

    for op_name, fn in (("circle_conv_ratio", ca.circle_conv_ratio),
                        ("line_conv_ratio", ca.line_conv_ratio)):
        def ratio(fn=fn, op_name=op_name):
            res = fn(spec)
            certs.append(res.certificate.with_id(op_name))
            return {"lo": res.sup.lo, "hi": res.sup.hi, "verdict": res.certificate.verdict}

        attempt({"op": op_name}, ratio)

    def sigma_constant():
        iv = ca.sigma_subconvolutive_constant()
        return {"lo": iv.lo, "hi": iv.hi}

    attempt({"op": "sigma_constant"}, sigma_constant)

    seq_box: list = []

    def q_sequence():
        seq = ca.build_q_sequence(2)
        seq_box.append(seq)
        return {"terms": list(seq.terms)}

    attempt({"op": "build_q_sequence"}, q_sequence)
    for n in (1, 2):
        def frac(n=n):
            cert = ca.check_q_fractional_bound(seq_box[0], n)
            certs.append(cert.with_id(f"countex:frac{n}"))
            return {"verdict": cert.verdict, "payload": cert.payload}

        attempt({"op": "q_fractional_bound", "n": n}, frac)

    def divergence():
        cert = ca.countex_divergence_lower_bound(seq_box[0])
        certs.append(cert.with_id("countex:divergence"))
        return {"verdict": cert.verdict, "payload": cert.payload}

    attempt({"op": "countex_divergence"}, divergence)

    bundle = {"schema": BUNDLE_SCHEMA,
              "certificates": [ca.certificate_to_json(c) for c in certs]}
    ctx["bundle"].parent.mkdir(parents=True, exist_ok=True)
    ctx["bundle"].write_text(ca.canonical_dumps(bundle))
    return {"ops": ops}


WORKLOADS = {
    "report": (prepare_report, run_report),
    "layer-deep": (prepare_layer_deep, run_layer_deep),
    "classify": (prepare_classify, run_classify),
}
