"""Quick self-test of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Run from the root of a convalg checkout.  It confirms that the independent
computations in `checks.py` agree with brute force on small cases, that each
check passes on a real pass of its workload and flags a tampered copy of
that pass, and that the tracer sees calls made under every binding of a
function.  It takes about half a minute and is kept apart from the tier-1
tests under tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        FAILURES.append(label)


# --------------------------------------------------------------------------
# independent computations against brute force
# --------------------------------------------------------------------------

def brute_layer_conv(p: int, n: int, depth: int) -> Fraction:
    """sum over y in G_depth of u(y) u(x-y) for x = 1/p^n, plus the exact
    tail sum_(j>depth) |U_j| phi_j^2 (for y outside G_depth, y and x-y share
    a shell)."""
    def u(v: Fraction) -> Fraction:
        exp, den = 0, v.denominator
        while den % p == 0:
            den //= p
            exp += 1
        return Fraction(1, (2 * p) ** max(exp, 1))

    x = Fraction(1, p ** n)
    total = sum((u(Fraction(k, p ** depth)) * u((x - Fraction(k, p ** depth)) % 1)
                 for k in range(p ** depth)), Fraction(0))
    tail = sum((Fraction(p ** j - p ** (j - 1), (2 * p) ** (2 * j))
                for j in range(depth + 1, depth + 60)), Fraction(0))
    return total + tail


def test_independent_computations() -> None:
    import convalg as ca

    print("independent computations")
    expect(checks.shell_conv(2, 1) == Fraction(15, 112), "shell formula: (u*u)(0) = 15/112 at p = 2")
    for p, depth in ((2, 7), (3, 5), (5, 3)):
        for n in range(1, depth - 1):
            # the brute-force tail stops after 60 shells; the difference is
            # far below the (2p)^-2n scale of the values
            diff = abs(brute_layer_conv(p, n, depth) - checks.shell_conv(p, n))
            expect(diff < Fraction(1, 10 ** 30), f"shell formula = enumeration, p={p} n={n}")

    uq = ca.rationals_weight()
    wq = ca.scale_for_b(uq, 2 * uq.sub_constant * uq.mass())
    for q in (Fraction(0), Fraction(1, 2), Fraction(-7, 3)):
        t = 6
        brute = sum((wq.eval(uq.group.element(Fraction(k, t)))
                     * wq.eval(uq.group.element(q - Fraction(k, t)))
                     for k in range(-4 * t, 4 * t + 1)), Fraction(0))
        expect(checks.rationals_partial_sum(q, wq.scale, layer=3, ball=4) == brute,
               f"rationals partial sum = convalg-evaluated sum at q={q}")

    summands = []
    for p in (2, 3, 2):
        u = ca.pruefer_weight(p)
        summands.append(ca.scale_for_b(u, 2 * u.mass()))
    ws = ca.direct_sum_weight(tuple(summands))
    group = ws.group
    x = group.point({1: group.summand(1).element(1, 2), 2: group.summand(2).element(2, 1)})
    brute = Fraction(0)
    for a in range(4):
        for b in range(3):
            for c in range(4):
                y = group.point({1: group.summand(1).element(a, 2), 2: group.summand(2).element(b, 1),
                                 3: group.summand(3).element(c, 2)})
                brute += ws.eval(y) * ws.eval(ca.sub(x, y))
    mine = checks.sum_partial_sum({1: Fraction(1, 4), 2: Fraction(2, 3)}, (2, 3, 2),
                                  ws.alphas.values, ws.coeffs.eps1, ws.scale, depths=(2, 1, 2))
    expect(mine == brute, "direct-sum partial sum = convalg-evaluated sum")


# --------------------------------------------------------------------------
# each check passes on a real pass and flags a tampered copy
# --------------------------------------------------------------------------

def one_pass(workload: str, out: Path) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "7",
           "--out", str(out), "--t0", repr(time.monotonic())]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=150)


def tampered(src: Path, dst: Path, rel: str, edit) -> Path:
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(src, dst)
    path = dst / rel
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return dst


def cert(data: dict, cert_id: str) -> dict:
    return next(c for c in data["certificates"] if c["id"] == cert_id)


def _bump_ratio(data: dict) -> None:
    c = cert(data, "b:subconvolutive")
    c["payload"]["max_ratio"] = str(checks._frac(c["payload"]["max_ratio"]) + Fraction(1, 10 ** 9))


def _first_op(data: dict, **match) -> dict:
    return next(op for op in data["ops"] if all(op.get(k) == v for k, v in match.items()))


def _nudge_float_partial(data: dict) -> None:
    op = _first_op(data, op="domar_partial", weight="poly2-exp-log")
    op["partials"]["1500"] = repr(float(op["partials"]["1500"]) * (1 + 1e-7))


def _nudge_exact_partial(data: dict) -> None:
    op = _first_op(data, op="domar_partial", weight="exp-abs")
    op["partials"]["100"] = str(checks._frac(op["partials"]["100"]) + Fraction(1, 10 ** 12))


def _lift_beurling(data: dict) -> None:
    op = _first_op(data, op="beurling", weight="poly2-exp", cutoff=100.0)
    op["lo"] += 1e-6
    op["hi"] += 1e-6


def test_checks_flag_tampering() -> None:
    print("checks on real passes and tampered copies")
    base = ROOT / ".perfbench_runs" / f"selftest-{int(time.time())}"
    cases = {
        "report": [
            ("report/certificates.json",
             lambda d: cert(d, "euclidean:conv-ratio")["payload"].update(sup_hi=6.28),
             "line supremum below 2 pi"),
            ("report/certificates.json",
             lambda d: cert(d, "pruefer2:b")["payload"].update(max_ratio="1/2"),
             "pruefer2:b max_ratio off the shell formula"),
            ("report/certificates.json",
             lambda d: cert(d, "domar:poly2-exp").update(verdict="holds"),
             "divergent series reported as convergent"),
        ],
        "layer-deep": [
            ("bundles/pruefer3.json", _bump_ratio, "pruefer3 max_ratio off by 1e-9"),
            ("bundles/pruefer2-algebra.json",
             lambda d: cert(d, "d:ess-inf")["payload"].update(global_lower_bound=2.8),
             "algebra ess-inf bound off sqrt(8)"),
        ],
        "classify": [
            ("result.json", _nudge_float_partial, "float partial sum off by 1e-7 relative"),
            ("result.json", _nudge_exact_partial, "exact partial sum off |x| H_n"),
            ("result.json", _lift_beurling, "Beurling enclosure moved off the mpmath value"),
        ],
    }
    try:
        for workload, edits in cases.items():
            check_pass, check_run = checks.CHECKS[workload]
            real = base / workload
            one_pass(workload, real)
            attempted, failed, wrong, raised = check_pass(7, real)
            expect(attempted > 0 and failed == 0 and not wrong and not raised,
                   f"{workload}: a real pass checks clean ({attempted} operations)")
            expect(check_run(7, real) == [], f"{workload}: run-level checks hold")
            for k, (rel, edit, label) in enumerate(edits):
                copy = tampered(real, base / f"{workload}-t{k}", rel, edit)
                _, failed, wrong, _ = check_pass(7, copy)
                expect(failed == 1 and len(wrong) == 1, f"{workload}: flags {label}")
    finally:
        shutil.rmtree(base, ignore_errors=True)


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

def test_tracer_sees_every_binding() -> None:
    import convalg
    import convalg.cli
    from tracing import Tracer

    print("tracer")
    u = convalg.pruefer_weight(2)
    window = convalg.pruefer_ball_window(u.group, 2)
    tracer = Tracer()
    tracer.install(convalg)
    expect(convalg.check_b is convalg.certify.check_b is convalg.cli.check_b,
           "check_b wrapped once, under the package, certify and cli")
    convalg.cli.check_b(u, window, convalg.TruncationSpec(layer=4), bound=Fraction(2))
    convalg.certify.check_b(u, window, convalg.TruncationSpec(layer=4), bound=Fraction(2))
    m = tracer.metrics()
    expect(m["certify.check_b.points"] == 8, "both bindings traced (2 calls x 4 points)")
    expect(m["convolution.conv_at.calls"] == 8 and m["convolution.layer.distinct_ratio"] == 0.5,
           "conv_at calls and distinct (weight, point, truncation) ratio")
    expect(m["groups.subgroup_elements.points"] == 8 * 16, "enumerated points counted")
    expect(m["convolution.layer.self_s"] > 0 and m["groups.add.calls"] > 0,
           "self time and leaf counts recorded")


def main() -> int:
    test_independent_computations()
    test_checks_flag_tampering()
    test_tracer_sees_every_binding()
    if FAILURES:
        print(f"selftest: {len(FAILURES)} failed")
        return 1
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
