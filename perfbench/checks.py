"""Correctness checks made apart from convalg, run after the timed passes.

Each `check_<workload>(seed, pass_dir)` reads what one pass wrote and returns
`(attempted, failed, wrong, raised)`: the operations the pass attempted, how
many of them failed (raised, or disagreed with the expected verdict or with
the independent computation), a line per wrong output and a line per
operation that raised.  `check_run_<workload>`
makes the checks that need convalg calls of their own (enclosures at seeded
points); they run once per run and report problems only.

The independent computations:

* `shell_conv` -- (u*u)(x) on the p-power torsion circle for
  phi_n = (2p)^-n, from the shell count below, with the tail summed in closed
  form: no enumeration, no convalg code;
* brute-force partial sums of u(y) u(x-y) over a larger rationals ball, or
  over a product of small Pruefer subgroups, with the weights evaluated here;
* mpmath: the Beurling integrals, the criterion series in log space, the
  circle ratio sqrt(t) (pi + wrap(t)), 2 pi, and 1 + pi^4/45.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import workloads as W

# --------------------------------------------------------------------------
# Shell formula for the layer weights
# --------------------------------------------------------------------------


def shell_conv(p: int, n: int, scale: Fraction = Fraction(1)) -> Fraction:
    """(u*u)(x) for u = scale * (2p)^-layer on Z(p^inf), x in shell n >= 1.

    Shell 1 is G_1 (p points, the identity included); shell j >= 2 has
    p^j - p^(j-1) points.  For y in a lower shell j, x-y lies in shell n, and
    symmetrically, giving 2 |U_j| phi_j phi_n.  For y in shell n, x-y lies in
    a lower shell exactly when y is in x + G_(n-1), so |U_n| - |G_(n-1)|
    points pair shell n with itself.  For y in a higher shell j, x-y is in
    shell j.  The higher shells sum in closed form:
    sum_(j>n) (1 - 1/p) (4p)^-j = (1 - 1/p) (4p)^-n / (4p - 1).
    """
    def phi(j: int) -> Fraction:
        return Fraction(1, (2 * p) ** j)

    def shell(j: int) -> int:
        return p if j == 1 else p ** j - p ** (j - 1)

    below = p ** (n - 1) if n > 1 else 0
    total = sum((2 * shell(j) * phi(j) * phi(n) for j in range(1, n)), Fraction(0))
    total += (shell(n) - below) * phi(n) ** 2
    total += (1 - Fraction(1, p)) * Fraction(1, (4 * p) ** n) / (4 * p - 1)
    return scale * scale * total


def shell_max_ratio(p: int, layers: int, scale: Fraction, bound: Fraction) -> Fraction:
    """max over the window G_layers of (u*u)(x) / (bound * u(x))."""
    return max(shell_conv(p, n, scale) / (bound * scale * Fraction(1, (2 * p) ** n))
               for n in range(1, layers + 1))


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


def _frac(text) -> Fraction:
    num, den = str(text).split("/")
    return Fraction(int(num), int(den))


def _load(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def _certs(bundle) -> dict:
    return {c["id"]: c for c in (bundle or {}).get("certificates", [])}


@lru_cache(maxsize=None)
def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def _encloses_two_pi(payload: dict) -> bool:
    mp = _mp()
    return mp.mpf(payload["sup_lo"]) <= 2 * mp.pi <= mp.mpf(payload["sup_hi"])


def _wrap(t):
    """int_t^1 s^(-1/2) (1+t-s)^(-1/2) ds: with s = (1+t) sin^2 theta the
    integrand becomes 2 d theta."""
    mp = _mp()
    c = 1 + t
    return 2 * (mp.asin(mp.sqrt(1 / c)) - mp.asin(mp.sqrt(t / c)))


@lru_cache(maxsize=None)
def circle_ratio_grid_max(resolution: int = 2048):
    """mpmath maximum of sqrt(t) (pi + wrap(t)) over t = k/resolution.

    The grid holds every point of convalg's default 1/128 grid, so its
    maximum bounds the certified lower end from above as well."""
    mp = _mp()
    best = mp.mpf(0)
    for k in range(1, resolution):
        t = mp.mpf(k) / resolution
        best = max(best, mp.sqrt(t) * (mp.pi + _wrap(t)))
    return best


def _circle_ratio_ok(lo, hi) -> bool:
    mp = _mp()
    best = circle_ratio_grid_max()
    return mp.mpf(lo) <= best * (1 + mp.mpf("1e-12")) and mp.mpf(hi) >= best


@lru_cache(maxsize=None)
def _wrap_matches_quadrature(t: Fraction) -> bool:
    mp = _mp()
    tt = mp.mpf(t.numerator) / t.denominator
    quad = mp.quad(lambda s: 1 / (mp.sqrt(s) * mp.sqrt(1 + tt - s)), [tt, 1])
    return abs(quad - _wrap(tt)) < mp.mpf("1e-20")


def _countex_ok(cert_id: str, cert: dict) -> bool:
    """{q_1 alpha} = 1/110 + 2 * (tail beyond 1/220) lies in [1/110, 1/55)
    and below e^-4; the second fraction is certified structurally."""
    payload = cert["payload"]
    if cert_id.endswith("frac1"):
        lo, hi = _frac(payload["fractional_part_lo"]), _frac(payload["fractional_part_hi"])
        mp = _mp()
        return (payload["q"] == 2 and lo <= Fraction(1, 110) < hi < Fraction(1, 55)
                and mp.mpf(hi.numerator) / hi.denominator < mp.exp(-4))
    if cert_id.endswith("frac2"):
        return payload["q"] == 220 and payload["mode"] == "structural"
    return ([t["q"] for t in payload["terms"]] == [2, 220]
            and payload["verified_partial_sum_lower"] == "1/2")


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

REPORT_FILES = ("certificates.json", "summary.csv", "domar.csv")
_DOMAR_LABEL = {"poly2": "convergent", "poly2-exp": "divergent", "poly2-exp-log": "divergent"}


def _report_cert_ok(cert_id: str, cert: dict, domar_rows: dict) -> bool:
    if cert["verdict"] != W.REPORT_EXPECTED[cert_id]:
        return False
    payload = cert["payload"]
    if cert_id == "pruefer2:b":
        # u = pruefer_weight(2) / 2, checked against bound 1 on G4
        want = shell_max_ratio(2, 4, Fraction(1, 2), Fraction(1))
        return payload["bound"] == "1/1" and _frac(payload["max_ratio"]) == want
    if cert_id == "euclidean:conv-ratio":
        return _encloses_two_pi(payload)
    if cert_id == "countex:conv-ratio":
        return _circle_ratio_ok(payload["sup_lo"], payload["sup_hi"])
    if cert_id.startswith("countex:"):
        return _countex_ok(cert_id, cert)
    if cert_id.startswith("domar:"):
        return domar_rows.get(cert_id[6:]) == _DOMAR_LABEL[cert_id[6:]]
    return True


def check_report(seed: int, pass_dir: Path) -> tuple[int, int, list[str], list[str]]:
    attempted = len(W.REPORT_EXPECTED)
    result = _load(pass_dir / "result.json")
    if result is None:
        return attempted, attempted, [], ["report raised; every certificate counts as failed"]
    problems = []
    if result["exit"] != 0:
        problems.append(f"report exited {result['exit']}")
    certs = _certs(_load(pass_dir / "report" / "certificates.json"))
    domar_csv = pass_dir / "report" / "domar.csv"
    domar_rows = {}
    if domar_csv.is_file():
        for line in domar_csv.read_text().splitlines()[1:]:
            name, label, _ = line.split(",")
            domar_rows[name] = label
    failed = 0
    for cert_id in W.REPORT_EXPECTED:
        cert = certs.get(cert_id)
        if cert is None or not _report_cert_ok(cert_id, cert, domar_rows):
            failed += 1
            problems.append(f"certificate {cert_id}: missing or wrong")
    if set(certs) - set(W.REPORT_EXPECTED):
        problems.append(f"unexpected certificates {sorted(set(certs) - set(W.REPORT_EXPECTED))}")
    return attempted, failed, problems, []


def _rationals_value(k: int, t: int, scale: Fraction) -> Fraction:
    """u(k/t) = scale * phi_n * sigma(floor|k/t|) with phi_n = 1/(n! 2^n) and
    n the first index whose n! the reduced denominator divides."""
    q = Fraction(k, t)
    n = 1
    while math.factorial(n) % q.denominator:
        n += 1
    whole = abs(q.numerator) // q.denominator
    return scale * Fraction(1, math.factorial(n) * 2 ** n) / max(1, whole) ** 2


def rationals_partial_sum(q: Fraction, scale: Fraction, layer: int = 6, ball: int = 14) -> Fraction:
    """sum of u(r) u(q-r) over r in (1/layer!)Z with |r| <= ball."""
    t = math.factorial(layer)
    m = q * t
    if m.denominator != 1:
        raise ValueError("q must lie in the summed subgroup")
    m = int(m)
    span = ball * t + abs(m)
    values = {j: _rationals_value(j, t, scale) for j in range(-span, span + 1)}
    return sum((values[k] * values[m - k] for k in range(-ball * t, ball * t + 1)), Fraction(0))


def sum_partial_sum(point_coords: dict, primes: tuple, alphas: tuple, eps1: Fraction,
                    scale: Fraction, depths: tuple) -> Fraction:
    """sum of u(y) u(x-y) over y in G_(depths[0]) x G_(depths[1]) x ... for
    the direct-sum weight u(x) = scale * a_s * prod_(j in s) alpha_j u_j(x_j),
    a_s = eps1 / sum_(j in s) j!, u_j = (2p_j)^-layer / 2, s = support of x."""
    def coeff(support: frozenset) -> Fraction:
        return eps1 if not support else eps1 / sum(math.factorial(j) for j in support)

    def layer_value(p: int, v: Fraction) -> Fraction:
        exp = 0
        den = v.denominator
        while den % p == 0:
            den //= p
            exp += 1
        return Fraction(1, 2 * (2 * p) ** max(exp, 1))

    # per coordinate: (y_j nonzero, factor at y_j, (x-y)_j nonzero, factor at (x-y)_j)
    per_coord = []
    for j, (p, depth) in enumerate(zip(primes, depths), start=1):
        xj = point_coords.get(j, Fraction(0))
        options = []
        for k in range(p ** depth):
            yj = Fraction(k, p ** depth)
            dj = (xj - yj) % 1
            options.append((yj != 0, alphas[j - 1] * layer_value(p, yj) if yj else 1,
                            dj != 0, alphas[j - 1] * layer_value(p, dj) if dj else 1))
        per_coord.append(options)

    total = Fraction(0)
    count = len(primes)

    def walk(j: int, sy: frozenset, fy: Fraction, sd: frozenset, fd: Fraction) -> None:
        nonlocal total
        if j == count:
            total += coeff(sy) * fy * coeff(sd) * fd
            return
        for ny, vy, nd, vd in per_coord[j]:
            walk(j + 1, sy | {j + 1} if ny else sy, fy * vy,
                 sd | {j + 1} if nd else sd, fd * vd)

    walk(0, frozenset(), Fraction(1), frozenset(), Fraction(1))
    return scale * scale * total


def check_run_report(seed: int, pass_dir: Path) -> list[str]:
    """Enclosures at seeded points against partial sums made here, and the
    m = 0 ratio of the sigma constant against 1 + pi^4/45."""
    import convalg as ca

    problems = []
    mp = _mp()
    ratio0 = ca.sigma_conv_ratio(0)
    target = 1 + mp.pi ** 4 / 45
    if not (mp.mpf(ratio0.lo.numerator) / ratio0.lo.denominator <= target
            <= mp.mpf(ratio0.hi.numerator) / ratio0.hi.denominator):
        problems.append("sigma_conv_ratio(0) does not enclose 1 + pi^4/45")

    rng = random.Random(seed)
    uq = ca.rationals_weight()
    wq = ca.scale_for_b(uq, 2 * uq.sub_constant * uq.mass())
    qwindow = ca.rationals_ball_window(uq.group, 3, 3)
    for x in rng.sample(qwindow.points, 2):
        hi = ca.conv_at(wq, x, ca.TruncationSpec(layer=5, ball=12)).hi
        if rationals_partial_sum(x.value, wq.scale) > hi:
            problems.append(f"rationals partial sum above conv_at upper end at {x.value}")

    summands = []
    for p in (2, 3, 2):
        u = ca.pruefer_weight(p)
        summands.append(ca.scale_for_b(u, 2 * u.mass()))
    ws = ca.direct_sum_weight(tuple(summands))
    swindow = ca.sum_sample_window(ws.group, 200, seed=seed)
    for x in rng.sample(swindow.points, 3):
        hi = ca.conv_at(ws, x, ca.TruncationSpec(per_summand=(6, 6, 6))).hi
        coords = {j: pt.value() for j, pt in x.coords}
        partial = sum_partial_sum(coords, (2, 3, 2), ws.alphas.values, ws.coeffs.eps1,
                                  ws.scale, depths=(4, 3, 4))
        if partial > hi:
            problems.append(f"sum partial sum above conv_at upper end at {coords}")
    return problems


# --------------------------------------------------------------------------
# layer-deep
# --------------------------------------------------------------------------

# name -> (p, window layers, scale, bound of the b-check)
LAYER_FACTS = {
    "pruefer2-raw": (2, 5, Fraction(1), Fraction(2)),
    "pruefer3": (3, 2, Fraction(1, 2), Fraction(1)),
    "pruefer5": (5, 1, Fraction(1, 2), Fraction(1)),
}
_ALGEBRA_IDS = ("a:positivity", "b:submultiplicative", "c:evenness", "d:ess-inf")
_LAYER_IDS = ("a:positivity", "b:subconvolutive", "c:evenness", "d:poly-decay")


def _layer_cert_ok(name: str, cert_id: str, cert: dict) -> bool:
    if cert["verdict"] != "holds":
        return False
    payload = cert["payload"]
    if name == "pruefer2-algebra":
        if cert_id == "b:submultiplicative":
            # every ordered pair of the 16-point G4 window, compared exactly
            return payload["pairs_checked"] == 256 and payload["exact_comparison"] is True
        if cert_id == "d:ess-inf":
            # w = u^(-1/2) with max u = (1/2)(1/4): the bound is sqrt(8)
            return math.isclose(payload["global_lower_bound"], math.sqrt(8), rel_tol=1e-12)
        return True
    p, layers, scale, bound = LAYER_FACTS[name]
    if cert_id == "b:subconvolutive":
        return (_frac(payload["bound"]) == bound
                and _frac(payload["max_ratio"]) == shell_max_ratio(p, layers, scale, bound))
    if cert_id == "d:poly-decay":
        # the orbit of 1/p stays in shell 1, where u = scale / (2p)
        return _frac(payload["constant"]) == 2 * p / scale and payload["degree"] == 0
    return True


def check_layer_deep(seed: int, pass_dir: Path) -> tuple[int, int, list[str], list[str]]:
    attempted = len(W.LAYER_JOBS) * len(W.LAYER_CERTS)
    result = _load(pass_dir / "result.json")
    if result is None:
        return attempted, attempted, [], ["layer-deep raised; every certificate counts as failed"]
    failed = 0
    problems = []
    for name, *_ in W.LAYER_JOBS:
        if result["exits"].get(name) != 0:
            problems.append(f"verify {name} exited {result['exits'].get(name)}")
        certs = _certs(_load(pass_dir / "bundles" / f"{name}.json"))
        ids = _ALGEBRA_IDS if name == "pruefer2-algebra" else _LAYER_IDS
        for cert_id in ids:
            cert = certs.get(cert_id)
            if cert is None or not _layer_cert_ok(name, cert_id, cert):
                failed += 1
                problems.append(f"{name} {cert_id}: missing or wrong")
    return attempted, failed, problems, []


def check_run_layer_deep(seed: int, pass_dir: Path) -> list[str]:
    """conv_at upper ends equal the shell formula: (u*u)(0) = 15/112 for the
    raw p = 2 weight, and one seeded point per weight file."""
    import convalg as ca

    problems = []
    if shell_conv(2, 1) != Fraction(15, 112):
        problems.append("shell formula does not give 15/112")
    rng = random.Random(seed)
    for name, _, _, trunc in W.LAYER_JOBS:
        if name not in LAYER_FACTS:
            continue
        p, layers, scale, _ = LAYER_FACTS[name]
        prov = json.loads((pass_dir / "weights" / f"{name}.json").read_text())
        w = ca.weight_from_provenance(prov)
        spec = ca.TruncationSpec(layer=int(trunc[1:]))
        points = [w.group.identity()] if name == "pruefer2-raw" else []
        points.append(w.group.element(rng.randrange(1, p ** layers), layers))
        for x in points:
            iv = ca.conv_at(w, x, spec)
            exact = shell_conv(p, ca.layer_of(x), scale)
            if not (iv.lo <= exact == iv.hi):
                problems.append(f"{name}: conv_at at {x.value()} is not the shell value {exact}")
    return problems


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------


def _log_weight(name: str, t):
    """log w(t) in mpmath, from the builtin definitions."""
    mp = _mp()
    a = abs(t)
    base = mp.log(1 + t * t)
    if name == "poly2":
        return base
    if name == "exp-abs":
        return a
    if name == "poly2-exp":
        return base + a
    if name == "poly2-exp-log":
        return base + a / mp.log(mp.e + a)
    if name == "poly2-exp-signed":
        return base + t
    raise ValueError(name)


@lru_cache(maxsize=None)
def beurling_reference(name: str, cutoff: float):
    """int_(-T)^T log+ w(t) / (1+t^2) dt in mpmath.

    All five weights have w(t) = w(-t) except poly2-exp-signed, whose log on
    t < 0 is log(1+t^2) + t <= 0 (log(1+t^2) <= |t|), so there log+ is 0."""
    mp = _mp()
    edges = [mp.mpf(0)] + [mp.mpf(2) ** k for k in range(-2, 20) if 2 ** k < cutoff] + [mp.mpf(cutoff)]
    half = mp.quad(lambda t: max(0, _log_weight(name, t)) / (1 + t * t), edges)
    return half if name == "poly2-exp-signed" else 2 * half


@lru_cache(maxsize=None)
def series_reference(name: str, x: Fraction) -> dict:
    """Partial sums of sum_n log+ w(nx)/n^2 at the kept indices, in mpmath."""
    mp = _mp()
    xx = mp.mpf(x.numerator) / x.denominator
    total = mp.mpf(0)
    out = {}
    for n in range(1, W.SERIES_TERMS + 1):
        total += max(0, _log_weight(name, n * xx)) / (n * n)
        if n in W.PARTIALS_KEPT:
            out[n] = total
    return out


def _partials_ok(name: str, x: Fraction, partials: dict) -> bool:
    if name == "exp-abs":
        # log+ e^|nx| / n^2 = |x| / n, so S_n = |x| H_n exactly
        harmonic = Fraction(0)
        for n in range(1, W.SERIES_TERMS + 1):
            harmonic += Fraction(1, n)
            if n in W.PARTIALS_KEPT and _frac(partials[str(n)]) != abs(x) * harmonic:
                return False
        return True
    mp = _mp()
    ref = series_reference(name, x)
    return all(abs(mp.mpf(partials[str(n)]) - ref[n]) <= mp.mpf("1e-10") * max(1, abs(ref[n]))
               for n in W.PARTIALS_KEPT)


@lru_cache(maxsize=None)
def sigma_ratio_reference(m: int):
    """sum_n sigma(n) sigma(m-n) / sigma(m) in mpmath, sigma(n) = 1/max(1,|n|)^2."""
    mp = _mp()

    def sigma(n):
        return mp.mpf(1) / max(1, abs(n)) ** 2

    k = 2 * m + 4
    head = mp.fsum(sigma(n) * sigma(m - n) for n in range(-k, k + 1))
    tail = (mp.nsum(lambda n: 1 / (n * n * (n - m) ** 2), [k + 1, mp.inf])
            + mp.nsum(lambda n: 1 / (n * n * (n + m) ** 2), [k + 1, mp.inf]))
    return (head + tail) / sigma(m)


def _classify_op_ok(op: dict, seed: int) -> bool:
    mp = _mp()
    kind = op["op"]
    if kind == "domar_partial":
        return _partials_ok(op["weight"], _frac(op["x"]), op["partials"])
    if kind == "domar_classify":
        label = W.expected_domar(op["weight"], _frac(op["x"]))
        verdict = "holds" if label == "convergent" else "fails"
        return op["label"] == label and op["verdict"] == verdict
    if kind == "beurling":
        ref = beurling_reference(op["weight"], op["cutoff"])
        return (op["classification"] == W.expected_beurling(op["weight"])
                and mp.mpf(op["lo"]) <= ref <= mp.mpf(op["hi"]))
    if kind == "circle_conv_ratio":
        t = Fraction(random.Random(seed).randint(1, 999), 1000)
        return (op["verdict"] == "holds" and _wrap_matches_quadrature(t)
                and _circle_ratio_ok(op["lo"], op["hi"]))
    if kind == "line_conv_ratio":
        return op["verdict"] == "holds" and _encloses_two_pi({"sup_lo": op["lo"], "sup_hi": op["hi"]})
    if kind == "sigma_constant":
        lo, hi = _frac(op["lo"]), _frac(op["hi"])
        lo_mp = mp.mpf(lo.numerator) / lo.denominator
        hi_mp = mp.mpf(hi.numerator) / hi.denominator
        return (lo <= hi and lo_mp >= sigma_ratio_reference(0) - mp.mpf("1e-6")
                and all(hi_mp >= sigma_ratio_reference(m) for m in range(4)))
    if kind == "build_q_sequence":
        return op["terms"] == [2, 220]
    if kind == "q_fractional_bound":
        return op["verdict"] == "holds" and _countex_ok(f"frac{op['n']}", op)
    if kind == "countex_divergence":
        return op["verdict"] == "holds" and _countex_ok("divergence", op)
    raise ValueError(f"unknown operation {kind!r}")


def classify_attempted() -> int:
    # series and classification per point and builtin, Beurling integrals,
    # two ratios, the sigma constant, the q sequence, two fractional bounds
    # and the divergence bound
    return (W.ORBIT_POINTS * len(W.LINE_BUILTINS) * 2
            + len(W.LINE_BUILTINS) * len(W.BEURLING_CUTOFFS) + 2 + 1 + 1 + 2 + 1)


def check_classify(seed: int, pass_dir: Path) -> tuple[int, int, list[str], list[str]]:
    attempted = classify_attempted()
    result = _load(pass_dir / "result.json")
    if result is None:
        return attempted, attempted, [], ["classify raised; every operation counts as failed"]
    wrong, raised = [], []
    if len(result["ops"]) != attempted:
        wrong.append(f"{len(result['ops'])} operations recorded, {attempted} expected")
    passed = 0
    for op in result["ops"]:
        label = {k: v for k, v in op.items() if k in ("op", "weight", "x", "cutoff", "n")}
        if "error" in op:
            raised.append(f"operation {label} raised:\n{op['error']}")
        elif not _classify_op_ok(op, seed):
            wrong.append(f"operation {label}: wrong output")
        else:
            passed += 1
    return attempted, attempted - passed, wrong, raised


CHECKS = {
    "report": (check_report, check_run_report),
    "layer-deep": (check_layer_deep, check_run_layer_deep),
    "classify": (check_classify, lambda seed, pass_dir: []),
}

# what each workload writes; passes of one run must write identical bytes
OUTPUTS = {
    "report": tuple(f"report/{name}" for name in REPORT_FILES),
    "layer-deep": tuple(f"bundles/{name}.json" for name, *_ in W.LAYER_JOBS),
    "classify": ("classify/certificates.json",),
}
