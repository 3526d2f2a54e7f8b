"""Command-line front end.

Subcommands: construct, verify, domar, beurling, countex, equivalence, report.
Outputs are versioned JSON (weight provenance, certificate bundles) and CSV
series tables.  Exit codes: 0 all certificates hold, 1 a certificate fails,
2 invalid parameters or a path that cannot be read or written, 3
inconclusive results, 4 an internal error.  All
sampling is seeded and the seed is recorded; rerunning a command reproduces
byte-identical files apart from the optional timestamp field (suppress it
with --no-timestamp).

The parser is built once per process and shared by every `main` call; each
call dispatches on the command name to the `cmd_*` function of that name,
looked up when the command runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import groups as G
from .certificates import FAILS, INCONCLUSIVE, Certificate, TruncationSpec, Window
from .certify import (
    check_b,
    check_evenness,
    check_poly_decay,
    check_positivity,
    ess_inf_check,
    check_submultiplicative,
    line_grid_window,
    pruefer_ball_window,
    rationals_ball_window,
    sum_sample_window,
    weight_equivalence,
)
from .domar import domar_classify, domar_partial
from .formulas import BUILTIN_NAMES, builtin_weight
from .quadrature import (
    beurling_integral,
    beurling_panels,
    circle_conv_ratio,
    line_conv_ratio,
)
from .rational import format_rational, parse_rational
from .sequences import (
    build_q_sequence,
    check_q_fractional_bound,
    countex_divergence_lower_bound,
    q_fractional_interval,
)
from .serialize import (
    BUNDLE_SCHEMA,
    canonical_dumps,
    certificate_to_json,
    weight_from_provenance,
    weight_to_provenance,
)
from .weights import (
    AlgebraWeight,
    algebra_weight,
    direct_sum_weight,
    nested_finite_weight,
    pruefer_weight,
    rationals_weight,
    scale_for_b,
)

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _exit_for(verdicts: list[str]) -> int:
    if FAILS in verdicts:
        return EXIT_FAILS
    if INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _print_table(certs) -> None:
    width = max(len(c.prop) for c in certs) + 2
    for c in certs:
        note = ""
        if c.verdict == FAILS and c.witness is not None:
            note = f"witness={c.witness}"
        elif c.verdict == INCONCLUSIVE:
            note = c.payload.get("note", "")
        print(f"  {c.prop:<{width}} {c.verdict:<14} {note}")


def _write_bundle(path: Path, weight_prov: dict | None, certs, timestamp: bool) -> None:
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "certificates": [certificate_to_json(c) for c in certs],
    }
    if weight_prov is not None:
        bundle["weight"] = weight_prov
    if timestamp:
        bundle["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_dumps(bundle))


# --------------------------------------------------------------------------
# construct
# --------------------------------------------------------------------------

def _build_weight(args) -> tuple:
    """Returns (weight, mass_note)."""
    spec = args.group
    if args.summands is not None and spec != "sum":
        raise ValueError("--summands applies to --group sum only")
    if args.phi == "broken" and not spec.startswith("pruefer:"):
        raise ValueError("--phi broken applies to --group pruefer:P only")
    if spec.startswith("pruefer:"):
        p = int(spec.split(":", 1)[1])
        if args.phi == "broken":
            w = nested_finite_weight(G.PrueferGroup(p), Fraction(2 * p))
            return w, "uncertified (negative control)"
        u = pruefer_weight(p)
    elif spec == "rationals":
        u = rationals_weight()
    elif spec == "sum":
        if args.raw:
            raise ValueError("--raw does not apply to --group sum")
        if not args.summands:
            raise ValueError("--summands is required for --group sum")
        summands = []
        for part in args.summands.split(","):
            if not part.startswith("pruefer:"):
                raise ValueError(f"unsupported summand {part!r}")
            u = pruefer_weight(int(part.split(":", 1)[1]))
            summands.append(scale_for_b(u, u.b_bound))
        return direct_sum_weight(tuple(summands)), "1 (per-summand, after rescale)"
    else:
        raise ValueError(f"unknown group spec {spec!r}")
    return (u if args.raw else scale_for_b(u, u.b_bound)), format_rational(u.mass())


def cmd_construct(args) -> int:
    try:
        w, mass_note = _build_weight(args)
        if args.p is not None:
            w = algebra_weight(w, parse_rational(args.p))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    prov = weight_to_provenance(w)
    out = Path(args.out) if args.out else Path("weight.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_dumps(prov))
    print(f"construction: {w.construction}")
    print(f"mass:         {mass_note}")
    print(f"scale:        {prov['scale']}")
    print(f"exact:        {w.exact}")
    print(f"wrote {out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

# the default --window of each group variant
_DEFAULT_WINDOWS = {"pruefer": "G4", "rationals": "Q3:3", "sum": "sample:200:{seed}"}


def _decay_point(group: G.GroupDescriptor):
    """The decay point of the d suite: 1/p on a Pruefer group, 1/2 on the
    rationals, and on a direct sum summand 1's decay point in coordinate 1."""
    if isinstance(group, G.SumGroup):
        return group.point({1: _decay_point(group.summand(1))})
    if isinstance(group, G.PrueferGroup):
        return group.element(1, 1)
    return group.element(Fraction(1, 2))


def _suite_defaults(w, spec: str | None = None, seed: int = 0) -> tuple[Window, object]:
    """The window named by spec, else the default window of the weight's group,
    and the group's decay point (its truncation is `w.trunc_default()`); an
    algebra weight lives on its base weight's group.  Only one window is built."""
    default = _DEFAULT_WINDOWS.get(getattr(w.descriptor, "variant", None))
    if default is None:
        raise ValueError("verify supports the layer, rationals, direct-sum and "
                         "algebra constructions")
    return _parse_window(w, spec or default.format(seed=seed)), _decay_point(w.descriptor)


def _run_suites(w, letters, window: Window, trunc: TruncationSpec, decay_x,
                bound=None) -> list[tuple[str, Certificate]]:
    """Run the suites named by letters: a positivity, b subconvolutivity, c
    evenness, d polynomial decay.  For an algebra weight w = u^(-1/q), b is
    submultiplicativity (checked exactly through u) and d the ess-inf check.
    The b bound defaults to the weight's certified one, at least 1."""
    if bound is None:
        b = w.b_bound
        bound = b if b is not None and b > 1 else Fraction(1)
    algebra = isinstance(w, AlgebraWeight)
    results = []
    for letter in letters:
        letter = letter.strip()
        if letter == "a":
            cert = check_positivity(w, window)
        elif letter == "b":
            cert = (check_submultiplicative(w, window=window) if algebra
                    else check_b(w, window, trunc, bound=bound))
        elif letter == "c":
            cert = check_evenness(w, window)
        elif letter == "d":
            cert = ess_inf_check(w, window) if algebra else check_poly_decay(w, decay_x, 12)
        else:
            raise ValueError(f"unknown suite {letter!r}")
        results.append((letter, cert))
    return results


def _parse_window(w, spec: str) -> Window:
    # an algebra weight lives on its base weight's group: read it off the descriptor
    group = w.descriptor
    if spec.startswith("G"):
        _require_group(group, G.PrueferGroup, spec)
        return pruefer_ball_window(group, int(spec[1:]))
    if spec.startswith("Q"):
        _require_group(group, G.RationalsGroup, spec)
        layer, radius = spec[1:].split(":")
        return rationals_ball_window(group, int(layer), int(radius))
    if spec.startswith("sample:"):
        _require_group(group, G.SumGroup, spec)
        parts = spec.split(":")
        if len(parts) > 4:
            raise ValueError(f"window {spec!r} has parts beyond sample:SIZE:SEED:CAP")
        size = int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        cap = int(parts[3]) if len(parts) > 3 else 4
        return sum_sample_window(group, size, seed=seed, layer_cap=cap)
    raise ValueError(f"cannot parse window spec {spec!r}")


def _require_group(group, kind: type, spec: str) -> None:
    if not isinstance(group, kind):
        raise ValueError(f"window {spec!r} does not fit a weight on the {group.variant} group")


def _parse_trunc(spec: str) -> TruncationSpec:
    fields: dict = {}
    for part in spec.split(","):
        part = part.strip()
        name = {"N": "layer", "B": "ball", "L": "per_summand"}.get(part[:1])
        if name is None:
            raise ValueError(f"cannot parse truncation part {part!r}")
        if name in fields:
            raise ValueError(f"truncation {spec!r} repeats its {part[:1]} part")
        fields[name] = tuple(map(int, part[1:].split("/"))) if name == "per_summand" else int(part[1:])
    return TruncationSpec(**fields)


def cmd_verify(args) -> int:
    try:
        prov = json.loads(Path(args.weight).read_text())
        w = weight_from_provenance(prov)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser's recursion limit
        print(f"error: cannot load weight: {exc}", file=sys.stderr)
        return EXIT_USAGE
    letters = "abcd" if args.suite == "all" else args.suite.split(",")
    try:
        window, decay_x = _suite_defaults(w, args.window)
        trunc = w.trunc_default()
        if args.trunc:
            parsed = _parse_trunc(args.trunc)
            # the default sets exactly the parts the weight reads
            unread = [k for k in parsed.describe() if k not in trunc.describe()]
            if unread:
                raise ValueError(f"{w.construction} weights do not read {', '.join(unread)} "
                                 f"of the truncation {args.trunc!r}")
            trunc = parsed
        bound = parse_rational(args.bound) if args.bound is not None else None
        certs = [cert.with_id(f"{letter}:{cert.prop}")
                 for letter, cert in _run_suites(w, letters, window, trunc, decay_x, bound)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"verified {w.construction} weight on window {window.name} ({len(window)} points)")
    _print_table(certs)
    if args.out:
        _write_bundle(Path(args.out), prov, certs, timestamp=not args.no_timestamp)
        print(f"wrote {args.out}")
    return _exit_for([c.verdict for c in certs])


# --------------------------------------------------------------------------
# domar / beurling
# --------------------------------------------------------------------------

def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _load_builtin(spec: str):
    if not spec.startswith("builtin:"):
        raise ValueError("expected --weight builtin:NAME")
    name = spec.split(":", 1)[1]
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return builtin_weight(name)


def cmd_domar(args) -> int:
    try:
        w = _load_builtin(args.weight)
        x = parse_rational(args.x)
        partials = domar_partial(w, x, args.N)
        label, cert = domar_classify(w, x)
        rows = []
        for n, s in enumerate(partials, start=1):
            value = format_rational(s) if isinstance(s, Fraction) else repr(float(s))
            rows.append({"n": n, "partial_sum": value,
                         "partial_sum_float": float(s)})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.csv:
        path = Path(args.csv)
        _write_csv(path, ["n", "partial_sum", "partial_sum_float"], rows)
        print(f"wrote {path}")
    else:
        print("n,partial_sum,partial_sum_float")
        for row in rows:
            print(f"{row['n']},{row['partial_sum']},{row['partial_sum_float']}")
    print(f"classification: {label.capitalize()}")
    return EXIT_OK


def cmd_beurling(args) -> int:
    rows = []
    try:
        w = _load_builtin(args.weight)
        beurling_panels(args.T)  # the largest cutoff: refuse it before any integral
        for cutoff in (args.T / 4, args.T / 2, args.T):
            res = beurling_integral(w, cutoff=cutoff)
            rows.append({"cutoff": cutoff, "integral_lo": res.integral.lo,
                         "integral_hi": res.integral.hi})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.csv:
        path = Path(args.csv)
        _write_csv(path, ["cutoff", "integral_lo", "integral_hi"], rows)
        print(f"wrote {path}")
    else:
        print("cutoff,integral_lo,integral_hi")
        for row in rows:
            print(f"{row['cutoff']},{row['integral_lo']},{row['integral_hi']}")
    print(f"classification: {res.classification}")
    return EXIT_OK


# --------------------------------------------------------------------------
# countex / equivalence / report
# --------------------------------------------------------------------------

def cmd_countex(args) -> int:
    try:
        seq = build_q_sequence(args.depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"q sequence (depth {args.depth}): {list(seq.terms)}"
          f" + next term > 2^{seq.next_lower.bit_length() - 1}")
    certs = []
    for n in range(1, len(seq.terms) + 1):
        cert = check_q_fractional_bound(seq, n)
        certs.append(cert)
        iv = q_fractional_interval(seq, n)
        lo = format_rational(iv.lo)
        print(f"  {{q_{n} alpha}}: lo {lo}, certified < 2q_{n}/q_{n+1} and < e^-{seq.terms[n-1]**2} "
              f"({cert.payload['mode']})")
    div = countex_divergence_lower_bound(seq)
    certs.append(div)
    print(f"  per-term divergence bounds >= 1/4; verified partial sum >= "
          f"{div.payload['verified_partial_sum_lower']}")
    ratio = circle_conv_ratio()
    certs.append(ratio.certificate)
    print(f"  circle conv ratio sup M in [{ratio.sup.lo:.6f}, {ratio.sup.hi:.6f}] (finite)")
    if args.out:
        _write_bundle(Path(args.out), None, certs, timestamp=not args.no_timestamp)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_equivalence(args) -> int:
    try:
        w1 = _load_builtin(args.weight1)
        w2 = _load_builtin(args.weight2)
        lo, hi, step = (parse_rational(v) for v in args.grid.split(":"))
        window = line_grid_window(lo, hi, step)
        cert = weight_equivalence(w1, w2, window)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"window {window.name}: C1 = {cert.payload['c1']}, C2 = {cert.payload['c2']}")
    if args.out:
        _write_bundle(Path(args.out), None, [cert], timestamp=not args.no_timestamp)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    certs = []

    u2, uq = pruefer_weight(2), rationals_weight()
    w2 = scale_for_b(u2, u2.b_bound)
    summands = tuple(scale_for_b(u, u.b_bound) for u in map(pruefer_weight, (2, 3, 2)))
    suites = (
        ("pruefer2", w2, "abcd"),
        ("pruefer2", algebra_weight(w2, 2), "d"),
        ("rationals", scale_for_b(uq, uq.b_bound), "abcd"),
        ("sum", direct_sum_weight(summands), "abc"),
    )
    for name, w, letters in suites:
        window, decay_x = _suite_defaults(w, seed=args.seed)
        for letter, cert in _run_suites(w, letters, window, w.trunc_default(), decay_x):
            suffix = "essinf" if cert.prop == "ess-inf" else letter
            certs.append(cert.with_id(f"{name}:{suffix}"))

    domar_rows = []
    for name in ("poly2", "poly2-exp", "poly2-exp-log"):
        w = builtin_weight(name)
        label, cert = domar_classify(w, Fraction(1))
        certs.append(cert.with_id(f"domar:{name}"))
        partials = domar_partial(w, Fraction(1), 12)
        domar_rows.append({"weight": name, "classification": label,
                           "partial_12": float(partials[-1])})
        res = beurling_integral(w, cutoff=50.0)
        certs.append(res.certificate.with_id(f"beurling:{name}"))

    seq = build_q_sequence(2)
    for n in (1, 2):
        certs.append(check_q_fractional_bound(seq, n).with_id(f"countex:frac{n}"))
    certs.append(countex_divergence_lower_bound(seq).with_id("countex:divergence"))
    ratio = circle_conv_ratio()
    certs.append(ratio.certificate.with_id("countex:conv-ratio"))
    line = line_conv_ratio()
    certs.append(line.certificate.with_id("euclidean:conv-ratio"))

    _write_bundle(out_dir / "certificates.json", None, certs, timestamp=not args.no_timestamp)
    _write_csv(out_dir / "summary.csv", ["id", "property", "verdict"],
               [{"id": c.cert_id, "property": c.prop, "verdict": c.verdict} for c in certs])
    _write_csv(out_dir / "domar.csv", ["weight", "classification", "partial_12"], domar_rows)
    print(f"wrote {out_dir}/certificates.json, summary.csv, domar.csv (seed {args.seed})")
    _print_table(certs)
    # domar/beurling certificates are classifications (a "fails" there records a
    # certified divergent example, not a broken construction); they do not gate exit
    gating = [c.verdict for c in certs if c.prop not in ("domar", "beurling")]
    return _exit_for(gating)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The convalg parser, built once per process: callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="convalg",
        description="Construct subconvolutive weights on abelian groups and "
                    "emit machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a weight and write its provenance JSON")
    c.add_argument("--group", required=True, help="pruefer:P | rationals | sum")
    c.add_argument("--summands", default=None, help="comma list, e.g. pruefer:2,pruefer:3")
    c.add_argument("--phi", default="default", choices=["default", "broken"],
                   help="'broken' builds the increasing-shell negative control")
    c.add_argument("--raw", action="store_true", help="skip the subconvolutivity rescale")
    c.add_argument("--p", default=None, help="also raise to the algebra weight u^(-1/q)")
    c.add_argument("--out", default="weight.json")

    v = sub.add_parser("verify", help="run certificate suites against a weight file")
    v.add_argument("weight", help="weight provenance JSON")
    v.add_argument("--suite", default="all",
                   help="comma list from a,b,c,d or 'all' (a positivity, b "
                        "subconvolutivity -- submultiplicativity for algebra "
                        "weights, c evenness, d decay -- ess-inf for algebra weights)")
    v.add_argument("--window", default=None, help="G4 | Q3:3 | sample:200:SEED:CAP")
    v.add_argument("--trunc", default=None, help="N8 | N5,B12 | L6/6/6")
    v.add_argument("--bound", default=None,
                   help="rational bound for the b-suite (default: the weight's certificate)")
    v.add_argument("--out", default=None, help="certificate bundle JSON path")
    v.add_argument("--no-timestamp", action="store_true")

    d = sub.add_parser("domar", help="partial sums and classification of the criterion series")
    d.add_argument("--weight", required=True, help="builtin:NAME")
    d.add_argument("--x", default="1", help="orbit generator (rational)")
    d.add_argument("--N", type=int, default=20)
    d.add_argument("--csv", default=None)

    b = sub.add_parser("beurling", help="the log+ w / (1+t^2) integral and classification")
    b.add_argument("--weight", required=True, help="builtin:NAME")
    b.add_argument("--T", type=float, default=50.0)
    b.add_argument("--csv", default=None)

    x = sub.add_parser("countex", help="the quarter-power circle counterexample report")
    x.add_argument("--depth", type=int, default=2)
    x.add_argument("--out", default=None)
    x.add_argument("--no-timestamp", action="store_true")

    e = sub.add_parser("equivalence", help="two-sided pinch of two builtin weights on a grid")
    e.add_argument("--weight1", required=True)
    e.add_argument("--weight2", required=True)
    e.add_argument("--grid", default="-5:5:1/2",
                   help="lo:hi:step (rationals); use --grid=-5:5:1/2 for negative lows")
    e.add_argument("--out", default=None)
    e.add_argument("--no-timestamp", action="store_true")

    r = sub.add_parser("report", help="run the standard suites and emit JSON + CSV")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        # a path that cannot be read or written is bad input, not a fault of the program
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program: exit 1 would read as a failed certificate
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
