import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import convalg as ca
from convalg import cli
from convalg.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_and_verify_pruefer(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    code, out, _ = run(capsys, "construct", "--group", "pruefer:2", "--out", str(wfile))
    assert code == 0
    assert "scale:        1/2" in out
    prov = json.loads(wfile.read_text())
    assert prov["construction"] == "pruefer-layer"
    assert prov["scale"] == "1/2"

    certs = tmp_path / "certs.json"
    code, out, _ = run(capsys, "verify", str(wfile), "--suite", "all",
                       "--out", str(certs), "--no-timestamp")
    assert code == 0
    bundle = json.loads(certs.read_text())
    assert bundle["schema"] == "convalg.bundle/1"
    assert [c["verdict"] for c in bundle["certificates"]] == ["holds"] * 4


def test_construct_rationals_records_constant(tmp_path, capsys):
    wfile = tmp_path / "wq.json"
    code, out, _ = run(capsys, "construct", "--group", "rationals", "--out", str(wfile))
    assert code == 0
    prov = json.loads(wfile.read_text())
    assert prov["construction"] == "rationals-layer"
    assert "c2" in prov["params"]


def test_construct_sum_records_alphas(tmp_path, capsys):
    wfile = tmp_path / "ws.json"
    code, out, _ = run(capsys, "construct", "--group", "sum",
                       "--summands", "pruefer:2,pruefer:3", "--out", str(wfile))
    assert code == 0
    prov = json.loads(wfile.read_text())
    assert prov["params"]["eps1"] == "1/60"
    assert prov["params"]["alphas"] == ["1/3", "1/9"]


def test_construct_invalid_params_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--group", "pruefer:4",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "prime" in err


def test_construct_algebra_zero_denominator_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "construct", "--group", "pruefer:2", "--p", "1/0",
                         "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "x.json").exists()


BAD_EQUIVALENCE = [
    ("0:1:0", "poly2", "exp-abs"), ("0:1:-1/2", "poly2", "exp-abs"),  # no positive step
    ("0:100000000:1", "poly2", "exp-abs"),   # more than 2^20 points
    ("5:1:1", "poly2", "exp-abs"),           # no points
    ("700:720:1", "poly2", "exp-abs"),       # e^t overflows past t = 709.78
    ("-800:-790:1", "poly2-exp-signed", "poly2"),  # e^t underflows: C1 = C2 = 0
    ("0:1:1/4", "circle-quarter", "const-one"),    # w1 vanishes at 0: C1 = 0
]


@pytest.mark.parametrize("grid, weight1, weight2", BAD_EQUIVALENCE,
                         ids=[grid for grid, _, _ in BAD_EQUIVALENCE])
def test_equivalence_bad_grid_exit_2(grid, weight1, weight2):
    # a subprocess with a timeout, so a grid loop that never ends fails the test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "convalg.cli", "equivalence",
                             "--weight1", f"builtin:{weight1}", "--weight2", f"builtin:{weight2}",
                             f"--grid={grid}"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


@pytest.mark.parametrize("construct, flags", [
    (["--group", "pruefer:2"], ["--trunc", "N20000"]),
    (["--group", "sum", "--summands", "pruefer:2,pruefer:3"], ["--trunc", "L6/2000"]),
    (["--group", "sum", "--summands", "pruefer:2,pruefer:3"],
     ["--window", "sample:20:0:100000"]),
], ids=["pruefer-trunc-N20000", "sum-trunc-L2000", "sum-sample-cap-100000"])
def test_verify_layer_above_bound_exit_2(tmp_path, construct, flags):
    # a subprocess with a timeout: each of these ran for minutes before the bound
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    wfile = tmp_path / "w.json"
    assert main(["construct", *construct, "--out", str(wfile)]) == 0
    result = subprocess.run([sys.executable, "-m", "convalg.cli", "verify", str(wfile),
                             "--suite", "b", *flags],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "2^10" in result.stderr
    assert result.stdout == ""


def test_verify_broken_weight_fails_with_witness(tmp_path, capsys):
    wfile = tmp_path / "broken.json"
    run(capsys, "construct", "--group", "pruefer:2", "--phi", "broken", "--out", str(wfile))
    code, out, _ = run(capsys, "verify", str(wfile), "--suite", "b")
    assert code == 1
    assert "witness=0/1" in out


def test_verify_inconclusive_exit_3(tmp_path, capsys):
    wfile = tmp_path / "raw.json"
    run(capsys, "construct", "--group", "rationals", "--raw", "--out", str(wfile))
    # construct a bound that provably straddles the enclosure at this truncation
    u = ca.rationals_weight()
    window = ca.rationals_ball_window(u.group, 2, 2)
    trunc = ca.TruncationSpec(layer=4, ball=6)
    ratios = [(ca.conv_at(u, x, trunc).lo / u.eval(x),
               ca.conv_at(u, x, trunc).hi / u.eval(x)) for x in window.points]
    lo_max = max(r[0] for r in ratios)
    hi_at = max(r[1] for r in ratios if r[0] == lo_max)
    bound = (lo_max + hi_at) / 2
    code, out, _ = run(capsys, "verify", str(wfile), "--suite", "b",
                       "--window", "Q2:2", "--trunc", "N4,B6",
                       "--bound", f"{bound.numerator}/{bound.denominator}")
    assert code == 3
    assert "inconclusive" in out


def test_verify_unreadable_weight_exit_2(tmp_path, capsys):
    missing = tmp_path / "none.json"
    code, _, err = run(capsys, "verify", str(missing))
    assert code == 2


def test_verify_deeply_nested_json_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "verify", str(deep))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


# each writes its output to the path the test passes last: a directory, or an
# existing file where report wants to make a directory
UNWRITABLE_OUTPUTS = {
    "construct": ["construct", "--group", "pruefer:2", "--out"],
    "verify": ["verify", "WEIGHT", "--suite", "a", "--out"],
    "report": ["report", "--no-timestamp", "--out"],
    "domar": ["domar", "--weight", "builtin:poly2", "--N", "5", "--csv"],
    "beurling": ["beurling", "--weight", "builtin:poly2", "--T", "8", "--csv"],
    "countex": ["countex", "--out"],
    "equivalence": ["equivalence", "--weight1", "builtin:poly2", "--weight2",
                    "builtin:poly2-exp-signed", "--grid=-1:1:1/2", "--out"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    wfile = tmp_path / "w.json"
    assert run(capsys, "construct", "--group", "pruefer:2", "--out", str(wfile))[0] == 0
    target = wfile if command == "report" else tmp_path
    argv = [str(wfile) if a == "WEIGHT" else a for a in UNWRITABLE_OUTPUTS[command]]
    code, _, err = run(capsys, *argv, str(target))
    assert code == cli.EXIT_USAGE == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_domar_csv_and_classification(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    code, out, _ = run(capsys, "domar", "--weight", "builtin:exp-abs", "--x", "1",
                       "--N", "3", "--csv", str(csv_path))
    assert code == 0
    assert "classification: Divergent" in out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "n,partial_sum,partial_sum_float"
    assert rows[3].startswith("3,11/6,")


def test_domar_convergent_builtin(capsys):
    code, out, _ = run(capsys, "domar", "--weight", "builtin:poly2", "--x", "1", "--N", "5")
    assert code == 0
    assert "classification: Convergent" in out


def test_domar_unknown_builtin_exit_2(capsys):
    code, _, err = run(capsys, "domar", "--weight", "builtin:nope", "--x", "1")
    assert code == 2
    assert "unknown builtin" in err


@pytest.mark.parametrize("name", ["circle-quarter", "circle-inv-sqrt"])
def test_domar_circle_builtin_orbit_through_zero_exit_2(capsys, name):
    # 3 * (1/3) = 0 mod 1, where log w is undefined
    code, out, err = run(capsys, "domar", "--weight", f"builtin:{name}", "--x", "1/3")
    assert code == 2
    assert err.startswith("error: ")
    assert "orbit point 3x = 0" in err
    assert "classification" not in out


@pytest.mark.parametrize("weight, n", [
    ("exp-abs", 10_000),    # H_N's exact digits pass the int-to-str limit
    ("exp-abs", 100_000),   # refused at that first partial sum, not summed to N
    ("poly2", 2 ** 20 + 1),  # above the series bound, refused before any work
])
def test_domar_unprintable_or_unbounded_series_exit_2(capsys, weight, n):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "domar", "--weight", f"builtin:{weight}", "--x", "1",
                         "--N", str(n))
    assert time.perf_counter() - t0 < 3.0
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("name", ["circle-quarter", "circle-inv-sqrt"])
def test_beurling_circle_builtin_exit_2(capsys, name):
    code, out, err = run(capsys, "beurling", "--weight", f"builtin:{name}")
    assert code == 2
    assert err.startswith("error: ")
    assert "line weight" in err
    assert out == ""


@pytest.mark.parametrize("cutoff", ["inf", "-5", "0", "nan", "1e9", "1e5", "16385"])
def test_beurling_bad_cutoff_exit_2(capsys, cutoff):
    code, out, err = run(capsys, "beurling", "--weight", "builtin:poly2", f"--T={cutoff}")
    assert code == 2
    assert err.startswith("error: ")
    assert "cutoff" in err
    assert out == ""


# SHA-256 of the stdout of `domar --N 1500` at x = 1 and x = -7/3 and of
# `beurling --T 400`, generated before the integer-arithmetic orbits and the
# mirrored panels; a fast path that moves one bit of a partial sum or an
# integral changes them
CRITERION_STDOUT_SHA256 = {
    "poly2": ("b90ef6973fd47f90c393903da4d65dd04bd6e131f4e3e9602b1f96bb2fd2aa62",
              "4c4e3c937824b2bb18859e049b83e102dc98aca69ecb5444941681a9c74f0a2e",
              "e927edad8a84ca4fcf23f67b0106a0ce0f9da644fd6e2ae7d8f9ba89321b2751"),
    "exp-abs": ("07eadc05847353064e9e5deee0201b5f22c39b49f2706cd88c76bef68e2a0cfb",
                "cdff05cd6739bb3d5257b63951c3c3eebcf387ffa6952f8913c93bf3b59b110b",
                "f1136e9734ca32249c217f9e5b8770a1d07b86dfaf1f2613bc72da70d4a52d8e"),
    "poly2-exp": ("7ed7db23c246131caec45382a50c6fa9e18dcb14e154b4b9de82e298bff56930",
                  "ffd7328c0ea05d9e046a224cbe830421e3dc3cacbd49347bcf7ebb18126f47e1",
                  "53b7682b90f8b0c8c73500cc53323e62825193e1b9385a4484d8e3401ff27d38"),
    "poly2-exp-log": ("beb297886ff467cf73e1d331c8ea6158c6a9bba486ae60b842de11135941a142",
                      "326ef829013e8f5a0c704eff58e70bf4047fddff6a718774237ff86d6f402a59",
                      "229ddd76d87ebf830ead20b260f309b2506fb5428c10849c3d484d71c283ed5d"),
    "poly2-exp-signed": ("7ed7db23c246131caec45382a50c6fa9e18dcb14e154b4b9de82e298bff56930",
                         "808d11e790127dfe58968b142b4dc56571a788d0adb1b51582f7a38340c9a096",
                         "652629da7974a28464cd84ef6fec1475ac7995b5784bdbf20ee62f71100099e7"),
}


@pytest.mark.parametrize("name", sorted(CRITERION_STDOUT_SHA256))
def test_criterion_stdout_pinned(capsys, name):
    digests = []
    for argv in (["domar", "--x=1", "--N", "1500"], ["domar", "--x=-7/3", "--N", "1500"],
                 ["beurling", "--T", "400"]):
        code, out, _ = run(capsys, *argv, "--weight", f"builtin:{name}")
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == CRITERION_STDOUT_SHA256[name]


def test_beurling_classifications(capsys):
    code, out, _ = run(capsys, "beurling", "--weight", "builtin:poly2-exp-log", "--T", "40")
    assert code == 0
    assert "classification: infinite" in out
    code, out, _ = run(capsys, "beurling", "--weight", "builtin:poly2", "--T", "40")
    assert "classification: finite" in out


def test_countex_report(capsys):
    code, out, _ = run(capsys, "countex", "--depth", "2")
    assert code == 0
    assert "[2, 220]" in out
    assert "1/110" in out
    assert "partial sum >= 1/2" in out
    assert "finite" in out


def test_countex_depth_refused(capsys):
    code, _, err = run(capsys, "countex", "--depth", "4")
    assert code == 2
    assert "refused" in err


def test_equivalence_command(capsys):
    code, out, _ = run(capsys, "equivalence", "--weight1", "builtin:poly2",
                       "--weight2", "builtin:poly2-exp-signed", "--grid=-5:5:1/2")
    assert code == 0
    assert "C1 = 0.006737" in out
    assert "C2 = 148.41" in out


def test_verify_sum_weight_window_and_trunc_flags(tmp_path, capsys):
    wfile = tmp_path / "ws.json"
    run(capsys, "construct", "--group", "sum", "--summands", "pruefer:2,pruefer:3",
        "--out", str(wfile))
    code, out, _ = run(capsys, "verify", str(wfile), "--suite", "a,b,c",
                       "--window", "sample:40:1:3", "--trunc", "L6/6")
    assert code == 0
    assert "40 points" in out


def test_verify_algebra_weight_suites(tmp_path, capsys):
    wfile = tmp_path / "alg.json"
    code, _, _ = run(capsys, "construct", "--group", "pruefer:2", "--p", "2",
                     "--out", str(wfile))
    assert code == 0
    prov = json.loads(wfile.read_text())
    assert prov["construction"] == "algebra"
    code, out, _ = run(capsys, "verify", str(wfile), "--suite", "all")
    assert code == 0
    assert "submultiplicative" in out
    assert "ess-inf" in out


def test_verify_algebra_weight_window_flag(tmp_path, capsys):
    wfile = tmp_path / "alg.json"
    run(capsys, "construct", "--group", "pruefer:2", "--p", "2", "--out", str(wfile))
    certs = tmp_path / "certs.json"
    code, out, _ = run(capsys, "verify", str(wfile), "--window", "G3",
                       "--out", str(certs), "--no-timestamp")
    assert code == 0
    assert "window G3 (8 points)" in out
    bundle = json.loads(certs.read_text())
    assert [c["window"]["name"] for c in bundle["certificates"]] == ["G3"] * 4
    assert [c["verdict"] for c in bundle["certificates"]] == ["holds"] * 4
    # a window of another group's kind is a usage error
    code, _, err = run(capsys, "verify", str(wfile), "--window", "Q3:3")
    assert code == 2
    assert "pruefer" in err


# SHA-256 of the seed-0 `report --no-timestamp` bundle: a change to any
# certificate of the report changes it
REPORT_SEED0_SHA256 = "7d02832fae61df725ae2da3e5ddc6c60175ce6fa01efd1431d3f406daf5ccc51"


def test_verify_sum_with_rationals_first_summand(tmp_path, capsys):
    # the default decay point comes from summand 1, here a rationals weight
    summands = (ca.rationals_weight(), ca.pruefer_weight(2))
    w = ca.direct_sum_weight(tuple(ca.scale_for_b(u, u.b_bound) for u in summands))
    wfile = tmp_path / "sum.json"
    wfile.write_text(ca.canonical_dumps(ca.weight_to_provenance(w)))
    certs = tmp_path / "certs.json"
    code, _, _ = run(capsys, "verify", str(wfile), "--out", str(certs), "--no-timestamp")
    assert code == 0
    bundle = json.loads(certs.read_text())
    assert [c["id"] for c in bundle["certificates"]] == [
        "a:positivity", "b:subconvolutive", "c:evenness", "d:poly-decay"]
    assert [c["verdict"] for c in bundle["certificates"]] == ["holds"] * 4


def _edit_weight(**changes):
    def edit(prov):
        prov.update(changes)
        return prov
    return edit


def _edit_params(**changes):
    def edit(prov):
        prov["params"].update(changes)
        return prov
    return edit


def _edit_base(**changes):
    def edit(prov):
        prov["params"]["base"].update(changes)
        return prov
    return edit


def _nested_sum(inner_first):
    # construct writes no nested direct sum: build one through the API
    def edit(prov):
        u2, u3 = (ca.scale_for_b(u, u.b_bound) for u in map(ca.pruefer_weight, (2, 3)))
        inner = ca.direct_sum_weight((u3, u2))
        summands = (inner, u2) if inner_first else (u2, inner)
        return ca.weight_to_provenance(ca.direct_sum_weight(summands))
    return edit


# well-formed documents of weights that have no weight file (nothing writes them)
EUCLIDEAN_DOC = {"schema": "convalg.weight/1", "construction": "euclidean",
                 "params": {"dim": 2}, "scale": 1.0, "exact": False, "certificates": []}
PRODUCT_DOC = {"schema": "convalg.weight/1", "construction": "product", "params": {
    "real": {"schema": "convalg.weight/1", "construction": "euclidean", "params": {"dim": 1},
             "scale": 0.15915494309189535, "exact": False, "certificates": []},
    "discrete": {"schema": "convalg.weight/1", "construction": "pruefer-layer",
                 "params": {"group": {"variant": "pruefer", "p": 2}, "phi": "geometric",
                            "mass": "1/1"},
                 "scale": "1/2", "exact": True, "certificates": []}},
    "scale": 1.0, "exact": False, "certificates": []}
FORMULA_DOC = {"schema": "convalg.weight/1", "construction": "formula",
               "params": {"name": "poly2-exp"}, "scale": 1.0, "exact": False,
               "certificates": []}

P2_ARGS = ["--group", "pruefer:2"]
RAT_ARGS = ["--group", "rationals"]
SUM_ARGS = ["--group", "sum", "--summands", "pruefer:2,pruefer:3"]
ALG_ARGS = ["--group", "pruefer:2", "--p", "2"]


@pytest.mark.parametrize("construct, edit, flags", [
    (P2_ARGS, None, ["--bound", "abc"]),
    (P2_ARGS, None, ["--bound", "1/0"]),
    (P2_ARGS, lambda prov: [prov], []),
    (P2_ARGS, _edit_weight(scale="1/0"), []),
    (P2_ARGS, _edit_weight(params=[]), []),
    (P2_ARGS, _edit_weight(scale=None), []),
    (P2_ARGS, lambda prov: {**prov, "params": {**prov["params"], "group": []}}, []),
    (P2_ARGS, _edit_params(group={"variant": "pruefer", "p": None}), []),
    (P2_ARGS, _edit_params(group={"variant": "pruefer", "p": [2]}), []),
    (P2_ARGS, _edit_params(phi=["geometric"]), []),
    (P2_ARGS, lambda prov: {**prov, "construction": "euclidean", "params": {"dim": None}}, []),
    (P2_ARGS, lambda prov: {**prov, "construction": "euclidean", "params": {"dim": [1]}}, []),
    (RAT_ARGS, _edit_params(c2="1/1000000"), ["--suite", "b", "--trunc", "N3,B12"]),
    (RAT_ARGS, _edit_params(c2=["72119579/7625000"]), []),
    (RAT_ARGS, _edit_params(group={"variant": "rationals", "chain": ["factorial"]}), []),
    (RAT_ARGS, _edit_params(phi="geometric"), []),
    (P2_ARGS, _edit_params(phi="factorial"), []),
    (RAT_ARGS, _edit_params(phi="broken-demo"), []),
    (P2_ARGS, _edit_params(mass="1/4"), []),
    (SUM_ARGS, _edit_params(eps1=None), []),
    (SUM_ARGS, _edit_params(alphas=3), []),
    (SUM_ARGS, _edit_params(summands=3), []),
    (ALG_ARGS, _edit_params(p="1/1"), []),
    (ALG_ARGS, _edit_params(p="1/2"), []),
    (ALG_ARGS, _edit_params(p="-3/1"), []),
    (ALG_ARGS, _edit_base(scale="1/1"), []),
    (P2_ARGS, _edit_weight(scale=float("inf")), []),
    (P2_ARGS, _edit_weight(scale=0), []),
    (P2_ARGS, _edit_weight(scale="-1/2"), []),
    (P2_ARGS, _edit_weight(scale=0.25), []),
    (P2_ARGS, _edit_params(group={"variant": "pruefer", "p": 2 ** 61 - 1}), []),
    (["--group", "pruefer:37"], None, []),
    (RAT_ARGS, None, ["--trunc", "N1025,B12"]),
    (RAT_ARGS, None, ["--trunc", "N5,B1048576"]),
    (RAT_ARGS, None, ["--trunc", "N5,B1025"]),
    (RAT_ARGS, None, ["--window", "Q9:3"]),
    (SUM_ARGS, None, ["--window", "sample:50:0:1"]),
    (P2_ARGS, lambda prov: EUCLIDEAN_DOC, []),
    (P2_ARGS, lambda prov: PRODUCT_DOC, []),
    (P2_ARGS, lambda prov: FORMULA_DOC, []),
    (SUM_ARGS, _nested_sum(inner_first=False), []),
    (SUM_ARGS, _nested_sum(inner_first=True), []),
    (SUM_ARGS, _nested_sum(inner_first=False), ["--window", "sample:20:1:3"]),
    (SUM_ARGS, _nested_sum(inner_first=True), ["--window", "sample:20:1:3"]),
    (SUM_ARGS, None, ["--suite", "b", "--trunc", "L0/0"]),
    (SUM_ARGS, None, ["--suite", "b", "--trunc", "L-3/-3"]),
    (SUM_ARGS, None, ["--window", "sample:5:1:0"]),
    (P2_ARGS, None, ["--bound", "0"]),
    (P2_ARGS, None, ["--bound", "-1"]),
    (P2_ARGS, None, ["--suite", "b", "--trunc", "L3"]),
    (P2_ARGS, None, ["--suite", "b", "--trunc", "B12"]),
    (SUM_ARGS, None, ["--suite", "b", "--trunc", "N1"]),
    (RAT_ARGS, None, ["--suite", "b", "--trunc", "N5,B12,L6"]),
    (ALG_ARGS, None, ["--trunc", "N8,B12"]),
    (ALG_ARGS, None, ["--trunc", "N8"]),
    (SUM_ARGS + ["--p", "2"], None, ["--trunc", "L6/6"]),
    (SUM_ARGS, None, ["--window", "sample:20:1:3:9"]),
    (SUM_ARGS, None, ["--window", "sample:20:1:3:"]),
    (P2_ARGS, None, ["--trunc", "N8,N9"]),
    (RAT_ARGS, None, ["--trunc", "N5,B12,B13"]),
    (SUM_ARGS, None, ["--trunc", "L6/6,L7/7"]),
], ids=["bound-text", "bound-zero-den", "top-level-list", "scale-zero-den", "params-list",
        "scale-null", "group-list", "p-null", "p-list", "phi-list", "dim-null", "dim-list",
        "c2-edited", "c2-list", "chain-list", "phi-geometric-on-rationals",
        "phi-factorial-on-pruefer", "phi-broken-demo-on-rationals", "mass-edited", "eps1-null", "alphas-number",
        "summands-number", "algebra-p-one", "algebra-p-half", "algebra-p-negative",
        "algebra-base-unscaled", "scale-infinite", "scale-zero", "scale-negative",
        "scale-float-on-exact", "p-mersenne-61", "pruefer37-default-window",
        "rationals-trunc-N1025", "rationals-trunc-B2^20", "rationals-trunc-B1025",
        "rationals-window-Q9",
        "sum-sample-too-few-points", "euclidean-doc", "product-doc", "formula-doc",
        "nested-sum-second", "nested-sum-first", "nested-sum-second-sample",
        "nested-sum-first-sample",
        "sum-trunc-L0", "sum-trunc-negative", "sum-sample-cap-0", "bound-zero",
        "bound-negative", "pruefer-trunc-L-unread", "pruefer-trunc-B-unread",
        "sum-trunc-N-unread", "rationals-trunc-L-unread", "algebra-trunc-B-unread",
        "algebra-trunc-N-unread", "algebra-sum-trunc-L-unread", "sum-sample-fifth-part",
        "sum-sample-trailing-colon", "pruefer-trunc-N-repeated", "rationals-trunc-B-repeated",
        "sum-trunc-L-repeated"])
def test_verify_malformed_input_exit_2(tmp_path, capsys, construct, edit, flags):
    wfile = tmp_path / "w.json"
    run(capsys, "construct", *construct, "--out", str(wfile))
    if edit is not None:
        wfile.write_text(json.dumps(edit(json.loads(wfile.read_text()))))
    code, out, err = run(capsys, "verify", str(wfile), *flags)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--group", "rationals", "--phi", "broken"],
    SUM_ARGS + ["--phi", "broken"],
    SUM_ARGS + ["--raw"],
    ["--group", "pruefer:2", "--summands", "pruefer:3"],
], ids=["rationals-phi-broken", "sum-phi-broken", "sum-raw", "pruefer-summands"])
def test_construct_refuses_ignored_flags(tmp_path, capsys, argv):
    wfile = tmp_path / "w.json"
    code, out, err = run(capsys, "construct", *argv, "--out", str(wfile))
    assert code == 2
    assert err.startswith("error: ")
    assert not wfile.exists()


def test_report_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code, _, _ = run(capsys, "report", "--out", str(out1), "--no-timestamp")
    assert code == 0
    code, _, _ = run(capsys, "report", "--out", str(out2), "--no-timestamp")
    assert code == 0
    bundle = (out1 / "certificates.json").read_bytes()
    assert hashlib.sha256(bundle).hexdigest() == REPORT_SEED0_SHA256
    assert bundle == (out2 / "certificates.json").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "domar.csv").read_bytes() == (out2 / "domar.csv").read_bytes()


def test_report_with_timestamp_differs_only_in_timestamp(tmp_path, capsys):
    out1 = tmp_path / "t1"
    code, _, _ = run(capsys, "report", "--out", str(out1))
    assert code == 0
    bundle = json.loads((out1 / "certificates.json").read_text())
    assert "generated_at" in bundle


def test_verify_window_builds_only_that_window(tmp_path, capsys, monkeypatch):
    # the default window of pruefer:5, G4, holds 625 points: it is never built
    wfile = tmp_path / "w.json"
    run(capsys, "construct", "--group", "pruefer:5", "--out", str(wfile))
    layers = []
    enumerate_ = ca.groups.PrueferGroup.subgroup_elements

    def counted(self, n):
        layers.append(n)
        return enumerate_(self, n)

    monkeypatch.setattr(ca.groups.PrueferGroup, "subgroup_elements", counted)
    code, out, _ = run(capsys, "verify", str(wfile), "--window", "G1", "--trunc", "N6")
    assert code == 0 and "on window G1 (5 points)" in out
    assert layers == [1]


def test_main_builds_its_parser_once(tmp_path, capsys):
    cli.build_parser.cache_clear()
    for p in (2, 3):
        run(capsys, "construct", "--group", f"pruefer:{p}", "--out", str(tmp_path / "w.json"))
    assert cli.build_parser.cache_info().misses == 1


def test_internal_error_exit_4(capsys, monkeypatch):
    def fault(args):
        raise RuntimeError("injected fault")
    monkeypatch.setattr(cli, "cmd_countex", fault)
    code, out, err = run(capsys, "countex")
    assert code == cli.EXIT_INTERNAL == 4
    assert err.splitlines()[0] == "error: internal error: RuntimeError: injected fault"
    assert out == ""


def test_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "cmd_countex", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["countex"])
