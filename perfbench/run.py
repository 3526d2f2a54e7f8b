"""The convalg benchmark.

    python3 perfbench/run.py --workload {report,layer-deep,classify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a convalg checkout; the program is imported from its
`src/`.  Each pass of the workload runs in a fresh single-threaded process
(`worker.py`), so caches start cold in every pass, as they do for every CLI
command.  Passes are started while the next one is expected to end within S
seconds (at least three with --trace 0, at least one untraced and one
traced with --trace 1).

With --trace 0 the result holds the end-to-end metrics, each the median over
the passes: wall_s (the timed section), setup_s (process start to the first
check) and peak_rss_mb.  With --trace 1 the passes alternate untraced and
traced, and the result holds the per-layer metrics of the traced passes
(medians) plus trace.overhead_s, the traced minus the untraced median wall_s.

After the passes every output is checked (`checks.py`); passes of one run
must also write byte-identical bundles.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Run records, pass
outputs and traces stay under .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report", "layer-deep", "classify")
MIN_PASSES = 3
# a run must end within 180 s, checks included
PASS_TIMEOUT_S = 120.0
RUN_LIMIT_S = 140.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _worker_env() -> dict:
    env = dict(os.environ)
    # one thread: no BLAS or OpenMP pools behind numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_pass(workload: str, seed: int, out: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} pass did not end within {PASS_TIMEOUT_S} s")
    except BaseException:
        # interrupted (SIGINT, or SIGTERM turned into SystemExit): leave no worker behind
        proc.kill()
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}:\n{stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.monotonic() - t0
    record["traced"] = trace
    record["dir"] = str(out)
    return record


def _hashes(workload: str, out: Path) -> dict:
    hashes = {}
    for rel in checks.OUTPUTS[workload]:
        path = out / rel
        hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "convalg" / "__init__.py").is_file():
        print(f"error: no convalg sources under {ROOT / 'src'}; run from a convalg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
        f"-{os.getpid()}")
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    deadline = started + args.seconds
    passes: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args.workload, args.seed, run_dir / f"pass{len(passes)}", traced))
            enough = (len(passes) >= 2 if args.trace else len(passes) >= MIN_PASSES)
            typical = statistics.median(p["elapsed_s"] for p in passes)
            now = time.monotonic()
            if now + typical - started > RUN_LIMIT_S or (enough and now + typical > deadline):
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check_pass, check_run = checks.CHECKS[args.workload]
    attempted = failed = 0
    wrong: list[str] = []
    raised: list[str] = []
    checked: dict = {}
    for p in passes:
        out = Path(p["dir"])
        p["hashes"] = _hashes(args.workload, out)
        if "error" in p:
            raised.append(p["error"])
        # passes that wrote the same bytes are checked once
        key = json.dumps(p["hashes"], sort_keys=True) + str("error" in p)
        if key not in checked:
            checked[key] = check_pass(args.seed, out)
        a, f, pass_wrong, pass_raised = checked[key]
        attempted += a
        failed += f
        wrong += pass_wrong
        raised += pass_raised
    if len({json.dumps(p["hashes"], sort_keys=True) for p in passes}) != 1:
        wrong.append("passes of one run wrote different bundles")
    wrong += check_run(args.seed, Path(passes[0]["dir"]))
    # an operation that raised counts in `failed` only; `correct` speaks of
    # the outputs of the operations that did not fail
    correct = not wrong

    untraced = [p for p in passes if not p["traced"] and "wall_s" in p]
    traced = [p for p in passes if p["traced"] and "layers" in p]
    if not untraced or (args.trace and not traced):
        print("error: no pass finished its timed section", file=sys.stderr)
        return 1
    if args.trace:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in untraced))
        metrics = {name: {"value": overhead if name == "trace.overhead_s"
                          else statistics.median(p["layers"][name] for p in traced),
                          "unit": unit}
                   for name, unit in tracing.METRICS}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in untraced), "unit": unit}
                   for name, unit in END_TO_END}

    # keep the first pass's outputs and every trace; drop the other copies
    for p in passes[1:]:
        for child in Path(p["dir"]).iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            elif child.name != "trace.jsonl":
                child.unlink()
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "record.json").write_text(json.dumps(
        {"args": vars(args), "passes": passes, "wrong": wrong, "raised": raised,
         "result": summary},
        indent=2, sort_keys=True))
    for line in wrong + raised:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, record in {run_dir}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
