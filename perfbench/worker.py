"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --out DIR --t0 T [--trace]

T is the parent's `time.monotonic()` just before it started this process, so
`setup_s` covers interpreter start, `import convalg` and the workload's
set-up, up to the first check.  The timed section follows; with --trace the
in-memory tracer is installed first and its spans are written to DIR.

The last line of standard output is one JSON object: setup_s, wall_s,
peak_rss_mb, the per-layer metrics when traced, and an error if the
workload's set-up or timed section raised.  What the operations produced goes
to DIR/result.json for the checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exact(value):
    """JSON form of the exact rationals in a result: "num/den"."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import convalg
    import convalg.cli  # noqa: F401  (bound on the package, so the tracer finds it)

    from tracing import Tracer
    from workloads import WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prepare, run = WORKLOADS[args.workload]
    record: dict = {}
    try:
        ctx = prepare(args.seed, out)
    except Exception:
        record["error"] = "set-up raised:\n" + traceback.format_exc()
        print(json.dumps(record))
        return 0
    record["setup_s"] = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(convalg)
    start = time.perf_counter()
    try:
        result = run(ctx)
    except Exception:
        result = None
        record["error"] = "timed section raised:\n" + traceback.format_exc()
    record["wall_s"] = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write(out / "trace.jsonl")
    if result is not None:
        (out / "result.json").write_text(json.dumps(result, sort_keys=True, default=_exact))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
