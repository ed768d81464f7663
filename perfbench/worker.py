"""One benchmark pass in a fresh interpreter, so grpinv's caches start cold.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; it refuses to run on a grpinv loaded from anywhere else.  It
imports grpinv, builds the built-in catalog (the end of
set-up, stamped with ``time.monotonic`` so the parent can measure from
process start), runs one workload's operations back to back, then checks
the outputs and prints one JSON line: set-up stamp, wall time, per-op
times, peak RSS, failures, and with ``--trace 1`` the spans.
"""

# grpinv is imported before anything else, so set-up measures its import.
import sys
import time

import grpinv
import grpinv.cli

import argparse
import json
import resource
from pathlib import Path

import numpy

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package_dir = Path(grpinv.__file__).resolve().parent
    if package_dir.parent != SRC:
        print(f"grpinv loaded from {package_dir}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    grpinv.builtin_catalog()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    workload = WORKLOADS[args.workload]
    ops = workload.ops(grpinv, args.seed)
    outputs = []
    op_seconds = []
    start = time.perf_counter()
    for k, (arg, fn) in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        began = time.perf_counter()
        try:
            outputs.append((arg, fn(arg), None))
        except Exception as exc:  # judged by the workload's check, never hidden
            outputs.append((arg, None, exc))
        op_seconds.append(time.perf_counter() - began)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    reference = json.loads(REFERENCE.read_text())
    records = [workload.record(arg, result, exc) for arg, result, exc in outputs]
    verdicts = workload.check(records, reference)
    result = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "op_ms": [s * 1e3 for s in op_seconds],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(verdicts),
        "failures": [v for v in verdicts if v is not None],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
