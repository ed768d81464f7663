"""grpinv benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (``worker.py``) so the package's
module caches start cold, as they do for a command-line user.  With
``--trace 0`` the passes are untraced and the last line of stdout carries
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and the last line carries the per-layer metrics, including the
tracing overhead.  The line before it records the environment, and the
whole result (every sample, plus the last traced pass's spans) is written
under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, nproc  # noqa: E402

#: Set-up-only interpreters started before each pass, on top of the pass's
#: own set-up; spreading them over the run lets drift average out.
SETUP_SAMPLES_PER_PASS = 2
#: Fewest untraced passes per run; wall_s is their median.
MIN_PASSES = 2
#: A run still going this long after it started, or twice ``--seconds`` if
#: that is longer, is killed and fails.
RUN_LIMIT_S = 170


#: Units of the end-to-end metrics; ``layer_unit`` gives the per-layer ones.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class BenchError(RuntimeError):
    """A pass crashed, timed out or printed no result."""


def _worker(*extra: str, deadline: float) -> tuple[float, dict]:
    """Start one worker; return its start time and its parsed result."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, str(HERE / "worker.py"), *extra]
    started = time.monotonic()
    timeout = max(deadline - started, 1.0)
    try:
        done = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"killed after {timeout:.0f}s: {' '.join(extra)}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"worker exited {done.returncode}: {' '.join(extra)}\n{done.stderr[-2000:]}"
        )
    return started, json.loads(lines[-1])


def _setup_sample(deadline: float) -> float:
    started, result = _worker("--setup-only", deadline=deadline)
    return result["setup_done"] - started


def _pass(workload: str, seed: int, trace: int, deadline: float) -> dict:
    started, result = _worker(
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
        deadline=deadline,
    )
    result["setup_s"] = result["setup_done"] - started
    return result


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def op_latencies(passes: list[list[float]]) -> list[float]:
    """Each operation's mean latency over the passes, one value per operation.

    Every pass runs the same operations in the same order.  The host runs
    pure-Python loops up to 1.8 times slower for stretches of seconds to
    minutes.  A percentile of the pooled samples jumps to the slow level
    once such a stretch covers the share of samples beyond it; averaging
    each operation first makes the percentiles move in proportion.
    """
    return [statistics.fmean(column) for column in zip(*passes, strict=True)]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "grpinv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return done.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + max(RUN_LIMIT_S, 2 * seconds)
    # One untimed interpreter first: it byte-compiles the package, which a
    # user pays once per install, and proves the import works at all.
    _setup_sample(deadline)
    setup: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    per_pass = 0.0
    while True:
        began = time.monotonic()
        setup += [_setup_sample(deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]
        want_traced = trace and len(traced) < len(untraced)
        result = _pass(workload, seed, 1 if want_traced else 0, deadline)
        (traced if want_traced else untraced).append(result)
        if not want_traced:
            setup.append(result["setup_s"])
        elapsed = time.monotonic() - start
        # The longest pass so far, with its set-up samples, plus a margin.
        per_pass = max(per_pass, time.monotonic() - began + 0.5)
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_PASSES
        if enough and elapsed + per_pass > seconds:
            break

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    wall = statistics.median(p["wall_s"] for p in untraced)
    op_ms = op_latencies([p["op_ms"] for p in untraced])
    if trace:
        per_pass_layers = [layer_metrics(p["spans"]) for p in traced]
        metrics = {
            name: statistics.median(m[name] for m in per_pass_layers)
            for name in per_pass_layers[0]
        }
        metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "op_p50_ms": percentile(op_ms, 50),
            "op_p95_ms": percentile(op_ms, 95),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_rate": (attempted - failed) / attempted,
        }
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": WORKLOADS[workload].params,
        "nproc": nproc(),
        "python": untraced[0]["python"],
        "numpy": untraced[0]["numpy"],
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": len(untraced[0]["op_ms"]),
        "setup_samples": len(setup),
    }
    return {
        "env": env,
        "samples": {
            "setup_s": setup,
            "wall_s": [p["wall_s"] for p in untraced],
            "traced_wall_s": [p["wall_s"] for p in traced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
            "op_ms": [p["op_ms"] for p in untraced],
        },
        "failures": [f for p in passes for f in p["failures"]],
        "spans": traced[-1]["spans"] if traced else [],
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20250818)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grpinv" / "__init__.py").is_file():
        print(f"error: no grpinv sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result["line"]
    line["metrics"] = {
        name: {"value": value, "unit": E2E_UNITS.get(name) or layer_unit(name)}
        for name, value in line["metrics"].items()
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result))
    for failure in result["failures"][:20]:
        print(f"wrong output: {failure}", file=sys.stderr)
    print(json.dumps({"env": result["env"]}, sort_keys=True))
    print(json.dumps(line))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_built"):
        return "MB_computed"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
