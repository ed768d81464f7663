"""The benchmark workloads: their inputs, timed operations and output checks.

Each workload is a list of named operations that call grpinv's public API.
``ops`` builds them, the worker times them one by one, ``record`` turns
each output (or the exception it raised) into plain data after the timed
region ends, and ``check`` compares the records with the reference.  A
check returns one entry per operation: ``None`` when the output is right,
otherwise a short description of what is wrong.  The checks import nothing
from grpinv, so the unit tests can feed them perturbed records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

#: Published numbers of isomorphism classes for orders 1..20.
CENSUS_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5)
CENSUS_ENUM_CAP = 20

LEMMAS_ARGV = ("--format", "machine", "verify", "lemmas")

WORKED_TARGET = Fraction(1, 2)
WORKED_EPS = Fraction(1, 1000)
WORKED_PRIMES = (3, 5, 7, 11, 13, 19)
WORKED_BETA = Fraction(2048, 4095)
BETA_EPS = Fraction(1, 10**4)
BETA_PRIME_CAP = 10**6
#: The target set is acceptance criterion 8's draw; the run seed orders it.
BETA_TARGET_SEED = 20250818
BETA_TARGETS = 200

IDENTIFY_EXPRS = ("Z(2)xD(2046)", "D(6)xD(682)", "Z(2)xZ(2)xD(1022)")


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` reports them."""
    return len(os.sched_getaffinity(0))


def beta_targets(seed: int) -> list[Fraction]:
    """Criterion 8's 200 targets on the 1e-4 grid in [0.05, 0.99], in an
    order drawn from ``seed``."""
    rng = random.Random(BETA_TARGET_SEED)
    targets = [Fraction(rng.randint(500, 9900), 10**4) for _ in range(BETA_TARGETS)]
    random.Random(seed).shuffle(targets)
    return targets


def odd_primes_upto(cap: int) -> np.ndarray:
    """Odd primes <= cap by a plain sieve, independent of grpinv.arith."""
    sieve = np.ones(cap + 1, dtype=bool)
    sieve[:3] = False
    sieve[4::2] = False
    for p in range(3, math.isqrt(cap) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = False
    return np.nonzero(sieve)[0]


def beta_floor(prime_cap: int = BETA_PRIME_CAP) -> tuple[float, int]:
    """(exp(-sum ln((p+2)/(p+1))), number of odd primes) up to the cap: the
    smallest beta the greedy can reach, and the size of its full selection."""
    primes = odd_primes_upto(prime_cap).astype(np.float64)
    return math.exp(-math.fsum(np.log1p(1.0 / (primes + 1.0)))), len(primes)


def _failed(arg, exc) -> dict:
    return {"error": f"{arg}: {type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# census


def census_ops(grpinv, seed: int):
    workers = min(2, nproc())

    def op(orders):
        census = []
        for n in orders:
            result = grpinv.enumerate_groups(n, enum_cap=CENSUS_ENUM_CAP, workers=workers)
            classes = []
            for index, group in enumerate(result.groups):
                inv = grpinv.invariants(group)
                classes.append((index, grpinv.identify(group), inv.i, inv.c, group))
            census.append((n, classes))
        return census

    # One operation: the whole census.  Single orders take 0.3 ms to 4 s, so
    # latency percentiles over them fall in the gaps between orders and
    # swing from run to run.  The check still judges every order.
    return [(tuple(range(1, len(CENSUS_COUNTS) + 1)), op)]


def class_digest(order: int, index: int, name, i: int, c: int, table) -> str:
    """SHA-256 of one class's (order, index, name, i, c, flat table)."""
    payload = json.dumps([order, index, name, i, c, [int(v) for v in table]])
    return hashlib.sha256(payload.encode()).hexdigest()


def census_record(orders, census, exc):
    """One record per order, or a single error record."""
    if exc is not None:
        return [_failed(f"census of orders {orders[0]}-{orders[-1]}", exc)]
    return [
        {
            "order": n,
            "digests": [
                class_digest(n, index, name, i, c, group.table.ravel().tolist())
                for index, name, i, c, group in classes
            ],
        }
        for n, classes in census
    ]


def census_check(records, reference):
    """One verdict per order (records hold one list per operation)."""
    verdicts = []
    for record in (r for per_op in records for r in per_op):
        if "error" in record:
            verdicts.append(record["error"])
            continue
        n = record["order"]
        digests = record["digests"]
        if len(digests) != CENSUS_COUNTS[n - 1]:
            verdicts.append(
                f"order {n}: {len(digests)} classes, expected {CENSUS_COUNTS[n - 1]}"
            )
        elif digests != reference["census"][str(n)]:
            verdicts.append(f"order {n}: class digests differ from the reference")
        else:
            verdicts.append(None)
    return verdicts


# ---------------------------------------------------------------------------
# lemmas


def lemmas_ops(grpinv, seed: int):
    import contextlib
    import io

    def op(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = grpinv.cli.run(list(argv))
        return code, buffer.getvalue()

    return [(LEMMAS_ARGV, op)]


def lemmas_record(argv, output, exc):
    if exc is not None:
        return _failed(" ".join(argv), exc)
    code, text = output
    return {
        "exit": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": text.count("\n"),
    }


def lemmas_check(records, reference):
    expected = reference["lemmas"]
    verdicts = []
    for record in records:
        if "error" in record:
            verdicts.append(record["error"])
        elif record["exit"] != 0:
            verdicts.append(f"exit code {record['exit']}")
        elif record["sha256"] != expected["sha256"]:
            verdicts.append(
                f"stdout digest differs ({record['lines']} lines, "
                f"expected {expected['lines']})"
            )
        else:
            verdicts.append(None)
    return verdicts


# ---------------------------------------------------------------------------
# beta_sweep


def beta_ops(grpinv, seed: int):
    def op(arg):
        target, eps, prime_cap = arg
        return grpinv.approximate_beta(target, eps, prime_cap=prime_cap)

    args = [(WORKED_TARGET, WORKED_EPS, grpinv.DEFAULT_PRIME_CAP)]
    args += [(t, BETA_EPS, BETA_PRIME_CAP) for t in beta_targets(seed)]
    return [(arg, op) for arg in args]


def beta_record(arg, selection, exc):
    """ConvergenceError is an outcome the check judges; any other exception fails."""
    target, eps, _ = arg
    record = {"target": target, "eps": eps, "worked": target == WORKED_TARGET and eps == WORKED_EPS}
    if exc is None:
        return {
            **record,
            "outcome": "converged",
            "beta": selection.predicted_beta,
            "primes": selection.primes,
        }
    best = getattr(exc, "best", None)
    if type(exc).__name__ == "ConvergenceError" and best is not None:
        return {
            **record,
            "outcome": "unreachable",
            "beta": best.predicted_beta,
            "selected": len(best.primes),
        }
    return {**record, **_failed(f"target {target}", exc)}


def beta_check(records, reference, floor: tuple[float, int] | None = None):
    """The worked example must match exactly; a converged target must land
    in [t, t + eps] exactly; ConvergenceError is right only below the floor,
    with every odd prime selected and a best beta still above the target."""
    floor_beta, prime_count = floor if floor is not None else beta_floor()
    verdicts = []
    for record in records:
        t = record["target"]
        if "error" in record:
            verdicts.append(record["error"])
        elif record["worked"]:
            ok = (
                record["outcome"] == "converged"
                and tuple(record["primes"]) == WORKED_PRIMES
                and record["beta"] == WORKED_BETA
            )
            verdicts.append(None if ok else "worked example differs from (3..19, 2048/4095)")
        elif record["outcome"] == "converged":
            ok = t <= record["beta"] <= t + record["eps"]
            verdicts.append(None if ok else f"target {t}: beta outside [t, t + eps]")
        elif float(t) >= floor_beta - 1e-9:
            verdicts.append(f"target {t}: unreachable above the floor {floor_beta:.6f}")
        elif record["selected"] != prime_count or record["beta"] < t:
            verdicts.append(f"target {t}: best selection is not the full product")
        else:
            verdicts.append(None)
    return verdicts


# ---------------------------------------------------------------------------
# identify_large


def identify_ops(grpinv, seed: int):
    def op(text):
        group = grpinv.evaluate(grpinv.parse_group_expr(text))
        inv = grpinv.invariants(group)
        return group.order, grpinv.identify(group), inv.i, inv.c

    return [(text, op) for text in IDENTIFY_EXPRS]


def identify_record(text, output, exc):
    if exc is not None:
        return {"expr": text, **_failed(text, exc)}
    order, name, i, c = output
    return {"expr": text, "order": order, "name": name, "i": i, "c": c}


def identify_check(records, reference):
    expected = {entry["expr"]: entry for entry in reference["identify_large"]}
    verdicts = []
    for record in records:
        if "error" in record:
            verdicts.append(record["error"])
        elif record != expected.get(record["expr"]):
            verdicts.append(f"{record['expr']}: got {record}, expected {expected.get(record['expr'])}")
        else:
            verdicts.append(None)
    return verdicts


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable
    record: Callable
    check: Callable
    params: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            census_ops,
            census_record,
            census_check,
            {"orders": [1, len(CENSUS_COUNTS)], "enum_cap": CENSUS_ENUM_CAP, "workers": "min(2, nproc)"},
        ),
        Workload(
            "lemmas",
            lemmas_ops,
            lemmas_record,
            lemmas_check,
            {"argv": list(LEMMAS_ARGV)},
        ),
        Workload(
            "beta_sweep",
            beta_ops,
            beta_record,
            beta_check,
            {
                "targets": BETA_TARGETS,
                "target_seed": BETA_TARGET_SEED,
                "eps": str(BETA_EPS),
                "prime_cap": BETA_PRIME_CAP,
            },
        ),
        Workload(
            "identify_large",
            identify_ops,
            identify_record,
            identify_check,
            {"exprs": list(IDENTIFY_EXPRS)},
        ),
    )
}
