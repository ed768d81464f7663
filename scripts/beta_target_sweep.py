#!/usr/bin/env python3
"""Convergence experiment for the greedy dihedral-product beta approximator.

Draws random rational targets, runs the greedy at a fixed tolerance, and
summarizes how many primes each run scanned.  Also prints the smallest
target reachable under the prime cap: the log series over the available
odd primes sums to a finite value S, so no target below exp(-S) can
converge no matter the tolerance.

Example:
    python scripts/beta_target_sweep.py --targets 200 --eps 1e-4 --low 0.05
"""

import argparse
import math
import random
import sys
from fractions import Fraction

from grpinv.arith import DEFAULT_PRIME_CAP
from grpinv.density import _log_floor, approximate_beta
from grpinv.errors import ConvergenceError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--targets", type=int, default=200)
    # Fraction parses decimal and exponent literals ("1e-4") exactly.
    parser.add_argument("--eps", type=Fraction, default="0.0001")
    parser.add_argument("--low", type=Fraction, default="0.05")
    parser.add_argument("--high", type=Fraction, default="0.99")
    parser.add_argument("--prime-cap", type=int, default=DEFAULT_PRIME_CAP)
    parser.add_argument("--seed", type=int, default=20250818)
    args = parser.parse_args()

    eps, low, high = args.eps, args.low, args.high

    series = _log_floor(args.prime_cap)
    floor = math.exp(-series)
    print(f"available log series up to {args.prime_cap}: {series:.6f}")
    print(f"=> smallest reachable target: {floor:.6f}\n")

    rng = random.Random(args.seed)
    grid = 10**4
    scanned: list[int] = []
    selected: list[int] = []
    failed: list[Fraction] = []
    for _ in range(args.targets):
        t = Fraction(rng.randint(int(low * grid), int(high * grid)), grid)
        try:
            sel = approximate_beta(t, eps, prime_cap=args.prime_cap)
        except ConvergenceError:
            failed.append(t)
            continue
        scanned.append(sel.primes_scanned)
        selected.append(len(sel.primes))

    converged = len(scanned)
    print(f"{converged}/{args.targets} targets converged at eps = {eps}")
    if scanned:
        scanned.sort()
        selected.sort()
        mid = converged // 2
        print(f"primes scanned: min {scanned[0]}, median {scanned[mid]}, max {scanned[-1]}")
        print(f"primes selected: min {selected[0]}, median {selected[mid]}, max {selected[-1]}")
    # Below the floor no tolerance converges; above it the cap ran out of
    # primes before reaching eps.
    below = [t for t in failed if t < floor]
    missed = [t for t in failed if t >= floor]
    for heading, group in (
        (f"unreachable targets (all below {floor:.6f}):", below),
        (
            f"targets above {floor:.6f} that missed eps under prime cap "
            f"{args.prime_cap}:",
            missed,
        ),
    ):
        if group:
            print(heading)
            for t in group:
                print(f"  {t} = {float(t):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
