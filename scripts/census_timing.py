#!/usr/bin/env python3
"""Enumerate all groups of each order up to a bound and report timings.

Example:
    python scripts/census_timing.py --max-order 16 --names
"""

import argparse
import sys

from grpinv.enumeration import enumerate_groups, known_census
from grpinv.iso import identify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=12)
    parser.add_argument(
        "--names", action="store_true", help="also identify each class"
    )
    args = parser.parse_args()

    total_elapsed = 0.0
    mismatches = 0
    for n in range(1, args.max_order + 1):
        result = enumerate_groups(n, enum_cap=args.max_order)
        total_elapsed += result.elapsed
        expected = known_census[n - 1] if n <= len(known_census) else None
        marker = ""
        if expected is not None and expected != len(result.groups):
            marker = f"  !! census says {expected}"
            mismatches += 1
        print(
            f"order {n:3d}: {len(result.groups):3d} classes  "
            f"{result.tables_explored:6d} tables  {result.elapsed:7.2f}s{marker}"
        )
        if args.names:
            for G in result.groups:
                print(f"    {identify(G) or 'unnamed'}")
    print(f"total enumeration time (search + dedup) {total_elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
