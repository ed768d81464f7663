#!/usr/bin/env python3
"""Run every classification and lemma verification and print the reports.

Example:
    python scripts/verify_all.py --max-order 12
"""

import argparse
import sys
import time

from grpinv.classify import (
    check_unique_cyclic_normality,
    order12_case_f_report,
    verify_c_order_deficit,
    verify_involution_threshold,
    verify_semidirect_dichotomy,
    verify_theorem1,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=12)
    args = parser.parse_args()

    start = time.monotonic()
    top = args.max_order
    reports = list(verify_theorem1(top, enum_cap=top))
    reports.append(verify_involution_threshold(top, enum_cap=top))
    for r in (1, 2, 4):
        reports.append(verify_c_order_deficit(r, top, enum_cap=top))
    for n in (3, 5, 9, 25, 27, 49, 6, 10, 18):
        reports.append(verify_semidirect_dichotomy(n))
    reports.append(check_unique_cyclic_normality(top, enum_cap=top))
    reports.append(order12_case_f_report())

    failures = 0
    for report in reports:
        mark = "ok " if report.ok else "XX "
        print(f"{mark}[{report.claim}] {report.scope}")
        if report.witnesses:
            names = ", ".join(name for name, _ in report.witnesses)
            print(f"      {names}")
        if report.counterexample is not None:
            failures += 1
            print(f"      counterexample: {report.counterexample.description}")
    print(f"\n{len(reports)} reports, {failures} failures, "
          f"{time.monotonic() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
