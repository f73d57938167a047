#!/usr/bin/env python3
"""Run the full verification suite over the standard desk-scale
configurations and print a result table; optionally dump JSON reports.

Usage:
    python scripts/run_verification.py [--json reports.json]

Exits 1 when any report fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from mui import Ring, run_all

# (p, n, degree bound) pairs: the odd-p structure theory at (3,2), (3,3),
# (5,2) and the mod-2 principal-ideal picture up to rank 4.
CONFIGS = [
    (3, 2, 20),
    (3, 3, 26),
    (5, 2, 12),
    (2, 2, 15),
    (2, 3, 15),
    (2, 4, 15),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write all reports as JSON")
    args = parser.parse_args(argv)

    all_reports = []
    failures = 0
    start = time.perf_counter()
    for p, n, max_degree in CONFIGS:
        ring = Ring(p, n)
        print(f"== p={p}, n={n}, degrees 0..{max_degree} ==")
        for report in run_all(ring, max_degree):
            all_reports.append(report)
            mark = "pass" if report.passed else "FAIL"
            print(
                f"  {report.claim:<22} {mark:<4} "
                f"({len(report.cases)} cases, {report.runtime_ms:.0f} ms)"
            )
            if not report.passed:
                failures += 1
                for case in report.failures()[:5]:
                    print(f"    {case.id}: expected {case.expected}, got {case.actual}")
    elapsed = time.perf_counter() - start
    print(f"\n{len(all_reports)} reports, {failures} failures, {elapsed:.1f}s total")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.to_dict() for r in all_reports], handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
