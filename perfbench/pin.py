#!/usr/bin/env python3
"""Pin the expected outputs: run every workload once in a cold child and
write the digests of its outputs to expected.json.

    python3 perfbench/pin.py

Pin only from a tree whose verdicts are known to be right; the benchmark
then counts every output that differs from the pin as a failed operation.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, DEADLINE_S, ROOT, spawn


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {}
    for workload in (w["name"] for w in bench["workloads"]):
        rep = spawn(workload, seed=1, timeout=DEADLINE_S)
        if rep.status != "ok" or rep.errors:
            print(f"{workload}: {rep.status} {rep.errors}", file=sys.stderr)
            return 1
        expected[workload] = dict(sorted(rep.outputs.items()))
        print(f"{workload}: {len(rep.outputs)} outputs in {rep.wall_s:.2f} s")
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
