#!/usr/bin/env python3
"""Self-test of the benchmark's checking and failure accounting, at tiny
sizes (about 15 s on 2 cores).

    python3 perfbench/selftest.py

A correct run must score no failure; a wrong pinned digest, an exception in
a step, the address-space limit and the timeout must each count as failed
operations in the result the benchmark prints.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

from run import DEADLINE_S, ROOT, run, spawn


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = spawn("tiny", 1, DEADLINE_S).outputs
    wrong = dict(pinned)
    wrong["d=4"] = "dim=0;shape=0x0;sha256=" + "0" * 64

    def failed_share(workload: str, expected: dict[str, str]) -> float:
        result = run(workload, 1, 1, False, expected, bench)
        return result["failed"] / result["attempted"]

    timed_out = spawn("ess-rank4", 1, timeout=1.0)
    out_of_memory = spawn("tiny-oom", 1, DEADLINE_S)
    checks = [
        ("pinned outputs", len(pinned) == 3),
        ("correct run", failed_share("tiny", pinned) == 0),
        ("wrong digest", failed_share("tiny", wrong) == 1 / 3),
        ("exception", failed_share("tiny-raise", {"d=4": pinned["d=4"], "x1": "decomposed"}) == 1 / 2),
        ("memory limit", out_of_memory.status == "oom"
         and failed_share("tiny-oom", {"reserve": "ok"}) == 1),
        ("timeout", timed_out.status == "timeout"
         and timed_out.score({"d=15": "x", "d=16": "y"}) == (2, ["d=15", "d=16"])),
    ]
    for name, ok in checks:
        print(f"SELFTEST {name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
