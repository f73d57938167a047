#!/usr/bin/env python3
"""Benchmark of the mui kernel: cold-process workloads, checked exactly.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every repetition of a workload runs in a fresh child process (child.py), so
all caches start cold, as in every `mui` CLI call and script run.  Each child
runs under an address-space limit and a wall-clock timeout; running out of
either is a recorded failure, not a crash of the benchmark.  Every output is
compared with the digest pinned in expected.json, outside the timed interval.

--trace 0 repeats the workload for about --seconds and reports the
end-to-end metrics of BENCHMARK.json as medians over the repetitions:
wall_s, setup_s (also sampled by import-only children) and peak_rss_mb.
--trace 1 runs the workload once untraced and once traced (tracing.py) and
reports the per-layer metrics; `verify.claim.<id>.s` and
`verify.config.<p>-<n>-<d>.s` are inclusive times, so a claim's time holds
the shared cache warm-up it happens to trigger first.

The last line of stdout is the JSON result (for `all`, the workloads'
results merged).  A run record (versions, core and BLAS thread counts,
per-repetition figures) goes to .perfbench-out/.  With no package source
next to the benchmark the command exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import EXIT_OOM

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 3  # import-only children before each repetition and after the last
LIMIT_MB = 2048  # address-space limit of every workload child
DEADLINE_S = 165.0  # every child of one run is stopped by then


class SetupError(RuntimeError):
    """The package cannot be imported here; no result can be measured."""


@dataclass
class Rep:
    """One child process: what it reported and how it ended."""

    status: str = "ok"
    ready: dict | None = None
    outputs: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    steps: dict[str, float] = field(default_factory=dict)
    wall_s: float | None = None
    peak_rss_mb: float | None = None
    elapsed_s: float = 0.0
    layers: dict | None = None
    failed_ids: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float | None:
        return self.ready["setup_s"] if self.ready else None

    def score(self, expected: dict[str, str]) -> tuple[int, list[str]]:
        """(attempted, failed output ids): a pinned output is missing or
        differs, or an output nobody pinned appears."""
        failed = [oid for oid, digest in expected.items() if self.outputs.get(oid) != digest]
        unpinned = [oid for oid in self.outputs if oid not in expected]
        return len(expected) + len(unpinned), failed + unpinned


def spawn(workload: str, seed: int, timeout: float, spans_path: str = "") -> Rep:
    """Run child.py once and collect its report; never leaves it running."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
           repr(spawned), str(LIMIT_MB)] + ([spans_path] if spans_path else [])
    rep = Rep()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            rep.status = "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    rep.elapsed_s = time.monotonic() - spawned
    done = False
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        event = msg.get("event") if isinstance(msg, dict) else None
        if event == "ready":
            rep.ready = msg
        elif event == "step":
            rep.steps[msg["step"]] = msg["seconds"]
        elif event == "output":
            rep.outputs[msg["id"]] = msg["digest"]
        elif event == "error":
            rep.errors.append(f"{msg['step']}: {msg['error']}")
        elif event == "done":
            done = True
            rep.wall_s = msg["wall_s"]
            rep.peak_rss_mb = msg["peak_rss_mb"]
            rep.layers = msg["layers"]
    if rep.status == "ok":
        code = proc.returncode
        if code == EXIT_OOM:
            rep.status = "oom"
        elif code < 0:
            rep.status = f"signal {-code}"
        elif code or not done:
            rep.status = f"exit {code}"
    if rep.wall_s is None:
        rep.wall_s = rep.elapsed_s - (rep.setup_s or 0.0)
    return rep


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_value(name: str, layers: dict) -> float:
    """A per-layer metric from a traced child's summary: `<span>.s` is the
    span's inclusive time, any other name is looked up as it stands."""
    key = name[: -len(".s")] + ".total_s" if name.endswith(".s") else name
    return layers.get(key, 0)


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Spawn the children of one run: (set-up samples, untraced repetitions,
    traced repetition or None)."""
    deadline = time.monotonic() + DEADLINE_S

    def left() -> float:
        return deadline - time.monotonic()

    def first(rep: Rep) -> Rep:
        if rep.ready is None:
            raise SetupError(f"the child could not import the package ({rep.status})")
        return rep

    if traced:
        rep = first(spawn(workload, seed, left()))
        spans = OUT / f"spans-{workload}.npz"
        return [], [rep], spawn(workload, seed, left(), spans_path=str(spans))
    # set-up is sampled around every repetition, so that its median spans
    # the whole run and not only its first seconds
    setups = [first(spawn("setup", seed, left()))]
    reps: list[Rep] = []
    measure_start = time.monotonic()
    while True:
        setups += [spawn("setup", seed, left()) for _ in range(SETUP_SAMPLES)]
        reps.append(spawn(workload, seed, left()))
        typical = statistics.median(r.elapsed_s for r in reps)
        elapsed = time.monotonic() - measure_start
        if elapsed + typical > seconds or left() < 2 * typical:
            break
    setups += [spawn("setup", seed, left()) for _ in range(SETUP_SAMPLES)]
    return setups, reps, None


def run(workload: str, seed: int, seconds: float, traced: bool,
        expected: dict[str, str], bench: dict) -> dict:
    """Measure one run, write its record, print its summary; returns the
    result object of the benchmark contract."""
    OUT.mkdir(exist_ok=True)
    setups, reps, traced_rep = measure(workload, seed, seconds, traced)
    checked = reps + ([traced_rep] if traced_rep else [])
    attempted = failed = 0
    for rep in checked:
        n, rep.failed_ids = rep.score(expected)
        attempted += n
        failed += len(rep.failed_ids)

    walls = [r.wall_s for r in reps]
    setup_values = [r.setup_s for r in setups + reps if r.setup_s is not None]
    metrics: dict[str, float] = {}
    if traced:
        layers = traced_rep.layers or {}
        for m in bench["per_layer"]:
            metrics[m["name"]] = layer_value(m["name"], layers)
        metrics["trace.overhead_s"] = traced_rep.wall_s - statistics.median(walls)
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setup_values)
        rss = [r.peak_rss_mb for r in reps if r.peak_rss_mb is not None]
        # no child finished: the largest RSS of any child this process reaped
        metrics["peak_rss_mb"] = statistics.median(rss) if rss else (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)

    info = (setups + reps)[0].ready
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "git_sha": git_sha(),
        "python": info["python"],
        "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": info["blas_threads"],
        "reps": [
            {"status": r.status, "setup_s": r.setup_s, "wall_s": r.wall_s,
             "peak_rss_mb": r.peak_rss_mb, "elapsed_s": r.elapsed_s,
             "steps": r.steps, "errors": r.errors, "failed": r.failed_ids}
            for r in checked
        ],
        "setup_samples_s": setup_values,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"record-{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  "
          f"git {record['git_sha'] or 'unknown'}  python {record['python']}  "
          f"numpy {record['numpy']}  nproc {record['nproc']}  "
          f"blas_threads {record['blas_threads']}")
    for r in checked:
        setup = "-" if r.setup_s is None else f"{r.setup_s:.4f}"
        print(f"  child {r.status:<8} wall {r.wall_s:.4f} s  setup {setup} s  "
              f"failed {len(r.failed_ids)}" + "".join(f"\n    {e}" for e in r.errors))
    if traced:
        for name, value in metrics.items():
            if value:
                print(f"  {name:<36} {value:>14.6g} {units[name]}")
    else:
        for name, values in (("wall_s", walls), ("setup_s", setup_values)):
            q1, med, q3 = quartiles(values)
            print(f"  {name:<12} {med:10.4f} s   median of {len(values)}; "
                  f"q1 {q1:.4f}  q3 {q3:.4f}")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:10.2f} MB  median of {len(rss)}")
    print(f"  failed_share {failed / attempted:10.4f}     {failed} of {attempted} "
          f"operations failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn()'s cleanup, so no child outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "mui" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'mui'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    results = {}
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            results[workload] = run(workload, args.seed, args.seconds,
                                    bool(args.trace), expected[workload], bench)
    except SetupError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
