"""One cold benchmark process: set the address-space limit, import the
package, run one workload, report on stdout as JSON lines.

    python3 child.py WORKLOAD SEED SPAWNED LIMIT_MB [SPANS_PATH]

SPAWNED is the parent's time.monotonic() just before the spawn (the clock is
system-wide, so set-up time is measured across the two processes).  With
SPANS_PATH the run is traced and the spans are saved there.  Lines written:

    {"event": "ready", "setup_s": ..., ...}        after the imports
    {"event": "step", "step": ..., "seconds": ...} one per step that returned
    {"event": "output", "id": ..., "digest": ...}  one per checked output
    {"event": "error", "step": ..., "error": ...}  a step that raised
    {"event": "done", "wall_s": ..., "peak_rss_mb": ..., "layers": {...}}

Exit code 3 means the address-space limit was hit (MemoryError).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

EXIT_OOM = 3


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv: list[str]) -> int:
    workload, seed, spawned, limit_mb = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    spans_path = argv[4] if len(argv) > 4 else ""
    limit = limit_mb << 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    import numpy
    import mui  # noqa: F401  (the import is part of set-up)

    setup_s = time.monotonic() - spawned
    from workloads import TINY, WORKLOADS

    emit(
        "ready",
        setup_s=setup_s,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        blas_threads=blas_threads(),
    )
    if workload == "setup":
        return 0

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    steps = {**WORKLOADS, **TINY}[workload](seed)
    wall = 0.0
    clock = time.perf_counter
    for label, compute, check in steps:
        start = clock()
        try:
            result = compute()
        except MemoryError:
            emit("error", step=label, error="MemoryError")
            return EXIT_OOM
        except Exception as exc:  # a failed step is recorded, the run goes on
            wall += clock() - start
            traceback.print_exc()
            emit("error", step=label, error=f"{type(exc).__name__}: {exc}")
            continue
        seconds = clock() - start
        wall += seconds
        emit("step", step=label, seconds=seconds)
        try:
            digests = check(result)
        except Exception as exc:
            traceback.print_exc()
            emit("error", step=label, error=f"check: {type(exc).__name__}: {exc}")
            continue
        for oid, digest in digests.items():
            emit("output", id=oid, digest=digest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        layers = tracer.summarize()
        tracer.save(spans_path)
    emit("done", wall_s=wall, peak_rss_mb=peak_rss_mb, layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
