"""The benchmark workloads, run inside a fresh child process.

A workload is a generator of steps `(label, compute, check)`.  The child
times `compute()` only; `check(result)` runs afterwards and maps each output
of the step to a digest, which the parent compares with the pinned value in
`expected.json`.  Code between the yields (drawing seeded inputs) is not
timed either.  The package is reached through module attributes at call
time, so that the traced run sees the wrappers installed by `tracing.install`.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

# The six configurations of the repository's own end-to-end verification
# run: odd-p structure theory at (3,2), (3,3), (5,2), and p = 2 up to rank 4.
VERIFY_CONFIGS = ((3, 2, 20), (3, 3, 26), (5, 2, 12), (2, 2, 15), (2, 3, 15), (2, 4, 15))

# ess-rank4: the degrees whose joint restriction kernels are computed.
ESS_RING = (3, 4)
ESS_DEGREES = (15, 16)

# invariants-5_3: the table ring, and the fixed (exterior rank, degree gap)
# of each seeded decomposition round-trip; the seed draws only coefficients.
INVARIANT_RING = (5, 3)
ROUND_TRIPS = ((1, 0), (2, 1))

# The keys of a verification report that carry its verdict.  Timing and any
# observability fields the report may gain are left out of the digest.
REPORT_KEYS = ("claim", "p", "n", "degree_bound", "status", "cases")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    record = report.to_dict()
    return sha256(json.dumps({k: record[k] for k in REPORT_KEYS}, sort_keys=True))


def span_digest(span) -> str:
    rows = span.rows.astype("<i8")
    return f"dim={span.dim};shape={rows.shape[0]}x{rows.shape[1]};sha256={sha256(rows.tobytes())}"


def verify_suite(seed: int):
    """Every claim at every configuration; the seed is unused (fixed inputs)."""
    from mui import algebra, verify

    for p, n, max_degree in VERIFY_CONFIGS:
        label = f"{p}-{n}-{max_degree}"
        yield (
            label,
            lambda p=p, n=n, d=max_degree: verify.run_all(algebra.Ring(p, n), d),
            lambda reports, label=label: {
                f"{label}/{r.claim}": report_digest(r) for r in reports
            },
        )


def ess_rank4(seed: int):
    """Ess(V) at rank 4, p = 3, one degree per step; the seed is unused."""
    from mui import algebra, essential

    ring = algebra.Ring(*ESS_RING)
    for d in ESS_DEGREES:
        yield (
            f"d={d}",
            lambda d=d: essential.ess_basis(ring, d),
            lambda span, d=d: {f"d={d}": span_digest(span)},
        )


def _table_entry(label: str, element, word: str | None = None) -> str:
    text = f"{label} degree {element.total_degree()}"
    if word is not None:
        text += f" word {word}"
    return sha256(f"{text} = {element}")


def _random_poly(ring, rng: random.Random, degree: int):
    """Homogeneous polynomial over the rank-3 ring with every monomial of the
    degree present, each with a coefficient drawn from 1..p-1, so its size
    does not depend on the seed."""
    from mui import algebra

    terms = {}
    for i in range(degree + 1):
        for j in range(degree - i + 1):
            pows = (i, j, degree - i - j)
            terms[((), pows)] = rng.randrange(1, ring.p)
    return algebra.Element(ring.p, ring.n, terms)


def invariants_5_3(seed: int):
    """The invariant table at (5,3), then seeded decomposition round-trips."""
    from mui import algebra, essential, invariants, steenrod

    ring = algebra.Ring(*INVARIANT_RING)
    n = ring.n

    def entry(label, compute, word=None):
        return label, compute, lambda y: {label: _table_entry(label, y, word)}

    yield entry("L_n", lambda: invariants.l_n(ring))
    for s in range(1, n + 1):
        yield entry(f"M_(n,{s})", lambda s=s: invariants.mui(ring, s))
    for r in range(n + 1):
        for subset in combinations(range(1, n + 1), r):
            label = "M_(n,{" + ",".join(map(str, subset)) + "})"
            word = steenrod.format_word(essential.proof_word(ring, subset))
            yield entry(label, lambda subset=subset: invariants.mui_set(ring, subset), word)
    for r in range(n):
        yield entry(f"dickson c_(n,{r})", lambda r=r: invariants.dickson(ring, r))

    rng = random.Random(seed)
    for k, (rank, gap) in enumerate(ROUND_TRIPS, start=1):
        subsets = list(combinations(range(1, n + 1), rank))
        degrees = {s: invariants.subset_degree(ring, s) for s in subsets}
        target = max(degrees.values()) + 2 * gap
        coeffs = {
            s: _random_poly(ring, rng, (target - degrees[s]) // 2)
            if (target - degrees[s]) % 2 == 0
            else ring.zero()
            for s in subsets
        }

        def round_trip(coeffs=coeffs):
            y = ring.zero()
            for s, f in coeffs.items():
                y = y + f * invariants.mui_set(ring, s)
            return essential.decompose(y)

        label = f"round-trip[{k}:r={rank},gap={gap}]"
        yield (
            label,
            round_trip,
            lambda got, label=label, coeffs=coeffs: {
                label: "exact" if got == coeffs else "mismatch"
            },
        )


def tiny(seed: int):
    """A few claims and one kernel at (3,2): seconds' worth of real work."""
    from mui import algebra, essential, verify

    ring = algebra.Ring(3, 2)
    yield (
        "3-2-6",
        lambda: verify.run_all(ring, 6, ["lemma:Mns", "eq:MnST"]),
        lambda reports: {f"3-2-6/{r.claim}": report_digest(r) for r in reports},
    )
    yield "d=4", lambda: essential.ess_basis(ring, 4), lambda s: {"d=4": span_digest(s)}


def tiny_raise(seed: int):
    """One good step, then a decomposition of a class that is not essential."""
    from mui import algebra, essential

    ring = algebra.Ring(3, 2)
    yield "d=4", lambda: essential.ess_basis(ring, 4), lambda s: {"d=4": span_digest(s)}
    yield "x1", lambda: essential.decompose(ring.x(1)), lambda f: {"x1": "decomposed"}


def tiny_oom(seed: int):
    """One step that reserves 4 GiB without touching its pages: it fits in
    memory, but not under the benchmark's address-space limit."""
    import numpy as np

    yield "reserve", lambda: np.zeros(1 << 29, dtype=np.int64), lambda a: {"reserve": "ok"}


WORKLOADS = {
    "verify-suite": verify_suite,
    "ess-rank4": ess_rank4,
    "invariants-5_3": invariants_5_3,
}

# Small workloads for selftest.py, which checks the failure accounting.
TINY = {"tiny": tiny, "tiny-raise": tiny_raise, "tiny-oom": tiny_oom}
