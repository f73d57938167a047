"""Command-line front end.

Subcommands: invariant, apply, restrict, ess-basis, decompose, closure,
verify.  All output is deterministic; --json switches to machine-readable
reports.  The verify subcommand exits 0 exactly when every claim passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Element, Ring, monomial_degree
from .essential import MaximalSubgroup, decompose, ess_basis, restrict, steenrod_closure
from .invariants import dickson, l_n, mui, mui_set
from .linalg import monomial_basis
from .steenrod import apply_word, parse_word, word_degree
from .verify import ConfigError, check_decompose, check_degree, check_resources, run_all


def _ring(args, max_degree: int = 0) -> Ring:
    """The command's ring, refused by the resource guard of mui.verify when
    its bases up to max_degree or its subgroup count exceed the caps."""
    ring = Ring(args.p, args.n)
    check_resources(ring, max_degree)
    return ring


def _check_degree(ring: Ring, y: Element, extra: int = 0) -> None:
    """Refuse an input whose top term degree plus extra lies outside the
    degree range of mui.verify.  These verbs do sparse element work, so the
    dense-basis cap is left to the verbs that build a basis."""
    top = max((monomial_degree(ext, pows, ring.p) for ext, pows in y.terms), default=0)
    check_degree(top + extra)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="the prime")
    sub.add_argument("--n", type=int, required=True, help="the rank")
    sub.add_argument("--json", action="store_true", help="JSON output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mui",
        description="Exact invariants, Steenrod action and essential-ideal "
        "verification for elementary abelian p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="print a named invariant")
    p_inv.add_argument("kind", choices=["L", "M", "Mset", "dickson"])
    p_inv.add_argument("--s", type=int, help="row index for M")
    p_inv.add_argument("--S", type=str, help="comma-separated subset for Mset")
    p_inv.add_argument("--r", type=int, help="Dickson index")
    _add_common(p_inv)

    p_apply = sub.add_parser("apply", help="apply an operation word to an element")
    p_apply.add_argument("word", help='e.g. "P3 b P1" (rightmost op first)')
    p_apply.add_argument("element", help='e.g. "a1*x2 + 2*a2*x1"')
    _add_common(p_apply)

    p_res = sub.add_parser("restrict", help="restrict an element to a maximal subgroup")
    p_res.add_argument("element")
    p_res.add_argument(
        "--form", required=True, help="comma-separated linear form, e.g. 0,1"
    )
    _add_common(p_res)

    p_ess = sub.add_parser("ess-basis", help="basis of the essential classes of one degree")
    p_ess.add_argument("--degree", "-d", type=int, required=True)
    _add_common(p_ess)

    p_dec = sub.add_parser("decompose", help="free-module coordinates of an essential class")
    p_dec.add_argument("element")
    _add_common(p_dec)

    p_clo = sub.add_parser("closure", help="degreewise Steenrod closure of an element")
    p_clo.add_argument("element")
    p_clo.add_argument("--max-degree", type=int, required=True)
    _add_common(p_clo)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--max-degree", type=int, default=12)
    p_ver.add_argument("--claims", type=str, help="comma-separated claim ids")
    _add_common(p_ver)

    return parser


def _cmd_invariant(args) -> int:
    ring = _ring(args)
    if args.kind == "L":
        result = l_n(ring)
    elif args.kind == "M":
        if args.s is None:
            raise ConfigError("M needs --s")
        result = mui(ring, args.s)
    elif args.kind == "Mset":
        if args.S is None:
            raise ConfigError("Mset needs --S")
        subset = tuple(int(t) for t in args.S.split(",") if t.strip())
        result = mui_set(ring, subset)
    else:
        if args.r is None:
            raise ConfigError("dickson needs --r")
        result = dickson(ring, args.r)
    print(json.dumps({"element": str(result)}) if args.json else result)
    return 0


def _cmd_apply(args) -> int:
    ring = _ring(args)
    word = parse_word(args.word, ring.p)
    y = ring.parse(args.element)
    _check_degree(ring, y, word_degree(word, ring.p))
    result = apply_word(word, y)
    print(json.dumps({"element": str(result)}) if args.json else result)
    return 0


def _cmd_restrict(args) -> int:
    ring = _ring(args)
    # MaximalSubgroup refuses a zero form or one of the wrong length
    form = tuple(int(t) % ring.p for t in args.form.split(","))
    lead = next((c for c in form if c), 1)
    H = MaximalSubgroup(ring, tuple(c * pow(lead, -1, ring.p) % ring.p for c in form))
    y = ring.parse(args.element)
    _check_degree(ring, y)
    result = restrict(y, H)
    print(json.dumps({"element": str(result)}) if args.json else result)
    return 0


def _cmd_ess_basis(args) -> int:
    ring = _ring(args, args.degree)
    span = ess_basis(ring, args.degree)
    basis = monomial_basis(ring, args.degree)
    texts = [str(basis.element(row)) for row in span.rows]
    if args.json:
        print(json.dumps({"degree": args.degree, "dim": span.dim, "basis": texts}))
    else:
        print(f"dim {span.dim}")
        for text in texts:
            print(text)
    return 0


def _cmd_decompose(args) -> int:
    ring = _ring(args)
    y = ring.parse(args.element)
    # bounded by the input alone: deg y + deg M_T >= deg L_n + n for every
    # essential y, so a bound on the product degree would refuse them all
    # wherever L_n is large
    _check_degree(ring, y)
    check_decompose(ring, y)
    parts = decompose(y)
    if args.json:
        print(
            json.dumps(
                {",".join(map(str, s)): str(f) for s, f in sorted(parts.items())}
            )
        )
    else:
        for subset, f in sorted(parts.items()):
            print("S={" + ",".join(map(str, subset)) + "}: " + str(f))
    return 0


def _cmd_closure(args) -> int:
    ring = _ring(args, args.max_degree)
    seed = ring.parse(args.element)
    spans = steenrod_closure(seed, args.max_degree)
    if args.json:
        print(json.dumps({str(d): spans[d].dim for d in sorted(spans)}))
    else:
        for d in sorted(spans):
            print(f"d={d} dim={spans[d].dim}")
    return 0


def _cmd_verify(args) -> int:
    ring = _ring(args, args.max_degree)
    claims = None
    if args.claims:
        claims = [t.strip() for t in args.claims.split(",") if t.strip()]
    reports = run_all(ring, args.max_degree, claims)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for r in reports:
            print(
                f"{r.claim:<22} {r.status:<4} "
                f"({len(r.cases)} cases, {r.runtime_ms:.0f} ms)"
            )
            for c in r.failures():
                print(f"  FAIL {c.id}: expected {c.expected}, got {c.actual}")
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "invariant": _cmd_invariant,
    "apply": _cmd_apply,
    "restrict": _cmd_restrict,
    "ess-basis": _cmd_ess_basis,
    "decompose": _cmd_decompose,
    "closure": _cmd_closure,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # ParseError and ConfigError are ValueErrors; RuntimeError is the
    # closure dimension cap; a bare MemoryError has an empty message
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ZeroDivisionError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
