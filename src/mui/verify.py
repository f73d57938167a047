"""Machine verification of the ring and module identities, degreewise.

Each claim is an exact check: identities compare canonical elements, ideal
and module statements compare RREF spans degree by degree up to the
configured bound.  A claim quantified over an infinite range is checked on
the finite range recorded in its case ids; nothing is proved beyond that.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .algebra import Element, Ring
from .essential import (
    ConfigError,
    _image_rows,
    _left_product,
    _mui_terms,
    _product_map,
    _quotient_degree,
    decompose_rows,
    ess_basis,
    ess_basis_by_rank,
    maximal_subgroups,
    proof_word,
    restrict,
    steenrod_closure,
)
from .invariants import (
    det,
    fundamental_coefficients,
    l_n,
    mui,
    mui_set,
    product_sign,
    subset_degree,
    _power_entry,
)
from .linalg import (
    DegreeSpan,
    _exponents,
    basis_dimension,
    monomial_basis,
    pruned_null_space,
    rref_stack,
)
from .steenrod import apply_word, bockstein, format_word, power_op


# lemma:eqnLn and the enumeration of maximal subgroups loop over all p^n
# vectors of F_p^n; the cap also keeps p far below linalg.MAX_PRIME.
MAX_AFFINE_POINTS = 10**6
MAX_PROJECTIVE_POINTS = 4000
MAX_BASIS_DIMENSION = 30000
MAX_DEGREE = 200


def check_degree(max_degree: int) -> None:
    """Reject a degree outside 0..MAX_DEGREE."""
    if max_degree < 0 or max_degree > MAX_DEGREE:
        raise ConfigError(f"max degree must lie in 0..{MAX_DEGREE}")


def check_resources(ring: Ring, max_degree: int) -> None:
    """Reject configurations whose loops over F_p^n or degreewise bases
    would be too large."""
    # p^n >= 2^n, so a long exponent is refused before p^n is computed
    if ring.n >= MAX_AFFINE_POINTS.bit_length() or ring.p**ring.n > MAX_AFFINE_POINTS:
        raise ConfigError(
            f"p={ring.p}, n={ring.n}: F_p^n has more than {MAX_AFFINE_POINTS} "
            "vectors to loop over"
        )
    points = (ring.p**ring.n - 1) // (ring.p - 1)
    if points > MAX_PROJECTIVE_POINTS:
        raise ConfigError(
            f"p={ring.p}, n={ring.n} has {points} maximal subgroups "
            f"(cap {MAX_PROJECTIVE_POINTS})"
        )
    check_degree(max_degree)
    dim = basis_dimension(ring, max_degree)
    if dim > MAX_BASIS_DIMENSION:
        raise ConfigError(
            f"degree {max_degree} at p={ring.p}, n={ring.n} has a basis of "
            f"dimension {dim} (cap {MAX_BASIS_DIMENSION})"
        )


@dataclass
class Case:
    id: str
    expected: str
    actual: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    claim: str
    p: int
    n: int
    degree_bound: int
    status: str
    cases: list[Case] = dc_field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "p": self.p,
            "n": self.n,
            "degree_bound": self.degree_bound,
            "status": self.status,
            "cases": [c.to_dict() for c in self.cases],
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def failures(self) -> list[Case]:
        return [c for c in self.cases if not c.passed]


def _element_case(cid: str, expected: Element, actual: Element) -> Case:
    return Case(cid, str(expected), str(actual), expected == actual)


def _span_case(cid: str, ring: Ring, expected: DegreeSpan, actual: DegreeSpan) -> Case:
    if expected == actual:
        return Case(cid, f"dim={expected.dim}", f"dim={actual.dim}", True)
    basis = monomial_basis(ring, actual.degree)
    detail = ""
    # the first row of either span outside the other, all reduced at once
    for word, rows, span in (("unexpected", actual.rows, expected), ("missing", expected.rows, actual)):
        if len(out := np.flatnonzero(span._outside(rows))):
            detail = f"; {word} element {basis.element(rows[out[0]])}"
            break
    return Case(cid, f"dim={expected.dim}", f"dim={actual.dim}{detail}", False)


def _full_subset(ring: Ring) -> tuple[int, ...]:
    return tuple(range(1, ring.n + 1))


def _all_subsets(ring: Ring):
    for r in range(ring.n + 1):
        yield from combinations(range(1, ring.n + 1), r)


def _subset_label(subset: tuple[int, ...]) -> str:
    return "{" + ",".join(map(str, subset)) + "}"


# -- claim checks --------------------------------------------------------


def _check_eqn_ln(ring: Ring, max_degree: int) -> list[Case]:
    """Determinant of the power matrix vs the product of all monic linear
    forms, one per projective point.

    Monic here means the last nonzero coefficient is 1; that normalization
    makes the product equal the determinant exactly (with first-nonzero
    normalization the product comes out as -L_n at odd p).
    """
    from itertools import product as iproduct

    prod = ring.one()
    for vec in iproduct(range(ring.p), repeat=ring.n):
        if not any(vec):
            continue
        if [c for c in vec if c][-1] != 1:
            continue
        linear = ring.zero()
        for i, c in enumerate(vec, start=1):
            if c:
                linear = linear + ring.x(i) * c
        prod = prod * linear
    return [_element_case("det-equals-monic-product", prod, l_n(ring))]


def _product_span(ring: Ring, d: int, factors) -> DegreeSpan:
    """The span in degree d of the products u v over the (us, vs, d') in
    factors: u a coordinate row of us in degree d - d', v one of vs in d'."""
    width = basis_dimension(ring, d)
    blocks = []
    for us, vs, d2 in factors:
        k, col = np.nonzero(us)
        masks, pows = monomial_basis(ring, d - d2).arrays
        support = np.flatnonzero(vs.any(axis=0))
        v_masks, v_pows = (a[support] for a in monomial_basis(ring, d2).arrays)
        maps = _product_map(ring, d2, v_masks, v_pows, (k, masks[col], pows[col], us[k, col]))
        blocks += _image_rows(vs[:, support], *maps, width, ring.p)
    return DegreeSpan(ring.p, d, rref_stack(blocks, ring.p, width))


def _check_p2(ring: Ring, max_degree: int) -> list[Case]:
    """At p = 2 the essential ideal is principal on L_n: free of rank one
    over the polynomial ring, and the Steenrod closure of that generator.
    The span of L_n F_2[x] in degree d is the image of multiplication by
    L_n on the whole degree d - deg L_n."""
    big_l = l_n(ring)
    deg_l = big_l.total_degree()
    cases = []
    for d in range(max_degree + 1):
        actual = ess_basis(ring, d)
        count = basis_dimension(ring, d - deg_l) if d >= deg_l else 0
        whole = [(_l_n_row(ring), np.eye(count, dtype=np.uint8), d - deg_l)] if count else []
        expected = _product_span(ring, d, whole)
        cases.append(_span_case(f"principal[d={d}]", ring, expected, actual))
        cases.append(
            Case(
                f"free-rank-count[d={d}]",
                f"dim={count}",
                f"dim={actual.dim}",
                actual.dim == count,
            )
        )
    closure = steenrod_closure(big_l, max_degree)
    for d in range(max_degree + 1):
        cases.append(
            _span_case(f"closure[d={d}]", ring, ess_basis(ring, d), closure[d])
        )
    return cases


def _check_mns(ring: Ring, max_degree: int) -> list[Case]:
    """Each M_{n,s} has exterior rank one and restricts to zero everywhere."""
    cases = []
    subs = maximal_subgroups(ring)
    for s in range(1, ring.n + 1):
        m = mui(ring, s)
        cases.append(_element_case(f"rank-one[s={s}]", m.project(1), m))
        bad = next((H for H in subs if not restrict(m, H).is_zero()), None)
        cases.append(
            Case(
                f"restricts-to-zero[s={s}]",
                f"0 on all {len(subs)} subgroups",
                "0 on all subgroups"
                if bad is None
                else f"restriction to {bad.form} is {restrict(m, bad)}",
                bad is None,
            )
        )
    return cases


def _l_n_row(ring: Ring) -> np.ndarray:
    """L_n as a coordinate row of its degree."""
    big_l = l_n(ring)
    return monomial_basis(ring, big_l.total_degree()).coords(big_l)[None]


def _ess_squared_spans(ring: Ring, d: int) -> tuple[DegreeSpan, DegreeSpan]:
    """The span in degree d of L_n times the essential classes, and that of
    the products of two essential classes.  The products u v take u of
    degree d1 <= d / 2: the others are the same up to sign."""
    deg_l = l_n(ring).total_degree()
    multiples = [(_l_n_row(ring), ess_basis(ring, d - deg_l).rows, d - deg_l)] if d >= deg_l else []
    products = [(ess_basis(ring, d1).rows, ess_basis(ring, d - d1).rows, d - d1)
                for d1 in range(1, d // 2 + 1)]
    return _product_span(ring, d, multiples), _product_span(ring, d, products)


def _check_ess_squared(ring: Ring, max_degree: int) -> list[Case]:
    """Products of essential classes span exactly L_n times the essentials,
    degree by degree."""
    return [_span_case(f"square[d={d}]", ring, *_ess_squared_spans(ring, d))
            for d in range(max_degree + 1)]


def _check_mnst(ring: Ring, max_degree: int) -> list[Case]:
    """M_S * M_T is product_sign(S, T) * L_n * M_{S u T} for disjoint S, T,
    else 0.  L_n * M_U is built once per union U."""
    cases = []
    multiples = {u: l_n(ring) * mui_set(ring, u) for u in _all_subsets(ring)}
    for s_set in _all_subsets(ring):
        for t_set in _all_subsets(ring):
            prod = mui_set(ring, s_set) * mui_set(ring, t_set)
            cid = f"S={_subset_label(s_set)},T={_subset_label(t_set)}"
            if set(s_set) & set(t_set):
                cases.append(_element_case(cid, ring.zero(), prod))
            else:
                sign = product_sign(s_set, t_set)
                target = multiples[tuple(sorted(s_set + t_set))] * sign
                ok = prod == target
                actual = "matched" if ok else f"{prod}; sign {sign:+d} expected"
                cases.append(Case(cid, "+-L_n*M_(S u T)", actual, ok))
    return cases


@lru_cache(maxsize=None)
def _joint_annihilator(ring: Ring, d: int, subsets: tuple[tuple[int, ...], ...]) -> DegreeSpan:
    """Kernel of y -> (M_S * y)_S on the degree-d basis; cached, since
    coroll:jointAnn2 at r = 1 asks for the subsets of lemma:jointAnn.

    Each M_S * y is _product_map.  At odd p every monomial of degree d has
    exterior rank d mod 2, so M_S * y = (-1)^(d |S|) y * M_S: each block of
    rows changes by one sign, and the kernel is that of the right products.
    The maps go to pruned_null_space as they are."""
    arrays = monomial_basis(ring, d).arrays
    maps = [_product_map(ring, d, *arrays, _mui_terms(ring, s))[:3] for s in subsets]
    return DegreeSpan(ring.p, d, pruned_null_space(maps, basis_dimension(ring, d), ring.p))


def _high_rank_span(ring: Ring, d: int, min_rank: int) -> DegreeSpan:
    """The span of the monomials of exterior rank at least min_rank: the
    runs come by rank descending, so these are the first ones."""
    basis = monomial_basis(ring, d)
    top = max((run.stop for r, run in basis.runs.items() if r >= min_rank), default=0)
    return DegreeSpan(ring.p, d, np.eye(top, len(basis), dtype=np.min_scalar_type(ring.p - 1)))


def _joint_ann_cases(ring: Ring, max_degree: int, r: int, prefix: str) -> list[Case]:
    """The joint annihilator of the rank-r subset invariants against the sum
    of the exterior ranks above n - r, degree by degree, as the cases
    annihilator[<prefix>d=...]."""
    subsets = tuple(combinations(range(1, ring.n + 1), r))
    return [_span_case(f"annihilator[{prefix}d={d}]", ring, _high_rank_span(ring, d, ring.n - r + 1),
                       _joint_annihilator(ring, d, subsets))
            for d in range(max_degree + 1)]


def _check_joint_ann(ring: Ring, max_degree: int) -> list[Case]:
    """The joint annihilator of the rank-one invariants is the top exterior
    rank, degree by degree."""
    return _joint_ann_cases(ring, max_degree, 1, "")


def _check_joint_ann2(ring: Ring, max_degree: int) -> list[Case]:
    """The joint annihilator of the rank-r subset invariants is the sum of
    the exterior ranks above n - r."""
    return [case for r in range(1, ring.n + 1)
            for case in _joint_ann_cases(ring, max_degree, r, f"r={r},")]


def _check_mns_nonzero(ring: Ring, max_degree: int) -> list[Case]:
    """Every subset invariant is nonzero; the full one is a nonzero scalar
    times the top exterior monomial."""
    cases = []
    for subset in _all_subsets(ring):
        m = mui_set(ring, subset)
        cases.append(
            Case(
                f"nonzero[{_subset_label(subset)}]",
                "nonzero",
                str(m) if m.is_zero() else "nonzero",
                not m.is_zero(),
            )
        )
    full = _full_subset(ring)
    top = mui_set(ring, full)
    lam = top.coefficient(full, (0,) * ring.n)
    expected = ring.monomial(full, None, lam) if lam else ring.zero()
    ok = lam != 0 and top == expected
    cases.append(
        Case(
            "top-is-scalar-multiple",
            "lambda * a_1...a_n, lambda != 0",
            str(top),
            ok,
        )
    )
    return cases


def _random_coefficients(ring: Ring, rng: random.Random, poly_degree: int) -> np.ndarray:
    """The coordinate row of a random homogeneous polynomial of the given
    polynomial degree, one draw per exponent vector in _exponents order
    (none for a negative degree)."""
    return np.array([rng.randrange(ring.p) for _ in range(len(_exponents(poly_degree, ring.n)))],
                    dtype=np.int64)


def _error_text(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _check_free(ring: Ring, max_degree: int) -> list[Case]:
    """The essential ideal is a free module on the subset invariants: random
    coordinate vectors round-trip, and every degreewise essential basis element
    decomposes (decompose_rows checks its own reconstruction).

    The trials are drawn first, in order; then each group of trials with
    the same exterior rank and degree is built as sum f_S M_{n,S} by the
    product map and decomposed in one decompose_rows call, and each
    (degree, rank) span of the essential basis in another."""
    rng = random.Random(20080925)
    n = ring.n
    trials = 100
    groups = defaultdict(list)
    for trial in range(trials):
        r = rng.randrange(n + 1)
        subsets = list(combinations(range(1, n + 1), r))
        target = max(subset_degree(ring, s) for s in subsets) + 2 * rng.randrange(4)
        # every deg M_{n,S} with |S| = r has the parity of r, so each gap is
        # even; f_S has no coefficients where it is negative
        groups[r, target].append(
            (trial, {s: _random_coefficients(ring, rng, _quotient_degree(ring, target, s))
                     for s in subsets}))
    bad = {}
    for (r, target), group in groups.items():
        basis = monomial_basis(ring, target)
        run = basis.run(r)
        ys = np.zeros((len(group), run.stop - run.start), dtype=np.int64)
        coeffs = {}
        for s in group[0][1]:
            coeffs[s] = np.array([c[s] for _, c in group])
            if coeffs[s].shape[1]:
                ys += _left_product(ring, _mui_terms(ring, s), coeffs[s],
                                    2 * _quotient_degree(ring, target, s), 0)
        ys %= ring.p
        # the zero combination carries no information; skip
        live = np.flatnonzero(ys.any(axis=1))
        got, errors = decompose_rows(ring, target, r, ys[live])
        for j, i in enumerate(live.tolist()):
            error = errors[j]
            if error is None and all(np.array_equal(got[s][j], f[i]) for s, f in coeffs.items()):
                continue
            y = basis.element(ys[i], r)
            bad[group[i][0]] = f"y={y}" + ("" if error is None else f" ({_error_text(error)})")
    first = min(bad, default=None)
    cases = [
        Case(
            f"round-trip[trials=1..{trials}]",
            f"{trials} exact",
            f"{trials - len(bad)} exact" + (f"; trial {first}: {bad[first]}" if bad else ""),
            not bad,
        )
    ]
    bound = min(max_degree, 20)
    for d in range(bound + 1):
        basis = monomial_basis(ring, d)
        for r, span in sorted(ess_basis_by_rank(ring, d).items()):
            if span.dim == 0:
                continue
            _, errors = decompose_rows(ring, d, r, span.rows[:, basis.run(r)])
            fail = next((i for i, err in enumerate(errors) if err is not None), None)
            cases.append(
                Case(
                    f"spanning[d={d},r={r}]",
                    f"{span.dim} elements decompose",
                    "all decompose" if fail is None else
                    f"failed on {basis.element(span.rows[fail])} "
                    f"({_error_text(errors[fail])})",
                    fail is None,
                )
            )
    return cases


def _check_beta_mns(ring: Ring, max_degree: int) -> list[Case]:
    """Bockstein values: beta(M_1) = L_n, beta(M_s) = 0 for s > 1,
    beta(L_n) = 0."""
    cases = []
    for s in range(1, ring.n + 1):
        expected = l_n(ring) if s == 1 else ring.zero()
        cases.append(_element_case(f"beta(M_{s})", expected, bockstein(mui(ring, s))))
    cases.append(_element_case("beta(L_n)", ring.zero(), bockstein(l_n(ring))))
    return cases


def _check_rp_mns(ring: Ring, max_degree: int) -> list[Case]:
    """P^(p^s) sends M_{s+2} to M_{s+1} and kills every other M_r and L_n,
    for 0 <= s <= n-2."""
    cases = []
    for s in range(ring.n - 1):
        k = ring.p**s
        for r in range(1, ring.n + 1):
            expected = mui(ring, r - 1) if r == s + 2 else ring.zero()
            cases.append(
                _element_case(f"P{k}(M_{r})", expected, power_op(k, mui(ring, r)))
            )
        cases.append(_element_case(f"P{k}(L_n)", ring.zero(), power_op(k, l_n(ring))))
    return cases


def _check_steenrod_mns(ring: Ring, max_degree: int) -> list[Case]:
    """The five interaction identities between the operations and the subset
    invariants; the power-operation index m runs over 1..p^(n-1)-1."""
    n, p = ring.n, ring.p
    big_l = l_n(ring)
    top_m = p ** (n - 1)
    cases = []
    # part 1: dropping the Bockstein onto S u {1} recovers M_S
    for subset in _all_subsets(ring):
        if 1 in subset or len(subset) == n:
            continue
        enlarged = tuple(sorted((1,) + subset))
        cases.append(
            _element_case(
                f"part1[S={_subset_label(subset)}]",
                mui_set(ring, subset),
                bockstein(mui_set(ring, enlarged)),
            )
        )
    # part 2: L^(r-1) P^m(M_S) = P^m(product of the M_s)
    for subset in _all_subsets(ring):
        r = len(subset)
        if r == 0:
            continue
        prod = ring.one()
        for s in subset:
            prod = prod * mui(ring, s)
        for m in range(1, top_m):
            lhs = big_l ** (r - 1) * power_op(m, mui_set(ring, subset))
            rhs = power_op(m, prod)
            cases.append(
                _element_case(f"part2[S={_subset_label(subset)},m={m}]", rhs, lhs)
            )
    # part 3: L * P^(p^(u-2))(M_S) factors through the split at u
    for subset in _all_subsets(ring):
        if not subset:
            continue
        for u in range(2, n + 1):
            k = p ** (u - 2)
            low = tuple(s for s in subset if s <= u)
            high = tuple(s for s in subset if s > u)
            lhs = big_l * power_op(k, mui_set(ring, subset))
            rhs = power_op(k, mui_set(ring, low)) * mui_set(ring, high)
            cases.append(
                _element_case(f"part3[S={_subset_label(subset)},u={u}]", rhs, lhs)
            )
    # part 4: every P^m kills the initial-segment invariants
    for r in range(1, n + 1):
        seg = tuple(range(1, r + 1))
        m_seg = mui_set(ring, seg)
        for m in range(1, top_m):
            cases.append(
                _element_case(
                    f"part4[r={r},m={m} of 1..{top_m - 1}]",
                    ring.zero(),
                    power_op(m, m_seg),
                )
            )
    # part 5: the gap-walking step
    for u in range(2, n + 1):
        k = p ** (u - 2)
        src = tuple(range(1, u - 1)) + (u,)
        dst = tuple(range(1, u))
        cases.append(
            _element_case(
                f"part5[u={u}]", mui_set(ring, dst), power_op(k, mui_set(ring, src))
            )
        )
    return cases


def _check_steenrod(ring: Ring, max_degree: int) -> list[Case]:
    """The essential ideal is the Steenrod closure of the top exterior
    class: closure spans match the computed essentials in every degree, and
    the explicit operation words hit every subset invariant."""
    seed = ring.monomial(_full_subset(ring))
    closure = steenrod_closure(seed, max_degree)
    cases = []
    for d in range(max_degree + 1):
        cases.append(_span_case(f"closure[d={d}]", ring, ess_basis(ring, d), closure[d]))
    top = mui_set(ring, _full_subset(ring))
    for subset in _all_subsets(ring):
        word = proof_word(ring, subset)
        label = format_word(word) or "(identity)"
        cases.append(
            _element_case(
                f"word[S={_subset_label(subset)}: {label}]",
                mui_set(ring, subset),
                apply_word(word, top),
            )
        )
    return cases


def _check_fundamental(ring: Ring, max_degree: int) -> list[Case]:
    """P^(p^(n-1)) on M_s agrees with substituting the fundamental equation
    into the last power row; on M_n it vanishes by instability."""
    n, p = ring.n, ring.p
    if n < 1:
        raise ValueError("rank must be at least 1")
    k = p ** (n - 1)
    lams = fundamental_coefficients(ring)
    cases = []
    for s in range(1, n):
        lhs = power_op(k, mui(ring, s))
        rows = [r for r in range(1, n + 1) if r != s]
        cells = [[ring.a(i) for i in range(1, n + 1)]]
        for r in rows[:-1]:
            cells.append([_power_entry(ring, r, i) for i in range(1, n + 1)])
        last = []
        for i in range(1, n + 1):
            entry = ring.zero()
            for t in range(n):
                entry = entry + lams[t] * _power_entry(ring, t + 1, i)
            last.append(entry)
        cells.append(last)
        rhs = det(cells)
        cases.append(_element_case(f"P{k}(M_{s})", rhs, lhs))
    cases.append(
        _element_case(f"P{k}(M_{n})-instability", ring.zero(), power_op(k, mui(ring, n)))
    )
    return cases


# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    claim_id: str
    summary: str
    modes: frozenset
    check: object

    def supports(self, ring: Ring) -> bool:
        return ("2" if ring.mod2 else "odd") in self.modes


_BOTH = frozenset({"odd", "2"})
_ODD = frozenset({"odd"})
_MOD2 = frozenset({"2"})

CLAIMS: dict[str, Claim] = {
    c.claim_id: c
    for c in [
        Claim("lemma:eqnLn", "determinant equals the product of monic linear forms", _BOTH, _check_eqn_ln),
        Claim("lemma:p2", "at p=2 the essential ideal is principal on L_n", _MOD2, _check_p2),
        Claim("lemma:Mns", "each M_{n,s} is essential of exterior rank one", _ODD, _check_mns),
        Claim("lemma:EssSquared", "Ess^2 = L_n * Ess degreewise", _ODD, _check_ess_squared),
        Claim("eq:MnST", "M_S M_T = product_sign(S,T) L_n M_{S u T}, or 0 unless disjoint", _ODD, _check_mnst),
        Claim("lemma:jointAnn", "joint annihilator of the M_{n,s} is the top rank", _ODD, _check_joint_ann),
        Claim("coroll:jointAnn2", "joint annihilator of the rank-r invariants", _ODD, _check_joint_ann2),
        Claim("coroll:MnS", "every M_{n,S} is nonzero; the full one is scalar * a_1..a_n", _ODD, _check_mns_nonzero),
        Claim("thm:free", "the essential ideal is free on the subset invariants", _ODD, _check_free),
        Claim("eq:betaMns", "Bockstein values on the M_{n,s} and L_n", _ODD, _check_beta_mns),
        Claim("eq:rPMnS", "P^(p^s) values on the M_{n,r} and L_n", _ODD, _check_rp_mns),
        Claim("lemma:SteenrodMnS", "operation identities on subset invariants, parts 1-5", _ODD, _check_steenrod_mns),
        Claim("thm:Steenrod", "the essential ideal is the Steenrod closure of the top exterior class", _ODD, _check_steenrod),
        Claim("remark:fundamental", "P^(p^(n-1)) on M_s via the Dickson coefficients", _ODD, _check_fundamental),
    ]
}


def claim_ids(ring: Ring | None = None) -> list[str]:
    if ring is None:
        return list(CLAIMS)
    return [cid for cid, c in CLAIMS.items() if c.supports(ring)]


def _claim(claim_id: str, ring: Ring) -> Claim:
    """The registered claim, refused when unknown or not valid for the ring."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise ConfigError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIMS)}")
    if not claim.supports(ring):
        raise ConfigError(f"claim {claim_id} does not apply at p = {ring.p}")
    return claim


def run_claim(claim_id: str, ring: Ring, max_degree: int) -> VerificationReport:
    """Run one claim check and package the result."""
    claim = _claim(claim_id, ring)
    check_resources(ring, max_degree)
    start = time.perf_counter()
    cases = claim.check(ring, max_degree)
    elapsed = (time.perf_counter() - start) * 1000.0
    status = "pass" if all(c.passed for c in cases) else "fail"
    return VerificationReport(
        claim=claim_id,
        p=ring.p,
        n=ring.n,
        degree_bound=max_degree,
        status=status,
        cases=cases,
        runtime_ms=round(elapsed, 3),
    )


def run_all(
    ring: Ring, max_degree: int, claims: list[str] | None = None
) -> list[VerificationReport]:
    """Run the selected claims (default: every claim valid for the mode),
    after checking that each of them is known and valid for the ring."""
    check_resources(ring, max_degree)
    selected = claims if claims is not None else claim_ids(ring)
    for cid in selected:
        _claim(cid, ring)
    return [run_claim(cid, ring, max_degree) for cid in selected]
