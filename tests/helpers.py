"""Shared test utilities: random element generators (seeded stdlib random for
the big soak loops, hypothesis strategies for the shrinking property tests)."""

from __future__ import annotations

import random
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, groupby, product

import numpy as np
from hypothesis import strategies as st

from mui import Element, NotDivisibleError, Ring, ZERO, det, l_n, mui_set
from mui import essential, field
from mui.algebra import Monomial, _element, _merge_ext, term_key
from mui.essential import MaximalSubgroup, ess_basis, is_essential, maximal_subgroups, restrict
from mui.invariants import (
    _check_row,
    _normalize_subset,
    _others,
    _power_det,
    _power_entry,
    _require_odd,
    product_sign,
)
from mui.linalg import (
    DegreeBasis,
    DegreeSpan,
    _check_int64_prime,
    _exponents,
    monomial_basis,
    null_space,
    pruned_null_space,
    span_of,
)


def rand_element(ring: Ring, rng: random.Random, max_terms: int = 4,
                 max_exp: int = 3) -> Element:
    """Random element with small exponents; may be zero."""
    out = ring.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        if ring.mod2:
            ext = ()
        else:
            r = rng.randrange(ring.n + 1)
            ext = tuple(sorted(rng.sample(range(1, ring.n + 1), r)))
        pows = tuple(rng.randrange(max_exp + 1) for _ in range(ring.n))
        out = out + ring.monomial(ext, pows, rng.randrange(1, ring.p))
    return out


def rand_homogeneous(ring: Ring, rng: random.Random, degree: int,
                     max_terms: int = 4) -> Element:
    """Random homogeneous element of one degree; may be zero."""
    mons = monomial_basis(ring, degree).monomials
    out = ring.zero()
    if not mons:
        return out
    for _ in range(rng.randrange(1, max_terms + 1)):
        mon = mons[rng.randrange(len(mons))]
        out = out + ring.monomial(mon.ext, mon.pows, rng.randrange(1, ring.p))
    return out


def reference_compositions(total: int, parts: int):
    """Reference enumerator of exponent vectors in descending lexicographic
    order: the recursive generator that linalg._exponents replaced."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_monomial_basis(ring: Ring, degree: int) -> tuple[Monomial, ...]:
    """Reference for monomial_basis: every monomial of the degree,
    enumerated rank by rank and sorted by term_key, the enumeration that
    the array-backed DegreeBasis replaced."""
    n = ring.n
    mons: list[Monomial] = []
    if ring.mod2:
        mons = [Monomial((), m) for m in map(tuple, _exponents(degree, n).tolist())]
    else:
        for r in range(min(n, degree) + 1):
            rest = degree - r
            if rest % 2:
                continue
            exps = list(map(tuple, _exponents(rest // 2, n).tolist()))
            for ext in combinations(range(1, n + 1), r):
                mons += [Monomial(ext, m) for m in exps]
    mons.sort(key=term_key)
    return tuple(mons)


def rand_poly(ring: Ring, rng: random.Random, poly_degree: int) -> Element:
    """Random homogeneous purely polynomial element; may be zero."""
    out = ring.zero()
    for pows in reference_compositions(poly_degree, ring.n):
        c = rng.randrange(ring.p)
        if c:
            out = out + ring.monomial((), pows, c)
    return out


def elements(ring: Ring, max_terms: int = 4, max_exp: int = 3):
    """Hypothesis strategy for elements of a fixed ring."""
    if ring.mod2:
        ext_st = st.just(())
    else:
        ext_st = st.sets(
            st.integers(min_value=1, max_value=ring.n), max_size=ring.n
        ).map(lambda s: tuple(sorted(s)))
    term = st.tuples(
        st.integers(min_value=1, max_value=ring.p - 1),
        ext_st,
        st.tuples(*([st.integers(min_value=0, max_value=max_exp)] * ring.n)),
    )
    return st.lists(term, max_size=max_terms).map(ring.from_terms)


def homogeneous_elements(ring: Ring, max_degree: int = 12, max_terms: int = 5):
    """Hypothesis strategy for homogeneous elements (possibly zero)."""

    def of_degree(d):
        term = st.tuples(
            st.integers(min_value=1, max_value=ring.p - 1),
            st.sampled_from(monomial_basis(ring, d).monomials),
        )
        return st.lists(term, max_size=max_terms).map(
            lambda ts: ring.from_terms((c, m.ext, m.pows) for c, m in ts)
        )

    return st.integers(min_value=0, max_value=max_degree).flatmap(of_degree)


def homogeneous_pairs(ring: Ring, rng: random.Random, count: int,
                      max_degree: int = 10):
    """Pairs of nonzero homogeneous elements for sign-rule soaks."""
    pairs = []
    while len(pairs) < count:
        du = rng.randrange(1, max_degree + 1)
        dv = rng.randrange(1, max_degree + 1)
        u = rand_homogeneous(ring, rng, du)
        v = rand_homogeneous(ring, rng, dv)
        if u and v:
            pairs.append((u, v))
    return pairs


def all_subsets(n: int):
    for r in range(n + 1):
        yield from combinations(range(1, n + 1), r)


@contextmanager
def criterion(number: int, label: str):
    """Print one pass/fail line per acceptance criterion."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS "
          f"({time.perf_counter() - start:.2f}s)")


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in a block that runs past seconds, so that a loop
    which never ends fails its test instead of hanging it (POSIX, main
    thread)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- slow reference implementations --------------------------------------


def fundamental_product(ring: Ring) -> dict[int, Element]:
    """Reference for the Dickson invariants: prod over v in F_p^n of (X - v),
    expanded symbolically, as {X-exponent: coefficient}."""
    coeffs = {0: ring.one()}
    for vec in product(range(ring.p), repeat=ring.n):
        form = ring.zero()
        for i, c in enumerate(vec, start=1):
            if c:
                form = form + ring.x(i) * c
        new: dict[int, Element] = {}
        for e, coef in coeffs.items():
            new[e + 1] = new.get(e + 1, ring.zero()) + coef
            if form:
                new[e] = new.get(e, ring.zero()) - form * coef
        coeffs = {e: c for e, c in new.items() if not c.is_zero()}
    return coeffs


def reference_dickson(ring: Ring, r: int) -> Element:
    """c_{n,r}: the coefficient of X^(p^r) in the expansion, times (-1)^(n-r)."""
    coef = fundamental_product(ring).get(ring.p**r, ring.zero())
    return coef if (ring.n - r) % 2 == 0 else -coef


def reference_moore_dickson(ring: Ring, r: int) -> Element:
    """c_{n,r} as the Moore quotient: the determinant of power rows p^0..p^n
    with row p^r left out, divided exactly by L_n (Element.exact_divide)."""
    rows = tuple(s for s in range(1, ring.n + 2) if s != r + 1)
    return _power_det(ring, rows, _others(ring)).exact_divide(l_n(ring))


def reference_mul(u: Element, v: Element) -> Element:
    """Reference product: the pairwise term loop, one exterior merge per pair
    of terms."""
    acc: dict = {}
    for (e1, m1), c1 in u.terms.items():
        for (e2, m2), c2 in v.terms.items():
            if e1 and e2:
                merged = _merge_ext(e1, e2)
                if merged is None:
                    continue
                sign, ext = merged
                coef = sign * c1 * c2
            else:
                ext = e1 or e2
                coef = c1 * c2
            mon = (ext, tuple(a + b for a, b in zip(m1, m2)))
            acc[mon] = acc.get(mon, 0) + coef
    return _element(u.p, u.n, acc)


def _grlex(pows: tuple[int, ...]):
    return (sum(pows), pows)


def reference_poly_divide(num: dict, den: dict, p: int) -> dict:
    """Reference division of exponent-vector dicts: rescan the remainder for
    its grlex-largest monomial at every step."""
    lead = max(den, key=_grlex)
    lead_inv = field.inv(den[lead], p)
    rem = dict(num)
    quot: dict = {}
    while rem:
        top = max(rem, key=_grlex)
        shift = tuple(a - b for a, b in zip(top, lead))
        if any(e < 0 for e in shift):
            raise NotDivisibleError("nonzero remainder in exact division")
        c = rem[top] * lead_inv % p
        quot[shift] = c
        for mon, k in den.items():
            tgt = tuple(a + b for a, b in zip(shift, mon))
            v = (rem.get(tgt, 0) - c * k) % p
            if v:
                rem[tgt] = v
            else:
                rem.pop(tgt, None)
    return quot


def reference_decompose(y: Element) -> dict[tuple[int, ...], Element]:
    """Reference decompose, on Elements: each y * M_{n,T} an Element
    product, each f_S one heap division by L_n (Element.exact_divide).
    Coordinates of an essential class over the polynomial subalgebra, in
    the basis of subset invariants of its exterior rank.

    Requires odd p, rank n >= 1 and y nonzero in one exterior rank.  With T
    the complement of S, y * M_{n,T} = f_S * sign * L_n * M_{n,1..n}, so each
    f_S is one exact division.  The returned map S -> f_S satisfies sum of
    f_S * M_{n,S} == y exactly, and that reconstruction is the proof that y
    is essential, since every M_{n,S} restricts to zero.  is_essential runs
    only when a division or the reconstruction fails, to name the failure:
    ValueError for an input that is not essential, RuntimeError otherwise.
    """
    ring = Ring(y.p, y.n)
    if ring.mod2:
        raise ValueError("subset-invariant decomposition needs odd p")
    if ring.n < 1:
        raise ValueError("rank must be at least 1")
    if y.is_zero():
        raise ValueError("cannot infer the exterior rank of zero")
    ranks = y.exterior_ranks()
    if len(ranks) > 1:
        raise ValueError(f"element mixes exterior ranks {sorted(ranks)}")
    r = ranks.pop()
    n, p = ring.n, ring.p
    full = tuple(range(1, n + 1))
    lam_inv = field.inv(mui_set(ring, full).coefficient(full, (0,) * n), p)
    big_l = l_n(ring)
    result: dict[tuple[int, ...], Element] = {}
    recon = ring.zero()
    try:
        for subset in combinations(full, r):
            comp = tuple(s for s in full if s not in subset)
            q = (y * mui_set(ring, comp)).exact_divide(big_l)
            scale = product_sign(subset, comp) * lam_inv
            f = _element(p, n, {((), pows): c * scale for (_, pows), c in q.terms.items()})
            result[subset] = f
            recon = recon + f * mui_set(ring, subset)
        exact = recon == y
    except NotDivisibleError:
        exact = False
    if not exact:
        if not is_essential(y):
            raise ValueError("element is not essential")
        raise RuntimeError("decomposition failed to reconstruct the input")
    return result


def reference_restrict(y: Element, H: MaximalSubgroup, pivot: int | None = None) -> Element:
    """Reference restriction: the form of H solved for coordinate pivot
    (default its leading one), every generator image and every term rebuilt
    by Element products."""
    ring, sub, form = H.ring, H.subring, H.form
    if pivot is None:
        pivot = next(i for i, c in enumerate(form) if c)
    scale = -pow(form[pivot], -1, ring.p)

    def image(gen, i):
        # the kept coordinates are renumbered in order
        if i != pivot:
            return gen(i + 1 if i < pivot else i)
        out = sub.zero()
        for k, c in enumerate(form):
            if k != pivot and c:
                out = out + gen(k + 1 if k < pivot else k) * (c * scale)
        return out

    x_imgs = [image(sub.x, i) for i in range(ring.n)]
    a_imgs = [] if sub.mod2 else [image(sub.a, i) for i in range(ring.n)]
    out = sub.zero()
    for (ext, pows), c in y.terms.items():
        img = sub.scalar(c)
        for idx in ext:
            img = img * a_imgs[idx - 1]
        for i, e in enumerate(pows):
            img = img * x_imgs[i] ** e
        out = out + img
    return out


def reference_is_essential(y: Element) -> bool:
    """Reference for is_essential: reference_restrict to every maximal
    subgroup vanishes."""
    return all(reference_restrict(y, H).is_zero() for H in maximal_subgroups(Ring(y.p, y.n)))


def _power_rows(ring: Ring, rows: list[int]) -> list[list[Element]]:
    return [[_power_entry(ring, s, i) for i in range(1, ring.n + 1)] for s in rows]


@lru_cache(maxsize=None)
def reference_l_n(ring: Ring) -> Element:
    """Reference for l_n: det of the power matrix, cell by cell."""
    if ring.n == 0:
        return ring.one()
    return det(_power_rows(ring, list(range(1, ring.n + 1))))


@lru_cache(maxsize=None)
def reference_minor(ring: Ring, s: int, i: int) -> Element:
    """Reference for minor: the power matrix with row s and column i
    removed, cell by cell."""
    _check_row(ring, s)
    _check_row(ring, i)
    rows = [r for r in range(1, ring.n + 1) if r != s]
    cells = [
        [_power_entry(ring, r, c) for c in range(1, ring.n + 1) if c != i]
        for r in rows
    ]
    if not cells:
        return ring.one()
    return det(cells)


@lru_cache(maxsize=None)
def reference_mui(ring: Ring, s: int) -> Element:
    """Reference for mui: the power matrix with row s replaced by the
    exterior generators, expanded along that row."""
    _require_odd(ring)
    _check_row(ring, s)
    total = ring.zero()
    for i in range(1, ring.n + 1):
        term = reference_minor(ring, s, i) * ring.a(i)
        if i % 2 == 0:
            term = -term
        total = total + term
    return total


@lru_cache(maxsize=None)
def reference_mui_set(ring: Ring, subset: tuple[int, ...]) -> Element:
    """Reference for mui_set: the product of the M_{n,s} for s in the
    subset, divided exactly by L_n^(r-1).  The empty subset gives L_n.
    Slow: all 31 subsets at (3,5) take minutes."""
    _require_odd(ring)
    subset = _normalize_subset(ring, subset)
    if not subset:
        return reference_l_n(ring)
    prod = reference_mui(ring, subset[0])
    for s in subset[1:]:
        prod = prod * reference_mui(ring, s)
    r = len(subset)
    if r > 1:
        prod = prod.exact_divide(reference_l_n(ring) ** (r - 1))
    return prod


def reference_complement_sign(ring: Ring, subset: tuple[int, ...]) -> int:
    """Reference for product_sign on a complementary pair (S, T): compare
    the product M_S * M_T with +-L_n * M_{1..n}."""
    comp = tuple(s for s in range(1, ring.n + 1) if s not in subset)
    prod = mui_set(ring, subset) * mui_set(ring, comp)
    target = l_n(ring) * mui_set(ring, tuple(range(1, ring.n + 1)))
    if prod == target:
        return 1
    if prod == -target:
        return -1
    raise AssertionError(f"complementary product for S={subset} is not +-L_n * M_(1..n)")


def last_nonzero(form: tuple[int, ...]) -> int:
    """The last nonzero coordinate of a form, an alternative pivot."""
    return max(i for i, c in enumerate(form) if c)


def reference_rref(mat, p: int) -> np.ndarray:
    """Reference for linalg.rref: the eager elimination, which reduces every
    entry it changes mod p after each pivot."""
    m = np.array(mat, dtype=np.int64) % p
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        below = np.nonzero(m[r:, c])[0]
        if not len(below):
            continue
        pivot = r + int(below[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        v = int(m[r, c])
        if v != 1:
            m[r, c:] = m[r, c:] * pow(v, -1, p) % p
        hit = np.nonzero(m[:, c])[0]
        hit = hit[hit != r]
        if len(hit):
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        r += 1
    return m[:r]


def reference_null_space(mat, p: int) -> np.ndarray:
    """Reference for linalg.null_space: one basis vector per free column of
    reference_rref, brought to RREF by reference_rref."""
    mat = np.asarray(mat, dtype=np.int64)
    reduced = reference_rref(mat, p)
    pivots = [int(np.nonzero(row)[0][0]) for row in reduced]
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[:, free].T % p
    return reference_rref(basis, p)


def reference_ess_basis(ring: Ring, d: int, pivot=None) -> np.ndarray:
    """Reference for ess_basis: one dense block per maximal subgroup over the
    whole codomain basis, filled by reference_restrict with the form solved
    at pivot(form) (default its leading coordinate), and one left kernel of
    the stack of all blocks, taken by reference_null_space."""
    basis = monomial_basis(ring, d)
    blocks = []
    for H in maximal_subgroups(ring):
        at = None if pivot is None else pivot(H.form)
        cod = monomial_basis(H.subring, d)
        block = np.zeros((len(basis), len(cod)), dtype=np.int64)
        for r, mon in enumerate(basis.monomials):
            img = reference_restrict(ring.monomial(mon.ext, mon.pows), H, at)
            if img:
                block[r] = cod.coords(img)
        blocks.append(block)
    return reference_null_space(np.hstack(blocks).T, ring.p)


def reference_ess_by_rank(ring: Ring, d: int) -> dict[int, np.ndarray]:
    """Reference for ess_basis_by_rank: for each exterior rank, one restrict
    image of a one-term element per (basis monomial, subgroup), joined by
    kernel_of_map, in the coordinates of the whole degree."""
    basis = reference_monomial_basis(ring, d)
    subs = maximal_subgroups(ring)
    by_rank = {}
    start = 0
    for r, run in groupby(basis, key=lambda mon: len(mon.ext)):
        mons = tuple(run)
        gens = [ring.monomial(mon.ext, mon.pows) for mon in mons]
        kernel = kernel_of_map(monomial_basis(ring, d), *([restrict(y, H) for y in gens]
                                                          for H in subs), rank=r)
        rows = np.zeros((kernel.dim, len(basis)), dtype=np.int64)
        rows[:, start:start + len(mons)] = kernel.rows
        by_rank[r] = rows
        start += len(mons)
    return by_rank


def kernel_of_map(domain: DegreeBasis, *maps, rank=None) -> DegreeSpan:
    """Joint kernel of linear maps on one graded piece, in domain coordinates,
    or on the run of one exterior rank of it when a rank is given.

    Each map is given by the images of domain.monomials (of that run), in
    order.  Map k goes to pruned_null_space with the codomain monomials that
    occur in its images numbered in order of appearance, so no codomain
    basis is enumerated; with no nonzero image the kernel is the whole
    domain."""
    run = slice(0, len(domain)) if rank is None else domain.run(rank)
    width = run.stop - run.start
    triples = []
    for images in maps:
        if len(images) != width:
            raise ValueError("one image per domain monomial required")
        found: dict = {}
        entries = [(i, found.setdefault(mon, len(found)), c)
                   for i, y in enumerate(images) for mon, c in y.terms.items()]
        triples.append(np.array(entries, dtype=np.int64).reshape(-1, 3).T)
    return DegreeSpan(domain.ring.p, domain.degree,
                      pruned_null_space(triples, width, domain.ring.p))


def reference_pruned_null_space(mat, p: int) -> np.ndarray:
    """Reference for linalg.pruned_null_space on a dense matrix whose
    entries are nonzero exactly when they are nonzero mod p: each row with
    one nonzero entry on the live columns forces that column, until none is
    left, and null_space takes the live rows and columns; with no live row
    left, the kernel is every vector on the live columns."""
    mat = np.asarray(mat, dtype=np.int64)
    nonzero = mat != 0
    live = np.ones(mat.shape[1], dtype=bool)
    count = nonzero.sum(axis=1)
    while (single := count == 1).any():
        forced = np.unique((nonzero[single] & live).argmax(axis=1))
        live[forced] = False
        count -= nonzero[:, forced].sum(axis=1)
    sub = np.eye(live.sum(), dtype=np.int64)
    if (count > 0).any():
        sub = null_space(mat[np.ix_(count > 0, live)], p)
    kernel = np.zeros((len(sub), mat.shape[1]), dtype=np.int64)
    kernel[:, live] = sub
    return kernel


def reference_joint_annihilator(ring: Ring, d: int, subsets) -> DegreeSpan:
    """Reference for verify._joint_annihilator: the images y * M_S of the
    one-term basis elements y, formed by Element products, joined by
    kernel_of_map."""
    basis = monomial_basis(ring, d)
    gens = [Element(ring.p, ring.n, {tuple(mon): 1}) for mon in basis.monomials]
    return kernel_of_map(basis, *([y * mui_set(ring, s) for y in gens] for s in subsets))


def reference_ess_squared_spans(ring: Ring, d: int) -> tuple[DegreeSpan, DegreeSpan]:
    """Reference for verify._ess_squared_spans: L_n times the essential
    basis elements of degree d - deg L_n, and the products u v of those of
    degrees d1 <= d / 2 and d - d1 (v not before u when the degrees agree),
    each formed pair by pair by Element products and row reduced by
    span_of."""
    def elems(degree):
        basis = monomial_basis(ring, degree)
        return [basis.element(row) for row in ess_basis(ring, degree).rows]

    products = []
    for d1 in range(1, d // 2 + 1):
        us, vs = elems(d1), elems(d - d1)
        for i, u in enumerate(us):
            for v in vs[i:] if d1 == d - d1 else vs:
                products.append(u * v)
    big_l = l_n(ring)
    deg_l = big_l.total_degree()
    multiples = [big_l * e for e in elems(d - deg_l)] if d >= deg_l else []
    return span_of(ring, d, multiples), span_of(ring, d, products)


def reference_cartan_splits(pows: tuple[int, ...], k: int, p: int):
    """Reference for the shares of steenrod.power_map: the (coefficient,
    share vector) pairs of P^k on x^pows in lexicographic order, trying
    every share j of each factor and dropping those whose binomial C(m, j)
    vanishes mod p."""
    n = len(pows)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + pows[i]
    out: list[tuple[int, tuple[int, ...]]] = []

    def rec(i: int, rem: int, coef: int, acc: list[int]):
        if rem > suffix[i]:
            return
        if i == n:
            out.append((coef, tuple(acc)))
            return
        top = min(rem, pows[i])
        for j in range(top + 1):
            b = field.binomial_mod(pows[i], j, p)
            if b:
                acc.append(j)
                rec(i + 1, rem - j, coef * b % p, acc)
                acc.pop()

    rec(0, k, 1, [])
    return out


def reference_bockstein(y: Element) -> Element:
    """Reference for steenrod.bockstein, term by term over the dict: a_E x^m
    goes to the sum over the j-th index i of E of (-1)^j a_(E - i) x_i x^m."""
    if y.p == 2:
        raise ValueError("the Bockstein at p = 2 is Sq^1; use power_op(1, y)")
    acc: dict = {}
    for (ext, pows), c in y.terms.items():
        for j, idx in enumerate(ext):
            sign = -1 if j % 2 else 1
            new_ext = ext[:j] + ext[j + 1:]
            new_pows = tuple(
                e + 1 if i == idx else e for i, e in enumerate(pows, start=1)
            )
            mon = (new_ext, new_pows)
            acc[mon] = acc.get(mon, 0) + sign * c
    return _element(y.p, y.n, acc)


def reference_power_op(k: int, y: Element) -> Element:
    """Reference for steenrod.power_op, term by term over the dict by the
    Cartan rule: a_E x^m goes to the sum over the splits j of k of
    prod C(m_i, j_i) a_E x^(m + (p - 1) j), from reference_cartan_splits."""
    if k < 0:
        raise ValueError("operation index must be nonnegative")
    if k == 0:
        return y
    p = y.p
    acc: dict = {}
    for (ext, pows), c in y.terms.items():
        for coef, split in reference_cartan_splits(pows, k, p):
            mon = (ext, tuple(m + j * (p - 1) for m, j in zip(pows, split)))
            acc[mon] = acc.get(mon, 0) + c * coef
    return _element(y.p, y.n, acc)


def _reduce(vec: np.ndarray, rows, pivots, p: int) -> np.ndarray:
    """vec minus its components along the RREF rows with the given pivots."""
    v = np.array(vec, dtype=np.int64) % p
    for piv, row in zip(pivots, rows):
        c = v[piv]
        if c:
            v = (v - c * row.astype(np.int64)) % p
    return v


class ReferenceSpanBuilder:
    """Reference for linalg.SpanBuilder, which inserts through rref_stack:
    an incrementally maintained int64 RREF span, one vector at a time, each
    reduced row by row by _reduce and then cleared from the other rows."""

    def __init__(self, ambient_dim: int, p: int):
        _check_int64_prime(p)
        self.p = p
        self.ambient_dim = ambient_dim
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: np.ndarray) -> bool:
        """Add a vector; True when it enlarged the span."""
        v = _reduce(vec, self.rows, self.pivots, self.p)
        support = np.nonzero(v)[0]
        if not len(support):
            return False
        piv = int(support[0])
        v = v * pow(int(v[piv]), -1, self.p) % self.p
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = (row - c * v) % self.p
        at = sum(1 for q in self.pivots if q < piv)
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def to_span(self, degree: int) -> DegreeSpan:
        rows = np.array(self.rows, dtype=np.int64).reshape(len(self.rows), self.ambient_dim)
        return DegreeSpan(self.p, degree, rows)


def reference_steenrod_closure(seed: Element, max_degree: int) -> dict[int, DegreeSpan]:
    """Reference for essential.steenrod_closure, by worklist saturation: each
    new span element is multiplied by every algebra generator and hit with
    every operation (every P^k, not only the algebra generators) whose output
    degree stays in bounds, one ReferenceSpanBuilder.insert per candidate.
    All operations strictly raise degree, so one ascending pass over the
    degrees reaches the fixpoint."""
    ring = Ring(seed.p, seed.n)
    p = ring.p
    deg = seed.total_degree()
    if not isinstance(deg, int) and deg != ZERO:
        raise ValueError("seed must be homogeneous")
    builders: dict[int, ReferenceSpanBuilder] = {}
    pending: dict[int, list[Element]] = defaultdict(list)
    total_dim = 0

    def insert(el: Element) -> None:
        nonlocal total_dim
        if el.is_zero():
            return
        d = el.total_degree()
        if d > max_degree:
            return
        builder = builders.get(d)
        if builder is None:
            builder = builders[d] = ReferenceSpanBuilder(len(monomial_basis(ring, d)), p)
        if builder.insert(monomial_basis(ring, d).coords(el)):
            total_dim += 1
            if total_dim > essential.MAX_CLOSURE_DIMENSION:
                raise RuntimeError(
                    f"closure exceeded the dimension cap {essential.MAX_CLOSURE_DIMENSION}"
                )
            pending[d].append(el)

    if isinstance(deg, int) and deg <= max_degree:
        insert(seed)
    gens = ring.generators()
    for d in range(max_degree + 1):
        for el in pending.get(d, ()):
            for g in gens:
                insert(g * el)
            if not ring.mod2:
                if d + 1 <= max_degree:
                    insert(reference_bockstein(el))
                top = (max_degree - d) // (2 * (p - 1))
            else:
                top = max_degree - d
            for k in range(1, top + 1):
                insert(reference_power_op(k, el))
    return {
        d: builders.get(d, ReferenceSpanBuilder(len(monomial_basis(ring, d)), p)).to_span(d)
        for d in range(max_degree + 1)
    }
