"""Shared test utilities: random element generators (seeded stdlib random for
the big soak loops, hypothesis strategies for the shrinking property tests)."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
from hypothesis import strategies as st

from mui import Element, Ring, l_n, mui_set
from mui.essential import MaximalSubgroup, maximal_subgroups
from mui.linalg import left_null_space, monomial_basis


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


def rand_poly(ring: Ring, rng: random.Random, poly_degree: int) -> Element:
    """Random homogeneous purely polynomial element; may be zero."""
    from mui.linalg import _compositions

    out = ring.zero()
    for pows in _compositions(poly_degree, ring.n):
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


def reference_ess_basis(ring: Ring, d: int, pivot=None) -> np.ndarray:
    """Reference for ess_basis: one dense block per maximal subgroup over the
    whole codomain basis, filled by reference_restrict with the form solved
    at pivot(form) (default its leading coordinate), and one left kernel of
    the stack of all blocks."""
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
    return left_null_space(np.hstack(blocks), ring.p)
