"""Shared test utilities: random element generators (seeded stdlib random for
the big soak loops, hypothesis strategies for the shrinking property tests)."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
from hypothesis import strategies as st

from mui import Element, Ring
from mui.essential import MaximalSubgroup
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


def reference_restrict(y: Element, H: MaximalSubgroup) -> Element:
    """Reference restriction: every generator mapped through the columns of
    H.matrix, each term rebuilt by Element products."""
    sub = H.subring
    a_imgs, x_imgs = [], []
    for i in range(H.ring.n):
        a_img, x_img = sub.zero(), sub.zero()
        for t in range(H.ring.n - 1):
            c = H.matrix[t][i]
            if c:
                if not sub.mod2:
                    a_img = a_img + sub.a(t + 1) * c
                x_img = x_img + sub.x(t + 1) * c
        a_imgs.append(a_img)
        x_imgs.append(x_img)
    out = sub.zero()
    for (ext, pows), c in y.terms.items():
        img = sub.scalar(c)
        for idx in ext:
            img = img * a_imgs[idx - 1]
        for i, e in enumerate(pows):
            img = img * x_imgs[i] ** e
        out = out + img
    return out


def last_pivot_subgroup(H: MaximalSubgroup) -> MaximalSubgroup:
    """The same subgroup with its restriction matrix solved for the last
    nonzero coordinate of the form instead of the first."""
    ring, form = H.ring, H.form
    pivot = max(i for i, c in enumerate(form) if c)
    inv = pow(int(form[pivot]), -1, ring.p)
    rows = []
    for i in range(ring.n):
        if i != pivot:
            row = [0] * ring.n
            row[i] = 1
            row[pivot] = (-form[i] * inv) % ring.p
            rows.append(tuple(row))
    return MaximalSubgroup(ring, form, tuple(rows))


def reference_ess_basis(ring: Ring, d: int, subgroups) -> np.ndarray:
    """Reference for ess_basis: one dense block per subgroup over the whole
    codomain basis, filled by reference_restrict, and one left kernel of the
    stack of all blocks."""
    basis = monomial_basis(ring, d)
    blocks = []
    for H in subgroups:
        cod = monomial_basis(H.subring, d)
        block = np.zeros((len(basis), len(cod)), dtype=np.int64)
        for r, mon in enumerate(basis.monomials):
            img = reference_restrict(ring.monomial(mon.ext, mon.pows), H)
            if img:
                block[r] = cod.coords(img)
        blocks.append(block)
    return left_null_space(np.hstack(blocks), ring.p)
