"""Maximal subgroups, restriction maps, and the essential ideal.

A maximal subgroup is the kernel of a nonzero linear form normalized to
leading coefficient 1, one per point of the projective space of the dual.
Restriction is the algebra map that kills the form: the linear substitution
x_pivot -> -sum_{i > pivot} form_i x_i (a_pivot likewise) at the form's
leading coordinate, the other generators renumbered in order.
The essential classes of one degree are the joint kernel of all
restrictions, computed with exact linear algebra one exterior rank at a time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, groupby, product
from operator import add

from . import field
from .algebra import Element, NotDivisibleError, Ring, ZERO, _element
from .invariants import l_n, mui_set, product_sign
from .linalg import (
    DegreeSpan,
    SpanBuilder,
    _compositions,
    monomial_basis,
    pruned_null_space,
    zero_span,
)
from .steenrod import bockstein, power_op

import numpy as np


@lru_cache(maxsize=None)
def projective_forms(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All nonzero linear forms normalized to leading coefficient 1, in
    lexicographic order; one per projective point."""
    forms = sorted(
        vec
        for vec in product(range(p), repeat=n)
        if any(vec) and next(c for c in vec if c) == 1
    )
    assert len(forms) == (p**n - 1) // (p - 1)
    return tuple(forms)


@dataclass(frozen=True)
class MaximalSubgroup:
    """The kernel of a nonzero linear form normalized to leading coefficient
    1.  Restriction to it eliminates the leading coordinate (the pivot)."""

    ring: Ring
    form: tuple[int, ...]

    def __post_init__(self):
        form, lead = self.form, next((c for c in self.form if c), None)
        if len(form) != self.ring.n or lead != 1 or any(not 0 <= c < self.ring.p for c in form):
            raise ValueError(f"form {form} over {self.ring} needs {self.ring.n} entries in "
                             f"0..{self.ring.p - 1}, not all zero, the first nonzero one 1")

    @property
    def subring(self) -> Ring:
        return Ring(self.ring.p, self.ring.n - 1)

    @cached_property
    def pivot(self) -> int:
        """The leading coordinate of the form, eliminated by restriction."""
        return next(i for i, c in enumerate(self.form) if c)

    @cached_property
    def _images(self) -> tuple[dict, dict]:
        """Caches of _pivot_power keyed by e and of _exterior_image keyed by
        E, filled on demand."""
        return {}, {}


@lru_cache(maxsize=None)
def maximal_subgroups(ring: Ring) -> tuple[MaximalSubgroup, ...]:
    """One subgroup per projective point of the dual, deterministic order."""
    if ring.n < 1:
        raise ValueError("rank must be at least 1")
    return tuple(MaximalSubgroup(ring, form) for form in projective_forms(ring.p, ring.n))


def _generator_image(H: MaximalSubgroup, i: int, gen) -> Element:
    """Image of generator i + 1 under restriction; gen is the subring's x or
    a.  The pivot goes to -sum_{t > pivot} form_t gen_t, the others are
    renumbered in order."""
    j = H.pivot
    if i != j:
        return gen(i + 1 if i < j else i)
    out = H.subring.zero()
    for t in range(j + 1, H.ring.n):
        if H.form[t]:
            out = out + gen(t) * -H.form[t]
    return out


def _pivot_power(H: MaximalSubgroup, e: int) -> tuple:
    """Image of x_pivot^e as (exponent vector, coefficient) pairs, cached."""
    powers = H._images[0]
    if e not in powers:
        img = _generator_image(H, H.pivot, H.subring.x) ** e
        powers[e] = tuple((pows, c) for (_, pows), c in img.terms.items())
    return powers[e]


def _exterior_image(H: MaximalSubgroup, ext: tuple[int, ...]) -> tuple:
    """Image of the exterior monomial a_ext as (index tuple, coefficient)
    pairs, cached; the ordered product carries the Koszul signs."""
    exteriors = H._images[1]
    if ext not in exteriors:
        sub = H.subring
        img = sub.one()
        for i in ext:
            img = img * _generator_image(H, i - 1, sub.a)
        exteriors[ext] = tuple((idx, c) for (idx, _), c in img.terms.items())
    return exteriors[ext]


def restrict(y: Element, H: MaximalSubgroup) -> Element:
    """Image of y under restriction to H, over rank n-1.

    Restriction is the linear substitution x_pivot -> -sum_{i > pivot}
    form_i x_i (a_pivot likewise), the other coordinates renumbered in
    order.  Each term costs one shifted copy of the cached image of its
    pivot power, times the cached image of its exterior part."""
    if (y.p, y.n) != (H.ring.p, H.ring.n):
        raise ValueError("element and subgroup live over different rings")
    j = H.pivot
    acc: dict = {}
    get = acc.get
    for (ext, pows), c in y.terms.items():
        ext_img = _exterior_image(H, ext)
        if not ext_img:
            continue
        kept = pows[:j] + pows[j + 1:]
        for shift, k in _pivot_power(H, pows[j]):
            mon = tuple(map(add, kept, shift))
            ck = c * k
            for idx, s in ext_img:
                key = (idx, mon)
                acc[key] = get(key, 0) + ck * s
    return _element(y.p, y.n - 1, acc)


def is_essential(y: Element) -> bool:
    """True when every restriction to a maximal subgroup vanishes."""
    ring = Ring(y.p, y.n)
    return all(restrict(y, H).is_zero() for H in maximal_subgroups(ring))


def _restriction_matrix(ring: Ring, r: int, k: int) -> np.ndarray:
    """Restriction to every maximal subgroup on the run of rank-r monomials
    a_E x^m with |m| = k, E-major and m in _compositions order: one
    codomain x domain block per subgroup, stacked in subgroup order.

    Restriction is an algebra map, so the block is the Kronecker product of
    the exterior image matrix (columns a_E) and the polynomial image matrix
    (columns x^m), written in place as a broadcast product.  x^m goes to
    its kept exponents shifted by each term of the image of
    x_pivot^(m_pivot), all columns expanded at once; a mixed-radix key with
    the first coordinate most significant finds each target among the
    codomain exponents, which descend in that key.

    Entries are not reduced mod p.  Each is a product of two residues in
    0..p-1, at most (p - 1)^2, and p is prime, so it is nonzero exactly when
    it is nonzero mod p, as pruned_null_space requires."""
    n = ring.n
    subs = maximal_subgroups(ring)
    exts = list(combinations(range(1, n + 1), r))
    sub_exts = {ext: i for i, ext in enumerate(combinations(range(1, n), r))}
    dom = np.array(list(_compositions(k, n)), dtype=np.int64)
    cod = np.array(list(_compositions(k, n - 1)) or np.zeros((0, 0)), dtype=np.int64)
    if (k + 1) ** (n - 1) > np.iinfo(np.int64).max:
        raise ValueError(f"exponent keys of degree {k} in {n - 1} variables overflow int64")
    radix = (k + 1) ** np.arange(n - 2, -1, -1, dtype=np.int64)
    ascending = (cod @ radix)[::-1]
    height = len(sub_exts) * len(cod)
    mat = np.empty((len(subs) * height, len(exts) * len(dom)), dtype=np.int64)
    if not height:  # the top rank, or n = 1 above degree 0: every image is 0
        return mat
    for h, H in enumerate(subs):
        ext_mat = np.zeros((len(sub_exts), len(exts)), dtype=np.int64)
        for col, ext in enumerate(exts):
            for idx, c in _exterior_image(H, ext):
                ext_mat[sub_exts[idx], col] = c
        images = [_pivot_power(H, e) for e in range(k + 1)]
        sizes = np.array([len(img) for img in images])
        coefs = np.array([c for img in images for _, c in img], dtype=np.int64)
        vecs = np.array([vec for img in images for vec, _ in img], dtype=np.int64)
        # one (column, term of its pivot power's image) pair per target
        e = dom[:, H.pivot]
        counts = sizes[e]
        cols = np.repeat(np.arange(len(dom)), counts)
        first = (np.cumsum(sizes) - sizes)[e] - (np.cumsum(counts) - counts)
        terms = np.arange(len(cols)) + np.repeat(first, counts)
        keys = (np.delete(dom, H.pivot, axis=1)[cols] + vecs[terms]) @ radix
        poly_mat = np.zeros((len(cod), len(dom)), dtype=np.int64)
        poly_mat[len(cod) - 1 - np.searchsorted(ascending, keys), cols] = coefs[terms]
        block = mat[h * height:(h + 1) * height].reshape(len(sub_exts), len(cod), -1, len(dom))
        np.multiply(ext_mat[:, None, :, None], poly_mat[None, :, None, :], out=block)
    return mat


@lru_cache(maxsize=None)
def _ess_data(ring: Ring, degree: int):
    """(kernel span, {exterior rank: kernel span}) of all restrictions on one
    degree, both in the coordinates of the whole degree.

    Restriction preserves exterior rank, so the joint kernel is computed once
    per rank.  Each rank is a contiguous run of the basis, and the runs come
    in basis order, so stacking the pieces in that order is already the RREF
    of the whole kernel."""
    basis = monomial_basis(ring, degree)
    by_rank: dict[int, DegreeSpan] = {}
    full = np.zeros((0, len(basis)), dtype=np.int64)
    for r, run in groupby(basis.monomials, key=lambda mon: len(mon.ext)):
        mons = tuple(run)
        k = degree if ring.mod2 else (degree - r) // 2
        exts = combinations(range(1, ring.n + 1), r)
        assert mons == tuple(product(exts, _compositions(k, ring.n))), "not the block column order"
        kernel = pruned_null_space(_restriction_matrix(ring, r, k), ring.p)
        rows = np.zeros((len(kernel), len(basis)), dtype=np.int64)
        start = basis.index_of(mons[0])
        rows[:, start:start + len(mons)] = kernel
        by_rank[r] = DegreeSpan(ring.p, degree, rows)
        full = np.vstack([full, rows])
    return DegreeSpan(ring.p, degree, full), by_rank


def ess_basis(ring: Ring, degree: int) -> DegreeSpan:
    """RREF basis of the essential classes of one degree."""
    return _ess_data(ring, degree)[0]


def ess_basis_by_rank(ring: Ring, degree: int) -> dict[int, DegreeSpan]:
    """The essential classes of one degree, split by exterior rank."""
    return dict(_ess_data(ring, degree)[1])


def ess_elements(ring: Ring, degree: int) -> list[Element]:
    """The RREF basis of ess_basis as elements."""
    return monomial_basis(ring, degree).elements(ess_basis(ring, degree).rows)


def decompose(y: Element) -> dict[tuple[int, ...], Element]:
    """Coordinates of an essential class over the polynomial subalgebra, in
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


# Total dimension past which steenrod_closure gives up.
MAX_CLOSURE_DIMENSION = 100_000


def steenrod_closure(seed: Element, max_degree: int) -> dict[int, DegreeSpan]:
    """Degreewise spans of the smallest ideal containing the seed and closed
    under the Steenrod operations, up to max_degree.

    Worklist saturation: each new span element is multiplied by every algebra
    generator and hit with every operation whose output degree stays in
    bounds.  All operations strictly raise degree, so one ascending pass over
    the degrees reaches the fixpoint.
    """
    ring = Ring(seed.p, seed.n)
    p = ring.p
    deg = seed.total_degree()
    if not isinstance(deg, int) and deg != ZERO:
        raise ValueError("seed must be homogeneous")
    builders: dict[int, SpanBuilder] = {}
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
            builder = builders[d] = SpanBuilder(len(monomial_basis(ring, d)), p)
        if builder.insert(monomial_basis(ring, d).coords(el)):
            total_dim += 1
            if total_dim > MAX_CLOSURE_DIMENSION:
                raise RuntimeError(f"closure exceeded the dimension cap {MAX_CLOSURE_DIMENSION}")
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
                    insert(bockstein(el))
                top = (max_degree - d) // (2 * (p - 1))
            else:
                top = max_degree - d
            for k in range(1, top + 1):
                insert(power_op(k, el))
    return {
        d: builders[d].to_span(d)
        if d in builders
        else zero_span(p, d, len(monomial_basis(ring, d)))
        for d in range(max_degree + 1)
    }


def proof_word(ring: Ring, subset) -> tuple:
    """The explicit operation word carrying the top subset invariant to the
    one indexed by the given subset: a Bockstein step whenever 1 is missing,
    otherwise a power operation P^(p^(u-2)) that walks the smallest gap down."""
    if ring.mod2:
        raise ValueError("proof words need odd p")
    n = ring.n
    target = frozenset(subset)
    everything = frozenset(range(1, n + 1))
    if not target <= everything:
        raise ValueError("subset out of range")
    word = []
    current = target
    while current != everything:
        u = min(everything - current)
        if u == 1:
            word.append(("b",))
            current = current | {1}
        else:
            word.append(("P", ring.p ** (u - 2)))
            current = (current - {u - 1}) | {u}
    return tuple(word)
