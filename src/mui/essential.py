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
from .algebra import Element, NotDivisibleError, Ring, ZERO, _element, _merge_ext
from .invariants import l_n, mui_set, product_sign
from .linalg import (
    DegreeSpan,
    _check_int64_prime,
    _compositions,
    _positions,
    basis_dimension,
    monomial_basis,
    pruned_null_space,
    rref_stack,
)
from .steenrod import _cartan_splits

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

    The Steenrod algebra is generated by the Bockstein and the P^(p^i) (the
    Sq^(2^i) at p = 2) (Milnor, "The Steenrod algebra and its dual", Ann. of
    Math. 1958), and every operation raises degree, so closing under these
    alone gives the same truncated ideal.  At odd p, x_i y is
    beta(a_i y) + a_i beta(y), so multiplying by the a_i covers the x_i too;
    at p = 2 the ring generators are the x_i.

    Every candidate of degree d comes from a lower degree, so one ascending
    pass suffices.  At degree d, the blocks of candidate rows waiting there
    go through rref_stack, which gives the span; then each generator and
    operation is applied to all of its rows at once, and the block of images
    waits at its target degree, folded there by rref_stack whenever its rows
    outnumber the basis.  The spans, like the waiting blocks, are stored in
    the smallest dtype that holds p - 1.
    """
    ring = Ring(seed.p, seed.n)
    p = ring.p
    _check_int64_prime(p)
    deg = seed.total_degree()
    if not isinstance(deg, int) and deg != ZERO:
        raise ValueError("seed must be homogeneous")
    stored = np.min_scalar_type(p - 1)
    pending: dict[int, list[np.ndarray]] = defaultdict(list)
    if isinstance(deg, int) and deg <= max_degree:
        pending[deg].append(monomial_basis(ring, deg).coords(seed)[None].astype(stored))
    spans = {}
    total_dim = 0
    for d in range(max_degree + 1):
        rows = rref_stack(pending.pop(d, ()), p, basis_dimension(ring, d)).astype(stored)
        spans[d] = DegreeSpan(p, d, rows)
        total_dim += len(rows)
        if total_dim > MAX_CLOSURE_DIMENSION:
            raise RuntimeError(f"closure exceeded the dimension cap {MAX_CLOSURE_DIMENSION}")
        if not len(rows):
            continue
        support = np.flatnonzero(rows.any(axis=0))
        for t, maps in _operation_maps(ring, d, support, max_degree):
            width = basis_dimension(ring, t)
            waiting = pending[t]
            waiting += _image_rows(rows[:, support], *maps, width, p)
            if sum(map(len, waiting)) > width:
                waiting[:] = [rref_stack(waiting, p, width).astype(stored)]
    return spans


def _operation_maps(ring: Ring, d: int, support: np.ndarray, max_degree: int) -> list:
    """The generators and operations of steenrod_closure on the degree-d
    monomials at the basis positions in support, as (target degree,
    (source, target, coefficient, map) arrays) pairs up to max_degree, one
    entry per term of an image: map number map[i] sends monomial
    support[source[i]] to coefficient[i] times the monomial at basis
    position target[i].

    Left multiplication by the a_i (the x_i at p = 2) is _product_map.  The
    Bockstein sends a_E x^m to the sum over i in E of s a_(E - i) x_i x^m,
    where a_i a_(E - i) = s a_E.  P^k on a_E x^m is a_E times the sum, over
    the shares j of k with prod C(m_l, j_l) nonzero mod p, of that product
    times x^(m + (p - 1) j)."""
    n, p = ring.n, ring.p
    masks, pows = (a[support] for a in monomial_basis(ring, d).arrays)
    found = []
    if d < max_degree:
        gens = [ring.x(i) if ring.mod2 else ring.a(i) for i in range(1, n + 1)]
        found.append((d + 1, _product_map(ring, d, support, _term_arrays(ring, *gens))))
        if not ring.mod2:
            i, src = np.nonzero(masks >> np.arange(n)[:, None] & 1)
            rest, at = np.unique(masks[src] ^ 1 << i, return_inverse=True)
            sign = _signs(ring, 1 << np.arange(n), rest)[i, at] % p
            tgt = _positions(ring, d + 1, rest[at], pows[src] + np.eye(n, dtype=np.int64)[i])
            found.append((d + 1, (src, tgt, sign, np.zeros_like(src))))
    step = 1 if ring.mod2 else 2 * (p - 1)
    k = 1
    while d + k * step <= max_degree:
        # instability: P^k vanishes below degree 2k, Sq^k below degree k
        if k <= (d if ring.mod2 else d // 2):
            t = d + k * step
            rows, shifted, coef = _power_map(pows, k, p)
            found.append((t, (rows, _positions(ring, t, masks[rows], shifted), coef,
                              np.zeros_like(rows))))
        k *= p
    return found


def _power_map(pows: np.ndarray, k: int, p: int):
    """(row, exponents, coefficient) of each term of P^k on the monomials
    x^m given by the rows of pows, one per Cartan split j of k with nonzero
    coefficient, with exponents m + (p - 1) j."""
    rows, shares, coefs = [], [], []
    for row, m in enumerate(map(tuple, pows.tolist())):
        for coef, share in _cartan_splits(m, k, p):
            rows.append(row)
            shares.append(share)
            coefs.append(coef)
    rows = np.array(rows, dtype=np.int64)
    shares = np.array(shares, dtype=np.int64).reshape(len(rows), pows.shape[1])
    return rows, pows[rows] + (p - 1) * shares, np.array(coefs, dtype=np.int64)


# rows of sub times target columns imaged at once by _image_rows
IMAGE_CHUNK_CELLS = 2**21


def _signs(ring: Ring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The Koszul signs of a_T a_E for the exterior bitmasks (bit i - 1 for
    a_i) T in left and E in right, 0 where T meets E, read from _merge_ext."""
    exts = [[tuple(i + 1 for i in range(ring.n) if m >> i & 1) for m in a.tolist()]
            for a in (left, right)]
    return np.array([[(_merge_ext(t, e) or (0,))[0] for e in exts[1]] for t in exts[0]],
                    dtype=np.int64).reshape(len(left), len(right))


def _term_arrays(ring: Ring, *elements: Element) -> tuple:
    """Elements g_0, g_1, ... as the term arrays (which, masks, pows, coef)
    that _product_map reads: term i is coef[i] a_E x^pows[i] in g_which[i],
    E given by the bitmask masks[i]."""
    table = np.array([(k, sum(1 << (i - 1) for i in ext), c, *exps)
                      for k, g in enumerate(elements) for (ext, exps), c in g.terms.items()],
                     dtype=np.int64).reshape(-1, 3 + ring.n)
    return table[:, 0], table[:, 1], table[:, 3:], table[:, 2]


def _product_map(ring: Ring, d: int, support: np.ndarray, g: tuple) -> tuple:
    """The maps y -> g_k y on the degree-d monomials at the basis positions
    in support, as the (source, target, coefficient, map) arrays of
    _operation_maps, map k for g_k.  The g_k share one degree and are given
    as term arrays (see _term_arrays).  A term c a_T x^q times a_E x^m is
    sign(T, E) c a_(T u E) x^(q + m), the sign read from one _signs table
    over the distinct T and E; targets are found by _positions, so no basis
    of the degree of g or of the product is built."""
    which, g_masks, g_pows, g_coef = g
    masks, pows = (a[support] for a in monomial_basis(ring, d).arrays)
    g_exts, g_ext = np.unique(g_masks, return_inverse=True)
    exts, ext = np.unique(masks, return_inverse=True)
    live = _signs(ring, g_exts, exts)[g_ext][:, ext]
    term, src = np.nonzero(live)
    t = d  # plus the degree of g, read from any term
    if len(which):
        t += bin(int(g_masks[0])).count("1") + (1 if ring.mod2 else 2) * int(g_pows[0].sum())
    tgt = _positions(ring, t, g_masks[term] | masks[src], g_pows[term] + pows[src])
    return src, tgt, live[term, src] * g_coef[term] % ring.p, which[term]


def _image_rows(sub: np.ndarray, src, tgt, coef, which, width: int, p: int) -> list:
    """The images of the rows of sub (one column per source) under the maps
    of _operation_maps or _product_map into a degree with basis of the
    given width, one block per map, reduced mod p into the smallest dtype
    that holds p - 1, zero rows dropped.  The (source, target) pairs are
    added in rounds that hit each target at most once, reduced before int64
    could overflow, on chunks of rows of bounded size."""
    if not len(which):
        return []
    cols, tgt = np.unique(which * width + tgt, return_inverse=True)
    # round k takes the k-th pair into each target: sort by target, number
    # each pair within its run, then sort by that number
    order = np.argsort(tgt, kind="stable")
    first = np.flatnonzero(np.concatenate([[True], np.diff(tgt[order]) != 0]))
    rounds = np.arange(len(tgt)) - np.repeat(first, np.diff(first, append=len(tgt)))
    order = order[np.argsort(rounds, kind="stable")]
    src, tgt, coef = src[order], tgt[order], coef[order]
    bounds = np.searchsorted(np.sort(rounds), np.arange(int(rounds.max()) + 2))
    budget = (2**63 - 1 - p) // (p - 1) ** 2
    count = int(which.max()) + 1
    out = np.zeros((len(sub), count * width), dtype=np.min_scalar_type(p - 1))
    step = max(1, IMAGE_CHUNK_CELLS // len(cols))
    for i in range(0, len(sub), step):
        part = sub[i:i + step]
        acc = np.zeros((len(part), len(cols)), dtype=np.int64)
        for k in range(len(bounds) - 1):
            hit = slice(bounds[k], bounds[k + 1])
            acc[:, tgt[hit]] += part[:, src[hit]] * coef[hit]
            if (k + 1) % budget == 0:
                acc %= p
        acc %= p
        out[i:i + step, cols] = acc
    blocks = out.reshape(len(sub), count, width).transpose(1, 0, 2)
    return [block[block.any(axis=1)] for block in blocks]


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
