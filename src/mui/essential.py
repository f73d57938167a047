"""Maximal subgroups, restriction maps, and the essential ideal.

A maximal subgroup is the kernel of a nonzero linear form normalized to
leading coefficient 1, one per point of the projective space of the dual.
Restriction is the algebra map that kills the form: the linear substitution
x_pivot -> -sum_{i > pivot} form_i x_i (a_pivot likewise) at the form's
leading coordinate, the other generators renumbered in order, stated once
as restriction_map on runs of monomials.  The essential classes of one
degree are the joint kernel of all restrictions, computed with exact linear
algebra one exterior rank and one torus weight at a time.  The diagonal
torus T of GL_n(F_p) permutes the maximal subgroups and scales each
monomial a_E x^m by the character of its weight ((eps_i + m_i) mod
(p - 1))_i; |T| = (p - 1)^n is prime to p, so (Maschke) the GL_n-stable
essential ideal is the direct sum of its weight parts, and on one weight
space one subgroup per T-orbit, the 0/1 forms, gives the whole kernel.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, product

from . import field
from .algebra import Element, Ring, ZERO, _merge_ext
from .invariants import mui_set, product_sign
from .linalg import (
    CHUNK_BYTES,
    DegreeSpan,
    _check_int64_prime,
    _exponent_rank,
    _exponents,
    _exterior,
    _from_term_arrays,
    _read_only,
    _term_arrays,
    basis_dimension,
    monomial_basis,
    pruned_null_space,
    rref_stack,
)
from .steenrod import bockstein_map, power_map

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


@lru_cache(maxsize=None)
def maximal_subgroups(ring: Ring) -> tuple[MaximalSubgroup, ...]:
    """One subgroup per projective point of the dual, deterministic order."""
    if ring.n < 1:
        raise ValueError("rank must be at least 1")
    return tuple(MaximalSubgroup(ring, form) for form in projective_forms(ring.p, ring.n))


@lru_cache(maxsize=None)
def _exterior_table(H: MaximalSubgroup) -> tuple:
    """The image under restriction to H of every a_E, by bitmask E (bit
    i - 1 for a_i; mask 0 alone at p = 2), as read-only (first term, term
    count, target bitmasks, coefficients) arrays, a_E's terms consecutive.
    With j the pivot, a_j goes to -sum_{t > j} form_t a_t, each a_t moving
    past the #{e in E : j < e < t} factors between; then the bits above j
    move down by one."""
    n, j, p = H.ring.n, H.pivot, H.ring.p
    masks = np.arange(1 if H.ring.mod2 else 1 << n)[:, None]
    # column t is the term with a_j sent to a_t, column j the renumbering
    cols = np.arange(n)
    bits = masks >> cols & 1
    has_j = bits[:, j:j + 1]
    # the factors between a_j and a_t
    between = np.cumsum(bits, axis=1) - bits - bits[:, :j + 1].sum(axis=1, keepdims=True)
    coef = np.where(cols > j, has_j * (1 - bits) * -np.array(H.form) * (1 - 2 * (between & 1)),
                    (cols == j) * (1 - has_j)) % p
    mask, col = np.nonzero(coef)
    moved = np.where(cols > j, masks & ~(1 << j) | 1 << cols, masks)[mask, col]
    count = np.bincount(mask, minlength=len(masks))
    return _read_only(np.cumsum(count) - count, count,
                      moved & (1 << j) - 1 | moved >> (j + 1) << j, coef[mask, col])


@lru_cache(maxsize=None)
def _pivot_power(H: MaximalSubgroup, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The image of x_pivot^e under restriction to H, L^e with
    L = -sum_{t > pivot} form_t x_t, as read-only (exponent rows over the
    subring, coefficients in 1..p-1), by the base-p digits of e.

    Over F_p, L^(m p + r) = (L^m)^p L^r, and (L^m)^p is L^m with its
    exponents times p (Frobenius; c^p = c).  For r < p, L^r is the
    multinomial expansion over the q nonzero entries of the form past the
    pivot: each share vector s of sum r has the nonzero coefficient
    r! / prod_t s_t! prod_t (-form_t)^(s_t).  Every share is below p, so
    the base-p digits of an exponent give back the shares of each digit, no
    two terms merge, and L^e has exactly prod_i C(e_i + q - 1, q - 1) terms
    over the digits e_i of e."""
    n, p = H.ring.n, H.ring.p
    if e >= p:
        (high, high_coef), (low, low_coef) = _pivot_power(H, e // p), _pivot_power(H, e % p)
        return _read_only((p * high[:, None] + low).reshape(len(high) * len(low), n - 1),
                          (high_coef[:, None] * low_coef).ravel() % p)
    ts = [t for t in range(H.pivot + 1, n) if H.form[t]]
    shares = _exponents(e, len(ts))
    fact = list(accumulate(range(1, e + 1), lambda f, k: f * k % p, initial=1))
    coef = np.full(len(shares), fact[e], dtype=np.int64)
    for i, t in enumerate(ts):
        table = [pow(-H.form[t], s, p) * pow(fact[s], -1, p) % p for s in range(e + 1)]
        coef = coef * np.array(table, dtype=np.int64)[shares[:, i]] % p
    pows = np.zeros((len(shares), n - 1), dtype=np.int64)
    pows[:, [t - 1 for t in ts]] = shares
    return _read_only(pows, coef)


def restriction_map(H: MaximalSubgroup, masks: np.ndarray, pows: np.ndarray) -> tuple:
    """Restriction to H on the monomials a_E x^m given by exterior bitmasks
    and exponent rows, as (source, target bitmask, target exponents,
    coefficient) arrays over the subring, like steenrod.power_map: one entry
    per term of each image, in order of source.  a_E x^m goes to the image
    of a_E times x^m without its pivot exponent times the image of
    x_pivot^(m_pivot); those terms have distinct bitmasks and distinct
    exponents, so no (source, target) pair repeats.  Coefficients lie in
    1..p-1."""
    _check_int64_prime(H.ring.p)
    j, n = H.pivot, H.ring.n
    ext_first, ext_count, ext_masks, ext_coef = _exterior_table(H)
    # the distinct pivot exponents, and which of them each monomial has
    e = pows[:, j]
    present = np.zeros(int(e.max(initial=0)) + 1, dtype=bool)
    present[e] = True
    which = (np.cumsum(present) - 1)[e]
    images = [_pivot_power(H, v) for v in np.flatnonzero(present).tolist()]
    sizes = np.array([len(c) for _, c in images], dtype=np.int64)
    img_pows, img_coef = map(np.concatenate, zip(
        (np.zeros((0, n - 1), dtype=np.int64), np.zeros(0, dtype=np.int64)), *images))
    # monomial i has one entry per (exterior term, pivot term) pair, the
    # pivot term varying fastest
    width = sizes[which]
    count = ext_count[masks] * width
    src = np.repeat(np.arange(len(e)), count)
    ends = np.cumsum(count)
    ext, term = np.divmod(np.arange(len(src)) - np.repeat(ends - count, count), width[src])
    ext += ext_first[masks[src]]
    term += (np.cumsum(sizes) - sizes)[which[src]]
    tgt_pows = np.delete(pows, j, axis=1).take(src, axis=0) + img_pows.take(term, axis=0)
    return src, ext_masks[ext], tgt_pows, ext_coef[ext] * img_coef[term] % H.ring.p


def restrict(y: Element, H: MaximalSubgroup) -> Element:
    """Image of y under restriction to H, over rank n-1: restriction_map on
    the terms of y."""
    if (y.p, y.n) != (H.ring.p, H.ring.n):
        raise ValueError("element and subgroup live over different rings")
    _, masks, pows, coef = _term_arrays(H.ring, y)
    src, tgt_masks, tgt_pows, c = restriction_map(H, masks, pows)
    return _from_term_arrays(H.subring, tgt_masks, tgt_pows, coef[src] * c)


def is_essential(y: Element) -> bool:
    """True when every restriction to a maximal subgroup vanishes."""
    ring = Ring(y.p, y.n)
    return all(restrict(y, H).is_zero() for H in maximal_subgroups(ring))


@lru_cache(maxsize=None)
def _orbit_subgroups(ring: Ring) -> tuple[MaximalSubgroup, ...]:
    """One maximal subgroup per orbit of the diagonal torus: the forms with
    entries in {0, 1}, 2^n - 1 of them, in the order of maximal_subgroups.
    The torus scales each entry of a form by a unit, so an orbit is the set
    of forms of one support, and holds one 0/1 form; at p = 2 that is every
    subgroup."""
    return tuple(H for H in maximal_subgroups(ring) if max(H.form) == 1)


def _torus_weights(ring: Ring, degree: int, masks: np.ndarray, pows: np.ndarray) -> np.ndarray:
    """The torus weight of each monomial a_E x^m of one degree given by
    exterior bitmasks and exponent rows, ((eps_i + m_i) mod (p - 1))_i with
    eps_i the i-th exterior bit, as one integer per monomial: the digits in
    base min(p - 1, degree + 1), which exceeds every digit.  All 0 at p = 2."""
    base = min(ring.p - 1, degree + 1)
    digits = ((masks[:, None] >> np.arange(ring.n) & 1) + pows) % (ring.p - 1)
    return digits @ base ** np.arange(ring.n, dtype=np.int64)


@lru_cache(maxsize=None)
def _ess_data(ring: Ring, degree: int):
    """(kernel span, {exterior rank: kernel span}) of all restrictions on one
    degree, both in the coordinates of the whole degree, read-only.

    The joint kernel is GL_n-stable, so stable under the diagonal torus T,
    which acts on a_E x^m by the character of its weight (_torus_weights).
    T has order (p - 1)^n, prime to p, so the kernel is the direct sum of
    its parts on the weight spaces (Maschke).  For t in T and y of one
    weight, t^* y is a nonzero multiple of y, so res_(tH) y = 0 exactly
    when res_H y = 0: on a weight space the kernel over one subgroup per
    T-orbit, _orbit_subgroups, is the whole joint kernel.
    restriction_map runs once per such subgroup on the whole
    degree, its targets located by DegreeBasis.positions in the subring's
    basis, as int32.  Restriction preserves exterior rank, so the joint
    kernel is computed once per rank, by one pruned_null_space of the slices
    of the maps on that rank's run, its columns classed by weight; at p = 2
    there is one weight and every subgroup is taken.  Each rank is a
    contiguous run of the basis, and the runs come in basis order, so the
    pieces stacked in that order are the RREF of the whole kernel, and the
    rank spans are row slices of it."""
    if ring.n < 1:
        raise ValueError("rank must be at least 1")
    basis = monomial_basis(ring, degree)
    cod = monomial_basis(Ring(ring.p, ring.n - 1), degree)
    stored = np.min_scalar_type(ring.p - 1)
    maps = []
    for H in _orbit_subgroups(ring):
        src, tgt_masks, tgt_pows, coef = restriction_map(H, *basis.arrays)
        maps.append((src.astype(np.int32), cod.positions(tgt_masks, tgt_pows).astype(np.int32),
                     coef.astype(stored)))
    weights = _torus_weights(ring, degree, *basis.arrays)
    kernels = []
    for r, run in basis.runs.items():
        # the entries come in order of source, so a run is one slice of each map
        cuts = [np.searchsorted(src, (run.start, run.stop)) for src, _, _ in maps]
        kernels.append(pruned_null_space([(src[a:b] - run.start, tgt[a:b], coef[a:b])
                                          for (src, tgt, coef), (a, b) in zip(maps, cuts)],
                                         run.stop - run.start, ring.p, weights[run]))
    # the maps go before the whole kernel is assembled, to lower the peak
    del maps
    ends = list(accumulate(map(len, kernels), initial=0))
    full = np.zeros((ends[-1], len(basis)), dtype=stored)
    for run, kernel, at in zip(basis.runs.values(), kernels, ends):
        full[at:at + len(kernel), run] = kernel
    _read_only(full)
    return DegreeSpan(ring.p, degree, full), {
        r: DegreeSpan(ring.p, degree, full[a:b]) for r, a, b in zip(basis.runs, ends, ends[1:])}


def ess_basis(ring: Ring, degree: int) -> DegreeSpan:
    """RREF basis of the essential classes of one degree."""
    return _ess_data(ring, degree)[0]


def ess_basis_by_rank(ring: Ring, degree: int) -> dict[int, DegreeSpan]:
    """The essential classes of one degree, split by exterior rank."""
    return dict(_ess_data(ring, degree)[1])


class ConfigError(ValueError):
    """Raised when a configuration exceeds the resource guard."""


# The price of a decompose in bytes: per numerator column, one byte of
# product-map output and three int64 copies (solve, residual, reduction);
# per solve cell, the n-wide shifted exponents of _division_levels twice over
# and about eight int64 temporaries.  Max RSS grew by less than the price in
# every case measured at (3,3), (3,4), (5,4) and (3,5), so an accepted
# decompose grows it by at most MAX_DECOMPOSE_BYTES (the top class at (3,5):
# 241 MB priced, 223 MB measured).
MAX_DECOMPOSE_BYTES = 512 * 2**20


def check_decompose(ring: Ring, y: Element) -> None:
    """Refuse an element of odd p whose decomposition would pass
    MAX_DECOMPOSE_BYTES, before anything is built.  For each homogeneous
    part of exterior rank r and each S with |S| = r, the numerator y M_T has
    C(k_S + D + n - 1, n - 1) columns, D = (p^n - 1)/(p - 1) = deg L_n / 2,
    and its division by L_n solves for one unknown per exponent vector of
    degree k_S, each reading the n! - 1 other terms of L_n:
    C(k_S + n - 1, n - 1) * n! cells.  decompose itself refuses p = 2."""
    if ring.mod2:
        return
    n = ring.n
    top = (ring.p**n - 1) // (ring.p - 1)
    columns = cells = 0
    for rank, half in {(len(ext), sum(pows)) for ext, pows in y.terms}:
        for subset in combinations(range(1, n + 1), rank):
            k = _quotient_degree(ring, rank + 2 * half, subset)
            columns += math.comb(k + top + n - 1, n - 1)
            if k >= 0:
                cells += math.comb(k + n - 1, n - 1) * math.factorial(n)
    price = 26 * columns + (16 * n + 64) * cells
    if price > MAX_DECOMPOSE_BYTES:
        raise ConfigError(f"decomposing this element at p={ring.p}, n={n} needs about "
                          f"{-(-price // 2**20)} MB for {columns} numerator columns and {cells} "
                          f"cells of triangular solve (cap {MAX_DECOMPOSE_BYTES // 2**20} MB)")


def decompose(y: Element) -> dict[tuple[int, ...], Element]:
    """Coordinates of an essential class over the polynomial subalgebra, in
    the basis of subset invariants of its exterior rank.

    Requires odd p, rank n >= 1 and y nonzero in one exterior rank.  Each
    homogeneous part of y goes through decompose_rows as one coordinate
    row.  The returned map S -> f_S satisfies sum of f_S * M_{n,S} == y
    exactly; ValueError for an input that is not essential, RuntimeError
    when an essential one fails to decompose, and ConfigError, before
    anything is built, for one that check_decompose prices past its cap.
    """
    ring = Ring(y.p, y.n)
    if ring.mod2:
        raise ValueError("subset-invariant decomposition needs odd p")
    if ring.n < 1:
        raise ValueError("rank must be at least 1")
    check_decompose(ring, y)
    if y.is_zero():
        raise ValueError("cannot infer the exterior rank of zero")
    ranks = y.exterior_ranks()
    if len(ranks) > 1:
        raise ValueError(f"element mixes exterior ranks {sorted(ranks)}")
    r = ranks.pop()
    _, masks, pows, coef = _term_arrays(ring, y)
    degrees = r + 2 * pows.sum(axis=1)
    result = {subset: ring.zero() for subset in combinations(range(1, ring.n + 1), r)}
    for degree in sorted(set(degrees.tolist())):
        part = degrees == degree
        basis = monomial_basis(ring, degree)
        run = basis.run(r)
        row = np.zeros((1, run.stop - run.start), dtype=np.int64)
        row[0, basis.positions(masks[part], pows[part]) - run.start] = coef[part]
        parts, errors = decompose_rows(ring, degree, r, row)
        if errors[0] is not None:
            raise errors[0]
        for subset, f in parts.items():
            if f.shape[1]:
                quotients = monomial_basis(ring, 2 * _quotient_degree(ring, degree, subset))
                result[subset] = result[subset] + quotients.element(f[0], 0)
    return result


def decompose_rows(ring: Ring, degree: int, rank: int, rows: np.ndarray) -> tuple[dict, list]:
    """decompose for many classes of one degree and exterior rank at once,
    on coefficient arrays: the classes are coordinate rows, entries in
    0..p-1, on the run of that rank in monomial_basis(ring, degree).  Returns
    ({S: f_S}, errors): f_S holds one coordinate row per class on the
    exponent vectors of its degree (_exponents order; no columns when
    deg M_{n,S} > degree), and errors[i] is None, or the ValueError or
    RuntimeError that names the failure of row i.

    With T the complement of S, y M_{n,T} = f_S sign lambda L_n a_1..a_n,
    where M_{n,1..n} = lambda a_1..a_n, so each f_S is one division by L_n
    (_divide_by_l_n); the products are _left_product.  The reconstruction
    sum of f_S M_{n,S} == y is the proof that y is essential, since every
    M_{n,S} restricts to zero; is_essential runs only on a row that fails,
    to name the failure."""
    n, p = ring.n, ring.p
    if n < 1:
        raise ValueError("rank must be at least 1")
    full = tuple(range(1, n + 1))
    lam_inv = field.inv(mui_set(ring, full).coefficient(full, (0,) * n), p)
    rows = np.asarray(rows, dtype=np.int64)
    exact = np.ones(len(rows), dtype=bool)
    recon = np.zeros(rows.shape, dtype=np.int64)
    result = {}
    for subset in combinations(full, rank):
        comp = tuple(s for s in full if s not in subset)
        k = _quotient_degree(ring, degree, subset)
        # the product map gives M_T y, which is (-1)^(r (n - r)) y M_T
        q, ok = _divide_by_l_n(ring, k, _left_product(ring, _mui_terms(ring, comp), rows, degree,
                                                       rank))
        exact &= ok
        scale = (-1) ** (rank * (n - rank)) * product_sign(subset, comp) * lam_inv
        result[subset] = f = q * scale % p
        if k >= 0:
            recon += _left_product(ring, _mui_terms(ring, subset), f, 2 * k, 0)
    exact &= (recon % p == rows).all(axis=1)
    basis = monomial_basis(ring, degree)
    return result, [None if ok else _failure(basis.element(row, rank))
                    for ok, row in zip(exact.tolist(), rows)]


def _failure(y: Element) -> Exception:
    """The error for a class that did not decompose, named by is_essential."""
    if not is_essential(y):
        return ValueError("element is not essential")
    return RuntimeError("decomposition failed to reconstruct the input")


def _quotient_degree(ring: Ring, degree: int, subset: tuple[int, ...]) -> int:
    """The polynomial degree of f_S for a class of the given degree and
    exterior rank |S|: (degree - deg M_{n,S}) / 2, negative when
    deg M_{n,S} > degree."""
    return (degree - len(subset)) // 2 - sum(
        ring.p ** (t - 1) for t in range(1, ring.n + 1) if t not in subset)


@lru_cache(maxsize=None)
def _mui_terms(ring: Ring, subset: tuple[int, ...]) -> tuple:
    """M_S as the term arrays of _product_map; the empty subset gives L_n."""
    return _read_only(*_term_arrays(ring, mui_set(ring, subset)))


def _left_product(ring: Ring, g: tuple, rows: np.ndarray, degree: int, rank: int) -> np.ndarray:
    """g y for the classes y given as coordinate rows on the rank run of
    monomial_basis(ring, degree) and g as term arrays of one degree and
    exterior rank, by _product_map and _apply_map on the columns where some
    row is nonzero: coordinate rows on the run where the products land."""
    t, t_rank = degree + _term_degree(ring, g), rank + bin(int(g[1][0])).count("1")
    support = np.flatnonzero(rows.any(axis=0))
    masks, pows = (a[support] for a in monomial_basis(ring, degree).run_arrays(rank))
    src, tgt, coef, _ = _product_map(ring, degree, masks, pows, g)
    run = monomial_basis(ring, t).run(t_rank)
    return _apply_map(rows[:, support], src, tgt - run.start, coef, run.stop - run.start, ring.p)


@lru_cache(maxsize=None)
def _division_levels(ring: Ring, k: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The triangular solve of L_n q = N for q of polynomial degree k, as
    (levels, products, coefficients).

    products[m, j] is the position of m + t_j among the exponent vectors of
    degree k + deg L_n, for quotient monomial m and term t_j of L_n, whose
    signed coefficient is coefficients[j]; column 0 is the lead term t_0,
    the largest in lexicographic order.  That is a monomial order, so the
    pivot m + t_0 of m has N = sum_j c_j q_(m + t_0 - t_j), and every
    m + t_0 - t_j with j > 0 lies above m: q_m depends only on the q above
    it.  A level holds the m whose longest chain of such dependencies has
    one length; each level is (indices of m, their pivots, positions of
    each m + t_0 - t_j among the exponent vectors of degree k, or the extra
    index len(q) where that has a negative entry).  The coefficients of L_n
    are +-1 (a permutation expansion with distinct monomials), kept signed:
    c_0 is its own inverse, and a level's sums stay below n! p.  The n-wide
    exponent sums are built in chunks of at most CHUNK_BYTES.  Every table
    holds positions, far below 2^31 under MAX_DECOMPOSE_BYTES, so the cache
    keeps them as int32; deps stays int64 while it is levelled, as a gather
    by int32 indices would convert them on every pass."""
    n, p = ring.n, ring.p
    _, _, terms, coef = _mui_terms(ring, ())
    order = np.lexsort(terms.T[::-1])[::-1]
    terms, coef = terms[order], np.where(coef > p // 2, coef - p, coef)[order]
    quot = _exponents(k, n)
    products = np.empty((len(quot), len(terms)), dtype=np.int32)
    deps = np.full((len(quot), len(terms) - 1), len(quot), dtype=np.int64)
    step = max(1, CHUNK_BYTES // terms.nbytes)
    for i in range(0, len(quot), step):
        part = quot[i:i + step, None]
        products[i:i + step] = _exponent_rank(part + terms)
        shifted = part + (terms[0] - terms[1:])
        valid = (shifted >= 0).all(axis=2)
        deps[i:i + step][valid] = _exponent_rank(shifted[valid])
    level = np.zeros(len(quot) + 1, dtype=np.int64)
    level[-1] = -1
    while True:
        longer = level[deps].max(axis=1, initial=-1) + 1
        if np.array_equal(longer, level[:-1]):
            break
        level[:-1] = longer
    ranked = np.argsort(longer, kind="stable")
    bounds = np.searchsorted(longer[ranked], np.arange(1, int(longer.max(initial=0)) + 1))
    levels = [(idx.astype(np.int32), products[idx, 0], deps[idx].astype(np.int32))
              for idx in np.split(ranked, bounds)]
    return levels, products, coef


def _divide_by_l_n(ring: Ring, k: int, num: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, exact) with q the coordinate rows of polynomial degree k that
    match the rows of num (coordinates on the exponent vectors of degree
    k + deg L_n, entries in 0..p-1) at every pivot of _division_levels,
    solved one level at a time; exact says for each row whether L_n q
    equals num on every monomial, the test for exact division."""
    p = ring.p
    if k < 0:
        return np.zeros((len(num), 0), dtype=np.int64), ~num.any(axis=1)
    levels, products, coef = _division_levels(ring, k)
    num = num.astype(np.int64)
    # q_m = (N_pivot - sum_(j > 0) c_j q_(m + t_0 - t_j)) / c_0; the extra
    # last column of q stays 0
    q = np.zeros((len(num), len(products) + 1), dtype=np.int64)
    weights = -coef[1:] * coef[0]
    for idx, pivots, deps in levels:
        q[:, idx] = (coef[0] * num[:, pivots] + q[:, deps] @ weights) % p
    q = q[:, :-1]
    # each term of L_n moves the quotient monomials injectively
    rest = num.copy()
    for j, c in enumerate(coef.tolist()):
        rest[:, products[:, j]] -= c * q
    return q, ~(rest % p).any(axis=1)


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
    outnumber the basis.
    """
    ring = Ring(seed.p, seed.n)
    p = ring.p
    _check_int64_prime(p)
    deg = seed.total_degree()
    if not isinstance(deg, int) and deg != ZERO:
        raise ValueError("seed must be homogeneous")
    pending: dict[int, list[np.ndarray]] = defaultdict(list)
    if isinstance(deg, int) and deg <= max_degree:
        pending[deg].append(monomial_basis(ring, deg).coords(seed)[None])
    spans = {}
    total_dim = 0
    for d in range(max_degree + 1):
        rows = rref_stack(pending.pop(d, ()), p, basis_dimension(ring, d))
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
                waiting[:] = [rref_stack(waiting, p, width)]
    return spans


def _operation_maps(ring: Ring, d: int, support: np.ndarray, max_degree: int) -> list:
    """The generators and operations of steenrod_closure on the degree-d
    monomials at the basis positions in support, as (target degree,
    (source, target, coefficient, map) arrays) pairs up to max_degree, one
    entry per term of an image: map number map[i] sends monomial
    support[source[i]] to coefficient[i] times the monomial at basis
    position target[i].

    Left multiplication by the a_i (the x_i at p = 2) is _product_map; the
    Bockstein and the P^k are steenrod.bockstein_map and steenrod.power_map,
    their targets found by DegreeBasis.positions."""
    n, p = ring.n, ring.p
    masks, pows = (a[support] for a in monomial_basis(ring, d).arrays)

    def located(t, src, tgt_masks, tgt_pows, coef):
        tgt = monomial_basis(ring, t).positions(tgt_masks, tgt_pows)
        return t, (src, tgt, coef % p, np.zeros_like(src))

    found = []
    if d < max_degree:
        gens = [ring.x(i) if ring.mod2 else ring.a(i) for i in range(1, n + 1)]
        found.append((d + 1, _product_map(ring, d, masks, pows, _term_arrays(ring, *gens))))
        if not ring.mod2:
            found.append(located(d + 1, *bockstein_map(masks, pows)))
    step = 1 if ring.mod2 else 2 * (p - 1)
    k = 1
    while d + k * step <= max_degree:
        # instability: P^k vanishes below degree 2k, Sq^k below degree k
        if k <= (d if ring.mod2 else d // 2):
            found.append(located(d + k * step, *power_map(k, masks, pows, p)))
        k *= p
    return found


# rows of sub times target columns imaged at once by _image_rows
IMAGE_CHUNK_CELLS = 2**21


def _signs(ring: Ring, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The Koszul signs of a_T a_E for the exterior bitmasks (bit i - 1 for
    a_i) T in left and E in right, 0 where T meets E, read from _merge_ext."""
    exts = [[_exterior(m, ring.n) for m in a.tolist()] for a in (left, right)]
    return np.array([[(_merge_ext(t, e) or (0,))[0] for e in exts[1]] for t in exts[0]],
                    dtype=np.int64).reshape(len(left), len(right))


def _term_degree(ring: Ring, g: tuple) -> int:
    """The common degree of the terms of g, given as term arrays."""
    _, masks, pows, _ = g
    return bin(int(masks[0])).count("1") + (1 if ring.mod2 else 2) * int(pows[0].sum())


def _product_map(ring: Ring, d: int, masks: np.ndarray, pows: np.ndarray, g: tuple) -> tuple:
    """The maps y -> g_k y on the degree-d monomials a_E x^m given by
    exterior bitmasks and exponent rows, as the (source, target,
    coefficient, map) arrays of _operation_maps, source i for the i-th
    monomial, map k for g_k.  The g_k share one degree and are given as
    term arrays (see _term_arrays).  A term c a_T x^q times a_E x^m is
    sign(T, E) c a_(T u E) x^(q + m), the sign read from one _signs table
    over the distinct T and E; DegreeBasis.positions finds the targets, so no basis
    of the degree of g or of the product is built."""
    which, g_masks, g_pows, g_coef = g
    g_exts, g_ext = np.unique(g_masks, return_inverse=True)
    exts, ext = np.unique(masks, return_inverse=True)
    live = _signs(ring, g_exts, exts)[g_ext][:, ext]
    term, src = np.nonzero(live)
    t = d + (_term_degree(ring, g) if len(which) else 0)
    tgt = monomial_basis(ring, t).positions(g_masks[term] | masks[src], g_pows[term] + pows[src])
    return src, tgt, live[term, src] * g_coef[term] % ring.p, which[term]


def _image_rows(sub: np.ndarray, src, tgt, coef, which, width: int, p: int) -> list:
    """The images of the rows of sub (one column per source) under the maps
    of _operation_maps or _product_map into a degree with basis of the
    given width, one block per map, zero rows dropped, by _apply_map."""
    if not len(which):
        return []
    count = int(which.max()) + 1
    out = _apply_map(sub, src, which * width + tgt, coef, count * width, p)
    blocks = out.reshape(len(sub), count, width).transpose(1, 0, 2)
    return [block[block.any(axis=1)] for block in blocks]


def _apply_map(sub: np.ndarray, src, tgt, coef, width: int, p: int) -> np.ndarray:
    """The rows of sub (one column per source) times the map with an entry
    coef[i] from source src[i] to target tgt[i] < width, reduced mod p into
    the smallest dtype that holds p - 1.  The (source, target) pairs are
    added in rounds that hit each target at most once, reduced before int64
    could overflow, on chunks of rows of bounded size."""
    out = np.zeros((len(sub), width), dtype=np.min_scalar_type(p - 1))
    if not len(tgt):
        return out
    cols, tgt = np.unique(tgt, return_inverse=True)
    # round k takes the k-th pair into each target: sort by target, number
    # each pair within its run, then sort by that number
    order = np.argsort(tgt, kind="stable")
    first = np.flatnonzero(np.concatenate([[True], np.diff(tgt[order]) != 0]))
    rounds = np.arange(len(tgt)) - np.repeat(first, np.diff(first, append=len(tgt)))
    order = order[np.argsort(rounds, kind="stable")]
    # int64 coefficients: their products with small-dtype rows must not wrap
    src, tgt, coef = src[order], tgt[order], coef[order].astype(np.int64)
    bounds = np.searchsorted(np.sort(rounds), np.arange(int(rounds.max()) + 2))
    budget = (2**63 - 1 - p) // (p - 1) ** 2
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
    return out


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
