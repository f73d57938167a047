"""Degreewise exact linear algebra over F_p.

Dense integer matrices reduced by Gaussian elimination; spans are stored in
fully reduced row echelon form so that span equality is array equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .algebra import Element, Monomial, Ring, _element, term_key


# One elimination step moves an entry by at most (p - 1)^2, which must fit
# in int64 beside a residue: (p - 1)^2 < 2^63 - p.
MAX_PRIME = 2**31


def _check_int64_prime(p: int) -> None:
    if p >= MAX_PRIME:
        raise ValueError(f"p = {p} is too large for int64 elimination (need p < 2^31)")


def rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p, zero rows dropped.

    Any integer matrix is accepted; it is reduced mod p once.  Reduction is
    then delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008): each step
    reduces only the pivot column and the pivot row it reads, and subtracts
    from the hit rows without reducing them.  A step moves an entry by at
    most (p - 1)^2, so the whole matrix is reduced only after `budget` steps,
    before int64 could overflow, and once more on the returned rows."""
    _check_int64_prime(p)
    m = np.array(mat, dtype=np.int64)
    m %= p
    budget = max(1, (2**63 - 1 - p) // (p - 1) ** 2)
    n_rows, n_cols = m.shape
    r = steps = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        col = m[:, c]
        col %= p
        below = np.flatnonzero(col[r:])
        if not len(below):
            continue
        pivot = r + int(below[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        row = m[r, c:]
        row %= p
        v = int(row[0])
        if v != 1:
            row *= pow(v, -1, p)
            row %= p
        hit = np.flatnonzero(col)
        hit = hit[hit != r]
        if len(hit):
            if steps == budget:
                m %= p
                steps = 0
            # row r is zero left of its pivot, so columns < c are untouched
            m[hit, c:] -= np.outer(col[hit], row)
            steps += 1
        r += 1
    out = m[:r]
    out %= p
    return out


def _pivots(rows: np.ndarray) -> np.ndarray:
    """Column of the leading entry of each row of a matrix with no zero row."""
    row, col = np.nonzero(rows)
    return col[np.unique(row, return_index=True)[1]]


def null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 mod p}."""
    mat = np.asarray(mat, dtype=np.int64)
    reduced = rref(mat, p)
    pivots = _pivots(reduced)
    free = np.ones(mat.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[:, free].T % p
    # row k carries -reduced[:, f] (f = free[k]) on pivot columns left of f,
    # so its leading entry is not at f and the basis needs its own RREF
    return rref(basis, p)


def left_null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : v @ mat = 0 mod p}."""
    return null_space(np.asarray(mat).T, p)


def _reduce(vec: np.ndarray, rows, pivots, p: int) -> np.ndarray:
    """vec minus its components along the RREF rows with the given pivots."""
    v = np.array(vec, dtype=np.int64) % p
    for piv, row in zip(pivots, rows):
        c = v[piv]
        if c:
            v = (v - c * row) % p
    return v


@dataclass(frozen=True, eq=False)
class DegreeSpan:
    """A subspace of one graded piece, canonicalized as an RREF matrix."""

    p: int
    degree: int
    rows: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]

    def __eq__(self, other):
        if not isinstance(other, DegreeSpan):
            return NotImplemented
        return (
            self.p == other.p
            and self.degree == other.degree
            and self.rows.shape == other.rows.shape
            and np.array_equal(self.rows, other.rows)
        )

    @cached_property
    def pivots(self) -> np.ndarray:
        return _pivots(self.rows)

    def contains_vector(self, vec: np.ndarray) -> bool:
        return not _reduce(vec, self.rows, self.pivots, self.p).any()

    def __repr__(self):
        return f"DegreeSpan(p={self.p}, degree={self.degree}, dim={self.dim}/{self.ambient_dim})"


def zero_span(p: int, degree: int, ambient_dim: int) -> DegreeSpan:
    return DegreeSpan(p, degree, np.zeros((0, ambient_dim), dtype=np.int64))


@dataclass(frozen=True)
class DegreeBasis:
    """Monomials of one total degree, in the canonical term order: all of
    them from monomial_basis, or a contiguous run of one exterior rank."""

    ring: Ring
    degree: int
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {mon: i for i, mon in enumerate(self.monomials)}
        )

    def __len__(self) -> int:
        return len(self.monomials)

    def index_of(self, mon) -> int:
        return self._index[tuple(mon)]

    def coords(self, y: Element) -> np.ndarray:
        """Coordinate vector of a homogeneous element of this degree."""
        vec = np.zeros(len(self.monomials), dtype=np.int64)
        index = self._index
        for mon, c in y.terms.items():
            i = index.get(mon)
            if i is None:
                raise ValueError(
                    f"term {mon} does not live in degree {self.degree} of {self.ring}"
                )
            vec[i] = c
        return vec

    def element(self, vec: np.ndarray) -> Element:
        terms = {
            (mon.ext, mon.pows): int(c) for mon, c in zip(self.monomials, vec, strict=True) if c
        }
        return _element(self.ring.p, self.ring.n, terms)

    def elements(self, mat: np.ndarray) -> list[Element]:
        return [self.element(row) for row in mat]


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_basis(ring: Ring, degree: int) -> DegreeBasis:
    """Enumerate every monomial of the given total degree."""
    n = ring.n
    mons: list[Monomial] = []
    if ring.mod2:
        mons = [Monomial((), m) for m in _compositions(degree, n)]
    else:
        for r in range(min(n, degree) + 1):
            rest = degree - r
            if rest % 2:
                continue
            for ext in combinations(range(1, n + 1), r):
                for m in _compositions(rest // 2, n):
                    mons.append(Monomial(ext, m))
    mons.sort(key=term_key)
    return DegreeBasis(ring, degree, tuple(mons))


def basis_dimension(ring: Ring, degree: int) -> int:
    """Dimension of one graded piece, by counting (no enumeration)."""
    n = ring.n
    if ring.mod2:
        return math.comb(degree + n - 1, n - 1) if n else int(degree == 0)
    total = 0
    for r in range(min(n, degree) + 1):
        rest = degree - r
        if rest % 2:
            continue
        k = rest // 2
        total += math.comb(n, r) * (math.comb(k + n - 1, n - 1) if n else int(k == 0))
    return total


def span_of(ring: Ring, degree: int, elements) -> DegreeSpan:
    """Row-reduced span of homogeneous elements of one degree."""
    basis = monomial_basis(ring, degree)
    rows = []
    for y in elements:
        if y.is_zero():
            continue
        if y.total_degree() != degree:
            raise ValueError(
                f"element of degree {y.total_degree()} in a degree-{degree} span"
            )
        rows.append(basis.coords(y))
    if not rows:
        return zero_span(ring.p, degree, len(basis))
    return DegreeSpan(ring.p, degree, rref(np.array(rows), ring.p))


def pruned_null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 mod p}.  First, as in structured
    Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90), each row with
    one nonzero entry on the live columns forces that coordinate to 0, until
    none is left; zero columns put back into the RREF of the rest keep it RREF.

    mat need not be reduced mod p, but each entry must be nonzero exactly
    when it is nonzero mod p: the pruning reads mat != 0, and rref reduces."""
    nonzero = mat != 0
    live = np.ones(mat.shape[1], dtype=bool)
    count = nonzero.sum(axis=1)
    while (single := count == 1).any():
        forced = np.unique((nonzero[single] & live).argmax(axis=1))
        live[forced] = False
        count -= nonzero[:, forced].sum(axis=1)
    sub = np.zeros((0, 0), dtype=np.int64)
    if live.any():
        sub = null_space(mat[np.ix_(count > 0, live)], p)
    kernel = np.zeros((len(sub), mat.shape[1]), dtype=np.int64)
    kernel[:, live] = sub
    return kernel


def kernel_of_map(domain: DegreeBasis, *maps) -> DegreeSpan:
    """Joint kernel of linear maps on one graded piece, in domain coordinates.

    Each map is given by the images of domain.monomials, in order.  The
    matrix has one row per (map, codomain monomial) pair that occurs in
    some image, so no codomain basis is enumerated; with no nonzero image
    the kernel is the whole domain."""
    rows: dict = {}
    pairs, cols, vals = [], [], []
    for k, images in enumerate(maps):
        if len(images) != len(domain):
            raise ValueError("one image per domain monomial required")
        for i, y in enumerate(images):
            for mon, c in y.terms.items():
                pairs.append(rows.setdefault((k, mon), len(rows)))
                cols.append(i)
                vals.append(c)
    mat = np.zeros((len(rows), len(domain)), dtype=np.int64)
    mat[pairs, cols] = vals
    return DegreeSpan(domain.ring.p, domain.degree, pruned_null_space(mat, domain.ring.p))


class SpanBuilder:
    """Incrementally maintained RREF span, for worklist saturation."""

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
        if not self.rows:
            return zero_span(self.p, degree, self.ambient_dim)
        return DegreeSpan(self.p, degree, np.array(self.rows, dtype=np.int64))
