"""Degreewise exact linear algebra over F_p.

Dense integer matrices reduced by Gaussian elimination; spans are stored in
fully reduced row echelon form so that span equality is array equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .algebra import Element, Monomial, Ring, term_key


# Products of two residues must fit in int64: (p - 1)^2 < 2^63.
MAX_PRIME = 2**31


def _check_int64_prime(p: int) -> None:
    if p >= MAX_PRIME:
        raise ValueError(f"p = {p} is too large for int64 elimination (need p < 2^31)")


def rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p, zero rows dropped."""
    _check_int64_prime(p)
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
            # row r is zero left of its pivot, so columns < c are untouched
            m[hit, c:] = (m[hit, c:] - np.outer(m[hit, c], m[r, c:])) % p
        r += 1
    return m[:r]


def null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 mod p}."""
    mat = np.asarray(mat, dtype=np.int64)
    n_cols = mat.shape[1]
    reduced = rref(mat, p)
    pivots = [int(np.nonzero(row)[0][0]) for row in reduced]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-reduced[i, f]) % p
    return rref(basis, p)


def left_null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : v @ mat = 0 mod p}."""
    return null_space(np.asarray(mat).T, p)


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

    def reduce_vector(self, vec: np.ndarray) -> np.ndarray:
        v = np.array(vec, dtype=np.int64) % self.p
        for row in self.rows:
            c = v[int(np.nonzero(row)[0][0])]
            if c:
                v = (v - c * row) % self.p
        return v

    def contains_vector(self, vec: np.ndarray) -> bool:
        return not self.reduce_vector(vec).any()

    def __repr__(self):
        return f"DegreeSpan(p={self.p}, degree={self.degree}, dim={self.dim}/{self.ambient_dim})"


def zero_span(p: int, degree: int, ambient_dim: int) -> DegreeSpan:
    return DegreeSpan(p, degree, np.zeros((0, ambient_dim), dtype=np.int64))


@dataclass(frozen=True)
class DegreeBasis:
    """All monomials of one total degree, in the canonical term order."""

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
        ring = self.ring
        out = ring.zero()
        for i, c in enumerate(vec):
            c = int(c) % ring.p
            if c:
                mon = self.monomials[i]
                out = out + ring.monomial(mon.ext, mon.pows, c)
        return out

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


def kernel_of_map(domain: DegreeBasis, images: list[Element]) -> DegreeSpan:
    """Kernel of the linear map sending domain.monomials[i] to images[i],
    expressed in domain coordinates."""
    if len(images) != len(domain):
        raise ValueError("one image per domain monomial required")
    p = domain.ring.p
    nonzero = [y for y in images if not y.is_zero()]
    if not nonzero:
        eye = np.eye(len(domain), dtype=np.int64)
        return DegreeSpan(p, domain.degree, eye)
    degrees = {y.total_degree() for y in nonzero}
    rings = {(y.p, y.n) for y in nonzero}
    if len(degrees) > 1 or len(rings) > 1:
        raise ValueError("images must be homogeneous of one common degree")
    cod = monomial_basis(Ring(*rings.pop()), degrees.pop())
    mat = np.array([cod.coords(y) for y in images], dtype=np.int64)
    return DegreeSpan(p, domain.degree, left_null_space(mat, p))


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

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        v = np.array(vec, dtype=np.int64) % self.p
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = (v - c * row) % self.p
        return v

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def insert(self, vec: np.ndarray) -> bool:
        """Add a vector; True when it enlarged the span."""
        v = self.reduce(vec)
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
