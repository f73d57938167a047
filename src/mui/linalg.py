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
    n_rows = len(m)
    r = steps = 0
    # row operations keep a zero column zero, so only the others can pivot
    for c in np.flatnonzero(m.any(axis=0)):
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
    """RREF basis of {v : mat @ v = 0 mod p}.  With the columns reversed,
    the kernel vector of free column f is 1 at f, 0 on the other free
    columns and on pivot columns after f; reversed back, it is already RREF.
    rref_stack takes the reversed rows in blocks of at most twice the width."""
    mat = np.asarray(mat)
    width, rows = mat.shape[1], mat[:, ::-1] % p
    reduced = rref_stack([rows[i:i + 2 * width] for i in range(0, len(rows), max(1, 2 * width))],
                         p, width)
    pivots = _pivots(reduced)
    free = np.ones(width, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), width), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[:, free].T % p
    return basis[::-1, ::-1]


# float64 holds every integer below 2^53 exactly
FLOAT64_EXACT = 2**53

# OpenBLAS runs a product of at most this many multiply-adds on one thread;
# on a busy host, waking its other threads costs far more than such a product
GEMM_CALL_LIMIT = 2**18


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for integer matrices with entries in 0..p-1, exactly.

    Each product is at most (p - 1)^2, so a sum of k of them is exact in
    float64 while k (p - 1)^2 stays below 2^53: the inner dimension goes in
    runs that short, one float64 GEMM each.  Once (p - 1)^2 alone reaches
    2^53 (p above about 9.5 * 10^7) the runs are int64 products instead,
    short enough that a run's sum plus a residue stays below 2^63.  The rows
    of a go in runs of at most GEMM_CALL_LIMIT multiply-adds per call,
    unless one row alone is over that."""
    _check_int64_prime(p)
    bound = (p - 1) ** 2
    if bound < FLOAT64_EXACT:
        dtype, step = np.float64, (FLOAT64_EXACT - 1) // bound
    else:
        dtype, step = np.int64, (2**63 - 1 - p) // bound
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], step):
        left, right = a[:, s:s + step], b[s:s + step]
        rows = GEMM_CALL_LIMIT // max(1, right.size) or len(left)
        for i in range(0, len(left), rows):
            out[i:i + rows] += (left[i:i + rows] @ right).astype(np.int64)
        out %= p
    return out


# rows reduced per chunk in rref_stack, times the width
STACK_CHUNK_CELLS = 2**21


def rref_stack(blocks, p: int, width: int) -> np.ndarray:
    """RREF of the rows of several matrices of one width, zero rows dropped.

    The tallest block goes through rref, unless it is in RREF already.  The
    rows of the others follow in chunks of bounded size: a chunk is reduced
    against the RREF so far by _clear, the rows that survive go through
    rref, _clear takes their pivot columns out of the RREF so far, and the
    two merge by pivot."""
    blocks = sorted((b for b in blocks if b.size), key=len)
    if not blocks:
        return np.zeros((0, width), dtype=np.int64)
    top = blocks.pop()
    top = top.astype(np.int64) if _is_rref(top) else rref(top, p)
    if not blocks:
        return top
    rest = np.vstack(blocks)  # a new array, so _clear may change its chunks in place
    step = max(1, STACK_CHUNK_CELLS // max(1, width))
    for i in range(0, len(rest), step):
        pivots = _pivots(top)
        part = _clear(rest[i:i + step].astype(np.int64, copy=False), top, pivots, p)
        part = rref(part[part.any(axis=1)], p)
        if len(part):
            new = _pivots(part)
            top = _clear(top, part, new, p)
            top = np.vstack([top, part])[np.argsort(np.concatenate([pivots, new]))]
    return top


def _clear(rows: np.ndarray, basis: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """rows minus their components along the RREF rows of basis, whose
    pivot columns are given: v - v[pivots] @ basis, by matmul_mod.  It is
    zero on the pivot columns and v itself where basis is zero, so only the
    other columns are multiplied."""
    live = basis.any(axis=0)
    live[pivots] = False
    cols = np.flatnonzero(live)
    rows[:, cols] -= matmul_mod(rows[:, pivots], basis[:, cols], p)
    rows[:, cols] %= p
    rows[:, pivots] = 0
    return rows


def _is_rref(m: np.ndarray) -> bool:
    """True when a matrix with entries in 0..p-1 is in RREF with no zero row:
    leading columns strictly increasing, each a unit column."""
    nonzero = m != 0
    lead = nonzero.argmax(axis=1)
    return bool(
        nonzero[np.arange(len(m)), lead].all()
        and (np.diff(lead) > 0).all()
        and np.array_equal(m[:, lead], np.eye(len(m), dtype=m.dtype))
    )


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

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The monomials as read-only arrays: exterior bitmasks (bit i - 1
        for a_i) and exponent rows."""
        masks = np.array([sum(1 << (i - 1) for i in mon.ext) for mon in self.monomials],
                         dtype=np.int64)
        pows = np.array([mon.pows for mon in self.monomials], dtype=np.int64)
        return _read_only(masks, pows.reshape(len(self.monomials), self.ring.n))

    def element(self, vec: np.ndarray) -> Element:
        terms = {
            (mon.ext, mon.pows): int(c) for mon, c in zip(self.monomials, vec, strict=True) if c
        }
        return _element(self.ring.p, self.ring.n, terms)

    def elements(self, mat: np.ndarray) -> list[Element]:
        return [self.element(row) for row in mat]


@lru_cache(maxsize=None)
def _exponents(total: int, parts: int) -> np.ndarray:
    """Every exponent vector of the given length and sum, in descending
    lexicographic order, as a read-only (count, parts) array: the rows with
    first entry e, from total down to 0, are e beside the vectors of the
    rest.  Empty for a negative total."""
    if parts <= 1 or total <= 0:
        count = int(total == 0 or (parts == 1 and total > 0))
        out = np.full((count, parts), max(total, 0), dtype=np.int64)
    else:
        rests = [_exponents(total - first, parts - 1) for first in range(total, -1, -1)]
        out = np.empty((sum(map(len, rests)), parts), dtype=np.int64)
        out[:, 0] = np.repeat(np.arange(total, -1, -1), [len(r) for r in rests])
        out[:, 1:] = np.concatenate(rests)
    return _read_only(out)[0]


@lru_cache(maxsize=None)
def monomial_basis(ring: Ring, degree: int) -> DegreeBasis:
    """Enumerate every monomial of the given total degree."""
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
    return DegreeBasis(ring, degree, tuple(mons))


@lru_cache(maxsize=None)
def _position_tables(ring: Ring, degree: int):
    """For _positions: the first basis position of each exterior part, by
    bitmask, and counts[s, q] = C(s + q - 1, q), the number of exponent
    vectors in q + 1 variables of total s - 1."""
    n = ring.n
    top = degree if ring.mod2 else degree // 2
    size = (lambda k: math.comb(k + n - 1, n - 1)) if n else (lambda k: int(k == 0))
    starts = np.zeros(1 if ring.mod2 else 1 << n, dtype=np.int64)
    at = 0
    for r in range(0 if ring.mod2 else min(n, degree), -1, -1):
        if not ring.mod2 and (degree - r) % 2:
            continue
        k = degree if ring.mod2 else (degree - r) // 2
        for ext in combinations(range(n), r):
            starts[sum(1 << i for i in ext)] = at
            at += size(k)
    counts = np.array([[math.comb(s + q - 1, q) if s else 0 for q in range(n)]
                       for s in range(top + 1)], dtype=np.int64).reshape(top + 1, n)
    return _read_only(starts, counts)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _positions(ring: Ring, degree: int, masks: np.ndarray, pows: np.ndarray) -> np.ndarray:
    """Positions in monomial_basis(ring, degree) of the monomials a_E x^m
    given by exterior bitmasks (bit i - 1 for a_i) and exponent rows.

    The basis runs over the exterior parts by rank descending, then
    lexicographically, each followed by its exponent vectors in descending
    lexicographic order.  Vectors before m there agree with m up to some
    entry i and are larger in it: C(s + q - 1, q) of them, where s is the
    sum of m past entry i and q the number of entries past it."""
    starts, counts = _position_tables(ring, degree)
    n = pows.shape[1]
    out = starts[masks].copy()
    suffix = np.cumsum(pows[:, ::-1], axis=1)[:, ::-1]
    for i in range(n - 1):
        out += counts[suffix[:, i + 1], n - 1 - i]
    return out


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


def pruned_null_space(row, col, val, shape: tuple[int, int], p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 mod p}, mat of the given shape with
    entries val at (row, col), no position twice, each nonzero mod p.  First,
    as in structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO
    '90), each row with one entry on the live columns forces that coordinate
    to 0, until none is left.  The live rows and columns are then filled in
    densely, and zero columns put back into the RREF of their kernel keep it
    RREF."""
    n_rows, n_cols = shape
    live = np.ones(n_cols, dtype=bool)
    while len(forced := col[np.bincount(row, minlength=n_rows)[row] == 1]):
        live[forced] = False
        keep = live[col]
        row, col, val = row[keep], col[keep], val[keep]
    count = np.bincount(row, minlength=n_rows)
    sub = np.zeros((0, 0), dtype=np.int64)
    if live.any():
        mat = np.zeros(((count > 0).sum(), live.sum()), dtype=np.min_scalar_type(p - 1))
        mat[np.cumsum(count > 0)[row] - 1, np.cumsum(live)[col] - 1] = val % p
        sub = null_space(mat, p)
    kernel = np.zeros((len(sub), n_cols), dtype=np.int64)
    kernel[:, live] = sub
    return kernel


class SpanBuilder:
    """Incrementally maintained RREF span, one vector at a time."""

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
