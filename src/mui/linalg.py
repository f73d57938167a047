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

from .algebra import ZERO, Element, Monomial, Ring, _element, monomial_degree


# One elimination step moves an entry by at most (p - 1)^2, which must fit
# in int64 beside a residue: (p - 1)^2 < 2^63 - p.
MAX_PRIME = 2**31


def _check_int64_prime(p: int) -> None:
    if p >= MAX_PRIME:
        raise ValueError(f"p = {p} is too large for int64 elimination (need p < 2^31)")


# rref's panels are PANEL_COLUMNS wide, or wider while under PANEL_CELLS
PANEL_CELLS = 2**18
PANEL_COLUMNS = 64
# bytes of a chunk of rows of rref_stack, and of its int64 scratch in an update
CHUNK_BYTES = 2**20


def rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form over F_p, zero rows dropped.

    Any integer matrix is accepted; it is reduced mod p once into the
    storage dtype, the smallest that holds p - 1, and stays there, result
    included.  The columns go in panels (Jeannerod, Pernet and Storjohann,
    J. Symbolic Comput. 56, 2013): _eliminate clears a panel on the rows
    nonzero there, widened to int32 from uint8, else to int64.  Right of
    it, the new pivot rows are normalised by the inverse of their pivot
    block, and matmul_mod clears every other row they hit.  A matrix of at
    most PANEL_CELLS cells is one panel."""
    _check_int64_prime(p)
    m = _residues(mat, p)
    wide = np.int32 if m.dtype == np.uint8 else np.int64
    n_rows, width = m.shape
    step = max(PANEL_COLUMNS, PANEL_CELLS // max(1, n_rows))
    free = np.ones(n_rows, dtype=bool)
    order: list[int] = []
    for c0 in range(0, width, step):
        c1 = c0 + step
        on = np.flatnonzero(m[:, c0:c1].any(axis=1))
        # the pivot rows so far come first, so that only the others can pivot
        old = on[~free[on]]
        rows = np.concatenate([old, on[free[on]]])
        block = m[rows, c0:c1].astype(wide)
        pivots, perm = _eliminate(block, p, len(old))
        rows = rows[perm]
        new, cols = rows[len(old):len(old) + len(pivots)], c0 + pivots
        trail = c1 + np.flatnonzero(m[new, c1:].any(axis=0))
        if len(trail):
            solve = np.hstack([m[np.ix_(new, cols)], np.eye(len(new), dtype=wide)])
            _eliminate(solve, p)
            lead = matmul_mod(solve[:, len(new):], m[np.ix_(new, trail)], p)
            hit = np.setdiff1d(rows, new, assume_unique=True)
            _subtract_products(m, hit[m[np.ix_(hit, cols)].any(axis=1)], cols, trail, lead, p)
            m[np.ix_(new, trail)] = lead
        m[rows, c0:c1] = block
        free[new] = False
        order += new.tolist()
    return m[order]


def _eliminate(m: np.ndarray, p: int, r: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination in place on signed entries in 0..p-1, rows
    before r pivot rows already: gives the new pivot columns, whose rows
    follow row r - 1, and perm, row i having been row perm[i].  Reduction
    is delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008): a step
    moves an entry by at most (p - 1)^2, so the matrix is reduced only
    every `budget` steps, before its dtype could overflow, and at the end."""
    budget = max(1, (int(np.iinfo(m.dtype).max) - p) // (p - 1) ** 2)
    perm = np.arange(len(m))
    pivots, steps = [], 0
    # row operations keep a zero column zero, so only the others can pivot
    for c in np.flatnonzero(m.any(axis=0)):
        if r == len(m):
            break
        col = m[:, c]
        col %= p
        below = np.flatnonzero(col[r:])
        if not len(below):
            continue
        pivot = r + int(below[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
            perm[[r, pivot]] = perm[[pivot, r]]
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
        pivots.append(c)
        r += 1
    m %= p
    return np.array(pivots, dtype=np.int64), perm


def _subtract_products(m: np.ndarray, rows, pivots, cols, lead: np.ndarray, p: int) -> None:
    """m[rows, cols] -= m[rows, pivots] @ lead mod p in place, by matmul_mod on
    chunks of rows of at most CHUNK_BYTES (and of int64), gathered by np.take."""
    step = max(1, CHUNK_BYTES // max(8 * len(cols), m.itemsize * m.shape[1], 1))
    if len(rows) > step:  # into matmul_mod's GEMM dtype once, not once per chunk
        lead = np.asarray(lead, dtype=np.float64 if (p - 1) ** 2 < FLOAT64_EXACT else np.int64)
    for i in range(0, len(rows), step):
        part = m.take(rows[i:i + step], axis=0)
        part[:, cols] = (part.take(cols, axis=1) - matmul_mod(part.take(pivots, axis=1), lead, p)) % p
        m[rows[i:i + step]] = part


def _residues(mat, p: int) -> np.ndarray:
    """mat mod p in the storage dtype, the smallest that holds p - 1 (and p)."""
    mat, out = np.asarray(mat), np.empty(np.shape(mat), np.min_scalar_type(p - 1))
    return np.remainder(mat, np.result_type(mat, out).type(p), out=out, casting="unsafe")


def _pivots(rows: np.ndarray) -> np.ndarray:
    """Column of the leading entry of each row of a matrix with no zero row:
    the argmax of its nonzero pattern, in chunks of rows of at most
    CHUNK_BYTES."""
    out = np.empty(len(rows), dtype=np.intp)
    step = max(1, CHUNK_BYTES // max(1, rows.shape[1]))
    for i in range(0, len(rows), step):
        (rows[i:i + step] != 0).argmax(axis=1, out=out[i:i + step])
    return out


def null_space(mat: np.ndarray, p: int) -> np.ndarray:
    """RREF basis of {v : mat @ v = 0 mod p}.  With the columns reversed,
    the kernel vector of free column f is 1 at f, 0 on the other free
    columns and on pivot columns after f; so in the original order it leads
    at its free column, and by free column the vectors are RREF.  rref_stack
    takes the reversed rows in blocks of at most twice the width.  Its
    storage dtype is unsigned, so -x mod p is p - x there."""
    mat = np.asarray(mat)
    width, rows = mat.shape[1], mat[:, ::-1]
    reduced = rref_stack([rows[i:i + 2 * width] for i in range(0, len(rows), max(1, 2 * width))],
                         p, width)
    pivots = width - 1 - _pivots(reduced)
    free = np.ones(width, dtype=bool)
    free[pivots] = False
    free = free.nonzero()[0]
    basis = np.zeros((len(free), width), dtype=reduced.dtype)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (p - reduced[:, width - 1 - free].T) % p
    return basis


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
    unless one row alone is over that, each converted on its own."""
    _check_int64_prime(p)
    bound = (p - 1) ** 2
    if bound < FLOAT64_EXACT:
        dtype, step = np.float64, (FLOAT64_EXACT - 1) // bound
    else:
        dtype, step = np.int64, (2**63 - 1 - p) // bound
    a = np.asarray(a)
    b = np.asarray(b, dtype=dtype)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], step):
        left, right = a[:, s:s + step], b[s:s + step]
        rows = GEMM_CALL_LIMIT // max(1, right.size) or len(left)
        for i in range(0, len(left), rows):
            out[i:i + rows] += (left[i:i + rows].astype(dtype) @ right).astype(np.int64)
        out %= p
    return out


def rref_stack(blocks, p: int, width: int) -> np.ndarray:
    """RREF mod p of the rows of several integer matrices of one width,
    zero rows dropped, in the storage dtype.

    The tallest block goes through rref, unless it is in RREF already (and
    stays so mod p).  The rows of the others follow in chunks of at most
    CHUNK_BYTES once reduced mod p into the storage dtype, like the RREF so
    far: a chunk is reduced against the RREF so far by _clear, the rows
    that survive go through rref, _clear takes their pivot columns out of
    the RREF so far, and the two merge by pivot."""
    blocks = sorted((b for b in blocks if b.size), key=len)
    if not blocks:
        return np.zeros((0, width), dtype=np.min_scalar_type(p - 1))
    top = blocks.pop()
    top = _residues(top, p) if _is_rref(top) else rref(top, p)
    if blocks:
        rest = np.concatenate(blocks)
        step = max(1, CHUNK_BYTES // (top.itemsize * width))
        pivots = _pivots(top)
        for i in range(0, len(rest), step):
            part = _clear(_residues(rest[i:i + step], p), top, pivots, p)
            part = rref(part[part.any(axis=1)], p)
            if len(part):
                new = _pivots(part)
                at = np.searchsorted(pivots, new)
                top = np.insert(_clear(top, part, new, p), at, part, axis=0)
                pivots = np.insert(pivots, at, new)
    return top


def _clear(rows: np.ndarray, basis: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """rows minus their components along the RREF rows of basis, whose
    pivot columns are given: v - v[pivots] @ basis, by _subtract_products.
    It is zero on the pivot columns and v itself where basis is zero, so
    only the other columns are multiplied."""
    live = basis.any(axis=0)
    live[pivots] = False
    hit = np.flatnonzero(rows[:, pivots].any(axis=1))
    _subtract_products(rows, hit, pivots, np.flatnonzero(live), basis[:, live], p)
    rows[:, pivots] = 0
    return rows


def _is_rref(m: np.ndarray) -> bool:
    """True when an integer matrix is in RREF with no zero row: leading
    entries 1 in strictly increasing columns, each a unit column."""
    nonzero = m != 0
    lead = nonzero.argmax(axis=1)
    return bool(
        (m[np.arange(len(m)), lead] == 1).all()
        and (np.diff(lead) > 0).all()
        and (nonzero.sum(axis=0)[lead] == 1).all()
    )


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
        # by value and shape, whatever the dtypes of the rows
        return ((self.p, self.degree) == (other.p, other.degree)
                and np.array_equal(self.rows, other.rows))

    @cached_property
    def pivots(self) -> np.ndarray:
        return _pivots(self.rows)

    def contains_vector(self, vec: np.ndarray) -> bool:
        return not self._outside(vec)[0]

    def _outside(self, rows) -> np.ndarray:
        """Which of some integer rows (or one vector) are not in the span: all
        reduced mod p into the storage dtype, then against its RREF by _clear."""
        return _clear(_residues(np.atleast_2d(rows), self.p), self.rows, self.pivots, self.p).any(axis=1)

    def __repr__(self):
        return f"DegreeSpan(p={self.p}, degree={self.degree}, dim={self.dim}/{self.ambient_dim})"


@dataclass(frozen=True)
class DegreeBasis:
    """The monomials a_E x^m of one total degree in the canonical term
    order: exterior rank descending, the exterior parts E of one rank in
    lexicographic order, each followed by every exponent vector m of its
    polynomial degree in _exponents order (at p = 2, rank 0 alone).

    Each rank is a contiguous run.  The position of a_E x^m is closed form,
    starts[E] + _exponent_rank(m), so a lookup enumerates nothing; the
    monomials themselves are built one run at a time, on first use.
    monomial_basis is the only constructor."""

    ring: Ring
    degree: int

    @cached_property
    def runs(self) -> dict[int, slice]:
        """The positions of each exterior rank r the degree holds, in basis
        order: C(n, r) exterior parts times the exponent vectors of sum
        (degree - r) / 2 (of sum degree at p = 2)."""
        n, d = self.ring.n, self.degree
        runs, at = {}, 0
        for r in range(0 if self.ring.mod2 else min(n, d), -1, -1):
            k, odd = divmod(d - r, 1 if self.ring.mod2 else 2)
            if k >= 0 and not odd:
                size = math.comb(n, r) * (math.comb(k + n - 1, n - 1) if n else int(k == 0))
                runs[r], at = slice(at, at + size), at + size
        return runs

    def run(self, rank: int) -> slice:
        """The positions of the monomials of one exterior rank; empty for a
        rank the degree does not hold."""
        return self.runs.get(rank, slice(0, 0))

    def __len__(self) -> int:
        return sum(run.stop - run.start for run in self.runs.values())

    @cached_property
    def starts(self) -> np.ndarray:
        """The position of the first monomial of each exterior part, by
        bitmask (bit i - 1 for a_i), read-only; 0 for a part the degree
        does not hold."""
        n = self.ring.n
        starts = np.zeros(1 << n, dtype=np.int64)
        for r, run in self.runs.items():
            parts = list(combinations(range(n), r))
            size = (run.stop - run.start) // len(parts)
            for i, ext in enumerate(parts):
                starts[sum(1 << j for j in ext)] = run.start + i * size
        return _read_only(starts)[0]

    def positions(self, masks, pows) -> np.ndarray:
        """Positions of the monomials a_E x^m of this degree given by
        exterior bitmasks and exponent rows."""
        return self.starts[masks] + _exponent_rank(pows)

    def index_of(self, mon) -> int:
        """The position of one monomial (ext, pows) of this degree."""
        ext, pows = mon
        if monomial_degree(ext, pows, self.ring.p) != self.degree:
            raise ValueError(f"{mon} does not live in degree {self.degree} of {self.ring}")
        return int(self.positions(sum(1 << (i - 1) for i in ext), np.array(pows, dtype=np.int64)))

    @lru_cache(maxsize=None)
    def run_arrays(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """The monomials of run(rank) as read-only exterior bitmasks and
        exponent rows, built once without the rest of the degree: the
        rank-r parts in lexicographic order, each followed by every
        exponent vector of its polynomial degree."""
        n = self.ring.n
        exps = _exponents((self.degree - rank) // (1 if self.ring.mod2 else 2), n)
        parts = combinations(range(n), rank) if rank in self.runs else ()
        masks = np.array([sum(1 << i for i in ext) for ext in parts], dtype=np.int64)
        return _read_only(np.repeat(masks, len(exps)), np.tile(exps, (len(masks), 1)))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole basis as run_arrays gives each run."""
        empty = np.zeros(0, dtype=np.int64), np.zeros((0, self.ring.n), dtype=np.int64)
        masks, pows = zip(empty, *map(self.run_arrays, self.runs))
        return _read_only(np.concatenate(masks), np.concatenate(pows))

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        masks, pows = self.arrays
        return tuple(Monomial(_exterior(m, self.ring.n), tuple(e))
                     for m, e in zip(masks.tolist(), pows.tolist()))

    def coords(self, y: Element) -> np.ndarray:
        """Coordinate vector of a homogeneous element of this degree."""
        if (y.p, y.n) != (self.ring.p, self.ring.n):
            raise ValueError("element and basis live over different rings")
        if y.total_degree() not in (self.degree, ZERO):
            raise ValueError(f"{y} does not live in degree {self.degree} of {self.ring}")
        _, masks, pows, coef = _term_arrays(self.ring, y)
        vec = np.zeros(len(self), dtype=np.int64)
        vec[self.positions(masks, pows)] = coef
        return vec

    def element(self, vec: np.ndarray, rank: int | None = None) -> Element:
        """The element with coordinate vector vec on the whole basis, or on
        run(rank) when a rank is given."""
        masks, pows = self.arrays if rank is None else self.run_arrays(rank)
        vec = np.asarray(vec)
        if vec.shape != masks.shape:
            raise ValueError(f"{len(vec)} coordinates for {len(masks)} monomials")
        at = np.flatnonzero(vec)
        return _from_term_arrays(self.ring, masks[at], pows[at], vec[at])


def _exterior(mask: int, n: int) -> tuple[int, ...]:
    """The exterior indices of a bitmask (bit i - 1 for a_i)."""
    return tuple(i + 1 for i in range(n) if mask >> i & 1)


def _term_arrays(ring: Ring, *elements: Element) -> tuple:
    """Elements g_0, g_1, ... as term arrays (which, masks, pows, coef):
    term i is coef[i] a_E x^pows[i] in g_which[i], E given by the bitmask
    masks[i]."""
    terms = [(k, ext, exps, c)
             for k, g in enumerate(elements) for (ext, exps), c in g.terms.items()]
    bits = {ext: sum(1 << (i - 1) for i in ext) for ext in {term[1] for term in terms}}
    table = np.array([(k, bits[ext], c, *exps) for k, ext, exps, c in terms],
                     dtype=np.int64).reshape(-1, 3 + ring.n)
    return table[:, 0], table[:, 1], table[:, 3:], table[:, 2]


def _from_term_arrays(ring: Ring, masks: np.ndarray, pows: np.ndarray, coef) -> Element:
    """The element sum_i coef[i] a_E x^pows[i], E the bitmask masks[i]: the
    inverse of _term_arrays, repeated monomials summed."""
    exts = {m: _exterior(m, ring.n) for m in set(masks.tolist())}
    acc: dict = {}
    for m, e, c in zip(masks.tolist(), map(tuple, pows.tolist()), coef.tolist()):
        key = (exts[m], e)
        acc[key] = acc.get(key, 0) + c
    return _element(ring.p, ring.n, acc)


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


def _exponent_rank(pows) -> np.ndarray:
    """The position of each exponent vector m, the last axis of pows, in
    _exponents(|m|, n): the inverse of _exponents.  The vectors before m
    there agree with m up to some entry and are larger in it; for the q
    entries past it, of sum s, there are C(s + q - 1, q) of them (Knuth,
    TAOCP 4A, 7.2.1.3)."""
    pows = np.asarray(pows, dtype=np.int64)
    rank = np.zeros(pows.shape[:-1], dtype=np.int64)
    total = np.zeros_like(rank)
    for q in range(1, pows.shape[-1]):
        total = total + pows[..., -q]
        count = total
        for j in range(2, q + 1):
            count = count * (total + j - 1) // j
        rank += count
    return rank


@lru_cache(maxsize=None)
def monomial_basis(ring: Ring, degree: int) -> DegreeBasis:
    """The monomials of one total degree, in the canonical term order."""
    return DegreeBasis(ring, degree)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cache hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def basis_dimension(ring: Ring, degree: int) -> int:
    """Dimension of one graded piece, by counting (no enumeration)."""
    return len(monomial_basis(ring, degree))


def span_of(ring: Ring, degree: int, elements) -> DegreeSpan:
    """Row-reduced span of homogeneous elements of one degree."""
    basis = monomial_basis(ring, degree)
    rows = []
    for y in elements:
        if y.is_zero():
            continue
        if y.total_degree() != degree:
            raise ValueError(f"element of degree {y.total_degree()} in a degree-{degree} span")
        rows.append(basis.coords(y))
    return DegreeSpan(ring.p, degree,
                      rref(np.array(rows, dtype=np.int64).reshape(len(rows), len(basis)), ring.p))


def pruned_null_space(maps, width: int, p: int, classes=None) -> np.ndarray:
    """RREF basis of the joint kernel of linear maps on F_p^width, each
    (source, target, coefficient) arrays with no (source, target) pair twice
    and each coefficient nonzero mod p.  The arrays keep their dtypes.

    classes, when given, labels each column with an integer, and the kernel
    is the direct sum over the labels of the joint kernels on the columns of
    one label; without it every column has one label.  Map k fills rows
    k * height + target, height one more than the largest target, and each
    row splits into one row per label, row id plus label times
    len(maps) * height (int64 if the row dtype cannot hold that); ids
    spread past four times the entry count are renumbered by np.unique.
    First, as in structured Gaussian elimination (LaMacchia and Odlyzko,
    CRYPTO '90), each row with one entry on the live columns forces that
    coordinate to 0, until none is left.  Then each label with a live
    column fills one dense block, its rows with a live entry in order of id
    by its live columns in order, and null_space takes it.  Zero columns
    put back into the RREF of a block's kernel keep it RREF, and the
    blocks' kernels have disjoint supports: merged by leading column, they
    are the RREF of the whole kernel."""
    cls = (np.zeros(width, dtype=np.intp) if classes is None
           else np.unique(classes, return_inverse=True)[1].reshape(width))
    labels = int(cls.max(initial=0)) + 1
    maps, stored = list(maps), np.min_scalar_type(p - 1)
    empty = np.zeros(0, dtype=np.uint8)
    col, row, val = (np.concatenate(parts) for parts in zip((empty,) * 3, *maps))
    height = int(row.max(initial=0)) + 1
    stride = len(maps) * height
    wide = np.int64 if labels * stride > np.iinfo(row.dtype).max else row.dtype
    row = row + (np.arange(len(maps), dtype=wide) * height).repeat([len(src) for src, _, _ in maps])
    row += (cls.astype(wide) * stride)[col]
    if labels * stride > 4 * len(row):
        row = np.unique(row, return_inverse=True)[1].reshape(len(row))
    live = np.ones(width, dtype=bool)
    while len(forced := col[np.bincount(row)[row] == 1]):
        live[forced] = False
        keep = live[col]
        row, col, val = row[keep], col[keep], val[keep]
    # the live rows, numbered in order of id (so label-major), and the live
    # columns by label, each numbered within its label
    row = (np.bincount(row) > 0).cumsum()[row] - 1
    row_label = np.zeros(row.max(initial=-1) + 1, dtype=np.intp)
    row_label[row] = cls[col]
    cols = live.nonzero()[0]
    cols = cols[cls[cols].argsort(kind="stable")]
    rows_of, cols_of = np.bincount(row_label, minlength=labels), np.bincount(cls[cols], minlength=labels)
    first_row, first_col = rows_of.cumsum() - rows_of, cols_of.cumsum() - cols_of
    col_at = np.zeros(width, dtype=np.intp)
    col_at[cols] = np.arange(len(cols)) - first_col.repeat(cols_of)
    # one buffer holds the blocks row-major, row r from cell row_at[r] on
    row_at = np.concatenate([[0], cols_of[row_label].cumsum()])
    cells = np.zeros(row_at[-1], dtype=stored)
    cells[row_at[row] + col_at[col]] = val % p
    # the entries go before the blocks are reduced, and the blocks before
    # their kernels are merged, to lower the peak
    del row, col, val
    subs = [(null_space(cells[row_at[r]:row_at[r + n]].reshape(n, k), p), cols[f:f + k])
            for r, n, f, k in zip(*(a.tolist() for a in (first_row, rows_of, first_col, cols_of))) if k]
    del cells
    kernel = np.zeros((sum(len(sub) for sub, _ in subs), width), dtype=stored)
    at = 0
    for sub, on in subs:
        kernel[at:at + len(sub), on] = sub
        at += len(sub)
    # a lone block's kernel is RREF already; several merge by leading column
    return kernel[_pivots(kernel).argsort()] if len(subs) > 1 else kernel


class SpanBuilder:
    """An RREF span grown one vector at a time, each through rref_stack."""

    def __init__(self, ambient_dim: int, p: int):
        _check_int64_prime(p)
        self.p = p
        self.rows = np.zeros((0, ambient_dim), dtype=np.min_scalar_type(p - 1))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: np.ndarray) -> bool:
        """Add a vector; True when it enlarged the span."""
        dim = self.dim
        self.rows = rref_stack([self.rows, np.reshape(vec, (1, -1))], self.p, self.rows.shape[1])
        return self.dim > dim

    def to_span(self, degree: int) -> DegreeSpan:
        return DegreeSpan(self.p, degree, self.rows)
