"""The named invariants of the natural GL-action.

All of them derive from the n x n matrix whose (s, i) entry is x_i^(p^(s-1)):
its determinant L_n, its minors, the subset invariants M_{n,S} obtained by
replacing the rows in S with exterior rows (a_1 .. a_n) (Mui 1975), with
M_{n,s} = M_{n,{s}}, and the Dickson coefficients of the fundamental equation
x^(p^n) = sum of lambda_r x^(p^r).  The rest share one cached power-matrix
determinant; M_{n,S} is its Laplace expansion along the exterior rows, and the
product rule M_S M_T = +-L_n M_{S u T} is a theorem that eq:MnST checks.

The Dickson coefficients are Moore-determinant quotients (Dickson 1911):
c_{n,r} = D_r / L_n, D_r the determinant of the power rows p^0..p^n without
row p^r.  Expanding the (n+1) x (n+1) Moore determinant in a new column X
gives f_n(X) = prod_{v in F_p^n} (X - v) = sum_{r<=n} (-1)^(n-r) c_{n,r} X^(p^r),
c_{n,n} = 1, so lambda_r = (-1)^(n-r+1) c_{n,r}.  No division builds them
(Wilkerson, "A primer on the Dickson invariants", Contemp. Math. 19, 1983):
f_{k-1} is additive, so f_k(X) = prod_{c in F_p} f_{k-1}(X - c x_k) gives
c_{k,r} = c_{k-1,r-1}^p + c_{k-1,r} V_k^(p-1) with V_k = f_{k-1}(x_k).  A
monomial x^m is the int64 key sum_i m_i B^(i-1), B = p^n + 1.  No exponent
reaches B, so a product is an outer sum of keys, a p-th power multiplies them
by p (c^p = c in F_p) and x_k^(p^r) adds p^r B^(k-1).  A ring whose keys,
shifted past the coefficient bits, pass 2^63 is refused, (2,8) for one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .algebra import Element, Ring, monomial_degree
from .linalg import CHUNK_BYTES


def det(cells: list[list[Element]]) -> Element:
    """Determinant by cofactor expansion along the first row.

    All entries below the first row must be central (purely polynomial), so
    the expansion order is immaterial.
    """
    size = len(cells)
    if size == 0:
        raise ValueError("empty matrix has no ring to produce 1 in; use size >= 1")
    if size == 1:
        return cells[0][0]
    total = None
    for i in range(size):
        minor_cells = [
            [row[j] for j in range(size) if j != i] for row in cells[1:]
        ]
        term = cells[0][i] * det(minor_cells)
        if i % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _power_entry(ring: Ring, s: int, i: int) -> Element:
    """Entry (s, i) of the power matrix: x_i to the p^(s-1)."""
    pows = tuple(ring.p ** (s - 1) if j == i else 0 for j in range(1, ring.n + 1))
    return ring.monomial((), pows)


@lru_cache(maxsize=None)
def _power_det(ring: Ring, rows: tuple[int, ...], cols: tuple[int, ...]) -> Element:
    """det of the entries x_i^(p^(s-1)), s in rows, i in cols (1 when both
    are empty), by cofactor expansion along the first row.  The cache
    shares every smaller determinant among L_n, the minors and the M_{n,S}."""
    if not rows:
        return ring.one()
    total = ring.zero()
    for k, i in enumerate(cols):
        term = _power_entry(ring, rows[0], i) * _power_det(ring, rows[1:], cols[:k] + cols[k + 1:])
        total = total + (-term if k % 2 else term)
    return total


def _others(ring: Ring, drop: tuple[int, ...] = ()) -> tuple[int, ...]:
    """1..n without the indices in drop."""
    return tuple(i for i in range(1, ring.n + 1) if i not in drop)


def l_n(ring: Ring) -> Element:
    """det of the power matrix; equals the product of all monic linear forms."""
    return _power_det(ring, _others(ring), _others(ring))


def minor(ring: Ring, s: int, i: int) -> Element:
    """Minor of the power matrix with row s and column i removed."""
    _check_row(ring, s)
    _check_row(ring, i)
    return _power_det(ring, _others(ring, (s,)), _others(ring, (i,)))


def mui(ring: Ring, s: int) -> Element:
    """The rank-one invariant M_{n,s}: the power matrix with row s replaced
    by the exterior generators."""
    return mui_set(ring, (s,))


@lru_cache(maxsize=None)
def mui_set(ring: Ring, subset: tuple[int, ...]) -> Element:
    """The subset invariant M_{n,S}: the power matrix with the rows in S
    replaced by exterior rows, by Laplace expansion along them,
    (-1)^|S| sum over |I| = |S| of (-1)^(sum I) a_I det(rows not in S,
    columns not in I).  The empty subset gives L_n."""
    _require_odd(ring)
    subset = _normalize_subset(ring, subset)
    rest = _others(ring, subset)
    total = ring.zero()
    for cols in combinations(range(1, ring.n + 1), len(subset)):
        term = ring.monomial(cols) * _power_det(ring, rest, _others(ring, cols))
        total = total + (-term if (len(subset) + sum(cols)) % 2 else term)
    return total


def product_sign(s_set: tuple[int, ...], t_set: tuple[int, ...]) -> int:
    """The sign (+1 or -1) with M_S * M_T = sign * L_n * M_{S u T} for
    disjoint S, T: the M_{n,s} are odd classes, so sorting the factors of S
    then T into one increasing run costs -1 per pair s > t."""
    return -1 if sum(s > t for s in s_set for t in t_set) % 2 else 1


def fundamental_coefficients(ring: Ring) -> tuple[Element, ...]:
    """The lambda_r with x^(p^n) = sum_{r<n} lambda_r x^(p^r):
    lambda_r = (-1)^(n-r+1) c_{n,r}."""
    return tuple(dickson(ring, r) * (-1) ** (ring.n - r + 1) for r in range(ring.n))


def dickson(ring: Ring, r: int) -> Element:
    """The Dickson invariant c_{n,r} = D_r / L_n, 0 <= r < n, by Wilkerson's recurrence."""
    dickson_degree(ring, r)
    return _dicksons(ring)[r]


@lru_cache(maxsize=None)
def _dicksons(ring: Ring) -> tuple[Element, ...]:
    """c_{n,0} .. c_{n,n-1} by the recurrence from c_{0,0} = 1, each a sorted
    int64 array of terms key << s | coefficient, s the bit length of p - 1."""
    p, n = ring.p, ring.n
    base, s, low = p**n + 1, (p - 1).bit_length(), (1 << (p - 1).bit_length()) - 1
    if base**n << s > 2**63:
        raise ValueError(f"the Dickson invariants at p = {p}, n = {n} overflow int64 keys")
    weights = [base**i for i in range(n)]
    one, cs = np.ones(1, np.int64), [np.ones(1, np.int64)]
    for k in range(1, n + 1):
        # V_k = f_{k-1}(x_k) = sum_{r<k} (-1)^(k-1-r) c_{k-1,r} x_k^(p^r)
        w = _key_power(_key_sum([c + (p**r * weights[k - 1] << s) + (k - 1 - r) % 2 * (p - 2 * (c & low))
                                 for r, c in enumerate(cs)], p), p - 1, p)
        # c_{k,r} = c_{k-1,r} w + c_{k-1,r-1}^p; the p-th power scales the keys
        cs = [_key_product(c, w, p, (a >> s) * p << s | a & low)
              for a, c in zip([one[:0]] + cs, cs)] + [one]
    return tuple(Element(p, n, {((), tuple(m)): a for m, a in zip(
        ((c >> s)[:, None] // np.array(weights, np.int64) % base).tolist(), (c & low).tolist())})
        for c in cs[:n])


def _key_sum(polys: list, p: int) -> np.ndarray:
    """The sum of packed polynomials by one sort (np.unique would import
    numpy.ma): one term per key, in key order, coefficients summed mod p."""
    s = (p - 1).bit_length()
    terms = np.sort(np.concatenate(polys))
    keys = terms >> s
    start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(terms & (1 << s) - 1, start) % p
    return keys[start][sums != 0] << s | sums[sums != 0]


def _key_product(f: np.ndarray, g: np.ndarray, p: int, plus: np.ndarray) -> np.ndarray:
    """f g + plus for packed polynomials, f the shorter: outer sums of keys beside
    outer products of coefficients, in chunks of about CHUNK_BYTES, summed whenever
    those held pass CHUNK_BYTES and the sum so far, so that they stay bounded."""
    low = (1 << (p - 1).bit_length()) - 1
    rows, done, held = max(1, CHUNK_BYTES // f.nbytes), plus, []
    for i in range(0, len(g), rows):
        part = g[i:i + rows, None]
        held.append(((part & ~low) + (f & ~low) | (part & low) * (f & low) % p).ravel())
        if sum(h.nbytes for h in held) > max(CHUNK_BYTES, done.nbytes):
            done, held = _key_sum([done] + held, p), []
    return _key_sum([done] + held, p)


def _key_power(f: np.ndarray, e: int, p: int) -> np.ndarray:
    """f^e for e >= 1 by repeated squaring."""
    if e == 1:
        return f
    half = _key_power(_key_product(f, f, p, f[:0]), e // 2, p)
    return _key_product(f, half, p, f[:0]) if e % 2 else half


def dickson_degree(ring: Ring, r: int) -> int:
    """Total degree of c_{n,r}, that of x^(p^n - p^r), for 0 <= r < n."""
    if not 0 <= r < ring.n:
        raise ValueError(f"Dickson index {r} out of range 0..{ring.n - 1}" if ring.n
                         else "rank must be at least 1")
    return monomial_degree((), (ring.p**ring.n - ring.p**r,), ring.p)


def subset_degree(ring: Ring, subset: tuple[int, ...]) -> int:
    """Total degree of M_{n,S}, that of a_S times x_s^(p^(s-1)) for each row
    s not in S; the empty subset gives that of L_n, at p = 2 too."""
    subset = _normalize_subset(ring, subset)
    return monomial_degree(subset, tuple(ring.p ** (s - 1) for s in _others(ring, subset)), ring.p)


def _normalize_subset(ring: Ring, subset) -> tuple[int, ...]:
    out = tuple(sorted(set(subset)))
    if len(out) != len(tuple(subset)):
        raise ValueError("subset indices must be distinct")
    for s in out:
        _check_row(ring, s)
    return out


def _check_row(ring: Ring, s: int) -> None:
    if not 1 <= s <= ring.n:
        raise ValueError(f"index {s} out of range 1..{ring.n}" if ring.n else "rank must be at least 1")


def _require_odd(ring: Ring) -> None:
    if ring.mod2:
        raise ValueError("mixed determinant invariants need odd p")
