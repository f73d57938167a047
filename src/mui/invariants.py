"""The named invariants of the natural GL-action.

All of them derive from the n x n matrix whose (s, i) entry is x_i^(p^(s-1)):
its determinant L_n, its minors, the subset invariants M_{n,S} obtained by
replacing the rows in S with exterior rows (a_1 .. a_n) (Mui 1975), with
M_{n,s} = M_{n,{s}}, and the Dickson coefficients of the fundamental equation
x^(p^n) = sum of lambda_r x^(p^r).  Each is built from one cached power-matrix
determinant; M_{n,S} is its Laplace expansion along the exterior rows, and the
product rule M_S M_T = +-L_n M_{S u T} is a theorem that eq:MnST checks.

The Dickson coefficients are Moore-determinant quotients (Dickson 1911;
Wilkerson 1983): with D_r the determinant of the power rows p^0..p^n with
row p^r left out, c_{n,r} = D_r / L_n exactly.  Expanding the (n+1) x (n+1)
Moore determinant in a new column X gives
prod over v in F_p^n of (X - v) = X^(p^n) + sum_{r<n} (-1)^(n-r) c_{n,r} X^(p^r),
so lambda_r = (-1)^(n-r+1) c_{n,r}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .algebra import Element, Ring, monomial_degree


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
    shares every smaller determinant among L_n, the minors, the M_{n,S} and
    the Dickson numerators."""
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


@lru_cache(maxsize=None)
def dickson(ring: Ring, r: int) -> Element:
    """The Dickson invariant c_{n,r}, 0 <= r < n: the Moore determinant of
    power rows p^0..p^n with row p^r left out, divided exactly by L_n."""
    dickson_degree(ring, r)
    rows = tuple(s for s in range(1, ring.n + 2) if s != r + 1)
    return _power_det(ring, rows, _others(ring)).exact_divide(l_n(ring))


def dickson_degree(ring: Ring, r: int) -> int:
    """Total degree of c_{n,r}, that of x^(p^n - p^r), for 0 <= r < n."""
    if not 0 <= r < ring.n:
        raise ValueError(f"Dickson index {r} out of range 0..{ring.n - 1}")
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
        raise ValueError(f"index {s} out of range 1..{ring.n}")


def _require_odd(ring: Ring) -> None:
    if ring.mod2:
        raise ValueError("mixed determinant invariants need odd p")
