"""The named invariants of the natural GL-action.

All of them derive from the n x n matrix whose (s, i) entry is x_i^(p^(s-1)):
its determinant L_n, its minors, the mixed determinants M_{n,s} obtained by
replacing one power row with the exterior row (a_1 .. a_n), the subset
invariants M_{n,S}, and the Dickson coefficients of the fundamental equation
x^(p^n) = sum of lambda_r x^(p^r).

The Dickson coefficients are Moore-determinant quotients (Dickson 1911;
Wilkerson 1983): with D_r the determinant of the power rows p^0..p^n with
row p^r left out, c_{n,r} = D_r / L_n exactly.  Expanding the (n+1) x (n+1)
Moore determinant in a new column X gives
prod over v in F_p^n of (X - v) = X^(p^n) + sum_{r<n} (-1)^(n-r) c_{n,r} X^(p^r),
so lambda_r = (-1)^(n-r+1) c_{n,r}.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Element, Ring


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


def _power_rows(ring: Ring, rows: list[int]) -> list[list[Element]]:
    return [[_power_entry(ring, s, i) for i in range(1, ring.n + 1)] for s in rows]


@lru_cache(maxsize=None)
def l_n(ring: Ring) -> Element:
    """det of the power matrix; equals the product of all monic linear forms."""
    if ring.n == 0:
        return ring.one()
    return det(_power_rows(ring, list(range(1, ring.n + 1))))


@lru_cache(maxsize=None)
def minor(ring: Ring, s: int, i: int) -> Element:
    """Minor of the power matrix with row s and column i removed."""
    _check_row(ring, s)
    _check_row(ring, i)
    rows = [r for r in range(1, ring.n + 1) if r != s]
    cells = [
        [_power_entry(ring, r, c) for c in range(1, ring.n + 1) if c != i]
        for r in rows
    ]
    if not cells:
        return ring.one()
    return det(cells)


@lru_cache(maxsize=None)
def mui(ring: Ring, s: int) -> Element:
    """The rank-one invariant M_{n,s}: the power matrix with row s replaced
    by the exterior generators, expanded along that row."""
    _require_odd(ring)
    _check_row(ring, s)
    total = ring.zero()
    for i in range(1, ring.n + 1):
        term = minor(ring, s, i) * ring.a(i)
        if i % 2 == 0:
            term = -term
        total = total + term
    return total


@lru_cache(maxsize=None)
def mui_set(ring: Ring, subset: tuple[int, ...]) -> Element:
    """The subset invariant: the product of the M_{n,s} for s in the subset,
    divided exactly by L_n^(r-1).  The empty subset gives L_n."""
    _require_odd(ring)
    subset = _normalize_subset(ring, subset)
    if not subset:
        return l_n(ring)
    prod = mui(ring, subset[0])
    for s in subset[1:]:
        prod = prod * mui(ring, s)
    r = len(subset)
    if r > 1:
        prod = prod.exact_divide(l_n(ring) ** (r - 1))
    return prod


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
    if not 0 <= r < ring.n:
        raise ValueError(f"Dickson index {r} out of range 0..{ring.n - 1}")
    rows = [s for s in range(1, ring.n + 2) if s != r + 1]
    return det(_power_rows(ring, rows)).exact_divide(l_n(ring))


def subset_degree(ring: Ring, subset: tuple[int, ...]) -> int:
    """Total degree of the subset invariant, from the determinant shape."""
    p, n = ring.p, ring.n
    base = sum(p**t for t in range(n))
    return len(subset) + 2 * (base - sum(p ** (s - 1) for s in subset))


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
