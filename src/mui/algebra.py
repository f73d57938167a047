"""The free graded-commutative algebra over F_p.

For odd p this is the polynomial algebra on x_1..x_n (degree 2) tensored with
the exterior algebra on a_1..a_n (degree 1), with the Koszul sign rule
a_i a_j = -a_j a_i.  For p = 2 there is no exterior part and the x_i sit in
degree 1.  Elements are immutable sparse sums of monomials with canonical
coefficients in [1, p); equality is structural.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import add, neg, sub
from typing import Iterable, Iterator, NamedTuple

from . import field

# Markers returned by Element.total_degree for the two non-numeric cases.
ZERO = "zero"
INHOMOGENEOUS = "inhomogeneous"


class ParseError(ValueError):
    """Raised on malformed element or operation text, with the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotDivisibleError(ArithmeticError):
    """Raised by exact_divide when the divisor does not divide exactly."""


class Monomial(NamedTuple):
    """One basis monomial: exterior index subset and polynomial exponents.

    ``ext`` holds the indices of the exterior factors, strictly increasing;
    ``pows`` is the dense exponent vector of the polynomial part.
    """

    ext: tuple[int, ...]
    pows: tuple[int, ...]


def monomial_degree(ext: tuple[int, ...], pows: tuple[int, ...], p: int) -> int:
    if p == 2:
        return sum(pows)
    return len(ext) + 2 * sum(pows)


def term_key(mon):
    """Canonical term order: exterior rank descending, then exterior indices
    ascending, then exponent vectors in descending lexicographic order."""
    ext, pows = mon
    return (-len(ext), ext, tuple(-e for e in pows))


@lru_cache(maxsize=None)
def _merge_ext(e1: tuple[int, ...], e2: tuple[int, ...]):
    """Merge two increasing index tuples, tracking the Koszul sign.

    Returns (sign, merged) or None when an index repeats (the term dies)."""
    merged: list[int] = []
    sign = 1
    i, j = 0, 0
    len1 = len(e1)
    while i < len1 and j < len(e2):
        u, v = e1[i], e2[j]
        if u == v:
            return None
        if u < v:
            merged.append(u)
            i += 1
        else:
            # v jumps left past the len1 - i remaining odd factors of e1
            if (len1 - i) % 2:
                sign = -sign
            merged.append(v)
            j += 1
    merged.extend(e1[i:])
    merged.extend(e2[j:])
    return sign, tuple(merged)


def _exterior_blocks(terms: dict) -> dict:
    """Group a term dict by exterior part: {ext: [(pows, coeff), ...]}."""
    blocks: dict = {}
    for (ext, pows), c in terms.items():
        blocks.setdefault(ext, []).append((pows, c))
    return blocks


def _element(p: int, n: int, raw: dict) -> "Element":
    """Canonicalize a raw coefficient dict: reduce mod p, drop zeros."""
    terms = {}
    for mon, c in raw.items():
        c %= p
        if c:
            terms[mon] = c
    return Element(p, n, terms)


class Element:
    """A finite F_p-linear combination of monomials over a fixed (p, n)."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: dict):
        # terms must already be canonical: coefficients in [1, p)
        self.p = p
        self.n = n
        self.terms = terms

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_polynomial(self) -> bool:
        """True when no exterior generator occurs."""
        return all(not ext for ext, _ in self.terms)

    def exterior_ranks(self) -> set[int]:
        return {len(ext) for ext, _ in self.terms}

    def total_degree(self):
        """Common total degree, or the markers ZERO / INHOMOGENEOUS."""
        if not self.terms:
            return ZERO
        degrees = {monomial_degree(e, m, self.p) for e, m in self.terms}
        if len(degrees) > 1:
            return INHOMOGENEOUS
        return degrees.pop()

    # -- accessors -------------------------------------------------------

    def coefficient(self, ext: tuple[int, ...], pows: tuple[int, ...]) -> int:
        return self.terms.get((tuple(ext), tuple(pows)), 0)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order."""
        for mon in sorted(self.terms, key=term_key):
            yield Monomial(*mon), self.terms[mon]

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "Element") -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError(
                f"mixed rings: F_{self.p} rank {self.n} vs F_{other.p} rank {other.n}"
            )

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for mon, c in other.terms.items():
            acc[mon] = acc.get(mon, 0) + c
        return _element(self.p, self.n, acc)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for mon, c in other.terms.items():
            acc[mon] = acc.get(mon, 0) - c
        return _element(self.p, self.n, acc)

    def __neg__(self):
        return _element(self.p, self.n, {m: -c for m, c in self.terms.items()})

    def _scale(self, c: int) -> "Element":
        c %= self.p
        if c == 0:
            return Element(self.p, self.n, {})
        if c == 1:
            return self
        return _element(self.p, self.n, {m: k * c for m, k in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_compatible(other)
        acc: dict = {}
        get = acc.get
        # the left factor is grouped by exterior part, so each part merges
        # once with each right term and a dead pair skips the whole part
        right = other.terms.items()
        for e1, block in _exterior_blocks(self.terms).items():
            for (e2, m2), c2 in right:
                if e1 and e2:
                    merged = _merge_ext(e1, e2)
                    if merged is None:
                        continue
                    sign, ext = merged
                    c2 *= sign
                else:
                    ext = e1 or e2
                for m1, c1 in block:
                    mon = (ext, tuple(map(add, m1, m2)))
                    acc[mon] = get(mon, 0) + c1 * c2
        return _element(self.p, self.n, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = Element(self.p, self.n, {((), (0,) * self.n): 1})
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structure -------------------------------------------------------

    def project(self, r: int) -> "Element":
        """The part of exterior rank r (the summand with r exterior factors)."""
        return Element(
            self.p, self.n, {m: c for m, c in self.terms.items() if len(m[0]) == r}
        )

    def exact_divide(self, f: "Element") -> "Element":
        """Quotient q with q * f == self, for purely polynomial nonzero f.

        Division runs separately over each exterior component, by multivariate
        monomial division in graded-lexicographic order; a nonzero remainder
        raises NotDivisibleError.  The remainder is kept as a heap of its
        monomials with lazy deletion (Monagan and Pearce, "Sparse polynomial
        division using a heap", J. Symbolic Comput. 46, 2011, after Johnson
        1974), so each step costs a logarithm in the remainder's size, not a
        rescan of it.
        """
        self._check_compatible(f)
        if f.is_zero():
            raise ZeroDivisionError("division by the zero element")
        if not f.is_polynomial():
            raise ValueError("divisor must be purely polynomial")
        fpoly = {pows: c for (_, pows), c in f.terms.items()}
        acc: dict = {}
        for ext, block in _exterior_blocks(self.terms).items():
            for pows, c in _poly_divide(block, fpoly, self.p).items():
                acc[(ext, pows)] = c
        return Element(self.p, self.n, acc)

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (ext, pows), c in sorted(self.terms.items(), key=lambda kv: term_key(kv[0])):
            factors = []
            if c != 1:
                factors.append(str(c))
            if ext:
                factors.append("".join(f"a{i}" for i in ext))
            poly = "".join(
                f"x{i}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(pows, start=1)
                if e
            )
            if poly:
                factors.append(poly)
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Element(p={self.p}, n={self.n}, {str(self)!r})"


def _heap_entry(pows: tuple[int, ...]):
    """Min-heap entry that pops the grlex-largest monomial first."""
    return (-sum(pows), tuple(map(neg, pows)), pows)


def _poly_divide(num, den: dict, p: int) -> dict:
    """Divide one polynomial by another exactly: num is a dict or a list of
    (exponents, coefficient) pairs, den and the quotient are dicts.

    The remainder's monomials sit in a grlex max-heap, pushed when they enter
    the remainder and skipped when popped after cancelling (lazy deletion).
    Grlex is a monomial order, so each reduction adds only monomials below
    the one it removes: the heap pops the leading terms a rescan would."""
    lead = min(den, key=_heap_entry)  # the grlex-largest monomial
    lead_inv = field.inv(den[lead], p)
    # the leading term cancels top exactly, so it stays out of the update loop
    tail = [(mon, k) for mon, k in den.items() if mon != lead]
    rem = dict(num)
    heap = [_heap_entry(mon) for mon in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    quot: dict = {}
    while heap:
        top = pop(heap)[2]
        c = rem.pop(top, 0)
        if not c:
            continue
        shift = tuple(map(sub, top, lead))
        if min(shift, default=0) < 0:
            raise NotDivisibleError("nonzero remainder in exact division")
        c = c * lead_inv % p
        quot[shift] = c
        for mon, k in tail:
            tgt = tuple(map(add, shift, mon))
            v = rem.get(tgt)
            if v is None:
                # c and k are units, so a new term never cancels
                rem[tgt] = -c * k % p
                push(heap, _heap_entry(tgt))
            else:
                v = (v - c * k) % p
                if v:
                    rem[tgt] = v
                else:
                    del rem[tgt]
    return quot


@dataclass(frozen=True)
class Ring:
    """Ambient context: mod-p cohomology of a rank-n elementary abelian group."""

    p: int
    n: int

    def __post_init__(self):
        if not field.is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def mod2(self) -> bool:
        return self.p == 2

    # -- constructors ----------------------------------------------------

    def zero(self) -> Element:
        return Element(self.p, self.n, {})

    def one(self) -> Element:
        return self.scalar(1)

    def scalar(self, c: int) -> Element:
        c %= self.p
        if not c:
            return self.zero()
        return Element(self.p, self.n, {((), (0,) * self.n): c})

    def a(self, i: int) -> Element:
        """The degree-1 exterior generator a_i (odd p only)."""
        if self.mod2:
            raise ValueError("no exterior generators at p = 2")
        self._check_index(i)
        return Element(self.p, self.n, {((i,), (0,) * self.n): 1})

    def x(self, i: int) -> Element:
        """The polynomial generator x_i (degree 2; degree 1 at p = 2)."""
        self._check_index(i)
        pows = tuple(1 if j == i else 0 for j in range(1, self.n + 1))
        return Element(self.p, self.n, {((), pows): 1})

    def monomial(self, ext: Iterable[int] = (), pows: Iterable[int] | None = None,
                 coeff: int = 1) -> Element:
        ext = tuple(ext)
        pows = (0,) * self.n if pows is None else tuple(pows)
        if list(ext) != sorted(set(ext)):
            raise ValueError("exterior indices must be strictly increasing")
        if ext and self.mod2:
            raise ValueError("no exterior generators at p = 2")
        for i in ext:
            self._check_index(i)
        if len(pows) != self.n or any(e < 0 for e in pows):
            raise ValueError(f"exponent vector must have {self.n} nonnegative entries")
        return _element(self.p, self.n, {(ext, pows): coeff})

    def from_terms(self, terms: Iterable[tuple[int, Iterable[int], Iterable[int]]]) -> Element:
        """Sum of (coeff, ext, pows) triples."""
        out = self.zero()
        for coeff, ext, pows in terms:
            out = out + self.monomial(ext, pows, coeff)
        return out

    def generators(self) -> list[Element]:
        gens = [] if self.mod2 else [self.a(i) for i in range(1, self.n + 1)]
        gens += [self.x(i) for i in range(1, self.n + 1)]
        return gens

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")

    # -- parsing ---------------------------------------------------------

    _TOKEN = re.compile(r"(\d+)|a(\d+)|x(\d+)(?:\^(\d+))?|([*+-])|(\s+)")

    def parse(self, text: str) -> Element:
        """Parse the canonical element grammar (also accepts '-' separators)."""
        terms: list[Element] = []
        current: Element | None = None
        sign = 1
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            number, a_idx, x_idx, x_exp, op, space = m.groups()
            pos_here, pos = pos, m.end()
            if space:
                continue
            if op in ("+", "-"):
                if current is None:
                    # a single leading minus is allowed
                    if op == "-" and not terms and sign == 1:
                        sign = -1
                        continue
                    raise ParseError(f"term expected before {op!r}", pos_here)
                terms.append(current * sign)
                current = None
                sign = -1 if op == "-" else 1
                continue
            if op == "*":
                if current is None:
                    raise ParseError("factor expected before '*'", pos_here)
                continue
            try:
                if number is not None:
                    factor = self.scalar(int(number))
                elif a_idx is not None:
                    factor = self.a(int(a_idx))
                else:
                    factor = self.x(int(x_idx)) ** (1 if x_exp is None else int(x_exp))
            except ValueError as exc:
                raise ParseError(str(exc), pos_here) from None
            current = factor if current is None else current * factor
        if current is None:
            raise ParseError("empty term", pos)
        terms.append(current * sign)
        out = self.zero()
        for t in terms:
            out = out + t
        return out
