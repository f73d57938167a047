"""Steenrod operations computed termwise.

The Bockstein is the signed derivation with beta(a_i) = x_i, beta(x_i) = 0.
The power operation P^k (Sq^k at p = 2) distributes over a monomial by the
Cartan rule: exterior factors pass through untouched and each polynomial
factor x^m contributes C(m, j) x^{m + j(p-1)} for its share j of k.
"""

from __future__ import annotations

import re

from . import field
from .algebra import Element, ParseError, _element

# An operation word is a tuple of ops, composition order left to right,
# applied rightmost first.  Ops are ("b",), ("P", k) or ("Sq", k).
Op = tuple
Word = tuple


def bockstein(y: Element) -> Element:
    """The Bockstein of an element (odd p; at p = 2 it is Sq^1)."""
    if y.p == 2:
        raise ValueError("the Bockstein at p = 2 is Sq^1; use power_op(1, y)")
    acc: dict = {}
    for (ext, pows), c in y.terms.items():
        for j, idx in enumerate(ext):
            sign = -1 if j % 2 else 1
            new_ext = ext[:j] + ext[j + 1:]
            new_pows = tuple(
                e + 1 if i == idx else e for i, e in enumerate(pows, start=1)
            )
            mon = (new_ext, new_pows)
            acc[mon] = acc.get(mon, 0) + sign * c
    return _element(y.p, y.n, acc)


def power_op(k: int, y: Element) -> Element:
    """P^k at odd p, Sq^k at p = 2; P^0 is the identity."""
    if k < 0:
        raise ValueError("operation index must be nonnegative")
    if k == 0:
        return y
    p = y.p
    shift = p - 1
    acc: dict = {}
    for (ext, pows), c in y.terms.items():
        for coef, split in _cartan_splits(pows, k, p):
            new_pows = tuple(m + j * shift for m, j in zip(pows, split))
            mon = (ext, new_pows)
            acc[mon] = acc.get(mon, 0) + c * coef
    return _element(y.p, y.n, acc)


def _cartan_splits(pows: tuple[int, ...], k: int, p: int):
    """Distributions of k over the polynomial factors, with their mod-p
    multinomial coefficients; zero-coefficient branches are pruned."""
    n = len(pows)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + pows[i]
    out: list[tuple[int, tuple[int, ...]]] = []

    def rec(i: int, rem: int, coef: int, acc: list[int]):
        if rem > suffix[i]:
            return
        if i == n:
            out.append((coef, tuple(acc)))
            return
        top = min(rem, pows[i])
        for j in range(top + 1):
            b = field.binomial_mod(pows[i], j, p)
            if b:
                acc.append(j)
                rec(i + 1, rem - j, coef * b % p, acc)
                acc.pop()

    rec(0, k, 1, [])
    return out


def apply_op(op: Op, y: Element) -> Element:
    kind = op[0]
    if kind == "b":
        return bockstein(y)
    if kind == "P":
        if y.p == 2:
            raise ValueError("P operations need odd p; use Sq at p = 2")
        return power_op(op[1], y)
    if kind == "Sq":
        if y.p != 2:
            raise ValueError("Sq operations need p = 2; use P at odd p")
        return power_op(op[1], y)
    raise ValueError(f"unknown operation {op!r}")


def apply_word(word: Word, y: Element) -> Element:
    """Apply a composite of operations, rightmost first."""
    for op in reversed(word):
        y = apply_op(op, y)
    return y


_WORD_TOKEN = re.compile(r"^(?:b|(P|Sq)(\d+))$")


def parse_word(text: str, p: int) -> Word:
    """Parse operation text such as "P3 b P1" (or "Sq2 Sq1" at p = 2)."""
    ops = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        parsed = _WORD_TOKEN.match(tok)
        if parsed is None:
            raise ParseError(f"unknown operation token {tok!r}", m.start())
        kind, k = parsed.groups()
        if kind is None:
            if p == 2:
                raise ParseError("the Bockstein at p = 2 is Sq1", m.start())
            ops.append(("b",))
        elif kind == "P":
            if p == 2:
                raise ParseError("P operations need odd p; use Sq", m.start())
            ops.append(("P", int(k)))
        else:
            if p != 2:
                raise ParseError("Sq operations need p = 2; use P", m.start())
            ops.append(("Sq", int(k)))
    return tuple(ops)


def word_degree(word: Word, p: int) -> int:
    """The degree a word adds: 1 for b, k for Sq^k, 2k(p - 1) for P^k."""
    return sum(1 if op[0] == "b" else op[1] * (1 if op[0] == "Sq" else 2 * (p - 1))
               for op in word)


def format_word(word: Word) -> str:
    return " ".join(op[0] if op[0] == "b" else f"{op[0]}{op[1]}" for op in word)
