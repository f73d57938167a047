"""The Steenrod action, stated once: the Bockstein and P^k (Sq^k at p = 2)
as maps on runs of monomials a_E x^m, given as exterior bitmasks and
exponent rows, returning the terms of the images as (source, target
bitmask, target exponents, coefficient) arrays.  P^k comes from the total
power, a ring map: P(a_E x^m) = a_E x^m prod_i (1 + x_i^(p - 1))^(m_i)
(Steenrod and Epstein, Cohomology Operations, 1962, ch. VI), read from one
table of C(m, j) mod p.  power_op and bockstein run the maps on the terms
of an element, the Steenrod closure on the columns of a graded piece.
"""

from __future__ import annotations

import re

import numpy as np

from . import field
from .algebra import Element, ParseError, Ring
from .linalg import _check_int64_prime, _from_term_arrays, _term_arrays

# An operation word is a tuple of ops, composition order left to right,
# applied rightmost first.  Ops are ("b",), ("P", k) or ("Sq", k).
Op = tuple
Word = tuple


def bockstein_map(masks: np.ndarray, pows: np.ndarray) -> tuple:
    """The Bockstein on the monomials a_E x^m given by exterior bitmasks
    (bit i - 1 for a_i) and exponent rows, as (source, target bitmask,
    target exponents, coefficient) arrays, one entry per i in E: a_E x^m
    goes to (-1)^#{e in E : e < i} a_(E - i) x_i x^m, in order of source,
    then i."""
    bits = masks[:, None] >> np.arange(pows.shape[1]) & 1
    src, i = np.nonzero(bits)
    below = np.cumsum(bits, axis=1)[src, i] - 1
    tgt = pows[src]
    tgt[np.arange(len(src)), i] += 1
    return src, masks[src] ^ 1 << i, tgt, (-1) ** below


def power_map(k: int, masks: np.ndarray, pows: np.ndarray, p: int) -> tuple:
    """P^k on monomials, as the arrays of bockstein_map: one entry per share
    vector j of sum k with nonzero coefficient prod_i C(m_i, j_i) mod p, the
    target a_E x^(m + (p - 1) j), in order of source, then j.  The j_i are
    chosen one variable at a time, from 0..min(m_i, rest of k) but not below
    what the later exponents cannot take, each binomial read from one table
    (field.binomial_mod) over the exponents m present and j <= min(m, k): the
    cost is bounded by k, not by the exponents."""
    _check_int64_prime(p)
    vals = sorted(set(pows.ravel().tolist()))
    width = min(k, vals[-1] if vals else 0) + 1
    table = np.array([[field.binomial_mod(m, j, p) if j <= m else 0 for j in range(width)]
                      for m in vals], dtype=np.min_scalar_type(p - 1)).reshape(-1, width)
    rows = np.searchsorted(vals, pows)
    # after[:, i]: the most the exponents past m_i can take
    after = np.cumsum(pows[:, ::-1], axis=1)[:, ::-1] - pows
    src = np.arange(len(pows))
    rest = np.full(len(pows), k)
    coef = np.ones(len(pows), dtype=np.int64)
    shares = np.zeros_like(pows)
    share = np.arange(width)
    for i in range(pows.shape[1]):
        binom = table[rows[src, i]]
        least = rest - after[src, i]
        s, j = np.nonzero((binom != 0) & (share <= rest[:, None]) & (share >= least[:, None]))
        src, rest, coef, shares = src[s], rest[s] - j, coef[s] * binom[s, j] % p, shares[s]
        shares[:, i] = j
    # with no variables, only k = 0 leaves nothing over
    done = rest == 0
    src = src[done]
    return src, masks[src], pows[src] + (p - 1) * shares[done], coef[done]


def _terms(y: Element) -> tuple:
    """(ring, bitmasks, exponent rows, coefficients) of y; p < 2^31 keeps products in int64."""
    _check_int64_prime(y.p)
    ring = Ring(y.p, y.n)
    return ring, *_term_arrays(ring, y)[1:]


def bockstein(y: Element) -> Element:
    """The Bockstein of an element (odd p; at p = 2 it is Sq^1)."""
    if y.p == 2:
        raise ValueError("the Bockstein at p = 2 is Sq^1; use power_op(1, y)")
    ring, masks, pows, coef = _terms(y)
    src, tgt_masks, tgt_pows, sign = bockstein_map(masks, pows)
    return _from_term_arrays(ring, tgt_masks, tgt_pows, coef[src] * sign)


def power_op(k: int, y: Element) -> Element:
    """P^k at odd p, Sq^k at p = 2; P^0 is the identity."""
    if k < 0:
        raise ValueError("operation index must be nonnegative")
    if k == 0:
        return y
    ring, masks, pows, coef = _terms(y)
    src, tgt_masks, tgt_pows, c = power_map(k, masks, pows, y.p)
    return _from_term_arrays(ring, tgt_masks, tgt_pows, coef[src] * c)


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
