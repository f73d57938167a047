"""Exact arithmetic in the prime field F_p and binomial coefficients mod p."""

from __future__ import annotations

import math
from functools import lru_cache


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above the bound
    below which the fixed bases are proven to decide primality."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        raise ValueError(f"primality of {p} is not decided exactly above {_MR_BOUND - 1}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def inv(a: int, p: int) -> int:
    """Multiplicative inverse mod p; zero has none."""
    if a % p == 0:
        raise ZeroDivisionError(f"inverse of zero in F_{p}")
    return pow(a, -1, p)


@lru_cache(maxsize=None)
def binomial_mod(m: int, k: int, p: int) -> int:
    """C(m, k) mod p, computed digit by digit in base p (Lucas).

    Returns 0 whenever k > m: some base-p digit of k then exceeds the
    matching digit of m.
    """
    if k < 0 or m < 0:
        return 0
    result = 1
    while m or k:
        mi, m = m % p, m // p
        ki, k = k % p, k // p
        if ki > mi:
            return 0
        result = result * (math.comb(mi, ki) % p) % p
    return result
