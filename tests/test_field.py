import pytest
from hypothesis import given, strategies as st

from mui import field


def pascal_triangle(rows):
    """Independent oracle: exact Pascal triangle."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def test_scalar_arithmetic():
    assert 2 * 2 % 3 == 1
    assert field.inv(2, 5) == 3
    assert -1 % 3 == 2
    assert (2 + 2) % 3 == 1
    assert -1 % 7 == 6


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        field.inv(0, 5)
    with pytest.raises(ZeroDivisionError):
        field.inv(10, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverses_multiply_to_one(p):
    for a in range(1, p):
        assert a * field.inv(a, p) % p == 1


def test_binomial_examples():
    assert field.binomial_mod(4, 0, 3) == 1
    assert field.binomial_mod(4, 2, 3) == 0  # C(4,2) = 6
    assert field.binomial_mod(3, 1, 3) == 0  # C(3,1) = 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_matches_pascal(p):
    tri = pascal_triangle(200)
    for m in range(201):
        for k in range(m + 1):
            assert field.binomial_mod(m, k, p) == tri[m][k] % p


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_binomial_above_the_diagonal_vanishes(m, extra):
    assert field.binomial_mod(m, m + extra, 3) == 0
    assert field.binomial_mod(m, m + extra, 2) == 0


def test_is_prime():
    assert [q for q in range(20) if field.is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_large():
    # primes, a semiprime with two ten-digit factors (out of reach of trial
    # division), a Carmichael number, and strong pseudoprimes to bases 2;
    # 2..7; 2..23 (three factors); 2..37 (the last one needs base 41)
    assert field.is_prime(8589934609)
    assert field.is_prime(1000000000000000003)
    assert field.is_prime(2**61 - 1)
    for composite in (1000000016000000063, 561, 2047, 3215031751,
                      3825123056546413051, 318665857834031151167461):
        assert not field.is_prime(composite)
    with pytest.raises(ValueError):
        field.is_prime(3317044064679887385961981)
