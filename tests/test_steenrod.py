import random

import pytest
from hypothesis import given, strategies as st

from mui import ParseError, Ring, apply_word, bockstein, format_word, parse_word, power_op
from helpers import (
    elements, rand_element, rand_homogeneous, reference_bockstein, reference_power_op, time_limit,
)

R32 = Ring(3, 2)
R22 = Ring(2, 2)
R53 = Ring(5, 3)


def test_bockstein_on_generators():
    assert bockstein(R32.a(1)) == R32.x(1)
    assert bockstein(R32.x(1)) == R32.zero()


def test_bockstein_derivation_sign():
    a1a2 = R32.monomial((1, 2))
    assert bockstein(a1a2) == R32.x(1) * R32.a(2) - R32.a(1) * R32.x(2)


def test_bockstein_rejected_at_p2():
    with pytest.raises(ValueError):
        bockstein(R22.x(1))


def test_power_on_generators():
    assert power_op(1, R32.x(1)) == R32.x(1) ** 3
    assert power_op(1, R32.a(1)) == R32.zero()
    y = R32.monomial((1, 2)) + R32.x(1)
    assert power_op(0, y) == y


def test_power_carries_minor_determinants_down():
    # P^1 on a1 x2 - a2 x1 gives a1 x2^3 - a2 x1^3
    m2 = R32.a(1) * R32.x(2) - R32.a(2) * R32.x(1)
    m1 = R32.a(1) * R32.x(2) ** 3 - R32.a(2) * R32.x(1) ** 3
    assert power_op(1, m2) == m1


def test_word_application_order():
    m12 = -R32.monomial((1, 2))
    word = parse_word("P1 b", 3)
    m1 = R32.a(1) * R32.x(2) ** 3 - R32.a(2) * R32.x(1) ** 3
    assert apply_word(word, m12) == m1
    assert apply_word((), m12) == m12


def test_word_parse_and_format():
    assert parse_word("P3 b P1", 3) == (("P", 3), ("b",), ("P", 1))
    assert format_word((("P", 3), ("b",), ("P", 1))) == "P3 b P1"
    assert parse_word("Sq2 Sq1", 2) == (("Sq", 2), ("Sq", 1))
    assert parse_word("", 3) == ()
    with pytest.raises(ParseError):
        parse_word("Sq2", 3)
    with pytest.raises(ParseError):
        parse_word("P2", 2)
    with pytest.raises(ParseError):
        parse_word("b", 2)
    with pytest.raises(ParseError):
        parse_word("Q4", 3)


@given(elements(R32))
def test_bockstein_squares_to_zero(y):
    assert bockstein(bockstein(y)).is_zero()


@given(elements(R32, max_terms=3, max_exp=2), elements(R32, max_terms=3, max_exp=2),
       st.integers(min_value=0, max_value=4))
def test_cartan_formula(u, v, k):
    total = R32.zero()
    for i in range(k + 1):
        total = total + power_op(i, u) * power_op(k - i, v)
    assert power_op(k, u * v) == total


def test_bockstein_is_a_signed_derivation():
    rng = random.Random(23)
    for _ in range(200):
        du = rng.randrange(1, 7)
        u = rand_homogeneous(R32, rng, du)
        v = rand_element(R32, rng)
        sign = -1 if du % 2 else 1
        assert bockstein(u * v) == bockstein(u) * v + sign * (u * bockstein(v))


def test_degree_shifts():
    rng = random.Random(29)
    for _ in range(100):
        d = rng.randrange(1, 8)
        y = rand_homogeneous(R32, rng, d)
        if y.is_zero():
            continue
        b = bockstein(y)
        if b:
            assert b.total_degree() == d + 1
        for k in range(1, 4):
            pk = power_op(k, y)
            if pk:
                assert pk.total_degree() == d + 2 * k * (3 - 1)


def test_instability_vanishing():
    rng = random.Random(31)
    for _ in range(200):
        d = rng.randrange(1, 8)
        y = rand_homogeneous(R32, rng, d)
        k = d // 2 + rng.randrange(1, 4)  # 2k > d
        assert power_op(k, y).is_zero()


def test_mod2_squares():
    rng = random.Random(37)
    for _ in range(200):
        d = rng.randrange(1, 8)
        y = rand_homogeneous(R22, rng, d)
        if y.is_zero():
            continue
        assert power_op(d, y) == y * y          # Sq^d(y) = y^2
        assert power_op(d + 1, y).is_zero()     # instability
        sq = power_op(1, y)
        if sq:
            assert sq.total_degree() == d + 1   # Sq^k raises degree by k


def test_power_cost_is_bounded_by_k_not_by_the_exponent():
    # only the shares j <= k are read, whatever the exponent
    with time_limit(5):
        big = Ring(65537, 1)
        assert power_op(1, big.monomial((), (20000,))) == big.monomial((), (85536,), 20000)
        R31 = Ring(3, 1)
        assert power_op(1, R31.monomial((), (10**6,))) == R31.monomial((), (10**6 + 2,))


@pytest.mark.parametrize("ring", [R22, Ring(2, 3), R32, Ring(3, 3), Ring(5, 2), R53])
@given(data=st.data())
def test_operations_match_the_termwise_reference(ring, data):
    # elements() draws zero and inhomogeneous elements too
    y = data.draw(elements(ring, max_terms=5, max_exp=6))
    k = data.draw(st.integers(min_value=0, max_value=8))
    assert power_op(k, y) == reference_power_op(k, y)
    if ring.mod2:
        with pytest.raises(ValueError):
            bockstein(y)
    else:
        assert bockstein(y) == reference_bockstein(y)
