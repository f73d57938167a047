import random

import pytest
from hypothesis import given, strategies as st

from mui import Element, INHOMOGENEOUS, NotDivisibleError, ParseError, Ring, ZERO
from mui.algebra import _poly_divide
from helpers import (
    elements,
    rand_element,
    reference_mul,
    reference_poly_divide,
    time_limit,
)

R32 = Ring(3, 2)
R33 = Ring(3, 3)
R22 = Ring(2, 2)


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(4, 2)
    with pytest.raises(ValueError):
        Ring(3, -1)
    with pytest.raises(ValueError):
        R22.a(1)
    with pytest.raises(ValueError):
        R32.x(3)


def test_koszul_antisymmetry():
    a1, a2 = R32.a(1), R32.a(2)
    assert a1 * a2 == R32.monomial((1, 2))
    assert a2 * a1 == -R32.monomial((1, 2))
    assert a1 * a1 == R32.zero()


def test_three_fold_exterior_signs():
    a1, a2, a3 = (R33.a(i) for i in (1, 2, 3))
    a123 = R33.monomial((1, 2, 3))
    assert a3 * a1 * a2 == a123          # cyclic: even permutation
    assert a2 * a1 * a3 == -a123         # one transposition
    assert a3 * a2 * a1 == -a123


def test_scalars_and_polynomials_are_central():
    y = R32.a(1) * R32.x(2) + R32.a(2) * 2
    f = R32.x(1) ** 2 + R32.x(2)
    assert y * f == f * y
    assert 2 * y == y * 2


def test_mixed_product_from_minors():
    # (a1 x2^3 - a2 x1^3)(a1 x2 - a2 x1) expands to (x1^3 x2 - x1 x2^3) a1a2
    u = R32.a(1) * R32.x(2) ** 3 - R32.a(2) * R32.x(1) ** 3
    v = R32.a(1) * R32.x(2) - R32.a(2) * R32.x(1)
    expected = (R32.x(1) ** 3 * R32.x(2) - R32.x(1) * R32.x(2) ** 3) * R32.monomial((1, 2))
    assert u * v == expected


def test_project_exterior_rank():
    y = R32.a(1) + R32.x(1)
    assert y.project(1) == R32.a(1)
    assert y.project(0) == R32.x(1)
    assert y.project(2) == R32.zero()
    m12 = R32.monomial((1, 2), coeff=2)
    assert m12.project(2) == m12
    assert m12.project(1) == R32.zero()


def test_total_degree():
    assert R32.monomial((1, 2)).total_degree() == 2
    assert (R32.a(1) + R32.x(1)).total_degree() == INHOMOGENEOUS
    assert R32.zero().total_degree() == ZERO
    assert R32.one().total_degree() == 0
    # at p = 2 the polynomial generators sit in degree 1
    assert (R22.x(1) * R22.x(2)).total_degree() == 2


def test_exact_divide_examples():
    big_l = R32.x(1) * R32.x(2) ** 3 - R32.x(1) ** 3 * R32.x(2)
    y = -(big_l * R32.monomial((1, 2)))
    assert y.exact_divide(big_l) == -R32.monomial((1, 2))
    assert R32.zero().exact_divide(big_l) == R32.zero()
    # mixed exterior blocks divide componentwise
    f = R32.x(1) * R32.x(2)
    y = R32.x(1) ** 2 * R32.x(2) + R32.x(1) * R32.x(2) ** 2 * R32.a(1)
    q = y.exact_divide(f)
    assert q == R32.x(1) + R32.x(2) * R32.a(1)
    assert q * f == y


def test_exact_divide_rejects_bad_divisors():
    with pytest.raises(NotDivisibleError):
        (R32.x(1) + R32.one()).exact_divide(R32.x(2))
    with pytest.raises(ValueError):
        R32.x(1).exact_divide(R32.a(1))
    with pytest.raises(ZeroDivisionError):
        R32.x(1).exact_divide(R32.zero())


def test_mixed_ring_operations_rejected():
    with pytest.raises(ValueError):
        R32.x(1) * R33.x(1)
    with pytest.raises(ValueError):
        R32.x(1) + Ring(5, 2).x(1)


def test_canonical_text():
    assert str(R32.zero()) == "0"
    assert str(R32.one()) == "1"
    assert str(R32.scalar(2)) == "2"
    y = R32.monomial((1, 2), (3, 1), 2) + R32.monomial((), (0, 4))
    assert str(y) == "2*a1a2*x1^3x2 + x2^4"
    m2 = R32.a(1) * R32.x(2) - R32.a(2) * R32.x(1)
    assert str(m2) == "a1*x2 + 2*a2*x1"


def test_parse_examples():
    assert R32.parse("2*a1a2*x1^3x2 + x2^4") == (
        R32.monomial((1, 2), (3, 1), 2) + R32.monomial((), (0, 4))
    )
    assert R32.parse("0") == R32.zero()
    assert R32.parse("a1x2 - a2x1") == R32.a(1) * R32.x(2) - R32.a(2) * R32.x(1)
    assert R32.parse("-a1") == -R32.a(1)
    assert R22.parse("x1x2^2 + x1^2x2") == R22.x(1) * R22.x(2) ** 2 + R22.x(1) ** 2 * R22.x(2)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        R32.parse("a1 + ?")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        R32.parse("")
    with pytest.raises(ParseError):
        R32.parse("a1 + + a2")
    with pytest.raises(ParseError):
        R32.parse("a3")  # index out of range
    with pytest.raises(ParseError):
        R22.parse("a1")  # no exterior generators at p = 2


@given(elements(R32))
def test_print_parse_round_trip(y):
    assert R32.parse(str(y)) == y


@given(elements(R32), elements(R32), elements(R32))
def test_associativity_and_distributivity(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


@given(elements(R33, max_terms=3), elements(R33, max_terms=3))
def test_graded_commutativity(u, v):
    from mui.algebra import monomial_degree

    def split(y):
        parts = {}
        for (ext, pows), c in y.terms.items():
            d = monomial_degree(ext, pows, y.p)
            parts[d] = parts.get(d, R33.zero()) + R33.monomial(ext, pows, c)
        return parts

    for du, yu in split(u).items():
        for dv, yv in split(v).items():
            sign = -1 if (du % 2 and dv % 2) else 1
            assert yu * yv == sign * (yv * yu)


@given(elements(R32))
def test_rank_projections_sum_to_identity(y):
    total = R32.zero()
    for r in range(R32.n + 1):
        total = total + y.project(r)
    assert total == y


def test_rank_filtration_under_products():
    rng = random.Random(7)
    for _ in range(200):
        u = rand_element(R33, rng)
        v = rand_element(R33, rng)
        for r in range(R33.n + 1):
            for s in range(R33.n + 1):
                prod = u.project(r) * v.project(s)
                if r + s <= R33.n:
                    assert prod == prod.project(r + s)
                else:
                    assert prod.is_zero()


def test_divide_recovers_random_quotients():
    rng = random.Random(11)
    for _ in range(300):
        f = R32.zero()
        while f.is_zero():
            f = rand_element(R32, rng, max_terms=3)
            f = Element(3, 2, {m: c for m, c in f.terms.items() if not m[0]})
        q = rand_element(R32, rng, max_terms=3)
        assert (q * f).exact_divide(f) == q


REFERENCE_RINGS = [R32, R33, Ring(5, 2), Ring(2, 3)]


def polys(ring: Ring, max_terms: int, min_terms: int = 0):
    """Polynomials as exponent-vector dicts; exponents are drawn freely, so
    most draws are inhomogeneous."""
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * ring.n),
        st.integers(min_value=1, max_value=ring.p - 1),
        min_size=min_terms,
        max_size=max_terms,
    )


def lift(ring: Ring, poly: dict) -> Element:
    return Element(ring.p, ring.n, {((), pows): c for pows, c in poly.items()})


def poly_part(y: Element) -> dict:
    return {pows: c for (_, pows), c in y.terms.items()}


def quotient_or_error(divide, num: dict, den: dict, p: int):
    # a division whose update re-adds the term it just removed never ends
    try:
        with time_limit(5):
            return divide(num, den, p)
    except NotDivisibleError:
        return NotDivisibleError


@pytest.mark.parametrize("ring", REFERENCE_RINGS)
@given(data=st.data())
def test_heap_division_matches_reference(ring, data):
    q = data.draw(polys(ring, 4))
    den = data.draw(polys(ring, 3, min_terms=1))
    num = poly_part(reference_mul(lift(ring, q), lift(ring, den)))
    assert (quotient_or_error(_poly_divide, num, den, ring.p)
            == reference_poly_divide(num, den, ring.p) == q)
    # a perturbed dividend: both raise, or both give the same quotient
    perturbed = poly_part(lift(ring, num) + lift(ring, data.draw(polys(ring, 2, min_terms=1))))
    assert (quotient_or_error(_poly_divide, perturbed, den, ring.p)
            == quotient_or_error(reference_poly_divide, perturbed, den, ring.p))


def test_heap_division_pops_in_grlex_order_on_inhomogeneous_input():
    # lex and grlex disagree on the leading term of x1 + x2^2: a lex heap
    # would pop x1^3 first, which x2^2 does not divide
    den = {(1, 0): 1, (0, 2): 1}
    q = {(2, 0): 2, (0, 3): 1, (1, 1): 1, (0, 0): 2}
    num = poly_part(reference_mul(lift(R32, q), lift(R32, den)))
    assert quotient_or_error(_poly_divide, num, den, 3) == reference_poly_divide(num, den, 3) == q
    num[(5, 0)] = 1
    assert quotient_or_error(_poly_divide, num, den, 3) is NotDivisibleError


@pytest.mark.parametrize("ring", REFERENCE_RINGS)
@given(data=st.data())
def test_blocked_product_matches_reference(ring, data):
    # few generators, so exterior indices collide often
    u = data.draw(elements(ring, max_terms=5))
    v = data.draw(elements(ring, max_terms=5))
    assert u * v == reference_mul(u, v)
    assert v * u == reference_mul(v, u)


def test_power_matches_repeated_product():
    y = R32.x(1) + 2 * R32.x(2)
    prod = R32.one()
    for e in range(6):
        assert y**e == prod
        prod = prod * y
