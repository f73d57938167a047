from itertools import product as iproduct

import pytest

from mui import (
    Ring,
    det,
    dickson,
    fundamental_coefficients,
    l_n,
    minor,
    mui,
    mui_set,
    product_sign,
)
from mui.invariants import dickson_degree, subset_degree
from helpers import (
    all_subsets,
    fundamental_product,
    reference_complement_sign,
    reference_dickson,
    reference_l_n,
    reference_minor,
    reference_mui,
    reference_mui_set,
)

R32 = Ring(3, 2)
R33 = Ring(3, 3)
R52 = Ring(5, 2)


def monic_form_product(ring):
    """Independent oracle: product of all monic linear forms (monic in the
    last nonzero coefficient, the normalization that matches the determinant)."""
    prod = ring.one()
    for vec in iproduct(range(ring.p), repeat=ring.n):
        if not any(vec) or [c for c in vec if c][-1] != 1:
            continue
        linear = ring.zero()
        for i, c in enumerate(vec, start=1):
            if c:
                linear = linear + ring.x(i) * c
        prod = prod * linear
    return prod


def test_l_n_examples():
    assert l_n(Ring(3, 1)) == Ring(3, 1).x(1)
    assert l_n(R32) == R32.x(1) * R32.x(2) ** 3 - R32.x(1) ** 3 * R32.x(2)
    ring = Ring(2, 2)
    x1, x2 = ring.x(1), ring.x(2)
    assert l_n(ring) == x1 * x2 * (x1 + x2)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_l_n_equals_monic_form_product(p, n):
    ring = Ring(p, n)
    assert l_n(ring) == monic_form_product(ring)


def test_l_n_leading_coefficient():
    # the coefficient of x1 x2^p ... xn^(p^(n-1)) is +1
    for ring in (R32, R33, R52):
        pows = tuple(ring.p**s for s in range(ring.n))
        assert l_n(ring).coefficient((), pows) == 1


def test_minor_examples():
    assert minor(Ring(3, 1), 1, 1) == Ring(3, 1).one()
    assert minor(R32, 1, 1) == R32.x(2) ** 3
    assert minor(R32, 1, 2) == R32.x(1) ** 3
    assert minor(R32, 2, 1) == R32.x(2)


def test_minor_structure_rank_four():
    # removing row 2 and column 3 leaves power rows p^0, p^2, p^3 on
    # columns 1, 2, 4
    ring = Ring(3, 4)
    cells = [
        [ring.x(i) ** (3**e) for i in (1, 2, 4)]
        for e in (0, 2, 3)
    ]
    assert minor(ring, 2, 3) == det(cells)


def test_mui_examples():
    assert mui(Ring(3, 1), 1) == Ring(3, 1).a(1)
    assert mui(R32, 2) == R32.a(1) * R32.x(2) - R32.a(2) * R32.x(1)
    assert mui(R32, 1) == R32.a(1) * R32.x(2) ** 3 - R32.a(2) * R32.x(1) ** 3


def test_mui_expands_like_the_mixed_determinant():
    # against an independent cofactor expansion with the exterior row first
    for ring in (R33, R52):
        for s in range(1, ring.n + 1):
            rows = [[ring.a(i) for i in range(1, ring.n + 1)]]
            for r in range(1, ring.n + 1):
                if r != s:
                    rows.append([ring.x(i) ** (ring.p ** (r - 1)) for i in range(1, ring.n + 1)])
            assert mui(ring, s) == det(rows)


def test_mui_set_examples():
    assert mui_set(R32, ()) == l_n(R32)
    assert mui_set(R32, (2,)) == mui(R32, 2)
    assert mui_set(R32, (1, 2)) == -R32.monomial((1, 2))


def test_mui_set_rejected_at_p2():
    with pytest.raises(ValueError):
        mui(Ring(2, 2), 1)
    with pytest.raises(ValueError):
        mui_set(Ring(2, 2), (1,))


def test_product_sign_matches_the_reference_on_complementary_pairs():
    assert product_sign((1, 2), ()) == product_sign((), (1, 2)) == 1
    assert product_sign((2,), (1,)) == -1
    assert product_sign((2, 3), (1,)) == 1
    for ring in (R32, R33, Ring(5, 3)):
        for subset in all_subsets(ring.n):
            comp = tuple(s for s in range(1, ring.n + 1) if s not in subset)
            assert product_sign(subset, comp) == reference_complement_sign(ring, subset)


@pytest.mark.parametrize(
    "p,n", [(3, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 3), (3, 4), (5, 4)]
)
def test_invariants_equal_the_product_and_divide_references(p, n):
    # the Laplace expansion against the cofactor rows and the product of the
    # M_{n,s} divided by L_n^(r-1)
    ring = Ring(p, n)
    assert l_n(ring) == reference_l_n(ring)
    for s in range(1, n + 1):
        assert mui(ring, s) == reference_mui(ring, s)
        for i in range(1, n + 1):
            assert minor(ring, s, i) == reference_minor(ring, s, i)
    for subset in all_subsets(n):
        assert mui_set(ring, subset) == reference_mui_set(ring, subset), subset


def test_subset_invariants_at_rank_five():
    # the product-and-divide reference takes minutes here; instead the
    # rank-one invariants are expanded along their exterior row, and the
    # product rule builds every larger subset from them
    ring = Ring(3, 5)
    for s in range(1, ring.n + 1):
        row = ring.zero()
        for i in range(1, ring.n + 1):
            row = row + minor(ring, s, i) * ring.a(i) * (-1) ** (i + 1)
        assert mui(ring, s) == row
    for subset in all_subsets(ring.n):
        m = mui_set(ring, subset)
        assert m.total_degree() == subset_degree(ring, subset)
        assert m.exterior_ranks() == {len(subset)}
    top = ring.monomial((1, 2, 3, 4, 5))
    assert mui_set(ring, (1, 2, 3, 4, 5)) in (top, -top)
    pairs = [((), (1, 3)), ((1,), (2,)), ((1, 2), (3,)), ((1, 2, 3), (4,)),
             ((1, 2, 3, 4), (5,)), ((2, 4), (3,)), ((1, 3), (2, 5)), ((5,), (1, 2, 3, 4))]
    for s_set, t_set in pairs:
        union = tuple(sorted(s_set + t_set))
        prod = mui_set(ring, s_set) * mui_set(ring, t_set)
        assert prod == l_n(ring) * mui_set(ring, union) * product_sign(s_set, t_set)
    assert (mui_set(ring, (2, 3)) * mui_set(ring, (3, 4))).is_zero()


@pytest.mark.parametrize("ring", [R32, R33, R52, Ring(5, 3), Ring(3, 4)])
def test_product_rule_exhaustive(ring):
    big_l = l_n(ring)
    for s_set in all_subsets(ring.n):
        for t_set in all_subsets(ring.n):
            prod = mui_set(ring, s_set) * mui_set(ring, t_set)
            if set(s_set) & set(t_set):
                assert prod.is_zero()
            else:
                union = tuple(sorted(s_set + t_set))
                assert prod == big_l * mui_set(ring, union) * product_sign(s_set, t_set)


@pytest.mark.parametrize("ring", [R32, R33, R52])
def test_adjugate_identity(ring):
    # sum_i (-1)^(s+i) minor(s,i) x_i^(p^(t-1)) = delta_st L_n
    for s in range(1, ring.n + 1):
        for t in range(1, ring.n + 1):
            total = ring.zero()
            for i in range(1, ring.n + 1):
                term = minor(ring, s, i) * ring.x(i) ** (ring.p ** (t - 1))
                if (s + i) % 2:
                    term = -term
                total = total + term
            assert total == (l_n(ring) if s == t else ring.zero())


@pytest.mark.parametrize("ring", [R32, R33, R52, Ring(2, 3), Ring(3, 1)])
def test_subset_invariant_degrees(ring):
    # the closed forms the CLI checks before it builds: L_n (at p = 2 too),
    # each M_{n,S} and each c_{n,r}
    assert l_n(ring).total_degree() == subset_degree(ring, ())
    for r in range(ring.n):
        assert dickson(ring, r).total_degree() == dickson_degree(ring, r)
    for subset in all_subsets(ring.n) if not ring.mod2 else ():
        m = mui_set(ring, subset)
        assert not m.is_zero()
        assert m.total_degree() == subset_degree(ring, subset)
        assert m.exterior_ranks() == ({len(subset)} if subset or ring.n else {0})


def test_dickson_rank_one():
    assert dickson(Ring(3, 1), 0) == Ring(3, 1).x(1) ** 2
    assert dickson(Ring(2, 1), 0) == Ring(2, 1).x(1)
    with pytest.raises(ValueError):
        dickson(Ring(3, 1), 1)


@pytest.mark.parametrize("ring", [R32, Ring(2, 2), R33])
def test_fundamental_equation_kills_every_dual_vector(ring):
    lams = fundamental_coefficients(ring)
    for vec in iproduct(range(ring.p), repeat=ring.n):
        if not any(vec):
            continue
        v = ring.zero()
        for i, c in enumerate(vec, start=1):
            if c:
                v = v + ring.x(i) * c
        rhs = ring.zero()
        for r, lam in enumerate(lams):
            rhs = rhs + lam * v ** (ring.p**r)
        assert v ** (ring.p**ring.n) == rhs


@pytest.mark.parametrize(
    "p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]
)
def test_dickson_matches_the_product_expansion(p, n):
    ring = Ring(p, n)
    expansion = fundamental_product(ring)
    assert set(expansion) <= {p**r for r in range(n + 1)}
    assert expansion[p**n] == ring.one()
    for r in range(n):
        assert dickson(ring, r) == reference_dickson(ring, r)


def test_bottom_dickson_is_l_to_the_p_minus_1():
    # classical: c_{n,0} = L_n^(p-1)
    for ring in (R32, Ring(2, 2), Ring(2, 3)):
        assert dickson(ring, 0) == l_n(ring) ** (ring.p - 1)
