import random

import numpy as np
import pytest

from mui import Ring, ess_basis, l_n, monomial_basis, mui, steenrod_closure
from mui.linalg import zero_span
from mui.steenrod import power_map
from mui.verify import _span_case
from helpers import reference_cartan_splits, reference_steenrod_closure

# (p, n, max_degree) of the closure cross-checks; the closures of the top
# class at (3,3,22) and of the cubic at p = 2 need P^3 and Sq^2, which the
# other generators do not reach there
CLOSURE_CASES = [
    (3, 2, 20), (3, 3, 18), (3, 3, 22), (5, 2, 16), (7, 2, 20), (2, 2, 15), (2, 3, 15), (2, 4, 12),
]


def seeds(ring: Ring):
    """The seed of the claims (the top exterior class, or L_n at p = 2),
    then non-top seeds: x1*a1 and M_(n,1) (x1 and x1^3 + x1 x2^2 + x2^3 at
    p = 2)."""
    x1, x2 = ring.x(1), ring.x(2)
    if ring.mod2:
        return [l_n(ring), x1, x1**3 + x1 * x2**2 + x2**3]
    top = ring.monomial(tuple(range(1, ring.n + 1)))
    return [top, x1 * ring.a(1), mui(ring, 1)]


def assert_spans_equal(spans, reference):
    # the closure keeps its rows in the smallest dtype that holds p - 1, the
    # reference in int64; the entries must agree
    assert sorted(spans) == sorted(reference)
    for d, span in spans.items():
        expected = reference[d]
        assert span.rows.dtype == np.min_scalar_type(span.p - 1), d
        assert expected.rows.dtype == np.int64, d
        assert span == expected, (d, span, expected)


@pytest.mark.parametrize("p,n,max_degree", CLOSURE_CASES)
def test_closure_matches_worklist_reference(p, n, max_degree):
    ring = Ring(p, n)
    for seed in seeds(ring):
        assert_spans_equal(steenrod_closure(seed, max_degree),
                           reference_steenrod_closure(seed, max_degree))


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3)])
def test_closure_of_zero_and_of_a_seed_above_the_bound(p, n):
    ring = Ring(p, n)
    high = ring.x(1) ** 6
    bound = high.total_degree() - 1
    for seed in (ring.zero(), high):
        spans = steenrod_closure(seed, bound)
        assert_spans_equal(spans, reference_steenrod_closure(seed, bound))
        assert all(span.dim == 0 for span in spans.values())


@pytest.mark.parametrize("p,n,max_degree", [(2, 3, 15), (3, 3, 22)])
def test_closure_spans_in_the_small_dtype_serve_every_consumer(p, n, max_degree):
    # the span comparison of the claims, membership, elements and the
    # benchmark digest's int64 bytes read the small rows as the reference's
    ring = Ring(p, n)
    seed = seeds(ring)[0]
    spans, reference = steenrod_closure(seed, max_degree), reference_steenrod_closure(seed, max_degree)
    for d, span in spans.items():
        expected = reference[d]
        basis = monomial_basis(ring, d)
        assert span.rows.dtype == np.uint8
        assert np.array_equal(span.rows, expected.rows)
        assert span.rows.astype("<i8").tobytes() == expected.rows.astype("<i8").tobytes()
        assert _span_case("c", ring, ess_basis(ring, d), span).passed
        assert basis.elements(span.rows) == basis.elements(expected.rows)
        for vec in np.eye(len(basis), dtype=np.int64):
            assert span.contains_vector(vec) == expected.contains_vector(vec), (d, vec)
        if span.dim:
            empty = zero_span(p, d, len(basis))
            assert _span_case("c", ring, empty, span) == _span_case("c", ring, empty, expected)


def test_closure_at_the_largest_prime():
    # entries up to p - 1 = 2^31 - 2: products pass 2^53, so each fold's
    # product runs in int64, two terms at a time, and the image sums need
    # their own budget
    ring = Ring(2**31 - 1, 3)
    a1, a2, x1, x2 = ring.a(1), ring.a(2), ring.x(1), ring.x(2)
    for seed in (a1, a1 + a2 * 5, x1 * a2 - a1 * x2):
        assert_spans_equal(steenrod_closure(seed, 7), reference_steenrod_closure(seed, 7))


def test_closure_rejects_a_prime_past_int64_elimination():
    # a seed with one unit coefficient is already in RREF, so no rref call
    # would check the prime
    with pytest.raises(ValueError, match="2\\^31"):
        steenrod_closure(Ring(2**31 + 11, 1).a(1), 3)


def test_closure_rejects_an_inhomogeneous_seed():
    ring = Ring(3, 2)
    with pytest.raises(ValueError, match="homogeneous"):
        steenrod_closure(ring.a(1) + ring.x(1), 6)


def test_cartan_splits_match_reference():
    rng = random.Random(41)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 13, 65537])
        n = rng.randrange(0, 5)
        pows = tuple(rng.randrange(0, 3 * p if p < 20 else 24) for _ in range(n))
        k = rng.randrange(0, sum(pows) + 3)
        mask = rng.randrange(1 << n)
        row = np.array(pows, dtype=np.int64).reshape(1, n)
        src, masks, shifted, coef = power_map(k, np.array([mask]), row, p)
        assert (src == 0).all() and (masks == mask).all(), (pows, k, p)
        shares = ((shifted - row) // (p - 1)).tolist()
        splits = [(c, tuple(share)) for c, share in zip(coef.tolist(), shares)]
        assert splits == reference_cartan_splits(pows, k, p), (pows, k, p)


@pytest.mark.parametrize("ring", [Ring(3, 1), Ring(3, 3), Ring(5, 2), Ring(2, 4), Ring(3, 4)])
def test_positions_invert_the_basis_arrays(ring):
    for degree in range(14):
        basis = monomial_basis(ring, degree)
        masks, pows = basis.arrays
        assert np.array_equal(basis.positions(masks, pows), np.arange(len(basis)))
        for mon, mask, row in zip(basis.monomials, masks, pows):
            assert mask == sum(1 << (i - 1) for i in mon.ext)
            assert tuple(row) == mon.pows
