import random

import numpy as np
import pytest

from mui import Ring, basis_dimension, kernel_of_map, monomial_basis, span_of
from mui.essential import maximal_subgroups, restrict
from mui.linalg import SpanBuilder, left_null_space, rref
from helpers import rand_homogeneous

R32 = Ring(3, 2)


def brute_monomials(ring, d):
    """Independent oracle: enumerate monomials by exhaustive search."""
    from itertools import combinations, product

    out = set()
    max_e = d
    for r in range(ring.n + 1):
        for ext in combinations(range(1, ring.n + 1), r):
            if ring.mod2 and ext:
                continue
            for pows in product(range(max_e + 1), repeat=ring.n):
                total = sum(pows) if ring.mod2 else r + 2 * sum(pows)
                if total == d:
                    out.add((ext, pows))
    return out


def series_dims(n, top):
    """Independent oracle: coefficients of (1+t)^n / (1-t^2)^n."""
    coeffs = [1] + [0] * top
    for _ in range(n):  # multiply by (1 + t)
        coeffs = [coeffs[d] + (coeffs[d - 1] if d else 0) for d in range(top + 1)]
    for _ in range(n):  # multiply by 1/(1 - t^2) = sum t^(2k)
        out = [0] * (top + 1)
        for d in range(top + 1):
            out[d] = sum(coeffs[d - 2 * k] for k in range(d // 2 + 1))
        coeffs = out
    return coeffs


def test_basis_examples():
    basis = monomial_basis(R32, 1)
    assert [tuple(m) for m in basis.monomials] == [((1,), (0, 0)), ((2,), (0, 0))]
    basis = monomial_basis(R32, 2)
    assert [tuple(m) for m in basis.monomials] == [
        ((1, 2), (0, 0)),
        ((), (1, 0)),
        ((), (0, 1)),
    ]
    assert len(monomial_basis(R32, 0)) == 1
    assert len(monomial_basis(Ring(2, 3), 0)) == 1


@pytest.mark.parametrize("ring", [R32, Ring(3, 3), Ring(5, 2), Ring(2, 3)])
def test_basis_matches_brute_force(ring):
    for d in range(8):
        basis = monomial_basis(ring, d)
        assert set(map(tuple, basis.monomials)) == brute_monomials(ring, d)
        assert len(set(basis.monomials)) == len(basis)
        assert len(basis) == basis_dimension(ring, d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_counts_match_generating_function(n):
    ring = Ring(3, n)
    dims = series_dims(n, 20)
    for d in range(21):
        assert basis_dimension(ring, d) == dims[d]
        assert len(monomial_basis(ring, d)) == dims[d]


def test_span_of_basics():
    assert span_of(R32, 5, [R32.zero()]).dim == 0
    a1 = R32.a(1)
    assert span_of(R32, 1, [a1, 2 * a1]).dim == 1
    assert span_of(R32, 1, [a1, R32.a(2), a1 + R32.a(2)]).dim == 2
    with pytest.raises(ValueError):
        span_of(R32, 1, [a1 + R32.x(1)])
    with pytest.raises(ValueError):
        span_of(R32, 2, [a1])


def test_span_equality_is_generator_independent():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.randrange(2, 7)
        gens = [rand_homogeneous(R32, rng, d) for _ in range(3)]
        s1 = span_of(R32, d, gens)
        # random invertible recombinations generate the same span
        mixed = [
            gens[0] + gens[1] * rng.randrange(3),
            gens[1] * rng.randrange(1, 3),
            gens[2] + gens[0] * rng.randrange(3),
        ]
        s2 = span_of(R32, d, mixed + gens)
        s3 = span_of(R32, d, gens + mixed)
        assert s2 == s3
        assert s1.dim <= s2.dim
        for row in s1.rows:
            assert s2.contains_vector(row)


def test_kernel_trivial_cases():
    basis = monomial_basis(R32, 2)
    zero = R32.zero()
    assert kernel_of_map(basis, [zero] * len(basis)).dim == len(basis)
    images = [R32.monomial(m.ext, m.pows) for m in basis.monomials]
    assert kernel_of_map(basis, images).dim == 0


def test_kernel_of_restriction_example():
    # restriction to ker(a2) kills a2 and x2: kernel is spanned by a1a2, x2
    ring = R32
    H = next(h for h in maximal_subgroups(ring) if h.form == (0, 1))
    basis = monomial_basis(ring, 2)
    images = [restrict(ring.monomial(m.ext, m.pows), H) for m in basis.monomials]
    kernel = kernel_of_map(basis, images)
    assert kernel.dim == 2
    assert kernel.contains_vector(basis.coords(ring.monomial((1, 2))))
    assert kernel.contains_vector(basis.coords(ring.x(2)))
    assert not kernel.contains_vector(basis.coords(ring.x(1)))


def test_kernel_of_two_maps_is_the_intersection():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randrange(1, 7)
        basis = monomial_basis(R32, d)
        first, second = (
            [rand_homogeneous(R32, rng, target) for _ in basis.monomials]
            for target in (rng.randrange(1, 5), rng.randrange(1, 5))
        )
        k1, k2 = kernel_of_map(basis, first), kernel_of_map(basis, second)
        joint = kernel_of_map(basis, first, second)
        assert all(k1.contains_vector(v) and k2.contains_vector(v) for v in joint.rows)
        sum_dim = rref(np.vstack([k1.rows, k2.rows]), 3).shape[0]
        assert joint.dim == k1.dim + k2.dim - sum_dim
    # all-zero images, or no map at all: the kernel is the whole domain
    eye = np.eye(len(basis), dtype=np.int64)
    zero = [R32.zero()] * len(basis)
    assert np.array_equal(kernel_of_map(basis, zero, zero).rows, eye)
    assert np.array_equal(kernel_of_map(basis).rows, eye)
    with pytest.raises(ValueError):
        kernel_of_map(basis, zero, zero[1:])


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randrange(1, 6)
        target = rng.randrange(1, 6)
        basis = monomial_basis(R32, d)
        images = [rand_homogeneous(R32, rng, target) for _ in basis.monomials]
        kernel = kernel_of_map(basis, images)
        image_span = span_of(R32, target, images)
        assert kernel.dim + image_span.dim == len(basis)


def test_rref_is_canonical():
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = rng.integers(0, 3, size=(5, 7))
        r = rref(m, 3)
        # pivots strictly increase and pivot columns are unit vectors
        pivots = [int(np.nonzero(row)[0][0]) for row in r]
        assert pivots == sorted(set(pivots))
        for i, c in enumerate(pivots):
            col = r[:, c]
            assert col[i] == 1 and not any(col[j] for j in range(len(r)) if j != i)
        assert np.array_equal(rref(r, 3), r)


def test_elimination_refuses_primes_that_overflow_int64():
    # the largest admitted prime still reduces a nonsingular matrix exactly
    p = 2**31 - 1
    assert np.array_equal(rref(np.array([[2, 3], [5, 7]]), p), np.eye(2, dtype=np.int64))
    builder = SpanBuilder(2, p)
    assert builder.insert(np.array([p - 1, p - 2])) and builder.insert(np.array([3, p - 1]))
    assert np.array_equal(builder.to_span(0).rows, np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        rref(np.array([[2, 3], [5, 7]]), 8589934609)
    with pytest.raises(ValueError):
        SpanBuilder(2, 8589934609)


def test_left_null_space_annihilates():
    rng = np.random.default_rng(1)
    for _ in range(40):
        m = rng.integers(0, 5, size=(6, 4))
        basis = left_null_space(m, 5)
        assert not (basis @ m % 5).any()
        assert basis.shape[0] == 6 - rref(m.T, 5).shape[0]


def test_span_builder_matches_batch_rref():
    rng = np.random.default_rng(2)
    for _ in range(40):
        vecs = rng.integers(0, 3, size=(8, 6))
        builder = SpanBuilder(6, 3)
        grew = [builder.insert(v) for v in vecs]
        assert sum(grew) == builder.dim
        assert np.array_equal(builder.to_span(0).rows, rref(vecs, 3))
