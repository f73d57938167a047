import random
import tracemalloc

import numpy as np
import pytest

from mui import Ring, basis_dimension, ess_basis, monomial_basis, span_of
from mui import linalg
from mui.algebra import _element
from mui.essential import maximal_subgroups, restrict
from mui.linalg import SpanBuilder, _exponent_rank, _exponents, null_space, rref
import helpers
from helpers import (
    ReferenceSpanBuilder,
    _reduce,
    kernel_of_map,
    rand_homogeneous,
    reference_compositions,
    reference_ess_basis,
    reference_monomial_basis,
    reference_null_space,
    reference_pruned_null_space,
    reference_rref,
)

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


BASIS_RINGS = [Ring(3, 0), Ring(3, 1), Ring(2, 1), R32, Ring(5, 3), Ring(2, 4), Ring(3, 4),
               Ring(3, 5)]


@pytest.mark.parametrize("ring", BASIS_RINGS, ids=lambda ring: f"{ring.p}-{ring.n}")
def test_basis_matches_the_enumerate_and_sort_reference(ring):
    # the closed-form positions and the lazily built runs against every
    # monomial enumerated and sorted by term_key
    p, n = ring.p, ring.n
    rng = np.random.default_rng(10 * p + n)
    for d in range(21):
        expected = reference_monomial_basis(ring, d)
        basis = monomial_basis(ring, d)
        assert basis.monomials == expected, d
        assert len(basis) == len(expected) == basis_dimension(ring, d)
        masks, pows = basis.arrays
        assert masks.tolist() == [sum(1 << (i - 1) for i in m.ext) for m in expected]
        assert pows.shape == (len(expected), n)
        assert pows.tolist() == [list(m.pows) for m in expected]
        assert np.array_equal(basis.positions(masks, pows), np.arange(len(expected)))
        assert [basis.index_of(m) for m in expected] == list(range(len(expected)))
        for r in range(n + 2):
            run = basis.run(r)
            assert list(range(len(expected)))[run] == [
                i for i, m in enumerate(expected) if len(m.ext) == r], (d, r)
            run_masks, run_pows = basis.run_arrays(r)
            assert np.array_equal(run_masks, masks[run]), (d, r)
            assert np.array_equal(run_pows, pows[run]), (d, r)
        vec = rng.integers(0, p, len(expected))
        y = _element(p, n, {tuple(m): int(c) for m, c in zip(expected, vec)})
        assert basis.element(vec) == y
        assert np.array_equal(basis.coords(y), vec)
        for r, run in basis.runs.items():
            part = _element(p, n, {tuple(m): int(c) for m, c in zip(expected[run], vec[run])})
            assert basis.element(vec[run], r) == part, (d, r)
            assert np.array_equal(basis.coords(part)[run], vec[run])


def test_exponent_rank_inverts_exponents():
    for n in range(6):
        for k in range(31):
            exps = _exponents(k, n)
            assert np.array_equal(_exponent_rank(exps), np.arange(len(exps))), (n, k)


def test_coords_and_span_of_refuse_an_element_of_another_ring():
    with pytest.raises(ValueError, match="different rings"):
        monomial_basis(R32, 2).coords(Ring(5, 2).x(1) * 4)
    with pytest.raises(ValueError, match="different rings"):
        monomial_basis(R32, 2).coords(Ring(3, 3).x(1))
    with pytest.raises(ValueError, match="different rings"):
        span_of(R32, 2, [Ring(7, 2).x(1) * 3])
    with pytest.raises(ValueError, match="does not live in degree 2"):
        monomial_basis(R32, 2).coords(R32.x(1) * R32.x(2))


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


def kernel_by_blocks(domain, codomain, mat):
    """kernel_of_map of the maps whose (codomain x domain) matrices are the
    consecutive len(codomain)-row blocks of mat."""
    ring, size = domain.ring, len(codomain)
    maps = [
        [
            sum(
                (ring.monomial(m.ext, m.pows, int(c)) for m, c in zip(codomain, col) if c),
                ring.zero(),
            )
            for col in mat[k:k + size].T
        ]
        for k in range(0, len(mat), size)
    ]
    return kernel_of_map(domain, *maps)


def sparse_with_cascade(rng, p, n_rows, n_cols, chain):
    """A sparse matrix in which the columns of chain are forced to zero one
    pruning pass after another: the first chain row is a singleton, and each
    later one becomes a singleton once its predecessor's column is dropped.
    The other rows have zero to three entries anywhere."""
    mat = np.zeros((n_rows, n_cols), dtype=np.int64)
    for i, c in enumerate(chain):
        mat[i, c] = rng.randrange(1, p)
        if i:
            mat[i, chain[i - 1]] = rng.randrange(1, p)
    for i in range(len(chain), n_rows):
        for c in rng.sample(range(n_cols), rng.randrange(min(4, n_cols + 1))):
            mat[i, c] = rng.randrange(1, p)
    return mat[rng.sample(range(n_rows), n_rows)]


@pytest.mark.parametrize("ring", [Ring(3, 3), Ring(5, 2), Ring(2, 3)])
def test_pruned_kernel_matches_dense_null_space(ring, monkeypatch):
    rng = random.Random(11 + ring.p)
    live_columns = []
    monkeypatch.setattr(
        linalg, "null_space", lambda m, p: live_columns.append(m.shape[1]) or null_space(m, p)
    )
    for _ in range(60):
        domain = monomial_basis(ring, rng.randrange(1, 7))
        codomain = monomial_basis(ring, rng.randrange(1, 9)).monomials
        n_rows = len(codomain) * rng.randrange(1, 4)
        n_cols = len(domain)
        chain = rng.sample(range(n_cols), rng.randrange(min(n_cols, n_rows) + 1))
        mat = sparse_with_cascade(rng, ring.p, n_rows, n_cols, chain)
        kernel = kernel_by_blocks(domain, codomain, mat)
        assert np.array_equal(kernel.rows, null_space(mat, ring.p))
        assert kernel.rows.shape[1] == n_cols

    # every column forced by a cascade: the kernel is (0, len(domain))
    domain = monomial_basis(ring, 4)
    codomain = monomial_basis(ring, 8).monomials
    n_cols = len(domain)
    mat = sparse_with_cascade(rng, ring.p, n_cols, n_cols, rng.sample(range(n_cols), n_cols))
    assert kernel_by_blocks(domain, codomain, mat).rows.shape == (0, n_cols)

    # no singleton row: nothing is pruned
    mat = np.zeros((n_cols, n_cols), dtype=np.int64)
    for i in range(n_cols):
        mat[i, [i, (i + 1) % n_cols]] = [1, ring.p - 1]
    live_columns.clear()
    kernel = kernel_by_blocks(domain, codomain, mat)
    assert live_columns == [n_cols]
    assert np.array_equal(kernel.rows, null_space(mat, ring.p))
    assert kernel.dim == 1

    # rows {0}, {1} force both columns in one pass; row {0, 1} goes from two
    # live entries to none and is dropped with them
    mat = np.zeros((4, n_cols), dtype=np.int64)
    mat[0, 0] = mat[1, 1] = mat[2, 0] = mat[2, 1] = 1
    mat[3, 2:] = 1
    live_columns.clear()
    kernel = kernel_by_blocks(domain, codomain, mat)
    assert live_columns == [n_cols - 2]
    assert np.array_equal(kernel.rows, null_space(mat, ring.p))


@pytest.mark.parametrize("p", [2, 3, 5, 251, 65537])
def test_pruned_null_space_of_unreduced_products(p):
    # each entry a product of two residues, as in a restriction block (at
    # 251 most overflow uint8, the smallest dtype that holds p - 1): the
    # kernel must be that of the reduced matrix, pruning included
    rng = random.Random(p)
    for _ in range(40):
        n_rows, n_cols = rng.randrange(1, 30), rng.randrange(1, 20)
        chain = rng.sample(range(n_cols), rng.randrange(min(n_cols, n_rows) + 1))
        mat = sparse_with_cascade(rng, p, n_rows, n_cols, chain)
        mat *= np.array([rng.randrange(1, p) for _ in range(mat.size)]).reshape(mat.shape)
        rows, cols = np.nonzero(mat)
        kernel = linalg.pruned_null_space([(cols, rows, mat[rows, cols])], mat.shape[1], p)
        assert np.array_equal(kernel, reference_null_space(mat % p, p))
        assert np.array_equal(kernel, reference_pruned_null_space(mat, p))


@pytest.mark.parametrize("p", [2, 3, 251])
def test_one_label_dense_block_is_the_live_rows_and_columns(p, monkeypatch):
    # with no classes, or one label, the dense phase is one null_space call
    # (none when every column is forced) on the rows with a live entry by
    # the live columns, both in order: the block reference_pruned_null_space
    # reduces, in the storage dtype
    got, expected = [], []
    monkeypatch.setattr(linalg, "null_space", lambda m, p: got.append(m.copy()) or null_space(m, p))
    monkeypatch.setattr(helpers, "null_space", lambda m, p: expected.append(m) or null_space(m, p))
    rng = random.Random(p)
    for trial in range(60):
        n_rows, n_cols = rng.randrange(1, 30), rng.randrange(1, 20)
        chain = rng.sample(range(n_cols), rng.randrange(min(n_cols, n_rows) + 1))
        mat = sparse_with_cascade(rng, p, n_rows, n_cols, chain)
        maps = as_maps(mat, rng.randrange(1, n_rows + 1), rng.choice((1, 7)))
        reference = reference_pruned_null_space(mat, p)
        for classes in (None, np.full(n_cols, rng.choice((-2, 0, 9)))):
            got.clear()
            kernel = linalg.pruned_null_space(maps, n_cols, p, classes)
            assert len(got) == len(expected) <= 1, trial
            for block, ref in zip(got, expected):
                assert block.dtype == np.min_scalar_type(p - 1)
                assert block.shape == ref.shape and np.array_equal(block, ref % p), trial
            assert np.array_equal(kernel.astype(np.int64), reference), trial
        expected.clear()


def test_fully_forced_domain_skips_elimination(monkeypatch):
    def refuse(mat, p):
        raise AssertionError("null_space called on a fully forced domain")

    monkeypatch.setattr(linalg, "null_space", refuse)
    basis = monomial_basis(R32, 2)
    images = [R32.monomial(m.ext, m.pows) for m in basis.monomials]
    assert kernel_of_map(basis, images).rows.shape == (0, len(basis))
    # a three-pass cascade: only a1a2 has x2 in its image, which forces a1a2;
    # then only x1 has x1, and then only x2 has a1a2
    a12, x1, x2 = (R32.monomial(m.ext, m.pows) for m in basis.monomials)
    images = [x1 + x2, a12 + x1, a12]
    assert kernel_of_map(basis, images).rows.shape == (0, len(basis))


def as_maps(mat, height, spread=1, dtype=np.int64):
    """The consecutive height-row blocks of mat as the (source, target,
    coefficient) maps of pruned_null_space, targets times spread."""
    maps = []
    for k in range(0, len(mat), height):
        rows, cols = np.nonzero(mat[k:k + height])
        maps.append((cols.astype(dtype), (rows * spread).astype(dtype),
                     mat[k:k + height][rows, cols]))
    return maps


def classed_reference(mat, classes, p):
    """Reference for pruned_null_space with column classes: the direct sum of
    reference_pruned_null_space over the column blocks of each class, brought
    to RREF by reference_rref."""
    parts = [np.zeros((0, mat.shape[1]), dtype=np.int64)]
    for label in np.unique(classes):
        on = np.flatnonzero(classes == label)
        sub = reference_pruned_null_space(mat[:, on], p)
        part = np.zeros((len(sub), mat.shape[1]), dtype=np.int64)
        part[:, on] = sub
        parts.append(part)
    return reference_rref(np.concatenate(parts), p)


@pytest.mark.parametrize("p", [2, 3, 5, 251, 257])
def test_pruned_null_space_with_classes_is_the_direct_sum(p, monkeypatch):
    # a row meeting two classes splits in two, and either half may be a
    # singleton that forces its column; labels are any integers; the storage
    # dtype is uint8 at 251 and uint16 at 257
    stored = np.min_scalar_type(p - 1)
    blocks = []
    monkeypatch.setattr(linalg, "null_space",
                        lambda m, p: blocks.append(m.shape) or null_space(m, p))
    rng = random.Random(p)
    for trial in range(40):
        n_rows, n_cols = rng.randrange(1, 30), rng.randrange(1, 20)
        chain = rng.sample(range(n_cols), rng.randrange(min(n_cols, n_rows) + 1))
        mat = sparse_with_cascade(rng, p, n_rows, n_cols, chain)
        classes = np.array([rng.choice((-3, 7, 1000, 2**40)[:1 + trial % 4])
                            for _ in range(n_cols)])
        blocks.clear()
        got = linalg.pruned_null_space(as_maps(mat, rng.randrange(1, n_rows + 1)), n_cols, p,
                                       classes)
        assert got.dtype == stored
        assert np.array_equal(got.astype(np.int64), classed_reference(mat, classes, p)), trial
        # at most one dense block per class
        assert len(blocks) <= len(np.unique(classes))

    # one class, whatever its label: byte for byte the call without classes
    for label in (0, -5, 2**40):
        mat = sparse_with_cascade(rng, p, 25, 14, rng.sample(range(14), 4))
        maps = as_maps(mat, 10)
        plain = linalg.pruned_null_space(maps, 14, p)
        classed = linalg.pruned_null_space(maps, 14, p, np.full(14, label))
        assert plain.dtype == classed.dtype and plain.tobytes() == classed.tobytes()

    # class 1 is forced column by column (its first row a singleton, each
    # later one a singleton once the column before is gone), class 2 has no
    # entry at all, and class 3 is a cycle with no singleton row, one of
    # its rows also meeting class 1: dense blocks for classes 2 and 3 only
    mat = np.zeros((9, 12), dtype=np.int64)
    classes = np.array([1] * 4 + [2] * 3 + [3] * 5)
    mat[:4, :4] = sparse_with_cascade(rng, p, 4, 4, [0, 1, 2, 3])
    for i in range(5):
        mat[4 + i, [7 + i, 7 + (i + 1) % 5]] = [1, p - 1]
    mat[4, 0] = 1
    blocks.clear()
    got = linalg.pruned_null_space(as_maps(mat, 5), 12, p, classes)
    assert [shape[1] for shape in blocks] == [3, 5]
    assert not got[:, :4].any()
    assert np.array_equal(got[:, 4:7][got[:, 4:7].any(axis=1)], np.eye(3, dtype=stored))
    assert np.array_equal(got.astype(np.int64), classed_reference(mat, classes, p))


def test_pruned_null_space_widens_class_map_height_row_ids():
    # int32 targets whose height times the maps fits int32, but not times
    # the classes as well: the row ids are numbered in int64, over the
    # entries only, and nothing the size of that product is allocated
    p = 5
    rng = random.Random(3)
    mat = sparse_with_cascade(rng, p, 16, 12, rng.sample(range(12), 3))
    classes = np.arange(12) % 3
    mat[7, 5], mat[15, 6] = 1, 2
    spread = 2**27
    maps = as_maps(mat, 8, spread, np.int32)
    height = 7 * spread + 1
    assert len(maps) * height < 2**31 - 1 < 3 * len(maps) * height
    tracemalloc.start()
    try:
        got = linalg.pruned_null_space(maps, 12, p, classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert np.array_equal(got.astype(np.int64), classed_reference(mat, classes, p))
    assert np.array_equal(got, linalg.pruned_null_space(as_maps(mat, 8), 12, p, classes))


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


def low_rank(rng, p, n_rows, n_cols, rank):
    """A reduced n_rows x n_cols matrix of rank at most rank over F_p."""
    left = rng.integers(0, p, (n_rows, rank)).astype(object)
    right = rng.integers(0, p, (rank, n_cols)).astype(object)
    return (left.dot(right) % p).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2**31 - 1])
def test_rref_and_null_space_match_eager_reference(p):
    # rref delays its reduction mod p; at 2^31 - 1 its budget is two steps,
    # so the whole matrix is reduced again every other pivot
    rng = np.random.default_rng(p)
    shapes = [(0, 0), (0, 6), (6, 0), (7, 9), (9, 7), (24, 24), (96, 12), (160, 20)]
    for n_rows, n_cols in shapes:
        for rank in sorted({0, 1, 2, min(n_rows, n_cols) // 2, min(n_rows, n_cols)}):
            mat = low_rank(rng, p, n_rows, n_cols, rank)
            # the same matrix mod p with entries up to about p^2, and the
            # products of two residues (up to (p - 1)^2) of a restriction block
            lifted = mat + p * rng.integers(0, p - 1, mat.shape)
            products = mat * rng.integers(1, p, mat.shape)
            for case in (mat, lifted, products):
                assert np.array_equal(rref(case, p), reference_rref(case, p)), (case.shape, rank)
                assert np.array_equal(null_space(case, p), reference_null_space(case, p))


@pytest.mark.parametrize("p", [2, 3, 5, 65537])
def test_null_space_of_tall_sparse_matrices(p):
    # more than twice as many rows as columns, so null_space reduces them in
    # row blocks; with the rows sorted by how many sparse generators they
    # combine, the blocks span ever more, or ever less, than the ones before
    rng = np.random.default_rng(p)
    for n_cols in (1, 2, 5, 13, 30):
        for n_rows in (2 * n_cols + 1, 3 * n_cols + 2, 7 * n_cols + 5):
            for rank in sorted({0, 1, n_cols // 2, n_cols}):
                gens = (rng.random((rank, n_cols)) < 0.3) * rng.integers(1, p, (rank, n_cols))
                coef = (rng.random((n_rows, rank)) < 0.4) * rng.integers(1, p, (n_rows, rank))
                used = rng.integers(0, rank + 1, n_rows)
                coef[np.arange(rank) >= used[:, None]] = 0
                for order in (np.argsort(used), np.argsort(-used)):
                    mat = coef[order] @ gens % p
                    for case in (mat, mat * rng.integers(1, p, mat.shape)):
                        assert np.array_equal(null_space(case, p), reference_null_space(case, p)), \
                            (n_rows, n_cols, rank)


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


def test_span_builder_matches_batch_rref():
    rng = np.random.default_rng(2)
    for _ in range(40):
        vecs = rng.integers(0, 3, size=(8, 6))
        builder = SpanBuilder(6, 3)
        grew = [builder.insert(v) for v in vecs]
        assert sum(grew) == builder.dim
        assert np.array_equal(builder.to_span(0).rows, rref(vecs, 3))


@pytest.mark.parametrize("p", [2, 3, 7, 257, 2**31 - 1])
def test_span_builder_matches_the_reference(p):
    # SpanBuilder inserts through rref_stack and keeps its rows in the storage
    # dtype; the reference reduces each int64 vector row by row
    rng = np.random.default_rng(p % 1009)
    for width in (0, 1, 5, 9):
        builder, reference = SpanBuilder(width, p), ReferenceSpanBuilder(width, p)
        for kind in rng.integers(0, 5, 16).tolist():
            if kind == 0:
                vec = np.zeros(width, dtype=np.int64)
            elif kind == 1:
                # in the span, unreduced: a combination plus multiples of p
                coef = rng.integers(0, p, reference.dim).astype(object)
                inside = (coef @ reference.to_span(4).rows.astype(object)) % p
                vec = (inside + p * rng.integers(-3, 4, width)).astype(np.int64)
            elif kind == 2:
                vec = rng.integers(p, 3 * p, width)
            elif kind == 3:
                vec = rng.integers(-2 * p, 0, width)
            else:
                vec = (rng.random(width) < 0.4) * rng.integers(1, p, width)
            span = builder.to_span(4)
            assert span.contains_vector(vec) == (not _reduce(vec, reference.rows, reference.pivots, p).any())
            assert builder.insert(vec) == reference.insert(vec), (width, kind)
            assert builder.dim == reference.dim
            span = builder.to_span(4)
            assert span == reference.to_span(4)
            assert span.rows.dtype == np.min_scalar_type(p - 1)
    assert SpanBuilder(0, 257).to_span(0).rows.dtype == np.uint16
    assert SpanBuilder(0, 2**31 - 1).to_span(0).rows.dtype == np.uint32


def python_matmul_mod(a, b, p):
    """a @ b mod p in Python integers, over runs of the inner dimension."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for s in range(0, a.shape[1], 2**16):
        out += a[:, s:s + 2**16].astype(object) @ b[s:s + 2**16].astype(object)
    return (out % p).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 65537, 94906249, 2**31 - 1])
def test_matmul_mod_is_exact(p, monkeypatch):
    rng = np.random.default_rng(p)

    def check(a, b):
        assert np.array_equal(linalg.matmul_mod(a, b, p), python_matmul_mod(a, b, p))

    # the float64 runs of the inner dimension are 2^21 - 1 long at 65537 and
    # one product long at 94906249, the largest prime with (p - 1)^2 < 2^53;
    # at 2^31 - 1 one product passes 2^53, and the int64 runs are two long
    k = {65537: 2**21 + 2**18, 2**31 - 1: 300}.get(p, 500)
    a = np.full((1, k), max(1, p - 2), dtype=np.int64)
    b = np.full((k, 2), max(1, p - 2), dtype=np.int64)
    b[::7, 1] = rng.integers(0, p, len(b[::7]))
    check(a, b)
    for m, k, n in [(0, 4, 3), (3, 0, 4), (5, 7, 0), (9, 40, 11), (64, 33, 70)]:
        check(rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n)))
    # a small float64 limit cuts the inner dimension into short runs at
    # p = 2 and 3 and moves the larger p to int64 runs, and a small call
    # limit cuts the rows
    monkeypatch.setattr(linalg, "FLOAT64_EXACT", 2**9)
    monkeypatch.setattr(linalg, "GEMM_CALL_LIMIT", 50)
    for m, k, n in [(9, 40, 11), (64, 33, 7), (1, 1000, 1)]:
        check(rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n)))


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_rref_stack_matches_rref_of_the_stack(p, monkeypatch):
    rng = np.random.default_rng(p + 1)
    # 30 cells of the storage dtype: chunks of one to 30 rows, and update
    # chunks of one row
    for chunk in (linalg.CHUNK_BYTES, 30 * np.min_scalar_type(p - 1).itemsize):
        monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk)
        for _ in range(30):
            width = int(rng.integers(1, 25))
            rank = int(rng.integers(0, width + 1))
            blocks = [low_rank(rng, p, int(rng.integers(0, 12)), width, rank)
                      for _ in range(int(rng.integers(0, 5)))]
            if blocks and rng.integers(2):
                # an RREF block skips rref, and must still merge exactly
                blocks.append(rref(np.vstack(blocks + [low_rank(rng, p, 40, width, rank)]), p))
            blocks = [b[b.any(axis=1)].astype(np.min_scalar_type(p - 1)) for b in blocks]
            stacked = np.vstack(blocks) if blocks else np.zeros((0, width), dtype=np.int64)
            got = linalg.rref_stack(blocks, p, width)
            assert got.dtype == np.min_scalar_type(p - 1)
            assert np.array_equal(got.astype(np.int64), reference_rref(stacked, p))


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_blocked_rref_matches_reference(p, monkeypatch):
    # panels of three columns and update chunks of a row or two, so that
    # every matrix here takes several panels, trailing updates and chunks
    monkeypatch.setattr(linalg, "PANEL_CELLS", 1)
    monkeypatch.setattr(linalg, "PANEL_COLUMNS", 3)
    monkeypatch.setattr(linalg, "CHUNK_BYTES", 64)
    rng = np.random.default_rng(p + 2)
    for n_rows, n_cols in [(1, 1), (5, 17), (17, 5), (12, 12), (40, 9), (9, 40)]:
        for rank in sorted({0, 1, min(n_rows, n_cols) // 2, min(n_rows, n_cols)}):
            mat = low_rank(rng, p, n_rows, n_cols, rank)
            mat[:, rng.integers(0, n_cols, n_cols // 3)] = 0
            mat[rng.integers(0, n_rows, n_rows // 4)] = 0
            for case in (mat, mat.astype(np.min_scalar_type(p - 1)), mat - 5 * p):
                assert np.array_equal(rref(case, p), reference_rref(case, p)), (case.dtype, rank)


def test_rref_calls_itself_only_through_private_helpers(monkeypatch):
    # a tracer rebinds linalg.rref; a multi-panel rref must not call it back
    real, calls = linalg.rref, []
    monkeypatch.setattr(linalg, "rref", lambda m, p: calls.append(m.shape) or real(m, p))
    monkeypatch.setattr(linalg, "PANEL_CELLS", 1)
    monkeypatch.setattr(linalg, "PANEL_COLUMNS", 4)
    mat = low_rank(np.random.default_rng(4), 3, 30, 30, 20)
    assert np.array_equal(real(mat, 3), reference_rref(mat, 3))
    assert calls == []


def test_rref_keeps_a_uint8_matrix_narrow():
    # one int64 copy of a 1,500 x 1,500 matrix is 18 MB; rref holds the
    # uint8 matrix (2.25 MB), an int32 panel of 2^18 cells (1 MB) with the
    # temporaries of its elimination, and update chunks of bounded size.
    # The bound holds with both results kept: the RREF and the 1,460 x
    # 1,500 kernel of null_space, both uint8 (the kernel alone is 17.5 MB
    # as int64)
    rng = np.random.default_rng(5)
    mat = (rng.integers(0, 3, (1500, 40)) @ rng.integers(0, 3, (40, 1500)) % 3).astype(np.uint8)
    tracemalloc.start()
    try:
        reduced = rref(mat, 3)
        kernel = null_space(mat, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reduced.dtype == kernel.dtype == np.uint8
    assert np.array_equal(reduced, reference_rref(mat, 3))
    # RREF rows of the kernel, as many as its dimension: its one RREF basis
    assert kernel.shape == (mat.shape[1] - len(reduced), mat.shape[1])
    assert linalg._is_rref(kernel) and not linalg.matmul_mod(mat, kernel.T, 3).any()
    assert peak < mat.size * 8 / 2, peak


@pytest.mark.parametrize("p", [251, 257])
@pytest.mark.parametrize("blocked", [False, True])
def test_storage_dtype_results_at_primes_whose_squares_overflow_it(p, blocked, monkeypatch):
    # (p - 1)^2 overflows the storage dtype: uint8 at 251, uint16 at 257.
    # Every result is in that dtype and equals the int64 reference; blocked
    # takes the panel path, with trailing updates and one-row chunks
    if blocked:
        monkeypatch.setattr(linalg, "PANEL_CELLS", 1)
        monkeypatch.setattr(linalg, "PANEL_COLUMNS", 3)
        monkeypatch.setattr(linalg, "CHUNK_BYTES", 64)
    stored = np.min_scalar_type(p - 1)
    rng = np.random.default_rng(p)
    for n_rows, n_cols, rank in [(12, 9, 5), (9, 12, 9), (30, 30, 17), (40, 16, 16)]:
        mat = low_rank(rng, p, n_rows, n_cols, rank)
        mat[:, rng.integers(0, n_cols, n_cols // 4)] = 0
        rows, cols = np.nonzero(mat)
        narrow = [(cols.astype(np.int32), rows.astype(np.int32), mat[rows, cols].astype(stored))]
        for got, expected in [
            (rref(mat, p), reference_rref(mat, p)),
            (linalg.rref_stack([mat[:5], mat[5:].astype(stored)], p, n_cols), reference_rref(mat, p)),
            (null_space(mat, p), reference_null_space(mat, p)),
            (linalg.pruned_null_space(narrow, n_cols, p), reference_pruned_null_space(mat, p)),
        ]:
            assert got.dtype == stored
            assert np.array_equal(got.astype(np.int64), expected), (n_rows, n_cols, rank)
    ring = Ring(p, 2)
    for d in range(7):
        got = ess_basis(ring, d).rows
        assert got.dtype == stored
        assert np.array_equal(got.astype(np.int64), reference_ess_basis(ring, d)), d


def test_null_space_and_rref_stack_reduce_any_integers():
    rng = np.random.default_rng(6)
    for p in (3, 7):
        mat = rng.integers(0, 256, (40, 15)).astype(np.uint8)
        residues = (mat % p).astype(np.uint8)
        expected = reference_null_space(residues, p)
        for case in (mat, residues, mat.astype(np.int64) - 100 * p):
            assert np.array_equal(null_space(case, p), expected), case.dtype
        # an RREF block skips rref, and its entries off 0..p-1 are reduced
        top = np.zeros((3, 8), dtype=np.int64)
        top[:, [0, 1, 4]] = np.eye(3, dtype=np.int64)
        top[:2, [2, 3, 7]] = [[2 + p, -1, 5], [-p, 3 * p, -4 * p - 1]]
        for blocks in ([top], [top, mat[:2, :8].astype(np.int64) - 100 * p, mat[2:3, :8]]):
            got = linalg.rref_stack(blocks, p, 8)
            assert np.array_equal(got, reference_rref(np.vstack(blocks), p)), len(blocks)


def test_is_rref():
    assert linalg._is_rref(np.array([[1, 0, 2], [0, 1, 1]]))
    assert linalg._is_rref(np.zeros((0, 3), dtype=np.int64))
    assert not linalg._is_rref(np.array([[1, 1, 2], [0, 1, 1]]))  # pivot column not a unit
    assert not linalg._is_rref(np.array([[0, 1, 1], [1, 0, 2]]))  # pivots out of order
    assert not linalg._is_rref(np.array([[2, 0, 1], [0, 1, 1]]))  # pivot not 1
    assert not linalg._is_rref(np.array([[1, 0, 2], [0, 0, 0]]))  # a zero row


def test_exponents_match_the_recursive_generator():
    # every length 0..4 and sum 0..86, except the middle sums at length 4
    # (the generator takes seconds there); negative sums are empty
    for n in range(5):
        for k in range(87) if n < 4 else [*range(31), 86]:
            got = linalg._exponents(k, n)
            expected = np.array(list(reference_compositions(k, n)), dtype=np.int64)
            assert got.shape == (len(expected), n) and got.dtype == np.int64, (k, n)
            assert np.array_equal(got, expected.reshape(got.shape)), (k, n)
            assert not got.flags.writeable
        assert linalg._exponents(-1, n).shape == (0, n)
