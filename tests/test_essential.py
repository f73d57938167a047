import math
import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mui import (
    ConfigError,
    Ring,
    bockstein,
    decompose,
    ess_basis,
    ess_basis_by_rank,
    is_essential,
    l_n,
    maximal_subgroups,
    monomial_basis,
    mui,
    mui_set,
    power_op,
    restrict,
    steenrod_closure,
)
from mui import essential, linalg
from mui.essential import (
    MaximalSubgroup,
    _image_rows,
    _product_map,
    proof_word,
    projective_forms,
)
from mui.algebra import NotDivisibleError, _element
from mui.linalg import _exponents, _term_arrays
from mui.steenrod import apply_word, bockstein_map, power_map
from helpers import (
    all_subsets,
    homogeneous_elements,
    last_nonzero,
    rand_element,
    rand_homogeneous,
    rand_poly,
    reference_compositions,
    reference_bockstein,
    reference_decompose,
    reference_ess_basis,
    reference_ess_by_rank,
    reference_is_essential,
    reference_mul,
    reference_null_space,
    reference_poly_divide,
    reference_power_op,
    reference_restrict,
    time_limit,
)

R32 = Ring(3, 2)
R33 = Ring(3, 3)


def test_subgroup_counts():
    assert len(maximal_subgroups(R32)) == 4
    assert len(maximal_subgroups(R33)) == 13
    assert len(maximal_subgroups(Ring(2, 3))) == 7
    forms = [H.form for H in maximal_subgroups(R32)]
    assert forms == sorted(forms)  # deterministic order
    assert all(next(c for c in f if c) == 1 for f in forms)


def test_restriction_kills_the_form():
    for ring in (R32, R33, Ring(5, 2), Ring(2, 3)):
        for H in maximal_subgroups(ring):
            kept = [i for i in range(1, ring.n + 1) if i != H.pivot + 1]
            for name in ["x"] if ring.mod2 else ["x", "a"]:
                gen, sub_gen = getattr(ring, name), getattr(H.subring, name)
                form = ring.zero()
                for i, c in enumerate(H.form, start=1):
                    form = form + gen(i) * c
                assert restrict(form, H).is_zero(), H
                # the kept generators map to the subring generators, in order
                assert [restrict(gen(i), H) for i in kept] == [sub_gen(t) for t in range(1, ring.n)]


def test_restrict_examples():
    H = next(h for h in maximal_subgroups(R32) if h.form == (0, 1))
    sub = H.subring
    assert restrict(R32.one(), H) == sub.one()
    assert restrict(mui(R32, 2), H) == sub.zero()
    assert restrict(R32.x(1) ** 2, H) == sub.x(1) ** 2
    assert restrict(R32.x(2), H) == sub.zero()
    assert restrict(R32.a(1), H) == sub.a(1)


def test_restrict_is_an_algebra_map():
    rng = random.Random(41)
    for H in maximal_subgroups(R32):
        for _ in range(60):
            u = rand_element(R32, rng)
            v = rand_element(R32, rng)
            assert restrict(u * v, H) == restrict(u, H) * restrict(v, H)
            assert restrict(u + v, H) == restrict(u, H) + restrict(v, H)


def test_restriction_commutes_with_operations():
    rng = random.Random(43)
    for _ in range(150):
        y = rand_element(R32, rng)
        H = maximal_subgroups(R32)[rng.randrange(4)]
        assert restrict(bockstein(y), H) == bockstein(restrict(y, H))
        k = rng.randrange(1, 4)
        assert restrict(power_op(k, y), H) == power_op(k, restrict(y, H))


def test_is_essential_examples():
    for ring in (R32, R33, Ring(5, 2)):
        for s in range(1, ring.n + 1):
            assert is_essential(mui(ring, s))
        assert is_essential(l_n(ring))
        assert not is_essential(ring.one())
    assert not is_essential(R32.x(1))


def test_essential_is_an_ideal():
    rng = random.Random(47)
    for _ in range(60):
        z = rand_element(R32, rng)
        assert is_essential(mui(R32, 2) * z)


def test_ess_basis_examples():
    assert ess_basis(R32, 1).dim == 0
    span2 = ess_basis(R32, 2)
    assert span2.dim == 1
    basis2 = monomial_basis(R32, 2)
    assert span2.contains_vector(basis2.coords(R32.monomial((1, 2))))
    by_rank = ess_basis_by_rank(R32, 2)
    assert by_rank[2].dim == 1 and by_rank[0].dim == 0
    # p = 2, rank 2: dimension 1 in degree 3, spanned by L_2
    ring = Ring(2, 2)
    span3 = ess_basis(ring, 3)
    assert span3.dim == 1
    assert [monomial_basis(ring, 3).element(row) for row in span3.rows] == [l_n(ring)]


def test_ess_basis_rank_split_sums():
    for d in range(9):
        full = ess_basis(R33, d)
        assert full.dim == sum(s.dim for s in ess_basis_by_rank(R33, d).values())


def test_ess_dimensions_match_free_module_counts():
    # independent oracle: a free module on the subset invariants predicts
    # dim (N_r cap Ess)_d = sum over |S| = r of the number of polynomial
    # monomials of polynomial degree (d - deg M_S) / 2
    import math

    from mui.invariants import subset_degree

    for ring in (R32, R33):
        for d in range(15):
            by_rank = ess_basis_by_rank(ring, d)
            for r in range(ring.n + 1):
                predicted = 0
                for subset in all_subsets(ring.n):
                    if len(subset) != r:
                        continue
                    gap = d - subset_degree(ring, subset)
                    if gap >= 0 and gap % 2 == 0:
                        predicted += math.comb(gap // 2 + ring.n - 1, ring.n - 1)
                actual = by_rank[r].dim if r in by_rank else 0
                assert actual == predicted, (ring, d, r)


@pytest.mark.parametrize(
    "p,n,top",
    [(3, 2, 10), (5, 2, 10), (3, 3, 12), (2, 3, 10), (2, 4, 8), (3, 1, 8), (2, 1, 8), (7, 2, 14),
     (5, 3, 10), (3, 4, 8)],
)
def test_ess_basis_matches_dense_reference(p, n, top):
    # at (3,3) most degrees mix exterior ranks, so the per-rank kernels and
    # their pivot-ordered union are checked against one full kernel; p = 2
    # has no exterior factor, n = 1 restricts to the rank-0 ring, and the
    # top exterior rank restricts to nothing.  The reference restricts to
    # every subgroup; at (5,3) and (3,4) there are 64 and 16 torus weights
    # and 31 and 40 subgroups, in 7 and 15 torus orbits
    ring = Ring(p, n)
    for d in range(top + 1):
        expected = reference_ess_basis(ring, d)
        assert np.array_equal(expected, ess_basis(ring, d).rows), (p, n, d)


@pytest.mark.parametrize(
    "p,n,top",
    [(3, 2, 14), (3, 3, 14), (5, 2, 10), (2, 2, 10), (2, 3, 10), (2, 4, 8), (5, 3, 10), (3, 4, 8)],
)
def test_ess_by_rank_matches_per_monomial_reference(p, n, top):
    # the configurations of scripts/run_verification.py, at lower degree
    # bounds: the Kronecker blocks give the kernels of the one-term images
    ring = Ring(p, n)
    for d in range(top + 1):
        got = ess_basis_by_rank(ring, d)
        expected = reference_ess_by_rank(ring, d)
        assert got.keys() == expected.keys(), (p, n, d)
        for r, rows in expected.items():
            assert np.array_equal(rows, got[r].rows), (p, n, d, r)


def weight_digits(p, masks, pows):
    """The torus weight ((eps_i + m_i) mod (p - 1))_i of each monomial a_E x^m,
    eps_i the i-th exterior bit, one row each."""
    return ((masks[:, None] >> np.arange(pows.shape[1]) & 1) + pows) % (p - 1)


def torus_orbits(ring):
    """The maximal subgroups grouped by the support of their forms, which
    the diagonal torus preserves and within which it is transitive."""
    orbits = {}
    for H in maximal_subgroups(ring):
        orbits.setdefault(tuple(c != 0 for c in H.form), []).append(H)
    return list(orbits.values())


@pytest.mark.parametrize("p,n,top", [(3, 2, 12), (5, 2, 12), (3, 3, 9), (5, 3, 8)])
def test_restriction_vanishes_on_a_whole_torus_orbit_or_on_none(p, n, top):
    # the lemma _ess_data rests on: for y of one torus weight, res_H y = 0
    # on one member H of a torus orbit exactly when it vanishes on all of
    # them.  Each y is a random vector of the kernel of the reference
    # restriction to one subgroup H0 on one weight space, or a random
    # element of that weight space
    ring = Ring(p, n)
    rng = random.Random(100 * p + n)
    orbits = torus_orbits(ring)
    assert len(orbits) == 2**n - 1
    reps = [[H for H in orbit if set(H.form) <= {0, 1}] for orbit in orbits]
    assert all(len(rep) == 1 for rep in reps)
    assert set(essential._orbit_subgroups(ring)) == {rep[0] for rep in reps}
    for trial in range(12):
        d = rng.randrange(1, top + 1)
        basis = monomial_basis(ring, d)
        digits = weight_digits(p, *basis.arrays)
        weight = digits[rng.randrange(len(basis))]
        mons = [m for m, w in zip(basis.monomials, digits) if np.array_equal(w, weight)]
        gens = [ring.monomial(m.ext, m.pows) for m in mons]
        H0 = rng.choice(rng.choice(orbits))
        cod = monomial_basis(H0.subring, d)
        images = np.array([cod.coords(reference_restrict(y, H0)) for y in gens])
        kernel = reference_null_space(images.reshape(len(gens), len(cod)).T, p)
        ys = [sum((y * rng.randrange(p) for y in gens), ring.zero())]
        if len(kernel):
            coef = np.array([rng.randrange(p) for _ in kernel]) @ kernel % p
            ys.append(sum((y * int(c) for y, c in zip(gens, coef)), ring.zero()))
            assert reference_restrict(ys[-1], H0).is_zero()
        for y in ys:
            for orbit in orbits:
                dead = {reference_restrict(y, H).is_zero() for H in orbit}
                assert len(dead) == 1, (y, orbit)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_steenrod_operations_preserve_torus_weight(p, n):
    # x_i and a_i both have weight e_i, beta a_i = x_i, and P^k sends x_i^m
    # to a multiple of x_i^(m + k (p - 1)); _torus_weights labels two
    # monomials of one degree alike exactly when their weights agree
    ring = Ring(p, n)
    for d in range(14):
        masks, pows = monomial_basis(ring, d).arrays
        digits = weight_digits(p, masks, pows)
        labels = essential._torus_weights(ring, d, masks, pows)
        same = (digits[:, None] == digits[None]).all(axis=2)
        assert np.array_equal(labels[:, None] == labels[None], same), d
        maps = [bockstein_map(masks, pows)] + [power_map(k, masks, pows, p) for k in (1, 2, p)]
        for src, tgt_masks, tgt_pows, _ in maps:
            assert np.array_equal(weight_digits(p, tgt_masks, tgt_pows), digits[src]), d
    # and on elements, through the reference operations
    rng = random.Random(p + n)
    for _ in range(10):
        y = rand_homogeneous(ring, rng, rng.randrange(1, 8))
        for img in (reference_bockstein(y), reference_power_op(1, y)):
            _, masks, pows, _ = _term_arrays(ring, img)
            _, y_masks, y_pows, _ = _term_arrays(ring, y)
            assert {tuple(w) for w in weight_digits(p, masks, pows)} <= {
                tuple(w) for w in weight_digits(p, y_masks, y_pows)}


@pytest.mark.parametrize("p,n,top", [(3, 2, 10), (5, 3, 8), (3, 4, 8), (2, 3, 10), (2, 4, 6)])
def test_ess_data_restricts_to_one_subgroup_per_torus_orbit(p, n, top, monkeypatch):
    # 2^n - 1 restriction maps per degree, one per 0/1 form; at p = 2 the
    # torus is trivial and that is every subgroup
    ring = Ring(p, n)
    calls = []
    real = essential.restriction_map
    monkeypatch.setattr(essential, "restriction_map",
                        lambda H, *arrays: calls.append(H) or real(H, *arrays))
    essential._ess_data.cache_clear()
    try:
        for d in range(top + 1):
            calls.clear()
            ess_basis(ring, d)
            assert len(calls) == 2**n - 1, d
            assert all(set(H.form) <= {0, 1} for H in calls)
            if p == 2:
                assert tuple(calls) == maximal_subgroups(ring)
    finally:
        essential._ess_data.cache_clear()


@pytest.mark.parametrize(
    "p,n,top", [(3, 2, 9), (3, 3, 8), (5, 2, 9), (2, 3, 6), (2, 4, 5), (3, 1, 6), (2, 1, 6)]
)
def test_restriction_block_matches_restrict(p, n, top):
    # restriction_map on each rank run, as _ess_data runs it: the entries of
    # source i are the image of the i-th monomial of the run, which the
    # reference restriction pins, exterior signs included; each lands in the
    # run of the same rank of the subring, and the entries meet the input
    # contract of pruned_null_space
    ring = Ring(p, n)
    for d in range(top + 1):
        basis = monomial_basis(ring, d)
        for r, run in basis.runs.items():
            masks, pows = basis.run_arrays(r)
            mons = basis.monomials[run]
            # the column order of the kernel, which _ess_data relies on
            exps = reference_compositions(d if ring.mod2 else (d - r) // 2, n)
            assert mons == tuple(product(combinations(range(1, n + 1), r), exps))
            for H in maximal_subgroups(ring):
                cod = monomial_basis(H.subring, d)
                src, tgt_masks, tgt_pows, coef = essential.restriction_map(H, masks, pows)
                tgt = cod.positions(tgt_masks, tgt_pows)
                # in order of source, which _ess_data slices by; each
                # (source, target) once, each coefficient a residue, nonzero
                assert (np.diff(src) >= 0).all(), (H, d, r)
                assert len(np.unique(src * len(cod) + tgt)) == len(src), (H, d, r)
                assert ((coef > 0) & (coef < p)).all(), (H, d, r)
                assert all(cod.run(r).start <= t < cod.run(r).stop for t in tgt.tolist())
                for i, mon in enumerate(mons):
                    at = src == i
                    img = linalg._from_term_arrays(H.subring, tgt_masks[at], tgt_pows[at], coef[at])
                    y = ring.monomial(mon.ext, mon.pows)
                    assert img == reference_restrict(y, H), (H, mon)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pivot_power_has_one_term_per_digit_choice(p):
    # L^e over the base-p digits e_i of e: prod_i C(e_i + q - 1, q - 1)
    # terms, q the nonzero form entries past the pivot, none of them merged,
    # and each equal to the reference restriction of x_pivot^e
    for n in (2, 3, 4):
        ring = Ring(p, n)
        subs = maximal_subgroups(ring)
        for H in subs[:: max(1, len(subs) // 12)]:
            q = sum(1 for c in H.form[H.pivot + 1:] if c)
            for e in sorted({0, 1, p - 1, p, p + 1, 2 * p - 1, p * p - 1, p * p + p + 1, 3 * p + 2}):
                e_pows, coef = essential._pivot_power(H, e)
                digits, rest = [], e
                while rest:
                    rest, digit = divmod(rest, p)
                    digits.append(digit)
                expected = math.prod(math.comb(digit + q - 1, q - 1) if q else int(digit == 0)
                                     for digit in digits)
                assert len(coef) == expected, (H, e)
                pows = [0] * n
                pows[H.pivot] = e
                y = ring.monomial((), tuple(pows))
                masks = np.zeros(len(coef), dtype=np.int64)
                img = linalg._from_term_arrays(H.subring, masks, e_pows, coef)
                assert len(img.terms) == len(coef), (H, e)
                assert img == reference_restrict(y, H), (H, e)


def test_restrict_takes_no_step_per_unit_of_the_pivot_exponent():
    # x_pivot^e goes by the base-p digits of e, not by e - 1 products
    H = MaximalSubgroup(R32, (1, 2))
    with time_limit(5):
        assert restrict(R32.monomial((), (1500, 0)), H) == H.subring.x(1) ** 1500
    # at p = 5 with digits (4, 4, 0, 1): L^149 has 5 * 5 * 2 terms
    ring = Ring(5, 3)
    H = MaximalSubgroup(ring, (1, 1, 2))
    sub = H.subring
    y = ring.a(1) * ring.x(1) ** 149 * ring.x(3) ** 2
    with time_limit(5):
        img = restrict(y, H)
    expected = -(sub.a(1) + sub.a(2) * 2) * (-(sub.x(1) + sub.x(2) * 2)) ** 149 * sub.x(2) ** 2
    assert img == expected
    assert len(img.terms) == 2 * 50


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (2, 3)])
def test_product_map_matches_element_products(p, n):
    # the blocks g_k y of _image_rows over _product_map, for one g and for
    # several, against the coordinates of the Element products
    ring = Ring(p, n)
    rng = random.Random(p * 10 + n)
    for trial in range(40):
        d, e = rng.randrange(8), rng.randrange(8)
        gs = [rand_homogeneous(ring, rng, e) for _ in range(1 + trial % 3)]
        ys = [rand_homogeneous(ring, rng, d) for _ in range(3)]
        basis, target = monomial_basis(ring, d), monomial_basis(ring, d + e)
        rows = np.array([basis.coords(y) for y in ys]).reshape(len(ys), len(basis))
        support = np.flatnonzero(rows.any(axis=0)) if trial % 2 else np.arange(len(basis))
        masks, pows = (a[support] for a in basis.arrays)
        maps = _product_map(ring, d, masks, pows, _term_arrays(ring, *gs))
        blocks = _image_rows(rows[:, support], *maps, len(target), p)
        assert len(blocks) <= len(gs)
        empty = np.zeros((0, len(target)), dtype=np.int64)
        for k, g in enumerate(gs):
            expected = [target.coords(g * y) for y in ys if g * y]
            got = blocks[k] if k < len(blocks) else empty
            assert np.array_equal(got, np.array(expected).reshape(-1, len(target))), (gs, ys, k)
        # an empty support has no images
        none = np.zeros(0, dtype=np.int64)
        maps = _product_map(ring, d, *(a[none] for a in basis.arrays), _term_arrays(ring, *gs))
        assert _image_rows(rows[:, none], *maps, len(target), p) == []


def test_ess_basis_makes_no_restriction(monkeypatch):
    def refuse(*args):
        raise AssertionError("restrict called while building Ess")

    monkeypatch.setattr(essential, "restrict", refuse)
    essential._ess_data.cache_clear()
    for ring, top in ((R33, 12), (Ring(2, 4), 8)):
        for d in range(top + 1):
            assert np.array_equal(reference_ess_basis(ring, d), ess_basis(ring, d).rows), (ring, d)


def test_ess_basis_does_not_import_numpy_ma():
    # np.unique without return_inverse imports numpy.ma lazily, about 10 ms
    # of every cold process that builds a kernel
    root = Path(__file__).parents[1]
    code = (
        "import sys\n"
        "from mui import Ring, ess_basis\n"
        "ess_basis(Ring(3, 4), 15)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.split() == ["False"]


def test_ess_basis_independent_of_complement_choice():
    # every form solved at its last nonzero coordinate instead of its leading
    # one must give the same joint kernel
    for ring, top in ((R32, 10), (R33, 12)):
        for d in range(1, top + 1):
            expected = reference_ess_basis(ring, d, pivot=last_nonzero)
            assert np.array_equal(expected, ess_basis(ring, d).rows), (ring, d)


@pytest.mark.parametrize("p,n,top", [(3, 2, 10), (3, 3, 10), (5, 2, 8), (5, 3, 6)])
def test_restriction_preserves_exterior_rank(p, n, top):
    # the rank split of ess_basis rests on this: every restricted image of a
    # rank-r basis monomial has exterior rank r
    ring = Ring(p, n)
    for H in maximal_subgroups(ring):
        for d in range(top + 1):
            for mon in monomial_basis(ring, d).monomials:
                img = restrict(ring.monomial(mon.ext, mon.pows), H)
                assert img.exterior_ranks() <= {len(mon.ext)}, (H, mon)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (2, 3)])
@given(data=st.data())
def test_restrict_matches_reference(p, n, data):
    ring = Ring(p, n)
    H = data.draw(st.sampled_from(maximal_subgroups(ring)))
    y = data.draw(homogeneous_elements(ring))
    assert restrict(y, H) == reference_restrict(y, H)


def test_maximal_subgroup_refuses_a_bad_form():
    # zero, wrong length, leading coefficient not 1, entry not reduced mod 3
    for form in [(0, 0), (1,), (1, 0, 0), (2, 1), (0, 2), (1, 3), (1, -1)]:
        with pytest.raises(ValueError, match="needs 2 entries"):
            MaximalSubgroup(R32, form)
    assert MaximalSubgroup(R32, (0, 1)).pivot == 1


def test_decompose_basis_elements():
    for subset in all_subsets(2):
        parts = decompose(mui_set(R32, subset))
        for other, f in parts.items():
            assert f == (R32.one() if other == subset else R32.zero())
    assert decompose(l_n(R32))[()] == R32.one()


def test_decompose_mixed_polynomial_coefficients():
    y = R32.x(1) * mui(R32, 1) + R32.x(2) * mui(R32, 2)
    parts = decompose(y)
    assert parts[(1,)] == R32.x(1)
    assert parts[(2,)] == R32.x(2)


def test_decompose_validates_input():
    with pytest.raises(ValueError):
        decompose(R32.zero())
    with pytest.raises(ValueError):
        decompose(R32.x(1))  # not essential
    with pytest.raises(ValueError):
        decompose(mui(R32, 1) + mui_set(R32, (1, 2)))  # mixed ranks
    with pytest.raises(ValueError):
        decompose(l_n(Ring(2, 2)))
    with pytest.raises(ValueError, match="rank must be at least 1"):
        decompose(Ring(3, 0).one())


def test_decompose_is_priced_before_it_builds(monkeypatch):
    # M_{5,{1}} at p = 3 has degree 241; its quotients by L_5 would solve
    # for some 35 GB of numerator columns and cells, so decompose refuses it
    # before any product or division is built
    def refuse(*args):
        raise AssertionError("decompose built something for a refused element")

    monkeypatch.setattr(essential, "decompose_rows", refuse)
    y = mui_set(Ring(3, 5), (1,))
    with time_limit(5):
        with pytest.raises(ConfigError, match=r"needs about \d+ MB .* \(cap 512 MB\)"):
            decompose(y)


def free_combination(ring, rng, r, extra_gap):
    """A seeded sum of f_S * M_S over the rank-r subsets, homogeneous of
    degree extra_gap above the largest deg M_S; returns (y, {S: f_S})."""
    subsets = list(combinations(range(1, ring.n + 1), r))
    degrees = {s: mui_set(ring, s).total_degree() for s in subsets}
    target = max(degrees.values()) + 2 * extra_gap
    coeffs = {
        s: rand_poly(ring, rng, (target - degrees[s]) // 2)
        if (target - degrees[s]) % 2 == 0
        else ring.zero()
        for s in subsets
    }
    y = ring.zero()
    for s, f in coeffs.items():
        y = y + f * mui_set(ring, s)
    return y, coeffs


def test_decompose_success_path_makes_no_restriction(monkeypatch):
    def refuse(*args):
        raise AssertionError("restriction on the success path")

    monkeypatch.setattr(essential, "is_essential", refuse)
    monkeypatch.setattr(essential, "restrict", refuse)
    rng = random.Random(61)
    for ring in (R32, R33, Ring(5, 2)):
        for subset in all_subsets(ring.n):
            parts = decompose(mui_set(ring, subset))
            assert parts == {
                other: ring.one() if other == subset else ring.zero()
                for other in combinations(range(1, ring.n + 1), len(subset))
            }
        y = ring.x(1) * mui(ring, 1) + ring.x(2) * mui(ring, 2)
        parts = decompose(y)
        assert parts[(1,)] == ring.x(1) and parts[(2,)] == ring.x(2)
        for _ in range(8):
            y, coeffs = free_combination(ring, rng, rng.randrange(ring.n + 1), rng.randrange(3))
            if y:
                assert decompose(y) == coeffs


def test_decompose_raises_exactly_on_inessential_input():
    rng = random.Random(67)
    seen = {True: 0, False: 0}
    for ring in (R32, R33):
        for _ in range(16):
            r = rng.randrange(ring.n + 1)
            y, _ = free_combination(ring, rng, r, rng.randrange(2))
            if not y:
                continue
            if rng.randrange(2):
                # perturb by random monomials of the same rank and degree
                d = y.total_degree()
                mons = [m for m in monomial_basis(ring, d).monomials if len(m.ext) == r]
                for _ in range(rng.randrange(1, 4)):
                    mon = mons[rng.randrange(len(mons))]
                    y = y + ring.monomial(mon.ext, mon.pows, rng.randrange(1, ring.p))
                if not y:
                    continue
            essential_y = reference_is_essential(y)
            seen[essential_y] += 1
            if essential_y:
                recon = ring.zero()
                for subset, f in decompose(y).items():
                    recon = recon + f * mui_set(ring, subset)
                assert recon == y
            else:
                with pytest.raises(ValueError, match="not essential"):
                    decompose(y)
    assert min(seen.values()) >= 5, seen


def test_decompose_builds_no_run_of_its_product_degree(monkeypatch):
    # at (3,5) the products y L_5 of a_1..a_5 land in degree 247, on
    # exponent vectors of sum 121: their positions are closed form, and
    # building that run would take gigabytes
    real = linalg._exponents

    def small(total, parts):
        assert total <= 10, f"enumerated the exponent vectors of sum {total}"
        return real(total, parts)

    monkeypatch.setattr(linalg, "_exponents", small)
    ring = Ring(3, 5)
    full = (1, 2, 3, 4, 5)
    y = ring.monomial(full)
    assert decompose(y)[full] * mui_set(ring, full) == y


def test_decompose_checks_its_own_reconstruction(monkeypatch):
    real = essential.product_sign
    monkeypatch.setattr(essential, "product_sign", lambda s, t: -real(s, t))
    for y in (mui(R32, 1), mui_set(R33, (2, 3)), R32.x(1) * mui(R32, 1) + R32.x(2) * mui(R32, 2)):
        with pytest.raises(RuntimeError, match="reconstruct"):
            decompose(y)


def seeded_combination(ring, rng, r, target):
    """sum of seeded f_S M_S over the rank-r subsets, homogeneous of the
    given degree; f_S is 0 where deg M_S > target.  Returns (y, {S: f_S})."""
    coeffs = {}
    y = ring.zero()
    for s in combinations(range(1, ring.n + 1), r):
        gap = target - mui_set(ring, s).total_degree()
        coeffs[s] = rand_poly(ring, rng, gap // 2) if gap >= 0 else ring.zero()
        y = y + coeffs[s] * mui_set(ring, s)
    return y, coeffs


# (ring, [(rank, degree)]): every rank, r = 0 and r = n among them, with
# degrees from the smallest deg M_S of the rank (the other f_S are 0) up;
# at (3,4) kept where the heap reference stays fast
DECOMPOSE_CASES = [
    (Ring(3, 2), [(0, 8), (0, 12), (1, 3), (1, 5), (1, 9), (2, 2), (2, 10)]),
    (Ring(3, 3), [(0, 26), (0, 28), (1, 7), (1, 21), (1, 27), (2, 4), (2, 18), (2, 22), (3, 3),
                  (3, 9)]),
    (Ring(5, 2), [(0, 12), (1, 3), (1, 11), (1, 15), (2, 2), (2, 8)]),
    (Ring(5, 3), [(0, 62), (1, 13), (1, 53), (1, 61), (2, 4), (2, 14), (2, 50), (3, 3),
                  (3, 7)]),
    (Ring(7, 2), [(0, 16), (1, 3), (1, 15), (1, 19), (2, 2), (2, 6)]),
    (Ring(3, 4), [(0, 80), (1, 27), (1, 33), (2, 10), (2, 16), (2, 28), (3, 5), (3, 11), (3, 23),
                  (4, 4), (4, 10)]),
]


@pytest.mark.parametrize("ring,cases", DECOMPOSE_CASES,
                         ids=[f"{ring.p}-{ring.n}" for ring, _ in DECOMPOSE_CASES])
def test_decompose_matches_heap_reference(ring, cases):
    # the coefficient-array decompose against the Element and heap-division
    # one, on free combinations and on perturbed ones, which must raise the
    # same error when they are not essential
    rng = random.Random(ring.p * 100 + ring.n)
    seen = {"zero f_S": 0, "perturbed": 0}
    for r, target in cases:
        for _ in range(2):
            y, coeffs = seeded_combination(ring, rng, r, target)
            if not y:
                continue
            seen["zero f_S"] += any(not f for f in coeffs.values())
            got = decompose(y)
            assert got == reference_decompose(y) == coeffs, (ring, r, target)
            mons = [m for m in monomial_basis(ring, target).monomials if len(m.ext) == r]
            mon = mons[rng.randrange(len(mons))]
            bent = y + ring.monomial(mon.ext, mon.pows, rng.randrange(1, ring.p))
            if bent and not reference_is_essential(bent):
                seen["perturbed"] += 1
                for fn in (decompose, reference_decompose):
                    with pytest.raises(ValueError, match="not essential"):
                        fn(bent)
    assert min(seen.values()) >= 2, seen


def test_decompose_rows_batched_equals_row_by_row():
    # one call on many rows, essential and not, equals one call per row
    rng = random.Random(83)
    for ring, cases in DECOMPOSE_CASES[:4]:
        for r, target in cases:
            rows = []
            for _ in range(4):
                y, _ = seeded_combination(ring, rng, r, target)
                basis = monomial_basis(ring, target)
                row = basis.coords(y)[basis.run(r)]
                rows.append(row)
                bent = row.copy()
                bent[rng.randrange(len(bent))] += 1
                rows.append(bent % ring.p)
            rows = np.array(rows)
            parts, errors = essential.decompose_rows(ring, target, r, rows)
            for i, row in enumerate(rows):
                one, error = essential.decompose_rows(ring, target, r, row[None])
                assert type(error[0]) is type(errors[i]), (ring, r, target, i)
                assert str(error[0]) == str(errors[i])
                if error[0] is None:
                    assert all(np.array_equal(one[s][0], parts[s][i]) for s in parts)


@pytest.mark.parametrize("p,n,top", [(3, 2, 8), (3, 3, 6), (5, 2, 6), (5, 3, 3), (7, 2, 4),
                                     (3, 4, 2), (3, 1, 6)])
def test_division_by_l_n_matches_heap_reference(p, n, top):
    # the level-scheduled triangular solve against reference_poly_divide:
    # exact numerators L_n q give q back, and a numerator with one monomial
    # changed is refused by both
    ring = Ring(p, n)
    big_l = {pows: c for (_, pows), c in l_n(ring).terms.items()}
    deg_l = sum(next(iter(big_l)))
    rng = random.Random(p * 10 + n)
    exps = {k: [tuple(e) for e in _exponents(k, n).tolist()] for k in range(top + deg_l + 1)}
    refused = 0
    for k in range(-min(2, deg_l), top + 1):
        width = len(exps[k + deg_l])
        q = np.array([[rng.randrange(p) for _ in range(len(_exponents(k, n)))] for _ in range(3)],
                     dtype=np.int64).reshape(3, -1)
        num = np.zeros((3, width), dtype=np.int64)
        for row, qrow in zip(num, q):
            quot = {e: int(c) for e, c in zip(exps.get(k, []), qrow) if c}
            for (_, pows), c in reference_mul(_poly(ring, quot), _poly(ring, big_l)).terms.items():
                row[exps[k + deg_l].index(pows)] = c
        bent = num.copy()
        bent[np.arange(3), [rng.randrange(width) for _ in range(3)]] += 1
        bent %= p
        for rows in (num, bent):
            got, exact = essential._divide_by_l_n(ring, k, rows)
            for row, grow, ok in zip(rows, got, exact):
                numer = {e: int(c) for e, c in zip(exps[k + deg_l], row) if c}
                try:
                    expected = reference_poly_divide(numer, big_l, p)
                except NotDivisibleError:
                    assert not ok, (k, numer)
                    refused += 1
                    continue
                assert ok, (k, numer)
                found = {e: int(c) for e, c in zip(exps.get(k, []), grow) if c}
                assert found == expected, (k, numer)
    # at n = 1, L_1 = x_1 divides every monomial: only k < 0 refuses
    assert refused >= (top if n > 1 else 1), refused


def _poly(ring, terms):
    return _element(ring.p, ring.n, {((), pows): c for pows, c in terms.items()})


def test_closure_of_zero_is_zero():
    spans = steenrod_closure(R32.zero(), 6)
    assert all(span.dim == 0 for span in spans.values())
    assert sorted(spans) == list(range(7))


def test_closure_equals_essentials_small():
    spans = steenrod_closure(R32.monomial((1, 2)), 10)
    for d in range(11):
        assert spans[d] == ess_basis(R32, d)


def test_closure_respects_the_degree_cap():
    spans = steenrod_closure(R32.monomial((1, 2)), 4)
    assert max(spans) == 4


def test_closure_dimension_guard(monkeypatch):
    monkeypatch.setattr(essential, "MAX_CLOSURE_DIMENSION", 3)
    with pytest.raises(RuntimeError, match="dimension cap 3"):
        steenrod_closure(R32.monomial((1, 2)), 12)


def test_proof_words_reach_every_subset():
    top = mui_set(R32, (1, 2))
    for subset in all_subsets(2):
        word = proof_word(R32, subset)
        assert apply_word(word, top) == mui_set(R32, subset)
    # explicit shape: {2} needs one Bockstein, {1} a power op after it
    assert proof_word(R32, (2,)) == (("b",),)
    assert proof_word(R32, (1,)) == (("P", 1), ("b",))


def test_projective_forms_are_normalized_and_complete():
    forms = projective_forms(5, 2)
    assert len(forms) == 6
    assert len(set(forms)) == 6
    assert all(next(c for c in f if c) == 1 for f in forms)
