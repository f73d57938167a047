import json
import os
import runpy
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from mui import CLAIMS, ConfigError, Ring, claim_ids, ess_basis, monomial_basis, run_all, run_claim
from mui.linalg import DegreeSpan, rref
from mui.verify import (
    Case,
    _ess_squared_spans,
    _high_rank_span,
    _joint_annihilator,
    _span_case,
    check_resources,
)
from helpers import reference_ess_squared_spans, reference_joint_annihilator

R32 = Ring(3, 2)


def test_claim_registry_covers_every_statement():
    assert set(CLAIMS) == {
        "lemma:eqnLn",
        "lemma:p2",
        "lemma:Mns",
        "lemma:EssSquared",
        "eq:MnST",
        "lemma:jointAnn",
        "coroll:jointAnn2",
        "coroll:MnS",
        "thm:free",
        "eq:betaMns",
        "eq:rPMnS",
        "lemma:SteenrodMnS",
        "thm:Steenrod",
        "remark:fundamental",
    }


def test_mode_selection():
    odd = claim_ids(R32)
    assert "lemma:p2" not in odd and "thm:Steenrod" in odd
    mod2 = claim_ids(Ring(2, 2))
    assert set(mod2) == {"lemma:eqnLn", "lemma:p2"}


def test_unknown_claim_rejected():
    with pytest.raises(ConfigError):
        run_claim("lemma:nonsense", R32, 5)
    with pytest.raises(ConfigError):
        run_all(R32, 5, ["thm:Steenrod", "bogus"])
    with pytest.raises(ConfigError):
        run_claim("lemma:p2", R32, 5)  # wrong mode


def test_run_all_refuses_a_claim_list_before_running_any(monkeypatch, capsys):
    # thm:free is valid at odd p and would run first; lemma:p2 is not
    import dataclasses

    import mui.verify as verify_mod
    from mui.cli import main

    def must_not_run(ring, max_degree):
        raise AssertionError("a claim ran before the list was checked")

    free = dataclasses.replace(CLAIMS["thm:free"], check=must_not_run)
    monkeypatch.setitem(verify_mod.CLAIMS, "thm:free", free)
    with pytest.raises(ConfigError, match="lemma:p2 does not apply"):
        run_all(Ring(3, 3), 26, ["thm:free", "lemma:p2"])
    argv = ["verify", "--p", "3", "--n", "3", "--max-degree", "26", "--claims", "thm:free,lemma:p2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: claim lemma:p2 does not apply at p = 3\n"


def test_resource_guard():
    with pytest.raises(ConfigError):
        check_resources(Ring(3, 9), 5)
    with pytest.raises(ConfigError):
        check_resources(R32, 10**6)
    # one projective point, but p^n vectors in the loops over F_p^n
    with pytest.raises(ConfigError):
        check_resources(Ring(8589934609, 1), 2)
    with pytest.raises(ConfigError):
        check_resources(Ring(2, 10**9), 0)
    check_resources(R32, 20)


def test_resource_guard_accepts_the_shipped_configurations():
    root = Path(__file__).parents[1]
    configs = list(runpy.run_path(str(root / "scripts" / "run_verification.py"))["CONFIGS"])
    bench = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    configs += bench["VERIFY_CONFIGS"]
    configs.append((*bench["ESS_RING"], max(bench["ESS_DEGREES"])))
    configs.append((*bench["INVARIANT_RING"], 0))
    for p, n, max_degree in configs:
        check_resources(Ring(p, n), max_degree)


@pytest.mark.parametrize("p,n,max_degree", [(3, 2, 12), (3, 3, 14), (5, 2, 12)])
def test_joint_annihilator_matches_reference(p, n, max_degree):
    ring = Ring(p, n)
    # the subset families of lemma:jointAnn and coroll:jointAnn2, and one
    # that mixes sizes
    families = [tuple(combinations(range(1, n + 1), r)) for r in range(1, n + 1)]
    families.append(((1,), tuple(range(2, n + 1))))
    for subsets in families:
        for d in range(max_degree + 1):
            got = _joint_annihilator(ring, d, subsets)
            expected = reference_joint_annihilator(ring, d, subsets)
            assert got.rows.dtype == np.uint8
            assert got == expected, (subsets, d)


@pytest.mark.parametrize("p,n,max_degree", [(3, 3, 12), (5, 2, 10), (257, 2, 4)])
def test_annihilator_spans_are_in_the_storage_dtype(p, n, max_degree):
    # the high-rank span each joint annihilator is compared with is an
    # identity on the first monomials, made in the storage dtype as the
    # annihilator is (uint8 at 3 and 5, uint16 at 257), not in int64
    ring = Ring(p, n)
    stored = np.min_scalar_type(p - 1)
    for r in range(1, n + 1):
        subsets = tuple(combinations(range(1, n + 1), r))
        for d in range(max_degree + 1):
            basis = monomial_basis(ring, d)
            high = [i for i, mon in enumerate(basis.monomials) if len(mon.ext) > n - r]
            got = _high_rank_span(ring, d, n - r + 1)
            assert got.rows.dtype == _joint_annihilator(ring, d, subsets).rows.dtype == stored
            assert np.array_equal(got.rows, np.eye(len(basis), dtype=np.int64)[high]), (r, d)


@pytest.mark.parametrize("p,n,max_degree", [(3, 2, 20), (3, 3, 20), (5, 2, 12)])
def test_ess_squared_spans_match_pairwise_reference(p, n, max_degree):
    ring = Ring(p, n)
    for d in range(max_degree + 1):
        for got, expected in zip(_ess_squared_spans(ring, d), reference_ess_squared_spans(ring, d)):
            assert got.rows.dtype == expected.rows.dtype == np.min_scalar_type(p - 1)
            assert got.rows.shape == expected.rows.shape
            assert got.rows.astype(np.int64).tobytes() == expected.rows.astype(np.int64).tobytes(), d


def test_joint_annihilator_at_rank_four_fits_in_two_gigabytes():
    # the dense codomain blocks of y * M_{n,s}, in degrees up to 12 + 79,
    # once needed more than 2 GB; the limit is the one the benchmark
    # children run under
    root = Path(__file__).parents[1]
    code = (
        "import resource\n"
        "limit = 2048 << 20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from mui import Ring, run_claim\n"
        "print(run_claim('lemma:jointAnn', Ring(3, 4), 12).status)\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.split() == ["pass"]


def test_report_shape_and_json():
    report = run_claim("eq:betaMns", R32, 6)
    assert report.passed and report.status == "pass"
    data = json.loads(report.to_json())
    assert set(data) == {"claim", "p", "n", "degree_bound", "status", "cases", "runtime_ms"}
    assert data["claim"] == "eq:betaMns"
    assert data["p"] == 3 and data["n"] == 2 and data["degree_bound"] == 6
    for case in data["cases"]:
        assert set(case) == {"id", "expected", "actual", "pass"}
        assert case["pass"] is True


def test_failure_reports_carry_counterexamples(monkeypatch):
    # sabotage one value so the report machinery shows a concrete element
    import mui.verify as verify_mod

    real = verify_mod.bockstein
    monkeypatch.setattr(verify_mod, "bockstein", lambda y: real(y) + Ring(y.p, y.n).x(1))
    report = run_claim("eq:betaMns", R32, 6)
    assert not report.passed
    bad = report.failures()
    assert bad and any(c.actual not in ("", "0") for c in bad)


def test_span_case_names_the_first_row_outside_the_other_span():
    # Ess in degree 6 of (3,2) is spanned by the first three of its seven
    # monomials; the element named is a row of its span, not its residue,
    # and an unexpected element is named before a missing one
    ess = ess_basis(R32, 6)
    assert [str(monomial_basis(R32, 6).element(row)) for row in ess.rows] == [
        "a1a2*x1^2", "a1a2*x1x2", "a1a2*x2^2"]

    def span(*rows):
        return DegreeSpan(3, 6, rref(np.array(rows), 3))

    inside = span([1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0])
    assert _span_case("c", R32, ess, inside) == Case(
        "c", "dim=3", "dim=2; missing element a1a2*x1^2", False)
    assert _span_case("c", R32, inside, ess) == Case(
        "c", "dim=2", "dim=3; unexpected element a1a2*x1^2", False)
    across = span([1, 2, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 2])
    assert _span_case("c", R32, ess, across) == Case(
        "c", "dim=3", "dim=2; unexpected element a1a2*x1^2 + x1^3 + 2*x2^3", False)
    assert _span_case("c", R32, ess, ess) == Case("c", "dim=3", "dim=3", True)


def test_run_all_passes_quickly_at_3_2():
    reports = run_all(R32, 10)
    assert [r.claim for r in reports] == claim_ids(R32)
    assert all(r.passed for r in reports)


def test_run_all_passes_at_p2():
    reports = run_all(Ring(2, 2), 8)
    assert all(r.passed for r in reports)
    assert {r.claim for r in reports} == {"lemma:eqnLn", "lemma:p2"}


def test_a_failing_decompose_fails_the_report(monkeypatch):
    import mui.verify as verify_mod

    calls = []

    def broken(ring, degree, rank, rows):
        # thm:free decomposes on coordinate rows, many classes per call
        calls.extend(str(monomial_basis(ring, degree).element(row, rank)) for row in rows)
        error = RuntimeError("decomposition failed to reconstruct the input")
        return {}, [error] * len(rows)

    monkeypatch.setattr(verify_mod, "decompose_rows", broken)
    report = run_claim("thm:free", R32, 10)
    assert report.status == "fail"
    bad = report.failures()
    assert {c.id.split("[")[0] for c in bad} == {"round-trip", "spanning"}
    for case in bad:
        assert "RuntimeError: decomposition failed" in case.actual
        assert any(y in case.actual for y in calls)


def test_mnst_checks_the_exact_sign(monkeypatch):
    import mui.verify as verify_mod

    real = verify_mod.product_sign
    monkeypatch.setattr(verify_mod, "product_sign", lambda s, t: -real(s, t))
    report = run_claim("eq:MnST", R32, 4)
    assert report.status == "fail"
    # every disjoint pair fails, each with the sign it expected
    assert len(report.failures()) == 9
    assert all("sign" in c.actual and c.expected == "+-L_n*M_(S u T)" for c in report.failures())
