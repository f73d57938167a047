import json
import random

from mui import CLAIMS, Ring
from mui import cli, essential
from mui.cli import main
from helpers import rand_element, time_limit

R32 = Ring(3, 2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_m(capsys):
    code, out, _ = run_cli(capsys, "invariant", "M", "--s", "2", "--p", "3", "--n", "2")
    assert code == 0
    assert out == "a1*x2 + 2*a2*x1\n"


def test_invariant_l_rank_one(capsys):
    code, out, _ = run_cli(capsys, "invariant", "L", "--p", "3", "--n", "1")
    assert code == 0
    assert out == "x1\n"


def test_invariant_mset(capsys):
    code, out, _ = run_cli(capsys, "invariant", "Mset", "--S", "1,2", "--p", "3", "--n", "2")
    assert code == 0
    assert out == "2*a1a2\n"


def test_invariant_dickson(capsys):
    code, out, _ = run_cli(capsys, "invariant", "dickson", "--r", "0", "--p", "3", "--n", "1")
    assert code == 0
    assert out == "x1^2\n"


def test_invariant_bad_index(capsys):
    code, _, err = run_cli(capsys, "invariant", "M", "--s", "5", "--p", "3", "--n", "2")
    assert code == 2
    assert "out of range" in err


def test_apply_examples(capsys):
    assert run_cli(capsys, "apply", "b", "a1", "--p", "3", "--n", "2")[1] == "x1\n"
    assert run_cli(capsys, "apply", "P1", "x1", "--p", "3", "--n", "2")[1] == "x1^3\n"
    assert run_cli(capsys, "apply", "P0", "a1a2", "--p", "3", "--n", "2")[1] == "a1a2\n"


def test_apply_parse_error_positions(capsys):
    code, _, err = run_cli(capsys, "apply", "P1", "a1 + ?", "--p", "3", "--n", "2")
    assert code == 2
    assert "position 5" in err


def test_restrict_command(capsys):
    code, out, _ = run_cli(
        capsys, "restrict", "a1*x2 + 2*a2*x1", "--form", "0,1", "--p", "3", "--n", "2"
    )
    assert code == 0
    assert out == "0\n"
    code, out, _ = run_cli(capsys, "restrict", "x1^2", "--form", "0,1", "--p", "3", "--n", "2")
    assert out == "x1^2\n"
    # the form is normalized; a zero form or one of the wrong length exits 2
    code, out, _ = run_cli(capsys, "restrict", "x2", "--form", "2,1", "--p", "3", "--n", "2")
    assert (code, out) == (0, "x1\n")
    for form in ("0,3", "1,2,0"):
        code, out, err = run_cli(capsys, "restrict", "x1", "--form", form, "--p", "3", "--n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: form ") and "needs 2 entries" in err


def test_ess_basis_command(capsys):
    code, out, _ = run_cli(capsys, "ess-basis", "-d", "2", "--p", "3", "--n", "2")
    assert code == 0
    assert out == "dim 1\na1a2\n"
    code, out, _ = run_cli(capsys, "ess-basis", "-d", "2", "--p", "3", "--n", "2", "--json")
    assert json.loads(out) == {"degree": 2, "dim": 1, "basis": ["a1a2"]}


def test_decompose_command(capsys):
    element = "x1*a1*x2^3 + 2*x1*a2*x1^3 + x2*a1*x2 + 2*x2*a2*x1"
    code, out, _ = run_cli(capsys, "decompose", element, "--p", "3", "--n", "2")
    assert code == 0
    assert out == "S={1}: x1\nS={2}: x2\n"


def test_degree_free_verbs_are_bounded_by_the_degree_they_build(capsys):
    """apply, restrict and decompose refuse an input whose top term degree,
    plus the word's degree for apply, lies outside 0..200, and apply no
    basis cap, since they build no basis."""
    cases = [
        # 2 + 2 * 49 * (3 - 1) = 198 runs (P^49 kills x1); 2 + 200 is refused
        (("apply", "P49", "x1"), (0, "0\n"), ("apply", "P50", "x1")),
        # the top term decides: x2 + x1^101 has degree 202
        (("restrict", "x1^100", "--form", "0,1"), (0, "x1^100\n"),
         ("restrict", "x2 + x1^101", "--form", "0,1")),
        # degree 199 runs and is not essential; degree 201 is refused
        (("decompose", "a1*x1^99"), (2, ""), ("decompose", "a1*x1^100")),
    ]
    for ok, expected, over in cases:
        code, out, err = run_cli(capsys, *ok, "--p", "3", "--n", "2")
        assert (code, out) == expected
        assert err in ("", "error: element is not essential\n")
        code, out, err = run_cli(capsys, *over, "--p", "3", "--n", "2")
        assert (code, out, err) == (2, "", "error: max degree must lie in 0..200\n")
    # each invariant's degree is checked before it is built: c_{3,2} at p = 5
    # has degree 200 and runs, c_{3,1} has 240; c_{3,0} at p = 61, of degree
    # 453,960, ran for 49 s at 1 GB without the bound
    code, out, err = run_cli(capsys, "invariant", "dickson", "--r", "2", "--p", "5", "--n", "3")
    assert (code, err) == (0, "") and out.startswith("x1^100")
    refused = (2, "", "error: max degree must lie in 0..200\n")
    assert run_cli(capsys, "invariant", "dickson", "--r", "1", "--p", "5", "--n", "3") == refused
    for kind in (("L",), ("M", "--s", "1"), ("Mset", "--S", "1,2"), ("dickson", "--r", "0")):
        assert run_cli(capsys, "invariant", *kind, "--p", "61", "--n", "3") == refused, kind
    # refused before any work; without the bound it ran past a 20 s timeout
    code, out, err = run_cli(
        capsys, "apply", "P1000", "x1^999*x2^998*x3^997*x4^996", "--p", "5", "--n", "4"
    )
    assert (code, out, err) == (2, "", "error: max degree must lie in 0..200\n")
    # no dense-basis cap: degree 80 at (3,4) has a basis of about 92k
    # dimensions, and decompose's products y * M_T reach degree 84 or more
    # for every essential y there
    args = ("--p", "3", "--n", "4")
    assert run_cli(capsys, "restrict", "x1^40", "--form", "0,0,0,1", *args) == (
        0, "x1^40\n", "")
    assert run_cli(capsys, "decompose", "a1*a2*a3*a4", *args) == (
        0, "S={1,2,3,4}: 1\n", "")


def test_decompose_is_priced_before_it_builds(capsys, monkeypatch):
    """decompose refuses an element whose numerator rows and triangular
    solves would pass the byte cap of mui.essential, before building anything:
    the top class at (3,5) near degree 200 solves for C(101, 4) unknowns,
    each reading the other 119 terms of L_5; times x1^35 it solves for
    C(39, 4), but its numerator row has C(160, 4) columns, and it peaked at
    1,097 MB max RSS under the cell count alone."""
    args = ("--p", "3", "--n", "5")
    # the top class itself takes one unknown and a numerator of C(125, 4) columns
    assert run_cli(capsys, "decompose", "a1*a2*a3*a4*a5", *args) == (0, "S={1,2,3,4,5}: 1\n", "")

    def refuse(*args):
        raise AssertionError("decompose ran on a refused element")

    monkeypatch.setattr(essential, "decompose_rows", refuse)
    for k, columns, cells in ((97, 98_491_965, 4_082_925 * 120), (35, 26_294_360, 82_251 * 120)):
        with time_limit(5):
            code, out, err = run_cli(capsys, "decompose", f"a1*a2*a3*a4*a5*x1^{k}", *args)
        mb = -(-(26 * columns + 144 * cells) // 2**20)
        assert (code, out) == (2, "")
        assert err == (f"error: decomposing this element at p=3, n=5 needs about {mb} MB for "
                       f"{columns} numerator columns and {cells} cells of triangular solve "
                       "(cap 512 MB)\n")


def test_closure_command(capsys):
    code, out, _ = run_cli(
        capsys, "closure", "a1a2", "--max-degree", "4", "--p", "3", "--n", "2"
    )
    assert code == 0
    assert out.splitlines() == ["d=0 dim=0", "d=1 dim=0", "d=2 dim=1", "d=3 dim=1", "d=4 dim=2"]


def test_closure_failures_exit_two_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(essential, "MAX_CLOSURE_DIMENSION", 1)
    argv = ("closure", "a1a2", "--max-degree", "4", "--p", "3", "--n", "2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: closure exceeded the dimension cap 1\n"

    for exc, message in [
        (MemoryError("cannot allocate the closure"), "cannot allocate the closure"),
        (MemoryError(), "MemoryError"),
    ]:
        def out_of_memory(seed, top):
            raise exc

        monkeypatch.setattr(cli, "steenrod_closure", out_of_memory)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--n", "2", "--max-degree", "8",
        "--claims", "eq:betaMns,lemma:Mns",
    )
    assert code == 0
    assert "eq:betaMns" in out and "pass" in out
    code, out, _ = run_cli(
        capsys, "verify", "--p", "2", "--n", "3", "--max-degree", "10",
        "--claims", "lemma:p2",
    )
    assert code == 0


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--n", "2", "--max-degree", "6",
        "--claims", "eq:rPMnS", "--json",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["status"] == "pass"
    assert reports[0]["cases"]


def test_verify_resource_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "3", "--n", "9")
    assert code == 2
    assert "maximal subgroups" in err
    # one maximal subgroup, but 8589934609 vectors in the eqnLn loop
    code, _, err = run_cli(
        capsys, "verify", "--p", "8589934609", "--n", "1", "--max-degree", "2"
    )
    assert code == 2
    assert "F_p^n" in err


def test_large_p_primality_returns(capsys):
    # both need trial division up to ~10^9; Miller-Rabin answers at once
    code, _, err = run_cli(capsys, "invariant", "L", "--p", "1000000000000000003", "--n", "1")
    assert code == 2
    assert "not prime" not in err and "F_p^n" in err
    code, _, err = run_cli(capsys, "invariant", "L", "--p", "1000000016000000063", "--n", "1")
    assert code == 2
    assert "not prime" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--p", "3", "--n", "2", "--claims", "lemma:made-up"
    )
    assert code == 2
    assert "unknown claim" in err


def test_rank_zero_never_dumps_a_traceback(capsys):
    # every claim passes, fails or is refused with a message at rank 0
    for p in (2, 3):
        for cid in CLAIMS:
            code, _, err = run_cli(capsys, "verify", "--p", str(p), "--n", "0",
                                   "--max-degree", "2", "--claims", cid)
            assert code in (0, 1, 2), (p, cid)
            assert code != 2 or err.startswith("error: "), (p, cid, err)
    for argv in [("ess-basis", "--degree", "2", "--p", "2", "--n", "0"),
                 ("verify", "--p", "3", "--n", "0", "--max-degree", "2", "--claims", "thm:free"),
                 ("verify", "--p", "3", "--n", "0", "--max-degree", "2", "--claims",
                  "remark:fundamental")]:
        assert run_cli(capsys, *argv) == (2, "", "error: rank must be at least 1\n")


def test_element_round_trip_through_cli_grammar():
    rng = random.Random(53)
    for _ in range(300):
        y = rand_element(R32, rng)
        assert R32.parse(str(y)) == y
