"""Command-line surface: dispatch, validation, serialization, determinism."""

import json
import sys
from fractions import Fraction

import pytest

from macpoly import cli, verify
from macpoly.integral import j_compact, p_poly
from macpoly.modified import htilde_plain
from macpoly.polyring import DimensionError, EvaluationError, MPoly, NonPolynomialError
from macpoly.quasisym import g_poly, qs_schur
from macpoly.shapes import ShapeError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_schur_family(capsys):
    code, out = run_cli(capsys, "schur", "--shape", "1", "--n", "2")
    assert code == 0
    assert out.strip() == "x1 + x2"


def test_j_ones_example(capsys):
    code, out = run_cli(capsys, "j", "--shape", "1,1,1", "--n", "3", "--formula", "compact")
    assert code == 0
    expected = j_compact((1, 1, 1), 3).value
    assert out.strip() == str(expected)


def test_htilde_formulas_agree(capsys):
    _, compact = run_cli(capsys, "htilde", "--shape", "2,1", "--n", "2", "--formula", "compact")
    _, plain = run_cli(capsys, "htilde", "--shape", "2,1", "--n", "2", "--formula", "plain")
    _, alias = run_cli(capsys, "htilde", "--shape", "2,1", "--n", "2", "--formula", "hhl")
    assert compact == plain == alias


def test_json_round_trip(capsys):
    code, out = run_cli(capsys, "htilde", "--shape", "2,1,1", "--n", "3", "--json")
    assert code == 0
    assert MPoly.from_json(out.strip()) == htilde_plain((2, 1, 1), 3)
    # serialization is stable under a parse/re-serialize cycle
    assert MPoly.from_json(out.strip()).to_json() == out.strip()


def test_json_round_trip_with_fraction_coefficients(capsys):
    args = ("htilde", "--shape", "2,1", "--n", "2", "--q", "1/2", "--t", "1/3", "--json")
    code, out = run_cli(capsys, *args)
    assert code == 0 and '"c":"11/6"' in out
    expected = htilde_plain((2, 1), 2).specialize(q=Fraction(1, 2), t=Fraction(1, 3))
    assert MPoly.from_json(out.strip()) == expected
    assert MPoly.from_json(out.strip()).to_json() == out.strip()


def test_p_at_a_point_where_no_canonical_factor_vanishes(capsys):
    # 1 - q^2 t^2 vanishes at q = 1, t = -1, but P_(3,3) in 3 variables is
    # finite there, and its canonical form keeps no such factor
    code, out = run_cli(capsys, "p", "--shape", "3,3", "--n", "3", "--q", "1", "--t", "-1")
    assert code == 0
    assert out.strip() == str(p_poly((3, 3), 3).specialize(q=1, t=-1))


def test_output_deterministic(capsys):
    args = ("p", "--shape", "2,1", "--n", "3", "--json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_specialization_flags(capsys):
    code, out = run_cli(
        capsys, "qschur", "--shape", "2,1", "--n", "3", "--json"
    )
    assert code == 0
    assert MPoly.from_json(out.strip()) == qs_schur((2, 1), 3)
    code, out = run_cli(
        capsys, "p", "--shape", "2,1", "--n", "2", "--q", "0", "--t", "0"
    )
    assert code == 0
    assert out.strip() == "x1^2*x2 + x1*x2^2"


def test_e_integral_with_verify(capsys):
    code, out = run_cli(capsys, "e", "--shape", "0,2,1", "--integral", "--verify")
    assert code == 0 and out.strip()


def test_e_integral_verify_reports_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "integral_e", lambda alpha: MPoly.zero(len(alpha)))
    with pytest.raises(SystemExit) as err:
        cli.main(["e", "--shape", "0,2,1", "--integral", "--verify"])
    assert err.value.code == 2
    assert "routes disagree" in capsys.readouterr().err


def test_partition_families_reject_unsorted(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["j", "--shape", "1,2", "--n", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["htilde", "--shape", "0,1", "--n", "2"])


def test_strong_family_rejects_zeros(capsys):
    with pytest.raises(SystemExit):
        cli.main(["g", "--shape", "1,0,2", "--n", "3"])


@pytest.mark.parametrize("family", ["p", "g", "qschur", "schur", "j"])
def test_fewer_variables_than_parts_prints_zero(capsys, family):
    code, out = run_cli(capsys, family, "--shape", "2,1", "--n", "1")
    assert code == 0 and out == "0\n"
    code, out = run_cli(capsys, family, "--shape", "2,1", "--n", "1", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["n"] == 1 and obj.get("terms", obj.get("coeffs")) == []
    code, out = run_cli(capsys, family, "--shape", "2,1", "--n", "0", "--q", "1", "--t", "2")
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("family", ["p", "g", "qschur"])
def test_fewer_variables_than_parts_prints_the_library_value(capsys, family):
    value = {"p": p_poly, "g": g_poly, "qschur": qs_schur}[family]((2, 1), 1)
    code, out = run_cli(capsys, family, "--shape", "2,1", "--n", "1", "--json")
    assert code == 0 and out == json.dumps(value.to_json_obj(), separators=(",", ":")) + "\n"


def test_zero_part_is_refused_before_the_variable_count(capsys):
    code, err = run_failing(capsys, "g", "--shape", "2,0,1", "--n", "1")
    assert code == 2 and err.startswith("error: ")


def test_gpoly_alias(capsys):
    _, a = run_cli(capsys, "g", "--shape", "1,1", "--n", "2", "--json")
    _, b = run_cli(capsys, "gpoly", "--shape", "1,1", "--n", "2", "--json")
    assert a == b


def test_verify_fixtures(capsys):
    code, out = run_cli(capsys, "verify", "fixtures")
    assert code == 0
    assert "tableau listing" in out and "PASS" in out and "FAIL" not in out


def test_verify_reports_a_raising_route_as_fail(capsys, monkeypatch):
    def broken(lam, n):
        raise ShapeError("broken route")

    monkeypatch.setattr(verify, "htilde_compact", broken)
    equivalence, symmetry = verify.run_suite("htilde", 2, 2)
    assert not equivalence.passed and equivalence.detail == "ShapeError: broken route"
    assert symmetry.passed and symmetry.instances > 0
    code, out = run_cli(capsys, "verify", "htilde", "--max-size", "2", "--max-n", "2")
    assert code == 1
    assert "FAIL  [ShapeError: broken route]" in out and "1/2 checks passed" in out


def test_verify_small_bounds(capsys):
    code, out = run_cli(
        capsys, "verify", "htilde", "--max-size", "3", "--max-n", "2"
    )
    assert code == 0
    assert "compact vs plain modified-Macdonald" in out


def test_verify_takes_its_suites_from_the_table(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "extra", [verify.check_fixture_statistics])
    code, out = run_cli(capsys, "verify", "extra")
    assert code == 0
    assert "statistics fixtures" in out and "1/1 checks passed" in out


def run_failing(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return err.value.code, captured.err


def test_evaluation_error_exits_cleanly(capsys):
    code, err = run_failing(capsys, "e", "--shape", "0,2,1", "--q", "1", "--t", "1")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [EvaluationError, NonPolynomialError, DimensionError])
def test_package_errors_exit_cleanly(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc("boom")

    monkeypatch.setattr(cli, "htilde_compact", fail)
    code, err = run_failing(capsys, "htilde", "--shape", "2,1", "--n", "2")
    assert code == 2
    assert err == "error: boom\n"


@pytest.mark.parametrize("family", ["htilde", "j"])
def test_negative_n_rejected(capsys, family):
    code, err = run_failing(capsys, family, "--shape", "2,1", "--n", "-1")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n=-1" not in err


def test_zero_n_allowed(capsys):
    code, out = run_cli(capsys, "htilde", "--shape", "2,1", "--n", "0")
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("flag", ["--max-size", "--max-n"])
def test_negative_verify_bound_rejected(capsys, flag):
    code, err = run_failing(capsys, "verify", "htilde", flag, "-1")
    assert code == 2
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


ABOVE_MAXSIZE = str(sys.maxsize + 1)


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param((family, "--shape", "2,1", "--n", ABOVE_MAXSIZE), "--n", id=family)
        for family in ("htilde", "j", "p", "g", "qschur", "schur")
    ]
    + [
        pytest.param(("verify", "htilde", flag, ABOVE_MAXSIZE), flag, id=flag)
        for flag in ("--max-size", "--max-n")
    ],
)
def test_count_above_maxsize_rejected(capsys, argv, flag):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag} must be at most {sys.maxsize},") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("htilde", "--shape", "1", "--n", "1", "--q", "1/0"),
        ("htilde", "--shape", "1", "--n", "1", "--t", "1/0"),
        ("htilde", "--shape", "1", "--n", "1", "--q", "x"),
        ("p", "--shape", "1", "--n", "99999999999999999999"),
    ],
    ids=["q-zero-denominator", "t-zero-denominator", "q-not-a-number", "n-overflow"],
)
def test_bad_values_exit_with_one_line(capsys, argv):
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
