"""Command-line behavior: output contracts, exit codes, JSON reports."""

import doctest
import json
import os
import subprocess
import sys

import mpmath
import pytest

import akzkit.ak_zeta
import akzkit.cli
import akzkit.exact_series
import akzkit.index_algebra
import akzkit.level2
import akzkit.mzv_numeric
import akzkit.pbn
import akzkit.reports
import akzkit.verify
from akzkit.cli import certified_digits, parse_index, run_command
from akzkit.mzv_numeric import mzv


@pytest.mark.parametrize(
    "module",
    [
        akzkit.ak_zeta,
        akzkit.cli,
        akzkit.exact_series,
        akzkit.index_algebra,
        akzkit.level2,
        akzkit.mzv_numeric,
        akzkit.pbn,
        akzkit.reports,
    ],
    ids=lambda m: m.__name__.split(".")[-1],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_parse_index_plain_and_negated():
    assert parse_index("2,1") == ("pos", (2, 1))
    assert parse_index("neg:1,2") == ("neg", (1, 2))
    assert parse_index("neg:0") == ("neg", (0,))


@pytest.mark.parametrize("bad", ["", "neg:", "1,x", "0,2", "neg:-1", "2;1"])
def test_parse_index_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_index(bad)


def test_pbn_command_prints_a_fraction(capsys):
    assert run_command(["pbn", "--kind", "B", "--n", "1", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_pbn_command_with_multi_index(capsys):
    assert run_command(["pbn", "--kind", "C", "--n", "2", "--index", "1,2"]) == 0
    out = capsys.readouterr().out.strip()
    from akzkit.pbn import multi_poly_bernoulli

    assert out == str(multi_poly_bernoulli(2, (1, 2), "C"))


def test_symbolic_eta_output(capsys):
    assert run_command(["akzeta", "eta", "--index", "neg:1", "--symbolic"]) == 0
    assert capsys.readouterr().out.strip() == "2^-s"


def test_xi_value_output(capsys):
    code = run_command(["akzeta", "xi", "--index", "2,1", "--at", "2", "--digits", "15"])
    assert code == 0
    assert capsys.readouterr().out.strip().startswith("1.88075319")


def test_mzv_value_output(capsys):
    assert run_command(["mzv", "--index", "1,2", "--digits", "20"]) == 0
    assert capsys.readouterr().out.strip().startswith("1.2020569031595942")


def _assert_printed_digits_are_right(text: str, true_value, asked: int) -> int:
    # Every printed digit is right: the printed number is within one unit
    # in its last place of the true value.  Returns how many were printed.
    mantissa = text.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
    printed = len(mantissa)
    assert 1 <= printed < asked
    with mpmath.workprec(600):
        got = mpmath.mpf(text)
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(got))) + 1 - printed)
        assert abs(got - true_value) <= unit, (text, printed)
    return printed


def test_mzv_prints_only_the_digits_its_bound_certifies(capsys):
    assert run_command(["mzv", "--index", "1,2", "--digits", "120"]) == 0
    captured = capsys.readouterr()
    with mpmath.workprec(600):
        zeta3 = mpmath.zeta(3)
    printed = _assert_printed_digits_are_right(captured.out.strip(), zeta3, 120)
    assert printed == certified_digits(mzv((1, 2)))
    assert "certifies" in captured.err


def test_low_precision_prints_only_certified_digits():
    # The 64-bit run gets a process of its own, so the session's precision
    # and caches stay as they are.
    src = os.path.dirname(os.path.dirname(os.path.abspath(akzkit.cli.__file__)))
    argv = ["--prec-bits", "64", "mzv", "--index", "1,2", "--digits", "40"]
    done = subprocess.run(
        [sys.executable, "-m", "akzkit.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with mpmath.workprec(600):
        zeta3 = mpmath.zeta(3)
    _assert_printed_digits_are_right(done.stdout.strip(), zeta3, 40)


@pytest.mark.parametrize("digits", ["0", "-3", "x"])
def test_digits_below_one_is_a_usage_error(digits, capsys):
    assert run_command(["mzv", "--index", "1,2", "--digits", digits]) == 2
    assert "--digits" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["level2", "verify", "ht1", "--max", "0"], "--max"),
        (["level2", "verify", "psi", "--max", "-2"], "--max"),
        (["level2", "verify", "ht1", "--max", "two"], "--max"),
        (["verify-all", "--max-weight", "1"], "--max-weight"),
        (["verify-all", "--max-weight", "0"], "--max-weight"),
        # A tolerance of inf would pass every row, and nan or a negative
        # one would fail every row.
        (["level2", "verify", "oddzeta", "--tol", "inf"], "--tol"),
        (["level2", "verify", "oddzeta", "--tol", "nan"], "--tol"),
        (["level2", "verify", "oddzeta", "--tol", "-1"], "--tol"),
        (["verify-all", "--tol", "inf"], "--tol"),
        (["verify-all", "--tol", "nan"], "--tol"),
        (["verify-all", "--tol", "-0.5"], "--tol"),
        (["verify-all", "--tol", "tight"], "--tol"),
    ],
)
def test_a_range_with_no_check_is_a_usage_error(monkeypatch, argv, flag, capsys):
    # Rejected while parsing, before any check runs.
    ran = []
    monkeypatch.setattr(akzkit.verify, "verify_all", lambda **kw: ran.append(kw) or [])
    monkeypatch.setattr(akzkit.level2, "height_one_duality_check", lambda **kw: ran.append(kw) or [])
    monkeypatch.setattr(akzkit.level2, "psi_formula_crosscheck", lambda **kw: ran.append(kw) or [])
    monkeypatch.setattr(akzkit.level2, "odd_zeta_relation_check", lambda **kw: ran.append(kw) or [])
    assert run_command(argv) == 2
    assert flag in capsys.readouterr().err
    assert ran == []


def test_the_smallest_ranges_still_run_checks(capsys):
    assert run_command(["level2", "verify", "ht1", "--max", "1"]) == 0
    assert "total=1" in capsys.readouterr().out


def test_psi_value_output(capsys):
    assert run_command(["level2", "psi", "--r", "1", "--k", "2", "--at", "2"]) == 0
    assert capsys.readouterr().out.strip().startswith("3.044")


def test_divergent_value_exits_with_usage_code(capsys):
    assert run_command(["mzv", "--index", "2,1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage_code():
    assert run_command(["frobnicate"]) == 2


def test_missing_required_flag_exits_with_usage_code():
    assert run_command(["akzeta", "eta", "--index", "2,1"]) == 2


def test_level2_verify_target_exits_clean(capsys):
    assert run_command(["level2", "verify", "oddzeta"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "fail=0" in out


def test_json_reports_to_stdout(capsys):
    assert run_command(["level2", "verify", "oddzeta", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "akzkit-report/1"
    assert len(doc["reports"]) == 7
    statuses = {r["status"] for r in doc["reports"]}
    assert statuses == {"pass_numeric"}


def test_json_reports_to_file(tmp_path, capsys):
    target = tmp_path / "reports.json"
    assert run_command(["level2", "verify", "ht1", "--max", "2", "--json", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    assert doc["schema"] == "akzkit-report/1"
    assert all(r["status"] == "pass_numeric" for r in doc["reports"])


def test_an_unwritable_json_path_is_an_error_not_a_failure(tmp_path, monkeypatch, capsys):
    # Exit code 1 means a failing identity; this is not one.  The path is
    # checked while parsing, so no battery runs for a report that could
    # never be written.
    ran = []
    monkeypatch.setattr(akzkit.verify, "verify_all", lambda **kw: ran.append(kw) or [])
    monkeypatch.setattr(akzkit.level2, "odd_zeta_relation_check", lambda **kw: ran.append(kw) or [])
    (tmp_path / "a-file").write_text("")
    for command in (["verify-all"], ["level2", "verify", "oddzeta"]):
        for where in ("missing/reports.json", "a-file/reports.json", "."):
            argv = command + ["--json", str(tmp_path / where)]
            assert run_command(argv) == 2, argv
            assert "error:" in capsys.readouterr().err, argv
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]


def test_the_smallest_tolerance_is_accepted(capsys):
    assert run_command(["level2", "verify", "oddzeta", "--tol", "0"]) == 0
    assert "fail=0" in capsys.readouterr().out


def test_tval_both_normalizations(capsys):
    assert run_command(["tval", "--index", "2", "--digits", "12"]) == 0
    doubled = capsys.readouterr().out.strip()
    assert run_command(["tval", "--index", "2", "--t0", "--digits", "12"]) == 0
    halved = capsys.readouterr().out.strip()
    assert float(doubled) == pytest.approx(2 * float(halved))


def test_verify_all_rejects_a_bad_precision_before_any_check(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(akzkit.verify, "verify_all", lambda **kw: ran.append(kw) or [])
    assert run_command(["--prec-bits", "53", "verify-all"]) == 2
    assert "precision" in capsys.readouterr().err
    assert ran == []


def test_help_exits_zero():
    assert run_command(["--help"]) == 0
