"""Parity-level analogues: series structure, psi routes, quadrature."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import akzkit
from akzkit import ak_zeta, mzv_numeric
from akzkit.level2 import (
    ath_coeffs,
    ath_series_identities,
    height_one_duality_check,
    odd_zeta_relation_check,
    psi_at_positive,
    psi_depth1_integral,
    psi_depth1_integral_check,
    psi_formula_crosscheck,
    psi_alternating_form,
    t_binomial_identity_check,
)
from akzkit.mzv_numeric import EvalResult, PoleError, t0_value, t_value, zeta


def _agree(a, b, extra=0):
    return abs(a.value - b.value) <= a.error_bound + b.error_bound + extra


def test_parity_pattern_zeroes_coefficients():
    # depth two wants m_1 odd and m_2 even, so odd coefficients vanish
    series = ath_coeffs((1, 1), 10)
    for n in range(1, 11, 2):
        assert series.coeffs[n] == 0
    assert series.coeffs[4] == Fraction(1, 3)  # (1 + 1/3) / 4


def test_depth_one_coefficients_are_odd_reciprocal_powers():
    series = ath_coeffs((3,), 9)
    for n in range(10):
        expected = Fraction(1, n**3) if n % 2 == 1 else Fraction(0)
        assert series.coeffs[n] == expected


def test_series_identity_battery():
    reports = ath_series_identities()
    assert len(reports) > 20
    for r in reports:
        assert r.passed, r.one_line()


def test_psi_at_one_lifts_the_last_entry():
    assert _agree(psi_at_positive(1, 2, 1), t_value((3,)))
    assert _agree(psi_at_positive(3, 1, 1), t_value((1, 1, 2)))


def test_psi_at_two_by_hand():
    # r = 1, k = 2: the composition sum has two terms
    expected = t_value((2, 2)) + t_value((1, 3)).scale(2)
    assert _agree(psi_at_positive(1, 2, 2), expected)


def test_psi_rejects_bad_parameters():
    for bad in [(0, 2, 1), (1, 0, 1), (1, 2, 0), (1, 2, -3)]:
        with pytest.raises(ValueError):
            psi_at_positive(*bad)


def test_alternate_route_diverges_at_one_for_higher_k():
    with pytest.raises(PoleError):
        psi_alternating_form(2, 2, 1)


def test_the_two_psi_routes_agree():
    reports = psi_formula_crosscheck(max_r=2, max_k=2, m_values=(1, 2, 3))
    skipped = [r for r in reports if r.status == "skipped_pole"]
    assert skipped, "expected the m=1, k>=2 instances to be skipped"
    assert not any(r.failed for r in reports)


def _nudged(result):
    return EvalResult(result.value * (1 + mpmath.mpf("1e-6")), result.error_bound, result.method)


@pytest.mark.parametrize("helper", ["positive_terms", "height_one_alternating"])
def test_both_levels_catch_a_fault_in_a_shared_formula(helper, monkeypatch):
    # Each shared finite formula is one side of the xi crosscheck and one
    # side of the psi crosscheck, so a wrong value in it fails both.
    clean = getattr(ak_zeta, helper)

    def faulty(*args):
        out = clean(*args)
        return [_nudged(t) for t in out] if isinstance(out, list) else _nudged(out)

    holders = [
        module
        for name, module in sys.modules.items()
        if name.startswith("akzkit") and getattr(module, helper, None) is clean
    ]
    assert len(holders) >= 2
    for module in holders:
        monkeypatch.setattr(module, helper, faulty)
    assert any(r.failed for r in ak_zeta.xi_family_crosscheck())
    assert any(r.failed for r in psi_formula_crosscheck(max_r=2, max_k=2, m_values=(2,)))


@pytest.mark.parametrize("branch", ["series", "exp_series"])
def test_psi_check_fails_on_a_nudged_near_one_coefficient(branch, monkeypatch):
    # The leading coefficient of either fixed-point table of the level-two
    # polylogarithm near 1, off by one part in a million, must show in the
    # quadrature's row.
    table = mzv_numeric._near_one_table(2, 2)
    series = getattr(table, branch)
    coeffs = list(series.coeffs)
    coeffs[0] += coeffs[0] // 10**6
    nudged = dataclasses.replace(table, **{branch: dataclasses.replace(series, coeffs=tuple(coeffs))})
    monkeypatch.setitem(mzv_numeric._near_one_tables, (2, 2), nudged)
    reports = psi_depth1_integral_check(k_values=(2,), s_values=(1,))
    assert [r.status for r in reports] == ["fail"]


def test_height_one_duality_battery():
    reports = height_one_duality_check(max_rk=3)
    assert reports
    assert not any(r.failed for r in reports)


def test_binomial_identity_battery():
    reports = t_binomial_identity_check(m_values=(1, 2), r_values=(1,), k_values=(2,))
    ids = {r.identity_id for r in reports}
    assert "level2.oddeven-display" in ids
    for r in reports:
        assert r.passed, r.one_line()


def test_quadrature_reproduces_the_closed_value():
    got = psi_depth1_integral(2, 1)
    ref = t_value((3,))
    assert abs(got.value - ref.value) <= got.error_bound + ref.error_bound
    # the reported quadrature bound should be far below the comparison
    # tolerance used elsewhere
    assert got.error_bound < 1e-12


def test_quadrature_battery():
    reports = psi_depth1_integral_check(k_values=(2,), s_values=(1, 2))
    for r in reports:
        assert r.passed, r.one_line()


def test_quadrature_rows_pass_on_their_bounds_alone():
    reports = psi_depth1_integral_check(k_values=(2, 3), s_values=(1, 2), tolerance=0.0)
    assert len(reports) == 4
    assert not any(r.failed for r in reports), [r.one_line() for r in reports if r.failed]


@pytest.mark.parametrize("k", [2, 3])
def test_quadrature_at_one_lies_within_its_bound_of_zeta(k):
    # psi(k; 1) = T(k + 1) = 2 (1 - 2^(-(k+1))) zeta(k + 1).  The error
    # there is almost all discarded tail, so this pins the tail bound.
    got = psi_depth1_integral(k, 1)
    with mpmath.workprec(512):
        want = 2 * (1 - mpmath.mpf(2) ** -(k + 1)) * mpmath.zeta(k + 1)
        assert abs(got.value - want) <= got.error_bound


@pytest.mark.parametrize("k, s", [(2, 1), (3, 2)])
def test_quadrature_at_letter_one_is_xi(k, s):
    got = mzv_numeric._depth1_integral(k, s, 1)
    want = ak_zeta.xi_at_positive((k,), s)
    assert _agree(got, want)


def test_quadrature_rejects_divergent_parameters():
    with pytest.raises(ValueError):
        psi_depth1_integral(1, 1)
    with pytest.raises(ValueError):
        psi_depth1_integral(2, 0)


def test_odd_zeta_battery():
    reports = odd_zeta_relation_check()
    assert len(reports) == 7
    assert not any(r.failed for r in reports)


def test_odd_depth_one_value_directly():
    got = t0_value((3,))
    want = zeta(3).scale(Fraction(7, 8))
    assert _agree(got, want)
    assert abs(t0_value((2,)).value - mpmath.pi**2 / 8) < 1e-60


@pytest.mark.parametrize("check", ["psi_formula_crosscheck", "t_binomial_identity_check"])
def test_preloading_sweep_runs_first_in_a_fresh_process(check):
    # The T-value preload scales a stand-in value before any other
    # evaluator has run, with mpmath still at its default 53 bits; the
    # sweep must hold at the configured precision and leave 53 as it was.
    script = (
        "import mpmath\n"
        "from akzkit import current_precision, level2\n"
        "assert mpmath.mp.prec == 53, mpmath.mp.prec\n"
        f"reports = level2.{check}()\n"
        "assert mpmath.mp.prec == 53, mpmath.mp.prec\n"
        "assert current_precision() == 256, current_precision()\n"
        "assert any(r.passed for r in reports), len(reports)\n"
        "assert not any(r.failed for r in reports), [r.one_line() for r in reports if r.failed]\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(akzkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
