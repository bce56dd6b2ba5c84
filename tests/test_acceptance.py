"""Acceptance gate: nine criteria with pinned ranges, tolerances, and
wall-clock budgets.  Each prints one status line; run with -s to see them
as they pass."""

import time

from akzkit.ak_zeta import (
    display_identities_check,
    eta_closed_vs_symbolic_check,
    eta_symmetry_check,
    eta_threeway_check,
    etaxi_relation_check,
    landen_check,
    xi_family_crosscheck,
)
from akzkit.exact_series import negative_mpl_certificate_check
from akzkit.level2 import (
    height_one_duality_check,
    odd_zeta_relation_check,
    psi_depth1_integral_check,
    psi_formula_crosscheck,
    t_binomial_identity_check,
)
from akzkit.mzv_numeric import _perturbed, direct_oracle_check, duality_numeric_check
from akzkit.pbn import (
    bivariate_generating_check,
    congruence_check,
    duality_check_B,
    duality_check_C,
    multi_oracle_check,
    stirling_oracle_check,
)


def _finish(n, label, started, budget, reports):
    elapsed = time.time() - started
    bad = [r for r in reports if r.failed]
    assert not bad, (
        f"criterion {n}: {len(bad)} failing rows, first: {bad[0].one_line()}"
    )
    assert reports, f"criterion {n} produced no reports"
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"[{n}/9] {label}: PASS ({elapsed:.1f} s)")


def test_criterion_1_exact_dualities():
    started = time.time()
    reports = duality_check_B(12, 12) + duality_check_C(12, 12)
    for r in reports:
        assert r.status == "pass_exact", r.one_line()
    _finish(1, "exact B/C dualities to n=k=12", started, 5, reports)


def test_criterion_2_series_against_independent_oracles():
    started = time.time()
    reports = stirling_oracle_check(max_n=30, max_abs_k=8)
    reports += multi_oracle_check(max_depth=3, max_n=15)
    _finish(2, "Stirling and brute-force oracles", started, 30, reports)


def test_criterion_3_closed_eta_equals_symbolic_family():
    started = time.time()
    reports = eta_closed_vs_symbolic_check(max_k=10)
    for r in reports:
        assert r.status == "pass_exact", r.one_line()
    _finish(3, "negated-index eta closed forms to k=10", started, 5, reports)


def test_criterion_4_negative_polylog_certificates():
    started = time.time()
    reports = negative_mpl_certificate_check(max_total=10, taylor_cap=25)
    _finish(4, "negative-index polylogarithm certificates", started, 30, reports)


def test_criterion_5_landen_and_bivariate_series():
    started = time.time()
    reports = landen_check(max_weight=5, order=20)
    reports += bivariate_generating_check(max_n=10, max_k=10)
    _finish(5, "Landen refinement sums and bivariate series", started, 60, reports)


def test_criterion_6_numeric_zeta_battery():
    started = time.time()
    reports = duality_numeric_check(max_weight=8, tolerance=1e-8)
    reports += direct_oracle_check(tolerance=1e-8)
    reports += etaxi_relation_check(max_weight=5, m_values=(1, 2, 3), tolerance=1e-8)
    reports += eta_symmetry_check(max_k=4, max_n=4, tolerance=1e-8)
    reports += eta_threeway_check(tolerance=1e-4)
    reports += xi_family_crosscheck(tolerance=1e-8)
    reports += display_identities_check(tolerance=1e-8)
    _finish(6, "numeric interpolation battery at 1e-8", started, 600, reports)


def test_criterion_7_parity_level_battery():
    started = time.time()
    reports = height_one_duality_check(max_rk=4, tolerance=1e-8)
    reports += psi_formula_crosscheck(max_r=3, max_k=3, m_values=(1, 2, 3), tolerance=1e-8)
    reports += t_binomial_identity_check(
        m_values=(1, 2), r_values=(1, 2), k_values=(2, 3), tolerance=1e-8
    )
    reports += psi_depth1_integral_check(k_values=(2, 3), s_values=(1, 2), tolerance=1e-8)
    reports += odd_zeta_relation_check(tolerance=1e-8)
    _finish(7, "parity-level battery at 1e-8", started, 600, reports)


def test_criterion_8_finite_sum_congruences():
    started = time.time()
    reports = congruence_check(primes=(5, 7, 11, 13), max_weight=4)
    assert any(r.status == "pass_exact" for r in reports)
    for r in reports:
        assert r.status in ("pass_exact", "skipped_bad_prime"), r.one_line()
    _finish(8, "finite-sum congruences mod 5,7,11,13", started, 10, reports)


def test_criterion_9_perturbation_canary():
    started = time.time()
    with _perturbed():
        skewed = duality_numeric_check(max_weight=5, tolerance=1e-8)
        skewed += eta_symmetry_check(max_k=2, max_n=2, tolerance=1e-8)
    failures = [r for r in skewed if r.failed]
    assert failures, "the injected fault must break at least one identity"
    clean = duality_numeric_check(max_weight=5, tolerance=1e-8)
    elapsed = time.time() - started
    assert not any(r.failed for r in clean), "state must come back clean"
    assert elapsed < 60, f"criterion 9 took {elapsed:.1f}s, budget 60s"
    print(
        f"[9/9] perturbation canary trips {len(failures)} rows and resets:"
        f" PASS ({elapsed:.1f} s)"
    )
