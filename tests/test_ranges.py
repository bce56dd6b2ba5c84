"""Every range a check sweeps obeys one rule: a value below its floor, an
empty tuple, or a value the check cannot honour raises ValueError naming
the parameter, before any row is built.  At its floors each check still
compares every identity it reports.

The scan at the end keeps the table whole: every parameter of every
public check but `tolerance` has a refusal case here."""

import importlib
import inspect
import pkgutil

import pytest

import akzkit
from akzkit import ak_zeta, exact_series, level2, mzv_numeric, pbn, reports

# (check, parameter, the smallest refused value, or another value the
# check cannot honour).
REFUSALS = [
    (pbn.duality_check_B, "max_n", -1),
    (pbn.duality_check_B, "max_k", -1),
    (pbn.duality_check_C, "max_n", -1),
    (pbn.duality_check_C, "max_k", -1),
    (pbn.stirling_oracle_check, "max_n", -1),
    (pbn.stirling_oracle_check, "max_abs_k", -1),
    (pbn.multi_oracle_check, "max_depth", 0),
    (pbn.multi_oracle_check, "max_depth", -5),
    (pbn.multi_oracle_check, "max_depth", 4),
    (pbn.multi_oracle_check, "max_n", -1),
    (pbn.bivariate_generating_check, "max_n", -1),
    (pbn.bivariate_generating_check, "max_k", -1),
    (pbn.congruence_check, "primes", ()),
    (pbn.congruence_check, "primes", (1,)),
    (pbn.congruence_check, "primes", (5, 4)),
    (pbn.congruence_check, "max_weight", 0),
    (exact_series.negative_mpl_certificate_check, "max_total", 0),
    (exact_series.negative_mpl_certificate_check, "taylor_cap", 0),
    (ak_zeta.landen_check, "max_weight", 0),
    (ak_zeta.landen_check, "order", 0),
    (ak_zeta.etaxi_relation_check, "max_weight", 0),
    (ak_zeta.etaxi_relation_check, "m_values", ()),
    (ak_zeta.etaxi_relation_check, "m_values", (1, 0)),
    (ak_zeta.eta_value_formulas_check, "max_k", 0),
    (ak_zeta.eta_value_formulas_check, "max_m", 0),
    (ak_zeta.eta_symmetry_check, "max_k", 0),
    (ak_zeta.eta_symmetry_check, "max_n", 0),
    (ak_zeta.eta_threeway_check, "pairs", ()),
    (ak_zeta.eta_threeway_check, "pairs", ((1, 1), (0, 2))),
    (ak_zeta.eta_threeway_check, "cutoff", 0),
    (ak_zeta.eta_dual_pair_check, "max_k", -1),
    (ak_zeta.eta_dual_pair_check, "max_n", -1),
    (ak_zeta.xi_depth1_enumeration_check, "max_k", 0),
    (ak_zeta.xi_depth1_enumeration_check, "max_m", 0),
    (ak_zeta.xi_series_representation_check, "max_k", 0),
    (ak_zeta.xi_series_representation_check, "max_n", 0),
    (ak_zeta.xi_series_representation_check, "cutoff", 0),
    (ak_zeta.eta_closed_vs_symbolic_check, "max_k", -1),
    (ak_zeta.nonpositive_specialization_check, "max_total", 1),
    (ak_zeta.nonpositive_specialization_check, "max_m", -1),
    (level2.psi_formula_crosscheck, "max_r", 0),
    (level2.psi_formula_crosscheck, "max_k", 0),
    (level2.psi_formula_crosscheck, "m_values", ()),
    (level2.psi_formula_crosscheck, "m_values", (0,)),
    (level2.height_one_duality_check, "max_rk", 0),
    (level2.t_binomial_identity_check, "m_values", ()),
    (level2.t_binomial_identity_check, "m_values", (0,)),
    (level2.t_binomial_identity_check, "r_values", ()),
    (level2.t_binomial_identity_check, "r_values", (0,)),
    (level2.t_binomial_identity_check, "k_values", ()),
    (level2.t_binomial_identity_check, "k_values", (0,)),
    (level2.psi_depth1_integral_check, "k_values", ()),
    (level2.psi_depth1_integral_check, "k_values", (1,)),
    (level2.psi_depth1_integral_check, "s_values", ()),
    (level2.psi_depth1_integral_check, "s_values", (0,)),
    (mzv_numeric.duality_numeric_check, "max_weight", 1),
    (mzv_numeric.direct_oracle_check, "cutoff", 0),
]

# Each check at the floor of every range it takes.
FLOORS = {
    pbn.duality_check_B: {"max_n": 0, "max_k": 0},
    pbn.duality_check_C: {"max_n": 0, "max_k": 0},
    pbn.stirling_oracle_check: {"max_n": 0, "max_abs_k": 0},
    pbn.multi_oracle_check: {"max_depth": 1, "max_n": 0},
    pbn.bivariate_generating_check: {"max_n": 0, "max_k": 0},
    pbn.congruence_check: {"primes": (2,), "max_weight": 1},
    exact_series.negative_mpl_certificate_check: {"max_total": 1, "taylor_cap": 1},
    ak_zeta.landen_check: {"max_weight": 1, "order": 1},
    ak_zeta.etaxi_relation_check: {"max_weight": 1, "m_values": (1,)},
    ak_zeta.eta_value_formulas_check: {"max_k": 1, "max_m": 1},
    ak_zeta.eta_symmetry_check: {"max_k": 1, "max_n": 1},
    ak_zeta.eta_threeway_check: {"pairs": ((1, 1),), "cutoff": 1},
    ak_zeta.eta_dual_pair_check: {"max_k": 0, "max_n": 0},
    ak_zeta.xi_depth1_enumeration_check: {"max_k": 1, "max_m": 1},
    ak_zeta.xi_series_representation_check: {"max_k": 1, "max_n": 1, "cutoff": 1},
    ak_zeta.eta_closed_vs_symbolic_check: {"max_k": 0},
    ak_zeta.nonpositive_specialization_check: {"max_total": 2, "max_m": 0},
    level2.psi_formula_crosscheck: {"max_r": 1, "max_k": 1, "m_values": (1,)},
    level2.height_one_duality_check: {"max_rk": 1},
    level2.t_binomial_identity_check: {"m_values": (1,), "r_values": (1,), "k_values": (1,)},
    level2.psi_depth1_integral_check: {"k_values": (2,), "s_values": (1,)},
    mzv_numeric.duality_numeric_check: {"max_weight": 2},
    mzv_numeric.direct_oracle_check: {"cutoff": 1},
}


@pytest.mark.parametrize(
    "check, name, value", REFUSALS, ids=[f"{check.__name__}-{name}={value!r}" for check, name, value in REFUSALS]
)
def test_a_range_that_compares_nothing_is_refused_before_any_row(check, name, value, monkeypatch):
    def no_rows(*_, **__):
        raise AssertionError("a row was built")

    monkeypatch.setattr(reports.RowLog, "_add", no_rows)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        check(**{name: value})


@pytest.mark.parametrize("check", list(FLOORS), ids=lambda check: check.__name__)
def test_at_its_floors_a_check_compares_every_identity_it_reports(check):
    rows = check(**FLOORS[check])
    assert rows
    reported = {row.identity_id for row in rows}
    assert reported == {row.identity_id for row in rows if row.passed}


def _public_checks() -> list:
    modules = [importlib.import_module(f"akzkit.{m.name}") for m in pkgutil.iter_modules(akzkit.__path__)]
    return sorted(
        {
            getattr(module, name)
            for module in modules + [akzkit]
            for name in module.__all__
            # duality_check_B and duality_check_C end in their family.
            if "_check" in name or name.endswith(("_crosscheck", "_identities"))
        },
        key=lambda check: check.__name__,
    )


def test_every_parameter_of_every_public_check_has_a_refusal_case():
    checks = _public_checks()
    assert len(checks) == 27
    covered = {(check, name) for check, name, _ in REFUSALS}
    missing = [
        f"{check.__name__}({name})"
        for check in checks
        for name in inspect.signature(check).parameters
        if name != "tolerance" and (check, name) not in covered
    ]
    assert missing == []
    assert set(FLOORS) == {check for check, _ in covered}
