"""One entry point that runs every identity check in the package.

The task list is deterministic and runs in order, so two runs with the
same settings produce reports in the same order.
"""

from __future__ import annotations

from typing import Callable

from . import ak_zeta, level2, pbn
from .exact_series import negative_mpl_certificate_check
from .mzv_numeric import direct_oracle_check, duality_numeric_check, set_perturbation
from .reports import VerificationReport

__all__ = ["default_tasks", "verify_all"]

Task = tuple[str, Callable[[], list[VerificationReport]]]


def default_tasks(tolerance: float = 1e-8, max_weight: int = 8) -> list[Task]:
    """The full suite, grouped by module, at the tolerances and ranges the
    package commits to.  `max_weight` only widens or narrows the plain
    duality sweep; the other checks keep their documented ranges."""
    return [
        ("pbn.duality-B", lambda: pbn.duality_check_B()),
        ("pbn.duality-C", lambda: pbn.duality_check_C()),
        ("pbn.stirling-oracle", lambda: pbn.stirling_oracle_check()),
        ("pbn.multi-oracle", lambda: pbn.multi_oracle_check()),
        ("pbn.bivariate", lambda: pbn.bivariate_generating_check()),
        ("pbn.congruence", lambda: pbn.congruence_check()),
        ("series.certificates", lambda: negative_mpl_certificate_check()),
        ("akzeta.landen", lambda: ak_zeta.landen_check()),
        (
            "mzv.duality",
            lambda: duality_numeric_check(max_weight=max_weight, tolerance=tolerance),
        ),
        ("mzv.direct-oracles", lambda: direct_oracle_check(tolerance=tolerance)),
        ("akzeta.reflections", lambda: ak_zeta.etaxi_relation_check(tolerance=tolerance)),
        ("akzeta.symmetry", lambda: ak_zeta.eta_symmetry_check(tolerance=tolerance)),
        ("akzeta.threeway", lambda: ak_zeta.eta_threeway_check()),
        (
            "akzeta.depth1-formula",
            lambda: ak_zeta.eta_value_formulas_check(tolerance=tolerance),
        ),
        ("akzeta.dual-pairs", lambda: ak_zeta.eta_dual_pair_check()),
        (
            "akzeta.depth1-enumeration",
            lambda: ak_zeta.xi_depth1_enumeration_check(tolerance=tolerance),
        ),
        ("akzeta.series-representation", lambda: ak_zeta.xi_series_representation_check()),
        ("akzeta.family-crosscheck", lambda: ak_zeta.xi_family_crosscheck(tolerance=tolerance)),
        ("akzeta.closed-vs-symbolic", lambda: ak_zeta.eta_closed_vs_symbolic_check()),
        (
            "akzeta.nonpositive-specialization",
            lambda: ak_zeta.nonpositive_specialization_check(),
        ),
        ("akzeta.displays", lambda: ak_zeta.display_identities_check(tolerance=tolerance)),
        ("level2.ath-series", lambda: level2.ath_series_identities()),
        ("level2.ht1-duality", lambda: level2.height_one_duality_check(tolerance=tolerance)),
        ("level2.psi-crosscheck", lambda: level2.psi_formula_crosscheck(tolerance=tolerance)),
        ("level2.t-binomial", lambda: level2.t_binomial_identity_check(tolerance=tolerance)),
        ("level2.psi-integral", lambda: level2.psi_depth1_integral_check(tolerance=tolerance)),
        ("level2.odd-zeta", lambda: level2.odd_zeta_relation_check(tolerance=tolerance)),
    ]


def verify_all(
    jobs: int = 1,
    tolerance: float = 1e-8,
    max_weight: int = 8,
    inject_perturbation: bool = False,
) -> list[VerificationReport]:
    """Run the whole battery and return the reports in task order.

    Tasks run one after another whatever `jobs` says (it must still be at
    least 1): they spend their time in mpmath and Fraction arithmetic,
    which hold the interpreter lock, and a thread pool measured no faster
    than a serial run.  `inject_perturbation` flips the deliberate-fault
    switch for the duration of the run so a caller can confirm the checks
    have teeth.  The precision is whatever `mzv_numeric.configure` last
    set (256 bits by default).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    tasks = default_tasks(tolerance=tolerance, max_weight=max_weight)
    set_perturbation(inject_perturbation)
    merged: list[VerificationReport] = []
    try:
        for _, fn in tasks:
            merged.extend(fn())
    finally:
        set_perturbation(False)
    return merged
