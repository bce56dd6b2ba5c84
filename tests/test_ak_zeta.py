"""The xi / eta interpolations: closed forms, specializations, and the
identity batteries at reduced ranges (full ranges run in the acceptance
suite)."""

import math
import os
import subprocess
import sys
import time

import pytest

import akzkit
from akzkit import ak_zeta
from akzkit.ak_zeta import (
    display_identities_check,
    eta_at_positive,
    eta_closed_nonpositive,
    eta_closed_vs_symbolic_check,
    eta_dual_pair_check,
    eta_nonpositive_value,
    eta_symmetry_check,
    eta_threeway_check,
    eta_value_formulas_check,
    etaxi_relation_check,
    landen_check,
    nonpositive_specialization_check,
    xi_at_positive,
    xi_depth1_enumeration_check,
    xi_explicit_family,
    xi_family_crosscheck,
    xi_nonpositive,
    xi_series_representation_check,
    xitilde_closed,
)
from akzkit.mzv_numeric import PoleError, _float64_rounding, mzv, zeta
from akzkit.pbn import poly_bernoulli_B, poly_bernoulli_C


def _agree(a, b, extra=0):
    return abs(a.value - b.value) <= a.error_bound + b.error_bound + extra


def test_depth_one_at_argument_one_is_plain_zeta():
    for k in (1, 2, 3, 5):
        assert _agree(xi_at_positive((k,), 1), zeta(k + 1))


def test_eta_at_one_one_is_zeta_two():
    assert _agree(eta_at_positive((1,), 1), zeta(2))


def test_xi_21_at_2_matches_its_zeta_expansion():
    lhs = xi_at_positive((2, 1), 2)
    rhs = (mzv((2, 3)) + mzv((3, 2))).scale(2)
    assert _agree(lhs, rhs)


def test_closed_dirichlet_strings():
    assert str(eta_closed_nonpositive((1,))) == "2^-s"
    assert str(eta_closed_nonpositive((2,))) == "-2^-s + 2*3^-s"
    assert str(xitilde_closed((2,))) == "-1 + 2*2^-s"


def test_closed_forms_specialize_to_the_numbers():
    # the depth-one closed form in s is the poly-Bernoulli number with
    # the roles of the two slots exchanged, at every integer argument
    for k in range(1, 7):
        closed = eta_closed_nonpositive((k,))
        for s in range(-6, 7):
            assert closed.evaluate_exact(s) == poly_bernoulli_B(k, s)


def test_nonpositive_values_are_poly_bernoulli():
    for k in range(1, 6):
        for m in range(0, 6):
            assert eta_nonpositive_value((k,), m) == poly_bernoulli_B(m, k)
            assert xi_nonpositive((k,), m) == (-1) ** m * poly_bernoulli_C(m, k)


def test_all_zero_index_has_no_dirichlet_tilde_form():
    with pytest.raises(ValueError):
        xitilde_closed((0,))


def test_family_route_matches_the_general_route():
    cases = [((2,), 2), ((3,), 2), ((1, 2), 2), ((2, 1), 3), ((1, 1, 2), 2)]
    for index, m in cases:
        assert _agree(xi_explicit_family(index, m), xi_at_positive(index, m)), index


def test_family_route_raises_where_a_constituent_diverges():
    with pytest.raises(PoleError):
        xi_explicit_family((1, 2), 1)


def test_unsupported_family_shape_is_rejected():
    with pytest.raises(ValueError):
        xi_explicit_family((3, 2), 2)


@pytest.mark.parametrize(
    "battery",
    [
        lambda: landen_check(max_weight=4, order=14),
        lambda: etaxi_relation_check(max_weight=4, m_values=(1, 2)),
        lambda: eta_symmetry_check(max_k=3, max_n=3),
        lambda: eta_value_formulas_check(max_k=3, max_m=3),
        lambda: eta_dual_pair_check(max_k=5, max_n=5),
        lambda: xi_depth1_enumeration_check(max_k=3, max_m=3),
        lambda: eta_closed_vs_symbolic_check(max_k=8),
        lambda: nonpositive_specialization_check(max_total=5, max_m=6),
        lambda: display_identities_check(),
    ],
    ids=[
        "landen",
        "reflections",
        "symmetry",
        "depth1-formula",
        "dual-pairs",
        "depth1-enumeration",
        "closed-vs-symbolic",
        "nonpositive",
        "displays",
    ],
)
def test_identity_batteries_pass(battery):
    reports = battery()
    assert reports
    for r in reports:
        assert not r.failed, r.one_line()


def test_family_crosscheck_covers_poles_and_passes():
    reports = xi_family_crosscheck()
    assert any(r.status == "skipped_pole" for r in reports)
    assert not any(r.failed for r in reports)


def test_series_oracle_batteries_pass_at_reduced_cutoff():
    reports = eta_threeway_check(pairs=((1, 1), (1, 2), (2, 2)), cutoff=200_000)
    reports += xi_series_representation_check(max_k=2, max_n=2, cutoff=200_000)
    for r in reports:
        assert not r.failed, r.one_line()


@pytest.mark.parametrize("oracle", [ak_zeta.eta_symmetric_oracle, ak_zeta.xi_series_oracle])
@pytest.mark.parametrize("k, n", [(1.5, 1), (1, 1.5), (1.5, 2), (True, True), (0, 1), (1, 0), ("1", 1)])
def test_series_oracles_reject_non_integer_or_small_orders(oracle, k, n):
    with pytest.raises(ValueError):
        oracle(k, n, cutoff=1000)


def test_symmetric_value_spot_check():
    # eta(1; 2) = eta(2; 1) = 2 zeta(3), both slots give the same number
    a = eta_at_positive((1,), 2)
    b = eta_at_positive((2,), 1)
    target = zeta(3).scale(2)
    assert _agree(a, target)
    assert _agree(b, target)


_SLEEP = 0.5


def test_threeway_charges_the_series_oracle_to_the_series_row(monkeypatch):
    # One pass serves every pair; it runs when the first series row is due.
    harmonic_sums = ak_zeta._harmonic_sums
    passes = []

    def slow_pass(terms, cutoff):
        passes.append(list(terms))
        time.sleep(_SLEEP)
        return harmonic_sums(terms, cutoff)

    monkeypatch.setattr(ak_zeta, "_harmonic_sums", slow_pass)
    swapped, series, swapped_2, series_2 = eta_threeway_check(pairs=((1, 1), (1, 2)), cutoff=10_000)
    assert swapped.parameters["legs"] == "star-combination-vs-swapped"
    assert series.parameters["legs"] == "star-combination-vs-series"
    assert swapped.elapsed_seconds < _SLEEP <= series.elapsed_seconds
    assert passes == [[(0, 0, 2), (0, 1, 2)]]
    assert max(swapped_2.elapsed_seconds, series_2.elapsed_seconds) < _SLEEP


def test_depth1_enumeration_charges_each_side_to_its_own_row(monkeypatch):
    # Both sides of the eta row call mzsv; every call belongs to that row.
    mzsv = ak_zeta.mzsv
    calls = []

    def slow_mzsv(k):
        calls.append(k)
        time.sleep(_SLEEP)
        return mzsv(k)

    monkeypatch.setattr(ak_zeta, "mzsv", slow_mzsv)
    xi_row, eta_row = xi_depth1_enumeration_check(max_k=1, max_m=1)
    assert xi_row.identity_id == "akzeta.xi-depth1-enumeration"
    assert eta_row.identity_id == "akzeta.eta-depth1-enumeration"
    assert len(calls) == 2
    assert xi_row.elapsed_seconds < _SLEEP
    assert eta_row.elapsed_seconds >= len(calls) * _SLEEP


def _plain_harmonic_terms(terms, cutoff):
    """Each c's terms G_a(c) G_b(c) / c^p of the harmonic-iterate sums,
    one c at a time, in Python floats."""
    g = [1.0, 0.0, 0.0, 0.0]
    for c in range(1, cutoff + 1):
        for j in range(1, len(g)):
            g[j] += g[j - 1] / c
        yield [g[a] * g[b] / c**p for a, b, p in terms]


def test_series_oracles_match_a_plain_loop_across_block_boundaries():
    cutoff = 70_000
    edge = ak_zeta._BLOCK + 1  # the first term of the second block
    assert edge < cutoff
    eta_pairs = ((1, 1), (2, 3), (4, 4))
    xi_pairs = ((1, 1), (2, 3), (3, 2))
    terms = [(k - 1, n - 1, 2) for k, n in eta_pairs] + [(n - 1, 0, k + 1) for k, n in xi_pairs]
    totals = [0.0] * len(terms)
    for c, row in enumerate(_plain_harmonic_terms(terms, cutoff), start=1):
        totals = [t + x for t, x in zip(totals, row)]
        if c == edge:
            edge_row = row
    oracles = [ak_zeta.eta_symmetric_oracle(k, n, cutoff) for k, n in eta_pairs]
    oracles += [ak_zeta.xi_series_oracle(k, n, cutoff) for k, n in xi_pairs]
    for (a, b, p), plain, oracle in zip(terms, totals, oracles):
        assert abs(float(oracle.value) - plain) <= _float64_rounding(plain, a + b + 2, cutoff)
    # Sharper at the boundary: the term the second block starts with is
    # counted once, with the carried G values, up to the rounding of the
    # totals it is read from.
    below = ak_zeta._harmonic_sums(terms, edge - 1)
    at = ak_zeta._harmonic_sums(terms, edge)
    for lo, hi, term in zip(below, at, edge_row):
        assert abs((hi - lo) - term) <= 1e-4 * term + 4 * math.ulp(hi)


def _run_fresh(script):
    """Run `script` in a fresh interpreter on this checkout's akzkit and
    require it to exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(akzkit.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_series_oracles_keep_no_table_of_the_cutoff_length():
    # Every threeway pair at the default cutoff, both oracles: one 1e6-long
    # float64 array is 8 MB, so growth under 16 MB means none is kept.
    script = (
        "import resource\n"
        "import numpy\n"
        "from akzkit.ak_zeta import _THREEWAY_PAIRS, eta_symmetric_oracle, xi_series_oracle\n"
        "eta_symmetric_oracle(1, 1, 10)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for k, n in _THREEWAY_PAIRS:\n"
        "    eta_symmetric_oracle(k, n)\n"
        "    xi_series_oracle(k, n)\n"
        "grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "assert grown_kb < 16 * 1024, grown_kb\n"
    )
    _run_fresh(script)


def test_series_oracle_rows_pass_on_their_bounds_alone():
    reports = eta_threeway_check(tolerance=0.0) + xi_series_representation_check(tolerance=0.0)
    assert len(reports) == 27
    for r in reports:
        assert not r.failed, r.one_line()
