"""Poly-Bernoulli numbers: sentinel values, dualities, and the oracles."""

import functools
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from akzkit import pbn
from akzkit.exact_series import TruncatedSeries, compose_one_minus_exp, mpl_coeffs
from akzkit.mzv_numeric import bernoulli_number
from akzkit.pbn import (
    B_symbolic,
    C_symbolic,
    bivariate_generating_check,
    congruence_check,
    duality_check_B,
    duality_check_C,
    finite_mzv_mod_p,
    multi_poly_bernoulli,
    multi_poly_bernoulli_brute,
    poly_bernoulli_B,
    poly_bernoulli_B_stirling,
    poly_bernoulli_C,
    poly_bernoulli_C_stirling,
    stirling_oracle_check,
)
from series_oracles import one_minus_exp

_SLEEP = 0.2


def test_first_column_sentinels():
    assert poly_bernoulli_B(1, 1) == Fraction(1, 2)
    assert poly_bernoulli_C(1, 1) == Fraction(-1, 2)
    assert poly_bernoulli_B(0, 5) == 1
    assert poly_bernoulli_C(0, 5) == 1


def test_negative_upper_index_values_are_the_lonesum_counts():
    # the symmetric table: rows n, columns k, both negated
    assert poly_bernoulli_B(1, -1) == 2
    assert poly_bernoulli_B(2, -2) == 14
    assert poly_bernoulli_B(3, -2) == 46
    assert poly_bernoulli_B(2, -3) == 46


def test_k_equal_one_collapses_to_classical_bernoulli():
    for n in range(13):
        expected = bernoulli_number(n)
        if n == 1:
            expected = -expected
        assert poly_bernoulli_B(n, 1) == expected


@given(st.integers(0, 10), st.integers(0, 10))
def test_symmetric_duality_for_B(n, k):
    assert poly_bernoulli_B(n, -k) == poly_bernoulli_B(k, -n)


@given(st.integers(0, 10), st.integers(0, 10))
def test_shifted_duality_for_C(n, k):
    assert poly_bernoulli_C(n, -k - 1) == poly_bernoulli_C(k, -n - 1)


def test_duality_check_batteries_pass_exactly():
    for reports in (duality_check_B(8, 8), duality_check_C(8, 8)):
        assert reports
        for r in reports:
            assert r.status == "pass_exact", r.one_line()


@given(st.integers(0, 14), st.integers(-6, 6))
@settings(deadline=None)
def test_stirling_sums_agree_with_the_generating_series(n, k):
    assert poly_bernoulli_B_stirling(n, k) == poly_bernoulli_B(n, k)
    assert poly_bernoulli_C_stirling(n, k) == poly_bernoulli_C(n, k)


def test_stirling_oracle_battery():
    reports = stirling_oracle_check(max_n=18, max_abs_k=5)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("kind", ["B", "C"])
@pytest.mark.parametrize(
    "index", [(2,), (-2,), (1, 2), (2, -1), (0, 1), (1, 1, 1), (2, 1, -2)]
)
def test_multi_index_series_matches_brute_force(kind, index):
    for n in range(9):
        assert multi_poly_bernoulli(n, index, kind) == multi_poly_bernoulli_brute(
            n, index, kind
        ), (kind, index, n)


def _stirling_rows(last: int) -> list[list[int]]:
    # S(n+1, m) = m S(n, m) + S(n, m-1), from S(0, 0) = 1.
    rows = [[1]]
    for n in range(last):
        prev = rows[-1] + [0]
        rows.append([m * prev[m] + (prev[m - 1] if m else 0) for m in range(n + 2)])
    return rows


_STIRLING = _stirling_rows(10)


def _tuple_sum(n, index, kind):
    # The brute-force sum written out in Fractions, term by term.
    total = Fraction(0)
    for ms in itertools.combinations(range(1, n + 2), len(index)):
        top = ms[-1]
        s = _STIRLING[n][top - 1] if kind == "B" else _STIRLING[n + 1][top]
        term = Fraction((-1) ** (n + top + 1) * math.factorial(top - 1) * s)
        for m, e in zip(ms, index):
            term *= Fraction(m) ** -e
        total += term
    return total


_BRUTE_INDICES = (
    [(e,) for e in range(-4, 5)]
    + list(itertools.product(range(-4, 5), repeat=2))
    + list(itertools.product((-4, -1, 0, 1, 3), repeat=3))
)


def test_brute_force_matches_the_tuple_sum_in_fractions():
    for index in _BRUTE_INDICES:
        for kind in ("B", "C"):
            for n in range(9):
                assert multi_poly_bernoulli_brute(n, index, kind) == _tuple_sum(n, index, kind), (
                    index,
                    kind,
                    n,
                )


def test_brute_force_uses_no_series_code(monkeypatch):
    cases = [(n, index, kind) for n in (0, 3, 8) for index in _BRUTE_INDICES[::7] for kind in "BC"]
    before = [multi_poly_bernoulli_brute(*case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the brute-force oracle called series code")

    for name in ("mpl_coeffs", "_OneMinusExpSums", "_families"):
        monkeypatch.setattr(pbn, name, forbidden)
    assert [multi_poly_bernoulli_brute(*case) for case in cases] == before


def test_multi_oracle_check_fails_on_a_nudged_brute_weight(monkeypatch):
    clean = pbn._brute_weights

    def nudged(n, index, kind):
        weights, denominator = clean(n, index, kind)
        weights[-1][-1] += 1
        return weights, denominator

    monkeypatch.setattr(pbn, "_brute_weights", nudged)
    reports = pbn.multi_oracle_check(max_depth=2, max_n=6)
    assert reports
    assert all(r.failed for r in reports)


def test_multi_index_depth_one_reduces_to_the_plain_numbers():
    for n in range(10):
        for k in range(-4, 5):
            assert multi_poly_bernoulli(n, (k,), "B") == poly_bernoulli_B(n, k)
            assert multi_poly_bernoulli(n, (k,), "C") == poly_bernoulli_C(n, k)


def test_symbolic_forms_print_as_dirichlet_polynomials():
    assert str(B_symbolic(1)) == "2^-s"
    assert str(B_symbolic(2)) == "-2^-s + 2*3^-s"
    assert str(C_symbolic(1)) == "-1 + 2^-s"


def test_symbolic_forms_evaluate_to_the_numbers():
    for n in range(1, 9):
        bsym = B_symbolic(n)
        csym = C_symbolic(n)
        for k in range(-5, 6):
            assert bsym.evaluate_exact(k) == poly_bernoulli_B(n, k)
            assert csym.evaluate_exact(k) == poly_bernoulli_C(n, k)


@pytest.mark.parametrize(
    "coeffs",
    [
        {1: Fraction(-3, 4), 2: Fraction(5, 6), 3: 0, 6: Fraction(7, 10), 9: Fraction(-1, 9)},
        {2: Fraction(1, 2), 4: Fraction(-1, 3), 5: 4},
        {},
    ],
    ids=["fractions", "mixed", "empty"],
)
def test_evaluate_exact_sums_in_ints_to_the_fraction_sum(coeffs):
    poly = pbn.DirichletPolynomial.from_dict(coeffs)
    for k in range(-6, 7):
        want = sum((Fraction(c) * Fraction(m) ** -k for m, c in coeffs.items()), Fraction(0))
        assert poly.evaluate_exact(k) == want, k


def test_bivariate_generating_function_rows():
    reports = bivariate_generating_check(max_n=7, max_k=7)
    assert reports
    assert all(r.passed for r in reports)


def test_bivariate_rows_carry_the_expansion_terms(monkeypatch):
    # Every expansion term is built before the first row; the rows must
    # still add up to the time the check spent on them.
    term = pbn._exp_power_coefficient
    calls = []

    def slow_term(j, n):
        calls.append((j, n))
        time.sleep(_SLEEP / 10)
        return term(j, n)

    monkeypatch.setattr(pbn, "_exp_power_coefficient", slow_term)
    started = time.perf_counter()
    reports = bivariate_generating_check(max_n=2, max_k=2)
    spent = time.perf_counter() - started
    assert all(r.passed for r in reports)
    assert len(calls) == 9
    # Each row's time is rounded to the microsecond.
    assert len(calls) * _SLEEP / 10 <= sum(r.elapsed_seconds for r in reports) <= spent + 1e-6 * len(reports)


def test_a_one_unit_fault_in_the_bivariate_side_fails_a_row(monkeypatch):
    term = pbn._exp_power_coefficient

    def faulty_term(j, n):
        return term(j, n) + 1 if (j, n) == (1, 3) else term(j, n)

    monkeypatch.setattr(pbn, "_exp_power_coefficient", faulty_term)
    failed = [r for r in bivariate_generating_check(max_n=4, max_k=4) if r.failed]
    assert failed
    assert {r.parameters["kind"] for r in failed} == {"B", "C"}


def test_finite_sum_congruence_battery():
    reports = congruence_check()
    assert any(r.status == "pass_exact" for r in reports)
    assert not any(r.failed for r in reports)
    # bad primes must be skipped, not silently compared
    for r in reports:
        assert r.status in ("pass_exact", "skipped_bad_prime"), r.one_line()


def test_finite_sum_mod_p_small_case_by_hand():
    # sum of 1/m over 0 < m < 5, inverses mod 5: 1 + 3 + 2 + 4 = 10 = 0
    assert finite_mzv_mod_p((1,), 5) == 0


def test_rejects_garbage_indices():
    with pytest.raises((ValueError, TypeError)):
        multi_poly_bernoulli(3, (), "B")
    with pytest.raises(ValueError):
        multi_poly_bernoulli(3, (1,), "Q")
    with pytest.raises((ValueError, TypeError)):
        poly_bernoulli_B(-1, 2)


def test_smaller_n_is_served_from_the_cached_series(monkeypatch):
    index = (3, -2, 1)
    high = multi_poly_bernoulli(100, index, "C")

    def no_build(*args, **kwargs):
        raise AssertionError("a number was computed again")
        yield

    monkeypatch.setattr(pbn, "mpl_coeffs", no_build)
    monkeypatch.setattr(pbn, "_OneMinusExpSums", no_build)
    monkeypatch.setattr(pbn._families(index)["C"], "sums", no_build())
    got = {n: multi_poly_bernoulli(n, index, "C") for n in range(100, -1, -1)}
    assert got[100] == high
    assert [got[n] for n in range(8)] == [multi_poly_bernoulli_brute(n, index, "C") for n in range(8)]


def test_both_kinds_of_an_index_share_one_coefficient_fetch(monkeypatch):
    index = (2, -1, 3)
    fetched = []

    def counting(exponents, cap):
        fetched.append(cap)
        return mpl_coeffs(exponents, cap)

    # A fresh cache, so that no earlier test has built these families.
    monkeypatch.setattr(pbn, "_families", functools.cache(pbn._families.__wrapped__))
    monkeypatch.setattr(pbn, "mpl_coeffs", counting)
    b = multi_poly_bernoulli(40, index, "B")
    # Row 41 needs a_0, ..., a_41: fetched at twice the length each time.
    assert fetched == [1, 2, 4, 8, 16, 32, 64]
    fetched.clear()
    c = multi_poly_bernoulli(40, index, "C")
    assert fetched == []
    assert (b, c) == (_divided_series(index, "B", 40)[40], _divided_series(index, "C", 40)[40])


@pytest.mark.parametrize(
    "fn, args",
    [
        (multi_poly_bernoulli, (True, (1,), "B")),
        (multi_poly_bernoulli_brute, (-1, (1,), "B")),
        (multi_poly_bernoulli_brute, (True, (1,), "B")),
        (multi_poly_bernoulli_brute, (2.0, (1,), "C")),
        (poly_bernoulli_B_stirling, (-1, 2)),
        (poly_bernoulli_C_stirling, (-2, 2)),
        (B_symbolic, (-3,)),
        (C_symbolic, (-1,)),
        (C_symbolic, (1.5,)),
    ],
)
def test_every_route_rejects_a_bad_n(fn, args):
    with pytest.raises(ValueError, match="n must be an integer >= 0"):
        fn(*args)


# The indices of the benchmark's poly-Bernoulli table.
_TABLE_INDICES = [(k,) for k in range(-3, 4)] + [(1, 2), (-1, -1), (2, -1), (1, 1, 1), (2, 1, -2)]


def _divided_series(index, kind, max_n):
    # The generating series by Fraction long division, as the numbers were
    # computed before the recurrence: numerator Li(1 - e^(-t))/t, divisor
    # (1 - e^(-t))/t for B and (e^t - 1)/t for C.
    cap = max_n + 1
    numer = compose_one_minus_exp(mpl_coeffs(index, cap), -1, cap)
    denom = one_minus_exp(-1, cap) if kind == "B" else one_minus_exp(1, cap).scale(-1)
    series = TruncatedSeries(numer.coeffs[1:]).divide(TruncatedSeries(denom.coeffs[1:]))
    return [c * math.factorial(n) for n, c in enumerate(series.coeffs)]


@pytest.mark.parametrize("kind", ["B", "C"])
def test_recurrence_matches_the_series_division(kind):
    for index in dict.fromkeys(pbn._multi_oracle_indices() + _TABLE_INDICES):
        got = [multi_poly_bernoulli(n, index, kind) for n in range(61)]
        assert got == _divided_series(index, kind, 60), index


@given(st.sampled_from(_TABLE_INDICES), st.permutations([(kind, n) for kind in "BC" for n in range(31)]))
@settings(deadline=None, max_examples=25)
def test_request_order_does_not_change_the_numbers(index, order):
    # Fresh families and coefficients, so the shuffled requests, both kinds
    # interleaved, decide how far the coefficients the two kinds share and
    # the rows of each grow at each step.
    shuffled = pbn._families.__wrapped__(index)
    got = {(kind, n): shuffled[kind].number(n) for kind, n in order}
    for kind in "BC":
        ascending = pbn._families.__wrapped__(index)[kind]
        assert [got[kind, n] for n in range(31)] == [ascending.number(n) for n in range(31)], kind
