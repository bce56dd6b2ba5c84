"""Exact power-series arithmetic and the closed rational forms built on it."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from akzkit import exact_series
from akzkit.exact_series import (
    RationalFunctionRep,
    TruncatedSeries,
    _ordered_bell_rows,
    compose_one_minus_exp,
    mpl_coeffs,
    negative_mpl,
    negative_mpl_certificate_check,
    stirling2,
)
from series_oracles import one_minus_exp, truncate

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=20)


def series(min_size=1, max_size=7):
    return st.lists(fractions, min_size=min_size, max_size=max_size).map(
        lambda cs: TruncatedSeries(tuple(cs))
    )


@given(series(), series())
def test_addition_and_subtraction_cancel(a, b):
    cap = min(a.cap, b.cap)
    assert ((a + b) - b).coeffs == truncate(a, cap).coeffs


@given(series(), series())
def test_multiplication_commutes(a, b):
    assert (a * b).coeffs == (b * a).coeffs


@given(series(max_size=5), series(max_size=5), series(max_size=5))
def test_multiplication_distributes_over_addition(a, b, c):
    cap = min(a.cap, b.cap, c.cap)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert truncate(lhs, cap).coeffs == truncate(rhs, cap).coeffs


@given(series(), series())
def test_divide_undoes_multiplication(a, b):
    if b.coeffs[0] == 0:
        b = b + TruncatedSeries.from_list([1], b.cap)
    cap = min(a.cap, b.cap)
    assert truncate((a * b).divide(b), cap).coeffs == truncate(a, cap).coeffs


def test_divide_requires_a_unit_constant_term():
    t = TruncatedSeries.from_list([0, 1], 4)
    with pytest.raises(ValueError):
        t.divide(TruncatedSeries.from_list([0, 1], 4))


def test_compose_substitutes_polynomials():
    # (1 + x)^2 at x = t + t^2:  1 + 2(t + t^2) + (t + t^2)^2
    outer = TruncatedSeries.from_list([1, 2, 1], 4)
    inner = TruncatedSeries.from_list([0, 1, 1], 4)
    assert outer.compose(inner).coeffs == (
        Fraction(1),
        Fraction(2),
        Fraction(3),
        Fraction(2),
        Fraction(1),
    )


def test_compose_rejects_nonzero_inner_constant():
    outer = TruncatedSeries.from_list([1, 1], 3)
    with pytest.raises(ValueError):
        outer.compose(TruncatedSeries.from_list([1, 1], 3))


@given(series(min_size=2))
def test_derivative_of_shift_recovers_leading_data(a):
    shifted = TruncatedSeries((Fraction(0),) + a.coeffs)
    assert shifted.derivative().coeffs[0] == a.coeffs[0]


def test_one_minus_exp_signs():
    plus = one_minus_exp(1, 5)   # 1 - e^t
    minus = one_minus_exp(-1, 5)  # 1 - e^-t
    assert plus.coeffs[0] == 0 and minus.coeffs[0] == 0
    assert plus.coeffs[1] == -1 and minus.coeffs[1] == 1
    assert plus.coeffs[2] == Fraction(-1, 2) and minus.coeffs[2] == Fraction(-1, 2)


def test_compose_one_minus_exp_agrees_with_generic_compose():
    for sign in (-1, 1):
        cap = 10
        a = TruncatedSeries.from_list([0, 1, Fraction(1, 4), Fraction(1, 9)], cap)
        direct = a.compose(one_minus_exp(sign, cap))
        assert compose_one_minus_exp(a, sign, cap).coeffs == direct.coeffs, sign
        # Dense outer series at the cap the poly-Bernoulli route uses, so
        # every coefficient a_1..a_cap enters the Stirling sum.
        cap = 40
        for exponents in ((3,), (-5,)):
            a = mpl_coeffs(exponents, cap)
            direct = a.compose(one_minus_exp(sign, cap))
            got = compose_one_minus_exp(a, sign, cap).coeffs
            assert got == direct.coeffs, (sign, exponents)


def test_ordered_bell_triangle_matches_stirling2():
    for n, row in enumerate(itertools.islice(_ordered_bell_rows(), 21)):
        assert row == [math.factorial(m) * stirling2(n, m) for m in range(n + 1)], n


def test_compose_one_minus_exp_does_not_use_stirling2(monkeypatch):
    def forbidden(*args):
        raise AssertionError("compose_one_minus_exp must not share stirling2")

    monkeypatch.setattr(exact_series, "stirling2", forbidden)
    monkeypatch.setattr(exact_series, "_stirling2", forbidden)
    a = mpl_coeffs((2,), 12)
    assert compose_one_minus_exp(a, -1, 12).coeffs == a.compose(one_minus_exp(-1, 12)).coeffs


def test_compose_one_minus_exp_rejects_bad_input():
    for sign in (0, 2):
        with pytest.raises(ValueError):
            compose_one_minus_exp(mpl_coeffs((2,), 6), sign, 6)
    with pytest.raises(ValueError):  # nonzero constant term
        compose_one_minus_exp(TruncatedSeries.from_list([1, 1], 6), -1, 6)
    with pytest.raises(ValueError):  # outer series known below the cap
        compose_one_minus_exp(mpl_coeffs((2,), 4), -1, 6)


def test_mpl_coeffs_depth_one_is_the_polylogarithm():
    got = mpl_coeffs((2,), 6).coeffs
    assert got == tuple(
        Fraction(0) if n == 0 else Fraction(1, n * n) for n in range(7)
    )


def test_mpl_coeffs_depth_two_against_a_nested_loop():
    cap = 12
    got = mpl_coeffs((1, 2), cap).coeffs
    for n in range(cap + 1):
        expected = sum(
            (Fraction(1, m1) * Fraction(1, n * n) for m1 in range(1, n)),
            Fraction(0),
        )
        assert got[n] == expected, f"coefficient {n}"


def test_mpl_coeffs_allows_zero_and_negative_exponents():
    got = mpl_coeffs((0, -1), 5).coeffs
    for n in range(2, 6):
        expected = sum(Fraction(n) for _ in range(1, n))
        assert got[n] == expected


def _mpl_reference(exponents, cap):
    # The nested sum one summation variable at a time, in Fractions:
    # h_i(m) = m^(-e_i) * sum over m' < m of h_(i-1)(m'), from h_0 = 1 at 0.
    h = [Fraction(1)] + [Fraction(0)] * cap
    for e in exponents:
        running = Fraction(0)
        nxt = [Fraction(0)]
        for m in range(1, cap + 1):
            running += h[m - 1]
            nxt.append(running / Fraction(m) ** e)
        h = nxt
    return tuple(h)


_MIXED_DEPTH_THREE = ((4, -3, 2), (-1, 3, -2), (2, 0, 1), (-3, -3, 4), (4, 4, 4), (-3, -3, -3), (0, -2, 0), (1, 1, 1))


@pytest.mark.parametrize("cap", [0, 1, 2, 7, 30])
def test_mpl_coeffs_matches_the_nested_sum_in_fractions(cap):
    exponents = range(-3, 5)
    indices = [(e,) for e in exponents] + list(itertools.product(exponents, repeat=2)) + list(_MIXED_DEPTH_THREE)
    for index in indices:
        got = mpl_coeffs(index, cap).coeffs
        assert got == _mpl_reference(index, cap), index
        assert all(type(c) is Fraction for c in got), index


def test_product_matches_the_schoolbook_product_in_fractions():
    # Unlike denominators, zero coefficients (leading, inner and trailing),
    # unlike caps, and an all-zero series.
    a = TruncatedSeries.from_list([Fraction(1, 3), 0, Fraction(-5, 6), Fraction(7, 10), 0, Fraction(2, 9)])
    b = TruncatedSeries.from_list([0, Fraction(4, 7), Fraction(-1, 8), 0, Fraction(3, 5)], cap=7)
    c = TruncatedSeries.from_list([2, -3, 0, 5, 1, 0, 0, 11])
    zero = TruncatedSeries.zero(4)
    for x, y in itertools.product((a, b, c, zero), repeat=2):
        cap = min(x.cap, y.cap)
        want = tuple(
            sum((x.coeffs[i] * y.coeffs[n - i] for i in range(n + 1)), Fraction(0)) for n in range(cap + 1)
        )
        got = (x * y).coeffs
        assert got == want, (x, y)
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("cap", [0, 2, 9])
def test_taylor_coefficients_of_a_fractional_numerator(cap):
    # Every certificate numerator is integral, so only a numerator like
    # this one exercises the common denominator.
    numerator = (Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 7), Fraction(-1, 12))
    for d in (0, 1, 2, 4):
        # Dividing by 1 - z is a running sum; do it d times.
        want = list(numerator[: cap + 1]) + [Fraction(0)] * (cap + 1 - len(numerator))
        for _ in range(d):
            want = list(itertools.accumulate(want))
        got = RationalFunctionRep(numerator, d).taylor_coefficients(cap).coeffs
        assert got == tuple(want), d
        assert all(type(v) is Fraction for v in got), d


def test_stirling2_small_table():
    table = {
        (0, 0): 1,
        (4, 2): 7,
        (5, 3): 25,
        (6, 3): 90,
        (7, 1): 1,
        (3, 5): 0,
    }
    for (n, m), v in table.items():
        assert stirling2(n, m) == v


@given(st.integers(1, 9), st.integers(1, 9))
def test_stirling2_recurrence(n, m):
    assert stirling2(n + 1, m) == m * stirling2(n, m) + stirling2(n, m - 1)


def test_rational_rep_taylor_matches_geometric_expansion():
    # z / (1 - z)^2 = sum n z^n
    rep = RationalFunctionRep((Fraction(0), Fraction(1)), 2)
    assert rep.taylor_coefficients(6).coeffs == tuple(Fraction(n) for n in range(7))


def test_rational_rep_with_no_pole_is_the_numerator():
    rep = RationalFunctionRep((Fraction(3), Fraction(-2)), 0)
    assert rep.taylor_coefficients(4).coeffs == (
        Fraction(3),
        Fraction(-2),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )


def test_negative_mpl_depth_one_closed_form():
    # all exponents zero: the sum over 0 < m_1 < ... < m_r of z^(m_r) with
    # multiplicity binom(m_r - 1, r - 1), so z^r / (1 - z)^r
    rep = negative_mpl((0, 0))
    assert rep.pole_order == 2
    assert rep.numerator == (Fraction(0), Fraction(0), Fraction(1))


@settings(deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_negative_mpl_taylor_always_matches_the_defining_sum(parts):
    parts = tuple(parts)
    rep = negative_mpl(parts)
    cap = 14
    assert rep.taylor_coefficients(cap).coeffs == mpl_coeffs(
        tuple(-p for p in parts), cap
    ).coeffs


def test_certificate_battery_is_clean():
    reports = negative_mpl_certificate_check(max_total=8, taylor_cap=20)
    assert reports, "expected at least one certified index"
    for r in reports:
        assert r.passed, r.one_line()
