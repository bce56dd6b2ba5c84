"""Numeric evaluation with error bounds: zeta values, parity-restricted
sums, the polylogarithm near 1, and the deliberate-fault switch."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from akzkit import mzv_numeric
from akzkit.index_algebra import dual
from akzkit.mzv_numeric import (
    EvalResult,
    PoleError,
    bernoulli_number,
    configure,
    current_precision,
    direct_oracle_check,
    duality_numeric_check,
    exact_result,
    mpl_numeric,
    mzv,
    mzv_direct,
    mzsv,
    polylog_near_one,
    set_perturbation,
    t0_direct,
    t0_value,
    t_value,
    zeta,
    zeta_nonpositive,
)

admissible = st.tuples(
    st.lists(st.integers(1, 3), max_size=3).map(tuple), st.integers(2, 4)
).map(lambda pair: pair[0] + (pair[1],))


def _close(a, b, extra=0):
    return abs(a.value - b.value) <= a.error_bound + b.error_bound + extra


def test_zeta_two_is_pi_squared_over_six():
    got = zeta(2)
    assert abs(got.value - mpmath.pi**2 / 6) <= got.error_bound + mpmath.mpf(2) ** -200


def test_euler_sum_identity():
    # the oldest depth-two evaluation there is
    assert _close(mzv((1, 2)), zeta(3))


def test_weight_four_products():
    z2, z4 = zeta(2), zeta(4)
    lhs = mzv((2, 2))
    rhs = (z2 * z2 - z4).scale(Fraction(1, 2))
    assert _close(lhs, rhs)


def test_star_value_adds_the_diagonal():
    # coarsening (1,2) merges into (3), so the star value is zeta(3) twice
    assert _close(mzsv((1, 2)), zeta(3).scale(2))


@given(admissible)
@settings(deadline=None, max_examples=25)
def test_duality_holds_within_reported_bounds(k):
    a = mzv(k)
    b = mzv(dual(k))
    assert abs(a.value - b.value) <= a.error_bound + b.error_bound


@given(admissible)
@settings(deadline=None, max_examples=25)
def test_star_dominates_the_plain_value(k):
    assert mzsv(k).value >= mzv(k).value - 1e-50


def test_parity_restricted_depth_one():
    got = t0_value((2,))
    assert abs(got.value - mpmath.pi**2 / 8) <= got.error_bound + mpmath.mpf(2) ** -200


def test_t_is_t0_scaled_by_two_per_slot():
    for k in [(2,), (1, 2), (2, 3), (1, 1, 2)]:
        assert t_value(k).value == t0_value(k).value * 2 ** len(k)


def test_direct_summation_crosschecks():
    for k in [(2,), (1, 2), (2, 2)]:
        fast = mzv(k)
        slow = mzv_direct(k, cutoff=20_000)
        assert _close(fast, slow), k
    slow = t0_direct((1, 2), cutoff=20_000)
    assert _close(t0_value((1, 2)), slow)


def test_direct_oracle_battery():
    reports = direct_oracle_check(cutoff=30_000)
    assert reports
    for r in reports:
        assert r.passed, r.one_line()


def test_duality_battery_small():
    reports = duality_numeric_check(max_weight=6)
    assert reports
    assert not any(r.failed for r in reports)


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta(1),
        lambda: zeta(0),
        lambda: mzv((2, 1)),
        lambda: mzv((1,)),
        lambda: mzsv((1, 1)),
        lambda: t0_value((1,)),
        lambda: t_value((2, 1)),
    ],
)
def test_divergent_inputs_raise_pole_error(call):
    with pytest.raises(PoleError):
        call()


def test_polylog_near_one_series_side():
    for u in (1e-6, 0.05, 0.4, 0.999, 0.999999):
        for k in (2, 3, 4, 5):
            got = polylog_near_one(k, mpmath.mpf(u))
            ref = mpmath.polylog(k, mpmath.e ** mpmath.mpf(-u))
            assert abs(got.value - ref) <= got.error_bound + mpmath.mpf(2) ** -180


def test_polylog_near_one_exponential_side():
    for u in (1.0, 1.0001, 2.0, 8.0):
        for k in (2, 3, 4, 5):
            got = polylog_near_one(k, mpmath.mpf(u))
            ref = mpmath.polylog(k, mpmath.e ** mpmath.mpf(-u))
            assert abs(got.value - ref) <= got.error_bound + mpmath.mpf(2) ** -180


def test_polylog_near_one_builds_its_table_once_per_k(monkeypatch):
    monkeypatch.setattr(mzv_numeric, "_near_one_tables", {})
    polylog_near_one(4, mpmath.mpf("0.5"))

    def forbidden(*args):
        raise AssertionError("the coefficient table was rebuilt")

    monkeypatch.setattr(mzv_numeric, "mzv", forbidden)
    monkeypatch.setattr(mzv_numeric, "zeta_nonpositive", forbidden)
    for u in ("0.01", "0.77", "1.3", "5"):
        got = polylog_near_one(4, mpmath.mpf(u))
        ref = mpmath.polylog(4, mpmath.e ** -mpmath.mpf(u))
        assert abs(got.value - ref) <= got.error_bound + mpmath.mpf(2) ** -180
    assert list(mzv_numeric._near_one_tables) == [4]


def test_nan_arguments_raise_value_error():
    with pytest.raises(ValueError, match="u must be positive"):
        polylog_near_one(2, float("nan"))
    with pytest.raises(ValueError, match=r"\|z\| <= 0.95"):
        mpl_numeric((2,), float("nan"))


def test_small_polylog_values():
    got = mpl_numeric((2,), mpmath.mpf("0.5"))
    ref = mpmath.polylog(2, mpmath.mpf("0.5"))
    assert abs(got.value - ref) <= got.error_bound + mpmath.mpf(2) ** -200
    with pytest.raises(ValueError):
        mpl_numeric((2,), 0.99)


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert zeta_nonpositive(0) == Fraction(-1, 2)
    assert zeta_nonpositive(-1) == Fraction(-1, 12)
    assert zeta_nonpositive(-2) == 0
    assert zeta_nonpositive(-3) == Fraction(1, 120)


def test_bernoulli_numbers_in_any_order_match_mpmath(monkeypatch):
    # Start from an empty table so that each request may grow it.
    monkeypatch.setattr(mzv_numeric, "_bernoulli_table", [Fraction(1)])
    order = list(range(90))
    random.Random(7).shuffle(order)
    for n in order:
        assert bernoulli_number(n) == Fraction(*mpmath.bernfrac(n)), n
    assert bernoulli_number(1) == Fraction(-1, 2)


def test_result_arithmetic_propagates_bounds():
    a = EvalResult(mpmath.mpf(2), mpmath.mpf("1e-20"), "test")
    b = EvalResult(mpmath.mpf(-3), mpmath.mpf("1e-22"), "test")
    assert (a + b).value == -1
    assert (a + b).error_bound >= a.error_bound + b.error_bound
    prod = a * b
    assert prod.value == -6
    assert prod.error_bound >= 3 * a.error_bound + 2 * b.error_bound
    scaled = a.scale(Fraction(1, 2))
    assert scaled.value == 1
    # halved bound plus the representation smear of the new value
    assert a.error_bound / 2 <= scaled.error_bound <= a.error_bound


def test_exact_result_smears_no_more_than_advertised():
    r = exact_result(Fraction(1, 3))
    assert abs(r.value - mpmath.mpf(1) / 3) <= r.error_bound
    assert r.error_bound < mpmath.mpf(2) ** -(current_precision() - 42)


def test_precision_is_locked_after_first_use():
    zeta(2)  # force activation
    configure(current_precision())  # re-stating the same precision is fine
    with pytest.raises(RuntimeError):
        configure(current_precision() + 64)


def test_perturbation_switch_breaks_and_restores_one_value():
    clean = mzv((1, 2)).value
    set_perturbation(True)
    try:
        skew = mzv((1, 2))
        assert abs(skew.value - clean) > 1e-7
        assert "nudge" in skew.method
    finally:
        set_perturbation(False)
    assert mzv((1, 2)).value == clean
