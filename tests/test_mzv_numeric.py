"""Numeric evaluation with error bounds: zeta values, parity-restricted
sums, the polylogarithm near 1, and the deliberate-fault switch."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import akzkit
from akzkit import level2, mzv_numeric
from akzkit.index_algebra import dual, indices_up_to_weight, word
from akzkit.level2 import height_one_duality_check, psi_formula_crosscheck
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


# Below u = 1 the series in u; at and above it the series in q = e^(-u).
# Together they cover the range the psi quadrature uses: u from about
# 1e-26 (t near its upper end) to about 365 (t near 0), and twice that
# for 2u.  At the top the exponential series needs only two terms and q
# is below the fixed-point unit.
_NEAR_ONE_SERIES_U = ("1e-20", "1e-6", "1e-3", "0.05", "0.4", "0.77", "0.999", "0.999999")
_NEAR_ONE_EXP_U = ("1.0", "1.0001", "1.54", "2.0", "8.0", "30", "69.6", "365", "730")


def _polylog_reference(k, u, letter):
    # Li_k(q) at letter 1; the odd-n part Li_k(q) - 2^(-k) Li_k(q^2) at 2.
    q = mpmath.exp(-u)
    ref = mpmath.polylog(k, q)
    return ref if letter == 1 else ref - mpmath.polylog(k, q * q) / 2**k


def _within_polylog_bound(k, u, letter):
    # The reference carries twice the working precision and more, so its
    # own error is far below the bound under test.
    got = polylog_near_one(k, u, letter)
    with mpmath.workprec(2 * current_precision() + 64):
        return abs(got.value - _polylog_reference(k, u, letter)) <= got.error_bound


def test_polylog_near_one_series_side():
    for u in _NEAR_ONE_SERIES_U:
        for k in (2, 3, 4, 5):
            for letter in (1, 2):
                assert _within_polylog_bound(k, mpmath.mpf(u), letter), (k, u, letter)


def test_polylog_near_one_exponential_side():
    for u in _NEAR_ONE_EXP_U:
        for k in (2, 3, 4, 5):
            for letter in (1, 2):
                assert _within_polylog_bound(k, mpmath.mpf(u), letter), (k, u, letter)


def test_polylog_near_one_builds_its_table_once_per_k(monkeypatch):
    # One table per (k, letter).
    monkeypatch.setattr(mzv_numeric, "_near_one_tables", {})
    polylog_near_one(4, mpmath.mpf("0.5"), 1)
    polylog_near_one(4, mpmath.mpf("0.5"), 2)

    def forbidden(*args):
        raise AssertionError("the coefficient table was rebuilt")

    monkeypatch.setattr(mzv_numeric, "mzv", forbidden)
    monkeypatch.setattr(mzv_numeric, "zeta_nonpositive", forbidden)
    for letter in (1, 2):
        for u in ("1e-20", "0.01", "0.77", "1.3", "1.54", "5", "30"):
            assert _within_polylog_bound(4, mpmath.mpf(u), letter), (letter, u)
    assert list(mzv_numeric._near_one_tables) == [(4, 1), (4, 2)]


def test_polylog_near_one_rejects_an_unknown_letter():
    with pytest.raises(ValueError, match="letter must be 1 or 2"):
        polylog_near_one(2, mpmath.mpf("0.5"), 3)


def test_polylog_near_one_bounds_hold_at_64_bits():
    # The fixed-point width and the rounding count follow the precision,
    # so the bounds are checked again in a fresh process at the lowest one.
    # There the series in u would keep j <= 80 at letter 1 and 129 at
    # letter 2 for every k, so past k = 82 and 131 its dropped terms would
    # include zeta at a positive argument.  It keeps more terms as k grows
    # instead, so the bound holds on both sides of those k and far past.
    script = (
        "import mpmath\n"
        "from akzkit import configure\n"
        "from akzkit.mzv_numeric import polylog_near_one\n"
        "configure(64)\n"
        "for letter in (1, 2):\n"
        f"    for u in {_NEAR_ONE_SERIES_U + _NEAR_ONE_EXP_U!r}:\n"
        "        u = mpmath.mpf(u)\n"
        "        for k in (2, 3, 4, 5, 82, 83, 131, 132, 200):\n"
        "            got = polylog_near_one(k, u, letter)\n"
        "            with mpmath.workprec(2 * 64 + 64):\n"
        "                q = mpmath.exp(-u)\n"
        "                ref = mpmath.polylog(k, q)\n"
        "                if letter == 2:\n"
        "                    ref -= mpmath.polylog(k, q * q) / 2**k\n"
        "                assert abs(got.value - ref) <= got.error_bound, (k, u, letter)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(akzkit.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


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


def test_word_values_are_cached_on_the_exact_point(monkeypatch):
    # Two points that print alike at the working precision must not share
    # a cache entry.  The test session runs at the configured precision,
    # so both points are built at it.
    third = mpmath.mpf(1) / 3
    near = third + mpmath.ldexp(1, -current_precision())
    assert near != third and str(near) == str(third)
    monkeypatch.setattr(mzv_numeric, "_value_cache", {})
    cold = mpl_numeric((2,), near)
    monkeypatch.setattr(mzv_numeric, "_value_cache", {})
    at_third = mpl_numeric((2,), third)
    warm = mpl_numeric((2,), near)
    assert warm.value != at_third.value
    assert (warm.value, warm.error_bound) == (cold.value, cold.error_bound)


def _count_symbol_steps(monkeypatch) -> list:
    steps = []
    step = mzv_numeric._symbol_step

    def counting(coeffs, sym):
        steps.append(sym)
        return step(coeffs, sym)

    monkeypatch.setattr(mzv_numeric, "_symbol_step", counting)
    return steps


@pytest.mark.parametrize("evaluate", [mzv, t0_value], ids=["mzv", "t0_value"])
@pytest.mark.parametrize("k", [(2,), (1, 3), (2, 1, 3), (1, 1, 2, 3)])
def test_a_cold_path_split_builds_each_chain_once(monkeypatch, evaluate, k):
    # A word of length L has L suffixes and so does its swapped reverse;
    # built one word at a time they would cost about L^2 steps.  The two
    # words of one split share their innermost suffixes, which are built
    # once: (2, 1, 3) reads 11 distinct suffixes, not 12.
    steps = _count_symbol_steps(monkeypatch)
    monkeypatch.setattr(mzv_numeric, "_value_cache", {})
    monkeypatch.setattr(mzv_numeric, "_result_cache", {})
    evaluate(k)
    assert len(steps) == len(_suffixes_of_sweep([k]))


def _suffixes_of_sweep(indices) -> set:
    # Each path split reads every suffix of the index's word and of its
    # dual's word; the dual's word is the index's word for the dual.
    return {w[j:] for k in indices for w in (word(k), word(dual(k))) for j in range(len(w))}


def test_a_cold_duality_sweep_builds_each_suffix_once(monkeypatch):
    # Split by split, the weight-8 sweep rebuilt its chains in 896 steps.
    steps = _count_symbol_steps(monkeypatch)
    monkeypatch.setattr(mzv_numeric, "_value_cache", {})
    monkeypatch.setattr(mzv_numeric, "_result_cache", {})
    duality_numeric_check(max_weight=8)
    admissible_8 = [k for k in indices_up_to_weight(8) if k[-1] >= 2]
    assert len(steps) == len(_suffixes_of_sweep(admissible_8)) == 191
    steps.clear()
    height_one_duality_check()
    grid = [(1,) * (r - 1) + (k + 1,) for r in range(1, 5) for k in range(r, 5)]
    assert len(steps) == len(_suffixes_of_sweep(grid))


def test_a_cold_psi_crosscheck_builds_each_suffix_once(monkeypatch):
    # Split by split, the cold crosscheck rebuilt its chains in 516 steps.
    steps = _count_symbol_steps(monkeypatch)
    monkeypatch.setattr(mzv_numeric, "_value_cache", {})
    monkeypatch.setattr(mzv_numeric, "_result_cache", {})
    read = []

    def recording_t_value(k):
        value = t_value(k)  # a divergent index raises and reads nothing
        read.append(k)
        return value

    monkeypatch.setattr(level2, "t_value", recording_t_value)
    psi_formula_crosscheck()
    assert len(steps) == len(_suffixes_of_sweep(read)) == 114


def test_every_cached_word_value_is_the_value_of_that_word_alone(monkeypatch):
    monkeypatch.setattr(mzv_numeric, "_value_cache", {})
    monkeypatch.setattr(mzv_numeric, "_result_cache", {})
    duality_numeric_check(max_weight=7)
    height_one_duality_check()
    swept = dict(mzv_numeric._value_cache)
    points = {mpmath.mpf(point) for _, point in swept}
    assert points == {mpmath.mpf(1) / 2, mpmath.sqrt(2) - 1}
    assert len(swept) > 100
    for (w, point), (value, bound) in swept.items():
        mzv_numeric._value_cache.clear()
        alone, alone_bound = mzv_numeric._word_values((w,), mpmath.mpf(point))[w]
        assert (alone._mpf_, alone_bound._mpf_) == (value._mpf_, bound._mpf_), w


def test_fixed_point_floors_its_argument_for_either_sign():
    # The series x alone returns x floored to F bits, whichever way the
    # mantissa is shifted: exp + F below 0 (right) or not (left).
    for frac_bits in (8, 64, 300):
        series = mzv_numeric._FixedSeries.build([0, 1 << frac_bits], frac_bits)
        for man in (1, 3, 12345, -1, -3, -12345):
            for exp in (-320, -70, -9, -3, 0, 2):
                x = mpmath.ldexp(man, exp)
                value, _ = series.evaluate(x, 0, 2)
                floored = math.floor(Fraction(man) * Fraction(2) ** (exp + frac_bits))
                assert mpmath.ldexp(value, frac_bits) == floored, (frac_bits, man, exp)
                assert mzv_numeric._exact(x) == Fraction(man) * Fraction(2) ** exp


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert zeta_nonpositive(0) == Fraction(-1, 2)
    assert zeta_nonpositive(-1) == Fraction(-1, 12)
    assert zeta_nonpositive(-2) == 0
    assert zeta_nonpositive(-3) == Fraction(1, 120)


def test_bernoulli_numbers_in_any_order_match_mpmath(monkeypatch):
    # Start from an empty table so that each request may grow it, as far
    # as polylog_near_one's tables read (n = 284 at 256 bits) and past it.
    monkeypatch.setattr(mzv_numeric, "_bernoulli_table", [Fraction(1)])
    order = list(range(301))
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


@pytest.mark.parametrize("bits", [256.0, "256"])
def test_precision_must_be_an_int_of_at_least_64_bits(bits):
    with pytest.raises(ValueError, match="precision"):
        configure(bits)


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
