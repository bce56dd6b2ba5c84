"""Level-two analogues: parity-restricted sums, T values, and psi.

The level-two polylogarithm attaches the parity pattern m_i = i mod 2 to
the summation variables; at z = 1 it gives the parity-restricted zeta
values whose 2^depth multiples are written T here.  psi(k; s) is the
interpolation with the hyperbolic kernel

    psi(k; s) = 2^depth / Gamma(s) * integral of
                t^(s-1) * Ath(k; tanh(t/2)) / sinh(t)  over t > 0,

where Ath(k; z) is that polylogarithm.  The module evaluates psi on the
height-one family two independent ways, checks the binomial-sum identity
mixing the (m, r) parameters, the height-one duality, the depth-one
product expression for odd-argument zeta, and the integral
representation itself by direct quadrature.

At depth one the quadrature runs in the self-inverse variable
u = w(t) = -log tanh(t/2), in which the integral reads

    psi(k; s) = 2 / Gamma(s) * integral of
                w(u)^(s-1) * Ath_k(e^(-u))  over u > 0,

cut at u = 60.  The discarded range is bounded through w(u) <= c e^(-u)
and Ath_k(e^(-u)) <= e^(-u) / (1 - e^(-120)), c = 2 / (1 - e^(-120)),
and the polylogarithm's own error bounds through the integral of
w^(s-1); only the tanh-sinh rule's error is an estimate
(psi_depth1_integral).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

from .ak_zeta import height_one_alternating, positive_terms
from .exact_series import TruncatedSeries, mpl_coeffs
from .index_algebra import compositions, indices_up_to_weight, require_index, require_int
from .mzv_numeric import (
    EvalResult,
    PoleError,
    _depth1_integral,
    _path_splits,
    _require_admissible,
    bernoulli_number,
    sum_results,
    t0_value,
    t_value,
    zeta,
)
from .reports import SKIPPED_POLE, RowLog, VerificationReport

__all__ = [
    "ath_coeffs",
    "ath_series_identities",
    "psi_at_positive",
    "psi_alternating_form",
    "psi_depth1_integral",
    "psi_formula_crosscheck",
    "height_one_duality_check",
    "t_binomial_identity_check",
    "psi_depth1_integral_check",
    "odd_zeta_relation_check",
]

_ZERO = Fraction(0)


def ath_coeffs(k, cap: int) -> TruncatedSeries:
    """Taylor coefficients of the level-two polylogarithm: the sum of
    z^{m_r} / (m_1^{k_1} ... m_r^{k_r}) over 0 < m_1 < ... < m_r with
    m_i = i mod 2.

    >>> ath_coeffs((1,), 5).coeffs[3]
    Fraction(1, 3)
    >>> ath_coeffs((1, 1), 6).coeffs[4]
    Fraction(1, 3)
    """
    parts = require_index(k)
    require_int(cap, "cap", 0)
    h = [_ZERO] * (cap + 1)
    for m in range(1, cap + 1, 2):
        h[m] = Fraction(1, m ** parts[0])
    for pos, e in enumerate(parts[1:], start=2):
        running = _ZERO
        nxt = [_ZERO] * (cap + 1)
        for m in range(1, cap + 1):
            running += h[m - 1]
            if m % 2 == pos % 2:
                nxt[m] = Fraction(1, m**e) * running
        h = nxt
    return TruncatedSeries(tuple(h))


def _arctanh_series(cap: int) -> TruncatedSeries:
    return TruncatedSeries(
        tuple(Fraction(1, n) if n % 2 == 1 else _ZERO for n in range(cap + 1))
    )


def ath_series_identities(cap: int = 32) -> list[VerificationReport]:
    """Exact structural facts about the level-two polylogarithm:

    * depth one splits off the even part: Ath_k(z) = Li_k(z) - 2^(-k) Li_k(z^2);
    * the all-ones index is a pure power: Ath(1,...,1; z) = arctanh(z)^r / r!;
    * one derivative strips the innermost integration, against dt/t when
      the last part exceeds 1 and against dt/(1-t^2) when it equals 1;
    * composing with tanh gives the identity series (arctanh(tanh t) = t).
    """
    log = RowLog()
    for k in range(1, 9):
        li = mpl_coeffs((k,), cap)
        squared = [_ZERO] * (cap + 1)
        for n in range(0, cap + 1, 2):
            squared[n] = li.coeffs[n // 2] * Fraction(1, 2**k)
        rhs = li - TruncatedSeries(tuple(squared))
        log.exact(
            "level2.ath-even-part-split",
            {"k": k, "cap": cap},
            lhs="ath-coefficients",
            rhs="li-minus-even-part",
            equal=ath_coeffs((k,), cap).coeffs == rhs.coeffs,
        )
    for r in range(1, 7):
        power = TruncatedSeries.from_list([1], cap)
        at = _arctanh_series(cap)
        for _ in range(r):
            power = power * at
        power = power.scale(Fraction(1, math.factorial(r)))
        log.exact(
            "level2.ath-all-ones-power",
            {"r": r, "cap": cap},
            lhs="ath-coefficients",
            rhs="arctanh-power",
            equal=ath_coeffs((1,) * r, cap).coeffs == power.coeffs,
        )
    for k in indices_up_to_weight(6):
        if len(k) == 1 and k[0] == 1:
            continue
        series = ath_coeffs(k, cap)
        deriv = series.derivative()
        if k[-1] >= 2:
            lowered = k[:-1] + (k[-1] - 1,)
            # z * d/dz reproduces the series with the last exponent lowered.
            shifted = TruncatedSeries((_ZERO,) + deriv.coeffs)
            ok = shifted.coeffs == ath_coeffs(lowered, cap).coeffs
            case = "dt/t"
        else:
            one_minus_sq = TruncatedSeries.from_list([1, 0, -1], cap - 1)
            ok = (deriv * one_minus_sq).coeffs == ath_coeffs(k[:-1], cap - 1).coeffs
            case = "dt/(1-t^2)"
        log.exact(
            "level2.ath-derivative-recursion",
            {"index": k, "case": case},
            lhs="derivative",
            rhs="lowered-index",
            equal=ok,
        )
    small = 24
    # tanh t = sum_n 2^(2n) (2^(2n) - 1) B_(2n) t^(2n-1) / (2n)!, so the row
    # also checks the Bernoulli numbers that polylog_near_one reads.
    tanh = [_ZERO] * (small + 1)
    for n in range(1, small // 2 + 1):
        tanh[2 * n - 1] = 4**n * (4**n - 1) * bernoulli_number(2 * n) / math.factorial(2 * n)
    composed = _arctanh_series(small).compose(TruncatedSeries(tuple(tanh)))
    identity = TruncatedSeries.from_list([0, 1], small)
    log.exact(
        "level2.arctanh-tanh-identity",
        {"cap": small},
        lhs="arctanh(tanh t)",
        rhs="t",
        equal=composed.coeffs == identity.coeffs,
    )
    return log.rows


def _height_one(r: int, k: int) -> tuple[int, ...]:
    return (1,) * (r - 1) + (k,)


def psi_at_positive(r: int, k: int, m: int) -> EvalResult:
    """psi on the height-one index (1^(r-1), k) at an integer m >= 1.

    At m = 1 the value is a single T value with the last part raised; for
    m >= 2 it is the pole-free binomial combination

        sum over compositions a of m-1 into k parts of
        C(a_k + r, r) * T(a_1 + 1, ..., a_(k-1) + 1, a_k + r + 1),

    which is xi's finite formula (ak_zeta.positive_terms) with T values.
    """
    require_int(r, "r", 1)
    require_int(k, "k", 1)
    require_int(m, "m", 1)
    return _psi_positive(r, k, m, t_value)


def _psi_positive(r: int, k: int, m: int, value) -> EvalResult:
    if m == 1:
        return value(_height_one(r, k + 1))
    return sum_results(positive_terms(_height_one(r, k), m, value), "binomial-T-combination")


def psi_alternating_form(r: int, k: int, m: int) -> EvalResult:
    """The alternative expression for the same height-one value:

        (-1)^(k-1) * sum over compositions a of r into k parts of
        C(m + a_k - 1, a_k) * T(a_1 + 1, ..., a_(k-1) + 1, a_k + m)
        + sum_{j=0}^{k-2} (-1)^j T(1^(r-1), k-j) * T(1^j, m),

    xi's height-one closed form (ak_zeta.height_one_alternating) with T
    values.  Divergent constituents (m = 1 with k >= 2) raise PoleError.
    """
    require_int(r, "r", 1)
    require_int(k, "k", 1)
    return height_one_alternating(r, k, m, t_value, "alternate-T-combination")


def _preload_t_values(formulas) -> None:
    """Evaluate, from one walk over their words, the T values that
    `formulas` read, so that a sweep over them builds each shared suffix
    once.

    Each formula takes the function it reads T (or T0) values with.  It
    runs here first with a stand-in that only records the index it is
    asked for and, like t_value, raises PoleError on a divergent one, so
    the indices come from the formulas themselves."""
    indices = []
    stand_in = EvalResult(mpmath.mpf(0), mpmath.mpf(0), "stand-in")

    def record(k) -> EvalResult:
        indices.append(_require_admissible(k))
        return stand_in

    for formula in formulas:
        try:
            formula(record)
        except PoleError:
            pass
    _path_splits(indices, 2)


def _psi_sides(r: int, k: int, m: int, value) -> tuple[EvalResult, EvalResult]:
    # The alternate route goes first: where it meets a divergent value it
    # raises PoleError before the positive one is evaluated.
    alt = height_one_alternating(r, k, m, value, "alternate-T-combination")
    return _psi_positive(r, k, m, value), alt


def psi_formula_crosscheck(
    max_r: int = 3, max_k: int = 3, m_values: tuple[int, ...] = (1, 2, 3), tolerance: float = 1e-8
) -> list[VerificationReport]:
    """The two closed expressions for height-one psi against each other.
    Instances whose alternate route hits a divergent T value are reported
    as skipped."""
    for m in m_values:
        require_int(m, "m", 1)
    log = RowLog()
    grid = [(r, k, m) for r in range(1, max_r + 1) for k in range(1, max_k + 1) for m in m_values]
    _preload_t_values(functools.partial(_psi_sides, r, k, m) for r, k, m in grid)
    for r, k, m in grid:
        try:
            psi, alt = _psi_sides(r, k, m, t_value)
        except PoleError as exc:
            log.skip("level2.psi-family-crosscheck", {"r": r, "k": k, "m": m}, SKIPPED_POLE, str(exc))
            continue
        log.numeric("level2.psi-family-crosscheck", {"r": r, "k": k, "m": m}, psi, alt, tolerance)
    return log.rows


def height_one_duality_check(max_rk: int = 4, tolerance: float = 1e-8) -> list[VerificationReport]:
    """T(1^(r-1), k+1) = T(1^(k-1), r+1), the height-one duality."""
    log = RowLog()
    grid = [(r, k) for r in range(1, max_rk + 1) for k in range(r, max_rk + 1)]
    # Each index's path split reads its dual's word too.
    _path_splits([_height_one(r, k + 1) for r, k in grid], 2)
    for r, k in grid:
        log.numeric(
            "level2.ht1-duality",
            {"r": r, "k": k},
            t_value(_height_one(r, k + 1)),
            t_value(_height_one(k, r + 1)),
            tolerance,
        )
    return log.rows


def t_binomial_identity_check(
    m_values: tuple[int, ...] = (1, 2),
    r_values: tuple[int, ...] = (1, 2),
    k_values: tuple[int, ...] = (2, 3),
    tolerance: float = 1e-8,
) -> list[VerificationReport]:
    """The symmetric binomial-sum identity mixing the two parameters:

        sum over a |= m into k of C(a_k + r, r) T(a+1 ..., a_k + r + 1)
        + (-1)^k sum over a |= r into k of C(a_k + m, m) T(..., a_k + m + 1)
        = sum_{j=0}^{k-2} (-1)^j T(1^(r-1), k-j) T(1^j, m+1),

    plus its depth-two display at k = 2, r = 1 written in the
    parity-restricted values directly."""
    log = RowLog()
    grid = [(m, r, k) for m in m_values for r in r_values for k in k_values]
    _preload_t_values(
        [functools.partial(_t_binomial_sides, m, r, k) for m, r, k in grid]
        + [functools.partial(_oddeven_display_sides, m) for m in m_values]
    )
    for m, r, k in grid:
        lhs, rhs = _t_binomial_sides(m, r, k, t_value)
        log.numeric("level2.t-binomial-symmetry", {"m": m, "r": r, "k": k}, lhs, rhs, tolerance)
    for m in m_values:
        lhs, rhs = _oddeven_display_sides(m, t0_value)
        log.numeric("level2.oddeven-display", {"m": m}, lhs, rhs, tolerance)
    return log.rows


def _t_binomial_sides(m: int, r: int, k: int, value) -> tuple[EvalResult, EvalResult]:
    left = positive_terms(_height_one(r, k), m + 1, value)
    for a in compositions(r, k):
        idx = tuple(ai + 1 for ai in a[:-1]) + (a[-1] + m + 1,)
        left.append(value(idx).scale((-1) ** k * math.comb(a[-1] + m, m)))
    rhs_terms = []
    for j in range(k - 1):
        prod = value((1,) * (r - 1) + (k - j,)) * value((1,) * j + (m + 1,))
        rhs_terms.append(prod.scale((-1) ** j))
    return sum_results(left), sum_results(rhs_terms)


def _oddeven_display_sides(m: int, value) -> tuple[EvalResult, EvalResult]:
    # `value` reads parity-restricted values, without the 2^depth of T.
    pieces = [value((m - a + 1, a + 2)).scale(a + 1) for a in range(m + 1)]
    pieces.append(value((2, m + 1)))
    pieces.append(value((1, m + 2)).scale(m + 1))
    return sum_results(pieces), value((2,)) * value((m + 1,))


def psi_depth1_integral(k: int, s: int) -> EvalResult:
    """psi(k; s) for depth one by direct quadrature of its integral.

    Substituting tanh(t/2) = e^(-u) in the hyperbolic integral, that is
    t = w(u) = -log tanh(u/2), which is its own inverse, turns
    dt / sinh(t) into du and the integral into

        psi(k; s) = 2/Gamma(s) * integral over u > 0 of
                    w(u)^(s-1) Ath_k(e^(-u)) du,

    whose integrand at s = 1 is one call of the polylogarithm near 1 at
    letter 2.  The quadrature stops at U = 60.  Past U, w(u) <= c e^(-u)
    and Ath_k(e^(-u)) <= e^(-u) / (1 - e^(-2U)) with
    c = 2 / (1 - e^(-2U)), so the discarded range adds at most
    c^s e^(-sU) / s!.  The polylogarithm's own bounds are covered by the
    largest of them over the nodes times the integral of w^(s-1) over
    [0, U], which is U at s = 1 and at most 2 (1 - 2^(-s)) Gamma(s)
    zeta(s) for s >= 2.

    The rest of the error bound is not rigorous: it is mpmath's own
    tanh-sinh error estimate, taken with a safety factor of ten, and the
    method says so.
    """
    require_int(k, "k", 2)
    require_int(s, "s", 1)
    return _depth1_integral(k, s, 2)


def psi_depth1_integral_check(
    k_values: tuple[int, ...] = (2, 3),
    s_values: tuple[int, ...] = (1, 2),
    tolerance: float = 1e-8,
) -> list[VerificationReport]:
    """Quadrature of the defining integral against the closed T-value
    expression, for depth-one indices."""
    log = RowLog()
    for k in k_values:
        for s in s_values:
            log.numeric(
                "level2.psi-integral-representation",
                {"k": k, "s": s},
                psi_depth1_integral(k, s),
                psi_at_positive(1, k, s),
                tolerance,
            )
    return log.rows


def odd_zeta_relation_check(
    s_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8), tolerance: float = 1e-8
) -> list[VerificationReport]:
    """Depth one of the parity-restricted family is an explicit multiple
    of zeta: the odd-argument sum equals (1 - 2^(-s)) zeta(s)."""
    log = RowLog()
    _path_splits([(s,) for s in s_values], 2)
    for s in s_values:
        log.numeric(
            "level2.odd-zeta-product",
            {"s": s},
            t0_value((s,)),
            zeta(s).scale(1 - Fraction(1, 2**s)),
            tolerance,
        )
    return log.rows
