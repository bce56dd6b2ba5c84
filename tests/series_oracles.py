"""Series helpers that only the tests read: the plain series of
1 - e^(sign*t), which the generic composition route takes as its inner
series, and the truncation of a series to a lower cap."""

from fractions import Fraction

from akzkit.exact_series import TruncatedSeries


def one_minus_exp(sign: int, cap: int) -> TruncatedSeries:
    """The series of 1 - e^(sign*t); sign must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeffs = [Fraction(0)]
    power = Fraction(1)
    for j in range(1, cap + 1):
        power = power * sign / j
        coeffs.append(-power)
    return TruncatedSeries(tuple(coeffs))


def truncate(series: TruncatedSeries, cap: int) -> TruncatedSeries:
    """`series` through t^cap, which must not exceed its own cap."""
    if cap > series.cap:
        raise ValueError(f"cannot extend cap {series.cap} to {cap}")
    return TruncatedSeries(series.coeffs[: cap + 1])
