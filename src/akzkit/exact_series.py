"""Exact truncated power series and closed rational forms.

Everything in this module is exact rational arithmetic: truncated Taylor
series with Fraction coefficients, multiple polylogarithm coefficient
tables for arbitrary integer exponents, the Stirling-number sums that
the poly-Bernoulli recurrences read, and the closed form P(z)/(1-z)^d of
a multiple polylogarithm at nonpositive exponents, together with a
certificate checker for that closed form.

Fraction is the currency of the API only.  The hot loops (series
products, the Stirling-number sums, the polylogarithm tables and the
Taylor expansion of the closed forms) run in Python ints over one common
denominator and build one Fraction per output coefficient; the closed
forms' numerators are integral and are built in ints throughout.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .index_algebra import compositions, require_int, require_signed_parts
from .reports import RowLog, VerificationReport

__all__ = [
    "TruncatedSeries",
    "exact_power",
    "mpl_coeffs",
    "stirling2",
    "RationalFunctionRep",
    "negative_mpl",
    "negative_mpl_certificate_check",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _over_common_denominator(coeffs) -> tuple[int, list[int]]:
    """(D, [c * D for c in coeffs]) with D the lcm of the denominators, so
    that sums of products can run in ints and be divided once."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known exactly through degree ``cap``.

    ``coeffs[n]`` is the coefficient of t^n; the tuple always has length
    cap + 1.  Instances are immutable and safe to share.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_list(cls, values: list[Fraction | int], cap: int | None = None) -> "TruncatedSeries":
        cs = [Fraction(v) for v in values]
        if cap is not None:
            cs = cs[: cap + 1] + [_ZERO] * (cap + 1 - len(cs))
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        return cls(tuple(cs))

    @classmethod
    def zero(cls, cap: int) -> "TruncatedSeries":
        return cls((_ZERO,) * (cap + 1))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cap, other.cap)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.cap, other.cap)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])))

    def scale(self, q: Fraction | int) -> "TruncatedSeries":
        q = Fraction(q)
        return TruncatedSeries(tuple(q * c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        cap = min(self.cap, other.cap)
        a_den, a = _over_common_denominator(self.coeffs[: cap + 1])
        b_den, b = _over_common_denominator(other.coeffs[: cap + 1])
        # Coefficient n pairs a[i] with b[n - i], which is reversed_b[cap - n + i].
        reversed_b = b[::-1]
        out = [sum(map(operator.mul, a[: n + 1], reversed_b[cap - n :])) for n in range(cap + 1)]
        den = a_den * b_den
        return TruncatedSeries(tuple(Fraction(c, den) for c in out))

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Long division; the divisor must have a nonzero constant term."""
        if other.coeffs[0] == 0:
            raise ValueError("division requires a unit constant term")
        cap = min(self.cap, other.cap)
        inv0 = 1 / other.coeffs[0]
        out: list[Fraction] = []
        for n in range(cap + 1):
            acc = self.coeffs[n]
            for i in range(n):
                acc -= out[i] * other.coeffs[n - i]
            out.append(acc * inv0)
        return TruncatedSeries(tuple(out))

    def derivative(self) -> "TruncatedSeries":
        if self.cap == 0:
            return TruncatedSeries((_ZERO,))
        return TruncatedSeries(tuple(Fraction(n) * self.coeffs[n] for n in range(1, self.cap + 1)))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute ``inner`` (valuation >= 1) for the variable.

        The result cap is inner.cap.  Outer coefficients beyond self.cap
        are treated as genuinely zero, so a caller holding a truncation
        rather than a polynomial must supply cap >= inner.cap.

        This is the generic Horner route; compose_one_minus_exp is tested
        against it.
        """
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        cap = inner.cap
        acc = TruncatedSeries.zero(cap)
        for a in reversed(self.coeffs):
            acc = acc * inner
            if a:
                acc = TruncatedSeries((acc.coeffs[0] + a,) + acc.coeffs[1:])
        return acc


def _ordered_bell_rows():
    """Yield the rows n = 0, 1, ... of the triangle T(n, m) = m! * S(n, m).

    Built from T(n, m) = m * (T(n-1, m) + T(n-1, m-1)), T(n-1, n) = 0, not
    from stirling2, so the two Stirling tables check each other.
    """
    row = [1]
    while True:
        yield row
        row = [0] + [m * (a + b) for m, (a, b) in enumerate(zip(row[1:] + [0], row), 1)]


class _OneMinusExpSums:
    """Streams of the sums sum_{m=1..n} (-1)^m a_m m! S(n, m), n = 0, 1, ...,
    that s^n / n! turns into the t^n coefficients of a(1 - e^(s*t)), each
    sum yielded as (total, den) with total / den its value.

    fetch(cap) gives a_0, a_1, ... through at least a_cap.  The streams of
    one instance share them, signed and over one denominator, fetched again
    at twice the length when they run out.  Each stream holds one row of
    m! S(n, m): O(n) ints, where one triangle for every stream would hold
    O(n^2) ints of O(n log n) bits for the life of the process.
    """

    def __init__(self, fetch):
        self.fetch, self.den, self.signed = fetch, 1, [0]

    def stream(self):
        for n, row in enumerate(_ordered_bell_rows()):
            if len(self.signed) <= n:
                cap = max(n, 2 * len(self.signed) - 2)
                self.den, self.signed = _over_common_denominator(self.fetch(cap))
                self.signed[1::2] = map(operator.neg, self.signed[1::2])
            yield sum(map(operator.mul, self.signed, row)), self.den


def compose_one_minus_exp(a: TruncatedSeries, sign: int, cap: int) -> TruncatedSeries:
    """Evaluate a(1 - e^(sign*t)) through t^cap.

    ``a`` must have zero constant term and be known at least through
    degree cap, since the substitution has valuation one.

    Uses (1 - e^(s*t))^m = (-1)^m * sum_n m! S(n, m) s^n t^n / n!, so the
    coefficient of t^n is (s^n / n!) * sum_{m=1..n} a_m (-1)^m m! S(n, m).
    That is quadratic in cap, where TruncatedSeries.compose is cubic.
    """
    if a.coeffs[0] != 0:
        raise ValueError("outer series must have zero constant term")
    if a.cap < cap:
        raise ValueError(f"outer series cap {a.cap} is below requested cap {cap}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    sums = zip(range(cap + 1), _OneMinusExpSums(lambda _: a.coeffs[: cap + 1]).stream())
    return TruncatedSeries(tuple(Fraction(sign**n * t, den * math.factorial(n)) for n, (t, den) in sums))


def exact_power(m: int, e: int) -> Fraction:
    """m^e as an exact Fraction, for any integer exponent e.

    >>> exact_power(2, -3)
    Fraction(1, 8)
    """
    require_int(m, "m")
    require_int(e, "e")
    return Fraction(m**e) if e >= 0 else Fraction(1, m ** (-e))


def mpl_coeffs(exponents: tuple[int, ...], cap: int) -> TruncatedSeries:
    """Taylor coefficients of the multiple polylogarithm with the given
    integer exponents: sum over 0 < m_1 < ... < m_r of
    z^{m_r} / (m_1^{e_1} * ... * m_r^{e_r}).

    Exponents may be any integers (nonpositive included).

    >>> [str(c) for c in mpl_coeffs((2,), 4).coeffs]
    ['0', '1', '1/4', '1/9', '1/16']
    >>> mpl_coeffs((-1,), 5).coeffs[4]
    Fraction(4, 1)
    """
    if not exponents:
        raise ValueError("need at least one exponent")
    require_int(cap, "cap", 0)
    # Work in ints over one denominator D, the product over e > 0 of L^e
    # with L = lcm(1, ..., cap): m^(-e) is (L // m)^e / L^e for e > 0.
    lcm = math.lcm(*range(1, cap + 1))
    den = 1
    # h holds the coefficients of the sum so far times den, the part of D
    # taken so far.  It starts as the empty sum 1, so the first exponent
    # takes the same step as the rest.
    h = [1] + [0] * cap
    for e in exponents:
        if e > 0:
            den *= lcm**e
            weights = [(lcm // m) ** e for m in range(1, cap + 1)]
        else:
            weights = [m**-e for m in range(1, cap + 1)]
        running = 0
        nxt = [0]
        for w, c in zip(weights, h):
            running += c
            nxt.append(w * running)
        h = nxt
    return TruncatedSeries(tuple(Fraction(c, den) for c in h))


@functools.lru_cache(maxsize=None)
def _stirling2(n: int, m: int) -> int:
    if n == 0:
        return 1 if m == 0 else 0
    if m <= 0 or m > n:
        return 0
    return m * _stirling2(n - 1, m) + _stirling2(n - 1, m - 1)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind (partitions of n into m blocks).

    >>> stirling2(4, 2)
    7
    """
    if n < 0 or m < 0:
        raise ValueError("arguments must be nonnegative")
    return _stirling2(n, m)


def _poly_trim(p: list[Fraction]) -> tuple[Fraction, ...]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


@dataclass(frozen=True)
class RationalFunctionRep:
    """A rational function P(z)/(1-z)^d with P stored by ascending degree."""

    numerator: tuple[Fraction, ...]
    pole_order: int

    @property
    def degree(self) -> int:
        for i in range(len(self.numerator) - 1, -1, -1):
            if self.numerator[i]:
                return i
        return -1

    def taylor_coefficients(self, cap: int) -> TruncatedSeries:
        d = self.pole_order
        if d == 0:
            return TruncatedSeries.from_list(list(self.numerator), cap)
        # 1/(1-z)^d = sum_m C(m + d - 1, d - 1) z^m, summed in ints over the
        # numerator's common denominator.
        den, numerator = _over_common_denominator(self.numerator)
        binomials = [math.comb(m + d - 1, d - 1) for m in range(cap + 1)]
        out = [0] * (cap + 1)
        for i, p in enumerate(numerator[: cap + 1]):
            if p:
                for n in range(i, cap + 1):
                    out[n] += p * binomials[n - i]
        return TruncatedSeries(tuple(Fraction(c, den) for c in out))


def negative_mpl(parts: tuple[int, ...]) -> RationalFunctionRep:
    """Closed form of the multiple polylogarithm with exponents
    (-parts[0], ..., -parts[r-1]), each part a nonnegative integer.

    The result is P(z)/(1-z)^(w+r) with w the sum of the parts; P has
    degree w+r-1 (or r when all parts vanish) and is divisible by z^r.
    """
    parts = require_signed_parts(parts)
    # Both steps keep P integral, so it is built in ints.
    poly = [1]
    d = 0
    for p in parts:
        # Append a fresh summation variable: multiply by z/(1-z).
        poly = [0] + poly
        d += 1
        for _ in range(p):
            # z*d/dz of P/(1-z)^d is Q/(1-z)^(d+1), q_n = n p_n + (d-n+1) p_(n-1).
            pairs = zip(poly + [0], [0] + poly)
            poly = [n * c + (d - n + 1) * prev for n, (c, prev) in enumerate(pairs)]
            d += 1
    return RationalFunctionRep(_poly_trim([Fraction(c) for c in poly]), d)


def negative_mpl_certificate_check(max_total: int = 10, taylor_cap: int = 25) -> list[VerificationReport]:
    """Certify every closed form with weight + depth <= max_total.

    Each index gets one report covering four facts: the pole order is
    weight + depth, the numerator degree matches (weight + depth - 1 in
    general, depth when every exponent is zero, where the numerator is
    exactly z^depth), the numerator is divisible by z^depth, and the
    Taylor expansion agrees with the defining sum through taylor_cap.
    """
    log = RowLog()
    for r in range(1, max_total + 1):
        for w in range(0, max_total - r + 1):
            for parts in compositions(w, r):
                rep = negative_mpl(parts)
                problems: list[str] = []
                if rep.pole_order != w + r:
                    problems.append(f"pole order {rep.pole_order} != {w + r}")
                expected_deg = r if w == 0 else w + r - 1
                if rep.degree != expected_deg:
                    problems.append(f"degree {rep.degree} != {expected_deg}")
                if any(rep.numerator[i] for i in range(min(r, len(rep.numerator)))):
                    problems.append(f"numerator not divisible by z^{r}")
                if w == 0:
                    monomial = (_ZERO,) * r + (_ONE,)
                    if rep.numerator != monomial:
                        problems.append("all-zero index numerator is not z^depth")
                taylor = rep.taylor_coefficients(taylor_cap)
                direct = mpl_coeffs(tuple(-p for p in parts), taylor_cap)
                if taylor.coeffs != direct.coeffs:
                    problems.append(f"Taylor mismatch within degree {taylor_cap}")
                log.exact(
                    "exact_series.negative-polylog-certificate",
                    {"exponents": tuple(-p for p in parts)},
                    lhs="certificate",
                    rhs="certificate",
                    equal=not problems,
                    detail="; ".join(problems) if problems else None,
                )
    return log.rows
