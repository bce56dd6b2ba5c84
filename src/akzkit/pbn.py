"""Poly-Bernoulli numbers of both kinds, exactly.

B_n^(k) and C_n^(k) are defined through the substitution x = 1 - e^(-t)
in the polylogarithm: Li_k(1-e^(-t))/(1-e^(-t)) generates the B family
and Li_k(1-e^(-t))/(e^t-1) the C family, with multi-index versions using
the multiple polylogarithm.  This module computes them three independent
ways (series division, Stirling closed forms, a brute-force finite sum),
exposes the value as an explicit Dirichlet polynomial in the upper index,
and packages the classical symmetries and a mod-p congruence as checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_series import (
    TruncatedSeries,
    compose_one_minus_exp,
    exact_power,
    mpl_coeffs,
    negative_mpl,
    one_minus_exp,
    stirling2,
)
from .index_algebra import indices_up_to_weight, require_int, require_integer_index
from .reports import (
    SKIPPED_BAD_PRIME,
    Stopwatch,
    VerificationReport,
    report_exact,
    report_skip,
)

__all__ = [
    "DirichletPolynomial",
    "poly_bernoulli_B",
    "poly_bernoulli_C",
    "multi_poly_bernoulli",
    "poly_bernoulli_B_stirling",
    "poly_bernoulli_C_stirling",
    "multi_poly_bernoulli_brute",
    "B_symbolic",
    "C_symbolic",
    "negative_polylog_exp_form",
    "duality_check_B",
    "duality_check_C",
    "stirling_oracle_check",
    "multi_oracle_check",
    "bivariate_generating_check",
    "finite_mzv_mod_p",
    "congruence_check",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DirichletPolynomial:
    """A finite sum c_1*1^(-s) + c_2*2^(-s) + ... with rational c_m.

    Stored as (base, coefficient) pairs sorted by base, zero coefficients
    dropped, so equal values compare equal structurally.
    """

    terms: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, coeffs: dict[int, Fraction]) -> "DirichletPolynomial":
        cleaned = []
        for base in sorted(coeffs):
            if base < 1:
                raise ValueError(f"bases must be positive, got {base}")
            c = Fraction(coeffs[base])
            if c:
                cleaned.append((base, c))
        return cls(tuple(cleaned))

    def evaluate_exact(self, k: int) -> Fraction:
        return sum((c * exact_power(m, -k) for m, c in self.terms), _ZERO)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for m, c in self.terms:
            if m == 1:
                rendered.append(str(c))
            elif c == 1:
                rendered.append(f"{m}^-s")
            elif c == -1:
                rendered.append(f"-{m}^-s")
            else:
                rendered.append(f"{c}*{m}^-s")
        return " + ".join(rendered).replace("+ -", "- ")


_CAP_STEP = 40
_gf_cache: dict[tuple[tuple[int, ...], str], TruncatedSeries] = {}


def _gf_series(index: tuple[int, ...], kind: str, n_needed: int) -> TruncatedSeries:
    """Exponential generating series of the chosen family, through at
    least t^n_needed.

    One series is cached per (index, kind) and serves every n its cap
    covers.  A request beyond it rebuilds at n_needed rounded up to the
    next multiple of a fixed step, so nearby requests share one division.
    Coefficient n does not depend on the cap, so values never change.
    """
    key = (index, kind)
    cached = _gf_cache.get(key)
    if cached is not None and cached.cap >= n_needed:
        return cached
    cap = _CAP_STEP * (n_needed // _CAP_STEP + 1)
    numer = compose_one_minus_exp(mpl_coeffs(index, cap), -1, cap)
    if kind == "B":
        denom = one_minus_exp(-1, cap)
    else:
        denom = -one_minus_exp(1, cap)  # e^t - 1
    series = numer.shift_down(1).divide(denom.shift_down(1))
    _gf_cache[key] = series
    return series


def multi_poly_bernoulli(n: int, index: tuple[int, ...], kind: str) -> Fraction:
    """n-th number of the given kind ("B" or "C") for a multi-index of
    arbitrary integers."""
    if kind not in ("B", "C"):
        raise ValueError(f'kind must be "B" or "C", got {kind!r}')
    require_int(n, "n", 0)
    index = require_integer_index(index)
    return _gf_series(index, kind, n).coefficient(n) * math.factorial(n)


def poly_bernoulli_B(n: int, k: int) -> Fraction:
    """B_n^(k) for any integer k.

    >>> poly_bernoulli_B(1, 1)
    Fraction(1, 2)
    """
    return multi_poly_bernoulli(n, (k,), "B")


def poly_bernoulli_C(n: int, k: int) -> Fraction:
    """C_n^(k) for any integer k.

    >>> poly_bernoulli_C(1, 1)
    Fraction(-1, 2)
    """
    return multi_poly_bernoulli(n, (k,), "C")


def poly_bernoulli_B_stirling(n: int, k: int) -> Fraction:
    """Closed form over set partitions:
    sum_{m=0..n} (-1)^(n+m) m! S(n,m) (m+1)^(-k)."""
    total = _ZERO
    for m in range(n + 1):
        s = stirling2(n, m)
        if s:
            total += (-1) ** (n + m) * math.factorial(m) * s * exact_power(m + 1, -k)
    return total


def poly_bernoulli_C_stirling(n: int, k: int) -> Fraction:
    """Closed form over set partitions of one extra element:
    sum_{m=1..n+1} (-1)^(n+m+1) (m-1)! S(n+1,m) m^(-k)."""
    total = _ZERO
    for m in range(1, n + 2):
        s = stirling2(n + 1, m)
        if s:
            total += (-1) ** (n + m + 1) * math.factorial(m - 1) * s * exact_power(m, -k)
    return total


def multi_poly_bernoulli_brute(n: int, index: tuple[int, ...], kind: str) -> Fraction:
    """Finite double sum over strictly increasing tuples, fully independent
    of the series route.

    Expanding (1-e^(-t))^m through Stirling numbers turns the generating
    series into a finite sum over tuples m_1 < ... < m_r <= n+1 weighted
    by (-1)^(n+m_r+1) (m_r-1)! times S(n, m_r - 1) for kind B and
    S(n+1, m_r) for kind C.
    """
    if kind not in ("B", "C"):
        raise ValueError(f'kind must be "B" or "C", got {kind!r}')
    index = require_integer_index(index)
    r = len(index)
    total = _ZERO
    for ms in itertools.combinations(range(1, n + 2), r):
        top = ms[-1]
        s = stirling2(n, top - 1) if kind == "B" else stirling2(n + 1, top)
        if not s:
            continue
        term = Fraction((-1) ** (n + top + 1) * math.factorial(top - 1) * s)
        for m, e in zip(ms, index):
            term *= exact_power(m, -e)
        total += term
    return total


def B_symbolic(n: int) -> DirichletPolynomial:
    """B_n^(k) as an explicit function of the upper index:
    sum_m (-1)^(n+m) m! S(n,m) (m+1)^(-k).

    >>> str(B_symbolic(1))
    '2^-s'
    >>> str(B_symbolic(2))
    '-2^-s + 2*3^-s'
    """
    coeffs: dict[int, Fraction] = {}
    for m in range(n + 1):
        s = stirling2(n, m)
        if s:
            coeffs[m + 1] = Fraction((-1) ** (n + m) * math.factorial(m) * s)
    return DirichletPolynomial.from_dict(coeffs)


def C_symbolic(n: int) -> DirichletPolynomial:
    """C_n^(k) as an explicit function of the upper index:
    sum_m (-1)^(n+m+1) (m-1)! S(n+1,m) m^(-k)."""
    coeffs: dict[int, Fraction] = {}
    for m in range(1, n + 2):
        s = stirling2(n + 1, m)
        if s:
            coeffs[m] = Fraction((-1) ** (n + m + 1) * math.factorial(m - 1) * s)
    return DirichletPolynomial.from_dict(coeffs)


def negative_polylog_exp_form(parts: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Coefficients (d_0, ..., d_D) with
    Li_{-parts}(1 - e^t) = sum_j d_j e^(-j*t), D = weight + depth.

    Obtained by substituting z = (x-1)/x, x = e^(-t), into the closed
    rational form P(z)/(1-z)^D and clearing denominators.  The value at
    x = 1 always vanishes because z^depth divides P.
    """
    rep = negative_mpl(parts)
    d = rep.pole_order
    # x^d * P((x-1)/x) = sum_i p_i (x-1)^i x^(d-i), a polynomial in x.
    acc = [_ZERO] * (d + 1)
    for i, p in enumerate(rep.numerator):
        if not p:
            continue
        # (x-1)^i expanded, then shifted by x^(d-i).
        for j in range(i + 1):
            acc[d - i + j] += p * math.comb(i, j) * (-1) ** (i - j)
    if sum(acc) != 0:
        raise AssertionError("exponential form must vanish at x = 1")
    return tuple(acc)


def duality_check_B(max_n: int = 12, max_k: int = 12) -> list[VerificationReport]:
    """B_n^(-k) = B_k^(-n), checked bit-exactly on the full grid."""
    out = []
    for n in range(max_n + 1):
        for k in range(n, max_k + 1):
            watch = Stopwatch()
            out.append(
                report_exact(
                    "pbn.B-duality",
                    {"n": n, "k": k},
                    poly_bernoulli_B(n, -k),
                    poly_bernoulli_B(k, -n),
                    elapsed=watch.elapsed(),
                )
            )
    return out


def duality_check_C(max_n: int = 12, max_k: int = 12) -> list[VerificationReport]:
    """C_n^(-k-1) = C_k^(-n-1), checked bit-exactly on the full grid."""
    out = []
    for n in range(max_n + 1):
        for k in range(n, max_k + 1):
            watch = Stopwatch()
            out.append(
                report_exact(
                    "pbn.C-duality",
                    {"n": n, "k": k},
                    poly_bernoulli_C(n, -k - 1),
                    poly_bernoulli_C(k, -n - 1),
                    elapsed=watch.elapsed(),
                )
            )
    return out


def stirling_oracle_check(max_n: int = 30, max_abs_k: int = 8) -> list[VerificationReport]:
    """Series route against the Stirling closed forms, aggregated per
    (kind, k) with n swept from 0 to max_n."""
    out = []
    for kind, oracle in (("B", poly_bernoulli_B_stirling), ("C", poly_bernoulli_C_stirling)):
        for k in range(-max_abs_k, max_abs_k + 1):
            watch = Stopwatch()
            bad = [
                n
                for n in range(max_n + 1)
                if multi_poly_bernoulli(n, (k,), kind) != oracle(n, k)
            ]
            out.append(
                report_exact(
                    "pbn.stirling-closed-form",
                    {"kind": kind, "k": k, "max_n": max_n},
                    lhs="series",
                    rhs="stirling",
                    equal=not bad,
                    elapsed=watch.elapsed(),
                    detail=f"mismatch at n={bad}" if bad else None,
                )
            )
    return out


def _multi_oracle_indices(max_depth: int = 3) -> list[tuple[int, ...]]:
    indices: list[tuple[int, ...]] = [(k,) for k in range(-3, 4)]
    if max_depth >= 2:
        indices += [t for t in itertools.product(range(-2, 3), repeat=2)]
    if max_depth >= 3:
        indices += [t for t in itertools.product((-1, 0, 2), repeat=3)]
        indices += [(1, 1, 1), (2, 1, -2)]
    return indices


def multi_oracle_check(max_depth: int = 3, max_n: int = 15) -> list[VerificationReport]:
    """Series route against the brute-force tuple sum for a fixed slate of
    multi-indices up to the given depth, n swept from 0 to max_n."""
    out = []
    for index in _multi_oracle_indices(max_depth):
        for kind in ("B", "C"):
            watch = Stopwatch()
            bad = [
                n
                for n in range(max_n + 1)
                if multi_poly_bernoulli(n, index, kind)
                != multi_poly_bernoulli_brute(n, index, kind)
            ]
            out.append(
                report_exact(
                    "pbn.multi-index-brute-oracle",
                    {"kind": kind, "index": index, "max_n": max_n},
                    lhs="series",
                    rhs="brute",
                    equal=not bad,
                    elapsed=watch.elapsed(),
                    detail=f"mismatch at n={bad}" if bad else None,
                )
            )
    return out


class _Bivariate:
    """Dense truncated series in two variables with Fraction entries."""

    def __init__(self, rows: list[list[Fraction]]):
        self.rows = rows
        self.nx = len(rows) - 1
        self.ny = len(rows[0]) - 1

    @classmethod
    def build(cls, nx: int, ny: int, fn) -> "_Bivariate":
        return cls([[Fraction(fn(i, j)) for j in range(ny + 1)] for i in range(nx + 1)])

    def divide(self, other: "_Bivariate") -> "_Bivariate":
        if other.rows[0][0] == 0:
            raise ValueError("division requires a unit constant term")
        q = [[_ZERO] * (self.ny + 1) for _ in range(self.nx + 1)]
        for i in range(self.nx + 1):
            for j in range(self.ny + 1):
                acc = self.rows[i][j]
                for a in range(i + 1):
                    for b in range(j + 1):
                        if (a, b) != (i, j) and q[a][b]:
                            acc -= q[a][b] * other.rows[i - a][j - b]
                q[i][j] = acc / other.rows[0][0]
        return _Bivariate(q)


def bivariate_generating_check(max_n: int = 10, max_k: int = 10) -> list[VerificationReport]:
    """Two-variable generating identities behind the dualities:

        sum B_n^(-k)   x^n y^k / (n! k!) = e^(x+y) / (e^x + e^y - e^(x+y))
        sum C_n^(-k-1) x^n y^k / (n! k!) = e^(x+y) / (e^x + e^y - e^(x+y))^2

    Both right-hand sides are manifestly symmetric in x and y.  Compared
    coefficientwise, one report per row n.
    """
    exy = _Bivariate.build(max_n, max_k, lambda i, j: Fraction(1, math.factorial(i) * math.factorial(j)))
    denom = _Bivariate.build(
        max_n,
        max_k,
        lambda i, j: Fraction((1 if j == 0 else 0), math.factorial(i))
        + Fraction((1 if i == 0 else 0), math.factorial(j))
        - Fraction(1, math.factorial(i) * math.factorial(j)),
    )
    b_side = exy.divide(denom)
    c_side = b_side.divide(denom)
    out = []
    for kind, table, value in (
        ("B", b_side, lambda n, k: poly_bernoulli_B(n, -k)),
        ("C", c_side, lambda n, k: poly_bernoulli_C(n, -k - 1)),
    ):
        for n in range(max_n + 1):
            watch = Stopwatch()
            bad = [
                k
                for k in range(max_k + 1)
                if table.rows[n][k] * math.factorial(n) * math.factorial(k) != value(n, k)
            ]
            out.append(
                report_exact(
                    "pbn.bivariate-generating-function",
                    {"kind": kind, "n": n, "max_k": max_k},
                    lhs="series-coefficients",
                    rhs="direct-values",
                    equal=not bad,
                    elapsed=watch.elapsed(),
                    detail=f"mismatch at k={bad}" if bad else None,
                )
            )
    return out


def finite_mzv_mod_p(index: tuple[int, ...], p: int) -> int:
    """sum over 0 < m_1 < ... < m_r < p of prod m_i^(-k_i), as a residue
    mod the prime p."""
    index = require_integer_index(index)
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    total = 0
    for ms in itertools.combinations(range(1, p), len(index)):
        term = 1
        for m, e in zip(ms, index):
            term = term * pow(m, -e, p) % p
        total = (total + term) % p
    return total


def congruence_check(
    primes: tuple[int, ...] = (5, 7, 11, 13), max_weight: int = 4
) -> list[VerificationReport]:
    """The truncated sum mod p equals -C_{p-2} at the index with its last
    entry lowered by one.  Indices with a denominator divisible by p are
    reported as skipped."""
    out = []
    for p in primes:
        for index in indices_up_to_weight(max_weight):
            watch = Stopwatch()
            lowered = index[:-1] + (index[-1] - 1,)
            rhs_value = multi_poly_bernoulli(p - 2, lowered, "C")
            if rhs_value.denominator % p == 0:
                out.append(
                    report_skip(
                        "pbn.finite-sum-congruence",
                        {"index": index, "p": p},
                        SKIPPED_BAD_PRIME,
                        f"denominator {rhs_value.denominator} divisible by {p}",
                        elapsed=watch.elapsed(),
                    )
                )
                continue
            rhs = (
                -rhs_value.numerator * pow(rhs_value.denominator, -1, p)
            ) % p
            lhs = finite_mzv_mod_p(index, p)
            out.append(
                report_exact(
                    "pbn.finite-sum-congruence",
                    {"index": index, "p": p},
                    Fraction(lhs),
                    Fraction(rhs),
                    elapsed=watch.elapsed(),
                )
            )
    return out
