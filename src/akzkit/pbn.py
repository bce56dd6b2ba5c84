"""Poly-Bernoulli numbers of both kinds, exactly.

B_n^(k) and C_n^(k) are defined through the substitution x = 1 - e^(-t)
in the polylogarithm: Li_k(1-e^(-t))/(1-e^(-t)) generates the B family
and Li_k(1-e^(-t))/(e^t-1) the C family, with multi-index versions using
the multiple polylogarithm.  This module computes them three independent
ways (a recurrence per family, Stirling closed forms, a brute-force sum),
exposes the value as an explicit Dirichlet polynomial in the upper index,
and packages the classical symmetries and a mod-p congruence as checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exact_series import _OneMinusExpSums, mpl_coeffs, stirling2
from .index_algebra import indices_up_to_weight, require_int, require_integer_index
from .reports import SKIPPED_BAD_PRIME, RowLog, VerificationReport

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
        """The value at the integer k, summed in ints over one common
        denominator and divided once."""
        require_int(k, "k")
        # c m^(-k) = num / den with num and den ints.
        parts = [
            (c.numerator, c.denominator * m**k) if k >= 0 else (c.numerator * m**-k, c.denominator)
            for m, c in self.terms
        ]
        denominator = math.lcm(*(den for _, den in parts))
        return Fraction(sum(num * (denominator // den) for num, den in parts), denominator)

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


class _Family:
    """P_0, P_1, ... of one (index, kind), each computed once, in order, as
    far as requests reach.  Clearing the divisor (1 - e^(-t))/t for B or
    (e^t - 1)/t for C, whose exponential coefficients are s^j/(j+1) with
    s = -1 for B and +1 for C, gives P_n = G_n - (1/(n+1)) sum_{j=1..n}
    s^j C(n+1, j+1) P_(n-j).  G_n, n! times the t^n coefficient of
    Li(1-e^(-t))/t, is ((-1)^(n+1)/(n+1)) sum_{m=1..n+1} (-1)^m a_m
    m! S(n+1, m), with a the Taylor coefficients of Li: sum n+1 of `sums`.
    """

    def __init__(self, kind: str, sums: _OneMinusExpSums):
        self.sign = -1 if kind == "B" else 1
        self.numbers: list[Fraction] = []
        self.sums = itertools.islice(sums.stream(), 1, None)

    def number(self, n: int) -> Fraction:
        for k in range(len(self.numbers), n + 1):
            total, den = next(self.sums)
            weights = [self.sign**j * math.comb(k + 1, j + 1) for j in range(1, k + 1)]
            earlier = sum(map(operator.mul, reversed(self.numbers), weights), _ZERO)
            self.numbers.append((Fraction((-1) ** (k + 1) * total, den) - earlier) / (k + 1))
        return self.numbers[n]


@functools.cache
def _families(index: tuple[int, ...]) -> dict[str, _Family]:
    # The B and C families of an index read the same coefficients.
    sums = _OneMinusExpSums(lambda cap: mpl_coeffs(index, cap).coeffs)
    return {kind: _Family(kind, sums) for kind in "BC"}


def multi_poly_bernoulli(n: int, index: tuple[int, ...], kind: str) -> Fraction:
    """n-th number of the given kind ("B" or "C") for a multi-index of
    arbitrary integers."""
    if kind not in ("B", "C"):
        raise ValueError(f'kind must be "B" or "C", got {kind!r}')
    require_int(n, "n", 0)
    index = require_integer_index(index)
    return _families(index)[kind].number(n)


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
    """Closed form over set partitions, the value of B_symbolic(n) at k:
    sum_{m=0..n} (-1)^(n+m) m! S(n,m) (m+1)^(-k)."""
    return B_symbolic(n).evaluate_exact(k)


def poly_bernoulli_C_stirling(n: int, k: int) -> Fraction:
    """Closed form over set partitions of one extra element, the value of
    C_symbolic(n) at k: sum_{m=1..n+1} (-1)^(n+m+1) (m-1)! S(n+1,m) m^(-k)."""
    return C_symbolic(n).evaluate_exact(k)


def _brute_weights(n: int, index: tuple[int, ...], kind: str) -> tuple[list[list[int]], int]:
    """Integer weights w_i[m], m = 1..n+1, for each position i of the
    index, and one common denominator D = L^(sum of the positive e_i),
    L = lcm(1, ..., n+1), with m^(-e_i) = w_i[m] / L^e_i for e_i > 0 and
    w_i[m] = m^(-e_i) otherwise.  The last position also carries the
    factor (-1)^(n+m+1) (m-1)! S of its tuple entry m, with S = S(n, m-1)
    for kind B and S(n+1, m) for kind C, so a tuple's term is the product
    of its weights over D."""
    lcm = math.lcm(*range(1, n + 2))
    denominator = 1
    weights = []
    for e in index:
        if e > 0:
            denominator *= lcm**e
            weights.append([0] + [(lcm // m) ** e for m in range(1, n + 2)])
        else:
            weights.append([0] + [m**-e for m in range(1, n + 2)])
    last = weights[-1]
    for m in range(1, n + 2):
        s = stirling2(n, m - 1) if kind == "B" else stirling2(n + 1, m)
        last[m] *= (-1) ** (n + m + 1) * math.factorial(m - 1) * s
    return weights, denominator


def multi_poly_bernoulli_brute(n: int, index: tuple[int, ...], kind: str) -> Fraction:
    """Finite double sum over strictly increasing tuples, fully independent
    of the series route.

    Expanding (1-e^(-t))^m through Stirling numbers turns the generating
    series into a finite sum over tuples m_1 < ... < m_r <= n+1 of
    (-1)^(n+m_r+1) (m_r-1)! m_1^(-e_1) ... m_r^(-e_r) times S(n, m_r - 1)
    for kind B and S(n+1, m_r) for kind C.  Every term is an int over one
    common denominator, the product over e_i > 0 of lcm(1, ..., n+1)^e_i,
    so the tuples are summed in ints and the sum is divided once.
    """
    if kind not in ("B", "C"):
        raise ValueError(f'kind must be "B" or "C", got {kind!r}')
    require_int(n, "n", 0)
    index = require_integer_index(index)
    weights, denominator = _brute_weights(n, index, kind)
    *inner, last = weights
    total = 0
    for top in range(1, n + 2):
        if not last[top]:
            continue
        for ms in itertools.combinations(range(1, top), len(inner)):
            term = last[top]
            for w, m in zip(inner, ms):
                term *= w[m]
            total += term
    return Fraction(total, denominator)


def _symbolic(n: int, shift: int) -> DirichletPolynomial:
    # sum_{m=0..n} (-1)^(n+m) m! S(n + shift, m + shift) (m+1)^(-k): shift
    # 0 gives the B family and shift 1, after m -> m - 1, the C family.
    require_int(n, "n", 0)
    coeffs: dict[int, Fraction] = {}
    for m in range(n + 1):
        s = stirling2(n + shift, m + shift)
        if s:
            coeffs[m + 1] = Fraction((-1) ** (n + m) * math.factorial(m) * s)
    return DirichletPolynomial.from_dict(coeffs)


def B_symbolic(n: int) -> DirichletPolynomial:
    """B_n^(k) as an explicit function of the upper index:
    sum_m (-1)^(n+m) m! S(n,m) (m+1)^(-k).

    >>> str(B_symbolic(1))
    '2^-s'
    >>> str(B_symbolic(2))
    '-2^-s + 2*3^-s'
    """
    return _symbolic(n, 0)


def C_symbolic(n: int) -> DirichletPolynomial:
    """C_n^(k) as an explicit function of the upper index:
    sum_m (-1)^(n+m+1) (m-1)! S(n+1,m) m^(-k)."""
    return _symbolic(n, 1)


def _duality_rows(identity: str, number, shift: int, max_n: int, max_k: int) -> list[VerificationReport]:
    # number(n, -k - shift) == number(k, -n - shift) for 0 <= n <= k.
    log = RowLog()
    for n in range(max_n + 1):
        for k in range(n, max_k + 1):
            log.exact(
                identity,
                {"n": n, "k": k},
                number(n, -k - shift),
                number(k, -n - shift),
            )
    return log.rows


def duality_check_B(max_n: int = 12, max_k: int = 12) -> list[VerificationReport]:
    """B_n^(-k) = B_k^(-n), checked bit-exactly on the full grid."""
    return _duality_rows("pbn.B-duality", poly_bernoulli_B, 0, max_n, max_k)


def duality_check_C(max_n: int = 12, max_k: int = 12) -> list[VerificationReport]:
    """C_n^(-k-1) = C_k^(-n-1), checked bit-exactly on the full grid."""
    return _duality_rows("pbn.C-duality", poly_bernoulli_C, 1, max_n, max_k)


def stirling_oracle_check(max_n: int = 30, max_abs_k: int = 8) -> list[VerificationReport]:
    """Series route against the Stirling closed forms, aggregated per
    (kind, k) with n swept from 0 to max_n."""
    log = RowLog()
    for kind, symbolic in (("B", B_symbolic), ("C", C_symbolic)):
        # Each closed form serves every k.
        forms = [symbolic(n) for n in range(max_n + 1)]
        for k in range(-max_abs_k, max_abs_k + 1):
            bad = [
                n
                for n, form in enumerate(forms)
                if multi_poly_bernoulli(n, (k,), kind) != form.evaluate_exact(k)
            ]
            log.sweep(
                "pbn.stirling-closed-form",
                {"kind": kind, "k": k, "max_n": max_n},
                "series",
                "stirling",
                "n",
                bad,
            )
    return log.rows


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
    log = RowLog()
    for index in _multi_oracle_indices(max_depth):
        for kind in ("B", "C"):
            bad = [
                n
                for n in range(max_n + 1)
                if multi_poly_bernoulli(n, index, kind)
                != multi_poly_bernoulli_brute(n, index, kind)
            ]
            log.sweep(
                "pbn.multi-index-brute-oracle",
                {"kind": kind, "index": index, "max_n": max_n},
                "series",
                "brute",
                "n",
                bad,
            )
    return log.rows


def _exp_power_coefficient(j: int, n: int) -> int:
    # n! [x^n] of e^x (e^x - 1)^j, by the binomial theorem.
    return sum((-1) ** (j - i) * math.comb(j, i) * (i + 1) ** n for i in range(j + 1))


def bivariate_generating_check(max_n: int = 10, max_k: int = 10) -> list[VerificationReport]:
    """Two-variable generating identities behind the dualities:

        sum B_n^(-k)   x^n y^k / (n! k!) = e^(x+y) / (e^x + e^y - e^(x+y))
        sum C_n^(-k-1) x^n y^k / (n! k!) = e^(x+y) / (e^x + e^y - e^(x+y))^2

    With u = (e^x - 1)(e^y - 1) the denominator is 1 - u, and
    1/(1 - u)^p = sum_j C(j+p-1, p-1) u^j, so n! k! [x^n y^k] of the
    right-hand side with p = 1 (B) or 2 (C) is

        sum_{j <= min(n, k)} C(j+p-1, p-1) A_j(n) A_j(k),

    A_j(n) = n! [x^n] e^x (e^x - 1)^j = sum_i (-1)^(j-i) C(j, i) (i+1)^n.
    Both sides are manifestly symmetric in x and y, and this one is built
    in ints with no series code.  Compared coefficientwise, one report per
    row n.
    """
    log = RowLog()
    a = [
        [_exp_power_coefficient(j, n) for n in range(max(max_n, max_k) + 1)]
        for j in range(min(max_n, max_k) + 1)
    ]
    for kind, p, value in (
        ("B", 1, lambda n, k: poly_bernoulli_B(n, -k)),
        ("C", 2, lambda n, k: poly_bernoulli_C(n, -k - 1)),
    ):
        for n in range(max_n + 1):
            bad = [
                k
                for k in range(max_k + 1)
                if sum(math.comb(j + p - 1, p - 1) * a[j][n] * a[j][k] for j in range(min(n, k) + 1))
                != value(n, k)
            ]
            log.sweep(
                "pbn.bivariate-generating-function",
                {"kind": kind, "n": n, "max_k": max_k},
                "series-coefficients",
                "direct-values",
                "k",
                bad,
            )
    return log.rows


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
    log = RowLog()
    for p in primes:
        for index in indices_up_to_weight(max_weight):
            lowered = index[:-1] + (index[-1] - 1,)
            rhs_value = multi_poly_bernoulli(p - 2, lowered, "C")
            if rhs_value.denominator % p == 0:
                log.skip(
                    "pbn.finite-sum-congruence",
                    {"index": index, "p": p},
                    SKIPPED_BAD_PRIME,
                    f"denominator {rhs_value.denominator} divisible by {p}",
                )
                continue
            rhs = (
                -rhs_value.numerator * pow(rhs_value.denominator, -1, p)
            ) % p
            lhs = finite_mzv_mod_p(index, p)
            log.exact(
                "pbn.finite-sum-congruence",
                {"index": index, "p": p},
                Fraction(lhs),
                Fraction(rhs),
            )
    return log.rows
