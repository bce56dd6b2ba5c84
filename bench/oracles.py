"""Reference computations the benchmark checks akzkit's outputs against.

Nothing here imports akzkit: each value is rebuilt from its textbook
definition (Stirling numbers by their recurrence, Kaneko's closed formula,
the finite tuple sum for multi-indices, mpmath's own zeta and Bernoulli
numbers), so a check never shares code with the route it tests.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def stirling_table(n_max: int) -> list[list[int]]:
    """S[n][m], Stirling numbers of the second kind, by
    S(n, m) = m S(n-1, m) + S(n-1, m-1)."""
    table = [[0] * (n_max + 2) for _ in range(n_max + 2)]
    table[0][0] = 1
    for n in range(1, n_max + 2):
        for m in range(1, n + 1):
            table[n][m] = m * table[n - 1][m] + table[n - 1][m - 1]
    return table


def _inverse_power(m: int, k: int) -> Fraction:
    # m^(-k) for any integer k.
    return Fraction(1, m**k) if k >= 0 else Fraction(m ** (-k))


def kaneko(kind: str, n: int, k: int, stirling: list[list[int]]) -> Fraction:
    """Kaneko's closed formulas for depth one:
    B_n^(k) = sum_{m=0..n} (-1)^(n+m) m! S(n,m) (m+1)^(-k),
    C_n^(k) = sum_{m=1..n+1} (-1)^(n+m+1) (m-1)! S(n+1,m) m^(-k),
    summed in integers over one common denominator."""
    if kind == "B":
        terms = [((-1) ** (n + m) * math.factorial(m) * stirling[n][m], m + 1) for m in range(n + 1)]
    else:
        terms = [((-1) ** (n + m + 1) * math.factorial(m - 1) * stirling[n + 1][m], m) for m in range(1, n + 2)]
    if k <= 0:
        return Fraction(sum(c * base**-k for c, base in terms))
    denominator = math.lcm(*(base for _, base in terms)) ** k
    return Fraction(sum(c * (denominator // base**k) for c, base in terms), denominator)


def tuple_sum(kind: str, n: int, index: tuple[int, ...], stirling: list[list[int]]) -> Fraction:
    """The multi-indexed number as a finite sum over 0 < m_1 < ... < m_r <= n+1:
    (-1)^(n+m_r+1) (m_r-1)! S(n, m_r-1) (kind B) or S(n+1, m_r) (kind C),
    times m_1^(-k_1) ... m_r^(-k_r)."""
    total = Fraction(0)
    for ms in itertools.combinations(range(1, n + 2), len(index)):
        top = ms[-1]
        s = stirling[n][top - 1] if kind == "B" else stirling[n + 1][top]
        if not s:
            continue
        term = Fraction((-1) ** (n + top + 1) * math.factorial(top - 1) * s)
        for m, k in zip(ms, index):
            term *= _inverse_power(m, k)
        total += term
    return total


def bernoulli_plus(n: int) -> Fraction:
    """B_n with B_1 = +1/2, from mpmath's table, which uses B_1 = -1/2."""
    import mpmath

    p, q = mpmath.bernfrac(n)
    value = Fraction(int(p), int(q))
    return -value if n == 1 else value


def admissible_indices(weight: int) -> list[tuple[int, ...]]:
    """Every tuple of positive integers of the given weight whose last
    part is at least 2: no cut is placed at weight - 1."""
    out = []
    for cuts in range(weight - 1):
        for inner in itertools.combinations(range(1, weight - 1), cuts):
            bounds = (0,) + inner + (weight,)
            out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return sorted(out)
