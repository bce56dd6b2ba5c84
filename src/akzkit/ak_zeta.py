"""The xi and eta interpolations of multiple zeta values.

xi(k; s) and eta(k; s) interpolate, in the second argument, the families
obtained from an index k by appending or twisting one extra summation.
At positive integers both reduce to finite combinations of multiple zeta
(respectively zeta-star) values; at nonpositive integers they specialize
to poly-Bernoulli numbers; at a negative index they collapse to finite
Dirichlet polynomials in s.  This module implements each of those faces
plus the identities connecting them, with every identity packaged as a
check returning VerificationReport rows.

Conventions.  Indices are tuples of positive integers, depth r, with no
admissibility requirement unless stated.  A "negative index" is passed
as the tuple of magnitudes (k_1, ..., k_r) standing for (-k_1, ..., -k_r).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .exact_series import TruncatedSeries, mpl_coeffs, negative_mpl
from .index_algebra import (
    b_coefficient,
    compositions,
    depth,
    dual,
    indices_up_to_weight,
    plus_one,
    refinements,
    require_index,
    require_int,
    require_signed_parts,
)
from .mzv_numeric import (
    EvalResult,
    PoleError,
    _at_precision,
    _float64_rounding,
    _iterated_log_tail,
    mzsv,
    mzv,
    sum_results,
    zeta,
)
from .pbn import B_symbolic, DirichletPolynomial, multi_poly_bernoulli
from .reports import NOT_COVERED, SKIPPED_POLE, RowLog, VerificationReport

__all__ = [
    "positive_terms",
    "height_one_alternating",
    "xi_at_positive",
    "eta_at_positive",
    "xi_nonpositive",
    "eta_nonpositive_value",
    "eta_closed_nonpositive",
    "xitilde_closed",
    "xi_explicit_family",
    "eta_symmetric_oracle",
    "xi_series_oracle",
    "landen_check",
    "etaxi_relation_check",
    "eta_value_formulas_check",
    "eta_symmetry_check",
    "eta_threeway_check",
    "eta_dual_pair_check",
    "xi_depth1_enumeration_check",
    "xi_series_representation_check",
    "xi_family_crosscheck",
    "eta_closed_vs_symbolic_check",
    "nonpositive_specialization_check",
    "display_identities_check",
]


def _finite_base(k: tuple[int, ...]) -> tuple[int, ...]:
    # The admissible index whose shifted family carries the values of
    # xi and eta at positive integers: dualize after raising the last part.
    return dual(plus_one(k))


def positive_terms(k, m: int, value) -> list[EvalResult]:
    """The terms of the finite formula at an integer m >= 1 shared by xi,
    eta and the level-two psi:

        b(base; j) * value(base + j) for each composition j of m-1,

    with base the dual of k with its last part raised, and b the product
    of binomial coefficients C(base_i + j_i - 1, j_i).  `value` is mzv for
    xi, mzsv for eta and t_value for psi.
    """
    base = _finite_base(k)
    return [
        value(tuple(b + j for b, j in zip(base, comp))).scale(b_coefficient(base, comp))
        for comp in compositions(m - 1, len(base))
    ]


def xi_at_positive(k, m: int) -> EvalResult:
    """xi(k; m) at an integer m >= 1 as a finite positive combination of
    multiple zeta values: the sum of positive_terms(k, m, mzv)."""
    parts = require_index(k)
    require_int(m, "m", 1)
    return sum_results(positive_terms(parts, m, mzv), "zeta-combination")


def eta_at_positive(k, m: int) -> EvalResult:
    """eta(k; m) at an integer m >= 1: the same combination as xi but
    with zeta-star values and the sign (-1)^(depth-1)."""
    parts = require_index(k)
    require_int(m, "m", 1)
    terms = positive_terms(parts, m, mzsv)
    return sum_results(terms, "zeta-star-combination").scale((-1) ** (len(parts) - 1))


def xi_nonpositive(k, m: int) -> Fraction:
    """xi(k; -m) for m >= 0, exactly: (-1)^m times the C-family number."""
    parts = require_index(k)
    require_int(m, "m", 0)
    return (-1) ** m * multi_poly_bernoulli(m, parts, "C")


def eta_nonpositive_value(k, m: int) -> Fraction:
    """eta(k; -m) for m >= 0, exactly: the B-family number.  The index
    may contain arbitrary integers."""
    require_int(m, "m", 0)
    return multi_poly_bernoulli(m, tuple(k), "B")


def _exp_form_quotient(parts: tuple[int, ...]) -> tuple[Fraction, ...]:
    # The coefficients of Q(x) = A(x)/(x - 1), where A(x) is
    # Li_{-parts}(1 - e^t) in x = e^(-t).  The closed form P(z)/(1-z)^d at
    # z = (x-1)/x gives A(x) = sum_i p_i (x-1)^i x^(d-i), and z divides P,
    # so Q(x) = sum_{i>=1} p_i (x-1)^(i-1) x^(d-i) exactly.
    rep = negative_mpl(parts)
    d = rep.pole_order
    q = [Fraction(0)] * d
    for i, p in enumerate(rep.numerator):
        for j in range(i):
            q[d - i + j] += p * math.comb(i - 1, j) * (-1) ** (i - 1 - j)
    return tuple(q)


def eta_closed_nonpositive(parts) -> DirichletPolynomial:
    """eta at the negative index -parts, as a finite Dirichlet polynomial
    in s, valid for every s.

    >>> str(eta_closed_nonpositive((1,)))
    '2^-s'
    """
    ps = require_signed_parts(parts)
    q = _exp_form_quotient(ps)
    return DirichletPolynomial.from_dict({j + 1: c for j, c in enumerate(q) if c})


def xitilde_closed(parts) -> DirichletPolynomial:
    """The companion interpolation at the negative index -parts, again a
    finite Dirichlet polynomial in s.  Undefined when every part is zero
    (the quotient then keeps a constant term, which has no Dirichlet
    image); that case raises ValueError."""
    ps = require_signed_parts(parts)
    q = _exp_form_quotient(ps)
    if q and q[0]:
        raise ValueError(f"no Dirichlet form at the all-zero index {ps!r}")
    return DirichletPolynomial.from_dict({j: c for j, c in enumerate(q) if j >= 1 and c})


def height_one_alternating(r: int, k: int, m: int, value, method: str) -> EvalResult:
    """The alternating closed form on the height-one index (1^(r-1), k)
    at an integer m, shared by xi (value = mzv) and psi (value = t_value):

        (-1)^(k-1) * sum over compositions a of r into k parts of
        C(m + a_k - 1, a_k) * value(a_1 + 1, ..., a_(k-1) + 1, a_k + m)
        + sum_{j=0}^{k-2} (-1)^j value(1^(r-1), k-j) * value(1^j, m).

    Divergent constituents (m = 1 with k >= 2) raise PoleError.
    """
    first = []
    for a in compositions(r, k):
        idx = tuple(ai + 1 for ai in a[:-1]) + (a[-1] + m,)
        first.append(value(idx).scale(math.comb(m + a[-1] - 1, a[-1])))
    total = sum_results(first, method).scale((-1) ** (k - 1))
    for j in range(k - 1):
        left = value((1,) * (r - 1) + (k - j,))
        right = value((1,) * j + (m,))
        total = total + (left * right).scale((-1) ** j)
    return EvalResult(total.value, total.error_bound, method)


def xi_explicit_family(index, m: int) -> EvalResult:
    """Closed-form xi evaluation for the two implemented index shapes:

    * height one, (1, ..., 1, k) with k >= 1 (depth one included);
    * (2, 1, ..., 1) with at least one trailing 1.

    Other shapes raise ValueError.  Divergent constituents (for example
    at m = 1 when k >= 2) surface as PoleError.
    """
    parts = require_index(index)
    require_int(m, "m", 1)
    r = len(parts)
    if all(p == 1 for p in parts[:-1]):
        return height_one_alternating(r, parts[-1], m, mzv, "explicit-family")
    if parts[0] == 2 and all(p == 1 for p in parts[1:]) and r >= 2:
        t = r - 1
        pieces = [
            mzv((t + 2, m)).scale(-(t + 1)),
            mzv((t + 1, m + 1)).scale(-m),
        ]
        for j in range(t + 1):
            coeff = (-1) ** j * (t - j + 1) * math.comb(m + j - 1, j)
            pieces.append((zeta(t - j + 2) * zeta(m + j)).scale(coeff))
        return sum_results(pieces, "explicit-family").scale((-1) ** t)
    raise ValueError(f"no explicit closed form implemented for index {parts!r}")


# ---------------------------------------------------------------------------
# Low-accuracy series oracles built from harmonic iterates.


# Terms per block of the harmonic-iterate pass: each array it holds is
# 512 KB, whatever the cutoff.
_BLOCK = 1 << 16


def _harmonic_sums(terms, cutoff: int) -> list[float]:
    """sum_{c=1}^{cutoff} G_a(c) G_b(c) / c^p in float64 for each (a, b, p)
    in `terms`, where G_0 = 1 and G_j(c) = sum_{d <= c} G_(j-1)(d) / d.

    One pass over c for all the terms, in blocks of _BLOCK: a block builds
    G_1..G_order by cumulative sums, each lifted by the value its order
    reached at the end of the previous block, and adds its share of every
    term.  No array outlives its block."""
    import numpy as np

    if not terms:
        return []
    order = max(max(a, b) for a, b, _ in terms)
    powers = {p for _, _, p in terms}
    carry = [0.0] * (order + 1)
    totals = [0.0] * len(terms)
    for start in range(1, cutoff + 1, _BLOCK):
        c = np.arange(start, min(start + _BLOCK, cutoff + 1), dtype=np.float64)
        inv = 1.0 / c
        g = [np.ones_like(c)]
        for j in range(1, order + 1):
            gj = np.cumsum(g[-1] * inv)
            gj += carry[j]
            carry[j] = float(gj[-1])
            g.append(gj)
        scale = {p: c ** float(-p) for p in powers}
        for i, (a, b, p) in enumerate(terms):
            totals[i] += float(np.sum(g[a] * g[b] * scale[p]))
    return totals


@_at_precision
def _harmonic_series(terms, cutoff: int, method: str) -> list[EvalResult]:
    """The sums of `_harmonic_sums` with their bounds, in one pass."""
    require_int(cutoff, "cutoff", 1)
    results = []
    for (a, b, p), value in zip(terms, _harmonic_sums(terms, cutoff)):
        # G_j(c) <= (1 + ln c)^j with no factorial saving, so none is claimed.
        tail = _iterated_log_tail(a + b, p, cutoff)
        rounding = _float64_rounding(value, a + b + 2, cutoff)
        results.append(EvalResult(mpmath.mpf(value), tail + rounding, method))
    return results


def _eta_series(pairs, cutoff: int) -> list[EvalResult]:
    """eta_symmetric_oracle at every (k, n) of `pairs`, in one pass."""
    for k, n in pairs:
        require_int(k, "k", 1)
        require_int(n, "n", 1)
    return _harmonic_series([(k - 1, n - 1, 2) for k, n in pairs], cutoff, "symmetric-series")


def _xi_series(pairs, cutoff: int) -> list[EvalResult]:
    """xi_series_oracle at every (k, n) of `pairs`, in one pass."""
    for k, n in pairs:
        require_int(k, "k", 1)
        require_int(n, "n", 1)
    return _harmonic_series([(n - 1, 0, k + 1) for k, n in pairs], cutoff, "harmonic-series")


def eta_symmetric_oracle(k: int, n: int, cutoff: int = 1_000_000) -> EvalResult:
    """Manifestly symmetric series for the depth-one eta at (k, n):

        sum_c G_(k-1)(c) G_(n-1)(c) / c^2.

    Low accuracy (the harmonic iterates shrink slowly); the bound is
    honest and often dominates any tolerance, which the combined pass
    criterion accounts for.
    """
    return _eta_series([(k, n)], cutoff)[0]


def xi_series_oracle(k: int, n: int, cutoff: int = 1_000_000) -> EvalResult:
    """Depth-one xi at (k, n) as sum_c G_(n-1)(c) / c^(k+1)."""
    return _xi_series([(k, n)], cutoff)[0]


# ---------------------------------------------------------------------------
# Checks.


def landen_check(max_weight: int = 5, order: int = 20) -> list[VerificationReport]:
    """Exact Taylor identity under the substitution z -> z/(z-1):

        Li_k(z/(z-1)) = (-1)^depth(k) * sum of Li_k'(z) over refinements k',

    compared coefficientwise through the given order for every index of
    weight up to max_weight."""
    log = RowLog()
    inner = TruncatedSeries.from_list([0] + [-1] * order)  # z/(z-1)
    for k in indices_up_to_weight(max_weight):
        lhs = mpl_coeffs(k, order).compose(inner)
        rhs = TruncatedSeries.zero(order)
        for ref in refinements(k):
            rhs = rhs + mpl_coeffs(ref, order)
        rhs = rhs.scale((-1) ** depth(k))
        log.exact(
            "akzeta.landen-refinement-sum",
            {"index": k, "order": order},
            lhs="lhs-coefficients",
            rhs="rhs-coefficients",
            equal=lhs.coeffs == rhs.coeffs,
        )
    return log.rows


def etaxi_relation_check(
    max_weight: int = 5, m_values: tuple[int, ...] = (1, 2, 3), tolerance: float = 1e-8
) -> list[VerificationReport]:
    """The reflection pair tying the two interpolations together:

        eta(k; s) = (-1)^(depth-1) * sum of xi(k'; s) over refinements,
        xi(k; s)  = (-1)^(depth-1) * sum of eta(k'; s) over refinements,

    checked numerically at the given integer arguments."""
    log = RowLog()
    reflections = (
        ("akzeta.eta-from-xi-reflection", eta_at_positive, xi_at_positive),
        ("akzeta.xi-from-eta-reflection", xi_at_positive, eta_at_positive),
    )
    for k in indices_up_to_weight(max_weight):
        sign = (-1) ** (depth(k) - 1)
        for m in m_values:
            for identity, target, source in reflections:
                lhs = target(k, m)
                rhs = sum_results([source(ref, m) for ref in refinements(k)]).scale(sign)
                log.numeric(identity, {"index": k, "m": m}, lhs, rhs, tolerance)
    return log.rows


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def eta_value_formulas_check(
    max_k: int = 4, max_m: int = 4, tolerance: float = 1e-8
) -> list[VerificationReport]:
    """Depth-one eta written directly in plain multiple zeta values:

        eta(k; m) = sum over r <= k and compositions (k_1, ..., k_r) of
        k + m with k_r >= 2 of [sum_{i=1}^{k_r - 1} C(k+m-r-i, m-i)]
        times mzv(k_1, ..., k_r),

    against the zeta-star combination route."""
    log = RowLog()
    for k in range(1, max_k + 1):
        for m in range(1, max_m + 1):
            lhs = eta_at_positive((k,), m)
            pieces = []
            for r in range(1, k + 1):
                for comp in compositions(k + m - r, r):
                    idx = tuple(c + 1 for c in comp)
                    if idx[-1] < 2:
                        continue
                    coeff = sum(_comb0(k + m - r - i, m - i) for i in range(1, idx[-1]))
                    if coeff:
                        pieces.append(mzv(idx).scale(coeff))
            rhs = sum_results(pieces, "zeta-expansion")
            log.numeric(
                "akzeta.eta-depth1-zeta-expansion",
                {"k": k, "m": m},
                lhs,
                rhs,
                tolerance,
            )
    return log.rows


def eta_symmetry_check(
    max_k: int = 4, max_n: int = 4, tolerance: float = 1e-8
) -> list[VerificationReport]:
    """Symmetry of depth-one eta in its two slots: eta(k; n) = eta(n; k)."""
    log = RowLog()
    for k in range(1, max_k + 1):
        for n in range(k, max_n + 1):
            log.numeric(
                "akzeta.eta-two-slot-symmetry",
                {"k": k, "n": n},
                eta_at_positive((k,), n),
                eta_at_positive((n,), k),
                tolerance,
            )
    return log.rows


_THREEWAY_PAIRS = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4))


def eta_threeway_check(
    pairs: tuple[tuple[int, int], ...] = _THREEWAY_PAIRS,
    tolerance: float = 1e-4,
    cutoff: int = 1_000_000,
) -> list[VerificationReport]:
    """Three routes to depth-one eta: the zeta-star combination at (k, n),
    the same at (n, k), and the manifestly symmetric harmonic series.
    The first two agree to full precision; the series oracle joins at its
    own honest accuracy."""
    log = RowLog()
    oracles = None
    for i, (k, n) in enumerate(pairs):
        a = eta_at_positive((k,), n)
        b = eta_at_positive((n,), k)
        log.numeric(
            "akzeta.eta-value-threeway",
            {"k": k, "n": n, "legs": "star-combination-vs-swapped"},
            a,
            b,
            1e-8,
        )
        # One pass for every pair, charged to the first series row.
        if oracles is None:
            oracles = _eta_series(pairs, cutoff)
        oracle = oracles[i]
        log.numeric(
            "akzeta.eta-value-threeway",
            {"k": k, "n": n, "legs": "star-combination-vs-series"},
            a,
            oracle,
            tolerance,
            detail=f"series tail bound {mpmath.nstr(oracle.error_bound, 3)}",
        )
    return log.rows


def eta_dual_pair_check(max_k: int = 8, max_n: int = 8) -> list[VerificationReport]:
    """Exact two-slot symmetry of the companion interpolation at negative
    depth-one indices and nonpositive arguments:

        value of the (k+1)-form at -n  ==  value of the (n+1)-form at -k,

    both finite Dirichlet polynomials evaluated exactly."""
    log = RowLog()
    for k in range(0, max_k + 1):
        for n in range(k, max_n + 1):
            lhs = xitilde_closed((k + 1,)).evaluate_exact(-n)
            rhs = xitilde_closed((n + 1,)).evaluate_exact(-k)
            log.exact(
                "akzeta.xitilde-two-slot-symmetry",
                {"k": k, "n": n},
                lhs,
                rhs,
            )
    return log.rows


def xi_depth1_enumeration_check(
    max_k: int = 4, max_m: int = 4, tolerance: float = 1e-8
) -> list[VerificationReport]:
    """Depth-one xi and eta by direct enumeration:

        xi(k; m)  = sum over j_1..j_(k-1) >= 1, j_k >= 2 with total k + m
                    of (j_k - 1) * mzv(j), and eta likewise with the
                    star value.

    Both compared against the general combination route."""
    log = RowLog()
    families = (
        ("akzeta.xi-depth1-enumeration", xi_at_positive, mzv),
        ("akzeta.eta-depth1-enumeration", eta_at_positive, mzsv),
    )
    for k in range(1, max_k + 1):
        for m in range(1, max_m + 1):
            indices = [tuple(c + 1 for c in comp) for comp in compositions(m, k)]
            indices = [j for j in indices if j[-1] >= 2]
            for identity, at_positive, value in families:
                pieces = [value(j).scale(j[-1] - 1) for j in indices]
                log.numeric(
                    identity,
                    {"k": k, "m": m},
                    at_positive((k,), m),
                    sum_results(pieces, "enumeration"),
                    tolerance,
                )
    return log.rows


def xi_series_representation_check(
    max_k: int = 3, max_n: int = 3, tolerance: float = 1e-4, cutoff: int = 1_000_000
) -> list[VerificationReport]:
    """Depth-one xi against the harmonic-iterate series oracle."""
    log = RowLog()
    pairs = [(k, n) for k in range(1, max_k + 1) for n in range(1, max_n + 1)]
    for (k, n), oracle in zip(pairs, _xi_series(pairs, cutoff)):
        log.numeric(
            "akzeta.xi-series-representation",
            {"k": k, "n": n},
            xi_at_positive((k,), n),
            oracle,
            tolerance,
            detail=f"series tail bound {mpmath.nstr(oracle.error_bound, 3)}",
        )
    return log.rows


_FAMILY_CASES = (
    ((2,), (2, 3)),
    ((3,), (2, 3)),
    ((4,), (2,)),
    ((1,), (1, 2, 3)),
    ((1, 1), (1, 2)),
    ((1, 1, 1), (1, 2)),
    # m = 1 sends a divergent zeta through the explicit route; the
    # crosscheck must report it as skipped rather than compare garbage
    ((1, 2), (1, 2, 3)),
    ((1, 3), (2,)),
    ((1, 1, 2), (2,)),
    ((1, 1, 3), (2,)),
    ((2, 1), (2, 3)),
    ((2, 1, 1), (2, 3)),
    ((2, 1, 1, 1), (2,)),
)


def xi_family_crosscheck(tolerance: float = 1e-8) -> list[VerificationReport]:
    """Explicit closed-form families against the general combination
    route, at arguments where every constituent converges."""
    log = RowLog()
    for index, args in _FAMILY_CASES:
        for m in args:
            try:
                lhs = xi_explicit_family(index, m)
            except PoleError as exc:
                log.skip(
                    "akzeta.explicit-family-crosscheck",
                    {"index": index, "m": m},
                    SKIPPED_POLE,
                    str(exc),
                )
                continue
            log.numeric(
                "akzeta.explicit-family-crosscheck",
                {"index": index, "m": m},
                lhs,
                xi_at_positive(index, m),
                tolerance,
            )
    return log.rows


def eta_closed_vs_symbolic_check(max_k: int = 10) -> list[VerificationReport]:
    """eta at the depth-one negative index -k is the k-th B-family number
    read as a function of the upper argument; the two Dirichlet
    polynomials must match term for term."""
    log = RowLog()
    for k in range(0, max_k + 1):
        lhs = eta_closed_nonpositive((k,))
        rhs = B_symbolic(k)
        log.exact(
            "akzeta.eta-negative-index-closed-form",
            {"k": k},
            str(lhs),
            str(rhs),
            equal=lhs == rhs,
        )
    return log.rows


def nonpositive_specialization_check(
    max_total: int = 6, max_m: int = 8
) -> list[VerificationReport]:
    """Both closed Dirichlet forms, specialized at nonpositive integer
    arguments, against the generating-series numbers:

        eta form at -m   ==  B-family number of the negated index,
        companion at -m  ==  C-family number of the negated index,

    for every negative index with weight + depth <= max_total."""
    log = RowLog()
    forms = (
        ("akzeta.eta-nonpositive-specialization", eta_closed_nonpositive, "B"),
        ("akzeta.xitilde-nonpositive-specialization", xitilde_closed, "C"),
    )
    for r in range(1, max_total + 1):
        for w in range(0, max_total - r + 1):
            for parts in compositions(w, r):
                negated = tuple(-p for p in parts)
                for identity, closed_form, kind in forms:
                    parameters = {"index": negated, "max_m": max_m}
                    if w == 0 and kind == "C":
                        log.skip(
                            identity,
                            parameters,
                            NOT_COVERED,
                            "companion form undefined at all-zero indices",
                        )
                        continue
                    form = closed_form(parts)
                    bad = [
                        m
                        for m in range(max_m + 1)
                        if form.evaluate_exact(-m) != multi_poly_bernoulli(m, negated, kind)
                    ]
                    log.sweep(identity, parameters, "dirichlet-form", "generating-series", "m", bad)
    return log.rows


def display_identities_check(tolerance: float = 1e-8) -> list[VerificationReport]:
    """Two pinned-down consequences, kept as literal displays.

    First, the weight-five relation produced by expanding the two-slot
    symmetry of eta at (3, 2) into plain multiple zeta values.  Second,
    the value xi(2,1; 2) = 2 mzv(3,2) + 2 mzv(2,3)."""
    log = RowLog()
    lhs = sum_results(
        [
            mzv((1, 2, 2)),
            mzv((2, 1, 2)),
            mzv((1, 1, 3)).scale(2),
            (zeta(2) * mzv((1, 2))).scale(-1),
            mzv((3, 2)),
            mzv((1, 4)).scale(-3),
            (zeta(2) * zeta(3)).scale(2),
            zeta(5).scale(4),
        ]
    )
    rhs = sum_results(
        [
            zeta(5).scale(6),
            mzv((1, 4)).scale(-3),
            mzv((2, 3)).scale(-1),
            zeta(2) * zeta(3),
        ]
    )
    log.numeric(
        "akzeta.weight5-symmetric-display",
        {"pair": (3, 2)},
        lhs,
        rhs,
        tolerance,
    )
    log.numeric(
        "akzeta.xi21-value-display",
        {"index": (2, 1), "m": 2},
        xi_explicit_family((2, 1), 2),
        sum_results([mzv((3, 2)).scale(2), mzv((2, 3)).scale(2)]),
        tolerance,
    )
    return log.rows
