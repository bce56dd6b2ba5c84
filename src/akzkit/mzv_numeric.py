"""High-precision multiple zeta and T values with tracked error bounds.

Every public evaluator returns an EvalResult carrying a value, a rigorous
error bound, and the method used.  Two independent routes exist for each
family: a fast convolution of iterated-integral tails at an interior
point (the default), and a plain truncated nested sum with an analytic
tail estimate (the oracle).  Checks elsewhere compare the routes and
treat the bounds as part of the pass criterion, never as decoration.

Words here encode iterated integrals over the one-forms dt/t (symbol 0)
and dt/(1-t^a) (symbol a).  An index (k_1, ..., k_r) maps to the word
0^(k_r-1) a 0^(k_(r-1)-1) a ... with the letter a = 1 at level one and
a = 2 at level two; the level-two form introduces the parity pattern
m_i = i mod 2 in the underlying sums.  Both levels share one engine.

Precision is global and meant to be configured once, before evaluation
begins; after the first evaluation it is locked, so no cache key needs to
name it.  Three caches keep what is asked for again: the value of each word
integral at its point and cap, each path-split result, and, per k, the
u-independent coefficients of polylog_near_one.  The last is keyed on k
alone for the same reason: every entry is built after the lock.  All are
plain dicts populated under the interpreter lock, and cached objects are
immutable, so concurrent readers are safe.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import mpmath

from .index_algebra import (
    coarsenings,
    depth,
    dual,
    indices_up_to_weight,
    require_index,
    require_int,
    weight,
)
from .reports import Stopwatch, report_numeric

__all__ = [
    "PoleError",
    "EvalResult",
    "configure",
    "current_precision",
    "set_perturbation",
    "zeta",
    "mzv",
    "mzsv",
    "mpl_numeric",
    "t0_value",
    "t_value",
    "mzv_direct",
    "t0_direct",
    "polylog_near_one",
    "zeta_nonpositive",
    "bernoulli_number",
    "duality_numeric_check",
    "direct_oracle_check",
]


class PoleError(ValueError):
    """An evaluation point where the requested function diverges."""


_DEFAULT_PREC = 256

_state = {"prec": _DEFAULT_PREC, "locked": False, "perturb": False}
_state_lock = threading.Lock()

_value_cache: dict[tuple, tuple] = {}
_result_cache: dict[tuple, "EvalResult"] = {}


def configure(prec_bits: int = _DEFAULT_PREC) -> None:
    """Set the working precision in bits.  Call before any evaluation;
    changing it afterwards raises, since cached values would go stale."""
    if prec_bits < 64:
        raise ValueError("precision below 64 bits defeats the bound tracking")
    with _state_lock:
        if _state["locked"] and prec_bits != _state["prec"]:
            raise RuntimeError("precision is locked after the first evaluation")
        _state["prec"] = prec_bits
        mpmath.mp.prec = prec_bits


def current_precision() -> int:
    return _state["prec"]


def _activate() -> None:
    # Entry point of every evaluator: pin mpmath to the configured
    # precision and lock further configuration.
    if not _state["locked"]:
        with _state_lock:
            mpmath.mp.prec = _state["prec"]
            _state["locked"] = True


def set_perturbation(enabled: bool) -> None:
    """Deliberately corrupt one interior value (used to prove the checks
    can fail).  Cached clean values stay clean; the nudge is applied on
    the way out."""
    _state["perturb"] = bool(enabled)


def _mpf(x: Any):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _smear(value) -> Any:
    # Generous cover for accumulated rounding: dozens of guard bits below
    # working precision, far under every tolerance used by the checks.
    return (abs(value) + 1) * mpmath.mpf(2) ** (40 - _state["prec"])


@dataclass(frozen=True)
class EvalResult:
    """A numeric value plus a bound on its total error."""

    value: Any
    error_bound: Any
    method: str

    def __add__(self, other: "EvalResult") -> "EvalResult":
        v = self.value + other.value
        return EvalResult(v, self.error_bound + other.error_bound + _smear(v), "composite")

    def __sub__(self, other: "EvalResult") -> "EvalResult":
        v = self.value - other.value
        return EvalResult(v, self.error_bound + other.error_bound + _smear(v), "composite")

    def __mul__(self, other: "EvalResult") -> "EvalResult":
        v = self.value * other.value
        b = (
            abs(self.value) * other.error_bound
            + abs(other.value) * self.error_bound
            + self.error_bound * other.error_bound
        )
        return EvalResult(v, b + _smear(v), "composite")

    def scale(self, c: Any) -> "EvalResult":
        c = _mpf(c)
        return EvalResult(self.value * c, self.error_bound * abs(c) + _smear(self.value * c), self.method)


def exact_result(x: Any, method: str = "exact") -> EvalResult:
    v = _mpf(x)
    return EvalResult(v, _smear(v), method)


def sum_results(items: list[EvalResult], method: str = "composite") -> EvalResult:
    value = mpmath.mpf(0)
    bound = mpmath.mpf(0)
    for item in items:
        value += item.value
        bound += item.error_bound
    return EvalResult(value, bound + _smear(value), method)


# ---------------------------------------------------------------------------
# The word engine.


def _word(parts: tuple[int, ...], letter: int) -> tuple[int, ...]:
    w: list[int] = []
    for p in reversed(parts):
        w.extend([0] * (p - 1))
        w.append(letter)
    return tuple(w)


def _tail_series(word: tuple[int, ...], cap: int) -> tuple:
    """Taylor coefficients (as mpf, indices 0..cap) of the iterated
    integral along the word, innermost form last."""
    coeffs = [mpmath.mpf(0)] * (cap + 1)
    coeffs[0] = mpmath.mpf(1)
    for sym in reversed(word):
        if sym == 0:
            if coeffs[0]:
                raise PoleError(f"word {word!r} is not integrable at the origin")
            coeffs = [mpmath.mpf(0)] + [coeffs[n] / n for n in range(1, cap + 1)]
        else:
            # dt/(1-t^sym): coefficient n sums the coefficients m < n with
            # m = n-1 mod sym, so run one sum per residue class.
            nxt = [mpmath.mpf(0)] * (cap + 1)
            for first in range(1, sym + 1):
                running = mpmath.mpf(0)
                for n in range(first, cap + 1, sym):
                    running += coeffs[n - 1]
                    nxt[n] = running / n
            coeffs = nxt
    return tuple(coeffs)


def _series_cap_for(z, ones: int) -> int:
    # Coefficients are bounded by C(n-1, ones-1); pick the cap so the
    # geometric tail at |z| lands far below working precision.
    target_bits = _state["prec"] + 24
    log2z = -mpmath.log(abs(z), 2)
    cap = int(target_bits / log2z) + 4 * max(ones, 1) + 48
    return max(cap, 96)


def _word_value(word: tuple[int, ...], z) -> tuple:
    """(value, rigorous tail + rounding bound) of the word integral at z."""
    if not word:
        return (mpmath.mpf(1), mpmath.mpf(0))
    ones = sum(1 for s in word if s != 0)
    cap = _series_cap_for(z, ones)
    key = (word, str(z), cap)
    hit = _value_cache.get(key)
    if hit is not None:
        return hit
    coeffs = _tail_series(word, cap)
    value = mpmath.mpf(0)
    for n in range(cap, 0, -1):
        value = value * z + coeffs[n]
    value *= z
    rho = abs(z) * (cap + 1) / (cap + 2 - ones)
    if rho >= 1:
        raise RuntimeError("series cap too small for this evaluation point")
    tail = math.comb(cap, max(ones - 1, 0)) * abs(z) ** (cap + 1) / (1 - rho)
    out = (value, tail + _smear(value))
    _value_cache[key] = out
    return out


def _path_split(parts: tuple[int, ...], letter: int) -> EvalResult:
    """The word integral of the index from 0 to 1, split at the fixed
    point of the involution that swaps dt/t with dt/(1-t^letter):
    t -> 1-t at level one (point 1/2), t -> (1-t)/(1+t) at level two
    (point sqrt(2)-1).  The upper piece maps onto a lower piece of the
    reversed, letter-swapped word, turning the value into a finite
    convolution of rapidly converging pieces (Borwein, Bradley,
    Broadhurst and Lisonek, "Special values of multiple polylogarithms",
    2001)."""
    key = (letter, parts)
    hit = _result_cache.get(key)
    if hit is not None:
        return hit
    word = _word(parts, letter)
    point = mpmath.mpf(1) / 2 if letter == 1 else mpmath.sqrt(2) - 1
    total = mpmath.mpf(0)
    bound = mpmath.mpf(0)
    # The level-two involution carries dt/t to 2 dt/(1-t^2) and
    # dt/(1-t^2) to dt/(2t); at level one the forms swap with factor 1.
    factor = mpmath.mpf(1)
    for j in range(len(word) + 1):
        if j > 0 and letter == 2:
            factor *= 2 if word[j - 1] == 0 else mpmath.mpf(1) / 2
        a, ea = _word_value(tuple(letter - s for s in reversed(word[:j])), point)
        b, eb = _word_value(word[j:], point)
        total += factor * a * b
        bound += factor * (abs(a) * eb + abs(b) * ea + ea * eb)
    res = EvalResult(total, bound + _smear(total), "path-split-convolution")
    _result_cache[key] = res
    return res


# ---------------------------------------------------------------------------
# Level one: multiple zeta values.


def _require_admissible(k) -> tuple[int, ...]:
    parts = require_index(k)
    if parts[-1] < 2:
        raise PoleError(f"divergent series: index {parts!r} must end with a part >= 2")
    return parts


def mzv(k) -> EvalResult:
    """The multiple zeta value of an admissible index, summing
    1/(m_1^{k_1} ... m_r^{k_r}) over 0 < m_1 < ... < m_r.

    Raises PoleError when the last part is 1.
    """
    _activate()
    parts = _require_admissible(k)
    res = _path_split(parts, 1)
    if _state["perturb"] and parts == (1, 2):
        return EvalResult(res.value * (1 + mpmath.mpf("1e-6")), res.error_bound, res.method + "+nudge")
    return res


def zeta(s: int) -> EvalResult:
    """Depth-one value; integer argument at least 2.

    Raises PoleError at and below 1, where the series diverges.
    """
    if require_int(s, "s") <= 1:
        raise PoleError(f"pole or divergence at argument {s}")
    return mzv((s,))


def mzsv(k) -> EvalResult:
    """The star variant: summation over weakly increasing tuples,
    equivalently the sum of plain values over all coarsenings."""
    _activate()
    parts = _require_admissible(k)
    return sum_results([mzv(c) for c in coarsenings(parts)], "coarsening-sum")


def mpl_numeric(k, z) -> EvalResult:
    """Multiple polylogarithm at a real point with |z| <= 0.95, any index
    of positive integers (admissibility is not needed inside the disk)."""
    _activate()
    parts = require_index(k)
    zv = _mpf(z)
    if not abs(zv) <= mpmath.mpf("0.95"):
        raise ValueError("evaluation point must satisfy |z| <= 0.95")
    if zv == 0:
        return exact_result(0, "series")
    value, err = _word_value(_word(parts, 1), zv)
    return EvalResult(value, err, "series")


# ---------------------------------------------------------------------------
# Level two: T values via the involution t -> (1-t)/(1+t).


def t0_value(k) -> EvalResult:
    """The parity-restricted zeta value: the defining sum runs over
    0 < m_1 < ... < m_r with m_i = i mod 2."""
    _activate()
    parts = _require_admissible(k)
    return _path_split(parts, 2)


def t_value(k) -> EvalResult:
    """2^depth times the parity-restricted value."""
    parts = _require_admissible(k)
    return t0_value(parts).scale(2 ** depth(parts))


# ---------------------------------------------------------------------------
# Direct-sum oracles with analytic tail bounds.


def _iterated_log_tail(q: int, power: int, cutoff: int):
    """Bound for sum_{c > cutoff} (1 + ln c)^q / c^power (power >= 2) via
    the integral plus one maximal term.  No factorial saving is claimed;
    callers that have one divide by q! themselves."""
    v0 = 1 + mpmath.log(cutoff)
    s = power - 1
    integral = mpmath.e**s * mpmath.gammainc(q + 1, s * v0) / mpmath.mpf(s) ** (q + 1)

    def g(x):
        return (1 + mpmath.log(x)) ** q * mpmath.mpf(x) ** (-power)

    peak = mpmath.e ** (q / power - 1)
    return integral + (g(cutoff) if cutoff >= peak else g(peak))


def _nested_sum(parts: tuple[int, ...], cutoff: int, parity: bool):
    """(value, bound) of the nested sum truncated at m_r <= cutoff, in
    float64.  The bound adds the discarded terms to the rounding.

    For the discarded terms, relax every inner part >= 2 to an independent
    full sum (factor Z), keep the q inner parts equal to 1 mutually
    ordered so their harmonic product is at most (1 + ln m)^q / q!, and
    bound the remaining sum over m > cutoff.  Dropping the parity
    constraint only adds positive terms, so the bound covers both
    families.
    """
    import numpy as np

    m = np.arange(cutoff + 1, dtype=np.float64)
    m[0] = 1.0  # placeholder; slot 0 is zeroed after each power
    h = np.ones(cutoff + 1, dtype=np.float64)
    for i, p in enumerate(parts):
        if i > 0:
            prefix = np.concatenate(([0.0], np.cumsum(h)[:-1]))
            h = prefix
        h = h * m ** float(-p)
        h[0] = 0.0
        if parity:
            mask = (np.arange(cutoff + 1) % 2) == ((i + 1) % 2)
            h = np.where(mask, h, 0.0)
    total = float(np.sum(h))
    # float64 rounding: relative error per cumsum stage grows linearly in
    # the length; r stages over cutoff terms, with margin.
    rounding = abs(total) * len(parts) * cutoff * 2.3e-16 * 8
    q = sum(1 for p in parts[:-1] if p == 1)
    z_factor = mpmath.mpf(1)
    for p in parts[:-1]:
        if p >= 2:
            z_factor *= 1 + mpmath.mpf(1) / (p - 1)
    tail = z_factor * _iterated_log_tail(q, parts[-1], cutoff) / math.factorial(q)
    return mpmath.mpf(total), tail + mpmath.mpf(rounding)


def mzv_direct(k, cutoff: int = 100_000) -> EvalResult:
    """Truncated nested sum for the multiple zeta value.  Slow and
    low-accuracy by design; its honest tail bound makes it an oracle."""
    _activate()
    parts = _require_admissible(k)
    value, bound = _nested_sum(parts, int(cutoff), parity=False)
    return EvalResult(value, bound, "direct-sum")


def t0_direct(k, cutoff: int = 100_000) -> EvalResult:
    """Truncated nested sum for the parity-restricted value, with the
    level-one tail bound."""
    _activate()
    parts = _require_admissible(k)
    value, bound = _nested_sum(parts, int(cutoff), parity=True)
    return EvalResult(value, bound, "direct-sum-parity")


# ---------------------------------------------------------------------------
# The polylogarithm just below 1, and exact zeta values at integers <= 0.


# B_0, B_1, ... as far as any caller has asked; grown under the lock so
# that concurrent callers append each number once and in order.
_bernoulli_table: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number (convention with value -1/2 at n = 1).

    >>> bernoulli_number(4)
    Fraction(-1, 30)
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    items = _bernoulli_table
    if n >= len(items):
        with _bernoulli_lock:
            for m in range(len(items), n + 1):
                acc = Fraction(0)
                for j in range(m):
                    acc += math.comb(m + 1, j) * items[j]
                items.append(-acc / (m + 1))
    return items[n]


def zeta_nonpositive(n: int) -> Fraction:
    """Exact zeta value at an integer <= 0."""
    if n > 0:
        raise ValueError("argument must be <= 0")
    if n == 0:
        return Fraction(-1, 2)
    m = -n
    return -bernoulli_number(m + 1) / (m + 1)


@dataclass(frozen=True)
class _NearOneTable:
    """The u-independent parts of polylog_near_one for one k."""

    coeffs: tuple  # (-1)^j zeta(k-j)/j! for j = 0..j_top, 0 at j = k-1
    coeff_bounds: tuple  # error bounds of coeffs[j], j = 0..k-2
    harmonic: Any  # H_(k-1)
    inv_powers: tuple  # 1/n^k for n = 1, 2, ... as far as u = 1 needs


# Keyed on k alone: the precision is locked before the first evaluation.
_near_one_tables: dict[int, _NearOneTable] = {}


def _exp_series_terms(uv) -> int:
    # Terms of sum q^n/n^k, q = e^(-u), until q^n falls below precision.
    return int((_state["prec"] + 16) * math.log(2) / float(uv)) + 2


def _near_one_table(k: int) -> _NearOneTable:
    hit = _near_one_tables.get(k)
    if hit is not None:
        return hit
    j_top = _state["prec"] // 2 + 48
    coeffs = []
    bounds = []
    for j in range(j_top + 1):
        if k - j >= 2:
            zr = mzv((k - j,))
            coeffs.append((-1) ** j * zr.value / math.factorial(j))
            bounds.append(zr.error_bound / math.factorial(j))
        elif j == k - 1:
            coeffs.append(mpmath.mpf(0))
        else:
            coeffs.append(_mpf((-1) ** j * zeta_nonpositive(k - j) / math.factorial(j)))
    table = _NearOneTable(
        coeffs=tuple(coeffs),
        coeff_bounds=tuple(bounds),
        harmonic=_mpf(sum(Fraction(1, i) for i in range(1, k))),
        inv_powers=tuple(1 / mpmath.mpf(n) ** k for n in range(1, _exp_series_terms(1) + 1)),
    )
    _near_one_tables[k] = table
    return table


def polylog_near_one(k: int, u) -> EvalResult:
    """Li_k(e^(-u)) for integer k >= 2 and u > 0.

    For u >= 1 the defining series sum q^n/n^k, q = e^(-u), converges
    fast.  Below 1 the series in u is used instead: a single logarithmic
    term (-u)^(k-1)/(k-1)! (H_(k-1) - ln u) plus sum_j zeta(k-j) (-u)^j / j!
    over j != k-1, with exact values at nonpositive integers (DLMF 25.12).
    The two branches agree at the seam, which tests pin down.

    Everything that does not depend on u (the coefficients zeta(k-j)/j!
    and their bounds, H_(k-1), and the 1/n^k) is computed once per k, on
    the first call; each call then evaluates its sums by Horner's rule.
    """
    _activate()
    require_int(k, "k", 2)
    uv = _mpf(u)
    if not uv > 0:
        raise ValueError("u must be positive")
    table = _near_one_table(k)
    if uv >= 1:
        n_terms = _exp_series_terms(uv)
        q = mpmath.e ** (-uv)
        total = mpmath.mpf(0)
        for inv in reversed(table.inv_powers[:n_terms]):
            total = (total + inv) * q
        tail = q ** (n_terms + 1) / (1 - q)
        return EvalResult(total, tail + _smear(total), "exponential-series")

    total = mpmath.mpf(0)
    for c in reversed(table.coeffs):
        total = total * uv + c
    total += (-uv) ** (k - 1) / math.factorial(k - 1) * (table.harmonic - mpmath.log(uv))
    bound = mpmath.mpf(0)
    for b in reversed(table.coeff_bounds):
        bound = bound * uv + b
    # Remaining terms involve zeta at negative integers; via the Bernoulli
    # growth rate |zeta(-m)| <= 4 m! / (2 pi)^(m+1) they are dominated by
    # a geometric series in u/(2 pi).
    j_top = len(table.coeffs) - 1
    ratio = uv / (2 * mpmath.pi)
    tail = 4 / (2 * mpmath.pi) * uv**k * ratio ** (j_top + 1 - k) / (1 - ratio)
    return EvalResult(total, bound + tail + _smear(total), "near-one-expansion")


# ---------------------------------------------------------------------------
# Checks owned by this module.


def duality_numeric_check(max_weight: int = 8, tolerance: float = 1e-8):
    """Value equality under index duality, across every admissible index
    of weight up to max_weight (each dual pair checked once)."""
    out = []
    seen = set()
    for k in sorted(indices_up_to_weight(max_weight), key=weight):
        if k[-1] >= 2:
            d = dual(k)
            if (d, k) in seen:
                continue
            seen.add((k, d))
            watch = Stopwatch()
            out.append(
                report_numeric(
                    "mzv.duality",
                    {"index": k, "dual": d},
                    mzv(k),
                    mzv(d),
                    tolerance,
                    elapsed=watch.elapsed(),
                )
            )
    return out


_ORACLE_SLATE_ZETA = ((2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 2), (2, 3), (1, 2, 2), (1, 1, 1, 2))
_ORACLE_SLATE_T0 = ((2,), (3,), (1, 2), (2, 2), (1, 1, 2), (2, 3))


def direct_oracle_check(cutoff: int = 100_000, tolerance: float = 1e-8):
    """Convolution route against the truncated nested sum, both families.

    The oracle's tail bound enters the pass criterion, so the comparison
    stays honest even where the truncation error dwarfs the tolerance.
    """
    out = []
    for parts in _ORACLE_SLATE_ZETA:
        watch = Stopwatch()
        out.append(
            report_numeric(
                "mzv.direct-sum-crosscheck",
                {"index": parts, "cutoff": cutoff},
                mzv(parts),
                mzv_direct(parts, cutoff),
                tolerance,
                elapsed=watch.elapsed(),
            )
        )
    for parts in _ORACLE_SLATE_T0:
        watch = Stopwatch()
        out.append(
            report_numeric(
                "t0.direct-sum-crosscheck",
                {"index": parts, "cutoff": cutoff},
                t0_value(parts),
                t0_direct(parts, cutoff),
                tolerance,
                elapsed=watch.elapsed(),
            )
        )
    return out
