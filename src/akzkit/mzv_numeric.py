"""High-precision multiple zeta and T values with tracked error bounds.

Every public evaluator returns an EvalResult carrying a value, a rigorous
error bound, and the method used.  Two independent routes exist for each
family: a fast convolution of iterated-integral tails at an interior
point (the default), and a plain truncated nested sum with an analytic
tail estimate (the oracle).  Checks elsewhere compare the routes and
treat the bounds as part of the pass criterion, never as decoration.

Words here encode iterated integrals over the one-forms dt/t (symbol 0)
and dt/(1-t^a) (symbol a).  An index maps to its binary word from
index_algebra.word, outermost symbol first, with the letter 1 kept at
level one and mapped to a = 2 at level two; the level-two form
introduces the parity pattern m_i = i mod 2 in the underlying sums.
Both levels share one engine.

The path split of an index needs the values of every suffix of two words,
the word of the index and the word of its dual.  Each suffix is the
next shorter one with one more outer symbol, so words are built from the
innermost symbol outwards, in one walk over the trie of the reversed
words at one point: each suffix they share is built once, and a
coefficient list is kept only where the trie branches.  Every split,
single or one of a sweep over an explicit list of indices, goes through
one entry that walks all the words of its uncached splits at once and
then convolves them.  No coefficient list outlives its walk.

The precision belongs to each call, not to the process.  configure
names the precision in bits that every bound assumes, and each entry point
of the engine runs under mpmath.workprec at that precision, or at mpmath's
own where that is higher, then leaves mpmath's precision as the caller had
it; EvalResult arithmetic, exact_result and sum_results do the same.  A
bound still assumes that its value was computed at the configured
precision or above, and _smear refuses one that was not.  Three caches
keep what is asked for again: the value of each word integral at its
exact point, each path-split result, and, per (k, letter), the
u-independent coefficients of polylog_near_one.  None of their keys names
the precision: configure empties all three when it changes it.  Cached
values are served without entering the scope.
"""

from __future__ import annotations

import functools
import math
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
    word,
)
from .reports import RowLog

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

_state = {"prec": _DEFAULT_PREC, "perturb": False}

_value_cache: dict[tuple, tuple] = {}
_result_cache: dict[tuple, "EvalResult"] = {}


def configure(prec_bits: int = _DEFAULT_PREC) -> None:
    """Set the working precision in bits, an int of at least 64, and set
    mpmath's own to match.  It may be called at any time: a new precision
    empties the caches of values built at the old one.  No other call of
    the package changes mpmath's precision."""
    require_int(prec_bits, "precision in bits", 64)
    if prec_bits != _state["prec"]:
        _state["prec"] = prec_bits
        _value_cache.clear()
        _result_cache.clear()
        _near_one_tables.clear()
    mpmath.mp.prec = prec_bits


def current_precision() -> int:
    return _state["prec"]


def _at_precision(fn):
    """Run fn under mpmath.workprec at the configured precision, or at
    mpmath's own where that is higher, so the caller's precision is never
    lowered and comes back as it was.  At or above the configured
    precision fn runs as it is: nothing in the package assigns mpmath's
    precision, and mpmath.quad restores what it raises."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if mpmath.mp.prec >= _state["prec"]:
            return fn(*args, **kwargs)
        with mpmath.workprec(_state["prec"]):
            return fn(*args, **kwargs)

    return scoped


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
    # Every computed bound passes through here, so a value computed below
    # the configured precision raises instead.
    if mpmath.mp.prec < _state["prec"]:
        raise RuntimeError(
            f"mpmath's precision {mpmath.mp.prec} is below the configured precision {_state['prec']}"
        )
    return mpmath.ldexp(abs(value) + 1, 40 - _state["prec"])


@dataclass(frozen=True)
class EvalResult:
    """A numeric value plus a bound on its total error."""

    value: Any
    error_bound: Any
    method: str

    @_at_precision
    def __add__(self, other: "EvalResult") -> "EvalResult":
        v = self.value + other.value
        return EvalResult(v, self.error_bound + other.error_bound + _smear(v), "composite")

    @_at_precision
    def __sub__(self, other: "EvalResult") -> "EvalResult":
        v = self.value - other.value
        return EvalResult(v, self.error_bound + other.error_bound + _smear(v), "composite")

    @_at_precision
    def __mul__(self, other: "EvalResult") -> "EvalResult":
        v = self.value * other.value
        b = (
            abs(self.value) * other.error_bound
            + abs(other.value) * self.error_bound
            + self.error_bound * other.error_bound
        )
        return EvalResult(v, b + _smear(v), "composite")

    @_at_precision
    def scale(self, c: Any) -> "EvalResult":
        c = _mpf(c)
        return EvalResult(self.value * c, self.error_bound * abs(c) + _smear(self.value * c), self.method)


@_at_precision
def exact_result(x: Any, method: str = "exact") -> EvalResult:
    v = _mpf(x)
    return EvalResult(v, _smear(v), method)


@_at_precision
def sum_results(items: list[EvalResult], method: str = "composite") -> EvalResult:
    value = mpmath.mpf(0)
    bound = mpmath.mpf(0)
    for item in items:
        value += item.value
        bound += item.error_bound
    return EvalResult(value, bound + _smear(value), method)


# ---------------------------------------------------------------------------
# The word engine.


def _symbol_step(coeffs: list, sym: int) -> list:
    """Taylor coefficients (as mpf) of the integral of the form `sym`
    applied to the series with coefficients `coeffs`, at the same cap.
    Coefficient n uses only coefficients below n, so a longer list gives
    the same values at every shared index."""
    cap = len(coeffs) - 1
    if sym == 0:
        return [mpmath.mpf(0)] + [coeffs[n] / n for n in range(1, cap + 1)]
    # dt/(1-t^sym): coefficient n sums the coefficients m < n with
    # m = n-1 mod sym, so run one sum per residue class.
    nxt = [mpmath.mpf(0)] * (cap + 1)
    for first in range(1, sym + 1):
        running = mpmath.mpf(0)
        for n in range(first, cap + 1, sym):
            running += coeffs[n - 1]
            nxt[n] = running / n
    return nxt


def _series_cap_for(z, ones: int) -> int:
    # Coefficients are bounded by C(n-1, ones-1); pick the cap so the
    # geometric tail at |z| lands far below working precision.
    target_bits = _state["prec"] + 24
    log2z = -mpmath.log(abs(z), 2)
    cap = int(target_bits / log2z) + 4 * max(ones, 1) + 48
    return max(cap, 96)


def _series_value(coeffs: list, cap: int, ones: int, z) -> tuple:
    """(value, rigorous tail + rounding bound) at z of the series through
    t^cap, for a word with `ones` nonzero symbols."""
    value = mpmath.mpf(0)
    for n in range(cap, 0, -1):
        value = value * z + coeffs[n]
    value *= z
    rho = abs(z) * (cap + 1) / (cap + 2 - ones)
    if rho >= 1:
        raise RuntimeError("series cap too small for this evaluation point")
    tail = math.comb(cap, max(ones - 1, 0)) * abs(z) ** (cap + 1) / (1 - rho)
    return (value, tail + _smear(value))


def _word_values(words, z) -> dict[tuple, tuple]:
    """(value, bound) at z of the word integral of each word in `words`;
    the empty word has value 1.

    The words that _value_cache lacks are built in one depth-first walk
    over the trie of their reversed symbols.  Each node of the trie is a
    distinct suffix of a missing word, innermost symbol first, and costs
    one symbol step from its parent's list, all at the cap of the longest
    missing word.  Along a run of single children the walk replaces its
    list as it goes; a list is held only at a node where the trie
    branches, until its last child has stepped from it.  Each word is
    evaluated at its own cap on its node's list; since coefficient n
    never depends on the cap, each value is the one its word would get
    alone."""
    point = z._mpf_
    out: dict[tuple, tuple] = {}
    missing: dict[tuple, tuple[int, int]] = {}  # word -> (cap, ones)
    for w in words:
        hit = _value_cache.get((w, point)) if w else (mpmath.mpf(1), mpmath.mpf(0))
        if hit is not None:
            out[w] = hit
        elif w[-1] == 0:
            # Only the innermost form can meet a nonzero constant term.
            raise PoleError(f"word {w!r} is not integrable at the origin")
        else:
            ones = sum(1 for s in w if s != 0)
            missing[w] = (_series_cap_for(z, ones), ones)
    if not missing:
        return out
    # A node maps each next outer symbol to its child; key None holds the
    # missing word that ends at the node, if one does.
    trie: dict = {}
    for w in missing:
        node = trie
        for sym in reversed(w):
            node = node.setdefault(sym, {})
        node[None] = w
    start = [mpmath.mpf(1)] + [mpmath.mpf(0)] * max(cap for cap, _ in missing.values())
    stack = [(start, sym, child) for sym, child in trie.items()]
    while stack:
        coeffs, sym, node = stack.pop()
        coeffs = _symbol_step(coeffs, sym)
        w = node.pop(None, None)
        if w is not None:
            cap, ones = missing[w]
            out[w] = _value_cache[(w, point)] = _series_value(coeffs, cap, ones, z)
        stack.extend((coeffs, s, child) for s, child in node.items())
    return out


@_at_precision
def _path_splits(indices, letter: int) -> list[EvalResult]:
    """The word integral from 0 to 1 of each index, in order, split at the
    fixed point of the involution that swaps dt/t with dt/(1-t^letter):
    t -> 1-t at level one (point 1/2), t -> (1-t)/(1+t) at level two
    (point sqrt(2)-1).  The upper piece maps onto a lower piece of the
    reversed, letter-swapped word, turning the value into a finite
    convolution of rapidly converging pieces (Borwein, Bradley,
    Broadhurst and Lisonek, "Special values of multiple polylogarithms",
    2001).

    Every word value that the uncached splits read is built in one
    _word_values walk before the first of them is convolved, so a sweep
    over many indices, and the two words of a single split, build each
    suffix they share once.  A divergent index raises PoleError before
    anything is built."""
    indices = [_require_admissible(parts) for parts in indices]
    # The upper pieces of a split are the suffixes of the index's word.
    # The lower pieces are the prefixes of the reversed, letter-swapped
    # word, which is the dual's word: prefix j is suffix L - j of it, so
    # both sides are suffixes.
    splits = {
        parts: (tuple(letter * s for s in word(parts)), tuple(letter * s for s in word(dual(parts))))
        for parts in indices
        if (letter, parts) not in _result_cache
    }
    point = mpmath.mpf(1) / 2 if letter == 1 else mpmath.sqrt(2) - 1
    suffixes = {w[j:] for pair in splits.values() for w in pair for j in range(len(w) + 1)}
    values = _word_values(suffixes, point)
    for parts, (upper_word, lower_word) in splits.items():
        length = len(upper_word)
        total = mpmath.mpf(0)
        bound = mpmath.mpf(0)
        # The level-two involution carries dt/t to 2 dt/(1-t^2) and
        # dt/(1-t^2) to dt/(2t); at level one the forms swap with factor 1.
        factor = mpmath.mpf(1)
        for j in range(length + 1):
            if j > 0 and letter == 2:
                factor *= 2 if upper_word[j - 1] == 0 else mpmath.mpf(1) / 2
            a, ea = values[lower_word[length - j :]]
            b, eb = values[upper_word[j:]]
            total += factor * a * b
            bound += factor * (abs(a) * eb + abs(b) * ea + ea * eb)
        res = EvalResult(total, bound + _smear(total), "path-split-convolution")
        _result_cache[(letter, parts)] = res
    return [_result_cache[(letter, parts)] for parts in indices]


# ---------------------------------------------------------------------------
# Level one: multiple zeta values.


def _require_admissible(k) -> tuple[int, ...]:
    parts = require_index(k)
    if parts[-1] < 2:
        raise PoleError(f"divergent series: index {parts!r} must end with a part >= 2")
    return parts


def _split_value(parts: tuple[int, ...], letter: int) -> EvalResult:
    # The cached path split of an admissible index, built if missing.
    res = _result_cache.get((letter, parts))
    if res is None:
        (res,) = _path_splits([parts], letter)
    return res


def mzv(k) -> EvalResult:
    """The multiple zeta value of an admissible index, summing
    1/(m_1^{k_1} ... m_r^{k_r}) over 0 < m_1 < ... < m_r.

    Raises PoleError when the last part is 1.
    """
    parts = _require_admissible(k)
    res = _split_value(parts, 1)
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
    parts = _require_admissible(k)
    return sum_results([mzv(c) for c in coarsenings(parts)], "coarsening-sum")


@_at_precision
def mpl_numeric(k, z) -> EvalResult:
    """Multiple polylogarithm at a real point with |z| <= 0.95, any index
    of positive integers (admissibility is not needed inside the disk)."""
    parts = require_index(k)
    zv = _mpf(z)
    if not abs(zv) <= mpmath.mpf("0.95"):
        raise ValueError("evaluation point must satisfy |z| <= 0.95")
    if zv == 0:
        return exact_result(0, "series")
    w = word(parts)
    value, err = _word_values((w,), zv)[w]
    return EvalResult(value, err, "series")


# ---------------------------------------------------------------------------
# Level two: T values via the involution t -> (1-t)/(1+t).


def t0_value(k) -> EvalResult:
    """The parity-restricted zeta value: the defining sum runs over
    0 < m_1 < ... < m_r with m_i = i mod 2."""
    return _split_value(_require_admissible(k), 2)


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


def _float64_rounding(value: float, stages: int, cutoff: int) -> float:
    """Bound for the rounding in a float64 sum built by `stages` cumulative
    sums over `cutoff` terms: the relative error of one stage grows
    linearly in its length, taken with a margin of eight.

    Every term is positive, so a sum in which each term passes through at
    most d additions is off by at most d u / (1 - d u) relative, u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 4.2), and
    2.3e-16 per term is 2u.  A stage's terms carry one rounding of their
    own (a reciprocal or power and a product), and stages compound
    additively to first order.  The count covers the blocked pass of
    `ak_zeta._harmonic_sums` as it covers one long cumulative sum:

    - G_j(c) is a left-to-right sum within its block plus one carry add
      per element, so a term of an earlier block reaches it through the
      rest of its own block and one carry add per later block: at most c
      additions, c <= cutoff.
    - Each block's share of a sum is summed pairwise, in at most its
      length of additions.
    - The block totals are summed in sequence, one addition per block, so
      a term passes through at most min(cutoff, 2^16) + ceil(cutoff / 2^16)
      <= cutoff + 1 additions.

    Each stage thus stays within about (cutoff + 3) u, under the
    16 u * cutoff it is counted at.
    """
    return abs(value) * stages * cutoff * 2.3e-16 * 8


@_at_precision
def _nested_sum(k, cutoff: int, parity: bool, method: str) -> EvalResult:
    """The nested sum of an admissible index, truncated at m_r <= cutoff,
    in float64, with m_i = i mod 2 when `parity` is set.  The bound adds
    the discarded terms to the rounding.

    For the discarded terms, relax every inner part >= 2 to an independent
    full sum (factor Z), keep the q inner parts equal to 1 mutually
    ordered so their harmonic product is at most (1 + ln m)^q / q!, and
    bound the remaining sum over m > cutoff.  Dropping the parity
    constraint only adds positive terms, so the bound covers both
    families.
    """
    import numpy as np

    parts = _require_admissible(k)
    require_int(cutoff, "cutoff", 1)
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
    rounding = _float64_rounding(total, len(parts), cutoff)
    q = sum(1 for p in parts[:-1] if p == 1)
    z_factor = mpmath.mpf(1)
    for p in parts[:-1]:
        if p >= 2:
            z_factor *= 1 + mpmath.mpf(1) / (p - 1)
    tail = z_factor * _iterated_log_tail(q, parts[-1], cutoff) / math.factorial(q)
    return EvalResult(mpmath.mpf(total), tail + mpmath.mpf(rounding), method)


def mzv_direct(k, cutoff: int = 100_000) -> EvalResult:
    """Truncated nested sum for the multiple zeta value.  Slow and
    low-accuracy by design; its honest tail bound makes it an oracle."""
    return _nested_sum(k, cutoff, False, "direct-sum")


def t0_direct(k, cutoff: int = 100_000) -> EvalResult:
    """Truncated nested sum for the parity-restricted value, with the
    level-one tail bound."""
    return _nested_sum(k, cutoff, True, "direct-sum-parity")


# ---------------------------------------------------------------------------
# The polylogarithm just below 1, exact zeta values at integers <= 0, and
# the depth-one integral over the polylogarithm.


# B_0, B_1, ... as far as any caller has asked, or further.
_bernoulli_table: list[Fraction] = [Fraction(1)]


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], where tan x = sum_k T_k x^(2k-1) / (2k-1)!, in
    ints: Brent and Harvey's algorithm TangentNumbers ("Fast computation
    of Bernoulli, Tangent and Secant numbers", 2011, arXiv:1108.0286), with
    O(n^2) small-int multiply-adds and no division."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number (convention with value -1/2 at n = 1).

    The even ones come from the tangent numbers,
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

    >>> bernoulli_number(4)
    Fraction(-1, 30)
    """
    require_int(n, "n", 0)
    items = _bernoulli_table
    if n >= len(items):
        # A build to n costs O(n^2), so each one at least doubles the
        # table: requests for n = 1, 2, 3, ... then cost O(n^2) in all.
        top = max(n, 2 * len(items)) // 2
        tangent = _tangent_numbers(top)
        fresh = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, top + 1):
            fresh += [Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1)), Fraction(0)]
        items += fresh[len(items) :]
    return items[n]


def zeta_nonpositive(n: int) -> Fraction:
    """Exact zeta value at an integer <= 0."""
    if require_int(n, "n") > 0:
        raise ValueError(f"n must be an integer <= 0, got {n!r}")
    if n == 0:
        return Fraction(-1, 2)
    m = -n
    return -bernoulli_number(m + 1) / (m + 1)


def _exact(x) -> Fraction:
    """The value of a finite mpf as a Fraction, exactly."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -value if sign else value


@dataclass(frozen=True)
class _FixedSeries:
    """sum_j c_j x^j for 0 <= x <= 1 in F-bit fixed point: each c_j is
    stored as the int nearest to c_j 2^F."""

    coeffs: tuple[int, ...]
    frac_bits: int  # F
    # Bounds sum_j |A_(j+1)| / 2^F over the partial sums A of a Horner
    # evaluation, which is how far an error of one unit in x moves the
    # result: sum_j j (|c_j| + 1) rounded up, plus one unit per coefficient
    # for the errors the partial sums carry.
    slope: int

    @classmethod
    def build(cls, coeffs: list[int], frac_bits: int) -> "_FixedSeries":
        moment = sum(j * (abs(c) + 1) for j, c in enumerate(coeffs))
        return cls(tuple(coeffs), frac_bits, -(-moment >> frac_bits) + len(coeffs))

    def evaluate(self, x, x_units: int, terms: int) -> tuple:
        """(value, rounding bound) of the sum over the first `terms`
        coefficients, at an mpf x within x_units units of 2^-F of the true
        point once floored to F bits.  Each Horner step floors once (under
        one unit) and adds a rounded coefficient (half a unit); the error
        in x costs slope units per unit."""
        f = self.frac_bits
        # floor(x 2^F) from x = man 2^exp, with no Fraction: >> floors
        # for either sign.
        sign, man, exp, _ = x._mpf_
        man = -man if sign else man
        point = man << (exp + f) if exp + f >= 0 else man >> -(exp + f)
        acc = 0
        for c in reversed(self.coeffs[:terms]):
            acc = ((acc * point) >> f) + c
        units = terms + (terms + 1) // 2 + self.slope * x_units
        return mpmath.ldexp(acc, -f), mpmath.ldexp(units, -f)


@dataclass(frozen=True)
class _NearOneTable:
    """The u-independent parts of polylog_near_one for one (k, letter)."""

    # c_j (-1)^j zeta(k-j)/j! for j = 0..j_top, 0 at j = k-1, where c_j is 1
    # at letter 1 and 1 - 2^(j-k) at letter 2.
    series: _FixedSeries
    # The error of the zeta values in those coefficients, sum_j c_j bound/j!,
    # which bounds its effect at every u < 1.
    series_error: Any
    # The truncated tail at u = 1; it grows with u, so it bounds every u < 1.
    series_tail: Any
    # The logarithmic term is log_scale u^(k-1) (log_shift - ln u).
    log_scale: Any  # (-1)^(k-1) / (letter (k-1)!)
    log_shift: Any  # H_(k-1), plus ln 2 at letter 2
    # 1/(letter i + 1)^k for i = 0, 1, ... as far as u = 1 needs.
    exp_series: _FixedSeries


# Keyed on (k, letter) alone: configure empties it when the precision
# changes.
_near_one_tables: dict[tuple[int, int], _NearOneTable] = {}


def _exp_series_terms(x_log) -> int:
    # Terms of a series in x = e^(-x_log) with coefficients at most 1,
    # until x^n falls below 2^-(prec + 16) e^(-x_log).
    return int((_state["prec"] + 16) * math.log(2) / float(x_log)) + 2


def _near_one_table(k: int, letter: int) -> _NearOneTable:
    hit = _near_one_tables.get((k, letter))
    if hit is not None:
        return hit
    frac_bits = _state["prec"] + 32
    scale = 1 << frac_bits
    # Past j_top the terms involve zeta at negative integers; via the
    # Bernoulli growth rate |zeta(-m)| <= 4 m! / (2 pi)^(m+1), and
    # |1 - 2^m| < 2^m at letter 2, they are dominated by a geometric
    # series in u letter/(2 pi).  At letter 2 take as many more terms as
    # keep its tail at u = 1 no larger than at letter 1.  Past k = 3, j_top
    # grows with k, so every dropped term is zeta at a negative integer
    # and the tail bound is the one at k = 3.
    two_pi = 2 * mpmath.pi
    ratio = letter / two_pi
    j_top = _state["prec"] // 2 + 48
    j_top = math.ceil(j_top * math.log(2 * math.pi) / math.log(2 * math.pi / letter))
    j_top += max(0, k - 3)
    # The zeta values at positive arguments, from one walk over their words.
    _path_splits([(k - j,) for j in range(k - 1)], 1)
    coeffs = []
    error = mpmath.mpf(0)
    for j in range(j_top + 1):
        even_part = 1 - (letter - 1) * Fraction(2**j, 2**k)
        if k - j >= 2:
            zr = mzv((k - j,))
            coeffs.append(round((-1) ** j * even_part * _exact(zr.value) * scale / math.factorial(j)))
            error += _mpf(even_part) * zr.error_bound / math.factorial(j)
        elif j == k - 1:
            coeffs.append(0)
        else:
            value = even_part * zeta_nonpositive(k - j)
            coeffs.append(round((-1) ** j * value * scale / math.factorial(j)))
    n_top = _exp_series_terms(letter)
    inv_powers = [round(Fraction(scale, (letter * i + 1) ** k)) for i in range(n_top)]
    harmonic = _mpf(sum(Fraction(1, i) for i in range(1, k)))
    table = _NearOneTable(
        series=_FixedSeries.build(coeffs, frac_bits),
        series_error=error,
        series_tail=4 / two_pi * ratio ** (j_top + 1 - k) / (1 - ratio),
        log_scale=_mpf(Fraction((-1) ** (k - 1), letter * math.factorial(k - 1))),
        log_shift=harmonic if letter == 1 else harmonic + mpmath.log(2),
        exp_series=_FixedSeries.build(inv_powers, frac_bits),
    )
    _near_one_tables[(k, letter)] = table
    return table


@_at_precision
def polylog_near_one(k: int, u, letter: int = 1) -> EvalResult:
    """Li_k(e^(-u)) for integer k >= 2 and u > 0 at letter 1; at letter 2
    the level-two polylogarithm Ath_k(e^(-u)) = sum over odd n of
    e^(-nu)/n^k, which is Li_k(e^(-u)) - 2^(-k) Li_k(e^(-2u)).

    For u >= 1 the defining series, q times sum_i x^i/(letter i + 1)^k
    with q = e^(-u) and x = q^letter, converges fast.  Below 1 the series
    in u is used instead: a single logarithmic term
    (-u)^(k-1)/(k-1)! (H_(k-1) - ln u) plus sum_j zeta(k-j) (-u)^j / j!
    over j != k-1, with exact values at nonpositive integers (DLMF 25.12).
    At letter 2, subtracting the same expansion at 2u scales coefficient
    j by 1 - 2^(j-k) and turns the logarithmic term into
    (-u)^(k-1)/(k-1)! (H_(k-1) + ln 2 - ln u)/2.  The two branches agree
    at the seam, which tests pin down.

    Everything that does not depend on u (the coefficients, the constants
    of the logarithmic term, the 1/(letter i + 1)^k and the bound on the
    truncated tail of the series in u) is computed once per (k, letter),
    on the first call, with the coefficients rounded to ints scaled by
    2^F, F = prec + 32.  Each call evaluates its sum by Horner's rule in
    F-bit fixed point, at x = u or at x = q^letter.  The bound counts the
    rounding in units of 2^-F: one per floor, half per rounded
    coefficient, and the error of x times the table's slope bound.  It
    adds the error of the zeta values and the truncated tail.  The series
    in u keeps more terms as k grows, so every truncated term is zeta at
    a negative integer and the tail bound holds for every k.
    """
    require_int(k, "k", 2)
    if letter not in (1, 2):
        raise ValueError(f"letter must be 1 or 2, got {letter!r}")
    uv = _mpf(u)
    if not uv > 0:
        raise ValueError("u must be positive")
    table = _near_one_table(k, letter)
    if uv >= 1:
        # x^n_terms <= 2^-(prec+16) e^(-letter u), so the tail
        # q x^n_terms / (1 - x) stays under 2^-(prec+16).
        n_terms = _exp_series_terms(letter * uv)
        # q and x carry well under one unit of error before the floor, so
        # the point is within two.  Multiplying by q < 1/e shrinks the
        # rounding, and q's own error moves the sum (under 2) by far less
        # than the unit that rounding holds at least.
        with mpmath.workprec(table.exp_series.frac_bits + 8):
            q = mpmath.exp(-uv)
            x = q if letter == 1 else q * q
        total, rounding = table.exp_series.evaluate(x, 2, n_terms)
        value = q * total
        tail = mpmath.ldexp(1, -(_state["prec"] + 16))
        return EvalResult(value, rounding + tail + _smear(value), "exponential-series")

    total, rounding = table.series.evaluate(uv, 1, len(table.series.coeffs))
    total += table.log_scale * uv ** (k - 1) * (table.log_shift - mpmath.log(uv))
    bound = rounding + table.series_error + table.series_tail
    return EvalResult(total, bound + _smear(total), "near-one-expansion")


# Where the depth-one quadrature stops, and the depth of mpmath's tanh-sinh
# rule.
_UPPER = 60
_MAXDEGREE = 8


def _self_inverse(u, letter: int):
    # w(u) = -log(1 - e^(-u)) at letter 1 and -log tanh(u/2) at letter 2,
    # written through q = e^(-u) from u = 1 on, where w is small.
    if u < 1:
        return -mpmath.log(-mpmath.expm1(-u)) if letter == 1 else -mpmath.log(mpmath.tanh(u / 2))
    q = mpmath.exp(-u)
    return -mpmath.log1p(-q) if letter == 1 else 2 * mpmath.atanh(q)


@_at_precision
def _depth1_integral(k: int, s: int, letter: int) -> EvalResult:
    """(letter/Gamma(s)) times the integral over u > 0 of
    w(u)^(s-1) P(k, u, letter), for integers k >= 2 and s >= 1, where P is
    polylog_near_one and w is the self-inverse map of _self_inverse.

    Substituting t = w(u) in the defining integrals gives this form: at
    letter 1 it is xi((k,); s), from t^(s-1) Li_k(1 - e^(-t)) / (e^t - 1),
    and at letter 2 it is psi(k; s), from 2 t^(s-1) Ath_k(tanh(t/2)) /
    sinh(t).  At s = 1 the integrand is P alone.

    mpmath's tanh-sinh rule integrates over [0, 1, _UPPER].  The bound
    adds three terms, times letter/Gamma(s) where they are integrals:
    * the rule's own error estimate times ten, which is an estimate, not
      a proof;
    * the largest bound that polylog_near_one returned at the nodes,
      times the integral of w^(s-1) over [0, _UPPER]: that is _UPPER at
      s = 1, and for s >= 2 at most the integral over u > 0,
      Gamma(s) zeta(s) at letter 1 and 2 (1 - 2^(-s)) Gamma(s) zeta(s) at
      letter 2, with zeta(s) <= s/(s-1);
    * the discarded range past U = _UPPER.  There w(u) <= c e^(-u) and
      P(k, u, letter) <= e^(-u) / (1 - e^(-letter U)) = (c/letter) e^(-u),
      with c = letter / (1 - e^(-letter U)), so the range adds at most
      c^s e^(-sU) / s! to the result.
    """
    # Build the coefficient table at the configured precision: mpmath.quad
    # raises the working precision around the integrand.
    _near_one_table(k, letter)
    worst = mpmath.mpf(0)

    def integrand(u):
        nonlocal worst
        p = polylog_near_one(k, u, letter)
        worst = max(worst, p.error_bound)
        return p.value if s == 1 else _self_inverse(u, letter) ** (s - 1) * p.value

    v, e = mpmath.quad(integrand, [0, 1, _UPPER], error=True, maxdegree=_MAXDEGREE)
    gamma_s = math.factorial(s - 1)
    # letter/Gamma(s) times the integral of w^(s-1) over [0, _UPPER].
    if s == 1:
        w_mass = letter * _UPPER
    else:
        w_mass = letter * Fraction(s, s - 1) * (1 if letter == 1 else 2 * (1 - Fraction(1, 2**s)))
    c = letter / (1 - mpmath.exp(-letter * _UPPER))
    tail = c**s * mpmath.exp(-s * _UPPER) / math.factorial(s)
    value = letter * v / gamma_s
    bound = letter * 10 * e / gamma_s + worst * _mpf(w_mass) + tail
    return EvalResult(value, bound + _smear(value), "tanh-sinh-estimate")


# ---------------------------------------------------------------------------
# Checks owned by this module.


def duality_numeric_check(max_weight: int = 8, tolerance: float = 1e-8):
    """Value equality under index duality, across every admissible index
    of weight up to max_weight (each dual pair checked once)."""
    log = RowLog()
    pairs = []
    for k in sorted(indices_up_to_weight(max_weight), key=weight):
        if k[-1] >= 2:
            d = dual(k)
            if (d, k) not in pairs:
                pairs.append((k, d))
    _path_splits([k for k, _ in pairs], 1)
    for k, d in pairs:
        log.numeric("mzv.duality", {"index": k, "dual": d}, mzv(k), mzv(d), tolerance)
    return log.rows


_ORACLE_SLATE_ZETA = ((2,), (3,), (4,), (1, 2), (2, 2), (1, 3), (1, 1, 2), (2, 3), (1, 2, 2), (1, 1, 1, 2))
_ORACLE_SLATE_T0 = ((2,), (3,), (1, 2), (2, 2), (1, 1, 2), (2, 3))


def direct_oracle_check(cutoff: int = 100_000, tolerance: float = 1e-8):
    """Convolution route against the truncated nested sum, both families.

    The oracle's tail bound enters the pass criterion, so the comparison
    stays honest even where the truncation error dwarfs the tolerance.
    """
    log = RowLog()
    _path_splits(_ORACLE_SLATE_T0, 2)
    families = (
        ("mzv.direct-sum-crosscheck", _ORACLE_SLATE_ZETA, mzv, mzv_direct),
        ("t0.direct-sum-crosscheck", _ORACLE_SLATE_T0, t0_value, t0_direct),
    )
    for identity, slate, value, direct in families:
        for parts in slate:
            log.numeric(
                identity,
                {"index": parts, "cutoff": cutoff},
                value(parts),
                direct(parts, cutoff),
                tolerance,
            )
    return log.rows
