"""Combinatorics of multi-indices.

An index is a nonempty tuple of positive integers (k_1, ..., k_r).  Its
weight is k_1 + ... + k_r, its depth is r, and it is admissible when the
last entry is at least 2 (the convention throughout is that summation
variables increase, m_1 < ... < m_r, so the last exponent controls
convergence).

Each index has one binary word, the iterated integral it stands for,
read from the outermost form in: 0 for dt/t and 1 for the letter form
(dt/(1-t) at level one).  The parts give 0^(k_r - 1) 1 0^(k_(r-1) - 1)
1 ... 0^(k_1 - 1) 1, so the word has length equal to the weight, one 1
per part, and always ends in 1; the index is admissible exactly when
the word starts with 0.  The dual index has the reversed word with 0
and 1 swapped.  Turning 0s into 1s splits parts, so the refinements of
an index are its word with any subset of 0s flipped, and its
coarsenings are its word with any subset of 1s but the last flipped.

This module holds the pure combinatorics the rest of the package leans
on: that word and the maps read from it, the k_+ operator, composition
and index enumeration, and the product of binomial coefficients b(k; j)
that appears in the finite evaluation formulas.  It also holds every
argument check the package makes: the validators of integers, indices
and parts, the one admissibility rule, whose failure is PoleError, and
require_tolerance, the rule every check's tolerance obeys.

Every range a check sweeps obeys one rule, from here: a bound goes
through require_int(bound, name, floor) and a tuple of values through
require_ints(values, name, floor), which refuses an empty one.  Each
returns what the check sweeps, and the floor is the smallest value at
which every identity the check reports gets a comparison, so no check
reports a pass over a range that compares nothing.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

Index = tuple[int, ...]
Composition = tuple[int, ...]

__all__ = [
    "Index",
    "Composition",
    "PoleError",
    "require_int",
    "require_ints",
    "require_tolerance",
    "weight",
    "depth",
    "require_index",
    "require_signed_parts",
    "require_integer_index",
    "require_admissible",
    "is_admissible",
    "plus_one",
    "word",
    "dual",
    "refinements",
    "coarsenings",
    "b_coefficient",
    "compositions",
    "indices_up_to_weight",
]


class PoleError(ValueError):
    """An evaluation point where the requested function diverges."""


def require_int(value: int, name: str, minimum: int | None = None) -> int:
    """Return value if it is an int (bool excluded) and at least minimum,
    else raise ValueError naming the argument.

    >>> require_int(3, "n", 1)
    3
    >>> require_int(True, "n")
    Traceback (most recent call last):
    ...
    ValueError: n must be an integer, got True
    """
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return value


def require_tolerance(value: float) -> float:
    """Return value if it is an int or float (bool excluded) that is finite
    and at least 0, else raise ValueError: an infinite tolerance would pass
    every row of a check, and nan or a negative one would fail every row.

    >>> require_tolerance(0)
    0
    >>> require_tolerance(float("inf"))
    Traceback (most recent call last):
    ...
    ValueError: tolerance must be a finite number >= 0, got inf
    """
    is_real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not is_real or not 0 <= value < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {value!r}")
    return value


def require_ints(values: Iterable[int], name: str, minimum: int | None = None) -> tuple[int, ...]:
    """Return values as a tuple if it is nonempty and every entry is an int
    (bool excluded) of at least minimum, else raise ValueError naming the
    argument.

    >>> require_ints([2, 3], "k_values", 2)
    (2, 3)
    >>> require_ints((), "k_values", 2)
    Traceback (most recent call last):
    ...
    ValueError: k_values must be nonempty
    """
    items = tuple(values)
    if not items:
        raise ValueError(f"{name} must be nonempty")
    for v in items:
        require_int(v, f"every entry of {name} {items!r}", minimum)
    return items


def require_index(k: Iterable[int]) -> Index:
    """Validate and normalize an index: nonempty, every part a positive int."""
    return require_ints(k, "index", 1)


def require_signed_parts(k: Iterable[int]) -> Index:
    """Validate a tuple of nonnegative parts (k_1, ..., k_r).

    Such a tuple stands for the negated exponent list (-k_1, ..., -k_r),
    the convention used by the negative-index polylogarithm helpers.
    """
    return require_ints(k, "signed index", 0)


def require_integer_index(k: Iterable[int]) -> Index:
    """Validate and normalize a multi-index of arbitrary integers, the
    upper index of the poly-Bernoulli numbers: nonempty, every entry an
    int of any sign."""
    return require_ints(k, "index")


def weight(k: Iterable[int]) -> int:
    return sum(k)


def depth(k: Iterable[int]) -> int:
    return len(tuple(k))


def require_admissible(k: Iterable[int]) -> Index:
    """Validate and normalize an admissible index: its last part is at
    least 2, so the associated series converges.  Raises PoleError on a
    valid index that is not admissible."""
    parts = require_index(k)
    if parts[-1] < 2:
        raise PoleError(f"divergent series: index {parts!r} must end with a part >= 2")
    return parts


def is_admissible(k: Iterable[int]) -> bool:
    """True iff the last part is >= 2, so the associated series converges."""
    try:
        require_admissible(k)
    except PoleError:
        return False
    return True


def plus_one(k: Iterable[int]) -> Index:
    """Increment the last entry.  The result is always admissible."""
    parts = require_index(k)
    return parts[:-1] + (parts[-1] + 1,)


def word(k: Iterable[int]) -> tuple[int, ...]:
    """The binary word of an index, outermost symbol first: part k_i
    becomes 0^(k_i - 1) 1, read from the last part to the first.

    >>> word((1, 3))
    (0, 0, 1, 1)
    >>> word((2, 1))
    (1, 0, 1)
    """
    return tuple(s for p in reversed(require_index(k)) for s in (0,) * (p - 1) + (1,))


def _unword(w: Iterable[int]) -> Index:
    # Each 1 closes the run of 0s before it into one part, last part first.
    parts = []
    run = 1
    for s in w:
        if s:
            parts.append(run)
            run = 1
        else:
            run += 1
    if run != 1 or not parts:
        raise ValueError("malformed index word")
    return tuple(reversed(parts))


def dual(k: Iterable[int]) -> Index:
    """The dual index: its word is the word of k reversed, with 0 and 1
    swapped.

    Only admissible indices have duals; the map is an involution that
    preserves weight and satisfies depth(k) + depth(dual(k)) = weight(k).

    >>> dual((3,))
    (1, 2)
    >>> dual((2,))
    (2,)
    """
    return _unword(1 - s for s in reversed(word(require_admissible(k))))


def _flips(k: Iterable[int], symbol: int) -> tuple[Index, ...]:
    # Every index whose word is the word of k with any subset of its
    # `symbol`s flipped, the final 1 excepted, sorted ascending.
    w = word(k)
    choices = [(s, 1 - s) if s == symbol else (s,) for s in w[:-1]] + [(1,)]
    return tuple(sorted(_unword(v) for v in itertools.product(*choices)))


def refinements(k: Iterable[int]) -> tuple[Index, ...]:
    """All indices k' with k <= k' in the refinement order.

    k precedes k' when k is obtained from k' by replacing some commas with
    plus signs; equivalently, k' splits each part of k into an ordered sum.
    The result contains k itself, has exactly prod_i 2^(k_i - 1) members,
    and is sorted in ascending lexicographic order for reproducibility.
    """
    return _flips(k, 0)


def coarsenings(k: Iterable[int]) -> tuple[Index, ...]:
    """All indices k' with k' <= k: merge any subset of adjacent parts.

    Inverse direction of :func:`refinements`; k' is a coarsening of k
    exactly when k is a refinement of k'.  Sorted ascending.
    """
    return _flips(k, 1)


def b_coefficient(k: Iterable[int], j: Iterable[int]) -> int:
    """The product prod_i C(k_i + j_i - 1, j_i), exactly.

    k must be an index and j a nonnegative composition of the same depth.
    """
    kp = require_index(k)
    jp = require_ints(j, "composition", 0)
    if len(kp) != len(jp):
        raise ValueError(f"depth mismatch: index {kp!r} vs composition {jp!r}")
    return math.prod(math.comb(ki + ji - 1, ji) for ki, ji in zip(kp, jp))


def compositions(total: int, parts: int) -> list[Composition]:
    """All tuples of `parts` nonnegative integers summing to `total`.

    Enumerated in descending lexicographic order, so
    compositions(2, 2) == [(2, 0), (1, 1), (0, 2)].  The count is
    C(total + parts - 1, parts - 1).
    """
    # Stars and bars: parts - 1 bars among total + parts - 1 slots.  The
    # bar positions grow with the composition in lexicographic order.
    slots = require_int(total, "total", 0) + require_int(parts, "parts", 1) - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
        for bars in reversed(list(itertools.combinations(range(slots), parts - 1)))
    ]


def indices_up_to_weight(max_weight: int) -> list[Index]:
    """Every index of weight 1 through max_weight, admissible or not, in
    ascending lexicographic order.

    >>> indices_up_to_weight(3)
    [(1,), (1, 1), (1, 1, 1), (1, 2), (2,), (2, 1), (3,)]
    """
    return sorted(
        tuple(c + 1 for c in comp)
        for w in range(1, max_weight + 1)
        for r in range(1, w + 1)
        for comp in compositions(w - r, r)
    )
