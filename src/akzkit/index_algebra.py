"""Combinatorics of multi-indices.

An index is a nonempty tuple of positive integers (k_1, ..., k_r).  Its
weight is k_1 + ... + k_r, its depth is r, and it is admissible when the
last entry is at least 2 (the convention throughout is that summation
variables increase, m_1 < ... < m_r, so the last exponent controls
convergence).  This module holds the pure combinatorics the rest of the
package leans on: the k_+ operator, duality by binary-word reversal, the
refinement partial order, composition and index enumeration, the
product of binomial coefficients b(k; j) that appears in the finite
evaluation formulas, and the integer validator every module uses.
"""

from __future__ import annotations

import math
from typing import Iterable

Index = tuple[int, ...]
Composition = tuple[int, ...]

__all__ = [
    "Index",
    "Composition",
    "require_int",
    "weight",
    "depth",
    "require_index",
    "require_signed_parts",
    "require_integer_index",
    "is_admissible",
    "plus_one",
    "dual",
    "refinements",
    "coarsenings",
    "b_coefficient",
    "compositions",
    "indices_up_to_weight",
]


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


def _require_parts(k: Iterable[int], what: str, minimum: int | None) -> Index:
    parts = tuple(k)
    if not parts:
        raise ValueError(f"{what} must be nonempty")
    for p in parts:
        require_int(p, f"every part of {what} {parts!r}", minimum)
    return parts


def require_index(k: Iterable[int]) -> Index:
    """Validate and normalize an index: nonempty, every part a positive int."""
    return _require_parts(k, "index", 1)


def require_signed_parts(k: Iterable[int]) -> Index:
    """Validate a tuple of nonnegative parts (k_1, ..., k_r).

    Such a tuple stands for the negated exponent list (-k_1, ..., -k_r),
    the convention used by the negative-index polylogarithm helpers.
    """
    return _require_parts(k, "signed index", 0)


def require_integer_index(k: Iterable[int]) -> Index:
    """Validate and normalize a multi-index of arbitrary integers, the
    upper index of the poly-Bernoulli numbers: nonempty, every entry an
    int of any sign."""
    return _require_parts(k, "index", None)


def weight(k: Iterable[int]) -> int:
    return sum(k)


def depth(k: Iterable[int]) -> int:
    return len(tuple(k))


def is_admissible(k: Iterable[int]) -> bool:
    """True iff the last part is >= 2, so the associated series converges."""
    parts = require_index(k)
    return parts[-1] >= 2


def plus_one(k: Iterable[int]) -> Index:
    """Increment the last entry.  The result is always admissible."""
    parts = require_index(k)
    return parts[:-1] + (parts[-1] + 1,)


def _encode(parts: Index) -> str:
    # Part p becomes one 'A' followed by p-1 'B's, reading the index left
    # to right.  Words of admissible indices start with 'A' and end with 'B'.
    return "".join("A" + "B" * (p - 1) for p in parts)


def _decode(word: str) -> Index:
    if not word or word[0] != "A":
        raise ValueError("malformed index word")
    parts = []
    run = 0
    for ch in word:
        if ch == "A":
            if run:
                parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def dual(k: Iterable[int]) -> Index:
    """The dual index, via reversal of the binary-word encoding.

    Only admissible indices have duals; the map is an involution that
    preserves weight and satisfies depth(k) + depth(dual(k)) = weight(k).

    >>> dual((3,))
    (1, 2)
    >>> dual((2,))
    (2,)
    """
    parts = require_index(k)
    if parts[-1] < 2:
        raise ValueError(f"dual requires an admissible index, got {parts!r}")
    word = _encode(parts)
    swapped = "".join("A" if ch == "B" else "B" for ch in reversed(word))
    return _decode(swapped)


def refinements(k: Iterable[int]) -> tuple[Index, ...]:
    """All indices k' with k <= k' in the refinement order.

    k precedes k' when k is obtained from k' by replacing some commas with
    plus signs; equivalently, k' splits each part of k into an ordered sum.
    The result contains k itself, has exactly prod_i 2^(k_i - 1) members,
    and is sorted in ascending lexicographic order for reproducibility.
    """
    parts = require_index(k)
    results: list[Index] = [()]
    for p in parts:
        # The ordered sums of p: each composition of p - r into r
        # nonnegative parts, with every part raised by one.
        splits = [
            tuple(c + 1 for c in comp) for r in range(1, p + 1) for comp in compositions(p - r, r)
        ]
        results = [acc + split for acc in results for split in splits]
    return tuple(sorted(results))


def coarsenings(k: Iterable[int]) -> tuple[Index, ...]:
    """All indices k' with k' <= k: merge any subset of adjacent parts.

    Inverse direction of :func:`refinements`; k' is a coarsening of k
    exactly when k is a refinement of k'.  Sorted ascending.
    """
    parts = require_index(k)
    r = len(parts)
    out = set()
    for mask in range(1 << (r - 1)):
        merged = [parts[0]]
        for i in range(1, r):
            if mask >> (i - 1) & 1:
                merged[-1] += parts[i]
            else:
                merged.append(parts[i])
        out.add(tuple(merged))
    return tuple(sorted(out))


def b_coefficient(k: Iterable[int], j: Iterable[int]) -> int:
    """The product prod_i C(k_i + j_i - 1, j_i), exactly.

    k must be an index and j a nonnegative composition of the same depth.
    """
    kp = require_index(k)
    jp = tuple(j)
    if len(kp) != len(jp):
        raise ValueError(f"depth mismatch: index {kp!r} vs composition {jp!r}")
    prod = 1
    for ki, ji in zip(kp, jp):
        if ji < 0:
            raise ValueError("composition parts must be >= 0")
        prod *= math.comb(ki + ji - 1, ji)
    return prod


def compositions(total: int, parts: int) -> list[Composition]:
    """All tuples of `parts` nonnegative integers summing to `total`.

    Enumerated in descending lexicographic order, so
    compositions(2, 2) == [(2, 0), (1, 1), (0, 2)].  The count is
    C(total + parts - 1, parts - 1).
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    if parts == 1:
        return [(total,)]
    out: list[Composition] = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


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
