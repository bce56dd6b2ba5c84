"""Structured pass/fail records for identity checks.

Every verification routine in the package returns one or more
VerificationReport rows.  A row says which identity was tested, at which
parameters, what both sides evaluated to, and a status:

    pass_exact          both sides are bit-identical rationals
    pass_numeric        |lhs - rhs| <= tolerance + combined error bounds
    fail                neither of the above
    skipped_pole        a formula term hit a divergent value; nothing tested
    skipped_bad_prime   a congruence denominator collides with the modulus
    not_covered         the instance lies outside the implemented family

Each check builds its rows through one RowLog.  A row's elapsed_seconds
is the wall time since the previous row of the same check (since the
check began, for its first row), so every second a check spends lands in
exactly one row and a check's rows add up to its time.

Reports serialize to a versioned JSON document ("akzkit-report/1") whose
numeric values carry their error bounds in separate fields, never fused
into the value string.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any

import mpmath

from .index_algebra import require_tolerance

PASS_EXACT = "pass_exact"
PASS_NUMERIC = "pass_numeric"
FAIL = "fail"
SKIPPED_POLE = "skipped_pole"
SKIPPED_BAD_PRIME = "skipped_bad_prime"
NOT_COVERED = "not_covered"

_STATUSES = (PASS_EXACT, PASS_NUMERIC, FAIL, SKIPPED_POLE, SKIPPED_BAD_PRIME, NOT_COVERED)

SCHEMA = "akzkit-report/1"

# The tolerance every numeric check judges with unless told otherwise.
DEFAULT_TOLERANCE = 1e-8

__all__ = [
    "VerificationReport",
    "PASS_EXACT",
    "PASS_NUMERIC",
    "FAIL",
    "SKIPPED_POLE",
    "SKIPPED_BAD_PRIME",
    "NOT_COVERED",
    "SCHEMA",
    "DEFAULT_TOLERANCE",
    "RowLog",
    "format_rational",
    "format_real",
    "summarize",
    "any_failure",
    "reports_to_document",
    "write_json",
]


@dataclass
class VerificationReport:
    identity_id: str
    parameters: dict[str, Any]
    lhs: str
    rhs: str
    status: str
    tolerance: float | None = None
    elapsed_seconds: float = 0.0
    lhs_error_bound: str | None = None
    rhs_error_bound: str | None = None
    detail: str | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status in (PASS_EXACT, PASS_NUMERIC)

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def one_line(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        line = f"{self.status:<17} {self.identity_id} [{params}]"
        if self.status == FAIL:
            line += f"  lhs={self.lhs} rhs={self.rhs}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


def format_rational(q: Fraction | int) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def format_real(x: Any, digits: int = 20) -> str:
    # An mpf is printed from all the bits it holds, whatever mpmath's
    # precision is now; only another number is converted first.
    return mpmath.nstr(x if isinstance(x, mpmath.mpf) else mpmath.mpf(x), digits, strip_zeros=False)


class RowLog:
    """The rows of one check, each stamped with its share of the time.

    A row's elapsed_seconds is the time since the previous row of this
    log, or since the log was made for the first row.  The check returns
    `rows`.

    >>> log = RowLog()
    >>> log.exact("demo", {"n": 2}, Fraction(1, 2), Fraction(2, 4))
    >>> log.sweep("demo", {"max_n": 9}, "left", "right", "n", [3, 7])
    >>> [(r.status, r.detail) for r in log.rows]
    [('pass_exact', None), ('fail', 'mismatch at n=[3, 7]')]
    """

    def __init__(self) -> None:
        self.rows: list[VerificationReport] = []
        self._mark = time.perf_counter()

    def _add(self, row: VerificationReport) -> None:
        now = time.perf_counter()
        row.elapsed_seconds = round(now - self._mark, 6)
        self._mark = now
        self.rows.append(row)

    def exact(
        self,
        identity_id: str,
        parameters: dict[str, Any],
        lhs: Fraction | int | str,
        rhs: Fraction | int | str,
        *,
        equal: bool | None = None,
        detail: str | None = None,
    ) -> None:
        """Add a row for an exact (rational or symbolic) comparison.

        When lhs/rhs are rationals the equality test is automatic; for
        pre-formatted strings pass the outcome through `equal`.
        """
        if equal is None:
            equal = lhs == rhs
        self._add(
            VerificationReport(
                identity_id=identity_id,
                parameters=parameters,
                lhs=lhs if isinstance(lhs, str) else format_rational(lhs),
                rhs=rhs if isinstance(rhs, str) else format_rational(rhs),
                status=PASS_EXACT if equal else FAIL,
                detail=detail,
            )
        )

    def sweep(
        self,
        identity_id: str,
        parameters: dict[str, Any],
        lhs: str,
        rhs: str,
        name: str,
        bad: list[int],
    ) -> None:
        """Add an exact row for a sweep over `name`; `bad` lists the
        values at which the two sides differ, and the row passes when it
        is empty."""
        self.exact(
            identity_id,
            parameters,
            lhs,
            rhs,
            equal=not bad,
            detail=f"mismatch at {name}={bad}" if bad else None,
        )

    def numeric(
        self,
        identity_id: str,
        parameters: dict[str, Any],
        lhs: Any,
        rhs: Any,
        tolerance: float,
        *,
        detail: str | None = None,
    ) -> None:
        """Add a row comparing two EvalResult-like objects.

        Both arguments need `.value` and `.error_bound` attributes.  The
        pass condition is |lhs - rhs| <= tolerance + both error bounds,
        evaluated exactly, not at mpmath's current precision; the
        tolerance must pass require_tolerance.
        """
        require_tolerance(tolerance)
        gap = mpmath.fsub(lhs.value, rhs.value, exact=True)
        allowed = mpmath.fadd(mpmath.fadd(tolerance, lhs.error_bound, exact=True), rhs.error_bound, exact=True)
        ok = mpmath.fneg(allowed, exact=True) <= gap <= allowed
        self._add(
            VerificationReport(
                identity_id=identity_id,
                parameters=parameters,
                lhs=format_real(lhs.value),
                rhs=format_real(rhs.value),
                status=PASS_NUMERIC if ok else FAIL,
                tolerance=tolerance,
                lhs_error_bound=format_real(lhs.error_bound, 3),
                rhs_error_bound=format_real(rhs.error_bound, 3),
                detail=detail,
            )
        )

    def skip(self, identity_id: str, parameters: dict[str, Any], status: str, detail: str) -> None:
        """Add a row for an instance that was not tested, and why."""
        if status not in (SKIPPED_POLE, SKIPPED_BAD_PRIME, NOT_COVERED):
            raise ValueError(f"not a skip status: {status!r}")
        self._add(
            VerificationReport(
                identity_id=identity_id,
                parameters=parameters,
                lhs="",
                rhs="",
                status=status,
                detail=detail,
            )
        )


def summarize(reports: list[VerificationReport]) -> dict[str, int]:
    counts = {status: 0 for status in _STATUSES}
    for r in reports:
        counts[r.status] += 1
    counts["total"] = len(reports)
    return counts


def any_failure(reports: list[VerificationReport]) -> bool:
    return any(r.failed for r in reports)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def reports_to_document(reports: list[VerificationReport]) -> dict[str, Any]:
    # Each row's dict is built from its fields as they are: _jsonable
    # already copies every container, so a deep copy first is wasted.
    names = [f.name for f in fields(VerificationReport)]
    return {
        "schema": SCHEMA,
        "reports": [{name: _jsonable(getattr(r, name)) for name in names} for r in reports],
        "summary": summarize(reports),
    }


def write_json(reports: list[VerificationReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reports_to_document(reports), fh, indent=2)
        fh.write("\n")
