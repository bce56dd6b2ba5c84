"""The JSON document of a list of report rows, and how a numeric row
formats and judges its values."""

import dataclasses
import json
from fractions import Fraction
from typing import Any, NamedTuple

import mpmath

from akzkit.reports import SCHEMA, RowLog, VerificationReport, _jsonable, reports_to_document


class _Side(NamedTuple):
    value: Any
    error_bound: Any


def test_document_rows_equal_their_deep_copied_fields():
    log = RowLog()
    log.exact("demo.exact", {"n": 3, "index": (2, 1, 3), "c": Fraction(-5, 7)}, Fraction(1, 3), Fraction(2, 6))
    log.sweep("demo.sweep", {"max_n": 9, "nested": {"q": Fraction(3, 4), 2: (Fraction(1, 2), 5)}}, "a", "b", "n", [4])
    log.skip("demo.skip", {"pair": ((1, 2), (3,)), "empty": {}}, "not_covered", "outside the family")
    rows = log.rows + [
        VerificationReport("demo.numeric", {"k": (Fraction(7, 2),)}, "1.5", "1.5", "pass_numeric", 1e-8, 0.25, "1e-30", "2e-30")
    ]
    document = reports_to_document(rows)
    assert document["schema"] == SCHEMA
    want = [_jsonable(dataclasses.asdict(r)) for r in rows]
    assert document["reports"] == want
    assert json.dumps(document["reports"]) == json.dumps(want)
    # The rows themselves are left as they were.
    assert rows[1].parameters["nested"][2] == (Fraction(1, 2), 5)


def test_a_numeric_row_prints_and_judges_its_values_as_they_are():
    # The values hold 256 bits while mpmath runs at 53.  The row prints the
    # digits the value holds, not the value rounded again to 53 bits, and
    # judges the gap exactly: 2^-60 + 2^-120 exceeds the bound 2^-60, though
    # at 53 bits the gap would round down to the bound.
    with mpmath.workprec(256):
        zeta2 = mpmath.zeta(2)
        far = 1 + mpmath.ldexp(1, -60) + mpmath.ldexp(1, -120)
    log = RowLog()
    with mpmath.workprec(53):
        log.numeric("demo.digits", {}, _Side(zeta2, 0), _Side(zeta2, 0), 0.0)
        log.numeric("demo.gap", {}, _Side(mpmath.mpf(1), mpmath.ldexp(1, -60)), _Side(far, 0), 0.0)
    digits, gap = log.rows
    assert (digits.lhs, digits.status) == ("1.6449340668482264365", "pass_numeric")
    assert gap.status == "fail"
