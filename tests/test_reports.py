"""The JSON document of a list of report rows."""

import dataclasses
import json
from fractions import Fraction

from akzkit.reports import SCHEMA, RowLog, VerificationReport, _jsonable, reports_to_document


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
