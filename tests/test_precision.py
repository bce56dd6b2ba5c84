"""The precision contract: every value is computed at the configured
precision, or above it, whatever mpmath's own precision is when it is
asked for, and only `configure` changes mpmath's precision."""

import hashlib
import json
import os
import subprocess
import sys

import mpmath
import numpy
import pytest

import akzkit
from akzkit import mzv_numeric
from akzkit.index_algebra import indices_up_to_weight
from akzkit.mzv_numeric import configure, current_precision, mzv, polylog_near_one, t0_value

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(akzkit.__file__)))


def _fresh(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=_SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(process: subprocess.Popen, timeout: int = 120) -> str:
    out, err = process.communicate(timeout=timeout)
    assert process.returncode == 0, err
    return out


# Each entry point runs first in a process that never calls configure, so
# mpmath is still at its default 53 bits.  The case sets `got`, an
# EvalResult, and `want`, its reference to be computed at 600 bits.
_FIRST_CALLS = {
    "mzv": (
        "from akzkit import mzv\n"
        "two = mzv((2,))\n"
        "assert mzv((2,)) is two\n"
        "got = mzv((1, 2))\n"
        "want = lambda: mpmath.zeta(3)\n"
    ),
    "t-value": (
        "from akzkit import t_value\n"
        "got = t_value((3,))\n"
        "want = lambda: 2 * (1 - mpmath.mpf(2) ** -3) * mpmath.zeta(3)\n"
    ),
    "exact-results-and-sums": (
        "from fractions import Fraction\n"
        "from akzkit.mzv_numeric import exact_result, sum_results\n"
        "third = exact_result(Fraction(1, 3))\n"
        "got = sum_results([third, third]) + third.scale(3) - third * exact_result(6)\n"
        "want = lambda: -mpmath.mpf(1) / 3\n"
    ),
    "mpl-numeric": (
        "from akzkit.mzv_numeric import mpl_numeric\n"
        "got = mpl_numeric((2,), mpmath.mpf('0.5'))\n"
        "want = lambda: mpmath.polylog(2, mpmath.mpf('0.5'))\n"
    ),
    "polylog-near-one": (
        "from akzkit.mzv_numeric import polylog_near_one\n"
        "got = polylog_near_one(3, mpmath.mpf('0.25'), 2)\n"
        "want = lambda: mpmath.polylog(3, mpmath.exp(-mpmath.mpf('0.25')))"
        " - mpmath.polylog(3, mpmath.exp(-mpmath.mpf('0.5'))) / 8\n"
    ),
    "direct-sum": (
        "from akzkit import mzv_direct\n"
        "got = mzv_direct((1, 2), 1000)\n"
        "want = lambda: mpmath.zeta(3)\n"
    ),
    "series-oracles": (
        "from akzkit.ak_zeta import eta_symmetric_oracle, xi_series_oracle\n"
        "got = eta_symmetric_oracle(1, 1, 1000).scale(2) + xi_series_oracle(1, 1, 1000)\n"
        "want = lambda: 3 * mpmath.zeta(2)\n"
    ),
    "quadrature": (
        "from akzkit.level2 import psi_depth1_integral\n"
        "got = psi_depth1_integral(2, 1)\n"
        "want = lambda: 2 * (1 - mpmath.mpf(2) ** -3) * mpmath.zeta(3)\n"
    ),
}


@pytest.mark.parametrize("case", list(_FIRST_CALLS))
def test_an_entry_point_called_first_at_53_bits_leaves_53_and_holds_its_bound(case):
    script = (
        "import mpmath\n"
        "from akzkit import current_precision\n"
        "assert mpmath.mp.prec == 53, mpmath.mp.prec\n"
        + _FIRST_CALLS[case]
        + "assert mpmath.mp.prec == 53, mpmath.mp.prec\n"
        "assert current_precision() == 256, current_precision()\n"
        "with mpmath.workprec(600):\n"
        "    assert abs(got.value - want()) <= got.error_bound, (got, want())\n"
    )
    _finish(_fresh(script))


def test_the_battery_document_does_not_depend_on_configure():
    # Every field but elapsed_seconds: a process that configures 256 bits
    # and one that never calls configure, and so stays at 53 bits.
    script = (
        "import json, sys\n"
        "import mpmath\n"
        "import akzkit\n"
        "from akzkit.reports import reports_to_document\n"
        "if sys.argv[1] == 'configure':\n"
        "    akzkit.configure(256)\n"
        "prec = mpmath.mp.prec\n"
        "document = reports_to_document(akzkit.verify_all())\n"
        "assert mpmath.mp.prec == prec, mpmath.mp.prec\n"
        "for row in document['reports']:\n"
        "    del row['elapsed_seconds']\n"
        "print(json.dumps(document))\n"
    )
    runs = [_fresh(script, mode) for mode in ("configure", "never")]
    configured, unconfigured = (json.loads(_finish(run, 300)) for run in runs)
    assert configured["summary"] == {
        "pass_exact": 1727,
        "pass_numeric": 434,
        "fail": 0,
        "skipped_pole": 7,
        "skipped_bad_prime": 0,
        "not_covered": 6,
        "total": 2174,
    }
    assert configured == unconfigured
    # The reference document, pinned for one build only: the float64
    # oracles follow numpy's summation order, and mpmath's backend may
    # round differently, so on any other build the counts alone are checked.
    build = (numpy.__version__, mpmath.__version__, mpmath.libmp.BACKEND)
    if build == ("2.4.6", "1.3.0", "python"):
        digest = hashlib.sha256(json.dumps(configured, sort_keys=True).encode()).hexdigest()
        assert digest == "5228b3412e0d90de96cc37949e009f3f69f178df9c9efac9d133d7d5352505cc"


@pytest.fixture
def restore_precision():
    bits = current_precision()
    yield
    configure(bits)


def test_configure_after_an_evaluation_gives_values_at_the_new_precision(restore_precision):
    half = mpmath.mpf("0.5")
    low = (mzv((1, 2)), polylog_near_one(3, half))
    assert all(r.error_bound > mpmath.mpf(2) ** -256 for r in low)
    configure(512)
    assert (mpmath.mp.prec, current_precision()) == (512, 512)
    high = (mzv((1, 2)), polylog_near_one(3, half))
    with mpmath.workprec(1100):
        wants = (mpmath.zeta(3), mpmath.polylog(3, mpmath.exp(-half)))
    for got, old, want in zip(high, low, wants):
        assert got.error_bound < mpmath.mpf(2) ** -440
        with mpmath.workprec(1100):
            assert abs(got.value - want) <= got.error_bound
            assert abs(old.value - want) <= old.error_bound


def test_the_precision_refusal_stays_below_the_configured_precision():
    # Every bound passes through _smear, which refuses arithmetic done
    # below the configured precision.
    with mpmath.workprec(current_precision() - 1):
        with pytest.raises(RuntimeError, match="precision"):
            mzv_numeric._smear(mpmath.mpf(1))


# ---------------------------------------------------------------------------
# The precision audit: a value computed at 256 bits lies within its own
# bound of the same value computed at 512 bits.

_AUDIT = [("mzv", k) for k in indices_up_to_weight(8) if k[-1] >= 2] + [
    ("t0", k) for k in indices_up_to_weight(7) if k[-1] >= 2
]


def _evaluate_all(monkeypatch, bits: int) -> dict:
    # From empty caches, so every value is built at `bits`.
    for cache in ("_value_cache", "_result_cache", "_near_one_tables"):
        monkeypatch.setattr(mzv_numeric, cache, {})
    configure(bits)
    return {(family, k): (mzv if family == "mzv" else t0_value)(k) for family, k in _AUDIT}


@pytest.fixture(scope="module")
def values_at_512():
    bits = current_precision()
    with pytest.MonkeyPatch.context() as monkeypatch:
        values = _evaluate_all(monkeypatch, 512)
        configure(bits)
    return values


def _outside_their_bounds(monkeypatch, reference: dict) -> list:
    low = _evaluate_all(monkeypatch, 256)
    return [
        key
        for key, got in low.items()
        if abs(mpmath.fsub(got.value, reference[key].value, exact=True)) > got.error_bound
    ]


def test_256_bit_values_lie_within_their_bounds_of_the_512_bit_values(
    monkeypatch, values_at_512, restore_precision
):
    assert len(_AUDIT) == 127 + 63
    assert _outside_their_bounds(monkeypatch, values_at_512) == []


def test_the_precision_audit_catches_a_last_bits_fault(monkeypatch, values_at_512, restore_precision):
    # Coefficient 7 of every symbol step is off by 2^-200 relative: far
    # below the battery's 1e-8 tolerance, far above a 256-bit bound.
    step = mzv_numeric._symbol_step

    def faulty(coeffs, sym):
        out = step(coeffs, sym)
        out[7] *= 1 + mpmath.mpf(2) ** -200
        return out

    monkeypatch.setattr(mzv_numeric, "_symbol_step", faulty)
    caught = _outside_their_bounds(monkeypatch, values_at_512)
    assert len(caught) > len(_AUDIT) // 2, caught
