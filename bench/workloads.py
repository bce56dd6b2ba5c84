"""The three workloads: their inputs, the timed operations, and the checks.

A workload is three functions.  `make_ops(seed)` builds the list of
operations from the seed alone; `run(ops, tracer)` performs them and is
the only timed part; `check(ops, outputs)` compares the outputs
with `oracles` and returns the positions of failed operations with a
message for each.  Every operation is attempted once per round, in the
order the seed gives.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time

import mpmath

import oracles
from akzkit import current_precision, level2, mzv_numeric, pbn, reports, verify

Failures = dict[int, str]


def _precision_failures(ops: list) -> Failures:
    # mpmath must still run at the configured precision once the workload
    # is done; otherwise every later evaluation in the process is off.
    if mpmath.mp.prec == current_precision():
        return {}
    message = f"mpmath.mp.prec is {mpmath.mp.prec}, current_precision() is {current_precision()}"
    return {i: message for i in range(len(ops))}


# ---------------------------------------------------------------------------
# pbn-table: a table of poly-Bernoulli numbers through the exact layer.

PBN_INDICES = tuple((k,) for k in range(-3, 4)) + ((1, 2), (-1, -1), (2, -1), (1, 1, 1), (2, 1, -2))
PBN_N_MAX = 100
PBN_BRUTE_N_MAX = 16


def pbn_ops(seed: int) -> list:
    ops = [(index, kind, n) for index in PBN_INDICES for kind in "BC" for n in range(PBN_N_MAX + 1)]
    random.Random(seed).shuffle(ops)
    return ops


def pbn_run(ops: list, tracer=None) -> list:
    out = []
    for index, kind, n in ops:
        try:
            out.append(pbn.multi_poly_bernoulli(n, index, kind))
        except Exception as exc:  # a raising operation is a failed one
            out.append(exc)
    return out


def pbn_check(ops: list, outputs: list) -> Failures:
    failures = _precision_failures(ops)
    position = {op: i for i, op in enumerate(ops)}
    value = dict(zip(ops, outputs))
    stirling = oracles.stirling_table(PBN_N_MAX + 1)

    def expect(op, want, what: str) -> None:
        got = value[op]
        if got != want:
            failures.setdefault(position[op], f"{op}: {what} gives {want}, program gives {got!r}")

    for (index, kind, n), got in value.items():
        if isinstance(got, Exception):
            failures.setdefault(position[(index, kind, n)], f"{(index, kind, n)} raised {got!r}")
        elif len(index) == 1:
            expect((index, kind, n), oracles.kaneko(kind, n, index[0], stirling), "Kaneko's formula")
        elif n <= PBN_BRUTE_N_MAX:
            expect((index, kind, n), oracles.tuple_sum(kind, n, index, stirling), "the tuple sum")
    for n in range(PBN_N_MAX + 1):
        expect(((1,), "B", n), oracles.bernoulli_plus(n), "mpmath.bernfrac")
    # B_n^(-k) = B_k^(-n) and C_n^(-k-1) = C_k^(-n-1) where both sides are in the table.
    for n in range(4):
        for k in range(n + 1, 4):
            expect(((-k,), "B", n), value[((-n,), "B", k)], "duality")
            if k < 3:
                expect(((-k - 1,), "C", n), value[((-n - 1,), "C", k)], "duality")
    return failures


# ---------------------------------------------------------------------------
# mzv-table: every admissible MZV and T value up to a weight, numerically.

MZV_MAX_WEIGHT = 7
T0_MAX_WEIGHT = 6


def mzv_ops(seed: int) -> list:
    ops = [("mzv", k) for w in range(2, MZV_MAX_WEIGHT + 1) for k in oracles.admissible_indices(w)]
    ops += [("t0", k) for w in range(2, T0_MAX_WEIGHT + 1) for k in oracles.admissible_indices(w)]
    random.Random(seed).shuffle(ops)
    return ops


def mzv_run(ops: list, tracer=None) -> list:
    out = []
    for family, k in ops:
        evaluate = mzv_numeric.mzv if family == "mzv" else mzv_numeric.t0_value
        try:
            out.append(evaluate(k))
        except Exception as exc:  # a raising operation is a failed one
            out.append(exc)
    return out


def mzv_check(ops: list, outputs: list) -> Failures:
    failures = _precision_failures(ops)
    position = {op: i for i, op in enumerate(ops)}
    value = dict(zip(ops, outputs))
    for op, got in value.items():
        if isinstance(got, Exception):
            failures[position[op]] = f"{op} raised {got!r}"
    if failures:
        return failures
    prec = current_precision()

    def compare(used: list, lhs, rhs, bound, what: str) -> None:
        # Each side is rounded a few times at the working precision while
        # the check itself adds and multiplies; 2^(16-prec) covers that.
        allowed = bound + mpmath.mpf(2) ** (16 - prec) * (1 + abs(lhs) + abs(rhs))
        if abs(lhs - rhs) > allowed:
            message = f"{what}: |{mpmath.nstr(lhs, 20)} - {mpmath.nstr(rhs, 20)}| > {mpmath.nstr(allowed, 3)}"
            for op in used:
                failures.setdefault(position[op], message)

    def z(k):
        return value[("mzv", k)]

    def t0(k):
        return value[("t0", k)]

    with mpmath.workprec(prec + 32):
        for s in range(2, MZV_MAX_WEIGHT + 1):
            compare([("mzv", (s,))], z((s,)).value, mpmath.zeta(s), z((s,)).error_bound, f"zeta({s})")
        for s in range(2, T0_MAX_WEIGHT + 1):
            want = (1 - mpmath.mpf(2) ** -s) * mpmath.zeta(s)
            compare([("t0", (s,))], t0((s,)).value, want, t0((s,)).error_bound, f"t0({s})")
        # Sum theorem: the admissible indices of weight w and depth r sum to zeta(w).
        for w in range(2, MZV_MAX_WEIGHT + 1):
            for r in range(1, w):
                group = [k for k in oracles.admissible_indices(w) if len(k) == r]
                total = mpmath.fsum(z(k).value for k in group)
                bound = mpmath.fsum(z(k).error_bound for k in group)
                compare([("mzv", k) for k in group], total, mpmath.zeta(w), bound, f"sum theorem w={w} r={r}")
        # Harmonic product zeta(a) zeta(b) = zeta(a, b) + zeta(b, a) + zeta(a + b).
        for a in range(2, MZV_MAX_WEIGHT - 1):
            for b in range(a, MZV_MAX_WEIGHT + 1 - a):
                za, zb = z((a,)), z((b,))
                parts = [(a, b), (b, a), (a + b,)]
                rhs = mpmath.fsum(z(k).value for k in parts)
                bound = (
                    abs(za.value) * zb.error_bound
                    + abs(zb.value) * za.error_bound
                    + za.error_bound * zb.error_bound
                    + mpmath.fsum(z(k).error_bound for k in parts)
                )
                used = [("mzv", k) for k in [(a,), (b,)] + parts]
                compare(used, za.value * zb.value, rhs, bound, f"harmonic product a={a} b={b}")
        # Height-one duality of T = 2^depth t0: T(1^(r-1), k+1) = T(1^(k-1), r+1).
        for r in range(1, T0_MAX_WEIGHT):
            for k in range(r + 1, T0_MAX_WEIGHT + 1 - r):
                left, right = (1,) * (r - 1) + (k + 1,), (1,) * (k - 1) + (r + 1,)
                compare(
                    [("t0", left), ("t0", right)],
                    2**r * t0(left).value,
                    2**k * t0(right).value,
                    2**r * t0(left).error_bound + 2**k * t0(right).error_bound,
                    f"height-one duality r={r} k={k}",
                )
    return failures


# ---------------------------------------------------------------------------
# verify-all: the battery, as `akzkit verify-all --json FILE` runs it (one job).

# The psi quadrature takes 20-35 s per (k, s) on a 2-core host, so the
# battery's psi-integral task runs at this one point instead of its four.
PSI_INTEGRAL_POINTS = {"k_values": (2,), "s_values": (1,)}
REPORT_PATH = os.path.join(".bench_out", "verify-all-report.json")


def verify_ops(seed: int) -> list:
    # The battery has no inputs to draw; the seed changes nothing.
    return [name for name, _ in verify.default_tasks()] + ["write-json"]


def verify_run(ops: list, tracer=None) -> dict:
    """verify_all(jobs=1), the command's default, and its JSON document.
    Each task is wrapped to record its rows or its exception, and a traced
    run times each one.  One job keeps every slice of `child.HostClock` in
    the thread that does the work."""
    by_task: dict[str, object] = {}
    task_list = verify.default_tasks

    def timed_tasks(*args, **kwargs):
        return [(name, _record(name, fn, by_task, tracer)) for name, fn in task_list(*args, **kwargs)]

    verify.default_tasks = timed_tasks
    level2.psi_depth1_integral_check = functools.partial(
        level2.psi_depth1_integral_check, **PSI_INTEGRAL_POINTS
    )
    rows = verify.verify_all(jobs=1)
    os.makedirs(os.path.dirname(REPORT_PATH), exist_ok=True)
    reports.write_json(rows, REPORT_PATH)
    return {"rows": rows, "by_task": by_task}


def _record(name: str, fn, by_task: dict, tracer):
    def task():
        start = time.perf_counter()
        try:
            rows = fn()
        except Exception as exc:  # a raising task is a failed operation
            by_task[name] = exc
            return []
        finally:
            if tracer is not None:
                tracer.task_s[name] = time.perf_counter() - start
        by_task[name] = rows
        return rows

    return task


def verify_check(ops: list, outputs: dict) -> Failures:
    failures = _precision_failures(ops)
    position = {op: i for i, op in enumerate(ops)}
    psi_rows = 0
    for name, rows in outputs["by_task"].items():
        if isinstance(rows, Exception):
            failures.setdefault(position[name], f"task {name} raised {rows!r}")
        elif not rows:
            failures.setdefault(position[name], f"task {name} returned no rows")
        else:
            for row in rows:
                if row.failed:
                    failures.setdefault(position[name], f"task {name}: {row.one_line()}")
                if row.identity_id == "level2.psi-integral-representation" and row.parameters["s"] == 1:
                    psi_rows += 1
                    k = row.parameters["k"]
                    want = 2 * (1 - mpmath.mpf(2) ** -(k + 1)) * mpmath.zeta(k + 1)
                    for side in (row.lhs, row.rhs):
                        # One unit in the last of the 20 printed digits.
                        if abs(mpmath.mpf(side) - want) > abs(want) * mpmath.mpf(10) ** -19:
                            failures.setdefault(position[name], f"psi(k={k}; 1) printed {side}, mpmath gives {want}")
    if psi_rows != len(PSI_INTEGRAL_POINTS["k_values"]):
        failures.setdefault(position["level2.psi-integral"], f"{psi_rows} psi rows at s = 1")
    for name in ops[:-1]:
        if name not in outputs["by_task"]:
            failures.setdefault(position[name], f"task {name} never ran")
    with open(REPORT_PATH, encoding="utf-8") as fh:
        document = json.load(fh)
    if document.get("schema") != "akzkit-report/1" or len(document["reports"]) != len(outputs["rows"]):
        failures.setdefault(position["write-json"], "the JSON document does not hold every row")
    return failures


WORKLOADS = {
    "pbn-table": (pbn_ops, pbn_run, pbn_check),
    "mzv-table": (mzv_ops, mzv_run, mzv_check),
    "verify-all": (verify_ops, verify_run, verify_check),
}
