"""One round of a workload, in a fresh interpreter with cold caches.

    python3 bench/child.py WORKLOAD SEED TRACE PREC_BITS

Run by `run.py` with the checkout's root as working directory.  The set-up
(`import akzkit` and `akzkit.configure`) comes first and ends with a line
`ready` on stdout, so that the parent can time it from the process start.
The last line on stdout is the round's result as JSON.

While the workload runs, a timer interrupts it every 0.25 s to time a
small fixed reference computation that uses no akzkit code (`HostClock`).
`run_rel` is the workload's own time over the mean time of one such
slice: the run time in units of what the host gives fixed work at the
same moments.  The host's speed varies by up to a factor of 2 within
seconds, so only a reference measured in the same thread, spread over the
same time, cancels it.  A traced round takes no slices.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import akzkit  # noqa: E402

akzkit.configure(int(sys.argv[4]))
if not os.path.abspath(akzkit.__file__).startswith(SRC + os.sep):
    sys.exit(f"akzkit was imported from {akzkit.__file__}, not from {SRC}")
print("ready", flush=True)

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import mpmath  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from akzkit import verify  # noqa: E402


SLICE_EVERY_S = 0.25


def reference_slice() -> None:
    """Fixed work of the two kinds akzkit does, with none of its code or
    caches: a `Fraction` series division (the coefficients of t/(e^t - 1)
    to t^49) and 600 mpmath terms at 320 bits.  About 20 ms on the
    reference host.  `workprec` restores the precision of the workload it
    interrupts."""
    a = [Fraction(1, math.factorial(k + 1)) for k in range(50)]
    b = [Fraction(1)]
    for m in range(1, 50):
        b.append(-sum(a[j] * b[m - j] for j in range(1, m + 1)))
    with mpmath.workprec(320):
        x = mpmath.mpf(0)
        for k in range(1, 600):
            x += mpmath.mpf(1) / (k * k) + mpmath.sqrt(k)
    if b[2] != Fraction(1, 12):
        raise AssertionError("the reference slice is wrong")


class HostClock:
    """Times `reference_slice` every SLICE_EVERY_S seconds of wall time, from
    a SIGALRM handler, which runs in the main thread between bytecodes of
    the workload."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_slice()
        self.slices.append(time.perf_counter() - start)

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    make_ops, run, check = workloads.WORKLOADS[name]
    ops = make_ops(seed)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    clock = HostClock()
    start = time.perf_counter()
    if tracer:
        outputs = run(ops, tracer)
    else:
        with clock:
            outputs = run(ops, tracer)
    # The workload's own time: the wall time less the slices it waited for.
    run_s = time.perf_counter() - start - sum(clock.slices)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check(ops, outputs)
    slice_s = sum(clock.slices) / len(clock.slices) if clock.slices else None
    result = {
        "run_s": run_s,
        "slices": len(clock.slices),
        "slice_s": slice_s,
        "run_rel": run_s / slice_s if slice_s else None,
        "peak_rss_mb": peak_rss_kb / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [failures[i] for i in sorted(failures)][:20],
    }
    if tracer:
        layers = tracer.metrics()
        for task, _ in verify.default_tasks():
            layers[f"verify.task.{task}.s"] = tracer.task_s.get(task, 0.0)
        written = name == "verify-all" and os.path.exists(workloads.REPORT_PATH)
        layers["reports.json_bytes"] = os.path.getsize(workloads.REPORT_PATH) if written else 0
        result["layers"] = layers
    print(json.dumps(result))


main()
