"""The akzkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter with cold
caches, for S seconds: a round starts only if one more round as long as
the last still ends within S seconds (the first always starts).  It prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Untraced, the metrics are the medians over the rounds of
`setup_s`, `run_rel` and `peak_rss_mb`; traced, they are the lower medians
of the per-layer counters.  The line before it holds the run's metadata and the
figures of each round.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Working precision in bits of each workload.
PRECISION = {"pbn-table": 256, "mzv-table": 384, "verify-all": 256}

# Every run ends well inside the three minutes a run may take.
RUN_DEADLINE_S = 170

UNITS = {"setup_s": "s", "run_rel": "ref", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Hash order stays fixed, and numpy starts no thread pools: the load is
    # one process with one working thread.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_round(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One fresh process.  setup_s runs from just before the process is
    started to its `ready` line."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), str(int(trace))]
    argv.append(str(PRECISION[workload]))
    start = time.perf_counter()
    # Unbuffered, so that reading the `ready` line takes nothing after it.
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = sel.select(timeout=max(deadline - time.perf_counter(), 0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line != b"ready\n":
            proc.kill()
            _, err = proc.communicate()
            raise RoundError(f"set-up failed: {line!r}\n{err.decode(errors='replace')}")
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundError(f"round of {workload} did not finish within {RUN_DEADLINE_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RoundError(f"round exited with {proc.returncode}\n{err.decode(errors='replace')}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def _git_sha() -> str:
    # The checkout may not be a git repository; read HEAD without git.
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _metadata(workload: str, seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "prec_bits": PRECISION[workload],
        "git_sha": _git_sha(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PRECISION))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "akzkit", "__init__.py")):
        print(f"no akzkit sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    rounds = []
    last_s = 0.0
    try:
        # A run ends within --seconds (unless its first round is longer), so
        # a run of a workload with long rounds takes no more time than others.
        while not rounds or time.perf_counter() - start + last_s <= args.seconds:
            round_start = time.perf_counter()
            rounds.append(run_round(args.workload, args.seed, bool(args.trace), deadline))
            last_s = time.perf_counter() - round_start
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1

    for r in rounds:
        for message in r["failures"]:
            print(f"FAILED: {message}", file=sys.stderr)
    if args.trace:
        # The lower median keeps the counts whole numbers.
        names = rounds[0]["layers"]
        metrics = {
            name: {
                "value": statistics.median_low(r["layers"][name] for r in rounds),
                "unit": "count" if name.endswith(".calls") else "bytes" if name.endswith("_bytes") else "s",
            }
            for name in names
        }
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in UNITS.items()
        }
    meta = _metadata(args.workload, args.seed)
    keys = ("setup_s", "run_s", "slices", "slice_s", "run_rel", "peak_rss_mb", "attempted", "failed")
    meta["rounds"] = [{key: r[key] for key in keys} for r in rounds]
    print(json.dumps({"metadata": meta}))
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
