"""The battery's task list, and what the benchmark's set-up time covers."""

import json
import os
import subprocess
import sys

import akzkit
from akzkit.verify import default_tasks

_BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def test_benchmark_times_exactly_the_battery_tasks():
    # A traced benchmark run reports verify.task.<name>.s for each name it
    # declares, and 0 for a name the battery no longer runs.
    with open(_BENCHMARK, encoding="utf-8") as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    declared = [
        name[len("verify.task.") : -len(".s")]
        for name in metrics
        if name.startswith("verify.task.") and name.endswith(".s")
    ]
    assert sorted(declared) == sorted(name for name, _ in default_tasks())


def test_configuring_the_package_imports_no_numpy():
    # The benchmark times set-up from process start to this point; numpy
    # is imported only inside the float64 oracles that need it.
    script = (
        "import sys\n"
        "import akzkit\n"
        "akzkit.configure(256)\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(akzkit.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
