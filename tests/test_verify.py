"""The battery's task list."""

import json
import os

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
