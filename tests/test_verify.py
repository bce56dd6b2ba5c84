"""The battery's task list and the settings it refuses, the package
names the benchmark traces, and what the benchmark's set-up time
covers."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import akzkit
from akzkit import verify
from akzkit.verify import default_tasks

_BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


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


@pytest.mark.parametrize(
    "settings, name",
    [
        ({"tolerance": float("inf")}, "tolerance"),
        ({"tolerance": float("nan")}, "tolerance"),
        ({"tolerance": -1}, "tolerance"),
        ({"tolerance": True}, "tolerance"),
        ({"tolerance": "1e-8"}, "tolerance"),
        ({"tolerance": float("inf"), "inject_perturbation": True}, "tolerance"),
        ({"max_weight": 1}, "max_weight"),
    ],
    ids=["inf", "nan", "negative", "bool", "str", "inf-perturbed", "max_weight-1"],
)
def test_verify_all_refuses_what_the_command_line_refuses(monkeypatch, settings, name):
    # Refused before the first task: an infinite tolerance would pass every
    # row, even a perturbed one, and max_weight 1 would run no duality.
    def no_tasks(**_):
        raise AssertionError("a task list was built")

    monkeypatch.setattr(verify, "default_tasks", no_tasks)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify.verify_all(**settings)


def test_verify_all_takes_a_zero_tolerance_written_as_an_int(monkeypatch):
    built = []
    monkeypatch.setattr(verify, "default_tasks", lambda **settings: built.append(settings) or [])
    assert verify.verify_all(tolerance=0, max_weight=2) == []
    assert built == [{"tolerance": 0, "max_weight": 2}]


def test_every_traced_layer_resolves_on_the_package():
    # A traced benchmark run looks each (module, attribute) of LAYERS up
    # with a bare getattr, so a name moved or renamed in akzkit crashes it.
    with open(_TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    missing = []
    for module, attr, _ in layers:
        found = importlib.import_module(f"akzkit.{module}")
        for name in attr.split("."):
            found = getattr(found, name, None)
        if not callable(found):
            missing.append(f"{module}.{attr}")
    assert layers and missing == []


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
