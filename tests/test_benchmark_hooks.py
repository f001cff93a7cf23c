"""The benchmark harness's couplings into the package.

`benchmarks/tracer.py` wraps sargkit functions by module attribute name, and
`benchmarks/workloads.py` builds its sweep reference from the compiled event
forms.  Both files are loaded by path, as the harness runs them, so a trim of
the package that deletes a name they use fails here rather than in a
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name: str):
    """Import benchmarks/<name>.py under the module name `benchmark_<name>`."""
    module_name = "benchmark_" + name
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            module_name, BENCHMARKS / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def unresolved(hooks: dict[str, tuple[str, ...]]) -> list[str]:
    """The `layer.name` hooks that are not callables of `sargkit.<layer>`."""
    missing = []
    for layer, names in hooks.items():
        module = importlib.import_module("sargkit." + layer)
        missing += ["%s.%s" % (layer, fn) for fn in names
                    if not callable(getattr(module, fn, None))]
    return missing


@pytest.mark.parametrize("table", ["SPANS", "COUNTED"])
def test_every_traced_name_is_a_package_callable(table):
    hooks = getattr(load("tracer"), table)
    assert hooks
    assert unresolved(hooks) == []


def test_a_deleted_name_is_reported():
    tracer = load("tracer")
    hooks = {**tracer.COUNTED, "attack_forms": ("event_weights",)}
    assert unresolved(hooks) == ["attack_forms.event_weights"]


def test_sweep_reference_is_built_from_the_compiled_forms():
    assert load("workloads").check_anchors() is None
