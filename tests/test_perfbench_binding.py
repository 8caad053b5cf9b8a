"""The benchmark harness under ``perfbench/`` still binds to the package.

The harness imports the package by name and wraps public functions under
``--trace 1``, so renaming one of them breaks a bench run long after the
test suite passed.  These checks read ``perfbench/`` and run none of it.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_modules(monkeypatch):
    """Import ``spans`` and ``workloads`` from perfbench/, and forget them
    and what they imported afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    import spans
    import workloads
    yield spans, workloads
    for name in set(sys.modules) - before:
        if not name.startswith("punforge"):
            del sys.modules[name]


def test_every_traced_target_resolves(bench_modules):
    spans, _workloads = bench_modules
    for path, attr, _name, _counter in spans.TARGETS:
        assert attr in spans.resolve(path).__dict__, (path, attr)


def test_workloads_name_only_package_attributes_that_exist(bench_modules):
    """Workloads look package functions up at call time; each such
    ``module.name`` must exist now."""
    _spans, workloads = bench_modules
    tree = ast.parse(Path(workloads.__file__).read_text(encoding="utf-8"))
    looked_up = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = vars(workloads).get(node.value.id)
            if (isinstance(module, types.ModuleType)
                    and module.__name__.startswith("punforge")):
                looked_up.add((module.__name__, node.attr))
                assert hasattr(module, node.attr), (module.__name__, node.attr)
    assert ("punforge.corpus", "load_corpus") in looked_up
