"""The benchmark harness under ``perfbench/`` still binds to the package.

The harness imports the package by name and wraps public functions under
``--trace 1``, so renaming one of them, or changing how it is called,
breaks a bench run long after the test suite passed.  These checks read
``perfbench/`` and run none of it.
"""

import ast
import inspect
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


def _resolve(node, namespace):
    """The object a name or dotted attribute names in ``namespace``, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def test_calls_into_the_package_bind_to_their_signatures(bench_modules):
    """Every call in ``workloads`` and ``inputs`` whose target is a package
    function, class or method binds to its signature with as many
    positional arguments and the same keywords; calls that spread ``*`` or
    ``**`` arguments cannot be counted and are skipped."""
    _spans, workloads = bench_modules
    bound = set()
    for module in (workloads, sys.modules["inputs"]):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(node.func, vars(module))
            if not (callable(target)
                    and (getattr(target, "__module__", None) or "").startswith("punforge")):
                continue
            keywords = [k.arg for k in node.keywords]
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            where = f"{Path(module.__file__).name}:{node.lineno} {ast.unparse(node.func)}"
            try:
                inspect.signature(target).bind(*[None] * len(node.args),
                                                **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"{where}: {exc}")
            bound.add(target.__qualname__)
    assert {"Corpus", "GenerationResources", "NGramModel.load", "SkipGramModel.load",
            "build_index", "train_lm"} <= bound
