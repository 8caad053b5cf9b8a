"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import punforge

# (module file, name): imported and never referenced, on purpose
ALLOWED = {
    # perfbench/spans.py wraps the generator's binding of it, so a traced run
    # counts the type checks
    ("generator.py", "type_consistent"),
}


def _unused_imports(path):
    """The names ``path`` imports and never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    package = Path(punforge.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = {(p.name, name) for p in modules for name in _unused_imports(p)}
    assert unused == ALLOWED
