"""Every module of the package but __init__.py, which re-exports, reads each
name it imports (a name that is only assigned to again is not read);
__init__.py exports exactly the names it imports."""

import ast
from pathlib import Path

import pytest

import hopflab

MODULES = sorted(p for p in Path(hopflab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """{bound name: line} for every import statement of a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}


def test_public_api_is_exactly_what_the_package_imports():
    tree = ast.parse(Path(hopflab.__file__).read_text())
    imported = {name for node in tree.body if isinstance(node, ast.ImportFrom)
                for name in _imported_names(node)}
    assert imported == set(hopflab.__all__)
    assert len(hopflab.__all__) == len(set(hopflab.__all__))
    for name in hopflab.__all__:
        assert getattr(hopflab, name) is not None
