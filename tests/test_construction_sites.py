"""HopfAlgebra(...) is called only where a Hopf structure is first given or
read: hopf.py (the dual, a copy over a larger field), builders.py,
serialize.py, and in coideal.py only inside `_hopf_on_rows`, the one
builder that puts a Hopf structure on a subspace of H, for H//N and for
Hopf subalgebras alike."""

import ast
from pathlib import Path

import pytest

import hopflab

MODULES = sorted(Path(hopflab.__file__).parent.glob("*.py"))

# module: the one top-level function it may construct in, None for anywhere
ALLOWED = {"hopf.py": None, "builders.py": None, "serialize.py": None, "coideal.py": "_hopf_on_rows"}


def _construction_sites(tree):
    """[(top-level definition enclosing the call, or None at module level,
    line)] for every call of HopfAlgebra in a module."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "HopfAlgebra":
                    sites.append((owner, node.lineno))
    return sites


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_hopf_algebras_are_constructed_only_where_allowed(path):
    sites = _construction_sites(ast.parse(path.read_text()))
    if path.name not in ALLOWED:
        assert sites == []
    elif ALLOWED[path.name] is not None:
        assert [owner for owner, _ in sites] == [ALLOWED[path.name]]
