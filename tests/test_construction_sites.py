"""HopfAlgebra(...) is called only where a Hopf structure is first given or
read: hopf.py (the dual, a copy over a larger field), builders.py,
serialize.py, and in coideal.py only inside `_hopf_on_rows`, the one
builder that puts H's Delta, eps and S on a subspace of H, for H//N and
for Hopf subalgebras alike.  It takes the algebra from its caller and
proves nothing.

`_cache["proven"]` is written only where a proof is made or carried over:
HopfAlgebra.verify and HopfAlgebra.dual, linalg._subalgebra_presentation
(a subalgebra of a proven algebra) and coideal.hopf_subalgebra_data (N,
proven by its inclusion into a proven H)."""

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


# module: the functions that may mark a structure proven
PROVEN_WRITERS = {"hopf.py": {"verify", "dual"}, "linalg.py": {"_subalgebra_presentation"},
                  "coideal.py": {"hopf_subalgebra_data"}}


def _proven_writers(tree):
    """The names of the innermost functions that assign to x._cache["proven"]
    for any x ("<module>" at module level)."""
    writers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "_cache" and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "proven"):
                writers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return writers


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_structures_are_marked_proven_only_where_allowed(path):
    assert _proven_writers(ast.parse(path.read_text())) == PROVEN_WRITERS.get(path.name, set())
