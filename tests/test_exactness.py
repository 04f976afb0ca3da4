"""The package stays exact: no floats and no true division in the modules
that hold coordinates, the predicates on them, shapes, complexes,
polynomials, ranks and the checks."""

import ast
from pathlib import Path

import pytest

import tilings

# cli.py is left out: its only "divisions" are Path joins.
EXACT_MODULES = ["geometry.py", "planar.py", "matchings.py", "fixtures.py",
                 "complexes.py", "fibpoly.py", "topology.py", "verify.py"]


def inexact_nodes(tree):
    """(line, what) for every float literal, float() call and true
    division in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            found.append((node.lineno, "true division"))
    return sorted(found)


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_module_is_free_of_floats_and_true_division(name):
    path = Path(tilings.__file__).parent / name
    assert inexact_nodes(ast.parse(path.read_text())) == []


def test_guard_sees_each_kind():
    tree = ast.parse("a = 1.5\nb = float(a)\nc = a / 2\nc /= 2\nd = a // 2\n")
    assert inexact_nodes(tree) == [(1, "float literal"), (2, "float() call"),
                                   (3, "true division"), (4, "true division")]
