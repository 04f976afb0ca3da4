"""The searches keep their state on lists of frames, not on the call stack,
and leave the recursion limit alone.  The package touches no interpreter
setting, so concurrent calls have none to race on.  The source guards keep
it so: no module sets the recursion limit, no nested function calls itself,
and no module names ``gc``."""

import ast
import sys
import threading
from pathlib import Path

import networkx as nx
import pytest

import tilings
from tilings import (build_complex, count_f_vector,
                     enumerate_perfect_matchings, independence_complex,
                     kozlov_reference_betti, z2_betti)
from tilings.fixtures import (figure_counterexample, figure_g1, figure_g2,
                              figure_g3, triangular_prism)
from tilings.planar import graph_from_cells

FIGURES = [figure_g1, figure_g2, figure_g3, figure_counterexample,
           triangular_prism]


def strip(cells):
    """One row of cells: a path with one perfect matching, which the
    search reaches one edge per two cells deep."""
    return graph_from_cells({(0, c) for c in range(cells)})


def test_searches_leave_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"recursion limit set to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    [m] = enumerate_perfect_matchings(strip(2000))
    assert len(m) == 1000
    for build in FIGURES:
        g = build()
        assert build_complex(g).f_vector() == count_f_vector(g)
    assert (z2_betti(independence_complex(nx.path_graph(12)))
            == kozlov_reference_betti("L", 12))


def test_concurrent_searches_keep_the_recursion_limit():
    limit = sys.getrecursionlimit()
    errors = []

    def enumerate_often(g):
        try:
            for _ in range(100):
                [m] = enumerate_perfect_matchings(g)
                assert 2 * len(m) == len(g.lattice)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=enumerate_often, args=(strip(n),))
               for n in (2000, 400)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert sys.getrecursionlimit() == limit


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def recursion_nodes(tree):
    """(line, what) for every call of ``setrecursionlimit`` and every
    nested function that calls itself by name, in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name == "setrecursionlimit":
                found.append((node.lineno, "setrecursionlimit"))
    nested = {inner for outer in ast.walk(tree) if isinstance(outer, _FUNCTIONS)
              for stmt in outer.body for inner in ast.walk(stmt)
              if isinstance(inner, _FUNCTIONS)}
    for f in nested:
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == f.name for n in ast.walk(f)):
            found.append((f.lineno, f"{f.name} calls itself"))
    return sorted(found)


@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(tilings.__file__).parent.glob("*.py")))
def test_no_module_recurses_by_closure_or_sets_the_limit(name):
    path = Path(tilings.__file__).parent / name
    assert recursion_nodes(ast.parse(path.read_text())) == []


def test_recursion_guard_sees_each_kind():
    tree = ast.parse("import sys\n"
                     "sys.setrecursionlimit(5000)\n"
                     "def outer():\n"
                     "    def search(n):\n"
                     "        return search(n - 1)\n"
                     "    def leaf(n):\n"
                     "        return outer()\n"
                     "    setrecursionlimit(10)\n"
                     "def top(n):\n"
                     "    return top(n - 1)\n")
    assert recursion_nodes(tree) == [(2, "setrecursionlimit"),
                                     (4, "search calls itself"),
                                     (8, "setrecursionlimit")]


def collector_lines(tree):
    """The lines of a parsed module that import or name ``gc``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if "gc" in names:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(tilings.__file__).parent.glob("*.py")))
def test_no_module_names_the_collector(name):
    """No module of the package names ``gc``."""
    path = Path(tilings.__file__).parent / name
    assert collector_lines(ast.parse(path.read_text())) == []


def test_collector_guard_sees_each_kind():
    tree = ast.parse("import gc\n"
                     "import os, gc as g\n"
                     "from gc import disable\n"
                     "gc.disable()\n"
                     "x = g.isenabled()\n"
                     "gcx = 1\n")
    assert collector_lines(tree) == [1, 2, 3, 4]
