"""The tiling counter against enumeration, and where counting builds no
faces.

``count_tilings`` makes the moves of the search plan, an edge or an even
region covering the first uncovered vertex, forward over the vertex order,
merging equal covered sets.  ``build_complex`` builds every tiling, so its
``f_vector()`` is the count's reference on every graph small enough to
enumerate.  The rectangles are pinned to the broken-profile transfer matrix
of the benchmark's oracle (``perfbench/oracles.py::tiling_counts``).
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import tilings
from reference import grown_polyominoes
from test_complexes import simply_connected_polyominoes
from test_planar import deletions
from tilings import complexes
from tilings.cli import main
from tilings.complexes import (TilingFace, build_complex, count_f_vector,
                               edge_decompositions, verify_edge_decomposition)
from tilings.fibpoly import f_polynomial
from tilings.fixtures import core_fixture_names, named_fixture
from tilings.matchings import (Matching, _search_plan, count_on_plan,
                               count_tilings)
from tilings.planar import build_from_polyomino, build_ladder, graph_from_cells
from tilings.verify import Bounds, run_verification


def assert_counts_match(g):
    assert count_f_vector(g) == build_complex(g).f_vector()


@settings(max_examples=100, deadline=None)
@given(simply_connected_polyominoes())
def test_counts_match_enumeration_on_simply_connected_polyominoes(cells):
    assert_counts_match(graph_from_cells(set(cells)))


@settings(max_examples=100, deadline=None)
@given(grown_polyominoes().map(set))
def test_counts_match_enumeration_on_polyominoes(cells):
    # Holes are kept: a hole can be an even region too.
    assert_counts_match(graph_from_cells(cells))


@settings(max_examples=150, deadline=None)
@given(deletions())
def test_counts_match_enumeration_on_subgraphs(case):
    # Odd, disconnected and region-less graphs, as the edge decomposition
    # makes them.
    g, rv, re = case
    assert_counts_match(g.subgraph(remove_vertices=rv, remove_edges=re))


@pytest.mark.parametrize("name", core_fixture_names())
def test_counts_match_enumeration_on_core_fixtures(name):
    assert_counts_match(named_fixture(name))


def test_counts_of_bare_adjacency():
    # No vertex: one empty tiling.  An odd path: none.
    assert count_tilings([], {}) == [1]
    assert count_tilings([0, 1, 2], {0: [1], 1: [0, 2], 2: [1]}) == []
    # A 4-cycle with its region: two matchings and the region.
    square = {0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [0, 2]}
    assert count_tilings([0, 1, 2, 3], square) == [2]
    assert count_tilings([0, 1, 2, 3], square, [(7, [2, 0, 3, 1])]) == [2, 1]


RECTANGLES = {
    (4, 8): [2245, 8915, 14760, 13214, 6925, 2141, 372, 32, 1],
    (8, 8): [12988816, 103035128, 373597816, 820326608, 1218158340,
             1293919290, 1013982086, 595966514, 264433567, 88437730,
             22085868, 4044098, 526991, 46636, 2600, 80, 1],
    (10, 10): [258584046368, 3219739144464, 18940783485824, 70013011279880,
               182441687245128, 356417708686484, 541978083067560,
               657426165971100, 646784866966742, 521926818557862,
               348020813752742, 192594703947670, 88618714472040,
               33888812033519, 10741991292168, 2808408249284, 601068081562,
               104210324235, 14429060000, 1565370406, 129685856, 7921106,
               339322, 9450, 150, 1],
}
TOTALS = {(4, 8): 48605, (8, 8): 5811552169, (10, 10): 3676802302990923}


def rectangle(rows, cols):
    return graph_from_cells({(r, c) for r in range(rows) for c in range(cols)})


@pytest.mark.parametrize("shape", sorted(RECTANGLES))
def test_rectangle_counts(shape):
    counts = count_f_vector(rectangle(*shape))
    assert counts == RECTANGLES[shape]
    assert sum(counts) == TOTALS[shape]
    assert sum((-1) ** i * c for i, c in enumerate(counts)) == 1


@pytest.mark.parametrize("n", [29, 399])
def test_two_row_strip_counts_as_ladder(n):
    # The strip of 2 rows and n + 1 columns of cells is the n-square ladder.
    # Counted along its length the states span one column; counted row by
    # row they would span a whole row, in time exponential in its length.
    g = graph_from_cells({(r, c) for r in range(2) for c in range(n + 1)})
    start = time.perf_counter()
    counts = count_f_vector(g)
    assert time.perf_counter() - start < 1
    assert counts == list(f_polynomial(n).coeffs)


def test_count_runs_without_recursion():
    # A fresh interpreter, with a recursion limit far below the 100
    # vertices of the 10x10 rectangle.
    code = ("import sys\n"
            "from tilings.complexes import count_f_vector\n"
            "from tilings.planar import graph_from_cells\n"
            "g = graph_from_cells({(r, c) for r in range(10)"
            " for c in range(10)})\n"
            "sys.setrecursionlimit(100)\n"
            f"assert count_f_vector(g) == {RECTANGLES[10, 10]!r}\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# -- the edge decomposition from counts --------------------------------------


def enumerated_f_vector(g):
    return build_complex(g).f_vector()


def enumerating_counter(calls):
    """A stand-in for ``complexes._counter_without`` that enumerates each
    subgraph's complex, and logs each count in ``calls``."""
    def counter(g, holding):
        def count(vertices=(), edge=None):
            calls.append((tuple(vertices), edge))
            return enumerated_f_vector(g.subgraph(
                remove_vertices=vertices,
                remove_edges=[edge] if edge else []))
        return count
    return counter


@settings(max_examples=150, deadline=None)
@given(deletions())
# The bottom edge of the first square holds its region, which must go too.
@example((build_ladder(4), set(), {(0, 2)}))
def test_counts_without_match_subgraph_counts(case):
    # Counting on the plan of g with the vertices covered from the start and
    # the edge and its regions dropped counts the subgraph.
    g, rv, re = case
    edge = min(re, default=None)
    plan, pos = _search_plan(g.vertex_ids, g.adj,
                             [(i, r.cycle) for i, r in enumerate(g.regions)
                              if r.alternations])
    start = sum(1 << pos[v] for v in rv)
    labels = [i for i, r in enumerate(g.regions) if edge in r.edge_set]
    assert count_on_plan(plan, start, sum(1 << pos[v] for v in edge or ()),
                         labels) == count_f_vector(
        g.subgraph(remove_vertices=rv, remove_edges=[edge] if edge else []))


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "figure2", "prism",
                                  "ladder-3-2", "ladder-5", "ladder-6-6"])
def test_decomposition_reports_match_enumeration(name, monkeypatch):
    g = named_fixture(name)
    f_g = enumerated_f_vector(g)
    counted = edge_decompositions(g, f_g=f_g)
    # Every edge of g that lies in exactly one region, in order.
    assert [r["edge"] for r in counted] == [
        list(e) for e in sorted(g.edges)
        if sum(e in r.edge_set for r in g.regions) == 1]
    assert counted
    calls = []
    monkeypatch.setattr(complexes, "_counter_without",
                        enumerating_counter(calls))
    assert counted == edge_decompositions(g, f_g=f_g)
    # Each term came from the enumeration: two for each edge and one for
    # each even region holding one.
    evens = {r["region"] for r in counted if r["region_parity"] == "even"}
    assert len(calls) == 2 * len(counted) + len(evens)


# -- no faces built ----------------------------------------------------------


class NoFaces(TilingFace):
    def __new__(cls, *args, **kwargs):
        raise AssertionError("a TilingFace was built")

    @classmethod
    def _make(cls, iterable):
        raise AssertionError("a TilingFace was built")


def face_bypasses(tree):
    """(line, what) for every reference to ``TilingFace._make`` or
    ``tuple.__new__`` in a parsed module: the routes to a face that go
    around ``TilingFace.__new__``, and so around the patch above."""
    return sorted(
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in {("TilingFace", "_make"),
                                           ("tuple", "__new__")})


@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(tilings.__file__).parent.glob("*.py")))
def test_no_module_builds_faces_around_new(name):
    path = Path(tilings.__file__).parent / name
    assert face_bypasses(ast.parse(path.read_text())) == []


def test_bypass_guard_sees_each_kind():
    tree = ast.parse("a = list(map(TilingFace._make, pairs))\n"
                     "b = tuple.__new__(TilingFace, (m, s))\n"
                     "c = TilingFace(m, s)\nd = Matching._make(x)\n")
    assert face_bypasses(tree) == [(1, "TilingFace._make"),
                                   (2, "tuple.__new__")]


def forbid_decoding(monkeypatch):
    """Make every decoding of a code, into a matching and so into a face,
    fail from now on, and check that it does."""
    def decode(cls, code, g):
        raise AssertionError("a code was decoded")
    monkeypatch.setattr(Matching, "from_code", classmethod(decode))
    with pytest.raises(AssertionError, match="decoded"):
        build_complex(named_fixture("g2")).faces


def test_counting_builds_no_faces(monkeypatch, capsys):
    g = named_fixture("g2")
    forbid_decoding(monkeypatch)
    assert count_f_vector(g) == [5, 5, 1]
    assert count_tilings(g.vertex_ids, g.adj) == [5]
    reports = edge_decompositions(g, f_g=[5, 5, 1])
    assert reports and all(r["ok"] for r in reports)
    assert verify_edge_decomposition(g, reports[0]["edge"])["ok"]
    assert main(["count", "g2"]) == 0
    assert "f_vector: [5, 5, 1]" in capsys.readouterr().out


def test_verify_and_count_decode_nothing(monkeypatch):
    forbid_decoding(monkeypatch)
    report = run_verification("all", Bounds(max_ladder=4, max_cells=6,
                                            random_count=3))
    assert report.ok and len(report.results) == 12
    assert all(r.checked for r in report.results)
    assert count_f_vector(build_from_polyomino("####\n####\n####")) == \
        [11, 14, 4]


# -- the count command -------------------------------------------------------


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", core_fixture_names())
def test_count_matches_complex(name, capsys):
    code, complex_json, _ = run(capsys, "complex", name, "--format", "json")
    assert code == 0
    payload = json.loads(complex_json)
    del payload["components"]
    assert run(capsys, "count", name, "--format", "json") == (
        0, json.dumps(payload, indent=2, sort_keys=True) + "\n", "")
    code, complex_table, _ = run(capsys, "complex", name)
    table = "".join(line for line in complex_table.splitlines(True)
                    if not line.startswith("components:"))
    assert run(capsys, "count", name) == (0, table, "")


def test_count_untileable_polyomino(tmp_path, capsys):
    path = tmp_path / "tromino.txt"
    path.write_text("###\n")
    code, out, _ = run(capsys, "count", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["f_vector"] == []
    assert json.loads(out)["euler_characteristic"] == 0


def test_count_bad_input_fails(tmp_path, capsys):
    code, out, err = run(capsys, "count", "no-such-fixture")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    bad = tmp_path / "bad.json"
    # Two crossing diagonals of a square are not a plane drawing.
    bad.write_text(json.dumps({
        "vertices": [{"id": i, "x": x, "y": y}
                     for i, (x, y) in enumerate([(0, 0), (1, 0), (1, 1),
                                                 (0, 1)])],
        "edges": [[0, 2], [1, 3]]}))
    code, out, err = run(capsys, "count", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -- caches the benchmark empties --------------------------------------------


def test_every_cache_is_one_the_benchmark_empties():
    # Between rounds the benchmark clears the caches held in these modules;
    # a cache elsewhere would make later rounds cheaper than a fresh run.
    cleared = {"tilings.fibpoly", "tilings.fixtures", "tilings.verify"}
    caches = []
    for info in pkgutil.iter_modules(tilings.__path__):
        module = importlib.import_module(f"tilings.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) \
                else [value]
            caches += [m for m in members
                       if callable(getattr(m, "cache_clear", None))]
    assert caches
    for cache in caches:
        # Held by name at the top of the module that defines it.
        home = sys.modules[cache.__module__]
        assert cache.__module__ in cleared, cache.__qualname__
        assert vars(home).get(cache.__qualname__) is cache, cache.__qualname__
