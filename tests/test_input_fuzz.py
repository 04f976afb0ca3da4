"""Fuzzing of the input layer: the JSON graph builder, the polyomino parser
and the ``complex`` and ``count`` commands.

Every input either builds a graph or raises a ``GraphError``; through the
command line, a bad input exits with status 2 and prints one ``error:``
line, never a traceback.  The examples stay small, so a drawing that does
parse is cheap to enumerate.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilings.cli import main
from tilings.planar import (GraphError, PlanarGraph, build_planar_graph,
                            parse_polyomino)

# JSON values of every kind, small, with the numbers and strings that
# coordinates and ids are made of.
scalars = (st.none() | st.booleans() | st.integers(-3, 3)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from(["0", "1/2", "-3/4", "1/0", "x", "", "1e5",
                              "2.5", "nan", "inf"]))
values = st.recursive(scalars, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["id", "x", "y", "vertices", "edges",
                                       "regions"]), inner, max_size=4)),
    max_leaves=12)



@st.composite
def near_valid_specs(draw):
    """A graph object on a few vertices at small lattice points, with edges
    and maybe regions over their ids, then maybe one part made malformed:
    the whole object or a field replaced, a field dropped, or one vertex,
    edge or region spoiled."""
    n = draw(st.integers(2, 6))
    points = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           min_size=n, max_size=n, unique=True))
    spec = {"vertices": [{"id": i, "x": x, "y": y}
                         for i, (x, y) in enumerate(points)],
            "edges": draw(st.lists(st.lists(st.integers(0, n - 1),
                                            min_size=2, max_size=2,
                                            unique=True),
                                   max_size=8))}
    if draw(st.booleans()):
        spec["regions"] = draw(st.lists(st.lists(
            st.integers(0, n - 1), min_size=3, max_size=5), max_size=2))
    spoil = draw(st.sampled_from(["none", "whole", "field", "drop", "vertex",
                                  "edge", "region"]) if draw(st.booleans())
                 else st.just("none"))
    if spoil == "whole":
        return draw(values)
    if spoil == "field":
        spec[draw(st.sampled_from(sorted(spec)))] = draw(values)
    elif spoil == "drop":
        del spec[draw(st.sampled_from(sorted(spec)))]
    elif spoil == "vertex":
        v = draw(st.sampled_from(spec["vertices"]))
        v[draw(st.sampled_from(["id", "x", "y"]))] = draw(values)
    elif spoil in ("edge", "region"):
        part = spec.setdefault(spoil + "s", [])
        part.append(draw(st.lists(st.integers(-1, n) | values, max_size=4)))
    return spec


specs = near_valid_specs()


def assert_builds_or_rejects(spec):
    try:
        g = build_planar_graph(spec)
    except GraphError:
        return
    assert isinstance(g, PlanarGraph)


@settings(max_examples=200, deadline=None)
@given(specs)
def test_graph_builder_builds_or_rejects(spec):
    assert_builds_or_rejects(spec)


def test_huge_exponents_are_rejected():
    # Read as written, each would build a power of ten with millions of
    # digits or more: a run without bound.
    for x in ("1e100000000", "2.5E-100000000", "1e+" + "9" * 5000):
        with pytest.raises(GraphError, match="exponent"):
            build_planar_graph({"vertices": [{"id": 0, "x": x, "y": 0}],
                                "edges": []})
    g = build_planar_graph({"vertices": [{"id": 0, "x": "1e300", "y": 0},
                                         {"id": 1, "x": "-1e-300", "y": 0}],
                            "edges": [[0, 1]]})
    assert len(g.edges) == 1


grid_text = st.text(alphabet=st.sampled_from("#. \n\t\r#x"), max_size=24) \
    | st.text(max_size=12)


@settings(max_examples=300, deadline=None)
@given(grid_text)
def test_polyomino_parser_reads_cells_or_rejects(text):
    try:
        cells = parse_polyomino(text)
    except GraphError:
        return
    assert cells and all(text.splitlines()[r][c] == "#" for r, c in cells)


# -- the command line --------------------------------------------------------


def run_on_file(command, name, content):
    """Exit status, output and error of ``tilings <command> <file>`` on a
    file of the given name holding ``content``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


def assert_answers_or_fails_cleanly(code, out, err):
    if code == 0:
        assert err == "" and "f_vector" in json.loads(out)
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


commands = st.sampled_from(["complex", "count"])


@settings(max_examples=60, deadline=None)
@given(commands, specs)
def test_cli_on_json_graphs(command, spec):
    assert_answers_or_fails_cleanly(
        *run_on_file(command, "graph.json", json.dumps(spec)))


@settings(max_examples=60, deadline=None)
@given(commands, grid_text | st.binary(max_size=16).map(bytes))
def test_cli_on_polyomino_files(command, content):
    assert_answers_or_fails_cleanly(
        *run_on_file(command, "region.txt", content))


@settings(max_examples=30, deadline=None)
@given(commands, st.text(max_size=16) | st.binary(max_size=16).map(bytes))
def test_cli_on_bad_json_text(command, content):
    assert_answers_or_fails_cleanly(
        *run_on_file(command, "graph.json", content))
