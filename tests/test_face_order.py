"""The face order read from the cover relation, against scans of face_leq.

``face_leq`` compares two faces directly; it is the reference order.  The
package reads the order from region releases instead: ``facets_of`` going
down, links as the region sets flipped out of a face going up, and the
vertices below a face through its facets.  Each is compared here with a
scan over every pair of faces.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tilings
from tilings.complexes import TilingFace, build_complex, face_leq
from tilings.fixtures import (core_fixture_names, figure_counterexample,
                              figure_g1, figure_g2, figure_g3, named_fixture,
                              triangular_prism)
from tilings.matchings import enumerate_perfect_matchings
from tilings.planar import (Region, cells_connected, edge_key,
                            graph_from_cells)
from tilings.topology import SimplicialComplex, link_of_face
from tilings.verify import _vertices_below

FIGURES = [figure_g1, figure_g2, figure_g3, figure_counterexample,
           triangular_prism]


@st.composite
def grown(draw, max_cells=12):
    """An even number of cells, at most max_cells, grown one edge-neighbour
    at a time."""
    n = 2 * draw(st.integers(1, max_cells // 2))
    cells = {(0, 0)}
    while len(cells) < n:
        boundary = sorted({nb for r, c in cells
                           for nb in ((r + 1, c), (r - 1, c),
                                      (r, c + 1), (r, c - 1))} - cells)
        cells.add(draw(st.sampled_from(boundary)))
    return frozenset(cells)


@st.composite
def punched(draw):
    """A box of 12 cells with a few taken out: many squares, overlapping."""
    rows, cols = draw(st.sampled_from([(3, 4), (4, 3), (2, 6)]))
    box = sorted((r, c) for r in range(rows) for c in range(cols))
    return frozenset(box) - draw(st.sets(st.sampled_from(box), max_size=4))


def polyominoes():
    """Connected polyominoes of at most 12 cells, an even number of them;
    holes are kept, and a hole can be an even region too."""
    return st.one_of(grown(), punched()).filter(
        lambda cells: len(cells) % 2 == 0 and cells_connected(set(cells)))


def faces_above_by_scan(k):
    """Every face strictly above each face, by face_leq over all pairs."""
    return {f: [c for c in k.faces
                if f.cycles < c.cycles and face_leq(f, c, k.graph)]
            for f in k.faces}


def assert_order_matches_scan(g):
    k = build_complex(g)
    above = faces_above_by_scan(k)
    below = _vertices_below(k)
    for f in k.faces:
        want_link = SimplicialComplex.from_faces(
            c.cycles - f.cycles for c in above[f])
        assert link_of_face(k, f, check_model=False) == want_link
        assert below[f] == {v.matching for v in k.vertices()
                            if v == f or f in above[v]}


@settings(max_examples=100, deadline=None)
@given(polyominoes())
def test_order_matches_scan_on_polyominoes(cells):
    assert_order_matches_scan(graph_from_cells(set(cells)))


@pytest.mark.parametrize("build", FIGURES)
def test_order_matches_scan_on_figures(build):
    assert_order_matches_scan(build())


# -- a face is its own key --------------------------------------------------------


def assert_faces_are_keys(k):
    regions = k.graph.regions
    for i, f in enumerate(k.faces):
        pair = (frozenset(f.matching), f.cycles)
        assert pair in k and k.position(pair) == i
        assert pair == f and hash(pair) == hash(f)
        facets = k.facets_of(f)
        assert all(g in k and k.position(g) < i for g in facets)
        # The facet formula: each region released into each alternation.
        assert facets == [(f.matching.edges | alt, f.cycles - {r})
                          for r in sorted(f.cycles)
                          for alt in regions[r].alternations]


@settings(max_examples=100, deadline=None)
@given(polyominoes())
def test_faces_are_keys_on_polyominoes(cells):
    assert_faces_are_keys(build_complex(graph_from_cells(set(cells))))


@pytest.mark.parametrize("build", FIGURES)
def test_faces_are_keys_on_figures(build):
    assert_faces_are_keys(build_complex(build()))


def test_only_complexes_reads_the_index():
    package = Path(tilings.__file__).parent
    readers = sorted(path.name for path in package.glob("*.py")
                     if references(ast.parse(path.read_text()), "_index"))
    assert readers == ["complexes.py"]


# -- regions carry their alternations ------------------------------------------


def alternations_by_formula(cycle):
    """Every other boundary edge, from the first and from the second."""
    n = len(cycle)
    a = frozenset(edge_key(cycle[i], cycle[(i + 1) % n])
                  for i in range(0, n, 2))
    b = frozenset(edge_key(cycle[i], cycle[(i + 1) % n])
                  for i in range(1, n, 2))
    return (a, b)


@given(st.lists(st.integers(0, 40), min_size=3, max_size=12, unique=True))
def test_alternations_match_formula(cycle):
    region = Region(tuple(cycle))
    if len(cycle) % 2:
        assert region.alternations == ()
    else:
        assert region.alternations == alternations_by_formula(cycle)
    assert region.edge_set == frozenset().union(
        *alternations_by_formula(cycle))


@pytest.mark.parametrize("build", FIGURES)
def test_alternations_on_figure_regions(build):
    for r in build().regions:
        want = () if len(r) % 2 else alternations_by_formula(r.cycle)
        assert r.alternations == want


# -- faces are sorted once ---------------------------------------------------------


def assert_components_in_order(g):
    k = build_complex(g)
    assert list(k.faces) == sorted(k.faces, key=TilingFace.sort_key)
    comps = k.connected_components()
    for c in comps:
        assert list(c.faces) == sorted(c.faces, key=TilingFace.sort_key)
    firsts = [c.faces[0].sort_key() for c in comps]
    assert firsts == sorted(firsts)


@settings(max_examples=100, deadline=None)
@given(polyominoes())
def test_components_in_order_on_polyominoes(cells):
    assert_components_in_order(graph_from_cells(set(cells)))


@pytest.mark.parametrize("build", FIGURES)
def test_components_in_order_on_figures(build):
    assert_components_in_order(build())


# -- the vertices are the perfect matchings, in order -----------------------------


def assert_vertices_are_matchings(g):
    k = build_complex(g)
    assert [v.matching for v in k.vertices()] == enumerate_perfect_matchings(g)


@pytest.mark.parametrize("name", core_fixture_names())
def test_vertices_are_matchings_on_core_fixtures(name):
    assert_vertices_are_matchings(named_fixture(name))


@settings(max_examples=100, deadline=None)
@given(polyominoes())
def test_vertices_are_matchings_on_polyominoes(cells):
    assert_vertices_are_matchings(graph_from_cells(set(cells)))


# -- face_leq stays out of the package's own code ----------------------------------


def references(tree, name):
    """(line, kind) for every mention of ``name`` in a parsed module: its
    definition, an import, a use, an attribute, or a string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            found.append((node.lineno, "def"))
        elif isinstance(node, ast.alias) and name in (node.name,
                                                      node.asname):
            found.append((node.lineno, "import"))
        elif isinstance(node, ast.Name) and node.id == name:
            found.append((node.lineno, "use"))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append((node.lineno, "attribute"))
        elif isinstance(node, ast.Constant) and node.value == name:
            found.append((node.lineno, "string"))
    return sorted(found)


def test_face_leq_has_no_caller_in_the_package():
    package = Path(tilings.__file__).parent
    kinds = {}
    for path in sorted(package.glob("*.py")):
        for _, kind in references(ast.parse(path.read_text()), "face_leq"):
            kinds.setdefault(path.name, []).append(kind)
    assert kinds == {"__init__.py": ["import", "string"],
                     "complexes.py": ["def"]}


def test_references_guard_sees_each_kind():
    tree = ast.parse("def f(): pass\nfrom m import f\ng = f\nh = m.f\n"
                     "__all__ = ['f']\n")
    assert references(tree, "f") == [(1, "def"), (2, "import"), (3, "use"),
                                      (4, "attribute"), (5, "string")]
