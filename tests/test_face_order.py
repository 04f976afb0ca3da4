"""The face order read from the cover relation, against scans of face_leq.

``face_leq`` compares two faces directly; it is the reference order.  The
package reads the order from region releases instead: ``facets_of`` going
down, and links as the region sets flipped out of a face going up; the cube
check's per-face reference reads the vertices below a face through its
facets.  Each is compared here with a scan over every pair of faces.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tilings
from reference import (face_leq, from_faces, grown_polyominoes, polyominoes,
                       vertices_below)
from tilings.complexes import (CubicalMatchingComplex, TilingFace,
                               build_complex)
from tilings.fixtures import (core_fixture_names, figure_counterexample,
                              figure_g1, figure_g2, figure_g3, named_fixture,
                              triangular_prism)
from tilings.matchings import enumerate_perfect_matchings
from tilings.planar import Region, build_ladder, edge_key, graph_from_cells
from tilings.topology import collapse_search, link_of_face, z2_betti

FIGURES = [figure_g1, figure_g2, figure_g3, figure_counterexample,
           triangular_prism]


def faces_above_by_scan(k):
    """Every face strictly above each face, by face_leq over all pairs."""
    return {f: [c for c in k.faces
                if f.cycles < c.cycles and face_leq(f, c, k.graph)]
            for f in k.faces}


def assert_order_matches_scan(g):
    k = build_complex(g)
    above = faces_above_by_scan(k)
    below = vertices_below(k)
    for f in k.faces:
        want_link = from_faces(
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


# -- the complex owns its order of dimension -----------------------------------


def assert_order_is_owned(k, rng):
    """Rebuilt from its faces in a random order, k reads the same: the faces
    go back into order of dimension, keeping the given order within one."""
    faces = list(k.faces)
    rng.shuffle(faces)
    p = CubicalMatchingComplex(k.graph, faces)
    assert p.faces == tuple(sorted(faces, key=lambda f: f.dim))
    assert (p.dim, p.f_vector()) == (k.dim, k.f_vector())
    assert sorted(p.vertices(), key=TilingFace.sort_key) == k.vertices()
    assert z2_betti(p) == z2_betti(k)
    assert collapse_search(p).status == collapse_search(k).status
    comps = [c.f_vector() for c in k.connected_components()]
    assert sorted(c.f_vector() for c in p.connected_components()) == \
        sorted(comps)


@settings(max_examples=100, deadline=None)
@given(grown_polyominoes(), st.randoms(use_true_random=False))
def test_order_is_owned_on_polyominoes(cells, rng):
    assert_order_is_owned(build_complex(graph_from_cells(set(cells))), rng)


@pytest.mark.parametrize("build", FIGURES)
def test_order_is_owned_on_figures(build):
    k = build_complex(build())
    for seed in range(5):
        assert_order_is_owned(k, random.Random(seed))


def test_reversed_and_shuffled_ladder_3():
    k = build_complex(build_ladder(3))
    shuffled = list(k.faces)
    random.Random(1).shuffle(shuffled)
    for faces in (reversed(k.faces), shuffled):
        p = CubicalMatchingComplex(k.graph, faces)
        assert z2_betti(p) == (1,)
        assert collapse_search(p).status == "collapsible"
        assert p.f_vector() == [5, 5, 1]


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


# -- the references stay out of the package's own code ----------------------------


def references(tree, name):
    """(line, kind) for every mention of ``name`` in a parsed module: its
    definition as a function or class, an import, a use, an attribute, a
    string, a parameter, or a keyword argument."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            found.append((node.lineno, "def"))
        elif isinstance(node, ast.ClassDef) and node.name == name:
            found.append((node.lineno, "class"))
        elif isinstance(node, ast.alias) and name in (node.name,
                                                      node.asname):
            found.append((node.lineno, "import"))
        elif isinstance(node, ast.Name) and node.id == name:
            found.append((node.lineno, "use"))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append((node.lineno, "attribute"))
        elif isinstance(node, ast.Constant) and node.value == name:
            found.append((node.lineno, "string"))
        elif isinstance(node, ast.arg) and node.arg == name:
            found.append((node.lineno, "parameter"))
        elif isinstance(node, ast.keyword) and node.arg == name:
            found.append((node.lineno, "keyword"))
    return sorted(found)


# Names that live in the tests as references, or that are gone: no module of
# the package defines, imports, calls or exports them.
TEST_ONLY = ["face_leq", "from_faces", "boundary_of_boundary_vanishes",
             "weak_dual", "DualGraph", "symmetric_difference_cycles",
             "CycleDecomposition", "region_order", "max_regions",
             "max_faces", "_vertices_below", "is_subcube", "_is_subcube",
             "vertex_set", "_cell_label", "cells_connected", "parity",
             "matched_region_graph_by_definition"]


def test_reference_names_stay_out_of_the_package():
    package = Path(tilings.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name in TEST_ONLY:
            for line, kind in references(tree, name):
                found.setdefault(path.name, []).append((name, line, kind))
    assert found == {}


def test_references_guard_sees_each_kind():
    tree = ast.parse("def f(): pass\nfrom m import f\ng = f\nh = m.f\n"
                     "__all__ = ['f']\nclass f: pass\ndef g(f=0): pass\n"
                     "g(f=1)\n")
    assert references(tree, "f") == [
        (1, "def"), (2, "import"), (3, "use"), (4, "attribute"),
        (5, "string"), (6, "class"), (7, "parameter"), (8, "keyword")]
