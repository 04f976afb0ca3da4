"""The fast paths of the complex build against the paths they replace.

``matchings_of_adjacency`` keeps the covered vertices as the bits of one int,
reads a move table and gives each matching as its edge code;
``build_complex`` builds each face upward from a perfect matching by taking
out one region's alternation at a time, in order and with no sort;
``count_tilings`` merges equal covered sets; ``connected_components`` joins
vertices along the 1-skeleton.  Their
references are kept here: a search for every tiling, regions as moves,
over a set of covered vertices; a sort of its tilings by
``TilingFace.sort_key``; and a union-find over every face.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import grown_polyominoes, polyominoes
from test_count import forbid_decoding
from tilings.complexes import (CubicalMatchingComplex, TilingFace,
                               _even_regions, build_complex)
from tilings.fixtures import (figure_counterexample, figure_g1, figure_g2,
                              figure_g3, triangular_prism)
from tilings.matchings import Matching, count_tilings, matchings_of_adjacency
from tilings.planar import (PlanarGraph, build_from_polyomino,
                            build_planar_graph, graph_from_cells)

FIGURES = [figure_g1, figure_g2, figure_g3, figure_counterexample,
           triangular_prism]


def set_search(vertices, adj, regions=()):
    """Every tiling (M, S), found by covering the lowest uncovered vertex
    with an edge to an uncovered neighbour, in the order of ``adj``, or with
    a region whose lowest vertex it is, the covered vertices kept in a set."""
    if len(vertices) % 2 == 1:
        return []
    order = sorted(vertices)
    starting = {}
    for label, vs in regions:
        vs = sorted(vs)
        starting.setdefault(vs[0], []).append((label, tuple(vs[1:])))
    covered, edges, out = set(), [], []

    def search(i, used):
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            out.append((Matching(edges), used))
            return
        v = order[i]
        covered.add(v)
        for u in adj[v]:
            if u in covered:
                continue
            covered.add(u)
            edges.append((v, u))
            search(i + 1, used)
            edges.pop()
            covered.discard(u)
        for label, rest in starting.get(v, ()):
            if not covered.isdisjoint(rest):
                continue
            covered.update(rest)
            search(i + 1, used | {label})
            covered.difference_update(rest)
        covered.discard(v)

    search(0, frozenset())
    return out


def components_by_every_face(k):
    """The components as tuples of faces in k's order, the components in
    the order of their first faces: each face of dimension d > 0 joined to
    the two faces that release its lowest region."""
    regions, faces = k.graph.regions, k.faces
    parent = list(range(len(faces)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, f in enumerate(faces):
        if f.cycles:
            r = min(f.cycles)
            for alt in regions[r].alternations:
                parent[find(i)] = find(
                    k.position((f.matching | alt, f.cycles - {r})))
    groups = {}
    for i, f in enumerate(faces):
        groups.setdefault(find(i), []).append(f)
    return [tuple(fs) for fs in groups.values()]


def never_called(self):
    raise AssertionError("sort_key was called")


def assert_fast_paths_match(g, seed=0):
    regions = _even_regions(g)
    want = set_search(g.vertex_ids, g.adj, regions)
    # The same perfect matchings, in the same order, coded in the numbering
    # of g's edges.
    codes = matchings_of_adjacency(g.vertex_ids, g.adj)
    assert ([Matching.from_code(m, g) for m in codes]
            == [m for m, _ in set_search(g.vertex_ids, g.adj)])
    counts = [0] * (max((len(s) for _, s in want), default=-1) + 1)
    for _, s in want:
        counts[len(s)] += 1
    assert count_tilings(g.vertex_ids, g.adj, regions) == counts

    faces = sorted((TilingFace(m, s) for m, s in want),
                   key=TilingFace.sort_key)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TilingFace, "sort_key", never_called)
        k = build_complex(g)
    assert list(k.faces) == faces

    comps = k.connected_components()
    assert [c.faces for c in comps] == components_by_every_face(k)
    # A complex keeps the order it is given, sorted by dimension or not.
    shuffled = list(k.faces)
    random.Random(seed).shuffle(shuffled)
    k = CubicalMatchingComplex(g, shuffled)
    assert ([c.faces for c in k.connected_components()]
            == components_by_every_face(k))


@settings(max_examples=150, deadline=None)
@given(grown_polyominoes(max_cells=14).map(set), st.integers(0, 2**32 - 1))
def test_fast_paths_on_polyominoes(cells, seed):
    assert_fast_paths_match(graph_from_cells(cells), seed)


@settings(max_examples=100, deadline=None)
@given(polyominoes().map(set), st.integers(0, 2**32 - 1))
def test_fast_paths_on_holed_polyominoes(cells, seed):
    # Punched boxes keep their holes, and a hole can be an even region that
    # shares its vertices with the squares around it.
    assert_fast_paths_match(graph_from_cells(cells), seed)


@pytest.mark.parametrize("text", ["###\n#.#\n###", "####\n#..#\n#..#\n####",
                                  "#####\n#.###\n###.#\n#####"])
def test_fast_paths_on_shapes_with_holes(text):
    assert_fast_paths_match(build_from_polyomino(text))


def test_fast_paths_on_untileable_shape():
    # Six cells, three of each colour, with no domino tiling.
    g = build_from_polyomino(".#..\n####\n..#.")
    assert_fast_paths_match(g)
    assert build_complex(g).f_vector() == []


def test_fast_paths_on_empty_graph():
    g = build_planar_graph({"vertices": [], "edges": []})
    assert_fast_paths_match(g)
    assert build_complex(g).f_vector() == [1]


@pytest.mark.parametrize("build", FIGURES)
def test_fast_paths_on_figures(build):
    assert_fast_paths_match(build())


def test_components_of_figure2():
    k = build_complex(figure_counterexample())
    comps = k.connected_components()
    assert len(comps) == 2
    assert [c.faces for c in comps] == components_by_every_face(k)


def test_no_perfect_matching_has_no_components():
    # A star with three leaves: an even number of vertices, no region and
    # no perfect matching, so the search runs and finds nothing.
    g = PlanarGraph({0: (0, 0), 1: (1, 0), 2: (-1, 0), 3: (0, 1)},
                    [(0, 1), (0, 2), (0, 3)])
    assert set_search(g.vertex_ids, g.adj) == []
    assert_fast_paths_match(g)
    k = build_complex(g)
    assert len(k) == 0 and k.connected_components() == []


class Untouched(int):
    """The edge code of a face above dimension 1: it hashes and compares as
    its int, as a key of the complex's index must, but any bit operation on
    it, which reading the face takes, fails."""

    def _visit(self, other):
        raise AssertionError("a face above dimension 1 was visited")

    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _visit


def guarded(k):
    """A copy of k whose faces above dimension 1 have untouchable edge
    codes."""
    return CubicalMatchingComplex(k.graph, codes=(
        [e if c.bit_count() < 2 else Untouched(e)
         for e, c in zip(k._edges, k._cycles)], k._cycles))


def test_untouched_codes_fail_when_read():
    k = guarded(build_complex(build_from_polyomino("####\n####")))
    assert k.dim == 2
    with pytest.raises(AssertionError, match="visited"):
        k._facets(len(k) - 1)


@pytest.mark.parametrize("text", ["####\n####\n####", "####\n####"])
def test_connected_complex_visits_no_face_above_dimension_1(text,
                                                            monkeypatch):
    k = build_complex(build_from_polyomino(text))
    assert k.dim >= 2
    forbid_decoding(monkeypatch)
    k = guarded(k)
    assert k.connected_components() == [k]
