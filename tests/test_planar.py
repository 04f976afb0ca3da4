import re
import time
from fractions import Fraction
from functools import lru_cache

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import cells_connected, weak_dual
from tilings import planar
from tilings.geometry import (on_segment, segments_cross_improperly,
                              segments_intersect)
from tilings.fixtures import (figure_counterexample, figure_g1, figure_g2,
                              figure_g3, free_polyominoes,
                              is_simply_connected, polyomino_zoo,
                              triangular_prism)
from tilings.planar import (GraphError, PlanarGraph, build_from_polyomino,
                            build_ladder, build_planar_graph, classify_edges,
                            graph_from_cells, parse_polyomino,
                            reduce_graph)

SQUARE = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def abstract(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertex_ids)
    h.add_edges_from(g.edges)
    return h


class TestConstruction:
    def test_unit_square_extracts_one_region(self):
        g = PlanarGraph(SQUARE, SQUARE_EDGES)
        assert len(g.regions) == 1
        assert set(g.regions[0].cycle) == {0, 1, 2, 3}
        assert len(g.regions[0].alternations) == 2

    def test_figure_g1_has_three_regions(self):
        g = figure_g1()
        assert len(g.regions) == 3

    def test_diagonal_declared_as_region_rejected(self):
        with pytest.raises(GraphError, match="not a cycle of edges"):
            PlanarGraph(SQUARE, SQUARE_EDGES, regions=[[0, 1, 3]])

    def test_region_not_a_face_rejected(self):
        verts = {**SQUARE, 4: (2, 0), 5: (2, 1)}
        edges = SQUARE_EDGES + [(1, 4), (4, 5), (5, 2)]
        with pytest.raises(GraphError, match="not a bounded face"):
            PlanarGraph(verts, edges, regions=[[0, 1, 4, 5, 2, 3]])

    @pytest.mark.parametrize("again", [[0, 1, 2, 3], [2, 3, 0, 1],
                                       [3, 2, 1, 0]],
                             ids=["same", "rotated", "reversed"])
    def test_region_listed_twice_rejected(self, again):
        with pytest.raises(GraphError,
                           match=re.escape(f"region {tuple(again)} is "
                                           "listed twice")):
            PlanarGraph(SQUARE, SQUARE_EDGES,
                        regions=[[0, 1, 2, 3], again])

    def test_explicit_region_subset_accepted(self):
        g = build_ladder(2)
        sub = PlanarGraph(g.coords, g.edges,
                          regions=[g.regions[0].cycle])
        assert len(sub.regions) == 1

    def test_crossing_edges_rejected(self):
        with pytest.raises(GraphError, match="cross"):
            PlanarGraph(SQUARE, [(0, 2), (1, 3)])

    def test_vertex_touching_edge_interior_rejected(self):
        verts = {0: (0, 0), 1: (2, 0), 2: (1, 0), 3: (1, 1)}
        with pytest.raises(GraphError, match="cross|overlap|lies on edge"):
            PlanarGraph(verts, [(0, 1), (2, 3)])

    def test_isolated_vertex_on_edge_rejected(self):
        with pytest.raises(GraphError, match="lies on edge"):
            PlanarGraph({0: (0, 0), 1: (2, 0), 2: (1, 0)}, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            PlanarGraph(SQUARE, [(0, 0)])

    def test_coincident_vertices_rejected(self):
        with pytest.raises(GraphError, match="coincide"):
            PlanarGraph({0: (0, 0), 1: (0, 0)}, [(0, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            PlanarGraph(SQUARE, [(0, 9)])

    def test_json_round_trip(self):
        g = figure_g1()
        g2 = build_planar_graph(g.to_json_obj())
        assert g2.edges == g.edges
        assert [r.cycle for r in g2.regions] == [r.cycle for r in g.regions]

    def test_multi_component_input(self):
        verts = dict(SQUARE)
        verts.update({i + 4: (Fraction(x) + 5, Fraction(y))
                      for i, (x, y) in SQUARE.items()})
        edges = SQUARE_EDGES + [(u + 4, v + 4) for u, v in SQUARE_EDGES]
        g = PlanarGraph(verts, edges)
        assert len(g.regions) == 2
        assert len(set(g.component_labels().values())) == 2

    def test_nested_component_face_is_dropped(self):
        # An enclosing square is not an elementary region when another
        # component sits inside it.
        verts = {0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4),
                 4: (1, 1), 5: (3, 1), 6: (3, 3), 7: (1, 3)}
        edges = [(0, 1), (1, 2), (2, 3), (3, 0),
                 (4, 5), (5, 6), (6, 7), (7, 4)]
        g = PlanarGraph(verts, edges)
        assert len(g.regions) == 1
        assert set(g.regions[0].cycle) == {4, 5, 6, 7}


class TestPolyomino:
    def test_2x2_block_is_c4(self):
        g = build_from_polyomino("##\n##")
        assert len(g.coords) == 4 and len(g.edges) == 4
        assert len(g.regions) == 1

    def test_2x4_block_is_ladder_3(self):
        g = build_from_polyomino("####\n####")
        assert len(g.coords) == 8 and len(g.edges) == 10
        assert len(g.regions) == 3
        assert nx.is_isomorphic(abstract(g), abstract(build_ladder(3)))

    def test_l_tromino_is_path(self):
        g = build_from_polyomino("#.\n##")
        assert len(g.coords) == 3 and len(g.edges) == 2
        assert g.regions == ()

    def test_disconnected_cells_rejected(self):
        # Two cells apart, and one cell in the hole of a ring.
        for grid in ("#.#", "#####\n#...#\n#.#.#\n#...#\n#####"):
            with pytest.raises(GraphError, match="not edge-connected"):
                build_from_polyomino(grid)

    def test_bad_character_rejected(self):
        with pytest.raises(GraphError, match="unexpected character"):
            parse_polyomino("#x")

    def test_empty_grid_rejected(self):
        with pytest.raises(GraphError, match="no cells"):
            parse_polyomino("...")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_match_ladders(self, n):
        text = "#" * (n + 1) + "\n" + "#" * (n + 1)
        g = build_from_polyomino(text)
        assert nx.is_isomorphic(abstract(g), abstract(build_ladder(n)))


@pytest.mark.parametrize("g", [
    graph_from_cells({(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (-1, 1)}),
    build_ladder(4), build_ladder(3, bump=2)],
    ids=["cells", "ladder-4", "ladder-3-2"])
def test_int_drawing_equals_fraction_drawing(g):
    # The builders pass ints; the same drawing in Fractions gives the same
    # lattice, scale, positions and JSON.
    assert all(type(c) is int for p in g.lattice.values() for c in p)
    h = PlanarGraph({v: (Fraction(x), Fraction(y))
                     for v, (x, y) in g.coords.items()}, g.edges)
    assert (g.scale, g.lattice, g.coords, g.to_json_obj()) == (
        h.scale, h.lattice, h.coords, h.to_json_obj())
    assert all(type(c) is Fraction for p in g.coords.values() for c in p)


class TestLadder:
    def test_counts(self):
        for n in range(1, 9):
            g = build_ladder(n)
            assert len(g.coords) == 2 * n + 2
            assert len(g.edges) == 3 * n + 1
            assert len(g.regions) == n

    def test_ladder_1_is_c4(self):
        g = build_ladder(1)
        assert len(g.coords) == 4 and len(g.edges) == 4
        assert len(g.regions) == 1

    def test_bump_counts(self):
        # One extra square below position i: +2 vertices, +3 edges, +1 region.
        g = build_ladder(2, bump=1)
        assert len(g.coords) == 2 * 2 + 2 + 2
        assert len(g.edges) == 3 * 2 + 1 + 3
        assert len(g.regions) == 2 + 1

    def test_bump_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_ladder(2, bump=3)
        with pytest.raises(GraphError):
            build_ladder(0)


class TestWeakDual:
    def test_figure_g1_dual_is_path(self):
        d = weak_dual(figure_g1())
        assert sorted(d.nodes) == [0, 1, 2]
        degrees = sorted(len(d.neighbors(r)) for r in d.nodes)
        assert degrees == [1, 1, 2]

    def test_single_region_dual(self):
        d = weak_dual(PlanarGraph(SQUARE, SQUARE_EDGES))
        assert d.nodes == (0,) and not d.adjacency

    def test_ladder_dual_is_path(self):
        d = weak_dual(build_ladder(4))
        degrees = sorted(len(d.neighbors(r)) for r in d.nodes)
        assert degrees == [1, 1, 2, 2]


class TestEdgeClassification:
    def test_single_edge_forced(self):
        cls = classify_edges(PlanarGraph({0: (0, 0), 1: (1, 0)}, [(0, 1)]))
        assert cls.status == {(0, 1): "forced"}
        assert cls.has_perfect_matching

    def test_c4_all_free(self):
        cls = classify_edges(PlanarGraph(SQUARE, SQUARE_EDGES))
        assert set(cls.status.values()) == {"free"}

    def test_figure2_connectors_forbidden(self):
        g = figure_counterexample()
        cls = classify_edges(g)
        assert cls.status[(0, 4)] == "forbidden"
        assert cls.status[(2, 6)] == "forbidden"
        others = {e: s for e, s in cls.status.items()
                  if e not in [(0, 4), (2, 6)]}
        assert set(others.values()) == {"free"}

    def test_no_perfect_matching_all_forbidden(self):
        tri = PlanarGraph({0: (0, 0), 1: (2, 0), 2: (1, 2)},
                          [(0, 1), (1, 2), (2, 0)])
        cls = classify_edges(tri)
        assert not cls.has_perfect_matching
        assert set(cls.status.values()) == {"forbidden"}


class TestReduce:
    def test_c4_unchanged(self):
        g = PlanarGraph(SQUARE, SQUARE_EDGES)
        r = reduce_graph(g)
        assert r.edges == g.edges and len(r.regions) == 1

    def test_figure2_reduces_to_two_squares(self):
        r = reduce_graph(figure_counterexample())
        assert len(r.coords) == 8
        assert len(r.edges) == 8
        assert len(set(r.component_labels().values())) == 2
        # The enclosing square's face is lost to the nesting.
        assert len(r.regions) == 1

    def test_path_p4_reduces_to_empty(self):
        g = PlanarGraph({0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)},
                        [(0, 1), (1, 2), (2, 3)])
        r = reduce_graph(g)
        assert not r.coords and not r.edges

    def test_no_matching_raises(self):
        tri = PlanarGraph({0: (0, 0), 1: (2, 0), 2: (1, 2)},
                          [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphError, match="no perfect matching"):
            reduce_graph(tri)

    def test_figure2_is_classified_once(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return classify_edges(g)

        monkeypatch.setattr(planar, "classify_edges", counted)
        reduce_graph(figure_counterexample())
        assert len(calls) == 1


def test_euler_guard_rejects_crossing_diagonals():
    # Unchecked for crossings, the square with both diagonals traces two
    # faces where Euler's formula wants four.
    with pytest.raises(GraphError, match=re.escape(
            "Euler formula fails on component 0: V=4 E=6 F=2")):
        PlanarGraph(SQUARE, SQUARE_EDGES + [(0, 2), (1, 3)],
                    check_crossings=False)


# -- sub-embeddings against a full rebuild ------------------------------------


@lru_cache(maxsize=None)
def parent_graphs():
    graphs = [figure_g1(), figure_g2(), figure_g3(), figure_counterexample(),
              triangular_prism(), build_ladder(4), build_ladder(3, bump=2)]
    graphs += [graph_from_cells(set(cells)) for _, cells in polyomino_zoo(8)]
    return graphs


@st.composite
def deletions(draw):
    g = draw(st.sampled_from(parent_graphs()))
    rv = draw(st.sets(st.sampled_from(g.vertex_ids), max_size=3))
    re = draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=4))
    return g, rv, re


@settings(max_examples=150, deadline=None)
@given(deletions())
def test_subgraph_matches_rebuild(case):
    g, rv, re = case
    # Edges may be named with their endpoints in either order.
    sub = g.subgraph(remove_vertices=rv,
                     remove_edges=[(v, u) for u, v in re])
    verts = {v: p for v, p in g.coords.items() if v not in rv}
    edges = [e for e in g.edges if e not in re and not rv & set(e)]
    rebuilt = PlanarGraph(verts, edges)
    old = {r.edge_set for r in g.regions}
    regions = [r.cycle for r in rebuilt.regions if r.edge_set in old]
    assert sub.coords == rebuilt.coords
    assert sub.edges == rebuilt.edges
    assert sub.adj == rebuilt.adj
    assert [r.cycle for r in sub.regions] == regions


@st.composite
def matched_deletions(draw):
    """A parent graph less the endpoints of up to two edges (so an even
    number of vertices, mostly) and up to four more edges."""
    g = draw(st.sampled_from(parent_graphs()))
    gone = draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=2))
    re = draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=4))
    return g.subgraph(remove_vertices={v for e in gone for v in e},
                      remove_edges=re)


@settings(max_examples=150, deadline=None)
@given(matched_deletions())
def test_reduced_graph_has_only_free_edges(h):
    if not classify_edges(h).has_perfect_matching:
        with pytest.raises(GraphError, match="no perfect matching"):
            reduce_graph(h)
        return
    assert set(classify_edges(reduce_graph(h)).status.values()) <= {"free"}


def traced_regions(g):
    """The cycles of g's regions found by face tracing, the general path:
    each bounded simple face enclosing no other component, in the order of
    g's regions."""
    faces, comp = g._trace_faces(), g.component_labels()
    g._check_euler(faces, comp)
    return sorted((r.cycle for r in g._bounded_simple_faces(faces, comp)),
                  key=sorted)


def unit_squares(g):
    """The cycles of g's unit squares, or None where they are not all of
    its bounded faces."""
    squares = g._unit_squares({p: v for v, p in g.lattice.items()})
    return None if squares is None else sorted((r.cycle for r in squares),
                                               key=sorted)


def _lattice_drawings():
    """Every free polyomino of up to ten cells, the 239 with holes among
    them, and every small ladder, each with whether it is simply
    connected."""
    holed = 0
    for n in range(1, 11):
        for cells in free_polyominoes(n):
            holed += not is_simply_connected(cells)
            yield graph_from_cells(set(cells)), is_simply_connected(cells)
    assert holed == 239
    for n in range(1, 9):
        for bump in [None, *range(1, n + 1)]:
            yield build_ladder(n, bump), True


@settings(max_examples=200, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
               max_size=16))
def test_cells_rejected_exactly_when_not_edge_connected(cells):
    # The graph's component labels against a search over the cells.
    if cells_connected(cells):
        graph_from_cells(cells)
    else:
        with pytest.raises(GraphError, match="not edge-connected"):
            graph_from_cells(cells)


def test_lattice_builders_need_no_crossing_check():
    # The builders skip the crossing check, and every one of these drawings
    # builds the same graph with the check on.  Each has the regions face
    # tracing finds, and a simply connected one is read as unit squares.
    for g, simply_connected in _lattice_drawings():
        h = PlanarGraph(g.coords, g.edges, check_crossings=True)
        assert (g.lattice, g.edges, g.adj) == (h.lattice, h.edges, h.adj)
        assert [r.cycle for r in g.regions] == [r.cycle for r in h.regions]
        assert [r.cycle for r in g.regions] == traced_regions(g)
        if simply_connected:
            assert unit_squares(g) == traced_regions(g)


# -- the drawing check against a scan of every vertex -------------------------


class FullScanGraph(PlanarGraph):
    """The drawing check as a scan of every pair of edges on the rational
    coordinates, with the vertex-on-edge scan over every vertex, not only
    those without edges."""

    def _check_noncrossing(self) -> None:
        coords = self.coords
        es = sorted(self.edges)
        for i in range(len(es)):
            a, b = es[i]
            pa, pb = coords[a], coords[b]
            for j in range(i + 1, len(es)):
                c, d = es[j]
                shared = {a, b} & {c, d}
                pc, pd = coords[c], coords[d]
                if not shared:
                    if segments_intersect(pa, pb, pc, pd):
                        raise GraphError(
                            f"edges {es[i]} and {es[j]} cross in the drawing")
                elif len(shared) == 1:
                    s = coords[shared.pop()]
                    if segments_cross_improperly(pa, pb, pc, pd, s):
                        raise GraphError(
                            f"edges {es[i]} and {es[j]} overlap in the drawing")
        for u, v in es:
            pu, pv = coords[u], coords[v]
            for w, pw in coords.items():
                if w not in (u, v) and on_segment(pw, pu, pv):
                    raise GraphError(f"vertex {w} lies on edge ({u},{v})")


def grid_points(size):
    return st.tuples(st.integers(0, size), st.integers(0, size))


def coordinate(d):
    """A rational in [0, 3] with denominator d."""
    return st.integers(0, 3 * d).map(lambda n: Fraction(n, d))


def rational_points():
    """Points whose coordinates have denominators up to 6."""
    return st.tuples(st.integers(1, 6).flatmap(coordinate),
                     st.integers(1, 6).flatmap(coordinate))


@st.composite
def drawings(draw):
    """Up to 9 vertices, on a 4 x 4 grid or at rationals with denominators
    up to 6, and up to 12 edges between them."""
    points = draw(st.lists(st.one_of(grid_points(3), rational_points()),
                           min_size=2, max_size=9, unique=True))
    ends = st.integers(0, len(points) - 1)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          max_size=12))
    return dict(enumerate(points)), edges


def outcome(cls, vertices, edges):
    try:
        g = cls(vertices, edges)
    except GraphError as e:
        return str(e)
    # The search order, and with it every digest, rests on sorted lists.
    assert all(nbrs == sorted(nbrs) for nbrs in g.adj.values())
    return "ok"


@settings(max_examples=600, deadline=None)
@given(drawings())
def test_drawing_check_matches_full_scan(drawing):
    assert outcome(PlanarGraph, *drawing) == outcome(FullScanGraph, *drawing)


# -- the integer lattice ------------------------------------------------------


def test_coprime_denominators_share_one_lattice():
    f = Fraction
    verts = {0: (0, 0), 1: (f(7, 2), f(1, 3)), 2: (f(17, 5), f(22, 7)),
             3: (f(1, 11), f(3, 1))}
    g = PlanarGraph(verts, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.scale == 2 * 3 * 5 * 7 * 11 == 2310
    assert g.lattice[1] == (8085, 770)
    assert g.coords == {v: (f(x), f(y)) for v, (x, y) in verts.items()}
    assert g.to_json_obj() == {
        "vertices": [{"id": 0, "x": "0/1", "y": "0/1"},
                     {"id": 1, "x": "7/2", "y": "1/3"},
                     {"id": 2, "x": "17/5", "y": "22/7"},
                     {"id": 3, "x": "1/11", "y": "3/1"}],
        "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
        "regions": [[0, 1, 2, 3]],
    }
    again = build_planar_graph(g.to_json_obj())
    assert (again.scale, again.lattice) == (g.scale, g.lattice)


# -- unit squares against the traced faces ------------------------------------


@st.composite
def grid_edge_drawings(draw):
    """A 6 x 6 grid less a few points, under shuffled ids, with a random
    share of the unit segments between them.  Half the time every segment
    across the boundary of a box inside is cut, so the box's points are
    components of their own, often nested in a ring.  The coordinates are
    shifted, and halved half the time, so some drawings sit on a lattice
    of scale 2."""
    grid = {(x, y) for x in range(6) for y in range(6)}
    points = sorted(grid - draw(st.sets(grid_points(5), max_size=12)))
    ids = draw(st.permutations(range(len(points))))
    at = dict(zip(points, ids))
    x0, x1 = sorted(draw(st.tuples(st.integers(1, 4), st.integers(1, 4))))
    y0, y1 = sorted(draw(st.tuples(st.integers(1, 4), st.integers(1, 4))))

    def inside(x, y):
        return x0 <= x <= x1 and y0 <= y <= y1

    cut = draw(st.booleans())
    segments = [(at[x, y], at[q]) for x, y in points
                for q in ((x + 1, y), (x, y + 1))
                if q in at and not (cut and inside(x, y) != inside(*q))]
    keep = draw(st.integers(0, 4))
    marks = draw(st.lists(st.integers(0, 4), min_size=len(segments),
                          max_size=len(segments)))
    scale = draw(st.sampled_from([1, 2]))
    dx, dy = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    vertices = {v: (Fraction(x + dx, scale), Fraction(y + dy, scale))
                for (x, y), v in at.items()}
    return vertices, [e for e, m in zip(segments, marks) if m >= keep]


@settings(max_examples=400, deadline=None)
@given(grid_edge_drawings())
def test_unit_squares_match_traced_faces(drawing):
    # Holes, several or nested components and isolated vertices come up
    # among the random subsets; where any bounded face is not a unit
    # square, the squares are refused and the faces are traced.
    g = PlanarGraph(*drawing)
    want = traced_regions(g)
    assert [r.cycle for r in g.regions] == want
    assert unit_squares(g) in (None, want)


def test_unit_squares_refused_around_a_nested_component():
    # A 4 x 4 ring of unit segments around a unit square and an isolated
    # vertex: the ring's face encloses both, so it is no region.
    ring = [(x, 0) for x in range(4)] + [(4, y) for y in range(4)] + \
        [(x, 4) for x in range(4, 0, -1)] + [(0, y) for y in range(4, 0, -1)]
    inner = [(1, 1), (2, 1), (2, 2), (1, 2)]
    points = ring + inner + [(3, 3)]
    vertices = dict(enumerate(points))
    edges = [(i, (i + 1) % 16) for i in range(16)] + \
        [(16 + i, 16 + (i + 1) % 4) for i in range(4)]
    g = PlanarGraph(vertices, edges)
    assert unit_squares(g) is None
    assert [r.cycle for r in g.regions] == traced_regions(g) == \
        [(16, 17, 18, 19)]


def test_enclosure_test_takes_one_vertex_per_component():
    # 2 000 disjoint triangles inside one square: each face tests one
    # vertex of each component within its bounding box, so the build is
    # not quadratic in the components.
    vertices = {0: (0, 0), 1: (121, 0), 2: (121, 151), 3: (0, 151)}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for i in range(40):
        for j in range(50):
            v = len(vertices)
            x, y = 3 * i + 1, 3 * j + 1
            vertices.update({v: (x, y), v + 1: (x + 1, y), v + 2: (x, y + 1)})
            edges += [(v, v + 1), (v + 1, v + 2), (v + 2, v)]
    start = time.perf_counter()
    g = PlanarGraph(vertices, edges)
    assert time.perf_counter() - start < 2
    assert len(g.regions) == 2000
    assert all(len(r) == 3 for r in g.regions)
