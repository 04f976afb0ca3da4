from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (boundary_of_boundary_vanishes, face_leq, from_faces,
                       polyominoes)
from test_count import NoFaces, forbid_decoding
from tilings import complexes
from tilings.complexes import (CubicalMatchingComplex, build_complex,
                               count_f_vector)
from tilings.fixtures import (core_fixture_names, figure_counterexample,
                              named_fixture, triangular_prism)
from tilings.planar import (GraphError, PlanarGraph, build_from_polyomino,
                            build_ladder, graph_from_cells)
from tilings.topology import (_cells_and_boundaries, _gf2_rank,
                              collapse_search, independence_complex,
                              kozlov_reference_betti, link_of_face,
                              matched_region_graph, z2_betti)

SQUARE = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def c4():
    return PlanarGraph(SQUARE, SQUARE_EDGES)


class TestIndependenceComplex:
    def test_edgeless_graph_gives_full_simplex(self):
        h = nx.empty_graph(3)
        sc = independence_complex(h)
        assert sc.facets == frozenset({frozenset({0, 1, 2})})

    def test_path_p4_contractible(self):
        sc = independence_complex(nx.path_graph(4))
        assert z2_betti(sc) == (1,)

    def test_cycle_c6_wedge_of_circles(self):
        sc = independence_complex(nx.cycle_graph(6))
        assert z2_betti(sc) == (1, 2)

    def test_single_vertex(self):
        sc = independence_complex(nx.empty_graph(1))
        assert sc.vertices == frozenset({0})
        assert z2_betti(sc) == (1,)

    @pytest.mark.parametrize("make,n", [(nx.path_graph, n) for n in range(1, 9)]
                             + [(nx.cycle_graph, n) for n in range(3, 9)]
                             + [(nx.empty_graph, 0)])
    def test_neighbour_sets_match_networkx_graph(self, make, n):
        h = make(n)
        sets = {v: set(h[v]) for v in h}
        assert independence_complex(sets) == independence_complex(h)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from(list(combinations(range(n), 2)))
                            if n > 1 else st.nothing()))))
    def test_facets_match_every_independent_set(self, graph):
        # The facets are enumerated directly; the reference lists every
        # independent set and keeps those in no larger one.
        n, edges = graph
        h = {v: set() for v in range(n)}
        for u, v in edges:
            h[u].add(v)
            h[v].add(u)
        independent = [set(s) for size in range(1, n + 1)
                       for s in combinations(range(n), size)
                       if all(b not in h[a] for a, b in combinations(s, 2))]
        assert (independence_complex(h)
                == from_faces(independent))


class TestMatchedRegionGraph:
    def test_ladder_3_all_vertical_gives_path(self):
        g = build_ladder(3)
        k = build_complex(g)
        vertical = [v for v in k.vertices()
                    if all(u + 1 == w for u, w in v.matching)][0]
        h = matched_region_graph(k, vertical)
        assert sorted(h) == [0, 1, 2]
        assert nx.is_isomorphic(nx.Graph(h), nx.path_graph(3))

    def test_c4_single_node(self):
        k = build_complex(c4())
        for v in k.vertices():
            h = matched_region_graph(k, v)
            assert list(h) == [0] and not h[0]

    def test_prism_central_vertex_triangle(self):
        # The matching using all three connecting edges makes every
        # quadrilateral alternate; the quads pairwise share an edge, so the
        # matched-region graph is a triangle and its independence complex is
        # three isolated points.
        k = build_complex(triangular_prism())
        sizes = sorted(len(matched_region_graph(k, v)) for v in k.vertices())
        assert sizes == [1, 1, 1, 3]
        central = [v for v in k.vertices()
                   if len(matched_region_graph(k, v)) == 3][0]
        h = matched_region_graph(k, central)
        assert nx.is_isomorphic(nx.Graph(h), nx.complete_graph(3))

    def test_face_must_belong(self):
        k1 = build_complex(c4())
        k2 = build_complex(build_ladder(2))
        with pytest.raises(GraphError, match="does not belong"):
            matched_region_graph(k1, k2.faces[0])


class TestLink:
    def test_prism_central_vertex_three_points(self):
        k = build_complex(triangular_prism())
        links = [link_of_face(k, v) for v in k.vertices()]
        sizes = sorted(len(l.vertices) for l in links)
        assert sizes == [1, 1, 1, 3]
        big = [l for l in links if len(l.vertices) == 3][0]
        assert all(len(f) == 1 for f in big.facets)

    def test_c4_vertex_link_single_point(self):
        k = build_complex(c4())
        for v in k.vertices():
            link = link_of_face(k, v)
            assert len(link.vertices) == 1

    def test_ladder_2_vertical_link_two_points(self):
        g = build_ladder(2)
        k = build_complex(g)
        vertical = [v for v in k.vertices()
                    if all(u + 1 == w for u, w in v.matching)][0]
        link = link_of_face(k, vertical)
        assert len(link.vertices) == 2
        assert all(len(f) == 1 for f in link.facets)  # S^0

    def test_certified_on_fixture_faces(self):
        for g in [build_ladder(4), figure_counterexample(),
                  triangular_prism(), build_ladder(3, bump=2)]:
            k = build_complex(g)
            for f in k.faces:
                link_of_face(k, f)  # raises on model mismatch

    def test_walk_builds_no_faces(self, monkeypatch):
        # The walk reads the complex's index and decodes no face: the link
        # must not become a second face enumeration checked against itself.
        ks = [build_complex(g) for g in
              [build_ladder(4), figure_counterexample(), triangular_prism(),
               build_ladder(3, bump=2), build_from_polyomino("###\n###\n##.")]]
        want = [[link_of_face(k, f, check_model=False) for f in k.faces]
                for k in ks]
        forbid_decoding(monkeypatch)
        assert [[link_of_face(k, f, check_model=False) for f in k.faces]
                for k in ks] == want
        # A face may be given by its position too.
        assert [[link_of_face(k, i) for i in range(len(k))]
                for k in ks] == want

    def test_facets_are_the_stored_faces(self, monkeypatch):
        # ``facets_of`` looks each facet up and builds none, so its readers
        # see the complex's own faces, in the same order as before.
        ks = [build_complex(g) for g in
              [build_ladder(4), figure_counterexample(), triangular_prism(),
               build_from_polyomino("###\n###\n##.")]]
        want = [([list(k.facets_of(f)) for f in k.faces],
                 _cells_and_boundaries(k)) for k in ks]
        monkeypatch.setattr(complexes, "TilingFace", NoFaces)
        for k, (facets, cells) in zip(ks, want):
            got = [k.facets_of(f) for f in k.faces]
            assert got == facets
            assert all(g is k.faces[k.position(g)] for fs in got for g in fs)
            assert _cells_and_boundaries(k) == cells

    @pytest.mark.parametrize("build", [lambda: build_ladder(3),
                                       triangular_prism,
                                       lambda: build_ladder(3, bump=2)])
    def test_certification_fails_without_a_face(self, build):
        # Drop a face of dimension >= 1 with nothing above it: for each face
        # it covers, the regions it adds are a facet of Ind(H) that the walk
        # no longer finds.
        g = build()
        k = build_complex(g)
        tops = [c for c in k.faces if c.dim >= 1 and
                not any(c.cycles < d.cycles and face_leq(c, d, g)
                        for d in k.faces)]
        assert tops
        for top in tops:
            dropped = CubicalMatchingComplex(
                g, [f for f in k.faces if f != top])
            for f in k.facets_of(top):
                link_of_face(k, f)
                with pytest.raises(GraphError, match="differs"):
                    link_of_face(dropped, f)


class TestBetti:
    def test_point(self):
        sc = from_faces([frozenset({"a"})])
        assert z2_betti(sc) == (1,)

    def test_hollow_triangle_is_circle(self):
        sc = from_faces(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})])
        assert z2_betti(sc) == (1, 1)

    def test_filled_triangle_contractible(self):
        sc = from_faces([frozenset({0, 1, 2})])
        assert z2_betti(sc) == (1,)

    def test_figure2_complex(self):
        k = build_complex(figure_counterexample())
        assert z2_betti(k) == (2,)

    def test_cubical_complexes_contractible(self):
        for n in range(1, 7):
            assert z2_betti(build_complex(build_ladder(n))) == (1,)

    def test_boundary_squares_to_zero(self):
        assert boundary_of_boundary_vanishes(build_complex(build_ladder(4)))
        sc = independence_complex(nx.cycle_graph(8))
        assert boundary_of_boundary_vanishes(sc)

    def test_alternating_sum_matches_euler(self):
        for n in [5, 7]:
            sc = independence_complex(nx.cycle_graph(n))
            betti = z2_betti(sc)
            cells = sc.all_faces()
            euler = sum((-1) ** (len(f) - 1) for f in cells)
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == euler


class TestCollapse:
    def test_single_square_collapsible(self):
        verdict = collapse_search(build_complex(c4()))
        assert verdict.status == "collapsible"
        # (2 vertices + 1 edge) collapses in one step.
        assert len(verdict.certificate) == 1

    def test_figure2_not_collapsible(self):
        verdict = collapse_search(build_complex(figure_counterexample()))
        assert verdict.status == "not_collapsible"
        assert verdict.reason == "disconnected"

    def test_circle_not_collapsible(self):
        sc = independence_complex(nx.cycle_graph(5))
        verdict = collapse_search(sc)
        assert verdict.status == "not_collapsible"
        assert "homology" in verdict.reason

    def test_ladder_complexes_collapsible(self):
        for n in range(1, 7):
            verdict = collapse_search(build_complex(build_ladder(n)))
            assert verdict.status == "collapsible"
            # A full collapse removes all cells but one, in pairs.
            k = build_complex(build_ladder(n))
            assert len(verdict.certificate) == (len(k.faces) - 1) // 2


# -- collapse certificates replayed against the face order -------------------

# A 9-gon with boundary a.a.a^-1, triangulated on 8 vertices: contractible,
# yet no edge or vertex has exactly one coface, so nothing collapses.
DUNCE_HAT = [(0, 1, 5), (0, 1, 6), (0, 1, 7), (0, 2, 3), (0, 2, 4), (0, 2, 5),
             (0, 3, 4), (0, 6, 7), (1, 2, 3), (1, 2, 4), (1, 2, 7), (1, 3, 5),
             (1, 4, 6), (2, 5, 6), (2, 6, 7), (3, 4, 5), (4, 5, 6)]


def cubical(k):
    """Cells, proper face relation and dimension of a cubical complex, its
    cells the positions of its faces, as its certificates give them."""
    faces = k.faces
    return (range(len(faces)),
            lambda a, b: a != b and face_leq(faces[a], faces[b], k.graph),
            lambda i: faces[i].dim)


def simplicial(sc):
    return sc.all_faces(), lambda a, b: a < b, lambda f: len(f) - 1


def replay(certificate, cells, below, dim):
    """Each step removes a cell and its only live proper coface; the
    collapse ends at one vertex."""
    live = set(cells)
    for sigma, tau in certificate:
        assert sigma in live
        assert [c for c in live if below(sigma, c)] == [tau]
        live -= {sigma, tau}
    assert len(live) == 1 and dim(next(iter(live))) == 0


def rectangle(rows, cols):
    return build_from_polyomino("\n".join("#" * cols for _ in range(rows)))


class TestCollapseCertificates:
    @pytest.mark.parametrize("n,bump", [(n, b) for n in range(1, 7)
                                        for b in [None, *range(1, n + 1)]])
    def test_ladders(self, n, bump):
        k = build_complex(build_ladder(n, bump))
        verdict = collapse_search(k)
        assert verdict.status == "collapsible"
        replay(verdict.certificate, *cubical(k))

    def test_rectangle_4x4(self):
        k = build_complex(rectangle(4, 4))
        verdict = collapse_search(k)
        assert verdict.status == "collapsible"
        replay(verdict.certificate, *cubical(k))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_independence_complex_of_paths(self, n):
        # Ind(P_n) is contractible exactly when n = 1 mod 3, and a sphere
        # otherwise.
        sc = independence_complex(nx.path_graph(n))
        verdict = collapse_search(sc)
        if n % 3 != 1:
            assert verdict.status == "not_collapsible"
            return
        assert verdict.status == "collapsible"
        replay(verdict.certificate, *simplicial(sc))

    def test_dunce_hat_reaches_a_verdict(self):
        sc = from_faces(DUNCE_HAT)
        cells, below, dim = simplicial(sc)
        assert len(cells) == 49
        assert z2_betti(sc) == (1,)
        assert sum((-1) ** dim(f) for f in cells) == 1
        assert not any(sum(below(f, c) for c in cells) == 1 for f in cells)
        # No cell is free, so each greedy pass stops at once: the default
        # budget buys 1 + 19999 // 24 of them, budget 0 just the first.
        for budget, passes in ((20000, 834), (0, 1)):
            verdict = collapse_search(sc, budget=budget)
            assert (verdict.status, verdict.reason) == (
                "inconclusive", f"greedy passes: {passes}; live cells by "
                "dimension after the first: [8, 24, 17]")


# -- one greedy pass is the whole search on the complexes met so far ----------


def assert_one_pass_collapses(k):
    """Every component with the Betti numbers of a point collapses in the
    first greedy pass: budget 1 allows no restart."""
    for comp in k.connected_components() if k.faces else []:
        if z2_betti(comp) == (1,):
            assert collapse_search(comp, budget=1).status == "collapsible"


def nested_squares(k):
    """k nested squares, square j with corners (j, j) and (2k - j, 2k - j),
    each joined to the next at the lower-left and upper-right corners."""
    vertices, edges = {}, []
    for j in range(k):
        lo, hi = j, 2 * k - j
        corners = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
        vertices.update((4 * j + i, p) for i, p in enumerate(corners))
        edges += [(4 * j + i, 4 * j + (i + 1) % 4) for i in range(4)]
        if j:
            edges += [(4 * j - 4, 4 * j), (4 * j - 2, 4 * j + 2)]
    return PlanarGraph(vertices, edges)


class TestOneGreedyPass:
    @settings(max_examples=100, deadline=None)
    @given(polyominoes())
    def test_polyominoes(self, cells):
        assert_one_pass_collapses(build_complex(graph_from_cells(set(cells))))

    @pytest.mark.parametrize("name", core_fixture_names(0))
    def test_figures(self, name):
        assert_one_pass_collapses(build_complex(named_fixture(name)))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_nested_squares(self, k):
        g = nested_squares(k)
        c = build_complex(g)
        assert c.f_vector() == count_f_vector(g) == [2 ** k, 2 ** (k - 1)]
        comps = c.connected_components()
        assert len(comps) == 2 ** (k - 1)
        for comp in comps:
            assert collapse_search(comp, budget=1).status == "collapsible"

    def test_two_nested_squares_are_the_counterexample(self):
        assert (nested_squares(2).to_json_obj()
                == figure_counterexample().to_json_obj())


def gf2_rank_by_elimination(rows, width):
    """Row reduction of the 0/1 matrix whose rows are the bits of ``rows``."""
    m = [[row >> j & 1 for j in range(width)] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 10) - 1), max_size=14))
def test_gf2_rank_matches_elimination(rows):
    assert _gf2_rank(rows) == gf2_rank_by_elimination(rows, 10)


class TestKozlovTable:
    def test_paper_examples(self):
        assert kozlov_reference_betti("L", 4) == (1,)
        assert kozlov_reference_betti("L", 5) == (1, 1)
        assert kozlov_reference_betti("C", 5) == (1, 1)
        assert kozlov_reference_betti("C", 3) == (3,)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_paths_match_direct_computation(self, n):
        got = z2_betti(independence_complex(nx.path_graph(n)))
        assert got == kozlov_reference_betti("L", n)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles_match_direct_computation(self, n):
        got = z2_betti(independence_complex(nx.cycle_graph(n)))
        assert got == kozlov_reference_betti("C", n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kozlov_reference_betti("C", 2)
        with pytest.raises(ValueError):
            kozlov_reference_betti("L", 0)
        with pytest.raises(ValueError):
            kozlov_reference_betti("X", 4)
