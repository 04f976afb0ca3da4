import gc
import itertools
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import face_leq, polyominoes
from tilings import complexes
from tilings.complexes import (CubicalMatchingComplex, TilingFace,
                               build_complex, count_f_vector,
                               verify_edge_decomposition)
from tilings.fixtures import (figure_counterexample, figure_g1, figure_g2,
                              figure_g3, is_simply_connected,
                              triangular_prism)
from tilings.matchings import (Matching, enumerate_perfect_matchings,
                               set_bits)
from tilings.planar import (GraphError, PlanarGraph, build_from_polyomino,
                            build_ladder, graph_from_cells)
from tilings.topology import link_of_face, matched_region_graph

SQUARE = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def c4():
    return PlanarGraph(SQUARE, SQUARE_EDGES)


class TestBuildComplex:
    def test_c4(self):
        k = build_complex(c4())
        assert k.f_vector() == [2, 1]
        assert k.euler_characteristic() == 1

    def test_triangular_prism(self):
        k = build_complex(triangular_prism())
        assert k.f_vector() == [4, 3]
        assert len(k.connected_components()) == 1

    def test_figure_complexes(self):
        assert build_complex(figure_g1()).f_vector() == [4, 3]
        assert build_complex(figure_g2()).f_vector() == [5, 5, 1]
        assert build_complex(figure_g3()).f_vector() == [4, 4, 1]

    def test_no_matching_gives_empty_complex(self):
        tri = PlanarGraph({0: (0, 0), 1: (2, 0), 2: (1, 2)},
                          [(0, 1), (1, 2), (2, 0)])
        k = build_complex(tri)
        assert k.f_vector() == []
        assert k.euler_characteristic() == 0

    def test_vertices_are_perfect_matchings(self):
        g = build_ladder(4)
        k = build_complex(g)
        for v in k.vertices():
            assert v.matching.covered == frozenset(g.vertex_ids)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ladder_dimension(self, n):
        assert build_complex(build_ladder(n)).dim == -(-n // 2)


class TestFaceOrder:
    def test_reflexive(self):
        g = c4()
        k = build_complex(g)
        for f in k.faces:
            assert face_leq(f, f, g)

    def test_flip_below_face(self):
        g = build_ladder(2)
        k = build_complex(g)
        for f in k.faces:
            for sub in k.facets_of(f):
                assert face_leq(sub, f, g)
                assert not face_leq(f, sub, g)

    def test_distinct_vertices_incomparable(self):
        g = c4()
        k = build_complex(g)
        v1, v2 = k.vertices()
        assert not face_leq(v1, v2, g) and not face_leq(v2, v1, g)

    def test_geometric_order_excludes_cross_pairings(self):
        # In the 2x4 ladder the top face over squares {0, 2} has matching
        # edges only inside those squares; the middle-horizontal matching
        # extends the empty matching but is not a flip combination.
        g = build_ladder(3)
        k = build_complex(g)
        top = [f for f in k.faces if f.dim == 2][0]
        below = [v for v in k.vertices() if face_leq(v, top, g)]
        assert len(below) == 4
        middle = [v for v in k.vertices()
                  if v.matching.edges == {(0, 1), (2, 4), (3, 5), (6, 7)}]
        assert len(middle) == 1
        assert middle[0].matching.edges >= top.matching.edges
        assert not face_leq(middle[0], top, g)

    def test_interval_counts(self):
        g = build_ladder(5)
        k = build_complex(g)
        for f in k.faces:
            below_v = [v for v in k.vertices() if face_leq(v, f, g)]
            assert len(below_v) == 2 ** f.dim
            assert len(k.facets_of(f)) == 2 * f.dim

    def test_closure_under_flips(self):
        for g in [build_ladder(4), figure_g2()]:
            k = build_complex(g)
            for f in k.faces:
                for sub in k.facets_of(f):
                    assert sub in k


class TestComponents:
    def test_figure2_two_segments(self):
        k = build_complex(figure_counterexample())
        assert k.f_vector() == [4, 2]
        assert k.euler_characteristic() == 2
        comps = k.connected_components()
        assert len(comps) == 2
        assert all(c.f_vector() == [2, 1] for c in comps)

    def test_connected_fixtures(self):
        for g in [c4(), triangular_prism(), build_ladder(5)]:
            assert len(build_complex(g).connected_components()) == 1

    def test_connected_complex_is_its_own_component(self):
        k = build_complex(build_ladder(4))
        [comp] = k.connected_components()
        assert comp is k

    def test_figure2_components_are_new_complexes(self):
        k = build_complex(figure_counterexample())
        comps = k.connected_components()
        assert len(comps) == 2 and all(c is not k for c in comps)
        # Each keeps its own faces in k's order, and finds only those.
        assert sorted((f for c in comps for f in c.faces),
                      key=TilingFace.sort_key) == list(k.faces)
        for c in comps:
            assert [f for f in k.faces if f in c] == list(c.faces)
            assert [c.position(f) for f in c.faces] == list(range(len(c)))


class TestForeignFaces:
    """A face the complex does not hold gives a GraphError, never a
    KeyError, whether it is a tiling the complex lacks or names an edge or
    a region the graph does not have; ``in`` says False."""

    FOREIGN = {
        # Coded in g2's numbering, but not a face of g2.
        "empty matching, region 0":
            lambda k: TilingFace(Matching(), frozenset({0})),
        "edge not in the graph":
            lambda k: TilingFace(Matching({(0, 99)}), frozenset()),
        "a face's edges and one more":
            lambda k: TilingFace(Matching(k.faces[0].matching | {(0, 99)}),
                                 frozenset()),
        "region not in the graph":
            lambda k: TilingFace(k.faces[0].matching, frozenset({99})),
        "negative region": lambda k: (k.faces[0].matching, frozenset({-1})),
        "not a pair": lambda k: (k.faces[0].matching,),
    }

    @pytest.mark.parametrize("make", FOREIGN.values(), ids=FOREIGN)
    def test_foreign_face(self, make):
        k = build_complex(figure_g2())
        f = make(k)
        assert f not in k
        for read in (k.position, k.facets_of,
                     lambda f: link_of_face(k, f),
                     lambda f: matched_region_graph(k, f)):
            with pytest.raises(GraphError, match="does not belong"):
                read(f)

    def test_foreign_face_in_a_new_complex(self):
        k = build_complex(figure_g2())
        with pytest.raises(GraphError, match="not a face of the graph"):
            CubicalMatchingComplex(k.graph, [*k.faces, TilingFace(
                Matching({(0, 99)}), frozenset())])

    def test_positions_out_of_range(self):
        k = build_complex(figure_g2())
        for i in (-1, len(k)):
            with pytest.raises(GraphError, match="does not belong"):
                link_of_face(k, i)

    def test_odd_region(self):
        k = build_complex(triangular_prism())
        odd = next(i for i, r in enumerate(k.graph.regions)
                   if not r.alternations)
        f = TilingFace(k.faces[0].matching, frozenset({odd}))
        assert f not in k
        with pytest.raises(GraphError, match="does not belong"):
            k.position(f)
        with pytest.raises(GraphError, match="not a face of the graph"):
            CubicalMatchingComplex(k.graph, [f])


class TestDecoding:
    """``faces`` decodes each face as its two codes say, also where it
    derives a face's matching from that of the face above it."""

    @pytest.mark.parametrize("build", [
        lambda: build_ladder(5), triangular_prism, figure_counterexample,
        lambda: build_from_polyomino("####\n####\n##..")])
    def test_faces_decode_their_codes(self, build):
        k = build_complex(build())
        shuffled = list(k.faces)
        random.Random(0).shuffle(shuffled)
        for c in [k, CubicalMatchingComplex(k.graph, shuffled),
                  *k.connected_components()]:
            assert list(c.faces) == [
                TilingFace(Matching.from_code(e, c.graph),
                           frozenset(set_bits(r)))
                for e, r in zip(c._edges, c._cycles)]
            assert c.vertices() == list(c.faces[:c.f_vector()[0]])

    def test_pairs_that_are_no_tilings_decode_as_given(self):
        # (M, {0}) with M holding region 0's alternation is no tiling, yet a
        # complex made of it reads it back as given, not as M less those.
        g = c4()
        m = Matching(g.regions[0].alternations[0])
        given = [TilingFace(m, frozenset()), TilingFace(m, frozenset({0}))]
        assert list(CubicalMatchingComplex(g, given).faces) == given

    def test_facets_of_decodes_only_its_faces(self, monkeypatch):
        k = build_complex(build_from_polyomino("###\n###"))
        want = build_complex(k.graph).faces
        decoded = []
        real = Matching.from_code.__func__

        def counted(cls, code, g):
            decoded.append(code)
            return real(cls, code, g)

        monkeypatch.setattr(Matching, "from_code", classmethod(counted))
        top = len(k) - 1
        facets = k.facets_of(top)
        assert facets == [want[j] for j in k._facets(top)]
        assert len(decoded) == len(facets) == 2 * want[top].dim > 0
        assert "faces" not in vars(k)


class TestFaceRepr:
    def test_repr_of_a_g1_face(self):
        # The repr shows the edge set in its own (unsorted) order, as the
        # link certificate's message prints it.
        f = build_complex(figure_g1()).faces[0]
        assert repr(f) == (
            "TilingFace(matching=Matching(edges=frozenset({(0, 1), (4, 9), "
            "(2, 3), (5, 6), (7, 8)})), cycles=frozenset())")

    def test_empty_matching_repr(self):
        assert repr(Matching()) == "Matching(edges=frozenset())"

    def test_matchings_iterate_in_sorted_order(self):
        for f in build_complex(figure_g1()).faces:
            assert list(f.matching) == f.matching.sorted_edges()
            assert f.matching.edges is f.matching


class TestEdgeDecomposition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_ladder_rightmost_rung(self, n):
        g = build_ladder(n + 2)
        rung = (2 * (n + 2), 2 * (n + 2) + 1)
        report = verify_edge_decomposition(g, rung)
        assert report["ok"]
        assert report["region_parity"] == "even"

    def test_c4_even_branch(self):
        report = verify_edge_decomposition(c4(), (0, 1))
        assert report["ok"]
        assert report["f_vector"] == [2, 1]
        assert report["terms"]["without_endpoints"] == [1]
        assert report["terms"]["without_edge"] == [1]
        assert report["terms"]["without_region_shifted"] == [1]

    def test_prism_outer_edge_even_branch(self):
        report = verify_edge_decomposition(triangular_prism(), (3, 4))
        assert report["ok"]
        assert report["region_parity"] == "even"

    def test_prism_odd_branch(self):
        # Prism redrawn with a quadrilateral outer face: each triangle then
        # has one edge on the outer walk, exercising the odd-region branch.
        g = PlanarGraph({0: (0, 0), 1: (4, 0), 2: (2, 1),
                         3: (0, 3), 4: (4, 3), 5: (2, 2)},
                        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                         (0, 3), (1, 4), (2, 5)])
        report = verify_edge_decomposition(g, (0, 1))
        assert report["ok"]
        assert report["region_parity"] == "odd"
        assert "without_region_shifted" not in report["terms"]

    def test_interior_edge_rejected(self):
        g = build_ladder(2)
        with pytest.raises(GraphError, match="outer region"):
            verify_edge_decomposition(g, (2, 3))  # middle rung, two regions

    def test_nonedge_rejected(self):
        with pytest.raises(GraphError, match="not an edge"):
            verify_edge_decomposition(c4(), (0, 2))


# -- the one search against a brute-force reference -------------------------


def brute_force_faces(g):
    """Independent sets of even regions times the perfect matchings of the
    rest, every matching found among all edge subsets of the right size."""
    even = [i for i, r in enumerate(g.regions) if r.alternations]
    faces = []
    for k in range(len(even) + 1):
        for regions in itertools.combinations(even, k):
            vsets = [frozenset(g.regions[r].cycle) for r in regions]
            covered = frozenset().union(*vsets)
            if sum(map(len, vsets)) != len(covered):
                continue
            rest = set(g.vertex_ids) - covered
            edges = [e for e in sorted(g.edges) if not covered & set(e)]
            for m in itertools.combinations(edges, len(rest) // 2):
                if {v for e in m for v in e} == rest:
                    faces.append(TilingFace(Matching(frozenset(m)),
                                            frozenset(regions)))
    return sorted(faces, key=TilingFace.sort_key)


def assert_matches_brute_force(g):
    want = brute_force_faces(g)
    assert list(build_complex(g).faces) == want
    matchings = [f.matching for f in want if f.dim == 0]
    assert enumerate_perfect_matchings(g) == sorted(
        matchings, key=Matching.sorted_edges)


def simply_connected_polyominoes():
    return polyominoes().filter(is_simply_connected)


@settings(max_examples=100, deadline=None)
@given(simply_connected_polyominoes())
def test_build_complex_matches_brute_force_on_polyominoes(cells):
    assert_matches_brute_force(graph_from_cells(set(cells)))


@pytest.mark.parametrize("build", [figure_g1, figure_g2, figure_g3,
                                   figure_counterexample, triangular_prism])
def test_build_complex_matches_brute_force_on_figures(build):
    assert_matches_brute_force(build())


# -- components against a union over every facet -----------------------------


def components_by_all_facets(k):
    """Faces joined to every one of their facets, as sets of faces."""
    parent = {f: f for f in k.faces}

    def find(f):
        while parent[f] != f:
            f = parent[f]
        return f

    for f in k.faces:
        for sub in k.facets_of(f):
            parent[find(f)] = find(sub)
    groups = {}
    for f in k.faces:
        groups.setdefault(find(f), set()).add(f)
    return {frozenset(fs) for fs in groups.values()}


def assert_components_match(k):
    comps = k.connected_components()
    assert {frozenset(c.faces) for c in comps} == components_by_all_facets(k)
    assert len(comps) == len(components_by_all_facets(k))
    for c in comps:
        assert list(c.faces) == [f for f in k.faces if f in c]


@settings(max_examples=100, deadline=None)
@given(polyominoes())
def test_components_match_union_over_all_facets(cells):
    assert_components_match(build_complex(graph_from_cells(set(cells))))


def test_components_match_union_over_all_facets_on_counterexample():
    assert_components_match(build_complex(figure_counterexample()))


@settings(max_examples=100, deadline=None)
@given(polyominoes(), st.randoms(use_true_random=False))
def test_components_match_on_shuffled_complexes(cells, rng):
    k = build_complex(graph_from_cells(set(cells)))
    faces = list(k.faces)
    rng.shuffle(faces)
    assert_components_match(CubicalMatchingComplex(k.graph, faces))


def without_one_faces(k, dropped):
    """k less the 1-faces ``dropped`` and every face above one of them,
    which is closed under facets again, with fewer 1-faces than flips."""
    g = k.graph
    return CubicalMatchingComplex(g, [
        f for f in k.faces if not any(face_leq(d, f, g) for d in dropped)])


@settings(max_examples=100, deadline=None)
@given(polyominoes(), st.randoms(use_true_random=False))
def test_components_match_with_one_faces_dropped(cells, rng):
    k = build_complex(graph_from_cells(set(cells)))
    edges = [f for f in k.faces if f.dim == 1]
    dropped = rng.sample(edges, rng.randint(0, min(len(edges), 6)))
    assert_components_match(without_one_faces(k, dropped))


@pytest.mark.parametrize("build", [figure_counterexample, figure_g2,
                                   lambda: build_ladder(4)])
def test_components_match_with_each_one_face_dropped(build):
    k = build_complex(build())
    for f in k.faces:
        if f.dim == 1:
            assert_components_match(without_one_faces(k, [f]))


# -- the collector ---------------------------------------------------------


@contextmanager
def collector(on):
    """The cyclic collector turned on or off for the block, then restored."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("on", [True, False])
def test_build_leaves_the_collector_as_it_found_it(on):
    with collector(on):
        build_complex(figure_g2())
        assert gc.isenabled() is on
