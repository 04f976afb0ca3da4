import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilings.fixtures import named_fixture
from tilings.geometry import interior_point, point_in_polygon
from tilings.matchings import (Matching, cube_coordinates,
                               enumerate_perfect_matchings,
                               symmetric_difference_cycles)
from tilings.planar import (GraphError, PlanarGraph, build_ladder,
                            cells_connected, graph_from_cells)

SQUARE = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def c4():
    return PlanarGraph(SQUARE, SQUARE_EDGES)


class TestEnumeration:
    def test_c4_two_matchings(self):
        ms = enumerate_perfect_matchings(c4())
        assert len(ms) == 2
        assert ms[0].edges == frozenset({(0, 1), (2, 3)})
        assert ms[1].edges == frozenset({(0, 3), (1, 2)})

    def test_ladder_3_five_matchings(self):
        assert len(enumerate_perfect_matchings(build_ladder(3))) == 5

    def test_odd_order_empty(self):
        tri = PlanarGraph({0: (0, 0), 1: (2, 0), 2: (1, 2)},
                          [(0, 1), (1, 2), (2, 0)])
        assert enumerate_perfect_matchings(tri) == []

    def test_deterministic_lexicographic_order(self):
        ms = enumerate_perfect_matchings(build_ladder(4))
        keys = [m.sorted_edges() for m in ms]
        assert keys == sorted(keys)
        assert len(set(map(tuple, keys))) == len(keys)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_fibonacci_counts(self, n):
        a = len(enumerate_perfect_matchings(build_ladder(n)))
        b = len(enumerate_perfect_matchings(build_ladder(n - 1)))
        c = 1 if n == 2 else len(
            enumerate_perfect_matchings(build_ladder(n - 2)))
        assert a == b + c


class TestSymmetricDifference:
    def test_equal_matchings_no_cycles(self):
        m = enumerate_perfect_matchings(c4())[0]
        assert symmetric_difference_cycles(m, m).cycles == ()

    def test_c4_single_cycle(self):
        m1, m2 = enumerate_perfect_matchings(c4())
        dec = symmetric_difference_cycles(m1, m2)
        assert len(dec.cycles) == 1
        assert sorted(dec.cycles[0]) == [0, 1, 2, 3]

    def test_ladder_2_local_flip(self):
        g = build_ladder(2)
        vertical = Matching(frozenset({(0, 1), (2, 3), (4, 5)}))
        flipped = Matching(frozenset({(0, 2), (1, 3), (4, 5)}))
        dec = symmetric_difference_cycles(vertical, flipped)
        assert len(dec.cycles) == 1
        assert sorted(dec.cycles[0]) == [0, 1, 2, 3]

    def test_even_cycle_lengths(self):
        ms = enumerate_perfect_matchings(build_ladder(5))
        for m2 in ms[1:]:
            for cyc in symmetric_difference_cycles(ms[0], m2).cycles:
                assert len(cyc) % 2 == 0 and len(cyc) >= 4

    def test_mismatched_covers_rejected(self):
        m1 = Matching(frozenset({(0, 1)}))
        m2 = Matching(frozenset({(2, 3)}))
        with pytest.raises(GraphError, match="different vertex sets"):
            symmetric_difference_cycles(m1, m2)


class TestCubeCoordinates:
    def test_base_is_origin(self):
        g = build_ladder(3)
        ms = enumerate_perfect_matchings(g)
        coords = cube_coordinates(g, ms[0])
        assert coords[ms[0]] == (0, 0, 0)

    def test_c4_nonbase_vertex(self):
        g = c4()
        m1, m2 = enumerate_perfect_matchings(g)
        coords = cube_coordinates(g, m1)
        assert coords[m2] == (1,)

    def test_single_region_flip_changes_one_coordinate(self):
        g = build_ladder(4)
        ms = enumerate_perfect_matchings(g)
        coords = cube_coordinates(g, ms[0])
        for ma in ms:
            for mb in ms:
                dec = symmetric_difference_cycles(ma, mb)
                if len(dec.cycles) != 1:
                    continue
                cyc = dec.cycles[0]
                regions = [j for j, r in enumerate(g.regions)
                           if r.vertex_set == frozenset(cyc)]
                if not regions:
                    continue
                j = regions[0]
                diff = [i for i in range(len(g.regions))
                        if coords[ma][i] != coords[mb][i]]
                assert diff == [j]

    def test_injective_on_ladders(self):
        for n in range(1, 7):
            g = build_ladder(n)
            ms = enumerate_perfect_matchings(g)
            coords = cube_coordinates(g, ms[0])
            assert len(set(coords.values())) == len(ms)

    def test_base_must_be_perfect(self):
        g = build_ladder(2)
        with pytest.raises(GraphError, match="not a perfect matching"):
            cube_coordinates(g, Matching(frozenset({(0, 1)})))

    def test_region_order_validated(self):
        g = build_ladder(2)
        base = enumerate_perfect_matchings(g)[0]
        with pytest.raises(GraphError, match="every region"):
            cube_coordinates(g, base, region_order=[0])


# -- cube coordinates against the rational computation ------------------------


def cube_reference(g, base, region_order):
    """Cube coordinates computed on the rational coordinates: an interior
    point of each region, located in each cycle of M + base."""
    coords = g.coords
    pts = [interior_point([coords[v] for v in g.regions[r].cycle])
           for r in region_order]
    out = {}
    for m in enumerate_perfect_matchings(g):
        x = [0] * len(pts)
        for cycle in symmetric_difference_cycles(m, base).cycles:
            poly = [coords[v] for v in cycle]
            for i, p in enumerate(pts):
                if point_in_polygon(p, poly) == 1:
                    x[i] ^= 1
        out[m] = tuple(x)
    return out


def assert_cube_matches_reference(g):
    ms = enumerate_perfect_matchings(g)
    if not ms:
        return
    order = list(range(len(g.regions)))
    for base, region_order in ((ms[0], order), (ms[-1], order[::-1])):
        assert (cube_coordinates(g, base, region_order)
                == cube_reference(g, base, region_order))


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "figure2", "ladder-4-2"])
def test_cube_coordinates_match_rational_reference(name):
    g = named_fixture(name)
    assert_cube_matches_reference(g)


@st.composite
def polyominoes(draw, max_cells=12):
    """An even number of cells, up to 12, grown one edge-neighbour at a
    time."""
    n = 2 * draw(st.integers(1, max_cells // 2))
    cells = {(0, 0)}
    while len(cells) < n:
        boundary = sorted({nb for r, c in cells
                           for nb in ((r + 1, c), (r - 1, c),
                                      (r, c + 1), (r, c - 1))} - cells)
        cells.add(draw(st.sampled_from(boundary)))
    return cells


@settings(max_examples=60, deadline=None)
@given(polyominoes())
def test_cube_coordinates_match_rational_reference_on_polyominoes(cells):
    assert cells_connected(cells)
    assert_cube_matches_reference(graph_from_cells(cells))
