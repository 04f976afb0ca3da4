from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import cells_connected, grown_polyominoes
from tilings import cli, matchings
from tilings.fixtures import named_fixture
from tilings.geometry import interior_point, point_in_polygon
from tilings.matchings import (Matching, cube_coordinates,
                               enumerate_perfect_matchings)
from tilings.planar import (GraphError, PlanarGraph, build_ladder,
                            graph_from_cells)
from tilings.verify import Bounds, Corpus, check_cube

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


# -- the cycles of M + base, and the per-cycle reference -----------------------


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[tuple[int, ...], ...]


def symmetric_difference_cycles(m1: Matching, m2: Matching) -> CycleDecomposition:
    """Decompose the symmetric difference of two perfect matchings of the
    same graph into its vertex-disjoint alternating cycles."""
    if m1.covered != m2.covered:
        raise GraphError("matchings cover different vertex sets")
    diff = m1 ^ m2
    nbr: dict[int, list[int]] = {}
    for u, v in diff:
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    cycles = []
    seen: set[int] = set()
    for start in sorted(nbr):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            a, b = nbr[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            cycle.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt
        # Canonical orientation: start at the minimum, second element minimal.
        if len(cycle) > 2 and cycle[-1] < cycle[1]:
            cycle = [cycle[0]] + cycle[:0:-1]
        cycles.append(tuple(cycle))
    return CycleDecomposition(tuple(sorted(cycles)))


def cube_reference(g, base):
    """Cube coordinates computed on the rational coordinates: an interior
    point of each region, located in each cycle of M + base."""
    coords = g.coords
    pts = [interior_point([coords[v] for v in r.cycle]) for r in g.regions]
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
        coords = cube_coordinates(g, ms)
        assert coords[ms[0]] == (0, 0, 0)

    def test_c4_nonbase_vertex(self):
        g = c4()
        m1, m2 = enumerate_perfect_matchings(g)
        coords = cube_coordinates(g, [m1, m2])
        assert coords[m2] == (1,)

    def test_keys_follow_the_given_matchings(self):
        g = build_ladder(3)
        ms = enumerate_perfect_matchings(g)
        assert list(cube_coordinates(g, ms[::-1])) == ms[::-1]
        assert cube_coordinates(g, ms[1:2]) == {ms[1]: (0, 0, 0)}
        assert cube_coordinates(g, []) == {}

    def test_single_region_flip_changes_one_coordinate(self):
        g = build_ladder(4)
        ms = enumerate_perfect_matchings(g)
        coords = cube_coordinates(g, ms)
        for ma in ms:
            for mb in ms:
                dec = symmetric_difference_cycles(ma, mb)
                if len(dec.cycles) != 1:
                    continue
                cyc = dec.cycles[0]
                regions = [j for j, r in enumerate(g.regions)
                           if frozenset(r.cycle) == frozenset(cyc)]
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
            coords = cube_coordinates(g, ms)
            assert len(set(coords.values())) == len(ms)

    def test_base_must_be_perfect(self):
        g = build_ladder(2)
        with pytest.raises(GraphError, match="not a perfect matching"):
            cube_coordinates(g, [Matching(frozenset({(0, 1)}))])

    @pytest.mark.parametrize("edges", [
        # Too few edges: vertices 4 and 5 are left uncovered.
        {(0, 1), (2, 3)},
        # Three edges of the graph, but vertex 0 is covered twice and 4 not
        # at all.
        {(0, 1), (0, 2), (3, 5)},
        # Covers every vertex with an edge the graph does not have.
        {(0, 1), (2, 5), (3, 4)},
    ])
    def test_every_matching_must_be_perfect(self, edges):
        g = build_ladder(2)
        ms = enumerate_perfect_matchings(g)
        with pytest.raises(GraphError, match="not a perfect matching"):
            cube_coordinates(g, [*ms, Matching(frozenset(edges))])


# -- cube coordinates against the per-cycle reference -------------------------


def assert_cube_matches_reference(g, base_index=0):
    ms = enumerate_perfect_matchings(g)
    if not ms:
        return
    base = ms[base_index % len(ms)]
    # The base comes first; its second occurrence in ms adds nothing.
    assert cube_coordinates(g, [base, *ms]) == cube_reference(g, base)


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "figure2", "ladder-4-2"])
def test_cube_coordinates_match_rational_reference(name):
    g = named_fixture(name)
    for base_index in (0, -1):
        assert_cube_matches_reference(g, base_index)


@settings(max_examples=60, deadline=None)
@given(grown_polyominoes().map(set), st.integers(min_value=0))
def test_cube_coordinates_match_rational_reference_on_polyominoes(
        cells, base_index):
    assert cells_connected(cells)
    assert_cube_matches_reference(graph_from_cells(cells), base_index)


# -- the cube reads the complex's vertices, not the search ------------------------


def forbid_search(monkeypatch):
    """Make every run of the matching search, from now on, fail."""
    def search(*args, **kwargs):
        raise AssertionError("the matching search ran")
    # complexes reaches the search only through enumerate_perfect_matchings.
    monkeypatch.setattr(matchings, "matchings_of_adjacency", search)
    with pytest.raises(AssertionError, match="search ran"):
        enumerate_perfect_matchings(build_ladder(2))


def test_check_cube_runs_no_search(monkeypatch):
    corpus = Corpus(Bounds(max_ladder=3, max_cells=6, random_count=2))
    for name, g in corpus.graphs():
        corpus.complex(name, g)
    forbid_search(monkeypatch)
    result = check_cube(corpus)
    assert result.passed and result.checked > 0


def test_complex_cube_runs_no_search(monkeypatch, capsys):
    original = cli.build_complex

    def build_then_forbid(g):
        k = original(g)
        forbid_search(monkeypatch)
        return k
    monkeypatch.setattr(cli, "build_complex", build_then_forbid)
    assert cli.main(["complex", "ladder-3", "--cube", "--format", "json"]) == 0
    assert '"cube_coordinates"' in capsys.readouterr().out
