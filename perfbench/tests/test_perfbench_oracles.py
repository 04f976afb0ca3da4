"""The benchmark's oracles on counts done by hand."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


def test_tiling_counts_by_hand():
    # 2x2: two domino tilings and the square itself.
    assert oracles.tiling_counts(oracles.rectangle(2, 2)) == [2, 1]
    # 2x3: three domino tilings; the square with a domino on either side.
    assert oracles.tiling_counts(oracles.rectangle(2, 3)) == [3, 2]
    # 4x4: 36 domino tilings.
    assert oracles.tiling_counts(oracles.rectangle(4, 4))[0] == 36
    # A straight tromino and two diagonal cells have no tiling.
    assert oracles.tiling_counts(oracles.rectangle(1, 3)) == []
    assert oracles.tiling_counts({(0, 0), (1, 1)}) == []
    # An L of four cells has one tiling, and translating it changes nothing.
    ell = {(0, 0), (1, 0), (2, 0), (2, 1)}
    assert oracles.tiling_counts(ell) == [1]
    assert oracles.tiling_counts({(r + 5, c - 3) for r, c in ell}) == [1]


def test_simple_connectivity():
    ring = oracles.rectangle(3, 3) - {(1, 1)}
    assert not oracles.is_simply_connected(ring)
    assert oracles.is_simply_connected(oracles.rectangle(3, 3))
    assert not oracles.is_simply_connected({(0, 0), (1, 1)})


def test_kozlov_betti_by_hand():
    path = {1: (1,), 2: (2,), 3: (2,), 4: (1,), 5: (1, 1), 6: (1, 1)}
    for n, betti in path.items():
        assert oracles.kozlov_betti("path", n) == betti
    # C3: three points; C4: two disjoint edges; C5: a pentagon; C6: two
    # solid triangles joined by three edges, a wedge of two circles.
    cycle = {3: (3,), 4: (2,), 5: (1, 1), 6: (1, 2), 7: (1, 1)}
    for n, betti in cycle.items():
        assert oracles.kozlov_betti("cycle", n) == betti


def test_independence_facets_by_hand():
    # P4 = 0-1-2-3: maximal independent sets {0,2}, {0,3}, {1,3}.
    facets = oracles.independence_facets(range(4), [(0, 1), (1, 2), (2, 3)])
    assert facets == {frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3})}
    assert oracles.independence_facets([], []) == frozenset()
    assert oracles.independence_facets([7], []) == {frozenset({7})}


def test_matched_region_model_of_a_2x3_block():
    # Cells of a 2x3 block as vertices 0..5, row-major; regions are its two
    # unit squares, which share the edge {1, 4}.
    regions = [(0, 1, 4, 3), (1, 2, 5, 4)]
    region_edges = [frozenset(frozenset((c[j], c[(j + 1) % 4]))
                              for j in range(4)) for c in regions]
    horizontal = {frozenset(e) for e in [(0, 1), (3, 4)]}
    # Only the left square alternates with {01, 34}.
    assert oracles.matched_region_model(regions, horizontal, region_edges) \
        == (frozenset({0}), {frozenset({0})})
    verticals = {frozenset(e) for e in [(0, 3), (1, 4), (2, 5)]}
    # Both squares alternate with the three verticals, and they are adjacent.
    assert oracles.matched_region_model(regions, verticals, region_edges) \
        == (frozenset({0, 1}), {frozenset({0}), frozenset({1})})
