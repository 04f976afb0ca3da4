from contextlib import suppress
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import vertex_centroid
from tilings.fixtures import iter_fixture_graphs, named_fixture
from tilings.geometry import (angle_less, as_point, interior_point,
                              on_segment, orientation, point_in_polygon,
                              ray_crosses, segments_intersect, signed_area2)

F = Fraction


def P(x, y):
    return as_point(x, y)


SQUARE = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]


def test_orientation_signs():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1
    assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0


def test_on_segment():
    assert on_segment(P(F(1, 2), F(1, 2)), P(0, 0), P(1, 1))
    assert on_segment(P(0, 0), P(0, 0), P(1, 1))
    assert not on_segment(P(2, 2), P(0, 0), P(1, 1))
    assert not on_segment(P(F(1, 2), F(1, 3)), P(0, 0), P(1, 1))


def test_segments_intersect_proper_and_touching():
    assert segments_intersect(P(0, 0), P(2, 2), P(0, 2), P(2, 0))
    assert segments_intersect(P(0, 0), P(1, 0), P(1, 0), P(1, 1))  # endpoint
    assert not segments_intersect(P(0, 0), P(1, 0), P(0, 1), P(1, 1))


def test_signed_area_orientation():
    assert signed_area2(SQUARE) == 2
    assert signed_area2(list(reversed(SQUARE))) == -2


def test_point_in_polygon_square():
    assert point_in_polygon(P(F(1, 2), F(1, 2)), SQUARE) == 1
    assert point_in_polygon(P(F(1, 2), 0), SQUARE) == 0
    assert point_in_polygon(P(2, 2), SQUARE) == -1
    # Ray through a vertex should not double-count.
    assert point_in_polygon(P(-1, 1), SQUARE) == -1


def test_ray_crosses_counts_a_vertex_on_the_ray_once():
    p = P(1, 1)
    assert ray_crosses(p, P(0, 0), P(0, 2))
    assert not ray_crosses(p, P(2, 0), P(2, 2))
    # The walk (0,0) - (0,1) - (0,2) meets the ray at its middle vertex:
    # only the edge above p's line crosses.
    assert not ray_crosses(p, P(0, 0), P(0, 1))
    assert ray_crosses(p, P(0, 1), P(0, 2))


small = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(small, small, small)
def test_ray_crosses_is_symmetric(p, a, b):
    assert ray_crosses(p, a, b) == ray_crosses(p, b, a)


def test_interior_point_convex_and_reflex():
    assert interior_point(SQUARE) == (F(1, 2), F(1, 2))
    # L-shaped hexagon whose vertex centroid is outside.
    ell = [P(0, 0), P(3, 0), P(3, 1), P(1, 1), P(1, 3), P(0, 3)]
    c = vertex_centroid(ell)
    assert point_in_polygon(c, ell) != 1
    q = interior_point(ell)
    assert point_in_polygon(q, ell) == 1


# The L-shaped hexagon on integer coordinates: its vertex centroid (4/3, 4/3)
# is outside, so interior_point takes the ear fallback.
INT_ELL = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]


def lattice_region_polygons():
    polys = [("ell", INT_ELL)]
    for name in ("g1", "g2", "g3", "ladder-3"):
        g = named_fixture(name)
        polys += [(name, [g.lattice[v] for v in r.cycle]) for r in g.regions]
    return polys


@pytest.mark.parametrize("name, poly", lattice_region_polygons())
def test_points_on_integer_polygons_are_exact(name, poly):
    assert all(type(c) is int for q in poly for c in q)
    c = vertex_centroid(poly)
    assert all(type(x) is F for x in c)
    q = interior_point(poly)
    assert all(type(x) is F for x in q)
    assert point_in_polygon(q, poly) == 1
    # Scaling the polygon scales the point: the lattice and the rational
    # drawing give the same interior point.
    k = 7
    rational = [(F(x, k), F(y, k)) for x, y in poly]
    assert interior_point(rational) == (q[0] / k, q[1] / k)


coord = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def assert_old_point(poly):
    """interior_point(poly) is the point it gave when it tested the vertex
    centroid as a Fraction point: that centroid when it lies inside, and
    otherwise a point of the ear fallback, which did not change (or its
    ValueError, on a polygon where no ear gives an inside point)."""
    c = vertex_centroid(poly)
    if point_in_polygon(c, poly) == 1:
        q = interior_point(poly)
        assert q == c and all(type(x) is F for x in q)
    else:
        with suppress(ValueError):
            assert interior_point(poly) != c


def test_interior_points_of_the_corpora_are_unchanged():
    polys = {tuple(g.lattice[v] for v in r.cycle)
             for seed in (0, 201) for _, g in iter_fixture_graphs(seed=seed)
             for r in g.regions}
    for poly in polys:
        assert_old_point(poly)
    # Both branches are met: 67 distinct polygons, 2 of them non-convex
    # with the vertex centroid outside.
    outside = [p for p in polys
               if point_in_polygon(vertex_centroid(p), p) != 1]
    assert outside and len(outside) < len(polys)


lattice = st.integers(-6, 6)


@settings(deadline=None)
@given(st.lists(st.tuples(lattice, lattice), min_size=3, max_size=8,
                unique=True)
       | st.lists(st.tuples(coord, coord), min_size=3, max_size=8,
                  unique=True))
def test_interior_point_on_any_polygon_is_unchanged(poly):
    assert_old_point(poly)


def test_as_point_keeps_only_plain_ints():
    assert [type(c) for c in as_point(3, -2)] == [int, int]
    for x in (True, F(3), "3/4", F(1, 2)):
        p = as_point(x, x)
        assert [type(c) for c in p] == [F, F] and p == (F(x), F(x))


def test_angle_less_total_order():
    dirs = [P(1, 0), P(1, 1), P(0, 1), P(-1, 1), P(-1, 0),
            P(-1, -1), P(0, -1), P(1, -1)]
    for i in range(len(dirs)):
        for j in range(len(dirs)):
            assert angle_less(dirs[i], dirs[j]) == (i < j)


@given(coord, coord, coord, coord, coord, coord)
def test_orientation_antisymmetry(ax, ay, bx, by, cx, cy):
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    assert orientation(a, b, c) == -orientation(a, c, b)
    assert orientation(a, b, c) == orientation(b, c, a)


@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
def test_signed_area_reversal(pts):
    assert signed_area2(pts) == -signed_area2(list(reversed(pts)))
