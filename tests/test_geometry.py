from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tilings.fixtures import named_fixture
from tilings.geometry import (angle_less, as_point, interior_point,
                              on_segment, orientation, point_in_polygon,
                              ray_crosses, segments_intersect, signed_area2,
                              vertex_centroid)

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


def test_angle_less_total_order():
    dirs = [P(1, 0), P(1, 1), P(0, 1), P(-1, 1), P(-1, 0),
            P(-1, -1), P(0, -1), P(1, -1)]
    for i in range(len(dirs)):
        for j in range(len(dirs)):
            assert angle_less(dirs[i], dirs[j]) == (i < j)


coord = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@given(coord, coord, coord, coord, coord, coord)
def test_orientation_antisymmetry(ax, ay, bx, by, cx, cy):
    a, b, c = (ax, ay), (bx, by), (cx, cy)
    assert orientation(a, b, c) == -orientation(a, c, b)
    assert orientation(a, b, c) == orientation(b, c, a)


@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
def test_signed_area_reversal(pts):
    assert signed_area2(pts) == -signed_area2(list(reversed(pts)))
