"""Exact predicates for straight-line plane drawings.

Coordinates are integers or ``fractions.Fraction``; every predicate reduces
to the sign of an integer or rational expression, so there is no float and
no epsilon anywhere.  A ``PlanarGraph`` scales its rational coordinates once
to an integer lattice, so the predicates it calls run on ints; the points
built here (centroids, interior points) are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Point = tuple[int | Fraction, int | Fraction]


def as_point(x, y) -> Point:
    """Exact coordinates: a plain int is kept, anything else (a bool too)
    becomes a Fraction."""
    return (x if type(x) is int else Fraction(x),
            y if type(y) is int else Fraction(y))


def common_lattice(points: Sequence[Point]
                   ) -> tuple[int, list[tuple[int, int]]]:
    """The least common multiple k of the points' denominators, and the
    points multiplied by k: the same drawing on integer coordinates."""
    k = lcm(*{c.denominator for p in points for c in p})
    return k, [(x.numerator * (k // x.denominator),
                y.numerator * (k // y.denominator)) for x, y in points]


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (det > 0) - (det < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True if p lies on the closed segment ab."""
    if orientation(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True if the closed segments ab and cd share at least one point."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (on_segment(c, a, b) or on_segment(d, a, b)
            or on_segment(a, c, d) or on_segment(b, c, d))


def segments_cross_improperly(a: Point, b: Point, c: Point, d: Point,
                              shared: Point) -> bool:
    """For segments sharing exactly the endpoint ``shared``: True if they
    overlap beyond that point (collinear overlap)."""
    # Reorder so both segments start at the shared endpoint.
    p = b if a == shared else a
    q = d if c == shared else c
    if orientation(shared, p, q) != 0:
        return False
    # Collinear: overlap iff p and q are on the same side of shared.
    dx1, dy1 = p[0] - shared[0], p[1] - shared[1]
    dx2, dy2 = q[0] - shared[0], q[1] - shared[1]
    return dx1 * dx2 + dy1 * dy2 > 0


def signed_area2(poly: Sequence[Point]) -> int | Fraction:
    """Twice the signed area of a closed polygon (ccw positive)."""
    total = 0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def ray_crosses(p: Point, a: Point, b: Point) -> bool:
    """Whether the ray from p in the -x direction crosses segment ab: one
    endpoint lies strictly above p's line and the other does not, so a
    vertex on the ray counts once, and ab passes on that side of p.  It is
    symmetric in a and b; a closed walk that misses p encloses it iff an odd
    number of its edges cross."""
    return ((a[1] > p[1]) != (b[1] > p[1])
            and orientation(a, b, p) * (b[1] - a[1]) < 0)


def point_in_polygon(p: Point, poly: Sequence[Point]) -> int:
    """Locate p relative to a simple polygon: 1 inside, 0 on boundary, -1
    outside, by the parity of the edges that cross p's ray; exact."""
    edges = [(poly[i - 1], poly[i]) for i in range(len(poly))]
    if any(on_segment(p, a, b) for a, b in edges):
        return 0
    return 1 if sum(ray_crosses(p, a, b) for a, b in edges) % 2 else -1


def interior_point(poly: Sequence[Point]) -> Point:
    """An exact point strictly inside a simple polygon.

    The vertex centroid works for every convex region; for non-convex
    polygons fall back to the centroid of an empty ear triangle.  The
    centroid of n vertices is tested as the point of their coordinate sums
    in the polygon scaled by n, so on a lattice polygon the test runs on
    ints.
    """
    n = len(poly)
    sx, sy = sum(q[0] for q in poly), sum(q[1] for q in poly)
    if point_in_polygon((sx, sy), [(n * x, n * y) for x, y in poly]) == 1:
        return (Fraction(sx, n), Fraction(sy, n))
    ccw = signed_area2(poly) > 0
    for i in range(n):
        a, b, cv = poly[i - 1], poly[i], poly[(i + 1) % n]
        o = orientation(a, b, cv)
        if o == 0 or (o > 0) != ccw:
            continue
        # Shrink towards b until the candidate is inside.
        mid = (Fraction(a[0] + cv[0], 2), Fraction(a[1] + cv[1], 2))
        for k in range(1, 65):
            t = Fraction(1, 2 ** k)
            cand = (b[0] + t * (mid[0] - b[0]), b[1] + t * (mid[1] - b[1]))
            if point_in_polygon(cand, poly) == 1:
                return cand
    raise ValueError("degenerate polygon: no interior point found")


def angle_less(d1: Point, d2: Point) -> bool:
    """Exact ccw angular order of two nonzero direction vectors in [0, 2pi)."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return h1 < h2
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    return cross > 0
