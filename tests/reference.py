"""Reference implementations the tests compare the package against.

Each computes something the package reads another way, by the plain
definition: the face order by direct comparison (the package walks covers),
a simplicial complex by keeping its maximal faces (the package lists facets
directly), the boundary of a boundary, the weak dual of a drawing (the
package builds only its induced subgraphs, in ``matched_region_graph``),
the vertex centroid as a Fraction point (the package tests it as an int
point in the polygon scaled by its vertex count), the cube embedding
tested on the vertices below every face (the package tests each 1-face),
and the edge-connectivity of a polyomino's cells by a search over their
neighbours (the package reads its graph's component labels).

It also holds the one copy of each polyomino strategy the tests draw from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from hypothesis import strategies as st

from tilings.complexes import CubicalMatchingComplex, TilingFace
from tilings.geometry import Point
from tilings.matchings import Matching
from tilings.planar import PlanarGraph
from tilings.topology import SimplicialComplex, _cells_and_boundaries


def face_leq(f1: TilingFace, f2: TilingFace, g: PlanarGraph) -> bool:
    """Face order of the cubical complex of g: f1 <= f2 iff cycles(f1) <=
    cycles(f2) and the matching of f1 is that of f2 plus one boundary
    alternation of each region of f2 that f1 releases.

    The two containments alone admit spurious pairs: a matching can extend
    M_F while pairing vertices across two regions of C_F, which is not a
    flip combination; the graph rules those out.
    """
    if not (f1.cycles <= f2.cycles and f1.matching >= f2.matching):
        return False
    extra = f1.matching - f2.matching
    for r in f2.cycles - f1.cycles:
        here = extra & g.regions[r].edge_set
        if here not in g.regions[r].alternations:
            return False
        extra -= here
    return not extra


def from_faces(faces) -> SimplicialComplex:
    """The simplicial complex whose faces are ``faces`` and their subsets:
    its facets are the faces contained in no other."""
    faces = [frozenset(f) for f in faces]
    facets = [f for f in faces
              if not any(f < other for other in faces)]
    verts = frozenset(v for f in facets for v in f)
    return SimplicialComplex(verts, frozenset(facets))


def boundary_of_boundary_vanishes(
        c: Union[SimplicialComplex, CubicalMatchingComplex]) -> bool:
    _, _, facets = _cells_and_boundaries(c)
    for fs in facets:
        acc = 0
        for j in fs:
            for i in facets[j]:
                acc ^= 1 << i
        if acc:
            return False
    return True


@dataclass(frozen=True)
class DualGraph:
    """Weak dual: one node per bounded region, adjacency = shared edge."""

    nodes: tuple[int, ...]
    adjacency: frozenset[tuple[int, int]]

    def neighbors(self, r: int) -> set[int]:
        return {b if a == r else a for a, b in self.adjacency if r in (a, b)}


def weak_dual(g: PlanarGraph) -> DualGraph:
    rs = g.regions
    return DualGraph(tuple(range(len(rs))), frozenset(
        (i, j) for i in range(len(rs)) for j in range(i + 1, len(rs))
        if not rs[i].edge_set.isdisjoint(rs[j].edge_set)))


def vertex_centroid(poly: Sequence[Point]) -> Point:
    """Average of the polygon's vertices, as Fractions."""
    n = len(poly)
    return (Fraction(sum(q[0] for q in poly), n),
            Fraction(sum(q[1] for q in poly), n))


def vertices_below(k: CubicalMatchingComplex
                   ) -> dict[TilingFace, set[Matching]]:
    """The matchings of the vertices below each face: a vertex has its own,
    and a face those of its facets in k, which come before it in k's order
    of dimension, so its regions are released one at a time."""
    below: dict[TilingFace, set[Matching]] = {}
    for f in k.faces:
        below[f] = (set().union(*(below[g] for g in k.facets_of(f)))
                    if f.dim else {f.matching})
    return below


def is_subcube(f: TilingFace, below: set[Matching],
               coords: Mapping[Matching, tuple[int, ...]]) -> bool:
    """Whether the vertices below f are the 2**dim corners of one subcube:
    pinned outside f's regions and taking every pattern on them."""
    pins = {tuple(x for i, x in enumerate(coords[m]) if i not in f.cycles)
            for m in below}
    patterns = {tuple(coords[m][i] for i in sorted(f.cycles)) for m in below}
    return len(below) == len(patterns) == 2 ** f.dim and len(pins) == 1


def cells_connected(cells: set[tuple[int, int]]) -> bool:
    """Whether the cells are edge-connected, by a search over the four
    neighbours of each cell."""
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


# -- polyomino strategies -------------------------------------------------------


@st.composite
def grown_polyominoes(draw, max_cells=12):
    """An even number of cells, at most max_cells, grown one edge-neighbour
    at a time."""
    n = 2 * draw(st.integers(1, max_cells // 2))
    cells = {(0, 0)}
    while len(cells) < n:
        boundary = sorted({nb for r, c in cells
                           for nb in ((r + 1, c), (r - 1, c),
                                      (r, c + 1), (r, c - 1))} - cells)
        cells.add(draw(st.sampled_from(boundary)))
    return frozenset(cells)


@st.composite
def punched_boxes(draw):
    """A box of 12 cells with a few cells taken out: many overlapping
    squares."""
    rows, cols = draw(st.sampled_from([(3, 4), (4, 3), (2, 6)]))
    box = sorted((r, c) for r in range(rows) for c in range(cols))
    return frozenset(box) - draw(st.sets(st.sampled_from(box), max_size=4))


def polyominoes():
    """Connected polyominoes of at most 12 cells, an even number of them;
    holes are kept, and a hole can be an even region too."""
    return st.one_of(grown_polyominoes(), punched_boxes()).filter(
        lambda cells: len(cells) % 2 == 0 and cells_connected(set(cells)))
