"""Tiling and perfect matching enumeration and counting, and the
cube-coordinate embedding."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .geometry import common_lattice, interior_point, point_in_polygon
from .planar import Edge, GraphError, PlanarGraph


class Matching(frozenset):
    """A matching is its set of edges: it hashes and compares as that
    frozenset, and iterates over the edges in sorted order."""

    __slots__ = ()

    @property
    def edges(self) -> frozenset[Edge]:
        return self

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for e in frozenset.__iter__(self) for v in e)

    def sorted_edges(self) -> list[Edge]:
        return sorted(frozenset.__iter__(self))

    def __iter__(self):
        return iter(self.sorted_edges())

    def __repr__(self) -> str:
        # The edge set's repr: its edges in the set's own order, not sorted.
        edges = "{" + ", ".join(map(repr, frozenset.__iter__(self))) + "}"
        return f"Matching(edges=frozenset({edges if self else ''}))"


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple[tuple[int, ...], ...]


def enumerate_perfect_matchings(g: PlanarGraph) -> list[Matching]:
    """All perfect matchings, sorted lexicographically by sorted edge list.

    These are the tilings of g without regions, found by the search of
    :func:`matchings_of_adjacency`.
    """
    return [m for m, _ in matchings_of_adjacency(g.vertex_ids, g.adj)]


def matchings_of_adjacency(
        vertices: Sequence[int],
        adj: Mapping[int, Sequence[int]],
        regions: Iterable[tuple[int, Iterable[int]]] = (),
) -> list[tuple[Matching, frozenset[int]]]:
    """Every tiling (M, S) of a bare adjacency structure: a matching M and a
    set S of vertex-disjoint regions that together cover every vertex.

    ``regions`` lists (label, vertices) pairs of even regions; S holds their
    labels.  One backtracking search takes the lowest uncovered vertex v and
    covers it either by an edge to an uncovered neighbour or by a region
    whose lowest vertex is v and whose vertices are all uncovered, so each
    tiling is found exactly once.  Edges are tried before regions, in the
    order of ``adj``; with sorted lists, as a PlanarGraph keeps them, the
    tilings without regions come out in lexicographic order of their sorted
    edge lists.
    """
    # Edges and even regions each cover an even number of vertices.
    if len(vertices) % 2 == 1:
        return []
    order, starting = _search_plan(vertices, regions)
    covered: set[int] = set()
    edges: list[Edge] = []
    out: list[tuple[Matching, frozenset[int]]] = []

    # ``used`` is shared by every tiling found below one choice of regions.
    def search(i: int, used: frozenset[int]) -> None:
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            out.append((Matching(edges), used))
            return
        v = order[i]
        covered.add(v)
        for u in adj[v]:
            if u in covered:
                continue
            covered.add(u)
            # Every vertex below v is covered, so v < u.
            edges.append((v, u))
            search(i + 1, used)
            edges.pop()
            covered.discard(u)
        for label, rest in starting.get(v, ()):
            if not covered.isdisjoint(rest):
                continue
            covered.update(rest)
            search(i + 1, used | {label})
            covered.difference_update(rest)
        covered.discard(v)

    search(0, frozenset())
    # Break the cycle search -> closure -> search, which would keep every
    # tiling found alive until the next full garbage collection.
    del search
    return out


_Starting = dict[int, list[tuple[int, tuple[int, ...]]]]


def _search_plan(vertices: Sequence[int],
                 regions: Iterable[tuple[int, Iterable[int]]]
                 ) -> tuple[list[int], _Starting]:
    """The vertex order of the tiling search, and the even regions by their
    lowest vertex as (label, the other vertices in order): a region can
    cover the lowest uncovered vertex only if that is its lowest vertex."""
    starting: _Starting = {}
    for label, vs in regions:
        vs = sorted(vs)
        starting.setdefault(vs[0], []).append((label, tuple(vs[1:])))
    return sorted(vertices), starting


def count_tilings(vertices: Sequence[int],
                  adj: Mapping[int, Sequence[int]],
                  regions: Iterable[tuple[int, Iterable[int]]] = ()
                  ) -> list[int]:
    """The f-vector of the tilings of :func:`matchings_of_adjacency`: entry
    i is the number of tilings with i regions, trailing zeros trimmed, and
    ``[]`` when there is no tiling.  No tiling is built.

    The search makes the same moves, run forward over the vertex order:
    before index i every vertex is covered, so a state is the set of covered
    vertices from i on, as a bitmask whose bit j is vertex ``order[i + j]``.
    Searches that reach one state have the same completions, so they are
    merged and their counts by number of regions added.  On the cells of a
    polyomino in row-major order this is the broken-profile transfer matrix.
    """
    if len(vertices) % 2 == 1:
        return []
    order, starting = _search_plan(vertices, regions)
    pos = {v: i for i, v in enumerate(order)}
    states: dict[int, list[int]] = {0: [1]}
    for i, v in enumerate(order):
        # The moves at v: an edge to a later neighbour, or a region, which
        # adds one to the number of regions.
        moves = [(1 << (pos[u] - i), False) for u in adj[v] if pos[u] > i]
        moves += [(sum(1 << (pos[u] - i) for u in rest), True)
                  for _, rest in starting.get(v, ())]
        nxt: dict[int, list[int]] = {}
        for mask, counts in states.items():
            if mask & 1:
                key = mask >> 1
                old = nxt.get(key)
                nxt[key] = counts if old is None else _add(old, counts)
                continue
            for b, region in moves:
                if not mask & b:
                    key = (mask | b) >> 1
                    add = [0] + counts if region else counts
                    old = nxt.get(key)
                    nxt[key] = add if old is None else _add(old, add)
        states = nxt
    return states.get(0, [])


def _add(a: list[int], b: list[int]) -> list[int]:
    """Coefficient-wise sum of two count lists, as a new list."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for j, c in enumerate(b):
        out[j] += c
    return out


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


def cube_coordinates(g: PlanarGraph,
                     base: Matching,
                     region_order: Optional[Sequence[int]] = None
                     ) -> dict[Matching, tuple[int, ...]]:
    """Embed the vertices of the cubical matching complex into {0,1}^d.

    Coordinate i of a matching M is the parity of the number of cycles of
    the symmetric difference with the base matching that strictly contain an
    interior point of region ``region_order[i]``.
    """
    if base.covered != frozenset(g.vertex_ids):
        raise GraphError("base is not a perfect matching of the graph")
    d = len(g.regions)
    if region_order is None:
        region_order = list(range(d))
    if sorted(region_order) != list(range(d)):
        raise GraphError("region_order must list every region exactly once")
    lattice = g.lattice
    inner = [interior_point([lattice[v] for v in g.regions[r].cycle])
             for r in region_order]
    # The interior points are Fractions of a lattice unit: scale them and
    # the lattice by their common denominator, so every test runs on ints.
    k, pts = common_lattice(inner)
    pos = {v: (x * k, y * k) for v, (x, y) in lattice.items()}

    coords = {}
    for m in enumerate_perfect_matchings(g):
        dec = symmetric_difference_cycles(m, base)
        x = [0] * d
        for cycle in dec.cycles:
            poly = [pos[v] for v in cycle]
            for i, p in enumerate(pts):
                if point_in_polygon(p, poly) == 1:
                    x[i] ^= 1
        coords[m] = tuple(x)
    return coords
