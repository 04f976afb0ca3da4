"""Tiling and perfect matching enumeration and counting, and the
cube-coordinate embedding.  A matching is kept as its edge code, in the
numbering of ``PlanarGraph.edge_list``, and decoded only to be shown."""

from __future__ import annotations

from functools import reduce
from itertools import count
from operator import xor
from typing import Container, Iterable, Mapping, Sequence, Union

from .geometry import common_lattice, interior_point, ray_crosses
from .planar import Edge, GraphError, PlanarGraph


def set_bits(code: int) -> list[int]:
    """The indices of the set bits of a nonnegative int, increasing."""
    return [i for i, b in enumerate(reversed(bin(code))) if b == "1"]


class Matching(frozenset):
    """A matching is its set of edges: it hashes and compares as that
    frozenset, and iterates over the edges in sorted order."""

    __slots__ = ()

    @classmethod
    def from_code(cls, code: int, g: PlanarGraph) -> "Matching":
        """The matching of an edge code of g: the one decoder."""
        return cls(map(g.edge_list.__getitem__, set_bits(code)))

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


def enumerate_perfect_matchings(g: PlanarGraph) -> list[Matching]:
    """All perfect matchings, sorted lexicographically by sorted edge list,
    decoded from the codes of :func:`matchings_of_adjacency`."""
    return [Matching.from_code(m, g)
            for m in matchings_of_adjacency(g.vertex_ids, g.adj)]


def matchings_of_adjacency(vertices: Sequence[int],
                           adj: Mapping[int, Sequence[int]]) -> list[int]:
    """Every perfect matching of a bare adjacency structure, as its edge
    code (:func:`_search_plan`), each found once by a backtracking search
    that covers the first uncovered vertex of ``vertices`` by an edge to
    each uncovered neighbour in the order of ``adj``.  With sorted vertices
    and lists, as a PlanarGraph keeps them, the codes number the graph's
    ``edge_list`` and come out in lexicographic order of their sorted edge
    lists: where two first differ, both cover one vertex, by different
    edges.

    The covered vertices are the bits of one int, bit i for ``vertices[i]``.
    Frame d holds the covered mask and code after d edges, and an iterator
    over the untried moves at the first uncovered vertex, its lowest 0 bit.
    """
    if len(vertices) % 2 == 1:
        return []
    if not vertices:
        return [0]
    moves = [m for m, _ in _search_plan(vertices, adj, ())[0]]
    full = (1 << len(moves)) - 1
    out: list[int] = []
    frames = [(0, 0, iter(moves[0]))]
    while frames:
        covered, code, untried = frames[-1]
        for b, e in untried:
            if not covered & b:
                break
        else:
            # Back to the frame before, without the edge that led here.
            frames.pop()
            continue
        covered |= b
        if covered == full:
            out.append(code | e)
        else:
            frames.append((covered, code | e, iter(
                moves[(~covered & (covered + 1)).bit_length() - 1])))
    return out


_Moves = list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]


def _search_plan(order: Sequence[int],
                 adj: Mapping[int, Sequence[int]],
                 regions: Iterable[tuple[int, Iterable[int]]]
                 ) -> tuple[_Moves, dict[int, int]]:
    """The moves of the matching search and the tiling count at each index
    i of their vertex order ``order``, when ``order[i]`` is the first
    uncovered vertex, and each vertex's index, the number of its bit.

    Every vertex before i is covered then, so the moves are the edges to
    later neighbours, as (mask, edge bit) pairs in the order of ``adj``,
    the j-th edge listed having bit j, and the regions whose first vertex
    is ``order[i]``, as (mask, label) pairs.  A mask has bit j for each
    vertex ``order[j]`` the move covers.
    """
    pos = {v: i for i, v in enumerate(order)}
    listed = count()
    moves: _Moves = [([((1 << i) | (1 << pos[u]), 1 << next(listed))
                       for u in adj[v] if pos[u] > i], [])
                     for i, v in enumerate(order)]
    for label, vs in regions:
        vs = [pos[v] for v in vs]
        moves[min(vs)][1].append((sum(1 << j for j in vs), label))
    return moves, pos


def count_tilings(vertices: Sequence[int],
                  adj: Mapping[int, Sequence[int]],
                  regions: Iterable[tuple[int, Iterable[int]]] = ()
                  ) -> list[int]:
    """The f-vector of the tilings (M, S) of a bare adjacency structure, M a
    matching and S a set of vertex-disjoint regions among ``regions``, given
    as (label, vertices) pairs of even regions, that together cover every
    vertex: entry i is the number of tilings with i regions, trailing zeros
    trimmed, and ``[]`` when there is no tiling.  No tiling is built: the
    plan of :func:`_search_plan` is counted by :func:`count_on_plan`.
    """
    return count_on_plan(_search_plan(vertices, adj, regions)[0])


def count_on_plan(moves: _Moves, start: int = 0, edge: int = 0,
                  labels: Container[int] = ()) -> list[int]:
    """:func:`count_tilings` on the plan ``moves`` of a graph, with the
    vertices of the bits of ``start`` deleted, and the edge joining the two
    vertices of the bits of ``edge`` (none for 0) with the regions labelled
    in ``labels`` (those whose boundary holds it) deleted too.

    The search makes the plan's moves, run forward over the vertex order.
    A state is the set of covered vertices, as a bitmask like the plan's
    masks; at index i every vertex before i is covered in every state.  The
    states that leave vertex i uncovered make the moves at i, each of which
    covers it, and the others wait.  Searches that reach one state have the
    same completions, so they are merged and their counts by number of
    regions added.  On the cells of a polyomino swept along its longer side,
    as :func:`count_f_vector` orders them, this is the broken-profile
    transfer matrix.  A deleted vertex is covered from the start, and the
    deleted edge and regions are dropped from the moves.
    """
    # Edges and even regions each cover an even number of vertices.
    if (len(moves) - start.bit_count()) % 2:
        return []
    states: dict[int, list[int]] = {start: [1]}
    for i, (edge_moves, region_moves) in enumerate(moves):
        bit = 1 << i
        for mask in [m for m in states if not m & bit]:
            counts = states.pop(mask)
            for b, _ in edge_moves:
                if not mask & b and b != edge:
                    key = mask | b
                    old = states.get(key)
                    states[key] = counts if old is None else _add(old, counts)
            if region_moves:
                # A region adds one to the number of regions.
                add = [0] + counts
                for b, label in region_moves:
                    if not mask & b and label not in labels:
                        key = mask | b
                        old = states.get(key)
                        states[key] = add if old is None else _add(old, add)
    return states.get((1 << len(moves)) - 1, [])


def _add(a: list[int], b: list[int]) -> list[int]:
    """Coefficient-wise sum of two count lists, as a new list."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for j, c in enumerate(b):
        out[j] += c
    return out


def cube_coordinates(g: PlanarGraph,
                     matchings: Sequence[Union[Matching, int]]
                     ) -> dict[Union[Matching, int], tuple[int, ...]]:
    """The cube embedding: each perfect matching M of g in ``matchings``, a
    Matching or its edge code, as a point of {0,1}^d, d the number of
    regions, the first one at the origin.

    Coordinate i is the parity of the number of cycles of M + base, the
    symmetric difference with the first matching, that enclose an interior
    point p_i of region i: the parity of the edges of M + base that cross
    p_i's ray.  So x(M) is the XOR over the edges of M and of the base of
    their masks, bit i set when the edge crosses p_i's ray: an affine map
    over Z/2, with the masks found once per graph.
    """
    lattice = g.lattice
    # The interior points are Fractions of a lattice unit: scale them and
    # the lattice by their common denominator, so every test runs on ints.
    k, pts = common_lattice([interior_point([lattice[v] for v in r.cycle])
                             for r in g.regions])
    pos = {v: (x * k, y * k) for v, (x, y) in lattice.items()}
    mask = [sum(1 << i for i, p in enumerate(pts)
                if ray_crosses(p, pos[u], pos[v])) for u, v in g.edge_list]
    bits = {}
    for m in matchings:
        try:
            code = m if isinstance(m, int) else g.edge_code(m)
            placed = set_bits(code) if code >= 0 else None
            ends = {v for i in placed for v in g.edge_list[i]}
        except (IndexError, KeyError, TypeError):
            placed = None
        if placed is None or not 2 * len(placed) == len(ends) == len(pos):
            raise GraphError(f"{m if isinstance(m, int) else sorted(m)} "
                             "is not a perfect matching of the graph")
        bits[m] = reduce(xor, map(mask.__getitem__, placed), 0)
    base = next(iter(bits.values()), 0)
    return {m: tuple((x ^ base) >> i & 1 for i in range(len(pts)))
            for m, x in bits.items()}
