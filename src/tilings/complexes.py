"""The cubical matching complex of an embedded planar graph.

A face is a tiling: a partial matching together with a set of pairwise
vertex-disjoint even elementary regions covering the remaining vertices.
Faces are stored explicitly; instances stay small enough that brute-force
enumeration doubles as the correctness oracle for everything downstream.
"""

from __future__ import annotations

import gc
import threading
from bisect import bisect_left
from operator import attrgetter
from typing import (Callable, Iterable, Mapping, NamedTuple, Optional,
                    Sequence)

from .matchings import (Matching, _search_plan, count_on_plan,
                        count_tilings, enumerate_perfect_matchings)
from .planar import Edge, GraphError, PlanarGraph, edge_key


class TilingFace(NamedTuple):
    """A tiling (M, S): equal to, and hashing like, (M's edge set, S)."""

    matching: Matching
    cycles: frozenset[int]

    @property
    def dim(self) -> int:
        return len(self.cycles)

    def sort_key(self):
        return (self.dim, sorted(self.cycles), self.matching.sorted_edges())


class CubicalMatchingComplex:
    """Faces of the cubical complex of ``graph``, sorted stably by dimension:
    within one they keep the order given, which :func:`build_complex` makes
    that of :meth:`TilingFace.sort_key`.  Its readers rely on this order:
    ``dim``, ``f_vector``, ``vertices``, ``connected_components`` and
    ``verify``'s cube check read runs of it, and ``topology`` slices cells
    by dimension.

    ``_index`` maps each face to its position, built on first use; a face
    equals its (edge set, cycles) pair, so that pair finds it with no
    ``TilingFace`` built."""

    def __init__(self, graph: PlanarGraph, faces: Iterable[TilingFace]):
        self.graph = graph
        faces = tuple(faces)
        dims = list(map(len, map(attrgetter("cycles"), faces)))
        # Faces handed over in order of dimension, as build_complex hands
        # them, are kept as they are.
        if dims != sorted(dims):
            faces = tuple(sorted(faces, key=attrgetter("dim")))
        self.faces: tuple[TilingFace, ...] = faces
        # Set here, not on first use, so that every complex's attributes
        # keep one shared layout.
        self._positions: Optional[dict[TilingFace, int]] = None

    @property
    def _index(self) -> dict[TilingFace, int]:
        if self._positions is None:
            self._positions = {f: i for i, f in enumerate(self.faces)}
        return self._positions

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, f: TilingFace) -> bool:
        return f in self._index

    def position(self, f: TilingFace) -> int:
        """The index of face f in :attr:`faces`."""
        return self._index[f]

    @property
    def dim(self) -> int:
        return self.faces[-1].dim if self.faces else -1

    def _start(self, d: int) -> int:
        """The position of the first face of dimension at least d."""
        return bisect_left(self.faces, d, key=attrgetter("dim"))

    def vertices(self) -> list[TilingFace]:
        return list(self.faces[:self._start(1)])

    def facets_of(self, f: TilingFace) -> list[TilingFace]:
        """The 2*dim faces covered by f, as stored in this complex: region r
        of f released into each of its boundary alternations, r in order."""
        regions, faces, index = self.graph.regions, self.faces, self._index
        out = []
        for r in sorted(f.cycles):
            rest = f.cycles - {r}
            out += [faces[index[f.matching | alt, rest]]
                    for alt in regions[r].alternations]
        return out

    def f_vector(self) -> list[int]:
        starts = [self._start(d) for d in range(self.dim + 2)]
        return [b - a for a, b in zip(starts, starts[1:])]

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.f_vector()))

    def connected_components(self) -> list["CubicalMatchingComplex"]:
        """The components, each keeping the order of the faces, in the order
        of their first faces; a connected complex is its own component.

        Each face is a cube, so it lies in the component of every vertex
        below it: the components are those of the 1-skeleton, found by a
        union-find over the vertices.

        A 1-face (M, {r}) joins M | a0 to M | a1, a0 and a1 the alternations
        of r.  So with matchings coded as ints over the edges, each vertex m
        holding a0 is joined to m ^ a0 ^ a1 when that is a vertex too.  The
        complex of a graph holds every such 1-face, and a complex closed
        under facets holds no other, so when these pairs number its 1-faces
        they are its 1-faces.  A complex missing some has its own read."""
        regions, one, two = self.graph.regions, self._start(1), self._start(2)
        if one == 1:
            return [self]
        bit = {e: 1 << i for i, e in enumerate(self.graph.edges)}

        def code(edges: frozenset[Edge]) -> int:
            return sum(map(bit.__getitem__, frozenset.__iter__(edges)))

        def positions() -> dict[Matching, int]:
            return {f.matching: i for i, f in enumerate(self.faces[:one])}

        at = {code(f.matching): i for i, f in enumerate(self.faces[:one])}
        pairs = []
        for r in regions:
            if r.alternations:
                a0, a1 = map(code, r.alternations)
                flip = a0 ^ a1
                pairs += [(i, at[m ^ flip]) for m, i in at.items()
                          if m & a0 == a0 and m ^ flip in at]
        if len(pairs) != two - one:
            vertex, pairs = positions(), []
            for f in self.faces[one:two]:
                [r] = f.cycles
                pairs.append([vertex[f.matching | alt]
                              for alt in regions[r].alternations])

        parent = list(range(one))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        count = one
        for a, b in pairs:
            a, b = find(a), find(b)
            if a != b:
                parent[a] = b
                count -= 1
        if count == 1:
            return [self]
        # A face reaches a vertex by releasing each of its regions into its
        # first alternation.
        vertex = positions()
        groups: dict[int, list[TilingFace]] = {}
        for f in self.faces:
            m = f.matching.union(
                *(regions[r].alternations[0] for r in f.cycles))
            groups.setdefault(find(vertex[m]), []).append(f)
        return [CubicalMatchingComplex(self.graph, fs)
                for fs in groups.values()]


def _even_regions(g: PlanarGraph) -> list[tuple[int, tuple[int, ...]]]:
    return [(i, r.cycle) for i, r in enumerate(g.regions) if r.alternations]


def _counting_order(g: PlanarGraph) -> list[int]:
    """g's vertices by lattice point along the longer side of the drawing's
    box: x then y when it is wider than tall, else y then x.  A count's
    states then differ only across the shorter side, where a polyomino's
    cells in row-major order would keep a whole row open."""
    pos = g.lattice
    if not pos:
        return []
    xs, ys = zip(*pos.values())
    if max(xs) - min(xs) > max(ys) - min(ys):
        return sorted(pos, key=pos.__getitem__)
    return sorted(pos, key=lambda v: pos[v][::-1])


class _CollectorPause:
    """Holds the cyclic collector off inside ``with`` blocks.  A face is a
    frozenset of edge tuples inside a named pair, which can form no cycle,
    yet while a face list grows the collector scans it again and again and
    frees nothing.  The first of overlapping blocks, in any thread, turns the
    collector off; the last one out turns it back on, only if it was on
    when the first came in.  The lock keeps the count and that record
    consistent across threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = False

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._restore = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if not self._depth and self._restore:
                gc.enable()


_collector_paused = _CollectorPause()


def build_complex(g: PlanarGraph) -> CubicalMatchingComplex:
    """Every tiling (M, S) of g with S a set of vertex-disjoint even regions,
    in the order of :meth:`TilingFace.sort_key`, built upward from the
    perfect matchings of :func:`enumerate_perfect_matchings`.

    The tilings of S | {r}, r above every region of S, are those of S whose
    matching holds r's first alternation, with it removed.  So the sets
    come out in order of (len S, sorted S), and each set's tilings in order
    of their sorted edge lists, which removing a common edge set keeps.  A
    region that shares a vertex with S is skipped by its vertex bits.

    The whole build runs with the cyclic collector paused
    (:class:`_CollectorPause`)."""
    with _collector_paused:
        bit = {v: 1 << i for i, v in enumerate(g.vertex_ids)}
        even = [(i, r.alternations[0], sum(bit[v] for v in r.cycle))
                for i, r in enumerate(g.regions) if r.alternations]
        # (S, the vertices of S, the first index of ``even`` above S, the
        # matchings of S); the loop reads the groups it appends.
        groups = [(frozenset(), 0, 0, enumerate_perfect_matchings(g))]
        faces = []
        for s, covered, start, ms in groups:
            faces += [TilingFace(m, s) for m in ms]
            for j in range(start, len(even)):
                label, alt, mask = even[j]
                if not covered & mask:
                    up = [Matching(m - alt) for m in ms if alt <= m]
                    if up:
                        groups.append((s | {label}, covered | mask, j + 1, up))
        return CubicalMatchingComplex(g, faces)


def count_f_vector(g: PlanarGraph) -> list[int]:
    """The f-vector of C(g), ``build_complex(g).f_vector()``, counted by
    :func:`count_tilings` in the order of :func:`_counting_order` with no
    face built."""
    return count_tilings(_counting_order(g), g.adj, _even_regions(g))


def verify_edge_decomposition(g: PlanarGraph, e: Sequence[int]) -> dict:
    """Check the deletion decomposition of the complex at an outer edge e.

    With R the unique bounded region containing e = {x, y}:
      odd R:  f_i(C(G)) = f_i(C(G - {x,y})) + f_i(C(G - e))
      even R: f_i(C(G)) = f_i(C(G - {x,y})) + f_i(C(G - e)) + f_{i-1}(C(G - R))
    """
    [report] = edge_decompositions(g, [edge_key(int(e[0]), int(e[1]))])
    return report


def edge_decompositions(g: PlanarGraph, edges: Optional[Iterable[Edge]] = None,
                        f_g: Optional[list[int]] = None) -> list[dict]:
    """The report of :func:`verify_edge_decomposition` at each edge of g in
    ``edges``, by default at every edge of g that lies in one region, in
    sorted order.  ``f_g`` is the f-vector of C(G), counted here if not
    given.

    Every term is counted on one search plan of g (:func:`_counter_without`)
    and no sub-embedding is derived; f(G - R) is counted once per region R.
    """
    holding: dict[Edge, list[int]] = {}
    for i, r in enumerate(g.regions):
        for e in r.edge_set:
            holding.setdefault(e, []).append(i)
    edges = ([e for e in sorted(holding) if len(holding[e]) == 1]
             if edges is None else list(edges))
    for e in edges:
        if e not in g.edges:
            raise GraphError(f"{e} is not an edge of the graph")
        if e not in holding:
            raise GraphError(f"edge {e} borders the outer region on both sides")
        if len(holding[e]) > 1:
            raise GraphError(f"edge {e} does not lie on the outer region")
    count = _counter_without(g, holding)
    if f_g is None:
        f_g = count()
    without_region: dict[int, list[int]] = {}
    reports = []
    for e in edges:
        [r] = holding[e]
        terms = {"without_endpoints": count(e), "without_edge": count((), e)}
        if g.regions[r].alternations:
            if r not in without_region:
                without_region[r] = count(g.regions[r].cycle)
            terms["without_region_shifted"] = without_region[r]
        reports.append(_edge_report(g, e, r, f_g, terms))
    return reports


def _counter_without(g: PlanarGraph, holding: Mapping[Edge, Sequence[int]]
                     ) -> Callable[..., list[int]]:
    """The function ``count(vertices=(), edge=None)`` giving
    ``count_f_vector(g.subgraph(remove_vertices=vertices,
    remove_edges=[edge]))`` for distinct ``vertices``, every call counted on
    one search plan of g: the vertices are covered from the start, and the
    edge and the regions ``holding[edge]`` whose boundary holds it are
    dropped from the moves.  Those are the subgraph's deletions, since a
    region of g survives in it exactly when its whole boundary does.  The
    plan follows :func:`_counting_order`, and gives each vertex's bit."""
    plan, pos = _search_plan(_counting_order(g), g.adj, _even_regions(g))

    def count(vertices: Iterable[int] = (),
              edge: Optional[Edge] = None) -> list[int]:
        return count_on_plan(plan, sum(1 << pos[v] for v in vertices), edge,
                             holding.get(edge, ()))

    return count


def _edge_report(g: PlanarGraph, e: Edge, r: int, f_g: list[int],
                 terms: dict[str, list[int]]) -> dict:
    """The report of :func:`verify_edge_decomposition` for edge e in region
    r, from f(G) and the counted terms, the last shifted up one dimension."""
    even = bool(g.regions[r].alternations)
    vecs = [terms["without_endpoints"], terms["without_edge"]]
    if even:
        vecs.append([0] + terms["without_region_shifted"])
    top = max(map(len, [f_g, *vecs]))

    def padded(v: list[int]) -> list[int]:
        return v + [0] * (top - len(v))

    lhs = padded(f_g)
    rhs = [sum(c) for c in zip(*map(padded, vecs))]
    return {
        "edge": list(e),
        "region": r,
        "region_parity": "even" if even else "odd",
        "f_vector": f_g,
        "terms": terms,
        "rows": [{"i": i, "lhs": a, "rhs": b}
                 for i, (a, b) in enumerate(zip(lhs, rhs))],
        "ok": lhs == rhs,
    }
