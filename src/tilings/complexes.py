"""The cubical matching complex of an embedded planar graph.

A face is a tiling: a partial matching together with a set of pairwise
vertex-disjoint even elementary regions covering the remaining vertices.
Faces are stored explicitly; instances stay small enough that brute-force
enumeration doubles as the correctness oracle for everything downstream.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .matchings import Matching, count_tilings, matchings_of_adjacency
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


class CubicalMatchingComplex:
    """Faces of the cubical complex of ``graph``, in the order given:
    :func:`build_complex` sorts them by :meth:`TilingFace.sort_key`, so by
    dimension first, and components keep that order.

    ``_index`` maps each face to its position; a face equals its (edge set,
    cycles) pair, so that pair finds it with no ``TilingFace`` built."""

    def __init__(self, graph: PlanarGraph, faces: Iterable[TilingFace]):
        self.graph = graph
        self.faces: tuple[TilingFace, ...] = tuple(faces)
        self._index = {f: i for i, f in enumerate(self.faces)}

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, f: TilingFace) -> bool:
        return f in self._index

    def position(self, f: TilingFace) -> int:
        """The index of face f in :attr:`faces`."""
        return self._index[f]

    @property
    def dim(self) -> int:
        return max((f.dim for f in self.faces), default=-1)

    def vertices(self) -> list[TilingFace]:
        return [f for f in self.faces if f.dim == 0]

    def facets_of(self, f: TilingFace) -> list[TilingFace]:
        """The 2*dim faces covered by f: region r of f released into each of
        its boundary alternations, r in order."""
        regions = self.graph.regions
        return [TilingFace(Matching(f.matching | alt), f.cycles - {r})
                for r in sorted(f.cycles) for alt in regions[r].alternations]

    def f_vector(self) -> list[int]:
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            counts[f.dim] += 1
        return counts

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.f_vector()))

    def connected_components(self) -> list["CubicalMatchingComplex"]:
        parent = list(range(len(self.faces)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # Releasing one region joins each face to two faces a dimension
        # down, so every face reaches a vertex, and each edge joins its two
        # vertices: that is all the connectivity of the complex.
        regions, index = self.graph.regions, self._index
        for i, f in enumerate(self.faces):
            if f.cycles:
                r = min(f.cycles)
                for alt in regions[r].alternations:
                    parent[find(i)] = find(
                        index[f.matching | alt, f.cycles - {r}])
        # Each component keeps the order of the faces, and the components
        # come in the order of their first faces.
        groups: dict[int, list[TilingFace]] = {}
        for i, f in enumerate(self.faces):
            groups.setdefault(find(i), []).append(f)
        if len(groups) == 1:
            return [self]
        return [CubicalMatchingComplex(self.graph, fs)
                for fs in groups.values()]

    def serialize(self) -> list[dict]:
        return [{"matching": [list(e) for e in f.matching.sorted_edges()],
                 "cycles": sorted(f.cycles)} for f in self.faces]


def _even_regions(g: PlanarGraph) -> list[tuple[int, tuple[int, ...]]]:
    return [(i, r.cycle) for i, r in enumerate(g.regions)
            if r.parity == "even"]


def build_complex(g: PlanarGraph) -> CubicalMatchingComplex:
    """Every tiling (M, S) of g with S a set of vertex-disjoint even regions,
    from the one search of :func:`matchings_of_adjacency`."""
    return CubicalMatchingComplex(g, sorted(
        (TilingFace(m, s) for m, s in
         matchings_of_adjacency(g.vertex_ids, g.adj, _even_regions(g))),
        key=TilingFace.sort_key))


def count_f_vector(g: PlanarGraph) -> list[int]:
    """The f-vector of C(g), ``build_complex(g).f_vector()``, counted by
    :func:`count_tilings` with no face built."""
    return count_tilings(g.vertex_ids, g.adj, _even_regions(g))


def verify_edge_decomposition(g: PlanarGraph, e: Sequence[int]) -> dict:
    """Check the deletion decomposition of the complex at an outer edge e.

    With R the unique bounded region containing e = {x, y}:
      odd R:  f_i(C(G)) = f_i(C(G - {x,y})) + f_i(C(G - e))
      even R: f_i(C(G)) = f_i(C(G - {x,y})) + f_i(C(G - e)) + f_{i-1}(C(G - R))
    """
    e = edge_key(int(e[0]), int(e[1]))
    if e not in g.edges:
        raise GraphError(f"{e} is not an edge of the graph")
    containing = [i for i, r in enumerate(g.regions) if e in r.edge_set]
    if len(containing) == 0:
        raise GraphError(f"edge {e} borders the outer region on both sides")
    if len(containing) > 1:
        raise GraphError(f"edge {e} does not lie on the outer region")
    return _edge_decomposition(g, e, containing[0], count_f_vector(g))


def _edge_decomposition(g: PlanarGraph, e: Edge, r: int,
                        f_g: list[int]) -> dict:
    """The report of :func:`verify_edge_decomposition` for an edge e of g
    on the outer region that lies in region r only, given the f-vector of
    C(G), so a caller checking many edges of one graph finds it once.  The
    terms are counted, not enumerated."""
    parity = g.regions[r].parity
    f_xy = count_f_vector(g.subgraph(remove_vertices=e))
    f_e = count_f_vector(g.subgraph(remove_edges=[e]))
    terms = {"without_endpoints": f_xy, "without_edge": f_e}
    if parity == "even":
        f_r = count_f_vector(
            g.subgraph(remove_vertices=g.regions[r].vertex_set))
        terms["without_region_shifted"] = f_r

    def at(vec: list[int], i: int) -> int:
        return vec[i] if 0 <= i < len(vec) else 0

    top = max([len(f_g), len(f_xy), len(f_e)]
              + ([len(terms.get("without_region_shifted", [])) + 1]
                 if parity == "even" else []))
    rows = []
    ok = True
    for i in range(top):
        rhs = at(f_xy, i) + at(f_e, i)
        if parity == "even":
            rhs += at(terms["without_region_shifted"], i - 1)
        lhs = at(f_g, i)
        rows.append({"i": i, "lhs": lhs, "rhs": rhs})
        ok = ok and lhs == rhs
    return {
        "edge": list(e),
        "region": r,
        "region_parity": parity,
        "f_vector": f_g,
        "terms": terms,
        "rows": rows,
        "ok": ok,
    }
