"""The cubical matching complex of an embedded planar graph.

A face is a tiling: a partial matching together with a set of pairwise
vertex-disjoint even elementary regions covering the remaining vertices.
Faces are stored explicitly, each as two ints: its edge code (bit i for
edge i of the graph's ``edge_list``) and its region code, bit r for region r.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import groupby, repeat
from typing import (Callable, Iterable, Mapping, NamedTuple, Optional,
                    Sequence, Union)

from .matchings import (Matching, _search_plan, count_on_plan,
                        count_tilings, matchings_of_adjacency, set_bits)
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


def _face_code(g: PlanarGraph, f) -> Optional[tuple[int, int]]:
    """The two codes of a face or pair; None if g lacks an edge or region."""
    try:
        edges, cycles = f
        c = sum(1 << r for r in set(cycles))
        even = all(map(g.alternation_codes.__getitem__, set_bits(c)))
        return (g.edge_code(edges), c) if even else None
    except (IndexError, KeyError, TypeError, ValueError):
        return None


class CubicalMatchingComplex:
    """Faces of the cubical complex of ``graph``, sorted stably by dimension:
    within one they keep the order given, which :func:`build_complex` makes
    that of :meth:`TilingFace.sort_key`.  Its readers read runs of this
    order, and ``topology`` slices cells by dimension.

    The faces are given as :class:`TilingFace` objects or (edges, cycles)
    pairs, or as ``codes``: the lists of their edge and region codes, which
    the complex keeps and the package reads; ``faces`` decodes them."""

    def __init__(self, graph: PlanarGraph, faces: Iterable[TilingFace] = (),
                 codes: Optional[tuple[list[int], list[int]]] = None):
        if codes is None:
            pairs = []
            for f in faces:
                if (code := _face_code(graph, f)) is None:
                    raise GraphError(f"{f} is not a face of the graph")
                pairs.append(code)
            pairs.sort(key=lambda code: code[1].bit_count())
            codes = [e for e, _ in pairs], [c for _, c in pairs]
        self.graph = graph
        self._edges, self._cycles = codes

    @cached_property
    def faces(self) -> tuple[TilingFace, ...]:
        """The faces as :class:`TilingFace` objects, decoded on first read."""
        return tuple(self._decoded(range(len(self))))

    def _decoded(self, positions: Iterable[int]) -> list[TilingFace]:
        """The faces at these positions; a face's matching is the one above
        it less its last region's first alternation, if made, else decoded."""
        g, made, out = self.graph, {}, []
        for c, run in groupby(positions, self._cycles.__getitem__):
            es, r = [self._edges[i] for i in run], c.bit_length() - 1
            a, alt = (g.alternation_codes[r][0], g.regions[r].alternations[0]
                      ) if c else (0, frozenset())
            ms = [Matching(m - alt)
                  if not e & a and (m := made.get(e | a)) is not None
                  else Matching.from_code(e, g) for e in es]
            made.update(zip(es, ms))
            out += map(TilingFace, ms, repeat(frozenset(set_bits(c))))
        return out

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return dict(zip(zip(self._edges, self._cycles), range(len(self))))

    def _at(self, edges: int, cycles: int) -> Optional[int]:
        """The position of the face with these codes, or None."""
        return self._index.get((edges, cycles))

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, f: TilingFace) -> bool:
        return self._index.get(_face_code(self.graph, f)) is not None

    def position(self, f: Union[TilingFace, int]) -> int:
        """The index of face f in :attr:`faces`; f may be that index."""
        i = f if type(f) is int and 0 <= f < len(self) else \
            self._index.get(_face_code(self.graph, f))
        if i is None:
            raise GraphError("face does not belong to the complex")
        return i

    @property
    def dim(self) -> int:
        return self._cycles[-1].bit_count() if self._cycles else -1

    def _start(self, d: int) -> int:
        """The position of the first face of dimension at least d."""
        return bisect_left(self._cycles, d, key=int.bit_count)

    def vertices(self) -> list[TilingFace]:
        return self._decoded(range(self._start(1)))

    def _facets(self, i: int) -> list[int]:
        """The positions of the 2*dim faces covered by face i: each region r
        of it, r in order, released into each of its alternations."""
        e, c = self._edges[i], self._cycles[i]
        alts, index = self.graph.alternation_codes, self._index
        return [index[e | a, c ^ 1 << r] for r in set_bits(c)
                for a in alts[r]]

    def facets_of(self, f: TilingFace) -> list[TilingFace]:
        """The 2*dim facets of f, decoded alone until ``faces`` is read."""
        at, faces = self._facets(self.position(f)), self.__dict__.get("faces")
        return self._decoded(at) if faces is None else [faces[j] for j in at]

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
        union-find over the vertices.  A 1-face (M, {r}) joins M + a0 to
        M + a1, a0 and a1 the alternations of r."""
        alts, one, two = self.graph.alternation_codes, self._start(1), \
            self._start(2)
        if one == 1:
            return [self]
        edges, cycles = self._edges, self._cycles
        at = {m: i for i, m in enumerate(edges[:one])}
        parent = list(range(one))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        count = one
        for e, c in zip(edges[one:two], cycles[one:two]):
            a, b = (find(at[e | alt]) for alt in alts[c.bit_length() - 1])
            if a != b:
                parent[a] = b
                count -= 1
        if count == 1:
            return [self]
        # Release each region of a face into its first alternation: a vertex.
        groups: dict[int, list[int]] = {}
        for i, (e, c) in enumerate(zip(edges, cycles)):
            for r in set_bits(c):
                e |= alts[r][0]
            groups.setdefault(find(at[e]), []).append(i)
        return [CubicalMatchingComplex(self.graph, codes=(
            [edges[i] for i in group], [cycles[i] for i in group]))
            for group in groups.values()]


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


def build_complex(g: PlanarGraph) -> CubicalMatchingComplex:
    """Every tiling (M, S) of g with S a set of vertex-disjoint even regions,
    in the order of :meth:`TilingFace.sort_key`, built upward from the codes
    of the perfect matchings that :func:`matchings_of_adjacency` lists.

    The tilings of S + {r}, r above every region of S, are those of S whose
    matching holds r's first alternation, with it removed.  So the sets
    come out in order of (len S, sorted S), and each set's tilings in order
    of their sorted edge lists, which removing a common edge set keeps.  A
    region that shares a vertex with S is skipped by its vertex bits."""
    vertex = {v: 1 << i for i, v in enumerate(g.vertex_ids)}
    even = [(i, alts[0], sum(vertex[v] for v in g.regions[i].cycle))
            for i, alts in enumerate(g.alternation_codes) if alts]
    # (S, the vertices of S, the first index of ``even`` above S, the
    # matchings of S); the loop reads the groups it appends.
    groups = [(0, 0, 0, matchings_of_adjacency(g.vertex_ids, g.adj))]
    edges, cycles = [], []
    for s, covered, start, ms in groups:
        edges += ms
        cycles += [s] * len(ms)
        for j in range(start, len(even)):
            label, alt, mask = even[j]
            if not covered & mask:
                up = [m ^ alt for m in ms if m & alt == alt]
                if up:
                    groups.append((s | 1 << label, covered | mask, j + 1, up))
    return CubicalMatchingComplex(g, codes=(edges, cycles))


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
    one search plan of g in :func:`_counting_order`: the vertices are
    covered from the start, and the edge and the regions ``holding[edge]``
    whose boundary holds it, which the subgraph loses, leave the moves."""
    plan, pos = _search_plan(_counting_order(g), g.adj, _even_regions(g))

    def count(vertices: Iterable[int] = (),
              edge: Optional[Edge] = None) -> list[int]:
        return count_on_plan(plan, sum(1 << pos[v] for v in vertices),
                             sum(1 << pos[v] for v in edge or ()),
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
