"""Embedded planar graphs with exact coordinates.

A graph is given by a straight-line drawing: vertices carry rational
coordinates, edges are segments, and the bounded faces of the drawing are
the graph's elementary regions.  Regions may also be supplied explicitly;
they are then validated against the drawing.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Iterable, Mapping, Optional, Sequence

from .geometry import (Point, angle_less, as_point, common_lattice,
                       on_segment, point_in_polygon, segments_cross_improperly,
                       segments_intersect, signed_area2)

Edge = tuple[int, int]
LatticePoint = tuple[int, int]


class GraphError(ValueError):
    """Invalid drawing or region data; carries the offending elements."""


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Region:
    """A bounded elementary region, stored as its boundary cycle.  Its edge
    set and boundary alternations are computed once, on first use."""

    cycle: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cycle)

    @property
    def parity(self) -> str:
        return "even" if len(self.cycle) % 2 == 0 else "odd"

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.cycle)

    def _boundary(self) -> list[Edge]:
        cyc = self.cycle
        return [edge_key(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1])]

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self._boundary())

    @cached_property
    def alternations(self) -> tuple[frozenset[Edge], ...]:
        """The two perfect matchings of the boundary cycle, every other edge
        from the first and from the second; none for an odd region."""
        if len(self.cycle) % 2:
            return ()
        edges = self._boundary()
        return frozenset(edges[0::2]), frozenset(edges[1::2])


@dataclass(frozen=True)
class DualGraph:
    """Weak dual: one node per bounded region, adjacency = shared edge."""

    nodes: tuple[int, ...]
    adjacency: frozenset[tuple[int, int]]

    def neighbors(self, r: int) -> set[int]:
        return {b if a == r else a for a, b in self.adjacency if r in (a, b)}


@dataclass
class EdgeClassification:
    """forced / forbidden / free status per edge, by full enumeration."""

    status: dict[Edge, str]
    has_perfect_matching: bool


class PlanarGraph:
    """Immutable embedded planar graph.

    ``regions`` holds the tiling-eligible elementary regions.  By default
    these are all bounded faces of the drawing that are simple cycles and do
    not enclose vertices of other components; an explicit subset can be
    supplied instead.

    Positions are stored once, on an integer lattice: vertex v sits at
    ``lattice[v] / scale``, where ``scale`` is the least common multiple of
    the coordinates' denominators (a subgraph keeps its parent's scale).
    Every geometric test runs on these ints; ``coords`` gives the rational
    positions back.
    """

    def __init__(self,
                 vertices: Mapping[int, tuple],
                 edges: Iterable[Sequence[int]],
                 regions: Optional[Iterable[Sequence[int]]] = None,
                 check_crossings: bool = True):
        points = {int(v): as_point(x, y) for v, (x, y) in vertices.items()}
        self.scale, ints = common_lattice(list(points.values()))
        self.lattice: dict[int, LatticePoint] = dict(zip(points, ints))
        seen_pts = {}
        for v, p in self.lattice.items():
            if p in seen_pts:
                raise GraphError(
                    f"vertices {seen_pts[p]} and {v} coincide at {points[v]}")
            seen_pts[p] = v

        edge_set: set[Edge] = set()
        for e in edges:
            if len(e) != 2:
                raise GraphError(f"edge {list(e)} does not have two endpoints")
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u not in self.lattice or v not in self.lattice:
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
            edge_set.add(edge_key(u, v))
        self.edges: frozenset[Edge] = frozenset(edge_set)

        self.adj: dict[int, list[int]] = {v: [] for v in self.lattice}
        for u, v in sorted(self.edges):
            self.adj[u].append(v)
            self.adj[v].append(u)
        for v in self.adj:
            self.adj[v].sort()

        if check_crossings:
            self._check_noncrossing()
        faces = self._trace_faces()
        self._check_euler(faces)
        candidates = self._bounded_simple_faces(faces)

        if regions is None:
            chosen = candidates
        else:
            chosen = []
            by_edges = {r.edge_set: r for r in candidates}
            for cyc in regions:
                cyc = tuple(int(v) for v in cyc)
                reg = Region(cyc)
                if len(cyc) < 3 or len(set(cyc)) != len(cyc):
                    raise GraphError(f"region {cyc} is not a simple cycle")
                for e in reg.edge_set:
                    if e not in self.edges:
                        raise GraphError(
                            f"region {cyc} is not a cycle of edges: {e} missing")
                if reg.edge_set not in by_edges:
                    raise GraphError(
                        f"region {cyc} is not a bounded face of the drawing")
                chosen.append(by_edges[reg.edge_set])
        self.regions: tuple[Region, ...] = tuple(
            sorted(chosen, key=lambda r: sorted(r.cycle)))

    # -- construction helpers -------------------------------------------------

    def _check_noncrossing(self) -> None:
        pos = self.lattice
        es = sorted(self.edges)
        # Sweep over bounding boxes sorted by least x: two segments can only
        # meet if their boxes do, so each edge is paired with the edges whose
        # box starts before its own ends in x and overlaps it in y.
        boxes = []
        for i, (u, v) in enumerate(es):
            (x1, y1), (x2, y2) = pos[u], pos[v]
            boxes.append((min(x1, x2), max(x1, x2),
                          min(y1, y2), max(y1, y2), i))
        boxes.sort()
        pairs = []
        for k, (_, xhi, ylo, yhi, i) in enumerate(boxes):
            for m in range(k + 1, len(boxes)):
                xlo2, _, ylo2, yhi2, j = boxes[m]
                if xlo2 > xhi:
                    break
                if ylo2 <= yhi and yhi2 >= ylo:
                    pairs.append((i, j) if i < j else (j, i))
        # Test in the order of a scan over all pairs, so a bad drawing is
        # reported by the same first pair.
        pairs.sort()
        for i, j in pairs:
            a, b = es[i]
            c, d = es[j]
            shared = {a, b} & {c, d}
            pa, pb, pc, pd = pos[a], pos[b], pos[c], pos[d]
            if not shared:
                if segments_intersect(pa, pb, pc, pd):
                    raise GraphError(
                        f"edges {es[i]} and {es[j]} cross in the drawing")
            elif segments_cross_improperly(pa, pb, pc, pd, pos[shared.pop()]):
                raise GraphError(
                    f"edges {es[i]} and {es[j]} overlap in the drawing")
        # A vertex sitting in the interior of an unrelated edge also breaks
        # the drawing.  Only a vertex without edges can get here: one with
        # an edge failed the pair loop above ("cross", or "overlap" if the
        # two edges share an endpoint).
        isolated = [(w, pw) for w, pw in pos.items() if not self.adj[w]]
        for u, v in es:
            pu, pv = pos[u], pos[v]
            for w, pw in isolated:
                if on_segment(pw, pu, pv):
                    raise GraphError(f"vertex {w} lies on edge ({u},{v})")

    def _rotation(self, v: int) -> list[int]:
        pos = self.lattice
        pv = pos[v]

        def cmp(a: int, b: int) -> int:
            pa, pb = pos[a], pos[b]
            da = (pa[0] - pv[0], pa[1] - pv[1])
            db = (pb[0] - pv[0], pb[1] - pv[1])
            if da == db:
                return 0
            return -1 if angle_less(da, db) else 1

        return sorted(self.adj[v], key=cmp_to_key(cmp))

    def _trace_faces(self) -> list[tuple[int, ...]]:
        """All face walks of the embedding, one per orbit of directed edges."""
        rotation = {v: self._rotation(v) for v in self.lattice}
        index = {v: {u: i for i, u in enumerate(rot)}
                 for v, rot in rotation.items()}
        unused = {(u, v) for u, v in self.edges} | {(v, u) for u, v in self.edges}
        faces = []
        while unused:
            start = min(unused)
            walk = []
            u, v = start
            while True:
                walk.append(u)
                unused.discard((u, v))
                rot = rotation[v]
                u, v = v, rot[(index[v][u] - 1) % len(rot)]
                if (u, v) == start:
                    break
            faces.append(tuple(walk))
        return faces

    def _check_euler(self, faces: list[tuple[int, ...]]) -> None:
        comp = self.component_labels()
        ne = Counter(comp[u] for u, _ in self.edges)
        nv = Counter(comp.values())
        nf = Counter(comp[walk[0]] for walk in faces)
        for c in ne:
            if nv[c] - ne[c] + nf[c] != 2:
                raise GraphError(f"Euler formula fails on component {c}: "
                                 f"V={nv[c]} E={ne[c]} F={nf[c]}")

    def _bounded_simple_faces(self, faces: list[tuple[int, ...]]) -> list[Region]:
        comp = self.component_labels()
        regions = []
        for walk in faces:
            if len(set(walk)) != len(walk):
                continue
            poly = [self.lattice[v] for v in walk]
            if signed_area2(poly) <= 0:
                continue
            # Drop a face that geometrically encloses another component:
            # it is not a single region of the full embedding.
            c = comp[walk[0]]
            enclosed = any(
                point_in_polygon(p, poly) == 1
                for w, p in self.lattice.items() if comp[w] != c)
            if enclosed:
                continue
            regions.append(Region(walk))
        return regions

    # -- queries ---------------------------------------------------------------

    @property
    def coords(self) -> dict[int, Point]:
        """Vertex positions as exact rationals, rebuilt from the lattice."""
        s = self.scale
        return {v: (Fraction(x, s), Fraction(y, s))
                for v, (x, y) in self.lattice.items()}

    @property
    def vertex_ids(self) -> list[int]:
        return sorted(self.lattice)

    def component_labels(self) -> dict[int, int]:
        label: dict[int, int] = {}
        for v in sorted(self.lattice):
            if v in label:
                continue
            stack = [v]
            label[v] = v
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if w not in label:
                        label[w] = v
                        stack.append(w)
        return label

    def subgraph(self,
                 remove_vertices: Iterable[int] = (),
                 remove_edges: Iterable[Sequence[int]] = ()) -> "PlanarGraph":
        """Delete vertices/edges; the regions kept are those of this graph
        whose whole edge set survives.

        Deleting vertices or edges only merges faces of the drawing, so a
        region stays a face exactly when its boundary survives.  The result
        is therefore this graph filtered: no re-trace and no re-validation.
        """
        rv = set(remove_vertices)
        re = {edge_key(*e) for e in remove_edges}
        sub = object.__new__(PlanarGraph)
        sub.scale = self.scale
        sub.lattice = {v: p for v, p in self.lattice.items() if v not in rv}
        sub.edges = frozenset(e for e in self.edges if e not in re
                              and e[0] not in rv and e[1] not in rv)
        sub.adj = {v: [u for u in nbrs
                       if u not in rv and edge_key(v, u) not in re]
                   for v, nbrs in self.adj.items() if v not in rv}
        sub.regions = tuple(r for r in self.regions
                            if r.edge_set <= sub.edges)
        return sub

    def to_json_obj(self) -> dict:
        return {
            "vertices": [
                {"id": v,
                 "x": f"{p[0].numerator}/{p[0].denominator}",
                 "y": f"{p[1].numerator}/{p[1].denominator}"}
                for v, p in sorted(self.coords.items())],
            "edges": [list(e) for e in sorted(self.edges)],
            "regions": [list(r.cycle) for r in self.regions],
        }

    def __repr__(self) -> str:
        return (f"PlanarGraph(V={len(self.lattice)}, E={len(self.edges)}, "
                f"regions={len(self.regions)})")


# -- builders -------------------------------------------------------------------


def build_planar_graph(spec: Mapping) -> PlanarGraph:
    """Build a graph from the JSON object format.

    ``{"vertices": [{"id", "x", "y"}...], "edges": [[u,v]...],
    "regions": [[v1,...]...]?}`` with coordinates as "p/q" strings or numbers.
    """
    try:
        vertices = {}
        for v in spec["vertices"]:
            vid = _vertex_id(v["id"])
            if vid in vertices:
                raise GraphError(f"duplicate vertex id {vid}")
            vertices[vid] = (_coordinate(v["x"]), _coordinate(v["y"]))
        edges = [tuple(map(_vertex_id, e)) for e in spec["edges"]]
        regions = spec.get("regions")
        if regions is not None:
            regions = [tuple(map(_vertex_id, cyc)) for cyc in regions]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"malformed graph description: {exc}") from exc
    return PlanarGraph(vertices, edges, regions=regions)


# A coordinate written with exponent e is read by building 10**e, so a long
# exponent makes an unbounded run; no drawing needs one above this bound.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)")


def _coordinate(x) -> Fraction:
    text = str(x)
    exp = _EXPONENT.search(text)
    if exp and (len(exp.group(1)) > len(str(_MAX_EXPONENT))
                or int(exp.group(1)) > _MAX_EXPONENT):
        raise GraphError(f"coordinate {text[:24]!r} has an exponent above "
                         f"{_MAX_EXPONENT}")
    return Fraction(text)


def _vertex_id(x) -> int:
    if type(x) is not int:  # not a bool, a float or a string
        raise GraphError(f"vertex id {x!r} is not an integer")
    return x


def load_graph_json(path) -> PlanarGraph:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except RecursionError:
            raise GraphError("JSON nested too deeply") from None
    return build_planar_graph(spec)


def parse_polyomino(grid_text: str) -> set[tuple[int, int]]:
    """Cells of a polyomino from text: '#' marks a cell, '.'/' ' is empty."""
    cells = set()
    for r, line in enumerate(grid_text.splitlines()):
        for c, ch in enumerate(line):
            if ch == "#":
                cells.add((r, c))
            elif ch not in ". ":
                raise GraphError(f"unexpected character {ch!r} in grid")
    if not cells:
        raise GraphError("polyomino has no cells")
    return cells


def cells_connected(cells: set[tuple[int, int]]) -> bool:
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


def graph_from_cells(cells: set[tuple[int, int]]) -> PlanarGraph:
    """Cell-adjacency graph: one vertex per cell at its integer center."""
    if not cells_connected(cells):
        raise GraphError("polyomino cells are not edge-connected")
    order = sorted(cells)
    ids = {cell: i for i, cell in enumerate(order)}
    vertices = {i: (Fraction(c), Fraction(-r)) for (r, c), i in ids.items()}
    edges = []
    for (r, c), i in ids.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in ids:
                edges.append((i, ids[nb]))
    return PlanarGraph(vertices, edges)


def build_from_polyomino(grid_text: str) -> PlanarGraph:
    return graph_from_cells(parse_polyomino(grid_text))


def build_ladder(n: int, bump: Optional[int] = None) -> PlanarGraph:
    """The 2x(n+1) grid graph (a row of n unit squares), optionally with one
    extra square glued below square ``bump``."""
    if n < 1:
        raise GraphError("ladder size must be >= 1")
    vertices = {}
    edges = []
    for col in range(n + 1):
        bot, top = 2 * col, 2 * col + 1
        vertices[bot] = (Fraction(col), Fraction(0))
        vertices[top] = (Fraction(col), Fraction(1))
        edges.append((bot, top))
        if col > 0:
            edges.append((bot - 2, bot))
            edges.append((top - 2, top))
    if bump is not None:
        if not 1 <= bump <= n:
            raise GraphError(f"bump position {bump} out of range 1..{n}")
        b0, b1 = 2 * (n + 1), 2 * (n + 1) + 1
        vertices[b0] = (Fraction(bump - 1), Fraction(-1))
        vertices[b1] = (Fraction(bump), Fraction(-1))
        edges += [(b0, b1), (2 * (bump - 1), b0), (2 * bump, b1)]
    return PlanarGraph(vertices, edges)


# -- dual, edge classification, reduction ----------------------------------------


def weak_dual(g: PlanarGraph) -> DualGraph:
    rs = g.regions
    return DualGraph(tuple(range(len(rs))), frozenset(
        (i, j) for i in range(len(rs)) for j in range(i + 1, len(rs))
        if not rs[i].edge_set.isdisjoint(rs[j].edge_set)))


def classify_edges(g: PlanarGraph) -> EdgeClassification:
    from .matchings import enumerate_perfect_matchings

    matchings = enumerate_perfect_matchings(g)
    if not matchings:
        return EdgeClassification({e: "forbidden" for e in g.edges}, False)
    count: dict[Edge, int] = {e: 0 for e in g.edges}
    for m in matchings:
        for e in m:
            count[e] += 1
    total = len(matchings)
    status = {}
    for e, c in count.items():
        status[e] = "forced" if c == total else "forbidden" if c == 0 else "free"
    return EdgeClassification(status, True)


def reduce_graph(g: PlanarGraph) -> PlanarGraph:
    """Delete forbidden edges, and forced edges with their endpoints, until
    every remaining edge is free.  Regions of the result are exactly the
    surviving regions of the input: faces created by the deletions cannot be
    used in any tiling and are excluded."""
    current = g
    while True:
        cls = classify_edges(current)
        if not cls.has_perfect_matching:
            raise GraphError("graph has no perfect matching")
        forbidden = [e for e, s in cls.status.items() if s == "forbidden"]
        forced = [e for e, s in cls.status.items() if s == "forced"]
        if not forbidden and not forced:
            return current
        current = current.subgraph(
            remove_vertices={v for e in forced for v in e},
            remove_edges=forbidden)
