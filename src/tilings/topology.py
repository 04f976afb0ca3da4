"""Independence complexes, links, Z/2 homology, and collapsibility search."""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Mapping, Optional, Union

from .complexes import CubicalMatchingComplex, TilingFace
from .planar import GraphError


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets."""

    vertices: frozenset
    facets: frozenset[frozenset]

    @staticmethod
    def from_faces(faces) -> "SimplicialComplex":
        faces = [frozenset(f) for f in faces]
        facets = [f for f in faces
                  if not any(f < other for other in faces)]
        verts = frozenset(v for f in facets for v in f)
        return SimplicialComplex(verts, frozenset(facets))

    def all_faces(self) -> list[frozenset]:
        """Every nonempty face, isolated vertices included."""
        out: set[frozenset] = set(frozenset({v}) for v in self.vertices)
        stack = list(self.facets)
        while stack:
            f = stack.pop()
            if f in out or not f:
                continue
            out.add(f)
            for v in f:
                stack.append(f - {v})
        return sorted(out, key=lambda f: (len(f), sorted(f, key=repr)))

    @property
    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)


def independence_complex(h: Mapping[object, Collection]) -> SimplicialComplex:
    """Complex of the independent vertex sets of a graph given by neighbours,
    built from its facets, the maximal independent sets.

    Bron–Kerbosch on the complement graph: ``free`` holds the later vertices
    that may still join ``chosen``, and ``done`` the earlier ones that may
    join too but whose facets with ``chosen`` were listed already.  A set is
    a facet when neither list has a vertex left, that is when every vertex
    outside it has a neighbour inside it.
    """
    facets = []

    def extend(chosen: frozenset, free: list, done: list) -> None:
        if not free and not done and chosen:
            facets.append(chosen)
        for k, v in enumerate(free):
            extend(chosen | {v}, [u for u in free[k + 1:] if v not in h[u]],
                   [u for u in done + free[:k] if v not in h[u]])

    extend(frozenset(), sorted(h, key=repr), [])
    # Every vertex lies in a facet, so the facets cover the isolated ones too.
    return SimplicialComplex(frozenset(v for f in facets for v in f),
                             frozenset(facets))


def matched_region_graph(k: CubicalMatchingComplex,
                         f: TilingFace) -> dict[int, set[int]]:
    """The subgraph of the weak dual induced on regions whose boundary
    alternates in and out of the face's matching, as neighbour sets: two
    such regions are adjacent when they share an edge."""
    if f not in k:
        raise GraphError("face does not belong to the complex")
    regions = k.graph.regions
    matched = [r for r, region in enumerate(regions)
               if any(alt <= f.matching for alt in region.alternations)]
    return {a: {b for b in matched if b != a and not
                regions[a].edge_set.isdisjoint(regions[b].edge_set)}
            for a in matched}


def link_of_face(k: CubicalMatchingComplex, f: TilingFace,
                 check_model: bool = True) -> SimplicialComplex:
    """Link of a face f = (M, S), read from the faces above it.  A co-face
    is fixed by the set T of regions it adds: its matching is M without the
    alternations of T's regions, which lie in M.  The walk goes up one
    region at a time from T = {}, keeping each state's matching edges:
    T + {r} covers T when an alternation of r lies in those edges and the
    flipped pair is a face of k.  The reached sets T with no cover are the
    facets of the link.  Flipped pairs are looked up in k; no face is built.

    The result is certified against the independence complex of the matched
    region graph; a mismatch is an invariant violation and raises.
    """
    if f not in k:
        raise GraphError("face does not belong to the complex")
    matched = [(r, alt) for r, region in enumerate(k.graph.regions)
               for alt in region.alternations if alt <= f.matching]
    seen, stack, facets = {frozenset()}, [(frozenset(), f.matching)], []
    while stack:
        t, edges = stack.pop()
        covered = False
        for r, alt in matched:
            if alt <= edges and (edges - alt, f.cycles | t | {r}) in k:
                covered, up = True, t | {r}
                if up not in seen:
                    seen.add(up)
                    stack.append((up, edges - alt))
        if not covered and t:
            facets.append(t)
    link = SimplicialComplex(frozenset(r for s in facets for r in s),
                             frozenset(facets))
    if check_model:
        _certify_link(f, link,
                      independence_complex(matched_region_graph(k, f)))
    return link


def _certify_link(f: TilingFace, link: SimplicialComplex,
                  model: SimplicialComplex) -> None:
    """Raise unless the link of f equals its independence-complex model."""
    if link.vertices != model.vertices or link.facets != model.facets:
        raise GraphError(
            f"link of {f} differs from the independence-complex model")


# -- Z/2 homology -----------------------------------------------------------------


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}  # leading bit -> pivot row
    for row in rows:
        while row:
            pivot = pivots.get(row.bit_length())
            if pivot is None:
                pivots[row.bit_length()] = row
                break
            row ^= pivot
    return len(pivots)


def _cells_and_boundaries(
        c: Union[SimplicialComplex, CubicalMatchingComplex]
) -> tuple[list, list[int], list[list[int]]]:
    """The face poset of a complex: its cells in order of dimension, their
    dimensions, and the facets of each cell as indices into the cells."""
    if isinstance(c, SimplicialComplex):
        cells = c.all_faces()
        index = {f: i for i, f in enumerate(cells)}
        facets = [[index[f - {v}] for v in f if len(f) > 1] for f in cells]
        return cells, [len(f) - 1 for f in cells], facets
    cells = list(c.faces)
    facets = [[c.position(g) for g in c.facets_of(f)] for f in cells]
    return cells, [f.dim for f in cells], facets


def z2_betti(c: Union[SimplicialComplex, CubicalMatchingComplex]
             ) -> tuple[int, ...]:
    """Unreduced Z/2 Betti numbers via boundary-matrix ranks."""
    _, dims, facets = _cells_and_boundaries(c)
    return _betti(dims, facets)


def _betti(dims: list[int], facets: list[list[int]]) -> tuple[int, ...]:
    """Z/2 Betti numbers of a face poset, its cells in order of dimension."""
    if not dims:
        return ()
    top = dims[-1]
    # Cells of dimension d are cells[start[d]:start[d + 1]].
    start = [bisect_left(dims, d) for d in range(top + 2)]
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        ranks[d] = _gf2_rank([sum(1 << j for j in facets[i]) >> start[d - 1]
                              for i in range(start[d], start[d + 1])])
    betti = [start[d + 1] - start[d] - ranks[d] - ranks[d + 1]
             for d in range(top + 1)]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


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


# -- collapsibility ----------------------------------------------------------------


@dataclass
class CollapseVerdict:
    status: str  # collapsible | not_collapsible | inconclusive
    certificate: Optional[list[tuple]] = None
    reason: Optional[str] = None
    seed: Optional[int] = None

    def serialize(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = [[_cell_label(a), _cell_label(b)]
                    for a, b in self.certificate]
        return {"status": self.status, "certificate": cert,
                "reason": self.reason, "seed": self.seed}


def _cell_label(f) -> str:
    if isinstance(f, frozenset):
        return "{" + ",".join(map(str, sorted(f, key=repr))) + "}"
    return (f"(M={f.matching.sorted_edges()}, C={sorted(f.cycles)})")


def _covers(facets: list[list[int]]) -> list[list[int]]:
    """The cells one dimension up from each cell, as indices."""
    covers: list[list[int]] = [[] for _ in facets]
    for i, fs in enumerate(facets):
        for j in fs:
            covers[j].append(i)
    return covers


def collapse_search(c: Union[SimplicialComplex, CubicalMatchingComplex],
                    budget: int = 20000,
                    seed: int = 0) -> CollapseVerdict:
    """Search for a full sequence of elementary collapses down to a point.

    Greedy lowest-dimension-first with seeded randomized restarts, plus
    exhaustive backtracking over at most ``budget`` states for complexes
    with at most 64 cells.  Obstructions (disconnected, nonzero reduced Z/2
    homology, Euler != 1) short-circuit to a negative verdict.

    The live cells always form a subcomplex, so a live cell is free (has
    exactly one live proper coface) iff it has exactly one live cover: a
    live cell two dimensions up would contain two live covers, since every
    interval of length two in a cubical or simplicial complex has two
    middle cells.
    """
    cells, dims, facets = _cells_and_boundaries(c)
    if not cells:
        return CollapseVerdict("not_collapsible", reason="empty complex")
    betti = _betti(dims, facets)
    if betti[0] > 1:
        return CollapseVerdict("not_collapsible", reason="disconnected")
    if betti != (1,):
        return CollapseVerdict("not_collapsible",
                               reason=f"nonzero reduced Z/2 homology {betti}")
    euler = sum((-1) ** d for d in dims)
    if euler != 1:
        return CollapseVerdict("not_collapsible", reason=f"Euler {euler} != 1")
    covers = _covers(facets)

    def greedy(rng: Optional[random.Random]) -> Optional[list[tuple]]:
        live = [True] * len(cells)
        count = [len(ups) for ups in covers]  # live covers of each cell
        free = {i for i, n in enumerate(count) if n == 1}
        cert = []
        for _ in range(len(cells) // 2):
            if not free:
                return None
            sigma = min(free) if rng is None else rng.choice(sorted(free))
            tau = next(j for j in covers[sigma] if live[j])
            cert.append((cells[sigma], cells[tau]))
            # sigma leaves the free set as a facet of tau.
            for gone in (sigma, tau):
                live[gone] = False
                for j in facets[gone]:
                    count[j] -= 1
                    if count[j] == 1:
                        free.add(j)
                    else:
                        free.discard(j)
        return cert

    # The greedy pass, then seeded restarts while the budget lasts; each
    # attempt spends len(cells) // 2 steps of it.
    rng = None
    for attempt in range(1 + max(0, budget - 1) // max(1, len(cells) // 2)):
        cert = greedy(rng)
        if cert is not None:
            return CollapseVerdict("collapsible", certificate=cert, seed=seed)
        rng = random.Random(f"{seed}/{attempt}")

    if len(cells) <= 64:
        cert, complete = _exhaustive_collapse(cells, facets, budget)
        if cert is not None:
            return CollapseVerdict("collapsible", certificate=cert, seed=seed)
        if complete:
            return CollapseVerdict("not_collapsible",
                                   reason="exhaustive search found no collapse")
    return CollapseVerdict("inconclusive",
                           reason="budget exhausted", seed=seed)


def _exhaustive_collapse(cells: list, facets: list[list[int]], budget: int
                         ) -> tuple[Optional[list[tuple]], bool]:
    """Depth-first search over the sets of live cells (as bit masks), each
    visited at most once and at most ``budget`` of them.  Returns a
    certificate or None, and whether the search was complete."""
    covers = _covers(facets)
    seen: set[int] = set()
    complete = True

    def rec(alive: int) -> Optional[list[tuple]]:
        nonlocal complete
        if alive & (alive - 1) == 0:
            return []  # one live cell left: a vertex, as live cells are closed
        if alive in seen:
            return None
        if len(seen) >= budget:
            complete = False
            return None
        seen.add(alive)
        for sigma in range(len(cells)):
            if not alive >> sigma & 1:
                continue
            ups = [j for j in covers[sigma] if alive >> j & 1]
            if len(ups) != 1:
                continue
            rest = rec(alive & ~(1 << sigma) & ~(1 << ups[0]))
            if rest is not None:
                return [(cells[sigma], cells[ups[0]])] + rest
        return None

    cert = rec((1 << len(cells)) - 1)
    return cert, complete


def kozlov_reference_betti(family: str, n: int) -> tuple[int, ...]:
    """Closed-form Z/2 Betti vector of the independence complex of a path
    (family 'L') or cycle (family 'C') on n vertices."""
    if family == "L":
        if n < 1:
            raise ValueError("path family needs n >= 1")
        if n % 3 == 1:
            return (1,)
        return _sphere_betti((n - 1) // 3)
    if family == "C":
        if n < 3:
            raise ValueError("cycle family needs n >= 3")
        if n % 3 == 0:
            k = n // 3
            if k - 1 == 0:
                return (3,)
            return tuple(1 if i == 0 else (2 if i == k - 1 else 0)
                         for i in range(k))
        k = (n + 1) // 3 if n % 3 == 2 else (n - 1) // 3
        return _sphere_betti(k - 1)
    raise ValueError(f"unknown family {family!r}")


def _sphere_betti(m: int) -> tuple[int, ...]:
    if m == 0:
        return (2,)
    return tuple(1 if i in (0, m) else 0 for i in range(m + 1))
