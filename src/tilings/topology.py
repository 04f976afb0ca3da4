"""Independence complexes, links, Z/2 homology, and collapsibility search."""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Mapping, Optional, Union

from .complexes import CubicalMatchingComplex, TilingFace
from .matchings import set_bits
from .planar import GraphError


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets."""

    vertices: frozenset
    facets: frozenset[frozenset]

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


def independence_complex(h: Mapping[object, Collection]) -> SimplicialComplex:
    """Complex of the independent vertex sets of a graph given by neighbours,
    built from its facets, the maximal independent sets.

    Bron–Kerbosch on the complement graph: ``free`` holds the later vertices
    that may still join ``chosen``, and ``done`` the earlier ones that may
    join too but whose facets with ``chosen`` were listed already.  A set is
    a facet when neither list has a vertex left, that is when every vertex
    outside it has a neighbour inside it.  Triples to extend wait on a list.
    """
    facets = []
    frames = [(frozenset(), sorted(h, key=repr), [])]
    while frames:
        chosen, free, done = frames.pop()
        if not free and not done and chosen:
            facets.append(chosen)
        for k, v in enumerate(free):
            frames.append((chosen | {v},
                           [u for u in free[k + 1:] if v not in h[u]],
                           [u for u in done + free[:k] if v not in h[u]]))
    # Every vertex lies in a facet, so the facets cover the isolated ones too.
    return SimplicialComplex(frozenset(v for f in facets for v in f),
                             frozenset(facets))


def _matched_regions(k: CubicalMatchingComplex, i: int
                     ) -> tuple[int, tuple[int, ...]]:
    """The matched-region graph of face i of k as ints: the code of the
    regions whose boundary alternates in and out of its matching, and each
    such region's neighbours among them as a code, in region order."""
    m, mask, near = k._edges[i], 0, []
    for bit, a, b, nbrs in k.graph.even_region_codes:
        if m & a == a or m & b == b:
            mask |= bit
            near.append(nbrs)
    return mask, tuple(n & mask for n in near)


def _region_graph(mask: int, near: tuple[int, ...]) -> dict[int, set[int]]:
    """The neighbour sets of a graph on regions given as by
    :func:`_matched_regions`."""
    return {r: set(set_bits(n)) for r, n in zip(set_bits(mask), near)}


def matched_region_graph(k: CubicalMatchingComplex,
                         f: Union[TilingFace, int]) -> dict[int, set[int]]:
    """The subgraph of the weak dual induced on regions whose boundary
    alternates in and out of the matching of face f of k (or at position
    f), as neighbour sets: two are adjacent when they share an edge."""
    return _region_graph(*_matched_regions(k, k.position(f)))


def link_of_face(k: CubicalMatchingComplex, f: Union[TilingFace, int],
                 check_model: bool = True) -> SimplicialComplex:
    """Link of a face f = (M, S) of k, or of the face at position f, read
    from the faces above it.  A co-face is fixed by the set T of regions it
    adds: its matching is M without the alternations of T's regions.  The
    walk goes up one region at a time from T = {}, keeping each state's
    matching code: T + {r} covers T when an alternation of r lies in it and
    the flipped pair of codes is a face of k.  The reached sets T with no
    cover are the facets of the link.  No face is decoded.

    The result is certified against the independence complex of the matched
    region graph; a mismatch is an invariant violation and raises.
    """
    i, at = k.position(f), k._at
    edges, cycles = k._edges[i], k._cycles[i]
    matched = [(1 << r, alt) for r, alts in enumerate(
        k.graph.alternation_codes) for alt in alts if edges & alt == alt]
    seen, stack, facets = {0}, [(0, edges)], []
    while stack:
        t, m = stack.pop()
        covered = False
        for r, alt in matched:
            if m & alt == alt and at(m ^ alt, cycles | t | r) is not None:
                covered, up = True, t | r
                if up not in seen:
                    seen.add(up)
                    stack.append((up, m ^ alt))
        if not covered and t:
            facets.append(frozenset(set_bits(t)))
    link = SimplicialComplex(frozenset(r for s in facets for r in s),
                             frozenset(facets))
    if check_model:
        _certify_link(k, i, link,
                      independence_complex(matched_region_graph(k, i)))
    return link


def _certify_link(k: CubicalMatchingComplex, i: int, link: SimplicialComplex,
                  model: SimplicialComplex) -> None:
    """Raise, naming face i of k, unless its link equals its model."""
    if link != model:
        raise GraphError(f"link of {k.faces[i]} differs from the "
                         "independence-complex model")


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
    dimensions, and the facets of each cell as indices into the cells.  The
    cells of a cubical complex are the positions of its faces."""
    if isinstance(c, SimplicialComplex):
        cells = c.all_faces()
        index = {f: i for i, f in enumerate(cells)}
        facets = [[index[f - {v}] for v in f if len(f) > 1] for f in cells]
        return cells, [len(f) - 1 for f in cells], facets
    facets = list(map(c._facets, range(len(c))))
    return list(range(len(c))), list(map(int.bit_count, c._cycles)), facets


def z2_betti(c: Union[SimplicialComplex, CubicalMatchingComplex]
             ) -> tuple[int, ...]:
    """Unreduced Z/2 Betti numbers via boundary-matrix ranks."""
    _, dims, facets = _cells_and_boundaries(c)
    return _betti(dims, facets)


def _betti(dims: list[int], facets: list[list[int]]) -> tuple[int, ...]:
    """Z/2 Betti numbers of a face poset, its cells in order of dimension as
    every complex keeps them, so that each dimension is one slice."""
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


# -- collapsibility ----------------------------------------------------------------


@dataclass
class CollapseVerdict:
    status: str  # collapsible | not_collapsible | inconclusive
    # The pairs (sigma, tau) collapsed; face positions for a cubical complex.
    certificate: Optional[list[tuple]] = None
    reason: Optional[str] = None


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

    Obstructions (empty, disconnected, nonzero reduced Z/2 homology) give a
    negative verdict.  Otherwise a greedy pass collapses the lowest free
    cell first, then seeded randomized restarts run while ``budget`` lasts;
    if none collapses, the verdict is inconclusive and names the passes made
    and the live cells, by dimension, that the first pass left.

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
    covers = _covers(facets)
    steps = len(cells) // 2  # a full collapse leaves one vertex

    def greedy(rng: Optional[random.Random]) -> tuple[list[tuple], list[bool]]:
        """The pairs collapsed, and which cells are live when it stops."""
        live = [True] * len(cells)
        count = [len(ups) for ups in covers]  # live covers of each cell
        free = {i for i, n in enumerate(count) if n == 1}
        cert = []
        while free and len(cert) < steps:
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
        return cert, live

    # Each pass spends ``steps`` of the budget.
    passes = 1 + max(0, budget - 1) // max(1, steps)
    rng = None
    for attempt in range(passes):
        cert, live = greedy(rng)
        if len(cert) == steps:
            return CollapseVerdict("collapsible", certificate=cert)
        if attempt == 0:
            left = [0] * (dims[-1] + 1)
            for d, alive in zip(dims, live):
                left[d] += alive
        rng = random.Random(f"{seed}/{attempt}")
    return CollapseVerdict("inconclusive", reason=(
        f"greedy passes: {passes}; live cells by dimension after the "
        f"first: {left}"))


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
