"""Independence complexes, links, Z/2 homology, and collapsibility search."""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Collection, Mapping, Optional, Union

from .complexes import (CubicalMatchingComplex, TilingFace, face_leq,
                        region_alternations)
from .matchings import Matching
from .planar import GraphError, weak_dual


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
    """Complex of the independent vertex sets of a graph given by neighbours."""
    faces = []

    def extend(chosen: frozenset, rest: list) -> None:
        for k, v in enumerate(rest):
            if any(u in h[v] for u in chosen):
                continue
            faces.append(chosen | {v})
            extend(chosen | {v}, rest[k + 1:])

    extend(frozenset(), sorted(h, key=repr))
    # Every vertex is a face, so the facets cover the isolated vertices too.
    return SimplicialComplex.from_faces(faces)


_dual_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def matched_region_graph(k: CubicalMatchingComplex,
                         f: TilingFace) -> dict[int, set[int]]:
    """The subgraph of the weak dual induced on regions whose boundary
    alternates in and out of the face's matching, as neighbour sets."""
    if f not in k:
        raise GraphError("face does not belong to the complex")
    g = k.graph
    out: dict[int, set[int]] = {
        r: set() for r, region in enumerate(g.regions)
        if region.parity == "even"
        and any(alt <= f.matching.edges for alt in region_alternations(g, r))}
    dual = _dual_cache.get(g)
    if dual is None:
        dual = weak_dual(g)
        _dual_cache[g] = dual
    for a, b in dual.adjacency:
        if a in out and b in out:
            out[a].add(b)
            out[b].add(a)
    return out


def link_of_face(k: CubicalMatchingComplex, f: TilingFace,
                 check_model: bool = True) -> SimplicialComplex:
    """Link of a face, computed from co-faces of one dimension up.

    The result is certified against the independence complex of the matched
    region graph; a mismatch is an invariant violation and raises.
    """
    if f not in k:
        raise GraphError("face does not belong to the complex")
    cofaces = [c for c in k.faces
               if c.dim == f.dim + 1 and face_leq(f, c, k.graph)]
    # Each co-face adds exactly one region on top of f's cycle set.
    label = {c: next(iter(c.cycles - f.cycles)) for c in cofaces}
    faces = []
    for subset in _subsets(cofaces):
        if not subset:
            continue
        regions = f.cycles | {label[c] for c in subset}
        drop = frozenset(e for c in subset
                         for e in f.matching.edges - c.matching.edges)
        candidate = TilingFace(Matching(f.matching.edges - drop), regions)
        if candidate in k:
            faces.append(frozenset(label[c] for c in subset))
    link = SimplicialComplex(frozenset(label[c] for c in cofaces),
                             SimplicialComplex.from_faces(faces).facets
                             if faces else frozenset())
    if check_model:
        model = independence_complex(matched_region_graph(k, f))
        if link.vertices != model.vertices or link.facets != model.facets:
            raise GraphError(
                f"link of {f} differs from the independence-complex model")
    return link


def _subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield [items[i] for i in range(n) if mask >> i & 1]


# -- Z/2 homology -----------------------------------------------------------------


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
            rank += 1
    return rank


def _cells_and_boundaries(
        c: Union[SimplicialComplex, CubicalMatchingComplex]
) -> tuple[list, dict, dict]:
    """Uniform cell-poset view: (cells, dim map, codim-1 boundary map)."""
    if isinstance(c, SimplicialComplex):
        cells = c.all_faces()
        dim = {f: len(f) - 1 for f in cells}
        bnd = {f: [f - {v} for v in f if len(f) > 1] for f in cells}
        return cells, dim, bnd
    cells = list(c.faces)
    dim = {f: f.dim for f in cells}
    bnd = {f: c.facets_of(f) for f in cells}
    return cells, dim, bnd


def z2_betti(c: Union[SimplicialComplex, CubicalMatchingComplex]
             ) -> tuple[int, ...]:
    """Unreduced Z/2 Betti numbers via boundary-matrix ranks."""
    cells, dim, bnd = _cells_and_boundaries(c)
    if not cells:
        return ()
    top = max(dim.values())
    by_dim: dict[int, list] = {d: [] for d in range(top + 1)}
    for f in cells:
        by_dim[dim[f]].append(f)
    index = {d: {f: i for i, f in enumerate(by_dim[d])} for d in by_dim}
    ranks = {}
    for d in range(1, top + 1):
        rows = []
        for f in by_dim[d]:
            mask = 0
            for sub in bnd[f]:
                mask ^= 1 << index[d - 1][sub]
            rows.append(mask)
        ranks[d] = _gf2_rank(rows)
    betti = []
    for d in range(top + 1):
        b = len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        betti.append(b)
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def boundary_of_boundary_vanishes(
        c: Union[SimplicialComplex, CubicalMatchingComplex]) -> bool:
    cells, dim, bnd = _cells_and_boundaries(c)
    for f in cells:
        acc: dict = {}
        for sub in bnd[f]:
            for sub2 in bnd.get(sub, []):
                acc[sub2] = acc.get(sub2, 0) ^ 1
        if any(acc.values()):
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


def collapse_search(c: Union[SimplicialComplex, CubicalMatchingComplex],
                    budget: int = 20000,
                    seed: int = 0) -> CollapseVerdict:
    """Search for a full sequence of elementary collapses down to a point.

    Greedy lowest-dimension-first with seeded randomized restarts, plus
    exhaustive backtracking for complexes with at most 64 cells.  Obstructions
    (disconnected, nonzero reduced Z/2 homology, Euler != 1) short-circuit to
    a negative verdict.
    """
    cells, dim, bnd = _cells_and_boundaries(c)
    if not cells:
        return CollapseVerdict("not_collapsible", reason="empty complex")
    betti = z2_betti(c)
    if betti[0] > 1:
        return CollapseVerdict("not_collapsible", reason="disconnected")
    if betti != (1,):
        return CollapseVerdict("not_collapsible",
                               reason=f"nonzero reduced Z/2 homology {betti}")
    euler = sum((-1) ** dim[f] for f in cells)
    if euler != 1:
        return CollapseVerdict("not_collapsible", reason=f"Euler {euler} != 1")
    if len(cells) == 1:
        return CollapseVerdict("collapsible", certificate=[], seed=seed)

    order = {f: i for i, f in enumerate(cells)}
    # Full proper-coface lists via upward closure of the cover relation.
    covers_up: dict = {f: set() for f in cells}
    for f in cells:
        for sub in bnd[f]:
            covers_up[sub].add(f)
    cofaces: dict = {}
    for f in sorted(cells, key=lambda f: -dim[f]):
        acc = set(covers_up[f])
        for g in covers_up[f]:
            acc |= cofaces[g]
        cofaces[f] = acc
    subfaces: dict = {f: set() for f in cells}
    for f, ups in cofaces.items():
        for g in ups:
            subfaces[g].add(f)

    def greedy(rng: Optional[random.Random]) -> Optional[list[tuple]]:
        alive = set(cells)
        up_alive = {f: set(cofaces[f]) for f in cells}
        cert = []
        while len(alive) > 1:
            free = [f for f in alive if len(up_alive[f]) == 1]
            if not free:
                return None
            if rng is None:
                sigma = min(free, key=lambda f: (dim[f], order[f]))
            else:
                sigma = rng.choice(free)
            tau = next(iter(up_alive[sigma]))
            for gone in (sigma, tau):
                alive.discard(gone)
                for sub in subfaces[gone]:
                    up_alive[sub].discard(gone)
            cert.append((sigma, tau))
        last = next(iter(alive))
        return cert if dim[last] == 0 else None

    steps_budget = budget
    cert = greedy(None)
    if cert is not None:
        return CollapseVerdict("collapsible", certificate=cert, seed=seed)
    steps_budget -= len(cells) // 2
    attempt = 0
    while steps_budget > 0:
        rng = random.Random((seed, attempt))
        cert = greedy(rng)
        if cert is not None:
            return CollapseVerdict("collapsible", certificate=cert, seed=seed)
        steps_budget -= len(cells) // 2
        attempt += 1

    if len(cells) <= 64:
        cert = _exhaustive_collapse(cells, dim, cofaces, subfaces)
        if cert is not None:
            return CollapseVerdict("collapsible", certificate=cert, seed=seed)
        return CollapseVerdict("not_collapsible",
                               reason="exhaustive search found no collapse")
    return CollapseVerdict("inconclusive",
                           reason="budget exhausted", seed=seed)


def _exhaustive_collapse(cells, dim, cofaces, subfaces):
    idx = {f: i for i, f in enumerate(cells)}
    full = (1 << len(cells)) - 1
    seen: set[int] = set()

    def rec(alive_mask: int, alive: set) -> Optional[list[tuple]]:
        if alive_mask in seen:
            return None
        if len(alive) == 1:
            last = next(iter(alive))
            return [] if dim[last] == 0 else None
        seen.add(alive_mask)
        for sigma in sorted(alive, key=lambda f: idx[f]):
            ups = [g for g in cofaces[sigma] if g in alive]
            if len(ups) != 1:
                continue
            tau = ups[0]
            alive2 = alive - {sigma, tau}
            mask2 = alive_mask & ~(1 << idx[sigma]) & ~(1 << idx[tau])
            rest = rec(mask2, alive2)
            if rest is not None:
                return [(sigma, tau)] + rest
        return None

    return rec(full, set(cells))


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
