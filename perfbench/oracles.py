"""Reference results computed apart from the `tilings` package.

Nothing here imports `tilings`.  The benchmark checks the program's outputs
against these functions:

- ``tiling_counts``: the broken-profile transfer-matrix count of the tilings
  of a polyomino by dominoes and 2x2 squares, by number of squares
  (Klarner-Pollack 1980; Stanley, EC1 section 4.7).  For a simply connected
  polyomino its list equals the f-vector of the cubical matching complex of
  the cell-adjacency graph.
- ``kozlov_betti``: the unreduced Z/2 Betti vectors of the independence
  complexes of paths and cycles, from Kozlov's homotopy types (Kozlov 1999).
- ``independence_facets`` / ``matched_region_model``: the independence
  complex model that every link must equal.
"""

from __future__ import annotations

from collections import defaultdict

Cell = tuple[int, int]

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def tiling_counts(cells) -> list[int]:
    """Number of tilings of ``cells`` with exactly i 2x2 squares, for each i.

    Cells are visited in row-major order over the bounding box.  The state
    is a bitmask of the next ``width + 2`` cells that earlier pieces already
    cover, together with the number of squares placed so far.  Trailing
    zeros are dropped, so an untileable shape gives ``[]``.
    """
    cells = set(cells)
    if not cells:
        return []
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    shape = {(r - r0, c - c0) for r, c in cells}
    rows = 1 + max(r for r, _ in shape)
    width = 1 + max(c for _, c in shape)
    below = 1 << width
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for r in range(rows):
        for c in range(width):
            inside = (r, c) in shape
            right = c + 1 < width and (r, c + 1) in shape
            down = (r + 1, c) in shape
            block = right and down and (r + 1, c + 1) in shape
            nxt: dict[tuple[int, int], int] = defaultdict(int)
            for (mask, squares), n in states.items():
                if not inside or mask & 1:
                    nxt[(mask >> 1, squares)] += n
                    continue
                if right and not mask & 2:
                    nxt[((mask | 2) >> 1, squares)] += n
                    if block:
                        full = mask | 2 | below | below << 1
                        nxt[(full >> 1, squares + 1)] += n
                if down:
                    nxt[((mask | below) >> 1, squares)] += n
            states = nxt
    out: dict[int, int] = defaultdict(int)
    for (mask, squares), n in states.items():
        if mask == 0:
            out[squares] += n
    counts = [out.get(i, 0) for i in range(max(out, default=-1) + 1)]
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def is_connected(cells) -> bool:
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for dr, dc in _STEPS:
            nb = (r + dr, c + dc)
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def is_simply_connected(cells) -> bool:
    """Edge-connected with no holes: the empty cells of the enlarged
    bounding box are all edge-connected to its border."""
    cells = set(cells)
    if not cells or not is_connected(cells):
        return False
    lo_r = min(r for r, _ in cells) - 1
    hi_r = max(r for r, _ in cells) + 1
    lo_c = min(c for _, c in cells) - 1
    hi_c = max(c for _, c in cells) + 1
    seen = {(lo_r, lo_c)}
    stack = [(lo_r, lo_c)]
    while stack:
        r, c = stack.pop()
        for dr, dc in _STEPS:
            nb = (r + dr, c + dc)
            if (lo_r <= nb[0] <= hi_r and lo_c <= nb[1] <= hi_c
                    and nb not in cells and nb not in seen):
                seen.add(nb)
                stack.append(nb)
    box = (hi_r - lo_r + 1) * (hi_c - lo_c + 1)
    return len(seen) + len(cells) == box


def rectangle(rows: int, cols: int) -> frozenset[Cell]:
    return frozenset((r, c) for r in range(rows) for c in range(cols))


def to_text(cells) -> str:
    """A polyomino as text rows, '#' for a cell and '.' for a gap."""
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    rows = 1 + max(r for r, _ in cells) - r0
    cols = 1 + max(c for _, c in cells) - c0
    return "\n".join(
        "".join("#" if (r + r0, c + c0) in cells else "." for c in range(cols))
        for r in range(rows)) + "\n"


# -- independence complexes ---------------------------------------------------


def independence_facets(nodes, edges) -> frozenset[frozenset]:
    """Maximal independent sets of a simple graph (Bron-Kerbosch on the
    complement, which needs no pivoting at these sizes)."""
    nodes = list(nodes)
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = set()

    def grow(chosen: frozenset, candidates: set, excluded: set) -> None:
        if not candidates and not excluded:
            out.add(chosen)
            return
        for v in sorted(candidates):
            grow(chosen | {v}, candidates - adj[v] - {v},
                 excluded - adj[v] - {v})
            candidates = candidates - {v}
            excluded = excluded | {v}

    grow(frozenset(), set(nodes), set())
    return frozenset(f for f in out if f)


def matched_region_model(regions, matching_edges, region_edges):
    """Vertices and facets of the link model of a face: the independence
    complex of the graph on the regions whose boundary alternates in and
    out of the face's matching, two regions adjacent when they share an
    edge.

    ``regions`` are boundary cycles (vertex tuples), ``region_edges`` their
    edge sets as frozensets of 2-element frozensets, ``matching_edges`` a
    set of 2-element frozensets.
    """
    alternating = []
    for i, cyc in enumerate(regions):
        n = len(cyc)
        if n % 2:
            continue
        flags = [frozenset((cyc[j], cyc[(j + 1) % n])) in matching_edges
                 for j in range(n)]
        if (all(flags[::2]) and not any(flags[1::2])) or \
                (all(flags[1::2]) and not any(flags[::2])):
            alternating.append(i)
    pairs = [(a, b) for k, a in enumerate(alternating)
             for b in alternating[k + 1:]
             if region_edges[a] & region_edges[b]]
    return frozenset(alternating), independence_facets(alternating, pairs)


# -- Kozlov 1999 --------------------------------------------------------------


def _sphere(m: int) -> tuple[int, ...]:
    """Unreduced Z/2 Betti vector of the m-sphere."""
    return (2,) if m == 0 else (1,) + (0,) * (m - 1) + (1,)


def _two_spheres(m: int) -> tuple[int, ...]:
    """Unreduced Z/2 Betti vector of a wedge of two m-spheres."""
    return (3,) if m == 0 else (1,) + (0,) * (m - 1) + (2,)


def kozlov_betti(family: str, n: int) -> tuple[int, ...]:
    """Kozlov's homotopy types of Ind(P_n) and Ind(C_n), as Betti vectors.

    Path on n vertices: n = 3k-1 or n = 3k gives S^(k-1); n = 3k+1 gives a
    contractible complex.  Cycle on n vertices: n = 3k gives a wedge of two
    copies of S^(k-1); n = 3k+1 gives S^(k-1); n = 3k+2 gives S^k.
    """
    k, rest = divmod(n, 3)
    if family == "path":
        if rest == 1:
            return (1,)
        return _sphere(k - 1 if rest == 0 else k)
    if family == "cycle":
        if rest == 0:
            return _two_spheres(k - 1)
        return _sphere(k - 1 if rest == 1 else k)
    raise ValueError(f"unknown family {family!r}")
