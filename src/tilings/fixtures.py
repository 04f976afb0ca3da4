"""Pinned fixture corpus: the illustration graphs, ladder families, the
polyomino zoo, and seeded random quadrilateral-glued graphs."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from .matchings import matchings_of_adjacency
from .planar import PlanarGraph, build_ladder, graph_from_cells

Cell = tuple[int, int]


def figure_g1() -> PlanarGraph:
    """Two squares joined through two apex vertices; regions A, B, C."""
    f = Fraction
    vertices = {
        0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1),
        4: (2, 0), 5: (3, 0), 6: (3, 1), 7: (2, 1),
        8: (f(3, 2), f(17, 10)),   # top apex
        9: (f(3, 2), f(-7, 10)),   # bottom apex
    }
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (2, 8), (8, 7), (1, 9), (9, 4)]
    return PlanarGraph(vertices, edges)


def figure_g2() -> PlanarGraph:
    """Two squares joined by a top edge and a two-vertex bottom path."""
    f = Fraction
    vertices = {
        0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1),
        4: (2, 0), 5: (3, 0), 6: (3, 1), 7: (2, 1),
        8: (f(4, 3), f(-7, 10)), 9: (f(5, 3), f(-7, 10)),
    }
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (2, 7), (1, 8), (8, 9), (9, 4)]
    return PlanarGraph(vertices, edges)


def figure_g3() -> PlanarGraph:
    """Two diamonds joined by a top and a bottom edge."""
    f = Fraction
    vertices = {
        0: (0, f(1, 2)), 1: (f(7, 10), f(6, 5)), 2: (f(7, 5), f(1, 2)),
        3: (f(7, 10), f(-1, 5)),
        4: (2, f(1, 2)), 5: (f(27, 10), f(6, 5)), 6: (f(17, 5), f(1, 2)),
        7: (f(27, 10), f(-1, 5)),
    }
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (1, 5), (3, 7)]
    return PlanarGraph(vertices, edges)


def figure_counterexample() -> PlanarGraph:
    """Nested squares with two corner connector edges; its complex is two
    disjoint segments and is not collapsible."""
    vertices = {
        0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4),
        4: (1, 1), 5: (3, 1), 6: (3, 3), 7: (1, 3),
    }
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (2, 6)]
    return PlanarGraph(vertices, edges)


def triangular_prism() -> PlanarGraph:
    """Prism graph embedded with a triangular outer region: one odd inner
    triangle and three quadrilaterals."""
    vertices = {
        0: (0, 3), 1: (2, 0), 2: (-2, 0),          # inner triangle
        3: (0, 6), 4: (4, -1), 5: (-4, -1),        # outer triangle
    }
    edges = [(0, 1), (1, 2), (2, 0),
             (3, 4), (4, 5), (5, 3),
             (0, 3), (1, 4), (2, 5)]
    return PlanarGraph(vertices, edges)


# -- polyomino zoo -----------------------------------------------------------------


def _orbit(cells: frozenset[Cell], w: int) -> list[int]:
    """The images of the cells under the 8 square symmetries, each moved to
    touch both axes and coded as one int with bit w*w - 1 - (r*w + c) set
    for each cell (r, c), w above every row and column.  The highest bit
    where two codes differ is the least cell in one image only, so the
    greatest code is the image whose sorted cell list is least."""
    rs, cs = zip(*cells)
    r0, r1, c0, c1 = min(rs), max(rs), min(cs), max(cs)
    down = [r - r0 for r in rs]
    up = [r1 - r for r in rs]
    right = [c - c0 for c in cs]
    left = [c1 - c for c in cs]
    top = w * w - 1
    return [sum(1 << (top - a * w - b) for a, b in zip(rows, cols))
            for rows, cols in ((down, right), (down, left), (up, right),
                               (up, left), (right, down), (right, up),
                               (left, down), (left, up))]


def _decode(code: int, w: int) -> frozenset[Cell]:
    """The cells of an :func:`_orbit` code, read from its set bits only:
    bit w*w - 1 - x stands for cell divmod(x, w)."""
    top = w * w - 1
    cells = []
    while code:
        low = code & -code
        cells.append(divmod(top + 1 - low.bit_length(), w))
        code ^= low
    return frozenset(cells)


def canonical_form(cells: frozenset[Cell]) -> frozenset[Cell]:
    """Representative of the polyomino modulo the 8 square symmetries: the
    translated image whose sorted cell list is least."""
    w = 1 + max(max(axis) - min(axis) for axis in zip(*cells))
    return _decode(max(_orbit(cells, w)), w)


def is_simply_connected(cells: frozenset[Cell]) -> bool:
    """No holes, for edge-connected cells: the closed union of the unit
    squares has Euler characteristic V - E + F = 1.  A connected plane
    union of squares has Euler characteristic 1 minus its number of holes,
    a hole counting even where it meets the outside at a corner only."""
    corners = {(r + dr, c + dc) for r, c in cells
               for dr in (0, 1) for dc in (0, 1)}
    across = {(r + dr, c) for r, c in cells for dr in (0, 1)}
    down = {(r, c + dc) for r, c in cells for dc in (0, 1)}
    return len(corners) - len(across) - len(down) + len(cells) == 1


def _child_orbit(images: list[int], r1: int, c1: int, cell: Cell,
                 w: int) -> list[int]:
    """The :func:`_orbit` codes of P | {cell}, image by image, from the
    codes ``images`` of P at width w, for P touching both axes with greatest
    row r1 and column c1 and a free neighbour ``cell`` of P.  In each image
    the new cell either lies in P's box or stretches it on one side; on a
    low side it sits at -1, and the image of P moves one step off that axis.
    """
    r, c = cell
    top = w * w - 1
    out = []
    for image, (a, b) in zip(images, (
            (r, c), (r, c1 - c), (r1 - r, c), (r1 - r, c1 - c),
            (c, r), (c, r1 - r), (c1 - c, r), (c1 - c, r1 - r))):
        da, db = a < 0, b < 0
        out.append(image >> (da * w + db) | 1 << (top - (a + da) * w - b - db))
    return out


@lru_cache(maxsize=None)
def free_polyominoes(n: int) -> tuple[frozenset[Cell], ...]:
    """All free polyominoes with exactly n cells, canonically normalized,
    in the order of their sorted cell lists.

    Each child P | {nb} of a smaller free polyomino P is looked up by its
    translated code of :func:`_orbit` (width n, above every row and
    column); the first child of each symmetry class has its 8 codes grown
    from P's (:func:`_child_orbit`), all marked seen and the greatest code,
    the least cell list, kept (Redelmeier's generate-and-canonicalise).
    P's own codes at width n are made once, for its first unseen child.
    """
    if n == 1:
        return (frozenset({(0, 0)}),)
    top = n * n - 1
    seen: set[int] = set()
    kept = []
    for smaller in free_polyominoes(n - 1):
        bits = sum(1 << (top - r * n - c) for r, c in smaller)
        images: Optional[list[int]] = None
        free = {nb for r, c in smaller
                for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1))
                if nb not in smaller}
        for nr, nc in free:
            # smaller touches both axes, so only a cell at -1 shifts it.
            dr, dc = (nr < 0), (nc < 0)
            key = bits >> (dr * n + dc) | 1 << (top - (nr + dr) * n - nc - dc)
            if key in seen:
                continue
            if images is None:
                images = _orbit(smaller, n)
                rs, cs = zip(*smaller)
                r1, c1 = max(rs), max(cs)
            orbit = _child_orbit(images, r1, c1, (nr, nc), n)
            seen.update(orbit)
            kept.append(max(orbit))
    del seen  # before the level's frozensets, to lower the peak
    kept.sort(reverse=True)
    return tuple(_decode(code, n) for code in kept)


def _has_perfect_matching(cells: frozenset[Cell]) -> bool:
    """Whether the cells have a domino tiling, by the perfect matching
    search."""
    adj = {(r, c): [nb for nb in ((r - 1, c), (r, c - 1), (r, c + 1),
                                  (r + 1, c)) if nb in cells]
           for r, c in cells}
    return bool(matchings_of_adjacency(sorted(cells), adj))


def _simply_tileable(cells: frozenset[Cell]) -> bool:
    """Whether the cells are simply connected and have a domino tiling.

    A domino covers one cell of each checkerboard colour, so cells whose
    colours differ in number are rejected first, before either search."""
    return (2 * sum((r + c) % 2 for r, c in cells) == len(cells)
            and is_simply_connected(cells) and _has_perfect_matching(cells))


@lru_cache(maxsize=None)
def polyomino_zoo(max_cells: int = 10) -> tuple[tuple[str, frozenset[Cell]], ...]:
    """Every simply-connected free polyomino with <= max_cells cells whose
    cell-adjacency graph has a perfect matching (i.e. the shape admits a
    domino tiling)."""
    zoo = []
    for n in range(2, max_cells + 1, 2):
        for i, cells in enumerate(free_polyominoes(n)):
            if _simply_tileable(cells):
                zoo.append((f"poly-{n}-{i}", cells))
    return tuple(zoo)


def random_quad_glued(seed: int, count: int = 20,
                      min_cells: int = 11, max_cells: int = 14
                      ) -> list[tuple[str, frozenset[Cell]]]:
    """Seeded random growth of cell clusters (quadrilateral-glued graphs),
    kept when simply connected and tileable; deterministic per seed."""
    rng = random.Random(seed)
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < 10000:
        attempts += 1
        size = rng.randrange(min_cells, max_cells + 1)
        if size % 2:
            size += 1
        cells = {(0, 0)}
        while len(cells) < size:
            boundary = sorted({nb for r, c in cells
                               for nb in ((r + 1, c), (r - 1, c),
                                          (r, c + 1), (r, c - 1))
                               if nb not in cells})
            cells.add(rng.choice(boundary))
        cells = frozenset(cells)
        canon = canonical_form(cells)
        if canon in seen:
            continue
        if not _simply_tileable(cells):
            continue
        seen.add(canon)
        out.append((f"random-{seed}-{len(out)}", cells))
    return out


# -- corpus iteration --------------------------------------------------------------


def named_fixture(name: str) -> PlanarGraph:
    builders = {
        "g1": figure_g1, "g2": figure_g2, "g3": figure_g3,
        "figure2": figure_counterexample, "prism": triangular_prism,
    }
    if name in builders:
        return builders[name]()
    if ladder := ladder_parameters(name):
        return build_ladder(*ladder)
    raise KeyError(f"unknown fixture {name!r}")


def ladder_parameters(name: str) -> Optional[list[Optional[int]]]:
    """[n, bump] of the fixture name ``ladder-n`` or ``ladder-n-bump``,
    each number a canonical decimal, bump None when absent; None for any
    other name."""
    match = re.fullmatch(r"ladder-(0|[1-9][0-9]*)(?:-(0|[1-9][0-9]*))?", name)
    return match and [None if p is None else int(p) for p in match.groups()]


def core_fixture_names(max_ladder: int = 8) -> list[str]:
    names = ["g1", "g2", "g3", "figure2", "prism"]
    for n in range(1, max_ladder + 1):
        names.append(f"ladder-{n}")
        for i in range(1, n + 1):
            names.append(f"ladder-{n}-{i}")
    return names


def iter_fixture_graphs(max_ladder: int = 8,
                        max_cells: int = 10,
                        seed: int = 0,
                        random_count: int = 20
                        ) -> Iterator[tuple[str, PlanarGraph]]:
    """The full fixture corpus as (name, graph) pairs."""
    for name in core_fixture_names(max_ladder):
        yield name, named_fixture(name)
    for name, cells in polyomino_zoo(max_cells):
        yield name, graph_from_cells(set(cells))
    for name, cells in random_quad_glued(seed, count=random_count):
        yield name, graph_from_cells(set(cells))
