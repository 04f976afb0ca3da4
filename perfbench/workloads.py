"""The benchmark's workloads: inputs built from a seed, one timed round, and
the oracle checks of a round's outputs.

Every call into the program goes through an attribute of the `tilings`
package or one of its modules, looked up at call time, so that a tracer
installed on those modules sees it.  A round returns plain data; checks
compare that data with `oracles`, which does not import `tilings`.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import tilings
import tilings.fixtures
import tilings.verify

import oracles

# The `tilings complex` defaults for collapse search, used by the checks.
COLLAPSE_BUDGET = 20000
COLLAPSE_SEED = 0


@dataclass
class Round:
    """What one pass over a workload's inputs produced."""

    outputs: list
    attempted: int
    failed: int
    units: int
    # Wall time of each timed call, in the same order in every round.
    times: list


@dataclass
class Shape:
    name: str
    cells: frozenset
    text: str = field(init=False)

    def __post_init__(self):
        self.text = oracles.to_text(self.cells)


def _fat_polyomino(rng: random.Random, n_cells: int, width: int) -> frozenset:
    """A union of 2x2 blocks grown from one block, at most ``width`` wide."""
    cells = {(0, 0), (0, 1), (1, 0), (1, 1)}
    while len(cells) < n_cells:
        r, c = rng.choice(sorted(cells))
        r += rng.randrange(-2, 2)
        c += rng.randrange(-2, 2)
        grown = cells | {(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)}
        if max(c for _, c in grown) - min(c for _, c in grown) < width:
            cells = grown
    return frozenset(cells)


def seeded_shapes(seed: int, n_cells: int, width: int, lo: int, hi: int,
                  count: int, total: int) -> list[Shape]:
    """``count`` simply connected fat polyominoes chosen by the seed.

    Shapes are drawn until ``4 * count`` of them have complexes with
    between ``lo`` and ``hi`` faces (by the transfer-matrix count).  Of
    those, the ``count`` whose face counts add up closest to ``total`` are
    kept.  So every seed gives different shapes but nearly the same work.
    """
    rng = random.Random(seed)
    pool = []
    while len(pool) < 4 * count:
        cells = _fat_polyomino(rng, n_cells, width)
        if len(cells) % 2 or not oracles.is_simply_connected(cells):
            continue
        faces = sum(oracles.tiling_counts(cells))
        if lo <= faces <= hi:
            pool.append((faces, cells))
    best = min(itertools.combinations(pool, count),
               key=lambda group: abs(sum(f for f, _ in group) - total))
    return [Shape(f"fat-{seed}-{i}", cells)
            for i, (_, cells) in enumerate(best)]


def clear_caches() -> None:
    """Empty the program's memo tables, as in a fresh `tilings` process,
    and collect the last round's garbage, so that every round starts from
    the same heap."""
    for mod in (tilings.fibpoly, tilings.fixtures, tilings.verify):
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    gc.collect()


# -- verify ------------------------------------------------------------------


class Verify:
    """`tilings verify`: run_verification("all") at the default bounds."""

    def __init__(self, seed: int, small: bool = False):
        if small:
            self.bounds = tilings.verify.Bounds(
                seed=seed, max_ladder=3, max_cells=6, random_count=2,
                max_n=5, max_d=3)
        else:
            self.bounds = tilings.verify.Bounds(seed=seed)

    def round(self) -> Round:
        start = time.perf_counter()
        report = tilings.verify.run_verification("all", self.bounds)
        elapsed = time.perf_counter() - start
        outputs = [(r.check_id, r.passed, r.checked) for r in report.results]
        return Round(outputs, attempted=len(outputs),
                     failed=sum(not passed for _, passed, _ in outputs),
                     units=sum(checked for _, _, checked in outputs),
                     times=[elapsed])

    def check(self, outputs) -> list[str]:
        errors = []
        if len(outputs) != 12:
            errors.append(f"{len(outputs)} checks ran, not 12")
        for cid, passed, _ in outputs:
            if not passed:
                errors.append(f"check {cid} failed")
        return errors + self.check_fixtures() + self.check_kozlov()

    def check_fixtures(self) -> list[str]:
        """The ladder and polyomino fixtures of the corpus, rebuilt from
        their cells after the run: every f-vector equals the transfer-matrix
        count, with alternating sum 1 and one component; on the ladders
        without a bump, Betti vector (1,), a collapsible verdict, and every
        link equal to its model."""
        b = self.bounds
        shapes = [(name, _ladder_cells(name))
                  for name in tilings.fixtures.core_fixture_names(b.max_ladder)
                  if name.startswith("ladder-")]
        shapes += tilings.fixtures.polyomino_zoo(b.max_cells)
        shapes += tilings.fixtures.random_quad_glued(b.seed,
                                                     count=b.random_count)
        errors = []
        for name, cells in shapes:
            g = _graph_of_cells(cells)
            k = tilings.build_complex(g)
            f_vector = k.f_vector()
            if f_vector != oracles.tiling_counts(cells):
                errors.append(f"{name}: f-vector {f_vector} != "
                              f"{oracles.tiling_counts(cells)}")
            if _alternating_sum(f_vector) != 1 \
                    or len(k.connected_components()) != 1:
                errors.append(f"{name}: not one contractible component")
            if name.startswith("ladder-") and name.count("-") == 1:
                errors += [f"{name}: {e}" for e in _check_topology(g, k)]
        return errors

    def check_kozlov(self) -> list[str]:
        """Z/2 Betti vectors of Ind(P_n) and Ind(C_n) against Kozlov."""
        import networkx as nx  # the input type of independence_complex

        errors = []
        for family, make, sizes in (("path", nx.path_graph, range(1, 13)),
                                    ("cycle", nx.cycle_graph, range(3, 13))):
            for n in sizes:
                got = tilings.z2_betti(tilings.independence_complex(make(n)))
                if got != oracles.kozlov_betti(family, n):
                    errors.append(f"Ind({family} {n}): Betti {got} != "
                                  f"{oracles.kozlov_betti(family, n)}")
        return errors


def _alternating_sum(f_vector) -> int:
    return sum((-1) ** i * n for i, n in enumerate(f_vector))


def _ladder_cells(name: str) -> frozenset:
    """The cells of fixture ``ladder-n`` or ``ladder-n-bump``: a 2 x (n+1)
    block, with two more cells below square ``bump``."""
    n, *bump = (int(p) for p in name.split("-")[1:])
    cells = {(r, c) for r in (0, 1) for c in range(n + 1)}
    for b in bump:
        cells |= {(2, b - 1), (2, b)}
    return frozenset(cells)


def _check_topology(g, k) -> list[str]:
    errors = []
    if tilings.z2_betti(k) != (1,):
        errors.append(f"Betti numbers {tilings.z2_betti(k)}")
    verdict = tilings.collapse_search(k, budget=COLLAPSE_BUDGET,
                                      seed=COLLAPSE_SEED)
    if verdict.status != "collapsible":
        errors.append(f"collapse verdict {verdict.status}")
    regions = [r.cycle for r in g.regions]
    region_edges = [frozenset(frozenset((c[j], c[(j + 1) % len(c)]))
                              for j in range(len(c))) for c in regions]
    for f in k.faces:
        link = tilings.link_of_face(k, f, check_model=False)
        model = oracles.matched_region_model(
            regions, {frozenset(e) for e in f.matching.edges}, region_edges)
        if (link.vertices, link.facets) != model:
            errors.append(f"link of {f.matching.sorted_edges()} differs "
                          "from its model")
    return errors


def _graph_of_cells(cells):
    """The corpus graph of a polyomino, built without the crossing check:
    cells are unit-grid points, so no two edges can cross."""
    order = sorted(cells)
    ids = {cell: i for i, cell in enumerate(order)}
    vertices = {i: (Fraction(c), Fraction(-r)) for (r, c), i in ids.items()}
    edges = [(i, ids[nb]) for (r, c), i in ids.items()
             for nb in ((r, c + 1), (r + 1, c)) if nb in ids]
    return tilings.PlanarGraph(vertices, edges, check_crossings=False)


# -- grid-complex ------------------------------------------------------------


class GridComplex:
    """`tilings complex` on polyominoes: text to graph, complex, f-vector,
    Euler characteristic and components."""

    # Rectangles, then (n_cells, width, lo, hi, count, total) for the
    # seeded shapes.  Every shape takes well under half a second and a round
    # under two, so a run times each shape some thirty times (see
    # run.best_wall).
    FULL = ([(4, 6), (3, 10)], (30, 6, 2_000, 6_000, 3, 12_000))
    SMALL = ([(3, 4)], (16, 4, 50, 400, 1, 200))

    def __init__(self, seed: int, small: bool = False):
        rects, fat = self.SMALL if small else self.FULL
        self.shapes = [Shape(f"rect-{r}x{c}", oracles.rectangle(r, c))
                       for r, c in rects] + seeded_shapes(seed, *fat)

    def round(self) -> Round:
        outputs, times = [], []
        failed = units = 0
        for shape in self.shapes:
            start = time.perf_counter()
            try:
                g = tilings.build_from_polyomino(shape.text)
                k = tilings.build_complex(g)
                outputs.append((k.f_vector(), k.euler_characteristic(),
                                len(k.connected_components())))
                units += len(k)
            except Exception:  # any exception is a failed operation
                outputs.append(None)
                failed += 1
            times.append(time.perf_counter() - start)
        return Round(outputs, len(self.shapes), failed, units, times)

    def check(self, outputs) -> list[str]:
        errors = []
        for shape, out in zip(self.shapes, outputs):
            if out is None:
                continue
            f_vector, euler, components = out
            want = oracles.tiling_counts(shape.cells)
            if f_vector != want:
                errors.append(f"{shape.name}: f-vector {f_vector} != {want}")
            if _alternating_sum(f_vector) != 1 or euler != 1:
                errors.append(f"{shape.name}: Euler characteristic {euler}")
            if components != 1:
                errors.append(f"{shape.name}: {components} components")
        return errors


WORKLOADS = {"verify": Verify, "grid-complex": GridComplex}
