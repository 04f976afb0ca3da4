"""One-shot verification suite.

Each check exercises one of the structural identities the package is built
around, over the pinned fixture corpus, and reports pass/fail with a minimal
witness on failure.  ``run_verification`` drives the whole catalog; the CLI
and the acceptance tests are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Optional

from .complexes import (CubicalMatchingComplex, TilingFace,
                        _edge_decomposition, build_complex)
from .fibpoly import (ONE, Poly, X, _ladder_f_base, a_unit_closed_form,
                      affine_rank, apply_A, bareiss_rank,
                      catalan_identity_check, fibonacci,
                      multiset_no_consecutive_count, p_closed_form,
                      p_polynomial, p_raw)
from .fixtures import figure_counterexample, iter_fixture_graphs
from .matchings import Matching, cube_coordinates
from .planar import PlanarGraph, reduce_graph
from .topology import (collapse_search, independence_complex,
                       kozlov_reference_betti, link_of_face,
                       matched_region_graph, z2_betti)


@dataclass
class Bounds:
    """Size bounds for a verification run; defaults match the shipped corpus."""

    max_ladder: int = 8
    max_cells: int = 10
    max_n: int = 14
    max_d: int = 8
    max_faces: int = 5000
    max_regions: int = 12
    seed: int = 0
    random_count: int = 20
    budget: int = 20000


@dataclass
class CheckResult:
    check_id: str
    statement: str
    passed: bool
    checked: int
    witness: Optional[dict] = None

    def serialize(self) -> dict:
        return {"check": self.check_id, "statement": self.statement,
                "status": "pass" if self.passed else "fail",
                "checked": self.checked, "witness": self.witness}


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> dict:
        return {"passed": sum(r.passed for r in self.results),
                "failed": sum(not r.passed for r in self.results)}

    def serialize(self) -> dict:
        return {"checks": [r.serialize() for r in self.results],
                "summary": self.summary()}


class Corpus:
    """Fixture graphs with complexes built on demand and cached."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self._graphs: Optional[list[tuple[str, PlanarGraph]]] = None
        self._complexes: dict[str, CubicalMatchingComplex] = {}

    def graphs(self) -> list[tuple[str, PlanarGraph]]:
        if self._graphs is None:
            b = self.bounds
            self._graphs = list(iter_fixture_graphs(
                max_ladder=b.max_ladder, max_cells=b.max_cells,
                seed=b.seed, random_count=b.random_count))
        return self._graphs

    def complex(self, name: str, g: PlanarGraph) -> CubicalMatchingComplex:
        if name not in self._complexes:
            self._complexes[name] = build_complex(g)
        return self._complexes[name]


def _bipartite(adj: Mapping[object, Collection]) -> bool:
    """Whether a graph, given as neighbour collections, has a 2-colouring."""
    colour: dict = {}
    for start in adj:
        colour.setdefault(start, 0)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


# -- the checks --------------------------------------------------------------------


def check_euler(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("alternating sum of the f-vector equals 1 for every "
                 "connected fixture complex (and the component count "
                 "in general)")
    checked = 0
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if not k.faces:
            continue
        comps = k.connected_components()
        checked += 1
        if k.euler_characteristic() != len(comps):
            return CheckResult("euler", statement, False, checked,
                               {"fixture": name,
                                "f_vector": k.f_vector(),
                                "components": len(comps)})
    return CheckResult("euler", statement, True, checked)


def check_recurrences(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("enumerated ladder f-vectors satisfy the two-step "
                 "recurrences, plain and bumped, inside the validity windows")
    xp1 = Poly([1, 1])
    # Enumerated f-vectors, not f_polynomial: that is built by the very
    # recurrences checked here.
    fvec = _ladder_f_base
    checked = 0
    for n in range(0, 7):
        checked += 1
        if fvec(n + 2, None) != fvec(n + 1, None) + xp1 * fvec(n, None):
            return CheckResult("recurrences", statement, False, checked,
                               {"family": "plain", "n": n})
    top = corpus.bounds.max_ladder
    for b in range(1, top - 1):
        for n in range(b, top - 1):
            checked += 1
            if fvec(n + 2, b) != fvec(n + 1, b) + xp1 * fvec(n, b):
                return CheckResult("recurrences", statement, False, checked,
                                   {"family": "bumped-same", "n": n, "bump": b})
    for b in range(3, top + 1):
        for n in range(b - 2, top - 1):
            checked += 1
            if fvec(n + 2, b) != fvec(n + 1, b - 1) + xp1 * fvec(n, b - 2):
                return CheckResult("recurrences", statement, False, checked,
                                   {"family": "bumped-shift", "n": n, "bump": b})
    return CheckResult("recurrences", statement, True, checked)


def check_closed_forms(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("shifted polynomials match the binomial closed form, "
                 "evaluate to Fibonacci numbers at 1, and count "
                 "non-consecutive multiset choices coefficient-wise")
    checked = 0
    for n in range(1, bounds.max_n + 1):
        checked += 1
        p = p_polynomial(n)
        if p != p_closed_form(n):
            return CheckResult("closed-forms", statement, False, checked,
                               {"part": "closed-form", "n": n,
                                "poly": list(p.coeffs)})
        if p(1) != fibonacci(n + 2):
            return CheckResult("closed-forms", statement, False, checked,
                               {"part": "fibonacci", "n": n, "value": p(1)})
    for n in range(1, corpus.bounds.max_ladder + 1):
        for bump in [None] + list(range(1, n + 1)):
            p = p_polynomial(n, bump)
            for k in range(len(p.coeffs)):
                checked += 1
                if p[k] != multiset_no_consecutive_count(n, k, bump):
                    return CheckResult(
                        "closed-forms", statement, False, checked,
                        {"part": "multiset", "n": n, "bump": bump, "k": k})
    return CheckResult("closed-forms", statement, True, checked)


def check_a_map(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("the degree-raising map matches its signed-Catalan closed "
                 "form, maps ladder polynomials two steps up, satisfies the "
                 "alternating Catalan identity, and is injective")
    checked = 0
    for d in range(0, 11):
        for k in range(d + 1):
            checked += 1
            if apply_A(d, X.shift(k - 1) if k else ONE) != \
                    a_unit_closed_form(d, k):
                return CheckResult("a-map", statement, False, checked,
                                   {"part": "closed-form", "d": d, "k": k})
    for d in range(1, bounds.max_d + 1):
        checked += 3
        if apply_A(d, p_raw(2 * d - 1)) != p_raw(2 * d + 1) or \
           apply_A(d, p_raw(2 * d)) != p_raw(2 * d + 2) or \
           apply_A(d + 1, p_raw(2 * d)) != p_raw(2 * d + 2):
            return CheckResult("a-map", statement, False, checked,
                               {"part": "ladder-step", "d": d})
        for i in range(1, d // 2 + 1):
            checked += 2
            if apply_A(d, p_raw(2 * d - 1, i)) != p_raw(2 * d + 1, i) or \
               apply_A(d, p_raw(2 * d, i)) != p_raw(2 * d + 2, i):
                return CheckResult("a-map", statement, False, checked,
                                   {"part": "bumped-step", "d": d, "i": i})
    for d in range(2, bounds.max_d + 1):
        checked += 1
        want = (X.shift(d) + X.shift(d - 1)) * (-1) ** (d + 1)
        if p_raw(2 * d + 1, d) - p_raw(2 * d + 1, d - 1) != want:
            return CheckResult("a-map", statement, False, checked,
                               {"part": "adjacent-bump-difference", "d": d})
    for n in range(1, 21):
        for k in range(1, n + 1):
            checked += 1
            lhs, rhs, equal = catalan_identity_check(n, k)
            if not equal:
                return CheckResult("a-map", statement, False, checked,
                                   {"part": "catalan-identity", "n": n, "k": k,
                                    "lhs": lhs, "rhs": rhs})
    for d in range(0, bounds.max_d + 1):
        checked += 1
        rows = [[a_unit_closed_form(d, k)[j] for j in range(d + 2)]
                for k in range(d + 1)]
        if bareiss_rank(rows) != d + 1:
            return CheckResult("a-map", statement, False, checked,
                               {"part": "injectivity", "d": d})
    return CheckResult("a-map", statement, True, checked)


def check_affine(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("the designated ladder polynomials are affinely independent, "
                 "and corpus f-vectors of dimension-d complexes span an "
                 "affine space of dimension exactly d")
    checked = 0
    for d in range(2, 7):
        checked += 1
        polys = [p_raw(2 * d - 1), p_raw(2 * d)]
        polys += [p_raw(2 * d - 1, i) for i in range(1, d)]
        if affine_rank(polys, d) != d:
            return CheckResult("affine", statement, False, checked,
                               {"part": "ladder-family", "d": d})
    by_dim: dict[int, list[Poly]] = {}
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if not k.faces or len(k.connected_components()) != 1:
            continue
        by_dim.setdefault(k.dim, []).append(Poly(k.f_vector()))
    top = min(4, (bounds.max_ladder + 1) // 2)
    for d in range(0, top + 1):
        checked += 1
        pts = by_dim.get(d, [])
        if len(pts) <= d:
            return CheckResult("affine", statement, False, checked,
                               {"part": "corpus-span", "d": d,
                                "points": len(pts),
                                "note": "too few fixtures of this dimension"})
        if affine_rank(pts, d) != d:
            return CheckResult("affine", statement, False, checked,
                               {"part": "corpus-span", "d": d,
                                "rank": affine_rank(pts, d)})
    return CheckResult("affine", statement, True, checked)


def check_links(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("the link of every face is isomorphic to the independence "
                 "complex of its matched-region graph")
    checked = 0
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if len(k) > bounds.max_faces:
            continue
        for f in k.faces:
            checked += 1
            try:
                link_of_face(k, f, check_model=True)
            except Exception as exc:
                return CheckResult(
                    "links", statement, False, checked,
                    {"fixture": name,
                     "face": {"matching": [list(e) for e in f.matching],
                              "cycles": sorted(f.cycles)},
                     "error": str(exc)})
    return CheckResult("links", statement, True, checked)


def check_bipartite(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("matched-region graphs of bipartite fixtures are bipartite "
                 "and their links have at most two connected components")
    checked = 0
    for name, g in corpus.graphs():
        if not _bipartite(g.adj):
            continue
        k = corpus.complex(name, g)
        if len(k) > bounds.max_faces:
            continue
        for f in k.faces:
            checked += 1
            h = matched_region_graph(k, f)
            if not _bipartite(h):
                return CheckResult("bipartite", statement, False, checked,
                                   {"fixture": name, "part": "bipartite",
                                    "cycles": sorted(f.cycles)})
            if h:
                b0 = z2_betti(independence_complex(h))[0]
                if b0 > 2:
                    return CheckResult("bipartite", statement, False, checked,
                                       {"fixture": name, "part": "b0",
                                        "b0": b0})
    return CheckResult("bipartite", statement, True, checked)


def check_kozlov(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("Z/2 homology of independence complexes of paths and cycles "
                 "matches the closed-form homotopy types")
    checked = 0
    for n in range(1, 13):
        checked += 1
        path = {v: {v - 1, v + 1} & set(range(n)) for v in range(n)}
        got = z2_betti(independence_complex(path))
        if got != kozlov_reference_betti("L", n):
            return CheckResult("kozlov", statement, False, checked,
                               {"family": "L", "n": n, "betti": got})
    for n in range(3, 13):
        checked += 1
        cycle = {v: {(v - 1) % n, (v + 1) % n} for v in range(n)}
        got = z2_betti(independence_complex(cycle))
        if got != kozlov_reference_betti("C", n):
            return CheckResult("kozlov", statement, False, checked,
                               {"family": "C", "n": n, "betti": got})
    return CheckResult("kozlov", statement, True, checked)


def check_counterexample(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("the nested-squares fixture gives two contractible segments, "
                 "is not collapsible, and satisfies the product identity")
    g = figure_counterexample()
    k = build_complex(g)
    witness = {"f_vector": k.f_vector()}
    comps = k.connected_components()
    ok = (k.f_vector() == [4, 2] and len(comps) == 2
          and all(c.f_vector() == [2, 1] for c in comps)
          and all(z2_betti(c) == (1,) for c in comps)
          and collapse_search(k).status == "not_collapsible")
    # Product identity: the reduced graph splits into a square that keeps its
    # region and a square whose region is lost to the nesting.
    reduced = build_complex(reduce_graph(g))
    product = Poly([2, 1]) * Poly([2])
    ok = ok and Poly(k.f_vector()) == product
    ok = ok and Poly(reduced.f_vector()) == product
    witness["reduced_f_vector"] = reduced.f_vector()
    return CheckResult("counterexample", statement, ok, 1,
                       None if ok else witness)


def check_contractibility(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("every connected component of every fixture complex has "
                 "trivial reduced Z/2 homology and collapses to a point")
    checked = 0
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if not k.faces:
            continue
        for comp in k.connected_components():
            checked += 1
            if z2_betti(comp) != (1,):
                return CheckResult("contractibility", statement, False,
                                   checked, {"fixture": name,
                                             "betti": z2_betti(comp)})
            if len(comp) > bounds.max_faces:
                continue
            verdict = collapse_search(comp, budget=bounds.budget,
                                      seed=bounds.seed)
            if verdict.status != "collapsible":
                return CheckResult("contractibility", statement, False,
                                   checked, {"fixture": name,
                                             "verdict": verdict.status,
                                             "reason": verdict.reason})
    return CheckResult("contractibility", statement, True, checked)


def check_decomposition(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("deleting an outer edge decomposes the complex face-count "
                 "exactly, on every eligible edge of every fixture")
    checked = 0
    for name, g in corpus.graphs():
        f_g = corpus.complex(name, g).f_vector()
        for e in sorted(g.edges):
            containing = [i for i, r in enumerate(g.regions)
                          if e in r.edge_set]
            if len(containing) != 1:
                continue
            checked += 1
            report = _edge_decomposition(g, e, containing[0], f_g)
            if not report["ok"]:
                return CheckResult("decomposition", statement, False, checked,
                                   {"fixture": name, "edge": list(e),
                                    "rows": report["rows"]})
    return CheckResult("decomposition", statement, True, checked)


def check_cube(corpus: Corpus, bounds: Bounds) -> CheckResult:
    statement = ("cube coordinates embed each complex into the cube: "
                 "injective on vertices, each face a full geometric subcube")
    checked = 0
    for name, g in corpus.graphs():
        if len(g.regions) > bounds.max_regions:
            continue
        k = corpus.complex(name, g)
        verts = k.vertices()
        if not verts:
            continue
        coords = cube_coordinates(g, verts[0].matching)
        checked += 1
        if len(set(coords.values())) != len(coords):
            return CheckResult("cube", statement, False, checked,
                               {"fixture": name, "part": "injectivity"})
        for f, below in _vertices_below(k).items():
            if f.dim == 0:
                continue
            free = sorted(f.cycles)
            outside = [i for i in range(len(g.regions)) if i not in f.cycles]
            pins = {tuple(coords[m][i] for i in outside) for m in below}
            patterns = {tuple(coords[m][i] for i in free) for m in below}
            if (len(below) != 2 ** f.dim or len(pins) != 1
                    or len(patterns) != 2 ** f.dim):
                return CheckResult("cube", statement, False, checked,
                                   {"fixture": name, "part": "subcube",
                                    "cycles": free,
                                    "vertices_below": len(below)})
    return CheckResult("cube", statement, True, checked)


def _vertices_below(k: CubicalMatchingComplex
                    ) -> dict[TilingFace, set[Matching]]:
    """The matchings of the vertices below each face: a vertex has its own,
    and a face those of its facets in k, which come before it in k's order
    of dimension, so its regions are released one at a time."""
    below: dict[TilingFace, set[Matching]] = {}
    for f in k.faces:
        below[f] = set().union(*(below[sub] for sub in k.facets_of(f)
                                 if sub in k)) if f.dim else {f.matching}
    return below


CHECKS: list[tuple[str, Callable[[Corpus, Bounds], CheckResult]]] = [
    ("euler", check_euler),
    ("recurrences", check_recurrences),
    ("closed-forms", check_closed_forms),
    ("a-map", check_a_map),
    ("affine", check_affine),
    ("links", check_links),
    ("bipartite", check_bipartite),
    ("kozlov", check_kozlov),
    ("counterexample", check_counterexample),
    ("contractibility", check_contractibility),
    ("decomposition", check_decomposition),
    ("cube", check_cube),
]


def run_verification(scope: str = "all",
                     bounds: Optional[Bounds] = None) -> VerificationReport:
    """Run the checks whose id starts with ``scope`` ("all" runs everything)."""
    bounds = bounds or Bounds()
    corpus = Corpus(bounds)
    selected = [(cid, fn) for cid, fn in CHECKS
                if scope == "all" or cid.startswith(scope)]
    if not selected:
        raise ValueError(f"no checks match scope {scope!r}")
    report = VerificationReport()
    for _, fn in sorted(selected):
        report.results.append(fn(corpus, bounds))
    return report
