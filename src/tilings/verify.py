"""One-shot verification suite.

Each check exercises one of the structural identities the package is built
around, over the pinned fixture corpus.  A check is a generator of cases:
it yields None for each case that holds and a witness dict for a case that
fails.  ``_check`` registers it behind one runner, which counts the cases
up to and including the first witness, stops there, and is the only code
that builds a ``CheckResult``.  ``CHECKS`` lists the checks as (check id,
function of corpus and bounds) pairs; ``run_verification`` drives the whole
catalog, and the CLI and the acceptance tests are thin wrappers over it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterator, Mapping, Optional

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
from .topology import (_certify_link, collapse_search, independence_complex,
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


class LinkModel:
    """Ind(H) for a matched-region graph H, the model of a link, with
    whether H is bipartite, and the number of connected components of
    Ind(H) (0 for an empty H), found once when first read."""

    def __init__(self, h: Mapping[int, Collection[int]]):
        self.complex = independence_complex(h)
        self.bipartite = _bipartite(h)

    @functools.cached_property
    def b0(self) -> int:
        return z2_betti(self.complex)[0] if self.complex.vertices else 0


class Corpus:
    """Fixture graphs with complexes, their components and the link models
    of their faces built on demand and cached for the run."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self._graphs: Optional[list[tuple[str, PlanarGraph]]] = None
        self._complexes: dict[str, CubicalMatchingComplex] = {}
        self._components: dict[str, list[CubicalMatchingComplex]] = {}
        self._face_models: dict[str, list[LinkModel]] = {}
        self._link_models: dict[frozenset, LinkModel] = {}

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

    def components(self, name: str, g: PlanarGraph
                   ) -> list[CubicalMatchingComplex]:
        if name not in self._components:
            self._components[name] = \
                self.complex(name, g).connected_components()
        return self._components[name]

    def link_models(self, name: str, g: PlanarGraph) -> list[LinkModel]:
        """The link model of each face of the complex, in face order, each
        face's matched-region graph built and looked up once per run."""
        if name not in self._face_models:
            k = self.complex(name, g)
            self._face_models[name] = [
                self.link_model(matched_region_graph(k, f)) for f in k.faces]
        return self._face_models[name]

    def link_model(self, h: Mapping[int, Collection[int]]) -> LinkModel:
        """The link model of a face whose matched-region graph is h, shared
        by every face whose graph has the same labelled adjacency."""
        key = frozenset((r, frozenset(nbrs)) for r, nbrs in h.items())
        if key not in self._link_models:
            self._link_models[key] = LinkModel(h)
        return self._link_models[key]


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


# -- the runner --------------------------------------------------------------------

Cases = Iterator[Optional[dict]]
Check = Callable[[Corpus, Bounds], CheckResult]

CHECKS: list[tuple[str, Check]] = []


def _check(check_id: str, statement: str
           ) -> Callable[[Callable[[Corpus, Bounds], Cases]], Check]:
    """Register a case generator in ``CHECKS`` as the check ``check_id``."""
    def register(cases: Callable[[Corpus, Bounds], Cases]) -> Check:
        @functools.wraps(cases)
        def check(corpus: Corpus, bounds: Bounds) -> CheckResult:
            checked, witness = 0, None
            for witness in cases(corpus, bounds):
                checked += 1
                if witness is not None:
                    break
            return CheckResult(check_id, statement, witness is None, checked,
                               witness)
        CHECKS.append((check_id, check))
        return check
    return register


# -- the checks --------------------------------------------------------------------


@_check("euler", "alternating sum of the f-vector equals 1 for every "
        "connected fixture complex (and the component count in general)")
def check_euler(corpus: Corpus, bounds: Bounds) -> Cases:
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if k.faces:
            comps = len(corpus.components(name, g))
            yield None if k.euler_characteristic() == comps else {
                "fixture": name, "f_vector": k.f_vector(), "components": comps}


@_check("recurrences", "enumerated ladder f-vectors satisfy the two-step "
        "recurrences, plain and bumped, inside the validity windows")
def check_recurrences(corpus: Corpus, bounds: Bounds) -> Cases:
    xp1 = Poly([1, 1])
    # f-vectors counted from the tilings, not f_polynomial: that is built
    # by the very recurrences checked here.
    fvec = _ladder_f_base
    for n in range(0, 7):
        yield None if fvec(n + 2, None) == \
            fvec(n + 1, None) + xp1 * fvec(n, None) else {
                "family": "plain", "n": n}
    top = corpus.bounds.max_ladder
    for b in range(1, top - 1):
        for n in range(b, top - 1):
            yield None if fvec(n + 2, b) == \
                fvec(n + 1, b) + xp1 * fvec(n, b) else {
                    "family": "bumped-same", "n": n, "bump": b}
    for b in range(3, top + 1):
        for n in range(b - 2, top - 1):
            yield None if fvec(n + 2, b) == \
                fvec(n + 1, b - 1) + xp1 * fvec(n, b - 2) else {
                    "family": "bumped-shift", "n": n, "bump": b}


@_check("closed-forms", "shifted polynomials match the binomial closed form, "
        "evaluate to Fibonacci numbers at 1, and count non-consecutive "
        "multiset choices coefficient-wise")
def check_closed_forms(corpus: Corpus, bounds: Bounds) -> Cases:
    for n in range(1, bounds.max_n + 1):
        p = p_polynomial(n)
        if p != p_closed_form(n):
            yield {"part": "closed-form", "n": n, "poly": list(p.coeffs)}
        else:
            yield None if p(1) == fibonacci(n + 2) else {
                "part": "fibonacci", "n": n, "value": p(1)}
    for n in range(1, corpus.bounds.max_ladder + 1):
        for bump in [None] + list(range(1, n + 1)):
            p = p_polynomial(n, bump)
            for k in range(len(p.coeffs)):
                yield None if p[k] == multiset_no_consecutive_count(
                    n, k, bump) else {
                        "part": "multiset", "n": n, "bump": bump, "k": k}


@_check("a-map", "the degree-raising map matches its signed-Catalan closed "
        "form, maps ladder polynomials two steps up, satisfies the "
        "alternating Catalan identity, and is injective")
def check_a_map(corpus: Corpus, bounds: Bounds) -> Cases:
    for d in range(0, 11):
        for k in range(d + 1):
            yield None if apply_A(d, X.shift(k - 1) if k else ONE) == \
                a_unit_closed_form(d, k) else {
                    "part": "closed-form", "d": d, "k": k}
    for d in range(1, bounds.max_d + 1):
        # Each step is one case: A_a maps P_n to P_(n+2).
        for a, n in ((d, 2 * d - 1), (d, 2 * d), (d + 1, 2 * d)):
            yield None if apply_A(a, p_raw(n)) == p_raw(n + 2) else {
                "part": "ladder-step", "d": d}
        for i in range(1, d // 2 + 1):
            for n in (2 * d - 1, 2 * d):
                yield None if apply_A(d, p_raw(n, i)) == p_raw(n + 2, i) \
                    else {"part": "bumped-step", "d": d, "i": i}
    for d in range(2, bounds.max_d + 1):
        want = (X.shift(d) + X.shift(d - 1)) * (-1) ** (d + 1)
        yield None if p_raw(2 * d + 1, d) - p_raw(2 * d + 1, d - 1) == want \
            else {"part": "adjacent-bump-difference", "d": d}
    for n in range(1, 21):
        for k in range(1, n + 1):
            lhs, rhs, equal = catalan_identity_check(n, k)
            yield None if equal else {"part": "catalan-identity", "n": n,
                                      "k": k, "lhs": lhs, "rhs": rhs}
    for d in range(0, bounds.max_d + 1):
        rows = [[a_unit_closed_form(d, k)[j] for j in range(d + 2)]
                for k in range(d + 1)]
        yield None if bareiss_rank(rows) == d + 1 else {
            "part": "injectivity", "d": d}


@_check("affine", "the designated ladder polynomials are affinely "
        "independent, and corpus f-vectors of dimension-d complexes span an "
        "affine space of dimension exactly d")
def check_affine(corpus: Corpus, bounds: Bounds) -> Cases:
    for d in range(2, 7):
        polys = [p_raw(2 * d - 1), p_raw(2 * d)]
        polys += [p_raw(2 * d - 1, i) for i in range(1, d)]
        yield None if affine_rank(polys, d) == d else {
            "part": "ladder-family", "d": d}
    by_dim: dict[int, list[Poly]] = {}
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if len(corpus.components(name, g)) == 1:
            by_dim.setdefault(k.dim, []).append(Poly(k.f_vector()))
    top = min(4, (bounds.max_ladder + 1) // 2)
    for d in range(0, top + 1):
        pts = by_dim.get(d, [])
        if len(pts) <= d:
            yield {"part": "corpus-span", "d": d, "points": len(pts),
                   "note": "too few fixtures of this dimension"}
        else:
            rank = affine_rank(pts, d)
            yield None if rank == d else {
                "part": "corpus-span", "d": d, "rank": rank}


@_check("links", "the link of every face is isomorphic to the independence "
        "complex of its matched-region graph")
def check_links(corpus: Corpus, bounds: Bounds) -> Cases:
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if len(k) > bounds.max_faces:
            continue
        for f, model in zip(k.faces, corpus.link_models(name, g)):
            try:
                _certify_link(f, link_of_face(k, f, check_model=False),
                              model.complex)
            except Exception as exc:
                yield {"fixture": name,
                       "face": {"matching": [list(e) for e in f.matching],
                                "cycles": sorted(f.cycles)},
                       "error": str(exc)}
            else:
                yield None


@_check("bipartite", "matched-region graphs of bipartite fixtures are "
        "bipartite and their links have at most two connected components")
def check_bipartite(corpus: Corpus, bounds: Bounds) -> Cases:
    for name, g in corpus.graphs():
        if not _bipartite(g.adj):
            continue
        k = corpus.complex(name, g)
        if len(k) > bounds.max_faces:
            continue
        for f, model in zip(k.faces, corpus.link_models(name, g)):
            if not model.bipartite:
                yield {"fixture": name, "part": "bipartite",
                       "cycles": sorted(f.cycles)}
                continue
            yield None if model.b0 <= 2 else {"fixture": name, "part": "b0",
                                              "b0": model.b0}


@_check("kozlov", "Z/2 homology of independence complexes of paths and "
        "cycles matches the closed-form homotopy types")
def check_kozlov(corpus: Corpus, bounds: Bounds) -> Cases:
    paths = ((n, {v: {v - 1, v + 1} & set(range(n)) for v in range(n)})
             for n in range(1, 13))
    cycles = ((n, {v: {(v - 1) % n, (v + 1) % n} for v in range(n)})
              for n in range(3, 13))
    for family, graphs in (("L", paths), ("C", cycles)):
        for n, h in graphs:
            got = z2_betti(independence_complex(h))
            yield None if got == kozlov_reference_betti(family, n) else {
                "family": family, "n": n, "betti": got}


@_check("counterexample", "the nested-squares fixture gives two contractible "
        "segments, is not collapsible, and satisfies the product identity")
def check_counterexample(corpus: Corpus, bounds: Bounds) -> Cases:
    g = figure_counterexample()
    k = build_complex(g)
    comps = k.connected_components()
    # Product identity: the reduced graph splits into a square that keeps its
    # region and a square whose region is lost to the nesting.
    reduced = build_complex(reduce_graph(g))
    product = Poly([2, 1]) * Poly([2])
    ok = (k.f_vector() == [4, 2] and len(comps) == 2
          and all(c.f_vector() == [2, 1] for c in comps)
          and all(z2_betti(c) == (1,) for c in comps)
          and collapse_search(k).status == "not_collapsible"
          and Poly(k.f_vector()) == product
          and Poly(reduced.f_vector()) == product)
    yield None if ok else {"f_vector": k.f_vector(),
                           "reduced_f_vector": reduced.f_vector()}


@_check("contractibility", "every connected component of every fixture "
        "complex has trivial reduced Z/2 homology and collapses to a point")
def check_contractibility(corpus: Corpus, bounds: Bounds) -> Cases:
    for name, g in corpus.graphs():
        for comp in corpus.components(name, g):
            betti = z2_betti(comp)
            if betti != (1,):
                yield {"fixture": name, "betti": betti}
            elif len(comp) > bounds.max_faces:
                yield None
            else:
                verdict = collapse_search(comp, budget=bounds.budget,
                                          seed=bounds.seed)
                yield None if verdict.status == "collapsible" else {
                    "fixture": name, "verdict": verdict.status,
                    "reason": verdict.reason}


@_check("decomposition", "deleting an outer edge decomposes the complex "
        "face-count exactly, on every eligible edge of every fixture")
def check_decomposition(corpus: Corpus, bounds: Bounds) -> Cases:
    for name, g in corpus.graphs():
        f_g = corpus.complex(name, g).f_vector()
        for e in sorted(g.edges):
            containing = [i for i, r in enumerate(g.regions)
                          if e in r.edge_set]
            if len(containing) != 1:
                continue
            report = _edge_decomposition(g, e, containing[0], f_g)
            yield None if report["ok"] else {
                "fixture": name, "edge": list(e), "rows": report["rows"]}


@_check("cube", "cube coordinates embed each complex into the cube: "
        "injective on vertices, each face a full geometric subcube")
def check_cube(corpus: Corpus, bounds: Bounds) -> Cases:
    for name, g in corpus.graphs():
        if len(g.regions) > bounds.max_regions:
            continue
        k = corpus.complex(name, g)
        verts = k.vertices()
        if not verts:
            continue
        coords = cube_coordinates(g, verts[0].matching)
        if len(set(coords.values())) != len(coords):
            yield {"fixture": name, "part": "injectivity"}
            continue
        yield next(({"fixture": name, "part": "subcube",
                     "cycles": sorted(f.cycles), "vertices_below": len(below)}
                    for f, below in _vertices_below(k).items()
                    if f.dim and not _is_subcube(f, below, coords)), None)


def _is_subcube(f: TilingFace, below: set[Matching],
                coords: Mapping[Matching, tuple[int, ...]]) -> bool:
    """Whether the vertices below f are the 2**dim corners of one subcube:
    pinned outside f's regions and taking every pattern on them."""
    pins = {tuple(x for i, x in enumerate(coords[m]) if i not in f.cycles)
            for m in below}
    patterns = {tuple(coords[m][i] for i in sorted(f.cycles)) for m in below}
    return len(below) == len(patterns) == 2 ** f.dim and len(pins) == 1


def _vertices_below(k: CubicalMatchingComplex
                    ) -> dict[TilingFace, set[Matching]]:
    """The matchings of the vertices below each face: a vertex has its own,
    and a face those of its facets in k, which come before it in k's order
    of dimension, so its regions are released one at a time."""
    below: dict[TilingFace, set[Matching]] = {}
    for f in k.faces:
        below[f] = set().union(*(below[g] for g in k.facets_of(f)
                                 if g in below)) if f.dim else {f.matching}
    return below


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
