"""Spans and counts around the public functions of `tilings`, from outside.

``Tracer.install`` replaces each traced function, wherever a `tilings`
module holds a reference to it, by a wrapper that records a span (name,
parent span, start and end in nanoseconds).  A call into a layer from inside
the same layer is part of the open span and records nothing, so recursion
and nested entry points are counted once.  Spans stay in memory; ``report``
turns them into self times, and ``write`` stores them at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

ROOT = "workload"

# Layer name, then the functions and methods timed under it, each given as
# "module:attribute" or "module:Class.method".
SPANS = {
    "fixtures.corpus": ["fixtures:iter_fixture_graphs"],
    "planar.build": ["planar:PlanarGraph.__init__"],
    "planar.subgraph": ["planar:PlanarGraph.subgraph", "planar:reduce_graph"],
    "matchings.enumerate": ["matchings:enumerate_perfect_matchings",
                            "matchings:matchings_of_adjacency"],
    "matchings.cube": ["matchings:cube_coordinates"],
    "complexes.build": ["complexes:build_complex"],
    "complexes.components":
        ["complexes:CubicalMatchingComplex.connected_components"],
    "complexes.decomposition": ["complexes:verify_edge_decomposition"],
    "topology.betti": ["topology:z2_betti"],
    "topology.collapse": ["topology:collapse_search"],
    "topology.links": ["topology:link_of_face"],
    "topology.independence": ["topology:independence_complex",
                              "topology:matched_region_graph"],
    "fibpoly": [f"fibpoly:{name}" for name in (
        "catalan", "f_polynomial", "p_polynomial", "p_raw", "p_closed_form",
        "apply_A", "a_unit_closed_form", "catalan_identity_check",
        "affine_rank", "bareiss_rank", "multiset_no_consecutive_count",
        "fibonacci")],
    "verify.corpus": ["verify:Corpus.graphs"],
}

# Geometric predicates counted (not timed) where `planar` calls them.
PREDICATES = ["segments_intersect", "segments_cross_improperly", "on_segment",
              "angle_less", "point_in_polygon"]

# The twelve checks of `tilings verify`, by check id.
CHECK_IDS = ["a-map", "affine", "bipartite", "closed-forms", "contractibility",
             "counterexample", "cube", "decomposition", "euler", "kozlov",
             "links", "recurrences"]


def _cells(args) -> int | None:
    # A cubical complex has a length; a simplicial one is counted through
    # the all_faces hook while its span is open.
    c = args[0]
    return len(c) if hasattr(c, "__len__") else None


# Span name -> (count name, function of (args, result) giving the count).
COUNTS = {
    "planar.build": ("planar.builds", lambda a, r: 1),
    "planar.subgraph": ("planar.subgraphs", lambda a, r: 1),
    "matchings.enumerate": ("matchings.found", lambda a, r: len(r)),
    "complexes.build": ("complexes.faces", lambda a, r: len(r)),
    "topology.betti": ("topology.betti_cells", lambda a, r: _cells(a)),
    "topology.collapse": ("topology.collapse_cells", lambda a, r: _cells(a)),
    "topology.links": ("topology.links", lambda a, r: 1),
}
for _cid in CHECK_IDS:
    COUNTS[f"verify.{_cid}"] = (f"verify.{_cid}_cases",
                                lambda a, r: r.checked)

SELF_TIMES = list(SPANS) + [f"verify.{cid}" for cid in CHECK_IDS]
COUNT_NAMES = (["geometry.predicate_calls"]
               + sorted({name for name, _ in COUNTS.values()}))


def metric_name(span: str) -> str:
    """The per-layer metric of a span's self time."""
    return "fibpoly.s" if span == "fibpoly" else f"{span}_s"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def span(self, name: str, fn):
        """Run ``fn()`` inside a span of its own."""
        sid, parent = self._open(name)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.span(name, lambda: next(it))
                    except StopIteration:
                        return
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid, parent = tracer._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if count is not None:
                n = count[1](args, result)
                if n is not None:
                    tracer.counts[count[0]] += n
            return result
        return traced

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["geometry.predicate_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _all_faces(self, fn):
        tracer = self
        cell_count = {"topology.betti": "topology.betti_cells",
                      "topology.collapse": "topology.collapse_cells"}

        @functools.wraps(fn)
        def all_faces(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer._stack and tracer._stack[-1][1] in cell_count:
                tracer.counts[cell_count[tracer._stack[-1][1]]] += len(result)
            return result
        return all_faces

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every loaded `tilings` module."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "tilings" or name.startswith("tilings.")}
        for name, targets in SPANS.items():
            for target in targets:
                mod_name, path = target.split(":")
                owner = mods[f"tilings.{mod_name}"]
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    self._set(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        planar = mods["tilings.planar"]
        for attr in PREDICATES:
            self._set(planar, attr, self._counted(getattr(planar, attr)))
        simplicial = mods["tilings.topology"].SimplicialComplex
        self._set(simplicial, "all_faces",
                  self._all_faces(simplicial.__dict__["all_faces"]))
        verify = mods["tilings.verify"]
        checks = list(verify.CHECKS)
        verify.CHECKS[:] = [(cid, self._wrap(f"verify.{cid}", fn))
                            for cid, fn in checks]
        self._undo.append((verify.CHECKS, None, checks))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict[str, float | int]:
        """Self time of every layer (seconds) and every count."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            covered[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for sid, parent, name, start, end in self.spans:
            self_ns[name] += end - start - covered[sid]
        out: dict[str, float | int] = {
            metric_name(name): self_ns.get(name, 0) / 1e9
            for name in SELF_TIMES}
        for name in COUNT_NAMES:
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path) -> None:
        """JSON lines: the field names, one array per span, then the counts."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start_ns",
                                 "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
