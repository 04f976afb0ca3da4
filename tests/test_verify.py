import ast
import inspect
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (face_leq, matched_region_graph_by_definition,
                       polyominoes)
from tilings import topology, verify
from tilings.complexes import CubicalMatchingComplex, build_complex
from tilings.fixtures import named_fixture
from tilings.planar import build_ladder, graph_from_cells
from tilings.topology import (independence_complex, matched_region_graph,
                              z2_betti)
from tilings.verify import (CHECKS, Bounds, CheckResult, Corpus, _bipartite,
                            check_contractibility, check_counterexample,
                            check_cube, check_euler, check_kozlov,
                            run_verification)

SMALL = Bounds(max_ladder=3, max_cells=4, random_count=2)


def test_small_run_all_pass():
    report = run_verification("all", SMALL)
    assert report.ok
    assert report.summary() == {"passed": 12, "failed": 0}
    ids = [r.check_id for r in report.results]
    assert ids == sorted(ids)


def test_scope_selects_prefix():
    report = run_verification("koz", SMALL)
    assert [r.check_id for r in report.results] == ["kozlov"]
    with pytest.raises(ValueError, match="no checks match"):
        run_verification("nonsense", SMALL)


def test_serialization_shape():
    report = run_verification("counterexample", SMALL)
    data = report.serialize()
    assert data["summary"] == {"passed": 1, "failed": 0}
    entry = data["checks"][0]
    assert entry["status"] == "pass" and entry["witness"] is None


def test_fault_injection_produces_witness():
    # Corrupt one fixture: empty the square's region list.  Its two
    # matchings then both map to the empty coordinate vector, so the cube
    # embedding check must fail with a targeted witness.
    corpus = Corpus(SMALL)
    graphs = corpus.graphs()
    from tilings.planar import PlanarGraph
    idx = next(i for i, (name, _) in enumerate(graphs)
               if name == "ladder-1")
    g = graphs[idx][1]
    broken = PlanarGraph(g.coords, g.edges, regions=[])
    graphs[idx] = ("ladder-1", broken)
    result = check_cube(corpus)
    assert not result.passed
    assert result.witness == {"fixture": "ladder-1", "part": "injectivity"}
    # ladder-1 is the sixth fixture, and the cases up to the failing one
    # count.
    assert result.checked == 6


def test_corrupted_complex_fails_euler():
    # Drop the square of ladder-3 from its cached complex: the f-vector
    # [5, 5, 1] becomes [5, 5], one component with Euler characteristic 0.
    corpus = Corpus(SMALL)
    name, g = next((n, g) for n, g in corpus.graphs() if n == "ladder-3")
    k = corpus.complex(name, g)
    corpus._complexes[name] = CubicalMatchingComplex(g, k.faces[:-1])
    result = check_euler(corpus)
    assert not result.passed
    assert result.witness == {"fixture": "ladder-3", "f_vector": [5, 5],
                              "components": 1}
    assert result.checked == 11


def test_contractibility_names_a_hollow_component():
    # ladder-3 without its 2-face is a hollow square: put it after the
    # fixture's own component, and the one collapse search reports its
    # Betti numbers.
    corpus = Corpus(SMALL)
    graphs = corpus.graphs()
    idx = next(i for i, (name, _) in enumerate(graphs) if name == "ladder-3")
    name, g = graphs[idx]
    hollow = CubicalMatchingComplex(g, corpus.complex(name, g).faces[:-1])
    assert z2_betti(hollow) == (1, 1)
    corpus._components[name] = [*corpus.components(name, g), hollow]
    result = check_contractibility(corpus)
    assert not result.passed
    assert result.witness == {
        "fixture": "ladder-3", "verdict": "not_collapsible",
        "reason": "nonzero reduced Z/2 homology (1, 1)"}
    assert result.checked == 2 + sum(
        len(corpus.components(n, h)) for n, h in graphs[:idx])


def test_contractibility_builds_each_poset_once(monkeypatch):
    calls = []
    original = topology._cells_and_boundaries
    monkeypatch.setattr(topology, "_cells_and_boundaries",
                        lambda c: calls.append(c) or original(c))

    def no_betti(c):
        raise AssertionError("z2_betti called")

    monkeypatch.setattr(topology, "z2_betti", no_betti)
    monkeypatch.setattr(verify, "z2_betti", no_betti)
    corpus = Corpus(SMALL)
    comps = [c for name, g in corpus.graphs()
             for c in corpus.components(name, g)]
    result = check_contractibility(corpus)
    assert result.passed and result.checked == len(comps)
    assert calls == comps


def test_corpus_computes_components_once(monkeypatch):
    calls = []
    original = CubicalMatchingComplex.connected_components
    monkeypatch.setattr(CubicalMatchingComplex, "connected_components",
                        lambda k: calls.append(k) or original(k))
    corpus = Corpus(SMALL)
    checks = dict(CHECKS)
    for check_id in ("euler", "affine", "contractibility"):
        assert checks[check_id](corpus).passed
    assert len(calls) == len(corpus.graphs())


def test_checks_report_case_counts():
    corpus = Corpus(SMALL)
    assert check_kozlov(corpus).checked == 22
    assert check_counterexample(corpus).checked == 1
    assert check_cube(corpus).checked > 0


def _check_result_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "CheckResult" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]


def test_only_the_runner_builds_check_results():
    package = Path(verify.__file__).parent
    calls = {path.name: len(_check_result_calls(ast.parse(path.read_text())))
             for path in sorted(package.glob("*.py"))}
    assert {name: n for name, n in calls.items() if n} == {"verify.py": 1}
    tree = ast.parse(Path(verify.__file__).read_text())
    runner = next(fn for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_check")
    assert len(_check_result_calls(runner)) == 1


def test_checks_are_plain_functions_returning_their_results():
    corpus = Corpus(SMALL)
    assert len(CHECKS) == 12
    for check_id, fn in CHECKS:
        assert isinstance(check_id, str)
        assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
        result = fn(corpus)
        assert isinstance(result, CheckResult)
        assert result.check_id == check_id


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    h = nx.empty_graph(n)
    h.add_edges_from(edges)
    return h


@settings(max_examples=300, deadline=None)
@given(random_graphs())
def test_two_colouring_matches_networkx(h):
    assert _bipartite({v: set(h[v]) for v in h}) == nx.is_bipartite(h)


def test_corpus_builds_each_link_model_once(monkeypatch):
    calls = []
    original = verify.independence_complex
    monkeypatch.setattr(verify, "independence_complex",
                        lambda h: calls.append(h) or original(h))
    corpus = Corpus(SMALL)
    checks = dict(CHECKS)
    links = checks["links"](corpus)
    bipartite = checks["bipartite"](corpus)
    assert links.passed and bipartite.passed
    assert len(calls) == len(corpus._link_models) < links.checked
    keys = {frozenset((r, frozenset(nbrs)) for r, nbrs in h.items())
            for h in calls}
    assert len(keys) == len(calls)


def assert_models_follow_graph_keys(corpus):
    """Every face's model is Ind of its matched-region graph, and two faces
    share a model exactly when their graphs, keyed as frozensets of
    (region, neighbours) pairs, are equal."""
    by_key = {}
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        for i, model in enumerate(corpus.link_models(name, g)):
            h = matched_region_graph(k, i)
            assert h == matched_region_graph_by_definition(k, i)
            assert model.complex == independence_complex(h)
            assert corpus.link_model(h) is model
            key = frozenset((r, frozenset(nbrs)) for r, nbrs in h.items())
            assert by_key.setdefault(key, model) is model
    assert len(set(map(id, by_key.values()))) == len(by_key)


def test_link_models_follow_graph_keys_on_the_small_corpus():
    assert_models_follow_graph_keys(Corpus(SMALL))


def test_link_models_follow_graph_keys_on_the_figures():
    corpus = Corpus(SMALL)
    corpus._graphs = [(name, named_fixture(name))
                      for name in ("g1", "g2", "g3", "figure2", "prism")]
    assert_models_follow_graph_keys(corpus)


@settings(max_examples=60, deadline=None)
@given(polyominoes())
def test_link_models_follow_graph_keys_on_polyominoes(cells):
    corpus = Corpus(SMALL)
    corpus._graphs = [("shape", graph_from_cells(set(cells)))]
    assert_models_follow_graph_keys(corpus)


def test_corrupted_link_model_fails_links():
    corpus = Corpus(SMALL)
    name, g = corpus.graphs()[0]
    k = corpus.complex(name, g)
    f = k.faces[0]
    corpus.link_model(matched_region_graph(k, f)).complex = \
        independence_complex({99: set()})
    result = dict(CHECKS)["links"](corpus)
    assert not result.passed and result.checked == 1
    assert result.witness == {
        "fixture": name,
        "face": {"matching": [list(e) for e in f.matching],
                 "cycles": sorted(f.cycles)},
        "error": f"link of {f} differs from the independence-complex model"}


def test_links_fail_on_a_complex_without_a_face():
    # The 2x4 block without its one 2-dimensional face: the first face
    # whose link misses it is reported, and it lies below the dropped face.
    g = build_ladder(3)
    k = build_complex(g)
    top = k.faces[-1]
    assert top.dim == 2
    corpus = Corpus(SMALL)
    corpus._graphs = [("ladder-3", g)]
    corpus._complexes["ladder-3"] = CubicalMatchingComplex(g, k.faces[:-1])
    result = dict(CHECKS)["links"](corpus)
    assert not result.passed
    below = [{"matching": [list(e) for e in f.matching],
              "cycles": sorted(f.cycles)}
             for f in k.faces if f != top and face_leq(f, top, g)]
    assert result.witness["fixture"] == "ladder-3"
    assert result.witness["face"] in below
    assert "differs from the independence-complex model" in \
        result.witness["error"]
