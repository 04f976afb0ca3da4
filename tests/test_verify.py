import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilings.verify import (Bounds, Corpus, _bipartite, check_counterexample,
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
    result = check_cube(corpus, SMALL)
    assert not result.passed
    assert result.witness == {"fixture": "ladder-1", "part": "injectivity"}


def test_checks_report_case_counts():
    corpus = Corpus(SMALL)
    assert check_kozlov(corpus, SMALL).checked == 22
    assert check_counterexample(corpus, SMALL).checked == 1
    assert check_cube(corpus, SMALL).checked > 0


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
