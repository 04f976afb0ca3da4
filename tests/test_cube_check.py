"""The cube check's 1-face test against the per-face reference.

``check_cube`` tests that the two ends of each 1-face differ in the face's
region's coordinate and in no other.  The reference tests every face on the
vertices below it (``reference.vertices_below`` and ``is_subcube``).  Both
must give the same verdict and the same first witness, on true coordinate
maps and on maps corrupted by one flipped bit or by two swapped points.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import is_subcube, polyominoes, vertices_below
from test_count import forbid_decoding
from test_fast_paths import guarded
from tilings.complexes import build_complex
from tilings.matchings import cube_coordinates
from tilings.planar import graph_from_cells
from tilings.verify import Bounds, Corpus, _off_axis_edge, check_cube


def cube_cases_by_faces(corpus):
    """The cases of ``check_cube``, each face tested on the vertices below
    it."""
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        verts = k.vertices()
        if not verts:
            continue
        coords = cube_coordinates(g, [v.matching for v in verts])
        if len(set(coords.values())) != len(coords):
            yield {"fixture": name, "part": "injectivity"}
            continue
        yield next(({"fixture": name, "part": "subcube",
                     "cycles": sorted(f.cycles), "vertices_below": len(below)}
                    for f, below in vertices_below(k).items()
                    if f.dim and not is_subcube(f, below, coords)), None)


def first_failure_by_faces(k, coords):
    """The first face of positive dimension whose vertices below are not a
    full subcube, with how many there are, or None."""
    below = vertices_below(k)
    return next(((f, len(below[f])) for f in k.faces
                 if f.dim and not is_subcube(f, below[f], coords)), None)


def corrupted(coords, rng):
    """coords with one bit of one point flipped, and coords with two
    vertices' points swapped."""
    flipped, swapped = dict(coords), dict(coords)
    m = rng.choice(list(coords))
    i = rng.randrange(len(coords[m]))
    flipped[m] = coords[m][:i] + (1 - coords[m][i],) + coords[m][i + 1:]
    a, b = rng.sample(list(coords), 2)
    swapped[a], swapped[b] = coords[b], coords[a]
    return flipped, swapped


def assert_edges_match_faces(k, rng):
    """Compare the two tests on k's true coordinate map and, when k has two
    vertices and a region, on its two corruptions; return how many of the
    maps fail."""
    coords = cube_coordinates(k.graph, [v.matching for v in k.vertices()])
    maps = [coords]
    if len(coords) > 1 and k.graph.regions:
        maps += corrupted(coords, rng)
    failures = 0
    for c in maps:
        # The points in the order of the vertices, as the check reads them.
        i = _off_axis_edge(k, list(c.values()))
        assert first_failure_by_faces(k, c) == (
            None if i is None else (k.faces[i], 2))
        failures += i is not None
    return failures


@pytest.mark.parametrize("seed", [0, 201])
def test_check_matches_reference_on_corpus(seed):
    corpus = Corpus(Bounds(seed=seed))
    assert list(check_cube.__wrapped__(corpus)) == \
        list(cube_cases_by_faces(corpus))
    failures = 0
    for name, g in corpus.graphs():
        k = corpus.complex(name, g)
        if k.faces:
            failures += assert_edges_match_faces(k, random.Random(name))
    assert failures > 0


@settings(max_examples=100, deadline=None)
@given(polyominoes(), st.randoms(use_true_random=False))
def test_check_matches_reference_on_polyominoes(cells, rng):
    k = build_complex(graph_from_cells(set(cells)))
    if k.faces:
        assert_edges_match_faces(k, rng)


def test_check_cube_reads_no_face_above_dimension_1(monkeypatch):
    corpus = Corpus(Bounds(max_ladder=5, max_cells=6, random_count=2))
    want = check_cube(corpus)
    assert want.passed and want.checked > 0
    complexes = corpus._complexes
    assert max(k.dim for k in complexes.values()) >= 2
    forbid_decoding(monkeypatch)
    for name, k in complexes.items():
        complexes[name] = guarded(k)
    assert check_cube(corpus) == want
