import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import cells_connected
from tilings.complexes import build_complex
from tilings.fixtures import (_child_orbit, _has_perfect_matching, _orbit,
                              _simply_tileable, canonical_form,
                              core_fixture_names, free_polyominoes,
                              is_simply_connected,
                              iter_fixture_graphs, ladder_parameters,
                              named_fixture, polyomino_zoo,
                              random_quad_glued)
from tilings.matchings import matchings_of_adjacency
from tilings.planar import graph_from_cells


def test_figure_fixture_shapes():
    expected = {
        "g1": (10, 12, 3),
        "g2": (10, 12, 3),
        "g3": (8, 10, 3),
        "figure2": (8, 10, 3),
        "prism": (6, 9, 4),
    }
    for name, (nv, ne, nr) in expected.items():
        g = named_fixture(name)
        assert (len(g.coords), len(g.edges), len(g.regions)) == (nv, ne, nr)


def test_named_ladder_fixtures():
    g = named_fixture("ladder-5")
    assert len(g.regions) == 5
    g = named_fixture("ladder-5-2")
    assert len(g.regions) == 6
    with pytest.raises(KeyError):
        named_fixture("nonsense")


@pytest.mark.parametrize("name", [
    "ladder-3-1-2", "ladder-03", "ladder-3-+1", "ladder-3-1 ", "ladder-3-01",
    "ladder--3", "ladder-3-", "ladder-", "ladder-\u0663", "ladder-3\n"])
def test_ladder_names_are_canonical_decimals(name):
    assert ladder_parameters(name) is None
    with pytest.raises(KeyError, match="unknown fixture"):
        named_fixture(name)


def test_ladder_parameters_read_every_core_name():
    assert ladder_parameters("ladder-12") == [12, None]
    assert ladder_parameters("ladder-12-10") == [12, 10]
    assert ladder_parameters("ladder-0") == [0, None]
    for name in core_fixture_names():
        ladder = ladder_parameters(name)
        assert (ladder is None) == (not name.startswith("ladder-"))
        if ladder is not None:
            assert name == "-".join(["ladder"] + [str(p) for p in ladder
                                                  if p is not None])


def test_core_names_cover_all_bumps():
    names = core_fixture_names(max_ladder=3)
    assert "ladder-3-3" in names and "ladder-1-1" in names
    assert len(names) == 5 + 3 + 6


def test_free_polyomino_counts():
    # Classical counts of free polyominoes by cell count (OEIS A000105).
    assert [len(free_polyominoes(n)) for n in range(1, 11)] == \
        [1, 1, 2, 5, 12, 35, 108, 369, 1285, 4655]


def per_pair_canonical_form(cells):
    """The canonical form the orbit scheme replaced: all 8 images, each
    translated to the axes, least by sorted cell list."""
    def normalize(cs):
        r0 = min(r for r, _ in cs)
        c0 = min(c for _, c in cs)
        return frozenset((r - r0, c - c0) for r, c in cs)

    variants = []
    current = cells
    for _ in range(4):
        current = frozenset((c, -r) for r, c in current)
        variants.append(normalize(current))
        variants.append(normalize(frozenset((r, -c) for r, c in current)))
    return min(variants, key=sorted)


def per_pair_free_polyominoes(max_n):
    """The generator the orbit scheme replaced: every (polyomino, free
    neighbour) child canonicalised; one tuple of shapes per cell count."""
    levels = [(frozenset({(0, 0)}),)]
    for _ in range(2, max_n + 1):
        out = set()
        for smaller in levels[-1]:
            for r, c in smaller:
                for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                    if nb not in smaller:
                        out.add(per_pair_canonical_form(smaller | {nb}))
        levels.append(tuple(sorted(out, key=sorted)))
    return levels


def test_free_polyominoes_match_per_pair_generator():
    for n, level in enumerate(per_pair_free_polyominoes(10), 1):
        assert free_polyominoes(n) == level


def test_canonical_form_identifies_rotations():
    ell = frozenset({(0, 0), (1, 0), (1, 1)})
    rotated = frozenset({(0, 0), (0, 1), (1, 0)})
    assert canonical_form(ell) == canonical_form(rotated)


SYMMETRIES = [lambda r, c: (r, c), lambda r, c: (r, -c),
              lambda r, c: (-r, c), lambda r, c: (-r, -c),
              lambda r, c: (c, r), lambda r, c: (c, -r),
              lambda r, c: (-c, r), lambda r, c: (-c, -r)]

cell_sets = st.frozensets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                          min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(cells=cell_sets, dr=st.integers(-20, 20), dc=st.integers(-20, 20))
def test_canonical_form_is_invariant_and_idempotent(cells, dr, dc):
    canon = canonical_form(cells)
    assert canon == per_pair_canonical_form(cells)
    assert canonical_form(canon) == canon
    for sym in SYMMETRIES:
        image = frozenset((a + dr, b + dc)
                          for a, b in (sym(r, c) for r, c in cells))
        assert canonical_form(image) == canon


def test_simply_connected_detects_hole():
    ring = frozenset((r, c) for r in range(3) for c in range(3)
                     if (r, c) != (1, 1))
    assert not is_simply_connected(ring)
    assert not is_simply_connected(ring - {(0, 0)})
    assert is_simply_connected(frozenset({(0, 0), (0, 1)}))


def search_simply_connected(cells):
    """The hole test the Euler count replaced: the complement inside an
    enlarged bounding box is connected to the outside, by breadth-first
    search over edge-neighbours."""
    rs = [r for r, _ in cells]
    cs = [c for _, c in cells]
    lo_r, hi_r = min(rs) - 1, max(rs) + 1
    lo_c, hi_c = min(cs) - 1, max(cs) + 1
    start = (lo_r, lo_c)
    seen = {start}
    stack = [start]
    while stack:
        r, c = stack.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            nr, nc = nb
            if not (lo_r <= nr <= hi_r and lo_c <= nc <= hi_c):
                continue
            if nb in cells or nb in seen:
                continue
            seen.add(nb)
            stack.append(nb)
    box = (hi_r - lo_r + 1) * (hi_c - lo_c + 1)
    return len(seen) == box - len(cells)


BOX = [(r, c) for r in range(5) for c in range(5)]


@st.composite
def edge_connected_in_box(draw):
    """The edge-neighbour component of one cell of the 5x5 box with some
    cells taken out: it can wind round holes, and a hole can meet the
    outside at a corner only."""
    cells = set(BOX) - draw(st.sets(st.sampled_from(BOX), max_size=15))
    start = draw(st.sampled_from(sorted(cells)))
    seen, stack = {start}, [start]
    while stack:
        r, c = stack.pop()
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return frozenset(seen)


RING = frozenset(BOX) - {(r, c) for r in range(1, 4) for c in range(1, 4)}


@settings(max_examples=300, deadline=None)
@given(edge_connected_in_box())
@example(RING)
@example(RING | {(2, 1), (2, 2)})
@example(RING - {(0, 0)})
@example(RING - {(0, 2)})
@example(frozenset(BOX) - {(1, 1), (2, 2), (3, 3), (1, 3)})
def test_euler_count_matches_search(cells):
    assert cells_connected(set(cells))
    assert is_simply_connected(cells) == search_simply_connected(cells)


@settings(max_examples=200, deadline=None)
@given(edge_connected_in_box())
@example(RING)
@example(frozenset({(0, 0)}))
def test_child_orbits_grow_from_the_parent(cells):
    # Every free neighbour of a shape touching both axes, holes included,
    # at the width free_polyominoes uses for the child.
    r0, c0 = (min(axis) for axis in zip(*cells))
    p = frozenset((r - r0, c - c0) for r, c in cells)
    n = len(p) + 1
    images = _orbit(p, n)
    r1, c1 = (max(axis) for axis in zip(*p))
    free = {nb for r, c in p
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1))
            if nb not in p}
    for cell in free:
        assert _child_orbit(images, r1, c1, cell, n) == _orbit(p | {cell}, n)


def test_euler_count_matches_search_on_free_polyominoes():
    shapes = [cells for n in range(1, 11) for cells in free_polyominoes(n)]
    assert len(shapes) == 6473
    assert [is_simply_connected(cells) for cells in shapes] == \
        [search_simply_connected(cells) for cells in shapes]


def test_zoo_members_are_tileable_and_even():
    zoo = polyomino_zoo(6)
    assert zoo
    for name, cells in zoo:
        assert len(cells) % 2 == 0
        assert is_simply_connected(cells)
        g = graph_from_cells(set(cells))
        assert build_complex(g).f_vector()[0] >= 1


def hopcroft_karp_tileable(cells):
    """The Hopcroft-Karp test the tiling search replaced."""
    g = nx.Graph()
    g.add_nodes_from(cells)
    for r, c in cells:
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in cells:
                g.add_edge((r, c), nb)
    m = nx.bipartite.hopcroft_karp_matching(
        g, top_nodes=[x for x in cells if sum(x) % 2 == 0])
    return len(m) == len(cells)


@pytest.mark.parametrize("n", range(1, 9))
def test_tileability_matches_hopcroft_karp(n):
    for cells in free_polyominoes(n):
        assert _has_perfect_matching(cells) == hopcroft_karp_tileable(cells)


def test_colour_count_rejects_only_untileable_shapes():
    # The searches alone, with no colour count in front of them, decide
    # every free polyomino of at most 10 cells the same way.
    rejected = 0
    for n in range(1, 11):
        for cells in free_polyominoes(n):
            adj = {(r, c): [nb for nb in ((r - 1, c), (r, c - 1), (r, c + 1),
                                          (r + 1, c)) if nb in cells]
                   for r, c in cells}
            searched = bool(matchings_of_adjacency(sorted(cells), adj))
            assert _simply_tileable(cells) == (
                searched and is_simply_connected(cells))
            rejected += n % 2 == 0 and 2 * sum((r + c) % 2
                                               for r, c in cells) != n
    # Some shapes of an even size are rejected by the count alone.
    assert rejected


def test_zoo_grows_with_bound():
    assert len(polyomino_zoo(4)) < len(polyomino_zoo(6))


def test_random_fixtures_deterministic():
    a = random_quad_glued(seed=7, count=5)
    b = random_quad_glued(seed=7, count=5)
    assert [cells for _, cells in a] == [cells for _, cells in b]
    c = random_quad_glued(seed=8, count=5)
    assert [cells for _, cells in a] != [cells for _, cells in c]


def test_corpus_iteration_names_unique():
    names = [name for name, _ in
             iter_fixture_graphs(max_ladder=2, max_cells=4, random_count=3)]
    assert len(names) == len(set(names))
    assert "prism" in names and "ladder-2-1" in names
