"""Components, gain rank, the rank condition and covering windows against
brute-force references, plus golden hashes of the covering SVGs.

The references below are the plain per-vertex and per-node edge scans: an
adjacency-set search for components, a spanning tree grown level by level
for the cycle gains, a scan of every edge for each covering node's
neighbours, and an SVG drawn node by node and edge by edge.  The library
reads the first two from two cached union-find passes, the second of which
ranks the cycle gains in an exact echelon and stops at rank d, and builds and
draws the covering windows from index arrays.
"""

import hashlib
import itertools
import math
import random
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from perigid import ToleranceVault, fixtures, gain
from perigid.errors import DuplicateEdge
from perigid.framework import Realization
from perigid.gain import MARKINGS, GainGraph
from perigid.svg import render_covering

from oracles import cable_framework, smith_rank

# sha256 of render_covering on the fixture realizations, default tolerances
GOLDEN_SVG = {
    ("hex", 2): "a75ef699197a4e793d9f5685c7b631b6d5c47ba7fa072d080eac209a22c31bae",
    ("octagon", 1): "045668c773f203c687723446c9b761414ccbafb6125043695f13a6b0e1602345",
    ("flex2", 2): "3fb677d6fe5ca34e225877c4097c62363b4fb61b543cca22b7446e76b79ccb63",
}


def test_render_covering_golden_bytes():
    catalog = fixtures()
    for (name, window), digest in GOLDEN_SVG.items():
        fix = catalog[name]
        _, image = render_covering(fix.graph, fix.realization, window, ToleranceVault())
        assert hashlib.sha256(image).hexdigest() == digest, (name, window)


# -- references -------------------------------------------------------------


def reference_components(graph):
    """Vertex sets of the components, by depth-first search over adjacency sets."""
    adjacency = {v: set() for v in graph.vertices}
    for e in graph.edges:
        adjacency[e.tail].add(e.head)
        adjacency[e.head].add(e.tail)
    seen, comps = set(), []
    for start in graph.vertices:
        if start in seen:
            continue
        stack, comp = [start], set()
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.add(v)
            for w in adjacency[v] - seen:
                seen.add(w)
                stack.append(w)
        comps.append(comp)
    return comps


def reference_cycle_gains(graph, comp):
    """Cycle gains of one component, growing a spanning tree level by level."""
    root = next(v for v in graph.vertices if v in comp)
    potential = {root: (0,) * graph.dimension}
    tree = set()
    frontier = [root]
    while frontier:
        nxt = []
        for idx, e in enumerate(graph.edges):
            if idx in tree or e.is_loop or e.tail not in comp:
                continue
            if e.tail in potential and e.head not in potential:
                potential[e.head] = tuple(p + g for p, g in zip(potential[e.tail], e.gain))
            elif e.head in potential and e.tail not in potential:
                potential[e.tail] = tuple(p - g for p, g in zip(potential[e.head], e.gain))
            else:
                continue
            tree.add(idx)
            nxt.append(idx)
        frontier = nxt
    return [
        tuple(pt + g - ph for pt, g, ph in zip(potential[e.tail], e.gain, potential[e.head]))
        for idx, e in enumerate(graph.edges)
        if idx not in tree and e.tail in comp
    ]


def reference_neighbors(graph, v, shift):
    for e in graph.edges:
        if e.tail == v:
            yield (e.head, tuple(s + g for s, g in zip(shift, e.gain)))
        if e.head == v:
            yield (e.tail, tuple(s - g for s, g in zip(shift, e.gain)))


def reference_window(graph, window):
    """(nodes, edges, interior nodes) of the covering window by per-node edge scans."""
    shifts = list(itertools.product(range(-window, window + 1), repeat=graph.dimension))
    nodes = [(v, s) for v in graph.vertices for s in shifts]
    pos = {n: i for i, n in enumerate(nodes)}
    pairs = set()
    for node in nodes:
        for other in reference_neighbors(graph, *node):
            if other in pos and other != node:
                pairs.add(tuple(sorted((pos[node], pos[other]))))
    interior = [n for n in nodes if all(o in pos for o in reference_neighbors(graph, *n))]
    return nodes, [(nodes[a], nodes[b]) for a, b in sorted(pairs)], interior


def reference_svg(graph, real, window):
    """SVG bytes of the covering window, node by node and edge by edge: each
    edge's marking looked up by its end vertices and shift difference, each
    coordinate printed by itself."""
    nodes, edges, _ = reference_window(graph, window)
    pos = {
        node: real.points[node[0]] + real.lattice @ np.array(node[1], dtype=float)
        for node in nodes
    }
    coords = np.array(list(pos.values()))
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = (640.0 - 2 * 40.0) / float(span.max())

    def fmt(x):
        out = f"{x:.4f}"
        return "0.0000" if out == "-0.0000" else out

    def to_canvas(p):
        return fmt(40.0 + (p[0] - lo[0]) * scale), fmt(640.0 - 40.0 - (p[1] - lo[1]) * scale)

    # a covering edge (u, alpha) - (v, beta) lifts the one edge class (u, v, beta - alpha)
    marking_of = {}
    for e in graph.edges:
        marking_of[e.tail, e.head, e.gain] = e.marking
        marking_of[e.head, e.tail, tuple(-g for g in e.gain)] = e.marking
    styles = {
        "bar": 'stroke="#1f3552" stroke-width="1.6"',
        "cable": 'stroke="#1f7a4d" stroke-width="1.6" stroke-dasharray="6 4"',
        "strut": 'stroke="#8a2f2f" stroke-width="3.4"',
    }
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" viewBox="0 0 640 640">',
        f"<!-- covering window w={window}, {len(nodes)} vertices, {len(edges)} edges -->",
    ]
    for a, b in edges:
        xa, ya = to_canvas(pos[a])
        xb, yb = to_canvas(pos[b])
        shift = tuple(y - x for x, y in zip(a[1], b[1]))
        style = styles[marking_of[a[0], b[0], shift]]
        lines.append(f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}" {style}/>')
    for node in nodes:
        x, y = to_canvas(pos[node])
        lines.append(f'<circle cx="{x}" cy="{y}" r="3.0" fill="#10151c"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_window(graph, window):
    """The covering window, its interior and every node's degree match the
    reference scans."""
    cover = graph.covering_window(window)
    nodes, edges, interior = reference_window(graph, window)
    assert list(cover.vertices) == nodes
    assert list(cover.edges) == edges
    assert cover.interior_vertices() == interior
    degree = Counter(node for edge in edges for node in edge)
    assert [cover.degree(node) for node in nodes] == [degree[node] for node in nodes]
    return cover


def reference_gain_rank(graph):
    ranks = [smith_rank(np.array(gains, dtype=object))
             for gains in (reference_cycle_gains(graph, c) for c in reference_components(graph))
             if gains]
    return max(ranks, default=0)


# -- properties -------------------------------------------------------------


@st.composite
def gain_graphs(draw, dimensions=st.integers(1, 3)):
    d = draw(dimensions)
    n = draw(st.integers(1, 7))
    # small gains make low gain ranks, and so wrong cycle gains visible, likely
    entry = st.one_of(st.integers(-1, 1), st.integers(-1, 1), st.integers(-40, 40))
    gain = st.lists(entry, min_size=d, max_size=d)
    vertex = st.integers(0, n - 1)
    names = [f"v{i}" for i in draw(st.permutations(range(n)))]
    kept = []
    marking = st.sampled_from(MARKINGS)
    for t, h, g, m in draw(st.lists(st.tuples(vertex, vertex, gain, marking), max_size=14)):
        edge = (names[t], names[h], tuple(g), m)
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, names, kept + [edge])
        except DuplicateEdge:
            continue
        kept.append(edge)
    return GainGraph(d, names, kept)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=gain_graphs(), window=st.integers(0, 2))
# the walk joins u and v by an edge from v to u: cycle gain 2
@example(graph=GainGraph(1, ("u", "v"), [("v", "u", (1,)), ("u", "v", (1,))]), window=1)
# gains of 10^30 (not an int64) next to small ones: no overflow, no window edge
@example(
    graph=GainGraph(
        2,
        ("u", "v"),
        [("u", "v", (10**30, 0)), ("v", "u", (1, -(10**30))), ("u", "v", (1, 0))],
    ),
    window=2,
)
@example(graph=GainGraph(1, ("a", "b"), [("a", "a", (-(10**30),)), ("a", "b", (0,))]), window=1)
def test_walks_match_references(graph, window):
    check_walks(graph)
    check_window(graph, window)


def check_walks(graph):
    """Components, connectivity, gain rank and the rank condition match the
    reference search and spanning tree, ranked by the Bareiss oracle."""
    comps = graph.components()
    assert [set(c) for c in comps] == reference_components(graph)
    order = {v: i for i, v in enumerate(graph.vertices)}
    for comp in comps:
        assert comp == sorted(comp, key=order.__getitem__)
    assert graph.is_connected() == (len(comps) == 1)

    assert graph.gain_rank() == reference_gain_rank(graph)
    cycles = [g for c in reference_components(graph) for g in reference_cycle_gains(graph, c)]
    rank = graph.num_vertices - len(comps)
    if cycles:
        rank += smith_rank(np.array(cycles, dtype=object))
    expected = (len(comps) == 1 and rank == graph.num_vertices - 1 + graph.dimension, rank)
    assert graph.full_rank_condition() == expected


# gain entries past 2^63 and 2^53 that repeat, so huge gains also cancel in a cycle
HUGE_ENTRIES = [2**63, -(2**63) - 1, 2**70 + 1, 2**53 + 1]


@st.composite
def block_graphs(draw):
    """Gain graphs whose first edges stay inside up to three vertex blocks,
    so cycles close inside sets that later edges join, with loops and gain
    entries past 2^63 among small ones."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    entry = st.one_of(
        st.integers(-1, 1), st.integers(-1, 1), st.sampled_from(HUGE_ENTRIES),
        st.integers(-(2**70), 2**70),
    )
    gain = st.lists(entry, min_size=d, max_size=d).map(tuple)
    vertex = st.integers(0, n - 1)
    inner = []
    for t, g in draw(st.lists(st.tuples(vertex, gain), max_size=10)):
        members = [v for v in range(n) if block[v] == block[t]]
        inner.append((t, draw(st.sampled_from(members)), g))
    cross = draw(st.lists(st.tuples(vertex, vertex, gain), max_size=4))
    kept = []
    for t, h, g in inner + cross:
        edge = (f"v{t}", f"v{h}", g)
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, [f"v{i}" for i in range(n)], kept + [edge])
        except DuplicateEdge:
            continue
        kept.append(edge)
    return GainGraph(d, [f"v{i}" for i in range(n)], kept)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=block_graphs())
# two components of gain rank 1 in d = 3, each closing its cycle before the
# edge that joins them is read: rank < d, so the walk reads every edge
@example(
    graph=GainGraph(
        3,
        ("a", "b", "c", "e"),
        [("a", "b", (0, 0, 0)), ("b", "a", (1, 0, 0)), ("c", "e", (0, 0, 0)),
         ("e", "c", (0, 1, 0)), ("e", "e", (0, 2, 0))],
    )
)
@example(
    graph=GainGraph(
        2,
        ("a", "b", "c", "e"),
        [("a", "b", (0, 0)), ("b", "a", (1, 0)), ("c", "e", (0, 0)),
         ("e", "c", (0, 1)), ("b", "c", (5, 5))],
    )
)
# huge potentials that cancel: rank 1, not 2
@example(
    graph=GainGraph(
        2,
        ("a", "b", "c"),
        [("a", "b", (2**63, -(2**70))), ("b", "c", (2**63, 1)), ("a", "c", (2**64, -(2**70))),
         ("c", "a", (-(2**64) + 3, 2**70 - 1))],
    )
)
# gains just under 2^53 in d = 1: the int64 packing
@example(graph=GainGraph(1, ("a", "b"), [("a", "b", (2**53 - 1,)), ("b", "a", (2 - 2**53,))]))
def test_walks_match_references_across_blocks(graph):
    check_walks(graph)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(1, 5),
    st.integers(0, 5),
    st.sampled_from([1, 3, 10**3, 2**64]),
    st.integers(0, 2**32 - 1),
)
def test_echelon_rank_matches_smith_rank(rows, cols, inner, bound, seed):
    """The gain walk's echelon ranks random integer matrices, products of
    rank at most ``inner`` among them, as Bareiss elimination does."""
    rnd = random.Random(seed)
    a = [[rnd.randint(-bound, bound) for _ in range(inner)] for _ in range(rows)]
    b = [[rnd.randint(-bound, bound) for _ in range(cols)] for _ in range(inner)]
    if rnd.random() < 0.5:
        matrix = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                  for i in range(rows)]
    else:
        matrix = [[rnd.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    echelon: dict = {}
    for row in matrix:
        gain._add_row(echelon, row)
    assert len(echelon) == smith_rank(np.array(matrix, dtype=object).reshape(rows, cols))
    for column, row in echelon.items():
        assert not any(row[:column]) and row[column] and math.gcd(*row) == 1


def test_a_full_rank_walk_stops_before_its_last_edge(monkeypatch):
    """Once a component's cycle gains reach rank d the walk reads no more
    edges: the third and fourth cycles below are never reduced."""
    rows = []
    add_row = gain._add_row
    monkeypatch.setattr(gain, "_add_row", lambda echelon, row: add_row(echelon, rows.append(row) or row))
    graph = GainGraph(
        2,
        ("a", "b", "c"),
        [("a", "b", (0, 0)), ("b", "c", (0, 0)), ("a", "c", (1, 0)), ("c", "a", (0, 1)),
         ("b", "a", (1, 1)), ("c", "b", (2, 3))],
    )
    assert graph.full_rank_condition() == (True, 4)
    assert graph.gain_rank() == 2
    assert rows == [[1, 0], [0, 1]]

    rows.clear()
    cables, _ = cable_framework(0, n=60)
    assert cables.full_rank_condition() == (True, 61)
    assert len(rows) < cables.num_edges - cables.num_vertices + 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=gain_graphs(st.just(2)),
    window=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_covering_svg_matches_reference(graph, window, seed, scale):
    rng = np.random.default_rng(seed)
    # points listed in another order than the graph's; a rotated triangular
    # lattice with a positive diagonal is never flat
    points = {v: scale * rng.normal(size=2) for v in sorted(graph.vertices)}
    angle = rng.uniform(0.0, 2 * np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    a, c = rng.uniform(0.5, 2.0, size=2)
    lattice = scale * rotation @ np.array([[a, rng.normal()], [0.0, c]])
    real = Realization(points, lattice)
    cover, image = render_covering(graph, real, window, ToleranceVault())
    assert cover == check_window(graph, window)
    assert image == reference_svg(graph, real, window)


HUGE = 10**30

WINDOW_CASES = {
    "huge gains": (
        GainGraph(
            2,
            ("u", "v"),
            [("u", "v", (HUGE, 0)), ("v", "v", (0, -HUGE)), ("u", "v", (0, 0)), ("u", "u", (1, 0))],
        ),
        2,
    ),
    "d = 1": (
        GainGraph(
            1,
            ("a", "b", "c"),
            [("a", "b", (0,)), ("b", "c", (1,)), ("c", "a", (-1,)), ("a", "a", (2,))],
        ),
        3,
    ),
    "d = 3": (
        GainGraph(
            3,
            ("a", "b"),
            [
                ("a", "b", (0, 0, 0)),
                ("a", "b", (1, 0, -1)),
                ("b", "b", (0, 1, 0)),
                ("a", "a", (1, 1, 2)),
            ],
        ),
        2,
    ),
    "isolated vertex": (
        GainGraph(2, ("a", "b", "c"), [("a", "b", (0, 1)), ("b", "a", (1, 0))]),
        1,
    ),
    "vertex with only loops": (
        GainGraph(
            2,
            ("a", "b", "c"),
            [("a", "b", (0, 0)), ("c", "c", (1, 0)), ("c", "c", (1, -1)), ("b", "a", (0, 1))],
        ),
        2,
    ),
}


@pytest.mark.parametrize("case", WINDOW_CASES)
def test_window_edge_cases_match_reference(case):
    graph, window = WINDOW_CASES[case]
    for w in range(window + 1):
        check_window(graph, w)


def test_huge_gain_edges_never_enter_the_window():
    graph, window = WINDOW_CASES["huge gains"]
    cover = check_window(graph, window)
    steps = {tuple(y - x for x, y in zip(a[1], b[1])) for a, b in cover.edges}
    assert steps == {(0, 0), (1, 0)}  # only the two small edges lift
    # v meets the huge loop, u the huge edge: neither has an interior node
    assert cover.interior_vertices() == []


def test_hex_window_just_under_the_node_limit(hexes):
    cover = hexes.graph.covering_window(64)
    assert len(cover.vertices) == 6 * 129**2 == 99_846
    assert len(cover.edges) == 149_254
    interior = cover.interior_vertices()
    assert interior
    assert all(cover.degree(node) == 3 for node in interior)


def test_components_in_graph_order():
    # v0 - v3 - v1 and v2 - v4: a search from v0 meets v3 before v1
    g = GainGraph(
        2,
        ("v0", "v1", "v2", "v3", "v4"),
        [("v0", "v3", (0, 0)), ("v4", "v2", (1, 0)), ("v3", "v1", (0, 1))],
    )
    assert g.components() == [["v0", "v1", "v3"], ["v2", "v4"]]
    catalog = fixtures()
    for name in ("hex", "octagon"):
        graph = catalog[name].graph
        assert graph.components() == [list(graph.vertices)]


def test_info_walks_the_gains_once(tmp_path, monkeypatch, capsys):
    """gain_rank and full_rank_condition read one cached walk of the gains,
    and the component count one cached union-find pass."""
    from perigid import fileformat
    from perigid.cli import cli

    hexes = fixtures()["hex"]
    path = tmp_path / "hex.json"
    path.write_bytes(fileformat.dumps(hexes.graph, hexes.realization, hexes.stress))
    walks = {name: _count_walks(monkeypatch, name) for name in ("_gain_ranks", "_components")}
    assert cli(["info", str(path)]) == 0
    assert {name: len(calls) for name, calls in walks.items()} == {
        "_gain_ranks": 1, "_components": 1
    }


def _count_walks(monkeypatch, name: str) -> list:
    """Record each run of the cached graph walk ``name`` of GainGraph."""
    calls = []
    walk = vars(GainGraph)[name].func

    def counted(graph):
        calls.append(graph)
        return walk(graph)

    counting = cached_property(counted)
    counting.__set_name__(GainGraph, name)
    monkeypatch.setattr(GainGraph, name, counting)
    return calls
