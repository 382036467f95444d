"""Components, gain rank, the rank condition and covering windows against
brute-force references, plus golden hashes of the covering SVGs.

The references below are the plain per-vertex and per-node edge scans: an
adjacency-set search for components, a spanning tree grown level by level
for the cycle gains, and a scan of every edge for each covering node's
neighbours.  The library reads all of these from one cached incidence table
and one spanning forest.
"""

import hashlib
import itertools

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from perigid import ToleranceVault, fixtures
from perigid.errors import DuplicateEdge
from perigid.gain import GainGraph
from perigid.linalg import smith_rank
from perigid.svg import render_covering

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
        image = render_covering(fix.graph, fix.realization, window, ToleranceVault())
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


def reference_gain_rank(graph):
    ranks = [smith_rank(np.array(gains, dtype=object))
             for gains in (reference_cycle_gains(graph, c) for c in reference_components(graph))
             if gains]
    return max(ranks, default=0)


# -- properties -------------------------------------------------------------


@st.composite
def gain_graphs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    # small gains make low gain ranks, and so wrong cycle gains visible, likely
    entry = st.one_of(st.integers(-1, 1), st.integers(-1, 1), st.integers(-40, 40))
    gain = st.lists(entry, min_size=d, max_size=d)
    vertex = st.integers(0, n - 1)
    names = [f"v{i}" for i in draw(st.permutations(range(n)))]
    kept = []
    for t, h, g in draw(st.lists(st.tuples(vertex, vertex, gain), max_size=14)):
        edge = (names[t], names[h], tuple(g))
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
# the forest reaches v through an edge it crosses head -> tail: cycle gain 2
@example(graph=GainGraph(1, ("u", "v"), [("v", "u", (1,)), ("u", "v", (1,))]), window=1)
def test_walks_match_references(graph, window):
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

    cover = graph.covering_window(window)
    nodes, edges, interior = reference_window(graph, window)
    assert list(cover.vertices) == nodes
    assert list(cover.edges) == edges
    assert cover.interior_vertices() == interior


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
