import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import fileformat
from perigid.errors import DuplicateEdge, GainDimensionMismatch, ZeroLoop
from perigid.gain import GainGraph, canonicalize_edge
from perigid.linalg import numeric_rank

from oracles import fraction_rank

# 2^53 + 1 is the least positive integer that float64 does not hold: it rounds to 2^53
HUGE = 2**53


def test_canonicalize_flip_rule():
    edge = canonicalize_edge("v2", "v1", (1, 0), ("v1", "v2"))
    assert (edge.tail, edge.head, edge.gain) == ("v1", "v2", (-1, 0))


def test_canonicalize_loop_rule():
    edge = canonicalize_edge("v1", "v1", (-1, 1), ("v1",))
    assert edge.gain == (1, -1)


def test_canonicalize_keeps_canonical():
    edge = canonicalize_edge("v1", "v2", (0, 0), ("v1", "v2"))
    assert (edge.tail, edge.head, edge.gain) == ("v1", "v2", (0, 0))


def test_canonicalize_rejects_zero_loop():
    with pytest.raises(ZeroLoop):
        canonicalize_edge("v1", "v1", (0, 0), ("v1",))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 1),
    st.integers(0, 1),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)
def test_canonicalize_idempotent_and_class_stable(ti, hi, gain):
    order = ("a", "b")
    tail, head = order[ti], order[hi]
    if tail == head and not any(gain):
        return
    once = canonicalize_edge(tail, head, gain, order)
    twice = canonicalize_edge(once.tail, once.head, once.gain, order)
    assert once == twice
    flipped = canonicalize_edge(head, tail, [-g for g in gain], order)
    assert (once.tail, once.head, once.gain) == (flipped.tail, flipped.head, flipped.gain)


def _reversed(edge):
    tail, head, gain = edge
    return head, tail, tuple(-g for g in gain)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_edge_key_matches_the_class_definition(data):
    """(u,v,g) ~ (v,u,-g), loops included: two edges are one class exactly
    when they are equal or one is the other reversed.  canonicalize_edge maps
    them to one edge exactly then, and exactly then GainGraph raises
    DuplicateEdge; gains past 2^63 are compared exactly.  A zero loop raises
    ZeroLoop from both, and an end not in ``order``, loop or not, raises."""
    d = data.draw(st.integers(1, 3))
    order = tuple(f"v{i}" for i in range(data.draw(st.integers(1, 4))))
    entry = st.integers(-2, 2) | st.integers(2**63, 2**64) | st.integers(-(2**64), -(2**63))
    edge = st.tuples(st.sampled_from(order), st.sampled_from(order), st.tuples(*[entry] * d))
    a, b = data.draw(edge), data.draw(edge)
    zero_loops = [e for e in (a, b) if e[0] == e[1] and not any(e[2])]
    if zero_loops:
        with pytest.raises(ZeroLoop):
            canonicalize_edge(*zero_loops[0], order)
        with pytest.raises(ZeroLoop):
            GainGraph(d, order, [a, b])
        return
    same = a == b or a == _reversed(b)
    canonical = [tuple(canonicalize_edge(*e, order))[:3] for e in (a, b)]
    for e, c in zip((a, b), canonical):
        assert c in (e, _reversed(e))
    assert (canonical[0] == canonical[1]) == same
    try:
        GainGraph(d, order, [a, b])
        duplicate = False
    except DuplicateEdge:
        duplicate = True
    assert duplicate == same
    for tail, head in (("x", "x"), ("x", order[0]), (order[0], "x")):
        with pytest.raises(KeyError):
            canonicalize_edge(tail, head, a[2], order)


def test_graph_rejects_duplicates_under_class():
    with pytest.raises(DuplicateEdge):
        GainGraph(2, ("a", "b"), [("a", "b", (1, 0)), ("b", "a", (-1, 0))])
    with pytest.raises(DuplicateEdge):
        GainGraph(2, ("a",), [("a", "a", (1, 0)), ("a", "a", (-1, 0))])


def test_huge_gains_are_compared_exactly():
    """Duplicates are found on the exact gains, not on their float64 values."""
    parallel = GainGraph(2, ("a", "b"), [("a", "b", (HUGE, 0)), ("a", "b", (HUGE + 1, 0))])
    assert parallel.num_edges == 2
    assert parallel.gain_array[0, 0] == parallel.gain_array[1, 0]
    assert parallel.edges[1].gain == (HUGE + 1, 0)
    twice = [("a", "b", (HUGE + 1, 0))] * 2
    with pytest.raises(DuplicateEdge) as error:
        GainGraph(2, ("a", "b"), twice)
    assert str(error.value) == (
        "edge GainEdge(tail='a', head='b', gain=(9007199254740993, 0), marking='bar') "
        "duplicates an earlier edge under ~"
    )
    reversed_twin = [("a", "b", (HUGE + 1, 0)), ("b", "a", (-(HUGE + 1), 0))]
    with pytest.raises(DuplicateEdge) as error:
        GainGraph(2, ("a", "b"), reversed_twin)
    assert str(error.value) == (
        "edge GainEdge(tail='b', head='a', gain=(-9007199254740993, 0), marking='bar') "
        "duplicates an earlier edge under ~"
    )


def test_huge_loop_gains_keep_their_rank():
    """Loops (2^53, 1) and (-(2^53 + 1), -1) have determinant 1; their float64
    values are parallel."""
    graph = GainGraph(2, ("a",), [("a", "a", (HUGE, 1)), ("a", "a", (-(HUGE + 1), -1))])
    assert graph.gain_rank() == 2
    assert graph.full_rank_condition() == (True, 2)


def test_graph_rejects_bad_gains():
    with pytest.raises(GainDimensionMismatch):
        GainGraph(2, ("a", "b"), [("a", "b", (1,))])
    with pytest.raises(GainDimensionMismatch):
        GainGraph(2, ("a", "b"), [("a", "b", (1.5, 0))])


def test_checked_edges_are_not_coerced_again(catalog, monkeypatch):
    """The reader checks each edge of a file once, and a graph derived from a
    checked graph (new markings, loops dropped, switched) takes its edges as
    they are."""
    documents = [fileformat.dumps(f.graph, f.realization, f.stress) for f in catalog.values()]

    def coerce(self, raw):
        raise AssertionError(f"edge {raw!r} coerced again")

    monkeypatch.setattr(GainGraph, "_coerce_edge", coerce)
    for fixture, document in zip(catalog.values(), documents):
        graph = fileformat.loads(document).graph
        assert graph == fixture.graph
        assert graph.with_markings(graph.markings()) == graph
        stripped, keep = graph.without_loops()
        assert stripped.edges == tuple(graph.edges[i] for i in keep)
        mu = (1,) * graph.dimension
        assert graph.switch(graph.vertices[0], mu).switch(graph.vertices[0], [-m for m in mu]) == graph


def test_incidence_single_edge():
    g = GainGraph(2, ("u", "v"), [("u", "v", (0, 0))])
    assert np.array_equal(g.incidence(), np.array([[-1.0, 1.0]]))


def test_incidence_flex2_vertex_columns(flex2):
    inc = flex2.graph.incidence()
    assert np.array_equal(inc[:2, 0], [-1.0, -1.0])
    assert np.array_equal(inc[2:], np.zeros((3, 2)))


def test_incidence_loops_only_graph():
    g = GainGraph(2, ("a",), [("a", "a", (1, 0)), ("a", "a", (0, 1))])
    assert np.array_equal(g.incidence(), np.zeros((2, 1)))


def test_incidence_zd_flex2_matches_golden(flex2):
    expected = np.array(
        [[-1, 1, 0, 0], [-1, 1, -1, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]],
        dtype=float,
    )
    assert np.array_equal(flex2.graph.incidence_zd(), expected)


def test_incidence_zd_edgeless():
    g = GainGraph(2, ("a", "b"), [])
    assert g.incidence_zd().shape == (0, 4)


def test_incidence_zd_one_hat_kernel(hexes, flex2, tol):
    for fix in (hexes, flex2):
        izd = fix.graph.incidence_zd()
        one_hat = np.concatenate([np.ones(fix.graph.num_vertices), np.zeros(2)])
        assert np.abs(izd @ one_hat).max() == 0.0


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: GainGraph(2, ("a", "b"), [("a", "b", (0, 0))]), 0),
        (lambda: GainGraph(2, ("a",), [("a", "a", (1, 0)), ("a", "a", (0, 1))]), 2),
    ],
)
def test_gain_rank_simple(build, expected):
    assert build().gain_rank() == expected


def test_gain_rank_hex(hexes):
    assert hexes.graph.gain_rank() == 2


def test_gain_rank_tree_with_zero_gains():
    g = GainGraph(
        3, ("a", "b", "c"), [("a", "b", (0, 0, 0)), ("b", "c", (0, 0, 0))]
    )
    assert g.gain_rank() == 0


def test_gain_rank_disconnected_max_rule():
    g = GainGraph(
        2,
        ("a", "b"),
        [("a", "a", (1, 0)), ("b", "b", (0, 1)), ("b", "b", (1, 0))],
    )
    # components have ranks 1 and 2; the rank is the max, not the sum
    assert g.gain_rank() == 2


def test_full_rank_condition_hex(hexes):
    assert hexes.graph.full_rank_condition() == (True, 7)


def test_full_rank_condition_disconnected():
    g = GainGraph(2, ("a", "b"), [])
    holds, _ = g.full_rank_condition()
    assert not holds


def test_full_rank_condition_single_vertex():
    g = GainGraph(
        2, ("a",), [("a", "a", (1, 0)), ("a", "a", (0, 1)), ("a", "a", (1, 1))]
    )
    assert g.full_rank_condition() == (True, 2)


def test_covering_window_counts(flex2, hexes):
    cw = hexes.graph.covering_window(1)
    assert len(cw.vertices) == 6 * 9
    assert len(flex2.graph.covering_window(0).vertices) == 2


def test_covering_window_zero_gain_edge():
    g = GainGraph(2, ("u", "v"), [("u", "v", (0, 0))])
    cw = g.covering_window(0)
    assert len(cw.edges) == 1
    assert cw.edges[0] == ((("u"), (0, 0)), (("v"), (0, 0)))


def test_covering_window_loops_leave_window():
    g = GainGraph(2, ("a",), [("a", "a", (1, 0)), ("a", "a", (0, 1))])
    cw = g.covering_window(0)
    assert len(cw.vertices) == 1 and len(cw.edges) == 0


def test_covering_window_vertex_count_property(tol):
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = _random_gain_graph(rng)
        w = int(rng.integers(0, 3 if g.dimension == 2 else 2))
        cw = g.covering_window(w)
        assert len(cw.vertices) == g.num_vertices * (2 * w + 1) ** g.dimension


def test_covering_window_flex2_orbit_degrees(flex2):
    # two edges join the orbits; the three loops double up at v1
    cw = flex2.graph.covering_window(2)
    degrees = {node[0]: cw.degree(node) for node in cw.interior_vertices()}
    assert degrees == {"v1": 8, "v2": 2}


def test_covering_window_hex_interior_degree(hexes):
    cw = hexes.graph.covering_window(1)
    interior = cw.interior_vertices()
    assert interior
    assert all(cw.degree(node) == 3 for node in interior)


def test_equal_graphs_and_windows_hash_equal(hexes):
    """A GainGraph hashes on what its equality compares, so a CoveringWindow,
    a frozen dataclass that holds one, hashes too: equal windows of two
    separately built graphs hash equal and one keys a dict for the other."""
    rebuilt = GainGraph(2, hexes.graph.vertices, hexes.graph.edges)
    assert rebuilt is not hexes.graph and rebuilt == hexes.graph
    assert hash(rebuilt) == hash(hexes.graph)
    a, b = hexes.graph.covering_window(1), rebuilt.covering_window(1)
    assert a == b and hash(a) == hash(b)
    assert {a: "hex"}[b] == "hex"
    assert len({a, b, hexes.graph.covering_window(0)}) == 2
    cables = hexes.graph.with_markings(["cable"] * hexes.graph.num_edges)
    assert cables != hexes.graph and len({cables, hexes.graph, rebuilt}) == 2


def test_equality_reads_the_columns_not_the_edges(catalog):
    """Equality and the hash read one key of the exact columns, so comparing
    and hashing two parsed graphs builds neither one's ``edges``; equal
    graphs, and their windows, still hash equal, and a graph differs from
    one with another gain, marking or vertex order."""
    document = fileformat.dumps(catalog["hex"].graph, catalog["hex"].realization)
    a, b = (fileformat.loads(document).graph for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a.covering_window(1)) == hash(b.covering_window(1))
    switched = a.switch(a.vertices[1], (1, 0))
    cables = a.with_markings(["cable"] * a.num_edges)
    reordered = GainGraph._from_indices(
        2, a.vertices[::-1], [a.num_vertices - 1 - t for t in a.tail_idx.tolist()],
        [a.num_vertices - 1 - h for h in a.head_idx.tolist()], a._gains, a.markings(),
    )
    assert all(other != a for other in (switched, cables, reordered))
    assert not any("edges" in vars(graph) for graph in (a, b, switched, cables, reordered))


def test_switch_identity_and_involution(hexes):
    g = hexes.graph
    assert g.switch("v2", (0, 0)) == g
    assert g.switch("v2", (1, 0)).switch("v2", (-1, 0)) == g


def test_switch_preserves_ranks(hexes, tol):
    g = hexes.graph.switch("v3", (1, 0))
    assert g.gain_rank() == 2
    assert numeric_rank(g.incidence_zd(), tol).rank == numeric_rank(
        hexes.graph.incidence_zd(), tol
    ).rank


def _random_gain_graph(rng):
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 7))
    verts = tuple(f"w{i}" for i in range(n))
    edges, seen = [], set()
    for _ in range(int(rng.integers(0, 13))):
        a, b = verts[rng.integers(0, n)], verts[rng.integers(0, n)]
        gain = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        if a == b and not any(gain):
            continue
        canon = canonicalize_edge(a, b, gain, verts)
        key = (canon.tail, canon.head, canon.gain)
        if key in seen:
            continue
        seen.add(key)
        edges.append((a, b, gain))
    return GainGraph(d, verts, edges)


def _component_union(rng):
    """One to four parts side by side: an isolated vertex, a vertex with
    loops only, or a small random graph (itself often disconnected)."""
    d = int(rng.integers(1, 4))
    vertices, edges = [], []
    for part in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(3))
        names = [f"p{part}v{i}" for i in range(1 if kind < 2 else int(rng.integers(2, 5)))]
        vertices += names
        for _ in range(0 if kind == 0 else int(rng.integers(1, 7))):
            a, b = names[rng.integers(len(names))], names[rng.integers(len(names))]
            edge = (a, b, tuple(int(x) for x in rng.integers(-2, 3, size=d)))
            try:
                GainGraph(d, vertices, edges + [edge])
            except (DuplicateEdge, ZeroLoop):
                continue
            edges.append(edge)
    return GainGraph(d, vertices, edges)


def _exact_components_and_ranks(graph) -> tuple[list, list, int]:
    """The vertex sets of the components (by label merging over the edges),
    each one's gain rank and the rank of I_zd, the ranks by Fraction
    elimination of I_zd and of its per-component blocks."""
    n, d = graph.num_vertices, graph.dimension
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for t, h in zip(graph.tail_idx.tolist(), graph.head_idx.tolist()):
            low = min(label[t], label[h])
            if label[t] != low or label[h] != low:
                label[t] = label[h] = low
                changed = True
    izd = graph.incidence_zd().astype(np.int64)
    parts, gain_ranks = [], []
    for root in sorted(set(label)):
        members = [v for v in range(n) if label[v] == root]
        rows = np.isin(graph.tail_idx, members)
        block = izd[rows][:, members + list(range(n, n + d))]
        parts.append({graph.vertices[v] for v in members})
        gain_ranks.append(fraction_rank(block) - (len(members) - 1))
    return parts, gain_ranks, fraction_rank(izd)


def test_rank_equivalence_random_graphs(tol):
    """Both directions of the rank equivalence, exact integers vs SVD.

    Gains lie in [-2, 2], so the float rank of I_zd is exact here and checks
    the spanning-forest rank independently.  On unions of isolated vertices,
    loop-only vertices and random parts, the components, the gain rank and
    the rank condition match Fraction elimination of I_zd.
    """
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        g = _random_gain_graph(rng)
        holds, rank = g.full_rank_condition()
        assert holds == (rank == g.num_vertices - 1 + g.dimension)
        assert holds == (g.is_connected() and g.gain_rank() == g.dimension)
        assert rank == numeric_rank(g.incidence_zd(), tol).rank
    for _ in range(300):
        g = _component_union(rng)
        parts, gain_ranks, rank = _exact_components_and_ranks(g)
        assert [set(c) for c in g.components()] == parts
        assert len(parts) == g.num_vertices - fraction_rank(g.incidence().astype(np.int64))
        assert g.is_connected() == (len(parts) == 1)
        assert g.gain_rank() == max(gain_ranks)
        holds = len(parts) == 1 and rank == g.num_vertices - 1 + g.dimension
        assert g.full_rank_condition() == (holds, rank)


def test_switch_preserves_ranks_random(tol):
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = _random_gain_graph(rng)
        v = g.vertices[int(rng.integers(0, g.num_vertices))]
        mu = tuple(int(x) for x in rng.integers(-2, 3, size=g.dimension))
        try:
            switched = g.switch(v, mu)
        except DuplicateEdge:
            continue
        assert switched.gain_rank() == g.gain_rank()
        assert (
            numeric_rank(switched.incidence_zd(), tol).rank
            == numeric_rank(g.incidence_zd(), tol).rank
        )


def test_switch_unknown_vertex(hexes):
    with pytest.raises(ValueError):
        hexes.graph.switch("nope", (1, 0))
