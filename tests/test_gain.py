import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import fileformat
from perigid.errors import DuplicateEdge, GainDimensionMismatch, ZeroLoop
from perigid.gain import GainGraph, canonicalize_edge
from perigid.linalg import numeric_rank


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


def test_graph_rejects_duplicates_under_class():
    with pytest.raises(DuplicateEdge):
        GainGraph(2, ("a", "b"), [("a", "b", (1, 0)), ("b", "a", (-1, 0))])
    with pytest.raises(DuplicateEdge):
        GainGraph(2, ("a",), [("a", "a", (1, 0)), ("a", "a", (-1, 0))])


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


def test_rank_equivalence_random_graphs(tol):
    """Both directions of the rank equivalence, exact integers vs SVD.

    Gains lie in [-2, 2], so the float rank of I_zd is exact here and checks
    the spanning-forest rank independently.
    """
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        g = _random_gain_graph(rng)
        holds, rank = g.full_rank_condition()
        assert holds == (rank == g.num_vertices - 1 + g.dimension)
        assert holds == (g.is_connected() and g.gain_rank() == g.dimension)
        assert rank == numeric_rank(g.incidence_zd(), tol).rank


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
