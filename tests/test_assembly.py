"""Scatter/gather assembly against dense edge-by-edge oracles.

The oracles below are the plain definitions (incidence rows, I^T diag(w) I,
P Omega + L M diag(w) I, with each edge end a term of the fixed gate); the library builds the same matrices from cached
index arrays.  Entries that are single gathered values must match exactly;
sums may differ in the last bits because the summation order changed, so
they are compared against a bound of a few ulps of the summed magnitudes,
plus a few subnormal spacings for products that underflow.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perigid.errors import DuplicateEdge
from perigid.framework import (
    Realization,
    _rigidity_entries,
    edge_vectors,
    fixed_rigidity_matrix,
    point_matrix,
    rigidity_matrix,
)
from perigid.gain import GainGraph
from perigid.stress import verify_equilibrium, weighted_laplacians

EPS = np.finfo(float).eps
ULPS = 64
UNDERFLOW = ULPS * np.finfo(float).smallest_subnormal


def dense_incidence(graph):
    mat = np.zeros((graph.num_edges, graph.num_vertices))
    for row, e in enumerate(graph.edges):
        if not e.is_loop:
            mat[row, graph.vertex_index(e.tail)] = -1.0
            mat[row, graph.vertex_index(e.head)] = 1.0
    return mat


def dense_edge_ends(graph):
    """One 1 per edge end at its vertex: |I| for a bar, 2 at its vertex for a loop."""
    mat = np.zeros((graph.num_edges, graph.num_vertices))
    for row, e in enumerate(graph.edges):
        mat[row, graph.vertex_index(e.tail)] += 1.0
        mat[row, graph.vertex_index(e.head)] += 1.0
    return mat


def dense_gain_matrix(graph):
    mat = np.zeros((graph.dimension, graph.num_edges))
    for col, e in enumerate(graph.edges):
        mat[:, col] = [float(g) for g in e.gain]
    return mat


def dense_edge_vectors(graph, real):
    return np.array(
        [
            real.points[e.head]
            + real.lattice @ np.array([float(g) for g in e.gain])
            - real.points[e.tail]
            for e in graph.edges
        ]
    ).reshape(graph.num_edges, graph.dimension)


def dense_rigidity(graph, real, nu, with_lattice):
    d, n = graph.dimension, graph.num_vertices
    mat = np.zeros((graph.num_edges, d * n + (d * d if with_lattice else 0)))
    for i, e in enumerate(graph.edges):
        if not e.is_loop:
            ti, hi = graph.vertex_index(e.tail), graph.vertex_index(e.head)
            mat[i, d * ti : d * (ti + 1)] = -nu[i]
            mat[i, d * hi : d * (hi + 1)] = nu[i]
        if with_lattice:
            for k, g in enumerate(e.gain):
                if g:
                    mat[i, d * n + d * k : d * n + d * (k + 1)] = float(g) * nu[i]
    return mat


def close(actual, expected, magnitude):
    """|actual - expected| within ULPS ulps of the summed magnitudes, entrywise."""
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= ULPS * EPS * magnitude + UNDERFLOW)


@st.composite
def gain_graphs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    small = st.integers(-2, 2)
    huge = st.sampled_from([10**6, -(10**9), 10**12, -(10**12)])
    gain = st.lists(st.one_of(small, small, huge), min_size=d, max_size=d)
    vertex = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(vertex, vertex, gain), max_size=14))
    edges = []
    for t, h, g in raw:
        edges.append((t, h, tuple(g)))
        extra = draw(st.sampled_from(["none", "reversed", "parallel"]))
        if extra != "none":
            other = tuple(x + draw(st.integers(1, 3)) for x in g)
            edges.append((h, t, other) if extra == "reversed" else (t, h, other))
    names = [f"v{i}" for i in range(n)]
    kept = []
    for t, h, g in edges:
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, names, kept + [(names[t], names[h], g)])
        except DuplicateEdge:
            continue
        kept.append((names[t], names[h], g))
    graph = GainGraph(d, names, kept)
    coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    points = {v: np.array(draw(st.lists(coord, min_size=d, max_size=d))) for v in names}
    lattice = np.array(draw(st.lists(coord, min_size=d * d, max_size=d * d))).reshape(d, d)
    weight = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    weights = np.array(draw(st.lists(weight, min_size=len(kept), max_size=len(kept))))
    return graph, Realization(points, lattice), weights


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=gain_graphs())
def test_assembly_matches_dense_oracles(tol, case):
    graph, real, w = case
    inc = dense_incidence(graph)
    gm = dense_gain_matrix(graph)
    inc_zd = np.hstack([inc, gm.T])
    assert np.array_equal(graph.incidence(), inc)
    assert np.array_equal(graph.incidence_zd(), inc_zd)

    laps = weighted_laplacians(graph, w)
    abs_w = np.abs(w)[:, None]
    close(laps.laplacian, inc.T @ (w[:, None] * inc), np.abs(inc).T @ (abs_w * np.abs(inc)))
    close(
        laps.zd_laplacian,
        inc_zd.T @ (w[:, None] * inc_zd),
        np.abs(inc_zd).T @ (abs_w * np.abs(inc_zd)),
    )
    assert np.array_equal(laps.laplacian, laps.laplacian.T)
    assert np.array_equal(laps.zd_laplacian, laps.zd_laplacian.T)

    nu = dense_edge_vectors(graph, real)
    pts = np.abs(point_matrix(graph, real)).T
    nu_mag = (
        pts[graph.head_idx] + np.abs(gm.T) @ np.abs(real.lattice).T + pts[graph.tail_idx]
    ).reshape(nu.shape)
    close(edge_vectors(graph, real), nu, nu_mag)
    rig, fixed = rigidity_matrix(graph, real), fixed_rigidity_matrix(graph, real)
    for mat, with_lattice in ((rig, True), (fixed, False)):
        expected = dense_rigidity(graph, real, nu, with_lattice)
        close(mat, expected, np.abs(dense_rigidity(graph, real, nu_mag, with_lattice)))

    P, L = point_matrix(graph, real), real.lattice
    lap_dense = inc.T @ (w[:, None] * inc)
    resid = P @ lap_dense + L @ gm @ (w[:, None] * inc)
    # a loop's ends cancel in the residual but are two terms of its vertex's sum
    ends = dense_edge_ends(graph)
    bound = np.abs(P) @ np.abs(lap_dense) + np.abs(L) @ np.abs(gm) @ (abs_w * ends)
    report = verify_equilibrium(graph, real, w, "fixed", tol)
    scale = float(bound.max(initial=0.0))
    assert report.scale == pytest.approx(scale, rel=ULPS * EPS, abs=UNDERFLOW)
    # the residual is a max of cancelling sums: compare on the scale of its terms
    residual = float(np.abs(resid).max(initial=0.0))
    assert abs(report.residual - residual) <= ULPS * EPS * scale + UNDERFLOW


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=gain_graphs())
def test_rigidity_entries_scatter_to_the_rigidity_matrices(case):
    """The entries that generic trials read are the rigidity matrices bit for
    bit, signs of zero included: written entry by entry into a zero matrix
    they give ``rigidity_matrix`` and ``fixed_rigidity_matrix``, which equal
    the edge-by-edge definition; and added entry by entry they give the same
    values, so a column repeated within a row (a loop's) only adds zeros."""
    graph, real, _ = case
    nu = edge_vectors(graph, real)
    matrices = {False: rigidity_matrix(graph, real), True: fixed_rigidity_matrix(graph, real)}
    for fixed, mat in matrices.items():
        cols, vals = _rigidity_entries(graph, real, fixed)
        width = 2 * graph.dimension + (0 if fixed else graph.dimension**2)
        assert cols.shape == vals.shape == (graph.num_edges, width)
        written, added = np.zeros(mat.shape), np.zeros(mat.shape)
        for row, (where, values) in enumerate(zip(cols.tolist(), vals.tolist())):
            for col, value in zip(where, values):
                written[row, col] = value
                added[row, col] += value
        expected = dense_rigidity(graph, real, nu, not fixed)
        for other in (written, expected):
            assert np.array_equal(mat, other) and np.array_equal(np.signbit(mat), np.signbit(other))
        assert np.array_equal(mat, added)


def test_graph_caches_index_arrays():
    g = GainGraph(
        2,
        ("a", "b"),
        [("b", "a", (1, 0)), ("a", "a", (0, -1)), ("a", "b", (10**30, 0))],
    )
    assert g.tail_idx.tolist() == [1, 0, 0]
    assert g.head_idx.tolist() == [0, 0, 1]
    assert g.loop_mask.tolist() == [False, True, False]
    assert g.gain_array.dtype == np.float64
    assert g.gain_array[2, 0] == 1e30
    assert g.edges[2].gain == (10**30, 0)  # exact integers stay on the edges
    with pytest.raises(ValueError):
        g.tail_idx[0] = 0
    with pytest.raises(ValueError, match="float64"):
        GainGraph(1, ("a", "b"), [("a", "b", (10**400,))])
