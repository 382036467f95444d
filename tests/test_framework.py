import numpy as np
import pytest

from perigid.certify import certify_fixed_lattice
from perigid.errors import FlatLattice, NotAffinelySpanning
from perigid.framework import (
    Realization,
    congruence_check,
    edge_vectors,
    fixed_rigidity_matrix,
    is_affinely_spanning,
    is_fixed_lattice_inf_rigid,
    is_infinitesimally_rigid,
    measurement,
    point_matrix,
    random_realization,
    rigidity_matrix,
    trivial_motions,
    volume_rigidity_matrix,
)
from perigid.gain import GainGraph
from perigid.optimize import energy

from oracles import (
    realization_from_vector,
    realization_vector,
    reference_random_points,
    reference_trivial_motions,
)


def single_edge():
    g = GainGraph(2, ("u", "v"), [("u", "v", (0, 0))])
    r = Realization({"u": (0.0, 0.0), "v": (1.0, 0.0)}, np.eye(2))
    return g, r


def test_measurement_flex2(flex2):
    assert np.allclose(
        measurement(flex2.graph, flex2.realization), [0.25, 0.25, 1.0, 2.0, 2.0]
    )


def test_measurement_degenerate_zero():
    g = GainGraph(2, ("u", "v"), [("u", "v", (1, 0))])
    r = Realization({"u": (1.0, 1.0), "v": (1.0, 1.0)}, np.zeros((2, 2)))
    assert np.allclose(measurement(g, r), [0.0])


def test_measurement_congruence_invariant(hexes, tol):
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = hexes.realization.transformed(rot, shift=(3.0, -1.0))
    assert np.allclose(
        measurement(hexes.graph, hexes.realization), measurement(hexes.graph, moved)
    )
    assert congruence_check(hexes.realization, moved, tol) is not None


def test_rigidity_matrix_single_edge():
    g, r = single_edge()
    expected = np.array([[-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(rigidity_matrix(g, r), expected)


def test_rigidity_matrix_flex1_shape_and_vertex_block(flex1):
    mat = rigidity_matrix(flex1.graph, flex1.realization)
    assert mat.shape == (4, 6)
    assert np.array_equal(mat[:, :2], np.zeros((4, 2)))
    # loop rows carry gamma (x) L gamma in the lattice block
    assert np.array_equal(mat[0, 2:], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(mat[3, 2:], [1.0, -1.0, -1.0, 1.0])


def test_rigidity_matrix_finite_difference(tol):
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = GainGraph(
            2,
            ("a", "b"),
            [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("a", "a", (0, 1)), ("b", "b", (1, 1))],
        )
        r = random_realization(g, tol, seed=int(rng.integers(2**31)))
        vec = realization_vector(g, r)
        mat = rigidity_matrix(g, r)
        h = rng.standard_normal(vec.size)
        for eps in (1e-4, 1e-5):
            drift = measurement(g, realization_from_vector(g, vec + eps * h)) - (
                measurement(g, r) + 2 * eps * mat @ h
            )
            assert np.linalg.norm(drift) <= 50.0 * eps**2 * np.linalg.norm(h) ** 2


def test_fixed_rigidity_matrix_is_left_block(flex2, hexes, tol):
    for fix in (flex2, hexes):
        full = rigidity_matrix(fix.graph, fix.realization)
        fixed = fixed_rigidity_matrix(fix.graph, fix.realization)
        d = fix.graph.dimension
        assert np.array_equal(fixed, full[:, : d * fix.graph.num_vertices])


def test_fixed_rigidity_loop_rows_vanish(flex2):
    fixed = fixed_rigidity_matrix(flex2.graph, flex2.realization)
    assert np.array_equal(fixed[2:], np.zeros((3, 4)))


def test_volume_rigidity_matrix_last_row(tol):
    g, r = single_edge()
    mat = volume_rigidity_matrix(g, r, tol)
    assert mat.shape == (2, 8)
    assert np.array_equal(mat[1], [0, 0, 0, 0, -0.5, 0, 0, -0.5])


def test_volume_rigidity_scaling_and_fd(tol):
    g, _ = single_edge()
    r = random_realization(g, tol, seed=5)
    mat = volume_rigidity_matrix(g, r, tol)
    scaled = Realization(r.points, 3.0 * r.lattice)
    mat_scaled = volume_rigidity_matrix(g, scaled, tol)
    assert np.allclose(mat_scaled[-1], mat[-1] / 3.0)

    vec = realization_vector(g, r)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(vec.size)
    f0 = -np.log(abs(np.linalg.det(r.lattice)))
    for eps in (1e-5, 1e-6):
        moved = realization_from_vector(g, vec + eps * h)
        f1 = -np.log(abs(np.linalg.det(moved.lattice)))
        assert abs(f1 - f0 - 2 * eps * mat[-1] @ h) <= 100.0 * eps**2


def test_volume_rigidity_flat_lattice(tol):
    g, _ = single_edge()
    r = Realization({"u": (0.0, 0.0), "v": (1.0, 0.0)}, np.zeros((2, 2)))
    with pytest.raises(FlatLattice):
        volume_rigidity_matrix(g, r, tol)


@pytest.mark.parametrize("fixture_name", ["flex1", "flex2", "hex"])
def test_trivial_motions_in_kernel(catalog, fixture_name, tol):
    fix = catalog[fixture_name]
    basis = trivial_motions(fix.graph, fix.realization, tol)
    assert basis.shape[1] == 3
    mat = rigidity_matrix(fix.graph, fix.realization)
    assert np.abs(mat @ basis).max() <= tol.residual_tol


def test_trivial_motions_d3_count(tol):
    g = GainGraph(3, ("a",), [("a", "a", (1, 0, 0))])
    r = Realization({"a": (0.0, 0.0, 0.0)}, np.eye(3))
    assert trivial_motions(g, r, tol).shape[1] == 6


def _random_graph(d: int, n: int, seed: int) -> GainGraph:
    rng = np.random.default_rng(seed)
    verts = tuple(f"v{i}" for i in range(n))
    edges = {}
    for t in range(n):
        h = int(rng.integers(n))
        gain = tuple(int(x) for x in rng.integers(-2, 3, d))
        if h != t or any(gain):
            edges[(t, h, gain)] = None
    return GainGraph(d, verts, [(verts[t], verts[h], g) for t, h, g in edges])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_trivial_motions_equal_the_per_vertex_columns(catalog, d, tol):
    """The vectorised motions equal the columns built vertex by vertex, also
    at realizations with negative and zero coordinates."""
    cases = [(fix.graph, fix.realization) for fix in catalog.values() if fix.graph.dimension == d]
    for seed in range(3):
        graph = _random_graph(d, 2 + 3 * seed, seed)
        real = random_realization(graph, tol, seed=seed)
        cases.append((graph, real))
        cases.append((graph, real.transformed(-np.eye(d), np.full(d, 1.5))))
    for graph, real in cases:
        motions = trivial_motions(graph, real, tol)
        assert np.array_equal(motions, reference_trivial_motions(graph, real))
        assert motions.shape == (d * graph.num_vertices + d * d, d * (d + 1) // 2)


def test_random_realization_draws_every_point_in_one_call(tol):
    """All points come from one uniform draw, in the order the per-vertex
    draws made them; the first trial's points of a fixed seed are pinned."""
    g = GainGraph(2, ("a", "b", "c"), [("a", "b", (0, 0)), ("b", "c", (1, 0)), ("c", "a", (0, 1))])
    r = random_realization(g, tol, seed=tol.rng_seed)
    pinned = {
        "a": [1.6758313379812817, 1.2143232012382577],
        "b": [1.3094520308816917, 1.7994660967748333],
        "c": [1.9958020988654668, 1.1422318152800517],
    }
    assert {v: r.points[v].tolist() for v in g.vertices} == pinned
    assert r.lattice.tolist() == [
        [1.078725533761999, 1.1808238136968545],
        [1.359646891689351, 1.1696192497070483],
    ]
    for d, n in ((2, 160), (3, 100)):
        graph = _random_graph(d, n, n)
        expected = reference_random_points(graph, 2024 + n)
        real = random_realization(graph, tol, seed=2024 + n)
        assert all(np.array_equal(real.points[v], expected[v]) for v in graph.vertices)


def test_infinitesimal_rigidity_fixtures(flex1, flex2, hexes, tol):
    assert is_infinitesimally_rigid(flex1.graph, flex1.realization, tol)
    # the special collinear flex2 realization carries a stress, so its
    # rigidity matrix drops to rank 4 and the framework is flexible there
    assert not is_infinitesimally_rigid(flex2.graph, flex2.realization, tol)
    assert is_infinitesimally_rigid(
        flex2.graph, random_realization(flex2.graph, tol, seed=1), tol
    )
    assert not is_infinitesimally_rigid(hexes.graph, hexes.realization, tol)
    assert not is_infinitesimally_rigid(
        hexes.graph, random_realization(hexes.graph, tol, seed=1), tol
    )


def test_fixed_lattice_rigidity(hexes, flex2, tol):
    # 9 rows can never reach rank 10, so graphene is not fixed-lattice
    # infinitesimally rigid even at its special point (kernel dim 4 > 2)
    assert not is_fixed_lattice_inf_rigid(hexes.graph, hexes.realization, tol)
    assert is_fixed_lattice_inf_rigid(
        flex2.graph, random_realization(flex2.graph, tol, seed=3), tol
    )
    iso = GainGraph(2, ("a", "b", "c"), [("a", "b", (0, 0)), ("a", "b", (1, 0))])
    r = random_realization(iso, tol, seed=4)
    assert not is_fixed_lattice_inf_rigid(iso, r, tol)


def test_affinely_spanning_checks(tol):
    g = GainGraph(2, ("u", "v"), [("u", "v", (0, 0))])
    flat = Realization({"u": (0.0, 0.0), "v": (1.0, 0.0)}, np.zeros((2, 2)))
    assert not is_affinely_spanning(g, flat, tol)
    with pytest.raises(NotAffinelySpanning):
        is_infinitesimally_rigid(g, flat, tol)
    ok = Realization({"u": (0.0, 0.0), "v": (1.0, 0.0)}, np.eye(2))
    assert is_affinely_spanning(g, ok, tol)


def test_random_realization_determinism(flex2, tol):
    a = random_realization(flex2.graph, tol, seed=123)
    b = random_realization(flex2.graph, tol, seed=123)
    assert np.array_equal(a.lattice, b.lattice)
    assert all(np.array_equal(a.points[v], b.points[v]) for v in a.points)
    c = random_realization(flex2.graph, tol, seed=124)
    assert not np.allclose(
        measurement(flex2.graph, a), measurement(flex2.graph, c)
    )
    assert abs(np.linalg.det(a.lattice)) > tol.residual_tol


def test_congruence_check_identity_and_rotation(flex2, tol):
    same = congruence_check(flex2.realization, flex2.realization, tol)
    assert same is not None
    rot, shift = same
    assert np.allclose(rot, np.eye(2)) and np.allclose(shift, 0.0)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    turned = flex2.realization.transformed(quarter)
    found = congruence_check(flex2.realization, turned, tol)
    assert found is not None and np.allclose(found[0], quarter)


def test_congruence_check_detects_mismatch(flex2, tol):
    reflect = np.diag([1.0, -1.0])
    # reflect the points but keep the lattice: not a congruence
    broken = Realization(
        {v: reflect @ p for v, p in flex2.realization.points.items()},
        flex2.realization.lattice @ np.array([[1.0, 0.3], [0.0, 1.0]]),
    )
    mixed = Realization(broken.points, flex2.realization.lattice)
    r = random_realization(flex2.graph, tol, seed=8)
    refl_only = Realization({v: reflect @ p for v, p in r.points.items()}, r.lattice)
    assert congruence_check(r, refl_only, tol) is None


def test_vector_roundtrip(hexes):
    vec = realization_vector(hexes.graph, hexes.realization)
    back = realization_from_vector(hexes.graph, vec)
    assert np.array_equal(back.lattice, hexes.realization.lattice)
    assert all(
        np.array_equal(back.points[v], hexes.realization.points[v])
        for v in hexes.graph.vertices
    )


def test_realization_stacks_points_and_names_a_misfit():
    """Points of any shape with d entries become rows of one array; a point
    with another count is named."""
    real = Realization({"u": (0.0, 1.0), "v": np.array([[2.0], [3.0]])}, np.eye(2))
    assert real.points["u"].shape == real.points["v"].shape == (2,)
    assert np.array_equal(real.points["v"], [2.0, 3.0])
    with pytest.raises(ValueError, match="point for 'v' has wrong dimension"):
        Realization({"u": (0.0, 1.0), "v": (1.0, 2.0, 3.0)}, np.eye(2))


def test_point_matrix_views_the_points_in_graph_order():
    """In the realization's own vertex order the point matrix is a read-only
    view of its points' array; in another order, or with extra points, it
    gathers the graph's vertices once; a missing vertex is a ValueError that
    names it."""
    graph = GainGraph(2, ("a", "b", "c"), [("a", "b", (0, 0)), ("b", "c", (1, 0))])
    points = {"a": (0.0, 1.0), "b": (2.0, 3.0), "c": (4.0, 5.0)}
    expected = np.array([[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]])
    same = Realization(points, np.eye(2))
    P = point_matrix(graph, same)
    assert np.array_equal(P, expected) and not P.flags.writeable
    assert np.shares_memory(P, same.points["b"])
    reordered = Realization({"x": (9.0, 9.0), **dict(reversed(points.items()))}, np.eye(2))
    P = point_matrix(graph, reordered)
    assert np.array_equal(P, expected) and not P.flags.writeable
    with pytest.raises(ValueError, match="^vertex 'c' has no point$"):
        point_matrix(graph, Realization({"a": (0.0, 1.0), "b": (2.0, 3.0)}, np.eye(2)))


def test_a_realization_that_does_not_fit_its_graph_is_named(hexes, tol):
    """A realization of another dimension, or one with a vertex missing,
    raises a ValueError that names the mismatch on every geometric path,
    not numpy's length or matmul errors or a KeyError."""
    graph, real, w = hexes.graph, hexes.realization, hexes.stress
    solid = Realization({v: np.append(p, 0.0) for v, p in real.points.items()}, np.eye(3))
    partial = Realization({v: p for v, p in real.points.items() if v != "v6"}, real.lattice)
    cases = [(solid, "^a 3-D realization of a 2-D graph$"), (partial, "^vertex 'v6' has no point$")]
    for bad, message in cases:
        for call in (
            lambda: certify_fixed_lattice(graph, bad, w, tol),
            lambda: edge_vectors(graph, bad),
            lambda: rigidity_matrix(graph, bad),
            lambda: energy(graph, w, bad, tol),
        ):
            with pytest.raises(ValueError, match=message):
                call()
