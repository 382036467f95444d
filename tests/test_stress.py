import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from perigid.certify import certify_super_stable, certify_volume_constrained
from perigid.errors import FlatLattice, NonFiniteEntry, NotFixedLatticeStress, SingularGainBasis
from perigid.framework import (
    Realization,
    point_matrix,
    random_realization,
    rigidity_matrix,
)
from perigid.errors import DuplicateEdge
from perigid.gain import GainGraph
from perigid import stress
from perigid.certify import _sample, _trial_entry
from perigid.linalg import (
    KernelSample,
    SpectrumResult,
    _gram_rank_proof,
    numeric_rank,
    symmetric_spectrum,
)
from perigid.tolerances import ToleranceVault
from perigid.stress import (
    _laplacian_nullity,
    _laplacian_perturbation,
    _stress_spectrum,
    default_loop_gains,
    extend_with_loops,
    fixed_stress_space,
    is_proper,
    lambda_stress_space,
    normalized_stress,
    stress_space,
    strip_loops,
    verify_equilibrium,
    weighted_laplacians,
)

from oracles import dense_equilibrium, out_degree_graph

GOLDEN_FLEX2_LZD = np.array(
    [[8, -8, 4, 0], [-8, 8, -4, 0], [4, -4, 2, 0], [0, 0, 0, 0]], dtype=float
)


def test_weighted_laplacian_flex2_golden(flex2):
    laps = weighted_laplacians(flex2.graph, flex2.stress)
    assert np.array_equal(laps.zd_laplacian, GOLDEN_FLEX2_LZD)
    assert np.array_equal(laps.laplacian, GOLDEN_FLEX2_LZD[:2, :2])


def test_weighted_laplacian_zero_stress(flex2):
    laps = weighted_laplacians(flex2.graph, np.zeros(5))
    assert not laps.laplacian.any() and not laps.zd_laplacian.any()


def test_weighted_laplacians_share_one_read_only_buffer(hexes):
    laps = weighted_laplacians(hexes.graph, hexes.stress)
    assert np.shares_memory(laps.laplacian, laps.zd_laplacian)
    for matrix in (laps.laplacian, laps.zd_laplacian):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


@pytest.mark.parametrize("edges", [[], [("v", "v", (1, 0))]], ids=["edge-free", "loop-only"])
def test_weighted_laplacians_without_non_loop_edges_are_float(edges):
    """With no non-loop edge the scatter has no weight to sum, and bincount
    would give int64 zeros."""
    graph = GainGraph(2, ("v", "u"), edges)
    laps = weighted_laplacians(graph, np.full(len(edges), 2.0))
    assert laps.zd_laplacian.dtype == laps.laplacian.dtype == np.float64
    assert not laps.laplacian.any() and not laps.cross_block.any()
    expected = np.array([[2.0, 0.0], [0.0, 0.0]]) if edges else np.zeros((2, 2))
    assert np.array_equal(laps.zd_laplacian[2:, 2:], expected)


def test_weighted_laplacian_hex_is_graph_laplacian(hexes):
    laps = weighted_laplacians(hexes.graph, hexes.stress)
    expected = np.zeros((6, 6))
    for e in hexes.graph.edges:
        i, j = hexes.graph.vertex_index(e.tail), hexes.graph.vertex_index(e.head)
        expected[i, i] += 1
        expected[j, j] += 1
        expected[i, j] -= 1
        expected[j, i] -= 1
    assert np.array_equal(laps.laplacian, expected)


def test_laplacian_kernels_contain_ones(flex2, hexes, octagon):
    for fix in (flex2, hexes, octagon):
        laps = weighted_laplacians(fix.graph, fix.stress)
        n = fix.graph.num_vertices
        one_hat = np.concatenate([np.ones(n), np.zeros(2)])
        assert np.abs(laps.zd_laplacian @ one_hat).max() <= 1e-12
        assert np.abs(laps.laplacian @ np.ones(n)).max() <= 1e-12


def test_stress_space_flex2(flex2, tol):
    basis = stress_space(flex2.graph, flex2.realization, tol)
    assert basis.shape[1] == 1
    assert np.allclose(normalized_stress(basis) * 4.0, [4, 4, 2, -1, -1])


def test_stress_space_empty_cases(tol):
    three_loops = GainGraph(
        2, ("a",), [("a", "a", (1, 0)), ("a", "a", (0, 1)), ("a", "a", (1, 1))]
    )
    r = random_realization(three_loops, tol, seed=0)
    assert stress_space(three_loops, r, tol).shape[1] == 0

    tree = GainGraph(2, ("a", "b", "c"), [("a", "b", (0, 0)), ("b", "c", (0, 0))])
    assert stress_space(tree, random_realization(tree, tol, seed=1), tol).shape[1] == 0


def test_fixed_stress_space_hex_all_ones(hexes, tol):
    basis = fixed_stress_space(hexes.graph, hexes.realization, tol)
    assert basis.shape[1] == 1
    assert np.allclose(normalized_stress(basis), np.ones(9))


def test_fixed_stress_space_flex2(flex2, tol):
    # collinear special point: the two non-loop rows of R_L coincide up to
    # sign, so loops (3) plus one ratio constraint leave a 4-dim space
    assert fixed_stress_space(flex2.graph, flex2.realization, tol).shape[1] == 4
    generic = random_realization(flex2.graph, tol, seed=6)
    assert fixed_stress_space(flex2.graph, generic, tol).shape[1] == 3


def test_fixed_stress_space_single_edge(tol):
    g = GainGraph(2, ("a", "b"), [("a", "b", (0, 0))])
    assert fixed_stress_space(g, random_realization(g, tol, seed=2), tol).shape[1] == 0


def test_lambda_stress_space_hex(hexes, tol):
    det = abs(np.linalg.det(hexes.realization.lattice))
    scaled = hexes.realization.scaled(det**-0.5)
    basis = lambda_stress_space(hexes.graph, scaled, tol)
    assert basis.shape[1] == 1
    vec = basis[:, 0] / basis[0, 0]
    assert np.allclose(vec[:9], np.ones(9))
    assert vec[9] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    report = verify_equilibrium(hexes.graph, scaled, vec[:9], "volume", tol, lam=vec[9])
    assert report.passed


def test_lambda_stress_space_trivial_and_flat(tol):
    g = GainGraph(2, ("a", "b"), [("a", "b", (0, 0))])
    r = random_realization(g, tol, seed=3)
    assert lambda_stress_space(g, r, tol).shape[1] == 0
    with pytest.raises(FlatLattice):
        lambda_stress_space(g, Realization(r.points, np.zeros((2, 2))), tol)


def test_verify_equilibrium_modes(flex2, octagon, tol):
    assert verify_equilibrium(flex2.graph, flex2.realization, flex2.stress, "flexible", tol).passed
    assert verify_equilibrium(flex2.graph, flex2.realization, np.zeros(5), "flexible", tol).residual == 0.0
    # finite octagon as a zero-gain graph: fixed mode ignores the lattice part
    finite = octagon.finite
    zero_gain = GainGraph(
        2,
        finite.vertices,
        [(u, v, (0, 0), m) for (u, v), m in zip(finite.edges, finite.markings)],
    )
    real = Realization(dict(finite.points), np.eye(2))
    report = verify_equilibrium(zero_gain, real, octagon.finite_stress, "fixed", tol)
    assert report.passed and report.residual <= 1e-10


def test_verify_equilibrium_rejects_wrong_stress(hexes, tol):
    report = verify_equilibrium(hexes.graph, hexes.realization, hexes.stress, "flexible", tol)
    assert not report.passed  # all-ones is only a fixed-lattice stress for graphene


def test_stress_space_equals_left_kernel_and_verifies(tol):
    rng = np.random.default_rng(9)
    g = GainGraph(
        2,
        ("a", "b", "c"),
        [
            ("a", "b", (0, 0)),
            ("b", "c", (0, 0)),
            ("a", "c", (0, 0)),
            ("a", "b", (1, 0)),
            ("b", "c", (0, 1)),
            ("a", "c", (1, 1)),
            ("a", "a", (0, 1)),
            ("b", "b", (1, 0)),
        ],
    )
    for seed in range(5):
        r = random_realization(g, tol, seed=seed)
        basis = stress_space(g, r, tol)
        mat = rigidity_matrix(g, r)
        for k in range(basis.shape[1]):
            w = basis[:, k]
            assert np.abs(w @ mat).max() <= 1e-9
            assert verify_equilibrium(g, r, w, "flexible", tol).passed


def test_stress_space_congruence_invariant(flex2, tol):
    theta = 1.1
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = flex2.realization.transformed(rot, shift=(0.4, -2.0))
    b1 = stress_space(flex2.graph, flex2.realization, tol)
    b2 = stress_space(flex2.graph, moved, tol)
    assert np.abs(b1 @ b1.T - b2 @ b2.T).max() <= 1e-9


def test_cross_block_substitution_identity(hexes, tol):
    """Off-diagonal block equals -L(G,w) P^T L^-T for fixed-lattice stresses."""
    laps = weighted_laplacians(hexes.graph, hexes.stress)
    P = point_matrix(hexes.graph, hexes.realization)
    L = hexes.realization.lattice
    expected = -laps.laplacian @ P.T @ np.linalg.inv(L).T
    assert np.abs(laps.cross_block - expected).max() <= 1e-9


def test_extend_with_loops_hex(hexes, tol):
    extended, stacked = extend_with_loops(hexes.graph, hexes.realization, hexes.stress, tol)
    assert extended.num_edges == hexes.graph.num_edges + 3
    report = verify_equilibrium(extended, hexes.realization, stacked, "flexible", tol)
    assert report.passed


def test_extend_with_loops_zero_stress(hexes, tol):
    _, stacked = extend_with_loops(hexes.graph, hexes.realization, np.zeros(9), tol)
    assert np.abs(stacked).max() == 0.0


def test_extend_with_loops_guards(hexes, flex2, tol):
    with pytest.raises(NotFixedLatticeStress):
        extend_with_loops(hexes.graph, hexes.realization, np.arange(9.0) + 1.0, tol)
    with pytest.raises(SingularGainBasis):
        extend_with_loops(
            hexes.graph,
            hexes.realization,
            hexes.stress,
            tol,
            gains=[(1, 0), (2, 0), (1, 1)],  # (2,0) outer product repeats (1,0)'s
        )


def test_default_loop_gains_basis():
    gains = default_loop_gains(2)
    assert gains == [(1, 0), (0, 1), (1, 1)]
    mats = [np.outer(g, g).reshape(-1) for g in gains]
    # three outer products span the symmetric 2x2 matrices
    assert np.linalg.matrix_rank(np.array(mats)[:, [0, 1, 3]]) == 3


def test_strip_loops_flex2(flex2, tol):
    stripped, w, report = strip_loops(flex2.graph, flex2.realization, flex2.stress, tol)
    assert stripped.num_edges == 2
    assert np.array_equal(w, [4.0, 4.0])
    assert report.rank_zd == report.rank_laplacian == report.rank_stripped == 1


def test_strip_loops_loopless_identity(hexes, tol):
    # graphene has no loops, but its all-ones stress is only fixed-lattice;
    # extend first, then strip back down
    extended, stacked = extend_with_loops(hexes.graph, hexes.realization, hexes.stress, tol)
    stripped, w, report = strip_loops(extended, hexes.realization, stacked, tol)
    assert stripped.num_edges == 9
    assert np.allclose(w, np.ones(9))
    assert report.rank_zd == report.rank_laplacian == report.rank_stripped == 5


def test_strip_loops_all_loops(flex1, tol):
    stripped, w, report = strip_loops(flex1.graph, flex1.realization, flex1.stress, tol)
    assert stripped.num_edges == 0
    assert report.rank_zd == report.rank_laplacian == report.rank_stripped == 0


def test_covering_force_balance_oracle(catalog, tol):
    """Lifted balance at interior window-2 covering vertices, residual <= 1e-9."""
    for name in ("flex1", "flex2", "octagon", "hex"):
        fix = catalog[name]
        graph, real, weights = fix.graph, fix.realization, fix.stress
        cover = graph.covering_window(2)
        pos = {
            node: real.points[node[0]] + real.lattice @ np.array(node[1], float)
            for node in cover.vertices
        }
        interior = cover.interior_vertices()
        assert interior
        for node in interior:
            v, shift = node
            force = np.zeros(2)
            for idx, e in enumerate(graph.edges):
                if e.tail == v:
                    nb = (e.head, tuple(s + g for s, g in zip(shift, e.gain)))
                    force += weights[idx] * (pos[nb] - pos[node])
                if e.head == v:
                    nb = (e.tail, tuple(s - g for s, g in zip(shift, e.gain)))
                    force += weights[idx] * (pos[nb] - pos[node])
            assert np.abs(force).max() <= 1e-9


def test_is_proper_zero_band(flex2, tol):
    marked = flex2.graph.with_markings(["cable", "cable", "cable", "strut", "strut"])
    assert is_proper(marked, flex2.stress, tol)
    assert not is_proper(marked, -flex2.stress, tol)
    # the zero band is relative to max|w|: a negative cable weight as large
    # as the largest weight is a sign violation at any scale
    assert not is_proper(marked, np.array([1e-12, -1e-12, 0.0, 0.0, 0.0]), tol)
    assert is_proper(marked, np.array([1.0, -1e-12, 0.0, 0.0, 0.0]), tol)


def _flat_wheel():
    """A triangle with its centre on a flat lattice (second column zero), and
    a stress in fixed equilibrium that affinely spans the plane."""
    corners = {
        "a": np.array([1.0, 0.0]),
        "b": np.array([-0.5, math.sqrt(3.0) / 2.0]),
        "c": np.array([-0.5, -math.sqrt(3.0) / 2.0]),
        "o": np.array([0.0, 0.0]),
    }
    wheel = GainGraph(
        2,
        ("a", "b", "c", "o"),
        [
            ("a", "b", (0, 0)),
            ("b", "c", (0, 0)),
            ("c", "a", (0, 0)),
            ("o", "a", (0, 0)),
            ("o", "b", (0, 0)),
            ("o", "c", (0, 0)),
        ],
    )
    flat = Realization(corners, np.array([[1.0, 0.0], [0.0, 0.0]]))
    return wheel, flat, np.array([1.0, 1.0, 1.0, -3.0, -3.0, -3.0])


def test_flat_but_affinely_spanning_laplacian_kernel(tol):
    """A flat lattice with an affinely spanning stress forces kernel >= 2."""
    wheel, flat, weights = _flat_wheel()
    assert verify_equilibrium(wheel, flat, weights, "fixed", tol).passed
    laps = weighted_laplacians(wheel, weights)
    kernel = laps.laplacian.shape[0] - numeric_rank(laps.laplacian, tol).rank
    assert kernel >= 2


def test_flexible_certificate_refuses_a_flat_lattice(tol, tmp_path):
    """The flexible certificate reads the Laplacian in place of Lzd, which
    holds only at a non-flat lattice: a flat one raises FlatLattice, and the
    CLI exits 2, though the points span the plane."""
    from perigid import fileformat
    from perigid.cli import cli

    wheel, flat, weights = _flat_wheel()
    with pytest.raises(FlatLattice):
        certify_super_stable(wheel, flat, weights, tol)
    path = tmp_path / "wheel.json"
    path.write_bytes(fileformat.dumps(wheel, flat, weights))
    assert cli(["certify", str(path), "--mode", "flexible"]) == 2


@st.composite
def flexible_stress_cases(draw):
    """Small gain graphs (d = 2-3, loops allowed, about as many edges as a
    rigid one needs) at a seeded random non-flat realization, with a random
    stress of their flexible stress space."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    gain = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    names = [f"v{i}" for i in range(n)]
    kept = []
    count = d * n + d * (d - 1) // 2  # the fewest edges for a rigid R, give or take a few
    edges = st.lists(st.tuples(vertex, vertex, gain), min_size=count - 2, max_size=count + 4)
    for t, h, g in draw(edges):
        edge = (names[t], names[h], tuple(g))
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, names, kept + [edge])
        except DuplicateEdge:
            continue
        kept.append(edge)
    graph = GainGraph(d, names, kept)
    tol = ToleranceVault()
    real = random_realization(graph, tol, seed=draw(st.integers(0, 2**16)))
    basis = stress_space(graph, real, tol)
    coefficient = st.floats(-1.0, 1.0).map(lambda x: 0.0 if abs(x) < 1e-6 else x)
    coefficients = draw(st.lists(coefficient, min_size=basis.shape[1], max_size=basis.shape[1]))
    return graph, real, basis @ np.array(coefficients, dtype=float)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=flexible_stress_cases())
def test_flexible_stress_lzd_nullity_is_laplacian_nullity_plus_d(tol, case):
    """The identity the flexible certificate and trial stand on: for a stress
    in flexible equilibrium at a non-flat lattice, nullity(Lzd) =
    nullity(L) + d and Lzd is PSD exactly when L is."""
    graph, real, w = case
    assert real.non_flat(tol)
    assert verify_equilibrium(graph, real, w, "flexible", tol).passed
    lzd = _stress_spectrum(graph, w, "zd_laplacian", tol)
    lap = _stress_spectrum(graph, w, "laplacian", tol)
    assert lzd.nullity == lap.nullity + graph.dimension
    assert lzd.is_psd == lap.is_psd


@st.composite
def volume_stress_cases(draw):
    """Small gain graphs (d = 2-3, loops allowed, about as many edges as a
    rigid one needs, often of gain rank below d) at a seeded random
    unit-volume realization, with a random (stress, multiplier) pair of their
    lambda stress space, signed so that the multiplier is not negative."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    rank = draw(st.integers(1, d))  # gains vanish past their first ``rank`` coordinates
    gain = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    names = [f"v{i}" for i in range(n)]
    kept = []
    count = d * n + d * (d - 1) // 2
    edges = st.lists(st.tuples(vertex, vertex, gain), min_size=count - 2, max_size=count + 4)
    for t, h, g in draw(edges):
        edge = (names[t], names[h], tuple(g) + (0,) * (d - rank))
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, names, kept + [edge])
        except DuplicateEdge:
            continue
        kept.append(edge)
    graph = GainGraph(d, names, kept)
    tol = ToleranceVault()
    real = random_realization(graph, tol, seed=draw(st.integers(0, 2**16)))
    real = real.scaled(abs(np.linalg.det(real.lattice)) ** (-1.0 / d))
    basis = lambda_stress_space(graph, real, tol)
    coefficient = st.floats(-1.0, 1.0).map(lambda x: 0.0 if abs(x) < 1e-6 else x)
    coefficients = draw(st.lists(coefficient, min_size=basis.shape[1], max_size=basis.shape[1]))
    vec = basis @ np.array(coefficients, dtype=float)
    vec = -vec if vec[-1] < 0 else vec
    return graph, real, vec[:-1], float(vec[-1])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=volume_stress_cases())
def test_volume_stress_lzd_decided_by_laplacian(tol, case):
    """The identity the volume certificate stands on: once its multiplier and
    volume-equilibrium clauses pass, nullity(Lzd) = nullity(L), Lzd is PSD
    exactly when L is, and so the certificate's verdict is the one the dense
    Lzd gives.  Below gain rank d no multiplier passes: a u != 0 orthogonal
    to every gain makes [0; u] a kernel vector of Lzd, so volume equilibrium
    gives lam L^-T u = 0."""
    graph, real, w, lam = case
    cert = certify_volume_constrained(graph, real, w, lam, tol)
    if graph.gain_rank() < graph.dimension:
        assert cert.failing.startswith("multiplier")
    if cert.failing is not None and not cert.failing.startswith("Laplacian"):
        return  # the multiplier or equilibrium clause fails first
    laps = weighted_laplacians(graph, w)
    lzd = symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale)
    lap = _stress_spectrum(graph, w, "laplacian", tol)
    assert (lzd.nullity, lzd.is_psd) == (lap.nullity, lap.is_psd)
    assert cert.positive == (lzd.nullity == 1 and lzd.is_psd)


def test_verify_equilibrium_gate_scale_invariant(flex2, hexes, tol):
    """Rescaling a stress must not change the pass verdict in either direction."""
    for factor in (1e-12, 1e6):
        good = verify_equilibrium(
            flex2.graph, flex2.realization, factor * flex2.stress, "flexible", tol
        )
        assert good.passed
        # all-ones on graphene fails the moment condition at every scale
        bad = verify_equilibrium(
            hexes.graph, hexes.realization, factor * hexes.stress, "flexible", tol
        )
        assert not bad.passed


def test_extend_with_loops_stress_space_bijection(hexes, flex2, tol):
    """Loop extension matches fixed stresses of G with flexible stresses of G+F."""
    ext, _ = extend_with_loops(hexes.graph, hexes.realization, hexes.stress, tol)
    assert (
        stress_space(ext, hexes.realization, tol).shape[1]
        == fixed_stress_space(hexes.graph, hexes.realization, tol).shape[1]
        == 1
    )
    # flex2 has loops at v1 already, so hang the new ones off v2
    base = np.array([4.0, 4.0, 0.0, 0.0, 0.0])
    ext2, stacked = extend_with_loops(
        flex2.graph, flex2.realization, base, tol, vertex="v2"
    )
    assert verify_equilibrium(ext2, flex2.realization, stacked, "flexible", tol).passed
    assert (
        stress_space(ext2, flex2.realization, tol).shape[1]
        == fixed_stress_space(flex2.graph, flex2.realization, tol).shape[1]
        == 4
    )


@st.composite
def stressed_gain_graphs(draw):
    """Small gain graphs (d = 1-3, loops, often several components) with one
    weight per edge on [0.5, 1.5], and a copy of those weights with mixed signs."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    gain = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    names = [f"v{i}" for i in range(n)]
    kept = []
    for t, h, g in draw(st.lists(st.tuples(vertex, vertex, gain), max_size=12)):
        edge = (names[t], names[h], tuple(g))
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, names, kept + [edge])
        except DuplicateEdge:
            continue
        kept.append(edge)
    graph = GainGraph(d, names, kept)
    unit = st.floats(0.5, 1.5)
    weights = np.array(draw(st.lists(unit, min_size=len(kept), max_size=len(kept))))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=len(kept),
                                   max_size=len(kept))))
    if kept:
        signs[draw(st.integers(0, len(kept) - 1))] = draw(st.sampled_from([-1.0, 0.0]))
    return graph, weights, signs * weights


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=stressed_gain_graphs())
def test_stress_spectrum_agrees_with_the_eigenvalue_cut(tol, case):
    """A positive stress's exact nullity and PSD verdict are the eigenvalue
    cut's on these well-scaled inputs, and the graph rule's bound on its
    Laplacian's second singular value lies below the second eigenvalue; any
    other stress gets the cut's result."""
    graph, weights, mixed = case
    laps = weighted_laplacians(graph, weights)
    for block in ("laplacian", "zd_laplacian"):
        exact = _stress_spectrum(graph, weights, block, tol)
        cut = symmetric_spectrum(getattr(laps, block), tol, laps.weight_scale)
        assert (exact.nullity, exact.is_psd) == (cut.nullity, cut.is_psd)
        assert exact.rank == cut.rank
        assert exact.min_eigenvalue == 0.0 and not exact.marginal
    second = _stress_spectrum(graph, weights, "laplacian", tol).second
    if graph.num_vertices == 1:
        assert second == np.inf
    else:
        assert 0.0 <= second <= np.sort(np.abs(np.linalg.eigvalsh(laps.laplacian)))[1]
        assert (second > 0.0) == (len(graph.components()) == 1)
    if not mixed.size:
        return
    laps = weighted_laplacians(graph, mixed)
    for block in ("laplacian", "zd_laplacian"):
        got = _stress_spectrum(graph, mixed, block, tol)
        cut = symmetric_spectrum(getattr(laps, block), tol, laps.weight_scale)
        assert got == cut


def test_stress_spectrum_sends_non_finite_weights_to_the_eigensolver(hexes, tol):
    weights = hexes.stress.copy()
    weights[3] = np.nan
    with pytest.raises(NonFiniteEntry):
        _stress_spectrum(hexes.graph, weights, "laplacian", tol)


@st.composite
def equilibrium_cases(draw):
    """Small gain graphs (d = 1-3, loops, often several components) where some
    edges have a parallel twin of the opposite weight, at a realization
    translated by up to 1e8, with random weights or, in the drawn mode, a
    stress from that mode's stress space (and its multiplier in volume mode)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    gain = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    weight = st.floats(-10.0, 10.0, allow_subnormal=False).map(lambda x: 0.0 if abs(x) < 1e-6 else x)
    names = [f"v{i}" for i in range(n)]
    kept, weights = [], []
    edges = st.lists(st.tuples(vertex, vertex, gain, st.booleans()), max_size=10)
    for t, h, g, twin in draw(edges):
        w = draw(weight)
        candidates = [((names[t], names[h], tuple(g)), w)]
        if twin:  # a parallel edge (another gain on the same pair) of the opposite weight
            candidates.append(((names[t], names[h], tuple(x + 1 for x in g)), -w))
        for edge, value in candidates:
            if edge[0] == edge[1] and not any(edge[2]):
                continue
            try:
                GainGraph(d, names, kept + [edge])
            except DuplicateEdge:
                continue
            kept.append(edge)
            weights.append(value)
    graph = GainGraph(d, names, kept)
    coord = st.floats(-5.0, 5.0, allow_subnormal=False)
    shift = draw(st.sampled_from([0.0, 1e3, -1e5, 1e8])) * np.array(
        draw(st.lists(st.floats(0.5, 1.0), min_size=d, max_size=d)))
    points = {v: np.array(draw(st.lists(coord, min_size=d, max_size=d))) + shift for v in names}
    lattice = np.array(draw(st.lists(coord, min_size=d * d, max_size=d * d))).reshape(d, d)
    real = Realization(points, lattice)
    mode = draw(st.sampled_from(["flexible", "fixed", "volume"]))
    w, lam = np.array(weights), draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()) and kept and (mode != "volume" or real.non_flat(ToleranceVault())):
        tol = ToleranceVault()
        space = {"flexible": stress_space, "fixed": fixed_stress_space,
                 "volume": lambda_stress_space}[mode](graph, real, tol)
        if space.shape[1]:
            stress = space @ np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=space.shape[1],
                                                    max_size=space.shape[1])))
            w, lam = (stress[:-1], float(stress[-1])) if mode == "volume" else (stress, lam)
    return graph, real, w, mode, lam


# a stress of about 1e-313 whose edge-summed residual is one subnormal step
# (5e-324) where the dense product gives 0.0
SUBNORMAL_CASE = (
    GainGraph(1, ["v0", "v1"], [("v1", "v0", (-1,)), ("v1", "v1", (-1,)), ("v1", "v0", (0,))]),
    Realization({"v0": (0.5,), "v1": (1.0,)}, np.array([[0.5]])),
    np.array([-3.3333333334e-314, 6.666666667e-314, 6.666666667e-314]),
    "flexible",
    0.0,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=equilibrium_cases())
@example(case=SUBNORMAL_CASE)
def test_edge_equilibrium_matches_the_dense_stress_matrices(tol, case):
    """The residual and gate summed over the edges are the dense products'
    within 1e-12 of the gate, and pass or fail alike."""
    graph, real, w, mode, lam = case
    try:
        dense = dense_equilibrium(graph, real, w, mode, tol, lam)
    except FlatLattice:
        with pytest.raises(FlatLattice):
            verify_equilibrium(graph, real, w, mode, tol, lam)
        return
    edges = verify_equilibrium(graph, real, w, mode, tol, lam)
    # Each entry sums at most |V| + d + 1 products, and a product below the
    # normal range rounds to a multiple of the least subnormal, an absolute
    # error of up to half a step on either side that 1e-12 * scale does not
    # cover once the scale is itself subnormal.
    floor = (graph.num_vertices + graph.dimension + 1) * np.finfo(float).smallest_subnormal
    assert abs(edges.residual - dense.residual) <= 1e-12 * dense.scale + floor
    assert abs(edges.scale - dense.scale) <= 1e-12 * dense.scale + floor
    assert edges.passed == dense.passed


def _ones_kernel_matrix(seed: int, values: np.ndarray) -> np.ndarray:
    """Q diag(values) Q^T, exactly symmetric, whose first eigenvector is
    1/sqrt(n): the shape of a stress Laplacian with eigenvalue values[0] on
    the all-ones vector."""
    n = values.size
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))[0]
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def _dense_proof(matrix: np.ndarray, tol, floor: float):
    """``_gram_rank_proof`` of a dense symmetric matrix as rows, with the
    known kernel 1/sqrt(n) and the first column dropped."""
    n = matrix.shape[0]
    rows, cols = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    basis = np.full((n, 1), 1.0 / np.sqrt(n))
    return _gram_rank_proof(rows, cols, matrix.ravel(), (n, n), basis, np.arange(n) > 0, tol, floor)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 40),
    st.one_of(st.just(0.0), st.floats(-20.0, -4.0)),
    st.sampled_from(["cut", "guard"]),
    st.floats(-1.0, 2.5),
    st.sampled_from([0.0, 1.0, 100.0]),
    st.integers(0, 2**32 - 1),
)
def test_laplacian_proof_is_the_eigenvalue_cut_near_its_borders(n, zero, near, offset, floor, seed):
    """On Q diag(lambda) Q^T with the all-ones eigenvector, whose eigenvalue
    is 0 or a small leak 10^zero, sigma_1 = 1 and a floor f of 0, 1 or 100,
    and the next least |lambda_2| placed from 0.1 to 300 times the cut
    (rank_rel_tol n max(sigma_1, f)) or the gap guard (10^3 times the leak),
    with mixed signs: whenever the Gram proof decides, ``eigvalsh`` and the
    cut of ``symmetric_spectrum`` give nullity 1, not marginal."""
    tol = ToleranceVault()
    rng = np.random.default_rng(seed)
    leak = 0.0 if zero == 0.0 else 10.0**zero
    border = tol.rank_rel_tol * n * max(1.0, floor) if near == "cut" else 1e3 * max(leak, 1e-18)
    second = min(10.0**offset * border, 0.5)
    values = np.concatenate([[leak, second], 10.0 ** rng.uniform(np.log10(second), 0.0, n - 2)])
    values[2:3] = 1.0
    values *= rng.choice([-1.0, 1.0], n)
    matrix = _ones_kernel_matrix(seed, values)
    if _dense_proof(matrix, tol, floor) is not None:
        spec = symmetric_spectrum(matrix, tol, floor)
        assert (spec.nullity, spec.marginal) == (1, False)


def _proved_nullity(graph, w, tol):
    """``_laplacian_nullity`` with the size gate off, or None when its proof
    declines and it would ask ``_stress_spectrum``."""
    declined = SpectrumResult(0, -1, False, False, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stress, "_GRAM_MIN_COLS", 0)
        mp.setattr(stress, "_stress_spectrum", lambda *args: declined)
        got = _laplacian_nullity(graph, w, tol)[:2]
    return None if got[0] == -1 else got


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(4, 30),
    st.integers(2, 4),
    st.booleans(),
    st.integers(-6, 6),
    st.integers(0, 2**32 - 1),
)
def test_trial_laplacian_proof_is_the_eigenvalue_cut(d, n, out, fixed, scale, seed):
    """On the stresses that generic trials draw on ``out_degree_graph``s at
    any scale, whenever the proof of L's nullity decides, the dense L's
    ``eigvalsh`` cut, with the floor max|w| that ``_stress_spectrum`` passes,
    gives nullity 1, not marginal."""
    tol = ToleranceVault()
    graph = out_degree_graph(seed, n=n, out=min(out, n - 1), d=d)
    real = random_realization(graph, tol, seed=seed).scaled(10.0**scale)
    _, sample = _sample(graph, real, fixed, np.random.default_rng(seed), tol)
    w = sample.stress
    if sample.rank == graph.num_edges:
        return
    proved = _proved_nullity(graph, w, tol)
    if proved is not None:
        laps = weighted_laplacians(graph, w)
        spec = symmetric_spectrum(laps.laplacian, tol, laps.weight_scale)
        assert proved == (spec.nullity, spec.marginal) == (1, False)


def test_trial_laplacian_proof_decides_generic_trials(tol):
    """The proof is not vacuous: it decides every trial's Laplacian on
    ``out_degree_graph(0, n=100)`` in both modes."""
    graph = out_degree_graph(0, n=100)
    for fixed in (False, True):
        for seed in range(3):
            real = random_realization(graph, tol, seed=seed)
            _, sample = _sample(graph, real, fixed, np.random.default_rng(seed), tol)
            assert _proved_nullity(graph, sample.stress, tol) == (1, False)


def test_trial_laplacian_just_under_the_cut_is_proved_positive(tol):
    """Known defect 1, mended: a trial stress whose Laplacian has one zero
    eigenvalue and one just under the cut (0.44 of it, as 4.4e-7 against
    1e-6 at order 1000), with the next at 2e-5 sigma_1, on the complete
    graph of order 100.  The Gram proof declines, and ``eigvalsh``'s cut
    still reads nullity 2, marginal, and votes negative; but its second
    eigenvalue, less the eigensolver's backward error, clears the bound on
    the distance to the exact stress's Laplacian, so the trial is proved
    positive.  A stress known only to within 1e-8 is not: the bound is then
    about 2e-7, above the eigenvalue."""
    n = 100
    rng = np.random.default_rng(26)
    values = np.concatenate([[0.0, 0.44 * tol.rank_rel_tol * n, 2e-5],
                             10.0 ** rng.uniform(-4.0, 0.0, n - 3)])
    values[3] = 1.0
    values *= rng.choice([-1.0, 1.0], n)
    matrix = _ones_kernel_matrix(26, values)
    names = tuple(f"v{i}" for i in range(n))
    i, j = np.triu_indices(n, 1)
    graph = GainGraph(2, names, [(names[a], names[b], (0, 0)) for a, b in zip(i, j)])
    w = -matrix[i, j]
    laps = weighted_laplacians(graph, w)
    spec = symmetric_spectrum(laps.laplacian, tol, laps.weight_scale)
    assert (spec.nullity, spec.marginal) == (2, True)
    assert _proved_nullity(graph, w, tol) is None
    assert 0.43 * tol.rank_rel_tol * n < spec.second < 0.44 * tol.rank_rel_tol * n
    rank = graph.num_edges - 1
    for distance, proved in ((1e-10, True), (1e-8, False)):
        sample = KernelSample(rank, False, w, "lstsq", distance)
        entry = _trial_entry(graph, True, rank, sample, tol)
        assert (entry["stress_kernel_dim"], entry["marginal"], entry["positive"]) == (2, True, False)
        assert entry["proved"] is proved
        assert entry["lambda2"] == spec.second
        assert entry["bound"] == _laplacian_perturbation(graph, w, distance)
