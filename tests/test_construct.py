import math

import numpy as np
import pytest

from perigid.certify import Verdict, certify_super_stable, conic_at_infinity
from perigid.construct import (
    FiniteFramework,
    conjugation_identity_check,
    finite_to_periodic,
    fixtures,
)
from perigid.errors import DependentLatticeVectors, PairConditionViolated
from perigid.linalg import numeric_rank, symmetric_spectrum
from perigid.stress import verify_equilibrium, weighted_laplacians

SQRT2 = math.sqrt(2.0)

# Golden lattice-extended stress matrix of the rolled-up octagon tensegrity,
# rows and columns ordered 0,1,2,3,5,7,lx,ly (transcribed via its negative).
OCTAGON_LZD = -np.array(
    [
        [-4 * SQRT2 - 4, SQRT2 + 2, 0, SQRT2, SQRT2 + 2, SQRT2, -2 * SQRT2 - 2, 0],
        [SQRT2 + 2, -2 * SQRT2 - 2, SQRT2, 0, 0, 0, 0, -1],
        [0, SQRT2, -4 * SQRT2 - 4, SQRT2 + 2, SQRT2, SQRT2 + 2, 0, -2 * SQRT2 - 2],
        [SQRT2, 0, SQRT2 + 2, -2 * SQRT2 - 2, 0, 0, 1 + SQRT2, 0],
        [SQRT2 + 2, 0, SQRT2, 0, -2 * SQRT2 - 2, 0, SQRT2 + 2, 1 + SQRT2],
        [SQRT2, 0, SQRT2 + 2, 0, 0, -2 * SQRT2 - 2, -1, SQRT2 + 2],
        [-2 * SQRT2 - 2, 0, 0, 1 + SQRT2, SQRT2 + 2, -1, -2 * SQRT2 - 2, 0],
        [0, -1, -2 * SQRT2 - 2, 0, 1 + SQRT2, SQRT2 + 2, 0, -2 * SQRT2 - 2],
    ]
)

GOLDEN_QUOTIENT_EDGES = [
    ("0", "1", (0, 0)),
    ("1", "2", (0, 0)),
    ("2", "3", (0, 0)),
    ("3", "0", (1, 0)),
    ("5", "0", (1, 0)),
    ("5", "2", (0, 1)),
    ("7", "2", (0, 1)),
    ("7", "0", (0, 0)),
    ("0", "3", (0, 0)),
    ("7", "0", (1, 0)),
    ("1", "2", (0, 1)),
    ("2", "5", (0, 0)),
]


def test_octagon_finite_stress_verifies(octagon):
    assert octagon.finite.equilibrium_residual(octagon.finite_stress) <= 1e-10


def test_octagon_finite_laplacian_rank_and_psd(octagon, tol):
    lap = octagon.finite.weighted_laplacian(octagon.finite_stress)
    assert numeric_rank(lap, tol).rank == 5
    assert symmetric_spectrum(lap, tol).is_psd


def test_finite_to_periodic_reproduces_golden_quotient(octagon):
    assert octagon.graph.vertices == ("0", "1", "2", "3", "5", "7")
    ours = [(e.tail, e.head, e.gain) for e in octagon.graph.edges]
    assert ours == GOLDEN_QUOTIENT_EDGES
    assert np.array_equal(octagon.realization.lattice, 2.0 * np.eye(2))
    markings = octagon.graph.markings()
    assert markings[:8] == ("cable",) * 8 and markings[8:] == ("strut",) * 4


def test_finite_to_periodic_edge_count_preserved(octagon):
    assert octagon.graph.num_edges == len(octagon.finite.edges)


def test_octagon_quotient_laplacian_matches_golden(octagon, tol):
    laps = weighted_laplacians(octagon.graph, octagon.stress)
    assert np.abs(laps.zd_laplacian - OCTAGON_LZD).max() <= 1e-12
    assert numeric_rank(laps.zd_laplacian, tol).rank == 5
    assert symmetric_spectrum(laps.zd_laplacian, tol).is_psd


def test_octagon_conjugation_identity(octagon, tol):
    residual = conjugation_identity_check(
        octagon.finite, octagon.finite_stress, octagon.pairs, tol
    )
    assert residual <= 1e-12


def test_conjugation_identity_zero_stress(octagon, tol):
    assert conjugation_identity_check(octagon.finite, np.zeros(12), octagon.pairs, tol) == 0.0


def test_octagon_periodic_super_stable(octagon, tol):
    eq = verify_equilibrium(octagon.graph, octagon.realization, octagon.stress, "flexible", tol)
    assert eq.passed
    cert = certify_super_stable(octagon.graph, octagon.realization, octagon.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    assert conic_at_infinity(octagon.graph, octagon.realization, tol) is None


def triangle_1d():
    points = {"a": np.array([0.0]), "b": np.array([1.3]), "c": np.array([2.9])}
    return FiniteFramework(
        ("a", "b", "c"),
        (("a", "b"), ("b", "c"), ("c", "a")),
        points,
        ("bar", "bar", "bar"),
    )


def test_triangle_single_pair_construction():
    finite = triangle_1d()
    quotient = finite_to_periodic(finite, [("a", "b")])
    assert quotient.graph.vertices == ("a", "c")
    loops = [e for e in quotient.graph.edges if e.is_loop]
    assert len(loops) == 1 and loops[0].tail == "a"
    assert quotient.graph.num_edges == 3
    assert quotient.realization.lattice[0, 0] == pytest.approx(1.3)


def test_triangle_conjugation_identity(tol):
    finite = triangle_1d()
    rng = np.random.default_rng(0)
    for _ in range(5):
        weights = rng.standard_normal(3)
        assert conjugation_identity_check(finite, weights, [("a", "b")], tol) <= 1e-12


def test_pair_condition_violations():
    finite = triangle_1d()
    with pytest.raises(PairConditionViolated):
        finite_to_periodic(finite, [("a", "b"), ("c", "b")][:1] * 2)
    octa = fixtures()["octagon"].finite
    with pytest.raises(PairConditionViolated):
        finite_to_periodic(octa, [("0", "4"), ("4", "6")])  # tail equals a head
    with pytest.raises(PairConditionViolated):
        finite_to_periodic(octa, [("0", "4"), ("2", "4")])  # repeated head
    # a pair must name vertices, not just points
    extra = FiniteFramework(
        finite.vertices, finite.edges, {**finite.points, "z": np.array([5.0])}, finite.markings
    )
    for pair in (("a", "z"), ("z", "b")):
        with pytest.raises(PairConditionViolated, match="references unknown vertices"):
            finite_to_periodic(extra, [pair])


def test_dependent_lattice_vectors():
    points = {
        "a": np.array([0.0, 0.0]),
        "b": np.array([1.0, 0.0]),
        "c": np.array([2.0, 0.0]),
        "d": np.array([3.0, 0.0]),
        "e": np.array([0.0, 1.0]),
    }
    finite = FiniteFramework(
        ("a", "b", "c", "d", "e"),
        (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")),
        points,
        ("bar",) * 4,
    )
    with pytest.raises(DependentLatticeVectors):
        finite_to_periodic(finite, [("a", "b"), ("c", "d")])


def test_fixture_catalog_contents(catalog):
    assert set(catalog) == {"flex1", "flex2", "hex", "octagon"}
    flex2 = catalog["flex2"]
    assert flex2.graph.num_edges == 5
    assert np.array_equal(flex2.stress, [4.0, 4.0, 2.0, -1.0, -1.0])
    hexes = catalog["hex"]
    assert hexes.graph.num_edges == 9
    assert np.allclose(
        hexes.realization.lattice, [[3.0, 1.5], [0.0, 1.5 * math.sqrt(3.0)]]
    )


def test_octagon_covering_interior_degrees(octagon):
    """Interior covering degrees reproduce the glued-octagon picture.

    Un-identified orbits keep the finite degree 3; the two identified orbits
    are shared corners of neighboring octagon copies and carry both finite
    vertices' edges (degree 6).
    """
    cover = octagon.graph.covering_window(1)
    interior = cover.interior_vertices()
    assert interior
    for node in interior:
        expected = 6 if node[0] in ("0", "2") else 3
        assert cover.degree(node) == expected


def test_finite_framework_validation():
    """Repeated names, an unknown edge end and a vertex with no point raise
    ValueError on construction, not a zero Laplacian row or a KeyError later;
    of two faulty edges, the earlier one's fault is raised."""
    points = {"a": np.array([0.0, 0.0]), "b": np.array([1.0, 0.0])}
    with pytest.raises(ValueError, match="^finite frameworks have no loops$"):
        FiniteFramework(("a", "b"), (("a", "a"),), points, ("bar",))
    with pytest.raises(ValueError, match="^parallel edge 'b'-'a'$"):
        FiniteFramework(("a", "b"), (("a", "b"), ("b", "a")), points, ("bar", "bar"))
    with pytest.raises(ValueError, match="^vertex names must be distinct$"):
        FiniteFramework(("a", "b", "b"), (("a", "b"),), points, ("bar",))
    with pytest.raises(ValueError, match="^unknown vertex 'z'$"):
        FiniteFramework(("a", "b"), (("a", "z"),), points, ("bar",))
    with pytest.raises(ValueError, match="^vertex 'c' has no point$"):
        FiniteFramework(("a", "b", "c"), (("a", "b"),), points, ("bar",))
    loop = ("finite frameworks have no loops", ("b", "b"))
    parallel = ("parallel edge 'b'-'a'", ("b", "a"))
    unknown = ("unknown vertex 'z'", ("a", "z"))
    for first, second in [(loop, unknown), (unknown, loop), (parallel, unknown), (unknown, parallel)]:
        with pytest.raises(ValueError, match=f"^{first[0]}$"):
            FiniteFramework(("a", "b"), (("a", "b"), first[1], second[1]), points, ("bar",) * 3)

