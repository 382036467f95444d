import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.certify import Verdict, certify_volume_constrained
from perigid import optimize
from perigid.errors import (
    DegenerateKernel,
    FlatLattice,
    FormMismatch,
    HypothesisFailed,
    ImproperStress,
    VolumeNotOne,
)
from perigid.framework import (
    Realization,
    congruence_check,
    random_realization,
)
from perigid.gain import GainGraph
from perigid.linalg import symmetric_spectrum
from perigid.optimize import (
    energy,
    energy_gradient,
    standard_realization,
    verify_kkt,
)
from perigid.stress import lambda_stress_space, normalized_stress, weighted_laplacians

from oracles import (
    cable_framework,
    projected_gradient_refine,
    realization_from_vector,
    realization_vector,
    reverify,
    strut_chord,
)


def test_energy_flex2_vanishes(flex2, tol):
    assert energy(flex2.graph, flex2.stress, flex2.realization, tol) == pytest.approx(0.0)
    assert energy(flex2.graph, np.zeros(5), flex2.realization, tol) == 0.0


def test_energy_quadratic_scaling(hexes, tol):
    base = energy(hexes.graph, hexes.stress, hexes.realization, tol)
    scaled = energy(hexes.graph, hexes.stress, hexes.realization.scaled(3.0), tol)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_energy_gradient_zero_at_equilibrium(flex2, tol):
    grad = energy_gradient(flex2.graph, flex2.stress, flex2.realization, tol)
    assert np.abs(grad).max() <= 1e-12
    assert np.abs(energy_gradient(flex2.graph, np.zeros(5), flex2.realization, tol)).max() == 0.0


def test_energy_cross_checks_hold_on_a_translated_framework(tol):
    """Translating a framework moves neither formulation of the energy or its
    gradient beyond the rounding of its own terms, so neither check fails: the
    quadratic form sums terms of size |p|^2 |w| that cancel to the energy."""
    graph, w = cable_framework(0)
    real, _ = standard_realization(graph, w, tol)
    base = energy(graph, w, real, tol)
    gradient = energy_gradient(graph, w, real, tol)
    for shift in (1e5, 1e7):
        moved = real.transformed(np.eye(2), shift=(shift, -shift))
        assert energy(graph, w, moved, tol) == pytest.approx(base, rel=1e-6)
        assert np.abs(energy_gradient(graph, w, moved, tol) - gradient).max() <= 1e-6


def test_energy_cross_checks_catch_an_error_at_tiny_weights(monkeypatch, tol):
    """A relative error of 1e-3 in the quadratic form is caught however small
    the weights: each check is gated against its own terms, with no floor."""
    graph, w = cable_framework(0)
    real = random_realization(graph, tol, seed=3)
    tiny = 1e-12 * w
    energy(graph, tiny, real, tol)
    energy_gradient(graph, tiny, real, tol)
    original = optimize._zd_terms

    def skewed(*args):
        product, terms = original(*args)
        return product * (1.0 + 1e-3), terms

    monkeypatch.setattr(optimize, "_zd_terms", skewed)
    with pytest.raises(FormMismatch):
        energy(graph, tiny, real, tol)
    with pytest.raises(FormMismatch):
        energy_gradient(graph, tiny, real, tol)


def test_energy_gradient_finite_differences(tol):
    """Central differences match the gradient to relative error 1e-5."""
    rng = np.random.default_rng(17)
    g = GainGraph(
        2,
        ("a", "b", "c"),
        [
            ("a", "b", (0, 0)),
            ("b", "c", (1, 0)),
            ("a", "c", (0, 1)),
            ("a", "a", (1, 1)),
            ("b", "c", (0, 0)),
        ],
    )
    eps = 1e-5
    for trial in range(100):
        r = random_realization(g, tol, seed=trial)
        w = rng.standard_normal(g.num_edges)
        grad = energy_gradient(g, w, r, tol)
        h = rng.standard_normal(grad.size)
        h /= np.linalg.norm(h)
        vec = realization_vector(g, r)
        plus = energy(g, w, realization_from_vector(g, vec + eps * h), tol)
        minus = energy(g, w, realization_from_vector(g, vec - eps * h), tol)
        fd = (plus - minus) / (2 * eps)
        assert fd == pytest.approx(float(grad @ h), rel=1e-5, abs=1e-9)


def test_standard_realization_hex(hexes, tol):
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    assert report.passed
    assert abs(report.volume - 1.0) <= 1e-9
    assert report.lam > 0
    assert report.lam == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert report.stationarity_residual <= 1e-8
    assert report.gram_residual <= 1e-8
    assert report.complementary_slackness_residual <= 1e-8
    # the output is the graphene geometry rescaled to unit cell area
    det0 = abs(np.linalg.det(hexes.realization.lattice))
    scaled_fixture = hexes.realization.scaled(det0**-0.5)
    assert congruence_check(real, scaled_fixture, tol) is not None


def test_standard_realization_uniqueness_across_bases(hexes, tol):
    a, _ = standard_realization(hexes.graph, hexes.stress, tol)
    b, _ = standard_realization(hexes.graph, hexes.stress, tol, basis_seed=123)
    c, _ = standard_realization(hexes.graph, hexes.stress, tol, basis_seed=7)
    for other in (b, c):
        pair = congruence_check(a, other, tol)
        assert pair is not None
        rot, _ = pair
        assert np.abs(rot @ rot.T - np.eye(2)).max() <= 1e-6


def test_standard_realization_global_minimality(hexes, tol):
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    e_star = energy(hexes.graph, hexes.stress, real, tol)
    assert e_star == pytest.approx(report.lam * 2 / 2, abs=1e-9)
    rng = np.random.default_rng(404)
    for trial in range(1000):
        sample = random_realization(hexes.graph, tol, seed=int(rng.integers(2**31)))
        det = abs(np.linalg.det(sample.lattice))
        # rescale the lattice so the sample is feasible (volume >= 1)
        factor = det**-0.5 * (1.0 + rng.uniform(0.0, 1.0))
        sample = Realization(sample.points, sample.lattice * factor)
        assert energy(hexes.graph, hexes.stress, sample, tol) >= e_star - 1e-9


def test_standard_realization_refuses_flex2(flex2, tol):
    with pytest.raises(HypothesisFailed):
        standard_realization(flex2.graph, flex2.stress, tol)


def test_standard_realization_refuses_indefinite(hexes, tol):
    weights = hexes.stress.copy()
    weights[0] = -5.0  # breaks positive semidefiniteness
    with pytest.raises(HypothesisFailed):
        standard_realization(hexes.graph, weights, tol)


def _refusal_matches_dense_lzd(graph, weights, tol) -> bool:
    """Whether ``standard_realization`` raises HypothesisFailed, after checking
    that it does exactly when the dense Lzd, cut with the max|w| floor, is
    not PSD with kernel dimension 1."""
    laps = weighted_laplacians(graph, weights)
    dense = symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale)
    try:
        standard_realization(graph, weights, tol)
        refused = False
    except HypothesisFailed:
        refused = True
    assert refused == (dense.nullity != 1 or not dense.is_psd)
    return refused


@pytest.mark.parametrize("name", ["flex1", "flex2", "octagon"])
def test_standard_realization_refuses_a_lattice_flex(catalog, tol, name):
    """These stresses have a PSD Laplacian of kernel dimension 1, yet Lzd has
    kernel dimension d+1: the lattice block's Schur complement is singular
    (octagon's to rounding, with eigenvalues of either sign near 1e-16, which
    the max|w| floor cuts to zero)."""
    fix = catalog[name]
    assert _refusal_matches_dense_lzd(fix.graph, fix.stress, tol)
    with pytest.raises(HypothesisFailed, match="Schur block"):
        standard_realization(fix.graph, fix.stress, tol)


def test_standard_realization_huge_gain_is_degenerate_not_refused(hexes, tol):
    """With one gain of 1e9 the all-ones stress still meets the hypothesis
    exactly: it is strictly positive on a connected graph of gain rank 2, and
    the Schur block's least eigenvalue, 2/3, is far above the max|w| floor's
    cut.  Its largest is about 1e18, so the whitening is numerically singular."""
    edges = list(hexes.graph.edges)
    edges[6] = edges[6]._replace(gain=(10**9, 0))
    graph = GainGraph(2, hexes.graph.vertices, edges)
    with pytest.raises(DegenerateKernel, match="whitening matrix is numerically singular"):
        standard_realization(graph, hexes.stress, tol)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(3, 24),
    d=st.integers(2, 3),
    kind=st.sampled_from(["positive", "weak strut", "zero weight", "gaussian"]),
)
def test_standard_realization_hypothesis_is_the_dense_lzd_one(tol, seed, n, d, kind):
    """On seeded cable frameworks with positive, one mixed-sign, one zero or
    Gaussian weights, the minimiser refuses exactly the stresses whose dense
    Lzd is not PSD with kernel span(1-hat)."""
    graph, w = cable_framework(seed, n=n, d=d)
    rng = np.random.default_rng(seed)
    if kind == "weak strut":
        w[int(rng.integers(w.size))] = -rng.uniform(0.0, 2.0)
    elif kind == "zero weight":
        w[int(rng.integers(w.size))] = 0.0
    elif kind == "gaussian":
        w = rng.standard_normal(w.size)
    _refusal_matches_dense_lzd(graph, w, tol)


def test_projected_gradient_cannot_improve(hexes, tol):
    real, _ = standard_realization(hexes.graph, hexes.stress, tol)
    e_star = energy(hexes.graph, hexes.stress, real, tol)
    refined = projected_gradient_refine(hexes.graph, hexes.stress, real, tol)
    assert energy(hexes.graph, hexes.stress, refined, tol) >= e_star - 1e-9
    start = random_realization(hexes.graph, tol, seed=2)
    det = abs(np.linalg.det(start.lattice))
    start = Realization(start.points, start.lattice * det**-0.5)
    refined = projected_gradient_refine(hexes.graph, hexes.stress, start, tol, steps=400)
    assert energy(hexes.graph, hexes.stress, refined, tol) >= e_star - 1e-9


def test_verify_kkt_perturbations(hexes, tol):
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    assert verify_kkt(hexes.graph, hexes.stress, real, report.lam, tol).passed
    off = verify_kkt(hexes.graph, hexes.stress, real, report.lam + 0.1, tol)
    assert not off.passed and off.stationarity_residual > tol.residual_tol
    doubled = real.scaled(2.0)
    big = verify_kkt(hexes.graph, hexes.stress, doubled, 4.0 * report.lam, tol)
    assert big.complementary_slackness_residual > tol.residual_tol and not big.passed


def test_verify_kkt_flat_lattice(hexes, tol):
    flat = Realization(hexes.realization.points, np.zeros((2, 2)))
    with pytest.raises(FlatLattice):
        verify_kkt(hexes.graph, hexes.stress, flat, 1.0, tol)


def test_spiderweb_kernel_is_ones(hexes, tol):
    """Unconstrained spiderweb energy collapses: kernel of Lzd is span{1-hat}."""
    from perigid.linalg import nullspace
    from perigid.stress import weighted_laplacians

    laps = weighted_laplacians(hexes.graph, hexes.stress)
    basis = nullspace(laps.zd_laplacian, "right", tol)
    assert basis.shape[1] == 1
    one_hat = np.concatenate([np.ones(6), np.zeros(2)]) / math.sqrt(6.0)
    assert abs(abs(float(one_hat @ basis[:, 0])) - 1.0) <= 1e-9


def test_certify_volume_constrained_hex(hexes, tol):
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    cert = certify_volume_constrained(hexes.graph, real, hexes.stress, report.lam, tol)
    assert cert.verdict == Verdict.VOLUME_SUPER_STABLE
    zero_lam = certify_volume_constrained(hexes.graph, real, hexes.stress, 0.0, tol)
    assert zero_lam.verdict == Verdict.INCONCLUSIVE
    assert "positive" in zero_lam.failing


def test_certify_volume_constrained_guards(hexes, flex2, tol):
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    with pytest.raises(VolumeNotOne):
        certify_volume_constrained(hexes.graph, hexes.realization, hexes.stress, 1.0, tol)
    strutted = hexes.graph.with_markings(["strut"] * 9)
    with pytest.raises(ImproperStress):
        certify_volume_constrained(strutted, real, hexes.stress, report.lam, tol)
    # flex2 stress has kernel dimension 3, not 1
    det = abs(np.linalg.det(flex2.realization.lattice))
    unit = flex2.realization.scaled(det**-0.5)
    cert = certify_volume_constrained(flex2.graph, unit, flex2.stress, 0.5, tol)
    assert cert.verdict == Verdict.INCONCLUSIVE


def test_lambda_space_feeds_kkt(hexes, tol):
    det = abs(np.linalg.det(hexes.realization.lattice))
    unit = hexes.realization.scaled(det**-0.5)
    basis = lambda_stress_space(hexes.graph, unit, tol)
    vec = normalized_stress(basis)
    report = verify_kkt(hexes.graph, vec[:9], unit, vec[9], tol)
    assert report.passed


def test_volume_certificate_reverifies(hexes, tol):
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    cert = certify_volume_constrained(hexes.graph, real, hexes.stress, report.lam, tol)
    assert cert.verdict == Verdict.VOLUME_SUPER_STABLE
    assert reverify(cert, hexes.graph, real, tol)


def test_reverify_rejects_generic_verdicts(hexes, tol):
    from perigid.certify import Certificate

    with pytest.raises(ValueError):
        reverify(
            Certificate(verdict=Verdict.GENERIC_GLOBALLY_RIGID),
            hexes.graph,
            hexes.realization,
            tol,
        )


def test_standard_realization_single_orbit(flex1, tol):
    # with all-ones loop weights the stress matrix is diag(0, 3, 3): PSD with
    # kernel dimension one, so the minimizer applies to the loop system alone
    real, report = standard_realization(flex1.graph, np.ones(4), tol)
    assert report.passed and report.lam > 0
    assert abs(abs(np.linalg.det(real.lattice)) - 1.0) <= 1e-9
    assert np.abs(real.points["v1"]).max() <= 1e-12


@pytest.mark.parametrize("case", ["hex", "cable40", "strut-chord"])
def test_standard_realization_factorisations(hexes, tol, count_factorisations, case):
    """The whole cost: one pinned solve and one d x d eigh (the Schur block,
    which the hypothesis cuts and the whitening reads), plus one eigvalsh of
    the Laplacian only for a stress of mixed signs, and the KKT check's d x d
    inverse of the lattice; no SVD."""
    if case == "hex":
        graph, weights = hexes.graph, hexes.stress
    elif case == "cable40":
        graph, weights = cable_framework(5)
    else:
        graph, weights = strut_chord(*cable_framework(5))
    n, d = graph.num_vertices, graph.dimension
    calls = count_factorisations()
    _, report = standard_realization(graph, weights, tol)
    assert report.passed
    eigensolve = [("eigvalsh", (n, n))] if case == "strut-chord" else []
    assert calls == eigensolve + [("solve", (n - 1, n - 1)), ("eigh", (d, d)), ("inv", (d, d))]


@pytest.mark.parametrize("case", ["hex", "cable40"])
def test_standard_realization_normal_form(hexes, tol, case):
    """p(v1) = 0 exactly and a symmetric positive-definite lattice."""
    graph, weights = (hexes.graph, hexes.stress) if case == "hex" else cable_framework(5)
    real, report = standard_realization(graph, weights, tol)
    assert report.passed
    assert np.array_equal(real.points[graph.vertices[0]], np.zeros(graph.dimension))
    assert np.array_equal(real.lattice, real.lattice.T)
    assert np.linalg.eigvalsh(real.lattice)[0] > 0


def test_standard_realization_singular_solve_is_degenerate_kernel(
    hexes, tol, monkeypatch, tmp_path, capsys
):
    from perigid import fileformat
    from perigid.cli import cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DegenerateKernel):
        standard_realization(hexes.graph, hexes.stress, tol)
    path = tmp_path / "hex.json"
    path.write_bytes(fileformat.dumps(hexes.graph, hexes.realization, hexes.stress))
    assert cli(["minimize", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: DegenerateKernel:")


def test_verify_kkt_requires_feasibility(hexes, tol):
    # unconstrained equilibrium of a shrunk lattice is not a KKT point of the
    # volume-constrained program, even with a zero multiplier
    real, _ = standard_realization(hexes.graph, hexes.stress, tol)
    shrunk = real.scaled(0.5)
    report = verify_kkt(hexes.graph, hexes.stress, shrunk, 0.0, tol)
    assert report.volume < 1.0 and not report.passed
