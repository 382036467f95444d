"""Every certificate clause is homogeneous, so no verdict may move with the
scale of the stress (w -> c w, lam -> c lam) or of the realization
(p, L -> s p, s L): each floating-point decision is relative."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perigid import stress
from perigid.certify import (
    Verdict,
    certify_fixed_lattice,
    certify_super_stable,
    certify_volume_constrained,
)
from perigid.errors import PerigidError
from perigid.framework import (
    Realization,
    congruence_check,
    fixed_rigidity_matrix,
    random_realization,
)
from perigid.gain import GainGraph
from perigid.linalg import nullspace, numeric_rank
from perigid.optimize import standard_realization
from perigid.tolerances import DEFAULT_TOL

CERTIFY = {"flexible": certify_super_stable, "fixed": certify_fixed_lattice}
NUMBER = re.compile(r"-?\d+(\.\d+)?(e[-+]?\d+)?")


def outcome(mode, graph, real, w):
    """What must not move with scale: verdict, failing clause (its values
    blanked: they scale) and kernel dimensions, or the error raised."""
    try:
        cert = CERTIFY[mode](graph, real, w, DEFAULT_TOL)
    except PerigidError as exc:
        return type(exc).__name__
    failing = None if cert.failing is None else NUMBER.sub("#", cert.failing)
    return cert.verdict, failing, cert.kernel_dims


def moved(real, vertex, delta):
    points = dict(real.points)
    points[vertex] = points[vertex] + delta
    return Realization(points, real.lattice)


@pytest.mark.parametrize("name", ["octagon", "flex2"])
def test_tiny_framework_out_of_equilibrium_is_not_super_stable(catalog, tol, name):
    """Scaled by 1e-6 with one vertex moved by s (3e-4, -2e-4), the residual is
    1.4e-9 against terms of 1e-6: the gate used to be max(1, |[P L]|)."""
    fix = catalog[name]
    last = fix.graph.vertices[-1]
    for s in (1.0, 1e-3, 1e-6):
        real = moved(fix.realization.scaled(s), last, s * np.array([3e-4, -2e-4]))
        cert = certify_super_stable(fix.graph, real, fix.stress, tol)
        assert cert.verdict == Verdict.INCONCLUSIVE
        assert cert.failing.startswith("equilibrium residual")


def _small_gain_graph(rng):
    n = int(rng.integers(2, 5))
    edges = []
    while len(edges) < int(rng.integers(n + 1, 3 * n + 2)):
        t, h = (int(x) for x in rng.integers(n, size=2))
        gain = tuple(int(x) for x in rng.integers(-1, 2, size=2))
        try:
            GainGraph(2, range(n), edges + [(t, h, gain)])
        except PerigidError:
            continue
        edges.append((t, h, gain))
    return GainGraph(2, range(n), edges)


def test_fixed_psd_clause_survives_a_tiny_stress(tol):
    """A random fixed-lattice stress that fails only the PSD clause still
    fails it at 1e-12 times the stress: the test was lam_min >= -slack max(1, lam_max)."""
    rng = np.random.default_rng(1)
    psd_only = 0
    for seed in range(200):
        graph = _small_gain_graph(rng)
        real = random_realization(graph, tol, seed=seed)
        basis = nullspace(fixed_rigidity_matrix(graph, real), "left", tol)
        if basis.shape[1] == 0:
            continue
        w = basis @ rng.standard_normal(basis.shape[1])
        base = certify_fixed_lattice(graph, real, w, tol)
        if base.failing is None or "PSD" not in base.failing:
            continue
        psd_only += 1
        tiny = certify_fixed_lattice(graph, real, 1e-12 * w, tol)
        assert (tiny.verdict, tiny.kernel_dims) == (base.verdict, base.kernel_dims)
        assert tiny.failing.startswith("Laplacian not PSD")
    assert psd_only >= 20


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_flipped_octagon_stress_is_improper_at_any_scale(octagon, tol, c):
    """The zero band of the sign check was |w| <= 1e-9 whatever max|w| was."""
    w = -c * octagon.stress
    for certify in (certify_super_stable, certify_fixed_lattice):
        with pytest.raises(PerigidError, match="sign conditions"):
            certify(octagon.graph, octagon.realization, w, tol)


def test_minimizer_of_a_tiny_stress(hexes, tol):
    """w -> c w leaves the minimizer in place and scales lam by c; the
    whitening cut was eigenvalue <= tol max(1, lam_max)."""
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    tiny_real, tiny = standard_realization(hexes.graph, 1e-12 * hexes.stress, tol)
    assert tiny.passed
    assert tiny.lam == pytest.approx(1e-12 * report.lam, rel=1e-9)
    assert congruence_check(real, tiny_real, tol) is not None


def test_volume_certificate_of_a_tiny_stress_and_multiplier(hexes, tol):
    """The multiplier clause was lam > residual_tol."""
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    for c in (1.0, 1e-12, 1e12):
        cert = certify_volume_constrained(hexes.graph, real, c * hexes.stress, c * report.lam, tol)
        assert cert.verdict == Verdict.VOLUME_SUPER_STABLE
        negative = certify_volume_constrained(
            hexes.graph, real, c * hexes.stress, -c * report.lam, tol
        )
        assert negative.failing.startswith("multiplier")


@pytest.mark.parametrize("s", [1e-6, 1e-5, 1e-3, 1.0, 1e3, 1e6])
def test_volume_row_balanced_against_the_rigidity_matrix(hexes, tol, s):
    """R scales like s and the row -L^-T/2 like 1/s; unbalanced, the rank cut
    dropped R (a 9-dimensional lambda stress space at s = 1e-5)."""
    real = hexes.realization.scaled(s)
    basis = stress.lambda_stress_space(hexes.graph, real, tol)
    assert basis.shape[1] == 1
    # force balance is linear in p and L, so w stays; lam L^-T balances it at s^2 lam
    unit = stress.lambda_stress_space(hexes.graph, hexes.realization, tol)[:, 0]
    expected = np.append(unit[:-1], s * s * unit[-1])
    assert np.allclose(
        stress.normalized_stress(basis), stress.normalized_stress(expected), rtol=0.0, atol=1e-9
    )
    matrix, _ = stress._balanced_volume_rigidity(hexes.graph, real, tol)
    assert numeric_rank(matrix, tol).rank == 9


def _seeded_framework(seed, mode):
    """A small gain graph at a random realization with a random stress of
    the mode's stress space (zero when there is none)."""
    rng = np.random.default_rng(seed)
    graph = _small_gain_graph(rng)
    real = random_realization(graph, DEFAULT_TOL, seed=seed)
    space = stress.stress_space if mode == "flexible" else stress.fixed_stress_space
    basis = space(graph, real, DEFAULT_TOL)
    w = basis @ rng.standard_normal(basis.shape[1])
    return graph, real, w


def test_fixed_certificate_counts_loops_in_its_equilibrium_terms():
    """A fixed stress carried on loops (seed 0: 0.54, 0.32, 0.41 on three
    loops, <= 6e-17 elsewhere) has a residual of noise; the gate used to
    weigh it against the noise alone, since a loop's two ends cancel."""
    failing = []
    for seed in range(300):
        graph, real, w = _seeded_framework(seed, "fixed")
        try:
            cert = certify_fixed_lattice(graph, real, w, DEFAULT_TOL)
        except PerigidError:
            continue
        if cert.failing is not None and "equilibrium" in cert.failing:
            failing.append(seed)
    assert failing == []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    source=st.one_of(st.sampled_from(["flex1", "flex2", "hex", "octagon"]), st.integers(0, 10**6)),
    mode=st.sampled_from(["flexible", "fixed"]),
    near_miss=st.sampled_from(["none", "moved vertex", "flipped signs", "one sign flipped"]),
    log_c=st.floats(-12.0, 12.0),
    log_s=st.floats(-6.0, 6.0),
)
def test_verdicts_are_scale_free(catalog, source, mode, near_miss, log_c, log_s):
    if isinstance(source, str):
        fix = catalog[source]
        graph, real, w = fix.graph, fix.realization, np.asarray(fix.stress, dtype=float)
    else:
        graph, real, w = _seeded_framework(source, mode)
    if near_miss == "moved vertex":
        real = moved(real, graph.vertices[-1], 1e-4 * np.array([3.0, -2.0]))
    elif near_miss == "flipped signs":
        w = -w
    elif near_miss == "one sign flipped" and w.size:
        w = w.copy()
        w[int(np.argmax(np.abs(w)))] *= -1.0
    base = outcome(mode, graph, real, w)
    assert outcome(mode, graph, real, 10.0**log_c * w) == base
    assert outcome(mode, graph, real.scaled(10.0**log_s), w) == base
