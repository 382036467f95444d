"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import functools
import io
import math
import re
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from perigid import (
    GainGraph,
    Realization,
    ToleranceVault,
    certify_fixed_lattice,
    certify_spiderweb,
    certify_super_stable,
    certify_volume_constrained,
    congruence_check,
    conic_at_infinity,
    energy,
    energy_gradient,
    fixtures,
    generic_global_rigidity_test,
    measurement,
    normalized_stress,
    random_realization,
    rigidity_matrix,
    standard_realization,
    weighted_laplacians,
)
from perigid.certify import Verdict
from perigid.cli import cli
from perigid.construct import conjugation_identity_check
from perigid.errors import ImproperStress, PerigidError

from oracles import conic_deformation, realization_from_vector, realization_vector


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {number:02d} PASS - {description} ({elapsed:.2f}s)")

        return run

    return wrap


@pytest.fixture(scope="module")
def tol():
    return ToleranceVault()


@pytest.fixture(scope="module")
def catalog():
    return fixtures()


def _emit_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    with redirect_stdout(io.StringIO()):
        assert cli(["fixtures", "--name", name, "--emit", str(path)]) == 0
    return str(path)


@criterion(1, "FLEX2 golden matrices, SuperStable certificate, tensegrity variant")
def test_criterion_1_flex2(catalog, tol, tmp_path):
    started = time.perf_counter()
    flex2 = catalog["flex2"]
    golden_izd = np.array(
        [[-1, 1, 0, 0], [-1, 1, -1, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]],
        dtype=float,
    )
    golden_lzd = np.array(
        [[8, -8, 4, 0], [-8, 8, -4, 0], [4, -4, 2, 0], [0, 0, 0, 0]], dtype=float
    )
    assert np.array_equal(flex2.graph.incidence_zd(), golden_izd)
    assert np.array_equal(
        weighted_laplacians(flex2.graph, flex2.stress).zd_laplacian, golden_lzd
    )
    with redirect_stdout(io.StringIO()):
        assert cli(["certify", _emit_fixture(tmp_path, "flex2"), "--mode", "flexible"]) == 0
    marked = flex2.graph.with_markings(["cable", "cable", "cable", "strut", "strut"])
    cert = certify_super_stable(marked, flex2.realization, flex2.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    assert time.perf_counter() - started < 1.0


@criterion(2, "HEX stress space, fixed certificate, generic verdict, markings")
def test_criterion_2_hex(catalog, tol, tmp_path):
    started = time.perf_counter()
    hexes = catalog["hex"]
    from perigid import fixed_stress_space
    from perigid.linalg import numeric_rank, symmetric_spectrum

    basis = fixed_stress_space(hexes.graph, hexes.realization, tol)
    assert basis.shape[1] == 1
    assert np.allclose(normalized_stress(basis), np.ones(9), atol=1e-9)
    laps = weighted_laplacians(hexes.graph, hexes.stress)
    assert symmetric_spectrum(laps.laplacian, tol).is_psd
    assert laps.laplacian.shape[0] - numeric_rank(laps.laplacian, tol).rank == 1

    path = _emit_fixture(tmp_path, "hex")
    with redirect_stdout(io.StringIO()):
        assert cli(["certify", path, "--mode", "fixed"]) == 0
        assert cli(["generic-test", path, "--mode", "flexible"]) == 1
    cert = generic_global_rigidity_test(hexes.graph, tol)
    assert cert.verdict == Verdict.GENERIC_NOT_GLOBALLY_RIGID

    all_cable = hexes.graph.with_markings(["cable"] * 9)
    assert (
        certify_fixed_lattice(all_cable, hexes.realization, hexes.stress, tol).verdict
        == Verdict.FIXED_SUPER_STABLE
    )
    for strut_at in range(9):
        markings = ["cable"] * 9
        markings[strut_at] = "strut"
        with pytest.raises(ImproperStress):
            certify_fixed_lattice(
                hexes.graph.with_markings(markings),
                hexes.realization,
                hexes.stress,
                tol,
            )
    assert time.perf_counter() - started < 1.0


@criterion(3, "FLEX1 zero stress matrix, SuperStable, single-orbit generic branch")
def test_criterion_3_flex1(catalog, tol):
    started = time.perf_counter()
    flex1 = catalog["flex1"]
    laps = weighted_laplacians(flex1.graph, flex1.stress)
    assert laps.zd_laplacian.shape == (3, 3)
    assert not laps.zd_laplacian.any()
    cert = certify_super_stable(flex1.graph, flex1.realization, flex1.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE

    three_loops = GainGraph(
        2, ("v1",), [("v1", "v1", (1, 0)), ("v1", "v1", (0, 1)), ("v1", "v1", (1, 1))]
    )
    generic = generic_global_rigidity_test(three_loops, tol)
    assert generic.verdict == Verdict.GENERIC_GLOBALLY_RIGID
    assert all(t["branch"] == "single-orbit" for t in generic.trial_log)
    assert all(t["infinitesimally_rigid"] for t in generic.trial_log)
    assert time.perf_counter() - started < 1.0


@criterion(4, "OCTAGON: finite table, golden quotient matrices, conjugation, certificate")
def test_criterion_4_octagon(catalog, tol):
    started = time.perf_counter()
    octagon = catalog["octagon"]
    assert octagon.finite.equilibrium_residual(octagon.finite_stress) <= 1e-10

    from perigid.linalg import numeric_rank, symmetric_spectrum

    finite_lap = octagon.finite.weighted_laplacian(octagon.finite_stress)
    assert numeric_rank(finite_lap, tol).rank == 5
    assert symmetric_spectrum(finite_lap, tol).is_psd

    assert octagon.graph.vertices == ("0", "1", "2", "3", "5", "7")
    golden_edges = [
        ("0", "1", (0, 0)), ("1", "2", (0, 0)), ("2", "3", (0, 0)), ("3", "0", (1, 0)),
        ("5", "0", (1, 0)), ("5", "2", (0, 1)), ("7", "2", (0, 1)), ("7", "0", (0, 0)),
        ("0", "3", (0, 0)), ("7", "0", (1, 0)), ("1", "2", (0, 1)), ("2", "5", (0, 0)),
    ]
    assert [(e.tail, e.head, e.gain) for e in octagon.graph.edges] == golden_edges
    assert np.abs(octagon.realization.lattice - 2.0 * np.eye(2)).max() <= 1e-12

    s2 = math.sqrt(2.0)
    golden = -np.array(
        [
            [-4 * s2 - 4, s2 + 2, 0, s2, s2 + 2, s2, -2 * s2 - 2, 0],
            [s2 + 2, -2 * s2 - 2, s2, 0, 0, 0, 0, -1],
            [0, s2, -4 * s2 - 4, s2 + 2, s2, s2 + 2, 0, -2 * s2 - 2],
            [s2, 0, s2 + 2, -2 * s2 - 2, 0, 0, 1 + s2, 0],
            [s2 + 2, 0, s2, 0, -2 * s2 - 2, 0, s2 + 2, 1 + s2],
            [s2, 0, s2 + 2, 0, 0, -2 * s2 - 2, -1, s2 + 2],
            [-2 * s2 - 2, 0, 0, 1 + s2, s2 + 2, -1, -2 * s2 - 2, 0],
            [0, -1, -2 * s2 - 2, 0, 1 + s2, s2 + 2, 0, -2 * s2 - 2],
        ]
    )
    laps = weighted_laplacians(octagon.graph, octagon.stress)
    assert np.abs(laps.zd_laplacian - golden).max() <= 1e-12

    residual = conjugation_identity_check(
        octagon.finite, octagon.finite_stress, octagon.pairs, tol
    )
    assert residual <= 1e-12

    cert = certify_super_stable(octagon.graph, octagon.realization, octagon.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    assert time.perf_counter() - started < 1.0


@criterion(5, "rank equivalence on 1000 random gain graphs, zero violations")
def test_criterion_5_rank_equivalence(tol):
    started = time.perf_counter()
    from perigid.gain import canonicalize_edge
    from perigid.linalg import numeric_rank

    rng = np.random.default_rng(512)
    checked = 0
    while checked < 1000:
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
        graph = GainGraph(d, verts, edges)
        holds, rank = graph.full_rank_condition()
        assert holds == (rank == n - 1 + d)
        # gains in [-2, 2]: the float rank is exact and checks the exact one
        assert holds == (graph.is_connected() and graph.gain_rank() == d)
        assert rank == numeric_rank(graph.incidence_zd(), tol).rank
        checked += 1
    assert time.perf_counter() - started < 30.0


@criterion(6, "finite-difference suites for the rigidity matrix and energy gradient")
def test_criterion_6_finite_differences(tol):
    started = time.perf_counter()
    g = GainGraph(
        2,
        ("a", "b", "c"),
        [
            ("a", "b", (0, 0)),
            ("b", "c", (0, 0)),
            ("a", "c", (1, 0)),
            ("a", "a", (0, 1)),
            ("b", "c", (1, 1)),
            ("c", "c", (1, 0)),
        ],
    )
    rng = np.random.default_rng(2025)
    eps = 1e-5
    for trial in range(100):
        real = random_realization(g, tol, seed=trial)
        vec = realization_vector(g, real)
        mat = rigidity_matrix(g, real)
        h = rng.standard_normal(vec.size)
        h /= np.linalg.norm(h)
        plus = measurement(g, realization_from_vector(g, vec + eps * h))
        minus = measurement(g, realization_from_vector(g, vec - eps * h))
        central = (plus - minus) / (2.0 * eps)
        exact = 2.0 * mat @ h
        assert np.linalg.norm(central - exact) <= 1e-5 * max(1.0, np.linalg.norm(exact))

    for trial in range(100):
        real = random_realization(g, tol, seed=10_000 + trial)
        weights = rng.standard_normal(g.num_edges)
        grad = energy_gradient(g, weights, real, tol)
        vec = realization_vector(g, real)
        h = rng.standard_normal(vec.size)
        h /= np.linalg.norm(h)
        plus = energy(g, weights, realization_from_vector(g, vec + eps * h), tol)
        minus = energy(g, weights, realization_from_vector(g, vec - eps * h), tol)
        central = (plus - minus) / (2.0 * eps)
        exact = float(grad @ h)
        assert abs(central - exact) <= 1e-5 * max(1.0, abs(exact))
    assert time.perf_counter() - started < 10.0


@criterion(7, "lifted force balance at interior window-2 covering vertices")
def test_criterion_7_covering_balance(catalog):
    for name in ("flex1", "flex2", "octagon"):
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
            force = np.zeros(graph.dimension)
            for idx, e in enumerate(graph.edges):
                if e.tail == v:
                    nb = (e.head, tuple(s + g for s, g in zip(shift, e.gain)))
                    force += weights[idx] * (pos[nb] - pos[node])
                if e.head == v:
                    nb = (e.tail, tuple(s - g for s, g in zip(shift, e.gain)))
                    force += weights[idx] * (pos[nb] - pos[node])
            assert np.abs(force).max() <= 1e-9


@criterion(8, "HEX standard realization: KKT, uniqueness, sampled global minimality")
def test_criterion_8_standard_realization(catalog, tol):
    started = time.perf_counter()
    hexes = catalog["hex"]
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    assert abs(report.volume - 1.0) <= 1e-9
    assert report.lam > 0
    assert report.stationarity_residual <= 1e-8
    assert report.complementary_slackness_residual <= 1e-8
    assert report.gram_residual <= 1e-8

    other, _ = standard_realization(hexes.graph, hexes.stress, tol, basis_seed=2024)
    vault6 = ToleranceVault(residual_tol=1e-6)
    assert congruence_check(real, other, vault6) is not None

    e_star = energy(hexes.graph, hexes.stress, real, tol)
    rng = np.random.default_rng(81)
    for _ in range(1000):
        sample = random_realization(hexes.graph, tol, seed=int(rng.integers(2**31)))
        det = abs(float(np.linalg.det(sample.lattice)))
        factor = det**-0.5 * (1.0 + rng.uniform(0.0, 1.0))
        sample = Realization(sample.points, sample.lattice * factor)
        assert energy(hexes.graph, hexes.stress, sample, tol) >= e_star - 1e-9
    assert time.perf_counter() - started < 5.0


@criterion(9, "conic-at-infinity duality on 50 random frameworks")
def test_criterion_9_conic_duality(tol):
    from perigid.gain import canonicalize_edge

    rng = np.random.default_rng(906)
    some_seen = none_seen = 0
    for trial in range(50):
        verts = ("a", "b")
        target = int(rng.integers(1, 7))
        edges, seen = [], set()
        while len(edges) < target:
            ti, hi = rng.integers(0, 2), rng.integers(0, 2)
            gain = tuple(int(x) for x in rng.integers(-2, 3, size=2))
            if ti == hi and not any(gain):
                continue
            canon = canonicalize_edge(verts[ti], verts[hi], gain, verts)
            key = (canon.tail, canon.head, canon.gain)
            if key in seen:
                continue
            seen.add(key)
            edges.append((verts[ti], verts[hi], gain))
        graph = GainGraph(2, verts, edges)
        real = random_realization(graph, tol, seed=7000 + trial)
        base = measurement(graph, real)
        witness = conic_at_infinity(graph, real, tol)
        if witness is not None:
            some_seen += 1
            moved = conic_deformation(real, witness, t=0.5)
            assert np.abs(measurement(graph, moved) - base).max() <= 1e-9
            assert congruence_check(real, moved, tol) is None
        else:
            none_seen += 1
            for _ in range(100):
                affine = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
                if np.abs(affine.T @ affine - np.eye(2)).max() < 1e-3:
                    continue
                assert np.abs(measurement(graph, real.transformed(affine)) - base).max() > 1e-9
    assert some_seen > 0 and none_seen > 0


@criterion(10, "CLI reports are byte-identical across repeated runs")
def test_criterion_10_cli_determinism(tmp_path):
    files = {name: _emit_fixture(tmp_path, name) for name in ("flex1", "flex2", "hex", "octagon")}
    svg_path = tmp_path / "cover.svg"
    invocations = [
        ["info", files["hex"], "--json"],
        ["rank", files["flex2"], "--json"],
        ["stresses", files["flex2"], "--mode", "flexible", "--json"],
        ["certify", files["octagon"], "--mode", "flexible", "--json"],
        ["certify", files["hex"], "--mode", "fixed", "--json", "--emit-matrices"],
        ["generic-test", files["hex"], "--mode", "flexible", "--seed", "42", "--json"],
        ["generic-test", files["flex2"], "--mode", "fixed", "--seed", "42", "--trials", "4", "--json"],
        ["minimize", files["hex"], "--json"],
        ["cover", files["hex"], "--window", "1", "--svg", str(svg_path), "--json"],
        ["fixtures", "--name", "hex"],
        ["certify", files["flex2"], "--mode", "flexible"],
    ]
    for argv in invocations:
        outputs = []
        svg_bytes = []
        for _ in range(2):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli(list(argv))
            assert code in (0, 1)
            outputs.append(buffer.getvalue())
            if svg_path.exists():
                svg_bytes.append(svg_path.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0]
        if svg_bytes:
            assert svg_bytes[0] == svg_bytes[1]


@criterion(11, "verdicts are scale-free: fixtures and near misses at c, s in {1e-6, 1, 1e6}")
def test_criterion_11_scale_free_verdicts(catalog, tol):
    """w -> c w (lam -> c lam) and p, L -> s p, s L leave every verdict, failing
    clause (values aside: they scale) and kernel dimension where it was."""

    def outcome(certify, graph, real, *stress):
        try:
            cert = certify(graph, real, *stress, tol)
        except PerigidError as exc:
            return type(exc).__name__
        failing = re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", cert.failing or "")
        return cert.verdict, failing, cert.kernel_dims

    factors = (1e-6, 1.0, 1e6)
    for fix in catalog.values():
        # each fixture as given, with its last vertex moved off equilibrium,
        # and with its stress negated
        points = dict(fix.realization.points)
        points[fix.graph.vertices[-1]] = points[fix.graph.vertices[-1]] + [3e-4, -2e-4]
        moved = Realization(points, fix.realization.lattice)
        variants = (
            (fix.realization, fix.stress), (moved, fix.stress), (fix.realization, -fix.stress)
        )
        for certify in (certify_super_stable, certify_fixed_lattice, certify_spiderweb):
            for real, w in variants:
                base = outcome(certify, fix.graph, real, w)
                for c in factors:
                    for s in factors:
                        scaled = outcome(certify, fix.graph, real.scaled(s), c * w)
                        assert scaled == base, (fix.name, certify.__name__, c, s)
    hexes = catalog["hex"]
    real, report = standard_realization(hexes.graph, hexes.stress, tol)
    for c in factors:  # the unit volume fixes the realization's scale
        cert = certify_volume_constrained(hexes.graph, real, c * hexes.stress, c * report.lam, tol)
        assert cert.verdict == Verdict.VOLUME_SUPER_STABLE
