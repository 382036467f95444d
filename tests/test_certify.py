import sys

import numpy as np
import pytest

from perigid import stress
from perigid.certify import (
    Verdict,
    certify_fixed_lattice,
    certify_spiderweb,
    certify_super_stable,
    conic_at_infinity,
    conic_deformation,
    generic_fixed_global_rigidity_test,
    generic_global_rigidity_test,
    reverify,
)
from perigid.errors import DegenerateEdge, ImproperStress, NotSpiderweb
from perigid.framework import (
    Realization,
    congruence_check,
    measurement,
    random_realization,
)
from perigid.gain import GainEdge, GainGraph
from perigid.tolerances import ToleranceVault


def test_conic_examples(flex1, flex2, tol):
    assert conic_at_infinity(flex2.graph, flex2.realization, tol) is None
    assert conic_at_infinity(flex1.graph, flex1.realization, tol) is None
    single = GainGraph(2, ("a", "b"), [("a", "b", (0, 0))])
    r = Realization({"a": (0.0, 0.0), "b": (1.0, 0.0)}, np.eye(2))
    q = conic_at_infinity(single, r, tol)
    assert q is not None
    assert abs(q[0, 0]) <= 1e-12  # direction (1,0) forces Q11 = 0
    assert np.linalg.norm(q) == pytest.approx(1.0)


def test_conic_degenerate_edge(tol):
    g = GainGraph(2, ("a", "b"), [("a", "b", (0, 0))])
    r = Realization({"a": (0.0, 0.0), "b": (0.0, 0.0)}, np.eye(2))
    with pytest.raises(DegenerateEdge):
        conic_at_infinity(g, r, tol)


def test_certify_super_stable_flex2(flex2, tol):
    cert = certify_super_stable(flex2.graph, flex2.realization, flex2.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    assert cert.kernel_dims == {"zd_laplacian": 3}
    assert reverify(cert, flex2.graph, flex2.realization, tol)


def test_certify_super_stable_flex2_tensegrity(flex2, tol):
    marked = flex2.graph.with_markings(["cable", "cable", "cable", "strut", "strut"])
    cert = certify_super_stable(marked, flex2.realization, flex2.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    flipped = flex2.graph.with_markings(["strut", "cable", "cable", "strut", "strut"])
    with pytest.raises(ImproperStress):
        certify_super_stable(flipped, flex2.realization, flex2.stress, tol)


def test_certify_super_stable_flex1_zero_matrix(flex1, tol):
    cert = certify_super_stable(flex1.graph, flex1.realization, flex1.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    assert cert.kernel_dims == {"zd_laplacian": 3}
    assert cert.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_certify_super_stable_hex_inconclusive(hexes, tol):
    # all-ones is not a flexible-lattice stress: the moment condition fails
    cert = certify_super_stable(hexes.graph, hexes.realization, hexes.stress, tol)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert "equilibrium" in cert.failing


def test_certify_super_stable_congruence_invariant(flex2, octagon, tol):
    theta = 0.37
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    for fix in (flex2, octagon):
        moved = fix.realization.transformed(rot, shift=(1.0, 2.0))
        assert (
            certify_super_stable(fix.graph, moved, fix.stress, tol).verdict
            == certify_super_stable(fix.graph, fix.realization, fix.stress, tol).verdict
        )


def test_certify_fixed_lattice_hex(hexes, tol):
    cert = certify_fixed_lattice(hexes.graph, hexes.realization, hexes.stress, tol)
    assert cert.verdict == Verdict.FIXED_SUPER_STABLE
    assert cert.kernel_dims == {"laplacian": 1}
    assert reverify(cert, hexes.graph, hexes.realization, tol)


def test_certify_fixed_lattice_hex_markings(hexes, tol):
    all_cable = hexes.graph.with_markings(["cable"] * 9)
    cert = certify_fixed_lattice(all_cable, hexes.realization, hexes.stress, tol)
    assert cert.verdict == Verdict.FIXED_SUPER_STABLE
    one_strut = hexes.graph.with_markings(["strut"] + ["cable"] * 8)
    with pytest.raises(ImproperStress):
        certify_fixed_lattice(one_strut, hexes.realization, hexes.stress, tol)


def test_certify_fixed_lattice_inconclusive_clause(flex2, tol):
    # loops carry free weights but produce a zero Laplacian: kernel too big
    cert = certify_fixed_lattice(
        flex2.graph, flex2.realization, np.array([0.0, 0.0, 1.0, 1.0, 1.0]), tol
    )
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert "kernel" in cert.failing


@pytest.mark.parametrize("gain", [10**8, 10**9])
def test_certify_fixed_lattice_huge_gain_out_of_equilibrium(hexes, tol, gain):
    """A huge gain breaks force balance by ~gain; the gate must not scale like gain^2."""
    edges = list(hexes.graph.edges)
    tail, head, _, marking = edges[6]
    edges[6] = GainEdge(tail, head, (gain, 0), marking)
    graph = GainGraph(2, hexes.graph.vertices, edges)
    cert = certify_fixed_lattice(graph, hexes.realization, hexes.stress, tol)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert "equilibrium" in cert.failing
    assert cert.residuals["fixed_equilibrium"] == pytest.approx(3.0 * gain, rel=1e-6)


def _counting_factorisations(monkeypatch) -> list:
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["flexible", "fixed", "spiderweb", "volume"])
def test_each_certificate_factorises_its_laplacian_once(monkeypatch, catalog, tol, mode):
    from perigid.optimize import certify_volume_constrained
    from perigid.stress import lambda_stress_space, normalized_stress

    if mode == "flexible":
        fix = catalog["octagon"]
        run = lambda: certify_super_stable(fix.graph, fix.realization, fix.stress, tol)  # noqa: E731
    else:
        fix = catalog["hex"]
        graph = fix.graph.with_markings(["cable"] * fix.graph.num_edges)
        if mode == "fixed":
            run = lambda: certify_fixed_lattice(graph, fix.realization, fix.stress, tol)  # noqa: E731
        elif mode == "spiderweb":
            run = lambda: certify_spiderweb(graph, fix.realization, fix.stress, tol)  # noqa: E731
        else:
            unit = fix.realization.scaled(abs(np.linalg.det(fix.realization.lattice)) ** -0.5)
            vec = normalized_stress(lambda_stress_space(graph, unit, tol))
            run = lambda: certify_volume_constrained(graph, unit, vec[:-1], vec[-1], tol)  # noqa: E731
    n, d = fix.graph.num_vertices, fix.graph.dimension
    size = n if mode in ("fixed", "spiderweb") else n + d
    calls = _counting_factorisations(monkeypatch)
    assemblies = _counting_assemblies(monkeypatch)
    assert run().positive
    assert [c for c in calls if c[0] == "eigvalsh"] == [("eigvalsh", (size, size))]
    assert not [c for c in calls if c[0] != "eigvalsh" and c[1] == (size, size)]
    assert len(assemblies) == 1


def _counting_assemblies(monkeypatch) -> list:
    """Count stress.weighted_laplacians calls through every perigid module that holds it."""
    calls = []
    original = stress.weighted_laplacians

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("perigid") and getattr(module, "weighted_laplacians", None) is original:
            monkeypatch.setattr(module, "weighted_laplacians", counted)
    return calls


def test_minimize_assembles_laplacians_twice(hexes, tmp_path, monkeypatch, capsys):
    """One assembly serves the minimiser and its KKT check, one the energy."""
    from perigid import fileformat
    from perigid.cli import cli

    path = tmp_path / "hex.json"
    path.write_bytes(fileformat.dumps(hexes.graph, hexes.realization, hexes.stress))
    assemblies = _counting_assemblies(monkeypatch)
    assert cli(["minimize", str(path)]) == 0
    assert len(assemblies) == 2


def test_certify_spiderweb_hex(hexes, tol):
    all_cable = hexes.graph.with_markings(["cable"] * 9)
    cert = certify_spiderweb(all_cable, hexes.realization, hexes.stress, tol)
    assert cert.verdict == Verdict.FIXED_SUPER_STABLE


def test_certify_spiderweb_gate_and_preconditions(hexes, tol):
    all_cable = hexes.graph.with_markings(["cable"] * 9)
    weights = hexes.stress.copy()
    weights[0] = 0.0
    gated = certify_spiderweb(all_cable, hexes.realization, weights, tol)
    assert gated.verdict == Verdict.INCONCLUSIVE
    with pytest.raises(NotSpiderweb):
        certify_spiderweb(hexes.graph, hexes.realization, hexes.stress, tol)  # bars
    disconnected = GainGraph(
        2, ("a", "b"), [("a", "a", (1, 0), "cable"), ("b", "b", (0, 1), "cable")]
    )
    r = random_realization(disconnected, tol, seed=0)
    with pytest.raises(NotSpiderweb):
        certify_spiderweb(disconnected, r, np.ones(2), tol)


@pytest.mark.parametrize("break_clause", ["positivity", "equilibrium"])
def test_inconclusive_spiderweb_reports_every_clause_value(hexes, tol, break_clause):
    """An Inconclusive spiderweb still carries kernel, eigenvalue and residual."""
    all_cable = hexes.graph.with_markings(["cable"] * 9)
    real, weights = hexes.realization, hexes.stress.copy()
    if break_clause == "positivity":
        weights = -weights  # still in equilibrium, never positive
    else:
        real = Realization(
            {v: p + (0.1 if v == all_cable.vertices[0] else 0.0) for v, p in real.points.items()},
            real.lattice,
        )
    cert = certify_spiderweb(all_cable, real, weights, tol)
    assert cert.verdict == Verdict.INCONCLUSIVE
    assert ("positive" if break_clause == "positivity" else "equilibrium") in cert.failing
    assert set(cert.kernel_dims) == {"laplacian"}
    assert cert.min_eigenvalue is not None
    assert set(cert.residuals) == {"fixed_equilibrium"}
    fixed = certify_fixed_lattice(hexes.graph, real, weights, tol)  # bars: any sign
    assert cert.kernel_dims == fixed.kernel_dims
    assert cert.residuals == fixed.residuals


def test_generic_flexible_verdicts(flex1, flex2, hexes, tol):
    assert (
        generic_global_rigidity_test(flex1.graph, tol).verdict
        == Verdict.GENERIC_GLOBALLY_RIGID
    )
    three_loops = GainGraph(
        2, ("v1",), [("v1", "v1", (1, 0)), ("v1", "v1", (0, 1)), ("v1", "v1", (1, 1))]
    )
    cert = generic_global_rigidity_test(three_loops, tol)
    assert cert.verdict == Verdict.GENERIC_GLOBALLY_RIGID
    assert all(t["branch"] == "single-orbit" for t in cert.trial_log)

    assert (
        generic_global_rigidity_test(hexes.graph, tol).verdict
        == Verdict.GENERIC_NOT_GLOBALLY_RIGID
    )
    # generic realizations of the two-vertex graph are stress-free, and the
    # degree-2 orbit reflects: not globally rigid away from the special point
    cert2 = generic_global_rigidity_test(flex2.graph, tol)
    assert cert2.verdict == Verdict.GENERIC_NOT_GLOBALLY_RIGID
    assert all(t["branch"] == "stress-free" for t in cert2.trial_log)


def test_generic_flexible_positive_with_stress(flex2, tol):
    # a third edge orbit at the degree-two vertex removes its reflection;
    # the resulting graph keeps a one-dimensional stress space whose generic
    # stress matrix has kernel dimension exactly d+1
    edges = [(e.tail, e.head, e.gain) for e in flex2.graph.edges]
    g = GainGraph(2, flex2.graph.vertices, edges + [("v1", "v2", (0, 1))])
    cert = generic_global_rigidity_test(g, tol)
    assert cert.verdict == Verdict.GENERIC_GLOBALLY_RIGID
    assert all(t["branch"] == "stress sampling" for t in cert.trial_log)
    assert all(t["stress_kernel_dim"] == 3 for t in cert.trial_log)


def test_generic_flexible_zero_stress_matrix_ranks_as_zero(tol):
    # duplicated loop pairs force the sampled stress matrix to cancel to the
    # exact zero matrix; the floored rank must see kernel |V|+d, not noise
    g = GainGraph(
        2,
        ("a", "b"),
        [
            ("a", "b", (0, 0)),
            ("a", "b", (1, 0)),
            ("a", "b", (0, 1)),
            ("a", "a", (1, 0)),
            ("a", "a", (0, 1)),
            ("b", "b", (1, 0)),
            ("b", "b", (0, 1)),
        ],
    )
    cert = generic_global_rigidity_test(g, tol)
    assert cert.verdict == Verdict.GENERIC_NOT_GLOBALLY_RIGID
    assert all(t["stress_kernel_dim"] == 4 for t in cert.trial_log)


def test_generic_fixed_verdicts(flex2, hexes, tol):
    single = GainGraph(2, ("a", "b"), [("a", "b", (0, 0))])
    assert (
        generic_fixed_global_rigidity_test(single, tol).verdict
        == Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID
    )
    # graphene's fixed stress space is trivial at generic points (rank R_L = 9)
    assert (
        generic_fixed_global_rigidity_test(hexes.graph, tol).verdict
        == Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID
    )
    # flex2: generic fixed stresses live on the loops only, Laplacian vanishes
    assert (
        generic_fixed_global_rigidity_test(flex2.graph, tol).verdict
        == Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID
    )


def test_generic_fixed_positive(tol):
    # doubled edge between two orbits: one-dimensional stress space with a
    # connected two-vertex support, Laplacian kernel is exactly the ones
    g = GainGraph(2, ("a", "b"), [("a", "b", (0, 0)), ("a", "b", (1, 0)), ("a", "b", (0, 1))])
    cert = generic_fixed_global_rigidity_test(g, tol)
    assert cert.verdict == Verdict.FIXED_GENERIC_GLOBALLY_RIGID


def test_generic_tests_deterministic_and_stable(hexes, tol):
    a = generic_global_rigidity_test(hexes.graph, tol)
    b = generic_global_rigidity_test(hexes.graph, tol)
    assert a.verdict == b.verdict and a.trial_log == b.trial_log
    assert not a.marginal
    more = ToleranceVault(rng_seed=tol.rng_seed + 1000, generic_trials=5)
    assert generic_global_rigidity_test(hexes.graph, more).verdict == a.verdict


def test_conic_deformation_duality(tol):
    """Some(Q) yields an equivalent non-congruent image; None blocks them all."""
    rng = np.random.default_rng(31)
    some_seen = none_seen = 0
    for trial in range(50):
        n_edges = int(rng.integers(1, 7))
        verts = ("a", "b")
        edges, seen = [], set()
        while len(edges) < n_edges:
            ti, hi = rng.integers(0, 2), rng.integers(0, 2)
            gain = tuple(int(x) for x in rng.integers(-2, 3, size=2))
            if ti == hi and not any(gain):
                continue
            from perigid.gain import canonicalize_edge

            canon = canonicalize_edge(verts[ti], verts[hi], gain, verts)
            key = (canon.tail, canon.head, canon.gain)
            if key in seen:
                continue
            seen.add(key)
            edges.append((verts[ti], verts[hi], gain))
        g = GainGraph(2, verts, edges)
        r = random_realization(g, tol, seed=1000 + trial)
        q = conic_at_infinity(g, r, tol)
        base = measurement(g, r)
        if q is not None:
            some_seen += 1
            moved = conic_deformation(r, q, t=0.5)
            assert np.abs(measurement(g, moved) - base).max() <= 1e-9
            assert congruence_check(r, moved, tol) is None
        else:
            none_seen += 1
            for _ in range(100):
                a = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
                if np.abs(a.T @ a - np.eye(2)).max() < 1e-3:
                    continue
                image = r.transformed(a)
                assert np.abs(measurement(g, image) - base).max() > 1e-9
    assert some_seen and none_seen  # both branches exercised


def test_generic_tests_trial_stable_on_fixtures(catalog):
    """All trials agree on every fixture graph: marginal stays False."""
    vault = ToleranceVault(generic_trials=5)
    for fix in catalog.values():
        flexible = generic_global_rigidity_test(fix.graph, vault)
        fixed = generic_fixed_global_rigidity_test(fix.graph, vault)
        assert not flexible.marginal, fix.name
        assert not fixed.marginal, fix.name


def test_octagon_generic_verdicts(octagon, tol):
    # twelve edge orbits cannot reach the rank needed for flexible-lattice
    # infinitesimal rigidity, but the fixed-lattice stress sampling succeeds
    assert (
        generic_global_rigidity_test(octagon.graph, tol).verdict
        == Verdict.GENERIC_NOT_GLOBALLY_RIGID
    )
    assert (
        generic_fixed_global_rigidity_test(octagon.graph, tol).verdict
        == Verdict.FIXED_GENERIC_GLOBALLY_RIGID
    )


def test_flex1_generic_fixed_positive(flex1, tol):
    # a single orbit under a fixed lattice only translates; the 1x1 zero
    # Laplacian has kernel dimension one, so any loop stress certifies
    cert = generic_fixed_global_rigidity_test(flex1.graph, tol)
    assert cert.verdict == Verdict.FIXED_GENERIC_GLOBALLY_RIGID


def test_super_stable_implies_generic_when_premise_holds(flex1, flex2, tol):
    """SuperStable at a point transfers to the generic verdict exactly when a
    nearby generic framework keeps a full-rank stress."""
    assert certify_super_stable(flex1.graph, flex1.realization, flex1.stress, tol).verdict == Verdict.SUPER_STABLE
    assert generic_global_rigidity_test(flex1.graph, tol).verdict == Verdict.GENERIC_GLOBALLY_RIGID

    assert certify_super_stable(flex2.graph, flex2.realization, flex2.stress, tol).verdict == Verdict.SUPER_STABLE
    generic = generic_global_rigidity_test(flex2.graph, tol)
    # premise fails here: generic realizations of this graph are stress-free,
    # so the special-point certificate does not transfer
    assert all(t["branch"] == "stress-free" for t in generic.trial_log)
    assert generic.verdict == Verdict.GENERIC_NOT_GLOBALLY_RIGID
