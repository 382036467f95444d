import functools
import json
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import framework, linalg, stress
from perigid.certify import (
    Verdict,
    _sample,
    _trial_entry,
    certify_fixed_lattice,
    certify_spiderweb,
    certify_super_stable,
    conic_at_infinity,
    generic_fixed_global_rigidity_test,
    generic_global_rigidity_test,
)
from perigid.errors import DegenerateEdge, ImproperStress, NotSpiderweb
from perigid.framework import (
    Realization,
    congruence_check,
    edge_vectors,
    measurement,
    random_realization,
)
from perigid.gain import GainEdge, GainGraph, canonicalize_edge
from perigid.linalg import nullspace
from perigid.stress import weighted_laplacians
from perigid.tolerances import ToleranceVault

from oracles import (
    cable_framework,
    conic_deformation,
    degree_one_graph,
    exact_stress_distance,
    out_degree_graph,
    reverify,
    strut_chord,
)


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


def test_conic_system_builds_no_square_edge_factor(monkeypatch, tol):
    """The conic system is tall, |E| x d(d+1)/2, and its right kernel needs
    only V^T: no SVD of the conic test returns an |E| x |E| factor."""
    graph, _ = cable_framework(2, n=40)
    real = random_realization(graph, tol)
    original, shapes = np.linalg.svd, []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        shapes.extend(np.shape(part) for part in (out if isinstance(out, tuple) else (out,)))
        return out

    monkeypatch.setattr(np.linalg, "svd", recorded)
    assert conic_at_infinity(graph, real, tol) is None
    edges = graph.num_edges
    assert shapes and (edges, edges) not in shapes


def test_certify_super_stable_flex2(flex2, tol):
    cert = certify_super_stable(flex2.graph, flex2.realization, flex2.stress, tol)
    assert cert.verdict == Verdict.SUPER_STABLE
    assert cert.kernel_dims == {"laplacian": 1}
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
    assert cert.kernel_dims == {"laplacian": 1}
    assert cert.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert reverify(cert, flex1.graph, flex1.realization, tol)


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


@pytest.mark.parametrize("mode", ["flexible", "fixed", "spiderweb", "volume"])
def test_each_certificate_factorises_its_laplacian_once(
    monkeypatch, count_factorisations, catalog, tol, mode
):
    """A strictly positive stress (the all-cable hex) is decided from the graph
    with no assembly and no eigvalsh; a stress of mixed signs assembles its
    stress matrix once, for exactly one eigvalsh of its Laplacian, in every
    mode."""
    from perigid.certify import certify_volume_constrained
    from perigid.optimize import standard_realization
    from perigid.stress import lambda_stress_space, normalized_stress

    hexes = catalog["hex"]
    cable_hex = hexes.graph.with_markings(["cable"] * hexes.graph.num_edges)
    octagon = catalog["octagon"]
    # (graph, eigvalsh calls, positive verdict, certificate call)
    if mode == "flexible":
        cases = [  # all-ones is no flexible stress of hex: Inconclusive, with no eigvalsh
            (octagon.graph, 1, True, lambda: certify_super_stable(
                octagon.graph, octagon.realization, octagon.stress, tol)),
            (cable_hex, 0, False, lambda: certify_super_stable(
                cable_hex, hexes.realization, hexes.stress, tol)),
        ]
    elif mode == "fixed":
        cases = [(cable_hex, 0, True, lambda: certify_fixed_lattice(
            cable_hex, hexes.realization, hexes.stress, tol))]
        for fix in (catalog["flex1"], catalog["flex2"], octagon):
            cases.append((fix.graph, 1, True, lambda fix=fix: certify_fixed_lattice(
                fix.graph, fix.realization, fix.stress, tol)))
    elif mode == "spiderweb":
        cable_octagon = octagon.graph.with_markings(["cable"] * octagon.graph.num_edges)
        cases = [  # octagon's struts carry negative weights: Inconclusive at positivity
            (cable_hex, 0, True, lambda: certify_spiderweb(
                cable_hex, hexes.realization, hexes.stress, tol)),
            (cable_octagon, 1, False, lambda: certify_spiderweb(
                cable_octagon, octagon.realization, octagon.stress, tol)),
        ]
    else:
        unit = hexes.realization.scaled(abs(np.linalg.det(hexes.realization.lattice)) ** -0.5)
        vec = normalized_stress(lambda_stress_space(cable_hex, unit, tol))
        strut, w = strut_chord(*cable_framework(5))
        real, report = standard_realization(strut, w, tol)
        cases = [
            (cable_hex, 0, True, lambda: certify_volume_constrained(
                cable_hex, unit, vec[:-1], vec[-1], tol)),
            (strut, 1, True, lambda: certify_volume_constrained(
                strut, real, w, report.lam, tol)),
        ]
    calls = count_factorisations()
    assemblies = _counting_assemblies(monkeypatch)
    for graph, eigensolves, positive, run in cases:
        size = graph.num_vertices
        del calls[:], assemblies[:]
        cert = run()
        assert cert.positive == positive
        eigvalsh = [c for c in calls if c[0] == "eigvalsh"]
        assert eigvalsh == [("eigvalsh", (size, size))] * eigensolves
        assert not [c for c in calls if c[0] != "eigvalsh" and c[1] == (size, size)]
        assert len(assemblies) == eigensolves
        if eigensolves == 0:
            assert cert.min_eigenvalue == 0.0 and not cert.marginal


@pytest.mark.parametrize("scale", [1e-7, 1e-6])
def test_positive_stress_kernel_is_exact_below_the_eigenvalue_cut(tol, tmp_path, capsys, scale):
    """Scaled by 1e-7, the weights at v39 put the Laplacian's second eigenvalue
    under the rank cut, unmarked since the gap to the zero eigenvalue is wide
    (at 1e-6 the cut still sees it), yet a strictly positive stress on a
    connected graph has kernel 1 exactly.  ``rank`` ranks the Laplacian by the
    same rule as the certificate."""
    from perigid import fileformat
    from perigid.cli import cli

    graph, w = cable_framework(3, n=40)
    w[(graph.tail_idx == 39) | (graph.head_idx == 39)] *= scale
    lattice = np.array([[1.0, 0.3], [0.2, 1.1]])
    laps = stress.weighted_laplacians(graph, w)
    points = np.zeros((2, 40))  # v0 pinned: P L + lattice C^T = 0 on the other columns
    points[:, 1:] = np.linalg.solve(laps.laplacian[1:, 1:], -laps.cross_block[1:] @ lattice.T).T
    real = Realization({v: points[:, i] for i, v in enumerate(graph.vertices)}, lattice)
    cert = certify_fixed_lattice(graph, real, w, tol)
    assert cert.verdict == Verdict.FIXED_SUPER_STABLE
    assert cert.kernel_dims == {"laplacian": 1}
    assert cert.min_eigenvalue == 0.0 and not cert.marginal
    path = tmp_path / "cable.json"
    path.write_bytes(fileformat.dumps(graph, real, w))
    assert cli(["rank", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["laplacian"] == {"shape": [40, 40], "rank": 39, "marginal": False}


def test_certificates_allocate_one_stress_matrix(tol):
    """At most one (|V|+d)^2 array: the minimiser's stress matrix, which its
    pinned solve and whitening read; this stress is positive, so no
    eigensolver runs.  Allowing for the |V|^2 temporaries of the pinned
    solve, the peak stays under 2.5 such arrays (it was about 4)."""
    from perigid.certify import certify_volume_constrained
    from perigid.optimize import standard_realization

    graph, w = cable_framework(11, n=400)
    real, report = standard_realization(graph, w, tol)
    size = graph.num_vertices + graph.dimension
    runs = {
        "fixed": lambda: certify_fixed_lattice(graph, real, w, tol).verdict,
        "volume": lambda: certify_volume_constrained(graph, real, w, report.lam, tol).verdict,
        "minimize": lambda: standard_realization(graph, w, tol)[1].passed,
    }
    expected = {"fixed": Verdict.FIXED_SUPER_STABLE, "volume": Verdict.VOLUME_SUPER_STABLE}
    for name, run in runs.items():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outcome = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert outcome == expected.get(name, True)
        assert peak <= 2.5 * size * size * 8, (name, peak / (size * size * 8))


def test_positive_certificates_build_no_stress_matrix(monkeypatch, tol):
    """A certificate on a strictly positive stress sums its equilibrium over the
    edges and decides its stress matrix from the graph: no assembly, and a
    peak under a tenth of one (|V|+d)^2 array at |V| = 640."""
    from perigid.certify import certify_volume_constrained
    from perigid.optimize import standard_realization

    graph, w = cable_framework(0, n=640)
    real, report = standard_realization(graph, w, tol)
    size = graph.num_vertices + graph.dimension
    runs = {
        Verdict.FIXED_SUPER_STABLE: (certify_fixed_lattice, certify_spiderweb),
        Verdict.VOLUME_SUPER_STABLE: (
            lambda *args: certify_volume_constrained(*args[:3], report.lam, tol),),
    }
    assemblies = _counting_assemblies(monkeypatch)
    for verdict, certificates in runs.items():
        for certificate in certificates:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                outcome = certificate(graph, real, w, tol).verdict
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert outcome == verdict
            assert peak < 0.1 * size * size * 8, peak / (size * size * 8)
    assert assemblies == []


def test_positive_certificates_run_no_gain_walk(monkeypatch, tol):
    """The minimiser and the fixed and volume certificates decide a strictly
    positive stress from the component labels alone: the gains are never
    walked and no exact rank is taken, but the labels are read."""
    from perigid import gain
    from perigid.certify import certify_volume_constrained
    from perigid.optimize import standard_realization

    def forbidden(*args):
        raise AssertionError("gains walked or ranked")

    monkeypatch.setattr(gain, "_add_row", forbidden)
    monkeypatch.setattr(GainGraph, "_gain_ranks", property(forbidden))
    graph, w = cable_framework(4, n=60)
    real, report = standard_realization(graph, w, tol)
    assert certify_fixed_lattice(graph, real, w, tol).verdict == Verdict.FIXED_SUPER_STABLE
    volume = certify_volume_constrained(graph, real, w, report.lam, tol)
    assert volume.verdict == Verdict.VOLUME_SUPER_STABLE
    assert "_components" in vars(graph)  # the component labels were read


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


def test_minimize_assembles_laplacians_once(hexes, tmp_path, monkeypatch, capsys):
    """One assembly serves the minimiser's pinned solve and whitening; its KKT
    check and the energy are summed over the edges."""
    from perigid import fileformat
    from perigid.cli import cli

    path = tmp_path / "hex.json"
    path.write_bytes(fileformat.dumps(hexes.graph, hexes.realization, hexes.stress))
    assemblies = _counting_assemblies(monkeypatch)
    assert cli(["minimize", str(path)]) == 0
    assert len(assemblies) == 1


def test_rank_of_a_strictly_positive_stress_assembles_nothing(hexes, tmp_path, monkeypatch, capsys):
    """``rank`` takes both stress matrices' shapes from the graph and decides
    a strictly positive stress from the graph, so it builds neither matrix."""
    from perigid import fileformat
    from perigid.cli import cli

    path = tmp_path / "hex.json"
    path.write_bytes(fileformat.dumps(hexes.graph, hexes.realization, hexes.stress))
    assemblies = _counting_assemblies(monkeypatch)
    assert cli(["rank", str(path)]) == 0
    assert assemblies == []


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
    # stress matrix has kernel dimension exactly d+1: its Laplacian's is one
    edges = [(e.tail, e.head, e.gain) for e in flex2.graph.edges]
    g = GainGraph(2, flex2.graph.vertices, edges + [("v1", "v2", (0, 1))])
    cert = generic_global_rigidity_test(g, tol)
    assert cert.verdict == Verdict.GENERIC_GLOBALLY_RIGID
    assert all(t["branch"] == "stress sampling" for t in cert.trial_log)
    assert all(t["stress_kernel_dim"] == 1 for t in cert.trial_log)


def test_generic_flexible_zero_stress_matrix_ranks_as_zero(tol):
    # duplicated loop pairs force the sampled stress matrix to cancel to the
    # exact zero matrix; the floored rank must see the Laplacian's kernel |V|,
    # not noise
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
    assert all(t["stress_kernel_dim"] == 2 for t in cert.trial_log)


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


def test_generic_fixed_single_orbit_positive_with_or_without_loop(tmp_path, tol):
    """Under a fixed lattice one vertex orbit can only be translated, and a
    loop adds no constraint: both graphs are positive, also in the CLI."""
    from perigid import fileformat
    from perigid.cli import cli

    bare = GainGraph(2, ("v",), [])
    looped = GainGraph(2, ("v",), [("v", "v", (1, 0))])
    for name, graph in (("bare", bare), ("looped", looped)):
        cert = generic_fixed_global_rigidity_test(graph, tol)
        assert cert.verdict == Verdict.FIXED_GENERIC_GLOBALLY_RIGID, name
        path = tmp_path / f"{name}.json"
        path.write_bytes(fileformat.dumps(graph))
        assert cli(["generic-test", str(path), "--mode", "fixed"]) == 0, name
    # the first trial proves the positive verdict and ends the test
    branches = [t["branch"] for t in generic_fixed_global_rigidity_test(bare, tol).trial_log]
    assert branches == ["stress-free"]


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
@pytest.mark.parametrize("case", ["flex2+orbit"])
def test_generic_trial_one_lstsq_one_eigvalsh_no_svd(flex2, tol, count_factorisations, mode, case):
    """Below the Gram path's size gate a trial is one least-squares solve of
    R and one eigvalsh of the stress Laplacian, and on this positive graph
    the first trial proves the verdict: one trial, whatever the budget."""
    edges = [(e.tail, e.head, e.gain) for e in flex2.graph.edges]
    graph = GainGraph(2, flex2.graph.vertices, edges + [("v1", "v2", (0, 1))])
    n, d, e = graph.num_vertices, graph.dimension, graph.num_edges
    calls = count_factorisations()
    if mode == "flexible":
        assert generic_global_rigidity_test(graph, tol).positive
        per_trial = [("lstsq", (e, d * n + d * d)), ("eigvalsh", (n, n))]
    else:
        assert generic_fixed_global_rigidity_test(graph, tol).positive
        per_trial = [("lstsq", (e, d * n)), ("eigvalsh", (n, n))]
    assert calls == per_trial


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
@pytest.mark.parametrize("case", ["out3-40", "out3-64", "out3-100"])
def test_generic_trial_gram_path_makes_no_svd(tol, count_factorisations, mode, case):
    """Above the size gate a rigid trial is proved by one shifted Cholesky of
    R_Q^T R_Q, built from R's entries, and its stress reuses that factor,
    whose diagonal blocks are inverted by matrix products: substitution
    only, with no inv, solve, lstsq or SVD.  The stress's Laplacian L is
    proved to have nullity 1 by one shifted Cholesky of order |V| - 1, with
    no eigvalsh, once |V| reaches the gate too; at |V| = 40 R is above the
    gate and L below it, so L's eigvalsh stays.  The flexible motion basis
    is one QR of the d(d+1)/2 trivial motions.  These graphs are positive,
    and the first trial proves it, so the test runs one trial."""
    graph = out_degree_graph(0, n=int(case.split("-")[1]))
    n, d = graph.num_vertices, graph.dimension
    laplacian = ("cholesky", (n - 1, n - 1)) if n >= 64 else ("eigvalsh", (n, n))
    calls = count_factorisations()
    if mode == "flexible":
        assert generic_global_rigidity_test(graph, tol).positive
        q = d * n + d * d - d * (d + 1) // 2
        per_trial = [("qr", (d * n + d * d, 3)), ("cholesky", (q, q)), laplacian]
    else:
        assert generic_fixed_global_rigidity_test(graph, tol).positive
        q = d * n - d
        per_trial = [("cholesky", (q, q)), laplacian]
    assert calls == per_trial


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
def test_certified_trial_holds_no_dense_rigidity_matrix(monkeypatch, mode):
    """One certified trial on ``out_degree_graph(0, n=100)`` never scatters R
    into a dense matrix.  Apart from the q x q Gram matrix and its Cholesky
    factor, which the factorisation holds at once, its tracemalloc peak stays
    below the bytes of one dense R, so a trial that also held R or a column
    copy of it while factoring would fail."""
    graph = out_degree_graph(0, n=100)
    d, n, flexible = graph.dimension, graph.num_vertices, mode == "flexible"
    run = generic_global_rigidity_test if flexible else generic_fixed_global_rigidity_test
    cols = d * n + (d * d if flexible else 0)
    q = cols - (d * (d + 1) // 2 if flexible else d)
    one = ToleranceVault(generic_trials=1)
    assert run(graph, one).positive  # imports and caches before the count

    def no_dense(*args):
        raise AssertionError("a certified trial scattered R into a dense matrix")

    for module in (linalg, framework):
        monkeypatch.setattr(module, "_scatter_rows", no_dense)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = run(graph, one)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cert.positive
    assert peak - 2 * q * q * 8 < graph.num_edges * cols * 8


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
def test_generic_trial_falls_back_to_lstsq_on_a_flex(tol, count_factorisations, mode):
    """On a graph above the count with a degree-1 vertex, which can turn about
    its one edge, each trial's Cholesky fails and the trial runs lstsq once,
    as before.  (A positive graph runs no lstsq: see the Gram path test.)"""
    graph = degree_one_graph()
    calls = count_factorisations()
    if mode == "flexible":
        assert not generic_global_rigidity_test(graph, tol).positive
    else:
        assert not generic_fixed_global_rigidity_test(graph, tol).positive
    assert [name for name, _ in calls].count("lstsq") == tol.generic_trials


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 5),
    st.booleans(),
    st.booleans(),
    st.integers(-6, 6),
    st.integers(0, 2**32 - 1),
)
def test_trial_distance_bounds_the_exact_stress(n, fixed, gram, scale, seed):
    """On both paths (the Gram path with its size gate off), in both modes
    and at any scale, a sample whose rank is that of infinitesimal rigidity
    and whose distance is finite has its stress w within that distance of
    P w, its exact projection onto the left kernel of the exact rigidity
    matrix, computed over the rationals."""
    tol = ToleranceVault()
    graph = out_degree_graph(seed, n=n, out=3)
    real = random_realization(graph, tol, seed=seed).scaled(2.0**scale * 10.0**scale)
    with pytest.MonkeyPatch.context() as mp:
        if gram:
            mp.setattr(linalg, "_GRAM_MIN_COLS", 0)
        free, sample = _sample(graph, real, fixed, np.random.default_rng(seed), tol)
    if sample.rank != free or not sample.distance < np.inf:
        return
    assert exact_stress_distance(graph, real, fixed, sample.stress)[0] <= sample.distance


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.booleans(),
    st.booleans(),
    st.integers(-6, 6),
    st.integers(0, 2**32 - 1),
)
def test_proved_trial_bound_covers_the_exact_laplacian(n, fixed, gram, scale, seed):
    """The premise of a trial's Weyl step, checked exactly: on both paths
    (the Gram path with its size gate off), in both modes and at any scale,
    every proved trial with a ``bound`` has its assembled Laplacian fl(L(w))
    within ``bound`` of L(P w), the Laplacian of the exact projection of its
    stress, in the largest absolute row sum of their difference, which
    bounds the 2-norm of that symmetric matrix; over the rationals."""
    tol = ToleranceVault()
    graph = out_degree_graph(seed, n=n, out=3)
    real = random_realization(graph, tol, seed=seed).scaled(10.0**scale)
    with pytest.MonkeyPatch.context() as mp:
        if gram:
            mp.setattr(linalg, "_GRAM_MIN_COLS", 0)
        free, sample = _sample(graph, real, fixed, np.random.default_rng(seed), tol)
    entry = _trial_entry(graph, fixed, free, sample, tol)
    if not entry["proved"] or entry["bound"] is None:
        return
    _, exact = exact_stress_distance(graph, real, fixed, sample.stress)
    laplacian = weighted_laplacians(graph, sample.stress).laplacian
    diff = [[Fraction(float(v)) for v in row] for row in laplacian]
    for e, we in zip(graph.edges, exact):
        t, h = graph.vertex_index(e.tail), graph.vertex_index(e.head)
        if t != h:
            diff[t][t], diff[h][h] = diff[t][t] - we, diff[h][h] - we
            diff[t][h], diff[h][t] = diff[t][h] + we, diff[h][t] + we
    assert max(sum(abs(v) for v in row) for row in diff) <= Fraction(entry["bound"])


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
def test_trial_decided_negative_runs_every_trial(mode):
    """No trial proves a graph with a degree-1 vertex positive, so a test at
    or above the edge count runs its whole budget of seeds, in order, and
    gives the negative verdict; only a proved trial stops it early."""
    tol = ToleranceVault(rng_seed=11, generic_trials=5)
    run = generic_global_rigidity_test if mode == "flexible" else generic_fixed_global_rigidity_test
    cert = run(degree_one_graph(), tol)
    assert not cert.positive and cert.failing is None
    assert [t["seed"] for t in cert.trial_log] == list(range(11, 16))
    assert not any(t["proved"] or t["positive"] for t in cert.trial_log)


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
@pytest.mark.parametrize("path, n", [("lstsq", 6), ("gram", 64)])
def test_swamping_entry_errors_decline_the_proof(monkeypatch, mode, path, n):
    """When the rounding bounds of R's entries swamp the sigma that the
    singular values (lstsq) or the Cholesky factor (Gram) prove, the
    distance to the exact stress is infinite: no trial is proved and none
    has a bound, though each one's cut still votes positive, so a positive
    graph gets the negative verdict, marginal."""
    from perigid import certify

    errors, distances = certify._rigidity_entry_errors, []
    monkeypatch.setattr(certify, "_rigidity_entry_errors",
                        lambda *args: np.full_like(errors(*args), 1e6))
    name = "_lstsq_distance" if path == "lstsq" else "_cg_distance"
    distance = getattr(linalg, name)

    def recorded(*args):
        distances.append(distance(*args))
        return distances[-1]

    monkeypatch.setattr(linalg, name, recorded)
    run = generic_global_rigidity_test if mode == "flexible" else generic_fixed_global_rigidity_test
    tol = ToleranceVault()
    cert = run(out_degree_graph(0, n=n), tol)
    assert distances == [np.inf] * tol.generic_trials
    assert not cert.positive and cert.marginal
    assert len(cert.trial_log) == tol.generic_trials
    for entry in cert.trial_log:
        assert entry["path"] == path and entry["positive"]
        assert not entry["proved"] and entry["bound"] is None


def _perfbench_gen():
    """The benchmark's own generator module, ``perfbench/gen.py``."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _perfbench_generic_d3_neg() -> bytes:
    """``in/d3_neg.json`` of the benchmark's ``generic`` workload at seed 0,
    regenerated with its own generator (the workload's rng is seeded with
    [seed, 0] and draws the d = 2 graphs and their switched copies first)."""
    from perigid import fileformat

    gen = _perfbench_gen()
    rng = np.random.default_rng([0, 0])
    for d, n in ((2, 160), (3, 100)):
        graphs = gen.out_degree_graph(rng, d, n, d + 1), gen.sparse_graph(rng, d, n, d * n - d - 1)
        if d == 3:
            return fileformat.loads(json.dumps(gen.to_document(graphs[1])).encode())
        for g in graphs:
            gen.switched_copy(rng, g)


@functools.lru_cache(maxsize=None)
def _sparse_degree_three_graph() -> GainGraph:
    """ROADMAP known defect 1's input: the benchmark generator's
    ``sparse_graph(default_rng(4), 2, 1000, 2020)``, topped up so that every
    vertex has degree 3 by visiting the vertices in order and adding edges
    from each to random other vertices, with the generator's random gains
    on the same rng, counting only the visited vertex: d = 2, |V| = 1000,
    |E| = 2320."""
    from perigid import fileformat

    gen = _perfbench_gen()
    rng = np.random.default_rng(4)
    g = gen.sparse_graph(rng, 2, 1000, 2020)
    edges = gen._EdgeSet(2)
    for t, h, gain in zip(g["tail"], g["head"], g["gain"]):
        edges.add(int(t), int(h), gain)
    degree = np.bincount(np.concatenate([g["tail"], g["head"]]), minlength=1000)
    for v in range(1000):
        while degree[v] < 3:
            h = int(rng.integers(1000))
            if h != v and edges.add(v, h, gen._random_gain(rng, 2)):
                degree[v] += 1
    document = gen.to_document(gen._graph(2, 1000, edges))
    return fileformat.loads(json.dumps(document).encode()).graph


@pytest.mark.parametrize("seed", [2026, 2031])
def test_size_scaled_cut_no_longer_decides_a_trial(seed):
    """Known defect 1, mended: at |V| = 1000 the rank cut, 1e-6 of sigma_1,
    lies above L's second-smallest eigenvalue (4.4e-7 and 3.4e-7 of sigma_1
    at these seeds), so the cut reads a kernel of 2 or 3, marginal, and
    votes negative.  The trial's proof does not read the cut: its Laplacian
    bound clears the distance to the exact stress's Laplacian by three
    orders of magnitude, and the verdict is positive."""
    graph = _sparse_degree_three_graph()
    assert (graph.dimension, graph.num_vertices, graph.num_edges) == (2, 1000, 2320)
    cert = generic_fixed_global_rigidity_test(graph, ToleranceVault(rng_seed=seed, generic_trials=1))
    assert cert.verdict == Verdict.FIXED_GENERIC_GLOBALLY_RIGID and not cert.marginal
    (entry,) = cert.trial_log
    assert entry["stress_kernel_dim"] >= 2 and entry["marginal"] and not entry["positive"]
    assert entry["proved"] and entry["path"] == "gram"
    assert entry["lambda2"] > 100 * entry["bound"]


def test_generic_trial_reports_its_marginal_rank_cut():
    """With one seeded edge added (297 edges, the fixed-lattice count), trial
    seed 9 of this fixed-lattice test makes a marginal rank cut of its
    297 x 300 rigidity matrix (stress space 9 against 8 on the other trials);
    the trial and the certificate say so.  The benchmark graph itself, one
    edge short of the count, is decided by the count with no trial."""
    graph = _perfbench_generic_d3_neg().graph
    assert (graph.dimension, graph.num_vertices, graph.num_edges) == (3, 100, 296)
    tol = ToleranceVault(rng_seed=7, generic_trials=5)
    cert = generic_fixed_global_rigidity_test(graph, tol)
    assert cert.verdict == Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID
    assert (cert.trial_log, cert.marginal) == ([], False)
    assert cert.failing == "edge count 296 < 297: no realization is infinitesimally rigid"

    rng = np.random.default_rng(5)
    tail, head = (graph.vertices[int(i)] for i in rng.integers(100, size=2))
    extra = (tail, head, tuple(int(x) for x in rng.integers(-1, 2, 3)))
    edges = [(e.tail, e.head, e.gain) for e in graph.edges]
    graph = GainGraph(3, graph.vertices, edges + [extra])
    assert graph.num_edges == 297
    cert = generic_fixed_global_rigidity_test(graph, tol)
    marginal = {t["seed"]: t["marginal"] for t in cert.trial_log}
    dims = {t["seed"]: t["stress_space_dim"] for t in cert.trial_log}
    assert marginal[9] and cert.marginal and cert.failing is None
    assert dims == {7: 8, 8: 8, 9: 9, 10: 8, 11: 8}
    assert cert.verdict == Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID


def test_generic_trials_match_public_rank_and_stress_space(tol):
    """Each trial's rigidity and stress-space dimension equal those of the
    public functions at the trial's realization, on seeded gain graphs.  A
    graph below its mode's edge count is decided by the count, and the
    public rigidity test fails at every trial seed's realization."""
    from perigid.framework import is_fixed_lattice_inf_rigid, is_infinitesimally_rigid
    from perigid.stress import fixed_stress_space, stress_space

    def count_decided(cert, graph, verdict, count) -> bool:
        if graph.num_edges >= count:
            return False
        assert (cert.verdict, cert.trial_log, cert.marginal) == (verdict, [], False)
        assert cert.failing == (
            f"edge count {graph.num_edges} < {count}: no realization is infinitesimally rigid"
        )
        return True

    rng = np.random.default_rng(11)
    branches = set()
    seeds = range(tol.rng_seed, tol.rng_seed + tol.generic_trials)
    for _ in range(60):
        d, n = int(rng.integers(2, 4)), int(rng.integers(1, 9))
        verts = tuple(f"v{i}" for i in range(n))
        edges = {}  # keyed by edge class, so no two edges are equivalent
        for _ in range(int(rng.integers(0, d * n + d * d + 2))):
            tail, head = sorted(int(x) for x in rng.integers(n, size=2))
            gain = tuple(int(x) for x in rng.integers(-1, 2, d))
            if tail != head or any(gain):
                edges[canonicalize_edge(verts[tail], verts[head], gain, verts)[:3]] = None
        graph = GainGraph(d, verts, list(edges))
        cert = generic_global_rigidity_test(graph, tol)
        flexible_count = d * n + d * (d - 1) // 2
        if count_decided(cert, graph, Verdict.GENERIC_NOT_GLOBALLY_RIGID, flexible_count):
            for seed in seeds:
                real = random_realization(graph, tol, seed=seed)
                assert not is_infinitesimally_rigid(graph, real, tol)
            branches.add(("flexible", "edge count"))
        for entry in cert.trial_log:
            real = random_realization(graph, tol, seed=entry["seed"])
            assert entry["infinitesimally_rigid"] == is_infinitesimally_rigid(graph, real, tol)
            if "stress_space_dim" in entry:
                assert entry["stress_space_dim"] == stress_space(graph, real, tol).shape[1]
            branches.add(("flexible", entry["branch"]))
        cert = generic_fixed_global_rigidity_test(graph, tol)
        if count_decided(cert, graph, Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID, d * (n - 1)):
            for seed in seeds:
                real = random_realization(graph, tol, seed=seed)
                assert not is_fixed_lattice_inf_rigid(graph, real, tol)
            branches.add(("fixed", "edge count"))
        for entry in cert.trial_log:
            real = random_realization(graph, tol, seed=entry["seed"])
            assert entry["stress_space_dim"] == fixed_stress_space(graph, real, tol).shape[1]
            branches.add(("fixed", entry["branch"]))
    assert branches >= {
        ("flexible", "edge count"),
        ("flexible", "not infinitesimally rigid"),
        ("flexible", "stress sampling"),
        ("fixed", "edge count"),
        ("fixed", "stress-free"),
        ("fixed", "stress sampling"),
    }


@pytest.mark.parametrize("mode", ["flexible", "fixed"])
def test_generic_test_below_count_makes_no_factorisation(hexes, tol, count_factorisations, mode):
    """hex (6 vertices, 9 edges) is below both edge counts: the verdict comes
    from the count, with no numpy.linalg factorisation or solve."""
    calls = count_factorisations()
    if mode == "flexible":
        cert = generic_global_rigidity_test(hexes.graph, tol)
    else:
        cert = generic_fixed_global_rigidity_test(hexes.graph, tol)
    assert not cert.positive and cert.trial_log == []
    assert calls == []


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


def _conic_entrywise(graph, real, tol):
    """conic_at_infinity's system and witness built entry by entry, in its
    coordinate order: E_ii, then E_ij + E_ji for i < j."""
    d = graph.dimension
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rows = [
        [v[i] * v[i] for i in range(d)] + [2.0 * v[i] * v[j] for i, j in pairs]
        for v in edge_vectors(graph, real)
    ]
    kernel = nullspace(np.array(rows), "right", tol)
    if kernel.shape[1] == 0:
        return None
    q = np.zeros((d, d))
    for k in range(d):
        q[k, k] = kernel[k, 0]
    for k, (i, j) in enumerate(pairs, start=d):
        q[i, j] = q[j, i] = kernel[k, 0]
    return q / np.linalg.norm(q)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_conic_matches_entrywise_reference(tol, d):
    """The vectorised conic system and witness equal the entry-by-entry ones
    bit for bit, with a conic (fewer loops than coordinates) and without."""
    rng = np.random.default_rng(d)
    outcomes = set()
    for trial in range(12):
        count, gains, seen = int(rng.integers(1, d * (d + 1) // 2 + 2)), [], set()
        while len(gains) < count:
            g = tuple(int(x) for x in rng.integers(-2, 3, size=d))
            if any(g) and g not in seen:
                seen.update((g, tuple(-x for x in g)))
                gains.append(g)
        graph = GainGraph(d, ("a",), [("a", "a", g) for g in gains])
        real = random_realization(graph, tol, seed=trial)
        q, ref = conic_at_infinity(graph, real, tol), _conic_entrywise(graph, real, tol)
        assert (q is None) == (ref is None)
        assert q is None or np.array_equal(q, ref)
        outcomes.add(q is None)
    assert outcomes == {True, False} or d == 1


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
