"""Reference helpers that only the tests use: vector forms of a realization,
the conic deformation, a projected-gradient refiner, seeded cable frameworks
(one with a strut chord), two exact ranks of integer matrices (fraction-free
Bareiss elimination, the reference for the gain graph's echelon, and
elimination over the rationals),
the re-verification of a positive stress certificate from its witness, a
two-pass reference reader of framework files and the dict-building
reference writer, seeded out-degree gain graphs
(one with a degree-1 vertex), the per-vertex trivial motions and
realization draws that the vectorised ones must reproduce, and the
equilibrium check on the dense stress matrices that the edge sums replaced."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from perigid.certify import (
    Certificate,
    Verdict,
    certify_fixed_lattice,
    certify_super_stable,
    certify_volume_constrained,
)
from perigid.construct import FiniteFramework
from perigid.errors import FlatLattice, ParseError
from perigid.fileformat import (
    ParsedFramework,
    _as_name,
    _as_real,
    _as_strict_int,
    _document,
    _fail,
    _require,
)
from perigid.framework import Realization, point_matrix
from perigid.gain import MARKINGS, GainGraph, canonicalize_edge
from perigid.linalg import symmetric_spectrum
from perigid.optimize import energy, energy_gradient
from perigid.stress import EquilibriumReport, _vertex_scatter, weighted_laplacians
from perigid.tolerances import ToleranceVault


def realization_vector(graph: GainGraph, real: Realization) -> np.ndarray:
    """Concatenated vector form [p; l] of length d|V| + d^2 (lattice columns in order)."""
    p = np.concatenate([real.points[v] for v in graph.vertices])
    ell = real.lattice.flatten(order="F")
    return np.concatenate([p, ell])


def realization_from_vector(graph: GainGraph, vec: np.ndarray) -> Realization:
    d = graph.dimension
    n = graph.num_vertices
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if vec.size != d * n + d * d:
        raise ValueError("vector has the wrong length for this graph")
    points = {v: vec[d * i : d * (i + 1)] for i, v in enumerate(graph.vertices)}
    lattice = vec[d * n :].reshape(d, d, order="F")
    return Realization(points, lattice)


def conic_deformation(real: Realization, q: np.ndarray, t: float) -> Realization:
    """Equivalent non-congruent affine image built from a conic witness.

    Diagonalize Q, rescale so its top eigenvalue is at most one, and apply the
    square-root deformation A_t with I - A_t^T A_t = t Q; measurements of edges
    annihilated by Q are preserved exactly.
    """
    q = np.asarray(q, dtype=float)
    q = 0.5 * (q + q.T)
    eigvals, eigvecs = np.linalg.eigh(q)
    top = float(eigvals[-1])
    if top > 1.0:
        q = q / top
        eigvals = eigvals / top
    factors = np.sqrt(1.0 - t * eigvals)
    a_t = eigvecs @ np.diag(factors) @ eigvecs.T
    return real.transformed(a_t)


def projected_gradient_refine(
    graph: GainGraph,
    weights,
    real: Realization,
    tol: ToleranceVault,
    steps: int = 200,
    step_size: float = 0.05,
) -> Realization:
    """Gradient descent re-projected onto volume >= 1, to confirm that the
    closed-form minimizer cannot be improved upon."""
    d = graph.dimension

    def project(vec: np.ndarray) -> Optional[Realization]:
        candidate = realization_from_vector(graph, vec)
        det = abs(float(np.linalg.det(candidate.lattice)))
        if det < tol.residual_tol:
            return None
        if det < 1.0:
            candidate = Realization(
                candidate.points, candidate.lattice * det ** (-1.0 / d)
            )
        return candidate

    current = project(realization_vector(graph, real)) or real
    current_energy = energy(graph, weights, current, tol)
    for _ in range(steps):
        grad = energy_gradient(graph, weights, current, tol)
        base = realization_vector(graph, current)
        step = step_size
        improved = False
        while step > 1e-10:
            candidate = project(base - step * grad)
            if candidate is not None:
                cand_energy = energy(graph, weights, candidate, tol)
                if cand_energy < current_energy - 1e-15:
                    current, current_energy = candidate, cand_energy
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    return current


def cable_framework(seed: int, n: int = 40, d: int = 2):
    """Seeded connected all-cable gain graph with positive weights: a random
    tree plus chords, gains in {-1, 0, 1}^d, so Lzd is PSD with kernel 1-hat."""
    rng = np.random.default_rng(seed)
    edges = {}  # tail < head throughout, so distinct keys are distinct edges
    for head in range(1, n):
        edges[(int(rng.integers(head)), head, tuple(rng.integers(-1, 2, d).tolist()))] = None
    while len(edges) < 2 * n + 1:
        tail, head = sorted(rng.choice(n, 2, replace=False).tolist())
        edges[(tail, head, tuple(rng.integers(-1, 2, d).tolist()))] = None
    graph = GainGraph(
        d, [f"v{i}" for i in range(n)], [(f"v{t}", f"v{h}", g, "cable") for t, h, g in edges]
    )
    return graph, rng.uniform(0.5, 1.5, graph.num_edges)


def strut_chord(graph: GainGraph, weights):
    """A :func:`cable_framework` with the chord at edge index |V| turned into a
    strut of weight -0.01: a stress of mixed signs whose Lzd stays PSD with
    kernel 1-hat, since the strut is weak."""
    k = graph.num_vertices
    edges = list(graph.edges)
    edges[k] = edges[k]._replace(marking="strut")
    w = np.array(weights, dtype=float)
    w[k] = -0.01
    return GainGraph(graph.dimension, graph.vertices, edges), w


def _as_int_rows(matrix) -> list[list[int]]:
    arr = np.asarray(matrix)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        raise ValueError("expected a 2-d integer matrix")
    if not np.issubdtype(arr.dtype, np.integer) and arr.dtype != object:
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.round(arr)):
            raise ValueError("smith_rank requires exact integer input, not floats")
        raise ValueError("smith_rank requires exact integer input")
    return [[int(x) for x in row] for row in arr.tolist()]


def smith_rank(matrix) -> int:
    """Exact rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) elimination on Python integers: each update
    ``(pivot * x - factor * top) / previous pivot`` is a minor of the input,
    so the division is exact.  The reference for the exact gain ranks that
    :class:`~perigid.gain.GainGraph` takes from its cycle-gain echelon.
    """
    work = _as_int_rows(matrix)
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    rank = 0
    previous = 1
    for pivot_col in range(ncols):
        if rank == nrows:
            break
        pivot_row = next((r for r in range(rank, nrows) if work[r][pivot_col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        top = work[rank]
        pivot = top[pivot_col]
        for r in range(rank + 1, nrows):
            row, factor = work[r], work[r][pivot_col]
            for c in range(pivot_col + 1, ncols):
                row[c] = (pivot * row[c] - factor * top[c]) // previous
            row[pivot_col] = 0
        previous = pivot
        rank += 1
    return rank


def fraction_rank(matrix) -> int:
    """Exact rank of an integer matrix by Gaussian elimination over ``Fraction``."""
    rows = _as_int_rows(matrix)
    if not rows:
        return 0
    work = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(work), len(work[0])
    rank = 0
    pivot_col = 0
    while rank < nrows and pivot_col < ncols:
        pivot_row = next(
            (r for r in range(rank, nrows) if work[r][pivot_col] != 0), None
        )
        if pivot_row is None:
            pivot_col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][pivot_col]
        for r in range(rank + 1, nrows):
            factor = work[r][pivot_col] / pivot
            if factor:
                for c in range(pivot_col, ncols):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
        pivot_col += 1
    return rank


def exact_stress_distance(graph: GainGraph, real: Realization, fixed: bool, w) -> tuple:
    """|w - w*|_2 and w* = P w, the orthogonal projection of the stress ``w``
    onto the left kernel of the exact rigidity matrix R of ``real`` (the
    fixed-lattice one when ``fixed``), as a list of ``Fraction``s; its float
    points, lattice and ``w`` are taken as exact rationals: R is built entry
    by entry over ``Fraction``, a basis A of its columns is found by
    elimination, and w* = w - A (A^T A)^-1 A^T w is solved exactly.  Only the
    final square root rounds."""
    d, n = graph.dimension, graph.num_vertices
    points = [[Fraction(float(c)) for c in col] for col in point_matrix(graph, real).T]
    lattice = [[Fraction(float(c)) for c in row] for row in real.lattice]
    cols = d * n + (0 if fixed else d * d)
    rows = []
    for e in graph.edges:
        t, h, g = graph.vertex_index(e.tail), graph.vertex_index(e.head), e.gain
        nu = [points[h][i] + sum(lattice[i][k] * g[k] for k in range(d)) - points[t][i]
              for i in range(d)]
        row = [Fraction(0)] * cols
        if t != h:
            for i in range(d):
                row[d * t + i] -= nu[i]
                row[d * h + i] += nu[i]
        if not fixed:
            for k in range(d):
                for i in range(d):
                    row[d * n + d * k + i] += g[k] * nu[i]
        rows.append(row)
    # pivot columns of R by elimination on a copy
    work, basis = [list(r) for r in rows], []
    for c in range(cols):
        pivot = next((r for r in range(len(basis), len(work)) if work[r][c] != 0), None)
        if pivot is None:
            continue
        k = len(basis)
        work[k], work[pivot] = work[pivot], work[k]
        for r in range(k + 1, len(work)):
            factor = work[r][c] / work[k][c]
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[k])]
        basis.append(c)
    ws = [Fraction(float(v)) for v in w]
    a = [[row[c] for c in basis] for row in rows]
    q = len(basis)
    # normal equations [A^T A | A^T w], solved by Gauss-Jordan
    system = [[sum(r[i] * r[j] for r in a) for j in range(q)] + [sum(r[i] * v for r, v in zip(a, ws))]
              for i in range(q)]
    for i in range(q):
        pivot = next(r for r in range(i, q) if system[r][i] != 0)
        system[i], system[pivot] = system[pivot], system[i]
        system[i] = [v / system[i][i] for v in system[i]]
        for r in range(q):
            if r != i and system[r][i]:
                factor = system[r][i]
                system[r] = [u - factor * v for u, v in zip(system[r], system[i])]
    f = [system[i][q] for i in range(q)]
    exact = [v - sum(ai * fi for ai, fi in zip(r, f)) for r, v in zip(a, ws)]
    return float(sum((v - e) ** 2 for v, e in zip(ws, exact))) ** 0.5, exact


def reverify(
    certificate: Certificate, graph: GainGraph, real: Realization, tol: ToleranceVault
) -> bool:
    """Re-run the checks behind a positive stress certificate from its witness.

    A fixed-lattice verdict re-runs the fixed-lattice certificate, also when a
    spiderweb check issued it.  A flexible or volume verdict, which the
    package decides on the Laplacian L, also checks the paper's own statement
    on the dense lattice-extended Lzd: PSD, with kernel dimension d+1
    (flexible) or 1 (volume).
    """
    w, lam = certificate.witness_stress, certificate.witness_lambda
    again = {
        Verdict.SUPER_STABLE: lambda: certify_super_stable(graph, real, w, tol),
        Verdict.FIXED_SUPER_STABLE: lambda: certify_fixed_lattice(graph, real, w, tol),
        Verdict.VOLUME_SUPER_STABLE: lambda: certify_volume_constrained(graph, real, w, lam, tol),
    }.get(certificate.verdict)
    if again is None:
        raise ValueError("reverify handles positive stress-certificate verdicts only")
    lzd_nullity = {Verdict.SUPER_STABLE: graph.dimension + 1, Verdict.VOLUME_SUPER_STABLE: 1}
    if certificate.verdict in lzd_nullity:
        laps = weighted_laplacians(graph, w)
        dense = symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale)
        if dense.nullity != lzd_nullity[certificate.verdict] or not dense.is_psd:
            return False
    return again().verdict == certificate.verdict


# -- reference reader ----------------------------------------------------------
#
# The two-pass reader that ``perigid.fileformat`` replaced: the field checks
# collect names and (tail, head, gain, marking) tuples, then ``GainGraph``
# coerces and checks every edge again.  The one-pass reader must agree with it
# on every input: the same graph and geometry, or the same error.


def _reference_vertices(data: dict, dim: int, need_position: bool) -> tuple[list, dict]:
    raw_vertices = _require(data, "vertices", "$")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise _fail("$.vertices", "must be a non-empty list")
    names, name_set, positions = [], set(), {}
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict):
            raise _fail("$.vertices[{}]", "must be an object", i)
        name = _as_name(_require(entry, "name", "$.vertices[{}]", i), "$.vertices[{}].name", i)
        if name in name_set:
            raise _fail("$.vertices[{}].name", f"duplicate vertex name {name!r}", i)
        names.append(name)
        name_set.add(name)
        if need_position or "position" in entry:
            pos = _require(entry, "position", "$.vertices[{}]", i)
            if not isinstance(pos, list) or len(pos) != dim:
                raise _fail("$.vertices[{}].position", f"must be a list of {dim} reals", i)
            positions[name] = np.array(
                [_as_real(x, "$.vertices[{}].position[{}]", i, k) for k, x in enumerate(pos)]
            )
    return names, positions


def _reference_edges(data: dict, dim: int, names: list, with_gains: bool) -> tuple[list, list]:
    raw_edges = _require(data, "edges", "$")
    if not isinstance(raw_edges, list):
        raise _fail("$.edges", "must be a list")
    name_set = set(names)
    edges, weights = [], []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise _fail("$.edges[{}]", "must be an object", i)
        tail = _as_name(_require(entry, "tail", "$.edges[{}]", i), "$.edges[{}].tail", i)
        head = _as_name(_require(entry, "head", "$.edges[{}]", i), "$.edges[{}].head", i)
        if tail not in name_set or head not in name_set:
            raise _fail("$.edges[{}]", f"edge references unknown vertex {tail!r} or {head!r}", i)
        gain = None
        if with_gains:
            gain_raw = _require(entry, "gain", "$.edges[{}]", i)
            if not isinstance(gain_raw, list) or len(gain_raw) != dim:
                raise _fail("$.edges[{}].gain", f"must be a list of {dim} integers", i)
            gain = tuple(
                _as_strict_int(x, "$.edges[{}].gain[{}]", i, k) for k, x in enumerate(gain_raw)
            )
        elif "gain" in entry:
            raise _fail("$.edges[{}].gain", "finite frameworks carry no gains", i)
        marking = entry.get("type", "bar")
        if marking not in MARKINGS:
            raise _fail("$.edges[{}].type", f"must be one of {MARKINGS}", i)
        edges.append((tail, head, gain, marking))
        weights.append(entry.get("weight"))
    return edges, weights


def _reference_stress(weights: list) -> Optional[np.ndarray]:
    with_weight = [w is not None for w in weights]
    if not any(with_weight):
        return None
    if not all(with_weight):
        missing = with_weight.index(False)
        raise _fail("$.edges[{}].weight", "all edges need weights or none", missing)
    return np.array([_as_real(w, "$.edges[{}].weight", i) for i, w in enumerate(weights)])


def reference_loads(data) -> ParsedFramework:
    """``fileformat.loads`` by two passes.  Positions on some vertices only
    are an error with or without a lattice, and the graph is built (zero
    loops and duplicates raised) after the last field check."""
    data, dim = _document(data)
    names, positions = _reference_vertices(data, dim, need_position=False)

    lattice = None
    if data.get("lattice") is not None:
        raw = data["lattice"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise _fail("$.lattice", f"must be a list of {dim} columns")
        cols = []
        for i, col in enumerate(raw):
            if not isinstance(col, list) or len(col) != dim:
                raise _fail("$.lattice[{}]", f"must be a list of {dim} reals", i)
            cols.append([_as_real(x, "$.lattice[{}][{}]", i, k) for k, x in enumerate(col)])
        lattice = np.array(cols).T

    edges, weights = _reference_edges(data, dim, names, with_gains=True)
    stress = _reference_stress(weights)

    realization = None
    if positions:
        missing = [n for n in names if n not in positions]
        if missing:
            raise _fail("$.vertices", f"positions missing for {missing}")
        if lattice is None:
            raise _fail("$.lattice", "positions given but lattice missing")
        realization = Realization(positions, lattice)

    lam = None
    if data.get("lambda") is not None:
        lam = _as_real(data["lambda"], "$.lambda")
    try:
        graph = GainGraph(dim, names, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return ParsedFramework(graph, realization, stress, lam)


def reference_loads_finite(data) -> tuple[FiniteFramework, Optional[np.ndarray]]:
    """``fileformat.loads_finite`` by the same two passes."""
    data, dim = _document(data)
    names, points = _reference_vertices(data, dim, need_position=True)
    edges, weights = _reference_edges(data, dim, names, with_gains=False)
    try:
        finite = FiniteFramework(
            tuple(names),
            tuple((t, h) for t, h, _, _ in edges),
            points,
            tuple(m for _, _, _, m in edges),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return finite, _reference_stress(weights)


# -- reference writer ----------------------------------------------------------


def to_document(
    graph: GainGraph,
    realization: Optional[Realization] = None,
    stress=None,
    lam: Optional[float] = None,
) -> dict:
    """The framework document that ``fileformat.dumps`` writes, as a plain
    dict in canonical field order, built from ``graph.edges``."""
    doc: dict = {"dimension": graph.dimension}
    names = list(map(str, graph.vertices))
    if realization is None:
        doc["vertices"] = [{"name": name} for name in names]
    else:
        positions = point_matrix(graph, realization).T.tolist()
        doc["vertices"] = [
            {"name": name, "position": position} for name, position in zip(names, positions)
        ]
        doc["lattice"] = realization.lattice.T.tolist()
    weights = None if stress is None else np.asarray(stress, dtype=float).reshape(-1).tolist()
    edges = []
    for i, (tail, head, gain, marking) in enumerate(graph.edges):
        entry = {"tail": str(tail), "head": str(head), "gain": list(gain), "type": marking}
        if weights is not None:
            entry["weight"] = weights[i]
        edges.append(entry)
    doc["edges"] = edges
    if lam is not None:
        doc["lambda"] = float(lam)
    return doc


def out_degree_graph(seed: int, n: int = 40, out: int = 3, d: int = 2, span: int = 1) -> GainGraph:
    """Seeded gain graph: each vertex sends ``out`` edges to random other
    vertices, with gains in {-span, ..., span}^d."""
    rng = np.random.default_rng(seed)
    verts = tuple(f"v{i}" for i in range(n))
    edges = {}  # keyed by edge class, so no two edges are equivalent
    for tail in range(n):
        sent = 0
        while sent < out:
            head, gain = int(rng.integers(n)), tuple(rng.integers(-span, span + 1, d).tolist())
            if head == tail:
                continue
            key = canonicalize_edge(verts[tail], verts[head], gain, verts)[:3]
            if key not in edges:
                edges[key] = None
                sent += 1
    return GainGraph(d, verts, list(edges))


def degree_one_graph() -> GainGraph:
    """``out_degree_graph(0)`` (d = 2, 40 vertices, 120 edges) plus a vertex
    joined by one edge: above both edge counts, yet that vertex can turn about
    its edge, so no realization is infinitesimally rigid."""
    base = out_degree_graph(0)
    edges = [(e.tail, e.head, e.gain) for e in base.edges] + [("v0", "w", (0, 0))]
    return GainGraph(2, base.vertices + ("w",), edges)


def reference_trivial_motions(graph: GainGraph, real: Realization) -> np.ndarray:
    """The trivial motions built vertex by vertex: the d translations, then a
    rotation p -> Sp, L -> SL for each skew S = E_ij - E_ji, i < j."""
    d = graph.dimension
    n = graph.num_vertices
    cols = []
    for i in range(d):
        vec = np.zeros(d * n + d * d)
        vec[i : d * n : d] = 1.0
        cols.append(vec)
    for i in range(d):
        for j in range(i + 1, d):
            skew = np.zeros((d, d))
            skew[i, j], skew[j, i] = 1.0, -1.0
            moved = np.concatenate([skew @ real.points[v] for v in graph.vertices])
            cols.append(np.concatenate([moved, (skew @ real.lattice).flatten(order="F")]))
    return np.column_stack(cols)


def reference_random_points(graph: GainGraph, seed: int) -> dict:
    """The points of ``random_realization(graph, tol, seed)``, drawn one vertex at a time."""
    rng = np.random.default_rng(seed)
    return {v: rng.uniform(1.0, 2.0, size=graph.dimension) for v in graph.vertices}


def dense_equilibrium(graph: GainGraph, real: Realization, w, mode: str, tol: ToleranceVault,
                      lam: Optional[float] = None) -> EquilibriumReport:
    """``verify_equilibrium`` on the assembled Laplacians: the residual is the
    dense product [P L] Lzd (P Omega + L C^T in fixed mode), and the gate's
    terms are |P| |Omega| + |L| |C|+^T on the vertex columns and
    |P| |C|+ + |L| |G|+ (+ |lam L^-T|) on the lattice columns; in fixed mode a
    loop e at v adds |w_e| |L| |g_e| per end to v's column."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if mode == "volume" and not real.non_flat(tol):
        raise FlatLattice("volume equilibrium needs a nonsingular lattice")
    laps = weighted_laplacians(graph, w)
    P, L = point_matrix(graph, real), real.lattice
    if mode == "fixed":
        resid = P @ laps.laplacian + L @ laps.cross_block.T
    else:
        resid = np.hstack([P, L]) @ laps.zd_laplacian
    abs_gains = np.abs(graph.gain_array)
    abs_cross = _vertex_scatter(graph, np.abs(w)[:, None] * abs_gains, 1.0)
    bound = np.abs(P) @ np.abs(laps.laplacian) + np.abs(L) @ abs_cross.T
    if mode == "fixed":
        loops = graph.loop_mask
        loop_terms = 2.0 * np.abs(w[loops])[:, None] * (abs_gains[loops] @ np.abs(L).T)
        np.add.at(bound.T, graph.head_idx[loops], loop_terms)
    else:
        lattice_bound = np.abs(P) @ abs_cross + np.abs(L) @ (abs_gains.T * np.abs(w)) @ abs_gains
        if mode == "volume":
            target = lam * np.linalg.inv(L).T
            resid[:, graph.num_vertices :] -= target
            lattice_bound += np.abs(target)
        bound = np.hstack([bound, lattice_bound])
    residual = float(np.abs(resid).max(initial=0.0))
    scale = float(bound.max(initial=0.0))
    return EquilibriumReport(mode, residual, scale, residual <= tol.residual_tol * scale)
