"""Reference helpers that only the tests use: vector forms of a realization,
the conic deformation, a projected-gradient refiner, seeded cable frameworks
(one with a strut chord), an exact rank by elimination over the rationals and
the re-verification of a positive stress certificate from its witness."""

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
from perigid.framework import Realization
from perigid.gain import GainGraph
from perigid.linalg import _as_int_rows
from perigid.optimize import energy, energy_gradient
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


def reverify(
    certificate: Certificate, graph: GainGraph, real: Realization, tol: ToleranceVault
) -> bool:
    """Re-run the checks behind a positive stress certificate from its witness.

    A fixed-lattice verdict re-runs the fixed-lattice certificate, also when a
    spiderweb check issued it.
    """
    w, lam = certificate.witness_stress, certificate.witness_lambda
    again = {
        Verdict.SUPER_STABLE: lambda: certify_super_stable(graph, real, w, tol),
        Verdict.FIXED_SUPER_STABLE: lambda: certify_fixed_lattice(graph, real, w, tol),
        Verdict.VOLUME_SUPER_STABLE: lambda: certify_volume_constrained(graph, real, w, lam, tol),
    }.get(certificate.verdict)
    if again is None:
        raise ValueError("reverify handles positive stress-certificate verdicts only")
    return again().verdict == certificate.verdict
