"""Stress energies and the volume-constrained minimizer.

The energy of a weighted framework is a quadratic form in the realization
vector; under a positive-semidefinite stress matrix with one-dimensional
kernel, the program "minimize energy subject to unit fundamental-domain
volume" has a closed-form solution, unique up to isometries, and every KKT
point is a global minimizer.  Its hypothesis is decided on the Laplacian and
a d x d Schur block, which also whitens the solution, with no singular value
decomposition; the KKT check and the energy's two forms are summed over the
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateKernel, FlatLattice, FormMismatch, HypothesisFailed
from .framework import (
    Realization,
    _non_flat,
    _rigidity_entries,
    edge_vectors,
    measurement,
    point_matrix,
)
from .gain import GainGraph
from .linalg import _rank_cut
from .stress import _stress_spectrum, _zd_terms, verify_equilibrium, weighted_laplacians
from .tolerances import ToleranceVault


def energy(graph: GainGraph, weights, real: Realization, tol: ToleranceVault) -> float:
    """Stress energy, cross-checked between its two formulations.

    Computed once as half the weighted sum of squared edge lengths and once as
    the quadratic form trace([P L] Lzd [P L]^T); a disagreement beyond
    ``residual_tol`` times the absolute terms of both sums is a bug and
    raises :class:`FormMismatch`.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    lengths = measurement(graph, real)
    direct = 0.5 * float(w @ lengths)
    points = point_matrix(graph, real).T
    form, form_terms = _zd_terms(graph, w, points, real.lattice)
    pl_t = np.concatenate([points, real.lattice.T])  # [P L]^T, in the form's row order
    quadratic = 0.5 * float(np.sum(pl_t * form))
    terms = float(np.abs(w) @ lengths) + float(np.sum(np.abs(pl_t) * form_terms))
    if abs(direct - quadratic) > tol.residual_tol * 0.5 * terms:
        raise FormMismatch(
            f"energy formulations disagree: {direct!r} vs {quadratic!r}"
        )
    return direct


def energy_gradient(
    graph: GainGraph, weights, real: Realization, tol: ToleranceVault
) -> np.ndarray:
    """Gradient of the stress energy, cross-checked between its two
    formulations, the quadratic form's Lzd [P L]^T and R^T w from the rigidity
    matrix's entries, against the absolute terms of both sums.  Read row by
    row, Lzd [P L]^T is kron(Lzd, I_d) [p; l] in realization-vector order."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    form, terms = _zd_terms(graph, w, point_matrix(graph, real).T, real.lattice)
    from_form, terms = form.ravel(), terms.ravel()
    cols, vals = _rigidity_entries(graph, real, False)
    row_terms = w[:, None] * vals
    from_rows = np.bincount(cols.ravel(), row_terms.ravel(), from_form.size)
    terms = terms + np.bincount(cols.ravel(), np.abs(row_terms).ravel(), from_form.size)
    if float(np.abs(from_form - from_rows).max(initial=0.0)) > tol.residual_tol * terms.max():
        raise FormMismatch("energy gradient formulations disagree")
    return from_form


@dataclass(frozen=True)
class KktReport:
    """Residuals of the optimality conditions at a candidate minimizer."""

    lam: float
    stationarity_residual: float
    volume: float
    complementary_slackness_residual: float
    gram_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "stationarity_residual": self.stationarity_residual,
            "volume": self.volume,
            "complementary_slackness_residual": self.complementary_slackness_residual,
            "gram_residual": self.gram_residual,
            "passed": self.passed,
        }


def verify_kkt(
    graph: GainGraph, weights, real: Realization, lam: float, tol: ToleranceVault
) -> KktReport:
    """Pure checker of stationarity, complementary slackness, sign and Gram
    identity, each summed over the edges with no matrix of order |V|."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not real.non_flat(tol):
        raise FlatLattice("KKT verification needs a nonsingular lattice")
    eq = verify_equilibrium(graph, real, w, "volume", tol, lam)
    volume = abs(float(np.linalg.det(real.lattice)))
    slackness = abs(lam * float(np.log(volume)))
    nu = edge_vectors(graph, real)
    form = (w[:, None] * nu).T @ nu  # [P L] Lzd [P L]^T, summed over the edges
    form_scale = float(np.abs(form).max())
    gram_residual = float(np.abs(form - lam * np.eye(graph.dimension)).max())
    # each gate against its own terms; the multiplier's sign against the form it equals
    passed = bool(
        eq.passed
        and slackness <= tol.residual_tol * abs(lam)
        and gram_residual <= tol.residual_tol * max(abs(lam), form_scale)
        and lam >= -tol.residual_tol * form_scale
        and np.log(volume) >= -tol.residual_tol
    )
    return KktReport(float(lam), eq.residual, volume, slackness, gram_residual, passed)


def standard_realization(
    graph: GainGraph,
    weights,
    tol: ToleranceVault,
    basis_seed: Optional[int] = None,
) -> tuple[Realization, KktReport]:
    """Closed-form unique (up to isometry) minimizer of the unit-volume program.

    Requires the stress matrix Lzd = [[L, C], [C^T, G]] to be PSD with kernel
    span(1-hat).  Pinning v1, Lzd is congruent to 0_1 + L[1:, 1:] + S with
    S = G - C[1:]^T L[1:, 1:]^-1 C[1:], so (Sylvester) that holds exactly
    when L is PSD with kernel dimension 1 and S is positive definite: its
    least eigenvalue above the max|w| floor's cut, else
    :class:`HypothesisFailed`.  One solve of L[1:, 1:] gives the d rows
    [X^T | I_d] spanning {k : (Lzd k)[:|V|] = 0, k[v1] = 0}, with X[v1] = 0,
    and S as their Gram matrix against Lzd; whitening them by S (singular
    under the cut of its largest eigenvalue, as huge gains make it) and
    rescaling to unit volume gives the minimizer.  Without ``basis_seed`` it
    comes in a normal form: p(v1) = 0 exactly and a symmetric
    positive-definite lattice.  ``basis_seed`` remixes the rows to exercise
    the uniqueness-up-to-isometry guarantee.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    d = graph.dimension
    n = graph.num_vertices
    spec = _stress_spectrum(graph, w, "laplacian", tol)
    if spec.nullity != 1 or not spec.is_psd:
        raise HypothesisFailed(
            f"need PSD stress matrix with kernel dimension 1, got Laplacian kernel "
            f"{spec.nullity}, min eigenvalue {spec.min_eigenvalue:g}"
        )
    laps = weighted_laplacians(graph, w)

    basis = np.zeros((d, n + d))
    basis[:, n:] = np.eye(d)
    try:
        # the v1 row of [L C] k = 0 then holds too: it is minus the sum of the others
        basis[:, 1:n] = np.linalg.solve(laps.laplacian[1:, 1:], -laps.cross_block[1:]).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernel(f"pinned Laplacian block is singular: {exc}") from exc
    schur = basis @ laps.zd_laplacian[:, n:]  # = basis Lzd basis^T = G + X^T C, O(|V| d^2)
    schur = 0.5 * (schur + schur.T)
    eigvals, eigvecs = np.linalg.eigh(schur)
    if eigvals[0] <= tol.rank_rel_tol * d * laps.weight_scale:
        raise HypothesisFailed(
            f"need PSD stress matrix with kernel dimension 1, got a Schur block "
            f"that is not positive definite (min eigenvalue {eigvals[0]:g})"
        )
    if eigvals[0] <= _rank_cut(eigvals[::-1], (d, d), tol, 0.0)[2]:
        raise DegenerateKernel("whitening matrix is numerically singular")
    if basis_seed is not None:
        mix = np.random.default_rng(basis_seed).standard_normal((d, d))
        basis = mix @ basis
        eigvals, eigvecs = np.linalg.eigh(mix @ schur @ mix.T)
    half = eigvecs / eigvals**0.25
    inv_sqrt = half @ half.T  # exactly symmetric: both triangles sum the same products
    pl = inv_sqrt @ basis  # [P L] with [P L] Lzd [P L]^T = I_d

    lattice = pl[:, n:]
    if not _non_flat(lattice, tol):
        raise DegenerateKernel("constructed lattice is singular")
    factor = abs(float(np.linalg.det(lattice))) ** (-1.0 / d)
    pl = factor * pl
    lam = factor * factor
    points = {v: pl[:, i].copy() for i, v in enumerate(graph.vertices)}
    real = Realization(points, pl[:, n:])
    return real, verify_kkt(graph, w, real, lam, tol)
