"""Stress energies and the volume-constrained minimizer.

The energy of a weighted framework is a quadratic form in the realization
vector; under a positive-semidefinite stress matrix with one-dimensional
kernel, the program "minimize energy subject to unit fundamental-domain
volume" has a closed-form solution, unique up to isometries, and every KKT
point is a global minimizer.  The solution takes the hypothesis check of the
stress matrix (from the graph for a strictly positive stress, else one
eigenvalue decomposition), one linear solve of its pinned vertex block and a
d x d whitening; no singular value decomposition is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateKernel, FlatLattice, FormMismatch, HypothesisFailed
from .framework import (
    Realization,
    _non_flat,
    measurement,
    rep_matrix,
    rigidity_matrix,
)
from .gain import GainGraph
from .linalg import _rank_cut
from .stress import WeightedLaplacians, _equilibrium, _stress_spectrum, weighted_laplacians
from .tolerances import ToleranceVault


def _form(graph: GainGraph, w: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """Lzd [P L]^T: in realization-vector order, kron(Lzd, I_d) times [p; l]."""
    return weighted_laplacians(graph, w).zd_laplacian @ pl.T


def energy(graph: GainGraph, weights, real: Realization, tol: ToleranceVault) -> float:
    """Stress energy, cross-checked between its two formulations.

    Computed once as half the weighted sum of squared edge lengths and once as
    the quadratic form trace([P L] Lzd [P L]^T); disagreement
    beyond tolerance is a bug and raises :class:`FormMismatch`.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    direct = 0.5 * float(w @ measurement(graph, real))
    pl = rep_matrix(graph, real)
    quadratic = 0.5 * float(np.sum(pl.T * _form(graph, w, pl)))
    scale = max(1.0, abs(direct), abs(quadratic))
    if abs(direct - quadratic) > tol.residual_tol * scale:
        raise FormMismatch(
            f"energy formulations disagree: {direct!r} vs {quadratic!r}"
        )
    return direct


def energy_gradient(
    graph: GainGraph, weights, real: Realization, tol: ToleranceVault
) -> np.ndarray:
    """Gradient of the stress energy, cross-checked between its two formulations."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    from_form = _form(graph, w, rep_matrix(graph, real)).reshape(-1)
    from_rows = rigidity_matrix(graph, real).T @ w
    scale = max(1.0, float(np.abs(from_form).max(initial=0.0)))
    if float(np.abs(from_form - from_rows).max(initial=0.0)) > tol.residual_tol * scale:
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
    """Pure checker of stationarity, complementary slackness, sign and Gram identity."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    return _kkt(graph, w, real, lam, weighted_laplacians(graph, w), tol)


def _kkt(graph, w, real, lam, laps: WeightedLaplacians, tol) -> KktReport:
    """:func:`verify_kkt` on weighted Laplacians already assembled from ``w``."""
    if not real.non_flat(tol):
        raise FlatLattice("KKT verification needs a nonsingular lattice")
    eq = _equilibrium(graph, real, w, laps, "volume", tol, lam)
    volume = abs(float(np.linalg.det(real.lattice)))
    slackness = abs(lam * float(np.log(volume)))
    pl = rep_matrix(graph, real)
    form = pl @ laps.zd_laplacian @ pl.T
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
    span(1-hat), so the pinned block L[1:, 1:] is positive definite.  One
    solve of it gives the d rows [X^T | I_d] spanning {k : (Lzd k)[:|V|] = 0,
    k[v1] = 0}, with X[v1] = 0 and L[1:, 1:] X[1:] = -C[1:]; whitening them
    against Lzd and rescaling to unit volume gives the minimizer.  Without
    ``basis_seed`` it comes in a normal form: p(v1) = 0 exactly and a
    symmetric positive-definite lattice.  ``basis_seed`` remixes the rows to
    exercise the uniqueness-up-to-isometry guarantee.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    d = graph.dimension
    n = graph.num_vertices
    laps = weighted_laplacians(graph, w)
    lap_zd = laps.zd_laplacian
    spec = _stress_spectrum(graph, w, laps, "zd_laplacian", tol)
    if spec.nullity != 1 or not spec.is_psd:
        raise HypothesisFailed(
            f"need PSD stress matrix with kernel dimension 1, got kernel "
            f"{spec.nullity}, min eigenvalue {spec.min_eigenvalue:g}"
        )

    basis = np.zeros((d, n + d))
    basis[:, n:] = np.eye(d)
    try:
        # the v1 row of [L C] k = 0 then holds too: it is minus the sum of the others
        basis[:, 1:n] = np.linalg.solve(laps.laplacian[1:, 1:], -laps.cross_block[1:]).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateKernel(f"pinned Laplacian block is singular: {exc}") from exc
    if basis_seed is not None:
        basis = np.random.default_rng(basis_seed).standard_normal((d, d)) @ basis

    gram = basis @ lap_zd @ basis.T
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= _rank_cut(np.abs(eigvals)[::-1], gram.shape, tol, 0.0)[2]:
        raise DegenerateKernel("whitening matrix is numerically singular")
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
    return real, _kkt(graph, w, real, lam, laps, tol)

