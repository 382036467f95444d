"""Stress energies and the volume-constrained minimizer.

The energy of a weighted framework is a quadratic form in the realization
vector; under a positive-semidefinite stress matrix with one-dimensional
kernel, the program "minimize energy subject to unit fundamental-domain
volume" has a closed-form solution (whitening the kernel complement), unique
up to isometries, and every KKT point is a global minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import Certificate, Verdict, _decide
from .errors import (
    DegenerateKernel,
    FlatLattice,
    FormMismatch,
    HypothesisFailed,
    ImproperStress,
    VolumeNotOne,
)
from .framework import (
    Realization,
    realization_from_vector,
    realization_vector,
    rep_matrix,
    rigidity_matrix,
)
from .gain import GainGraph
from .linalg import _rank_cut, nullspace, symmetric_spectrum
from .stress import WeightedLaplacians, _equilibrium, is_proper, weighted_laplacians
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
    from .framework import measurement

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
    gram_residual = float(np.abs(form - lam * np.eye(graph.dimension)).max())
    gram_scale = max(1.0, abs(lam), float(np.abs(form).max()))
    sign_ok = lam >= -tol.residual_tol
    # primal feasibility is part of being a KKT point, whatever the multiplier
    volume_ok = volume >= 1.0 - tol.residual_tol
    passed = bool(
        eq.passed
        and slackness <= tol.residual_tol * max(1.0, abs(lam))
        and gram_residual <= tol.residual_tol * gram_scale
        and sign_ok
        and volume_ok
    )
    return KktReport(float(lam), eq.residual, volume, slackness, gram_residual, passed)


def standard_realization(
    graph: GainGraph,
    weights,
    tol: ToleranceVault,
    basis_seed: Optional[int] = None,
) -> tuple[Realization, KktReport]:
    """Closed-form unique (up to isometry) minimizer of the unit-volume program.

    Requires the stress matrix to be PSD with a one-dimensional kernel.  The
    construction whitens a kernel-complement basis of the vertex-column block
    and rescales to unit volume; ``basis_seed`` remixes the intermediate basis
    to exercise the uniqueness-up-to-isometry guarantee.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    d = graph.dimension
    n = graph.num_vertices
    laps = weighted_laplacians(graph, w)
    lap_zd = laps.zd_laplacian
    spec = symmetric_spectrum(lap_zd, tol, laps.weight_scale)
    if spec.nullity != 1 or not spec.is_psd:
        raise HypothesisFailed(
            f"need PSD stress matrix with kernel dimension 1, got kernel "
            f"{spec.nullity}, min eigenvalue {spec.min_eigenvalue:g}"
        )

    omega_left = lap_zd[:, :n]
    kernel = nullspace(omega_left, "left", tol)
    if kernel.shape[1] != d + 1:
        raise DegenerateKernel(
            f"vertex-block left kernel has dimension {kernel.shape[1]}, expected {d + 1}"
        )
    one_hat = np.zeros(n + d)
    one_hat[:n] = 1.0
    # Quotient modulo the all-ones direction, pinned by zeroing the v1 column.
    pinned = kernel - np.outer(one_hat, kernel[0, :])
    if basis_seed is not None:
        rng = np.random.default_rng(basis_seed)
        pinned = pinned @ rng.standard_normal((pinned.shape[1], pinned.shape[1]))
    svd_u, svd_s, _ = np.linalg.svd(pinned, full_matrices=False)
    if _rank_cut(svd_s, pinned.shape, tol, 0.0)[0] != d:
        raise DegenerateKernel("kernel modulo the all-ones vector is not d-dimensional")
    # d rows spanning {k in ker : k[v1] = 0}, copied row-major: the layout
    # decides the rounding of the products below
    basis = svd_u[:, :d].T.copy()

    gram = basis @ lap_zd @ basis.T
    gram = 0.5 * (gram + gram.T)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= tol.residual_tol * max(1.0, eigvals[-1]):
        raise DegenerateKernel("whitening matrix is numerically singular")
    inv_sqrt = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    pl = inv_sqrt @ basis  # [P L] with [P L] Lzd [P L]^T = I_d

    lattice = pl[:, n:]
    det = float(np.linalg.det(lattice))
    if abs(det) <= tol.residual_tol:
        raise DegenerateKernel("constructed lattice is singular")
    factor = abs(det) ** (-1.0 / d)
    pl = factor * pl
    lam = factor * factor
    points = {v: pl[:, i].copy() for i, v in enumerate(graph.vertices)}
    real = Realization(points, pl[:, n:])
    return real, _kkt(graph, w, real, lam, laps, tol)


def certify_volume_constrained(
    graph: GainGraph, real: Realization, weights, lam: float, tol: ToleranceVault
) -> Certificate:
    """Volume-constrained super-stability certificate at a unit-volume tensegrity."""
    if not real.non_flat(tol):
        raise FlatLattice("volume certificate needs a nonsingular lattice")
    volume = abs(float(np.linalg.det(real.lattice)))
    if abs(volume - 1.0) > tol.residual_tol * max(1.0, volume):
        raise VolumeNotOne(f"lattice volume {volume!r} is not one")
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    w = np.asarray(weights, dtype=float).reshape(-1)
    laps = weighted_laplacians(graph, w)
    spec = symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale)
    eq = _equilibrium(graph, real, w, laps, "volume", tol, lam)
    return _decide(
        Verdict.VOLUME_SUPER_STABLE,
        [
            (lam > tol.residual_tol, f"multiplier {lam!r} is not positive"),
            (eq.passed, f"volume equilibrium residual {eq.residual:g} exceeds tolerance"),
            (spec.nullity == 1, f"stress matrix kernel dimension {spec.nullity} != 1"),
            (spec.is_psd, f"stress matrix not PSD (min eigenvalue {spec.min_eigenvalue:g})"),
        ],
        witness_stress=w.copy(),
        witness_lambda=float(lam),
        kernel_dims={"zd_laplacian": spec.nullity},
        min_eigenvalue=spec.min_eigenvalue,
        marginal=spec.marginal,
        residuals={"volume_equilibrium": eq.residual},
    )


def projected_gradient_refine(
    graph: GainGraph,
    weights,
    real: Realization,
    tol: ToleranceVault,
    steps: int = 200,
    step_size: float = 0.05,
) -> Realization:
    """Validation-only refiner: gradient descent re-projected onto volume >= 1.

    The closed-form solver never calls this; tests use it to confirm the
    closed-form output cannot be improved upon.
    """
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
