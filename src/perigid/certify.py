"""Decision procedures: super-stability certificates and randomized generic tests.

Positive stress-matrix verdicts are sufficiency certificates that re-verify
from their witness data; the randomized tests decide properties of *generic*
realizations of a graph and never judge one special input realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateEdge, ImproperStress, NotAffinelySpanning, NotSpiderweb
from .framework import (
    Realization,
    edge_vectors,
    is_affinely_spanning,
    is_infinitesimally_rigid,
    random_realization,
)
from .gain import GainGraph
from .linalg import nullspace, symmetric_spectrum
from .stress import (
    fixed_stress_space,
    is_proper,
    stress_space,
    verify_equilibrium,
    weighted_laplacians,
)
from .tolerances import ToleranceVault


class Verdict:
    SUPER_STABLE = "SuperStable"
    FIXED_SUPER_STABLE = "FixedLatticeSuperStable"
    VOLUME_SUPER_STABLE = "VolumeSuperStable"
    GENERIC_GLOBALLY_RIGID = "GenericGloballyRigid"
    GENERIC_NOT_GLOBALLY_RIGID = "GenericNotGloballyRigid"
    FIXED_GENERIC_GLOBALLY_RIGID = "FixedLatticeGenericGloballyRigid"
    FIXED_GENERIC_NOT_GLOBALLY_RIGID = "FixedLatticeGenericNotGloballyRigid"
    INCONCLUSIVE = "Inconclusive"


POSITIVE_VERDICTS = {
    Verdict.SUPER_STABLE,
    Verdict.FIXED_SUPER_STABLE,
    Verdict.VOLUME_SUPER_STABLE,
    Verdict.GENERIC_GLOBALLY_RIGID,
    Verdict.FIXED_GENERIC_GLOBALLY_RIGID,
}


@dataclass
class Certificate:
    """Machine-readable verdict plus the witness data needed to re-verify it."""

    verdict: str
    witness_stress: Optional[np.ndarray] = None
    witness_lambda: Optional[float] = None
    kernel_dims: dict = field(default_factory=dict)
    min_eigenvalue: Optional[float] = None
    conic_witness: Optional[np.ndarray] = None
    marginal: bool = False
    failing: Optional[str] = None
    residuals: dict = field(default_factory=dict)
    trial_log: list = field(default_factory=list)

    @property
    def positive(self) -> bool:
        return self.verdict in POSITIVE_VERDICTS

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness_stress": None
            if self.witness_stress is None
            else [float(x) for x in np.asarray(self.witness_stress).ravel()],
            "witness_lambda": self.witness_lambda,
            "kernel_dims": dict(self.kernel_dims),
            "min_eigenvalue": self.min_eigenvalue,
            "conic_witness": None
            if self.conic_witness is None
            else [[float(x) for x in row] for row in np.asarray(self.conic_witness)],
            "marginal": self.marginal,
            "failing": self.failing,
            "residuals": dict(self.residuals),
            "trial_log": list(self.trial_log),
        }


def _sym_basis_row(nu: np.ndarray) -> np.ndarray:
    """Coordinates of nu^T Q nu in the basis E_ii, (E_ij + E_ji), i<j."""
    d = nu.size
    row = [nu[i] * nu[i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            row.append(2.0 * nu[i] * nu[j])
    return np.array(row)


def _q_from_coords(coords: np.ndarray, d: int) -> np.ndarray:
    q = np.zeros((d, d))
    for i in range(d):
        q[i, i] = coords[i]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            q[i, j] = q[j, i] = coords[k]
            k += 1
    return q


def conic_at_infinity(
    graph: GainGraph, real: Realization, tol: ToleranceVault
) -> Optional[np.ndarray]:
    """Nonzero symmetric Q annihilated by every edge direction, or None.

    The |E| x d(d+1)/2 coefficient system has one row per edge; a nontrivial
    kernel vector reshapes to the witness conic.
    """
    nu = edge_vectors(graph, real)
    lengths = np.linalg.norm(nu, axis=1)
    if np.any(lengths <= tol.residual_tol):
        raise DegenerateEdge("conic test needs nonzero edge vectors")
    system = np.vstack([_sym_basis_row(v) for v in nu]) if graph.num_edges else np.zeros(
        (0, graph.dimension * (graph.dimension + 1) // 2)
    )
    kernel = nullspace(system, "right", tol)
    if kernel.shape[1] == 0:
        return None
    coords = kernel[:, 0]
    q = _q_from_coords(coords, graph.dimension)
    return q / np.linalg.norm(q)


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


def _clause_certificate(
    verdict_on_pass: str,
    weights,
    lam: Optional[float],
    kernel_dims: dict,
    min_eig: Optional[float],
    conic: Optional[np.ndarray],
    failing: Optional[str],
) -> Certificate:
    if failing is None:
        return Certificate(
            verdict=verdict_on_pass,
            witness_stress=np.asarray(weights, dtype=float).copy(),
            witness_lambda=lam,
            kernel_dims=kernel_dims,
            min_eigenvalue=min_eig,
            conic_witness=conic,
        )
    return Certificate(
        verdict=Verdict.INCONCLUSIVE,
        witness_stress=np.asarray(weights, dtype=float).copy(),
        witness_lambda=lam,
        kernel_dims=kernel_dims,
        min_eigenvalue=min_eig,
        conic_witness=conic,
        failing=failing,
    )


def certify_super_stable(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Flexible-lattice super-stability certificate.

    Sufficiency only: equilibrium + kernel dimension d+1 + PSD + no conic at
    infinity yields SuperStable; any failing clause yields Inconclusive with
    the clause named, never a negative global-rigidity verdict.
    """
    if not is_affinely_spanning(graph, real, tol):
        raise NotAffinelySpanning("super stability is stated for affinely spanning frameworks")
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    w = np.asarray(weights, dtype=float).reshape(-1)
    d = graph.dimension
    laps = weighted_laplacians(graph, w)
    eq = verify_equilibrium(graph, real, w, "flexible", tol)
    spec = symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale)
    kernel_dim = spec.nullity
    conic = conic_at_infinity(graph, real, tol)
    kernel_dims = {"zd_laplacian": kernel_dim}

    failing = None
    if not eq.passed:
        failing = f"equilibrium residual {eq.residual:g} exceeds tolerance"
    elif kernel_dim != d + 1:
        failing = f"kernel dimension {kernel_dim} != d+1 = {d + 1}"
    elif not spec.is_psd:
        failing = f"stress matrix not PSD (min eigenvalue {spec.min_eigenvalue:g})"
    elif conic is not None:
        failing = "edge directions lie on a conic at infinity"
    cert = _clause_certificate(
        Verdict.SUPER_STABLE, w, None, kernel_dims, spec.min_eigenvalue, conic, failing
    )
    cert.marginal = spec.marginal
    cert.residuals = {"equilibrium": eq.residual}
    return cert


def certify_fixed_lattice(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Fixed-lattice super-stability certificate (kernel 1 + PSD Laplacian)."""
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    w = np.asarray(weights, dtype=float).reshape(-1)
    laps = weighted_laplacians(graph, w)
    eq = verify_equilibrium(graph, real, w, "fixed", tol)
    spec = symmetric_spectrum(laps.laplacian, tol, laps.weight_scale)
    kernel_dim = spec.nullity
    kernel_dims = {"laplacian": kernel_dim}

    failing = None
    if not eq.passed:
        failing = f"fixed equilibrium residual {eq.residual:g} exceeds tolerance"
    elif kernel_dim != 1:
        failing = f"Laplacian kernel dimension {kernel_dim} != 1"
    elif not spec.is_psd:
        failing = f"Laplacian not PSD (min eigenvalue {spec.min_eigenvalue:g})"
    cert = _clause_certificate(
        Verdict.FIXED_SUPER_STABLE, w, None, kernel_dims, spec.min_eigenvalue, None, failing
    )
    cert.marginal = spec.marginal
    cert.residuals = {"fixed_equilibrium": eq.residual}
    return cert


def certify_spiderweb(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Spiderweb shortcut: strictly positive stress on an all-cable rank-d graph.

    Thin gate in front of the fixed-lattice certificate; connectivity plus
    positivity already force the PSD and kernel conditions.
    """
    if any(e.marking != "cable" for e in graph.edges):
        raise NotSpiderweb("spiderwebs have every edge marked cable")
    if not graph.is_connected():
        raise NotSpiderweb("spiderwebs are connected")
    if graph.gain_rank() != graph.dimension:
        raise NotSpiderweb("spiderwebs have gain rank d")
    if not real.non_flat(tol):
        raise NotSpiderweb("spiderwebs are non-flat")
    w = np.asarray(weights, dtype=float).reshape(-1)
    eq = verify_equilibrium(graph, real, w, "fixed", tol)
    if not eq.passed:
        return Certificate(
            verdict=Verdict.INCONCLUSIVE,
            witness_stress=w.copy(),
            failing=f"fixed equilibrium residual {eq.residual:g} exceeds tolerance",
        )
    if not np.all(w > tol.residual_tol):
        return Certificate(
            verdict=Verdict.INCONCLUSIVE,
            witness_stress=w.copy(),
            failing="stress is not strictly positive on every cable",
        )
    return certify_fixed_lattice(graph, real, w, tol)


def _random_unit_combination(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    coeffs = rng.standard_normal(basis.shape[1])
    vec = basis @ coeffs
    return vec / np.linalg.norm(vec)


def generic_global_rigidity_test(graph: GainGraph, tol: ToleranceVault) -> Certificate:
    """Randomized decision of generic global rigidity (flexible lattice).

    Per trial: a fresh seeded realization must be infinitesimally rigid and a
    random stress from its stress space must have a stress matrix of kernel
    dimension exactly d+1.  Single-orbit graphs reduce to infinitesimal
    rigidity alone.  The verdict is the majority over the trials and the
    marginal flag records any disagreement.
    """
    d = graph.dimension
    trials = []
    for k in range(tol.generic_trials):
        seed = tol.rng_seed + k
        rng = np.random.default_rng(seed ^ 0x9E3779B9)
        real = random_realization(graph, tol, seed=seed)
        entry = {"seed": seed}
        if graph.num_vertices == 1:
            rigid = is_infinitesimally_rigid(graph, real, tol)
            entry["infinitesimally_rigid"] = rigid
            entry["positive"] = rigid
            entry["branch"] = "single-orbit"
            trials.append(entry)
            continue
        rigid = is_infinitesimally_rigid(graph, real, tol)
        entry["infinitesimally_rigid"] = rigid
        if not rigid:
            entry["positive"] = False
            entry["branch"] = "not infinitesimally rigid"
            trials.append(entry)
            continue
        basis = stress_space(graph, real, tol)
        entry["stress_space_dim"] = int(basis.shape[1])
        if basis.shape[1] == 0:
            entry["positive"] = False
            entry["branch"] = "stress-free"
            trials.append(entry)
            continue
        omega = _random_unit_combination(basis, rng)
        laps = weighted_laplacians(graph, omega)
        kernel_dim = symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale).nullity
        entry["stress_kernel_dim"] = int(kernel_dim)
        entry["positive"] = kernel_dim == d + 1
        entry["branch"] = "stress sampling"
        trials.append(entry)
    positives = sum(1 for t in trials if t["positive"])
    verdict = (
        Verdict.GENERIC_GLOBALLY_RIGID
        if positives * 2 > len(trials)
        else Verdict.GENERIC_NOT_GLOBALLY_RIGID
    )
    return Certificate(
        verdict=verdict,
        marginal=0 < positives < len(trials),
        trial_log=trials,
    )


def generic_fixed_global_rigidity_test(
    graph: GainGraph,
    tol: ToleranceVault,
    lattice: Optional[np.ndarray] = None,
) -> Certificate:
    """Randomized decision of generic fixed-lattice global rigidity.

    Per trial: sample positions (and the lattice unless one is supplied), draw
    a random stress from the fixed-lattice stress space, and test whether the
    weighted Laplacian has kernel dimension exactly one.
    """
    from .errors import FlatLattice

    if lattice is not None:
        lattice = np.asarray(lattice, dtype=float)
        if abs(float(np.linalg.det(lattice))) <= tol.residual_tol:
            raise FlatLattice("supplied lattice is singular")
    trials = []
    for k in range(tol.generic_trials):
        seed = tol.rng_seed + k
        rng = np.random.default_rng(seed ^ 0x517CC1B7)
        real = random_realization(graph, tol, seed=seed)
        if lattice is not None:
            real = Realization(real.points, lattice)
        entry = {"seed": seed}
        basis = fixed_stress_space(graph, real, tol)
        entry["stress_space_dim"] = int(basis.shape[1])
        if basis.shape[1] == 0:
            entry["positive"] = False
            entry["branch"] = "stress-free"
            trials.append(entry)
            continue
        omega = _random_unit_combination(basis, rng)
        laps = weighted_laplacians(graph, omega)
        kernel_dim = symmetric_spectrum(laps.laplacian, tol, laps.weight_scale).nullity
        entry["stress_kernel_dim"] = int(kernel_dim)
        entry["positive"] = kernel_dim == 1
        entry["branch"] = "stress sampling"
        trials.append(entry)
    positives = sum(1 for t in trials if t["positive"])
    verdict = (
        Verdict.FIXED_GENERIC_GLOBALLY_RIGID
        if positives * 2 > len(trials)
        else Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID
    )
    return Certificate(
        verdict=verdict,
        marginal=0 < positives < len(trials),
        trial_log=trials,
    )


def reverify(
    certificate: Certificate, graph: GainGraph, real: Realization, tol: ToleranceVault
) -> bool:
    """Re-run the checks behind a positive stress certificate from its witness."""
    if certificate.verdict == Verdict.SUPER_STABLE:
        again = certify_super_stable(graph, real, certificate.witness_stress, tol)
    elif certificate.verdict == Verdict.FIXED_SUPER_STABLE:
        again = certify_fixed_lattice(graph, real, certificate.witness_stress, tol)
    elif certificate.verdict == Verdict.VOLUME_SUPER_STABLE:
        from .optimize import certify_volume_constrained

        again = certify_volume_constrained(
            graph, real, certificate.witness_stress, certificate.witness_lambda, tol
        )
    else:
        raise ValueError("reverify handles positive stress-certificate verdicts only")
    return again.verdict == certificate.verdict
