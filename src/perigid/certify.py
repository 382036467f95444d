"""Decision procedures: super-stability certificates and randomized generic tests.

Positive stress-matrix verdicts are sufficiency certificates that re-verify
from their witness data; the randomized tests decide properties of *generic*
realizations of a graph and never judge one special input realization.

Each certificate assembles its stress Laplacians once and checks an ordered
list of clauses; the first failing clause is reported and gives Inconclusive.
The kernel and PSD clauses of a strictly positive stress are decided from the
graph, with no eigensolve (``stress._stress_spectrum``):

- flexible: equilibrium, nullity(Lzd) = d+1, Lzd PSD, no conic at infinity;
- fixed: fixed equilibrium, nullity(L) = 1, L PSD;
- spiderweb: fixed equilibrium, stress strictly positive, nullity(L) = 1, L PSD;
- volume (``optimize.certify_volume_constrained``): multiplier positive,
  volume equilibrium, nullity(Lzd) = 1, Lzd PSD.

Input gates raise before any clause: affinely spanning (flexible), proper
signs (flexible, fixed, volume), the spiderweb preconditions, and a non-flat
unit-volume lattice (volume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateEdge, FlatLattice, ImproperStress, NotAffinelySpanning, NotSpiderweb
from .framework import (
    Realization,
    _non_flat,
    edge_vectors,
    fixed_rigidity_matrix,
    is_affinely_spanning,
    point_matrix,
    random_realization,
    rigidity_matrix,
)
from .gain import GainGraph
from .linalg import _left_kernel_sample, nullspace, symmetric_spectrum
from .stress import (
    _equilibrium,
    _strictly_positive,
    _stress_spectrum,
    fixed_stress_space,
    is_proper,
    lambda_stress_space,
    stress_space,
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
    # an edge vector p(h) + L g - p(t) is zero when it cancels below its terms
    pts = np.linalg.norm(point_matrix(graph, real), axis=0)
    terms = pts[graph.head_idx] + np.linalg.norm(graph.gain_array @ real.lattice.T, axis=1)
    if np.any(np.linalg.norm(nu, axis=1) <= tol.residual_tol * (terms + pts[graph.tail_idx])):
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


def _decide(verdict_on_pass: str, clauses, **witness) -> Certificate:
    """``verdict_on_pass`` when every ``(holds, message)`` clause holds, else
    Inconclusive naming the first failing clause; ``witness`` fills the rest."""
    failing = next((message for holds, message in clauses if not holds), None)
    verdict = verdict_on_pass if failing is None else Verdict.INCONCLUSIVE
    return Certificate(verdict=verdict, failing=failing, **witness)


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
    eq = _equilibrium(graph, real, w, laps, "flexible", tol)
    spec = _stress_spectrum(graph, w, laps, "zd_laplacian", tol)
    conic = conic_at_infinity(graph, real, tol)
    return _decide(
        Verdict.SUPER_STABLE,
        [
            (eq.passed, f"equilibrium residual {eq.residual:g} exceeds tolerance"),
            (spec.nullity == d + 1, f"kernel dimension {spec.nullity} != d+1 = {d + 1}"),
            (spec.is_psd, f"stress matrix not PSD (min eigenvalue {spec.min_eigenvalue:g})"),
            (conic is None, "edge directions lie on a conic at infinity"),
        ],
        witness_stress=w.copy(),
        kernel_dims={"zd_laplacian": spec.nullity},
        min_eigenvalue=spec.min_eigenvalue,
        conic_witness=conic,
        marginal=spec.marginal,
        residuals={"equilibrium": eq.residual},
    )


def _fixed_certificate(
    graph: GainGraph, real: Realization, w: np.ndarray, tol: ToleranceVault, extra=()
) -> Certificate:
    """Fixed-lattice clauses (equilibrium, ``extra``, kernel 1, PSD) on one assembly."""
    laps = weighted_laplacians(graph, w)
    eq = _equilibrium(graph, real, w, laps, "fixed", tol)
    spec = _stress_spectrum(graph, w, laps, "laplacian", tol)
    return _decide(
        Verdict.FIXED_SUPER_STABLE,
        [
            (eq.passed, f"fixed equilibrium residual {eq.residual:g} exceeds tolerance"),
            *extra,
            (spec.nullity == 1, f"Laplacian kernel dimension {spec.nullity} != 1"),
            (spec.is_psd, f"Laplacian not PSD (min eigenvalue {spec.min_eigenvalue:g})"),
        ],
        witness_stress=w.copy(),
        kernel_dims={"laplacian": spec.nullity},
        min_eigenvalue=spec.min_eigenvalue,
        marginal=spec.marginal,
        residuals={"fixed_equilibrium": eq.residual},
    )


def certify_fixed_lattice(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Fixed-lattice super-stability certificate (kernel 1 + PSD Laplacian)."""
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    return _fixed_certificate(graph, real, np.asarray(weights, dtype=float).reshape(-1), tol)


def certify_spiderweb(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Spiderweb shortcut: strictly positive stress on an all-cable rank-d graph.

    The gates (all cables, connected, gain rank d, non-flat) raise
    :class:`NotSpiderweb`.  Then the fixed-lattice clauses run with strict
    positivity checked right after equilibrium, by the rule that also picks
    the exact stress-matrix path: every weight above the zero band
    ``residual_tol * max|w|``.  A stress that passes has its Laplacian decided
    from the graph, PSD with kernel 1 since the graph is connected, so no
    eigensolve runs; one that fails is Inconclusive at that clause, and one
    ``eigvalsh`` still fills in its kernel and least eigenvalue.  No stress
    is checked for proper signs: one that passes is proper on cables.
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
    return _fixed_certificate(
        graph,
        real,
        w,
        tol,
        [(_strictly_positive(w, tol), "stress is not strictly positive on every cable")],
    )


def _trial_loop(
    graph: GainGraph, count: int, tol: ToleranceVault, salt: int, trial, verdicts: tuple[str, str]
) -> Certificate:
    """Majority over ``tol.generic_trials`` seeded trials.

    A graph with fewer than ``count`` edges, the rank its rigidity matrix
    needs for infinitesimal rigidity, gets ``verdicts[1]`` from the count
    alone: no trial runs, the log is empty and ``failing`` names the count.
    Otherwise ``trial(seed, rng)`` returns the trial's log entry, whose
    ``positive`` key votes; ``rng`` is seeded with ``seed ^ salt``.  The
    verdict is ``verdicts[0]`` on a strict majority, else ``verdicts[1]``; the
    marginal flag records any disagreement between trials and any marginal
    trial.
    """
    if graph.num_edges < count:
        return Certificate(
            verdict=verdicts[1],
            failing=f"edge count {graph.num_edges} < {count}: "
            "no realization is infinitesimally rigid",
        )
    seeds = range(tol.rng_seed, tol.rng_seed + tol.generic_trials)
    trials = [trial(seed, np.random.default_rng(seed ^ salt)) for seed in seeds]
    positives = sum(1 for t in trials if t["positive"])
    return Certificate(
        verdict=verdicts[0] if positives * 2 > len(trials) else verdicts[1],
        marginal=0 < positives < len(trials) or any(t["marginal"] for t in trials),
        trial_log=trials,
    )


def _sample_stress(entry: dict, graph, rank, marginal, stress, tol, block, kernel) -> dict:
    """Finish a trial entry from its rigidity matrix's rank and marginal flag
    and a random ``stress``: positive when the stress's ``block`` Laplacian has
    nullity ``kernel``, marginal when either cut is.  With no stress but zero,
    that Laplacian is zero and its nullity is the block's order."""
    entry["stress_space_dim"] = dim = graph.num_edges - rank
    if dim == 0:
        order = graph.num_vertices + (graph.dimension if block == "zd_laplacian" else 0)
        entry.update(positive=order == kernel, branch="stress-free", marginal=marginal)
        return entry
    laps = weighted_laplacians(graph, stress)
    spec = symmetric_spectrum(getattr(laps, block), tol, laps.weight_scale)
    entry.update(stress_kernel_dim=spec.nullity, positive=spec.nullity == kernel)
    entry.update(branch="stress sampling", marginal=marginal or spec.marginal)
    return entry


def generic_global_rigidity_test(graph: GainGraph, tol: ToleranceVault) -> Certificate:
    """Randomized decision of generic global rigidity (flexible lattice).

    Per trial: one least-squares solve of the rigidity matrix R at a fresh
    seeded realization gives its rank and a random stress (a Gaussian
    projected onto the left kernel of R).  The framework must be
    infinitesimally rigid (nullity of R equal to d(d+1)/2) and the stress
    matrix of that stress must have kernel dimension exactly d+1.
    Single-orbit graphs reduce to infinitesimal rigidity alone.  The verdict
    is the majority over the trials and the marginal flag records any
    disagreement or marginal rank cut.  R has |E| rows, so with fewer than
    d|V| + d(d-1)/2 edges it cannot reach the rank d|V| + d^2 - d(d+1)/2
    that this needs, and the verdict is negative with no trial.
    """
    d = graph.dimension

    def trial(seed: int, rng) -> dict:
        real = random_realization(graph, tol, seed=seed)
        rank, marginal, stress = _left_kernel_sample(rigidity_matrix(graph, real), rng, tol)
        rigid = d * graph.num_vertices + d * d - rank == d * (d + 1) // 2
        entry = {"seed": seed, "infinitesimally_rigid": rigid}
        if graph.num_vertices == 1 or not rigid:
            branch = "single-orbit" if graph.num_vertices == 1 else "not infinitesimally rigid"
            entry.update(positive=rigid, branch=branch, marginal=marginal)
            return entry
        return _sample_stress(entry, graph, rank, marginal, stress, tol, "zd_laplacian", d + 1)

    verdicts = (Verdict.GENERIC_GLOBALLY_RIGID, Verdict.GENERIC_NOT_GLOBALLY_RIGID)
    count = d * graph.num_vertices + d * (d - 1) // 2
    return _trial_loop(graph, count, tol, 0x9E3779B9, trial, verdicts)


def generic_fixed_global_rigidity_test(
    graph: GainGraph,
    tol: ToleranceVault,
    lattice: Optional[np.ndarray] = None,
) -> Certificate:
    """Randomized decision of generic fixed-lattice global rigidity.

    Per trial: sample positions (and the lattice unless one is supplied),
    take the rank of the fixed-lattice rigidity matrix and a random stress of
    its left kernel from one least-squares solve, and test whether the
    weighted Laplacian has kernel dimension exactly one.  With no nonzero
    stress only a single vertex orbit passes: it can only be translated.
    With fewer than d(|V| - 1) edges every realization has an infinitesimal
    motion other than a translation, which at generic positions extends to a
    flex, and the verdict is negative with no trial.
    """
    if lattice is not None:
        lattice = np.asarray(lattice, dtype=float)
        if not _non_flat(lattice, tol):
            raise FlatLattice("supplied lattice is singular")

    def trial(seed: int, rng) -> dict:
        real = random_realization(graph, tol, seed=seed)
        if lattice is not None:
            real = Realization(real.points, lattice)
        rank, marginal, stress = _left_kernel_sample(fixed_rigidity_matrix(graph, real), rng, tol)
        entry = {"seed": seed}
        return _sample_stress(entry, graph, rank, marginal, stress, tol, "laplacian", 1)

    verdicts = (Verdict.FIXED_GENERIC_GLOBALLY_RIGID, Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID)
    count = graph.dimension * (graph.num_vertices - 1)
    return _trial_loop(graph, count, tol, 0x517CC1B7, trial, verdicts)


def _certify_volume(graph, real, weights, lam, tol) -> Certificate:
    from .optimize import certify_volume_constrained  # optimize imports this module

    return certify_volume_constrained(graph, real, weights, lam, tol)


class _Mode(NamedTuple):
    stress_space: Callable  # (graph, real, tol)
    certify: Callable  # (graph, real, weights, lam, tol)
    generic_test: Optional[Callable]  # (graph, real or None, tol)


# Entries look their functions up when called, so a wrapper installed on a
# module attribute (a profiler's, a test's) sees every call made through here.
_MODES = {
    "flexible": _Mode(
        lambda g, r, t: stress_space(g, r, t),
        lambda g, r, w, lam, t: certify_super_stable(g, r, w, t),
        lambda g, r, t: generic_global_rigidity_test(g, t),
    ),
    "fixed": _Mode(
        lambda g, r, t: fixed_stress_space(g, r, t),
        lambda g, r, w, lam, t: certify_fixed_lattice(g, r, w, t),
        lambda g, r, t: generic_fixed_global_rigidity_test(
            g, t, lattice=None if r is None else r.lattice
        ),
    ),
    "volume": _Mode(
        lambda g, r, t: lambda_stress_space(g, r, t),
        lambda g, r, w, lam, t: _certify_volume(g, r, w, lam, t),
        None,
    ),
    "spiderweb": _Mode(
        lambda g, r, t: fixed_stress_space(g, r, t),
        lambda g, r, w, lam, t: certify_spiderweb(g, r, w, t),
        None,
    ),
}


def reverify(
    certificate: Certificate, graph: GainGraph, real: Realization, tol: ToleranceVault
) -> bool:
    """Re-run the checks behind a positive stress certificate from its witness.

    A fixed-lattice verdict re-runs the fixed-lattice certificate, also when a
    spiderweb check issued it.
    """
    mode = {
        Verdict.SUPER_STABLE: "flexible",
        Verdict.FIXED_SUPER_STABLE: "fixed",
        Verdict.VOLUME_SUPER_STABLE: "volume",
    }.get(certificate.verdict)
    if mode is None:
        raise ValueError("reverify handles positive stress-certificate verdicts only")
    again = _MODES[mode].certify(
        graph, real, certificate.witness_stress, certificate.witness_lambda, tol
    )
    return again.verdict == certificate.verdict
