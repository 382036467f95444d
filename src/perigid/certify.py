"""Decision procedures: super-stability certificates and randomized generic tests.

Positive stress-matrix verdicts are sufficiency certificates that re-verify
from their witness data; the randomized tests decide properties of *generic*
realizations of a graph and never judge one special input realization.

Each certificate checks equilibrium from the edges, in O(|E|) with no matrix
of order |V|, then an ordered list of clauses (``_decide``, which takes the
spectrum of the stress's Laplacian L and appends its two clauses); the first
failing clause is reported and gives Inconclusive.  L is decided from the
graph for a strictly positive stress, with no matrix, and by one
``eigvalsh`` otherwise (``stress._stress_spectrum``):

- flexible: equilibrium, nullity(L) = 1, L PSD, no conic at infinity;
- fixed: fixed equilibrium, nullity(L) = 1, L PSD;
- spiderweb: fixed equilibrium, stress strictly positive, nullity(L) = 1, L PSD;
- volume: multiplier positive, volume equilibrium, nullity(L) = 1, L PSD.

The paper states the flexible and volume clauses on Lzd: nullity d+1 or 1,
and PSD.  Once the clauses before L's hold, Lzd's inertia is L's plus d zero
or d positive eigenvalues (``stress._stress_spectrum``).  Input gates raise
before any clause: a non-flat lattice (flexible, volume), proper signs
(flexible, fixed, volume), the spiderweb preconditions, and unit volume
(volume).

A generic trial's stress is decided the same way, except that on 64
vertices or more a Gram proof of its Laplacian's nullity, one Cholesky and
no eigensolver, comes first (``stress._laplacian_nullity``).  Its cut's vote
is only reported: a generic test is positive when a trial *proves* it, from
a bound on the distance between the trial's stress w and w* = P w, its exact
projection onto the stresses of its realization, and a certified lower bound
on its Laplacian's second singular value (``_trial_entry``).  One proved trial proves the verdict
(``_trial_loop``), so trials run in seed order until one is proved, at most
``generic_trials`` of them, and a test with no proved trial is negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    DegenerateEdge,
    FlatLattice,
    ImproperStress,
    NotSpiderweb,
    VolumeNotOne,
)
from .framework import (
    Realization,
    _motion_basis,
    _non_flat,
    _rigidity_entries,
    _rigidity_entry_errors,
    edge_vectors,
    point_matrix,
    random_realization,
)
from .gain import GainGraph
from .linalg import KernelSample, _certified_left_kernel_sample, nullspace
from .stress import (
    _laplacian_nullity,
    _laplacian_perturbation,
    _strictly_positive,
    _stress_spectrum,
    is_proper,
    verify_equilibrium,
)
from .tolerances import ToleranceVault

# A trial is proved when its Laplacian's certified second singular value
# exceeds this multiple of its bound (:func:`_trial_entry`): the factor
# covers the rounding of evaluating both sides, which is relative and far
# smaller.
_PROOF_MARGIN = 2.0


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
            else np.asarray(self.witness_stress, dtype=float).ravel().tolist(),
            "witness_lambda": self.witness_lambda,
            "kernel_dims": dict(self.kernel_dims),
            "min_eigenvalue": self.min_eigenvalue,
            "conic_witness": None
            if self.conic_witness is None
            else np.asarray(self.conic_witness, dtype=float).tolist(),
            "marginal": self.marginal,
            "failing": self.failing,
            "residuals": dict(self.residuals),
            "trial_log": list(self.trial_log),
        }


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
    # coordinates of nu^T Q nu in the basis E_ii, then E_ij + E_ji for i < j
    d = graph.dimension
    i, j = np.triu_indices(d, 1)
    system = np.hstack([nu * nu, 2.0 * nu[:, i] * nu[:, j]])
    kernel = nullspace(system, "right", tol)
    if kernel.shape[1] == 0:
        return None
    q = np.diag(kernel[:d, 0])
    q[i, j] = q[j, i] = kernel[d:, 0]
    return q / np.linalg.norm(q)


def _decide(verdict_on_pass: str, clauses, graph, w, eq, tol, then=(), **extra) -> Certificate:
    """``verdict_on_pass`` when every ``(holds, message)`` clause of
    ``clauses``, then kernel dimension 1 and PSD for the Laplacian L of
    ``w``, then ``then`` holds, else Inconclusive naming the first failing
    one.  The witness is ``w`` with L's kernel, least eigenvalue and
    marginal flag and the equilibrium residual of the report ``eq``, keyed by
    ``eq.mode``; ``extra`` fills the rest."""
    spec = _stress_spectrum(graph, w, "laplacian", tol)
    clauses = [
        *clauses,
        (spec.nullity == 1, f"Laplacian kernel dimension {spec.nullity} != 1"),
        (spec.is_psd, f"Laplacian not PSD (min eigenvalue {spec.min_eigenvalue:g})"),
        *then,
    ]
    failing = next((message for holds, message in clauses if not holds), None)
    residual_key = "equilibrium" if eq.mode == "flexible" else f"{eq.mode}_equilibrium"
    return Certificate(
        verdict=verdict_on_pass if failing is None else Verdict.INCONCLUSIVE,
        failing=failing,
        witness_stress=w.copy(),
        kernel_dims={"laplacian": spec.nullity},
        min_eigenvalue=spec.min_eigenvalue,
        marginal=spec.marginal,
        residuals={residual_key: eq.residual},
        **extra,
    )


def certify_super_stable(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Flexible-lattice super-stability certificate at a non-flat lattice.

    Sufficiency only: equilibrium + kernel dimension 1 + PSD for L (so d+1
    and PSD for Lzd) + no conic at infinity yields SuperStable; any failing
    clause yields Inconclusive with the clause named, never a negative
    global-rigidity verdict.
    """
    if not real.non_flat(tol):
        raise FlatLattice("flexible super stability needs a nonsingular lattice")
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    w = np.asarray(weights, dtype=float).reshape(-1)
    eq = verify_equilibrium(graph, real, w, "flexible", tol)
    conic = conic_at_infinity(graph, real, tol)
    clauses = [(eq.passed, f"equilibrium residual {eq.residual:g} exceeds tolerance")]
    then = [(conic is None, "edge directions lie on a conic at infinity")]
    return _decide(Verdict.SUPER_STABLE, clauses, graph, w, eq, tol, then, conic_witness=conic)


def certify_fixed_lattice(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> Certificate:
    """Fixed-lattice super-stability certificate (kernel 1 + PSD Laplacian)."""
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    w = np.asarray(weights, dtype=float).reshape(-1)
    eq = verify_equilibrium(graph, real, w, "fixed", tol)
    clauses = [(eq.passed, f"fixed equilibrium residual {eq.residual:g} exceeds tolerance")]
    return _decide(Verdict.FIXED_SUPER_STABLE, clauses, graph, w, eq, tol)


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
    if graph.markings().count("cable") != graph.num_edges:
        raise NotSpiderweb("spiderwebs have every edge marked cable")
    if not graph.is_connected():
        raise NotSpiderweb("spiderwebs are connected")
    if graph.gain_rank() != graph.dimension:
        raise NotSpiderweb("spiderwebs have gain rank d")
    if not real.non_flat(tol):
        raise NotSpiderweb("spiderwebs are non-flat")
    w = np.asarray(weights, dtype=float).reshape(-1)
    eq = verify_equilibrium(graph, real, w, "fixed", tol)
    clauses = [
        (eq.passed, f"fixed equilibrium residual {eq.residual:g} exceeds tolerance"),
        (_strictly_positive(w, tol), "stress is not strictly positive on every cable"),
    ]
    return _decide(Verdict.FIXED_SUPER_STABLE, clauses, graph, w, eq, tol)


def certify_volume_constrained(
    graph: GainGraph, real: Realization, weights, lam: float, tol: ToleranceVault
) -> Certificate:
    """Volume-constrained super-stability certificate at a unit-volume tensegrity.

    Positive multiplier + volume equilibrium + kernel dimension 1 + PSD for
    L (so kernel dimension 1 and PSD for Lzd) yields VolumeSuperStable.
    """
    if not real.non_flat(tol):
        raise FlatLattice("volume certificate needs a nonsingular lattice")
    volume = abs(float(np.linalg.det(real.lattice)))
    if abs(np.log(volume)) > tol.residual_tol:
        raise VolumeNotOne(f"lattice volume {volume!r} is not one")
    if not is_proper(graph, weights, tol):
        raise ImproperStress("stress violates the cable/strut sign conditions")
    w = np.asarray(weights, dtype=float).reshape(-1)
    eq = verify_equilibrium(graph, real, w, "volume", tol, lam)
    # positive: the multiplier's term lam L^-T does not vanish in the balance
    lam_term = lam * float(np.abs(np.linalg.inv(real.lattice)).max())
    clauses = [
        (lam_term > tol.residual_tol * eq.scale, f"multiplier {lam!r} is not positive"),
        (eq.passed, f"volume equilibrium residual {eq.residual:g} exceeds tolerance"),
    ]
    verdict = Verdict.VOLUME_SUPER_STABLE
    return _decide(verdict, clauses, graph, w, eq, tol, witness_lambda=float(lam))


def _trial_loop(
    graph: GainGraph, fixed: bool, tol: ToleranceVault, lattice: Optional[np.ndarray] = None
) -> Certificate:
    """The generic test under a fixed lattice (``lattice``, or a random one
    per trial) when ``fixed``, else under a flexible one: the first proved
    trial in seed order, out of at most ``tol.generic_trials``.

    With fewer edges than the rank of infinitesimal rigidity (d|V| - d, or
    d|V| + d^2 - d(d+1)/2 under a flexible lattice) the verdict is negative
    from the count alone: no trial runs and ``failing`` names the count.
    Trial ``seed`` logs :func:`_trial_entry` of its realization and of an
    rng seeded with ``seed ^`` the mode's salt.  A proved entry ends the test
    with the positive verdict, which is then not marginal; with none, every
    seed runs and the verdict is negative, marginal when any trial's cut was
    or voted positive without a proof.

    Why one trial proves the verdict, for a trial whose rigidity matrix R at
    its realization p (the float points and lattice, taken as exact reals)
    has the rank of infinitesimal rigidity, n - k for the k trivial motions,
    and whose exact stress w* = P w, the projection of the trial's stress w
    onto the left kernel of R, has a Laplacian of nullity 1.  The finite
    theorem, as recalled here and not checked against the sources: if some
    infinitesimally rigid realization of a graph in R^d has an equilibrium
    stress whose stress matrix has rank |V| - d - 1, the graph is
    generically globally rigid (Connelly and Whiteley, *Discrete Comput.
    Geom.* 2010; Gortler, Healy and Thurston, *Amer. J. Math.* 2010, with
    Connelly's sufficiency theorem for generic realizations).  The periodic
    argument runs the same way.  R's rank is lower semicontinuous and at
    most n - k everywhere, so it is n - k on a neighbourhood U of p; there
    its left kernel has constant dimension, its orthogonal projection
    P(q) = I - R(q) R(q)^+ is continuous, and so is w*(q) = P(q) w*, an
    equilibrium stress at q with w*(p) = w* (this holds for any exact
    stress w* at p).  L(w*(q)) is continuous and has the all-ones vector in
    its kernel, and rank is lower semicontinuous, so L(w*(q)) has nullity 1
    on a smaller neighbourhood, where the lattice also stays non-flat.
    Generic realizations are dense, so one lies there: an infinitesimally
    rigid generic framework with a stress whose L has nullity 1, or Lzd
    nullity d + 1 under a flexible lattice (``stress._stress_spectrum``),
    which by the paper's sufficiency theorem makes the graph generically
    globally rigid under that lattice.  The
    trial's realization is also random, hence generic with probability 1.
    """
    d, v = graph.dimension, graph.num_vertices
    if fixed:
        count, salt = d * (v - 1), 0x517CC1B7
        verdicts = (Verdict.FIXED_GENERIC_GLOBALLY_RIGID, Verdict.FIXED_GENERIC_NOT_GLOBALLY_RIGID)
    else:
        count, salt = d * v + d * (d - 1) // 2, 0x9E3779B9
        verdicts = (Verdict.GENERIC_GLOBALLY_RIGID, Verdict.GENERIC_NOT_GLOBALLY_RIGID)
    if graph.num_edges < count:
        return Certificate(
            verdict=verdicts[1],
            failing=f"edge count {graph.num_edges} < {count}: "
            "no realization is infinitesimally rigid",
        )
    trials = []
    for seed in range(tol.rng_seed, tol.rng_seed + tol.generic_trials):
        real = random_realization(graph, tol, seed=seed)
        if lattice is not None:
            real = Realization(real.points, lattice)
        free, sample = _sample(graph, real, fixed, np.random.default_rng(seed ^ salt), tol)
        trials.append({"seed": seed, **_trial_entry(graph, fixed, free, sample, tol)})
        if trials[-1]["proved"]:
            return Certificate(verdict=verdicts[0], trial_log=trials)
    return Certificate(
        verdict=verdicts[1],
        marginal=any(t["marginal"] or t["positive"] for t in trials),
        trial_log=trials,
    )


def _sample(graph: GainGraph, real: Realization, fixed: bool, rng, tol: ToleranceVault):
    """The rank of infinitesimal rigidity (the column count less the trivial
    motions) of the rigidity matrix at ``real`` (the fixed-lattice one when
    ``fixed``), and a random stress of its left kernel with its proof, from
    the matrix's entries row by row and their rounding, with the trivial
    motions as the known kernel."""
    d = graph.dimension
    n = d * graph.num_vertices + (0 if fixed else d * d)
    cols, vals = _rigidity_entries(graph, real, fixed)
    errors = _rigidity_entry_errors(graph, real, fixed)
    motions = partial(_motion_basis, graph, real, fixed=fixed)
    free = n - (d if fixed else d * (d + 1) // 2)
    return free, _certified_left_kernel_sample(cols, vals, n, motions, rng, tol, errors)


def _trial_entry(
    graph: GainGraph, fixed: bool, free: int, sample: KernelSample, tol: ToleranceVault
) -> dict:
    """The log entry of a trial from its rigidity matrix R's ``sample``
    (stress w) and R's rank of infinitesimal rigidity ``free``: the branch
    that decided the cut's vote, then the proof.

    Under a flexible lattice, a single vertex orbit votes by R's rank alone,
    and a trial that is not infinitesimally rigid votes negative.  Otherwise
    the cut votes positive when w's Laplacian has nullity 1 (for a flexible
    stress, Lzd nullity d+1), and the entry is marginal when either cut is.
    With no stress but zero, L is zero, of nullity |V|, and one vertex orbit
    passes; so does any stress of one vertex orbit.

    The proof: ``lambda2`` bounds sigma_(|V|-1)(fl(L(w))) below, and
    ``bound`` bounds |fl(L(w)) - L(w*)|_2 for w* = P w, the exact projection
    of w onto the left kernel of R
    (:func:`~perigid.stress._laplacian_perturbation` of the sample's
    distance).  ``proved`` needs rank R = ``free``: a sample of rank
    ``free`` with a finite distance proves rank R >= ``free``, and the
    trivial motions bound it above.  A Laplacian decided by the vertex count
    (one vertex orbit, or no stress) then proves its vote; otherwise
    ``lambda2`` must exceed ``_PROOF_MARGIN`` times ``bound``, and by Weyl
    sigma_(|V|-1)(L(w*)) > 0, so L(w*), which annihilates 1, has nullity 1.
    Both sides scale with the stress and the realization, so a proof does
    not depend on their scale.
    """
    rigid, single = sample.rank == free, graph.num_vertices == 1
    entry, second = ({} if fixed else {"infinitesimally_rigid": rigid}), None
    if not fixed and (single or not rigid):
        branch = "single-orbit" if single else "not infinitesimally rigid"
        entry.update(positive=rigid, branch=branch, marginal=sample.marginal)
    elif graph.num_edges == sample.rank:
        entry.update(stress_space_dim=0, positive=single, branch="stress-free")
        entry["marginal"] = sample.marginal
    else:
        nullity, cut_marginal, second = _laplacian_nullity(graph, sample.stress, tol)
        entry.update(stress_space_dim=graph.num_edges - sample.rank, stress_kernel_dim=nullity)
        entry.update(positive=nullity == 1, branch="stress sampling")
        entry["marginal"] = sample.marginal or cut_marginal
    rank_proved = rigid and sample.distance < np.inf
    bound = None
    if second is None or single:
        second, proved = None, rank_proved and entry["positive"]
    else:
        bound = _laplacian_perturbation(graph, sample.stress, sample.distance)
        proved = rank_proved and second > _PROOF_MARGIN * bound
        second, bound = float(second), (float(bound) if bound < np.inf else None)
    entry.update(path=sample.path, lambda2=second, bound=bound, proved=bool(proved))
    return entry


def generic_global_rigidity_test(graph: GainGraph, tol: ToleranceVault) -> Certificate:
    """Randomized decision of generic global rigidity (flexible lattice).

    Per trial: the rigidity matrix R at a fresh seeded realization, given
    as its entries row by row, yields its rank and a random stress (a
    Gaussian projected onto the left kernel of R).  A Gram matrix summed
    from the entries and one shifted Cholesky of it prove the rank, with the
    trivial motions as the known kernel, and conjugate gradients
    preconditioned by that factor give the stress; where the proof does not
    go through, one least-squares solve of the dense R gives both
    (:func:`~perigid.linalg._certified_left_kernel_sample`).  The framework
    must be infinitesimally rigid (nullity of R equal to d(d+1)/2) and the
    stress matrix Lzd of that stress must have kernel dimension exactly d+1,
    decided as kernel dimension one of its Laplacian, by the same kind of
    Gram proof from the Laplacian's rows where it goes through and by
    ``eigvalsh`` otherwise (:func:`~perigid.stress._laplacian_nullity`).
    Single-orbit graphs reduce to infinitesimal rigidity alone.  The first
    trial that proves this, for the exact projection of its stress onto
    the stresses of its realization (:func:`_trial_entry`), gives the
    positive verdict (:func:`_trial_loop`).  R has |E| rows, so with fewer
    than d|V| + d(d-1)/2 edges it cannot reach the rank
    d|V| + d^2 - d(d+1)/2 that this needs, and the verdict is negative with
    no trial.
    """
    return _trial_loop(graph, False, tol)


def generic_fixed_global_rigidity_test(
    graph: GainGraph,
    tol: ToleranceVault,
    lattice: Optional[np.ndarray] = None,
) -> Certificate:
    """Randomized decision of generic fixed-lattice global rigidity.

    Per trial: sample positions (and the lattice unless one is supplied),
    take the rank of the fixed-lattice rigidity matrix and a random stress of
    its left kernel from the matrix's entries, proved with the translations
    as the known kernel, or from one least-squares solve of the dense matrix,
    as in the flexible test, and test whether the weighted Laplacian has
    kernel dimension exactly one; a proof (:func:`_trial_entry`) also needs
    the rank of infinitesimal rigidity, d|V| - d.  With no nonzero
    stress only a single vertex orbit passes: it can only be translated.
    With fewer than d(|V| - 1) edges every realization has an infinitesimal
    motion other than a translation, which at generic positions extends to a
    flex, and the verdict is negative with no trial.
    """
    if lattice is not None:
        lattice = np.asarray(lattice, dtype=float)
        if not _non_flat(lattice, tol):
            raise FlatLattice("supplied lattice is singular")
    return _trial_loop(graph, True, tol, lattice)
