"""Expected answers computed apart from perigid.

Nothing here imports perigid.  The generic oracle draws its own realization,
assembles the rigidity matrices and stress Laplacians edge by edge, and only
answers when the answer is proved by counting (negatives) or shown by a
realization with a clear singular-value gap (positives).
"""

from __future__ import annotations

import numpy as np

from gen import zd_laplacian

# A rank cut is accepted only across a singular-value ratio at least this big.
GAP = 1e6


class OracleUndecided(Exception):
    """The oracle found no clear answer for an input that should have one."""


def _rank_with_gap(values: np.ndarray, what: str) -> int:
    """Rank from singular values (or |eigenvalues|), refusing an unclear cut."""
    svals = np.sort(np.abs(values))[::-1]
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    rank = int(np.sum(svals > svals[0] * 1e-8))
    if rank < svals.size and svals[rank - 1] < GAP * svals[rank]:
        raise OracleUndecided(
            f"{what}: no clear rank gap ({svals[rank - 1]:.3g} vs {svals[rank]:.3g})"
        )
    return rank


def rigidity_rows(g: dict, points: np.ndarray, lattice: np.ndarray, with_lattice: bool) -> np.ndarray:
    d, n = g["d"], len(g["names"])
    cols = d * n + (d * d if with_lattice else 0)
    mat = np.zeros((len(g["tail"]), cols))
    for row, (t, h, gain) in enumerate(zip(g["tail"], g["head"], g["gain"])):
        nu = points[h] + lattice @ gain - points[t]
        if t != h:
            mat[row, d * t : d * t + d] -= nu
            mat[row, d * h : d * h + d] += nu
        if with_lattice:
            for k in range(d):
                mat[row, d * n + d * k : d * n + d * k + d] += gain[k] * nu
    return mat


def generic_verdict(g: dict, mode: str, seed: int) -> bool:
    """Expected generic global rigidity (flexible or fixed lattice) of a gain graph.

    Negative: fewer edges than d|V| - d, the rank a fixed-lattice
    infinitesimally rigid realization needs (the flexible-lattice count is
    higher still).  Positive: one random realization is infinitesimally
    rigid, and a random equilibrium stress there has a Laplacian kernel of
    dimension d+1 (flexible, lattice-extended Laplacian) or 1 (fixed).
    """
    d, n, m = g["d"], len(g["names"]), len(g["tail"])
    if m < d * n - d:
        return False
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, d))
    lattice = rng.uniform(-1.0, 1.0, size=(d, d)) + 2.0 * np.eye(d)
    flexible = mode == "flexible"
    rig = rigidity_rows(g, points, lattice, with_lattice=flexible)
    u, svals, _ = np.linalg.svd(rig, full_matrices=True)
    rank = _rank_with_gap(svals, "rigidity matrix")
    want = d * n + d * (d - 1) // 2 if flexible else d * n - d
    if rank != want:
        raise OracleUndecided(f"{mode}: rigidity rank {rank}, need {want}")
    stresses = u[:, rank:]
    if stresses.shape[1] == 0:
        raise OracleUndecided(f"{mode}: rigid but stress-free")
    omega = stresses @ rng.standard_normal(stresses.shape[1])
    lap = zd_laplacian(g, omega)
    if not flexible:
        lap = lap[:n, :n]
    kernel = lap.shape[0] - _rank_with_gap(np.linalg.eigvalsh(lap), "stress Laplacian")
    if kernel != (d + 1 if flexible else 1):
        raise OracleUndecided(f"{mode}: stress Laplacian kernel {kernel}")
    return True


# -- properties of reports ---------------------------------------------------

def edge_forces(doc: dict, points: dict, lattice: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Net force on each vertex and the lattice moment sum_e w_e nu_e g_e^T.

    ``doc`` supplies edges and weights; the realization is the one to test.
    """
    names = [v["name"] for v in doc["vertices"]]
    index = {name: i for i, name in enumerate(names)}
    d = doc["dimension"]
    force = np.zeros((len(names), d))
    moment = np.zeros((d, d))
    for e in doc["edges"]:
        t, h = index[e["tail"]], index[e["head"]]
        gain = np.array(e["gain"], dtype=float)
        nu = points[e["head"]] + lattice @ gain - points[e["tail"]]
        f = e["weight"] * nu
        force[h] -= f
        force[t] += f
        moment += np.outer(f, gain)
    return force, moment


def check_minimizer(doc: dict, report: dict, tol: float = 1e-7) -> list[str]:
    """Problems with a ``minimize --json`` report for a positively stressed input.

    The realization must balance forces at every vertex, satisfy the lattice
    moment condition sum_e w_e nu_e g_e^T = lambda L^-T, have |det L| = 1,
    report energy d*lambda/2 and agree with the generator's lambda.
    """
    problems = []
    d = doc["dimension"]
    real = report["realization"]
    points = {k: np.array(v, dtype=float) for k, v in real["positions"].items()}
    lattice = np.array(real["lattice_columns"], dtype=float).T
    lam = float(report["kkt"]["lambda"])
    force, moment = edge_forces(doc, points, lattice)
    scale = max(1.0, max(abs(e["weight"]) for e in doc["edges"]) * float(
        max(np.abs(lattice).max(), max(np.abs(p).max() for p in points.values()))
    ))
    if np.abs(force).max() > tol * scale:
        problems.append(f"vertex force balance {np.abs(force).max():.3g}")
    target = lam * np.linalg.inv(lattice).T
    if np.abs(moment - target).max() > tol * max(scale, lam):
        problems.append(f"lattice moment residual {np.abs(moment - target).max():.3g}")
    det = abs(float(np.linalg.det(lattice)))
    if abs(det - 1.0) > tol:
        problems.append(f"|det L| = {det!r}")
    energy = float(report["energy"])
    if abs(energy - d * lam / 2.0) > tol * max(1.0, energy):
        problems.append(f"energy {energy!r} != d*lambda/2 = {d * lam / 2.0!r}")
    if "lambda" in doc and abs(lam - doc["lambda"]) > tol * max(1.0, lam):
        problems.append(f"lambda {lam!r} != generator lambda {doc['lambda']!r}")
    return problems


def rolled_lattice(finite_doc: dict, pairs: list) -> np.ndarray:
    """Lattice columns of a roll-up: head minus tail position of each pair."""
    pos = {v["name"]: np.array(v["position"], dtype=float) for v in finite_doc["vertices"]}
    return np.column_stack([pos[h] - pos[t] for t, h in pairs])
