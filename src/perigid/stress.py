"""Equilibrium stresses, weighted Laplacians, and stress-space machinery.

The weighted Laplacian pair plays the role of the classical stress matrix:
force balance at the vertices and the lattice moment condition both read off
from products against the matrix representation [P L].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    FlatLattice,
    NotFixedLatticeStress,
    RankMismatch,
    SingularGainBasis,
)
from .framework import (
    Realization,
    fixed_rigidity_matrix,
    point_matrix,
    rep_matrix,
    rigidity_matrix,
    volume_rigidity_matrix,
)
from .gain import GainGraph, Vertex
from .linalg import nullspace, numeric_rank, symmetric_spectrum
from .tolerances import ToleranceVault


@dataclass(frozen=True)
class WeightedLaplacians:
    """The weighted Laplacian and its lattice-extended companion.

    ``weight_scale`` is max|w|, the floor for rank cuts on either matrix: a
    stress can make them cancel to zero up to floating noise, and a purely
    relative cut would then count that noise as rank.
    """

    laplacian: np.ndarray  # |V| x |V|
    zd_laplacian: np.ndarray  # (|V|+d) x (|V|+d)
    dimension: int
    weight_scale: float = 0.0

    @property
    def cross_block(self) -> np.ndarray:
        n = self.laplacian.shape[0]
        return self.zd_laplacian[:n, n:]

    @property
    def lattice_block(self) -> np.ndarray:
        n = self.laplacian.shape[0]
        return self.zd_laplacian[n:, n:]


def _vertex_scatter(graph: GainGraph, values: np.ndarray, tail_sign: float) -> np.ndarray:
    """|V| x k matrix: row v sums ``values`` over the non-loop edges with head v,
    plus ``tail_sign`` times the sum over those with tail v."""
    keep = ~graph.loop_mask
    heads, tails, vals = graph.head_idx[keep], graph.tail_idx[keep], values[keep]
    n = graph.num_vertices
    return np.column_stack(
        [
            np.bincount(heads, vals[:, k], n) + tail_sign * np.bincount(tails, vals[:, k], n)
            for k in range(vals.shape[1])
        ]
    )


def weighted_laplacians(graph: GainGraph, weights) -> WeightedLaplacians:
    """Assemble I^T diag(w) I and its lattice-extended analog by scatter, in O(|E|).

    Blocks of the lattice-extended matrix: the Laplacian, the cross block
    sum_e w_e (e_h - e_t) g_e^T (loops cancel) and the lattice block
    sum_e w_e g_e g_e^T (loops included).  Both matrices are exactly symmetric.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != graph.num_edges:
        raise ValueError("need one weight per edge")
    n, d = graph.num_vertices, graph.dimension
    keep = ~graph.loop_mask
    tails, heads, wk = graph.tail_idx[keep], graph.head_idx[keep], w[keep]
    upper = np.bincount(
        np.minimum(tails, heads) * n + np.maximum(tails, heads), wk, n * n
    ).reshape(n, n)
    lap = np.diag(np.bincount(tails, wk, n) + np.bincount(heads, wk, n))
    lap -= upper
    lap -= upper.T
    gains = graph.gain_array
    weighted_gains = w[:, None] * gains
    lattice = weighted_gains.T @ gains
    lap_zd = np.empty((n + d, n + d))
    lap_zd[:n, :n] = lap
    lap_zd[:n, n:] = _vertex_scatter(graph, weighted_gains, -1.0)
    lap_zd[n:, :n] = lap_zd[:n, n:].T
    lap_zd[n:, n:] = 0.5 * (lattice + lattice.T)
    return WeightedLaplacians(lap, lap_zd, d, float(np.abs(w).max(initial=0.0)))


def stress_space(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Orthonormal basis (columns) of the equilibrium stresses: left kernel of R."""
    return nullspace(rigidity_matrix(graph, real), "left", tol)


def fixed_stress_space(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Orthonormal basis (columns) of the fixed-lattice equilibrium stresses."""
    return nullspace(fixed_rigidity_matrix(graph, real), "left", tol)


def lambda_stress_space(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Basis (columns) of (w, lambda) pairs satisfying force balance and the
    volume-coupled moment condition; lambda is the last coordinate.

    The left kernel of the extended rigidity matrix carries 2*lambda in its
    last slot (the extended matrix halves the measurement derivative but the
    moment condition does not); the returned basis is re-parametrized so the
    last coordinate is the multiplier that verifies the moment condition
    directly, then orthonormalized.
    """
    if not real.non_flat(tol):
        raise FlatLattice("lambda stresses need a nonsingular lattice")
    kernel = nullspace(volume_rigidity_matrix(graph, real, tol), "left", tol)
    if kernel.shape[1] == 0:
        return kernel
    scaled = kernel.copy()
    scaled[-1, :] *= 0.5
    q, _ = np.linalg.qr(scaled)
    return q


class EquilibriumReport(NamedTuple):
    mode: str
    residual: float
    scale: float
    passed: bool


def verify_equilibrium(
    graph: GainGraph,
    real: Realization,
    weights,
    mode: str,
    tol: ToleranceVault,
    lam: Optional[float] = None,
) -> EquilibriumReport:
    """Residual check of the equilibrium conditions in the requested mode.

    flexible: |[P L] Lzd|_max,  fixed: |P Omega + L M diag(w) I|_max,
    volume:   |[P L] Lzd - lam [0  L^-T]|_max.  The fixed-mode gate scale is
    max(|P| |Omega| + |L| |M| |diag(w)| |I|), the size of the residual's terms.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if mode not in ("flexible", "fixed", "volume"):
        raise ValueError(f"unknown mode {mode!r}")
    return _equilibrium(graph, real, w, weighted_laplacians(graph, w), mode, tol, lam)


def _equilibrium(graph, real, w, laps: WeightedLaplacians, mode, tol, lam=None):
    """:func:`verify_equilibrium` on the already assembled Laplacians of ``w``."""
    if mode == "fixed":
        # the lattice block (~ w g^2) does not enter this residual, so the
        # gate is scaled by the residual's own two terms
        P, L = point_matrix(graph, real), real.lattice
        residual = float(np.abs(P @ laps.laplacian + L @ laps.cross_block.T).max(initial=0.0))
        abs_cross = _vertex_scatter(graph, np.abs(w)[:, None] * np.abs(graph.gain_array), 1.0)
        bound = np.abs(P) @ np.abs(laps.laplacian) + np.abs(L) @ abs_cross.T
        scale = float(bound.max(initial=0.0))
        return EquilibriumReport(mode, residual, scale, residual <= tol.residual_tol * scale)
    pl = rep_matrix(graph, real)
    # scale tracks the stress magnitude so the gate is invariant under
    # rescaling of w, without collapsing when the stress matrix cancels
    magnitude = max(laps.weight_scale, float(np.abs(laps.zd_laplacian).max(initial=0.0)))
    scale = magnitude * max(1.0, float(np.abs(pl).max(initial=0.0)))
    resid_mat = pl @ laps.zd_laplacian
    if mode == "volume":
        if lam is None:
            raise ValueError("volume mode needs the multiplier lam")
        if not real.non_flat(tol):
            raise FlatLattice("volume equilibrium needs a nonsingular lattice")
        target = np.zeros_like(pl)
        target[:, graph.num_vertices :] = lam * np.linalg.inv(real.lattice).T
        resid_mat -= target
        scale = max(scale, float(np.abs(target).max(initial=0.0)))
    residual = float(np.abs(resid_mat).max(initial=0.0))
    return EquilibriumReport(mode, residual, scale, residual <= tol.residual_tol * scale)


def default_loop_gains(dimension: int) -> list[tuple[int, ...]]:
    """Unit vectors e_i then e_i + e_j (i<j): outer products form a symmetric basis."""
    gains = []
    for i in range(dimension):
        g = [0] * dimension
        g[i] = 1
        gains.append(tuple(g))
    for i in range(dimension):
        for j in range(i + 1, dimension):
            g = [0] * dimension
            g[i] = g[j] = 1
            gains.append(tuple(g))
    return gains


def _sym_coords(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    idx = np.triu_indices(d)
    return mat[idx]


def extend_with_loops(
    graph: GainGraph,
    real: Realization,
    weights,
    tol: ToleranceVault,
    vertex: Optional[Vertex] = None,
    gains: Optional[Sequence] = None,
) -> tuple[GainGraph, np.ndarray]:
    """Add d(d+1)/2 loops and solve for loop weights making the stress flexible.

    The input must be a fixed-lattice equilibrium stress of a non-flat
    framework; the loop gains' outer products must span the symmetric
    matrices.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not real.non_flat(tol):
        raise FlatLattice("loop extension needs a nonsingular lattice")
    laps = weighted_laplacians(graph, w)
    base = _equilibrium(graph, real, w, laps, "fixed", tol)
    if not base.passed:
        raise NotFixedLatticeStress(
            f"fixed-lattice equilibrium residual {base.residual:g} fails"
        )
    d = graph.dimension
    vertex = graph.vertices[0] if vertex is None else vertex
    gains = default_loop_gains(d) if gains is None else [tuple(g) for g in gains]
    if len(gains) != d * (d + 1) // 2:
        raise SingularGainBasis(f"need exactly {d*(d+1)//2} loop gains")

    L = real.lattice
    columns = []
    for g in gains:
        gv = np.array(g, dtype=float)
        columns.append(_sym_coords(L @ np.outer(gv, gv) @ L.T))
    system = np.column_stack(columns)
    P = point_matrix(graph, real)
    rhs_mat = P @ laps.laplacian @ P.T - L @ laps.lattice_block @ L.T
    rhs = _sym_coords(0.5 * (rhs_mat + rhs_mat.T))
    sys_rank = numeric_rank(system, tol).rank
    if sys_rank < system.shape[1]:
        raise SingularGainBasis("loop gain outer products do not span the symmetric matrices")
    mu = np.linalg.solve(system, rhs)
    extended = graph.with_extra_loops(vertex, gains)
    return extended, np.concatenate([w, mu])


class StripReport(NamedTuple):
    rank_zd: int
    rank_laplacian: int
    rank_stripped: int


def strip_loops(
    graph: GainGraph, real: Realization, weights, tol: ToleranceVault
) -> tuple[GainGraph, np.ndarray, StripReport]:
    """Drop loops from an equilibrium-stressed framework, asserting rank equalities.

    The lattice-extended Laplacian, the plain Laplacian, and the stripped
    Laplacian must all share one rank, and the restricted stress must stay a
    fixed-lattice equilibrium stress; failures raise :class:`RankMismatch`.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not real.non_flat(tol):
        raise FlatLattice("loop stripping is stated for non-flat frameworks")
    laps = weighted_laplacians(graph, w)
    full = _equilibrium(graph, real, w, laps, "flexible", tol)
    if not full.passed:
        raise NotFixedLatticeStress(f"equilibrium residual {full.residual:g} fails")
    stripped, keep = graph.without_loops()
    w_stripped = w[keep]
    laps_stripped = weighted_laplacians(stripped, w_stripped)
    report = StripReport(
        symmetric_spectrum(laps.zd_laplacian, tol, laps.weight_scale).rank,
        symmetric_spectrum(laps.laplacian, tol, laps.weight_scale).rank,
        symmetric_spectrum(laps_stripped.laplacian, tol, laps_stripped.weight_scale).rank,
    )
    if not (report.rank_zd == report.rank_laplacian == report.rank_stripped):
        raise RankMismatch(f"loop stripping rank equalities failed: {report}")
    check = _equilibrium(stripped, real, w_stripped, laps_stripped, "fixed", tol)
    if not check.passed:
        raise RankMismatch(
            f"stripped stress is not a fixed-lattice equilibrium stress "
            f"(residual {check.residual:g})"
        )
    return stripped, w_stripped, report


def normalized_stress(basis: np.ndarray) -> np.ndarray:
    """Scale a 1-dim stress basis so its max-magnitude entry is +1 (tie: first index)."""
    if basis.ndim == 2:
        if basis.shape[1] != 1:
            raise ValueError("normalized_stress expects a 1-dimensional space")
        vec = basis[:, 0]
    else:
        vec = basis
    idx = int(np.argmax(np.abs(vec)))
    if vec[idx] == 0.0:
        return vec.copy()
    return vec / vec[idx]


def is_proper(graph: GainGraph, weights, tol: ToleranceVault) -> bool:
    """Sign conditions against the marking: cables >= 0, struts <= 0, zero-band allowed."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    for value, edge in zip(w, graph.edges):
        if abs(value) <= tol.residual_tol:
            continue
        if edge.marking == "cable" and value < 0:
            return False
        if edge.marking == "strut" and value > 0:
            return False
    return True
