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
    rigidity_matrix,
    volume_rigidity_matrix,
)
from .gain import GainGraph, Vertex
from .linalg import SpectrumResult, nullspace, numeric_rank, symmetric_spectrum
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
    sum_e w_e g_e g_e^T (loops included).  The lattice-extended matrix is the
    one (|V|+d)^2 array: one scatter sums each off-diagonal entry's -w_e in
    edge order, and the Laplacian is a view of its vertex block.  Both are
    exactly symmetric and read-only.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != graph.num_edges:
        raise ValueError("need one weight per edge")
    n, d = graph.num_vertices, graph.dimension
    size = n + d
    keep = ~graph.loop_mask
    tails, heads, wk = graph.tail_idx[keep], graph.head_idx[keep], w[keep]
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    lap_zd = np.bincount(
        np.concatenate([lo * size + hi, hi * size + lo]), np.concatenate([-wk, -wk]), size * size
    )
    if not wk.size:  # bincount gives int64 zeros when it has no weight to sum
        lap_zd = np.zeros(size * size)
    lap_zd = lap_zd.reshape(size, size)
    np.fill_diagonal(lap_zd[:n, :n], np.bincount(tails, wk, n) + np.bincount(heads, wk, n))
    gains = graph.gain_array
    weighted_gains = w[:, None] * gains
    lattice = weighted_gains.T @ gains
    lap_zd[:n, n:] = _vertex_scatter(graph, weighted_gains, -1.0)
    lap_zd[n:, :n] = lap_zd[:n, n:].T
    lap_zd[n:, n:] = 0.5 * (lattice + lattice.T)
    lap_zd.flags.writeable = False
    return WeightedLaplacians(lap_zd[:n, :n], lap_zd, d, float(np.abs(w).max(initial=0.0)))


def _strictly_positive(w: np.ndarray, tol: ToleranceVault) -> bool:
    """Every weight above the zero band ``residual_tol * max|w|`` of
    :func:`is_proper`; false when any weight is NaN."""
    return bool(np.all(w > tol.residual_tol * np.abs(w).max(initial=0.0)))


def _stress_spectrum(
    graph: GainGraph, w: np.ndarray, laps: WeightedLaplacians, block: str, tol: ToleranceVault
) -> SpectrumResult:
    """Rank, nullity, marginal flag and PSD verdict of the stress matrix
    ``block`` ("laplacian" or "zd_laplacian") that ``laps`` assembled from ``w``.

    A strictly positive stress is decided from the graph, exactly and with no
    eigensolve: L = sum_e w_e b_e b_e^T and Lzd = sum_e w_e a_e a_e^T (b_e, a_e
    the rows of the incidence matrix and of I_zd) are sums of PSD rank-one
    terms, so each is PSD with the kernel of its incidence matrix.  The
    Laplacian's nullity is the number of components and Lzd's is
    |V| + d - rank I_zd, both exact integers from the spanning forest.  The
    all-ones vectors 1 and 1-hat lie in those kernels, so the least
    eigenvalue is exactly 0.0 and no cut is marginal.  Every other stress goes
    to :func:`~perigid.linalg.symmetric_spectrum`.
    """
    if not _strictly_positive(w, tol):
        return symmetric_spectrum(getattr(laps, block), tol, laps.weight_scale)
    n = graph.num_vertices
    if block == "laplacian":
        order, rank = n, n - len(graph.components())
    else:
        order, rank = n + graph.dimension, graph.full_rank_condition()[1]
    return SpectrumResult(rank, order - rank, None, False, True, 0.0)


def stress_space(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Orthonormal basis (columns) of the equilibrium stresses: left kernel of R."""
    return nullspace(rigidity_matrix(graph, real), "left", tol)


def fixed_stress_space(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Orthonormal basis (columns) of the fixed-lattice equilibrium stresses."""
    return nullspace(fixed_rigidity_matrix(graph, real), "left", tol)


def lambda_stress_space(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Basis (columns) of (w, lambda) pairs satisfying force balance and the
    volume-coupled moment condition; lambda is the last coordinate.

    The left kernel of the balanced volume rigidity matrix carries 2*lambda/c
    in its last slot (that matrix halves the measurement derivative, the
    moment condition does not); the basis is re-parametrized to lambda, then
    orthonormalized.
    """
    if not real.non_flat(tol):
        raise FlatLattice("lambda stresses need a nonsingular lattice")
    matrix, balance = _balanced_volume_rigidity(graph, real, tol)
    kernel = nullspace(matrix, "left", tol)
    kernel[-1, :] *= 0.5 * balance
    q, _ = np.linalg.qr(kernel)
    return q


def _balanced_volume_rigidity(graph, real, tol) -> tuple[np.ndarray, float]:
    """The volume rigidity matrix with its last row (~1/scale, R ~ scale)
    scaled by c to the size of R, and c; scaling a left-kernel vector's last
    coordinate by c gives one of the unbalanced matrix."""
    matrix = volume_rigidity_matrix(graph, real, tol)
    balance = float(np.abs(matrix[:-1]).max(initial=0.0) / np.abs(matrix[-1]).max()) or 1.0
    matrix[-1] *= balance
    return matrix, balance


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
    volume:   |[P L] Lzd - lam [0  L^-T]|_max.  The gate scale is the max of
    the same products taken term by term in absolute values (scale-free).
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if mode not in ("flexible", "fixed", "volume"):
        raise ValueError(f"unknown mode {mode!r}")
    return _equilibrium(graph, real, w, weighted_laplacians(graph, w), mode, tol, lam)


def _equilibrium(graph, real, w, laps: WeightedLaplacians, mode, tol, lam=None):
    """:func:`verify_equilibrium` on the already assembled Laplacians of ``w``.

    The gate's terms: |P| |Lap| + |L| |C|+^T on the vertex columns of [P L] Lzd,
    |P| |C|+ + |L| |G|+ (+ |lam L^-T|) on its lattice columns, where |C|+ and
    |G|+ are the cross and lattice blocks assembled from |w| and |g|.  In fixed
    mode a loop e at v adds |w_e| |L| |g_e| per end to v's column.
    """
    if mode == "volume":
        if lam is None:
            raise ValueError("volume mode needs the multiplier lam")
        if not real.non_flat(tol):
            raise FlatLattice("volume equilibrium needs a nonsingular lattice")
    P, L = point_matrix(graph, real), real.lattice
    if mode == "fixed":
        resid = P @ laps.laplacian + L @ laps.cross_block.T
    else:
        resid = np.hstack([P, L]) @ laps.zd_laplacian
    abs_gains = np.abs(graph.gain_array)
    abs_cross = _vertex_scatter(graph, np.abs(w)[:, None] * abs_gains, 1.0)
    bound = np.abs(P) @ np.abs(laps.laplacian) + np.abs(L) @ abs_cross.T
    if mode == "fixed":
        # a loop's two ends cancel in the residual, yet each is a term of its vertex's sum
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
        _stress_spectrum(graph, w, laps, "zd_laplacian", tol).rank,
        _stress_spectrum(graph, w, laps, "laplacian", tol).rank,
        _stress_spectrum(stripped, w_stripped, laps_stripped, "laplacian", tol).rank,
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
    """Sign conditions against the marking: cables >= 0, struts <= 0, with a
    zero band of ``residual_tol * max|w|``."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    band = tol.residual_tol * float(np.abs(w).max(initial=0.0))
    for value, edge in zip(w, graph.edges):
        if abs(value) <= band:
            continue
        if edge.marking == "cable" and value < 0:
            return False
        if edge.marking == "strut" and value > 0:
            return False
    return True
