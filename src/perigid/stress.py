"""Equilibrium stresses, weighted Laplacians, and stress-space machinery.

The weighted Laplacian pair plays the role of the classical stress matrix:
force balance at the vertices and the lattice moment condition both read off
from products against the matrix representation [P L].  One function sums
the matrix's blocks from the edges (:func:`_blocks`); the products are formed
from them (:func:`_zd_terms`), and the dense matrices are assembled from them
only for a caller that factorises or reads them.  One function decides a
stress matrix's kernel and sign (:func:`_stress_spectrum`); a generic
trial's Laplacian goes to a Gram proof of its nullity, which needs no dense
matrix, or to ``eigvalsh``, and either bounds its second-smallest singular
value below (:func:`_laplacian_nullity`), against which the trial sets the
bound of :func:`_laplacian_perturbation`.
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
from .linalg import (
    _GRAM_MIN_COLS,
    SpectrumResult,
    _gamma,
    _gram_rank_proof,
    nullspace,
    numeric_rank,
    symmetric_spectrum,
)
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
    weight_scale: float = 0.0

    @property
    def cross_block(self) -> np.ndarray:
        n = self.laplacian.shape[0]
        return self.zd_laplacian[:n, n:]


def _vertex_scatter(graph: GainGraph, values: np.ndarray, tail_sign: float) -> np.ndarray:
    """|V| x d matrix: row v sums the rows of the |E| x d ``values`` over the
    non-loop edges with head v, plus ``tail_sign`` times their sum over those
    with tail v, each sum in edge order."""
    support, d = graph._laplacian_support, graph.dimension
    vals, size = values[support.edges].ravel(), graph.num_vertices * d
    heads = np.bincount(support.head_slots, vals, size)
    return (heads + tail_sign * np.bincount(support.tail_slots, vals, size)).reshape(-1, d)


def _blocks(graph: GainGraph, w: np.ndarray) -> tuple:
    """The lattice-extended Laplacian of ``w`` block by block, each summed
    over the edges in edge order, in O(|E|): Omega's diagonal (the weights of
    the non-loop edges at each vertex), Omega's off-diagonal entries (the
    -w_e of the edges joining each pair of ``graph._laplacian_support``), the
    cross block C = sum_e w_e (e_h - e_t) g_e^T (loops cancel), the lattice
    block G = sum_e w_e g_e g_e^T (loops included, symmetrised) and the
    weighted gains w_e g_e.
    """
    if w.size != graph.num_edges:
        raise ValueError("need one weight per edge")
    n, support, gains = graph.num_vertices, graph._laplacian_support, graph.gain_array
    wk = w[support.edges]
    weighted = w[:, None] * gains
    lattice = weighted.T @ gains
    diagonal = np.bincount(support.tails, wk, n) + np.bincount(support.heads, wk, n)
    cross = _vertex_scatter(graph, weighted, -1.0)
    return diagonal, np.bincount(support.pair, -wk), cross, 0.5 * (lattice + lattice.T), weighted


def weighted_laplacians(graph: GainGraph, weights) -> WeightedLaplacians:
    """Assemble I^T diag(w) I and its lattice-extended analog by scatter, in O(|E|).

    The lattice-extended matrix is the one (|V|+d)^2 array holding the
    blocks of :func:`_blocks`: each off-diagonal entry of the Laplacian is
    written at both of its places, and the Laplacian is a view of its vertex
    block.  Both are exactly symmetric and read-only.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    diagonal, entries, cross, lattice, _ = _blocks(graph, w)
    n, support = graph.num_vertices, graph._laplacian_support
    lap_zd = np.zeros((n + graph.dimension,) * 2)
    lap_zd[support.ends, support.others] = np.concatenate([entries, entries])
    np.fill_diagonal(lap_zd[:n, :n], diagonal)
    lap_zd[:n, n:] = cross
    lap_zd[n:, :n] = cross.T
    lap_zd[n:, n:] = lattice
    lap_zd.flags.writeable = False
    return WeightedLaplacians(lap_zd[:n, :n], lap_zd, float(np.abs(w).max(initial=0.0)))


def _strictly_positive(w: np.ndarray, tol: ToleranceVault) -> bool:
    """Every weight above the zero band ``residual_tol * max|w|`` of
    :func:`is_proper`; false when any weight is NaN."""
    return bool(np.all(w > tol.residual_tol * np.abs(w).max(initial=0.0)))


def _stress_spectrum(
    graph: GainGraph,
    w: np.ndarray,
    block: str,
    tol: ToleranceVault,
    laps: Optional[WeightedLaplacians] = None,
) -> SpectrumResult:
    """Rank, nullity, marginal flag and PSD verdict of ``w``'s stress matrix
    ``block`` ("laplacian" or "zd_laplacian").

    A strictly positive stress is decided from the graph, exactly and with no
    matrix: Omega = sum_e w_e b_e b_e^T and Lzd = sum_e w_e a_e a_e^T (b_e, a_e
    the rows of the incidence matrix and of I_zd) are sums of PSD rank-one
    terms, so each is PSD with the kernel of its incidence matrix, of
    dimension the number of components and |V| + d - rank I_zd, exact
    integers from the graph's union-find walks.  1 and 1-hat lie in those
    kernels, so the least eigenvalue is exactly 0.0 and no cut is marginal.
    Every other stress is assembled, unless the caller passes ``laps``, its
    assembly of ``w``, and goes to :func:`~perigid.linalg.symmetric_spectrum`.
    The graph rule reports Omega's ``second`` as min_e w_e / (|V| (|V| - 1)),
    e over the non-loop edges, on a connected graph: Omega dominates
    min_e w_e times the unweighted Laplacian, whose x^T L x over a unit x
    orthogonal to 1 is at least 1 / (|V| D) for the diameter D <= |V| - 1,
    since some x_i and x_j differ by 1 / sqrt|V| and a path of at most D
    edges joins them (Cauchy-Schwarz).

    Every certificate reads Omega here (a generic trial reads it in
    :func:`_laplacian_nullity`); Lzd is ranked only for the reports of
    ``rank`` and :func:`strip_loops`.  Omega decides Lzd for a stress in
    flexible or volume equilibrium at a non-flat lattice L.  Let K = [P L]^T
    and y be zero on S = {v1} + lattice.  On S, 1-hat and K read
    [[1, p(v1)^T], [0, L^T]], of determinant det L != 0, so every x is
    a 1-hat + K b + y, and x^T Lzd x = b^T K^T Lzd K b + 2 b^T K^T Lzd y +
    y^T Omega[1:,1:] y.  Flexible equilibrium, Lzd K = 0, leaves
    0_(d+1) + Omega[1:,1:], so nullity(Lzd) = nullity(Omega) + d.  Volume
    equilibrium, Lzd K = [0; lam L^-1], gives K^T Lzd K = lam I_d and
    K^T Lzd y = lam L^-T y[lattice] = 0, so 0_1 + lam I_d + Omega[1:,1:]:
    with lam > 0, the volume certificate's first clause, nullity(Lzd) =
    nullity(Omega).  As Omega 1 = 0 makes Omega congruent to 0_1 +
    Omega[1:,1:], Lzd is PSD exactly when Omega is (Sylvester), in both.
    """
    if not _strictly_positive(w, tol):
        if laps is None:
            laps = weighted_laplacians(graph, w)
        return symmetric_spectrum(getattr(laps, block), tol, laps.weight_scale)
    n, second = graph.num_vertices, 0.0
    if block == "laplacian":
        order, rank = n, n - len(graph.components())
        if n == 1:
            second = np.inf
        elif rank == n - 1:
            second = float(w[graph._laplacian_support.edges].min()) / (n * (n - 1))
    else:
        order, rank = n + graph.dimension, graph.full_rank_condition()[1]
    return SpectrumResult(rank, order - rank, False, True, 0.0, second)


def _laplacian_nullity(
    graph: GainGraph, w: np.ndarray, tol: ToleranceVault
) -> tuple[int, bool, float]:
    """Nullity and marginal flag of ``w``'s Laplacian L, as
    :func:`_stress_spectrum` gives them, and a certified lower bound on L's
    second-smallest singular value, for a generic trial.

    From |V| = ``_GRAM_MIN_COLS`` on, :func:`~perigid.linalg._gram_rank_proof`
    first tries to prove, from L's rows, what ``eigvalsh`` and the cut of
    :func:`~perigid.linalg.symmetric_spectrum` would say: the known kernel is 1/sqrt|V|, the first vertex's column is dropped,
    and the floor is max|w|, as :func:`_stress_spectrum` passes it.  The rows
    are the entries the dense L holds, summed as :func:`weighted_laplacians`
    sums them, so a proof is about the matrix that ``eigvalsh`` would read,
    and it gives nullity 1, not marginal, with one Cholesky of order
    |V| - 1; by Cauchy interlacing its bound below sigma_min(L[:, 1:]) also
    bounds sigma_(|V|-1)(L).  L's Gram matrix sums the products within each
    row, of one entry per neighbour and the diagonal.  The proof fails on a
    disconnected graph, whose L has two exact zero eigenvalues.  Whatever
    the proof cannot decide goes to :func:`_stress_spectrum`, whose
    ``second`` is the bound.
    """
    n = graph.num_vertices
    if n >= _GRAM_MIN_COLS:
        diagonal, entries, *_ = _blocks(graph, w)
        support, vertices = graph._laplacian_support, np.arange(n)
        rows = np.concatenate([vertices, support.ends])
        order = rows.argsort(kind="stable")
        cols = np.concatenate([vertices, support.others])[order]
        vals = np.concatenate([diagonal, entries, entries])[order]
        basis = np.full((n, 1), 1.0 / np.sqrt(n))
        floor = float(np.abs(w).max(initial=0.0))
        proof = _gram_rank_proof(rows[order], cols, vals, (n, n), basis, vertices > 0, tol, floor)
        if proof is not None:
            return 1, False, proof[1]
    spec = _stress_spectrum(graph, w, "laplacian", tol)
    return spec.nullity, spec.marginal, spec.second


def _laplacian_perturbation(graph: GainGraph, w: np.ndarray, distance: float) -> float:
    """A bound on |fl(L(w)) - L(w*)|_2, for the Laplacian that
    :func:`weighted_laplacians` assembles from ``w`` and the exact Laplacian
    of any w* with |w - w*|_2 <= ``distance``.

    The 2-norm of a symmetric matrix is at most its largest absolute row
    sum.  An edge e = uv with u != v adds w_e to L_uu and L_vv and -w_e to
    L_uv and L_vu; loops add nothing.  So row u of L(w) - L(w*) sums to at
    most 2 sum_(e at u) |w_e - w*_e| <= 2 sqrt(deg u) |w - w*|_2
    (Cauchy-Schwarz over the deg u non-loop edge ends at u).  Each entry of
    fl(L(w)) sums at most deg u weights, so it is within gamma_(deg u) of
    the sum of their magnitudes, and its row within
    2 gamma_(deg u) sum_(e at u) |w_e| of L(w)'s.
    """
    support, n = graph._laplacian_support, graph.num_vertices
    ends = np.concatenate([support.tails, support.heads])
    degree = np.bincount(ends, minlength=n)
    weights = np.bincount(ends, np.abs(np.tile(w[support.edges], 2)), n)
    top = int(degree.max(initial=0))
    return 2.0 * (float(_gamma(top)) * float(weights.max(initial=0.0)) + np.sqrt(top) * distance)


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
    """Residual check of the equilibrium conditions in the requested mode,
    summed over the edges with no matrix of order |V|.

    flexible: |[P L] Lzd|_max,  fixed: |P Omega + L M diag(w) I|_max,
    volume:   |[P L] Lzd - lam [0  L^-T]|_max.  [P L] Lzd and its terms are
    the transposes of :func:`_zd_terms`, and fixed mode reads their vertex
    columns.  The gate scale is the max of the same products taken term by
    term in absolute values (scale-free): |P| |Omega| + |L| |C|+^T on the
    vertex columns, |P| |C|+ + |L| |G|+ (+ |lam L^-T|) on the lattice
    columns.  In fixed mode a loop e at v adds |w_e| |L| |g_e| per end to v's
    column.
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if mode not in ("flexible", "fixed", "volume"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "volume":
        if lam is None:
            raise ValueError("volume mode needs the multiplier lam")
        if not real.non_flat(tol):
            raise FlatLattice("volume equilibrium needs a nonsingular lattice")
    n, L = graph.num_vertices, real.lattice
    resid, bound = _zd_terms(graph, w, point_matrix(graph, real).T, L)
    if mode == "fixed":
        resid, bound = resid[:n], bound[:n]
        loops = graph.loop_mask
        if loops.any():
            # a loop's two ends cancel in the residual, yet each is a term of its vertex's sum
            ends = np.abs(graph.gain_array[loops]) @ np.abs(L).T
            np.add.at(bound, graph.head_idx[loops], 2.0 * np.abs(w[loops])[:, None] * ends)
    elif mode == "volume":
        target = lam * np.linalg.inv(L)  # lam L^-T, transposed
        resid[n:] -= target
        bound[n:] += np.abs(target)
    residual = float(np.abs(resid).max(initial=0.0))
    scale = float(bound.max(initial=0.0))
    return EquilibriumReport(mode, residual, scale, residual <= tol.residual_tol * scale)


def _zd_terms(graph: GainGraph, w: np.ndarray, points: np.ndarray, L: np.ndarray):
    """Lzd [P L]^T for the lattice-extended Laplacian Lzd of ``w`` and the
    |V| x d ``points`` P^T, and its terms, each (|V|+d) x d, summed over the
    edges in O(|E|).

    The product is Omega P^T + C L^T on the vertex rows and C^T P^T + G L^T on
    the lattice rows, with the blocks Omega, C and G of :func:`_blocks`.  Its
    terms are |Omega| |P|^T + |C|+ |L|^T and |C|+^T |P|^T + |G|+ |L|^T, where
    |C|+ and |G|+ are summed from |w| and |g|.  Row v of Omega P^T is p_v
    times the diagonal entry minus p_u times the summed weight of the edges
    joining u and v, for each neighbour u.  Omega and C are summed in edge
    order, as the dense matrices are, so parallel weights cancel before they
    meet P, and the product rounds within its terms as the dense product does.
    """
    n, d = points.shape
    diagonal, entries, cross, lattice, weighted = _blocks(graph, w)
    support, diagonal = graph._laplacian_support, diagonal[:, None]
    met = points[support.others] * np.concatenate([entries, entries])[:, None]
    laplacian = points * diagonal + np.bincount(support.end_slots, met.ravel(), n * d).reshape(n, d)
    abs_points = np.abs(points)
    abs_laplacian = abs_points * np.abs(diagonal) + np.bincount(
        support.end_slots, np.abs(met).ravel(), n * d).reshape(n, d)
    abs_weighted = np.abs(weighted)
    abs_cross = _vertex_scatter(graph, abs_weighted, 1.0)
    abs_lt = np.abs(L).T
    product = np.concatenate([laplacian + cross @ L.T, cross.T @ points + lattice @ L.T])
    abs_lattice = abs_weighted.T @ np.abs(graph.gain_array)
    terms = np.concatenate([abs_laplacian + abs_cross @ abs_lt,
                            abs_cross.T @ abs_points + abs_lattice @ abs_lt])
    return product, terms


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
    base = verify_equilibrium(graph, real, w, "fixed", tol)
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
    # [P -L] Lzd [P L]^T = P Omega P^T - L G L^T + (P C L^T - L C^T P^T), and the
    # bracket is antisymmetric, so the symmetric part is the right-hand side
    rhs_mat = np.hstack([P, -L]) @ _zd_terms(graph, w, P.T, L)[0]
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
    full = verify_equilibrium(graph, real, w, "flexible", tol)
    if not full.passed:
        raise NotFixedLatticeStress(f"equilibrium residual {full.residual:g} fails")
    stripped, keep = graph.without_loops()
    w_stripped = w[keep]
    report = StripReport(
        _stress_spectrum(graph, w, "zd_laplacian", tol).rank,
        _stress_spectrum(graph, w, "laplacian", tol).rank,
        _stress_spectrum(stripped, w_stripped, "laplacian", tol).rank,
    )
    if not (report.rank_zd == report.rank_laplacian == report.rank_stripped):
        raise RankMismatch(f"loop stripping rank equalities failed: {report}")
    check = verify_equilibrium(stripped, real, w_stripped, "fixed", tol)
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
    zero band of ``residual_tol * max|w|``, which a NaN weight makes empty."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size != graph.num_edges:
        raise ValueError("need one weight per edge")
    band = tol.residual_tol * float(np.abs(w).max(initial=0.0))
    return not np.any((np.sign(w) * graph._marking_signs < 0) & ~(np.abs(w) <= band))
