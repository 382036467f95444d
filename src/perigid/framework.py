"""Realizations of gain graphs and their rigidity matrices.

A realization places the quotient vertices in d-space and picks a lattice
matrix whose columns are the period vectors.  Vector forms follow a fixed
layout: vertex coordinates in graph order, then the lattice columns
concatenated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import FlatLattice, NotAffinelySpanning
from .gain import GainGraph, Vertex
from .linalg import _gamma, _pivot_rows, _scatter_rows, numeric_rank
from .tolerances import ToleranceVault

# Lattice draws :func:`random_realization` makes before it gives up.
_LATTICE_DRAWS = 10


@dataclass
class Realization:
    """Vertex positions plus a lattice matrix (columns are period vectors).

    Construction reads the points into one |V| x d array, whose rows the
    ``points`` values are; :func:`point_matrix` views that array, so move a
    framework by making a new realization, not by replacing its points.
    """

    points: Mapping[Vertex, np.ndarray]
    lattice: np.ndarray

    def __post_init__(self) -> None:
        self.lattice = np.asarray(self.lattice, dtype=float)
        d = self.lattice.shape[0]
        if self.lattice.shape != (d, d):
            raise ValueError("lattice must be a square d x d matrix")
        # one |V| x d array holds every point; each point is a row of it
        try:
            rows = np.array(list(self.points.values()), dtype=float).reshape(len(self.points), d)
        except ValueError:  # ragged or mis-sized: flatten point by point
            flat = {v: np.asarray(p, dtype=float).reshape(-1) for v, p in self.points.items()}
            for v, p in flat.items():
                if p.shape != (d,):
                    raise ValueError(f"point for {v!r} has wrong dimension") from None
            rows = np.array(list(flat.values())).reshape(len(flat), d)
        self.points = dict(zip(self.points, rows))
        self._rows = rows

    @property
    def dimension(self) -> int:
        return self.lattice.shape[0]

    def non_flat(self, tol: ToleranceVault) -> bool:
        return _non_flat(self.lattice, tol)

    def scaled(self, factor: float) -> "Realization":
        return Realization(
            {v: factor * p for v, p in self.points.items()}, factor * self.lattice
        )

    def transformed(self, matrix: np.ndarray, shift=None) -> "Realization":
        """Apply p -> Mp + x, L -> ML."""
        matrix = np.asarray(matrix, dtype=float)
        shift = np.zeros(self.dimension) if shift is None else np.asarray(shift, dtype=float)
        return Realization(
            {v: matrix @ p + shift for v, p in self.points.items()},
            matrix @ self.lattice,
        )


def _non_flat(lattice: np.ndarray, tol: ToleranceVault) -> bool:
    """|det L| against Hadamard's bound, the product of the column lengths:
    scale-free, and one determinant with no singular values."""
    bound = float(np.prod(np.linalg.norm(lattice, axis=0)))
    return abs(float(np.linalg.det(lattice))) > tol.residual_tol * bound


def point_matrix(graph: GainGraph, real: Realization) -> np.ndarray:
    """d x |V| coordinate matrix in graph vertex order, read-only: a view of the
    points' array, gathered once when the realization lists its vertices in
    another order."""
    rows = real._rows
    if tuple(real.points) != graph.vertices:
        index = {v: i for i, v in enumerate(real.points)}
        rows = rows[[index[v] for v in graph.vertices]]
    matrix = rows.T
    matrix.flags.writeable = False
    return matrix


def is_affinely_spanning(graph: GainGraph, real: Realization, tol: ToleranceVault) -> bool:
    """True when the lattice translates of the points affinely span d-space.

    Equivalent test: the d x (|V|+d) matrix [P - p(v1) 1^T, L] has rank d.
    """
    P = point_matrix(graph, real)
    shifted = P - P[:, [0]]
    return numeric_rank(np.hstack([shifted, real.lattice]), tol).rank == real.dimension


def edge_vectors(graph: GainGraph, real: Realization) -> np.ndarray:
    """|E| x d array of edge vectors p(head) + L*gain - p(tail)."""
    pts = point_matrix(graph, real).T
    return pts[graph.head_idx] + graph.gain_array @ real.lattice.T - pts[graph.tail_idx]


def measurement(graph: GainGraph, real: Realization) -> np.ndarray:
    """Squared edge lengths in canonical edge order."""
    nu = edge_vectors(graph, real)
    return np.einsum("ij,ij->i", nu, nu)


def _rigidity_entries(
    graph: GainGraph, real: Realization, fixed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The rigidity matrix's entries row by row: an |E| x K array of column
    indices and an |E| x K array of values.  K is 2d (-nu at the tail's
    coordinates, then +nu at the head's), plus the d^2 lattice entries
    gain_i nu_j unless ``fixed``.  A loop's vertex entries and a zero gain's
    lattice entries are +0.0, so a dense scatter of the entries is the matrix
    and a product with an absent entry adds nothing to a sum."""
    d, n, e = graph.dimension, graph.num_vertices, graph.num_edges
    nu = edge_vectors(graph, real)
    coords = np.arange(d)
    cols = np.empty((e, 2 * d if fixed else 2 * d + d * d), dtype=np.intp)
    vals = np.empty(cols.shape)
    cols[:, :d] = d * graph.tail_idx[:, None] + coords
    cols[:, d : 2 * d] = d * graph.head_idx[:, None] + coords
    vals[:, :d] = -nu
    vals[:, d : 2 * d] = nu
    vals[graph.loop_mask, : 2 * d] = 0.0
    if not fixed:
        gains = graph.gain_array[:, :, None]
        cols[:, 2 * d :] = d * n + np.arange(d * d)
        vals[:, 2 * d :] = np.where(gains != 0.0, gains * nu[:, None, :], 0.0).reshape(e, d * d)
    return cols, vals


def _rigidity_entry_errors(graph: GainGraph, real: Realization, fixed: bool) -> np.ndarray:
    """Entrywise bounds, in the layout of :func:`_rigidity_entries`, on the
    distance of its computed entries from those of the exact rigidity matrix
    of the realization, its float points and lattice taken as exact reals.

    An edge vector fl(p(h) + L g - p(t)) sums d products for L g from a gain
    that may itself have been rounded to a float, then adds and subtracts:
    it is within gamma_(d+3) (|p(h)| + |L| |g| + |p(t)|) of the exact one.
    A lattice entry fl(g_i nu_j) adds a rounded product, so it is within
    |g_i| (that bound + gamma_3 |nu_j|).  A loop's vertex entries are zero in
    both matrices, as is a zero gain's lattice entry."""
    d, e = graph.dimension, graph.num_edges
    points = np.abs(point_matrix(graph, real).T)
    gains = np.abs(graph.gain_array)
    vector = _gamma(d + 3) * (points[graph.head_idx] + gains @ np.abs(real.lattice).T
                              + points[graph.tail_idx])
    errors = np.empty((e, 2 * d if fixed else 2 * d + d * d))
    errors[:, :d] = errors[:, d : 2 * d] = np.where(graph.loop_mask[:, None], 0.0, vector)
    if not fixed:
        lattice = vector + _gamma(3) * np.abs(edge_vectors(graph, real))
        errors[:, 2 * d :] = (gains[:, :, None] * lattice[:, None, :]).reshape(e, d * d)
    return errors


def rigidity_matrix(graph: GainGraph, real: Realization) -> np.ndarray:
    """|E| x (d|V| + d^2) rigidity matrix; rows are half-derivatives of the measurement."""
    d = graph.dimension
    return _scatter_rows(*_rigidity_entries(graph, real, False), d * graph.num_vertices + d * d)


def fixed_rigidity_matrix(graph: GainGraph, real: Realization) -> np.ndarray:
    """|E| x d|V| fixed-lattice rigidity matrix; loop rows vanish by cancellation."""
    cols, vals = _rigidity_entries(graph, real, True)
    return _scatter_rows(cols, vals, graph.dimension * graph.num_vertices)


def volume_rigidity_matrix(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Rigidity matrix extended by the half-gradient of -log|det L|."""
    if not real.non_flat(tol):
        raise FlatLattice("volume rigidity matrix needs a nonsingular lattice")
    d = graph.dimension
    base = rigidity_matrix(graph, real)
    extra = np.zeros(base.shape[1])
    inv_t = np.linalg.inv(real.lattice).T
    extra[d * graph.num_vertices :] = -0.5 * inv_t.flatten(order="F")
    return np.vstack([base, extra])


def trivial_motions(graph: GainGraph, real: Realization, tol: ToleranceVault) -> np.ndarray:
    """Basis (columns) of the d(d+1)/2 trivial motions: translations and rotations."""
    if not is_affinely_spanning(graph, real, tol):
        raise NotAffinelySpanning("trivial motions need an affinely spanning framework")
    return _trivial_motion_columns(graph, real)


def _trivial_motion_columns(graph: GainGraph, real: Realization) -> np.ndarray:
    """The d translations of the points, then for each i < j the rotation
    p -> Sp, L -> SL by the skew S = E_ij - E_ji, as vectors in the layout of
    the rigidity matrix's columns."""
    d, n = graph.dimension, graph.num_vertices
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    cols = np.zeros((d * n + d * d, d + len(pairs)))
    cols[: d * n, :d] = np.tile(np.eye(d), (n, 1))
    points, lattice = point_matrix(graph, real), real.lattice
    for col, (i, j) in enumerate(pairs, start=d):
        # (Sq)_i = q_j and (Sq)_j = -q_i for each point and each lattice column q
        cols[i : d * n : d, col] = points[j]
        cols[j : d * n : d, col] = -points[i]
        cols[d * n + i :: d, col] = lattice[j]
        cols[d * n + j :: d, col] = -lattice[i]
    return cols


def _motion_basis(
    graph: GainGraph, real: Realization, fixed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal basis (columns) of the trivial motions that the
    rigidity matrix annihilates, and one vertex coordinate per basis column,
    picked by partial pivoting on the vertex rows.  Under a fixed lattice the
    motions are the d translations, whose pivots are the first vertex's d
    coordinates; otherwise they also rotate the points and the lattice."""
    d, n = graph.dimension, graph.num_vertices
    if fixed:
        return np.tile(np.eye(d), (n, 1)) / np.sqrt(n), np.arange(d)
    basis = np.linalg.qr(_trivial_motion_columns(graph, real))[0]
    return basis, _pivot_rows(basis[: d * n])


def is_infinitesimally_rigid(graph: GainGraph, real: Realization, tol: ToleranceVault) -> bool:
    """Nullity of the rigidity matrix equals the count of rigid-body motions."""
    if not is_affinely_spanning(graph, real, tol):
        raise NotAffinelySpanning("infinitesimal rigidity needs an affinely spanning framework")
    d = graph.dimension
    cols = d * graph.num_vertices + d * d
    rank = numeric_rank(rigidity_matrix(graph, real), tol).rank
    return cols - rank == d * (d + 1) // 2


def is_fixed_lattice_inf_rigid(graph: GainGraph, real: Realization, tol: ToleranceVault) -> bool:
    """Kernel of the fixed-lattice rigidity matrix reduces to the d translations."""
    if not is_affinely_spanning(graph, real, tol):
        raise NotAffinelySpanning("fixed-lattice rigidity needs an affinely spanning framework")
    d = graph.dimension
    rank = numeric_rank(fixed_rigidity_matrix(graph, real), tol).rank
    return d * graph.num_vertices - rank == d


def random_realization(
    graph: GainGraph, tol: ToleranceVault, seed: Optional[int] = None
) -> Realization:
    """High-entropy stand-in for a generic realization; deterministic per seed.

    Coordinates and lattice entries are uniform on [1, 2); the lattice is
    redrawn in the measure-zero event that it comes out flat.  A
    ``residual_tol`` near one makes every draw flat (two columns from
    [1, 2)^2 are at most about 37 degrees apart, so |det L| <= 0.6 times
    Hadamard's bound), so after ``_LATTICE_DRAWS`` draws this raises
    :class:`FlatLattice`.
    """
    rng = np.random.default_rng(tol.rng_seed if seed is None else seed)
    d = graph.dimension
    points = dict(zip(graph.vertices, rng.uniform(1.0, 2.0, size=(graph.num_vertices, d))))
    for _ in range(_LATTICE_DRAWS):
        lattice = rng.uniform(1.0, 2.0, size=(d, d))
        if _non_flat(lattice, tol):
            return Realization(points, lattice)
    raise FlatLattice(
        f"none of {_LATTICE_DRAWS} random lattices is non-flat at residual_tol {tol.residual_tol:g}"
    )


def congruence_check(
    real_a: Realization, real_b: Realization, tol: ToleranceVault
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Witnessing isometry (M orthogonal, x) with q = Mp + x and L' = ML, or None.

    Solved by orthogonal Procrustes on the stacked columns of [P L] after
    centering the points only; lattice columns are not translated.  Both
    rotations and reflections are admitted.
    """
    if set(real_a.points) != set(real_b.points) or real_a.dimension != real_b.dimension:
        raise ValueError("congruence check needs realizations of the same graph")
    order = list(real_a.points)
    pa = np.column_stack([real_a.points[v] for v in order])
    pb = np.column_stack([real_b.points[v] for v in order])
    ca, cb = pa.mean(axis=1, keepdims=True), pb.mean(axis=1, keepdims=True)
    stack_a = np.hstack([pa - ca, real_a.lattice])
    stack_b = np.hstack([pb - cb, real_b.lattice])
    u, _, vt = np.linalg.svd(stack_b @ stack_a.T)
    rot = u @ vt
    shift = (cb - rot @ ca).reshape(-1)
    scale = float(np.abs(np.hstack([pa, pb, real_a.lattice, real_b.lattice])).max())
    residual = max(
        float(np.abs(rot @ pa + shift[:, None] - pb).max()),
        float(np.abs(rot @ real_a.lattice - real_b.lattice).max()),
    )
    if residual <= tol.residual_tol * scale:
        return rot, shift
    return None
