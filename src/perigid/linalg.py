"""Numeric and exact linear-algebra substrate.

Floating-point ranks, kernels and PSD tests all route through one tolerance
policy (:class:`~perigid.tolerances.ToleranceVault`); integer data gets exact
arbitrary-precision treatment so group-theoretic quantities carry no tolerance
at all.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import AsymmetricInput, NonFiniteEntry
from .tolerances import ToleranceVault

# Singular-value ratio below which a rank cut is reported as marginal.
RANK_GAP_GUARD = 1e3


class RankResult(NamedTuple):
    rank: int
    singular_values: np.ndarray
    marginal: bool


class SpectrumResult(NamedTuple):
    rank: int
    nullity: int
    eigenvalues: Optional[np.ndarray]  # ascending; None when decided with no eigensolve
    marginal: bool
    is_psd: bool
    min_eigenvalue: float


def _as_float_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return m


def _rank_cut(
    svals: np.ndarray, shape: tuple, tol: ToleranceVault, scale_floor: float
) -> tuple[int, bool, float]:
    """(rank, marginal, threshold) from singular values sorted in descending
    order; the values at or below the threshold are zero."""
    if svals.size == 0 or svals[0] == 0.0:
        return 0, False, 0.0
    threshold = tol.rank_rel_tol * max(shape) * max(svals[0], scale_floor)
    rank = int(np.sum(svals > threshold))
    marginal = False
    if 0 < rank < svals.size and svals[rank] > 0.0:
        marginal = bool(svals[rank - 1] / svals[rank] < RANK_GAP_GUARD)
    return rank, marginal, threshold


def _left_kernel_sample(matrix, rng, tol: ToleranceVault) -> tuple[int, bool, np.ndarray]:
    """Rank, marginal flag and a random left-kernel vector of ``matrix`` from
    one least-squares solve.

    LAPACK zeroes the singular values at or below ``rcond * sigma_1``:
    :func:`_rank_cut`'s rule with no floor, which reads the cut again from the
    singular values the solve returns.  The residual ``x - R fit`` of a
    standard Gaussian ``x`` is its projection onto the left kernel, so it is
    an isotropic Gaussian there.
    """
    m = _as_float_matrix(matrix)
    x = rng.standard_normal(m.shape[0])
    fit, _, _, svals = np.linalg.lstsq(m, x, rcond=tol.rank_rel_tol * max(m.shape))
    rank, marginal, _ = _rank_cut(svals, m.shape, tol, 0.0)
    return rank, marginal, x - m @ fit


def numeric_rank(matrix, tol: ToleranceVault) -> RankResult:
    """Rank of a real matrix from its singular values.

    A singular value counts toward the rank when it exceeds
    ``rank_rel_tol * max(rows, cols) * sigma_1``.  The result is flagged
    marginal when the ratio across the rank cut is below ``RANK_GAP_GUARD``,
    since a near-degenerate cut should be surfaced rather than silently
    decided.
    """
    m = _as_float_matrix(matrix)
    if m.size == 0:
        return RankResult(0, np.zeros(0), False)
    svals = np.linalg.svd(m, compute_uv=False)
    rank, marginal, _ = _rank_cut(svals, m.shape, tol, 0.0)
    return RankResult(rank, svals, marginal)


def nullspace(matrix, side: str, tol: ToleranceVault) -> np.ndarray:
    """Orthonormal basis (as columns) of the right or left kernel of ``matrix``,
    cut where :func:`numeric_rank` cuts."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    m = _as_float_matrix(matrix)
    rows, cols = m.shape
    dim = cols if side == "right" else rows
    if m.size == 0 or not np.any(m):
        return np.eye(dim)
    u, svals, vt = np.linalg.svd(m, full_matrices=True)
    rank, _, _ = _rank_cut(svals, m.shape, tol, 0.0)
    if side == "right":
        return vt[rank:].T
    return u[:, rank:]


def symmetric_spectrum(matrix, tol: ToleranceVault, scale_floor: float = 0.0) -> SpectrumResult:
    """Rank, marginal flag and PSD verdict of a (nearly) symmetric matrix from
    one eigenvalue decomposition.

    An exactly symmetric matrix goes to the eigensolver as it is.  Otherwise
    this raises :class:`AsymmetricInput` when the asymmetry exceeds
    ``residual_tol * (1 + |S|)`` and symmetrizes a copy before the
    eigensolve.  The rank applies :func:`numeric_rank`'s cut and gap guard to
    the eigenvalue magnitudes, which are the singular values of a symmetric
    matrix, with ``max(sigma_1, scale_floor)`` in place of sigma_1: a caller
    that knows the natural scale of the assembly passes it, so a matrix that
    cancels to zero up to floating noise ranks as zero.  PSD means no
    eigenvalue below minus that cut's threshold, so each eigenvalue is zero,
    positive or negative by the same one number.
    """
    m = _as_float_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError("symmetric_spectrum needs a square matrix")
    if m.size == 0:
        return SpectrumResult(0, 0, np.zeros(0), False, True, 0.0)
    if not np.array_equal(m, m.T):  # 0.5 (m + m^T) is m itself when it is symmetric
        scale = 1.0 + max(float(m.max()), -float(m.min()))
        asym = float(np.abs(m - m.T).max())
        if asym > tol.residual_tol * scale:
            raise AsymmetricInput(f"asymmetry {asym:g} exceeds tolerance")
        m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    rank, marginal, threshold = _rank_cut(np.sort(np.abs(eigs))[::-1], m.shape, tol, scale_floor)
    lam_min = float(eigs[0])
    return SpectrumResult(rank, eigs.size - rank, eigs, marginal, lam_min >= -threshold, lam_min)


def _as_int_rows(matrix) -> list[list[int]]:
    arr = np.asarray(matrix)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        raise ValueError("expected a 2-d integer matrix")
    if not np.issubdtype(arr.dtype, np.integer) and arr.dtype != object:
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.round(arr)):
            raise ValueError("smith_rank requires exact integer input, not floats")
        raise ValueError("smith_rank requires exact integer input")
    return [[int(x) for x in row] for row in arr.tolist()]


def smith_rank(matrix) -> int:
    """Exact rank of an integer matrix over the rationals.

    Fraction-free (Bareiss) elimination on Python integers: each update
    ``(pivot * x - factor * top) / previous pivot`` is a minor of the input,
    so the division is exact.  No tolerance is involved, which is what makes
    gain-group ranks trustworthy.
    """
    work = _as_int_rows(matrix)
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    rank = 0
    previous = 1
    for pivot_col in range(ncols):
        if rank == nrows:
            break
        pivot_row = next((r for r in range(rank, nrows) if work[r][pivot_col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        top = work[rank]
        pivot = top[pivot_col]
        for r in range(rank + 1, nrows):
            row, factor = work[r], work[r][pivot_col]
            for c in range(pivot_col + 1, ncols):
                row[c] = (pivot * row[c] - factor * top[c]) // previous
            row[pivot_col] = 0
        previous = pivot
        rank += 1
    return rank
