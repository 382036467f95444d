"""Numeric linear-algebra substrate.

Floating-point ranks, kernels and PSD tests all route through one tolerance
policy (:class:`~perigid.tolerances.ToleranceVault`); the exact integer ranks
of the gain group are taken in :mod:`perigid.gain`, with no tolerance at all.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import NonFiniteEntry
from .tolerances import ToleranceVault

# Singular-value ratio below which a rank cut is reported as marginal.
RANK_GAP_GUARD = 1e3

# Columns of R below which :func:`_certified_left_kernel_sample` leaves the
# trial to ``lstsq``, and vertices below which a trial's Laplacian goes to
# ``eigvalsh`` with no Gram proof (``stress._laplacian_nullity``): there the
# Gram path's fixed cost is more than the factorisation it saves.  Timed per
# trial on out-degree d+1 gain graphs (one BLAS thread, pinned), R's proof
# and stress (the motion basis, the Gram scatter, the block inverses and 3-7
# conjugate-gradient steps of about ten numpy calls each) take 0.5-1.1 ms
# under a fixed lattice and 0.6-1.6 ms with a flexible one, and cost what
# ``lstsq`` does between 48 and 72 columns under a fixed lattice, and with a
# flexible one between 60 and 68 in d = 2 and between 81 and 93 in d = 3.
# L's proof takes 0.2-0.4 ms and overtakes ``eigvalsh`` near 40 vertices, so
# this gate costs it at most 0.1 ms a trial below 64.
_GRAM_MIN_COLS = 64
# A certified trial also proves sigma_min(R_Q) >= |R|_F / _GRAM_MAX_COND and
# >= |R Y|_F / _GRAM_STRESS_RTOL, so that its stress is as accurate as the one
# ``lstsq`` gives: the rounding of the conjugate-gradient residuals leaves an
# error of about u cond(R_Q) |x|, and the stress departs from ``lstsq``'s by
# about |R Y| / sigma_min(R_Q) |x|.  Generic trials at 100-160 vertices have
# |R|_F / sigma_min(R_Q) of 2e3-5e3 and |R Y|_F / |R|_F below 1e-16.
_GRAM_MAX_COND = 1e5
_GRAM_STRESS_RTOL = 1e-10
# The stress's conjugate-gradient run stops once the residual is within
# _CG_RTOL |x| of the projection, and gives up after _CG_MAX_STEPS steps.
# Generic trials take 3-7 steps, switched graphs with gains up to 5 included.
_CG_RTOL = 1e-12
_CG_MAX_STEPS = 30
# Largest order of the diagonal blocks of the triangular substitutions, a
# power of two (:func:`_block_inverses`).
_BLOCK = 64


class RankResult(NamedTuple):
    rank: int
    marginal: bool


class SpectrumResult(NamedTuple):
    rank: int
    nullity: int
    marginal: bool
    is_psd: bool
    min_eigenvalue: float
    # a certified lower bound on the matrix's second-smallest singular value
    # (infinite at order one, where there is none; 0.0 where nothing is proved)
    second: float = 0.0


class KernelSample(NamedTuple):
    """A random stress and what proves it (:func:`_certified_left_kernel_sample`).

    ``distance`` bounds |stress - w*|_2 for w* = P stress, the stress's own
    orthogonal projection onto the left kernel of the exact matrix, and
    holds whenever that matrix has rank ``rank``; it is infinite when
    nothing bounds it.  ``path`` names the branch that drew the stress:
    ``gram`` or ``lstsq``."""

    rank: int
    marginal: bool
    stress: np.ndarray
    path: str
    distance: float


def _as_float_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return m


def _gamma(k) -> np.ndarray:
    """gamma_k = k u / (1 - k u), Higham's bound on the relative rounding of
    k floating-point operations in a row (elementwise for an array k)."""
    ku = np.asarray(k, dtype=float) * (np.finfo(float).eps / 2)
    return ku / (1.0 - ku)


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
        marginal = bool(svals[rank - 1] < RANK_GAP_GUARD * svals[rank])
    return rank, marginal, threshold


def _left_kernel_sample(
    matrix, x: np.ndarray, tol: ToleranceVault, errors: Optional[np.ndarray] = None
) -> KernelSample:
    """Rank, marginal flag and the projection w of ``x`` onto the left kernel
    of ``matrix`` from one least-squares solve, and a bound on the distance
    of w from w* = P w, its projection onto the left kernel of the exact
    matrix R, with ``|matrix - R| <= errors`` entrywise (R = ``matrix`` when
    ``errors`` is None).

    LAPACK zeroes the singular values at or below ``rcond * sigma_1``:
    :func:`_rank_cut`'s rule with no floor, which reads the cut again from the
    singular values the solve returns.  The residual ``x - R fit`` is the
    projection, so for a standard Gaussian ``x`` it is an isotropic Gaussian
    on the left kernel.  The distance is :func:`_lstsq_distance`.
    """
    m = _as_float_matrix(matrix)
    fit, _, _, svals = np.linalg.lstsq(m, x, rcond=tol.rank_rel_tol * max(m.shape))
    rank, marginal, _ = _rank_cut(svals, m.shape, tol, 0.0)
    stress = x - m @ fit
    errors = np.zeros_like(m) if errors is None else errors
    distance = _lstsq_distance(m, errors, svals, rank, stress)
    return KernelSample(rank, marginal, stress, "lstsq", distance)


def _lstsq_distance(m, errors, svals, rank: int, w) -> float:
    """A bound on |w - P w|_2 for the orthogonal projection P onto the left
    kernel of a matrix R with |m - R| <= ``errors`` entrywise and
    rank R = ``rank``; infinite when sigma_rank(R) > 0, which it also proves,
    does not follow from ``svals``, the singular values of ``m`` that
    ``lstsq`` returns.

    Let r = ``rank`` and delta = |errors|_F >= |m - R|_2.  w - P w is the
    projection of w onto range(R), on which R^T has least singular value
    sigma_r(R), so |w - P w| <= |R^T w| / sigma_r(R), and
    |R^T w| <= |fl(m^T w)| + gamma_rows |m|_F |w| + |errors^T |w||.  The
    solve's SVD is backward stable (see :func:`_gram_rank_proof`), so
    sigma_r(m) >= svals[r - 1] - eta with eta = rows n u |m|_F, and by Weyl
    sigma_r(R) >= svals[r - 1] - eta - delta.  At rank 0, R = 0 and P = I.
    """
    if rank == 0:
        return 0.0
    rows, n = m.shape
    norm = float(np.linalg.norm(m))
    u = np.finfo(float).eps / 2
    sigma = float(svals[rank - 1]) - rows * n * u * norm - float(np.linalg.norm(errors))
    if not sigma > 0.0:
        return np.inf
    image = (
        float(np.linalg.norm(m.T @ w))
        + float(_gamma(rows)) * norm * float(np.linalg.norm(w))
        + float(np.linalg.norm(np.abs(w) @ errors))
    )
    return image / sigma


def _scatter_rows(cols: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """The dense rows x n matrix whose row i holds ``vals[i]`` at ``cols[i]``.
    A row's columns are distinct, except that absent entries, exact zeros,
    may repeat a column."""
    mat = np.zeros((cols.shape[0], n))
    mat[np.arange(cols.shape[0])[:, None], cols] = vals
    return mat


def _pivot_rows(matrix) -> np.ndarray:
    """Rows that Gaussian elimination with partial pivoting picks, one per
    column in column order; it stops at the first column with no nonzero
    pivot left, so a rank-deficient ``matrix`` gets fewer rows than columns."""
    work = np.array(np.transpose(matrix), dtype=float)  # one contiguous row per column
    rows = []
    for j, col in enumerate(work):
        p = int(np.argmax(np.abs(col)))
        if col[p] == 0.0:
            break
        rows.append(p)
        work[j + 1 :] -= np.outer(work[j + 1 :, p] / col[p], col)
        work[j + 1 :, p] = 0.0  # exactly, so no row is picked twice
    return np.array(rows, dtype=np.intp)


def _gram_rank_proof(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple,
    basis: np.ndarray,
    kept: np.ndarray,
    tol: ToleranceVault,
    scale_floor: float = 0.0,
    accurate: bool = False,
) -> Optional[tuple[np.ndarray, float]]:
    """A proof, from the entries alone, that the cut of :func:`_rank_cut`
    with floor ``scale_floor`` gives the m x n matrix A rank n - k, not
    marginal, whether it reads the singular values of an SVD of A or, for a
    symmetric A, the eigenvalue magnitudes of an ``eigvalsh``.  It returns the
    Cholesky factor that proves it with the bound s + eta below
    sigma_min(A_Q) that it proves, or None when the proof does not go
    through.

    Entry i of A is ``vals[i]`` at row ``rows[i]`` (nondecreasing) and
    column ``cols[i]``; a row's columns are distinct, except that exact zeros
    may repeat one.  ``basis`` is an n x k matrix Y with orthonormal columns
    that A should annihilate, and ``kept`` is false at k pivot columns; A_Q
    is A without them, of q = n - k columns.  Let c = ``rank_rel_tol * max(m, n)``,
    f = ``scale_floor``, u the unit roundoff and eta = m n u |A|_F.  The
    proof holds when

    1. rho := |fl(A Y)|_F + 2 eta <= c max(|A|_F / sqrt(n) - eta, f), and
    2. ``cholesky(fl(A_Q^T A_Q) - tau I)`` succeeds, where
       tau = (s + eta)^2 + 2 (m + n + 3) u |A|_F^2 and s is the largest of
       c max(|A|_F + eta, f) and RANK_GAP_GUARD rho; with ``accurate``, also
       of |A|_F / ``_GRAM_MAX_COND`` and |fl(A Y)|_F / ``_GRAM_STRESS_RTOL``,
       which the proof does not need but a stress drawn with the factor
       does (:func:`_certified_left_kernel_sample`).

    Proof.  A backward-stable SVD (the one ``lstsq`` runs included) returns
    the singular values of some A + E with |E|_2 <= eta (Householder
    bidiagonalisation; Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 19.4).  A symmetric eigensolver returns the eigenvalues
    of some symmetric A + E, with |E|_2 a modest multiple of n u |A|_2
    (Householder tridiagonalisation, Higham Thm 19.4 applied from both
    sides, then the tridiagonal solver's own backward error; Golub and Van
    Loan, *Matrix Computations*, section 8.3), which eta = n^2 u |A|_F
    covers; their magnitudes, sorted, are the singular values of A + E.
    So by Weyl each returned value s'_i is within eta of sigma_i(A), and

    - |A|_F / sqrt(n) - eta <= s'_1 <= |A|_F + eta, since
      |A|_F / sqrt(n) <= sigma_1 <= |A|_F, and the cut's threshold
      c max(s'_1, f) lies between c max(|A|_F / sqrt(n) - eta, f) and
      c max(|A|_F + eta, f);
    - s'_(n-k+1) <= rho: Courant-Fischer gives sigma_(n-k+1) <= |A Y|_2 for
      the k orthonormal columns of Y, and eta also covers the rounding of
      A Y and of Y's orthonormality;
    - s'_(n-k) > s: Cauchy interlacing for deleted columns gives
      sigma_(n-k)(A) >= sigma_min(A_Q), and condition 2 proves
      sigma_min(A_Q) > s + eta.  Each computed entry of the Gram matrix
      (its lower triangle, the part ``cholesky`` reads) is an inner product
      of two columns of A_Q, within gamma_m times the sum of its terms'
      absolute values (Higham section 3.5).  That bound holds for any order
      of summation, so also for the order in which ``bincount`` adds the
      products; a product with an exact zero adds nothing and rounds
      nothing, so no entry sums more than m nonzero terms.  So the Gram
      matrix is within gamma_m |A|_F^2 of A_Q^T A_Q, and a Cholesky that
      completes factors its input plus a perturbation below
      gamma_(n-k+1) |A|_F^2 (Higham Thm 10.3); tau's second term covers
      both and the rounding of the shift, so lambda_min(A_Q^T A_Q) >
      (s + eta)^2.

    So s'_(n-k) > c max(s'_1, f) >= s'_(n-k+1) by condition 1, and
    :func:`_rank_cut` keeps exactly n - k values; and
    s'_(n-k) > RANK_GAP_GUARD s'_(n-k+1), so the cut is not marginal.  The
    pivot columns only make condition 2 likely to hold: interlacing holds for
    any k deleted columns.  There is no proof when there are fewer than k
    pivots, no column is left or A_Q is wider than tall.
    """
    m, n = shape
    q = int(kept.sum())
    if n - q != basis.shape[1] or not 0 < q <= m:
        return None
    c = tol.rank_rel_tol * max(m, n)
    u = np.finfo(float).eps / 2
    norm = float(np.linalg.norm(vals))
    eta = m * n * u * norm
    leak = float(np.linalg.norm([np.bincount(rows, vals * y[cols], m) for y in basis.T]))
    rho = leak + 2.0 * eta
    if not rho <= c * max(norm / np.sqrt(n) - eta, scale_floor):
        return None
    s = max(c * max(norm + eta, scale_floor), RANK_GAP_GUARD * rho)
    if accurate:
        s = max(s, norm / _GRAM_MAX_COND, leak / _GRAM_STRESS_RTOL)
    tau = (s + eta) ** 2 + 2.0 * (m + n + 3) * u * norm**2
    gram = _gram(rows, *_kept_entries(cols, vals, kept), q)
    gram.flat[:: q + 1] -= tau
    try:
        return np.linalg.cholesky(gram), s + eta
    except np.linalg.LinAlgError:
        return None


def _kept_entries(cols: np.ndarray, vals: np.ndarray, kept: np.ndarray) -> tuple:
    """The entries of A_Q, A without the columns where ``kept`` is false: each
    column's position among the kept ones, and those columns' entries zeroed
    and sent to position 0, where they add nothing."""
    return np.where(kept, np.cumsum(kept) - 1, 0)[cols], np.where(kept[cols], vals, 0.0)


def _gram(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, q: int) -> np.ndarray:
    """The lower triangle of A^T A, the part ``cholesky`` reads, for the
    matrix A with q columns whose entries are ``vals`` at ``rows``
    (nondecreasing) and ``cols``: every entry's product with itself and with
    each later entry of its row lands at (larger column, smaller column), so
    each Gram entry adds at most one product per row, in O(sum of squared row
    widths).  When every row has the same width, one pattern of pairs serves
    all rows, and sorting each row by column orders each pair."""
    width = np.bincount(rows)
    if width.min() == width.max():
        cols, vals = cols.reshape(width.size, -1), vals.reshape(width.size, -1)
        order = np.argsort(cols, axis=1, kind="stable")
        cols, vals = np.take_along_axis(cols, order, 1), np.take_along_axis(vals, order, 1)
        a, b = np.triu_indices(cols.shape[1])
        slots, products = (cols[:, b] * q + cols[:, a]).ravel(), (vals[:, a] * vals[:, b]).ravel()
    else:
        # each entry pairs with the span of entries from it to its row's end;
        # in place, so that few arrays of the pairs' length are held at once
        span = np.cumsum(width)[rows] - np.arange(rows.size)
        first = np.repeat(np.arange(rows.size), span)
        second = np.arange(first.size)
        second -= np.repeat(np.cumsum(span) - span, span)
        second += first
        products = vals[first]
        products *= vals[second]
        first, second = cols[first], cols[second]
        slots = np.maximum(first, second)
        slots *= q
        slots += np.minimum(first, second, out=first)
    return np.bincount(slots, products, q * q).reshape(q, q)


def _certified_left_kernel_sample(
    cols: np.ndarray,
    vals: np.ndarray,
    n: int,
    motions,
    rng,
    tol: ToleranceVault,
    errors: Optional[np.ndarray] = None,
) -> KernelSample:
    """:func:`_left_kernel_sample` of one standard Gaussian x from ``rng`` and
    the m x n matrix R whose row i holds ``vals[i]`` at the columns
    ``cols[i]`` (:func:`_scatter_rows`), for R with k known kernel vectors:
    decided from the entries by :func:`_gram_rank_proof` whenever it proves
    rank n - k, not marginal, and by :func:`_left_kernel_sample` of the dense
    R otherwise.  ``errors``, of the shape of ``vals``, bounds the entries'
    distance from those of the exact matrix that the sample's ``distance``
    is about (None: the entries are exact).

    ``motions()`` returns an n x k matrix Y with orthonormal columns that R
    should annihilate (a framework's trivial motions) and k pivot columns of
    R; it is called only when n is at least ``_GRAM_MIN_COLS``.  The proof
    also bounds sigma_min(R_Q) below (its ``accurate`` terms), so that the
    stress is as accurate as the one ``lstsq`` gives.

    The stress: once rank R = n - k, range(R) = range(R_Q), so the residual
    x - R_Q f at the least-squares f is the projection of x onto the left
    kernel.  :func:`_preconditioned_residual` reaches it by conjugate
    gradients preconditioned by the proof's Cholesky factor, and bounds its
    distance from its own projection onto the exact left kernel; a run that
    does not converge within ``_CG_MAX_STEPS`` steps also falls back.  The
    fallback solves with the same x, so the stream of draws from ``rng``
    does not depend on the path, and the dense R exists only there.
    """
    rows, width = cols.shape
    x = rng.standard_normal(rows)
    errors = np.zeros_like(vals) if errors is None else errors

    def fallback() -> KernelSample:
        dense_errors = _scatter_rows(cols, errors, n)
        return _left_kernel_sample(_scatter_rows(cols, vals, n), x, tol, dense_errors)

    if n < _GRAM_MIN_COLS:
        return fallback()
    basis, drop = motions()
    kept = np.ones(n, dtype=bool)
    kept[drop] = False
    proof = _gram_rank_proof(
        np.repeat(np.arange(rows), width), cols.ravel(), vals.ravel(), (rows, n), basis, kept, tol,
        accurate=True,
    )
    if proof is None:
        return fallback()
    factor, sigma = proof
    place, entries = _kept_entries(cols, vals, kept)
    done = _preconditioned_residual(place, entries, np.where(kept[cols], errors, 0.0),
                                    factor, sigma, x)
    if done is None:
        return fallback()
    return KernelSample(factor.shape[0], False, done[0], "gram", done[1])


def _preconditioned_residual(
    place: np.ndarray,
    entries: np.ndarray,
    errors: np.ndarray,
    factor: np.ndarray,
    sigma: float,
    x: np.ndarray,
) -> Optional[tuple[np.ndarray, float]]:
    """w = x - A f at the least-squares f, for the full-column-rank A whose
    row i holds ``entries[i]`` at the columns ``place[i]``, with a bound on
    its distance from w* = P w, its projection onto the left kernel of the
    exact matrix, or None when ``_CG_MAX_STEPS`` steps do not reach it.

    Conjugate gradients on the normal equations (CGLS; Bjorck, *Numerical
    Methods for Least Squares Problems*, 1996, section 7.4) for B = A L^-T,
    where L = ``factor`` is the Cholesky factor of A^T A - tau I with tau >= 0.
    B^T B = I + tau L^-1 L^-T has every eigenvalue at least 1 and close to 1
    when tau is small against lambda_min(A^T A), so few steps are needed.
    Since B^T B >= I and B^T annihilates the projection, the residual r is
    within |B^T r| = |L^-1 A^T r| of it, and the run stops once that is at
    most ``_CG_RTOL`` |x|.  Each residual is computed afresh from the
    entries, and L^-1 and L^-T are applied by blocked substitution
    (:func:`_block_inverses`).  The distance is :func:`_cg_distance`, for
    the exact matrix within ``errors`` of the entries and the bound
    ``sigma`` < sigma_min(A) that the factor proves.
    """
    q = factor.shape[0]
    inverses = _block_inverses(factor)

    def gradient(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # A^T r, L^-1 A^T r
        image = np.bincount(place.ravel(), (entries * r[:, None]).ravel(), minlength=q)
        return image, _lower_solve(factor, inverses, image)

    f = np.zeros(q)
    residual = x
    image, g = gradient(residual)
    direction, gamma = g, float(g @ g)
    bound = (_CG_RTOL * float(np.linalg.norm(x))) ** 2
    for steps in range(_CG_MAX_STEPS + 1):
        if gamma <= bound:
            break
        if steps == _CG_MAX_STEPS:
            return None
        step = _upper_solve(factor, inverses, direction)
        image = np.einsum("ik,ik->i", entries, step[place])
        f += gamma / float(image @ image) * step
        residual = x - np.einsum("ik,ik->i", entries, f[place])
        image, g = gradient(residual)
        gamma, previous = float(g @ g), gamma
        direction = g + gamma / previous * direction
    return residual, _cg_distance(place, entries, errors, factor, sigma, residual, image, g)


def _cg_distance(place, entries, errors, factor, sigma, w, image, g) -> float:
    """A bound on |w - P w|_2 for the residual w of
    :func:`_preconditioned_residual`, with ``image`` = fl(A^T w) and
    ``g`` ~ L^-1 ``image``, and the orthogonal projection P onto the left
    kernel of a matrix R_Q with |A - R_Q| <= ``errors`` entrywise, where R_Q
    spans the range of the exact R (rank R = n - k); infinite when the
    factor does not prove sigma_min(R_Q) > 0.

    Let delta = |errors|_F >= |A - R_Q|_2.  w - P w is the projection of w
    onto range(R_Q), of norm N(v) = |(R_Q^T R_Q)^(-1/2) v| at v = R_Q^T w.
    The proof's shift leaves L L^T <= A^T A - sigma^2 I, and
    A^T A - R_Q^T R_Q <= 2 |A|_F delta I, so
    R_Q^T R_Q >= L L^T + s'^2 I with s'^2 = sigma^2 - 2 |A|_F delta.  So
    N(L z) <= |z| for every z, and N(y) <= |y| / s', and with z = g,
    N(v) <= |g| + |v - L g| / s'.  Here |v - L g| is at most
    |image - fl(L g)| plus the rounding of the product, gamma_q |L|_F |g|,
    that of ``image``, gamma_(c+1) (|A|^T |w|) in the column with c nonzero
    entries, and |errors^T |w||.  The bound reads every quantity from the
    final iterate, so it holds whatever the substitutions' rounding.
    """
    norm = np.linalg.norm
    shrunk = sigma**2 - 2.0 * float(norm(entries)) * float(norm(errors))
    if not shrunk > 0.0:
        return np.inf
    q, flat, absw = factor.shape[0], place.ravel(), np.abs(w)[:, None]
    counts = np.bincount(flat, (entries != 0.0).ravel(), q)
    rounding = _gamma(counts + 1) * np.bincount(flat, (np.abs(entries) * absw).ravel(), q)
    gap = (
        float(norm(image - factor @ g))
        + float(norm(rounding))
        + float(_gamma(q)) * float(norm(factor)) * float(norm(g))
        + float(norm(np.bincount(flat, (errors * absw).ravel(), q)))
    )
    return float(norm(g)) + gap / np.sqrt(shrunk)


def _block_inverses(factor: np.ndarray) -> np.ndarray:
    """The inverses of the diagonal blocks of the lower triangular
    ``factor``, with matrix products only: blocks of the order ``_BLOCK`` (a
    power of two), or the least power of two at least the factor's order if
    that is smaller, the last one padded with the identity.

    Batched recursive doubling: the inverses of the diagonal entries, then,
    for h = 1, 2, 4, ..., those of each diagonal sub-block of order 2h from
    the two of order h within it, inv([[A, 0], [B, C]]) =
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]].
    """
    q = factor.shape[0]
    size = min(_BLOCK, 1 << (q - 1).bit_length())
    count = -(-q // size)
    blocks = np.tile(np.eye(size), (count, 1, 1))
    for i, a in enumerate(range(0, q, size)):
        b = min(a + size, q)
        blocks[i, : b - a, : b - a] = factor[a:b, a:b]
    inverses = 1.0 / np.diagonal(blocks, axis1=1, axis2=2).reshape(count, size, 1, 1)
    h = 1
    while h < size:
        # the sub-blocks of order h, indexed (block, row part, column part)
        parts = blocks.reshape(count, size // h, h, size // h, h).swapaxes(2, 3)
        pair = np.arange(0, size // h, 2)
        inv_a, inv_c = inverses[:, 0::2], inverses[:, 1::2]
        lower = -(inv_c @ parts[:, pair + 1, pair] @ inv_a)
        upper = np.zeros_like(lower)
        inverses = np.concatenate(
            [np.concatenate([inv_a, upper], 3), np.concatenate([lower, inv_c], 3)], 2
        )
        h *= 2
    return inverses.reshape(count, size, size)


def _lower_solve(factor: np.ndarray, inverses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs for the lower triangular L = ``factor``, by blocked forward
    substitution with the inverses of its diagonal blocks."""
    size = inverses.shape[1]
    out = np.empty_like(rhs)
    for i, a in enumerate(range(0, rhs.size, size)):
        b = min(a + size, rhs.size)
        out[a:b] = inverses[i, : b - a, : b - a] @ (rhs[a:b] - factor[a:b, :a] @ out[:a])
    return out


def _upper_solve(factor: np.ndarray, inverses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-T rhs for the lower triangular L = ``factor``, by blocked back
    substitution with the inverses of its diagonal blocks."""
    size = inverses.shape[1]
    out = np.empty_like(rhs)
    for i in reversed(range(inverses.shape[0])):
        a, b = i * size, min((i + 1) * size, rhs.size)
        out[a:b] = inverses[i, : b - a, : b - a].T @ (rhs[a:b] - factor[b:, a:b].T @ out[b:])
    return out


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
        return RankResult(0, False)
    svals = np.linalg.svd(m, compute_uv=False)
    rank, marginal, _ = _rank_cut(svals, m.shape, tol, 0.0)
    return RankResult(rank, marginal)


def nullspace(matrix, side: str, tol: ToleranceVault) -> np.ndarray:
    """Orthonormal basis (as columns) of the right or left kernel of ``matrix``,
    cut where :func:`numeric_rank` cuts.

    The factor of the requested side is square only when that side is the
    matrix's longer one (the right kernel of a wide matrix, the left kernel
    of a tall one), since only there can the kernel hold vectors that the
    thin factor lacks.  Every other case takes the thin SVD, so the right
    kernel of a tall |E| x k system builds no |E| x |E| factor."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    m = _as_float_matrix(matrix)
    dim = m.shape[1] if side == "right" else m.shape[0]
    if m.size == 0 or not np.any(m):
        return np.eye(dim)
    u, svals, vt = np.linalg.svd(m, full_matrices=dim > min(m.shape))
    rank, _, _ = _rank_cut(svals, m.shape, tol, 0.0)
    if side == "right":
        return vt[rank:].T
    return u[:, rank:]


def symmetric_spectrum(matrix, tol: ToleranceVault, scale_floor: float = 0.0) -> SpectrumResult:
    """Rank, marginal flag and PSD verdict of an exactly symmetric matrix of
    order at least one from one eigenvalue decomposition, of the matrix as it
    is.

    The rank applies :func:`numeric_rank`'s cut and gap guard to the
    eigenvalue magnitudes, which are the singular values of a symmetric
    matrix, with ``max(sigma_1, scale_floor)`` in place of sigma_1: a caller
    that knows the natural scale of the assembly passes it, so a matrix that
    cancels to zero up to floating noise ranks as zero.  PSD means no
    eigenvalue below minus that cut's threshold, so each eigenvalue is zero,
    positive or negative by the same one number.

    ``second`` is the second-smallest eigenvalue magnitude less
    n^2 u |matrix|_F, which bounds the eigensolver's backward error (see
    :func:`_gram_rank_proof`): by Weyl, a lower bound on the matrix's
    second-smallest singular value.
    """
    m = _as_float_matrix(matrix)
    eigs = np.linalg.eigvalsh(m)
    magnitudes = np.sort(np.abs(eigs))
    rank, marginal, threshold = _rank_cut(magnitudes[::-1], m.shape, tol, scale_floor)
    lam_min, n = float(eigs[0]), eigs.size
    backward = n * n * (np.finfo(float).eps / 2) * float(np.linalg.norm(m))
    second = float(magnitudes[1]) - backward if n > 1 else np.inf
    return SpectrumResult(rank, n - rank, marginal, lam_min >= -threshold, lam_min, second)
