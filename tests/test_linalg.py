import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import linalg
from perigid.errors import NonFiniteEntry
from perigid.framework import (
    _motion_basis,
    _rigidity_entries,
    fixed_rigidity_matrix,
    random_realization,
    rigidity_matrix,
)
from perigid.gain import GainGraph
from perigid.linalg import (
    RANK_GAP_GUARD,
    _certified_left_kernel_sample,
    _left_kernel_sample,
    _pivot_rows,
    _scatter_rows,
    numeric_rank,
    nullspace,
    smith_rank,
    symmetric_spectrum,
)
from perigid.tolerances import ToleranceVault

from oracles import degree_one_graph, fraction_rank, out_degree_graph

SQRT2 = math.sqrt(2.0)

# Golden 4x4 stress matrix of the two-vertex fixture; rows 2 and 3 are
# rational multiples of row 1, so the exact rank is 1.
FLEX2_LZD = np.array(
    [[8, -8, 4, 0], [-8, 8, -4, 0], [4, -4, 2, 0], [0, 0, 0, 0]], dtype=float
)


def octagon_finite_laplacian():
    a = 2 * SQRT2 + 2
    b = -SQRT2 - 2
    c = -1 - SQRT2
    m = np.zeros((8, 8))
    for i in range(8):
        m[i, i] = a
        m[i, (i + 1) % 8] = b if i % 2 == 0 else c
        m[(i + 1) % 8, i] = m[i, (i + 1) % 8]
    for i, j in ((0, 3), (4, 7), (1, 6), (2, 5)):
        m[i, j] = m[j, i] = 1.0
    return m


def test_numeric_rank_identity(tol):
    res = numeric_rank(np.eye(3), tol)
    assert res.rank == 3
    assert not res.marginal


def test_numeric_rank_flex2_stress_matrix(tol):
    assert numeric_rank(FLEX2_LZD, tol).rank == 1


def test_numeric_rank_octagon_finite(tol):
    m = octagon_finite_laplacian()
    assert numeric_rank(m, tol).rank == 5


def test_numeric_rank_zero_and_empty(tol):
    assert numeric_rank(np.zeros((3, 3)), tol).rank == 0
    assert numeric_rank(np.zeros((0, 4)), tol).rank == 0


def test_numeric_rank_rejects_nonfinite(tol):
    with pytest.raises(NonFiniteEntry):
        numeric_rank(np.array([[1.0, np.nan]]), tol)


def test_numeric_rank_marginal_flag(tol):
    # Singular values 1 and 2e-3: the cut ratio 500 is below the 1e3 guard.
    m = np.diag([1.0, 2e-3])
    shrunk = ToleranceVault(rank_rel_tol=1e-2)
    res = numeric_rank(m, shrunk)
    assert res.rank == 1 and res.marginal
    spec = symmetric_spectrum(m, shrunk)
    assert spec.rank == 1 and spec.marginal
    assert numeric_rank(np.diag([1.0, 1e-12]), tol).marginal is False


def test_numeric_rank_gap_guard_with_a_subnormal_value_does_not_overflow(tol):
    """The gap across the cut is compared without dividing by the value past
    it, which here is subnormal: 1.0 / 1e-320 would overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = numeric_rank(np.diag([1.0, 1e-320]), tol)
    assert res.rank == 1 and not res.marginal


def test_nullspace_zero_matrix(tol):
    basis = nullspace(np.zeros((2, 2)), "right", tol)
    assert basis.shape == (2, 2)
    assert np.allclose(basis.T @ basis, np.eye(2))


def test_nullspace_flex2_incidence_contains_one_hat(tol):
    izd = np.array(
        [[-1, 1, 0, 0], [-1, 1, -1, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]],
        dtype=float,
    )
    basis = nullspace(izd, "right", tol)
    one_hat = np.array([1.0, 1.0, 0.0, 0.0])
    # 1-hat must be reproduced by projection onto the kernel
    assert np.allclose(basis @ (basis.T @ one_hat), one_hat)


def test_nullspace_flex2_stress_matrix_dimension(tol):
    assert nullspace(FLEX2_LZD, "right", tol).shape[1] == 3


def test_nullspace_residual_property(tol):
    """On each side the basis is orthonormal, as wide as that side's dimension
    less numeric_rank, and annihilated by the matrix: small random shapes, and
    tall ones (the conic system's shape) at full rank and rank deficient."""
    rng = np.random.default_rng(0)
    cases = [rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7))) for _ in range(50)]
    for rows, cols in ((40, 3), (40, 6)):
        cases.append(rng.standard_normal((rows, cols)))
        for rank in range(cols):  # a product through `rank` columns has that rank
            cases.append(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))
    for m in cases:
        rank = numeric_rank(m, tol).rank
        smax = np.linalg.svd(m, compute_uv=False)[0]
        for side, dim in (("right", m.shape[1]), ("left", m.shape[0])):
            basis = nullspace(m, side, tol)
            assert basis.shape == (dim, dim - rank), (m.shape, side)
            assert np.abs(basis.T @ basis - np.eye(dim - rank)).max(initial=0.0) <= 1e-12
            residual = m @ basis if side == "right" else basis.T @ m
            assert np.abs(residual).max(initial=0.0) <= tol.residual_tol * smax * np.sqrt(dim)


def test_symmetric_spectrum_matches_numeric_rank_and_psd(tol):
    rng = np.random.default_rng(7)
    cases = [FLEX2_LZD, octagon_finite_laplacian(), np.zeros((3, 3)), np.diag([1.0, -1.0])]
    for rank in (1, 3, 5):
        b = rng.standard_normal((6, rank))
        cases.append(b @ np.diag(rng.uniform(-2, 2, rank)) @ b.T)
    for m in cases:
        spec = symmetric_spectrum(m, tol)
        ref = numeric_rank(m, tol)
        assert (spec.rank, spec.marginal) == (ref.rank, ref.marginal)
        assert spec.nullity == m.shape[0] - ref.rank
    assert symmetric_spectrum(1e-14 * FLEX2_LZD, tol, scale_floor=1.0).rank == 0


def test_symmetric_spectrum_of_a_symmetric_matrix_is_eigvalsh_itself(tol):
    """The matrix goes to eigvalsh as it is: the same least eigenvalue bit
    for bit, also for a strided view."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    m = a + a.T
    least = np.linalg.eigvalsh(m)[0]
    assert symmetric_spectrum(m, tol).min_eigenvalue == least
    view = np.zeros((45, 45))
    view[:40, :40] = m
    assert symmetric_spectrum(view[:40, :40], tol).min_eigenvalue == least


def test_psd_check_basics(tol):
    zero = symmetric_spectrum(np.zeros((2, 2)), tol)
    assert (zero.is_psd, zero.min_eigenvalue) == (True, 0.0)
    spec = symmetric_spectrum(np.diag([1.0, -1.0]), tol)
    assert not spec.is_psd and spec.min_eigenvalue == pytest.approx(-1.0)
    assert symmetric_spectrum(octagon_finite_laplacian(), tol).is_psd


def test_psd_check_conjugation_invariance(tol):
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        s = a + a.T
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert symmetric_spectrum(s, tol).is_psd == symmetric_spectrum(q @ s @ q.T, tol).is_psd


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[1, 0], [0, 1]], 2),
        ([[1, 0], [1, 1], [-1, 1]], 2),
        ([[0, 0, 0]], 0),
        ([[2, 4], [1, 2]], 1),
        # a zero below the first pivot: fraction-free elimination still scales its row
        ([[0, 2, 0], [3, 0, 2], [0, 2, 1], [1, -1, 1]], 3),
    ],
)
def test_smith_rank_cases(rows, expected):
    assert smith_rank(np.array(rows, dtype=int)) == expected


def test_smith_rank_empty():
    assert smith_rank(np.zeros((0, 2), dtype=int)) == 0
    assert smith_rank(np.array([], dtype=int)) == 0


def test_smith_rank_rejects_floats():
    with pytest.raises(ValueError, match="not floats"):
        smith_rank(np.array([[1.0, 2.0]]))
    for bad in (np.array([[1.5, 2.0]]), np.array([["1", "2"]]), np.array([[True, False]])):
        with pytest.raises(ValueError, match="exact integer input$"):
            smith_rank(bad)
    assert smith_rank(np.array([[10**30, 1], [2 * 10**30, 2]], dtype=object)) == 1


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_numeric_rank_agrees_with_smith_rank(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-10, 11, size=(rows, cols))
    tol = ToleranceVault()
    assert numeric_rank(m.astype(float), tol).rank == smith_rank(m)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.sampled_from(["zero", "rank-deficient", "random", "sparse"]),
    st.sampled_from([1, 10**3, 10**15, 10**30]),
    st.integers(0, 2**32 - 1),
)
def test_smith_rank_matches_rational_elimination(rows, cols, kind, bound, seed):
    """Fraction-free elimination gives the rank elimination over the
    rationals gives, on empty, zero, rank-deficient, random and sparse
    matrices with entries up to 3 * 10^30."""
    rnd = random.Random(seed)

    def draw(r, c):
        return [[rnd.randint(-3, 3) * rnd.randint(1, bound) for _ in range(c)] for _ in range(r)]

    if kind == "zero":
        m = [[0] * cols for _ in range(rows)]
    elif kind == "rank-deficient":
        inner = rnd.randrange(max(min(rows, cols), 1))
        a, b = draw(rows, inner), draw(inner, cols)
        m = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    else:
        m = draw(rows, cols)
    if kind == "sparse":
        m = [[x if rnd.random() < 0.5 else 0 for x in row] for row in m]
    matrix = np.array(m, dtype=object).reshape(rows, cols)
    assert smith_rank(matrix) == fraction_rank(matrix)
    if kind == "rank-deficient":
        assert smith_rank(matrix) <= inner


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(["zero", "rank-deficient", "random"]),
    st.integers(0, 2**32 - 1),
)
def test_left_kernel_sample_matches_numeric_rank_and_nullspace(rows, cols, kind, seed):
    """One least-squares solve gives numeric_rank's rank and the projection of
    its Gaussian onto nullspace's left kernel."""
    tol = ToleranceVault()
    rng = np.random.default_rng(seed)
    if kind == "zero":
        m = np.zeros((rows, cols))
    elif kind == "rank-deficient":
        # orthonormal factors and singular values in [1, 10]: a well-separated cut
        r = int(rng.integers(0, max(min(rows, cols), 1)))
        u = np.linalg.qr(rng.standard_normal((rows, r)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, r)))[0]
        m = u @ np.diag(rng.uniform(1.0, 10.0, r)) @ v.T
    else:
        m = rng.standard_normal((rows, cols))
    x = np.random.default_rng(seed + 1).standard_normal(rows)
    rank, marginal, vec = _left_kernel_sample(m, x, tol)[:3]
    expected = numeric_rank(m, tol)
    assert (rank, marginal) == (expected.rank, expected.marginal)
    kernel = nullspace(m, "left", tol)
    assert np.linalg.norm(vec - kernel @ (kernel.T @ x)) <= 1e-10 * np.linalg.norm(x)


def _dense_entries(matrix) -> tuple:
    """(cols, vals, n) of a dense matrix: every row holds all n columns."""
    rows, n = np.shape(matrix)
    return np.broadcast_to(np.arange(n), (rows, n)), np.asarray(matrix, dtype=float), n


def _graph_entries(graph, real, fixed: bool) -> tuple:
    """(cols, vals, n) of a rigidity matrix, as generic trials pass them."""
    d = graph.dimension
    n = d * graph.num_vertices + (0 if fixed else d * d)
    return (*_rigidity_entries(graph, real, fixed), n)


def _certified_run(entries, motions, seed: int, gate: int = 0) -> tuple:
    """``_certified_left_kernel_sample`` of ``entries`` (cols, vals, n) with
    the size gate at ``gate``: (its result, whether it fell back to
    ``_left_kernel_sample``, the number of Cholesky factorisations it tried,
    whether it asked for the motions)."""
    fallbacks, choleskys, asked = [], [], []
    cholesky = np.linalg.cholesky

    def spy_cholesky(a):
        choleskys.append(a.shape)
        return cholesky(a)

    def spy_motions():
        asked.append(True)
        return motions()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_GRAM_MIN_COLS", gate)
        mp.setattr(
            linalg, "_left_kernel_sample", lambda *a: fallbacks.append(a) or _left_kernel_sample(*a)
        )
        mp.setattr(np.linalg, "cholesky", spy_cholesky)
        rng = np.random.default_rng(seed)
        got = _certified_left_kernel_sample(*entries, spy_motions, rng, ToleranceVault())
    return got, bool(fallbacks), len(choleskys), bool(asked)


def _assert_same_sample(got, matrix, seed: int) -> None:
    """Rank and marginal flag of ``_left_kernel_sample`` with the same draw,
    and its stress within 1e-10 |x|."""
    x = np.random.default_rng(seed).standard_normal(np.shape(matrix)[0])
    expected = _left_kernel_sample(matrix, x, ToleranceVault())
    assert got[:2] == expected[:2]
    assert np.linalg.norm(got[2] - expected[2]) <= 1e-10 * np.linalg.norm(x)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 14),
    st.integers(1, 5),
    st.booleans(),
    st.integers(-8, 8),
    st.sampled_from([1, 5]),
    st.integers(0, 2**32 - 1),
)
def test_certified_sample_equals_lstsq_on_rigidity_matrices(d, n, out, fixed, scale, span, seed):
    """On the entries of rigidity matrices of random gain graphs at any
    scale, with gains up to 1 or up to 5 (where the Gram matrix is worse
    conditioned) and the size gate off, the Gram path and its fallback give
    ``lstsq``'s rank and marginal flag on the dense matrix, and a stress
    within 1e-10 |x| of its stress."""
    if n == 1:
        graph = GainGraph(d, ("v",), [])
    else:
        graph = out_degree_graph(seed, n=n, out=min(out, n - 1), d=d, span=span)
    real = random_realization(graph, ToleranceVault(), seed=seed).scaled(10.0**scale)
    matrix = (fixed_rigidity_matrix if fixed else rigidity_matrix)(graph, real)
    entries = _graph_entries(graph, real, fixed)
    got, _, _, _ = _certified_run(entries, lambda: _motion_basis(graph, real, fixed), seed)
    _assert_same_sample(got, matrix, seed)


def _planted(seed: int, rows: int, cols: int, k: int, low: float, leak: float):
    """(R, Y): R has k orthonormal near-kernel columns Y, with |R y_1| = ``leak``,
    and n - k singular values in [1, 2) except the least, ``low``."""
    rng = np.random.default_rng(seed)
    y = np.linalg.qr(rng.standard_normal((cols, k)))[0]
    rest = np.linalg.qr(np.hstack([y, rng.standard_normal((cols, cols - k))]))[0][:, k:]
    u = np.linalg.qr(rng.standard_normal((rows, cols - k + 1)))[0]
    values = rng.uniform(1.0, 2.0, cols - k)
    values[-1] = low
    return (u[:, :-1] * values) @ rest.T + leak * np.outer(u[:, -1], y[:, 0]), y


@settings(max_examples=150, deadline=None)
@given(
    st.integers(6, 60),
    st.integers(2, 60),
    st.integers(1, 3),
    st.floats(-12.0, 0.0),
    st.floats(-18.0, -2.0),
    st.integers(0, 2**32 - 1),
)
def test_certified_sample_equals_lstsq_on_planted_spectra(rows, cols, k, low, leak, seed):
    """Near every border of the proof (a least value near the cut, known
    motions that R does not quite annihilate), whenever the Gram path answers
    it gives ``lstsq``'s rank and marginal flag and a stress within 1e-10 |x|."""
    cols = max(min(cols, rows), k + 1)
    matrix, y = _planted(seed, rows, cols, k, 10.0**low, 10.0**leak)
    got, _, _, _ = _certified_run(_dense_entries(matrix), lambda: (y, _pivot_rows(y)), seed)
    _assert_same_sample(got, matrix, seed)


def _fallback_case(case: str):
    """(entries, motions, gate) of each way the Gram path leaves a trial to ``lstsq``."""
    tol = ToleranceVault()
    if case in ("small", "degree-1", "cg-cap"):
        graph = {"small": out_degree_graph(0, n=8), "degree-1": degree_one_graph()}.get(
            case, out_degree_graph(0)
        )
        real = random_realization(graph, tol, seed=1)
        gate = 56 if case == "small" else 0
        return _graph_entries(graph, real, False), lambda: _motion_basis(graph, real, False), gate
    if case.startswith("single-orbit"):
        fixed = case.endswith("fixed")
        graph = GainGraph(2, ("v",), [("v", "v", (1, 0)), ("v", "v", (0, 1)), ("v", "v", (1, 1))])
        real = random_realization(graph, tol, seed=1)
        return _graph_entries(graph, real, fixed), lambda: _motion_basis(graph, real, fixed), 0
    if case == "not-annihilated":
        rng = np.random.default_rng(3)
        y = np.linalg.qr(rng.standard_normal((60, 3)))[0]
        return _dense_entries(rng.standard_normal((80, 60))), lambda: (y, _pivot_rows(y)), 0
    if case == "ill-conditioned":
        # cond(R_Q) near 1e6: the cut is clear, but the iteration's rounding
        # would leave a stress less accurate than lstsq's
        matrix, y = _planted(5, 40, 30, 2, 1e-5, 0.0)
        return _dense_entries(matrix), lambda: (y, _pivot_rows(y)), 0
    # a least value 10x above the cut (sigma_1 < 2) and a motion leaking 10x
    # below it: the cut keeps n - k values, but with a gap of 100 it is
    # marginal, and only the gap guard stops the Cholesky
    cut = tol.rank_rel_tol * 20 * 2.0
    matrix, y = _planted(5, 20, 12, 3, 10 * cut, cut / 10)
    return _dense_entries(matrix), lambda: (y, _pivot_rows(y)), 0


# case: (whether the motions are built, Cholesky factorisations tried)
_FALLBACKS = {
    "small": (False, 0),
    "single-orbit-fixed": (True, 0),
    "single-orbit-flexible": (True, 0),
    "not-annihilated": (True, 0),
    "degree-1": (True, 1),
    "planted-marginal": (True, 1),
    "ill-conditioned": (True, 1),
    "cg-cap": (True, 1),
}


@pytest.mark.parametrize("case", list(_FALLBACKS))
def test_certified_sample_falls_back_to_lstsq(case, monkeypatch):
    """Each branch that cannot prove the cut or reach the stress returns
    ``_left_kernel_sample``'s answer with the same draw: below the size gate
    (motions never built), no column left after the pivots, fewer pivots
    than motions, motions that R does not annihilate (no Cholesky), a
    Cholesky that fails (on a graph that is not infinitesimally rigid, on a
    marginal cut, stopped by the gap guard and the stress terms of the shift,
    and on an R_Q too ill-conditioned for an accurate stress), and a rigid
    graph whose conjugate-gradient run is cut to one step."""
    entries, motions, gate = _fallback_case(case)
    if case == "cg-cap":
        monkeypatch.setattr(linalg, "_CG_MAX_STEPS", 1)
    got, fell_back, tried, asked = _certified_run(entries, motions, 7, gate)
    assert fell_back and (asked, tried) == _FALLBACKS[case]
    matrix = _scatter_rows(*entries)
    x = np.random.default_rng(7).standard_normal(matrix.shape[0])
    expected = _left_kernel_sample(matrix, x, ToleranceVault())
    assert got[:2] == expected[:2] and np.array_equal(got[2], expected[2])
    if case == "planted-marginal":
        singular = np.linalg.svd(matrix, compute_uv=False)
        assert got[:2] == (9, True) and singular[8] / singular[9] < RANK_GAP_GUARD
    if case == "degree-1":
        assert got[0] < matrix.shape[1] - 3
    if case == "ill-conditioned":
        assert got[:2] == (28, False)
    if case == "cg-cap":
        assert got[:2] == (matrix.shape[1] - 3, False)


def test_pivot_rows_partial_pivoting():
    """Largest remaining entry per column, no row twice, and a stop at a
    column that elimination zeroes."""
    m = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 5.0]])
    assert _pivot_rows(m).tolist() == [1, 2]
    assert _pivot_rows(np.array([[1.0, 2.0], [2.0, 4.0]])).tolist() == [1]
    assert _pivot_rows(np.zeros((3, 2))).tolist() == []


@pytest.mark.parametrize("q", [1, 63, 64, 65, 318, 321])
def test_block_inverses_match_inv_with_products_only(q, monkeypatch):
    """``_block_inverses`` of a Cholesky factor of order q gives each
    diagonal block's inverse (the last block padded with the identity), as
    ``np.linalg.inv`` of the block does, and calls no ``numpy.linalg``
    function."""
    rng = np.random.default_rng(q)
    a = rng.standard_normal((q + 8, q))
    factor = np.linalg.cholesky(a.T @ a)

    def forbidden(*args, **kwargs):
        raise AssertionError("_block_inverses called numpy.linalg")

    with pytest.MonkeyPatch.context() as mp:
        for name in dir(np.linalg):
            if callable(getattr(np.linalg, name)) and not name[0].isupper():
                mp.setattr(np.linalg, name, forbidden)
        inverses = linalg._block_inverses(factor)
    size = inverses.shape[1]
    assert size == min(64, 1 << (q - 1).bit_length())
    assert inverses.shape == (-(-q // size), size, size)
    for i, start in enumerate(range(0, q, size)):
        stop = min(start + size, q)
        expected = np.linalg.inv(factor[start:stop, start:stop])
        got = inverses[i, : stop - start, : stop - start]
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        assert np.array_equal(inverses[i, stop - start :, stop - start :], np.eye(size - stop + start))
        assert not np.triu(got, 1).any() and not inverses[i, : stop - start, stop - start :].any()


@pytest.mark.parametrize("ragged", [False, True])
def test_gram_is_the_lower_triangle_of_the_normal_matrix(ragged):
    """``_gram`` of a matrix given row by row, with rows of equal width (as
    R's) or of widths 1-9 (as L's, whose rows hold a vertex and its
    neighbours), and exact zeros repeating a column: the lower triangle of
    A^T A, with zeros above the diagonal."""
    rng = np.random.default_rng(5)
    m, q = 40, 12
    widths = rng.integers(1, 10, m) if ragged else np.full(m, 5)
    rows = np.repeat(np.arange(m), widths)
    cols = np.concatenate([rng.choice(q, w, replace=False) for w in widths])
    vals = rng.standard_normal(rows.size)
    vals[::7] = 0.0
    cols[::7] = 0
    dense = np.zeros((m, q))
    np.add.at(dense, (rows, cols), vals)
    gram = linalg._gram(rows, cols, vals, q)
    assert np.allclose(gram, np.tril(dense.T @ dense), rtol=0.0, atol=1e-12)
    assert not np.triu(gram, 1).any()
