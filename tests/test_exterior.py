import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from osclab.exterior import (
    DimensionMismatch,
    frame_norm,
    frame_ratio,
    index_combinations,
    max_minor_rows,
    minors,
    solve,
    wedge_ring,
)
from osclab.jets import Jet
from oracles import gram_volume, leibniz_minors


def _frame(*vectors) -> np.ndarray:
    """The n x k matrix whose columns are the given vectors."""
    return np.stack(vectors, axis=-1).astype(float)


def test_basis_wedge():
    e = np.eye(3)
    assert np.array_equal(minors(_frame(e[0], e[1])), [1.0, 0.0, 0.0])  # rows (0,1) first


def test_dependent_vectors_give_zero_blade():
    v = np.array([0.3, -1.2, 2.0])
    assert np.array_equal(minors(_frame(v, v)), np.zeros(3))
    assert frame_norm(_frame(v, v)) == 0.0


def test_shear_invariance():
    A = _frame([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert np.array_equal(minors(A), [1.0, 0.0, 0.0])


def test_norm_examples():
    e = np.eye(3)
    assert frame_norm(_frame(e[0], e[1])) == 1.0
    assert frame_norm(_frame(2 * e[0], 3 * e[1])) == 6.0
    assert frame_norm(_frame([1.0, 0.0], [1.0, 1.0])) == 1.0


def test_frame_ratio_measures_angles_not_lengths():
    """The frame norm over the product of the column norms: 1 for
    orthogonal columns, the sine of their angle for two, unchanged when one
    column is rescaled, and 0 when a column is 0 or the rank drops."""
    e = np.eye(3)
    assert frame_ratio(_frame(2 * e[0], 3e-9 * e[1])) == 1.0
    tilted = _frame([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert frame_ratio(tilted) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert frame_ratio(tilted * [1e-150, 1e150]) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert frame_ratio(_frame(e[0], 0 * e[1])) == 0.0
    v = np.array([0.3, -1.2, 2.0])
    assert frame_ratio(_frame(v, v)) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(5, 4, 3))
    got = frame_ratio(A)
    assert got.shape == (5,) and np.all((got >= 0.0) & (got <= 1.0))
    assert np.allclose(got, frame_norm(A) / np.prod(np.linalg.norm(A, axis=-2), axis=-1),
                       rtol=1e-13, atol=0.0)


def test_gram_equivalence_on_random_frames():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        frame = [rng.normal(size=n) for _ in range(m)]
        lhs = frame_norm(_frame(*frame))
        rhs = gram_volume(frame)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_frame_norm_of_a_stack_matches_gram():
    """One call on a (5, 6, 4, 2) stack: shape (5, 6), each entry against
    the Gram oracle of its own frame."""
    rng = np.random.default_rng(31)
    A = rng.normal(size=(5, 6, 4, 2))
    got = frame_norm(A)
    assert got.shape == (5, 6)
    for idx in np.ndindex(5, 6):
        want = gram_volume(list(A[idx].T))
        assert abs(got[idx] - want) <= 1e-10 * max(1.0, want)


def _swap_two(rng, A):
    i, j = rng.choice(A.shape[-1], size=2, replace=False)
    swapped = A.copy()
    swapped[:, [i, j]] = A[:, [j, i]]
    return swapped


def test_antisymmetry_is_exact():
    """On small-integer frames every minor is an exact integer, so swapping
    two vectors negates each one exactly."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        A = rng.integers(-4, 5, size=(n, m)).astype(float)
        assert np.array_equal(minors(_swap_two(rng, A)), -minors(A))


def test_antisymmetry_on_random_frames():
    """Within 1e-14 of the Hadamard bound prod |a_c|: the swapped frame's
    minors are summed in another order."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        A = rng.normal(size=(n, m))
        hadamard = float(np.prod(np.linalg.norm(A, axis=0)))
        gap = minors(_swap_two(rng, A)) + minors(A)
        assert np.max(np.abs(gap)) <= 1e-14 * hadamard


_scalars = st.one_of(st.just(0.0), st.floats(0.001, 3), st.floats(-3, -0.001))


@given(_scalars, _scalars)
def test_multilinearity(alpha, beta):
    rng = np.random.default_rng(11)
    u, w, v2, v3 = rng.normal(size=(4, 4))
    left = minors(_frame(alpha * u + beta * w, v2, v3))
    right = alpha * minors(_frame(u, v2, v3)) + beta * minors(_frame(w, v2, v3))
    assert np.all(np.abs(left - right) <= 1e-12 * max(1.0, np.max(np.abs(right))))


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        wedge_ring([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        wedge_ring([[1.0, 1.0], [1.0, 1.0, 1.0]])


def test_combination_order_is_lexicographic():
    assert index_combinations(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_wedge_ring_matches_float_wedge():
    """Over Python floats, the kernel gives the minors of the float stack."""
    rng = np.random.default_rng(7)
    frame = [rng.normal(size=4) for _ in range(3)]
    ring = wedge_ring([[float(c) for c in v] for v in frame])
    assert all(type(c) is float for c in ring)
    assert np.allclose(ring, minors(_frame(*frame)), rtol=1e-12, atol=1e-12)


def test_wedge_ring_matches_leibniz_oracle():
    """Batched jets (7 points, degree 3) and numpy arrays, every 1 <= k <= n <= 5."""
    rng = np.random.default_rng(23)
    for n in range(1, 6):
        for k in range(1, n + 1):
            jets = [[Jet(rng.normal(size=(7, 4))) for _ in range(n)] for _ in range(k)]
            arrays = [[rng.normal(size=7) for _ in range(n)] for _ in range(k)]
            for vectors, value in ((jets, lambda j: j.coeffs), (arrays, np.asarray)):
                got = [value(c) for c in wedge_ring(vectors)]
                want = [value(c) for c in leibniz_minors(vectors)]
                assert len(got) == len(index_combinations(n, k))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * scale


def test_minors_match_per_combination_dets():
    """Each row against a per-combination LAPACK det loop (an independent
    algorithm), within 1e-14 of the Hadamard bound prod |a_c|; k = 1 gives
    the column itself, exactly."""
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        for k in range(1, n + 1):
            A = rng.normal(size=(50, 4, n, k))
            got = minors(A)
            assert got.shape == (50, 4, len(index_combinations(n, k)))
            if k == 1:
                assert np.array_equal(got, A[..., 0])
            for idx in np.ndindex(50, 4):
                hadamard = float(np.prod(np.linalg.norm(A[idx], axis=0)))
                loop = [np.linalg.det(A[idx][list(rows), :])
                        for rows in index_combinations(n, k)]
                assert np.max(np.abs(got[idx] - loop)) <= 1e-14 * hadamard
                # Cauchy-Binet; the Gram determinant's rounding scales with
                # the Hadamard bound prod |a_c|^2, not with the volume
                gap = np.sum(got[idx] ** 2) - gram_volume(list(A[idx].T)) ** 2
                assert abs(gap) <= 1e-12 * hadamard**2


def test_minors_reject_wide_matrices():
    with pytest.raises(DimensionMismatch):
        minors(np.ones((2, 3)))


def test_max_minor_rows():
    J = np.array([[1.0, 0.0], [0.0, 0.1], [0.0, 2.0]])
    assert max_minor_rows(J).tolist() == [0, 2]
    assert max_minor_rows(np.zeros((3, 2))).tolist() == [0, 1]  # first on a tie
    # a stack gives the rows of each matrix, ties included: small integer
    # entries make equal |minors| common
    rng = np.random.default_rng(8)
    stack = rng.integers(-1, 2, size=(5, 6, 4, 2)).astype(float)
    rows = max_minor_rows(stack)
    assert rows.shape == (5, 6, 2)
    ties = 0
    for index in np.ndindex(5, 6):
        assert np.array_equal(rows[index], max_minor_rows(stack[index]))
        mags = np.abs(minors(stack[index]))
        ties += np.count_nonzero(mags == mags.max()) > 1
    assert ties >= 5


def _closed_form_solve(A, b):
    """The m = 1 and m = 2 closed forms the projection's Newton step used
    before solve: the reference for bit identity."""
    if A.shape[-1] == 1:
        den = A[:, 0, 0]
        den = np.where(np.abs(den) < 1e-300, 1e-300, den)
        return (b[:, 0] / den)[:, None]
    a, bb = A[:, 0, 0], A[:, 0, 1]
    c, e = A[:, 1, 0], A[:, 1, 1]
    det = a * e - bb * c
    det = np.where(np.abs(det) < 1e-300, 1e-300, det)
    return np.stack([(e * b[:, 0] - bb * b[:, 1]) / det,
                     (a * b[:, 1] - c * b[:, 0]) / det], axis=-1)


@pytest.mark.parametrize("m", [1, 2])
def test_solve_matches_closed_forms_bit_for_bit(m):
    """Random stacks with some singular and some near-singular rows."""
    rng = np.random.default_rng(40 + m)
    A = rng.normal(size=(2000, m, m))
    b = rng.normal(size=(2000, m))
    A[:50] = 0.0
    A[50:100, -1] = A[50:100, 0]
    A[100:150] = 10.0 ** (-300 / m - 1) * np.eye(m)   # det below 1e-300
    assert np.array_equal(solve(A, b), _closed_form_solve(A, b))


@pytest.mark.parametrize("m", [3, 4])
def test_solve_matches_lapack(m):
    """Well-conditioned stacks (diagonally dominant): within 1e-12 of
    LAPACK's solution, relative to its size."""
    rng = np.random.default_rng(50 + m)
    A = rng.normal(size=(500, m, m)) + 2.0 * m * np.eye(m)
    b = rng.normal(size=(500, m))
    got = solve(A, b)
    want = np.linalg.solve(A, b[..., None])[..., 0]
    assert got.shape == (500, m)
    size = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * size)


def test_solve_broadcasts_one_matrix_over_many_right_hand_sides():
    """One 3 x 3 matrix against 7 right-hand sides, as the re-chart's
    series correction uses it: each row equals its own solve exactly."""
    rng = np.random.default_rng(57)
    A = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
    B = rng.normal(size=(7, 3))
    X = solve(A, B)
    assert X.shape == (7, 3)
    for j in range(7):
        assert np.array_equal(X[j], solve(A, B[j]))
    assert np.allclose(X @ A.T, B, rtol=0.0, atol=1e-13)


def test_solve_guards_singular_rows_without_warning():
    A = np.array([[[1.0, 2.0], [2.0, 4.0]]] * 3)
    b = np.array([[1.0, 0.0], [1e10, 0.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = solve(A, b)
        x1 = solve(np.zeros((1, 1, 1)), np.ones((1, 1)))
    assert np.array_equal(x[0], [4.0 / 1e-300, -2.0 / 1e-300])  # det taken as 1e-300
    assert np.all(np.isinf(x[1]))                  # overflow, silenced
    assert np.array_equal(x[2], [0.0, 0.0])
    assert x1[0, 0] == 1.0 / 1e-300
