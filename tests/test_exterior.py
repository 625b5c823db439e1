import numpy as np
import pytest
from hypothesis import given, strategies as st

from osclab.exterior import (
    Blade,
    DimensionMismatch,
    blade_norm,
    frame_norm,
    index_combinations,
    max_minor_rows,
    minors,
    wedge,
    wedge_ring,
)
from osclab.jets import Jet
from oracles import gram_volume, leibniz_minors


def test_basis_wedge():
    b = wedge([np.eye(3)[0], np.eye(3)[1]])
    assert b.grade == 2 and b.n == 3
    assert np.array_equal(b.coords, [1.0, 0.0, 0.0])  # combination (0,1) first


def test_dependent_vectors_give_zero_blade():
    v = np.array([0.3, -1.2, 2.0])
    assert wedge([v, v]).is_zero()


def test_shear_invariance():
    b = wedge([np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])])
    assert np.array_equal(b.coords, [1.0, 0.0, 0.0])


def test_norm_examples():
    assert blade_norm(wedge([np.eye(3)[0], np.eye(3)[1]])) == 1.0
    assert blade_norm(wedge([2 * np.eye(3)[0], 3 * np.eye(3)[1]])) == 6.0
    assert blade_norm(wedge([np.array([1.0, 0.0]), np.array([1.0, 1.0])])) == 1.0


def test_gram_equivalence_on_random_frames():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        frame = [rng.normal(size=n) for _ in range(m)]
        lhs = blade_norm(wedge(frame))
        rhs = gram_volume(frame)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_antisymmetry_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, n + 1))
        frame = [rng.normal(size=n) for _ in range(m)]
        i, j = sorted(rng.choice(m, size=2, replace=False))
        swapped = list(frame)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert np.array_equal(wedge(frame).coords, -wedge(swapped).coords)


_scalars = st.one_of(st.just(0.0), st.floats(0.001, 3), st.floats(-3, -0.001))


@given(_scalars, _scalars)
def test_multilinearity(alpha, beta):
    rng = np.random.default_rng(11)
    u, w, v2, v3 = rng.normal(size=(4, 4))
    left = wedge([alpha * u + beta * w, v2, v3]).coords
    right = alpha * wedge([u, v2, v3]).coords + beta * wedge([w, v2, v3]).coords
    assert np.all(np.abs(left - right) <= 1e-12 * max(1.0, np.max(np.abs(right))))


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        wedge([np.ones(2), np.ones(2), np.ones(2)])
    with pytest.raises(DimensionMismatch):
        wedge([np.ones(2), np.ones(3)])
    with pytest.raises(DimensionMismatch):
        Blade(n=3, grade=2, coords=np.zeros(4))


def test_combination_order_is_lexicographic():
    assert index_combinations(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_wedge_ring_matches_float_wedge():
    rng = np.random.default_rng(7)
    frame = [rng.normal(size=4) for _ in range(3)]
    ring = wedge_ring([list(v) for v in frame])
    direct = wedge(frame).coords
    assert np.allclose(ring, direct, rtol=1e-12, atol=1e-12)


def test_frame_norm_alias():
    assert frame_norm([np.array([1.0, 0.0]), np.array([1.0, 1.0])]) == 1.0


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
    assert max_minor_rows(J) == (0, 2)
    assert max_minor_rows(np.zeros((3, 2))) == (0, 1)  # first on a tie
