"""Maximal minors of frames in R^n, their volume element, and Cramer solves.

Coordinates are indexed by the strictly increasing index combinations in
lexicographic order; the coordinate for (i1 < ... < im) is the maximal
minor of the n x m matrix of the input vectors. One algorithm takes them,
wedge_ring: it runs over any commutative ring (floats, numpy arrays,
batched jets, exact polynomials) and builds the minors column by column,
each from the minors of the columns before it. `minors` hands it a whole
stack of float frames as arrays, and every float frame volume, maximal
minor and immersion test reads it; the jet route (sweep._minor_jets) hands
it frames of jets, and the zero-volume certificate
(sweep.frame_minors_vanish) frames of exact polynomials. Their Euclidean
norm equals sqrt(det(Gram)) of the frame (Cauchy-Binet): the volume
element, which frame_norm gives for a stack of frames and every frame
volume in the library reads; frame_ratio, its share of the Hadamard bound,
is the rank measure every rank test compares with RANK_FLOOR. `solve`,
Cramer's rule on the minors of [A | b]^T, takes every square solve.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

#: a frame whose frame_ratio is at most this has dropped rank; the ratio, a
#: product of sines, keeps its value when the scene or any column is rescaled
RANK_FLOOR = 1e-8


class DimensionMismatch(Exception):
    pass


def index_combinations(n: int, k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(n), k))


def minors(A) -> np.ndarray:
    """Every maximal minor of each n x k matrix of the stack A (..., n, k),
    k <= n, in combination order: shape (..., C(n, k)), by wedge_ring over
    the stack's entries. For k = 1 the minors are the column itself."""
    A = np.asarray(A, dtype=float)
    n, k = A.shape[-2:]
    return np.stack(wedge_ring([[A[..., r, c] for r in range(n)] for c in range(k)]),
                    axis=-1)


def max_minor_rows(A) -> np.ndarray:
    """Rows (..., k) of the maximal minor of largest |det| of each n x k
    matrix of the stack A (..., n, k); the first in combination order on a tie."""
    n, k = np.shape(A)[-2:]
    return np.array(index_combinations(n, k))[np.argmax(np.abs(minors(A)), axis=-1)]


def frame_norm(A) -> np.ndarray:
    """Volume element |a_1 ^ ... ^ a_k| of each n x k frame of the stack A
    (..., n, k): the norm of its maximal minors, sqrt(det(Gram)) by
    Cauchy-Binet. Shape (...)."""
    return np.linalg.norm(minors(A), axis=-1)


def frame_ratio(A) -> np.ndarray:
    """frame_norm over the product of the column norms of the stack A (..., n, k),
    in [0, 1] (Hadamard), 0 for a zero column; taken on unit columns."""
    norms = np.linalg.norm(A, axis=-2, keepdims=True)
    return frame_norm(A / np.where(norms > 0.0, norms, 1.0))


def solve(A, b) -> np.ndarray:
    """x with A x = b for each m x m matrix of the stack A (..., m, m), b
    (..., m) broadcast against it: Cramer's rule on one wedge_ring call over
    the rows of [A | b], whose minor 0 is det A and minor m - i is
    (-1)^(m-1-i) det(A with column i replaced by b). A |det| below 1e-300
    is taken as 1e-300: a singular row gives a huge or infinite x, no error.
    The guard is absolute on purpose: it stands in for 0 near the underflow
    limit (the smallest normal double is 2.2e-308) and decides nothing, so
    it leaves every determinant of any scene in the double range as it is;
    whether a step is usable is for the caller (projected Newton clips it
    and tests its merit)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    m = A.shape[-1]
    minor = wedge_ring([[*(A[..., i, c] for c in range(m)), b[..., i]] for i in range(m)])
    det = np.where(np.abs(minor[0]) < 1e-300, 1e-300, minor[0])
    with np.errstate(over="ignore"):
        x = [(-minor[m - i] if (m - 1 - i) % 2 else minor[m - i]) / det for i in range(m)]
    return np.stack(x, axis=-1)  # each x_i has the broadcast shape of A and b


def wedge_ring(vectors: list[list]) -> list:
    """Every maximal minor of vectors with ring entries.

    `vectors` is a list of m vectors, each a length-n list of elements of a
    commutative ring (+, - and * suffice): floats, arrays or jets. Returns
    the C(n, m) coordinates in combination order. The minors on the first
    j + 1 vectors come from those on the first j by Laplace expansion along
    vector j, so each lower minor is computed once.
    """
    m = len(vectors)
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch("all vectors must have the same dimension")
    if m > n:
        raise DimensionMismatch(f"cannot wedge {m} vectors in dimension {n}")
    blade = {(r,): vectors[0][r] for r in range(n)}
    for j in range(1, m):
        column, lower = vectors[j], blade
        blade = {}
        for rows in combinations(range(n), j + 1):
            total = None
            for p, r in enumerate(rows):
                term = column[r] * lower[rows[:p] + rows[p + 1:]]
                if (p + j) % 2:
                    total = -term if total is None else total - term
                else:
                    total = term if total is None else total + term
            blade[rows] = total
    return list(blade.values())
