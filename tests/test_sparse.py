
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdpeg.sparse import (PowerIterationError, SparseMatrix,
                           power_iteration_sigma_max)

FIRST_DIFF_2x3 = SparseMatrix.from_dense([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


def test_matvec_first_difference():
    np.testing.assert_allclose(FIRST_DIFF_2x3.matvec([3.0, 1.0, 1.0]), [2.0, 0.0])


def test_matvec_identity():
    eye = SparseMatrix.from_dense(np.eye(3))
    np.testing.assert_array_equal(eye.matvec([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_matvec_zero_matrix():
    zero = SparseMatrix(2, 3, [0, 0, 0], [], [])
    np.testing.assert_array_equal(zero.matvec([5.0, -1.0, 2.0]), [0.0, 0.0])


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError, match="length 3"):
        FIRST_DIFF_2x3.matvec([1.0, 2.0])
    with pytest.raises(ValueError, match="length 2"):
        FIRST_DIFF_2x3.rmatvec([1.0, 2.0, 3.0])


def test_structure_validation():
    with pytest.raises(ValueError, match="row_offsets"):
        SparseMatrix(2, 2, [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="out of range"):
        SparseMatrix(1, 2, [0, 1], [2], [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])


def test_basis_vectors_reproduce_entries():
    rng = np.random.default_rng(0)
    dense = np.round(rng.standard_normal((4, 6)) * (rng.random((4, 6)) < 0.4), 3)
    m = SparseMatrix.from_dense(dense)
    for j in range(6):
        e = np.zeros(6)
        e[j] = 1.0
        np.testing.assert_array_equal(m.matvec(e), dense[:, j])
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        np.testing.assert_array_equal(m.rmatvec(e), dense[i])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 8), st.integers(2, 8))
def test_adjoint_identity(seed, n_rows, n_cols):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.5)
    m = SparseMatrix.from_dense(dense)
    u = rng.standard_normal(n_cols)
    v = rng.standard_normal(n_rows)
    left = m.matvec(u) @ v
    right = u @ m.rmatvec(v)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


def test_sigma_max_first_difference():
    # eigenvalues of M^T M are {0, 1, 3}
    assert power_iteration_sigma_max(FIRST_DIFF_2x3) == pytest.approx(3.0, rel=1e-8)


def test_sigma_max_identity():
    eye = SparseMatrix.from_dense(np.eye(3))
    assert power_iteration_sigma_max(eye) == pytest.approx(1.0, rel=1e-12)


def test_sigma_max_scalar():
    m = SparseMatrix.from_dense([[2.0]])
    assert power_iteration_sigma_max(m) == pytest.approx(4.0, rel=1e-12)


def test_sigma_max_deterministic():
    a = power_iteration_sigma_max(FIRST_DIFF_2x3)
    b = power_iteration_sigma_max(FIRST_DIFF_2x3)
    assert a == b


def test_sigma_max_zero_matrix():
    zero = SparseMatrix(2, 3, [0, 0, 0], [], [])
    assert power_iteration_sigma_max(zero) == 0.0


def test_sigma_max_rayleigh_lower_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dense = rng.standard_normal((5, 4))
        m = SparseMatrix.from_dense(dense)
        sigma = power_iteration_sigma_max(m, tol=1e-12)
        v = rng.standard_normal(4)
        rq = np.linalg.norm(m.matvec(v)) ** 2 / (v @ v)
        assert sigma >= rq - 1e-8 * max(1.0, rq)


def test_sigma_max_nonconvergence_raises_with_estimate():
    m = SparseMatrix.from_dense(np.diag([1.0, 0.9999]))
    with pytest.raises(PowerIterationError) as exc:
        power_iteration_sigma_max(m, tol=1e-16, max_iter=3)
    assert 0.9 < exc.value.last_estimate <= 1.0


def test_sigma_max_rejects_bad_tol():
    with pytest.raises(ValueError):
        power_iteration_sigma_max(FIRST_DIFF_2x3, tol=0.0)


def test_fingerprint_tracks_content():
    a = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    b = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    c = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 3.0]])
    assert a.fingerprint() == b.fingerprint() != c.fingerprint()
    labels = np.array([1.0, -1.0])
    assert a.fingerprint(labels) not in (a.fingerprint(), a.fingerprint(-labels))


def test_fingerprint_is_pinned():
    # generated with the implementation that predates Dataset.features;
    # reference-optimum cache keys hash these digests
    zero = SparseMatrix(2, 3, [0, 0, 0], [], [])
    assert FIRST_DIFF_2x3.fingerprint() == \
        "b6dd5b4cfac1f4547db974c4d1e7ebb7412ddd0476cc2b0de17eef1b2cd9e754"
    assert zero.fingerprint() == \
        "9298a62c7efea8bcbd08a5cbe5d3f686e143a1daaf542820f44cbcb7d2c8c99b"
