
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_calls, fingerprint, reference_power_iteration,
                      sparse_from_dense)
from spdpeg import bench, sparse
from spdpeg.data import synthesize
from spdpeg.model import Dataset
from spdpeg.penalties import build_fused_matrix, build_graph_matrix
from spdpeg.sparse import (DENSE_SIGMA_MAX_D, PowerIterationError, SparseMatrix,
                           dense_sigma_max_bound, power_iteration_sigma_max)

FIRST_DIFF_2x3 = sparse_from_dense([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


def test_matvec_first_difference():
    np.testing.assert_allclose(FIRST_DIFF_2x3.matvec([3.0, 1.0, 1.0]), [2.0, 0.0])


def test_matvec_identity():
    eye = sparse_from_dense(np.eye(3))
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
    m = sparse_from_dense(dense)
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
    m = sparse_from_dense(dense)
    u = rng.standard_normal(n_cols)
    v = rng.standard_normal(n_rows)
    left = m.matvec(u) @ v
    right = u @ m.rmatvec(v)
    assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


def test_sigma_max_first_difference():
    # eigenvalues of M^T M are {0, 1, 3}
    assert power_iteration_sigma_max(FIRST_DIFF_2x3) == pytest.approx(3.0, rel=1e-8)


def test_sigma_max_identity():
    eye = sparse_from_dense(np.eye(3))
    assert power_iteration_sigma_max(eye) == pytest.approx(1.0, rel=1e-12)


def test_sigma_max_scalar():
    m = sparse_from_dense([[2.0]])
    assert power_iteration_sigma_max(m) == pytest.approx(4.0, rel=1e-12)


def test_sigma_max_deterministic():
    a = power_iteration_sigma_max(FIRST_DIFF_2x3)
    b = power_iteration_sigma_max(FIRST_DIFF_2x3)
    assert a == b


def test_sigma_max_is_cached_per_matrix():
    m = sparse_from_dense([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    assert m.sigma_max_FtF == dense_sigma_max_bound(m)
    assert m.sigma_max_FtF is m.sigma_max_FtF
    assert SparseMatrix(2, 3, [0, 0, 0], [], []).sigma_max_FtF == 0.0


def test_sigma_max_zero_matrix():
    zero = SparseMatrix(2, 3, [0, 0, 0], [], [])
    assert power_iteration_sigma_max(zero) == 0.0


def test_sigma_max_rayleigh_lower_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dense = rng.standard_normal((5, 4))
        m = sparse_from_dense(dense)
        sigma = power_iteration_sigma_max(m, tol=1e-12)
        v = rng.standard_normal(4)
        rq = np.linalg.norm(m.matvec(v)) ** 2 / (v @ v)
        assert sigma >= rq - 1e-8 * max(1.0, rq)


def test_sigma_max_nonconvergence_raises_with_estimate():
    m = sparse_from_dense(np.diag([1.0, 0.9999]))
    with pytest.raises(PowerIterationError) as exc:
        power_iteration_sigma_max(m, tol=1e-16, max_iter=3)
    assert 0.9 < exc.value.last_estimate <= 1.0


def test_power_iteration_error_survives_pickle():
    err = pickle.loads(pickle.dumps(PowerIterationError("did not converge", 3.5)))
    assert type(err) is PowerIterationError
    assert (str(err), err.last_estimate) == ("did not converge", 3.5)


def _random_sparse(seed: int) -> SparseMatrix:
    """A random sparse matrix with at least one empty row and column."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = rng.integers(2, 30, size=2)
    dense = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.4)
    dense[rng.integers(n_rows)] = 0.0
    dense[:, rng.integers(n_cols)] = 0.0
    return sparse_from_dense(dense)


def _graph_penalty(d: int, seed: int) -> SparseMatrix:
    _, graph, _ = synthesize("graph-logistic", d, 4, 0.1, seed)
    return build_graph_matrix(graph)


GUARD_MATRICES = {
    **{f"fused-d{d}": lambda d=d: build_fused_matrix(d) for d in (2, 3, 20, 50, 200)},
    **{f"graph-d{d}-seed{seed}": lambda d=d, seed=seed: _graph_penalty(d, seed)
       for d in (5, 20, 40) for seed in range(5)},
    **{f"random-seed{seed}": lambda seed=seed: _random_sparse(seed)
       for seed in range(10)},
    "zero": lambda: SparseMatrix(2, 3, [0, 0, 0], [], []),
    "stored-zeros": lambda: SparseMatrix(2, 3, [0, 1, 2], [0, 2], [0.0, 0.0]),
}


def _bits(fn, m, **kwargs):
    """theta in hex, or the estimate in hex and the message it raised with."""
    try:
        return float.hex(fn(m, **kwargs))
    except PowerIterationError as exc:
        return float.hex(exc.last_estimate), str(exc)


@pytest.mark.parametrize("name", GUARD_MATRICES)
def test_power_iteration_is_bitwise_the_reference_loop(name):
    m = GUARD_MATRICES[name]()
    for kwargs in ({}, {"tol": 1e-12}, {"max_iter": 3}):
        assert (_bits(power_iteration_sigma_max, m, **kwargs)
                == _bits(reference_power_iteration, m, **kwargs)), kwargs


# the most ulp by which dense_sigma_max_bound exceeds the exact eigenvalue
# on the matrices below; the largest seen is about 2,200
DENSE_BOUND_MAX_ULP = 4096


def _core_penalty(family: str) -> SparseMatrix:
    core = bench.rate_core(family)
    train, _, graph = bench.build_data(core["data"])
    return bench.build_penalty(core["penalty"], train, graph)


def test_dense_sigma_max_bounds_the_exact_eigenvalue():
    # mpmath is not a dependency of the package; it is used only in tests,
    # as 50-digit arithmetic to check the bound against
    mpmath = pytest.importorskip("mpmath")
    matrices = {"sc": _core_penalty("sc"),
                **{f"graph-d{d}-seed{seed}": _graph_penalty(d, seed)
                   for d in (2, 3, 5, 10, 20, 30, 40) for seed in range(3)},
                **{f"random-seed{seed}": _random_sparse(seed) for seed in range(10)}}
    with mpmath.workdps(50):
        for name, m in matrices.items():
            got = m.sigma_max_FtF
            a = mpmath.matrix(m.to_dense().tolist())
            exact = max(mpmath.eigsy(a.T * a, eigvals_only=True))
            excess = (mpmath.mpf(got) - exact) / math.ulp(got)
            assert 0 <= excess <= DENSE_BOUND_MAX_ULP, (name, float(excess))


def test_sigma_max_is_dense_up_to_the_cut_over(monkeypatch):
    assert DENSE_SIGMA_MAX_D < 300  # a d=300 file penalty reaches the loop
    dense = count_calls(monkeypatch, sparse, "dense_sigma_max_bound")
    powers = count_calls(monkeypatch, sparse, "power_iteration_sigma_max")
    for d, expect in ((DENSE_SIGMA_MAX_D, (1, 0)), (DENSE_SIGMA_MAX_D + 1, (0, 1))):
        dense.clear()
        powers.clear()
        m = _graph_penalty(d, 0)
        assert m.sigma_max_FtF == m.sigma_max_FtF > 0.0
        assert (len(dense), len(powers)) == expect, d


def test_sigma_max_of_the_benchmark_cores_is_pinned(pinned):
    for family in ("convex", "sc"):
        pinned(f"sigma/{family}", float.hex(_core_penalty(family).sigma_max_FtF))
    # the large-n workload's penalty is the fused one of d=50
    pinned("sigma/fused-d50", float.hex(build_fused_matrix(50).sigma_max_FtF))


def test_sigma_max_rejects_bad_tol():
    with pytest.raises(ValueError):
        power_iteration_sigma_max(FIRST_DIFF_2x3, tol=0.0)


def test_fingerprint_tracks_content():
    a = sparse_from_dense([[1.0, 0.0], [0.0, 2.0]])
    b = sparse_from_dense([[1.0, 0.0], [0.0, 2.0]])
    c = sparse_from_dense([[1.0, 0.0], [0.0, 3.0]])
    assert fingerprint(a) == fingerprint(b) != fingerprint(c)
    labels = np.array([1.0, -1.0])
    assert fingerprint(a, labels) not in (fingerprint(a), fingerprint(a, -labels))


def test_fingerprint_is_pinned(pinned):
    # the fingerprint/ pins were recorded with the implementation that
    # predates Dataset.features; they pin the CSR arrays a matrix holds
    zero = SparseMatrix(2, 3, [0, 0, 0], [], [])
    pinned("fingerprint/first-diff-2x3", fingerprint(FIRST_DIFF_2x3))
    pinned("fingerprint/zero-2x3", fingerprint(zero))


# five rows over four features: ragged, rows 1 and 4 empty, a stored -0.0
RAGGED = SparseMatrix(5, 4, [0, 2, 2, 5, 6, 6], [0, 3, 0, 1, 2, 3],
                      [1.5, -0.0, 2.0, -3.0, 0.25, 4.0])
# three rows of two stored entries each: one row length, below n_cols
UNIFORM = SparseMatrix(3, 4, [0, 2, 4, 6], [0, 3, 1, 2, 0, 1],
                       [1.5, -0.0, 2.0, -3.0, 0.25, 4.0])


def checked_take(m, rows):
    """The gather of ``take_rows`` built through the checked constructor."""
    rows = np.asarray(rows, dtype=np.int64)
    starts, ends = m.row_offsets[rows], m.row_offsets[rows + 1]
    gather = np.concatenate([np.arange(a, b) for a, b in zip(starts, ends)]
                            + [np.zeros(0, dtype=np.int64)])
    return SparseMatrix(rows.size, m.n_cols,
                        np.concatenate([[0], np.cumsum(ends - starts)]),
                        m.col_indices[gather], m.values[gather])


@pytest.mark.parametrize("m, rows", [
    pytest.param(RAGGED, [0, 1, 2, 3, 4], id="all"),
    pytest.param(RAGGED, [3, 0, 2], id="ragged"),
    pytest.param(RAGGED, [1, 4], id="only-empty"),
    pytest.param(RAGGED, [4, 2, 2, 1, 2, 0], id="repeated"),
    pytest.param(RAGGED, [], id="none"),
    pytest.param(UNIFORM, [0, 1, 2], id="uniform-all"),
    pytest.param(UNIFORM, [2, 0], id="uniform-reversed"),
    pytest.param(UNIFORM, [1, 1, 1, 0], id="uniform-repeated"),
    pytest.param(UNIFORM, [], id="uniform-none"),
])
def test_take_rows_equals_checked_gather(m, rows):
    got, want = m.take_rows(rows), checked_take(m, rows)
    assert got.shape == want.shape == (len(rows), 4)
    for name in ("row_offsets", "col_indices", "values", "row_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    np.testing.assert_array_equal(got.to_dense(), m.to_dense()[rows])


def test_take_rows_rejects_rows_out_of_range():
    for rows in ([5], [-1], [[0, 1]]):
        with pytest.raises(IndexError):
            RAGGED.take_rows(rows)


def test_full_rows():
    # one row length below d is not full; rows of every column are, and
    # only those have dense rows, at every n and d
    assert Dataset(UNIFORM, np.ones(3)).dense_rows is None
    assert Dataset(RAGGED, np.ones(5)).dense_rows is None
    assert Dataset(SparseMatrix(2, 3, [0, 0, 0], [], []), np.ones(2)).dense_rows is None
    empty = Dataset(SparseMatrix(2, 0, [0, 0, 0], [], []), np.ones(2))
    assert empty.dense_rows.shape == (2, 0)
    full = Dataset(SparseMatrix(3, 2, [0, 2, 4, 6], [0, 1, 0, 1, 0, 1],
                                [1.5, -0.0, 2.0, -3.0, 0.25, 4.0]), np.ones(3))
    assert full.dense_rows.shape == (3, 2)
    assert full.subset([2, 2, 0]).dense_rows.shape == (3, 2)
    assert Dataset(UNIFORM, np.ones(3)).subset([2, 2, 0]).dense_rows is None
    dense = Dataset.from_dense_rows(np.zeros((3, 1)), np.ones(3))
    assert dense.dense_rows.shape == (3, 1)
    assert dense.subset([1]).dense_rows.shape == (1, 1)
