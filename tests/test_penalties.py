import math

import numpy as np
import pytest

from spdpeg.model import Dataset
from spdpeg.penalties import (GraphSpec, build_fused_matrix, build_graph_matrix,
                              load_penalty, precision_graph_from_data,
                              save_penalty)
from spdpeg.sparse import SparseMatrix, power_iteration_sigma_max


def test_fused_matrix_small():
    np.testing.assert_array_equal(build_fused_matrix(3).to_dense(),
                                  [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    np.testing.assert_array_equal(build_fused_matrix(2).to_dense(), [[1.0, -1.0]])
    with pytest.raises(ValueError):
        build_fused_matrix(1)


def test_fused_matrix_spectrum():
    # eigenvalues of L^T L on a path are 2 - 2*cos(k*pi/d)
    for d in (4, 7, 12):
        exact = max(2.0 - 2.0 * math.cos(k * math.pi / d) for k in range(d))
        got = power_iteration_sigma_max(build_fused_matrix(d), tol=1e-13)
        assert got == pytest.approx(exact, rel=1e-8)


def test_fused_matrix_row_sums_zero():
    for d in (2, 5, 9):
        m = build_fused_matrix(d)
        np.testing.assert_array_equal(m.matvec(np.ones(d)), np.zeros(d - 1))


def test_graph_matrix_examples():
    np.testing.assert_array_equal(
        build_graph_matrix(GraphSpec(((0, 1, 1.0),), 2)).to_dense(), [[1.0, -1.0]])
    np.testing.assert_array_equal(
        build_graph_matrix(GraphSpec(((0, 2, 0.5),), 3)).to_dense(),
        [[0.5, 0.0, -0.5]])
    empty = build_graph_matrix(GraphSpec((), 3))
    assert empty.shape == (0, 3) and empty.nnz == 0


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(((1, 0, 1.0),), 3)
    with pytest.raises(ValueError):
        GraphSpec(((0, 1, 1.0), (0, 1, 2.0)), 3)
    with pytest.raises(ValueError):
        GraphSpec(((0, 1, 0.0),), 3)
    with pytest.raises(ValueError):
        GraphSpec(((0, 3, 1.0),), 3)


def test_graph_matrix_annihilates_componentwise_constants():
    rng = np.random.default_rng(4)
    # two components: {0,1,2} and {3,4}
    spec = GraphSpec(((0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0)), 5)
    m = build_graph_matrix(spec)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        x = np.array([a, a, a, b, b])
        np.testing.assert_allclose(m.matvec(x), np.zeros(3), atol=1e-14)


def exact_diagonal_dataset():
    # sample rows chosen so the sample covariance is exactly diagonal
    # rows [1, 0], [-1, 0], [0, 1], [0, -1], each storing its one nonzero
    return Dataset([0, 1, 2, 3, 4], [0, 0, 1, 1], [1.0, -1.0, 1.0, -1.0],
                   np.ones(4), 2)


def test_precision_graph_independent_features():
    spec = precision_graph_from_data(exact_diagonal_dataset(), ridge=0.1,
                                     threshold=1e-8)
    assert spec.edges == ()


def test_precision_graph_correlated_pair():
    rng = np.random.default_rng(6)
    z = rng.standard_normal(50)
    rows = np.stack([z, z], axis=1)
    ds = Dataset.from_dense_rows(rows, np.ones(50))
    spec = precision_graph_from_data(ds, ridge=0.1, threshold=1e-6)
    assert len(spec.edges) == 1 and spec.edges[0][:2] == (0, 1)
    # closed form for the 2x2 inverse of [[v, v], [v, v]] + r*I
    v = float(((z - z.mean()) ** 2).mean())
    expect = v / ((v + 0.1) ** 2 - v ** 2)
    assert spec.edges[0][2] == pytest.approx(expect, rel=1e-10)


def test_precision_graph_threshold_infinity():
    spec = precision_graph_from_data(exact_diagonal_dataset(), ridge=0.1,
                                     threshold=math.inf)
    assert spec.edges == ()


def test_precision_graph_permutation_equivariant():
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((60, 4))
    feats[:, 3] = feats[:, 0] + 0.05 * rng.standard_normal(60)
    ds = Dataset.from_dense_rows(feats, np.ones(60))
    perm = np.array([2, 0, 3, 1])  # new index of each old feature
    ds_p = Dataset.from_dense_rows(feats[:, np.argsort(perm)], np.ones(60))
    base = precision_graph_from_data(ds, ridge=0.05, threshold=1e-2)
    remapped = sorted((min(perm[i], perm[j]), max(perm[i], perm[j]), round(w, 9))
                      for i, j, w in base.edges)
    got = sorted((i, j, round(w, 9))
                 for i, j, w in precision_graph_from_data(ds_p, ridge=0.05,
                                                          threshold=1e-2).edges)
    assert remapped == got


def test_penalty_file_roundtrip(tmp_path):
    m = SparseMatrix.from_dense([[1.0, -1.5, 0.0], [0.0, 0.25, -1.0]])
    path = tmp_path / "penalty.txt"
    save_penalty(path, m)
    loaded = load_penalty(path)
    np.testing.assert_array_equal(loaded.to_dense(), m.to_dense())


def test_penalty_file_strict_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        load_penalty(path)
    path.write_text("1 2 2\n0 0 1.0\n")
    with pytest.raises(ValueError, match="expected 2 entries"):
        load_penalty(path)
    path.write_text("1 2 2\n0 1 1.0\n0 0 2.0\n")
    with pytest.raises(ValueError, match="row-major"):
        load_penalty(path)
    path.write_text("2 2 2\n0 1 1.0\n0 1 2.0\n")
    with pytest.raises(ValueError, match="line 3: .*without duplicates"):
        load_penalty(path)
    path.write_text("1 2 1\n0 5 1.0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_penalty(path)
    path.write_text("1 2 1\n0 1 abc\n")
    with pytest.raises(ValueError, match="line 2"):
        load_penalty(path)
