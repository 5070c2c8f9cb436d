import math
import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import count_calls, csr_dataset, save_penalty, sparse_from_dense
from spdpeg import bench, sparse
from spdpeg.model import Dataset
from spdpeg.penalties import (GraphSpec, build_fused_matrix, build_graph_matrix,
                              load_penalty, precision_graph_from_data)
from spdpeg.sparse import BLAS_MAX_VALUES, SparseMatrix, power_iteration_sigma_max


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


def test_fused_sigma_max_bounds_the_exact_eigenvalue():
    # mpmath is not a dependency of the package; it is used only here, as
    # 50-digit arithmetic to check the closed form against
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for d in range(2, 5001):
            got = build_fused_matrix(d).sigma_max_FtF
            excess = mpmath.mpf(got) - (2 + 2 * mpmath.cos(mpmath.pi / d))
            assert 0 <= excess <= 2 * math.ulp(got), d


@pytest.mark.parametrize("d", [2, 3, 20, 250, 1000])
def test_fused_sigma_max_matches_eigvalsh(d):
    m = build_fused_matrix(d)
    dense = m.to_dense()
    exact = np.linalg.eigvalsh(dense.T @ dense).max()
    assert m.sigma_max_FtF == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_only_non_fused_builds_run_the_power_iteration(monkeypatch):
    # the graph-guided sc core has d=20, so it takes the dense bound
    calls = count_calls(monkeypatch, sparse, "power_iteration_sigma_max")
    for family in ("convex", "sc"):
        bench.build_all(bench.rate_core(family))
        assert len(calls) == 0, family


@pytest.mark.parametrize("d", [2, 3, 20, 250])
def test_fused_matrix_equals_the_checked_construction(d):
    # build_fused_matrix lays its arrays out itself and skips the CSR check
    cols = np.ravel(np.column_stack((np.arange(d - 1), np.arange(1, d))))
    checked = SparseMatrix(d - 1, d, 2 * np.arange(d), cols,
                           np.tile([1.0, -1.0], d - 1))
    object.__setattr__(checked, "_sigma_max_FtF", math.nextafter(
        2.0 + 2.0 * math.cos(math.pi / d), math.inf))
    assert_same_fields(build_fused_matrix(d), checked)


def assert_same_fields(built: SparseMatrix, checked: SparseMatrix) -> None:
    """Every field of ``built`` has the type and bytes of the checked
    construction's, and so has the dense matrix of its BLAS products."""
    for f in fields(SparseMatrix):
        want, got = getattr(checked, f.name), getattr(built, f.name)
        assert type(got) is type(want), f.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.flags.c_contiguous, f.name
            assert got.tobytes() == want.tobytes(), f.name
        elif want is None:  # a lazy field, set on first use
            assert got is None, f.name
        else:
            assert float(got).hex() == float(want).hex(), f.name
    checked.products(), built.products()
    if checked.nnz and checked.n_rows * checked.n_cols <= BLAS_MAX_VALUES:
        assert built._dense.tobytes() == checked._dense.tobytes()
    else:
        assert built._dense is None and checked._dense is None


def graph_specs():
    rng = np.random.default_rng(8)
    yield GraphSpec((), 3)
    yield GraphSpec(((0, 1, 1.0),), 2)
    yield GraphSpec(((0, 2, -0.5), (1, 2, 2.0**-1074), (1, 3, 3.0)), 4)
    yield bench.build_data(bench.rate_core("sc")["data"])[2]
    yield precision_graph_from_data(Dataset.from_dense_rows(
        rng.standard_normal((50, 12)), np.ones(50)), 1e-2, 1e-3)
    # wide enough that the dense matrix of the products is not made
    d = 200
    pairs = sorted({tuple(sorted(p)) for p in rng.integers(0, d, (400, 2))
                    if p[0] != p[1]})
    yield GraphSpec(tuple((i, j, float(w)) for (i, j), w in
                          zip(pairs, rng.standard_normal(len(pairs)))), d)


def test_graph_matrix_equals_the_checked_construction():
    # build_graph_matrix sets its fields unchecked, since GraphSpec's checks
    # imply every CSR invariant
    for spec in graph_specs():
        n = len(spec.edges)
        cols = np.array([c for i, j, _ in spec.edges for c in (i, j)],
                        dtype=np.int64)
        vals = np.array([v for _, _, w in spec.edges for v in (w, -w)])
        checked = SparseMatrix(n, spec.dimension, 2 * np.arange(n + 1), cols,
                               vals)
        assert_same_fields(build_graph_matrix(spec), checked)


def test_fused_build_penalty_runs_no_csr_check(monkeypatch, tmp_path):
    train, _, graph = bench.build_data(bench.rate_core("sc")["data"])
    save_penalty(tmp_path / "penalty.txt", build_fused_matrix(train.dimension))
    calls = count_calls(monkeypatch, SparseMatrix, "__post_init__")
    bench.build_penalty({"source": "fused"}, train, None)
    # nor does a graph penalty, valid by GraphSpec's checks
    bench.build_penalty({"source": "synthetic-graph"}, train, graph)
    assert len(calls) == 0
    # the counter sees a checked build
    bench.build_penalty({"source": "file", "path": str(tmp_path / "penalty.txt")},
                        train, None)
    assert len(calls) == 1


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
    return csr_dataset([0, 1, 2, 3, 4], [0, 0, 1, 1], [1.0, -1.0, 1.0, -1.0],
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
    m = sparse_from_dense([[1.0, -1.5, 0.0], [0.0, 0.25, -1.0]])
    path = tmp_path / "penalty.txt"
    save_penalty(path, m)
    loaded = load_penalty(path)
    np.testing.assert_array_equal(loaded.to_dense(), m.to_dense())
    # blank and whitespace-only lines are skipped
    path.write_text("\n \t\n".join(path.read_text().splitlines()) + "\n\n")
    spaced = load_penalty(path)
    for name in ("row_offsets", "col_indices", "values"):
        np.testing.assert_array_equal(getattr(spaced, name), getattr(loaded, name))


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
    for bad in ("nan", "inf", "-inf", "1e400"):
        path.write_text(f"1 2 2\n0 0 1.0\n0 1 {bad}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"penalty file line 3: non-finite value '{bad}'")):
            load_penalty(path)


@pytest.mark.parametrize("text, message", [
    ("", "penalty file is empty"),
    ("2 3 1\n", "penalty file: expected 1 entries, found 0"),
    ("2 3 2\n\n0 0 1.0\n1 5 2.0\n", "penalty file line 4: index out of range"),
    ("2 3 2\n0 0 1.0\n \n\n1 2 x\n", "penalty file line 5: malformed entry"),
], ids=["empty", "header-only", "range-after-blank", "malformed-after-blanks"])
def test_penalty_file_errors_name_the_file_line(tmp_path, text, message):
    # an error after blank lines names the line of the file, not of its entries
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_penalty(path)
