"""Datasets of dense rows against the same rows stored as CSR.

``Dataset.from_dense_rows`` keeps one ``(n, d)`` array and no column
indices or row ids. ``csr_twin`` stores the same rows the way
``from_dense_rows`` used to, as an explicit checked ``SparseMatrix``: every
oracle, row norm, subset and digest of the dense dataset must have that
twin's bytes, and so must the CSR view it builds when one is read.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import sparse_from_dense
from spdpeg import baselines, bench, solver
from spdpeg.model import LOSS_KINDS, Dataset, Problem
from spdpeg.oracles import full_gradient, margins, stochastic_gradient
from spdpeg.penalties import precision_graph_from_data
from spdpeg.prox import ProxSpec
from spdpeg.sparse import SparseMatrix

SHAPES = [(1, 1), (1, 2), (1, 7), (2, 1), (9, 1), (2, 2), (17, 2), (33, 7),
          (64, 20)]


def random_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    rows[rng.random((n, d)) < 0.15] = 0.0
    rows[rng.random((n, d)) < 0.05] = -0.0
    return rows, np.where(rng.random(n) < 0.5, 1.0, -1.0)


def csr_twin(rows, labels):
    n, d = rows.shape
    return Dataset(SparseMatrix(n, d, d * np.arange(n + 1, dtype=np.int64),
                                np.tile(np.arange(d, dtype=np.int64), n),
                                rows.ravel().copy()), labels)


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@pytest.fixture
def view_reads(monkeypatch):
    """The datasets whose CSR view (``features``, and through it
    ``indices`` and ``row_ids``) is read, once per read."""
    reads = []
    getter = Dataset.features.fget

    def counted(self):
        reads.append(self)
        return getter(self)

    monkeypatch.setattr(Dataset, "features", property(counted))
    return reads


@pytest.mark.parametrize("loss", LOSS_KINDS)
@pytest.mark.parametrize("n, d", SHAPES)
def test_oracles_match_the_csr_twin(n, d, loss, view_reads):
    rows, labels = random_rows(n, d, 100 * n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    problem = Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                      sparse_from_dense(np.eye(d)), ridge=0.25,
                      strong_convexity_mu=0.25)
    rng = np.random.default_rng(d)
    for x in (rng.standard_normal(d), 30.0 * rng.standard_normal(d), np.zeros(d)):
        assert_same(margins(dense, x), margins(csr, x))
        assert_same(full_gradient(problem, dense, x), full_gradient(problem, csr, x))
        for batch in (1, 16):
            for seed in range(4):
                assert_same(
                    stochastic_gradient(problem, dense, x,
                                        np.random.default_rng(seed), batch),
                    stochastic_gradient(problem, csr, x,
                                        np.random.default_rng(seed), batch))
    # only the CSR kernels of a single lane read the view
    assert any(r is dense for r in view_reads) == (n < 2 or d < 2)


@pytest.mark.parametrize("n, d", SHAPES + [(3000, 50), (3, 70_000)])
def test_row_norms_and_fingerprint_match_the_csr_twin(n, d, view_reads):
    # the last two shapes span several row blocks, and rows longer than one
    rows, labels = random_rows(n, d, n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    assert_same(dense.row_norms_sq(), csr.row_norms_sq())
    assert dense.max_row_norm_sq == csr.max_row_norm_sq
    assert dense.fingerprint() == csr.fingerprint()
    assert not any(r is dense for r in view_reads)


@pytest.mark.parametrize("n, d", SHAPES)
def test_subset_matches_the_csr_twin(n, d, view_reads):
    rows, labels = random_rows(n, d, 7 * n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    picks = np.random.default_rng(n).integers(0, n, size=2 * n + 1)
    for take in (picks, [n - 1, 0], np.arange(n)):
        got, want = dense.subset(take), csr.subset(take)
        for name in ("indptr", "data", "labels"):
            assert_same(getattr(got, name), getattr(want, name))
        assert_same(got.row_norms_sq(), want.row_norms_sq())
        assert (got.dimension, got.full_rows) == (want.dimension, want.full_rows)
        assert got.fingerprint() == want.fingerprint()
    assert not any(r is dense for r in view_reads)
    for bad in ([n], [-1], [[0]]):
        with pytest.raises(IndexError):
            dense.subset(bad)
    with pytest.raises(ValueError, match="at least one sample"):
        dense.subset([])


@pytest.mark.parametrize("n, d", SHAPES + [(4, 0)])
def test_csr_view_is_the_twins_matrix_built_once(n, d):
    rows, labels = random_rows(n, d, 3 * n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    for got, want in ((dense, csr), (dense.subset([n - 1, 0]), csr.subset([n - 1, 0]))):
        f, g = got.features, want.features
        assert (f.n_rows, f.n_cols, got.full_rows) == (
            g.n_rows, g.n_cols, want.full_rows)
        for name in ("row_offsets", "col_indices", "values", "row_ids"):
            assert_same(getattr(f, name), getattr(g, name))
        assert got.features is f
        assert (got.indptr is f.row_offsets and got.indices is f.col_indices
                and got.data is f.values and got.row_ids is f.row_ids)


def test_from_dense_rows_keeps_one_c_ordered_array():
    rows, labels = random_rows(6, 3, 1)
    kept = Dataset.from_dense_rows(rows, labels)
    assert np.shares_memory(kept.data, rows)
    fortran = Dataset.from_dense_rows(np.asfortranarray(rows), labels)
    assert_same(fortran.data, rows.ravel())
    for bad in (np.nan, np.inf, -np.inf):
        rows[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset.from_dense_rows(rows, labels)


def test_precision_graph_reads_the_rows(view_reads):
    rows, labels = random_rows(200, 6, 5)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    got = precision_graph_from_data(dense, 1e-2, 1e-3)
    assert got == precision_graph_from_data(csr, 1e-2, 1e-3)
    assert got.edges and not view_reads


def test_build_run_and_reference_read_no_csr_view(view_reads):
    core = bench.rate_core("convex", d=8, n=40, iters=300, eval_every=100)
    core["data"].update(split=True, split_seed=3)
    train, test, problem, derived = bench.build_all(core)
    config = bench.make_config(core, derived, 0)
    solver.run(problem, train, config, test)
    baselines.run_eg_full(problem, train, config, test)
    baselines.run_stoch_linadmm(problem, train, config, test)
    bench.reference_optimum(problem, train, 0.1, max_iters=300, check_every=100)
    assert view_reads == []


def test_build_data_memory_is_about_the_rows():
    # a synthetic split holds its rows once: no index arrays, no re-check
    n, d = 20_000, 50
    cfg = {"synthetic": {"kind": "fused-signal", "d": d, "n": n, "noise": 0.1,
                         "seed": 1}, "split": True, "split_seed": 2}
    tracemalloc.start()
    try:
        built = bench.build_data(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built[0].n_samples + built[1].n_samples == n
    assert peak <= 2.5 * 8 * n * d
    assert kept <= 1.25 * 8 * n * d
