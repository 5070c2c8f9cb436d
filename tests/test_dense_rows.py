"""Datasets of dense rows against the same rows stored as CSR.

``Dataset.from_dense_rows`` keeps one ``(n, d)`` array and no column
indices or row ids. ``csr_twin`` stores the same rows the way
``from_dense_rows`` used to, as an explicit checked ``SparseMatrix``: every
oracle, row norm, subset and digest of the dense dataset must have that
twin's bytes, and so must the CSR view it builds when one is read.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import column_row_norms_sq, fingerprint, sparse_from_dense
from spdpeg import baselines, bench, solver
from spdpeg.model import LOSS_KINDS, NORM_BLOCK, Dataset, Problem
from spdpeg.oracles import full_gradient, margins, stochastic_gradient
from spdpeg.penalties import precision_graph_from_data
from spdpeg.prox import ProxSpec
from spdpeg.sparse import SparseMatrix

SHAPES = [(1, 1), (1, 2), (1, 7), (2, 1), (9, 1), (2, 2), (17, 2), (33, 7),
          (64, 20)]
# one lane and one row on both sides of sparse.BLAS_MAX_VALUES
CUT_OVER_SHAPES = [(8192, 1), (8193, 1), (1, 8192), (1, 8193)]


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
@pytest.mark.parametrize("n, d", SHAPES + CUT_OVER_SHAPES)
def test_oracles_match_the_csr_twin(n, d, loss, view_reads):
    rows, labels = random_rows(n, d, 100 * n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    # the oracles read only the penalty's width
    problem = Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                      sparse_from_dense(np.ones((1, d))), ridge=0.25,
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
    # no path reads the CSR view, of either dataset, at any shape
    assert view_reads == []


@pytest.mark.parametrize("n, d", SHAPES + [(3000, 50), (3, 70_000)])
def test_row_norms_and_fingerprint_match_the_csr_twin(n, d, view_reads):
    # the last two shapes span several row blocks, and rows longer than one
    rows, labels = random_rows(n, d, n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    assert_same(dense.row_norms_sq(), csr.row_norms_sq())
    assert dense.max_row_norm_sq == csr.max_row_norm_sq
    # the digest hashes the CSR view, so check the reads first
    assert not any(r is dense for r in view_reads)
    assert fingerprint(dense) == fingerprint(csr)


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
        assert got.dimension == want.dimension
        assert_same(got.dense_rows, want.dense_rows)
        assert fingerprint(got) == fingerprint(want)
    assert not any(r is dense for r in view_reads)
    for bad in ([n], [-1], [[0]]):
        with pytest.raises(IndexError):
            dense.subset(bad)
    with pytest.raises(ValueError, match="at least one sample"):
        dense.subset([])


@pytest.mark.parametrize("n, d", [(1, 3), (NORM_BLOCK - 1, 2), (NORM_BLOCK, 7),
                                  (NORM_BLOCK + 1, 20), (2 * NORM_BLOCK + 3, 50)])
def test_blocked_row_norms_are_the_column_loop(n, d):
    rows, labels = random_rows(n, d, 5 * n + d)
    rows *= np.random.default_rng(d).uniform(1e-3, 1e3, size=(n, 1))
    assert_same(Dataset.from_dense_rows(rows, labels).row_norms_sq(),
                column_row_norms_sq(rows))


@pytest.mark.parametrize("n, d", [(3, 2), (17, 2), (33, 7), (64, 20)])
def test_slice_subset_is_a_view_with_the_index_subsets_bytes(n, d):
    rows, labels = random_rows(n, d, 11 * n + d)
    dense = Dataset.from_dense_rows(rows, labels)
    for cut in (slice(0, n // 2), slice(n // 3, None), slice(1, n - 1),
                slice(None), slice(-3, None)):
        got, want = dense.subset(cut), dense.subset(np.arange(n)[cut])
        assert np.shares_memory(got.data, rows)
        assert not np.shares_memory(want.data, rows)
        for name in ("indptr", "data", "labels"):
            assert_same(getattr(got, name), getattr(want, name))
        assert got.dimension == want.dimension
        assert_same(got.dense_rows, want.dense_rows)
        assert fingerprint(got) == fingerprint(want)
        assert_same(got.row_norms_sq(), want.row_norms_sq())
        f, g = got.features, want.features
        assert (f.n_rows, f.n_cols) == (g.n_rows, g.n_cols)
        for name in ("row_offsets", "col_indices", "values", "row_ids"):
            assert_same(getattr(f, name), getattr(g, name))
    # a strided slice is the index subset's copy; a unit-step slice of rows
    # parsed as CSR is a view of them too
    for ds, cut, view in ((dense, slice(None, None, 2), False),
                          (csr_twin(rows, labels), slice(1, None), True)):
        got, want = ds.subset(cut), ds.subset(np.arange(n)[cut])
        assert np.shares_memory(got.data, ds.data) == view
        assert fingerprint(got) == fingerprint(want)
    with pytest.raises(ValueError, match="at least one sample"):
        dense.subset(slice(n, None))


@pytest.mark.parametrize("n, d", SHAPES + [(4, 0)])
def test_csr_view_is_the_twins_matrix_built_once(n, d):
    rows, labels = random_rows(n, d, 3 * n + d)
    dense, csr = Dataset.from_dense_rows(rows, labels), csr_twin(rows, labels)
    for got, want in ((dense, csr), (dense.subset([n - 1, 0]), csr.subset([n - 1, 0]))):
        f, g = got.features, want.features
        assert (f.n_rows, f.n_cols) == (g.n_rows, g.n_cols)
        assert_same(got.dense_rows, want.dense_rows)
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


@pytest.mark.parametrize("row", [0, NORM_BLOCK + 5, 2 * NORM_BLOCK + 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_dense_rows_checks_every_block(row, bad):
    # the check runs NORM_BLOCK rows at a time: first, middle and last block
    rows, labels = random_rows(2 * NORM_BLOCK + 3, 2, 3)
    rows[row, row % 2] = bad
    with pytest.raises(ValueError, match="^matrix values must be finite$"):
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


def test_uncapped_fused_reference_reads_no_csr_view(view_reads):
    # FISTA's step constant and certificate read the dense rows
    core = bench.rate_core("convex", d=8, n=40, iters=300, eval_every=100)
    train, _, problem, _ = bench.build_all(core)
    ref = bench.reference_optimum(problem, train, 0.1)
    assert ref.certified_gap is not None and view_reads == []


def test_uncapped_graph_reference_reads_no_csr_view(view_reads):
    # and nor does the dual prox of a graph penalty
    core = bench.rate_core("sc", d=8, n=40, iters=300, eval_every=100)
    train, _, problem, _ = bench.build_all(core)
    ref = bench.reference_optimum(problem, train, 0.05)
    assert ref.certified_gap is not None and view_reads == []


def test_build_data_memory_is_about_the_rows():
    # a synthetic split is born in split order and holds its rows once: no
    # full copy coexists with train and test, no index arrays, no re-check.
    # A tiny build first takes the one-time lazy imports out of the peak
    n, d = 20_000, 50

    def cfg(d, n):
        return {"synthetic": {"kind": "fused-signal", "d": d, "n": n,
                              "noise": 0.1, "seed": 1},
                "split": True, "split_seed": 2}

    bench.build_data(cfg(2, 4))
    tracemalloc.start()
    try:
        built = bench.build_data(cfg(d, n))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built[0].n_samples + built[1].n_samples == n
    assert peak <= 1.375 * 8 * n * d
    assert kept <= 1.10 * 8 * n * d


def test_full_passes_keep_no_copy_of_the_rows():
    # the full passes read the rows in place: after a build, a full
    # gradient and a trace evaluation keep at most an n-vector or two
    n, d = 20_000, 50
    core = bench.rate_core("convex", d=d, n=n)
    tracemalloc.start()
    try:
        train, test, problem, _ = bench.build_all(core)
        built = tracemalloc.get_traced_memory()[0]
        x = np.random.default_rng(4).standard_normal(d)
        full_gradient(problem, train, x)
        solver.evaluate_trace_record(problem, train, test, x,
                                     problem.penalty.matvec(x), 1, 0.0, 0.0)
        kept = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert train.n_samples == n and train.dense_rows is not None
    assert kept <= 0.1 * 8 * n * d


@pytest.mark.parametrize("family, batch", [("convex", 1), ("sc", 16)])
def test_runs_match_the_csr_twin(family, batch):
    # whole runs, not single oracle calls: every trace record (wall clock
    # aside) and x_avg of the dense rows are the twin's bytes
    core = bench.rate_core(family, d=12, n=300, iters=400, eval_every=50,
                           batch_size=batch)
    core["data"].update(split=True, split_seed=3)
    train, test, problem, derived = bench.build_all(core)
    config = bench.make_config(core, derived, 1)
    twin_train, twin_test = (csr_twin(ds.dense_rows, ds.labels)
                             for ds in (train, test))
    assert twin_train.dense_rows is not None
    for run in (solver.run, baselines.run_eg_full):
        got = run(problem, train, config, test)
        want = run(problem, twin_train, config, twin_test)
        assert_same(got.x_avg, want.x_avg)
        assert (repr([replace(r, wall_seconds=0.0) for r in got.trace])
                == repr([replace(r, wall_seconds=0.0) for r in want.trace]))
