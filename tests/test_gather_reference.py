"""The vectorised row gathers against the per-row loops they replaced.

``reference_gradient_over_rows`` and ``reference_subset`` are the earlier
implementations, kept here as the specification: the library's sampled
gradient and ``Dataset.subset`` must return the same bytes. A batch of
whole rows of at most ``sparse.BLAS_MAX_VALUES`` values takes its margins
by one BLAS ``gemv`` of the gathered rows and is scattered by one BLAS
product of the per-row coefficients and those rows. Every coefficient is
``reference_coef``'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import csr_dataset, one_exp_logistic, sparse_from_dense
from spdpeg.model import Problem
from spdpeg.oracles import draw_kernel, stochastic_gradient
from spdpeg.prox import ProxSpec
from spdpeg.sparse import BLAS_MAX_VALUES, row_positions


def reference_coef(loss, m, b):
    """One row's coefficient: ``one_exp_logistic`` over a one-element
    array for the logistic loss, m - b for least squares."""
    if loss == "logistic":
        return one_exp_logistic(-b, np.array([b * m]))[0]
    return m - b


def reference_gradient_over_rows(problem, dataset, x, rows):
    """One dot product per drawn row, or for a batch of rows that store all
    d features and at most ``BLAS_MAX_VALUES`` values the BLAS
    ``stack(rows).dot(x)``; one coefficient per row; then one ``bincount``
    scatter, or for such a batch the BLAS ``coefs.dot(stack(rows))``."""
    d = dataset.dimension
    indptr, indices, data, labels = (dataset.indptr, dataset.indices,
                                     dataset.data, dataset.labels)
    parts = [(indices[lo:hi], data[lo:hi])
             for lo, hi in zip(indptr[rows], indptr[rows + 1])]
    whole = (rows.size > 1 and dataset.dense_rows is not None
             and rows.size * d <= BLAS_MAX_VALUES)
    if whole:
        m = np.stack([vals for _, vals in parts]).dot(x)
    else:
        m = [vals @ x[cols] for cols, vals in parts]
    coefs = [reference_coef(problem.loss, mi, labels[i]) for mi, i in zip(m, rows)]
    if rows.size == 1:
        [(cols, vals)], [coef] = parts, coefs
        grad = np.zeros(d)
        grad[cols] = coef * vals
    else:
        if whole:
            grad = np.array(coefs).dot(np.stack([vals for _, vals in parts]))
        elif sum(cols.size for cols, _ in parts):
            grad = np.bincount(np.concatenate([cols for cols, _ in parts]),
                               weights=np.concatenate(
                                   [coef * vals for coef, (_, vals) in zip(coefs, parts)]),
                               minlength=d)
        else:
            grad = np.zeros(d)
        grad /= rows.size
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def reference_subset(dataset, rows):
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.diff(dataset.indptr)[rows]
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(counts)
    gather = np.concatenate(
        [np.arange(dataset.indptr[r], dataset.indptr[r + 1]) for r in rows]
    ) if indptr[-1] else np.zeros(0, dtype=np.int64)
    return csr_dataset(indptr, dataset.indices[gather], dataset.data[gather],
                       dataset.labels[rows], dataset.dimension)


def ragged_dataset(seed, n=40, d=15, empty_rows=(3, 17, 18)):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, d + 1, size=n)
    lengths[list(empty_rows)] = 0
    indices = np.concatenate([np.sort(rng.choice(d, size=k, replace=False))
                              for k in lengths])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return csr_dataset(indptr, indices, 3.0 * rng.standard_normal(indices.size),
                       labels, d)


def dense_dataset(seed, n=40, d=15):
    rng = np.random.default_rng(seed)
    return csr_dataset(d * np.arange(n + 1), np.tile(np.arange(d), n),
                       3.0 * rng.standard_normal(n * d),
                       np.where(rng.random(n) < 0.5, 1.0, -1.0), d)


def uniform_dataset(seed, n=40, d=15, k=5):
    """Every row stores the same k < d features: one row length, not dense."""
    rng = np.random.default_rng(seed)
    indices = np.concatenate([np.sort(rng.choice(d, size=k, replace=False))
                              for _ in range(n)])
    return csr_dataset(k * np.arange(n + 1), indices,
                       3.0 * rng.standard_normal(n * k),
                       np.where(rng.random(n) < 0.5, 1.0, -1.0), d)


DATASETS = {"ragged": ragged_dataset, "dense": dense_dataset,
            "uniform": uniform_dataset}


def problem_for(loss, d, ridge):
    return Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                   sparse_from_dense(np.eye(d)), ridge=ridge)


@pytest.mark.parametrize("kind", sorted(DATASETS))
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.25])
@pytest.mark.parametrize("batch", [1, 2, 16, "n"])
def test_sampled_gradient_is_bitwise_the_row_loop(kind, loss, ridge, batch):
    dataset = DATASETS[kind](seed=7)
    n, d = dataset.n_samples, dataset.dimension
    problem = problem_for(loss, d, ridge)
    size = n if batch == "n" else batch
    rng = np.random.default_rng(11)
    for _ in range(200):
        # large x so that the coefficients saturate on both sides
        x = 2.0 * rng.standard_normal(d)
        rows = rng.integers(0, n, size=size)
        got = draw_kernel(problem, dataset, rows.size)(x, rows)
        want = reference_gradient_over_rows(problem, dataset, x, rows)
        assert got.tobytes() == want.tobytes()


class _FixedRows:
    """Answers every draw with the given rows, in turn."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def integers(self, low, high, size):
        return np.array([next(self.rows)])


@pytest.mark.parametrize("kind", ["dense", "ragged"])
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.25])
def test_full_rows_skip_the_scatter_with_the_same_bits(kind, loss, ridge):
    # every row of the dense set and some rows of the ragged one store all
    # d features. A dense row skips the gather and the scatter; a full CSR
    # row gathers x[arange(d)], which is x, and writes every entry of the
    # scattered gradient, so both have the reference's bytes. x comes in as
    # a strided view, which the oracle makes contiguous before the dot
    dataset = DATASETS[kind](seed=7)
    n, d = dataset.n_samples, dataset.dimension
    lengths = np.diff(dataset.indptr)
    assert (lengths == d).any()
    if kind == "ragged":
        assert (lengths < d).any()
    problem = problem_for(loss, d, ridge)
    rng = np.random.default_rng(12)
    for i in range(n):
        x = (2.0 * rng.standard_normal(2 * d))[::2]
        assert not x.flags.c_contiguous
        got = stochastic_gradient(problem, dataset, x, _FixedRows([i]), 1)
        want = reference_gradient_over_rows(problem, dataset, x,
                                            np.array([i]))
        assert got.tobytes() == want.tobytes()


class _FixedBatches:
    """Answers every draw with the next of the given batches."""

    def __init__(self, batches):
        self.batches = iter(batches)

    def integers(self, low, high, size):
        rows = next(self.batches)
        assert rows.size == size
        return rows


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.25])
@pytest.mark.parametrize("batch", [2, 3, 16, 64])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_dense_row_batches_keep_the_scatter_bits(loss, ridge, batch, scale):
    # batches of rows that store all d features are gathered whole, their
    # margins taken by one gemv and scattered by _lane_sums; x comes in as a
    # strided view, which the oracle makes contiguous first
    dataset = dense_dataset(seed=8)
    n, d = dataset.n_samples, dataset.dimension
    problem = problem_for(loss, d, ridge)
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = (scale * rng.standard_normal(2 * d))[::2]
        assert not x.flags.c_contiguous
        rows = rng.integers(0, n, size=batch)
        got = stochastic_gradient(problem, dataset, x, _FixedBatches([rows]),
                                  batch)
        want = reference_gradient_over_rows(problem, dataset, x, rows)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("batch", [16, 27, 28, 64])
def test_wide_dense_row_batches_cross_the_cut_over(loss, batch):
    # 300 features: a batch of up to 27 rows takes one gemv and one BLAS
    # product, from 28 rows on the margins are each row's dot and the
    # scatter is einsum's, with bincount's bits
    dataset = dense_dataset(seed=10, n=70, d=300)
    n, d = dataset.n_samples, dataset.dimension
    assert (batch * d <= BLAS_MAX_VALUES) == (batch <= 27)
    problem = problem_for(loss, d, 0.0)
    rng = np.random.default_rng(14)
    for _ in range(20):
        x = rng.standard_normal(d)
        rows = rng.integers(0, n, size=batch)
        got = draw_kernel(problem, dataset, batch)(x, rows)
        want = reference_gradient_over_rows(problem, dataset, x, rows)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("n, d", [(8192, 1), (8193, 1), (1, 8192), (1, 8193)])
def test_one_lane_and_one_row_batches_are_dense_row_batches(loss, n, d):
    # one feature or one sample on both sides of the cut-over: a batch of
    # 16 such rows is a batch of dense rows like any other
    dataset = dense_dataset(seed=15, n=n, d=d)
    # the draws read only the penalty's width: no d x d identity
    problem = Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                      sparse_from_dense(np.ones((1, d))), ridge=0.25)
    rng = np.random.default_rng(16)
    for _ in range(10):
        x = rng.standard_normal(d)
        rows = rng.integers(0, n, size=16)
        got = draw_kernel(problem, dataset, 16)(x, rows)
        want = reference_gradient_over_rows(problem, dataset, x, rows)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("rows", [[3], [3, 3], [3, 17, 18, 17], [5, 5, 5, 5],
                                  [3, 5, 3, 9, 5]])
def test_empty_and_repeated_rows(loss, rows):
    dataset = ragged_dataset(seed=2)
    problem = problem_for(loss, dataset.dimension, 0.0)
    x = np.random.default_rng(4).standard_normal(dataset.dimension)
    rows = np.array(rows, dtype=np.int64)
    got = draw_kernel(problem, dataset, rows.size)(x, rows)
    want = reference_gradient_over_rows(problem, dataset, x, rows)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ridge", [0.0, 0.25])
def test_dataset_of_empty_rows(ridge):
    dataset = csr_dataset([0, 0, 0, 0], [], [], [1.0, -1.0, 1.0], 3)
    problem = problem_for("logistic", 3, ridge)
    x = np.array([0.5, -1.0, 2.0])
    for rows in ([1], [0, 2], [2, 1, 1, 0]):
        rows = np.array(rows, dtype=np.int64)
        got = draw_kernel(problem, dataset, rows.size)(x, rows)
        want = reference_gradient_over_rows(problem, dataset, x, rows)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def _same_dataset(a, b):
    for name in ("indptr", "indices", "data", "labels"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.tobytes() == right.tobytes()
    assert a.dimension == b.dimension


@pytest.mark.parametrize("kind", sorted(DATASETS))
@pytest.mark.parametrize("rows", [[0], [3], [3, 17, 18], [5, 1, 5, 0],
                                  list(range(40)), list(range(39, -1, -1))])
def test_subset_matches_row_loop(kind, rows):
    dataset = DATASETS[kind](seed=5)
    _same_dataset(dataset.subset(rows), reference_subset(dataset, rows))


def test_subset_random_permutations():
    dataset = ragged_dataset(seed=9)
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows = rng.permutation(dataset.n_samples)[:rng.integers(1, 41)]
        _same_dataset(dataset.subset(rows), reference_subset(dataset, rows))


def test_subset_of_nothing_is_rejected():
    dataset = ragged_dataset(seed=1)
    pos, lengths = row_positions(dataset.indptr, np.zeros(0, dtype=np.int64))
    assert pos.dtype == np.int64 and pos.size == 0 and lengths.size == 0
    for subset in (dataset.subset, lambda r: reference_subset(dataset, r)):
        with pytest.raises(ValueError, match="at least one sample"):
            subset(np.zeros(0, dtype=np.int64))
