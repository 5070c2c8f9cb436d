"""The dense-row full passes against the CSR kernels they replaced.

``reference_margins``, ``reference_full_gradient`` and ``reference_sigmoid``
are the earlier implementations, kept here as the specification: on a
dataset whose rows store every feature the library's margins and full
gradient go through ``Dataset.dense_columns`` and must return the same
bytes, and so must the sigmoid on any input.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import csr_dataset
from spdpeg.data import synthesize
from spdpeg.model import LOSS_LOGISTIC, Problem
from spdpeg.oracles import _sigmoid, full_gradient, margins, stochastic_gradient
from spdpeg.prox import ProxSpec
from spdpeg.sparse import SparseMatrix


def reference_sigmoid(t):
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def reference_margins(dataset, x):
    """One ``bincount`` over every stored entry."""
    if dataset.indices.size == 0:
        return np.zeros(dataset.n_samples)
    return np.bincount(dataset.row_ids, weights=dataset.data * x[dataset.indices],
                       minlength=dataset.n_samples)


def reference_full_gradient(problem, dataset, x):
    """Margins, coefficients, then one ``bincount`` scatter into d bins."""
    d = dataset.dimension
    m = reference_margins(dataset, x)
    labels = dataset.labels
    if problem.loss == LOSS_LOGISTIC:
        coefs = -labels * reference_sigmoid(-labels * m)
    else:
        coefs = m - labels
    coefs = coefs / dataset.n_samples
    if dataset.indices.size == 0:
        grad = np.zeros(d)
    else:
        coef_rep = np.repeat(coefs, np.diff(dataset.indptr))
        grad = np.bincount(dataset.indices, weights=dataset.data * coef_rep,
                           minlength=d)
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def dense_dataset(seed, n, d, stored_zeros=False):
    rng = np.random.default_rng(seed)
    values = 3.0 * rng.standard_normal(n * d)
    if stored_zeros:
        # explicitly stored zeros of both signs
        values[rng.random(n * d) < 0.3] = 0.0
        values[rng.random(n * d) < 0.2] = -0.0
    return csr_dataset(d * np.arange(n + 1), np.tile(np.arange(d), n), values,
                       np.where(rng.random(n) < 0.5, 1.0, -1.0), d)


def problem_for(loss, d, ridge):
    return Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                   SparseMatrix.from_dense(np.eye(d)), ridge=ridge,
                   strong_convexity_mu=ridge)


def trial_points(d, seed):
    """Random points at several scales (large ones saturate the sigmoid on
    both sides), plus points made of signed zeros."""
    rng = np.random.default_rng(seed)
    points = [scale * rng.standard_normal(d) for scale in (0.1, 1.0, 30.0)
              for _ in range(10)]
    points.append(np.zeros(d))
    points.append(-np.zeros(d))
    points.append(np.where(rng.random(d) < 0.5, 0.0, -0.0))
    mixed = rng.standard_normal(d)
    mixed[rng.random(d) < 0.5] = -0.0
    points.append(mixed)
    return points


SHAPES = [(n, d) for n in (1, 2, 200) for d in (1, 2, 20)] + [(7, 64)]


def _assert_full_passes_match(dataset, loss, ridge, seed):
    problem = problem_for(loss, dataset.dimension, ridge)
    for x in trial_points(dataset.dimension, seed):
        got_m = margins(dataset, x)
        assert got_m.tobytes() == reference_margins(dataset, x).tobytes()
        want = reference_full_gradient(problem, dataset, x).tobytes()
        assert full_gradient(problem, dataset, x).tobytes() == want
        enumerated = stochastic_gradient(problem, dataset, x,
                                         np.random.default_rng(0), 1,
                                         enumerate_all=True)
        assert enumerated.tobytes() == want


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
@pytest.mark.parametrize("ridge", [0.0, 0.25])
@pytest.mark.parametrize("stored_zeros", [False, True])
def test_full_passes_are_bitwise_the_csr_kernels(n, d, loss, ridge, stored_zeros):
    dataset = dense_dataset(n * 1000 + d, n, d, stored_zeros)
    assert (dataset.dense_columns is None) == (n < 2 or d < 2)
    _assert_full_passes_match(dataset, loss, ridge, seed=n + d)


@pytest.mark.parametrize("kind", ["fused-signal", "graph-logistic"])
@pytest.mark.parametrize("loss", ["logistic", "least-squares"])
def test_synthesized_datasets_take_the_dense_path(kind, loss):
    dataset, _, _ = synthesize(kind, 20, 200, 0.1, 3)
    assert dataset.dense_columns is not None
    _assert_full_passes_match(dataset, loss, 0.0, seed=5)


def test_sigmoid_is_bitwise_the_masked_version():
    rng = np.random.default_rng(0)
    t = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
         709.0, -709.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf],
        np.linspace(-800.0, 800.0, 4001),
        800.0 * rng.uniform(-1.0, 1.0, 2000),
        rng.standard_normal(2000),
        np.ldexp(rng.uniform(-1.0, 1.0, 500), rng.integers(-60, 10, 500)),
    ])
    assert _sigmoid(t).tobytes() == reference_sigmoid(t).tobytes()
    for part in (t[:0], t[:1], t[1:2], t[1:].reshape(-1, 2)):
        assert _sigmoid(part).tobytes() == reference_sigmoid(part).tobytes()


def test_dense_columns_layout_and_read_only():
    dataset = dense_dataset(1, 30, 6)
    cols = dataset.dense_columns
    assert cols.shape == (6, 30) and cols.dtype == np.float64
    assert cols.tobytes() == dataset.data.reshape(30, 6).T.copy().tobytes()
    assert dataset.dense_columns is cols
    assert not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 1.0


def test_ragged_and_sparse_datasets_have_no_dense_columns():
    ragged = csr_dataset([0, 2, 5, 6], [0, 3, 0, 1, 4, 2], np.ones(6),
                         [1.0, -1.0, 1.0], 5)
    sparse = csr_dataset([0, 2, 4, 6], [0, 3, 1, 4, 2, 3], np.ones(6),
                         [1.0, -1.0, 1.0], 5)
    empty = csr_dataset([0, 0, 0, 0], [], [], [1.0, -1.0, 1.0], 3)
    for dataset in (ragged, sparse, empty):
        assert dataset.dense_columns is None
        x = np.linspace(-1.0, 1.0, dataset.dimension)
        assert margins(dataset, x).tobytes() == reference_margins(dataset, x).tobytes()
