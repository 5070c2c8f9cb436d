"""Full and stochastic first-order oracles for the smooth loss.

Both supported losses have per-sample gradients of the form coef * a_i,
so batch gradients reduce to one coefficient per drawn sample scattered
back through the sparse rows. The full gradient and the forced
full-enumeration batch use the same accumulation code, which makes the
unbiasedness identity hold to rounding rather than approximately.

A full pass uses the products of the data matrix ``A`` (the dataset's
``features``): the margins are ``A @ x`` and the gradient scatter is
``A.T @ coefs``, the ``bincount`` kernels of ``SparseMatrix.matvec`` and
``rmatvec``. A dataset whose rows store every feature, with n and d both
at least 2 (``Dataset.dense_columns``), reduces over the leading axis of a
dense array instead: the margins over the column-major copy, the gradient
scatter over the row-major CSR values. numpy adds such a reduction lane by
lane in index order starting from ``initial=0.0``, which is ``bincount``'s
order, so both give the same bits as the CSR products. With a single kept
lane (n or d equal to 1) numpy sums pairwise instead, hence the size guard.

A sampled batch takes one of two paths:
- one row: scalar arithmetic on that row's slice, with no array built for
  its margin, coefficient or label;
- more rows: one gather of all drawn rows' stored entries, one stacked
  ``matmul`` per distinct row length for the margins, one coefficient call
  for the batch and one ``bincount`` scatter. The stacked ``matmul`` sums
  each row in the order ``vals @ x[cols]`` does, so both paths give the
  same bits as a loop over the rows; a segment sum would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LOSS_LOGISTIC, Dataset, Problem, row_positions


@dataclass(frozen=True)
class NoiseStats:
    empirical_bias_norm: float
    empirical_second_moment: float


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # evaluate in the branch that never overflows; exp(-|t|) is exp(-t) for
    # t >= 0 and exp(t) below, the argument each branch needs
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def margins(dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Per-sample decision values a_i^T x."""
    cols = dataset.dense_columns
    if cols is not None:
        return np.add.reduce(cols * x[:, None], axis=0, initial=0.0)
    return dataset.features.matvec(x)


def _coefs(loss: str, m: np.ndarray, labels: np.ndarray) -> np.ndarray:
    if loss == LOSS_LOGISTIC:
        return -labels * _sigmoid(-labels * m)
    return m - labels


def _check_x(dataset: Dataset, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dataset.dimension,):
        raise ValueError(f"x must have length {dataset.dimension}, got {x.shape}")
    return x


def loss_from_margins(loss: str, labels: np.ndarray, m: np.ndarray) -> float:
    """Average per-sample loss given the margins ``m`` of those samples."""
    if loss == LOSS_LOGISTIC:
        # log(1 + exp(-b*m)) evaluated stably
        return float(np.mean(np.logaddexp(0.0, -labels * m)))
    return float(0.5 * np.mean((m - labels) ** 2))


def ridge_value(problem: Problem, x: np.ndarray) -> float:
    """The folded ridge term (ridge/2)*||x||^2."""
    return 0.5 * problem.ridge * float(x @ x) if problem.ridge else 0.0


def data_loss(loss: str, dataset: Dataset, x: np.ndarray) -> float:
    """Average per-sample loss, without any folded ridge term."""
    x = _check_x(dataset, x)
    return loss_from_margins(loss, dataset.labels, margins(dataset, x))


def loss_value(problem: Problem, dataset: Dataset, x: np.ndarray) -> float:
    """Value of the smooth loss oracle, including the folded ridge."""
    x = _check_x(dataset, x)
    return data_loss(problem.loss, dataset, x) + ridge_value(problem, x)


def _gradient_over_rows(problem: Problem, dataset: Dataset, x: np.ndarray,
                        rows: np.ndarray | None) -> np.ndarray:
    """Average per-sample gradient over the given rows (all rows if None)."""
    d = dataset.dimension
    if rows is None:
        m = margins(dataset, x)
        coefs = _coefs(problem.loss, m, dataset.labels) / dataset.n_samples
        if dataset.dense_columns is not None:
            grad = np.add.reduce(dataset.data.reshape(-1, d) * coefs[:, None],
                                 axis=0, initial=0.0)
        else:
            grad = dataset.features.rmatvec(coefs)
    elif rows.size == 1:
        grad = _row_gradient(problem.loss, dataset, x, int(rows[0]))
    else:
        grad = _batch_gradient(problem.loss, dataset, x, rows)
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def _row_gradient(loss: str, dataset: Dataset, x: np.ndarray, i: int) -> np.ndarray:
    lo, hi = dataset.indptr[i], dataset.indptr[i + 1]
    cols, vals = dataset.indices[lo:hi], dataset.data[lo:hi]
    m = vals @ x[cols]
    b = dataset.labels[i]
    if loss == LOSS_LOGISTIC:
        # _sigmoid(-b*m) on a scalar, same branches and same np.exp
        t = -b * m
        if t >= 0:
            s = 1.0 / (1.0 + np.exp(-t))
        else:
            et = np.exp(t)
            s = et / (1.0 + et)
        coef = -b * s
    else:
        coef = m - b
    grad = np.zeros(dataset.dimension)
    grad[cols] = coef * vals
    return grad


def _ragged_row_margins(vals: np.ndarray, xs: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
    """Dot product of each of the concatenated rows, one stacked matmul per
    distinct row length. A (g, 1, k) @ (g, k, 1) matmul runs the dot kernel
    of ``vals @ x[cols]`` on each row, so every margin has the batch-1
    path's summation order."""
    out = np.empty(lengths.size)
    offsets = np.cumsum(lengths) - lengths
    # a Python set of the few lengths in a batch is cheaper than np.unique
    for k in set(lengths.tolist()):
        group = lengths == k
        pos = offsets[group][:, None] + np.arange(k)
        out[group] = (vals[pos][:, None, :] @ xs[pos][:, :, None]).reshape(-1)
    return out


def _batch_gradient(loss: str, dataset: Dataset, x: np.ndarray,
                    rows: np.ndarray) -> np.ndarray:
    # When every row has the same length the batch is a single length
    # group, gathered with one reshape. Sending such batches through
    # row_positions and _ragged_row_margins gives the same bits but made
    # sc-graph-b16 spdpeg.iter_us 33% slower (106 -> 141 us, 10 pairs).
    b, k = rows.size, dataset.uniform_row_length
    if k is None:
        pos, lengths = row_positions(dataset.indptr, rows)
    else:
        pos, lengths = (dataset.indptr[rows][:, None] + np.arange(k)).ravel(), k
    if pos.size == 0:
        # bincount over no entries would return int64
        return np.zeros(dataset.dimension)
    cols, vals = dataset.indices[pos], dataset.data[pos]
    xs = x[cols]
    if k is None:
        m = _ragged_row_margins(vals, xs, lengths)
    else:
        m = (vals.reshape(b, 1, k) @ xs.reshape(b, k, 1)).reshape(b)
    coefs = _coefs(loss, m, dataset.labels[rows])
    grad = np.bincount(cols, weights=np.repeat(coefs, lengths) * vals,
                       minlength=dataset.dimension)
    grad /= b
    return grad


def full_gradient(problem: Problem, dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Exact average of per-sample gradients (plus the folded ridge)."""
    x = _check_x(dataset, x)
    return _gradient_over_rows(problem, dataset, x, None)


def stochastic_gradient(problem: Problem, dataset: Dataset, x: np.ndarray,
                        rng: np.random.Generator, batch_size: int,
                        enumerate_all: bool = False) -> np.ndarray:
    """Average gradient over a uniform with-replacement batch.

    ``enumerate_all`` replaces sampling with a pass over every sample
    (and does not touch the rng); the result then equals full_gradient.
    """
    x = _check_x(dataset, x)
    if enumerate_all:
        return _gradient_over_rows(problem, dataset, x, None)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = rng.integers(0, dataset.n_samples, size=batch_size)
    return _gradient_over_rows(problem, dataset, x, idx)


def estimate_noise(problem: Problem, dataset: Dataset, x: np.ndarray,
                   trials: int, seed: int) -> NoiseStats:
    """Monte-Carlo estimate of the bias and second moment of single-sample gradients."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = _check_x(dataset, x)
    rng = np.random.default_rng(seed)
    mean_grad = full_gradient(problem, dataset, x)
    # accumulate centered deviations so a noiseless oracle reports exactly 0
    acc = np.zeros(dataset.dimension)
    acc_sq = 0.0
    for _ in range(trials):
        diff = stochastic_gradient(problem, dataset, x, rng, 1) - mean_grad
        acc += diff
        acc_sq += float(diff @ diff)
    return NoiseStats(float(np.linalg.norm(acc / trials)), acc_sq / trials)
