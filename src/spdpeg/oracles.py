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
at least 2 (``Dataset.dense_columns``), runs both through ``_lane_sums``
on a dense array instead: the margins over the ``(d, n)`` column-major
copy weighted by x, the gradient scatter over the ``(n, d)`` row-major
values (``data``) weighted by the coefficients. ``_lane_sums`` adds each
lane in index order from 0.0, which is ``bincount``'s order, so both give
the same bits as the CSR products; its docstring says when that order holds.

A sampled batch takes one of two paths:
- one row: scalar arithmetic on that row's slice, with no array built for
  its margin, coefficient or label; a row that stores every feature also
  skips the gather of x and the scatter into a zero vector;
- more rows: one gather of all drawn rows' stored entries, one stacked
  ``matmul`` per distinct row length for the margins, one coefficient call
  for the batch and one ``bincount`` scatter. The stacked ``matmul`` sums
  each row in the order ``vals @ x[cols]`` does, so both paths give the
  same bits as a loop over the rows; a segment sum would not. Rows that
  store every feature (d >= 2) are gathered whole, with no position array
  and no gather of x, and scattered through ``_lane_sums``, with the same
  bits.
"""

from __future__ import annotations

import numpy as np

from .model import LOSS_LOGISTIC, Dataset, Problem
from .sparse import row_positions

def _sigmoid(t: np.ndarray) -> np.ndarray:
    # evaluate in the branch that never overflows; exp(-|t|) is exp(-t) for
    # t >= 0 and exp(t) below, the argument each branch needs; selecting the
    # numerator in place first divides once, with either quotient's bits
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    e[t >= 0] = 1.0
    e /= den
    return e


def _lane_sums(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i weights[i] * matrix[i, :]`` in one pass, with no n*d product
    and the bits of ``np.add.reduce(matrix * weights[:, None], axis=0,
    initial=0.0)``.

    einsum's two-operand loop walks the rows in order and adds each row's
    products into every lane (column), one multiply and one add at a time,
    from 0.0. That is the order of the reduction above and of ``bincount``.
    It holds only when
    - ``matrix`` is C-contiguous: a Fortran-ordered one is summed down each
      lane by another loop, with other bits;
    - it has at least 2 rows and 2 lanes, as the size guard of
      ``Dataset.dense_columns`` ensures: with one lane einsum sums in
      another order;
    - the numpy build's einsum does not fuse the multiply and the add (a
      build whose SIMD baseline has no FMA, such as X86_V2). The canary
      ``test_einsum_does_not_fuse_multiply_add`` in
      ``tests/test_dense_columns.py`` fails first on a build that does.
    """
    return np.einsum("ij,i->j", matrix, weights)


def margins(dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Per-sample decision values a_i^T x."""
    cols = dataset.dense_columns
    if cols is not None:
        return _lane_sums(cols, x)
    return dataset.features.matvec(x)


def _coefs(loss: str, m: np.ndarray, labels: np.ndarray) -> np.ndarray:
    if loss == LOSS_LOGISTIC:
        neg = -labels
        s = _sigmoid(neg * m)
        s *= neg
        return s
    return m - labels


def _check_x(dataset: Dataset, x) -> np.ndarray:
    # contiguous, so that a full row's vals.dot(x) sums in the order of
    # vals.dot(x[cols]); with a strided x the dot kernel takes another path
    x = np.ascontiguousarray(x, dtype=np.float64)
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
            grad = _lane_sums(dataset.data.reshape(-1, d), coefs)
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
    vals = dataset.data[lo:hi]
    # column indices strictly increase in [0, d), so a row that stores d
    # entries has the columns arange(d): no gather of x and no scatter.
    # vals.dot runs the kernel of vals @ v without the matmul ufunc's cost
    full_row = hi - lo == dataset.dimension
    if full_row:
        m = vals.dot(x)
    else:
        cols = dataset.indices[lo:hi]
        m = vals.dot(x[cols])
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
    if full_row:
        return coef * vals
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
    b, d = rows.size, dataset.dimension
    if dataset.full_rows and d >= 2:
        # rows that store all d features, columns arange(d): gather whole
        # rows and scatter with _lane_sums, which adds each lane in
        # bincount's order (b >= 2 here). With a contiguous x, which
        # _check_x ensures, the broadcast matmul sums each row in the order
        # of vals @ x[cols]; a strided x takes another dot kernel
        vals = dataset.data.reshape(-1, d)[rows]
        m = (vals[:, None, :] @ x[:, None]).reshape(b)
        grad = _lane_sums(vals, _coefs(loss, m, dataset.labels[rows]))
        grad /= b
        return grad
    pos, lengths = row_positions(dataset.indptr, rows)
    if pos.size == 0:
        # bincount over no entries would return int64
        return np.zeros(d)
    cols, vals = dataset.indices[pos], dataset.data[pos]
    m = _ragged_row_margins(vals, x[cols], lengths)
    coefs = _coefs(loss, m, dataset.labels[rows])
    grad = np.bincount(cols, weights=np.repeat(coefs, lengths) * vals,
                       minlength=d)
    grad /= b
    return grad


def full_gradient(problem: Problem, dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Exact average of per-sample gradients (plus the folded ridge)."""
    x = _check_x(dataset, x)
    return _gradient_over_rows(problem, dataset, x, None)


def stochastic_gradient(problem: Problem, dataset: Dataset, x: np.ndarray,
                        rng, batch_size: int,
                        enumerate_all: bool = False) -> np.ndarray:
    """Average gradient over a uniform with-replacement batch.

    ``rng`` is anything that answers ``integers(low, high, size)``: a
    ``numpy.random.Generator``, or the block-drawn ``solver.SampleStream``
    that ``solver.drive`` hands its steps. ``enumerate_all`` replaces
    sampling with a pass over every sample (and does not touch the rng);
    the result then equals full_gradient.
    """
    x = _check_x(dataset, x)
    if enumerate_all:
        return _gradient_over_rows(problem, dataset, x, None)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = rng.integers(0, dataset.n_samples, size=batch_size)
    return _gradient_over_rows(problem, dataset, x, idx)

