"""Full and stochastic first-order oracles for the smooth loss.

Both supported losses have per-sample gradients of the form coef * a_i,
so batch gradients reduce to one coefficient per drawn sample scattered
back through the rows. ``_gradient_over_rows`` is the one full pass and
``draw_kernel`` the one sampled path (its docstring gives the three paths
and their bits); ``full_gradient`` and ``stochastic_gradient`` are their
checked entries, and the loops of ``solver`` and ``bench`` call the
kernels on the inputs their entries checked. The full gradient and the
forced full-enumeration batch share one pass, which makes the
unbiasedness identity hold to rounding rather than approximately.

A full pass takes the margins ``A @ x`` and the scatter ``A.T @ coefs``
of the data matrix ``A``: over the rows ``Dataset.dense_rows`` when a
dataset has them, as each row's BLAS ``dot`` with x (``np.vecdot``, the
kernel and so the bits of the sampled paths' ``vals.dot(x)``) and
``_lane_sums`` (whose docstring states its bits), else through
``SparseMatrix.products``. The logistic coefficients of a full pass,
``-b * sigmoid(-b*m) / n``, take (-b)*m in place over the margins
(``Dataset.neg_labels``) and one division by ``Dataset.neg_labels_n``
(-b*n), which for b = +-1 have the bits of -(b*m) and of the product
followed by the division. Scalar operands are 0-d float64 arrays, as in
``solver``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .model import LOSS_LOGISTIC, Dataset, Problem
from .sparse import BLAS_MAX_VALUES, row_positions

# read-only 0-d operands: numpy applies them faster than Python floats
# (NEP 50's scalar path), with the same bits
_ONE, _ZERO = np.array(1.0), np.array(0.0)
_ONE.flags.writeable = _ZERO.flags.writeable = False


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # the branch that never overflows: 1/(1 + exp(-t)) for t >= 0 and
    # exp(t)/(1 + exp(t)) below, i.e. exp(fmin(t, 0)) / (1 + exp(-|t|)).
    # The second exp costs less than a masked write of the numerator over
    # random signs (0.08 against 0.5 ms at n = 80,000); fmin(NaN, 0) is 0,
    # so a NaN comes from the denominator, with the masked form's sign bit
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += _ONE
    num = np.fmin(t, _ZERO)
    np.exp(num, out=num)
    num /= e
    return num


def _lane_sums(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i weights[i] * matrix[i, :]`` in one pass, with no n*d product.

    Up to ``BLAS_MAX_VALUES`` values it is one BLAS ``weights.dot(matrix)``
    (the bits of ``matrix.T.dot(weights)``, so of ``SparseMatrix.rmatvec``
    on such a matrix): 1.5 against 6.1 us for einsum at 200x20. Its bits
    are the BLAS kernel's, which sums in blocks and may fuse multiply and
    add; up to the cut-over they did not depend on the thread count
    (``test_blas_products_do_not_depend_on_the_thread_count``).

    Above it, one ``np.einsum``, with the bits of ``np.add.reduce(matrix *
    weights[:, None], axis=0, initial=0.0)``: einsum's two-operand loop
    walks the rows in order and adds each row's products into every lane
    (column), one multiply and one add at a time, from 0.0. That is the
    order of the reduction and of ``bincount``. It holds only when
    - ``matrix`` is C-contiguous: a Fortran-ordered one is summed down each
      lane by another loop, with other bits;
    - it has at least 2 lanes: a one-lane scatter sums in einsum's own
      order, neither ``bincount``'s nor the reduction's;
    - the numpy build's einsum does not fuse the multiply and the add (a
      build whose SIMD baseline has no FMA, such as X86_V2). The canary
      ``test_einsum_does_not_fuse_multiply_add`` in
      ``tests/test_dense_columns.py`` fails first on a build that does.
    Above the cut-over BLAS would give bits that follow the thread count.
    """
    if matrix.size <= BLAS_MAX_VALUES:
        return weights.dot(matrix)
    return np.einsum("ij,i->j", matrix, weights)


def margins(dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Per-sample decision values a_i^T x."""
    rows = dataset.dense_rows
    if rows is not None:
        return np.vecdot(rows, x)
    return dataset.features.matvec(x)


def _logistic_coefs(m: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """-b * sigmoid(-b*m), given neg = -b."""
    s = _sigmoid(neg * m)
    s *= neg
    return s


def _coefs(loss: str, m: np.ndarray, labels: np.ndarray) -> np.ndarray:
    if loss == LOSS_LOGISTIC:
        return _logistic_coefs(m, -labels)
    return m - labels


def _check_x(dataset: Dataset, x) -> np.ndarray:
    # contiguous, so that a full row's vals.dot(x) sums in the order of
    # vals.dot(x[cols]); with a strided x the dot kernel takes another path
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (dataset.dimension,):
        raise ValueError(f"x must have length {dataset.dimension}, got {x.shape}")
    return x


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) element-wise, as ``max(t, 0) + log1p(exp(-|t|))``,
    written into ``t``, which it returns.

    These are the branches of ``np.logaddexp(0, t)``, and the results agree
    with it at 0, -0.0, +-inf, NaN, +-800 and subnormals. Elsewhere they
    differ from it in the last bits (3.5% of values, at most 3 ulp, measured
    on 3M points): ``logaddexp`` calls libm per element, while this uses
    numpy's vectorised ``exp`` and ``log1p``, several times faster. So the
    bits depend on the CPU features numpy dispatches to at run time, as
    ``_sigmoid``'s ``np.exp`` does for every gradient. The canary
    ``test_softplus_bits_do_not_depend_on_layout`` in
    ``tests/test_oracles.py`` checks that an element's bits do not depend
    on the array's length, offset or stride, or on in-place use.
    """
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.maximum(t, 0.0, out=t)
    t += e
    return t


def loss_from_margins(loss: str, labels: np.ndarray, m: np.ndarray) -> float:
    """Average per-sample loss given the margins ``m`` of those samples."""
    if loss == LOSS_LOGISTIC:
        # log(1 + exp(-b*m)); -(b*m) has the bits of (-b)*m
        t = labels * m
        np.negative(t, out=t)
        return float(np.mean(_softplus(t)))
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


def _scatter(dataset: Dataset, coefs: np.ndarray) -> np.ndarray:
    """``A.T @ coefs`` over all rows: the scatter of a full pass."""
    rows = dataset.dense_rows
    if rows is not None:
        return _lane_sums(rows, coefs)
    return dataset.features.rmatvec(coefs)


def _gradient_over_rows(problem: Problem, dataset: Dataset,
                        x: np.ndarray) -> np.ndarray:
    """Average per-sample gradient over every row: the full pass."""
    m = margins(dataset, x)
    if problem.loss == LOSS_LOGISTIC:  # _coefs(...) / n, bit for bit
        m *= dataset.neg_labels
        coefs = _sigmoid(m)
        coefs /= dataset.neg_labels_n
    else:
        coefs = _coefs(problem.loss, m, dataset.labels) / dataset.n_samples
    grad = _scatter(dataset, coefs)
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def draw_kernel(problem: Problem, dataset: Dataset, batch_size: int):
    """``(x, rows) -> `` the average gradient, folded ridge included, over
    ``batch_size`` drawn ``rows`` (int64 indices below n) at a contiguous
    float64 x, by one of three paths, chosen and bound once:
    - one row: scalar arithmetic on that row's slice, with no array built
      for its margin, coefficient or label; a row that stores every
      feature also skips the gather of x and the scatter;
    - more rows of ``Dataset.dense_rows``: the rows taken whole, one
      ``np.vecdot`` for their margins and the scatter ``_lane_sums``;
    - more rows otherwise: one gather of their stored entries, one
      ``np.vecdot`` per distinct row length and one ``bincount`` scatter.
    ``np.vecdot`` runs the dot kernel of ``vals @ x[cols]`` on each row (a
    strided x would take another). So all three give the bits of a loop
    over the rows, with the BLAS product as the scatter of a small batch of
    whole rows and einsum's own order for a batch of one-lane rows above
    the cut-over; a segment sum would not."""
    if batch_size == 1:
        rows_gradient = partial(_row_gradient, problem.loss, dataset)
    elif dataset.dense_rows is not None:
        matrix = dataset.dense_rows
        logistic = problem.loss == LOSS_LOGISTIC
        signed = dataset.neg_labels if logistic else dataset.labels
        divisor = np.array(float(batch_size))

        def rows_gradient(x, rows):
            vals = matrix.take(rows, axis=0)
            m = np.vecdot(vals, x)
            if logistic:
                coefs = _logistic_coefs(m, signed.take(rows))
            else:
                coefs = m - signed.take(rows)
            grad = _lane_sums(vals, coefs)
            grad /= divisor
            return grad
    else:
        rows_gradient = partial(_ragged_gradient, problem.loss, dataset)
    if not problem.ridge:
        return rows_gradient
    ridge = np.array(problem.ridge)
    return lambda x, rows: rows_gradient(x, rows) + ridge * x


def _row_gradient(loss: str, dataset: Dataset, x: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    i = int(rows[0])
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
    """Dot product of each of the concatenated rows, one ``np.vecdot`` per
    distinct row length, which runs the dot kernel of ``vals @ x[cols]`` on
    each row, so every margin has the batch-1 path's summation order."""
    out = np.empty(lengths.size)
    offsets = np.cumsum(lengths) - lengths
    # a Python set of the few lengths in a batch is cheaper than np.unique
    for k in set(lengths.tolist()):
        group = lengths == k
        pos = offsets[group][:, None] + np.arange(k)
        out[group] = np.vecdot(vals[pos], xs[pos])
    return out


def _ragged_gradient(loss: str, dataset: Dataset, x: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    d = dataset.dimension
    pos, lengths = row_positions(dataset.indptr, rows)
    if pos.size == 0:
        # bincount over no entries would return int64
        return np.zeros(d)
    cols, vals = dataset.indices[pos], dataset.data[pos]
    m = _ragged_row_margins(vals, x[cols], lengths)
    coefs = _coefs(loss, m, dataset.labels[rows])
    grad = np.bincount(cols, weights=np.repeat(coefs, lengths) * vals,
                       minlength=d)
    grad /= rows.size
    return grad


def full_gradient(problem: Problem, dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Exact average of per-sample gradients (plus the folded ridge)."""
    x = _check_x(dataset, x)
    return _gradient_over_rows(problem, dataset, x)


def stochastic_gradient(problem: Problem, dataset: Dataset, x: np.ndarray,
                        rng, batch_size: int,
                        enumerate_all: bool = False) -> np.ndarray:
    """Average gradient over a uniform with-replacement batch.

    ``rng`` is a ``numpy.random.Generator`` (anything that answers
    ``integers(low, high, size)``), called once for the batch's indices.
    ``enumerate_all`` replaces sampling with a pass over every sample (and
    does not touch the rng); the result then equals full_gradient.
    """
    x = _check_x(dataset, x)
    if enumerate_all:
        return _gradient_over_rows(problem, dataset, x)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = rng.integers(0, dataset.n_samples, size=batch_size)
    return draw_kernel(problem, dataset, batch_size)(x, idx)

