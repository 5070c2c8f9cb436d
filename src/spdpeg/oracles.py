"""Full and stochastic first-order oracles for the smooth loss.

Both supported losses have per-sample gradients of the form coef * a_i,
so batch gradients reduce to one coefficient per drawn sample scattered
back through the rows. ``full_kernel`` binds the one full pass and
``draw_kernel`` the sampled kernel once per layout and batch size
(its docstring gives the kernels and their bits); ``full_gradient`` and
``stochastic_gradient`` are their checked entries, and the loops of
``solver`` and ``bench`` call the kernels on the inputs their entries
checked. The full gradient and the forced full-enumeration batch share
one pass, which makes the unbiasedness identity hold to rounding.

A full pass takes the margins ``A @ x`` and the scatter ``A.T @ coefs``
of the data matrix ``A``: over the rows ``Dataset.dense_rows`` when a
dataset has them, as ``_row_dots`` and ``_lane_sums`` (one BLAS product
each up to ``sparse.BLAS_MAX_VALUES`` values; their docstrings state
their bits), else by the kernels of ``SparseMatrix.products``, not the
checked ``matvec`` and ``rmatvec``. The logistic loss's derivative is
stated once, in ``_logistic``: every coefficient -b*sigmoid(-b*m) is
``num / (1 + exp(min(b*m, 709)))`` with num = -b for a draw and -b/n
for a full pass, and the certificate's sigmoid(-b*m) is the same kernel
with num = 1. Scalar operands are 0-d float64 arrays, as in ``solver``.

The objective is stated here once, over the same margins and scatter:
``objective_from_margins`` is its value, which the solver's trace and
``bench.objective_value`` take, and ``duality_gap`` (checked) and
``objective_and_gap`` (on a run's kernels) its Fenchel certificate, which
the FISTA reference takes.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .model import LOSS_LOGISTIC, Dataset, Problem
from .prox import reg_value
from .sparse import BLAS_MAX_VALUES, EPS, row_positions

# read-only 0-d operands: numpy applies them faster than Python floats
# (NEP 50's scalar path), with the same bits. _EXP_CAP is the largest b*m
# that exp takes: exp(709) is finite, exp(710) overflows
_ONE, _EXP_CAP = np.array(1.0), np.array(709.0)
_ONE.flags.writeable = _EXP_CAP.flags.writeable = False


def _logistic(num, t):
    """``num / (1 + exp(min(t, 709)))``, the logistic loss's derivative:
    with t = b*m and num = -b the coefficient -b*sigmoid(-b*m) of margin m
    and label b, with num = 1 the sigmoid of -t.

    One exp, no mask and no branch on the sign. The cap keeps exp finite,
    so b*m = +inf or 1e300 gives num/(1 + e^709) with no overflow warning,
    -inf gives num, and a NaN stays NaN (``np.minimum`` returns it, and the
    scalar clamp keeps it, since NaN > 709 is false). An array ``t`` is
    overwritten with the result, which is returned; one draw's numpy
    scalars take the same operations as scalars, which costs less than 0-d
    arrays (a ``min`` call alone would cost a batch-1 draw 0.13 us) and
    gives the same bits (``test_scalar_coefficient_is_the_array_kernel``).
    ``np.exp``'s bits depend on the CPU features numpy dispatches to at run
    time, as ``_softplus``'s do.
    """
    if not isinstance(t, np.ndarray):
        return num / (1.0 + np.exp(709.0 if t > 709.0 else t))
    np.minimum(t, _EXP_CAP, out=t)
    np.exp(t, out=t)
    t += _ONE
    np.divide(num, t, out=t)
    return t


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


def _row_dots(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``matrix @ x``, each row's dot with x, by the cut-over of
    ``_lane_sums``. Up to ``BLAS_MAX_VALUES`` values it is one BLAS
    ``gemv`` (1.0 against 2.7 us for ``np.vecdot`` at 200x20 on a 2-core
    AVX-512 x86 host), whose bits are the kernel's blocked sums; they did
    not depend on the thread count
    (``test_blas_products_do_not_depend_on_the_thread_count``). Above it,
    ``np.vecdot``: the dot kernel of ``row.dot(x)`` on each row."""
    if matrix.size <= BLAS_MAX_VALUES:
        return matrix.dot(x)
    return np.vecdot(matrix, x)


def margins(dataset: Dataset, x: np.ndarray) -> np.ndarray:
    """Per-sample decision values a_i^T x."""
    rows = dataset.dense_rows
    if rows is not None:
        return _row_dots(rows, x)
    return dataset.features.products()[0](x)


def _coefs(loss: str, m, labels):
    """The per-sample gradient coefficients of margins ``m``, arrays or
    one draw's scalars; ``m`` is not changed."""
    if loss == LOSS_LOGISTIC:
        return _logistic(-labels, labels * m)
    return m - labels


def _check_x(dataset: Dataset, x) -> np.ndarray:
    # contiguous, so that a dense row's vals.dot(x) sums in the order of
    # vals.dot(x[cols]); with a strided x the dot kernel takes another path
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (dataset.dimension,):
        raise ValueError(f"x must have length {dataset.dimension}, got {x.shape}")
    return x


def check_dimensions(problem: Problem, dataset: Dataset,
                     test_dataset: Dataset | None = None) -> None:
    """Raise ValueError unless the penalty and any test set have the
    dataset's dimension, as the kernels assume."""
    if problem.penalty.n_cols != dataset.dimension:
        raise ValueError(f"penalty has {problem.penalty.n_cols} columns but the "
                         f"dataset dimension is {dataset.dimension}")
    if test_dataset is not None and test_dataset.dimension != dataset.dimension:
        raise ValueError("train and test dimensions differ")


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) element-wise, as ``max(t, 0) + log1p(exp(-|t|))``,
    written into ``t``, which it returns.

    These are the branches of ``np.logaddexp(0, t)``, and the results agree
    with it at 0, -0.0, +-inf, NaN, +-800 and subnormals. Elsewhere they
    differ from it in the last bits (3.5% of values, at most 3 ulp, measured
    on 3M points): ``logaddexp`` calls libm per element, while this uses
    numpy's vectorised ``exp`` and ``log1p``, several times faster. So the
    bits depend on the CPU features numpy dispatches to at run time, as
    ``_logistic``'s ``np.exp`` does for every gradient. The canary
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


def objective_from_margins(problem: Problem, labels: np.ndarray, m: np.ndarray,
                           x: np.ndarray, fx: np.ndarray) -> float:
    """Training objective at x given its margins m and fx = F x: the loss
    (with any folded ridge) plus both regularizers."""
    return (loss_from_margins(problem.loss, labels, m) + ridge_value(problem, x)
            + reg_value(problem.r1, x) + reg_value(problem.r2, fx))


def _scatter(dataset: Dataset, coefs: np.ndarray) -> np.ndarray:
    """``A.T @ coefs`` over all rows: the scatter of a full pass."""
    rows = dataset.dense_rows
    if rows is not None:
        return _lane_sums(rows, coefs)
    return dataset.features.products()[1](coefs)


def full_kernel(problem: Problem, dataset: Dataset):
    """``x -> `` the average gradient over every row, folded ridge
    included, at a contiguous float64 x: the full pass, bound once. Its
    logistic coefficients take num = -b/n, made here, so that n is in the
    one division per row."""
    labels = dataset.labels
    logistic = problem.loss == LOSS_LOGISTIC
    n = np.array(float(dataset.n_samples))
    num = labels / -n

    def gradient(x):
        m = margins(dataset, x)
        if logistic:
            m *= labels
            coefs = _logistic(num, m)
        else:
            coefs = m - labels
            coefs /= n
        return _scatter(dataset, coefs)
    if not problem.ridge:
        return gradient
    ridge = np.array(problem.ridge)
    return lambda x: gradient(x) + ridge * x


def draw_kernel(problem: Problem, dataset: Dataset, batch_size: int):
    """``(x, rows) -> `` the average gradient, folded ridge included, over
    ``batch_size`` drawn ``rows`` (int64 indices below n) at a contiguous
    float64 x, by the kernel of the layout and batch size, bound once:
    - one row of ``Dataset.dense_rows``: its ``dot`` with x times the
      scalar ``_coefs``, with no ``indptr``, gather or scatter;
    - more rows of ``dense_rows``: the rows taken whole, their margins by
      ``_row_dots`` and the scatter ``_lane_sums``, divided by the batch
      size;
    - CSR rows: ``_row_gradient`` for one, which gathers x and scatters;
      for more, one gather of their stored entries, one ``np.vecdot`` per
      distinct row length and one ``bincount`` scatter.
    A dense row is the memory of its CSR slice; a CSR row of all d features
    gathers x itself and writes every entry, a -0.0 included. ``np.vecdot``
    runs the dot kernel of ``vals @ x[cols]`` on each row (a strided x
    would take another). So a batch-1 draw and a CSR batch give the bits of
    a loop over the rows; a batch of whole rows takes the bits of one BLAS
    ``gemv`` of the gathered rows for its margins and of the BLAS product
    for its scatter up to the cut-over, and einsum's own order for a batch
    of one-lane rows above it. Its margins may differ from the row loop's,
    and from the full pass's, in the last bits. Every path takes its
    logistic coefficient from ``_logistic`` with num = -b."""
    matrix = dataset.dense_rows
    loss, labels = problem.loss, dataset.labels
    if matrix is None:
        rows_gradient = partial(_row_gradient if batch_size == 1
                                else _ragged_gradient, loss, dataset)
    elif batch_size == 1:
        def rows_gradient(x, rows):
            i = rows[0]
            vals = matrix[i]
            return _coefs(loss, vals.dot(x), labels[i]) * vals
    else:
        divisor = np.array(float(batch_size))

        def rows_gradient(x, rows):
            vals = matrix.take(rows, axis=0)
            grad = _lane_sums(vals, _coefs(loss, _row_dots(vals, x),
                                           labels.take(rows)))
            grad /= divisor
            return grad
    if not problem.ridge:
        return rows_gradient
    ridge = np.array(problem.ridge)
    return lambda x, rows: rows_gradient(x, rows) + ridge * x


def _row_gradient(loss: str, dataset: Dataset, x: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    i = int(rows[0])
    lo, hi = dataset.indptr[i], dataset.indptr[i + 1]
    cols, vals = dataset.indices[lo:hi], dataset.data[lo:hi]
    grad = np.zeros(dataset.dimension)
    # vals.dot runs the kernel of vals @ v without the matmul ufunc's cost
    grad[cols] = _coefs(loss, vals.dot(x[cols]), dataset.labels[i]) * vals
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
    return full_kernel(problem, dataset)(_check_x(dataset, x))


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
        return full_kernel(problem, dataset)(x)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = rng.integers(0, dataset.n_samples, size=batch_size)
    return draw_kernel(problem, dataset, batch_size)(x, idx)


def duality_gap(problem: Problem, dataset: Dataset, x: np.ndarray,
                nu: np.ndarray) -> float:
    """Fenchel duality gap of x and a dual point nu of r2, an upper bound on
    ``objective - f*``, for  l(Ax) + g(x) + r2(Fx)  where g is r1 plus any
    folded ridge and feasible ball.

    theta = l'(Ax)/n, and nu is clipped into r2's box |nu| <= r2.weight.
    With w = A^T theta + F^T nu the dual value is -l*(theta) - g*(w):
    l* is minus the mean binary entropy of p = -b*n*theta for the logistic
    loss and mean(r^2/2 + b*r), r = n*theta, for least squares. For an l1
    weight a alone, g* is the indicator of |w| <= a, so (theta, nu) are
    scaled into it (Gap Safe: Ndiaye, Fercoq, Gramfort & Salmon, JMLR
    2017); with a quadratic q (ridge plus any squared-l2 r1) it is
    rho^2/(2q), with a ball of radius R it is R*rho, and with both the
    Huber function of the two, where rho = ||(|w| - a)_+||_2.

    Rounding margin, to first order in eps: each value is a sum of at most
    n + d + l terms, each evaluated within a few ulp, so it is off by at
    most (n + d + l + 16) eps times the sum of its terms' magnitudes
    (Higham, Accuracy and Stability, 2002, sec. 4.2). The rounding of the
    margins and of F x moves the objective by at most (d + 2) eps ||x||_1
    (max|a_ij| max|l'| + l r2.weight max|f_ij|), and that of w is at most
    err_w per entry, which is added to w's peak or to rho.
    """
    check_dimensions(problem, dataset)
    x = _check_x(dataset, x)
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape != (problem.penalty.n_rows,):
        raise ValueError(f"nu must have length {problem.penalty.n_rows}, "
                         f"got {nu.shape}")
    return objective_and_gap(problem, dataset, *problem.penalty.products(),
                             x, nu)[1]


def _xlogx(v: np.ndarray) -> np.ndarray:
    return v * np.log(v, out=np.zeros_like(v), where=v > 0.0)


def objective_and_gap(problem: Problem, dataset: Dataset, F, Ft, x: np.ndarray,
                      nu: np.ndarray) -> tuple[float, float]:
    """The objective at x, with the bits of ``bench.objective_value``, and
    ``duality_gap(problem, dataset, x, nu)``, unchecked, through the
    products ``F`` and ``Ft`` of the penalty (a run's kernels, or
    ``SparseMatrix.products``)."""
    n, d, l = dataset.n_samples, dataset.dimension, problem.penalty.n_rows
    labels = dataset.labels
    m = margins(dataset, x)
    f = objective_from_margins(problem, labels, m, x, F(x))
    if problem.loss == LOSS_LOGISTIC:
        p = _logistic(_ONE, labels * m)
        theta = -labels * p / n
        slope = 1.0  # the largest |l'| of a sample
    else:
        resid = m - labels
        theta = resid / n
        slope = float(np.max(np.abs(resid)))
    w2 = problem.r2.weight
    nu = np.clip(nu, -w2, w2)
    w = _scatter(dataset, theta) + Ft(nu)
    a_max = np.max(np.abs(dataset.data), initial=0.0)
    f_max = np.max(np.abs(problem.penalty.values), initial=0.0)
    err_w = (n + l + 8) * EPS * (a_max * np.abs(theta).sum()
                                 + f_max * np.abs(nu).sum())
    r1, radius = problem.r1, problem.feasible_radius
    a = r1.weight if r1.kind == "l1" else 0.0
    q = problem.ridge + (r1.weight if r1.kind == "squared-l2" else 0.0)
    scale, conj_g = 1.0, 0.0
    if q == 0.0 and radius is None:
        peak = float(np.max(np.abs(w), initial=0.0)) + err_w
        if peak > a:
            scale = a / peak
    else:
        rho = (float(np.linalg.norm(np.maximum(np.abs(w) - a, 0.0)))
               + math.sqrt(d) * err_w)
        if radius is None or (q > 0.0 and rho <= q * radius):
            conj_g = rho * rho / (2.0 * q)
        else:
            conj_g = radius * rho - 0.5 * q * radius * radius
    if problem.loss == LOSS_LOGISTIC:
        p *= scale
        conj_terms = _xlogx(p) + _xlogx(1.0 - p)
    else:
        resid *= scale
        conj_terms = 0.5 * resid * resid + labels * resid
    dual = -float(np.mean(conj_terms)) - conj_g
    margin = EPS * (
        (n + d + l + 16) * (abs(f) + float(np.mean(np.abs(conj_terms))) + conj_g)
        + (d + 2) * float(np.abs(x).sum()) * (a_max * slope + l * w2 * f_max))
    return f, f - dual + margin
