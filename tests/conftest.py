"""Helpers shared by the test modules."""

import hashlib
import math

import numpy as np

from spdpeg import data, oracles
from spdpeg.model import Dataset
from spdpeg.prox import ProxSpec, apply_prox
from spdpeg.solver import Schedule, _bracket_coefficients, run, step_size
from spdpeg.sparse import PowerIterationError, SparseMatrix


def csr_dataset(indptr, indices, data, labels, dimension):
    """Dataset of the given CSR arrays with one row per label; the matrix
    gets the full check of ``SparseMatrix``."""
    n = np.asarray(labels).size
    return Dataset(SparseMatrix(n, dimension, indptr, indices, data), labels)


def fingerprint(obj, *extra) -> str:
    """sha256 hex digest of a ``SparseMatrix``: its shape as int64, its CSR
    arrays, then the ``extra`` arrays in order. A ``Dataset`` is hashed as
    its ``features``, then its labels. The data pins are these digests."""
    if isinstance(obj, Dataset):
        return fingerprint(obj.features, obj.labels, *extra)
    h = hashlib.sha256(np.int64(obj.shape).tobytes())
    for a in (obj.row_offsets, obj.col_indices, obj.values, *extra):
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def average_weight(schedule: Schedule, k: int, t: int) -> float:
    """Closed-form weight of iterate k in the averaged output over
    iterations 0..t, which the solver accumulates online."""
    if schedule.regime == "sc-nonuniform":
        return 2.0 * (k + 3.0) / ((t + 1.0) * (t + 6.0))
    return 1.0 / (t + 1.0)


def schedule_bracket_coefficients(config, schedule: Schedule, k: int):
    """The bracket coefficients at the step size of iteration k."""
    return _bracket_coefficients(config, step_size(schedule, k))


def prox_squared_l2(v, weight: float, step: float) -> np.ndarray:
    """Prox of (weight/2)||.||^2 at step c, v / (1 + c*weight): the
    squared-l2 case of ``prox.apply_prox``, which rejects a step <= 0."""
    return apply_prox(ProxSpec("squared-l2", weight), v, step)


def sparse_from_dense(array) -> SparseMatrix:
    """Checked CSR matrix of the nonzeros of a 2-D array."""
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = np.nonzero(a)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    offsets = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.add.at(offsets, rows + 1, 1)
    return SparseMatrix(a.shape[0], a.shape[1], np.cumsum(offsets),
                        cols, a[rows, cols])


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm; float values use repr so they round-trip."""
    lines = []
    for i in range(dataset.n_samples):
        lo, hi = dataset.indptr[i], dataset.indptr[i + 1]
        parts = ["+1" if dataset.labels[i] > 0 else "-1"]
        parts.extend(f"{int(c) + 1}:{float(v)!r}"
                     for c, v in zip(dataset.indices[lo:hi], dataset.data[lo:hi]))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_penalty(path, m: SparseMatrix) -> None:
    """Write a penalty in the text format of ``penalties.load_penalty``:
    'rows cols nnz', then one 'row col value' triple per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
        for r, c, v in zip(m.row_ids, m.col_indices, m.values):
            fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")


def count_calls(monkeypatch, owner, name, *aliases):
    """Count the calls of ``owner.name``, also through the modules in
    ``aliases`` that may have imported it by name."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for ns in (owner, *aliases):
        monkeypatch.setattr(ns, name, counted, raising=False)
    return calls


def diverge_for_seed(seed):
    """``solver.run`` with 100x steps for ``seed``, so that run diverges."""
    def run_diverging(problem, dataset, config, test_dataset=None):
        return run(problem, dataset, config, test_dataset,
                   step_scale=100.0 if config.seed == seed else 1.0)
    return run_diverging


def logaddexp_logistic_losses(labels, m) -> np.ndarray:
    """Per-sample logistic losses log(1 + exp(-b*m)) as
    ``oracles.loss_from_margins`` took them before it used the split form:
    ``np.logaddexp``, which calls libm per element. The tolerance reference
    of the vectorised kernel, which differs from it in the last bits."""
    return np.logaddexp(0.0, -np.asarray(labels) * np.asarray(m))


def reference_power_iteration(m: SparseMatrix, tol: float = 1e-10,
                              max_iter: int = 10000) -> float:
    """``power_iteration_sigma_max`` as it was written before its steps
    skipped the checks of ``matvec``/``rmatvec``: public products,
    ``np.linalg.norm`` and ``v @ w``. The bitwise reference of the lean loop."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if m.n_cols == 0 or m.nnz == 0:
        return 0.0
    v = np.ones(m.n_cols) / np.sqrt(m.n_cols)
    w = m.rmatvec(m.matvec(v))
    if np.linalg.norm(w) == 0.0:
        v = np.random.default_rng(0).standard_normal(m.n_cols)
        v /= np.linalg.norm(v)
        w = m.rmatvec(m.matvec(v))
        if np.linalg.norm(w) == 0.0:
            return 0.0
    theta_old = np.inf
    theta = float(v @ w)
    for _ in range(max_iter):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = m.rmatvec(m.matvec(v))
        theta = float(v @ w)
        if abs(theta - theta_old) <= tol * max(abs(theta), np.finfo(float).tiny):
            return theta
        theta_old = theta
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {theta!r})", theta)


def reference_full_pass(problem, dataset, x) -> np.ndarray:
    """``oracles._gradient_over_rows`` over every row as it was before the
    logistic coefficients took one division by -b*n: ``_coefs(...) / n``
    with the masked-select sigmoid, then the scatter. The bitwise reference
    of the full pass."""
    m = oracles.margins(dataset, x)
    labels = dataset.labels
    if problem.loss == "logistic":
        neg = -labels
        t = neg * m
        s = np.exp(-np.abs(t))
        den = s + 1.0
        s[t >= 0] = 1.0
        s /= den
        s *= neg
        coefs = s / dataset.n_samples
    else:
        coefs = (m - labels) / dataset.n_samples
    if dataset.dense_rows is not None:
        grad = oracles._lane_sums(dataset.dense_rows, coefs)
    else:
        grad = dataset.features.rmatvec(coefs)
    if problem.ridge:
        grad = grad + problem.ridge * x
    return grad


def one_shot_synthesize(kind, d, n, noise, seed):
    """``data.synthesize`` as it drew before its blocks: every feature in
    one draw, one scale and one product. The bitwise reference of the
    blocked draw."""
    rng = np.random.default_rng(seed)
    x_star, graph = data._ground_truth(kind, d, rng)
    features = rng.standard_normal((n, d))
    features /= math.sqrt(d)
    margins = features @ x_star + noise * rng.standard_normal(n)
    labels = np.where(margins >= 0, 1.0, -1.0)
    return Dataset.from_dense_rows(features, labels), graph, x_star


def column_row_norms_sq(rows) -> np.ndarray:
    """``Dataset.row_norms_sq`` of dense rows as it was before its blocks:
    column by column over all n rows. The bitwise reference of the blocked
    loop."""
    out = np.zeros(rows.shape[0])
    for col in rows.T:
        out += col ** 2
    return out
