"""Helpers shared by the test modules."""

import hashlib
import math

import numpy as np

from spdpeg import data, oracles
from spdpeg.model import Dataset
from spdpeg.prox import ProxSpec, apply_prox, reg_value
from spdpeg.solver import (Schedule, StepInequalityReport, _bracket_coefficients,
                           run, step_size)
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


def ragged_copy(dataset: Dataset, seed: int) -> Dataset:
    """``dataset`` of dense rows with about 30% of its entries dropped at
    random: CSR rows of several lengths below d."""
    rows = dataset.dense_rows
    kept = np.random.default_rng(seed).random(rows.shape) >= 0.3
    out = Dataset(sparse_from_dense(rows * kept), dataset.labels)
    assert out.dense_rows is None
    return out


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


def per_pair_graph_truth(d, rng):
    """The graph-logistic branch of ``data._ground_truth`` as it drew before
    its edge rounds: one ``integers(0, d, size=2)`` call per candidate edge,
    a union-find on a numpy array and x* through a dict of component values.
    The bitwise reference of the edges, x* and the generator's stream."""
    n_edges = min(int(1.2 * d) + 1, d * (d - 1) // 2)
    chosen = set()
    while len(chosen) < n_edges:
        i, j = rng.integers(0, d, size=2)
        if i != j:
            chosen.add((min(i, j), max(i, j)))
    edges = tuple((i, j, 1.0) for i, j in sorted(chosen))
    parent = np.arange(d)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in edges:
        parent[find(i)] = find(j)
    comp = np.array([find(i) for i in range(d)])
    comp_ids = np.unique(comp)
    comp_vals = rng.standard_normal(comp_ids.size)
    comp_vals[rng.random(comp_ids.size) < 0.5] = 0.0
    if np.all(comp_vals == 0.0):
        comp_vals[0] = 1.0
    lookup = dict(zip(comp_ids.tolist(), comp_vals))
    return np.array([lookup[c] for c in comp]), edges


def column_row_norms_sq(rows) -> np.ndarray:
    """``Dataset.row_norms_sq`` of dense rows as it was before its blocks:
    column by column over all n rows. The bitwise reference of the blocked
    loop."""
    out = np.zeros(rows.shape[0])
    for col in rows.T:
        out += col ** 2
    return out


def single_reference_step_inequality(capture, problem, dataset, config,
                                     reference) -> StepInequalityReport:
    """``solver.check_step_inequality`` at one reference as it was before
    the audit took a list of references: every term computed in place, and
    the full gradients taken as the step used to record them (the drawn
    ones under ``full_batch``, else ``oracles.full_gradient`` at x and
    x_bar). The bitwise reference of the audit."""
    z_ref, x_ref, lam_ref = (np.asarray(v, dtype=np.float64) for v in reference)
    c, gamma = capture.c, config.gamma
    penalty = problem.penalty
    g1_full, g2_full = (
        (capture.grad_x_stoch, capture.grad_xbar_stoch) if config.full_batch
        else (oracles.full_gradient(problem, dataset, capture.x_prev),
              oracles.full_gradient(problem, dataset, capture.x_bar)))

    delta = capture.grad_x_stoch - g1_full
    delta_bar = capture.grad_xbar_stoch - g2_full
    delta_sq = float(delta @ delta)
    delta_bar_sq = float(delta_bar @ delta_bar)

    g2 = capture.grad_xbar_stoch - penalty.rmatvec(capture.lam_bar)
    residual_bar = penalty.matvec(capture.x_bar) - capture.z_next
    lhs = (reg_value(problem.r1, x_ref) + reg_value(problem.r2, z_ref)
           - reg_value(problem.r1, capture.x_bar)
           - reg_value(problem.r2, capture.z_next)
           + float((z_ref - capture.z_next) @ capture.lam_bar)
           + float((x_ref - capture.x_bar) @ g2)
           + float((lam_ref - capture.lam_bar) @ residual_bar))

    def sq(v):
        return float(v @ v)

    bracket_lambda, bracket_x = _bracket_coefficients(config, c)
    rhs = (sq(x_ref - capture.x_next) / (2.0 * c)
           - sq(x_ref - capture.x_prev) / (2.0 * c)
           - 4.0 * c * (delta_sq + delta_bar_sq)
           - sq(lam_ref - capture.lam_prev) / (2.0 * gamma)
           + sq(lam_ref - capture.lam_next) / (2.0 * gamma)
           + bracket_lambda * sq(capture.lam_prev - capture.lam_bar)
           + bracket_x * sq(capture.x_prev - capture.x_bar)
           + sq(capture.x_next - capture.x_bar) / (2.0 * c))
    return StepInequalityReport(lhs=lhs, rhs=rhs, slack=lhs - rhs,
                                delta_norm_sq=delta_sq,
                                delta_bar_norm_sq=delta_bar_sq,
                                bracket_lambda=bracket_lambda,
                                bracket_x=bracket_x,
                                coefficient_negative=(bracket_lambda < 0
                                                      or bracket_x < 0))
