"""Builders for the structure-inducing penalty matrices.

Two constructions: the first-difference matrix for fused penalties, and an
edge-difference matrix for graph-guided penalties. Graphs can be supplied
directly, recovered from data via a ridge-regularized precision estimate,
or the full matrix can be loaded from a simple text file so any external
covariance-selection solver can feed in its result.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .sparse import SparseMatrix


@dataclass(frozen=True)
class GraphSpec:
    """Weighted undirected edges (i < j) over features 0..dimension-1."""

    edges: tuple
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           tuple((int(i), int(j), float(w)) for i, j, w in self.edges))
        seen = set()
        for i, j, w in self.edges:
            if not (0 <= i < j < self.dimension):
                raise ValueError(f"invalid edge ({i}, {j}) for dimension {self.dimension}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not math.isfinite(w) or w == 0.0:
                raise ValueError("edge weights must be finite and nonzero")
            seen.add((i, j))


def build_fused_matrix(d: int) -> SparseMatrix:
    """(d-1) x d first-difference matrix: ones on the diagonal, minus ones
    on the superdiagonal.

    Its ``sigma_max_FtF`` is set in closed form, with no power iteration:
    F^T F is the path-graph Laplacian, whose largest eigenvalue is
    2 + 2 cos(pi/d) (Strang, SIAM Review 1999). One ulp up from the
    rounded cosine form is never below the exact value and at most about
    2 ulp above it (checked against 50-digit arithmetic for d = 2..5000),
    so the step constant stays an upper bound."""
    if d < 2:
        raise ValueError("fused penalty needs dimension >= 2")
    cols = np.empty(2 * (d - 1), dtype=np.int64)
    cols[0::2] = np.arange(d - 1)
    cols[1::2] = np.arange(1, d)
    vals = np.tile([1.0, -1.0], d - 1)
    offsets = 2 * np.arange(d, dtype=np.int64)
    row_ids = np.repeat(np.arange(d - 1, dtype=np.int64), 2)
    # laid out here, valid by construction: no CSR check
    return SparseMatrix.unchecked(
        d - 1, d, offsets, cols, vals, row_ids,
        math.nextafter(2.0 + 2.0 * math.cos(math.pi / d), math.inf))


def build_graph_matrix(spec: GraphSpec) -> SparseMatrix:
    """One row per edge (i, j, w): +w at column i, -w at column j."""
    n_edges = len(spec.edges)
    cols = np.empty(2 * n_edges, dtype=np.int64)
    vals = np.empty(2 * n_edges)
    for r, (i, j, w) in enumerate(spec.edges):
        cols[2 * r], cols[2 * r + 1] = i, j
        vals[2 * r], vals[2 * r + 1] = w, -w
    offsets = 2 * np.arange(n_edges + 1, dtype=np.int64)
    # GraphSpec checked 0 <= i < j < d, no repeated edge and finite nonzero
    # weights, so the CSR structure is valid by construction: no CSR check
    return SparseMatrix.unchecked(n_edges, spec.dimension, offsets, cols, vals,
                                  np.repeat(np.arange(n_edges, dtype=np.int64), 2))


def precision_graph_from_data(dataset: Dataset, ridge: float,
                              threshold: float) -> GraphSpec:
    """Edges from the thresholded ridge-regularized precision matrix.

    Computes the empirical feature covariance C, inverts C + ridge*I with a
    dense solve, and keeps an edge (i, j, |P_ij|) for every off-diagonal
    entry with |P_ij| > threshold.
    """
    if dataset.n_samples < 2:
        raise ValueError("need at least two samples to estimate a covariance")
    if not (ridge > 0 and threshold > 0):
        raise ValueError("ridge and threshold must be positive")
    d = dataset.dimension
    rows = dataset.dense_rows
    dense = dataset.features.to_dense() if rows is None else rows
    centered = dense - dense.mean(axis=0)
    cov = centered.T @ centered / dataset.n_samples
    precision = np.linalg.solve(cov + ridge * np.eye(d), np.eye(d))
    precision = 0.5 * (precision + precision.T)
    ii, jj = np.nonzero(np.triu(np.abs(precision) > threshold, k=1))
    edges = tuple((int(i), int(j), float(abs(precision[i, j])))
                  for i, j in zip(ii, jj))
    return GraphSpec(edges, d)


def load_penalty(path) -> SparseMatrix:
    """Parse the penalty text format strictly; any deviation is an error.
    Blank lines are skipped, and every error names the file's own line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError("penalty file is empty")
        head = header.split()
        if len(head) != 3:
            raise ValueError("penalty file line 1: expected 'rows cols nnz'")
        try:
            n_rows, n_cols, nnz = (int(t) for t in head)
        except ValueError:
            raise ValueError("penalty file line 1: expected three integers") from None
        rows, cols, vals = array("q"), array("q"), array("d")
        prev = (-1, -1)
        for line_no, ln in enumerate(fh, start=2):
            parts = ln.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"penalty file line {line_no}: expected 'row col value'")
            try:
                r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"penalty file line {line_no}: malformed entry") from None
            if not math.isfinite(v):
                raise ValueError(f"penalty file line {line_no}: non-finite value "
                                 f"{parts[2]!r}")
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"penalty file line {line_no}: index out of range")
            if (r, c) <= prev:
                raise ValueError(f"penalty file line {line_no}: entries must be "
                                 "row-major sorted without duplicates")
            prev = (r, c)
            rows.append(r)
            cols.append(c)
            vals.append(v)
    if len(vals) != nnz:
        raise ValueError(f"penalty file: expected {nnz} entries, found {len(vals)}")
    # the lines are row-major sorted, so row r starts after the entries of
    # the rows before it
    offsets = np.searchsorted(rows, np.arange(n_rows + 1))
    return SparseMatrix(n_rows, n_cols, offsets, cols, vals)
