"""Problem data model: datasets, problem bundles, solver configuration.

A ``Dataset`` holds its rows either as a CSR ``SparseMatrix`` (the data
matrix ``A``), which the parser builds and checks for ragged rows, or as
one C-ordered ``(n, d)`` array, checked finite once: from
``from_dense_rows`` (so ``synthesize``), and from the parser when every
row stores every feature. Its docstring gives the layout that the full
passes read and when the CSR view of dense rows is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prox import ProxSpec
from .sparse import SparseMatrix, checked_rows

LOSS_LOGISTIC = "logistic"
LOSS_LEAST_SQUARES = "least-squares"
LOSS_KINDS = (LOSS_LOGISTIC, LOSS_LEAST_SQUARES)

REGIME_CONVEX = "convex"
REGIME_SC_UNIFORM = "sc-uniform"
REGIME_SC_NONUNIFORM = "sc-nonuniform"
REGIMES = (REGIME_CONVEX, REGIME_SC_UNIFORM, REGIME_SC_NONUNIFORM)

NORM_BLOCK = 4096  # rows per block of the finiteness check and row_norms_sq


class Dataset:
    """Immutable collection of labeled samples sharing a feature dimension.

    ``features`` is the CSR ``SparseMatrix`` of the samples, one row each.
    ``indptr``, ``indices``, ``data``, ``row_ids`` and ``dimension`` are
    that matrix's own fields under the names the oracles use, not copies.
    ``dense_rows`` is the one row-layout fact: the ``(n, d)`` view of
    ``data`` when every row stores all d features, so has the columns
    arange(d) (column indices strictly increase in [0, d), so that is when
    n*d are stored), else None. It is the layout every full-data pass
    reads; no other copy is kept. Rows from ``from_dense_rows`` or a parsed
    file of full rows store no column index or row id and build
    ``features`` on first read; no module of this package reads it.
    Lazy fields are properties over attributes that ``_store`` sets: a
    ``functools.cached_property`` writes the instance ``__dict__``, which
    slows every later attribute load (CPython 3.11). Caches assume the
    arrays are not mutated in place.
    """

    def __init__(self, features: SparseMatrix, labels):
        self._store(labels, features, None)

    def _store(self, labels, features: SparseMatrix | None,
               rows: np.ndarray | None) -> None:
        n = features.n_rows if rows is None else rows.shape[0]
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.labels.size == 0:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.abs(self.labels) == 1.0):  # NaN fails too
            raise ValueError("labels must be -1 or +1")
        if self.labels.shape != (n,):
            raise ValueError(f"expected one label per feature row ({n}), "
                             f"got labels of shape {self.labels.shape}")
        if rows is None:
            self.indptr, self.data = features.row_offsets, features.values
            self.dimension = features.n_cols
        else:
            self.dimension = d = rows.shape[1]
            self.indptr, self.data = d * np.arange(n + 1, dtype=np.int64), rows.reshape(-1)
        self.dense_rows = (self.data.reshape(n, self.dimension)
                           if self.data.size == n * self.dimension else None)
        self._features = features
        self._max_row_norm_sq = self._neg_labels = self._neg_labels_n = None

    @classmethod
    def from_dense_rows(cls, features, labels) -> "Dataset":
        """Dataset of the rows of a 2-D array; every row stores every
        feature, zeros included. A C-ordered float64 array is kept, not
        copied."""
        rows = np.ascontiguousarray(features, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("features must be a 2-D array")
        for lo in range(0, len(rows), NORM_BLOCK):  # no n×d bool array
            if not np.isfinite(rows[lo:lo + NORM_BLOCK]).all():
                raise ValueError("matrix values must be finite")
        return cls._of_rows(labels, rows)

    @classmethod
    def _of_rows(cls, labels, rows: np.ndarray) -> "Dataset":
        """Dataset of a C-ordered float64 ``(n, d)`` array whose values are
        known finite, kept as it is and not checked again."""
        out = object.__new__(cls)
        out._store(labels, None, rows)
        return out

    @property
    def features(self) -> SparseMatrix:
        if self._features is None:  # dense rows: columns arange(d) in each
            n, d = self.dense_rows.shape
            self._features = SparseMatrix.unchecked(
                n, d, self.indptr, np.tile(np.arange(d, dtype=np.int64), n),
                self.data, np.repeat(np.arange(n, dtype=np.int64), d))
        return self._features

    @property
    def indices(self) -> np.ndarray:
        return self.features.col_indices

    @property
    def row_ids(self) -> np.ndarray:
        return self.features.row_ids

    @property
    def neg_labels(self) -> np.ndarray:
        """-b per sample, built on first use and kept: the signs of the
        logistic coefficients."""
        if self._neg_labels is None:
            self._neg_labels = -self.labels
        return self._neg_labels

    @property
    def neg_labels_n(self) -> np.ndarray:
        """-b*n per sample, exact for b = +-1: the divisor of the logistic
        full pass, built on first use and kept."""
        if self._neg_labels_n is None:
            self._neg_labels_n = self.labels * -self.n_samples
        return self._neg_labels_n

    @property
    def n_samples(self) -> int:
        return int(self.labels.size)

    def subset(self, rows) -> "Dataset":
        """The given rows: a unit-step slice of dense rows is a view of
        them, any other selection a copy."""
        if isinstance(rows, slice):
            if self.dense_rows is not None and rows.step in (None, 1):
                return Dataset._of_rows(self.labels[rows], self.dense_rows[rows])
            rows = np.arange(self.n_samples)[rows]
        if self.dense_rows is None:
            return Dataset(self.features.take_rows(rows), self.labels[rows])
        rows = checked_rows(rows, self.n_samples)
        return Dataset._of_rows(self.labels.take(rows),
                                self.dense_rows.take(rows, axis=0))

    def row_norms_sq(self) -> np.ndarray:
        rows = self.dense_rows
        if rows is not None:
            # column by column from 0.0, a block of rows at a time: each row
            # adds its squares in the order, and so with the bits, of a
            # bincount over its entries
            out = np.zeros(self.n_samples)
            for lo in range(0, self.n_samples, NORM_BLOCK):
                acc = out[lo:lo + NORM_BLOCK]
                for col in rows[lo:lo + NORM_BLOCK].T:
                    acc += col ** 2
            return out
        if self.data.size == 0:
            return np.zeros(self.n_samples)
        return np.bincount(self.row_ids, weights=self.data ** 2,
                           minlength=self.n_samples)

    @property
    def max_row_norm_sq(self) -> float:
        """``max_i ||a_i||^2``, computed on first use and kept."""
        if self._max_row_norm_sq is None:
            self._max_row_norm_sq = float(self.row_norms_sq().max())
        return self._max_row_norm_sq


@dataclass(frozen=True)
class Problem:
    """Loss oracle kind, two regularizers, penalty matrix and feasible ball.

    ``ridge`` is a quadratic term (ridge/2)*||x||^2 folded into the loss
    oracle itself; it is what makes the smooth part provably strongly
    convex, and it is the modulus mu of the strongly convex regimes.
    """

    loss: str
    r1: ProxSpec
    r2: ProxSpec
    penalty: SparseMatrix
    ridge: float = 0.0
    feasible_radius: float | None = None

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if self.r2.kind != "l1":
            raise ValueError("the composed regularizer must be an l1 norm")
        if not math.isfinite(self.ridge) or self.ridge < 0:
            raise ValueError("ridge must be finite and >= 0")
        if self.feasible_radius is not None and not self.feasible_radius > 0:
            raise ValueError("feasible_radius must be positive when given")


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solver run needs besides the problem and the data."""

    gamma: float
    regime: str
    max_iters: int
    seed: int
    lipschitz_L: float
    sigma_max_FtF: float
    batch_size: int = 1
    eval_every: int = 100
    full_batch: bool = False

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not self.lipschitz_L > 0:
            raise ValueError("lipschitz_L must be positive")
        if not self.sigma_max_FtF >= 0:
            raise ValueError("sigma_max_FtF must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


def compute_L_tilde(gamma: float, sigma_max: float, lipschitz_L: float,
                    mu: float) -> float:
    """Composite smoothness constant gating the step-size schedules.

    max(8*gamma*sigma_max + mu, sqrt(8*L^2 + gamma*sigma_max) + mu); pass
    mu=0 for the general convex regime.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    for name, v in (("sigma_max", sigma_max), ("lipschitz_L", lipschitz_L), ("mu", mu)):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and >= 0")
    return max(8.0 * gamma * sigma_max + mu,
               math.sqrt(8.0 * lipschitz_L ** 2 + gamma * sigma_max) + mu)


def estimate_lipschitz(dataset: Dataset, loss: str) -> float:
    """Worst-case-sample gradient Lipschitz bound for the data loss.

    Logistic: 0.25 * max_i ||a_i||^2 (per-sample curvature of the logistic
    function tops out at 1/4). Least squares: max_i ||a_i||^2, the spectral
    norm of the per-sample Hessian a_i a_i^T. Excludes any folded ridge.
    Reads the dataset's cached ``max_row_norm_sq``, so a second call on the
    same dataset makes no pass over the rows.
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss!r}")
    if dataset.n_samples == 0:
        raise ValueError("dataset must be nonempty")
    max_sq = dataset.max_row_norm_sq
    return 0.25 * max_sq if loss == LOSS_LOGISTIC else max_sq
