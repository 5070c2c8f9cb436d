"""Problem data model: samples, datasets, problem bundles, solver configuration.

A Dataset's features are a ``SparseMatrix`` (one CSR row per sample, the
data matrix ``A``) so the oracles can vectorize over samples; individual
samples are exposed as lightweight views. Datasets whose rows store every
feature also carry a column-major copy for the full-data passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import ProxSpec
from .sparse import SparseMatrix

LOSS_LOGISTIC = "logistic"
LOSS_LEAST_SQUARES = "least-squares"
LOSS_KINDS = (LOSS_LOGISTIC, LOSS_LEAST_SQUARES)

REGIME_CONVEX = "convex"
REGIME_SC_UNIFORM = "sc-uniform"
REGIME_SC_NONUNIFORM = "sc-nonuniform"
REGIMES = (REGIME_CONVEX, REGIME_SC_UNIFORM, REGIME_SC_NONUNIFORM)


@dataclass(frozen=True)
class Sample:
    """One labeled sample: sparse feature vector plus a +-1 label."""

    indices: np.ndarray
    values: np.ndarray
    label: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-D arrays of equal length")
        if idx.size and ((idx.min() < 0) or np.any(np.diff(idx) <= 0)):
            raise ValueError("feature indices must be nonnegative and strictly increasing")
        if self.label not in (-1.0, 1.0):
            raise ValueError("label must be -1 or +1")

    def dense(self, dimension: int) -> np.ndarray:
        out = np.zeros(dimension)
        out[self.indices] = self.values
        return out


def row_positions(indptr: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stored-entry positions of the CSR ``rows``, row after row in the
    given order (repeats included), and the length of each of those rows."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - (ends - lengths), lengths)), lengths


class Dataset:
    """Immutable collection of labeled samples sharing a feature dimension.

    The features are a ``SparseMatrix`` with one row per sample, which
    validates the CSR structure. ``indptr``, ``indices``, ``data``,
    ``row_ids`` and ``dimension`` are that matrix's own fields under the
    names the oracles use, not copies.
    """

    def __init__(self, indptr, indices, data, labels, dimension):
        self.labels = np.asarray(labels, dtype=np.float64)
        n = self.labels.size
        if n == 0:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.features = f = SparseMatrix(n, int(dimension), indptr, indices, data)
        self.indptr, self.indices, self.data = f.row_offsets, f.col_indices, f.values
        self.row_ids, self.dimension = f.row_ids, f.n_cols
        lengths = np.diff(self.indptr)
        # stored entries per row when every row has the same count, else None
        self.uniform_row_length = (int(lengths[0]) if np.all(lengths == lengths[0])
                                   else None)

    @cached_property
    def dense_columns(self) -> np.ndarray | None:
        """Read-only ``(d, n)`` copy of the features, built on first use, when
        every row stores every feature and n, d >= 2 (the size guard of the
        dense full passes in ``oracles``); None otherwise."""
        n, d = self.n_samples, self.dimension
        if self.uniform_row_length != d or n < 2 or d < 2:
            return None
        cols = self.data.reshape(n, d).T.copy()
        cols.flags.writeable = False
        return cols

    @classmethod
    def from_dense_rows(cls, features, labels) -> "Dataset":
        """Dataset of the rows of a 2-D array; every row stores every
        feature, zeros included."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n, d = features.shape
        return cls(d * np.arange(n + 1, dtype=np.int64),
                   np.tile(np.arange(d, dtype=np.int64), n),
                   features.ravel(), labels, d)

    @property
    def n_samples(self) -> int:
        return int(self.labels.size)

    def __len__(self) -> int:
        return self.n_samples

    def sample(self, i: int) -> Sample:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return Sample(self.indices[lo:hi], self.data[lo:hi], float(self.labels[i]))

    @property
    def samples(self) -> list[Sample]:
        return [self.sample(i) for i in range(self.n_samples)]

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        gather, counts = row_positions(self.indptr, rows)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(counts)
        return Dataset(indptr, self.indices[gather], self.data[gather],
                       self.labels[rows], self.dimension)

    def row_norms_sq(self) -> np.ndarray:
        if self.indices.size == 0:
            return np.zeros(self.n_samples)
        return np.bincount(self.row_ids, weights=self.data ** 2,
                           minlength=self.n_samples)

    def fingerprint(self) -> str:
        return self.features.fingerprint(self.labels)


@dataclass(frozen=True)
class Problem:
    """Loss oracle kind, two regularizers, penalty matrix, and convexity info.

    ``ridge`` is a quadratic term (ridge/2)*||x||^2 folded into the loss
    oracle itself; it is what makes the smooth part provably strongly
    convex, so ``strong_convexity_mu`` may not exceed it.
    """

    loss: str
    r1: ProxSpec
    r2: ProxSpec
    penalty: SparseMatrix
    ridge: float = 0.0
    strong_convexity_mu: float = 0.0
    feasible_radius: float | None = None

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss!r}")
        if self.r2.kind != "l1":
            raise ValueError("the composed regularizer must be an l1 norm")
        if not math.isfinite(self.ridge) or self.ridge < 0:
            raise ValueError("ridge must be finite and >= 0")
        if self.strong_convexity_mu < 0:
            raise ValueError("strong_convexity_mu must be >= 0")
        if self.strong_convexity_mu > self.ridge:
            raise ValueError(
                "strong_convexity_mu may not exceed the folded ridge term; "
                "only the explicit quadratic makes the loss provably strongly convex")
        if self.feasible_radius is not None and self.feasible_radius <= 0:
            raise ValueError("feasible_radius must be positive when given")

    @property
    def dimension(self) -> int:
        return self.penalty.n_cols


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
    capture_steps: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.lipschitz_L <= 0:
            raise ValueError("lipschitz_L must be positive")
        if self.sigma_max_FtF < 0:
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
    if gamma <= 0:
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
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss!r}")
    if dataset.n_samples == 0:
        raise ValueError("dataset must be nonempty")
    max_sq = float(dataset.row_norms_sq().max())
    return 0.25 * max_sq if loss == LOSS_LOGISTIC else max_sq
