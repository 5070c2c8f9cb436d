"""Row-compressed sparse matrices and spectral estimation.

One CSR type serves both sparse matrices of the method: the penalty ``F``,
of which the solver needs ``F @ x``, ``F.T @ y`` and the largest eigenvalue
of ``F.T F``, and the data matrix ``A`` of a ``Dataset``, whose CSR margins
``A @ x`` and full-gradient scatter ``A.T @ c`` are the same two products.
All CSR validation lives here. Everything is plain numpy; accumulation uses
``np.bincount`` so empty rows and columns are handled exactly and summation
order is deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class PowerIterationError(RuntimeError):
    """Raised when power iteration fails to converge within max_iter.

    Carries the last Rayleigh-quotient estimate in ``last_estimate``.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix with validated structure.

    row_offsets has length n_rows+1 and is nondecreasing with
    row_offsets[-1] == nnz; column indices are strictly increasing within
    each row.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    # repeated row index per stored entry; derived, used by the products
    row_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets = np.asarray(self.row_offsets, dtype=np.int64)
        cols = np.asarray(self.col_indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "row_offsets", offsets)
        object.__setattr__(self, "col_indices", cols)
        object.__setattr__(self, "values", vals)
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows+1")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        if offsets[-1] != cols.size or cols.size != vals.size:
            raise ValueError("row_offsets[-1] must equal the number of stored entries")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        row_ids = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(offsets))
        if cols.size > 1:
            same_row = row_ids[1:] == row_ids[:-1]
            if np.any(np.diff(cols)[same_row] <= 0):
                raise ValueError("column indices must be strictly increasing within a row")
        object.__setattr__(self, "row_ids", row_ids)
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values must be finite")

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def from_dense(cls, array) -> "SparseMatrix":
        a = np.asarray(array, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(a)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        offsets = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        return cls(a.shape[0], a.shape[1], np.cumsum(offsets),
                   cols, a[rows, cols])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return ``M @ v``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_cols,):
            raise ValueError(f"matvec expects a vector of length {self.n_cols}, got {v.shape}")
        if self.nnz == 0:
            return np.zeros(self.n_rows)
        return np.bincount(self.row_ids, weights=self.values * v[self.col_indices],
                           minlength=self.n_rows)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Return ``M.T @ u``."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n_rows,):
            raise ValueError(f"rmatvec expects a vector of length {self.n_rows}, got {u.shape}")
        if self.nnz == 0:
            return np.zeros(self.n_cols)
        return np.bincount(self.col_indices, weights=self.values * u[self.row_ids],
                           minlength=self.n_cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_ids, self.col_indices] = self.values
        return out

    def fingerprint(self, *extra: np.ndarray) -> str:
        """Hex digest of the structural content, then of the ``extra``
        arrays in order, for manifests and caches."""
        h = hashlib.sha256()
        h.update(np.int64([self.n_rows, self.n_cols]).tobytes())
        for a in (self.row_offsets, self.col_indices, self.values, *extra):
            h.update(a.tobytes())
        return h.hexdigest()


def power_iteration_sigma_max(m: SparseMatrix, tol: float = 1e-10,
                              max_iter: int = 10000) -> float:
    """Largest eigenvalue of ``M.T M`` by power iteration.

    Starts from the normalized all-ones vector so results are deterministic.
    Difference-style matrices annihilate the all-ones vector exactly (their
    rows sum to zero); when the first iterate vanishes we restart from a
    fixed seeded Gaussian vector, which is still deterministic.
    """
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
