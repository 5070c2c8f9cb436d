"""Row-compressed sparse matrices and spectral estimation.

One CSR type serves both sparse matrices of the method: the penalty ``F``,
of which the solver needs ``F @ x``, ``F.T @ y`` and the largest eigenvalue
of ``F.T F``, and the data matrix ``A`` of a ``Dataset``, whose CSR margins
``A @ x`` and full-gradient scatter ``A.T @ c`` are the same two products.
All CSR validation lives in ``SparseMatrix.__post_init__``, which runs once
per matrix built from outside arrays. ``take_rows`` skips it: rows taken
from a valid matrix are valid, and a split of 1e5 rows need not check them
again. Everything is plain numpy; accumulation uses ``np.bincount`` so
empty rows and columns are handled exactly and summation order is
deterministic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

_TINY = np.finfo(float).tiny


def row_positions(indptr: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stored-entry positions of the CSR ``rows``, row after row in the
    given order (repeats included), and the length of each of those rows."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(starts - (ends - lengths), lengths)), lengths


def checked_rows(rows, n_rows: int) -> np.ndarray:
    """``rows`` as a 1-D int64 array; IndexError unless each is in [0, n_rows)."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (rows.size and not 0 <= rows.min() <= rows.max() < n_rows):
        raise IndexError(f"rows must be a 1-D array of indices below {n_rows}")
    return rows


class PowerIterationError(RuntimeError):
    """Raised when power iteration fails to converge within max_iter.

    Carries the last Rayleigh-quotient estimate in ``last_estimate``.
    """

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate

    def __reduce__(self):
        # rebuilt from both arguments, so it survives a worker-process hop
        return type(self), (str(self), self.last_estimate)


@dataclass(frozen=True)
class SparseMatrix:
    """CSR matrix with validated structure.

    row_offsets has length n_rows+1 and is nondecreasing with
    row_offsets[-1] == nnz; column indices are strictly increasing within
    each row. The matrix records no row length: a dataset's layout is
    ``Dataset.full_rows``.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    # repeated row index per stored entry; derived, used by the products
    row_ids: np.ndarray = field(init=False, repr=False, compare=False)
    # sigma_max_FtF once computed. Not a functools.cached_property: that
    # moves the fields into an instance __dict__, which made every matvec
    # of the matrix about 10% slower (CPython 3.11)
    _sigma_max_FtF: float | None = field(default=None, init=False, repr=False,
                                         compare=False)

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
        lengths = np.diff(offsets)
        if offsets[0] != 0 or np.any(lengths < 0):
            raise ValueError("row_offsets must start at 0 and be nondecreasing")
        if offsets[-1] != cols.size or cols.size != vals.size:
            raise ValueError("row_offsets[-1] must equal the number of stored entries")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_cols):
            raise ValueError("column index out of range")
        row_ids = np.repeat(np.arange(self.n_rows, dtype=np.int64), lengths)
        if cols.size > 1:
            same_row = row_ids[1:] == row_ids[:-1]
            if np.any(np.diff(cols)[same_row] <= 0):
                raise ValueError("column indices must be strictly increasing within a row")
        object.__setattr__(self, "row_ids", row_ids)
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values must be finite")

    @property
    def sigma_max_FtF(self) -> float:
        """``power_iteration_sigma_max`` of this matrix at its default
        tolerance, computed on first use and kept. The fields are frozen,
        but the arrays are not: like ``Dataset.dense_columns``, the cache
        assumes they are not mutated in place."""
        if self._sigma_max_FtF is None:
            object.__setattr__(self, "_sigma_max_FtF", power_iteration_sigma_max(self))
        return self._sigma_max_FtF

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @classmethod
    def unchecked(cls, *field_values) -> "SparseMatrix":
        """The matrix of the given field values, in field order (``n_rows``
        to ``row_ids``), valid by construction: set as given,
        with no check and no copy."""
        out = object.__new__(cls)
        for f, value in zip(fields(cls), field_values):
            object.__setattr__(out, f.name, value)
        return out

    def take_rows(self, rows) -> "SparseMatrix":
        """The given rows in the given order, repeats allowed. Rows of a
        valid matrix are valid, so the fields are set without a check."""
        rows = checked_rows(rows, self.n_rows)
        gather, lengths = row_positions(self.row_offsets, rows)
        return SparseMatrix.unchecked(
            rows.size, self.n_cols, np.concatenate(([0], np.cumsum(lengths))),
            self.col_indices[gather], self.values[gather],
            np.repeat(np.arange(rows.size, dtype=np.int64), lengths))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return ``M @ v``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_cols,):
            raise ValueError(f"matvec expects a vector of length {self.n_cols}, got {v.shape}")
        if self.nnz == 0:
            return np.zeros(self.n_rows)
        return self._matvec(v)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        """``matvec`` of a float64 vector of length ``n_cols``, unchecked."""
        return np.bincount(self.row_ids, weights=self.values * v[self.col_indices],
                           minlength=self.n_rows)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """Return ``M.T @ u``."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.n_rows,):
            raise ValueError(f"rmatvec expects a vector of length {self.n_rows}, got {u.shape}")
        if self.nnz == 0:
            return np.zeros(self.n_cols)
        return self._rmatvec(u)

    def _rmatvec(self, u: np.ndarray) -> np.ndarray:
        """``rmatvec`` of a float64 vector of length ``n_rows``, unchecked."""
        return np.bincount(self.col_indices, weights=self.values * u[self.row_ids],
                           minlength=self.n_cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_ids, self.col_indices] = self.values
        return out

    def fingerprint(self, *extra: np.ndarray) -> str:
        """Hex digest of the structural content, then of the ``extra``
        arrays in order, for manifests and caches."""
        return fingerprint_of(self.shape, (self.row_offsets, self.col_indices,
                                           self.values, *extra))


def fingerprint_of(shape: tuple[int, int], arrays) -> str:
    """sha256 hex digest of ``shape`` as int64, then of each of ``arrays``."""
    h = hashlib.sha256()
    h.update(np.int64(shape).tobytes())
    for a in arrays:
        h.update(np.ascontiguousarray(a))
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
    # vectors built here need no checks; sqrt(w.dot(w)) is np.linalg.norm(w)
    v = np.ones(m.n_cols) / np.sqrt(m.n_cols)
    w = m._rmatvec(m._matvec(v))
    if w.dot(w) == 0.0:
        v = np.random.default_rng(0).standard_normal(m.n_cols)
        v /= math.sqrt(v.dot(v))
        w = m._rmatvec(m._matvec(v))
        if w.dot(w) == 0.0:
            return 0.0
    theta_old = np.inf
    theta = float(v.dot(w))
    for _ in range(max_iter):
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = m._rmatvec(m._matvec(v))
        theta = float(v.dot(w))
        if abs(theta - theta_old) <= tol * max(abs(theta), _TINY):
            return theta
        theta_old = theta
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {theta!r})", theta)
